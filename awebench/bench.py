"""The awekit benchmark: set-up, timed stages, output checks and tracing.

Every workload runs the stages users run (synth, train, search, eval)
through the awekit CLI, in this process, one command at a time. A
workload names the stage that gets 40% of the run's measuring time; the
other two get 30% each, so every end-to-end metric is measured on
every workload. Each unit of work runs in its own directory whose inputs
are written before its clock starts.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from awekit import blobio, cli, corpus, dtw, features, matcher, metrics, model, tensorkit

import reference
from speed import MarkClock
from tracing import Tracer

# The default desk corpus (600 training instances, 20 words, 5 templates
# per word) with a longer search archive. Utterances are drawn last, so
# the training split is the default one.
ARCHIVE_UTTERANCES = 160
SETUP_EPOCHS = 2  # the search model; its report shows the loss falling
SAMPLE_EPOCHS = 1  # a timed train sample
CORPUS = {"num_search_utterances": ARCHIVE_UTTERANCES}
MODEL = {"softmax_mode": "block"}
SETUP_REPEATS = 3
TEMPLATES = 5
SWEEP = (1, 2, 3, 4)
# Work per pass, the same on every seed.
AWE_WINDOWS_PER_PASS = 200
# S-DTW DP cells of a fusion-none pass (about one utterance against all 100
# templates) and of a fusion-dtw pass (the global DTWs among each keyword's
# templates, then one template per keyword against the utterance).
SDTW_CELLS_PER_PASS = {"none": 0.75e6, "dtw": 0.2e6}
FILL_CANDIDATES = 60

STAGES = ("train", "awe", "sdtw")
FOCUS = {"train": "train", "awe_search": "awe", "sdtw_search": "sdtw"}
# Of --seconds; the other two stages split the rest. Every stage's metrics
# are checked on every workload, so each needs enough samples.
FOCUS_SHARE = 0.4
MIN_UNITS = {"train": 2, "awe": 4, "sdtw": 4}  # MAP is pooled over these
MAX_UNITS = {"train": 12, "awe": 12, "sdtw": 24}

# Output checks.
AWE_SCORE_ATOL = 1e-5  # float32 forward passes of different batch shapes
SDTW_SCORE_ATOL = 1e-9
# The 2-epoch search model pooled 0.84 to 0.99 over 60 runs of different
# seeds, S-DTW always 1.0; a broken model or scorer falls far below.
AWE_MAP_FLOOR = 0.7
SDTW_MAP_FLOOR = 0.8
PAIRS_CHECKED = 2

TIME_METRICS = ("setup_s", "train_epoch_s", "awe_search_s", "awe_sweep_s", "sdtw_search_s", "sdtw_fused_search_s")
# Every timing is taken on a MarkClock (speed.py) and reported at its
# probe's reference speed; the seconds as measured stay in the detail
# record. Each kind of unit names its probe and the functions, as (module,
# function) in AK, after each call of which the clock is marked; every CLI
# command marks it too. A function that no longer exists is skipped.
CLOCKS = {
    "setup": ("blas", (("tensorkit", "sgd_nesterov_step"),)),
    "train": ("blas", (("tensorkit", "sgd_nesterov_step"),)),
    "awe": ("blas", (("matcher", "embed_sequences"),)),
    "sdtw": ("python", (("dtw", "sdtw_from_costs"), ("dtw", "dtw_from_costs"))),
}

# Spans whose self time is reported; every other span is a leaf.
SELF_TIME_SPANS = (
    "model.train",
    "model.embed_sequences",
    "matcher.make_query",
    "matcher.search",
    "dtw.fuse_templates_dtw",
    "dtw.sdtw_search",
    "corpus.save_manifest",
    "corpus.load_manifest",
    "tensorkit.backward",
    "stage.synth",
    "stage.train",
    "stage.search",
    "stage.eval",
)

AK = {
    "tensorkit": tensorkit,
    "model": model,
    "matcher": matcher,
    "dtw": dtw,
    "corpus": corpus,
    "blobio": blobio,
    "metrics": metrics,
}

# Untraced originals, for the benchmark's own untimed work.
_forward = model.forward
_save_manifest = corpus.save_manifest


class CheckFailed(Exception):
    pass


def summarize(values):
    """Median, sample count and the highest percentile (of 90, 99, 99.9)
    that has at least ten samples beyond it."""
    if not values:
        return {"n": 0}
    out = {"n": len(values), "median": float(np.median(values))}
    for p in (90, 99, 99.9):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p}"] = float(np.percentile(values, p))
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_lines(src):
    return sum(len(p.read_text().splitlines()) for p in sorted(Path(src).rglob("*.py")))


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Bench:
    def __init__(self, workload, seed, seconds, work_dir):
        self.focus = FOCUS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work_dir
        self.work.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for name, epochs in (("setup", SETUP_EPOCHS), ("sample", SAMPLE_EPOCHS)):
            self.configs[name] = self.work / f"config_{name}.json"
            self.configs[name].write_text(json.dumps({"corpus": CORPUS, "model": {**MODEL, "epochs": epochs}}))
        self.tracer = None
        self.bundle = None
        self.clocks = {kind: MarkClock(kind) for kind in ("blas", "python")}
        self._mark = None  # marks the running clock
        self.samples = {}  # seconds as measured
        self.reported_samples = {}  # seconds at the reference speed
        self.untraced_samples = {}  # reported samples of a traced run's untraced part
        self.results = {"awe": {}, "sdtw": {}}  # pooled scores of the first passes
        self.counters = {"awe_windows_per_pass": [], "sdtw_cells_per_pass": [], "sdtw_fused_cells_per_pass": []}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.next_unit = 0
        self.used_utterances = set()
        self.max_score_error = {"awe": 0.0, "sdtw": 0.0, "sdtw_fused": 0.0}

    # -- plumbing --------------------------------------------------------
    def cli(self, workdir, *args, config="setup"):
        argv = ["--config", str(self.configs[config]), "--workdir", str(workdir), "--seed", str(self.seed), *args]

        def call():
            cli.main.main(args=argv, standalone_mode=False, prog_name="awekit")

        with contextlib.redirect_stdout(io.StringIO()):
            try:
                if self.tracer is not None:
                    self.tracer.span(f"stage.{args[-1]}", call)
                else:
                    call()
            except SystemExit as e:
                if e.code:
                    raise CheckFailed(f"`awekit {' '.join(args)}` exited with {e.code}") from None
        if self._mark is not None:
            self._mark()

    def timed(self, kind, workdir, *commands, config="setup"):
        """Run CLI commands back to back, each an arg tuple, on the clock
        of `kind`; returns (seconds measured, at the reference speed)."""
        with self.clocked(kind) as clock:
            for args in commands:
                self.cli(workdir, *args, config=config)
        return clock.raw, clock.scaled

    @contextlib.contextmanager
    def clocked(self, kind):
        """Run the clock of a kind of unit, marked after every call of its
        functions in CLOCKS. In a traced run each probe is a span of its
        own, so that it adds to no layer's self time."""
        probe, hooks = CLOCKS[kind]
        clock = self.clocks[probe]

        def mark():
            if self.tracer is not None:
                self.tracer.span("bench.probe", clock.mark)
            else:
                clock.mark()

        def marked(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                mark()
                return out

            return wrapper

        undo = []
        for module, name in hooks:
            fn = getattr(AK[module], name, None)
            if fn is not None:
                undo.append((AK[module], name, fn))
                setattr(AK[module], name, marked(fn))
        self._mark = mark
        try:
            with clock.run():
                yield clock
        finally:
            self._mark = None
            for owner, name, fn in reversed(undo):
                setattr(owner, name, fn)

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True

    def operation(self, label, fn):
        """Run one counted operation; a raise or failed check counts as failed."""
        self.attempted += 1
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - every failure is counted and reported
            self.failed += 1
            msg = f"{label}: {type(e).__name__}: {e}"
            self.failures.append(msg)
            print(msg, file=sys.stderr)
            if not isinstance(e, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            return False
        return True

    def add(self, metric, seconds, scaled):
        """Record a timing sample, as measured and at the reference speed."""
        self.samples.setdefault(metric, []).append(seconds)
        self.reported_samples.setdefault(metric, []).append(scaled)

    def unit_dir(self, kind):
        self.next_unit += 1
        return self.work / f"{kind}{self.next_unit:03d}"

    # -- set-up ----------------------------------------------------------
    def setup(self, repeats):
        for r in range(repeats):
            if not self.operation(f"setup {r}", self._setup_once):
                raise CheckFailed("set-up failed")

    def _setup_once(self):
        wd = self.unit_dir("setup")
        with self.clocked("setup") as clock:
            self.cli(wd, "synth")
            bundle = corpus.load_manifest(wd / "corpus")
            self.cli(wd, "train")
            params, mcfg = model.load_model(wd / "models" / "model.awem")
        self.add("setup_s", clock.raw, clock.scaled)
        with self.untraced():
            sizes = (len(bundle.train_instances), len(bundle.template_instances), len(bundle.utterances))
            if sizes != (600, 200, ARCHIVE_UTTERANCES):
                raise CheckFailed(f"corpus has {sizes} train/template/utterance items")
            digest = _digest(wd / "models" / "model.awem")
            epochs = json.loads((wd / "models" / "train_report.json").read_text())["epochs"]
            if self.bundle is None:
                losses = [e["total_loss"] for e in epochs]
                if len(losses) != SETUP_EPOCHS or not all(map(math.isfinite, losses)) or not losses[-1] < losses[0]:
                    raise CheckFailed(f"search model losses {losses} are not finite and falling")
                self.base = wd
                self.bundle, self.params, self.mcfg = bundle, params, mcfg
                self.model_digest, self.setup_epochs = digest, epochs
                self._index_inputs()
            elif digest != self.model_digest:
                raise CheckFailed("same-seed training gave different parameters")

    def _index_inputs(self):
        b = self.bundle
        self.window = matcher.WindowConfig()
        self.width = self.window.window_frames(b.utterances[0][1].frame_shift)
        templates = {}
        for inst in b.template_instances:
            templates.setdefault(inst.word_id, []).append(inst.features.frames)
        self.templates = {w: ts[:TEMPLATES] for w, ts in sorted(templates.items())}
        self.utt = {uid: seq.frames for uid, seq in b.utterances}
        # DP cells of a pass = fixed + per_frame * content frames. Fusion
        # none: every template against the content; fusion dtw: each
        # template onto the first by global DTW, then the first one against
        # the content.
        lengths = [[t.shape[0] for t in ts] for ts in self.templates.values()]
        self.cells_fixed = {"none": 0, "dtw": sum(ls[0] * sum(ls[1:]) for ls in lengths)}
        self.cells_per_frame = {"none": sum(map(sum, lengths)), "dtw": sum(ls[0] for ls in lengths)}
        self.ref_windows = {}
        self.sample_digest = None

    def n_windows(self, uid):
        return len(range(0, self.utt[uid].shape[0], self.window.stride_frames))

    # -- archive slices --------------------------------------------------
    def awe_slice(self):
        """Unused utterances in id order while they stay under
        AWE_WINDOWS_PER_PASS, then the one or two unused ones that fill
        the gap best."""
        pool = [u for u in sorted(self.utt) if u not in self.used_utterances]
        chosen, total = [], 0
        for uid in pool:
            if total + self.n_windows(uid) > AWE_WINDOWS_PER_PASS:
                break
            chosen.append(uid)
            total += self.n_windows(uid)
        rest = pool[len(chosen) :]
        fills = [()] + [(u,) for u in rest] + list(itertools.combinations(rest[:FILL_CANDIDATES], 2))
        chosen += min(fills, key=lambda f: abs(AWE_WINDOWS_PER_PASS - total - sum(map(self.n_windows, f))))
        return self._use(chosen)

    def sdtw_cells(self, fusion, uids):
        content = sum(self.utt[u].shape[0] for u in uids)
        return self.cells_fixed[fusion] + self.cells_per_frame[fusion] * content

    def sdtw_slice(self, fusion):
        """The unused utterance that gives a pass of this fusion the DP
        cell count closest to SDTW_CELLS_PER_PASS."""
        pool = [u for u in sorted(self.utt) if u not in self.used_utterances]
        target = SDTW_CELLS_PER_PASS[fusion]
        return self._use(pool and [min(pool, key=lambda u: abs(self.sdtw_cells(fusion, [u]) - target))])

    def _use(self, uids):
        if not uids:
            raise CheckFailed("search archive exhausted")
        self.used_utterances.update(uids)
        return sorted(uids)

    def write_slice(self, wd, uids, with_model):
        """A corpus of the templates and the given utterances only."""
        keep = set(uids)
        b = self.bundle
        part = dataclasses.replace(
            b,
            train_instances=(),
            utterances=tuple(u for u in b.utterances if u[0] in keep),
            ground_truth=tuple(o for o in b.ground_truth if o.utterance_id in keep),
        )
        _save_manifest(part, wd / "corpus")
        if with_model:
            shutil.copytree(self.base / "models", wd / "models")

    def read_results(self, wd, uids):
        """Scores of a search pass; each keyword must score each utterance
        and eval must have written a MAP."""
        scores = {}
        with open(wd / "results" / "results.jsonl") as f:
            for line in f:
                rec = json.loads(line)
                if "keyword_id" in rec:
                    scores[(rec["keyword_id"], rec["utterance_id"])] = rec["score"]
        want = {(k, u) for k in self.templates for u in uids}
        if set(scores) != want:
            raise CheckFailed(f"results cover {len(scores)} (keyword, utterance) pairs, expected {len(want)}")
        if not all(map(math.isfinite, scores.values())):
            raise CheckFailed("non-finite score")
        if not 0.0 <= json.loads((wd / "reports" / "metrics.json").read_text())["map"] <= 1.0:
            raise CheckFailed("eval wrote no MAP in [0, 1]")
        return scores

    def sample_pairs(self, uids, unit, n):
        rng = np.random.default_rng([self.seed, unit])
        kws = sorted(self.templates)
        return [(kws[int(rng.integers(len(kws)))], uids[int(rng.integers(len(uids)))]) for _ in range(n)]

    def compare(self, kind, got, want, atol, what):
        err = abs(got - want)
        self.max_score_error[kind] = max(self.max_score_error[kind], err)
        if not err <= atol:
            raise CheckFailed(f"{what}: score {got!r} vs reference {want!r}")

    def pooled_map(self, system, floor):
        """MAP over the utterances of a system's first passes, ranked by
        their scores together (scores are absolute costs)."""
        scores = self.results[system]
        uids = sorted({u for _, u in scores})
        relevant = {}
        for occ in self.bundle.ground_truth:
            if (occ.word_id, occ.utterance_id) in scores:
                relevant.setdefault(occ.word_id, set()).add(occ.utterance_id)
        aps = [
            reference.average_precision(sorted(uids, key=lambda u: (scores[(kw, u)], u)), relevant[kw])
            for kw in sorted(relevant)
        ]
        value = float(np.mean(aps))
        if not value >= floor:
            raise CheckFailed(f"{system} MAP {value:.4f} below floor {floor}")
        return value

    # -- stage units -----------------------------------------------------
    def train_unit(self):
        wd = self.unit_dir("train")
        with self.untraced():
            shutil.copytree(self.base / "corpus", wd / "corpus")
        seconds, scaled = self.timed("train", wd, ("train",), config="sample")
        with self.untraced():
            epochs = json.loads((wd / "models" / "train_report.json").read_text())["epochs"]
            # Same seed, same first epoch: its loss must match the search
            # model's first epoch exactly, and every sample's parameters
            # must be byte-identical.
            if len(epochs) != SAMPLE_EPOCHS or epochs[0]["total_loss"] != self.setup_epochs[0]["total_loss"]:
                raise CheckFailed(f"first-epoch loss {epochs[0]['total_loss']} != {self.setup_epochs[0]['total_loss']}")
            digest = _digest(wd / "models" / "model.awem")
            if self.sample_digest is None:
                self.sample_digest = digest
            elif digest != self.sample_digest:
                raise CheckFailed("same-seed training gave different parameters")
        self.add("train_epoch_s", seconds / SAMPLE_EPOCHS, scaled / SAMPLE_EPOCHS)

    def _embed(self, frames):
        emb, _ = _forward(self.params, self.mcfg, [features.FeatureSequence(frames=frames)])
        return emb[0]

    def _awe_ref(self, kw, uid, k):
        if uid not in self.ref_windows:
            wins = reference.window_frames(self.utt[uid], self.width, self.window.stride_frames)
            self.ref_windows[uid] = reference.embed_one_by_one(self._embed, wins)
        fitted = [reference.fit_frames(t, self.width) for t in self.templates[kw][:k]]
        query = reference.embed_one_by_one(self._embed, fitted).mean(axis=0)
        return reference.awe_score(query, self.ref_windows[uid], self.window.sma_len)

    def _check_search_counters(self, what, windows):
        """A traced search must segment and embed exactly the windows
        computed from its slice."""
        if self.tracer is None or not self.tracer.per_search:
            return
        seen = self.tracer.per_search[-1]
        for key in ("windows", "embed_items"):
            if key in seen and seen[key] != windows:
                raise CheckFailed(f"{what}: traced {key} {seen[key]}, computed {windows}")

    def awe_unit(self, index):
        wd = self.unit_dir("awe")
        unit = self.next_unit
        awe = ("--system", "awe", "--fusion", "mean")
        state = {}

        def search(k, what):
            times = self.timed("awe", wd, (*awe, "--templates-per-keyword", str(k), "search"), (*awe, "eval"))
            with self.untraced():
                self._check_search_counters(what, state["windows"])
                scores = self.read_results(wd, state["uids"])
                for kw, uid in self.sample_pairs(state["uids"], unit * 10 + k, PAIRS_CHECKED if k == TEMPLATES else 1):
                    self.compare("awe", scores[(kw, uid)], self._awe_ref(kw, uid, k), AWE_SCORE_ATOL, f"{what} k={k} kw {kw} utt {uid}")
            return times, scores

        def cold():
            with self.untraced():
                state["uids"] = self.awe_slice()
                state["windows"] = sum(self.n_windows(u) for u in state["uids"])
                self.write_slice(wd, state["uids"], with_model=True)
            times, scores = search(TEMPLATES, "awe cold pass")
            self.add("awe_search_s", *times)
            self.counters["awe_windows_per_pass"].append(state["windows"])
            if index < MIN_UNITS["awe"]:
                self.results["awe"].update(scores)

        def sweep():
            for k in SWEEP:
                self.add("awe_sweep_s", *search(k, "awe sweep")[0])

        if self.operation(f"awe cold pass {unit}", cold):
            self.operation(f"awe sweep {unit}", sweep)

    def sdtw_unit(self, index):
        """A fusion-none pass and a fusion-dtw pass, each on a slice of its
        own so that each does the same DP work on every seed."""
        sdtw = ("--system", "sdtw", "--templates-per-keyword", str(TEMPLATES))
        counter = {"none": "sdtw_cells_per_pass", "dtw": "sdtw_fused_cells_per_pass"}

        def search(fusion):
            wd = self.unit_dir("sdtw")
            with self.untraced():
                uids = self.sdtw_slice(fusion)
                self.write_slice(wd, uids, with_model=False)
                cells = self.sdtw_cells(fusion, uids)
            before = self.tracer.counts["dp_cells"] if self.tracer else None
            times = self.timed("sdtw", wd, (*sdtw, "--fusion", fusion, "search"), (*sdtw, "--fusion", fusion, "eval"))
            if before is not None and "dtw.sdtw_from_costs" in self.tracer.installed:
                seen = self.tracer.counts["dp_cells"] - before
                if seen != cells:
                    raise CheckFailed(f"sdtw {fusion}: traced {seen} DP cells, computed {cells}")
            with self.untraced():
                scores = self.read_results(wd, uids)
            self.counters[counter[fusion]].append(cells)
            return times, scores, uids, self.next_unit

        def plain():
            times, scores, uids, unit = search("none")
            with self.untraced():
                for kw, uid in self.sample_pairs(uids, unit, PAIRS_CHECKED):
                    want = min(reference.sdtw_cost(t, self.utt[uid]) for t in self.templates[kw])
                    self.compare("sdtw", scores[(kw, uid)], want, SDTW_SCORE_ATOL, f"sdtw kw {kw} utt {uid}")
            self.add("sdtw_search_s", *times)
            if index < MIN_UNITS["sdtw"]:
                self.results["sdtw"].update(scores)

        def fused():
            times, scores, uids, unit = search("dtw")
            with self.untraced():
                kw, uid = self.sample_pairs(uids, unit, 1)[0]
                want = reference.sdtw_cost(reference.fuse_dtw(self.templates[kw]), self.utt[uid])
                self.compare("sdtw_fused", scores[(kw, uid)], want, SDTW_SCORE_ATOL, f"sdtw fused kw {kw} utt {uid}")
            self.add("sdtw_fused_search_s", *times)

        if self.operation(f"sdtw fusion-none pass {self.next_unit + 1}", plain):
            self.operation(f"sdtw fusion-dtw pass {self.next_unit + 1}", fused)

    # -- schedules -------------------------------------------------------
    def run_stages(self, seconds, units):
        """Run units of all stages, interleaved so that slow and fast
        spells of the machine reach every stage alike: the next unit goes
        to the stage furthest below its share of the time spent. Each
        stage runs `units[stage]` units, or with `seconds` set, more
        until `seconds` have passed (at most MAX_UNITS)."""
        share = {s: FOCUS_SHARE if s == self.focus else (1 - FOCUS_SHARE) / (len(STAGES) - 1) for s in STAGES}
        spent = dict.fromkeys(STAGES, 0.0)
        done = dict.fromkeys(STAGES, 0)
        start = time.perf_counter()
        while True:
            open_ = [s for s in STAGES if done[s] < MAX_UNITS[s]]
            due = [s for s in open_ if done[s] < units[s]]
            if seconds and time.perf_counter() - start < seconds:
                due = open_
            if not due:
                return
            stage = min(due, key=lambda s: (spent[s] / share[s], STAGES.index(s)))
            t0 = time.perf_counter()
            if stage == "train":
                self.operation(f"train sample {done[stage]}", self.train_unit)
            elif stage == "awe":
                self.awe_unit(done[stage])
            else:
                self.sdtw_unit(done[stage])
            spent[stage] += time.perf_counter() - t0
            done[stage] += 1

    def quality(self):
        out = {"train_accuracy": self.setup_epochs[-1]["accuracy"]}
        for system, floor in (("awe", AWE_MAP_FLOOR), ("sdtw", SDTW_MAP_FLOOR)):

            def pooled(system=system, floor=floor):
                out[f"{system}_map"] = self.pooled_map(system, floor)

            self.operation(f"{system} pooled MAP", pooled)
        return out

    def run(self, trace):
        """Returns (end-to-end metrics, per-layer metrics)."""
        if not trace:
            self.setup(SETUP_REPEATS)
            self.run_stages(self.seconds, MIN_UNITS)
            measured = {name: float(np.median(v)) for name, v in self.reported_samples.items()}
            return {**measured, **self.quality(), "peak_rss_mb": peak_rss_mb()}, {}
        # The same schedule untraced, then traced; their difference is
        # the tracing overhead. Only the traced part feeds the layers.
        units = {s: n + (s == self.focus) for s, n in MIN_UNITS.items()}
        self.setup(1)
        self.run_stages(None, units)
        self.untraced_samples, self.samples, self.reported_samples = self.reported_samples, {}, {}
        self.tracer = Tracer(AK)
        self.tracer.install()
        try:
            self.setup(1)
            self.run_stages(None, units)
        finally:
            self.tracer.uninstall()
        self.quality()  # its MAP floors are output checks here too
        layers = self.layer_metrics()
        for name in TIME_METRICS:
            if self.untraced_samples.get(name) and self.reported_samples.get(name):
                layers[f"trace.overhead.{name}"] = float(np.median(self.reported_samples[name]) - np.median(self.untraced_samples[name]))
        return {}, layers

    # -- per-layer metrics ---------------------------------------------
    def layer_metrics(self):
        tr = self.tracer
        totals = tr.totals()
        counts = tr.counts
        m = {}

        def seconds(span):
            return totals.get(span, (0.0, 0.0, 0))[0]

        if "tensorkit.conv2d" in tr.installed:
            conv = {"fwd": 0.0, "bwd": 0.0}
            for span, (secs, _, _) in totals.items():
                if span.startswith("tensorkit.conv2d."):
                    param, phase = span[len("tensorkit.conv2d.") : -4], span[-3:]
                    m[f"tensorkit.conv2d.{param}.{phase}_s"] = secs
                    conv[phase] += secs
            m["tensorkit.conv2d.fwd_s"] = conv["fwd"]
            m["tensorkit.conv2d.bwd_s"] = conv["bwd"]
            m["tensorkit.conv2d.gflop"] = counts["conv_flops"] / 1e9
            if conv["fwd"] + conv["bwd"] > 0:
                m["tensorkit.conv2d.gflop_per_s"] = m["tensorkit.conv2d.gflop"] / (conv["fwd"] + conv["bwd"])
        for name in tr.installed:
            module, fn = name.split(".", 1)
            if module == "tensorkit" and fn not in ("conv2d", "sgd_nesterov_step", "backward"):
                m[f"{name}.fwd_s"] = seconds(f"{name}.fwd")
                m[f"{name}.bwd_s"] = seconds(f"{name}.bwd")
            elif fn != "conv2d":
                m[f"{name}.s"] = seconds(name)
        for span in SELF_TIME_SPANS:
            if span in totals:
                m[f"{span}.self_s"] = totals[span][1]

        if "model.train" in tr.installed:
            m["model.train.steps"] = counts["train_steps"]
            m["model.train.padded_frames"] = counts["train_padded_frames"]
            if counts["train_padded_frames"]:
                m["model.train.valid_frac"] = counts["train_valid_frames"] / counts["train_padded_frames"]
        if "model.embed_sequences" in tr.installed:
            m["model.embed_sequences.items"] = counts["embed_items"]
            m["model.embed_sequences.batches"] = counts["embed_batches"]
            if tr.per_search:
                m["matcher.search.calls"] = len(tr.per_search)
                m["model.embed_sequences.items_per_search"] = sum(d["embed_items"] for d in tr.per_search) / len(tr.per_search)
        if "matcher.window_segments" in tr.installed:
            m["matcher.windows"] = counts["windows"]
        dp = [s for s in ("dtw.sdtw_from_costs", "dtw.dtw_from_costs") if s in tr.installed]
        if dp:
            m["dtw.cells"] = counts["dp_cells"]
            if counts["dp_cells"]:
                m["dtw.ns_per_cell"] = sum(seconds(s) for s in dp) / counts["dp_cells"] * 1e9
        for fn in ("read_blob", "write_blob"):
            if f"blobio.{fn}" in tr.installed:
                m[f"blobio.{fn}.calls"] = counts[f"{fn}_calls"]
                m[f"blobio.{fn}.bytes"] = counts[f"{fn}_bytes"]

        # Every traced training call of the same length must do exactly
        # the same counted work (same seed, same batches).
        def same_training_work():
            by_steps = {}
            for delta in tr.per_train:
                seen = by_steps.setdefault(delta["train_steps"], delta)
                if seen != delta:
                    raise CheckFailed(f"training work differs between repeats: {seen} vs {delta}")

        self.operation("traced training counters", same_training_work)
        return m

    def trace_summary(self):
        return {name: {"s": s, "self_s": self_s, "calls": n} for name, (s, self_s, n) in sorted(self.tracer.totals().items())}
