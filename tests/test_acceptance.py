"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``[criterion N] PASS`` line on success (visible
with ``pytest -s`` or in the verbose pass/fail listing). The expensive
desk-scale trainings are shared across criteria 5-7 and 10 via session
fixtures.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner
from gradcheck import grad_check

from awekit import codec, tensorkit as tk
from awekit.cli import main as cli_main
from awekit.corpus import CorpusSpec, load_manifest, save_manifest, synth_corpus, templates_by_keyword
from awekit.dtw import dtw_from_costs, sdtw_from_costs, sdtw_search
from awekit.features import FeatureSequence
from awekit.matcher import WindowConfig, fuse_templates_mean, make_query, search
from awekit.metrics import (
    average_precision,
    evaluate,
    group_means,
    precision_at_k,
    relevance_from_ground_truth,
)
from awekit.model import (
    ModelConfig,
    _batch_array,
    _forward_graph,
    build_network,
    embed_sequences,
    load_model,
    save_model,
    total_loss,
    train,
)
from awekit.matcher import RankedList

SEEDS = (0, 1, 2)
DESK_MODEL = ModelConfig(softmax_mode="block", epochs=80)
WINDOW = WindowConfig()  # 0.4 s / 40 frames, stride 5, sma 5


def announce(n, ok, detail=""):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def desk_runs():
    """Train 3 model seeds x {alpha=0.8, alpha=0} on one desk corpus."""
    runs = {}
    bundle = synth_corpus(CorpusSpec(seed=0))
    for seed in SEEDS:
        for alpha in (0.8, 0.0):
            cfg = dataclasses.replace(DESK_MODEL, alpha=alpha, seed=seed)
            t0 = time.time()
            params, report = train(cfg, bundle.train_instances)
            runs[(seed, alpha)] = {
                "bundle": bundle,
                "cfg": cfg,
                "params": params,
                "report": report,
                "seconds": time.time() - t0,
            }
    return runs


def awe_report(run, n_templates):
    bundle = run["bundle"]
    queries = make_query(run["params"], run["cfg"], WINDOW, templates_by_keyword(bundle, n_templates))
    rankings = search(queries, bundle.utterances, run["params"], run["cfg"], WINDOW)
    return evaluate(rankings, relevance_from_ground_truth(bundle.ground_truth))


def block_maps(report, spec):
    """MAP over the keywords of each language block, in language order."""
    return tuple(g["map"] for g in group_means(report, spec.word_language).values())


@pytest.fixture(scope="session")
def retrieval(desk_runs):
    """MAP per run at 5 templates (overall and per language block), plus
    10-template MAP for alpha=0.8."""
    out = {}
    for key, run in desk_runs.items():
        seed, alpha = key
        report5 = awe_report(run, 5)
        out[key] = {"map5": report5.map, "blocks5": block_maps(report5, run["bundle"].spec)}
        if alpha == 0.8:
            out[key]["map10"] = awe_report(run, 10).map
    return out


# -------------------------------------------------------------- criteria


def test_criterion_1_gradient_correctness():
    cfg_base = ModelConfig(
        input_dim=6,
        stage_channels=(2, 3, 4, 5),
        num_classes_per_language=(2, 3),
        seed=7,
    )
    rng = np.random.default_rng(0)
    # 2 anchors, then 2 distinct same-word partners, so the MSE term and
    # its gradient are non-zero
    seqs = [
        FeatureSequence(frames=rng.normal(size=(t, 6)).astype(np.float32))
        for t in (6, 9, 8, 7)
    ]
    t0 = time.time()
    worst = {}
    for mode in ("one", "block"):
        cfg = dataclasses.replace(cfg_base, softmax_mode=mode)
        with tk.float64_mode():
            pt = {n: tk.Tensor(p) for n, p in build_network(cfg).items()}
            b, lens = _batch_array(seqs, cfg)

            def loss_fn():
                e, out = _forward_graph(pt, cfg, tk.Tensor(b.copy()), lens)
                total, _, mse = total_loss(out, e, [0, 2, 0, 2], cfg.layout, 0.8)
                assert mse > 0
                return total

            worst[mode] = grad_check(loss_fn, pt, h=1e-5, max_coords=6)
    elapsed = time.time() - t0
    ok = max(worst.values()) < 1e-4 and elapsed < 60
    announce(
        1,
        ok,
        f"max rel err one={worst['one']:.2e} block={worst['block']:.2e} "
        f"(<1e-4), {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_block_softmax():
    rng = np.random.default_rng(1)
    blocks = ((0, 4), (4, 9))
    sizes = tuple(end - begin for begin, end in blocks)
    sums_ok = inactive_ok = agree_ok = True
    for _ in range(1000):
        z = rng.normal(scale=3.0, size=(1, 9))
        lang = int(rng.integers(0, 2))
        begin, end = blocks[lang]
        p = tk.block_softmax(z, sizes, [begin])[0]  # the block's first word as target
        sums_ok &= abs(p[begin:end].sum() - 1.0) <= 1e-6
        inactive_ok &= (np.delete(p, np.arange(begin, end)) == 0.0).all()
        full = tk.block_softmax(z, (9,), [0])[0]
        e = np.exp(z[0] - z[0].max())
        agree_ok &= np.abs(full - e / e.sum()).max() <= 1e-7
    ok = sums_ok and inactive_ok and agree_ok
    announce(
        2,
        ok,
        f"active sums to 1 +-1e-6: {sums_ok}, inactive exactly 0: {inactive_ok}, "
        f"single block == softmax <=1e-7 on 1000 vectors: {agree_ok}",
    )


def enumerate_paths_cost(costs):
    ta, tb = costs.shape

    def walk(i, j):
        here = costs[i, j]
        if i == ta - 1 and j == tb - 1:
            return here
        best = np.inf
        if i + 1 < ta and j + 1 < tb:
            best = min(best, walk(i + 1, j + 1))
        if i + 1 < ta:
            best = min(best, walk(i + 1, j))
        if j + 1 < tb:
            best = min(best, walk(i, j + 1))
        return here + best

    return walk(0, 0)


def sdtw_oracle(costs):
    tc = costs.shape[1]
    return min(
        enumerate_paths_cost(costs[:, s:e]) for s in range(tc) for e in range(s + 1, tc + 1)
    )


def test_criterion_3_dtw_oracle_equivalence():
    rng = np.random.default_rng(2)
    t0 = time.time()
    cost_ok = True
    for i in range(500):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        costs = rng.uniform(size=shape)
        if i % 2 == 0:
            cost_ok &= abs(dtw_from_costs(costs).cost - enumerate_paths_cost(costs)) <= 1e-6
        else:
            cost_ok &= abs(sdtw_from_costs(costs).cost - sdtw_oracle(costs)) <= 1e-6
    rank_ok = True
    for _ in range(50):
        mats = [rng.uniform(size=(4, int(rng.integers(2, 7)))) for _ in range(4)]
        got = sorted(range(4), key=lambda i: (sdtw_from_costs(mats[i]).cost, i))
        want = sorted(range(4), key=lambda i: (sdtw_oracle(mats[i]), i))
        rank_ok &= got == want
    elapsed = time.time() - t0
    ok = cost_ok and rank_ok and elapsed < 60
    announce(
        3,
        ok,
        f"500 instances cost<=1e-6: {cost_ok}, rankings equal: {rank_ok}, "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_4_noise_free_retrieval():
    # S-DTW: sigma=0 corpus, all held-out templates as queries
    spec = CorpusSpec(
        num_words_lang_a=3,
        num_words_lang_b=3,
        num_speakers=4,
        instances_per_word_per_speaker=2,
        noise_sigma=0.0,
        num_search_utterances=8,
        seed=11,
    )
    bundle = synth_corpus(spec)
    templates = templates_by_keyword(bundle, limit=10)
    rankings = sdtw_search(templates, bundle.utterances)
    rel = relevance_from_ground_truth(bundle.ground_truth)
    report = evaluate(rankings, rel)
    sdtw_ok = report.map == 1.0 and report.mean_p_at_n == 1.0

    # AWE: template equal to a stride-aligned content window scores ~0
    cfg = ModelConfig(seed=0)
    params = build_network(cfg)
    wcfg = WindowConfig(sma_len=1)
    w = wcfg.window_frames()
    rng = np.random.default_rng(12)
    word = rng.normal(size=(40, 64)).astype(np.float32)
    utt = np.zeros((3 * w, 64), dtype=np.float32)
    utt[2 * wcfg.stride_frames : 2 * wcfg.stride_frames + 40] = word
    queries = make_query(params, cfg, wcfg, {0: [FeatureSequence(frames=word)]})
    results = search(queries, [(0, FeatureSequence(frames=utt))], params, cfg, wcfg)
    score = results[0].entries[0][1]
    awe_ok = score <= 1e-5
    announce(
        4,
        sdtw_ok and awe_ok,
        f"S-DTW MAP={report.map} P@N={report.mean_p_at_n} (both ==1.0), "
        f"AWE planted-window score={score:.2e} (<=1e-5)",
    )


@pytest.mark.desk
def test_criterion_5_desk_scale_training(desk_runs):
    accs = [desk_runs[(s, 0.8)]["report"].epochs[-1].accuracy for s in SEEDS]
    seconds = [desk_runs[(s, 0.8)]["seconds"] for s in SEEDS]
    median_acc = float(np.median(accs))
    total = sum(seconds)
    ok = median_acc >= 0.95 and total < 900
    announce(
        5,
        ok,
        f"median final train accuracy {median_acc:.3f} (>=0.95) over seeds {SEEDS}, "
        f"3x80 epochs in {total:.0f}s (<900s)",
    )


def cross_speaker_distance(run):
    # natural-length embeddings (masked GAP over the word frames only):
    # window padding dilutes the embedding and washes out the effect
    bundle, cfg, params = run["bundle"], run["cfg"], run["params"]
    by_word = {}
    for inst in bundle.template_instances:
        by_word.setdefault(inst.word_id, []).append(inst)
    dists = []
    for word, insts in by_word.items():
        embs = embed_sequences(params, cfg, [i.features for i in insts])
        embs = embs / np.linalg.norm(embs, axis=1, keepdims=True)
        for i in range(len(insts)):
            for j in range(i + 1, len(insts)):
                if insts[i].speaker_id != insts[j].speaker_id:
                    dists.append(1.0 - float(embs[i] @ embs[j]))
    return float(np.mean(dists))


@pytest.mark.desk
def test_criterion_6_variability_invariant_loss(desk_runs, retrieval):
    map_with = float(np.median([retrieval[(s, 0.8)]["map5"] for s in SEEDS]))
    map_without = float(np.median([retrieval[(s, 0.0)]["map5"] for s in SEEDS]))
    d_with = float(np.median([cross_speaker_distance(desk_runs[(s, 0.8)]) for s in SEEDS]))
    d_without = float(np.median([cross_speaker_distance(desk_runs[(s, 0.0)]) for s in SEEDS]))
    ok = map_with >= map_without and d_with < d_without
    announce(
        6,
        ok,
        f"median MAP {map_with!r} (a=0.8) >= {map_without!r} (a=0), "
        f"difference {map_with - map_without:+.3g}; "
        f"median cross-speaker cosine distance {d_with:.4f} < {d_without:.4f}",
    )


@pytest.mark.desk
def test_criterion_7_multi_template(desk_runs, retrieval):
    map5 = float(np.median([retrieval[(s, 0.8)]["map5"] for s in SEEDS]))
    map10 = float(np.median([retrieval[(s, 0.8)]["map10"] for s in SEEDS]))
    rng = np.random.default_rng(3)
    embs = rng.normal(size=(10, 64))
    exact = np.array_equal(fuse_templates_mean(embs), embs.mean(axis=0))
    ok = map10 >= map5 and exact
    announce(
        7,
        ok,
        f"median MAP 10 templates {map10!r} >= 5 templates {map5!r}, "
        f"difference {map10 - map5:+.3g}; "
        f"fused == coordinate-wise mean exactly: {exact}",
    )


def ap_bruteforce(ids, relevant):
    # recount precision-at-hit from scratch at every rank; accumulate in
    # rank order so the float sum is bit-identical to a correct implementation
    total = 0.0
    for rank in range(1, len(ids) + 1):
        if ids[rank - 1] in relevant:
            total += sum(1 for u in ids[:rank] if u in relevant) / rank
    return total / len(relevant)


def test_criterion_8_metrics_oracle():
    rng = np.random.default_rng(4)
    exact = True
    for _ in range(100):
        n = int(rng.integers(2, 12))
        ids = list(rng.permutation(n))
        relevant = set(
            int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        )
        ranked = RankedList(0, tuple((u, i * 0.1) for i, u in enumerate(ids)))
        exact &= average_precision(ranked, relevant) == ap_bruteforce(ids, relevant)
        k = int(rng.integers(1, n + 1))
        exact &= precision_at_k(ranked, relevant, k) == (
            sum(1 for u in ids[:k] if u in relevant) / k
        )
    hand1 = average_precision(
        RankedList(0, ((1, 0.0), (9, 0.1), (2, 0.2), (8, 0.3))), {1, 2}
    )
    hand2 = average_precision(
        RankedList(0, ((9, 0.0), (8, 0.1), (7, 0.2), (1, 0.3))), {1}
    )
    ok = exact and hand1 == pytest.approx(5 / 6) and hand2 == 0.25
    announce(
        8,
        ok,
        f"100 instances exact: {exact}, AP hand cases {hand1:.4f}=5/6, {hand2}=0.25",
    )


def test_criterion_9_determinism_round_trips(tmp_path):
    # byte-identical corpus + model + results for identical (config, seed)
    config = {
        "corpus": {
            "num_words_lang_a": 2,
            "num_words_lang_b": 2,
            "num_speakers": 4,
            "instances_per_word_per_speaker": 2,
            "feature_dim": 8,
            "word_len_frames": [8, 14],
            "num_search_utterances": 4,
            "words_per_utterance": [2, 3],
            "silence_len_frames": [4, 8],
            "seed": 3,
        },
        "model": {
            "stage_channels": [2, 3, 4, 6],
            "softmax_mode": "block",
            "epochs": 6,
            "batch_size": 8,
            "seed": 3,
        },
        "window": {"window_seconds": 0.2, "stride_frames": 3, "sma_len": 2},
        "templates_per_keyword": 2,
    }
    runner = CliRunner()
    snapshots = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(dict(config, workdir=str(workdir))))
        for cmd in ("synth", "train", "search"):
            result = runner.invoke(cli_main, ["--config", str(cfg_path), cmd])
            assert result.exit_code == 0, result.output
        snapshots.append(
            {
                **{
                    "corpus/" + p.name: p.read_bytes()
                    for p in sorted((workdir / "corpus").glob("*.awef"))
                },
                "model": (workdir / "models" / "model.awem").read_bytes(),
                "model header": (workdir / "models" / "model.json").read_bytes(),
                "results": (workdir / "results" / "results.jsonl").read_bytes(),
            }
        )
    identical = snapshots[0] == snapshots[1]

    # save/load round trips are bit-exact
    bundle = synth_corpus(codec.load(CorpusSpec, config["corpus"]))
    save_manifest(bundle, tmp_path / "m")
    manifest_ok = load_manifest(tmp_path / "m") == bundle
    mcfg = codec.load(ModelConfig, config["model"])
    params = build_network(mcfg)
    save_model(params, mcfg, tmp_path / "m.awem")
    loaded, loaded_cfg = load_model(tmp_path / "m.awem")
    model_ok = loaded_cfg == mcfg and all(
        np.array_equal(loaded[n], params[n].astype(np.float32)) for n in params
    )
    ok = identical and manifest_ok and model_ok
    announce(
        9,
        ok,
        f"rerun byte-identical: {identical}, manifest round trip: {manifest_ok}, "
        f"model round trip: {model_ok}",
    )


@pytest.fixture(scope="session")
def monolingual_runs(desk_runs):
    """Per (seed, language): a model trained on that language's training
    instances alone (word ids shifted to start at 0, softmax `one` over
    its words, alpha 0.8 and the desk epochs), then searched with every
    keyword's templates in the code-switching utterances."""
    bundle = desk_runs[(SEEDS[0], 0.8)]["bundle"]
    runs = {}
    language_of = bundle.spec.word_language
    for language in (0, 1):
        insts = [i for i in bundle.train_instances if language_of(i.word_id) == language]
        first = min(i.word_id for i in insts)
        insts = [dataclasses.replace(i, word_id=i.word_id - first) for i in insts]
        num_words = len({i.word_id for i in insts})
        for seed in SEEDS:
            cfg = dataclasses.replace(
                DESK_MODEL, softmax_mode="one", num_classes_per_language=(num_words,), alpha=0.8, seed=seed
            )
            params, _ = train(cfg, insts)
            report = awe_report({"bundle": bundle, "cfg": cfg, "params": params}, 5)
            runs[(seed, language)] = {"map5": report.map, "blocks5": block_maps(report, bundle.spec)}
    return runs


@pytest.mark.desk
def test_criterion_10_bilingual_training(retrieval, monolingual_runs):
    # paper claim 1: training on both languages helps code-switching search
    def medians(runs):
        overall = float(np.median([r["map5"] for r in runs]))
        blocks = np.median([r["blocks5"] for r in runs], axis=0)
        return overall, f"{overall!r} ({blocks[0]:.3f} / {blocks[1]:.3f})"

    both, both_text = medians([retrieval[(s, 0.8)] for s in SEEDS])
    single = {lang: medians([monolingual_runs[(s, lang)] for s in SEEDS]) for lang in (0, 1)}
    ok = all(both >= m for m, _ in single.values())
    announce(
        10,
        ok,
        f"median 5-template MAP over seeds {SEEDS} (language 0 / language 1 keywords): "
        f"both languages {both_text} >= language 0 only {single[0][1]} "
        f"(difference {both - single[0][0]:+.3g}), language 1 only {single[1][1]} "
        f"(difference {both - single[1][0]:+.3g}); every model alpha 0.8, {DESK_MODEL.epochs} epochs, "
        f"so a single-language model takes half the steps",
    )
