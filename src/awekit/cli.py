"""Command-line pipeline: synth -> train -> search -> eval. Each line of
search's results.jsonl after the header holds system, keyword_id,
utterance_id, score, rank, and the frames [start_frame, end_frame) of the
best match in the utterance."""

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import codec, corpus as corpus_mod, dtw as dtw_mod, matcher, metrics
from . import model as model_mod
from .config import VALID_FUSIONS, VALID_SYSTEMS, RunConfig
from .errors import AwekitError, FormatError, IntegrityError, MissingArtifactError, ValidationError


def _fail(err: AwekitError):
    record = {"error": type(err).__name__, "message": str(err)}
    click.echo(json.dumps(record), err=True)
    sys.exit(2)


def _load_config(config_path, seed, alpha, softmax, **overrides) -> RunConfig:
    cfg = RunConfig.load(config_path) if config_path else RunConfig()
    changes = {key: value for key, value in overrides.items() if value is not None}
    model = {"seed": seed, "alpha": alpha, "softmax_mode": softmax}
    model = {key: value for key, value in model.items() if value is not None}
    if seed is not None:
        changes["corpus"] = dataclasses.replace(cfg.corpus, seed=seed)
    if model:
        changes["model"] = dataclasses.replace(cfg.model, **model)
    return dataclasses.replace(cfg, **changes)


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{path} not found: run `awekit {producer}` first")
    return path


def _load_bundle(cfg: RunConfig):
    _require(cfg.corpus_dir / corpus_mod.MANIFEST_NAME, "synth")
    return corpus_mod.load_manifest(cfg.corpus_dir)


class _Pipeline(click.Group):
    """Reports a usage error (an unknown command or option, a bad option
    value) as a ValidationError and an AwekitError from the group or any
    stage through `_fail`, and an OSError as a FormatError that names its
    path."""

    def parse_args(self, ctx, args):
        if not args:  # a bare `awekit` prints click's help
            return super().parse_args(ctx, args)
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as e:
            _fail(ValidationError(e.format_message()))

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            _fail(ValidationError(e.format_message()))
        except AwekitError as e:
            _fail(e)
        except OSError as e:
            _fail(FormatError(str(e)))


@click.group(cls=_Pipeline)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--workdir", type=click.Path(), default=None, help="Override workdir.")
@click.option("--seed", type=int, default=None, help="Override corpus and model seeds.")
@click.option("--system", type=click.Choice(VALID_SYSTEMS), default=None)
@click.option("--fusion", type=click.Choice(VALID_FUSIONS), default=None)
@click.option("--templates-per-keyword", type=int, default=None)
@click.option("--alpha", type=float, default=None, help="Variability-invariant loss weight.")
@click.option("--softmax", type=click.Choice(model_mod.SOFTMAX_MODES), default=None)
@click.pass_context
def main(ctx, config_path, workdir, seed, system, fusion, templates_per_keyword, alpha, softmax):
    """Query-by-example spoken term detection pipeline."""
    ctx.obj = _load_config(
        config_path,
        workdir=workdir,
        seed=seed,
        system=system,
        fusion=fusion,
        templates_per_keyword=templates_per_keyword,
        alpha=alpha,
        softmax=softmax,
    )


@main.command()
@click.pass_obj
def synth(cfg: RunConfig):
    """Generate the synthetic corpus into <workdir>/corpus."""
    bundle = corpus_mod.synth_corpus(cfg.corpus)
    corpus_mod.validate_bundle(bundle)
    corpus_mod.save_manifest(bundle, cfg.corpus_dir)
    click.echo(
        f"corpus: {len(bundle.train_instances)} train / {len(bundle.template_instances)} "
        f"template instances, {len(bundle.utterances)} utterances -> {cfg.corpus_dir}"
    )


@main.command()
@click.pass_obj
def train(cfg: RunConfig):
    """Train the embedding network on the corpus training split."""
    bundle = _load_bundle(cfg)
    mcfg = model_mod.ModelConfig(
        **dataclasses.asdict(cfg.model),
        input_dim=bundle.spec.feature_dim,
        num_classes_per_language=(bundle.spec.num_words_lang_a, bundle.spec.num_words_lang_b),
    )
    params, report = model_mod.train(mcfg, bundle.train_instances)
    model_mod.save_model(params, mcfg, cfg.model_path)
    codec.write_json(
        cfg.train_report_path,
        {"provenance": cfg.provenance(), **codec.dump(report)},
    )
    last = report.epochs[-1]
    click.echo(
        f"trained {mcfg.epochs} epochs: loss {last.total_loss:.4f}, "
        f"accuracy {last.accuracy:.3f} -> {cfg.model_path}"
    )


def _templates_by_keyword(bundle, limit):
    grouped = {}
    for inst in bundle.template_instances:
        grouped.setdefault(inst.word_id, []).append(inst.features)
    return {w: feats[:limit] for w, feats in sorted(grouped.items())}


@main.command()
@click.pass_obj
def search(cfg: RunConfig):
    """Rank utterances per keyword with the selected system."""
    bundle = _load_bundle(cfg)
    templates = _templates_by_keyword(bundle, cfg.templates_per_keyword)
    if cfg.system == "awe":
        if cfg.fusion != "mean":
            raise ValidationError("system 'awe' supports only fusion 'mean'")
        _require(cfg.model_path, "train")
        params, mcfg = model_mod.load_model(cfg.model_path)
        queries = matcher.make_query(params, mcfg, cfg.window, templates)
        rankings = matcher.search(queries, bundle.utterances, params, mcfg, cfg.window)
    else:
        if cfg.fusion == "mean":
            raise ValidationError("system 'sdtw' supports fusion 'none' or 'dtw'")
        rankings = dtw_mod.sdtw_search(templates, bundle.utterances, fusion=cfg.fusion)
    records = [
        {
            "system": cfg.system,
            "keyword_id": keyword_id,
            "utterance_id": utt_id,
            "score": score,
            "rank": rank,
            "start_frame": start,
            "end_frame": end,
        }
        for keyword_id in sorted(rankings)
        for rank, (utt_id, score, start, end) in enumerate(rankings[keyword_id].entries, start=1)
    ]
    header = json.dumps({"provenance": cfg.provenance(), "system": cfg.system})
    lines = [header, *(json.dumps(rec, sort_keys=True) for rec in records)]
    codec.write_atomic(cfg.results_path, "".join(line + "\n" for line in lines))
    click.echo(f"{len(records)} result records -> {cfg.results_path}")


def _read_results(path: Path, system: str) -> dict:
    """{keyword_id: [(rank, utterance_id, score, start_frame, end_frame), ...]}
    from a results file whose header line names `system` and that scores
    each (keyword, utterance) pair once."""
    entries = {}
    seen = set()
    with open(path, "rb") as f:
        for number, line in enumerate(f, start=1):
            where = f"{path} line {number} is not a result record"
            rec = codec.read_json(line, FormatError, where)
            try:
                if number == 1:
                    found = rec["system"]
                else:
                    keyword, rank, utterance, start, end = codec.ints(
                        rec, "keyword_id", "rank", "utterance_id", "start_frame", "end_frame"
                    )
                    if type(rec["score"]) not in (int, float) or not np.isfinite(rec["score"]):
                        raise TypeError(f"score {rec['score']!r} is not a finite number")
                    if (keyword, utterance) in seen:
                        raise FormatError(
                            f"{path} line {number} repeats keyword {keyword}, utterance {utterance}"
                        )
                    seen.add((keyword, utterance))
                    entries.setdefault(keyword, []).append((rank, utterance, rec["score"], start, end))
            except (KeyError, TypeError) as e:
                raise FormatError(f"{where}: {e!r}") from e
            if number == 1 and found != system:
                raise ValidationError(f"{path} holds {found!r} results, not {system!r}")
    return entries


@main.command(name="eval")
@click.pass_obj
def eval_cmd(cfg: RunConfig):
    """Score the latest search results against corpus ground truth."""
    bundle = _load_bundle(cfg)
    entries_by_kw = _read_results(_require(cfg.results_path, "search"), cfg.system)
    rel = metrics.relevance_from_ground_truth(bundle.ground_truth)
    utterance_ids = sorted(u for u, _ in bundle.utterances)
    keywords = sorted({inst.word_id for inst in bundle.template_instances})
    if sorted(entries_by_kw) != keywords:
        raise IntegrityError(
            f"{cfg.results_path} ranks keywords {sorted(entries_by_kw)}, "
            f"not the words with templates {keywords}"
        )
    rankings = {}
    for kw, entries in entries_by_kw.items():
        entries.sort()
        where = f"{cfg.results_path}: keyword {kw}"
        if sorted(e[1] for e in entries) != utterance_ids:
            raise IntegrityError(f"{where} does not rank each manifest utterance once")
        if [e[0] for e in entries] != list(range(1, len(entries) + 1)):
            raise IntegrityError(f"{where} has ranks other than 1..{len(entries)}")
        if kw not in rel:
            continue  # keyword never occurs in the search content
        rankings[kw] = matcher.RankedList(keyword_id=kw, entries=tuple(e[1:] for e in entries))
    language = {w: bundle.spec.word_language(w) for w in range(bundle.spec.num_words)}
    report = metrics.evaluate(rankings, rel)
    groups = metrics.group_means(report, language)
    codec.write_json(
        cfg.report_path, {"provenance": cfg.provenance(), **codec.dump(report), "groups": groups}
    )
    table = metrics.render_table(report, groups)
    codec.write_atomic(cfg.report_path.parent / "metrics.txt", table + "\n")
    click.echo(table)


if __name__ == "__main__":
    main()
