import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from test_codec import json_trees

from awekit import blobio, errors
from awekit.cli import main
from awekit.config import RunConfig
from awekit.model import ModelConfig, build_network, save_model


TINY_CONFIG = {
    "corpus": {
        "num_words_lang_a": 2,
        "num_words_lang_b": 2,
        "num_speakers": 4,
        "instances_per_word_per_speaker": 2,
        "feature_dim": 8,
        "word_len_frames": (8, 14),
        "num_search_utterances": 4,
        "words_per_utterance": (2, 3),
        "silence_len_frames": (4, 8),
        "seed": 3,
    },
    "model": {
        "stage_channels": [2, 3, 4, 6],
        "softmax_mode": "block",
        "epochs": 8,
        "batch_size": 8,
        "seed": 3,
    },
    "window": {"window_seconds": 0.2, "stride_frames": 3, "sma_len": 2},
    "templates_per_keyword": 2,
}


def run(args, config_path=None):
    full = []
    if config_path is not None:
        full += ["--config", str(config_path)]
    full += args
    return CliRunner().invoke(main, full, catch_exceptions=False)


@pytest.fixture()
def config_file(tmp_path):
    cfg = dict(TINY_CONFIG, workdir=str(tmp_path / "run"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def error_record(result) -> dict:
    """The failure a stage reported: exit code 2 and one JSON record as all of stderr."""
    assert result.exit_code == 2, result.output
    return json.loads(result.stderr)


def pipeline_artifacts(config_path):
    cfg = RunConfig.load(config_path)
    return cfg


def assert_spans_within_utterances(cfg):
    """Every results line names a non-empty frame span of its utterance."""
    manifest = json.loads((cfg.corpus_dir / "manifest.json").read_text())
    rows = {rec["utterance_id"]: rec["rows"] for rec in manifest["utterances"]}
    lines = cfg.results_path.read_text().splitlines()[1:]
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert 0 <= rec["start_frame"] < rec["end_frame"] <= rows[rec["utterance_id"]], rec


class TestPipeline:
    def test_end_to_end_awe(self, config_file):
        for cmd in (["synth"], ["train"], ["search"], ["eval"]):
            result = run(cmd, config_file)
            assert result.exit_code == 0, result.output + str(result.stderr_bytes)
        cfg = pipeline_artifacts(config_file)
        assert cfg.model_path.exists()
        assert not (cfg.workdir / "features").exists()
        assert_spans_within_utterances(cfg)
        report = json.loads(cfg.report_path.read_text())
        assert 0.0 <= report["map"] <= 1.0
        assert "config_hash" in report["provenance"]
        assert not (cfg.corpus_dir / "provenance.json").exists()
        table = (cfg.report_path.parent / "metrics.txt").read_text()
        assert "all" in table

    def test_every_blob_has_a_record(self, config_file):
        """Each blob is named, with its shape and CRC32, by a JSON file of its directory."""
        for cmd in (["synth"], ["train"], ["search"], ["eval"]):
            assert run(cmd, config_file).exit_code == 0
        workdir = RunConfig.load(config_file).workdir

        def records(tree):
            if isinstance(tree, dict):
                if {"blob", "rows", "cols", "crc32"} <= tree.keys():
                    yield tree
                tree = list(tree.values())
            if isinstance(tree, list):
                for item in tree:
                    yield from records(item)

        named = set()
        for index in workdir.rglob("*.json"):
            for rec in records(json.loads(index.read_text())):
                blobio.read_record(index.parent, rec)
                named.add(index.parent / rec["blob"])
        blobs = {*workdir.rglob("*.awef"), *workdir.rglob("*.awem")}
        assert {p.suffix for p in blobs} == {".awef", ".awem"}
        assert named == blobs

    def test_end_to_end_sdtw(self, config_file):
        run(["synth"], config_file)
        for args in (
            ["--system", "sdtw", "--fusion", "none", "search"],
            ["--system", "sdtw", "eval"],
        ):
            result = run(args, config_file)
            assert result.exit_code == 0, result.output + str(result.stderr_bytes)
        cfg = pipeline_artifacts(config_file)
        first = json.loads(cfg.results_path.read_text().splitlines()[0])
        assert first["system"] == "sdtw"
        assert_spans_within_utterances(cfg)

    def test_rerun_is_byte_identical(self, config_file):
        run(["synth"], config_file)
        run(["--system", "sdtw", "--fusion", "none", "search"], config_file)
        cfg = pipeline_artifacts(config_file)
        corpus_bytes = {
            p.name: p.read_bytes() for p in sorted(cfg.corpus_dir.iterdir())
        }
        results_bytes = cfg.results_path.read_bytes()
        run(["synth"], config_file)
        run(["--system", "sdtw", "--fusion", "none", "search"], config_file)
        assert {
            p.name: p.read_bytes() for p in sorted(cfg.corpus_dir.iterdir())
        } == corpus_bytes
        assert cfg.results_path.read_bytes() == results_bytes


class TestErrorHandling:
    def test_eval_before_search(self, config_file):
        run(["synth"], config_file)
        result = run(["eval"], config_file)
        assert result.exit_code == 2
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "MissingArtifactError"
        assert "awekit search" in record["message"]

    def test_train_before_synth(self, tmp_path):
        result = run(["--workdir", str(tmp_path / "empty"), "train"])
        assert result.exit_code == 2
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert "awekit synth" in record["message"]

    def test_awe_with_wrong_fusion(self, config_file):
        run(["synth"], config_file)
        result = run(["--fusion", "none", "search"], config_file)
        assert result.exit_code == 2
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "ValidationError"

    def test_invalid_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        for text in ("{nope", '{"templates_per_keyword": 1' + "0" * 5000 + "}"):
            bad.write_text(text)
            record = error_record(run(["synth"], bad))
            assert "is not valid JSON" in record["message"]

    @pytest.mark.parametrize(
        "config,key",
        [
            ({"workdirr": "x"}, "workdirr"),
            ({"window": {"bogus": 1}}, "window.bogus"),
            ({"model": {"bogus": 1}}, "model.bogus"),
            ({"corpus": {"bogus": 1}}, "corpus.bogus"),
            ({"fbank": {"n_mels": 64}}, "'fbank'"),  # a section awekit no longer has
            ({"corpus": {"word_len_frames": 5}}, "corpus.word_len_frames"),
            ({"model": {"stage_channels": 5}}, "model.stage_channels"),
            ({"templates_per_keyword": "3"}, "templates_per_keyword"),
            ({"window": []}, "window"),
            ({"model": {"input_dim": 8}}, "'model.input_dim'"),
            ({"model": {"num_classes_per_language": [2, 2]}}, "'model.num_classes_per_language'"),
        ],
        ids=[
            "workdirr",
            "window-bogus",
            "model-bogus",
            "corpus-bogus",
            "fbank-removed",
            "word_len_frames-int",
            "stage_channels-int",
            "templates_per_keyword-str",
            "window-list",
            "input_dim-from-corpus",
            "num_classes_per_language-from-corpus",
        ],
    )
    def test_unknown_config_key(self, tmp_path, config, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        result = run(["synth"], bad)
        assert result.exit_code == 2
        record = json.loads(result.stderr)
        assert record["error"] == "ValidationError"
        assert key in record["message"]

    def test_negative_corpus_seed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workdir": str(tmp_path / "run"), "corpus": {"seed": -1}}))
        record = error_record(run(["synth"], bad))
        assert record["error"] == "ValidationError"
        assert "seed must be >= 0" in record["message"]

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "section,key",
        [("window", "window_seconds"), ("model", "alpha"), ("corpus", "noise_sigma")],
    )
    def test_non_finite_config_value(self, tmp_path, section, key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workdir": str(tmp_path / "run"), section: {key: float(value)}}))
        record = error_record(run(["synth"], bad))
        assert record["error"] == "ValidationError"
        assert f"{section}.{key}" in record["message"]

    def test_non_finite_alpha_flag(self, tmp_path):
        record = error_record(run(["--workdir", str(tmp_path / "run"), "--alpha", "nan", "synth"]))
        assert record["error"] == "ValidationError"
        assert "alpha" in record["message"]

    @pytest.mark.parametrize(
        "args,fragment",
        [
            (["--seed", "abc", "synth"], "'--seed'"),
            (["--system", "bogus", "synth"], "'--system'"),
            (["synth", "--bogus"], "'--bogus'"),
            (["bogus"], "'bogus'"),
            (["embed"], "'embed'"),
        ],
        ids=["seed-str", "system-bogus", "option-bogus", "command-bogus", "command-embed"],
    )
    def test_usage_error(self, args, fragment):
        record = error_record(run(args))
        assert record["error"] == "ValidationError"
        assert fragment in record["message"]

    @pytest.mark.parametrize("args", [["--help"], ["synth", "--help"]], ids=["group", "command"])
    def test_help(self, args):
        result = run(args)
        assert result.exit_code == 0
        assert result.output.startswith("Usage:")

    @pytest.mark.parametrize(
        "case", ["config-dir", "config-missing", "workdir-file", "results-dir"]
    )
    def test_os_error_is_a_format_error(self, config_file, tmp_path, case):
        """A path that is a directory where a file belongs, or the reverse, or no file at all."""
        if case == "config-dir":
            path, result = tmp_path, run(["synth"], tmp_path)
        elif case == "config-missing":
            path = tmp_path / "absent.json"
            result = run(["synth"], path)
        elif case == "workdir-file":
            path = tmp_path / "file"
            path.write_text("")
            result = run(["--workdir", str(path), "synth"])
        else:
            run(["synth"], config_file)
            path = RunConfig.load(config_file).results_path
            path.mkdir(parents=True)
            result = run([*SDTW, "eval"], config_file)
        record = error_record(result)
        assert record["error"] == "FormatError"
        assert str(path) in record["message"]

    def test_corrupt_model_header(self, config_file):
        run(["synth"], config_file)
        cfg = RunConfig.load(config_file)
        mcfg = ModelConfig(input_dim=8, stage_channels=(2, 3, 4, 6))
        save_model(build_network(mcfg), mcfg, cfg.model_path)
        header_path = cfg.model_path.with_suffix(".json")
        header, blob = header_path.read_text(), cfg.model_path.read_bytes()
        flipped = bytearray(blob)
        flipped[-1] ^= 0x01
        unknown_key = header.replace('"config": {', '"config": {"x": 1, ')
        cases = [
            (header[:-5], blob, "FormatError", "JSONDecodeError"),
            (unknown_key, blob, "FormatError", "'model.x'"),
            (None, blob, "FormatError", "FileNotFoundError"),
            (header, bytes(flipped), "IntegrityError", "checksum mismatch"),
            (header, blob[:-10], "IntegrityError", "checksum mismatch"),
        ]
        for text, raw, error, fragment in cases:
            header_path.unlink(missing_ok=True)
            if text is not None:
                header_path.write_text(text)
            cfg.model_path.write_bytes(raw)
            record = error_record(run(["search"], config_file))
            assert record["error"] == error
            assert fragment in record["message"]
            assert ("model header " in record["message"]) == (error == "FormatError")

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("train", "blob", None),
            ("train", "word_id", "x"),
            ("train", "word_id", 99),
            ("ground_truth", "word_id", 99),
            ("ground_truth", "word_id", "x"),
            ("ground_truth", "utterance_id", 10**6),
            ("utterances", None, None),
            ("spec", "bogus", 1),
            ("spec", "num_search_utterances", 0),
            ("ground_truth", "end_frame", lambda rec: rec["start_frame"]),
        ],
        ids=[
            "no-blob",
            "word_id-str",
            "word_id-99",
            "gt-word_id-99",
            "gt-word_id-str",
            "gt-utterance_id-unknown",
            "utterance_id-repeated",
            "spec-unknown-key",
            "spec-no-utterances",
            "gt-empty-span",
        ],
    )
    def test_bad_manifest_record(self, config_file, section, key, value):
        """A record (the spec, or a section's first record) with `key`
        deleted (value None) or set to `value` (or to what `value` computes
        from the record); with no key, the first record appears twice."""
        run(["synth"], config_file)
        manifest = RunConfig.load(config_file).corpus_dir / "manifest.json"
        index = json.loads(manifest.read_text())
        rec = index[section] if section == "spec" else index[section][0]
        if key is None:
            index[section].append(rec)
        elif value is None:
            del rec[key]
        else:
            rec[key] = value(rec) if callable(value) else value
        manifest.write_text(json.dumps(index))
        record = error_record(run(["train"], config_file))
        assert record["error"] == "IntegrityError"
        assert "manifest.json" in record["message"]

    @pytest.mark.parametrize(
        "case,fragment",
        [
            ("truncated", "is not a result record"),
            ("rank-str", "is not a result record"),
            ("no-span", "is not a result record"),
            ("duplicate", "repeats keyword"),
        ],
        ids=["truncated", "rank-str", "no-span", "duplicate"],
    )
    def test_bad_results_line(self, config_file, case, fragment):
        sdtw = ["--system", "sdtw", "--fusion", "none"]
        run(["synth"], config_file)
        run([*sdtw, "search"], config_file)
        results = RunConfig.load(config_file).results_path
        lines = results.read_text().splitlines()
        line = {
            "truncated": lines[-1][: len(lines[-1]) // 2],
            "rank-str": json.dumps(dict(json.loads(lines[-1]), rank="x")),
            "no-span": json.dumps({k: v for k, v in json.loads(lines[-1]).items() if k != "end_frame"}),
            "duplicate": lines[1],
        }[case]
        with open(results, "a") as f:
            f.write(line + "\n")
        record = error_record(run([*sdtw, "eval"], config_file))
        assert record["error"] == "FormatError"
        assert fragment in record["message"]

    @pytest.mark.parametrize(
        "case,fragment",
        [
            ("utterance-dropped", "does not rank each manifest utterance once"),
            ("utterance-renamed", "does not rank each manifest utterance once"),
            ("ranks-all-1", "has ranks other than 1.."),
            ("keyword-unknown", "ranks keywords [0, 1, 2, 99], not the words with templates"),
            ("keyword-dropped", "ranks keywords [0, 1, 2], not the words with templates [0, 1, 2, 3]"),
        ],
        ids=[
            "utterance-dropped",
            "utterance-renamed",
            "ranks-all-1",
            "keyword-unknown",
            "keyword-dropped",
        ],
    )
    def test_results_that_do_not_match_the_corpus(self, config_file, case, fragment):
        """Well-formed records that rank another set of utterances, out of
        order, a keyword the corpus has no templates for, or leave out a
        keyword it has."""
        sdtw = ["--system", "sdtw", "--fusion", "none"]
        run(["synth"], config_file)
        run([*sdtw, "search"], config_file)
        results = RunConfig.load(config_file).results_path
        header, *lines = results.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        last_keyword = records[-1]["keyword_id"]
        if case == "utterance-dropped":
            records = [r for r in records if r["utterance_id"] != 1]
        elif case == "keyword-dropped":
            records = [r for r in records if r["keyword_id"] != last_keyword]
        for r in records:
            if case == "utterance-renamed" and r["utterance_id"] == 1:
                r["utterance_id"] = 777
            elif case == "ranks-all-1":
                r["rank"] = 1
            elif case == "keyword-unknown" and r["keyword_id"] == last_keyword:
                r["keyword_id"] = 99
        results.write_text("".join(line + "\n" for line in [header, *map(json.dumps, records)]))
        record = error_record(run([*sdtw, "eval"], config_file))
        assert record["error"] == "IntegrityError"
        assert str(results) in record["message"] and fragment in record["message"]

    @pytest.mark.parametrize(
        "section,args",
        [("train", ["train"]), ("utterances", ["search"])],
        ids=["train", "utterance"],
    )
    def test_blob_of_another_width(self, config_file, section, args):
        """A blob whose record and CRC32 agree, of 7 columns in a corpus of 8."""
        run(["synth"], config_file)
        corpus_dir = RunConfig.load(config_file).corpus_dir
        index = json.loads((corpus_dir / "manifest.json").read_text())
        rec = index[section][1]
        rec.update(blobio.write_record(corpus_dir, rec["blob"], np.zeros((rec["rows"], 7))))
        (corpus_dir / "manifest.json").write_text(json.dumps(index))
        record = error_record(run(args, config_file))
        assert record["error"] == "IntegrityError"
        assert f"{rec['blob']} is 7 wide, not 8" in record["message"]

    def test_results_of_another_system(self, config_file):
        for cmd in (["synth"], ["train"], ["search"]):
            run(cmd, config_file)
        record = error_record(run(["--system", "sdtw", "eval"], config_file))
        assert record["error"] == "ValidationError"
        assert "'awe' results" in record["message"]


LONG_INT = "<an int of 5001 digits>"
MALFORMED = pytest.mark.parametrize("case", ["deep", "long-int"])


def malformed(case, tree) -> str:
    """JSON text of 200 000 nested lists, or of `tree` with each LONG_INT
    string replaced by an int literal too long for `json.loads`."""
    if case == "deep":
        return "[" * 200_000
    return json.dumps(tree).replace(json.dumps(LONG_INT), "1" + "0" * 5000)


class TestMalformedJson:
    """Every JSON reader reports a document nested too deeply, or an int of
    over 4300 digits, as a typed error."""

    @MALFORMED
    def test_config(self, tmp_path, case):
        path = tmp_path / "config.json"
        path.write_text(malformed(case, {"templates_per_keyword": LONG_INT}))
        record = error_record(run(["synth"], path))
        assert record["error"] == "ValidationError"
        assert f"config {path} is not valid JSON" in record["message"]

    @MALFORMED
    def test_manifest(self, config_file, case):
        run(["synth"], config_file)
        manifest = RunConfig.load(config_file).corpus_dir / "manifest.json"
        index = json.loads(manifest.read_text())
        index["ground_truth"][0]["start_frame"] = LONG_INT
        manifest.write_text(malformed(case, index))
        record = error_record(run([*SDTW, "search"], config_file))
        assert record["error"] == "IntegrityError"
        assert f"corrupt manifest {manifest}" in record["message"]

    @MALFORMED
    def test_model_header(self, config_file, case):
        run(["synth"], config_file)
        cfg = RunConfig.load(config_file)
        mcfg = ModelConfig(input_dim=8, stage_channels=(2, 3, 4, 6))
        save_model(build_network(mcfg), mcfg, cfg.model_path)
        header_path = cfg.model_path.with_suffix(".json")
        header = json.loads(header_path.read_text())
        header["rows"] = LONG_INT
        header_path.write_text(malformed(case, header))
        record = error_record(run(["search"], config_file))
        assert record["error"] == "FormatError"
        assert f"model header {header_path} is not valid" in record["message"]

    @MALFORMED
    def test_results(self, config_file, case):
        run(["synth"], config_file)
        run([*SDTW, "search"], config_file)
        results = RunConfig.load(config_file).results_path
        lines = results.read_text().splitlines()
        with open(results, "a") as f:
            f.write(malformed(case, dict(json.loads(lines[-1]), rank=LONG_INT)) + "\n")
        record = error_record(run([*SDTW, "eval"], config_file))
        assert record["error"] == "FormatError"
        assert f"line {len(lines) + 1} is not a result record" in record["message"]


class TestOnDemandReads:
    """A stage reads only the corpus blobs it uses."""

    def test_eval_reads_no_blob(self, config_file):
        run(["synth"], config_file)
        assert run([*SDTW, "search"], config_file).exit_code == 0
        blobs = list(RunConfig.load(config_file).corpus_dir.glob("*.awef"))
        assert blobs
        for blob in blobs:
            blob.unlink()
        result = run([*SDTW, "eval"], config_file)
        assert result.exit_code == 0, result.output + str(result.stderr_bytes)

    def test_corrupt_train_blob_fails_only_train(self, config_file):
        run(["synth"], config_file)
        tamper(RunConfig.load(config_file).corpus_dir / "train_00003.awef")
        record = error_record(run(["train"], config_file))
        assert record["error"] == "IntegrityError"
        assert "train_00003.awef" in record["message"]
        for args in ([*SDTW, "search"], [*SDTW, "eval"]):
            result = run(args, config_file)
            assert result.exit_code == 0, result.output + str(result.stderr_bytes)

    def test_search_reads_only_the_templates_it_uses(self, config_file):
        run(["synth"], config_file)
        corpus_dir = RunConfig.load(config_file).corpus_dir
        index = json.loads((corpus_dir / "manifest.json").read_text())
        first_word = [rec["blob"] for rec in index["templates"] if rec["word_id"] == 0]
        one = [*SDTW, "--templates-per-keyword", "1", "search"]
        tamper(corpus_dir / first_word[1])
        result = run(one, config_file)
        assert result.exit_code == 0, result.output + str(result.stderr_bytes)
        tamper(corpus_dir / first_word[0])
        record = error_record(run(one, config_file))
        assert record["error"] == "IntegrityError"
        assert first_word[0] in record["message"]


def tamper(blob: Path):
    raw = bytearray(blob.read_bytes())
    raw[-1] ^= 0xFF
    blob.write_bytes(bytes(raw))


SDTW = ["--system", "sdtw", "--fusion", "none"]


@pytest.fixture(scope="module")
def sdtw_results(tmp_path_factory):
    directory = tmp_path_factory.mktemp("results")
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(dict(TINY_CONFIG, workdir=str(directory / "run"))))
    run(["synth"], config_path)
    run([*SDTW, "search"], config_path)
    results = RunConfig.load(config_path).results_path
    return config_path, results, results.read_text().splitlines()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupt_results_raise_only_typed_errors(sdtw_results, data):
    """Drop one key or replace one value of one results line, header included."""
    config_path, results, lines = sdtw_results
    number = data.draw(st.integers(0, len(lines) - 1), label="line")
    rec = json.loads(lines[number])
    key = data.draw(st.sampled_from(sorted(rec)), label="key")
    if data.draw(st.booleans(), label="drop"):
        del rec[key]
    else:
        rec[key] = data.draw(json_trees, label="value")
    lines = [*lines[:number], json.dumps(rec), *lines[number + 1 :]]
    results.write_text("".join(line + "\n" for line in lines))
    result = run([*SDTW, "eval"], config_path)
    if result.exit_code:
        assert issubclass(getattr(errors, error_record(result)["error"]), errors.AwekitError)


class TestFlagOverrides:
    def test_seed_override_changes_corpus(self, tmp_path):
        cfg = dict(TINY_CONFIG, workdir=str(tmp_path / "a"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        run(["synth"], path)
        run(["--workdir", str(tmp_path / "b"), "--seed", "99", "synth"], path)
        a = sorted((tmp_path / "a" / "corpus").glob("*.awef"))[0]
        b = (tmp_path / "b" / "corpus") / a.name
        assert a.read_bytes() != b.read_bytes()

    def test_alpha_and_softmax_flags_reach_the_model(self, tmp_path):
        model = dict(TINY_CONFIG["model"], softmax_mode="one")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, workdir=str(tmp_path / "run"), model=model)))
        run(["synth"], path)
        result = run(["--alpha", "0", "--softmax", "block", "train"], path)
        assert result.exit_code == 0, result.output + str(result.stderr_bytes)
        header = json.loads(RunConfig.load(path).model_path.with_suffix(".json").read_text())
        assert header["config"]["alpha"] == 0.0
        assert header["config"]["softmax_mode"] == "block"

    def test_config_hash_stable_and_flag_sensitive(self, config_file):
        base = RunConfig.load(config_file)
        assert base.config_hash() == RunConfig.load(config_file).config_hash()
        import dataclasses

        changed = RunConfig.load(config_file)
        changed.model = dataclasses.replace(changed.model, alpha=0.0)
        assert changed.config_hash() != base.config_hash()
