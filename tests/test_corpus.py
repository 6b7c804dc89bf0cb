import dataclasses
import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_codec import json_trees

from awekit import blobio
from awekit.corpus import (
    CorpusSpec,
    load_manifest,
    save_manifest,
    synth_corpus,
    validate_bundle,
)
from awekit.errors import AwekitError, FormatError, IntegrityError, ValidationError
from awekit.features import FeatureSequence


def small_spec(**kw):
    base = dict(
        num_words_lang_a=2,
        num_words_lang_b=2,
        num_speakers=4,
        instances_per_word_per_speaker=3,
        num_search_utterances=4,
        words_per_utterance=(2, 3),
        seed=42,
    )
    base.update(kw)
    return CorpusSpec(**base)


class TestSpecValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValidationError, match="num_speakers"):
            small_spec(num_speakers=0)

    def test_word_len_range_order(self):
        with pytest.raises(ValidationError, match="word_len_frames"):
            small_spec(word_len_frames=(10, 5))

    def test_negative_noise(self):
        with pytest.raises(ValidationError, match="noise_sigma"):
            small_spec(noise_sigma=-0.1)

    def test_warp_range(self):
        with pytest.raises(ValidationError, match="time_warp_spread"):
            small_spec(time_warp_spread=0.5)


class TestSynthCorpus:
    def test_degenerate_spec_gives_identical_instances(self):
        spec = small_spec(
            noise_sigma=0.0,
            time_warp_spread=0.0,
            speaker_gain_spread=0.0,
            speaker_bias_spread=0.0,
        )
        bundle = synth_corpus(spec)
        pool = list(bundle.train_instances) + list(bundle.template_instances)
        by_word = {}
        for inst in pool:
            by_word.setdefault(inst.word_id, []).append(inst)
        for word, instances in by_word.items():
            ref = instances[0].features.frames
            for inst in instances[1:]:
                np.testing.assert_array_equal(inst.features.frames, ref)

    def test_determinism(self):
        spec = small_spec()
        a, b = synth_corpus(spec), synth_corpus(spec)
        assert a == b

    def test_training_pool_count_before_split(self):
        bundle = synth_corpus(small_spec())
        # 2 words/lang * 2 langs * 4 speakers * 3 instances = 48
        assert len(bundle.train_instances) + len(bundle.template_instances) == 48

    def test_speaker_disjointness(self):
        bundle = synth_corpus(small_spec())
        validate_bundle(bundle)
        train = {i.speaker_id for i in bundle.train_instances}
        held = {i.speaker_id for i in bundle.template_instances}
        assert not train & held
        assert held == set(bundle.spec.held_out_speakers)

    def test_occurrences_within_bounds_and_disjoint(self):
        bundle = synth_corpus(small_spec())
        lengths = dict((uid, seq.num_frames) for uid, seq in bundle.utterances)
        per_utt = {}
        for occ in bundle.ground_truth:
            assert 0 <= occ.start_frame < occ.end_frame <= lengths[occ.utterance_id]
            per_utt.setdefault(occ.utterance_id, []).append(occ)
        for occs in per_utt.values():
            occs.sort(key=lambda o: o.start_frame)
            for prev, nxt in zip(occs, occs[1:]):
                assert prev.end_frame <= nxt.start_frame

    def test_occurrence_frames_match_planted_words(self):
        spec = small_spec(noise_sigma=0.0)
        bundle = synth_corpus(spec)
        utts = dict(bundle.utterances)
        for occ in bundle.ground_truth[:4]:
            segment = utts[occ.utterance_id].frames[occ.start_frame : occ.end_frame]
            assert segment.shape[0] == occ.end_frame - occ.start_frame
            assert np.abs(segment).max() > 0  # words are non-silent

    def test_utterances_mix_languages(self):
        bundle = synth_corpus(small_spec(num_search_utterances=10))
        langs_seen = set()
        per_utt = {}
        for occ in bundle.ground_truth:
            per_utt.setdefault(occ.utterance_id, set()).add(
                bundle.spec.word_language(occ.word_id)
            )
        for langs in per_utt.values():
            langs_seen |= langs
            if len(langs) == 2:
                break
        assert langs_seen == {0, 1}

    def test_language_mapping(self):
        spec = small_spec()
        assert spec.word_language(0) == 0
        assert spec.word_language(1) == 0
        assert spec.word_language(2) == 1
        assert spec.word_language(3) == 1


class TestManifestRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        bundle = synth_corpus(small_spec())
        save_manifest(bundle, tmp_path)
        assert load_manifest(tmp_path) == bundle

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FormatError):
            load_manifest(tmp_path)

    def test_truncated_blob(self, tmp_path):
        bundle = synth_corpus(small_spec())
        save_manifest(bundle, tmp_path)
        blob = sorted(tmp_path.glob("train_*.awef"))[0]
        blob.write_bytes(blob.read_bytes()[:-8])
        loaded = load_manifest(tmp_path)  # blobs are read at first use
        with pytest.raises(IntegrityError, match=blob.name):
            loaded.train_instances[0].features.frames

    def test_tampered_blob_fails_checksum(self, tmp_path):
        bundle = synth_corpus(small_spec())
        save_manifest(bundle, tmp_path)
        blob = sorted(tmp_path.glob("tmpl_*.awef"))[0]
        raw = bytearray(blob.read_bytes())
        raw[-1] ^= 0xFF
        blob.write_bytes(bytes(raw))
        loaded = load_manifest(tmp_path)  # blobs are read at first use
        with pytest.raises(IntegrityError, match="checksum"):
            loaded.template_instances[0].features.frames

    def test_load_reads_no_blob_and_each_blob_once(self, tmp_path, monkeypatch):
        bundle = synth_corpus(small_spec())
        save_manifest(bundle, tmp_path)
        reads = []
        read_blob = blobio.read_blob
        monkeypatch.setattr(blobio, "read_blob", lambda path, crc32: reads.append(path) or read_blob(path, crc32))
        loaded = load_manifest(tmp_path)
        assert reads == []
        seq = loaded.utterances[0][1]
        assert seq.num_frames == bundle.utterances[0][1].num_frames
        np.testing.assert_array_equal(seq.frames, bundle.utterances[0][1].frames)
        assert len(reads) == 1 and reads[0].endswith("utt_00000.awef")
        assert repr(seq) == repr(bundle.utterances[0][1])
        assert dataclasses.replace(seq, frames=seq.frames[:1]).num_frames == 1
        assert len(reads) == 1

    def test_loaded_bundle_saves_byte_identical(self, tmp_path):
        bundle = synth_corpus(small_spec())
        save_manifest(bundle, tmp_path / "a")
        save_manifest(load_manifest(tmp_path / "a"), tmp_path / "b")
        for p1 in sorted((tmp_path / "a").iterdir()):
            assert p1.read_bytes() == (tmp_path / "b" / p1.name).read_bytes()

    @pytest.mark.parametrize(
        "section,key,value,fragment",
        [
            ("ground_truth", "end_frame", 1_000_000, "exceeds utterance"),
            ("templates", "speaker_id", 0, "appear in both splits"),
        ],
        ids=["span-beyond-utterance", "training-speaker-template"],
    )
    def test_manifest_breaking_bundle_invariants(self, tmp_path, section, key, value, fragment):
        spec = small_spec(num_search_utterances=2, instances_per_word_per_speaker=1)
        save_manifest(synth_corpus(spec), tmp_path)
        index = json.loads((tmp_path / "manifest.json").read_text())
        index[section][0][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(index))
        with pytest.raises(IntegrityError, match=fragment):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("key,value", [("blob", 7), ("blob", None), ("rows", "2"), ("crc32", 1.5)])
    def test_blob_record_fields_checked_at_load(self, tmp_path, key, value):
        save_manifest(synth_corpus(small_spec()), tmp_path)
        index = json.loads((tmp_path / "manifest.json").read_text())
        index["train"][0][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(index))
        with pytest.raises(IntegrityError, match="bad record"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("section", ["train", "templates", "utterances"])
    def test_blob_of_another_width_is_refused_at_load(self, tmp_path, section):
        """A blob whose record and CRC32 agree, one column narrower than the spec."""
        spec = small_spec(feature_dim=8)
        save_manifest(synth_corpus(spec), tmp_path)
        index = json.loads((tmp_path / "manifest.json").read_text())
        rec = index[section][1]
        rec.update(blobio.write_record(tmp_path, rec["blob"], np.zeros((rec["rows"], 7))))
        (tmp_path / "manifest.json").write_text(json.dumps(index))
        with pytest.raises(IntegrityError, match=f"{rec['blob']} is 7 wide, not 8"):
            load_manifest(tmp_path)

    def test_save_is_deterministic(self, tmp_path):
        bundle = synth_corpus(small_spec())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        save_manifest(bundle, d1)
        save_manifest(bundle, d2)
        for p1 in sorted(d1.iterdir()):
            assert p1.read_bytes() == (d2 / p1.name).read_bytes()


@pytest.fixture(scope="module")
def saved_corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    spec = small_spec(instances_per_word_per_speaker=1, feature_dim=4, num_search_utterances=2)
    save_manifest(synth_corpus(spec), directory)
    return directory, (directory / "manifest.json").read_text()


@settings(max_examples=300, deadline=None)
@given(
    section=st.sampled_from(["spec", "train", "templates", "utterances", "ground_truth"]),
    data=st.data(),
)
def test_corrupt_manifest_raises_only_typed_errors(saved_corpus, section, data):
    """Drop one key or replace one value, of a whole section or of one record in it."""
    directory, text = saved_corpus
    index = json.loads(text)
    holder, keys = index, [section]
    if data.draw(st.booleans(), label="inside a record"):
        holder = index[section] if section == "spec" else data.draw(st.sampled_from(index[section]))
        keys = sorted(holder)
    key = data.draw(st.sampled_from(keys), label="key")
    if data.draw(st.booleans(), label="drop"):
        del holder[key]
    else:
        holder[key] = data.draw(json_trees, label="value")
    (directory / "manifest.json").write_text(json.dumps(index))
    try:
        bundle = load_manifest(directory)
        sequences = [i.features for i in bundle.train_instances + bundle.template_instances]
        for seq in sequences + [seq for _, seq in bundle.utterances]:
            seq.frames  # blobs are read and checked at first use
    except AwekitError:
        pass


class TestBlobFormat:
    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.awef"
        crc = blobio.write_blob(path, np.arange(6, dtype=np.float32).reshape(2, 3))
        raw = path.read_bytes()
        assert crc == zlib.crc32(raw)
        assert raw[:4] == b"AWEF"
        assert int.from_bytes(raw[8:12], "little") == 2  # rows
        assert int.from_bytes(raw[12:16], "little") == 3  # cols
        assert len(raw) == 16 + 24

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.awef"
        blobio.write_blob(path, np.zeros((1, 1), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        # the corrupted file's own CRC32 passes, so the magic check is what fails
        with pytest.raises(FormatError, match="magic"):
            blobio.read_blob(path, crc32=zlib.crc32(raw))

    @pytest.mark.parametrize("key", ["rows", "cols", "crc32"])
    def test_record_fields_must_be_integers(self, tmp_path, key):
        # a null field is a malformed record, not a value to compare
        rec = blobio.write_record(tmp_path, "m.awef", np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(TypeError, match="must be integers"):
            blobio.read_record(tmp_path, {**rec, key: None})
