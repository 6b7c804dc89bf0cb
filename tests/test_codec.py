import dataclasses
import json
import os
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from awekit import blobio, codec
from awekit.config import RunConfig
from awekit.corpus import CorpusSpec
from awekit.errors import AwekitError, ValidationError
from awekit.model import ModelConfig


@pytest.mark.parametrize(
    "record",
    [
        RunConfig(workdir=Path("a/b"), fusion="none"),
        ModelConfig(stage_channels=(2, 3, 4, 5), num_classes_per_language=(2, 3), seed=7),
        CorpusSpec(word_len_frames=(6, 10), seed=5),
    ],
    ids=lambda r: type(r).__name__,
)
def test_round_trip(record):
    assert codec.load(type(record), codec.dump(record)) == record


def test_scalar_types():
    # an int is a valid float, a bool is not an int, and null fits no field
    assert codec.load(ModelConfig, {"alpha": 1}).alpha == 1
    with pytest.raises(ValidationError, match="epochs"):
        codec.load(ModelConfig, {"epochs": True})
    with pytest.raises(ValidationError, match="alpha"):
        codec.load(ModelConfig, {"alpha": None})
    with pytest.raises(ValidationError, match=r"stage_channels\[1\]"):
        codec.load(ModelConfig, {"stage_channels": [2, True, 4, 5]})
    for text in ("1e400", "1" + "0" * 400):  # JSON reads infinity, and an int no float holds
        with pytest.raises(ValidationError, match="alpha must be a finite number"):
            codec.load(ModelConfig, json.loads(f'{{"alpha": {text}}}'))
    with pytest.raises(ValidationError, match="word_len_frames must have 2 items"):
        codec.load(CorpusSpec, {"word_len_frames": [1, 2, 3]})


def test_codec_is_the_one_json_reader():
    package = Path(codec.__file__).parent
    readers = [
        path.name
        for path in sorted(package.rglob("*.py"))
        if re.search(r"\bjson\.loads?\(|from json import", path.read_text())
    ]
    assert readers == ["codec.py"]


def test_failed_write_keeps_old_file(tmp_path, monkeypatch):
    json_path, blob_path = tmp_path / "a.json", tmp_path / "b.awef"
    codec.write_json(json_path, {"a": 1})
    blobio.write_blob(blob_path, np.ones((2, 3)))
    old = {path: path.read_bytes() for path in (json_path, blob_path)}
    with pytest.raises(TypeError, match="not JSON serializable"):
        codec.write_json(json_path, {"a": 2, "b": object()})

    def replace(src, dst):
        raise OSError("no space left")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="no space left"):
        blobio.write_blob(blob_path, np.zeros((4, 4)))
    with pytest.raises(OSError, match="no space left"):
        codec.write_json(json_path, {"a": 3})
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == old


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)
words = st.sampled_from(["awe", "sdtw", "none", "mean", "dtw", "one", "block"])


def near_typed(tp):
    """JSON values mostly of the field's type (lists of any length for
    tuples; objects with a few known keys), mixed with arbitrary trees."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        keys = st.lists(st.sampled_from(sorted(hints)), max_size=4, unique=True)
        objects = keys.flatmap(
            lambda ks: st.fixed_dictionaries({k: near_typed(hints[k]) for k in ks})
        )
        return objects | json_trees
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return st.lists(near_typed(args[0]), max_size=5) | json_trees
    base = {int: st.integers(), float: st.floats(), str: words, Path: words}
    return base[tp] | json_trees


@settings(max_examples=500, deadline=None)
@given(cls=st.sampled_from([RunConfig, ModelConfig]), data=st.data())
def test_arbitrary_json_raises_only_typed_errors(cls, data):
    try:
        codec.load(cls, data.draw(near_typed(cls)))
    except AwekitError:
        pass
