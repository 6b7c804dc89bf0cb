"""JSON <-> dataclass codec for configs and reports, and JSON artifact I/O.

`dump` is `dataclasses.asdict` with paths as strings. `load` builds a
dataclass from parsed JSON and rejects unknown keys, wrong types, non-finite
floats and non-object sections with a ValidationError naming the dotted key;
range checks stay in each class's `__post_init__`. `read_json` parses every
JSON input, `write_json` writes every JSON artifact in one layout, and
`write_atomic` is the one routine that writes artifact files.
"""

import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

from .errors import ValidationError


def dump(record) -> dict:
    """JSON-ready dict of a dataclass instance (nested ones included)."""
    return dataclasses.asdict(record, dict_factory=_json_dict)


def _json_dict(items) -> dict:
    return {k: str(v) if isinstance(v, Path) else v for k, v in items}


def write_atomic(path, data: bytes | str) -> None:
    """Write `data` to `path`, creating the parent directory, through a
    temporary file beside it and `os.replace`: a write that fails leaves
    the old file, if any, as it was and no temporary file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload) -> None:
    """Write `payload` with indent 1, sorted keys and a trailing newline."""
    write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def read_json(source, error_cls, where: str):
    """The JSON value of a file (a Path) or of one line (str or bytes). Bytes that
    `json.loads` cannot decode, or text that is not JSON, nests too deeply or holds
    an int of over 4300 digits, raise `error_cls` with a message opening with `where`."""
    try:
        return json.loads(source.read_bytes() if isinstance(source, Path) else source)
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise error_cls(f"{where}: {e!r}") from e


def ints(record: dict, *keys) -> tuple[int, ...]:
    """record[key] for each key; TypeError unless each is an int (a bool is not)."""
    values = tuple(record[k] for k in keys)
    if any(type(v) is not int for v in values):
        raise TypeError(f"{', '.join(keys)} must be integers, got {values}")
    return values


def load(cls, data, where: str = ""):
    """Instance of dataclass `cls` from parsed JSON; missing keys keep defaults."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where or cls.__name__} must be a JSON object, got {_kind(data)}")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls) if f.init}
    kwargs = {}
    for key, value in data.items():
        at = f"{where}.{key}" if where else key
        if key not in names:
            raise ValidationError(f"unknown key {at!r}")
        kwargs[key] = _value(hints[key], value, at)
    return cls(**kwargs)


def _kind(value) -> str:
    return "null" if value is None else type(value).__name__


def _value(tp, value, at: str):
    if dataclasses.is_dataclass(tp):
        return load(tp, value, at)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{at} must be a list, got {_kind(value)}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ValidationError(f"{at} must have {len(args)} items, got {len(value)}")
        return tuple(_value(a, v, f"{at}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if tp is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif tp is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if ok and not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond float range
            raise ValidationError(f"{at} must be a finite number")
    elif tp in (str, Path):
        ok = isinstance(value, str)
    else:
        raise TypeError(f"{at}: no JSON decoding for field type {tp}")
    if not ok:
        raise ValidationError(f"{at} must be {tp.__name__}, got {_kind(value)}")
    return Path(value) if tp is Path else value
