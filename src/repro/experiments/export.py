"""Experiment result export.

Experiment ``run()`` functions return plain-Python structures that may
contain dataclasses (boxplot summaries, classified rows), enums and
tuple keys. This module flattens them into strict JSON so results can be
archived or plotted elsewhere (``python -m repro run F11 --json out.json``).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import pathlib
from typing import Any, Dict, Optional, Tuple, Union

#: Dataclass field names per class (``None``: not a dataclass). Classes
#: never gain or lose fields, so one lookup per class is enough.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        names = (
            tuple(field.name for field in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls) else None
        )
        _FIELD_NAMES[cls] = names
        return names


def jsonable(obj: Any) -> Any:
    """Recursively convert an experiment result into JSON-safe data.

    Tuple dict keys become ``"a|b"`` strings; dataclasses become dicts;
    enums their values; non-finite floats become strings.
    """
    # Exact builtin types first: they are almost every value, and
    # ``type(obj) is`` skips the isinstance chain below. Subclasses
    # (IntEnum, numpy.float64, OrderedDict...) take the chain.
    cls = type(obj)
    if cls is str or cls is int or cls is bool or obj is None:
        return obj
    if cls is float:
        return obj if math.isfinite(obj) else str(obj)
    if cls is dict:
        return _jsonable_dict(obj)
    if cls is list or cls is tuple:
        return [jsonable(item) for item in obj]
    names = _field_names(cls)
    if names is not None:
        return {name: jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return _jsonable_dict(obj)
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return str(obj)
        return obj
    if isinstance(obj, (bool, int, str)):
        return obj
    return str(obj)


def _jsonable_dict(obj: Dict[Any, Any]) -> Dict[str, Any]:
    out = {}
    for key, value in obj.items():
        if isinstance(key, tuple):
            key = "|".join(str(part) for part in key)
        elif not isinstance(key, str):
            key = str(key)
        out[key] = jsonable(value)
    return out


def save_result(result: Any, path: Union[str, pathlib.Path]) -> None:
    """Dump one experiment result as pretty-printed JSON."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(jsonable(result), indent=2, sort_keys=True) + "\n")
