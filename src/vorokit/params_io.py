"""JSON-dict serialisation of place parameters, and the one atomic file
writer (both shared by tables and the CLI).

Schema:
    {"place": "real", "blocks": [{"kind": "gl1", "delta": 0, "t": [0.0, 0.0]},
                                 {"kind": "ds2", "l": 11, "t": [0.0, 0.0]}]}
    {"place": "complex", "blocks": [{"t": [0.0, 0.0], "l": 0}]}
"""

from __future__ import annotations

import os
import tempfile

from .archimedean import (
    ComplexBlock,
    ComplexPlaceParams,
    DS2Block,
    GL1Block,
    PlaceParams,
    RealPlaceParams,
)

__all__ = ["params_to_dict", "params_from_dict", "atomic_write"]


def atomic_write(path: str, text: str) -> None:
    """Write `text` to `path` through a temp file in its directory and a rename."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _c(v: complex) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def params_to_dict(params: PlaceParams) -> dict:
    if isinstance(params, RealPlaceParams):
        blocks = []
        for b in params.blocks:
            if isinstance(b, GL1Block):
                blocks.append({"kind": "gl1", "delta": b.delta, "t": _c(b.t)})
            else:
                blocks.append({"kind": "ds2", "l": b.l, "t": _c(b.t)})
        return {"place": "real", "blocks": blocks}
    return {
        "place": "complex",
        "blocks": [{"t": _c(b.t), "l": b.l} for b in params.blocks],
    }


def params_from_dict(doc: dict) -> PlaceParams:
    if set(doc) != {"place", "blocks"}:
        raise ValueError(f"parameter document must have exactly the keys place, blocks; got {sorted(doc)}")
    place = doc["place"]
    if place == "real":
        blocks = []
        for b in doc["blocks"]:
            kind = b.get("kind")
            t = complex(*b.get("t", [0.0, 0.0]))
            if kind == "gl1":
                _expect_keys(b, {"kind", "delta", "t"}, {"t"})
                blocks.append(GL1Block(b["delta"], t))
            elif kind == "ds2":
                _expect_keys(b, {"kind", "l", "t"}, {"t"})
                blocks.append(DS2Block(b["l"], t))
            else:
                raise ValueError(f"real block kind must be gl1 or ds2, got {kind!r}")
        return RealPlaceParams(tuple(blocks))
    if place == "complex":
        blocks = []
        for b in doc["blocks"]:
            _expect_keys(b, {"t", "l"}, {"t", "l"})
            blocks.append(ComplexBlock(complex(*b.get("t", [0.0, 0.0])), b.get("l", 0)))
        return ComplexPlaceParams(tuple(blocks))
    raise ValueError(f"place must be real or complex, got {place!r}")


def _expect_keys(d: dict, allowed: set, optional: set) -> None:
    extra = set(d) - allowed
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in block {d}")
    missing = allowed - optional - set(d)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in block {d}")
