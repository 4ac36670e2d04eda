"""JSON-dict serialisation of real-place parameters, and the one atomic file
writer (both shared by tables and the CLI).

Schema (``t`` optional, default [0.0, 0.0]; docs/formats.md):
    {"place": "real", "blocks": [{"kind": "gl1", "delta": 0, "t": [0.0, 0.0]},
                                 {"kind": "ds2", "l": 11, "t": [0.0, 0.0]}]}
"""

from __future__ import annotations

import cmath
import os
import tempfile

from .archimedean import DS2Block, GL1Block, RealPlaceParams

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


def params_to_dict(params: RealPlaceParams) -> dict:
    blocks = []
    for b in params.blocks:
        if isinstance(b, GL1Block):
            blocks.append({"kind": "gl1", "delta": b.delta, "t": _c(b.t)})
        else:
            blocks.append({"kind": "ds2", "l": b.l, "t": _c(b.t)})
    return {"place": "real", "blocks": blocks}


def params_from_dict(doc: dict) -> RealPlaceParams:
    if set(doc) != {"place", "blocks"}:
        raise ValueError(f"parameter document must have exactly the keys place, blocks; got {sorted(doc)}")
    if doc["place"] != "real":
        raise ValueError(f"place must be real, got {doc['place']!r}")
    blocks = []
    for b in doc["blocks"]:
        if not isinstance(b, dict):
            raise ValueError(f"each block must be a JSON object, got {b!r}")
        kind = b.get("kind")
        t = complex(*b.get("t", [0.0, 0.0]))
        if not cmath.isfinite(t):
            raise ValueError(f"block t must be finite, got {b['t']!r}")
        if kind == "gl1":
            _expect_keys(b, {"kind", "delta", "t"}, {"t"})
            blocks.append(GL1Block(b["delta"], t))
        elif kind == "ds2":
            _expect_keys(b, {"kind", "l", "t"}, {"t"})
            blocks.append(DS2Block(b["l"], t))
        else:
            raise ValueError(f"real block kind must be gl1 or ds2, got {kind!r}")
    return RealPlaceParams(tuple(blocks))


def _expect_keys(d: dict, allowed: set, optional: set) -> None:
    extra = set(d) - allowed
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in block {d}")
    missing = allowed - optional - set(d)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in block {d}")
