"""Stable 64-bit string hashing for URL partitioning.

Used for: seen-set shard routing (``hash % seen_shards``), the corpus's
hash-sorted fetch layout, scheduler salt, and the deterministic priority
tiebreak. Replaces the reference's cluster-sharding consistent hash
of entity ids (PageManager.scala:19,24 — entity id = url).

Primary implementation is polars' vectorized 64-bit hash (xxh3-based, a
public, stable-within-version kernel); a pure-Python FNV-1a fallback keeps
the package importable without polars. Hashes are stable only within one
implementation, and two on-disk artifacts store raw hashes: the frontier
chain's flips files and the corpus's hashed fetch layout. So both record
:func:`impl_id`, and a resume or a layout reuse under a different id is
refused or rebuilt. The seen sets store no file of their own: a resume
rehashes the chain's urls.
"""

from __future__ import annotations

import numpy as np

try:  # polars ships in the environment; fallback keeps unit-importability
    import polars as pl

    _HAS_POLARS = True
except ImportError:  # pragma: no cover
    _HAS_POLARS = False

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def _fnv1a64(s: str, seed: int = 0) -> int:
    h = (_FNV_OFFSET ^ (seed * _FNV_PRIME)) & _MASK
    for b in s.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def impl_id() -> str:
    """Names the implementation behind :func:`hash64`; equal ids give equal
    hashes."""
    if _HAS_POLARS:
        return f"polars-{pl.__version__}"
    return "fnv1a64"


def hash64(strings, seed: int = 0) -> np.ndarray:
    """Vectorized unsigned 64-bit hash of a sequence/array of strings.

    Accepts a list, numpy array, pandas Series, or pyarrow Array/ChunkedArray
    (arrow inputs convert zero-copy — ~10x faster than materializing Python
    strings). Returns ``np.ndarray[uint64]``.
    """
    if _HAS_POLARS:
        try:
            import pyarrow as pa

            if isinstance(strings, pa.ChunkedArray):
                strings = strings.combine_chunks()
            if isinstance(strings, pa.Array):
                s = pl.from_arrow(strings)
            else:
                s = pl.Series("s", strings, dtype=pl.Utf8)
        except ImportError:  # pragma: no cover
            s = pl.Series("s", strings, dtype=pl.Utf8)
        return s.hash(seed=seed).to_numpy().astype(np.uint64)
    if hasattr(strings, "to_pylist"):
        strings = strings.to_pylist()
    return np.array([_fnv1a64(s, seed) for s in strings], dtype=np.uint64)


def hash64_one(s: str, seed: int = 0) -> int:
    """Scalar variant of :func:`hash64` (same values)."""
    if _HAS_POLARS:
        return int(pl.Series("s", [s], dtype=pl.Utf8).hash(seed=seed)[0])
    return _fnv1a64(s, seed)
