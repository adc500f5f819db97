"""Vectorized cuckoo filter — the memory-bounded URL-seen membership core.

The north star for this rebuild names "a sharded cuckoo-filter URL-seen set
(canonicalized via RFC-3986 normalization + 64-bit url hashing) held in
actor-pool stateful stages" — this module is that filter. The exact sharded
store (state/seen.py) keeps 12 B per url (sorted uint64 hash + int32 wave);
at the 10^10-url frontier scale that is ~120 GB cluster-wide. The cuckoo
filter stores a 16-bit fingerprint in a 4-slot bucket table at ≤0.84 load:
**~2.4 bytes per url (~24 GB at 10^10)** with a one-sided error — no false
negatives ever, false-positive rate ≈ 2·slots·2^-16 ≈ 1.2e-4 at full load
(a false positive means a never-seen url is skipped: a bounded, documented
under-crawl, the standard trade for 5x memory).

Design (Fan, Andersen, Kaminsky, Mitzenmacher — "Cuckoo Filter: Practically
Better Than Bloom", CoNEXT 2014; public):
  - partial-key cuckoo hashing: bucket i1 = low bits of the 64-bit url hash,
    i2 = i1 XOR hash(fingerprint) — the alternate bucket is computable from
    (bucket, fingerprint) alone, which is what makes eviction possible
    without storing keys.
  - fingerprint = high 16 bits of the url hash (disjoint from the bucket
    bits), 0 reserved as the empty-slot marker.
  - batch insert is fully vectorized: per-round bucket-grouped slot
    assignment via argsort + cumulative-empty ranking (two rounds: home
    bucket then alternate), with only the residual overflow (a few keys per
    batch near capacity) walking the classic per-key eviction chain.
  - everything is a pure function of the input hashes — no RNG — so a
    retried Ray task reproduces the exact same filter state (the same
    determinism contract as the exact shard, see state/seen.py:11-19).
  - answers depend only on the SET of keys added, not on their order or
    batching: a probe matches only a stored key of the same fingerprint
    and the same bucket pair (eviction moves a fingerprint only between
    its own two buckets; the stash stores the pair), and ``add`` skips
    keys already reported present. So a resume that re-adds the crawl's
    urls in one batch answers every probe as the filter it replaces.
    ``count`` can differ only by two keys of one (fingerprint, bucket
    pair) class that one batch inserts twice and two batches once — about
    n^2 / 2^(16 + log2 nbuckets) pairs among n keys.
"""

from __future__ import annotations

import numpy as np

_FP_MIX = np.uint64(0x5BD1E9955BD1E995)  # odd multiplier for fp -> bucket-offset
_INDEX_MIX = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio remix for the home bucket
_SLOTS = 4
_MAX_KICKS = 500
_STASH_MAX = 128


def _next_pow2(n: int) -> int:
    return 1 << max(0, (int(n) - 1).bit_length())


class CuckooFilter:
    """4-way, 16-bit-fingerprint cuckoo filter over uint64 key hashes.

    ``capacity`` is the number of keys the filter is sized for; the bucket
    table is the next power of two of ``capacity / (4 * 0.84)`` buckets, so
    actual headroom is at least 1/0.84. Inserting far past capacity raises
    (cuckoo tables cannot grow in place — size to the expected seen count,
    e.g. frontier_urls / num_shards).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.nbuckets = _next_pow2(max(2, int(np.ceil(capacity / (_SLOTS * 0.84)))))
        self._mask = np.uint64(self.nbuckets - 1)
        self.table = np.zeros((self.nbuckets, _SLOTS), dtype=np.uint16)
        # overflow stash: encoded (canonical_bucket << 16 | fp) uint64 keys
        self._stash: set[int] = set()
        self._stash_arr: np.ndarray | None = None
        self.count = 0  # keys inserted (dedup'd, skip-if-present)

    # -- derivation ---------------------------------------------------------
    def _derive(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Home bucket from a MULTIPLICATIVE remix of the hash, not its raw
        # low bits: the sharded pool routes keys by ``h % num_shards``, so
        # every key a shard receives SHARES its low bits — raw low-bit
        # indexing collapsed home buckets to nbuckets/num_shards and blew
        # the eviction stash at ~0.37 design load (found by
        # tools/bench_cuckoo.py at 10^8 urls / 256 shards). The Fibonacci
        # product's HIGH bits are uniform regardless of fixed low input
        # bits, decorrelating the bucket index from both the routing bits
        # (low) and the fingerprint bits (48-63).
        with np.errstate(over="ignore"):
            h = np.ascontiguousarray(h, dtype=np.uint64)
            fp = ((h >> np.uint64(48)) & np.uint64(0xFFFF)).astype(np.uint16)
            fp[fp == 0] = 1  # 0 marks an empty slot
            i1 = (((h * _INDEX_MIX) >> np.uint64(32)) & self._mask).astype(
                np.int64
            )
            i2 = self._alt(i1, fp)
        return fp, i1, i2

    def _alt(self, b: np.ndarray, fp: np.ndarray) -> np.ndarray:
        off = ((fp.astype(np.uint64) * _FP_MIX) >> np.uint64(16)) & self._mask
        return (b.astype(np.uint64) ^ off).astype(np.int64)

    def _stash_keys(self, i1: np.ndarray, i2: np.ndarray, fp: np.ndarray) -> np.ndarray:
        canon = np.minimum(i1, i2).astype(np.uint64)
        return (canon << np.uint64(16)) | fp.astype(np.uint64)

    # -- membership -----------------------------------------------------------
    def contains(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=np.uint64)
        if len(h) == 0:
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = self._derive(h)
        fcol = fp[:, None]
        found = (self.table[i1] == fcol).any(axis=1) | (
            self.table[i2] == fcol
        ).any(axis=1)
        if self._stash:
            if self._stash_arr is None:
                self._stash_arr = np.fromiter(
                    self._stash, dtype=np.uint64, count=len(self._stash)
                )
            found |= np.isin(self._stash_keys(i1, i2, fp), self._stash_arr)
        return found

    # -- insertion ------------------------------------------------------------
    def add(self, h: np.ndarray) -> int:
        """Insert keys (dedup'd; keys already reporting present are skipped —
        consistent with membership semantics). Returns #newly inserted."""
        h = np.unique(np.asarray(h, dtype=np.uint64))
        if len(h) == 0:
            return 0
        h = h[~self.contains(h)]
        if len(h) == 0:
            return 0
        if self.count + len(h) > self.nbuckets * _SLOTS:
            raise RuntimeError(
                f"cuckoo filter over capacity: {self.count}+{len(h)} keys into "
                f"{self.nbuckets * _SLOTS} slots — size `capacity` to the "
                "expected seen-set cardinality per shard"
            )
        fp, i1, i2 = self._derive(h)
        # round 1: home bucket; round 2: alternate bucket — vectorized fills
        pend = np.arange(len(h))
        for buckets in (i1, i2):
            if len(pend) == 0:
                break
            placed = self._bulk_place(buckets[pend], fp[pend])
            pend = pend[~placed]
        # residual: per-key eviction walk (near-empty tables never get here)
        for j in pend.tolist():
            self._insert_one(int(fp[j]), int(i1[j]), int(i2[j]))
        self.count += len(h)
        return len(h)

    def _bulk_place(self, buckets: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """Fill empty slots of ``buckets[k]`` with ``fps[k]`` where room
        exists; duplicate target buckets within the batch are rank-assigned
        to distinct empty slots. Returns the placed mask (input order)."""
        order = np.argsort(buckets, kind="stable")
        bs, f = buckets[order], fps[order]
        new_grp = np.empty(len(bs), dtype=bool)
        new_grp[0] = True
        new_grp[1:] = bs[1:] != bs[:-1]
        starts = np.flatnonzero(new_grp)
        gidx = np.cumsum(new_grp) - 1
        rank = np.arange(len(bs)) - starts[gidx]
        emp = self.table[bs] == 0  # (n, SLOTS), pre-write snapshot
        cumemp = np.cumsum(emp, axis=1)
        want = cumemp == (rank + 1)[:, None]
        ok = want.any(axis=1)
        slot = np.argmax(want, axis=1)  # first index reaching rank+1 is empty
        self.table[bs[ok], slot[ok]] = f[ok]
        placed = np.zeros(len(bs), dtype=bool)
        placed[order[ok]] = True
        return placed

    def _insert_one(self, fp: int, b1: int, b2: int) -> None:
        for b in (b1, b2):
            row = self.table[b]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                return
        # deterministic eviction walk: slot choice mixes the carried
        # fingerprint and kick count (no RNG — retry-reproducible)
        cur_fp, cur_b = fp, b2
        for kick in range(_MAX_KICKS):
            slot = (((cur_fp * 0x9E3779B1) >> 13) ^ kick) & (_SLOTS - 1)
            cur_fp, self.table[cur_b, slot] = int(self.table[cur_b, slot]), cur_fp
            cur_b = int(
                self._alt(np.array([cur_b]), np.array([cur_fp], np.uint16))[0]
            )
            row = self.table[cur_b]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = cur_fp
                return
        i1 = np.array([cur_b], dtype=np.int64)
        fpa = np.array([cur_fp], dtype=np.uint16)
        key = int(self._stash_keys(i1, self._alt(i1, fpa), fpa)[0])
        self._stash.add(key)
        self._stash_arr = None
        if len(self._stash) > _STASH_MAX:
            raise RuntimeError(
                f"cuckoo filter stash overflow at {self.count} keys / "
                f"{self.nbuckets * _SLOTS} slots — filter is over its design "
                "load; raise `capacity`"
            )

    @property
    def nbytes(self) -> int:
        return self.table.nbytes + 8 * len(self._stash)
