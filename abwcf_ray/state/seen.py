"""Sharded exact URL-seen set.

The reference guarantees exact dedup by cluster sharding: one ``PageManager``
entity per URL swallows duplicate ``Discover`` messages
(PageManager.scala:74-157, entity id = url at PageManager.scala:19,24). The
rebuild holds the same state as a pool of ``SeenShard`` Ray actors routed by
``hash64(url) % num_shards`` — the hash space replaces the entity-id hash
ring, and shards store 64-bit url hashes, not strings (10^10 urls -> ~80 GB
cluster-wide, ~300 MB/shard at 256 shards).

Retry-safety: membership is **wave-versioned** (``hash -> wave_added``).
The filter stage probes ``contains(hashes, before_wave=n)`` — only urls
added in waves < n count as seen — and the add stage registers
``add(hashes, wave=n)`` with setdefault semantics. A Ray task that is
retried after its own adds took effect therefore reproduces its original
output (its urls were added at wave n, which the probe ignores), and
re-adding is a no-op. Within-wave duplicates are arbitrated by the shards
themselves via the two-phase propose/claim protocol below, mirroring
PageManager.scala:107 where a Discover for a known url is swallowed.

Checkpoint: each shard persists its own parquet file (parallel, one file per
shard) so resume re-creates the pool without rescanning the frontier.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from abwcf_ray.functions.hashing import hash64
from abwcf_ray.state.cuckoo import CuckooFilter


class _ExactSeenShard:
    """One shard of the seen set (plain class; the Ray actor is
    :data:`SeenShard`). ``num_cpus=0``: membership ops are tiny and
    must not starve the fetch/parse pools of scheduling slots.

    Beyond membership, shards arbitrate within-wave duplicate discoveries —
    the rebuild of the reference's per-URL PageManager entity swallowing
    duplicate Discover messages (PageManager.scala:107): a two-phase
    ``propose`` (min-depth merge; commutative+idempotent) then ``claim``
    (first-token-wins per url; deterministic because competing claimants
    carry identical rows) replaces a ``groupby(url)`` all-to-all shuffle of
    the candidate stream."""

    def __init__(self) -> None:
        # single-purpose actor: pin arrow's pools to 1 thread. At 256-shard
        # pools the DEFAULT per-process pools (os.cpu_count() threads each)
        # exhausted the box's thread budget during a parallel checkpoint
        # restore (boost 'thread: Resource temporarily unavailable' aborts —
        # found by tools/bench_cuckoo.py at 10^8 urls / 256 shards); a
        # membership shard's parquet IO is one small file either way.
        try:
            pa.set_cpu_count(1)
            pa.set_io_thread_count(1)
        except Exception:  # pragma: no cover - arrow without the setters
            pass
        # membership store: SORTED uint64 hashes + aligned wave-added. The
        # shard is the crawl's hottest serialized path, so probes must be
        # numpy-rate (searchsorted), not Python-dict loops; recent adds land
        # in a small pending dict and are merged in bulk at wave boundaries.
        self._h = np.empty(0, dtype=np.uint64)
        self._hw = np.empty(0, dtype=np.int32)
        self._pend: dict[int, int] = {}  # hash -> wave, not yet compacted
        self._pend_stale = False  # pend holds a wave != the current one
        self._cur_wave: int | None = None
        # wave-scoped propose/claim state: proposals accumulate as raw
        # arrays and compile into a sorted (hash -> min depth) table on
        # first claim (re-compiled if a late/retried propose arrives)
        self._prop_h: list[np.ndarray] = []
        self._prop_d: list[np.ndarray] = []
        self._wm_h = np.empty(0, dtype=np.uint64)
        self._wm_d = np.empty(0, dtype=np.int64)
        self._wm_dirty = False
        self._claims: dict[int, int] = {}

    # -- storage helpers --------------------------------------------------
    def _compact(self) -> None:
        """Merge pending adds into the sorted store (first-entry-wins, i.e.
        dict-setdefault semantics: existing entries keep their wave)."""
        if not self._pend:
            return
        ph = np.fromiter(self._pend.keys(), dtype=np.uint64, count=len(self._pend))
        pw = np.fromiter(self._pend.values(), dtype=np.int64, count=len(self._pend))
        h = np.concatenate([self._h, ph])
        w = np.concatenate([self._hw.astype(np.int64), pw])
        order = np.argsort(h, kind="stable")  # stable: existing precedes pending
        h, w = h[order], w[order]
        keep = np.ones(len(h), dtype=bool)
        keep[1:] = h[1:] != h[:-1]
        self._h = h[keep]
        self._hw = w[keep].astype(np.int32)
        self._pend = {}
        self._pend_stale = False

    def _lookup(self, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(found mask, wave-added values; undefined where not found) against
        the compacted store."""
        h = np.asarray(hashes, dtype=np.uint64)
        if len(self._h) == 0:
            return np.zeros(len(h), dtype=bool), np.zeros(len(h), dtype=np.int32)
        pos = np.searchsorted(self._h, h)
        posc = np.minimum(pos, len(self._h) - 1)
        found = (pos < len(self._h)) & (self._h[posc] == h)
        return found, self._hw[posc]

    def contains(self, hashes: np.ndarray, before_wave: int) -> np.ndarray:
        self._compact()
        found, waves = self._lookup(hashes)
        return found & (waves < before_wave)

    def add(self, hashes: np.ndarray, wave: int) -> int:
        if len(hashes) == 0:
            return 0
        h = np.unique(np.asarray(hashes, dtype=np.uint64))
        found, _ = self._lookup(h)
        before = len(self._pend)
        pend = self._pend
        for hh in h[~found].tolist():
            pend.setdefault(hh, wave)
        if wave != self._cur_wave:
            self._pend_stale = True
        return len(pend) - before

    # -- two-phase within-wave dedup (F1) ---------------------------------
    def _begin_wave(self, wave: int) -> None:
        if self._cur_wave != wave:
            self._compact()
            self._cur_wave = wave
            self._prop_h, self._prop_d = [], []
            self._wm_h = np.empty(0, dtype=np.uint64)
            self._wm_d = np.empty(0, dtype=np.int64)
            self._wm_dirty = False
            self._claims = {}

    def propose(self, wave: int, hashes: np.ndarray, depths: np.ndarray) -> None:
        """Min-depth merge per url hash (canonical first-discovery = lowest
        depth). Commutative and idempotent -> retry-safe in any order."""
        self._begin_wave(wave)
        if len(hashes):
            self._prop_h.append(np.asarray(hashes, dtype=np.uint64))
            self._prop_d.append(np.asarray(depths, dtype=np.int64))
            self._wm_dirty = True

    def _build_wave_min(self) -> None:
        h = np.concatenate(self._prop_h) if self._prop_h else np.empty(0, np.uint64)
        d = np.concatenate(self._prop_d) if self._prop_d else np.empty(0, np.int64)
        order = np.lexsort((d, h))  # by hash, then depth asc
        h, d = h[order], d[order]
        keep = np.ones(len(h), dtype=bool)
        keep[1:] = h[1:] != h[:-1]  # first per hash = min depth
        self._wm_h, self._wm_d = h[keep], d[keep]
        self._wm_dirty = False

    def claim(
        self, wave: int, hashes: np.ndarray, depths: np.ndarray, token: int
    ) -> np.ndarray:
        """Mask of rows this claimant wins: not seen before this wave, depth
        equals the proposed minimum, and first claim token wins. Tokens
        must be unique per claimant block and stable across retries (the
        driver passes claim-chunk indices), so a retried task
        reproduces its mask and two distinct blocks can never both win.
        Winners are registered as seen."""
        self._begin_wave(wave)
        if self._pend_stale:
            self._compact()  # pend may hold earlier-wave adds -> make probes exact
        if self._wm_dirty:
            self._build_wave_min()
        h = np.asarray(hashes, dtype=np.uint64)
        d = np.asarray(depths, dtype=np.int64)
        out = np.zeros(len(h), dtype=bool)
        found, waves_added = self._lookup(h)
        seen_before = found & (waves_added < wave)
        if len(self._wm_h):
            wpos = np.searchsorted(self._wm_h, h)
            wposc = np.minimum(wpos, len(self._wm_h) - 1)
            at_min = (wpos < len(self._wm_h)) & (self._wm_h[wposc] == h) & (
                self._wm_d[wposc] == d
            )
        else:
            at_min = np.zeros(len(h), dtype=bool)
        cand = ~seen_before & at_min
        # arbitration over the (small) surviving set only
        claims, pend = self._claims, self._pend
        taken_this_call: set[int] = set()  # within-batch duplicate guard
        in_store = found  # already in compacted store -> don't re-register
        for i in np.flatnonzero(cand):
            hh = int(h[i])
            if hh in taken_this_call:
                continue
            if claims.setdefault(hh, token) == token:
                if not in_store[i]:
                    pend.setdefault(hh, wave)
                taken_this_call.add(hh)
                out[i] = True
        return out

    def size(self) -> int:
        return len(self._h) + len(self._pend)  # pend keys are never in _h

    def mem_bytes(self) -> int:
        """Resident bytes of the membership store (compacted first so the
        figure is the steady-state footprint, not the pend dict's)."""
        self._compact()
        return int(self._h.nbytes + self._hw.nbytes)

    def checkpoint(self, path: str) -> int:
        self._compact()  # sorted store -> deterministic checkpoint bytes
        pq.write_table(
            pa.table(
                {
                    "url_hash": pa.array(self._h, pa.uint64()),
                    "wave": pa.array(self._hw, pa.int32()),
                }
            ),
            path,
        )
        return len(self._h)

    def restore(self, path: str) -> int:
        t = pq.read_table(path)
        h = t.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        w = t.column("wave").to_numpy(zero_copy_only=False).astype(np.int32)
        order = np.argsort(h)  # checkpoints are sorted; re-sort defensively
        self._h, self._hw = h[order], w[order]
        self._pend = {}
        return len(self._h)


class _CuckooSeenShard(_ExactSeenShard):
    """Memory-bounded shard: the north star's "sharded cuckoo-filter URL-seen
    set" (BASELINE.json north_star / north_rule "bloom/cuckoo URL-seen").

    Same RPC surface and same wave-versioned retry contract as the exact
    shard, with the ever-growing sorted store replaced by a
    :class:`~abwcf_ray.state.cuckoo.CuckooFilter` (~2.4 B/url vs 12 B/url:
    ~24 GB vs ~120 GB cluster-wide at the 10^10-url frontier scale; the cost
    is a ≈1.2e-4 false-positive rate = bounded under-crawl, never a
    re-crawl). How the wave contract survives losing per-key waves:

      - adds for the CURRENT wave stay exact in ``_pend`` (hash -> wave) and
        fold into the filter only when a LATER wave first probes/claims — so
        ``contains(before_wave=n)`` during wave n never sees wave-n adds, the
        same guarantee the exact shard gets from per-key wave stamps.
      - once folded, keys lose their wave — safe because the crawl's wave
        barrier (every wave's outputs are durably checkpointed before the
        next wave starts; lineage never recomputes across waves,
        pipelines/crawl.py checkpoint tee) means no probe with
        ``before_wave <= folded_through`` can ever legally arrive. Such a
        probe raises loudly instead of answering wrong.
      - the per-wave propose/claim arbitration state is inherited unchanged —
        it is wave-scoped and exact in both backends.
    """

    def __init__(self, capacity: int = 4_000_000) -> None:
        super().__init__()
        self._filter = CuckooFilter(capacity)
        self._folded_through = -2  # highest wave folded into the filter
        self._pend_snap: tuple[np.ndarray, np.ndarray] | None = None

    # -- storage overrides --------------------------------------------------
    def _compact(self) -> None:
        # folding is wave-boundary-scoped (see _fold); the base class's
        # compact-at-probe calls become no-ops
        return

    def _fold(self, before_wave: int) -> None:
        """Fold pend entries from waves < before_wave into the filter."""
        if self._pend:
            fold = [hh for hh, w in self._pend.items() if w < before_wave]
            if fold:
                self._filter.add(np.array(fold, dtype=np.uint64))
                for hh in fold:
                    del self._pend[hh]
                self._pend_snap = None
                self._pend_stale = False
        if before_wave - 1 > self._folded_through:
            self._folded_through = before_wave - 1

    def _pend_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._pend_snap is None:
            ph = np.fromiter(self._pend.keys(), np.uint64, count=len(self._pend))
            pw = np.fromiter(self._pend.values(), np.int64, count=len(self._pend))
            order = np.argsort(ph)
            self._pend_snap = (ph[order], pw[order])
        return self._pend_snap

    def _lookup(self, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = np.asarray(hashes, dtype=np.uint64)
        found = self._filter.contains(h)
        waves = np.full(len(h), self._folded_through, dtype=np.int64)
        if self._pend:
            ph, pw = self._pend_arrays()
            pos = np.searchsorted(ph, h)
            posc = np.minimum(pos, len(ph) - 1)
            in_p = (pos < len(ph)) & (ph[posc] == h)
            waves[in_p] = pw[posc[in_p]]
            found = found | in_p
        return found, waves.astype(np.int32)

    def contains(self, hashes: np.ndarray, before_wave: int) -> np.ndarray:
        if before_wave <= self._folded_through:
            raise RuntimeError(
                f"cuckoo seen-shard probed with before_wave={before_wave} but "
                f"waves <= {self._folded_through} are already folded (per-key "
                "waves are gone) — a cross-wave lineage recompute reached a "
                "cuckoo backend; use seen_backend='exact' for that topology"
            )
        self._fold(before_wave)
        found, waves = self._lookup(hashes)
        return found & (waves < before_wave)

    def add(self, hashes: np.ndarray, wave: int) -> int:
        self._pend_snap = None
        if wave <= self._folded_through:
            # this wave is already folded — membership-only insert is exact
            # for every legal future probe (before_wave > folded_through)
            h = np.unique(np.asarray(hashes, dtype=np.uint64))
            if len(h) == 0:
                return 0
            found, _ = self._lookup(h)
            return int(self._filter.add(h[~found]))
        return super().add(hashes, wave)

    def _begin_wave(self, wave: int) -> None:
        if self._cur_wave != wave:
            if wave <= self._folded_through:
                raise RuntimeError(
                    f"cuckoo seen-shard asked to begin wave {wave} but waves "
                    f"<= {self._folded_through} are already folded"
                )
            self._fold(wave)
        super()._begin_wave(wave)

    def claim(
        self, wave: int, hashes: np.ndarray, depths: np.ndarray, token: int
    ) -> np.ndarray:
        self._pend_snap = None
        return super().claim(wave, hashes, depths, token)

    def propose(self, wave: int, hashes: np.ndarray, depths: np.ndarray) -> None:
        super().propose(wave, hashes, depths)

    def size(self) -> int:
        return self._filter.count + len(self._pend)

    def mem_bytes(self) -> int:
        """Filter table bytes; the (bounded, current-wave) pend dict is
        folded first so the figure is the steady-state footprint."""
        if self._pend:
            self._fold(max(self._pend.values()) + 1)
        return int(self._filter.nbytes)

    def checkpoint(self, path: str) -> int:
        # checkpoints happen at wave completion (pipelines/crawl.py:1031) —
        # fold everything; a resumed run restarts at the NEXT wave, so every
        # post-restore probe has before_wave > folded_through
        if self._pend:
            self._fold(max(self._pend.values()) + 1)
        flat, meta = self._filter.state()
        t = pa.table({"slot": pa.array(flat, pa.uint16())})
        t = t.replace_schema_metadata(
            {
                "abwcf_backend": "cuckoo",
                "abwcf_filter": meta,
                "abwcf_folded_through": str(self._folded_through),
            }
        )
        pq.write_table(t, path)
        return self._filter.count

    def restore(self, path: str) -> int:
        t = pq.read_table(path)
        md = t.schema.metadata or {}
        if md.get(b"abwcf_backend") != b"cuckoo":
            raise RuntimeError(
                "seen-set checkpoint is not a cuckoo checkpoint — it was "
                "written by the exact backend; restore with "
                "seen_backend='exact' or re-crawl"
            )
        flat = t.column("slot").to_numpy(zero_copy_only=False)
        self._filter = CuckooFilter.from_state(flat, md[b"abwcf_filter"].decode())
        self._folded_through = int(md[b"abwcf_folded_through"])
        self._pend = {}
        self._pend_snap = None
        return self._filter.count


SeenShard = ray.remote(num_cpus=0)(_ExactSeenShard)
CuckooSeenShard = ray.remote(num_cpus=0)(_CuckooSeenShard)


class SeenSet:
    """Driver-side handle over the shard pool. The handle (actor refs +
    shard count) is cheap to serialize into ``map_batches`` closures."""

    def __init__(
        self,
        num_shards: int,
        backend: str = "exact",
        cuckoo_capacity: int = 4_000_000,
    ):
        self.num_shards = num_shards
        self.backend = backend
        if backend == "exact":
            self.shards = [SeenShard.remote() for _ in range(num_shards)]
        elif backend == "cuckoo":
            self.shards = [
                CuckooSeenShard.remote(cuckoo_capacity) for _ in range(num_shards)
            ]
        else:
            raise ValueError(f"unknown seen backend {backend!r}")

    def cache_token(self) -> str:
        """Unique per shard-POOL instance (the first shard's actor id).
        The propose-RPC-skip cache (stages/transform._PREDEDUP) must key on
        this: a resumed/restored run re-executes the same (out_dir, wave)
        with a FRESH pool whose wave-min state is empty, and a cache entry
        left in a surviving worker process by the previous pool would skip
        proposes the new shards have never seen — silently losing those
        candidates at claim time."""
        return self.shards[0]._actor_id.hex()

    # -- routing ----------------------------------------------------------
    def _route(self, hashes: np.ndarray) -> list[np.ndarray]:
        shard_ids = hashes % np.uint64(self.num_shards)
        return [np.flatnonzero(shard_ids == s) for s in range(self.num_shards)]

    def contains(self, hashes: np.ndarray, before_wave: int) -> np.ndarray:
        """Membership mask (urls added in waves < before_wave); callable from
        the driver or from inside a Ray task."""
        out = np.zeros(len(hashes), dtype=bool)
        idx = self._route(hashes)
        refs = [
            self.shards[s].contains.remote(hashes[ix], before_wave)
            for s, ix in enumerate(idx)
            if len(ix)
        ]
        live = [ix for ix in idx if len(ix)]
        for ix, mask in zip(live, ray.get(refs)):
            out[ix] = mask
        return out

    def add(self, hashes: np.ndarray, wave: int) -> None:
        idx = self._route(hashes)
        ray.get(
            [
                self.shards[s].add.remote(hashes[ix], wave)
                for s, ix in enumerate(idx)
                if len(ix)
            ]
        )

    def add_urls(self, urls, wave: int) -> None:
        self.add(hash64(urls), wave)

    def contains_urls(self, urls, before_wave: int) -> np.ndarray:
        return self.contains(hash64(urls), before_wave)

    def propose(self, hashes: np.ndarray, depths: np.ndarray, wave: int) -> None:
        idx = self._route(hashes)
        ray.get(
            [
                self.shards[s].propose.remote(wave, hashes[ix], depths[ix])
                for s, ix in enumerate(idx)
                if len(ix)
            ]
        )

    def claim(
        self, hashes: np.ndarray, depths: np.ndarray, wave: int, token: int
    ) -> np.ndarray:
        out = np.zeros(len(hashes), dtype=bool)
        idx = self._route(hashes)
        refs = [
            self.shards[s].claim.remote(wave, hashes[ix], depths[ix], token)
            for s, ix in enumerate(idx)
            if len(ix)
        ]
        live = [ix for ix in idx if len(ix)]
        for ix, mask in zip(live, ray.get(refs)):
            out[ix] = mask
        return out

    def size(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def mem_bytes(self) -> int:
        return sum(ray.get([s.mem_bytes.remote() for s in self.shards]))

    # -- checkpoint / resume ---------------------------------------------
    @staticmethod
    def _hash_impl() -> str:
        try:
            import polars

            return f"polars-{polars.__version__}"
        except ImportError:  # pragma: no cover
            return "fnv1a64"

    def checkpoint(self, ckpt_dir: str | Path) -> None:
        d = Path(ckpt_dir)
        d.mkdir(parents=True, exist_ok=True)
        # the checkpoint stores HASHES; membership after restore compares
        # them against freshly computed ones, so the hash implementation
        # must be identical across the checkpoint boundary
        (d / "hash_impl.json").write_text(
            json.dumps(
                {
                    "impl": self._hash_impl(),
                    "backend": self.backend,
                    "num_shards": len(self.shards),
                }
            )
        )
        ray.get(
            [
                shard.checkpoint.remote(str(d / f"shard_{s:04d}.parquet"))
                for s, shard in enumerate(self.shards)
            ]
        )

    @staticmethod
    def checkpoint_shards(ckpt_dir: str | Path) -> int | None:
        """Shard count a checkpoint was written with (None if unrecorded)."""
        impl_file = Path(ckpt_dir) / "hash_impl.json"
        if not impl_file.exists():
            return None
        return json.loads(impl_file.read_text()).get("num_shards")

    def restore(self, ckpt_dir: str | Path) -> None:
        d = Path(ckpt_dir)
        impl_file = d / "hash_impl.json"
        if impl_file.exists():
            info = json.loads(impl_file.read_text())
            stored = info["impl"]
            stored_backend = info.get("backend", "exact")
            if stored_backend != self.backend:
                raise RuntimeError(
                    f"seen-set checkpoint was written by the "
                    f"{stored_backend!r} backend but this pool uses "
                    f"{self.backend!r} — restore with the matching "
                    "seen_backend"
                )
            if stored != self._hash_impl():
                raise RuntimeError(
                    f"seen-set checkpoint was written with hash impl "
                    f"{stored!r} but this process uses {self._hash_impl()!r}; "
                    "url-hash membership would silently miss — re-crawl or "
                    "pin the original library version"
                )
            stored_shards = info.get("num_shards")
            # shard files are partitioned by h % num_shards at write time;
            # restoring into a different shard count would route probes to
            # the wrong shard (silent membership loss), so refuse
            if stored_shards is not None and stored_shards != len(self.shards):
                raise RuntimeError(
                    f"seen-set checkpoint was written with "
                    f"{stored_shards} shards but this pool has "
                    f"{len(self.shards)} — resume with seen_shards="
                    f"{stored_shards} or seen_shards=None"
                )
        ray.get(
            [
                shard.restore.remote(str(d / f"shard_{s:04d}.parquet"))
                for s, shard in enumerate(self.shards)
            ]
        )

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
