"""Cuckoo seen-set backend load bench (round-4 verdict #7): fold a
large synthetic url stream into both backends at production shard
count, then bulk-load the same hashes into a fresh pool as a resume
does, reporting fold wall, probe wall, load wall, and resident memory
per url.

The stream arrives in per-wave chunks (like a crawl's claim traffic),
urls are built vectorized in polars (string building would otherwise
dominate), and the membership probe runs over a mixed present/absent
set after the fold.

Usage:
    RAY_GRAFT_CPUS=32 python tools/bench_cuckoo.py [n_urls] [shards]
    # default 100_000_000 urls, 256 shards; prints one JSON line
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
os.environ.setdefault("POLARS_MAX_THREADS", "4")
CHUNK = 5_000_000


def _url_hashes(lo: int, n: int) -> np.ndarray:
    """hash64 of synthetic urls https://h{i%9973}.example/p{i} for
    i in [lo, lo+n), built vectorized (polars concat_str)."""
    import polars as pl

    from abwcf_ray.functions.hashing import hash64

    i = pl.int_range(lo, lo + n, eager=True)
    urls = pl.DataFrame({"i": i}).select(
        u=pl.concat_str(
            pl.lit("https://h"),
            (pl.col("i") % 9973).cast(pl.Utf8),
            pl.lit(".example/p"),
            pl.col("i").cast(pl.Utf8),
        )
    )["u"]
    return hash64(urls.to_arrow())


def bench_backend(backend: str, n_urls: int, shards: int) -> dict:
    import ray

    from abwcf_ray.state.seen import SeenSet

    seen = SeenSet(
        shards,
        backend=backend,
        # size the filter for the per-shard load at 0.8 target occupancy
        cuckoo_capacity=max(1024, int(n_urls / shards / 0.8)),
    )
    seen.size()  # spawn actors before timing

    t0 = time.perf_counter()
    wave = 0
    for lo in range(0, n_urls, CHUNK):
        h = _url_hashes(lo, min(CHUNK, n_urls - lo))
        seen.add(h, wave)
        wave += 1
    fold_s = time.perf_counter() - t0

    # membership probe: a present slice and an absent slice
    n_probe = min(CHUNK // 2, n_urls)
    probe_present = _url_hashes(0, n_probe)
    probe_absent = _url_hashes(n_urls + 10_000_000, n_probe)
    t0 = time.perf_counter()
    m1 = seen.contains(probe_present, before_wave=wave + 1)
    m2 = seen.contains(probe_absent, before_wave=wave + 1)
    probe_s = time.perf_counter() - t0
    fp = int(m2.sum())
    misses = int((~m1).sum())
    assert misses == 0, f"{misses} present urls probed absent"

    mem = seen.mem_bytes()
    size = seen.size()

    # tear the first pool down BEFORE spawning the resume pool: two
    # 256-actor pools alive at once (plus Ray's prestarted workers) trip
    # the box's thread budget (pthread_create EAGAIN at ~900 workers)
    seen.shutdown()
    seen2 = SeenSet(
        shards,
        backend=backend,
        cuckoo_capacity=max(1024, int(n_urls / shards / 0.8)),
    )
    seen2.size()
    # a resume's bulk load, chunk by chunk as its load tasks send it (the
    # hashing is timed apart: a resume hashes the chain's url column)
    hash_s = load_s = 0.0
    for lo in range(0, n_urls, CHUNK):
        t0 = time.perf_counter()
        h = _url_hashes(lo, min(CHUNK, n_urls - lo))
        t1 = time.perf_counter()
        seen2.load(h, wave - 1)
        hash_s += t1 - t0
        load_s += time.perf_counter() - t1
    # resume correctness spot-check on one chunk
    again = seen2.contains(probe_present, before_wave=wave + 1)
    assert (again == m1).all(), "load changed membership"
    assert (seen2.contains(probe_absent, before_wave=wave + 1) == m2).all()
    seen2.shutdown()
    return {
        "backend": backend,
        "n_urls": n_urls,
        "shards": shards,
        "fold_s": round(fold_s, 2),
        "fold_urls_per_s": round(n_urls / fold_s, 0),
        "probe_s": round(probe_s, 2),
        "probe_false_positives": fp,
        "probe_false_positive_rate": round(fp / n_probe, 8),
        "probe_misses_on_present": misses,
        "size": size,
        "mem_bytes": mem,
        "bytes_per_url": round(mem / max(1, size), 3),
        "load_hash_s": round(hash_s, 2),
        "load_s": round(load_s, 2),
    }


def main() -> None:
    n_urls = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000_000
    shards = int(sys.argv[2]) if len(sys.argv) > 2 else 256

    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    out = {
        "metric": f"seen-set backends at {n_urls} urls / {shards} shards",
        "num_cpus": NUM_CPUS,
        "backends": [
            bench_backend(b, n_urls, shards) for b in ("cuckoo", "exact")
        ],
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
