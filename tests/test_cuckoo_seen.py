"""Cuckoo-filter seen-set backend (state/cuckoo.py, state/seen.py
_CuckooSeenShard) — the north star's "sharded cuckoo-filter URL-seen set".

Covers: filter membership guarantees (no false negatives, bounded false
positives, determinism, memory), batch-vs-incremental equivalence,
key-set-only answers and the resume's bulk load, the wave-versioned shard
protocol on the cuckoo backend, and the loud failure on probes the fold
model cannot answer. The partitioned claim runs on both backends in
test_schedule_seen.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from abwcf_ray.state.cuckoo import CuckooFilter


def _keys(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)


def test_cuckoo_filter_no_false_negatives_and_fp_bound():
    keys = _keys(420_000, seed=1)
    f = CuckooFilter(capacity=440_000)  # pow2-tight: 131072 buckets
    assert f.add(keys) == len(np.unique(keys))
    assert f.contains(keys).all()  # NEVER a false negative
    fresh = _keys(300_000, seed=2)
    fresh = fresh[~np.isin(fresh, keys)]
    fp_rate = f.contains(fresh).mean()
    assert fp_rate < 5e-4, fp_rate  # ~1.2e-4 design bound with headroom
    # the design target: ~2.4-3 bytes per key at >=0.7 load
    load = f.count / (f.nbuckets * 4)
    assert load > 0.65
    assert f.nbytes / f.count < 3.5


def test_cuckoo_filter_batch_matches_incremental_and_deterministic():
    keys = _keys(50_000, seed=3)
    f1 = CuckooFilter(capacity=64_000)
    f1.add(keys)
    f2 = CuckooFilter(capacity=64_000)
    for chunk in np.array_split(keys, 9):
        f2.add(chunk)
    probe = np.concatenate([keys, _keys(50_000, seed=4)])
    # both report every inserted key; FP sets may differ (placement differs)
    assert f1.contains(keys).all() and f2.contains(keys).all()
    # identical insert sequence -> bit-identical table (retry determinism)
    f3 = CuckooFilter(capacity=64_000)
    f3.add(keys)
    assert np.array_equal(f1.table, f3.table)
    assert (f1.contains(probe) == f3.contains(probe)).all()


def test_cuckoo_filter_checkpoint_roundtrip():
    """The filter's checkpoint is its key set: membership is a function of
    the SET of keys added, so one batch (a resume's bulk load) and shuffled
    chunks (the straight run's per-wave folds) answer every probe alike,
    false positives included."""
    keys = _keys(80_000, seed=5)
    f = CuckooFilter(capacity=100_000)
    f.add(keys)
    g = CuckooFilter(capacity=100_000)
    for chunk in np.array_split(np.random.default_rng(6).permutation(keys), 7):
        g.add(chunk)
    probe = np.concatenate([keys, _keys(200_000, seed=6)])
    assert (g.contains(probe) == f.contains(probe)).all()
    assert f.contains(_keys(200_000, seed=6)).any()  # the probe hits FPs


def test_cuckoo_filter_over_capacity_raises():
    f = CuckooFilter(capacity=1000)
    with pytest.raises(RuntimeError, match="over capacity"):
        f.add(_keys(10_000, seed=7))


def test_cuckoo_seen_protocol(ray_session):
    from abwcf_ray.state.seen import SeenSet

    seen = SeenSet(4, backend="cuckoo", cuckoo_capacity=100_000)
    urls_a = [f"https://x/{i}" for i in range(100)]
    urls_b = [f"https://x/{i}" for i in range(50, 150)]
    seen.add_urls(urls_a, wave=0)
    # wave-1 probe: everything from wave 0 is seen
    mask = seen.contains_urls(urls_b, before_wave=1)
    assert mask[:50].all() and not mask[50:].any()
    # adds at wave 1 are invisible to the wave-1 probe (retry safety)
    seen.add_urls(urls_b, wave=1)
    mask2 = seen.contains_urls(urls_b, before_wave=1)
    assert (mask2 == mask).all()
    # visible at wave 2
    assert seen.contains_urls(urls_b, before_wave=2).all()
    assert seen.size() == 150
    # a probe BEHIND the fold boundary must fail loudly, never answer wrong
    with pytest.raises(Exception, match="folded"):
        seen.contains_urls(urls_a, before_wave=1)
    seen.shutdown()


def test_cuckoo_seen_checkpoint_roundtrip(ray_session, tmp_path):
    """The cuckoo seen set's checkpoint is the frontier's url column too: a
    resume's load task folds its hashes straight into the filters."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from abwcf_ray.pipelines.crawl import _load_seen
    from abwcf_ray.state.seen import SeenSet

    part = str(tmp_path / "part-0.parquet")
    pq.write_table(pa.table({"url": [f"u{i}" for i in range(500)]}), part)
    seen = SeenSet(3, backend="cuckoo", cuckoo_capacity=50_000)
    ray.get(_load_seen.remote(seen, [part], "url", 2))
    assert seen.size() == 500
    # a load folds through its wave -> a resumed run probes at wave >= 3
    assert seen.contains_urls(["u0", "u499", "nope"], before_wave=3).tolist() == [
        True,
        True,
        False,
    ]
    with pytest.raises(Exception, match="folded"):
        seen.contains_urls(["u0"], before_wave=2)
    seen.shutdown()
