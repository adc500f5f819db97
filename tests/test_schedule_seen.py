"""Scheduler (salted top-k exactness) and seen-set (wave-versioned protocol)
unit tests."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from abwcf_ray.config import CrawlConfig
from abwcf_ray.stages.schedule import budget_for_delay, rank_selected, select_wave
from abwcf_ray.state.hosts import sched_payload_from_delays


def test_budget_for_delay():
    # k_h = max(1, floor(T/delay)): fetches at t=0, delay, 2·delay, ...
    assert budget_for_delay(1000, 10.0) == 10
    assert budget_for_delay(3000, 10.0) == 3
    assert budget_for_delay(20000, 10.0) == 1  # delay > wave still fetches at t=0
    assert budget_for_delay(0, 10.0) == 10000  # delay 0 bounded by wave ms


def _mk_frontier(n=500, hosts=7, seed=1):
    rng = np.random.default_rng(seed)
    host_ids = rng.integers(0, hosts, n)
    return pa.table(
        {
            "url": pa.array([f"https://h{h}.example/p{i}" for i, h in enumerate(host_ids)]),
            "host": pa.array([f"https://h{h}.example" for h in host_ids]),
            "depth": pa.array(np.zeros(n, dtype=np.int32), pa.int32()),
            "priority": pa.array(rng.integers(0, 1 << 40, n), pa.int64()),
        }
    )


def _write_parts(t: pa.Table, n: int, out_dir) -> list[str]:
    """``t`` cut into ``n`` near-equal parquet files under ``out_dir``."""
    import pyarrow.parquet as pq

    bounds = np.linspace(0, t.num_rows, n + 1).astype(int)
    paths = [str(out_dir / f"part-{i:05d}.parquet") for i in range(n)]
    for path, start, stop in zip(paths, bounds, bounds[1:]):
        pq.write_table(t.slice(int(start), int(stop - start)), path)
    return paths


@pytest.mark.parametrize("n_files", [1, 8])
def test_partial_topk_is_exact(ray_session, tmp_path, n_files):
    """Task-local partial top-k must be exact for any partitioning
    (SURVEY.md §4.2 skew row: pruning before the exchange)."""
    import ray

    t = _mk_frontier()
    delays = {f"https://h{h}.example": 1000 * (1 + h % 3) for h in range(7)}
    cfg = CrawlConfig(wave_duration_s=10.0)
    files = _write_parts(t, n_files, tmp_path)
    got = (
        select_wave(files, [], ray.put(sched_payload_from_delays(delays, cfg.wave_duration_s)))[0]
        .sort_values(["priority", "url"], ascending=[False, True])
        .reset_index(drop=True)
    )
    # brute-force expectation
    df = t.to_pandas()
    exp_rows = []
    for host, g in df.groupby("host"):
        k = budget_for_delay(delays[host], 10.0)
        exp_rows.append(
            g.sort_values(["priority", "url"], ascending=[False, True]).head(k)
        )
    exp = (
        pd.concat(exp_rows)
        .sort_values(["priority", "url"], ascending=[False, True])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["url", "host", "priority"]], exp[["url", "host", "priority"]]
    )


def test_select_wave_merge_paths_agree(ray_session, tmp_path):
    """The per-task partials merged on the driver must produce the exact
    selection a single top-k pass over every allowed row produces, and
    split off the exact reject set: rows flagged ``rejected`` bypass the
    ranking and come back as unique-by-hash (url_hash, host) pairs."""
    import ray

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.stages.schedule import topk_per_host

    t = _mk_frontier(n=800, hosts=11, seed=7)
    # every 5th row is a strict-robots reject; host h0's rows all are
    rejected = np.array(
        [i % 5 == 0 or h == "https://h0.example" for i, h in enumerate(t.column("host").to_pylist())]
    )
    t = t.append_column("rejected", pa.array(rejected))
    delays = {f"https://h{h}.example": 500 * (1 + h % 4) for h in range(11)}
    cfg = CrawlConfig(wave_duration_s=10.0)
    payload = sched_payload_from_delays(delays, cfg.wave_duration_s)
    files = _write_parts(t, 6, tmp_path)
    key = ["priority", "url"]
    driver, driver_rej = select_wave(files, [], ray.put(payload))
    driver = driver.sort_values(key, ascending=[False, True]).reset_index(drop=True)
    one_pass = (
        topk_per_host(t.filter(pa.array(~rejected)).to_pandas(), payload)
        .sort_values(key, ascending=[False, True])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        driver[["url", "host", "priority"]], one_pass[["url", "host", "priority"]]
    )
    # no reject is selected, and every host but the all-rejected one is
    assert not set(driver["url"]) & set(t.filter(pa.array(rejected)).column("url").to_pylist())
    assert set(driver["host"]) == {f"https://h{h}.example" for h in range(1, 11)}

    rej = t.filter(pa.array(rejected))
    want = sorted(zip(hash64(rej.column("url")).tolist(), rej.column("host").to_pylist()))
    assert list(zip(driver_rej.column("url_hash").to_pylist(), driver_rej.column("host").to_pylist())) == want


def test_rank_selected_deterministic():
    df = _mk_frontier(50, 3).to_pandas()
    r1, r2 = rank_selected(df.sample(frac=1, random_state=0)), rank_selected(df)
    pd.testing.assert_frame_equal(r1, r2)
    assert (r1.groupby("host")["rank_in_host"].apply(lambda s: (s.values == np.arange(len(s))).all())).all()


def test_seen_set_protocol(ray_session):
    from abwcf_ray.state.seen import SeenSet

    seen = SeenSet(4)
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
    # but visible at wave 2; re-add keeps the original wave (setdefault)
    assert seen.contains_urls(urls_b, before_wave=2).all()
    seen.add_urls(urls_a, wave=5)
    assert seen.contains_urls(urls_a, before_wave=1).all()
    assert seen.size() == 150
    seen.shutdown()


def test_seen_set_checkpoint_roundtrip(ray_session, tmp_path):
    """The seen set's checkpoint is the frontier's url column: a resume's
    load tasks hash it back into shards of any count, and the result
    answers like the adds it replaces. The loaded wave is kept, an
    overlapping load is a no-op, and a later add of a loaded url keeps the
    loaded wave (setdefault)."""
    import pyarrow.parquet as pq
    import ray

    from abwcf_ray.pipelines.crawl import _load_seen
    from abwcf_ray.state.seen import SeenSet

    urls = [f"u{i}" for i in range(500)]
    parts = []
    for i, chunk in enumerate((urls[:300], urls[200:])):
        parts.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(pa.table({"url": pa.array(chunk, pa.string())}), parts[-1])
    added = SeenSet(3)
    added.add_urls(urls, wave=2)
    for n_shards in (2, 3):
        seen = SeenSet(n_shards)
        ray.get([_load_seen.remote(seen, [p], "url", 2) for p in parts])
        assert seen.size() == 500
        probe = ["u0", "u499", "nope"]
        for before in (2, 3):
            assert (
                seen.contains_urls(probe, before_wave=before).tolist()
                == added.contains_urls(probe, before_wave=before).tolist()
            )
        seen.add_urls(["u0", "new"], wave=3)
        assert seen.size() == 501
        assert seen.contains_urls(["u0", "new"], before_wave=3).tolist() == [True, False]
        seen.shutdown()
    added.shutdown()


def test_propose_prededup_semantics(ray_session):
    """B6 (UrlDeduplicator.scala best-effort pre-dedup): within a batch the
    propose stage keeps one row per url hash at MIN depth (a pure row
    filter); across batches the cache only SKIPS redundant propose RPCs for
    (hash, depth) already sent at equal-or-lower depth — output blocks are a
    pure function of their input, so a retried / lineage-recomputed task
    reproduces its block exactly regardless of cache state."""
    import pyarrow as pa

    from abwcf_ray.state.seen import SeenSet
    from abwcf_ray.stages.transform import _PREDEDUP, make_propose

    class RecordingSeen:
        """Wraps SeenSet.propose to observe which (hash, depth) hit the RPC."""

        def __init__(self, inner):
            self.inner = inner
            self.calls = []

        def propose(self, hashes, depths, wave):
            self.calls.append((hashes.copy(), depths.copy()))
            self.inner.propose(hashes, depths, wave)

    inner = SeenSet(num_shards=2)
    seen = RecordingSeen(inner)
    _PREDEDUP.clear()
    stage = make_propose(seen, wave=0, run_key="t1", cache_size=1000)

    b1 = pa.table(
        {
            "url": pa.array(["https://a/x", "https://a/x", "https://b/y"]),
            "host": pa.array(["https://a", "https://a", "https://b"]),
            "depth": pa.array([3, 1, 2], pa.int32()),
        }
    )
    out1 = stage(b1)
    # intra-batch: one row per hash, min depth kept
    assert sorted(zip(out1.column("url").to_pylist(), out1.column("depth").to_pylist())) == [
        ("https://a/x", 1),
        ("https://b/y", 2),
    ]
    assert len(seen.calls) == 1 and len(seen.calls[0][0]) == 2

    # equal/higher depth duplicate across batches: row STAYS in the output
    # (block content is cache-independent) but its RPC is skipped
    b2 = pa.table(
        {
            "url": pa.array(["https://a/x", "https://c/z"]),
            "host": pa.array(["https://a", "https://c"]),
            "depth": pa.array([5, 0], pa.int32()),
        }
    )
    out2 = stage(b2)
    assert sorted(out2.column("url").to_pylist()) == ["https://a/x", "https://c/z"]
    assert len(seen.calls) == 2
    assert len(seen.calls[1][0]) == 1  # only c/z proposed; a/x@5 skipped
    assert seen.calls[1][1].tolist() == [0]

    # STRICTLY LOWER depth re-discovery must reach the shard
    b3 = pa.table(
        {
            "url": pa.array(["https://a/x"]),
            "host": pa.array(["https://a"]),
            "depth": pa.array([0], pa.int32()),
        }
    )
    out3 = stage(b3)
    assert out3.column("url").to_pylist() == ["https://a/x"]
    assert len(seen.calls) == 3 and seen.calls[2][1].tolist() == [0]

    # replaying the SAME block through a fresh stage (simulated task retry /
    # lineage recompute with warm process cache) reproduces it byte-for-byte
    # even though every RPC is now skipped
    retry = make_propose(seen, wave=0, run_key="t1", cache_size=1000)
    n_calls = len(seen.calls)
    assert retry(b1).equals(out1)
    assert retry(b2).equals(out2)
    assert len(seen.calls) == n_calls  # all RPCs cache-skipped

    # a different run key shares nothing (no cross-run contamination)
    stage_other = make_propose(seen, wave=0, run_key="t2", cache_size=1000)
    out_other = stage_other(b2)
    assert sorted(out_other.column("url").to_pylist()) == ["https://a/x", "https://c/z"]

    # the cache is bounded: a tiny cap forces resets; duplicate-only batches
    # still skip their RPCs (recent pend chunks probe) and NEW urls still
    # reach the shard
    small = make_propose(seen, wave=0, run_key="t3", cache_size=1)
    for _ in range(3):
        small(b1)
    n_calls = len(seen.calls)
    assert small(b1).num_rows == 2  # intra-batch dedup only; rows kept
    assert len(seen.calls) == n_calls  # ...but no RPC fired
    b4 = pa.table(
        {
            "url": pa.array(["https://new/1"]),
            "host": pa.array(["https://new"]),
            "depth": pa.array([4], pa.int32()),
        }
    )
    assert small(b4).column("url").to_pylist() == ["https://new/1"]
    assert len(seen.calls) == n_calls + 1

    inner.shutdown()


def test_claim_chunk_retry_rewrites_part_and_counts(ray_session, tmp_path):
    """A claim chunk re-run with the same token (a simulated Ray retry)
    rewrites the same delta part with the same rows, and both runs return
    the same per-host counts — that part's host histogram. Returning the
    counts is what keeps retries from double-counting the host ledger."""
    import pyarrow.parquet as pq
    import ray

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.pipelines.crawl import _claim_chunk
    from abwcf_ray.state.seen import SeenSet

    cand = pa.table(
        {
            "url": pa.array([f"https://h{i % 3}.example/p{i}" for i in range(40)]),
            "host": pa.array([f"https://h{i % 3}.example" for i in range(40)]),
            "depth": pa.array(np.ones(40, dtype=np.int32), pa.int32()),
        }
    )
    seen = SeenSet(2)
    seen.propose(hash64(cand.column("url")), np.ones(40, dtype=np.int64), wave=1)
    cfg = CrawlConfig()
    part = tmp_path / "part-00003.parquet"
    blocks = [ray.put(cand.slice(0, 25)), ray.put(cand.slice(25))]

    n1, counts1 = ray.get(_claim_chunk.remote(3, seen, 1, cfg, str(tmp_path), *blocks))
    first = pq.read_table(part)
    n2, counts2 = ray.get(_claim_chunk.remote(3, seen, 1, cfg, str(tmp_path), *blocks))
    assert sorted(p.name for p in tmp_path.iterdir()) == [part.name]
    assert pq.read_table(part).equals(first)
    assert n1 == n2 == first.num_rows == 40
    assert counts1 == counts2
    assert counts1 == first.column("host").to_pandas().value_counts().to_dict()
    # another token loses every url to the first claimant
    n3, counts3 = ray.get(_claim_chunk.remote(4, seen, 1, cfg, str(tmp_path), *blocks))
    assert (n3, counts3) == (0, {})
    seen.shutdown()


def test_topk_arrow_matches_pandas():
    """topk_per_host_arrow (the hot polars stage) and topk_per_host (the
    pandas reference) must select the identical rows, including priority
    ties broken by url and hosts absent from the payload (default k)."""
    import ray

    from abwcf_ray.stages.schedule import topk_per_host, topk_per_host_arrow

    rng = np.random.default_rng(5)
    n = 3000
    hid = rng.integers(0, 40, n)
    # a few non-ASCII path chars exercise the UTF-8-byte-order-equals-
    # codepoint-order claim the polars sort relies on (multi-byte chars
    # tie-broken against ASCII and against each other)
    deco = ["", "é", "ü", "中", "z"]
    t = pa.table(
        {
            "url": pa.array(
                [
                    f"https://h{h}.example/p{i%7}/{deco[i % 5]}{i:05d}"
                    for i, h in enumerate(hid)
                ]
            ),
            "host": pa.array([f"https://h{h}.example" for h in hid]),
            "depth": pa.array(rng.integers(0, 4, n).astype(np.int32), pa.int32()),
            "priority": pa.array(rng.integers(0, 20, n).astype(np.int64), pa.int64()),  # many ties
        }
    )
    delays = {f"https://h{h}.example": 1000 * (1 + h % 5) for h in range(30)}  # 10 hosts unknown
    payload = sched_payload_from_delays(delays, 10.0)
    want = (
        topk_per_host(t.to_pandas(), payload)
        .sort_values(["host", "priority", "url"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    got = (
        topk_per_host_arrow(t, payload)
        .to_pandas()
        .sort_values(["host", "priority", "url"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def test_prededup_cache_does_not_leak_across_pools(ray_session):
    """A resumed run re-executes the same (out_dir, wave) against a FRESH
    shard pool; RPC-skip cache entries left by the previous pool must not
    suppress proposes the new pool has never seen (they would silently
    lose candidates at claim). cache_token() keys the cache per pool."""
    import pyarrow as pa

    from abwcf_ray.state.seen import SeenSet
    from abwcf_ray.stages.transform import _PREDEDUP, make_propose

    class Recording:
        def __init__(self, inner):
            self.inner, self.calls = inner, 0

        def propose(self, h, d, wave):
            self.calls += 1
            self.inner.propose(h, d, wave)

    b = pa.table(
        {
            "url": pa.array(["https://a/x", "https://b/y"]),
            "host": pa.array(["https://a", "https://b"]),
            "depth": pa.array([1, 2], pa.int32()),
        }
    )
    _PREDEDUP.clear()
    pool_a = Recording(SeenSet(2))
    run_a = make_propose(
        pool_a, wave=3, run_key=f"/out:{pool_a.inner.cache_token()}"
    )
    run_a(b)
    assert pool_a.calls == 1

    # crash + resume: same out dir and wave, NEW pool
    pool_b = Recording(SeenSet(2))
    run_b = make_propose(
        pool_b, wave=3, run_key=f"/out:{pool_b.inner.cache_token()}"
    )
    run_b(b)
    assert pool_b.calls == 1, "fresh pool must receive its own proposes"
    # and tokens genuinely differ
    assert pool_a.inner.cache_token() != pool_b.inner.cache_token()
    pool_a.inner.shutdown()
    pool_b.inner.shutdown()
