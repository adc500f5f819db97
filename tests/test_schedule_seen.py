"""Scheduler (salted top-k exactness) and seen-set (wave-versioned protocol)
unit tests."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abwcf_ray.config import CrawlConfig
from abwcf_ray.stages.schedule import budget_for_delay, rank_selected, select_wave, task_count
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
        .to_pandas()
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
    driver = driver.to_pandas().sort_values(key, ascending=[False, True]).reset_index(drop=True)
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


@st.composite
def _selected_sets(draw):
    """Frontier rows over a few shared hosts with many tied priorities,
    a per-host budget, a page budget that often binds, and a file count
    (one file: the lone partial skips the merge)."""
    n_hosts = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_hosts - 1),
                st.text(alphabet="abé中", min_size=1, max_size=3),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda r: (r[0], r[1]),
        )
    )
    delays = [draw(st.sampled_from([2000, 5000, 10000])) for _ in range(n_hosts)]
    budget = draw(st.integers(0, len(rows) + 2))
    return rows, delays, budget, draw(st.integers(1, 3))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(example=_selected_sets())
def test_arrow_ranks_match_reference(ray_session, example):
    """The engine's ranks — ``rank_in_host`` from select_wave's top-k and
    ``global_rank`` plus the page-budget trim from rank_selected_arrow —
    equal the pandas reference rank_selected over the reference top-k,
    ranked, trimmed to the budget and ranked again, as the manifest used
    to be written."""
    import tempfile

    import ray

    from abwcf_ray.stages.schedule import rank_selected_arrow, topk_per_host

    rows, delays, budget, n_files = example
    t = pa.table(
        {
            "url": pa.array([f"https://h{h}.example/{p}" for h, p, _ in rows]),
            "host": pa.array([f"https://h{h}.example" for h, _, _ in rows]),
            "depth": pa.array(np.zeros(len(rows), dtype=np.int32), pa.int32()),
            "priority": pa.array([pr for _, _, pr in rows], pa.int64()),
        }
    )
    payload = sched_payload_from_delays(
        {f"https://h{h}.example": d for h, d in enumerate(delays)}, 10.0
    )
    with tempfile.TemporaryDirectory() as d:
        files = _write_parts(t, n_files, Path(d))
        sel, _ = select_wave(files, [], ray.put(payload), n_tasks=n_files)
    cols = ["url", "host", "priority", "rank_in_host", "global_rank"]
    got = rank_selected_arrow(sel, budget).to_pandas()[cols]
    ref = rank_selected(rank_selected(topk_per_host(t.to_pandas(), payload)).iloc[:budget])
    pd.testing.assert_frame_equal(got, ref[cols], check_dtype=False)
    assert (got["rank_in_host"].dtype, got["global_rank"].dtype) == (np.int32, np.int32)


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


def test_propose_prededup_semantics():
    """B6 (UrlDeduplicator.scala pre-dedup): within a batch the propose
    stage keeps one row per url hash at MIN depth and appends the
    ``url_hash`` routing column. It is a pure function of its input, so a
    retried task reproduces its block exactly."""
    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.stages.transform import make_propose

    stage = make_propose()
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
    assert out1.column("url_hash").to_pylist() == hash64(out1.column("url")).tolist()
    # a batch with no duplicate passes whole; an empty one keeps the schema
    b2 = b1.slice(1)
    assert stage(b2).drop_columns(["url_hash"]).equals(b2)
    assert stage(b1.slice(0, 0)).schema == out1.schema
    # a replay through a fresh stage reproduces the block byte for byte
    assert make_propose()(b1).equals(out1)


def _claim_lenient(host_rules: dict, log: Path | None = None):
    """A claim's lenient robots stage over a payload of ``host -> robots
    body``; with ``log``, every url the stage is given is appended there."""
    import ray

    from abwcf_ray.functions.robots import parse_robots_txt
    from abwcf_ray.stages.transform import make_lenient_robots_filter
    from abwcf_ray.state.hosts import rules_payload_from_dict

    rules = {h: parse_robots_txt(b) for h, b in host_rules.items()}
    stage = make_lenient_robots_filter(
        ray.put(
            rules_payload_from_dict(
                {h: (r.mode, r.serialize_rules(), r.crawl_delay_ms) for h, r in rules.items()}
            )
        )
    )
    if log is None:
        return stage

    def logged(batch):
        with open(log, "a") as f:
            f.writelines(u + "\n" for u in batch.column("url").to_pylist())
        return stage(batch)

    return logged


def test_claim_chunk_retry_rewrites_part_and_counts(ray_session, tmp_path):
    """A claim task re-run for the same partition (a simulated Ray retry)
    rewrites the same delta part with the same rows, and both runs return
    the same per-host counts — that part's host histogram. Returning the
    counts is what keeps retries from double-counting the host ledger; the
    retried probe ignores the first run's same-wave adds. The claim's
    lenient robots stage drops the urls a known host disallows, and they
    are not added to the seen set."""
    import pyarrow.parquet as pq
    import ray

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.pipelines.crawl import _claim_chunk
    from abwcf_ray.stages.transform import make_propose
    from abwcf_ray.state.seen import SeenSet

    urls = [f"https://h{i % 3}.example/p{i}" for i in range(40)]
    cand = make_propose()(
        pa.table(
            {
                "url": pa.array(urls),
                "host": pa.array([f"https://h{i % 3}.example" for i in range(40)]),
                "depth": pa.array(np.ones(40, dtype=np.int32), pa.int32()),
            }
        )
    )
    # h1 disallows the /p1 prefix (p1, p10, p13, p16, p19); h0 is unknown
    # (fail-open); h2 allows all
    lenient = _claim_lenient(
        {
            "https://h1.example": b"User-agent: *\nDisallow: /p1\n",
            "https://h2.example": b"User-agent: *\nDisallow:\n",
        }
    )
    disallowed = [f"https://h1.example/p{i}" for i in (1, 10, 13, 16, 19)]
    seen = SeenSet(2)
    cfg = CrawlConfig()
    part = tmp_path / "delta" / "part-00003.parquet"
    part.parent.mkdir()
    blocks = [ray.put(cand.slice(0, 25)), ray.put(cand.slice(25))]

    def claim():
        return ray.get(
            _claim_chunk.remote(3, seen, 1, cfg, str(part.parent), lenient, *blocks)
        )

    n1, counts1 = claim()
    first = pq.read_table(part)
    n2, counts2 = claim()
    assert sorted(p.name for p in part.parent.iterdir()) == [part.name]
    assert pq.read_table(part).equals(first)
    assert n1 == n2 == first.num_rows == 40 - len(disallowed)
    assert sorted(first.column("url").to_pylist()) == sorted(set(urls) - set(disallowed))
    assert counts1 == counts2
    assert counts1 == first.column("host").to_pandas().value_counts().to_dict()
    assert not seen.contains(hash64(disallowed), before_wave=2).any()
    assert seen.contains(hash64(first.column("url")), before_wave=2).all()
    seen.shutdown()


def test_fused_fetch_claim_retry_rewrites_parts_and_counts(ray_session, tmp_path):
    """A one-task wave's fetch task claims its own candidates. Run twice
    for the same wave and chunk (a simulated Ray retry), it rewrites its
    processed, selected and delta parts byte for byte and returns the same
    claim count and per-host counts; the second run's probe ignores the
    first run's same-wave adds, so it claims the same rows, and the seen
    set after both runs equals the seen set after one."""
    import functools
    from collections import Counter

    import pyarrow.parquet as pq
    import ray

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.pipelines.crawl import (
        _fetch_items,
        _fetch_task,
        _seed_frontier,
        make_fetch_process_tee,
    )
    from abwcf_ray.sources.corpus import build_hashed_layout, generate_corpus
    from abwcf_ray.stages.schedule import rank_selected_arrow, topk_per_host_arrow
    from abwcf_ray.stages.transform import (
        claim_partition,
        explode_links,
        make_normalize_stage,
        make_prioritize_stage,
        make_process_fetched_stage,
        make_propose,
        make_scope_filter_stage,
    )
    from abwcf_ray.stages.transport import CorpusTransport
    from abwcf_ray.state.seen import SeenSet

    corpus = generate_corpus(tmp_path / "corpus", n_pages=120, seed=5, num_buckets=2)
    build_hashed_layout(corpus)
    cfg = CrawlConfig()
    frontier = _seed_frontier(cfg, corpus.seeds, make_prioritize_stage(cfg))
    payload = {"hash": np.empty(0, np.uint64), "k": np.empty(0, np.int64)}
    selected = topk_per_host_arrow(
        frontier.drop_columns(["status"]), payload, default_k=100
    )
    _, items = _fetch_items(rank_selected_arrow(selected), 0, 1)
    wdir = tmp_path / "wave_0000"
    dirs = {sub: wdir / sub for sub in ("processed", "selected", "delta")}
    for d in dirs.values():
        d.mkdir(parents=True)
    transport = ray.put(functools.partial(CorpusTransport, corpus.hashed_dir))
    tee = make_fetch_process_tee(
        make_process_fetched_stage(cfg), str(dirs["processed"]), str(dirs["selected"]), transport
    )
    stages = [
        tee,
        explode_links,
        make_normalize_stage(cfg),
        make_scope_filter_stage(cfg),
        make_propose(),
    ]
    seen = SeenSet(2)
    seen.add_urls(frontier.column("url").to_pylist(), wave=-1)
    claim = functools.partial(
        claim_partition, 0, seen, 0, cfg, str(dirs["delta"]), _claim_lenient({})
    )

    def run():
        out = ray.get(_fetch_task.remote(items[0], stages, 1, claim))
        return out, {p.relative_to(wdir): p.read_bytes() for p in wdir.rglob("*.parquet")}

    (n1, counts1), files1 = run()
    size1 = seen.size()
    (n2, counts2), files2 = run()
    assert sorted(str(p) for p in files1) == [
        "delta/part-00000.parquet", "processed/t00000.parquet", "selected/part-0.parquet"
    ]
    assert files1 == files2
    assert n1 == n2 > 0 and counts1 == counts2
    assert seen.size() == size1 == frontier.num_rows + n1
    delta = pq.read_table(dirs["delta"] / "part-00000.parquet")
    assert delta.num_rows == n1
    assert counts1 == Counter(delta.column("host").to_pylist())
    h = hash64(delta.column("url"))
    assert not seen.contains(h, before_wave=0).any()
    assert seen.contains(h, before_wave=1).all()
    sel = pq.read_table(dirs["selected"] / "part-0.parquet")
    assert sel.column_names == [
        "wave", "host", "rank_in_host", "global_rank", "url", "priority", "depth"
    ]
    assert sorted(sel.column("url").to_pylist()) == sorted(frontier.column("url").to_pylist())
    seen.shutdown()


@pytest.mark.parametrize("backend", ["exact", "cuckoo"])
def test_partitioned_claim(ray_session, tmp_path, backend):
    """F1 by hash partition: two fetch tasks' candidates, overlapping at
    different depths, split into 2 parts; claim task i takes part i of
    both. Every url is claimed exactly once, at its minimum depth, by the
    claim task its hash routes to; a url added in an earlier wave (or
    claimed by one) is never claimed and never reaches the lenient robots
    stage; a url that stage drops is never claimed nor added to the seen
    set, so a rediscovery meets the stage again; on both seen-set
    backends."""
    import pyarrow.parquet as pq
    import ray

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.pipelines.crawl import _claim_chunk, _fetch_task
    from abwcf_ray.stages.transform import make_propose
    from abwcf_ray.state.seen import SeenSet

    def url(i):
        return f"https://h{i % 5}.example/p{i}"

    def cands(ids, depths):
        return pa.table(
            {
                "url": pa.array([url(i) for i in ids]),
                "host": pa.array([f"https://h{i % 5}.example" for i in ids]),
                "depth": pa.array(depths, pa.int32()),
            }
        )

    # u0-59 at depth 2 (u0-9 twice, once at depth 4); u30-89 at depth 1 and
    # u0-9 again at depth 3
    a = cands(list(range(60)) + list(range(10)), [2] * 60 + [4] * 10)
    b = cands(list(range(30, 90)) + list(range(10)), [1] * 60 + [3] * 10)
    seen = SeenSet(3, backend=backend, cuckoo_capacity=10_000)
    seen.add_urls([url(i) for i in range(80, 90)], wave=0)
    cfg = CrawlConfig()
    # h1 disallows the /p1 prefix: u1, u11, u16
    disallowed = {url(i) for i in (1, 11, 16)}
    rules = {"https://h1.example": b"User-agent: *\nDisallow: /p1\n"}

    def claim_wave(wave, tables):
        parts = [
            _fetch_task.options(num_returns=2).remote(t, [make_propose()], 2) for t in tables
        ]
        delta = tmp_path / f"delta_{wave}"
        delta.mkdir()
        log = tmp_path / f"lenient_{wave}.txt"
        log.touch()
        lenient = _claim_lenient(rules, log)
        got = ray.get(
            [
                _claim_chunk.remote(
                    i, seen, wave, cfg, str(delta), lenient, *[p[i] for p in parts]
                )
                for i in range(2)
            ]
        )
        out = {}
        for i in range(2):
            f = delta / f"part-{i:05d}.parquet"
            t = pq.read_table(f) if f.exists() else cands([], [])
            assert got[i][0] == t.num_rows
            assert (hash64(t.column("url")) % np.uint64(2) == i).all()
            out[i] = t
        return out, log.read_text().split()

    out, reached = claim_wave(1, [a, b])
    urls = out[0].column("url").to_pylist() + out[1].column("url").to_pylist()
    depths = out[0].column("depth").to_pylist() + out[1].column("depth").to_pylist()
    assert len(urls) == len(set(urls)) == 80 - len(disallowed)  # u80-89 seen at wave 0
    want = {url(i): 2 if i < 30 else 1 for i in range(80) if url(i) not in disallowed}
    assert dict(zip(urls, depths)) == want
    # the stage saw each new url once, after the dedup, and no seen url
    assert sorted(reached) == sorted(url(i) for i in range(80))
    assert not seen.contains(hash64(sorted(disallowed)), before_wave=2).any()
    # the next wave claims only what no earlier wave added; the urls the
    # stage dropped reach it again and are dropped again
    again, reached = claim_wave(2, [cands(list(range(75, 95)) + [1, 11], [0] * 22)])
    claimed = again[0].column("url").to_pylist() + again[1].column("url").to_pylist()
    assert sorted(claimed) == sorted(url(i) for i in range(90, 95))
    assert sorted(reached) == sorted([url(i) for i in range(90, 95)] + [url(1), url(11)])
    seen.shutdown()


def test_exact_shard_contains_merges_only_earlier_waves():
    """The exact shard's probe leaves same-wave adds pending (they are
    invisible to ``before_wave=n`` anyway), so a wave's many claim probes
    do not re-merge the sorted store; it merges once the pending adds
    belong to an earlier wave."""
    from abwcf_ray.state.seen import _ExactSeenShard

    shard = _ExactSeenShard()
    shard.load(np.arange(10, dtype=np.uint64), wave=0)
    probe = np.arange(20, dtype=np.uint64)
    shard.add(np.arange(5, 15, dtype=np.uint64), wave=1)
    assert shard.contains(probe, before_wave=1).tolist() == [True] * 10 + [False] * 10
    assert len(shard._h) == 10
    assert shard.contains(probe, before_wave=2).tolist() == [True] * 15 + [False] * 5
    assert len(shard._h) == 15
    shard.add(np.arange(15, 20, dtype=np.uint64), wave=2)
    assert shard.contains(probe, before_wave=2).sum() == 15
    assert len(shard._h) == 15
    assert shard.size() == 20


def test_topk_arrow_matches_pandas():
    """topk_per_host_arrow (the hot polars stage) and topk_per_host (the
    pandas reference) must select the identical rows, including priority
    ties broken by url and hosts absent from the payload (default k); the
    arrow form also gives each row its rank within its host."""
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
    # ... and each kept row's rank within its host, in that order
    want["rank_in_host"] = want.groupby("host").cumcount().astype(np.int32)
    pd.testing.assert_frame_equal(got, want)


def test_task_count_rule():
    """One task per ``rows_per_task`` rows, rounded up, capped, at least one."""
    assert task_count(0, 4096, 8) == 1
    assert task_count(1, 4096, 8) == 1
    assert task_count(4096, 4096, 8) == 1
    assert task_count(4097, 4096, 8) == 2
    assert task_count(7500, 4096, 2) == 2
    assert task_count(10**9, 4096, 8) == 8
    assert task_count(10**9, 4096, 0) == 1
    assert task_count(5, 0, 8) == 5  # a target below one row is one row
