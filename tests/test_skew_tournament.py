"""Unified skew tournament (round-4 verdict #8): ONE synthetic
90%-single-key dataset pushed through every keyed-exchange family —
equi join, session windows, window functions, exact dedup, grouped
stats, graph, politeness top-k — asserting (a) exact results vs a
brute-force reference under heavy skew and (b) bounded per-task peak
heap (a hot key that made any task materialize something superlinear
would blow the regression bound, which sits ~50x above the healthy
footprint of this fixture).

The hot key holds 90% of 120k rows, spread over 24 input blocks — its
rows span >20 blocks, i.e. a >10x block-size skew factor (the 'Done'
bar). Run just this suite with `pytest -m skew`.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

pytestmark = pytest.mark.skew

N = 120_000
HOT = "k_hot"
N_BLOCKS = 24
PEAK_HEAP_MIB = 900.0  # regression bound; healthy runs sit far below


def _peak_heap_mib(ds) -> float:
    """Largest per-task peak heap any operator reported (MiB)."""
    peaks = [
        float(m)
        for m in re.findall(
            r"Peak heap memory usage \(MiB\): [\d.]+ min, ([\d.]+) max",
            ds.stats(),
        )
    ]
    return max(peaks, default=0.0)


@pytest.fixture(scope="module")
def skew_df() -> pd.DataFrame:
    rng = np.random.default_rng(99)
    n_hot = int(N * 0.9)
    keys = np.array(
        [HOT] * n_hot
        + [f"k{int(i)}" for i in rng.integers(0, 1000, N - n_hot)],
        dtype=object,
    )
    rng.shuffle(keys)
    return pd.DataFrame(
        {
            "key": keys,
            "v": rng.integers(0, 10_000, N).astype(np.int64),
            "w": rng.integers(0, 100, N).astype(np.int64),
            "ts": np.sort(rng.integers(0, 10**9, N)).astype(np.int64),
            "rid": np.arange(N, dtype=np.int64),
        }
    )


@pytest.fixture(scope="module")
def skew_ds(ray_session, skew_df):
    import ray.data as rd

    return rd.from_pandas(skew_df).repartition(N_BLOCKS).materialize()


def test_skew_equi_join(skew_ds, skew_df, ray_session):
    """Bucketed keyed-exchange join with a 90% hot key: SQL multiplicity,
    bounded tasks (broadcast path disabled to force the exchange)."""
    import ray.data as rd

    from abwcf_ray.stages.join import equi_join

    dim = pd.DataFrame(
        {
            "key": [HOT] + [f"k{i}" for i in range(1000)],
            "label": np.arange(1001, dtype=np.int64),
        }
    )
    out_ds = equi_join(
        skew_ds,
        rd.from_pandas(dim).repartition(4),
        on="key",
        how="inner",
        broadcast_max_rows=0,
    ).materialize()
    out = (
        out_ds.to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)[["key", "v", "rid", "label"]]
    )
    exp = (
        skew_df.merge(dim, on="key", how="inner")
        .sort_values("rid")
        .reset_index(drop=True)[["key", "v", "rid", "label"]]
    )
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)
    assert _peak_heap_mib(out_ds) < PEAK_HEAP_MIB


def test_skew_session_windows(skew_ds, skew_df, ray_session):
    """Hot key's events split across coarse time buckets; summaries, not
    events, cross the second exchange."""
    from abwcf_ray.stages.windows import session_windows

    gap = 3_000
    out_ds = session_windows(
        skew_ds.map_batches(
            lambda b: b.select(["key", "ts", "v"]), batch_format="pyarrow"
        ),
        key="key",
        ts_col="ts",
        value_col="v",
        gap_us=gap,
    ).materialize()
    out = (
        out_ds.to_pandas()
        .sort_values(["key", "session_id"])
        .reset_index(drop=True)
    )

    rows = []
    for k, g in skew_df.sort_values("ts").groupby("key"):
        ts = g["ts"].to_numpy()
        v = g["v"].to_numpy()
        new = np.r_[True, np.diff(ts) > gap]
        sid = np.cumsum(new) - 1
        for s in np.unique(sid):
            m = sid == s
            rows.append(
                (k, int(s), int(ts[m][0]), int(m.sum()),
                 round(float(v[m].sum()), 4))
            )
    exp = (
        pd.DataFrame(
            rows,
            columns=["key", "session_id", "session_start", "n_events",
                     "sum_value"],
        )
        .sort_values(["key", "session_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)
    assert _peak_heap_mib(out_ds) < PEAK_HEAP_MIB


def test_skew_window_functions(skew_ds, skew_df, ray_session):
    """ROW_NUMBER + running sum over the hot key (one key = 90% of all
    rows ordered within one logical window)."""
    from abwcf_ray.stages.winfun import keyed_window_functions

    out_ds = keyed_window_functions(
        skew_ds,
        key_col="key",
        order_cols=["ts", "rid"],
        sum_col="v",
    ).materialize()
    out = out_ds.to_pandas().sort_values("rid").reset_index(drop=True)

    exp = skew_df.sort_values(["key", "ts", "rid"]).copy()
    exp["rn"] = exp.groupby("key").cumcount() + 1
    exp["run_sum"] = exp.groupby("key")["v"].cumsum()
    exp = exp.sort_values("rid").reset_index(drop=True)
    assert (out["rn"].to_numpy() == exp["rn"].to_numpy()).all()
    assert (out["run_sum"].to_numpy() == exp["run_sum"].to_numpy()).all()
    assert _peak_heap_mib(out_ds) < PEAK_HEAP_MIB


def test_skew_exact_dedup(skew_ds, skew_df, ray_session):
    """90% identical text: one giant dup group must reduce to partial
    (hash, min-id, count) rows, never co-locate raw text."""
    from abwcf_ray.stages.dedup import exact_dedup

    docs = skew_ds.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("rid"),
                "text": pa.compute.binary_join_element_wise(
                    pa.compute.cast(b.column("key"), pa.string()),
                    "-text",
                    "",
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out_ds = exact_dedup(docs).materialize()
    out = (
        out_ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    tx = skew_df["key"].astype(str) + "-text"
    exp = (
        pd.DataFrame({"doc_id": skew_df["rid"], "text": tx})
        .groupby("text", as_index=False)
        .agg(doc_id=("doc_id", "min"), dup_count=("doc_id", "size"))
        [["doc_id", "dup_count"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    out_cmp = out[["doc_id", "dup_count"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(out_cmp, exp, check_dtype=False)
    assert _peak_heap_mib(out_ds) < PEAK_HEAP_MIB


def test_skew_group_stats(skew_ds, skew_df, ray_session):
    """Grouped covariance with one group holding 90% of rows: the
    map-side moment combine bounds the exchange at one row per
    (block, group)."""
    from abwcf_ray.stages.stats import group_cov

    out_ds = group_cov(
        skew_ds, group_cols=["key"], x_col="v", y_col="w"
    )
    out = (
        (out_ds.to_pandas() if not isinstance(out_ds, pd.DataFrame) else out_ds)
        .sort_values("key")
        .reset_index(drop=True)
    )
    g = skew_df.groupby("key")
    exp_n = g.size()
    hot = out[out["key"] == HOT].iloc[0]
    assert int(hot["n"]) == int(exp_n[HOT])
    # exact moments: sxy must equal the int64 sum of products
    sxy = (skew_df[skew_df["key"] == HOT]["v"]
           * skew_df[skew_df["key"] == HOT]["w"]).sum()
    assert int(hot["sxy"]) == int(sxy)
    assert len(out) == skew_df["key"].nunique()


def test_skew_graph_star(ray_session):
    """Star graph: one node receives 90% of all edges (the classic hot
    vertex). Broadcast and distributed regimes must agree exactly."""
    import ray.data as rd

    from abwcf_ray.stages.graph import pagerank

    rng = np.random.default_rng(5)
    n_nodes = 5000
    n_edges = 100_000
    hot_dst = np.zeros(int(n_edges * 0.9), dtype=np.int64)
    other_dst = rng.integers(1, n_nodes, n_edges - len(hot_dst))
    dst = np.concatenate([hot_dst, other_dst])
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    keep = src != dst
    edges = pd.DataFrame({"src": src[keep], "dst": dst[keep]})
    eds = rd.from_pandas(edges).repartition(N_BLOCKS)

    a = (
        pagerank(eds, n_nodes=n_nodes, iters=3)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    nodes = rd.from_pandas(pd.DataFrame({"node": np.arange(n_nodes)}))
    b_ds = pagerank(
        eds, nodes_ds=nodes, iters=3, broadcast_max_nodes=0
    ).materialize()
    b = b_ds.to_pandas().sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert _peak_heap_mib(b_ds) < PEAK_HEAP_MIB


def test_skew_politeness_topk(skew_ds, skew_df, ray_session, tmp_path):
    """The crawl's per-host top-k with one host holding 90% of the
    frontier: the hot host's contribution is clamped at k_h by the
    per-block partial prune, so no task ever holds the full hot set."""
    import ray

    from abwcf_ray.stages.schedule import select_wave, topk_per_host
    from abwcf_ray.state.hosts import sched_payload_from_delays

    def to_frontier(b: pa.Table) -> pa.Table:
        host = pa.compute.binary_join_element_wise(
            "https://", pa.compute.cast(b.column("key"), pa.string()),
            ".example", "",
        )
        url = pa.compute.binary_join_element_wise(
            host, "/p",
            pa.compute.cast(b.column("rid"), pa.string()), "",
        )
        return pa.table(
            {
                "url": url,
                "host": host,
                "depth": pa.array(
                    np.zeros(b.num_rows, dtype=np.int32), pa.int32()
                ),
                "priority": b.column("v"),
            }
        )

    frontier = skew_ds.map_batches(to_frontier, batch_format="pyarrow")
    skew_ds.write_parquet(str(tmp_path / "skew"))
    files = sorted(str(p) for p in (tmp_path / "skew").glob("*.parquet"))
    hosts = [f"https://{HOT}.example"] + [
        f"https://k{i}.example" for i in range(1000)
    ]
    payload = sched_payload_from_delays(
        {h: 1000 for h in hosts}, wave_duration_s=40.0
    )  # k_h = 40 per host
    sched_ref = ray.put(payload)
    sel, _ = select_wave(files, [to_frontier], sched_ref)
    exp = topk_per_host(
        frontier.to_pandas(), payload
    ).sort_values(["host", "url"]).reset_index(drop=True)
    got = sel.to_pandas().sort_values(["host", "url"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["url", "host", "priority"]],
        exp[["url", "host", "priority"]].reset_index(drop=True),
        check_dtype=False,
    )
    # the hot host is budget-clamped like everyone else
    assert (got["host"] == f"https://{HOT}.example").sum() == 40
