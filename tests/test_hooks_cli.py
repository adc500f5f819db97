"""User-extension surface (SURVEY.md §2 H) + restore (D4) + TOML config."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

from abwcf_ray.config import CrawlConfig
from abwcf_ray.functions.hashing import hash64
from abwcf_ray.stages.transform import make_prioritize_stage, make_process_fetched_stage


def test_custom_priority_callable():
    def my_priority(batch: pa.Table) -> np.ndarray:
        # pages on even-numbered hosts first (arbitrary user logic)
        return (hash64(batch.column("url").to_pylist()) % np.uint64(1000)).astype(np.int64)

    cfg = CrawlConfig(priority_fn=my_priority)
    t = pa.table(
        {"url": pa.array(["https://a/1", "https://b/2"]), "depth": pa.array([0, 1], pa.int32())}
    )
    out = make_prioritize_stage(cfg)(t)
    expected = (hash64(["https://a/1", "https://b/2"]) % np.uint64(1000)).astype(np.int64)
    assert out.column("priority").to_pylist() == expected.tolist()


def test_custom_consumer_callable():
    cfg = CrawlConfig(consume_fn=lambda url, html: f"CUSTOM:{url}")
    stage = make_process_fetched_stage(cfg)
    batch = pa.table(
        {
            "url": pa.array(["https://h/x"]),
            "host": pa.array(["https://h"]),
            "depth": pa.array([0], pa.int32()),
            "priority": pa.array([1], pa.int64()),
            "status": pa.array([200], pa.int32()),
            "content_type": pa.array(["text/html"]),
            "location": pa.array([None], pa.string()),
            "x_robots_tag": pa.array([None], pa.string()),
            "html": pa.array([b"<html><body><h1>T</h1></body></html>"], pa.binary()),
        }
    )
    out = stage(batch)
    assert out.column("text").to_pylist() == ["CUSTOM:https://h/x"]


def test_restore_topk(ray_session, tmp_path):
    import ray.data as rd

    from abwcf_ray.pipelines.crawl import restore_topk

    rng = np.random.default_rng(3)
    n = 500
    prio = rng.permutation(n).astype(np.int64)
    status = np.where(np.arange(n) % 4 == 0, "Processed", "Discovered")
    t = pa.table(
        {
            "url": pa.array([f"https://h/p{i}" for i in range(n)]),
            "host": pa.array(["https://h"] * n),
            "status": pa.array(status, pa.string()),
            "depth": pa.array(np.zeros(n, dtype=np.int32), pa.int32()),
            "priority": pa.array(prio, pa.int64()),
        }
    )
    rd.from_arrow(t).write_parquet(str(tmp_path / "frontier"))
    top = restore_topk(tmp_path / "frontier", 10).to_pandas()
    df = t.to_pandas()
    expected = (
        df[df["status"] == "Discovered"]
        .sort_values(["priority", "url"], ascending=[False, True])
        .head(10)["url"]
        .tolist()
    )
    assert top["url"].tolist() == expected


def test_load_config_toml(tmp_path):
    from abwcf_ray.pipelines.crawl import load_config_toml

    p = tmp_path / "crawl.toml"
    p.write_text(
        """
max_crawl_depth = 5
wave_duration_s = 60.0
must_match = ["https://.*"]
default_crawl_delay_ms = 2000

[normalization]
remove_query = true
"""
    )
    cfg = load_config_toml(p)
    assert cfg.max_crawl_depth == 5
    assert cfg.wave_duration_s == 60.0
    assert cfg.must_match == ("https://.*",)
    assert cfg.default_crawl_delay_ms == 2000
    assert cfg.normalization.remove_query is True
    assert cfg.normalization.remove_fragment is True  # defaults intact


def test_window_ts_unit_independent(ray_session):
    """timestamp[ns] inputs must window identically to timestamp[us]."""
    import pandas as pd
    import ray.data as rd

    from abwcf_ray.stages.windows import session_windows

    base = pd.Timestamp("2025-01-01")
    df = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2],
            "ts": [base, base + pd.Timedelta("1h"), base + pd.Timedelta("10h"), base],
            "value": [1.0, 2.0, 3.0, 4.0],
        }
    )
    gap = 4 * 3600 * 1_000_000
    out_ns = session_windows(
        rd.from_pandas(df), key="user_id", ts_col="ts", value_col="value", gap_us=gap
    ).to_pandas().sort_values(["user_id", "session_id"]).reset_index(drop=True)
    df_us = df.copy()
    df_us["ts"] = df_us["ts"].astype("datetime64[us]")
    out_us = session_windows(
        rd.from_pandas(df_us), key="user_id", ts_col="ts", value_col="value", gap_us=gap
    ).to_pandas().sort_values(["user_id", "session_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out_ns, out_us)
    assert out_ns[out_ns["user_id"] == 1]["session_id"].tolist() == [0, 1]


def test_fresh_run_wipes_previous_checkpoints(ray_session, tmp_path):
    """resume=False into an existing out_dir must not merge stale parquet
    parts (Ray write_parquet appends)."""
    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.sources.corpus import generate_corpus

    corpus = generate_corpus(tmp_path / "c", n_pages=400, seed=42, num_buckets=4)
    cfg = CrawlConfig(max_waves=2, seen_shards=2)
    s1 = run_crawl(cfg, corpus, tmp_path / "out", log=lambda *_: None)
    s2 = run_crawl(cfg, corpus, tmp_path / "out", log=lambda *_: None)
    assert s2.final_frontier_rows == s1.final_frontier_rows
    assert s2.total_fetched == s1.total_fetched


def test_corpus_regen_wipes_stale_parts(tmp_path):
    from abwcf_ray.sources.corpus import generate_corpus
    import pyarrow.dataset as pads

    generate_corpus(tmp_path / "c", n_pages=3000, seed=42, num_buckets=4)
    meta = generate_corpus(tmp_path / "c", n_pages=500, seed=42, num_buckets=4)
    assert pads.dataset(meta.pages_dir).count_rows() == 500


def test_ngram_jaccard_custom_id_col(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from abwcf_ray.stages.dedup import ngram_jaccard_dedup

    t = pa.table(
        {
            "page_id": pa.array([1, 2, 3], pa.int64()),
            "body": pa.array(["a b c d e", "a b c d e", "x y z w v"]),
        }
    )
    labels = ngram_jaccard_dedup(
        rd.from_arrow(t), id_col="page_id", text_col="body", threshold=0.9
    )
    assert list(labels.columns[:2]) == ["page_id", "cluster"]
    lab = labels.set_index("page_id")
    assert lab.loc[2, "cluster"] == lab.loc[1, "cluster"]
    assert bool(lab.loc[2, "is_dup"]) and not bool(lab.loc[3, "is_dup"])
