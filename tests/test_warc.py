"""WARC source/sink roundtrip tests, including real-CC fidelity: HTTP
message payloads (status/headers parsed, only the body in ``html``) and
gzip member-per-record shards."""

from __future__ import annotations

import gzip

import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from abwcf_ray.sources.warc import (
    parse_warc_bytes,
    read_warc,
    warc_to_corpus,
    write_warc,
    write_warc_shard,
)


def test_shard_roundtrip(tmp_path):
    rows = [
        {"url": "https://a.example/1", "warc_ts": 1_700_000_000_000_000, "html": b"<html>1</html>"},
        {"url": "https://a.example/2", "warc_ts": 1_700_000_001_000_000, "html": b""},
        {"url": "https://b.example/x", "warc_ts": 1_700_000_002_000_000, "html": b"bin\r\n\r\ndata"},
        {
            "url": "https://b.example/r",
            "warc_ts": 1_700_000_003_000_000,
            "html": b"",
            "status": 301,
            "content_type": "text/html",
            "location": "https://b.example/target",
            "x_robots_tag": "noindex",
        },
    ]
    p = tmp_path / "t.warc"
    write_warc_shard(p, rows)
    got = parse_warc_bytes(p.read_bytes())
    assert [r["url"] for r in got] == [r["url"] for r in rows]
    assert [r["html"] for r in got] == [r["html"] for r in rows]
    assert [r["warc_ts"] for r in got] == [r["warc_ts"] for r in rows]
    assert got[0]["status"] == 200 and got[0]["content_type"] == "text/html"
    assert got[3]["status"] == 301
    assert got[3]["location"] == "https://b.example/target"
    assert got[3]["x_robots_tag"] == "noindex"


def test_gzip_shard_roundtrip(tmp_path):
    """CC ships .warc.gz with one gzip member per record — must parse
    identically to the plain shard."""
    rows = [
        {"url": f"https://g.example/{i}", "warc_ts": 1_700_000_000_000_000 + i, "html": f"<p>{i}</p>".encode()}
        for i in range(5)
    ]
    plain, gz = tmp_path / "t.warc", tmp_path / "t.warc.gz"
    write_warc_shard(plain, rows)
    write_warc_shard(gz, rows, compress=True)
    assert gz.read_bytes()[:2] == b"\x1f\x8b"
    assert parse_warc_bytes(gz.read_bytes()) == parse_warc_bytes(plain.read_bytes())


def test_http_message_payload_parsed():
    """A real CC-style record: application/http payload — headers must NOT
    leak into html, and the real status/content-type are surfaced."""
    http = (
        b"HTTP/1.1 404 Not Found\r\n"
        b"Content-Type: text/plain; charset=utf-8\r\n"
        b"Content-Length: 9\r\n\r\n"
        b"not found"
    )
    rec = (
        b"WARC/1.0\r\nWARC-Type: response\r\nWARC-Target-URI: https://x/\r\n"
        b"WARC-Date: 2025-01-01T00:00:00Z\r\n"
        b"Content-Type: application/http; msgtype=response\r\n"
        b"Content-Length: " + str(len(http)).encode() + b"\r\n\r\n" + http + b"\r\n\r\n"
    )
    got = parse_warc_bytes(rec)
    assert len(got) == 1
    assert got[0]["html"] == b"not found"
    assert got[0]["status"] == 404
    assert got[0]["content_type"] == "text/plain"  # params stripped


def test_skips_non_response_records(tmp_path):
    p = tmp_path / "t.warc"
    content = (
        b"WARC/1.0\r\nWARC-Type: warcinfo\r\nContent-Length: 4\r\n\r\njunk\r\n\r\n"
        b"WARC/1.0\r\nWARC-Type: response\r\nWARC-Target-URI: https://x/\r\n"
        b"WARC-Date: 2025-01-01T00:00:00Z\r\nContent-Length: 2\r\n\r\nhi\r\n\r\n"
    )
    p.write_bytes(content)
    got = parse_warc_bytes(p.read_bytes())
    assert len(got) == 1 and got[0]["url"] == "https://x/" and got[0]["html"] == b"hi"


@pytest.mark.parametrize("compress", [False, True])
def test_dataset_roundtrip_via_corpus(ray_session, tmp_path, compress):
    """pages corpus -> WARC shards -> Dataset: byte-identical html per url,
    plain and gzip."""
    import ray.data as rd

    from abwcf_ray.sources.corpus import generate_corpus

    meta = generate_corpus(tmp_path / "c", n_pages=300, seed=42, num_buckets=4)
    pages = rd.read_parquet(meta.pages_dir, columns=["url", "warc_ts", "html"])
    paths = write_warc(pages, tmp_path / "warc", rows_per_shard=100, compress=compress)
    assert len(paths) >= 3
    back = read_warc(paths).to_pandas().sort_values("url").reset_index(drop=True)
    orig = (
        pads.dataset(meta.pages_dir)
        .to_table(columns=["url", "warc_ts", "html"])
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert back["url"].tolist() == orig["url"].tolist()
    assert (back["html"] == orig["html"]).all()
    # WARC-Date is second-granular; timestamps agree at second resolution
    assert (
        back["warc_ts"].astype("int64") // 10**6
        == orig["warc_ts"].astype("int64") // 10**6
    ).all()


def test_warc_to_corpus_preserves_fetch_metadata(ray_session, tmp_path):
    """WARC shards -> corpus layout: the real per-record status /
    content_type / location / x_robots_tag survive ingestion, so
    redirects and robots headers behave as on the live crawl."""
    import ray.data as rd

    rows = [
        {"url": "https://w.example/ok", "warc_ts": 1_700_000_000_000_000,
         "html": b"<html><body><h1>T</h1></body></html>"},
        {"url": "https://w.example/redir", "warc_ts": 1_700_000_001_000_000,
         "html": b"", "status": 302, "location": "https://w.example/ok"},
        {"url": "https://w.example/nofollow", "warc_ts": 1_700_000_002_000_000,
         "html": b"<html></html>", "x_robots_tag": "nofollow"},
    ]
    shard = tmp_path / "s.warc"
    write_warc_shard(shard, rows)
    pages_dir = warc_to_corpus([str(shard)], tmp_path / "ingested")
    t = pads.dataset(pages_dir).to_table().to_pandas().set_index("url")
    assert t.loc["https://w.example/redir", "status"] == 302
    assert t.loc["https://w.example/redir", "location"] == "https://w.example/ok"
    assert t.loc["https://w.example/nofollow", "x_robots_tag"] == "nofollow"
    assert t.loc["https://w.example/ok", "status"] == 200


def test_warc_to_corpus_is_crawlable(ray_session, tmp_path):
    """WARC shards -> corpus layout the fetch scan can consume."""
    import ray.data as rd

    from abwcf_ray.sources.corpus import generate_corpus

    meta = generate_corpus(tmp_path / "c", n_pages=200, seed=42, num_buckets=4)
    pages = rd.read_parquet(meta.pages_dir, columns=["url", "warc_ts", "html"])
    shards = write_warc(pages, tmp_path / "warc", rows_per_shard=100)
    pages_dir = warc_to_corpus(shards, tmp_path / "ingested")
    t = pads.dataset(pages_dir).to_table()
    assert t.num_rows == 200
    assert set(t.schema.names) >= {
        "url", "warc_ts", "html", "status", "content_type", "location", "x_robots_tag"
    }
    # the fetch scan consumes it directly
    from abwcf_ray.stages.fetch import FETCH_COLUMNS, make_fetch_scan
    import numpy as np

    urls = t.column("url").to_pylist()[:50]
    fetched = (
        rd.read_parquet(pages_dir, columns=FETCH_COLUMNS)
        .map_batches(make_fetch_scan(urls, np.zeros(50, dtype=np.int32)), batch_format="pyarrow")
        .to_pandas()
    )
    assert sorted(fetched["url"]) == sorted(urls)
    assert (fetched["status"] == 200).all()


def test_zero_record_shard_is_empty_not_silent(ray_session, tmp_path):
    """A non-WARC shard parses to zero records (and the reader warns in
    the worker log); the Dataset is empty rather than crashing."""
    p = tmp_path / "empty.warc"
    p.write_bytes(b"this is not a warc file at all")
    assert parse_warc_bytes(p.read_bytes()) == []
    assert read_warc([str(p)]).count() == 0


def test_truncated_and_corrupt_shards():
    """Reader resyncs past garbage and tolerates truncation mid-record."""
    good = (
        b"WARC/1.0\r\nWARC-Type: response\r\nWARC-Target-URI: https://x/\r\n"
        b"WARC-Date: 2025-01-01T00:00:00Z\r\nContent-Length: 2\r\n\r\nhi\r\n\r\n"
    )
    assert parse_warc_bytes(b"garbage bytes\r\n\r\nmore junk" + good)[0]["url"] == "https://x/"
    # truncated second record: first still parses, no crash
    out = parse_warc_bytes(good + b"WARC/1.0\r\nWARC-Type: resp")
    assert len(out) == 1
    # record with bad date skipped
    bad_date = good.replace(b"2025-01-01T00:00:00Z", b"not-a-date-at-allz")
    assert parse_warc_bytes(bad_date) == []
    # corrupt gzip yields empty, no crash
    assert parse_warc_bytes(b"\x1f\x8bcorrupt") == []


def test_crawl_over_warc_ingested_corpus_matches_oracle(ray_session, tmp_path):
    """Full CC circle: corpus -> WARC shards (real HTTP messages) ->
    warc_to_corpus -> run_crawl over the INGESTED corpus equals the oracle
    run — statuses, content types, redirects and robots headers all
    survive the WARC roundtrip. An ingested corpus has no hashed fetch
    layout: run_crawl builds one at run start and crawls it the same way."""
    import json as _json
    import shutil

    import pandas as pd
    import ray.data as rd

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.pipelines.oracle import run_oracle
    from abwcf_ray.sources.corpus import CorpusMeta, generate_corpus, layout_is_valid

    src = generate_corpus(tmp_path / "src", n_pages=500, seed=42, num_buckets=4)
    pages = rd.read_parquet(
        src.pages_dir,
        columns=["url", "warc_ts", "html", "status", "content_type", "location", "x_robots_tag"],
    )
    shards = write_warc(pages, tmp_path / "warc", rows_per_shard=150, compress=True)

    ing_root = tmp_path / "ingested"
    warc_to_corpus(shards, ing_root / "pages")
    shutil.copy(src.robots_path, ing_root / "robots.parquet")
    (ing_root / "seeds.json").write_text(_json.dumps(src.seeds))
    meta = CorpusMeta(
        n_pages=src.n_pages, seed=src.seed, num_buckets=src.num_buckets,
        n_hosts=src.n_hosts, out_dir=str(ing_root),
    )
    assert not __import__("pathlib").Path(meta.hashed_dir).exists()  # no layout yet

    cfg = CrawlConfig(max_waves=4, wave_duration_s=10.0, seen_shards=4,
                      max_crawl_depth=6)
    out = tmp_path / "crawl"
    summary = run_crawl(cfg, meta, out, log=lambda *_: None)
    assert layout_is_valid(meta)
    o = run_oracle(cfg, meta)
    from abwcf_ray.pipelines.crawl import frontier_dataset

    got = (
        frontier_dataset(summary.last_wave_dir)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    exp = (
        pd.DataFrame(
            [(u, s, d, p) for u, (s, d, p) in o.frontier.items()],
            columns=["url", "status", "depth", "priority"],
        )
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["url", "status", "depth", "priority"]].astype({"depth": "int64"}),
        exp.astype({"depth": "int64"}),
    )
    assert summary.total_fetched > 0


def test_gz_shard_streaming_peak_memory(tmp_path):
    """A multi-member .warc.gz shard parses at O(record) peak memory: the
    decompressed shard (here ~60 MB of highly compressible bodies) must
    never materialize as one buffer (round-3 VERDICT 'Missing' #4)."""
    import tracemalloc

    from abwcf_ray.sources.warc import _iter_warc_stream, _open_warc_stream

    body = b"x" * 500_000  # 0.5 MB per record, 120 records = 60 MB raw
    rows = [
        {"url": f"https://m.example/{i}", "warc_ts": 1_700_000_000_000_000 + i, "html": body}
        for i in range(120)
    ]
    p = tmp_path / "big.warc.gz"
    write_warc_shard(p, rows, compress=True)
    blob = p.read_bytes()
    assert len(blob) < 5_000_000  # compresses tiny

    tracemalloc.start()
    n = 0
    for rec in _iter_warc_stream(_open_warc_stream(blob)):
        assert rec["html"] == body
        n += 1
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert n == 120
    # streaming: peak ~ a few records; whole-shard decompression would be >= 60 MB
    assert peak < 20_000_000, f"peak {peak} bytes suggests whole-shard materialization"


def test_read_warc_all_empty_shards_keeps_schema(ray_session, tmp_path):
    """A corpus whose shards are ALL corrupt/empty must still come back as
    a TYPED empty dataset (the pages schema), not a schema-less zero-block
    dataset — the 'silently empty corpus' guard."""
    import warnings

    from abwcf_ray.sources.warc import read_warc

    for i in range(2):
        (tmp_path / f"bad{i}.warc").write_bytes(b"not a warc at all")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds = read_warc(str(tmp_path))
        # the dataset must carry the TYPED pages schema (Ray's to_pandas
        # drops column metadata from all-empty bundles, so assert on the
        # dataset schema — what write_parquet and projections consume)
        names = set(ds.schema().names)
        assert ds.count() == 0
    assert names == {
        "url", "warc_ts", "html", "status", "content_type", "location", "x_robots_tag"
    }
