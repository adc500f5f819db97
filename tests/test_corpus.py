"""Fixture-corpus generation tests: determinism, layout, and the critical
extraction invariant — parsing the generated HTML reproduces the ground-truth
``text`` column byte-for-byte (FIXTURES.md §1)."""

from __future__ import annotations

import pyarrow.dataset as pads
import pytest

from abwcf_ray.config import STRICT_NORMALIZATION
from abwcf_ray.functions.htmlx import parse_document
from abwcf_ray.functions.urlnorm import normalize_url
from abwcf_ray.sources.corpus import generate_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    return generate_corpus(out, n_pages=2000, seed=42, num_buckets=8)


def _load_pages(meta):
    return pads.dataset(meta.pages_dir).to_table()


def test_deterministic_and_complete(corpus, tmp_path):
    t = _load_pages(corpus)
    assert t.num_rows == 2000
    assert len(set(t.column("url").to_pylist())) == 2000
    meta2 = generate_corpus(tmp_path / "again", n_pages=2000, seed=42, num_buckets=8)
    t2 = _load_pages(meta2)
    a = t.sort_by("url").select(["url", "html", "text", "status"])
    b = t2.sort_by("url").select(["url", "html", "text", "status"])
    assert a.equals(b)


def test_extraction_byte_identical(corpus):
    t = _load_pages(corpus)
    checked = 0
    for url, html, text, status, ctype in zip(
        t.column("url").to_pylist(),
        t.column("html").to_pylist(),
        t.column("text").to_pylist(),
        t.column("status").to_pylist(),
        t.column("content_type").to_pylist(),
    ):
        if status == 200 and ctype == "text/html":
            _, extracted, _ = parse_document(html, url)
            assert extracted == text, url
            checked += 1
    assert checked > 1500


def test_links_resolve_into_corpus(corpus):
    """Same-host canonical links must point at existing corpus urls."""
    t = _load_pages(corpus)
    urls = set(t.column("url").to_pylist())
    sampled = 0
    for url, html, status in zip(
        t.column("url").to_pylist(), t.column("html").to_pylist(), t.column("status").to_pylist()
    ):
        if status != 200 or sampled >= 200:
            continue
        links, _, _ = parse_document(html, url)
        for link in links:
            norm = normalize_url(link, STRICT_NORMALIZATION)
            if norm and norm.startswith("https://h"):
                assert norm in urls, (url, link, norm)
        sampled += 1
    assert sampled == 200


def test_corpus_shape(corpus):
    t = _load_pages(corpus)
    assert corpus.n_hosts == 40
    # redirects exist and carry locations
    statuses = t.column("status").to_pylist()
    assert 301 in statuses
    # seeds: 10 entries, last is invalid, second-to-last is a dup variant
    seeds = corpus.seeds
    assert len(seeds) == 10
    assert normalize_url(seeds[8], STRICT_NORMALIZATION) == normalize_url(
        seeds[0], STRICT_NORMALIZATION
    )
    assert normalize_url(seeds[9], STRICT_NORMALIZATION) is None


def test_corrupt_layout_detected_and_rebuilt(tmp_path):
    """A fetch layout with extra part files (crashed/concurrent previous
    build — observed to silently triple fetch rows) must fail the
    completion-marker check and be rebuilt on the generate_corpus reuse
    path; an intact layout must be reused untouched."""
    import shutil
    from pathlib import Path

    from abwcf_ray.sources.corpus import build_hashed_layout, layout_is_valid

    meta = generate_corpus(tmp_path / "c", n_pages=500, seed=7, num_buckets=4)
    hashed = Path(meta.hashed_dir)
    assert layout_is_valid(meta)
    parts_before = sorted(p.name for p in hashed.glob("part-*.arrow"))

    # intact reuse: same params -> no rebuild (file set unchanged)
    meta2 = generate_corpus(tmp_path / "c", n_pages=500, seed=7, num_buckets=4)
    assert sorted(p.name for p in hashed.glob("part-*.arrow")) == parts_before

    # corrupt: duplicate a part file under a new uuid-suffixed name
    src = next(hashed.glob("part-*.arrow"))
    shutil.copy(src, hashed / (src.stem + "-deadbeef.arrow"))
    assert not layout_is_valid(meta)
    meta3 = generate_corpus(tmp_path / "c", n_pages=500, seed=7, num_buckets=4)
    assert layout_is_valid(meta3)
    import pyarrow.dataset as pads

    parts = [str(p) for p in hashed.glob("part-*.arrow")]
    assert pads.dataset(parts, format="ipc").count_rows() == 500

    # partial: a missing marker is also invalid
    (hashed / "_LAYOUT_OK.json").unlink()
    assert not layout_is_valid(meta)
    build_hashed_layout(meta)
    assert layout_is_valid(meta)


def test_layout_from_another_hash_impl_is_rebuilt(ray_session, tmp_path):
    """The hashed layout is sorted and looked up by ``url_hash``: a layout
    whose marker names another hash implementation is invalid (every fetch
    would silently miss), and run_crawl rebuilds it before wave 0."""
    import json
    from pathlib import Path

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.functions.hashing import impl_id
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.sources.corpus import layout_is_valid

    meta = generate_corpus(tmp_path / "c", n_pages=300, seed=7, num_buckets=4)
    marker = Path(meta.hashed_dir) / "_LAYOUT_OK.json"
    rec = json.loads(marker.read_text())
    assert rec["hash_impl"] == impl_id() and layout_is_valid(meta)
    marker.write_text(json.dumps({**rec, "hash_impl": "polars-0.0.0"}))
    assert not layout_is_valid(meta)
    summary = run_crawl(
        CrawlConfig(max_waves=1, seen_shards=2), meta, tmp_path / "out", log=lambda *_: None
    )
    assert json.loads(marker.read_text())["hash_impl"] == impl_id()
    assert layout_is_valid(meta)
    assert summary.total_fetched > 0


def test_parquet_layout_is_rebuilt(ray_session, tmp_path):
    """The older fetch layout (hash-sorted parquet parts, a marker without
    ``format``) is invalid: generate_corpus and run_crawl rebuild it as the
    Arrow record layout instead of crawling it as an all-404 web."""
    import json
    from pathlib import Path

    import pyarrow.parquet as pq

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.functions.hashing import impl_id
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.sources.corpus import layout_is_valid

    def write_parquet_layout(meta):
        hashed = Path(meta.hashed_dir)
        for p in hashed.iterdir():
            p.unlink()
        pq.write_table(pads.dataset(meta.pages_dir).to_table(), hashed / "part-0-0.parquet")
        (hashed / "_LAYOUT_OK.json").write_text(
            json.dumps({"n_rows": meta.n_pages, "n_files": 1, "hash_impl": impl_id()})
        )

    meta = generate_corpus(tmp_path / "c", n_pages=300, seed=7, num_buckets=4)
    marker = Path(meta.hashed_dir) / "_LAYOUT_OK.json"
    write_parquet_layout(meta)
    assert not layout_is_valid(meta)
    meta = generate_corpus(tmp_path / "c", n_pages=300, seed=7, num_buckets=4)
    assert layout_is_valid(meta) and "format" in json.loads(marker.read_text())

    write_parquet_layout(meta)
    summary = run_crawl(
        CrawlConfig(max_waves=1, seen_shards=2), meta, tmp_path / "out", log=lambda *_: None
    )
    assert layout_is_valid(meta)
    assert summary.total_fetched > 0
    proc = pads.dataset(str(tmp_path / "out" / "wave_0000" / "processed")).to_table()
    assert proc.num_rows == summary.total_fetched
