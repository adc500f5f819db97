"""Record fetch over the hash-sorted corpus layout: ``CorpusTransport``
must open only the layout files whose hash range holds a selected url and
return exactly the rows the O(corpus) reference ``make_fetch_scan`` returns
— present, absent and duplicated urls, the body cap, chunks that span a
file boundary (SURVEY.md §2 A2)."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from abwcf_ray.functions.hashing import hash64
from abwcf_ray.sources import corpus as corpus_mod
from abwcf_ray.sources.corpus import CorpusMeta, generate_corpus
from abwcf_ray.stages.fetch import FETCH_COLUMNS, make_fetch_scan
from abwcf_ray.stages.transport import CorpusTransport

# an odd file size, so the layout of the doubled corpus (every hash stored
# twice, at sorted positions 2k and 2k+1) splits some pairs across files
FILE_ROWS = 301


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_mod, "_HASHED_FILE_ROWS", FILE_ROWS)
        return generate_corpus(tmp_path_factory.mktemp("pc"), n_pages=2000, seed=11)


@pytest.fixture(scope="module")
def doubled(corpus, tmp_path_factory):
    """The same corpus with every page stored twice, in a layout of
    ``FILE_ROWS``-row files."""
    root = tmp_path_factory.mktemp("doubled")
    pages = root / "pages"
    pages.mkdir()
    for p in sorted(Path(corpus.pages_dir).glob("*.parquet")):
        shutil.copy(p, pages / p.name)
        shutil.copy(p, pages / f"dup-{p.name}")
    meta = CorpusMeta(
        n_pages=2 * corpus.n_pages, seed=corpus.seed, num_buckets=corpus.num_buckets,
        n_hosts=corpus.n_hosts, out_dir=str(root),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_mod, "_HASHED_FILE_ROWS", FILE_ROWS)
        corpus_mod.build_hashed_layout(meta)
    return meta


def _urls(meta) -> list[str]:
    return pads.dataset(meta.pages_dir).to_table(columns=["url"]).column("url").to_pylist()


def _canon(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas().sort_values(["url", "depth"]).reset_index(drop=True)
    df["html"] = df["html"].map(lambda b: None if b is None else bytes(b))
    return df


def test_reader_opens_only_files_holding_selected_hashes(corpus, monkeypatch):
    n_files = len(list(Path(corpus.hashed_dir).glob("part-*.arrow")))
    assert n_files == -(-corpus.n_pages // FILE_ROWS)
    opened = []
    real = pa.memory_map
    monkeypatch.setattr(pa, "memory_map", lambda path, *a: opened.append(path) or real(path, *a))
    urls = _urls(corpus)[::700]  # 3 spread-out pages
    got = CorpusTransport(corpus.hashed_dir).fetch(urls, np.zeros(len(urls), np.int32))
    assert sorted(got.column("url").to_pylist()) == sorted(urls)
    assert 1 <= len(opened) <= len(urls) < n_files


def test_pruned_reader_returns_exact_selection(corpus):
    pages = pads.dataset(corpus.pages_dir).to_table(columns=["url", "html"])
    urls = pages.column("url").to_pylist()[100:1900:7]
    depths = np.arange(len(urls), dtype=np.int32)
    out = CorpusTransport(corpus.hashed_dir).fetch(urls, depths).to_pandas()
    assert sorted(out["url"]) == sorted(urls)
    # depths align to their urls
    assert dict(zip(out["url"], out["depth"])) == dict(zip(urls, depths))
    # bodies are the corpus bodies, byte-identical
    want = dict(zip(pages.column("url").to_pylist(), pages.column("html").to_pylist()))
    assert all(bytes(h) == want[u] for u, h in zip(out["url"], out["html"]))


def test_pruned_and_scan_paths_agree(doubled):
    """Reader == reference on a layout storing every url twice: a present
    url returns both rows (one pair split across two files), an absent
    url none, and the body cap drops oversize bodies alike."""
    rec = corpus_mod.read_layout(doubled.hashed_dir)
    assert rec["n_files"] > 2 and rec["n_rows"] == doubled.n_pages
    # a hash stored at the end of one file and the start of the next
    hi0 = rec["files"][0][2]
    assert hi0 == rec["files"][1][1]
    urls = _urls(doubled)[: doubled.n_pages // 2]
    split = [u for u, h in zip(urls, hash64(urls)) if h == hi0]
    assert split
    sel = urls[3::40] + split + ["https://nowhere.example/missing"]
    depths = np.arange(len(sel), dtype=np.int32)
    html_len = pads.dataset(doubled.pages_dir).to_table(columns=["html"]).column("html")
    cap = int(np.median([len(b) for b in html_len.to_pylist()]))

    got = CorpusTransport(doubled.hashed_dir, max_content_length=cap).fetch(sel, depths)
    ref = make_fetch_scan(sel, depths, cap)(
        pads.dataset(doubled.pages_dir).to_table(columns=FETCH_COLUMNS)
    )
    pd.testing.assert_frame_equal(_canon(got), _canon(ref))
    counts = pd.Series(got.column("url").to_pylist()).value_counts()
    assert (counts == 2).all() and len(counts) == len(sel) - 1
    assert got.column("length_exceeded").to_numpy().any()
    # a chunk spanning the file boundary alone
    one = CorpusTransport(doubled.hashed_dir).fetch(split, np.zeros(len(split), np.int32))
    assert one.num_rows == 2 * len(split)
