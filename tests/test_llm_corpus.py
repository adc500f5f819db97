"""Composed crawl-to-training-corpus pipeline (pipelines/llm_corpus.py):
phase conservation laws and brute-force parity of the gates."""

from __future__ import annotations

import numpy as np
import pandas as pd


def _run(tmp_path, n_pages=400):
    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.pipelines.llm_corpus import build_training_corpus
    from abwcf_ray.sources.corpus import generate_corpus

    corpus = generate_corpus(
        f"/tmp/abwcf_llmcorpus_test_{n_pages}", n_pages=n_pages, seed=42,
        num_buckets=8,
    )
    out = tmp_path / "crawl"
    cfg = CrawlConfig(max_waves=2, wave_duration_s=10.0, seen_shards=2,
                      max_crawl_depth=8)
    run_crawl(cfg, corpus, out, log=lambda *_: None)
    return out, build_training_corpus(out, pack_window=64, n_merges=3)


def test_llm_corpus_conservation(ray_session, tmp_path):
    out, s = _run(tmp_path)
    row = s.iloc[0]
    # monotone corpus mass through the gates
    assert row.pages_crawled >= row.docs_extracted >= row.docs_kept
    assert row.docs_kept >= row.docs_unique > 0
    # packing conserves tokens: last bin may be partial, others full
    assert row.total_tokens > 0 and row.bins == -(-row.total_tokens // 64)
    # BPE symbols: merges only ever shrink the CHARACTER count (words —
    # total_tokens — are a different unit; chars >> words)
    assert 0 < row.bpe_tokens <= row.total_chars
    assert row.n_merges_trained <= 3
    if row.n_merges_trained:
        assert row.bpe_tokens < row.total_chars


def test_llm_corpus_gates_match_brute_force(ray_session, tmp_path):
    import pyarrow.dataset as pads

    out, s = _run(tmp_path)
    row = s.iloc[0]
    proc = pads.dataset(
        sorted(str(p) for p in out.glob("wave_*/processed/*.parquet"))
    ).to_table(columns=["url", "is_html", "text"]).to_pandas()
    html = proc[proc["is_html"]]
    assert row.docs_extracted == len(html)
    nw = html["text"].str.count(r"\S+")
    mwl = html["text"].str.count(r"[A-Za-zÀ-ÿ]") / nw.clip(lower=1)
    kept = html[(nw >= 5) & (mwl.round(6) <= 40.0)]
    assert row.docs_kept == len(kept)
    assert row.docs_unique == kept["text"].nunique()
    assert row.total_tokens == int(
        kept.drop_duplicates("text", keep="first")["text"]
        .str.count(r"\S+")
        .sum()
    )
