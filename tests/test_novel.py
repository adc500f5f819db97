"""Cross-wave novel-content filter (stages/novel.py): unit semantics over
hand-built processed checkpoints, and the e2e invariant over a real crawl
— the union of wave novel/ outputs is exactly first-occurrence-per-content
in wave order with min-url arbitration within a wave."""

from __future__ import annotations

from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from abwcf_ray.config import CrawlConfig
from abwcf_ray.sources.corpus import generate_corpus


def _write_processed(d: Path, rows: list[tuple[str, str, bool]]) -> None:
    d.mkdir(parents=True, exist_ok=True)
    t = pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "is_html": pa.array([r[2] for r in rows]),
        }
    )
    pq.write_table(t, d / "part-0000.parquet")


def _read_novel(d: Path) -> pd.DataFrame:
    files = sorted(str(p) for p in d.glob("*.parquet"))
    if not files:
        return pd.DataFrame(columns=["url", "text", "is_html"])
    return pads.dataset(files).to_table().to_pandas()


def test_novel_extracted_semantics(ray_session, tmp_path):
    from abwcf_ray.state.seen import SeenSet
    from abwcf_ray.stages.novel import novel_extracted

    content_seen = SeenSet(2)
    # wave 0: dup content under two urls (min url wins), one non-html row
    _write_processed(
        tmp_path / "w0",
        [
            ("https://b.example/2", "same text", True),
            ("https://a.example/1", "same text", True),
            ("https://c.example/3", "other text", True),
            ("https://d.example/4", "binary junk", False),
        ],
    )
    n_html, n_novel = novel_extracted(
        tmp_path / "w0", tmp_path / "n0", content_seen, wave=0
    )
    out0 = _read_novel(tmp_path / "n0")
    assert (n_html, n_novel) == (3, 2)
    assert sorted(out0["url"]) == ["https://a.example/1", "https://c.example/3"]
    assert out0["is_html"].all()

    # wave 1: one already-seen text (dropped), one new (kept)
    _write_processed(
        tmp_path / "w1",
        [
            ("https://e.example/5", "same text", True),
            ("https://f.example/6", "brand new", True),
        ],
    )
    n_html, n_novel = novel_extracted(
        tmp_path / "w1", tmp_path / "n1", content_seen, wave=1
    )
    out1 = _read_novel(tmp_path / "n1")
    assert (n_html, n_novel) == (2, 1)
    assert list(out1["url"]) == ["https://f.example/6"]

    # idempotent re-run of the SAME wave (retry semantics): identical output
    n_html, n_novel = novel_extracted(
        tmp_path / "w1", tmp_path / "n1b", content_seen, wave=1
    )
    assert (n_html, n_novel) == (2, 1)
    assert list(_read_novel(tmp_path / "n1b")["url"]) == ["https://f.example/6"]
    content_seen.shutdown()


def test_novel_extracted_empty_inputs(ray_session, tmp_path):
    from abwcf_ray.state.seen import SeenSet
    from abwcf_ray.stages.novel import novel_extracted

    content_seen = SeenSet(2)
    # missing dir
    assert novel_extracted(
        tmp_path / "missing", tmp_path / "n", content_seen, wave=0
    ) == (0, 0)
    # all non-html
    _write_processed(tmp_path / "w", [("https://a.example/1", "x", False)])
    assert novel_extracted(
        tmp_path / "w", tmp_path / "n2", content_seen, wave=0
    ) == (0, 0)
    content_seen.shutdown()


@pytest.fixture(scope="module")
def dedup_crawl(ray_session, tmp_path_factory):
    from abwcf_ray.pipelines.crawl import run_crawl

    corpus = generate_corpus(
        tmp_path_factory.mktemp("nc"), n_pages=600, seed=42, num_buckets=8
    )
    cfg = CrawlConfig(
        max_waves=4,
        wave_duration_s=10.0,
        seen_shards=4,
        max_crawl_depth=6,
        dedup_content=True,
    )
    out = tmp_path_factory.mktemp("crawl_nc")
    summary = run_crawl(cfg, corpus, out, log=lambda *_: None)
    return out, summary


def test_novel_e2e_first_occurrence_invariant(dedup_crawl):
    """Union of wave novel/ == first occurrence per content in wave order,
    min-url winner within a wave — recomputed brute-force from the
    processed checkpoints themselves."""
    out, summary = dedup_crawl
    waves = sorted(out.glob("wave_*"), key=lambda d: int(d.name.split("_")[1]))
    seen_texts: set = set()
    expected: list[tuple[int, str]] = []
    got: list[tuple[int, str]] = []
    for w, wdir in enumerate(waves):
        files = sorted(str(p) for p in (wdir / "processed").glob("*.parquet"))
        if files:
            df = (
                pads.dataset(files)
                .to_table(columns=["url", "text", "is_html"])
                .to_pandas()
            )
            html = df[df["is_html"]]
            winners = html.groupby("text", as_index=False)["url"].min()
            for r in winners.itertuples():
                if r.text not in seen_texts:
                    seen_texts.add(r.text)
                    expected.append((w, r.url))
        novel = _read_novel(wdir / "novel")
        got.extend((w, u) for u in novel["url"])
        # manifest records the count
        import json

        m = json.loads((wdir / "manifest.json").read_text())
        if "n_novel" in m:
            assert m["n_novel"] == len(novel)
    assert sorted(got) == sorted(expected)
    assert len(got) > 0  # the run extracted something
    # every content hash appears at most once across ALL novel outputs
    all_novel = pd.concat(
        [_read_novel(w / "novel") for w in waves], ignore_index=True
    )
    assert all_novel["text"].is_unique or all_novel.empty
