"""Correctness gate: a crawl's on-disk output against the oracle's result.

Four checks, each named in the report:

- ``order``: every wave's selected manifest, in global rank order, equals the
  oracle's (host, rank_in_host, url) list for that wave, and no wave past the
  oracle's last one selected anything;
- ``frontier``: the final logical frontier (url, status, depth, priority)
  equals the oracle's;
- ``seen``: the seen-set size and the frontier's url set equal the oracle's
  seen set;
- ``text``: the set of extracted pages equals the oracle's, and every
  extracted text is byte-identical to the corpus ``text`` column. Pages whose
  text differs are counted as ``failed`` against ``attempted`` extracted
  pages.

:func:`corrupt` damages a finished crawl's output on purpose, so the smoke
test can show that each check fires.
"""

from __future__ import annotations

import json
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

CHECKS = ("order", "frontier", "seen", "text")


def _wave_dirs(out: Path) -> list[Path]:
    return sorted(out.glob("wave_*"), key=lambda d: int(d.name.split("_")[1]))


def _parts(d: Path) -> list[str]:
    return sorted(str(p) for p in d.rglob("*.parquet")) if d.exists() else []


def check(out: Path, last_wave_dir: str, seen_size: int, oracle: dict, corpus) -> dict:
    """Compare the crawl under ``out`` with ``oracle``. Needs a Ray session
    (the final frontier is read through ``frontier_dataset``)."""
    from abwcf_ray.pipelines.crawl import frontier_dataset

    ok: dict[str, bool] = {}

    bad_waves = []
    for d in _wave_dirs(out):
        w = int(d.name.split("_")[1])
        parts = _parts(d / "selected")
        if parts:
            sel = pads.dataset(parts).to_table().to_pandas().sort_values("global_rank")
            got = list(zip(sel["host"], sel["rank_in_host"].astype(int), sel["url"]))
        else:
            got = []
        expected = oracle["order"][w] if w < len(oracle["order"]) else []
        if got != expected:
            bad_waves.append(w)
    # the crawl must have run every wave the oracle selected in
    n_run = len(_wave_dirs(out))
    ok["order"] = not bad_waves and n_run >= len(oracle["order"])

    front = frontier_dataset(last_wave_dir).to_pandas()
    got_f = sorted(
        zip(front["url"], front["status"], front["depth"].astype(int), front["priority"].astype(int))
    )
    ok["frontier"] = got_f == [tuple(r) for r in oracle["frontier"]]
    ok["seen"] = seen_size == len(oracle["seen"]) and sorted(front["url"]) == oracle["seen"]

    frames = []
    for d in _wave_dirs(out):
        parts = _parts(d / "processed")
        if parts:
            t = pads.dataset(parts).to_table(columns=["url", "text", "is_html"])
            frames.append(t.filter(t.column("is_html")).select(["url", "text"]).to_pandas())
    got_t = pd.concat(frames) if frames else pd.DataFrame({"url": [], "text": []})
    truth = (
        pads.dataset(corpus.pages_dir)
        .to_table(columns=["url", "text"])
        .to_pandas()
        .drop_duplicates("url")
        .set_index("url")["text"]
    )
    ref = truth.reindex(got_t["url"]).to_numpy()
    failed = int(sum(1 for a, b in zip(got_t["text"], ref) if a != b or a is None))
    attempted = len(got_t)
    ok["text"] = failed == 0 and sorted(got_t["url"]) == oracle["extracted"]
    return {
        "checks": ok,
        "bad_waves": bad_waves,
        "attempted": attempted,
        "failed": failed,
        "correct": all(ok.values()),
    }


def corrupt(out: Path, last_wave_dir: str) -> None:
    """Damage one thing per check: swap two pages in wave 0's selected
    manifest, alter one extracted text, and add a url that was never
    discovered to the final frontier."""
    sel = out / "wave_0000" / "selected" / "part-0.parquet"
    t = pq.read_table(sel).to_pandas().sort_values("global_rank").reset_index(drop=True)
    t.loc[[0, 1], "url"] = t.loc[[1, 0], "url"].to_numpy()
    pq.write_table(pa.Table.from_pandas(t, preserve_index=False), sel)

    for part in _parts(out / "wave_0000" / "processed"):
        p = pq.read_table(part).to_pandas()
        html = p.index[p["is_html"]]
        if len(html):
            p.loc[html[0], "text"] = p.loc[html[0], "text"] + " "
            pq.write_table(pa.Table.from_pandas(p, preserve_index=False), part)
            break

    wd = Path(last_wave_dir)
    if any((wd / "frontier").rglob("*.parquet")):
        dest = next(p.parent for p in (wd / "frontier").rglob("*.parquet"))
    else:
        chain = json.loads((wd / "manifest.json").read_text())["frontier_chain"]
        dest = out / (chain["deltas"][-1] if chain["deltas"] else chain["base"])
    template = pq.read_table(next(iter(_parts(dest)))).slice(0, 1).to_pandas()
    template.loc[0, "url"] = "https://corrupt.example/never-discovered"
    pq.write_table(
        pa.Table.from_pandas(template, preserve_index=False),
        dest / "part-corrupt.parquet",
    )
