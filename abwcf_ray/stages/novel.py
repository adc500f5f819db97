"""Cross-wave novel-content filter: emit each distinct extracted text ONCE
over the life of the crawl (the production-crawl "content-seen" dedup —
the same role the URL-seen set plays for the frontier, applied to page
content, so a mirror/alias fetched in wave 12 does not re-emit text first
extracted in wave 3).

Reuses the sharded, wave-versioned ``SeenSet`` actors (state/seen.py F1)
keyed by ``hash64(text)``. Two rounds of plain Ray tasks, one per group of
processed parts (``schedule.file_groups``); text never leaves a task:

1. **Slim arbitration** — each task reads only (url, text, is_html) of its
   parts and reduces its html rows to one (content_hash, min url) pair per
   distinct hash. The driver merges the pairs to the wave's winner url
   per hash, probes the content-seen shards for hashes from EARLIER waves,
   and adds the novel ones under this wave's tag. Only 8-byte hashes +
   winner urls reach the driver — never text.
2. **Emit** — each task re-reads its parts, keeps the rows whose url is a
   novel winner (sorted url-hash array, searchsorted probe), and writes
   one ``novel/`` part per source part (deterministic name → a retried
   task overwrites identical bytes).

Retry/idempotence: ``SeenSet.contains(before_wave=wave)`` ignores this
wave's own adds and ``add`` is an idempotent hash-set union, so a re-run of
the same wave reproduces exactly the same novel set; the emit tasks key
part names to their inputs. The winner-url array is wave-bounded (≤ the
politeness budget), the same size class as the wave's selection broadcast.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from abwcf_ray.functions.hashing import hash64
from abwcf_ray.stages.schedule import file_groups


@ray.remote
def _slim(paths: list[str]) -> pd.DataFrame:
    """(content_hash, min url) per distinct html text of a group of parts."""
    t = pa.concat_tables(
        [pq.read_table(p, columns=["url", "text", "is_html"]) for p in paths],
        promote_options="default",
    )
    t = t.filter(t.column("is_html"))
    df = pd.DataFrame(
        {"content_hash": hash64(t.column("text")), "url": t.column("url").to_pandas()}
    )
    return df.groupby("content_hash", as_index=False)["url"].min()


@ray.remote
def _emit(paths: list[str], novel_dir: str, winners: np.ndarray) -> tuple[int, int]:
    """Write the html rows of each part whose url hash is in the sorted
    ``winners`` to ``novel_dir`` under the part's name; (html, kept) rows."""
    n_html = n_kept = 0
    for path in paths:
        t = pq.read_table(path)
        html = t.filter(t.column("is_html"))
        uh = hash64(html.column("url"))
        if len(winners):
            pos = np.minimum(np.searchsorted(winners, uh), len(winners) - 1)
            keep = winners[pos] == uh
        else:
            keep = np.zeros(len(uh), dtype=bool)
        out = html.filter(pa.array(keep))
        if out.num_rows:
            pq.write_table(out, Path(novel_dir) / Path(path).name, compression="zstd")
        n_html += html.num_rows
        n_kept += out.num_rows
    return n_html, n_kept


def novel_extracted(
    processed_dir: str | Path,
    novel_dir: str | Path,
    content_seen,
    wave: int,
) -> tuple[int, int]:
    """Filter the wave's processed checkpoint to never-seen-before content;
    write the surviving rows (all columns) under ``novel_dir``. Returns
    ``(n_html, n_novel)``. ``content_seen`` is a ``state.seen.SeenSet``
    dedicated to content hashes (NOT the URL seen set)."""
    novel_dir = Path(novel_dir)
    novel_dir.mkdir(parents=True, exist_ok=True)
    files = sorted(str(p) for p in Path(processed_dir).glob("*.parquet"))
    if not files:
        return 0, 0
    groups = file_groups(files, 2 * max(1, int(ray.cluster_resources().get("CPU", 1))))
    pairs = pd.concat(ray.get([_slim.remote(g) for g in groups]), ignore_index=True)
    best = pairs.groupby("content_hash", as_index=False)["url"].min()
    hashes = best["content_hash"].to_numpy(dtype=np.uint64)
    # earlier-wave membership only: this wave's own adds are invisible, so
    # a re-run of the wave reproduces the identical novel set
    novel = ~content_seen.contains(hashes, before_wave=wave)
    content_seen.add(hashes[novel], wave)
    winners = ray.put(np.sort(hash64(best["url"].to_numpy()[novel].tolist())))
    counts = ray.get([_emit.remote(g, str(novel_dir), winners) for g in groups])
    return sum(c[0] for c in counts), sum(c[1] for c in counts)
