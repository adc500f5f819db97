"""Fetch simulation (SURVEY.md §2 A2).

The reference fetches one URL at a time over HTTP (Fetcher.scala:74-188).
In the sandbox the "web" is the pages corpus, re-laid-out sorted by
``url_hash`` in uncompressed Arrow IPC files
(sources/corpus.build_hashed_layout), and a wave fetches exactly the pages
it selected: its selected urls, in url-hash order, are cut into chunks, and
one task per chunk runs :func:`make_fetch_process_tee`, which fetches the
chunk through a ``FetchTransport`` (stages/transport.py). The default
transport, ``CorpusTransport``, memory-maps the layout and copies only the
selected records — O(selected) per wave, no shuffle, no decompression.
:func:`make_fetch_scan` (the full-corpus broadcast semi-join) is kept as
the O(corpus) reference the tests compare against.

Missing urls (404s in FIXTURES.md §1) simply don't match; the driver
accounts them from ``n_selected - matched`` (every selected page ends
Processed regardless — FetchResultConsumer.scala:29-50).
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pyarrow as pa
import ray

from abwcf_ray.functions.hashing import hash64

FETCH_COLUMNS = ["url", "status", "content_type", "location", "x_robots_tag", "html"]

# per-worker cache: transport_ref -> the transport its factory built
_TRANSPORT_CACHE: dict = {}


def _transport(transport_ref):
    """The fetch transport of ``transport_ref`` (a ``ray.put`` factory),
    built once per worker process, so its connection pools and layout
    index survive across fetch tasks."""
    t = _TRANSPORT_CACHE.get(transport_ref)
    if t is None:
        if len(_TRANSPORT_CACHE) >= 4:
            _TRANSPORT_CACHE.pop(next(iter(_TRANSPORT_CACHE)))
        t = _TRANSPORT_CACHE[transport_ref] = ray.get(transport_ref)()
    return t


def _emit_fetched(
    sub: pa.Table, depth: np.ndarray, max_content_length: int | None
) -> pa.Table:
    """Matched corpus rows + aligned depths -> the fetch output schema,
    applying the body cap (Fetcher.scala:168-170): oversize bodies are
    dropped and flagged ``length_exceeded``."""
    import pyarrow.compute as pc

    html = sub.column("html")
    if max_content_length is not None:
        exceeded = pc.fill_null(
            pc.greater(pc.binary_length(html), max_content_length), False
        )
        html = pc.if_else(exceeded, pa.scalar(None, pa.binary()), html)
    else:
        exceeded = pa.array(np.zeros(sub.num_rows, dtype=bool))
    return pa.table(
        {
            "url": sub.column("url"),
            "depth": pa.array(depth, pa.int32()),
            "status": sub.column("status").cast(pa.int32()),
            "content_type": sub.column("content_type"),
            "location": sub.column("location"),
            "x_robots_tag": sub.column("x_robots_tag"),
            "html": html,
            "length_exceeded": exceeded,
        }
    )


def make_fetch_scan(urls, depths, max_content_length: int | None = None):
    """Corpus batch -> the fetched rows (url, depth, status, content_type,
    location, x_robots_tag, html, length_exceeded) of the selected
    ``urls``, each with its aligned ``depths`` entry: a hash semi-join of
    every corpus row, O(corpus) — the reference for the record reader.

    ``max_content_length`` rebuilds the reference's 1 MB body cap
    (Fetcher.scala:168-170, reference.conf:132): an oversize body is
    DISCARDED at the fetch boundary (the reference aborts the download) and
    the row is flagged ``length_exceeded`` — downstream it is consumed but
    never parsed, and the wave manifest histograms it as
    ``length_limit_exceeded``."""
    h_sel = hash64(list(urls))
    order = np.argsort(h_sel)
    hashes = h_sel[order]
    depths = np.asarray(depths, dtype=np.int32)[order]

    def fetch_scan(batch: pa.Table) -> pa.Table:
        h = hash64(batch.column("url"))
        pos = np.searchsorted(hashes, h)
        pos_c = np.minimum(pos, len(hashes) - 1) if len(hashes) else pos
        hit = (
            (pos < len(hashes)) & (hashes[pos_c] == h)
            if len(hashes)
            else np.zeros(len(h), dtype=bool)
        )
        sub = batch.filter(pa.array(hit))
        depth = depths[pos_c[hit]] if len(hashes) else np.array([], dtype=np.int32)
        return _emit_fetched(sub, depth, max_content_length)

    return fetch_scan


def invalidate_rg_index(hashed_dir: str) -> None:
    """No-op, kept because the benchmark (perfbench/run.py) still imports
    and calls it between the segments of a restarted run. It dropped the
    parquet layout's row-group index cache; the record layout has no
    cache. Nothing in the engine calls it."""


def plan_pruned_fetch(*args, **kwargs):
    """Removed with the parquet row-group layout; the name stays because
    the benchmark's tracer (perfbench/tracing.py) wraps it by name. Nothing
    in the engine calls it, so traced ``fetch.row_groups`` and
    ``fetch.read_amplification`` read 0."""
    raise RuntimeError(
        "plan_pruned_fetch was removed: waves fetch url chunks through "
        "stages/transport.CorpusTransport"
    )


def empty_fetched_table() -> pa.Table:
    """Zero-row table in the fetch output schema (e.g. when no selected url
    exists in the corpus — every fetch 404s)."""
    return _emit_fetched(
        pa.table(
            {
                "url": pa.array([], pa.string()),
                "status": pa.array([], pa.int32()),
                "content_type": pa.array([], pa.string()),
                "location": pa.array([], pa.string()),
                "x_robots_tag": pa.array([], pa.string()),
                "html": pa.array([], pa.binary()),
            }
        ),
        np.array([], dtype=np.int32),
        None,
    )


def make_fetch_process_tee(process_fn, processed_dir: str, selected_dir: str, transport_ref):
    """FUSED wave stage: url chunk -> WRITE this chunk's slice of the
    wave's selected manifest -> fetch -> ``process_fn`` (parse + extract,
    A7/B1-B3) -> WRITE this chunk's processed-checkpoint part -> emit only
    the candidate columns (``links``, ``child_depth``) downstream. A work
    item is one chunk of the wave's ranked selected rows: a ``chunk``
    index column, then the manifest columns (wave, host, rank_in_host,
    global_rank, url, priority, depth). Its urls are fetched by the
    ``FetchTransport`` whose factory ``transport_ref`` holds, built once
    per worker process (stages/transport.py).

    This is the tee that lets one task per work item run fetch AND the
    candidate chain with no mid-wave barrier: writing the full processed
    parquet, waiting, and re-reading the link columns would cost two
    serialized phases plus a decompress round-trip on the wave's dominant
    payload. Here the checkpoints are side effects.

    Retry/lineage safety: both part names are pure functions of the work
    item (``selected/part-<chunk>.parquet``, ``processed/t<chunk>.parquet``),
    so a re-executed task overwrites its own parts with identical content
    instead of duplicating rows — the property that makes side-effect
    writes inside a retried task sound. Rows with no links are dropped
    from the emitted table (their checkpoint rows are already on disk)."""
    return functools.partial(
        _fetch_process_write, process_fn, processed_dir, selected_dir, transport_ref
    )


def _fetch_process_write(
    process_fn, processed_dir: str, selected_dir: str, transport_ref, item: pa.Table
) -> pa.Table:
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    if not item.num_rows:  # a wave whose page budget was already spent
        return process_fn(empty_fetched_table()).select(["links", "child_depth"])
    chunk = item.column("chunk")[0].as_py()
    item = item.drop_columns(["chunk"])
    pq.write_table(item, Path(selected_dir) / f"part-{chunk}.parquet")
    fetched = _transport(transport_ref).fetch(
        item.column("url").to_pylist(), item.column("depth").to_numpy()
    )
    processed = process_fn(fetched)
    if processed.num_rows:
        pq.write_table(
            processed, Path(processed_dir) / f"t{chunk:05d}.parquet", compression="zstd"
        )
    links = processed.select(["links", "child_depth"])
    return links.filter(pc.greater(pc.list_value_length(links.column("links")), 0))
