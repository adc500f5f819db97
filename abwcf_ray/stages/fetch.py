"""Fetch simulation (SURVEY.md §2 A2).

The reference fetches one URL at a time over HTTP (Fetcher.scala:74-188).
In the sandbox the "web" is the pages corpus, re-laid-out sorted by
``url_hash`` (sources/corpus.build_hashed_layout). The wave's (url_hash,
depth) pairs — politeness-bounded, a few MB — are ``ray.put`` once;
:func:`plan_pruned_fetch` turns them into work items naming only the row
groups whose footer hash range holds a selected hash, and each item is
read and membership-filtered with a vectorized ``searchsorted`` on the
stored hashes — O(selected) per wave, no shuffle. The crawl runs each item
through :func:`make_fetch_process_tee`, which also fetches url chunks
through a ``FetchTransport`` (stages/transport.py).
:func:`make_fetch_scan` (the full-corpus broadcast semi-join) and
:func:`make_pruned_fetch_reader` are kept as references for tests.

Missing urls (404s in FIXTURES.md §1) simply don't match; the driver
accounts them from ``n_selected - matched`` (every selected page ends
Processed regardless — FetchResultConsumer.scala:29-50).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from abwcf_ray.functions.hashing import hash64

FETCH_COLUMNS = ["url", "status", "content_type", "location", "x_robots_tag", "html"]

# per-worker caches: sel_ref -> (sorted url hashes, depths aligned to them),
# and transport_ref -> the transport its factory built
_SEL_CACHE: dict = {}
_TRANSPORT_CACHE: dict = {}


def _cached(cache: dict, ref, build):
    v = cache.get(ref)
    if v is None:
        if len(cache) >= 4:
            cache.pop(next(iter(cache)))
        v = cache[ref] = build(ray.get(ref))
    return v


def _selection(sel_ref):
    return _cached(_SEL_CACHE, sel_ref, lambda s: s)


def _transport(transport_ref):
    """The fetch transport of ``transport_ref`` (a ``ray.put`` factory),
    built once per worker process, so its connection pools and corpus
    index survive across fetch tasks."""
    return _cached(_TRANSPORT_CACHE, transport_ref, lambda factory: factory())


def make_selection_ref(urls, depths) -> "ray.ObjectRef":
    """Broadcast payload for the wave's fetch set: url hashes sorted for
    searchsorted lookup, with depths aligned."""
    h = hash64(list(urls))
    order = np.argsort(h)
    return ray.put((h[order], np.asarray(depths, dtype=np.int32)[order]))


def _read_item_fetched(
    path: str,
    rgs,
    hashes: np.ndarray,
    depths: np.ndarray,
    max_content_length: int | None,
) -> pa.Table:
    """ONE pruned-fetch work item -> fetched rows: read only the listed
    row groups, membership-filter on the stored ``url_hash`` (sorted-
    selection searchsorted probe, no re-hashing), align depths. The
    single kernel shared by the fused fetch+process tee and the plain
    pruned reader — the membership logic lives here once."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    t = pf.read_row_groups(list(rgs), columns=FETCH_COLUMNS + ["url_hash"])
    h = t.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
    pos = np.searchsorted(hashes, h)
    pos_c = np.minimum(pos, len(hashes) - 1)
    hit = (pos < len(hashes)) & (hashes[pos_c] == h)
    sub = t.filter(pa.array(hit))
    return _emit_fetched(
        sub.select(FETCH_COLUMNS), depths[pos_c[hit]], max_content_length
    )


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


def make_fetch_scan(sel_ref, max_content_length: int | None = None):
    """Corpus batch -> the wave's fetched rows (url, depth, status,
    content_type, location, x_robots_tag, html, length_exceeded).

    ``max_content_length`` rebuilds the reference's 1 MB body cap
    (Fetcher.scala:168-170, reference.conf:132): an oversize body is
    DISCARDED at the fetch boundary (the reference aborts the download) and
    the row is flagged ``length_exceeded`` — downstream it is consumed but
    never parsed, and the wave manifest histograms it as
    ``length_limit_exceeded``."""
    import pyarrow.compute as pc

    def fetch_scan(batch: pa.Table) -> pa.Table:
        hashes, depths = _selection(sel_ref)
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


# --------------------------------------------------------------------------
# Pruned fetch over the hash-sorted corpus layout (O(selected), not O(corpus))
# --------------------------------------------------------------------------
# Driver-side row-group index per hashed corpus dir: built once per LAYOUT
# from parquet footers (min/max url_hash per row group — the corpus layout
# is sorted by url_hash, sources/corpus.build_hashed_layout). The cache key
# includes a file-listing fingerprint (names + mtimes + sizes), so a
# rebuilt layout in the same process can never be planned against stale
# footers (phantom 404s / missing-file reads).
_RG_INDEX_CACHE: dict[tuple, tuple] = {}

# above this file count the footer reads fan out as Ray tasks (a 10^10-row
# corpus has 10^4-10^5 part files; serial driver-side footer reads would
# take minutes)
_PARALLEL_FOOTER_THRESHOLD = 64


def _footer_entries(path_batch: list[str]) -> tuple:
    """(rel ids within batch, rg ids, mins, maxs) from a batch of footers."""
    import pyarrow.parquet as pq

    rel_ids, rg_ids, mins, maxs = [], [], [], []
    for rel, p in enumerate(path_batch):
        md = pq.read_metadata(p)
        names = [md.schema.column(j).name for j in range(md.num_columns)]
        j = names.index("url_hash")
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(j).statistics
            if st is None or st.min is None:
                raise ValueError(
                    f"hashed corpus layout {p!r} row group {rg} lacks "
                    "url_hash statistics (written with "
                    "write_statistics=False?) — the pruned-fetch planner "
                    "needs min/max footers; regenerate the layout or use "
                    "the full-scan fetch path"
                )
            rel_ids.append(rel)
            rg_ids.append(rg)
            mins.append(st.min)
            maxs.append(st.max)
    return (
        np.asarray(rel_ids, dtype=np.int32),
        np.asarray(rg_ids, dtype=np.int32),
        np.asarray(mins, dtype=np.uint64),
        np.asarray(maxs, dtype=np.uint64),
    )


_footer_entries_task = ray.remote(_footer_entries)


def invalidate_rg_index(hashed_dir: str) -> None:
    """Drop any cached planner index for ``hashed_dir`` (layout rebuilt)."""
    for k in [k for k in _RG_INDEX_CACHE if k[0] == str(hashed_dir)]:
        _RG_INDEX_CACHE.pop(k, None)


def _hashed_index(hashed_dir: str):
    from pathlib import Path

    files = sorted(Path(hashed_dir).glob("*.parquet"))
    sig = hash(
        tuple((f.name, f.stat().st_mtime_ns, f.stat().st_size) for f in files)
    )
    key = (str(hashed_dir), sig)
    idx = _RG_INDEX_CACHE.get(key)
    if idx is not None:
        return idx
    invalidate_rg_index(hashed_dir)  # drop entries for older layouts
    paths = [str(p) for p in files]
    if len(paths) > _PARALLEL_FOOTER_THRESHOLD and ray.is_initialized():
        # sharded footer read: one task per chunk, driver merge is O(#row
        # groups) — the planner itself stays driver-side but its input
        # listing scales with workers, not with one process's IO
        n_chunks = max(1, min(len(paths) // 16, 64))
        chunks = [paths[i::n_chunks] for i in range(n_chunks)]
        parts = ray.get([_footer_entries_task.remote(c) for c in chunks])
        file_ids_l, rg_ids_l, mins_l, maxs_l = [], [], [], []
        # map each chunk's relative ids back to global positions
        for chunk_i, (rel, rg, mn, mx) in enumerate(parts):
            global_ids = np.arange(chunk_i, len(paths), n_chunks, dtype=np.int32)
            file_ids_l.append(global_ids[rel])
            rg_ids_l.append(rg)
            mins_l.append(mn)
            maxs_l.append(mx)
        idx = (
            paths,
            np.concatenate(file_ids_l) if file_ids_l else np.empty(0, np.int32),
            np.concatenate(rg_ids_l) if rg_ids_l else np.empty(0, np.int32),
            np.concatenate(mins_l) if mins_l else np.empty(0, np.uint64),
            np.concatenate(maxs_l) if maxs_l else np.empty(0, np.uint64),
        )
    else:
        rel, rg, mn, mx = _footer_entries(paths)
        idx = (paths, rel, rg, mn, mx)
    _RG_INDEX_CACHE[key] = idx
    return idx


def plan_pruned_fetch(
    hashed_dir: str, sel_hashes_sorted: np.ndarray, rgs_per_task: int = 2
) -> list[dict]:
    """Work items [(path, row-group indices)] covering exactly the row
    groups whose hash range contains >= 1 selected hash. The planner is
    O(#row_groups · log #selected) on the driver; at 10^10-URL scale the
    same pruning runs sharded (the index is per corpus bucket)."""
    paths, file_ids, rg_ids, mins, maxs = _hashed_index(hashed_dir)
    if len(mins) == 0 or len(sel_hashes_sorted) == 0:
        return []
    lo = np.searchsorted(sel_hashes_sorted, mins, side="left")
    hi = np.searchsorted(sel_hashes_sorted, maxs, side="right")
    hit = lo < hi  # some selected hash falls inside [min, max]
    items: list[dict] = []
    for f_id in np.unique(file_ids[hit]):
        rgs = rg_ids[hit & (file_ids == f_id)]
        for start in range(0, len(rgs), rgs_per_task):
            items.append(
                {
                    "path": paths[int(f_id)],
                    "rgs": [int(r) for r in rgs[start : start + rgs_per_task]],
                }
            )
    return items


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


def make_fetch_process_tee(
    sel_ref,
    process_fn,
    processed_dir: str,
    max_content_length: int | None = None,
    transport_ref=None,
):
    """FUSED wave stage: work item -> fetch -> ``process_fn`` (parse +
    extract, A7/B1-B3) -> WRITE this item's processed-checkpoint part ->
    emit only the candidate columns (``links``, ``child_depth``)
    downstream. A work item is either

    - a pruned-fetch item (``path``, ``rgs``, from :func:`plan_pruned_fetch`):
      read only the listed row groups and membership-filter them against
      the selection ``sel_ref``; or
    - a url chunk (``chunk``, ``urls``, ``depths``): fetched by the
      ``FetchTransport`` whose factory ``transport_ref`` holds, built once
      per worker process (stages/transport.py).

    This is the tee that lets one task per work item run fetch AND the
    candidate chain with no mid-wave barrier: writing the full processed
    parquet, waiting, and re-reading the link columns would cost two
    serialized phases plus a decompress round-trip on the wave's dominant
    payload. Here the checkpoint is a side effect.

    Retry/lineage safety: the part name is a pure function of the work item
    (``<source stem>-rg<first row group>``, or ``t<chunk index>``), so a
    re-executed task overwrites its own part with identical content instead
    of duplicating rows — the property that makes side-effect writes inside
    a retried task sound. Rows with no links are dropped from the emitted
    table (their checkpoint rows are already on disk)."""
    import pyarrow.parquet as pq
    from pathlib import Path

    def fetch_item(item: dict) -> tuple[str, pa.Table]:
        if "path" in item:
            hashes, depths = _selection(sel_ref)
            name = f"{Path(item['path']).stem}-rg{int(item['rgs'][0]):04d}"
            return name, _read_item_fetched(
                item["path"], item["rgs"], hashes, depths, max_content_length
            )
        fetched = _transport(transport_ref).fetch(
            item["urls"], np.asarray(item["depths"], dtype=np.int32)
        )
        return f"t{int(item['chunk']):05d}", fetched

    def fetch_process_write(batch: pa.Table) -> pa.Table:
        outs = []
        for item in batch.to_pylist():
            name, fetched = fetch_item(item)
            processed = process_fn(fetched)
            if processed.num_rows:
                pq.write_table(
                    processed, Path(processed_dir) / f"{name}.parquet", compression="zstd"
                )
            links = processed.select(["links", "child_depth"])
            has_links = pa.compute.greater(
                pa.compute.list_value_length(links.column("links")), 0
            )
            outs.append(links.filter(has_links))
        if not outs:
            return pa.table(
                {
                    "links": pa.array([], pa.list_(pa.string())),
                    "child_depth": pa.array([], pa.int32()),
                }
            )
        return pa.concat_tables(outs)

    return fetch_process_write


def make_pruned_fetch_reader(sel_ref, max_content_length: int | None = None):
    """Work-item batch -> fetched rows: read ONLY the listed row groups,
    membership-filter on the stored url_hash column (no re-hashing)."""
    import pyarrow.parquet as pq

    def read_items(batch: pa.Table) -> pa.Table:
        hashes, depths = _selection(sel_ref)
        outs = []
        for path, rgs in zip(
            batch.column("path").to_pylist(), batch.column("rgs").to_pylist()
        ):
            outs.append(
                _read_item_fetched(
                    path, rgs, hashes, depths, max_content_length
                )
            )
        if not outs:
            return empty_fetched_table()
        return pa.concat_tables(outs)

    return read_items
