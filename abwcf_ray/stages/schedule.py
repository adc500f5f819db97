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
budget) are then merged with one final top-k pass on the driver. No
all-to-all shuffle, and a heavy-hitter host never materializes as a single
group — every task prunes it to k_h rows first (this subsumes the
salted-repartition design in SURVEY.md §4.2: pruning before the merge is
strictly stronger than salting an exchange).

The merge has one venue: a single driver-side vectorized pass over the
collected partials, at most Σ_h k_h rows per task (SCALE.md §5 gives the
memory ceiling). It runs only when two or more partials have rows: a lone
partial is already the exact top-k. Each selected row carries its
``rank_in_host``; :func:`rank_selected_arrow` adds the global rank on the
driver, with one sort over the selected rows.

:func:`task_count` is the crawl's one fan-out rule: every task round of a
wave (selection here; fetch, claim, compaction, the host-histogram rescan,
the resume loads and the novel filter in pipelines/crawl.py and
stages/novel.py) runs one task per ``rows_per_task`` of the rows the
driver already knows, up to a cap, so a small wave runs one task a round.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

_SELECT_COLS = ["url", "host", "depth", "priority"]
RANK_IN_HOST = "rank_in_host"
_SELECTED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.int64()),
        (RANK_IN_HOST, pa.int32()),
    ]
)


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
    Python string comparison the oracle uses. Each kept row carries its
    ordinal within its host by (priority desc, url asc) as an int32
    ``rank_in_host`` column."""
    schema = t.schema.append(pa.field(RANK_IN_HOST, pa.int32()))
    if t.num_rows == 0:
        return schema.empty_table()
    import polars as pl

    ldf = (
        pl.from_arrow(t)
        .sort(["host", "priority", "url"], descending=[False, True, False])
        .with_columns(pl.int_range(pl.len()).over("host").alias("_r"))
    )
    out = ldf.to_arrow()
    k = _k_for_hosts(payload, out.column("host"), default_k)
    r = out.column("_r").to_numpy()
    out = out.filter(pa.array(r < k))
    out = out.rename_columns([RANK_IN_HOST if c == "_r" else c for c in out.column_names])
    # polars large_string round-trip -> normalize back to the frontier's
    # string type so downstream schema stays stable
    return out.cast(schema)


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


# rows one task of a round that reads parquet rows (selection, compaction,
# the host-histogram rescan, the resume loads, the novel filter) is sized
# for. Measured on selection (one CPU, a growing_frontier wave's files): a
# second task adds about 13 CPU-ms whatever its rows, and a row costs about
# 3.8 CPU-µs, so a task's row work pays for its own fixed cost from about
# 3,400 rows on.
ROWS_PER_TASK = 4096


def task_count(n_rows: int, rows_per_task: int, cap: int) -> int:
    """The fan-out rule of every wave task round: one task per
    ``rows_per_task`` rows, rounded up, at most ``cap`` and at least one.
    A small round runs one task; a large one spreads to the cap."""
    return max(1, min(-(-n_rows // max(1, int(rows_per_task))), cap))


def default_task_count(paths: list[str]) -> int:
    """:func:`task_count` for a library call that was given no count: the
    rows from the files' parquet footers, capped at twice the cluster's
    CPUs."""
    import pyarrow.parquet as pq

    n_rows = sum(pq.read_metadata(p).num_rows for p in paths)
    n_cpu = max(1, int(ray.cluster_resources().get("CPU", 1)))
    return task_count(n_rows, ROWS_PER_TASK, 2 * n_cpu)


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


@ray.remote
def _select_partial(paths, stages, columns, sched: dict):
    """One selection task: scan a group of files through ``stages``, keep
    the group's partial top-k per host of the rows not flagged
    ``rejected``, with their within-host ranks, and split the flagged ones
    off as reject keys. Returns (partial, reject keys)."""
    t = scan_parts(paths, stages, columns)
    if "rejected" in t.schema.names:
        rej = t.column("rejected")
    else:
        rej = pa.array(np.zeros(t.num_rows, dtype=bool))
    kept = topk_per_host_arrow(t.filter(pc.invert(rej)).select(_SELECT_COLS), sched)
    return kept, _reject_keys(t.filter(rej))


def select_wave(
    sources: list[str],
    stages,
    sched_ref: "ray.ObjectRef",
    *,
    columns: list[str] | None = None,
    n_tasks: int | None = None,
) -> tuple[pa.Table, pa.Table]:
    """Parquet files of frontier rows -> the wave's fetch set with exact
    per-host top-k under the politeness budget.

    ``sources`` are parquet files, read with ``columns``; ``stages`` are
    per-batch arrow callables applied to each task's table before the
    top-k (the crawl passes the eligible filter, then strict robots), so
    their rows must carry (url, host, depth, priority). ``sched_ref`` is a
    ``HostsState.sched_payload`` object ref (sorted host hashes +
    precomputed budgets, zero-copy numpy).

    Returns ``(selected, rejects)``: ``selected`` is an Arrow table of
    (url, host, depth, priority, rank_in_host), in no particular row
    order, where ``rank_in_host`` is the row's ordinal within its host by
    (priority desc, url asc) — :func:`rank_selected_arrow` adds the global
    rank. Rows flagged by an optional bool ``rejected`` column (the strict
    robots filter's known-rule rejects, C2) bypass the ranking;
    ``rejects`` is their ``(url_hash, host)`` table, unique by hash and
    sorted by it.

    Two levels: (1) plain Ray tasks, one per contiguous group of
    ``sources`` (``min(#files, n_tasks)`` groups; without ``n_tasks``,
    :func:`default_task_count` of the sources' rows), each scanning its
    files through ``stages`` and keeping its partial top-k (a superset of
    its contribution) and its reject keys, all fetched by one ``ray.get``;
    then (2) the exact per-host merge, one vectorized arrow top-k on the
    driver over the collected partials (politeness-bounded: each holds at
    most Σ_h k_h rows, ~96 B/row; measured 0.75 s at 300k partial rows and
    ~1.5 s at 940k). When only one partial has rows it is already the
    exact top-k, ranks included, and the driver merges nothing."""
    if n_tasks is None:
        n_tasks = default_task_count(sources)
    groups = file_groups(sources, n_tasks)
    outs = ray.get([_select_partial.remote(g, stages, columns, sched_ref) for g in groups])
    rejects = _unique_rejects([rej for _, rej in outs])
    partials = [kept for kept, _ in outs if kept.num_rows]
    if len(partials) == 1:
        return partials[0], rejects
    if not partials:
        return _SELECTED_SCHEMA.empty_table(), rejects
    t = pa.concat_tables(partials, promote_options="default").drop_columns([RANK_IN_HOST])
    merged = topk_per_host_arrow(t.combine_chunks(), ray.get(sched_ref))
    return merged, rejects


def rank_selected_arrow(selected: pa.Table, budget: int | None = None) -> pa.Table:
    """The wave's global order, in Arrow: ``selected`` sorted by (priority
    desc, url asc) with a ``global_rank`` int32 column, cut to its first
    ``budget`` rows when a page budget binds. The cut drops the lowest
    global ranks, which are also each host's lowest, so the
    ``rank_in_host`` values :func:`select_wave` gave the kept rows still
    hold. One sort over the selected rows — no more than the merge sorts.
    Equals :func:`rank_selected` (tested in tests/test_schedule_seen.py)."""
    order = pc.sort_indices(
        selected, sort_keys=[("priority", "descending"), ("url", "ascending")]
    )
    if budget is not None and budget < len(order):
        order = order[: max(0, int(budget))]
    out = selected.take(order)
    return out.append_column(
        "global_rank", pa.array(np.arange(out.num_rows, dtype=np.int32))
    )


def rank_selected(selected_df: pd.DataFrame) -> pd.DataFrame:
    """Canonical ordering columns for the fetch manifest / golden fixtures:
    per-host rank and global rank, both by (priority desc, url asc)
    (pandas form — kept as the readable reference; the waves rank with
    :func:`select_wave`'s ``rank_in_host`` and :func:`rank_selected_arrow`)."""
    df = selected_df.sort_values(
        ["priority", "url"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    df["global_rank"] = np.arange(len(df), dtype=np.int32)
    df["rank_in_host"] = df.groupby("host").cumcount().astype(np.int32)
    return df
