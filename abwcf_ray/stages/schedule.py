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
memory ceiling).
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
) -> tuple[pd.DataFrame, pa.Table]:
    """Parquet files of frontier rows -> the wave's fetch set with exact
    per-host top-k under the politeness budget.

    ``sources`` are parquet files, read with ``columns``; ``stages`` are
    per-batch arrow callables applied to each task's table before the
    top-k (the crawl passes the eligible filter, then strict robots), so
    their rows must carry (url, host, depth, priority). ``sched_ref`` is a
    ``HostsState.sched_payload`` object ref (sorted host hashes +
    precomputed budgets, zero-copy numpy).

    Returns ``(selected, rejects)``: ``selected`` is an unranked pandas
    frame. Rows flagged by an optional bool ``rejected`` column (the
    strict robots filter's known-rule rejects, C2) bypass the ranking;
    ``rejects`` is their ``(url_hash, host)`` table, unique by hash and
    sorted by it.

    Two levels: (1) plain Ray tasks, one per contiguous group of
    ``sources`` (``min(#files, n_tasks)`` groups; ``n_tasks`` defaults to
    twice the cluster's CPUs), each scanning its files through
    ``stages`` and keeping its partial top-k (a superset of its
    contribution) and its reject keys; then (2) the exact per-host merge,
    one vectorized arrow top-k on the driver over the collected partials
    (politeness-bounded: each holds at most Σ_h k_h rows, ~96 B/row;
    measured 0.75 s at 300k partial rows and ~1.5 s at 940k). The partial
    counts travel as their own task returns, so an empty wave fetches no
    partial."""
    if n_tasks is None:
        n_tasks = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    groups = file_groups(sources, n_tasks)
    tasks = [_select_partial.remote(g, stages, columns, sched_ref) for g in groups]
    counts = ray.get([t[0] for t in tasks])
    rejects = _unique_rejects(ray.get([t[2] for t in tasks]))
    partials = [t[1] for t, n in zip(tasks, counts) if n]
    if not partials:
        return _empty_selected(), rejects
    t = pa.concat_tables(ray.get(partials), promote_options="default").combine_chunks()
    merged = topk_per_host_arrow(t, ray.get(sched_ref))
    return merged.to_pandas().reset_index(drop=True), rejects


def rank_selected(selected_df: pd.DataFrame) -> pd.DataFrame:
    """Canonical ordering columns for the fetch manifest / golden fixtures:
    per-host rank and global rank, both by (priority desc, url asc)."""
    df = selected_df.sort_values(
        ["priority", "url"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    df["global_rank"] = np.arange(len(df), dtype=np.int32)
    df["rank_in_host"] = df.groupby("host").cumcount().astype(np.int32)
    return df
