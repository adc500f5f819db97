"""The crawl wave driver (SURVEY.md §3.4).

Each wave is a few rounds of plain Ray tasks over the frontier chain's
parquet files and chunks of the selected urls — a crawl starts no Ray Data
execution, warm-up included; each task runs the per-batch arrow callables
of the stages below in sequence:

    eligible  = frontier.filter(status == 'Discovered')
    host-prep : unknown/expired hosts -> robots fetch-sim -> hosts table
    strict    : broadcast hosts join (C2, fail-close) over the rows of the
                hosts whose robots host-prep just fetched; rejects stay
                flagged rows
    select    : shuffle-free partial top-k_h per host (politeness, D1/D2),
                one task per group of chain files, with within-host ranks;
                the flagged rejects split off as the wave's Disallowed set
    rank      : on the driver, in Arrow: one sort by (priority desc, url
                asc) gives the global rank, and a binding page budget
                keeps the first rows of that order
    fetch     : one task per chunk of the ranked selected rows (A2), in
                url-hash order, fetched by the run's transport — by
                default a ``CorpusTransport`` that copies only the chunk's
                records out of the memory-mapped hashed layout — in the
                fused tee, which writes the chunk's slice of the selected
                manifest (``selected/part-<chunk>``) and its processed part
    process   : extract text (A7) + links (B1-B3) in one html pass
    cand'     : explode -> normalize (B4) -> scope (B5) -> within-batch
                dedup (B6), in the fetch task
    claim     : each url has one claimant: min depth, minus the seen set,
                -> lenient (C1) on the new rows only, the survivors added
                to the seen set (F1) -> prioritize (B7) -> the delta
                part. A wave of one fetch task claims inside it (a one-way
                hash exchange is the identity). A wave of two or more
                fetch tasks returns each task's candidates split by url
                hash, and claim task i takes part i of every fetch task
    frontier' = DELTA checkpoint: new rows append as ``delta/`` part files
                and status changes (politeness-bounded) append as a tiny
                ``flips.parquet`` — O(changed) per wave, never a frontier
                rewrite (the Ray analog of the reference's batched
                ``UPDATE pages SET status``, SlickPageRepository.scala:37-51,
                Batcher.scala:14-62). The logical frontier is
                base ∪ deltas with the accumulated flips overlaid at read
                time (`make_eligible_filter` / `frontier_dataset`); the
                chain is folded into a fresh materialized base every
                ``cfg.frontier_compact_every`` waves and at frontier drain.

Every round sizes its fan-out by one rule, ``schedule.task_count(n_rows,
rows_per_task, cap)`` = ``max(1, min(ceil(n_rows / rows_per_task), cap))``,
with rows the driver already holds: selection the host ledger's eligible
rows, fetch and claim the selected urls (per
``fetch_transport_batch_size``; the claim round runs only when the fetch
has two or more tasks), compaction the frontier's rows (capped at
the CPUs), the host-histogram rescan and the resume loads the manifest's
``n_frontier``, the novel filter the wave's processed rows. The rounds
that read parquet rows aim at ``schedule.ROWS_PER_TASK`` rows a task;
every cap but compaction's is twice the CPUs.

A wave has one of two shapes, decided on the driver from numbers it
already holds:

- **one task** (``_select_fetch_claim``): the selection round is one task
  (one file group) and the politeness bound Σ_h min(c_h, k_h) — eligible
  rows c_h from the host ledger, budgets k_h from the scheduler payload,
  default 1 — fits one fetch task. The ledger is exact, so the wave
  selects at most that many urls, and its fetch would be one task anyway.
  One ``_fetch_task`` then selects, ranks, fetches, runs the candidate
  chain and claims; it returns the reject keys, the selected url hashes,
  the per-host selected counts and the claim's counts, never the
  selected rows. The wave makes one task round trip (manifest
  ``task_rounds`` 1);
- **rounds**: a selection round (``select_wave``, merged on the driver),
  the rank on the driver, a fetch round and, with two or more fetch
  tasks, a claim round (``task_rounds`` 2 or 3).

A compaction round runs after either when one is due. The wave's small
payloads (the flips, the robots rules and recheck set, the scheduler
payload, compaction's status arrays, the transport factory) travel by
value in the task specs below Ray's inline-argument limit, and are
``ray.put`` once per wave above it (stages/payload.py): a small wave makes
no object-store round trip for them.

The steady-state wave contains NO all-to-all exchange and NO O(frontier)
write (see stages/schedule, stages/fetch, state/seen docstrings for each
replacement). Only the read helpers for finished waves
(:func:`frontier_dataset`, :func:`restore_topk`) use Ray Data, and import
it when called.

:func:`run_crawl` is a loop over named step functions sharing one
``_Run`` (cross-wave state) and one ``_Wave`` per wave: open (resume or
seed, then warm-up), host prep, then either the one-task wave or select,
rank, fetch and candidates (and the claim, in a wave of one fetch task),
then claim and frontier write, ledger update, compaction, and the finish
step (the manifest, which records the rounds' ``select_tasks``,
``fetch_tasks``, ``claim_tasks`` and ``task_rounds``, and the wave's
``fetch_bound``) that every wave, the drain wave included, ends with.

Control returns to the driver only at wave boundaries. The frontier chain
is parquet-checkpointed per wave, and the hosts table by each wave whose
host prep fetched robots (the only change to it), with a manifest naming
the current hosts checkpoint and recording per-file row counts — the
per-partition lineage that makes a killed run resumable from the last
completed wave (:func:`run_crawl` with ``resume=True``; the reference's
equivalent is the pages/hosts SQL tables, SURVEY.md §3.3). The seen sets
write nothing: the chain's urls are the URL seen set and the ``novel/``
parts' texts the content seen set, and a resume reloads the shards from
them.

The virtual clock is ``now = wave_index * wave_duration`` (SURVEY.md §2 G):
robots TTLs and the politeness window are functions of the wave index, never
wall clock, so runs are reproducible.
"""

from __future__ import annotations

import functools
import json
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from abwcf_ray.config import CrawlConfig
from abwcf_ray.functions.hashing import hash64, impl_id
from abwcf_ray.sources.corpus import CorpusMeta, build_hashed_layout, layout_is_valid
from abwcf_ray.stages.fetch import (
    empty_fetched_table,
    make_fetch_process_tee,
    plan_pruned_fetch,  # noqa: F401 — a stub the benchmark's tracer wraps by name
)
from abwcf_ray.stages import schedule
from abwcf_ray.stages.payload import ship
from abwcf_ray.stages.schedule import (
    _unique_rejects,
    apply_stages,
    file_groups,
    k_for_hashes,
    rank_selected_arrow,
    scan_parts,
    select_partial,
    select_wave,
    task_count,
)
from abwcf_ray.stages.transform import (
    FRONTIER_SCHEMA,
    STATUS_DISALLOWED,
    STATUS_DISCOVERED,
    STATUS_PROCESSED,
    claim_partition,
    explode_links,
    host_count_dict,
    make_eligible_filter,
    make_lenient_robots_filter,
    make_normalize_stage,
    make_process_fetched_stage,
    make_prioritize_stage,
    make_propose,
    make_scope_filter_stage,
    make_strict_robots_filter,
    make_update_status,
    partial_host_counts,
    split_by_hash,
)
from abwcf_ray.stages.transport import CorpusTransport
from abwcf_ray.state.hosts import HostsState, RobotsFetchSim
from abwcf_ray.state.seen import SeenSet


@dataclass
class CrawlSummary:
    out_dir: str
    waves: int = 0
    total_fetched: int = 0
    final_frontier_rows: int = 0
    seen_size: int = 0
    warmup_s: float = 0.0
    per_wave: list[dict] = field(default_factory=list)

    @property
    def last_wave_dir(self) -> str:
        return str(Path(self.out_dir) / f"wave_{self.waves - 1:04d}")


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two SORTED unique uint64 arrays. np.union1d quicksorts the
    concatenation (O(F log F) comparisons on up to frontier_compact_max_flips
    elements, twice per wave on the driver); a stable sort of two sorted
    runs is adaptive/radix for ints, then one diff pass dedups — same
    result, linear-ish."""
    if not len(a):
        return b
    if not len(b):
        return a
    c = np.concatenate([a, b])
    c.sort(kind="stable")
    keep = np.r_[True, c[1:] != c[:-1]]
    return c[keep]


def _wave_dir(out_dir: Path, n: int) -> Path:
    return out_dir / f"wave_{n:04d}"


def _file_lineage(directory: Path) -> list[dict]:
    out = []
    for f in sorted(directory.rglob("*.parquet")):
        out.append({"file": str(f.relative_to(directory)), "rows": pq.read_metadata(f).num_rows})
    return out


class _HostLedger:
    """Columnar Discovered-per-host ledger: parallel arrays sorted by
    ``hash64(host)`` (hash, count, host string). Per-wave updates (selected
    − rejects + claims) are politeness-bounded vectorized merges; the
    per-wave reads — eligible hosts, eligible total, negative-drift check —
    are numpy masks, never an O(#hosts) Python comprehension (the same
    flaw class the round-2 hosts-table dict had, fixed the same way)."""

    __slots__ = ("h", "c", "host")

    def __init__(self) -> None:
        self.h = np.empty(0, np.uint64)
        self.c = np.empty(0, np.int64)
        self.host = np.empty(0, object)

    @classmethod
    def from_counts(cls, hosts, counts) -> "_HostLedger":
        led = cls()
        led.apply(hosts, counts)
        return led

    def apply(self, hosts, deltas) -> None:
        hosts = np.asarray(list(hosts), dtype=object)
        if not len(hosts):
            return
        hh = hash64(hosts)
        dd = np.asarray(deltas, dtype=np.int64)
        order = np.argsort(hh, kind="stable")
        hh, dd, hosts = hh[order], dd[order], hosts[order]
        uniq = np.ones(len(hh), dtype=bool)
        uniq[1:] = hh[1:] != hh[:-1]
        if not uniq.all():
            dd = np.add.reduceat(dd, np.flatnonzero(uniq))
            hh, hosts = hh[uniq], hosts[uniq]
        if len(self.h):
            pos = np.minimum(np.searchsorted(self.h, hh), len(self.h) - 1)
            found = self.h[pos] == hh
            np.add.at(self.c, pos[found], dd[found])
        else:
            found = np.zeros(len(hh), dtype=bool)
        if not found.all():
            new = ~found
            mh = np.concatenate([self.h, hh[new]])
            o = np.argsort(mh, kind="stable")
            self.h = mh[o]
            self.c = np.concatenate([self.c, dd[new]])[o]
            self.host = np.concatenate([self.host, hosts[new]])[o]

    def eligible(self) -> tuple[np.ndarray, int]:
        """(host strings with count > 0, Σ eligible counts) — one mask."""
        mask = self.c > 0
        return self.host[mask], int(self.c[mask].sum())

    def fetch_bound(self, sched: dict) -> int:
        """Σ_h min(c_h, k_h) over the eligible hosts, with k_h from the
        scheduler payload ``sched`` (default 1): no selection from these
        counts can take more rows. The ledger is exact, so the wave's
        selected count is at most this; strict-robots rejects and the page
        budget only lower it."""
        mask = self.c > 0
        return int(np.minimum(self.c[mask], k_for_hashes(sched, self.h[mask])).sum())

    def has_negative(self) -> bool:
        return bool(len(self.c)) and bool((self.c < 0).any())

    def prune(self) -> None:
        mask = self.c > 0
        if not mask.all():
            self.h, self.c, self.host = self.h[mask], self.c[mask], self.host[mask]


class _FrontierChain:
    """Driver-side ledger of the frontier checkpoint chain.

    The frontier on disk is ``base`` (a materialized parquet dir) plus an
    append-only list of per-wave ``delta/`` dirs (new Discovered rows) and
    ``flips.parquet`` files (url_hash -> new status; politeness-bounded).
    Rows are immutable once written — a wave changes the frontier only by
    appending. The cumulative flip hashes are also held here as sorted
    uint64 arrays for the per-wave broadcast (their size is bounded by
    pages fetched since the last compaction, and compaction resets them).
    """

    def __init__(self, out: Path, base: Path):
        self.out = Path(out)
        self.base = Path(base)
        self.deltas: list[Path] = []
        self.flip_files: list[Path] = []
        self.cum_processed = np.empty(0, dtype=np.uint64)
        self.cum_disallowed = np.empty(0, dtype=np.uint64)

    def sources(self) -> list[str]:
        # every part FILE of the chain, for the per-file-group tasks (the
        # listing is O(chain length × part files), driver-side, cheap).
        # rglob: a compacted base is status-split into discovered/ +
        # settled/ subdirs (see _compact_frontier)
        out: list[str] = []
        for d in [self.base] + self.deltas:
            out.extend(str(p) for p in sorted(Path(d).rglob("*.parquet")))
        return out

    def eligible_sources(self) -> list[str]:
        """Parts that can contain ELIGIBLE (Discovered, unflipped) rows:
        the base's discovered/ split if it has one (compaction writes the
        frontier status-partitioned, so a mature crawl's eligible scan is
        O(Discovered), not O(frontier)) plus every delta (deltas are new
        rows, all Discovered). Falls back to every part for an un-split
        base (the init frontier) or an empty split."""
        out: list[str] = []
        disc = Path(self.base) / "discovered"
        base_parts = (
            sorted(str(p) for p in disc.rglob("*.parquet")) if disc.exists() else []
        )
        if not base_parts:
            base_parts = sorted(str(p) for p in Path(self.base).rglob("*.parquet"))
        out.extend(base_parts)
        for d in self.deltas:
            out.extend(str(p) for p in sorted(Path(d).rglob("*.parquet")))
        return out

    def flips_merged(self) -> np.ndarray:
        return _sorted_union(self.cum_processed, self.cum_disallowed)

    def add_wave(
        self,
        delta_dir: Path | None,
        flips_path: Path | None,
        processed: np.ndarray,
        disallowed: np.ndarray,
    ) -> None:
        if delta_dir is not None:
            self.deltas.append(Path(delta_dir))
        if flips_path is not None:
            self.flip_files.append(Path(flips_path))
        if len(processed):
            self.cum_processed = _sorted_union(self.cum_processed, processed)
        if len(disallowed):
            self.cum_disallowed = _sorted_union(
                self.cum_disallowed, disallowed
            )

    def reset(self, base: Path) -> None:
        self.base = Path(base)
        self.deltas = []
        self.flip_files = []
        self.cum_processed = np.empty(0, dtype=np.uint64)
        self.cum_disallowed = np.empty(0, dtype=np.uint64)

    def manifest_entry(self) -> dict:
        return {
            "base": str(self.base.relative_to(self.out)),
            "deltas": [str(d.relative_to(self.out)) for d in self.deltas],
            "flips": [str(f.relative_to(self.out)) for f in self.flip_files],
        }

    @classmethod
    def from_manifest(cls, out: Path, manifest: dict) -> "_FrontierChain":
        entry = manifest["frontier_chain"]
        chain = cls(out, out / entry["base"])
        chain.deltas = [out / d for d in entry["deltas"]]
        chain.flip_files = [out / f for f in entry["flips"]]
        proc, dis = _load_flips(out, entry["flips"])
        chain.cum_processed, chain.cum_disallowed = proc, dis
        return chain


def _load_flips(out: Path, flip_relpaths: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (processed, disallowed) sorted hash arrays from the
    chain's flips files (each politeness-bounded, so this is O(fetched
    since last compaction), read on the driver)."""
    proc_parts, dis_parts = [], []
    for rel in flip_relpaths:
        t = pq.read_table(out / rel)
        h = t.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        s = np.asarray(t.column("status").to_pylist(), dtype=object)
        proc_parts.append(h[s == STATUS_PROCESSED])
        dis_parts.append(h[s == STATUS_DISALLOWED])
    proc = np.unique(np.concatenate(proc_parts)) if proc_parts else np.empty(0, np.uint64)
    dis = np.unique(np.concatenate(dis_parts)) if dis_parts else np.empty(0, np.uint64)
    return proc.astype(np.uint64), dis.astype(np.uint64)


def _write_flips(path: Path, processed: np.ndarray, disallowed: np.ndarray) -> int:
    h = np.concatenate([processed.astype(np.uint64), disallowed.astype(np.uint64)])
    status = [STATUS_PROCESSED] * len(processed) + [STATUS_DISALLOWED] * len(disallowed)
    pq.write_table(
        pa.table(
            {
                "url_hash": pa.array(h, pa.uint64()),
                "status": pa.array(status, pa.string()),
            }
        ),
        path,
    )
    return len(h)


# rows a compaction task buffers per split before writing a row group
_COMPACT_ROW_GROUP = 1 << 20


@ray.remote
def _compact_group(index: int, paths: list[str], stages, dest: str) -> None:
    """One compaction task: fold the flips (``stages``) into a group of
    chain files and write the group's Discovered rows to
    ``dest/discovered/part-<index>.parquet`` and the rest to
    ``dest/settled/part-<index>.parquet`` (a split with no rows writes no
    part). Files stream through one at a time, buffering at most
    ``_COMPACT_ROW_GROUP`` rows per split. The part names are a function
    of the group index alone, so a retried task overwrites its own parts
    with identical bytes."""
    pending: dict[str, list[pa.Table]] = {"discovered": [], "settled": []}
    writers: dict[str, pq.ParquetWriter] = {}

    def flush(split: str) -> None:
        if split not in writers:
            (Path(dest) / split).mkdir(parents=True, exist_ok=True)
            writers[split] = pq.ParquetWriter(
                Path(dest) / split / f"part-{index:05d}.parquet", FRONTIER_SCHEMA
            )
        writers[split].write_table(pa.concat_tables(pending[split]))
        pending[split] = []

    for path in paths:
        t = apply_stages(pq.ParquetFile(path).read(), stages)
        t = t.select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA)
        disc = pc.equal(t["status"], STATUS_DISCOVERED)
        for split, mask in (("discovered", disc), ("settled", pc.invert(disc))):
            part = t.filter(mask)
            if part.num_rows:
                pending[split].append(part)
                if sum(x.num_rows for x in pending[split]) >= _COMPACT_ROW_GROUP:
                    flush(split)
    for split in pending:
        if pending[split]:
            flush(split)
    for w in writers.values():
        w.close()


def _compact_frontier(chain: _FrontierChain, dest: Path, n_tasks: int) -> int:
    """Fold base + deltas + flips into a fresh materialized frontier at
    ``dest`` and reset the chain onto it. O(frontier) — runs only every
    ``frontier_compact_every`` waves or at drain, never steady-state.

    The output is STATUS-SPLIT: ``dest/discovered`` holds the rows still
    eligible for selection, ``dest/settled`` everything else. A mature
    crawl's frontier is dominated by Processed rows, so splitting at the
    (already O(frontier)) compaction makes every subsequent wave's
    eligible scan O(Discovered) instead of O(frontier)
    (``_FrontierChain.eligible_sources``) — the Ray analog of the
    reference DB's status index. One ``_compact_group`` task per group of
    chain files (``min(#files, n_tasks)`` groups), so the new base has at
    most ``n_tasks`` parts per split however long the chain was. Returns
    the number of tasks it ran."""
    stages = []
    if len(chain.cum_processed) or len(chain.cum_disallowed):
        stages.append(
            make_update_status(ship(chain.cum_processed), ship(chain.cum_disallowed))
        )
    dest.mkdir(parents=True, exist_ok=True)
    groups = file_groups(chain.sources(), n_tasks)
    ray.get([_compact_group.remote(i, g, stages, str(dest)) for i, g in enumerate(groups)])
    chain.reset(dest)
    return len(groups)


def frontier_dataset(wave_dir: str | Path):
    """The logical frontier as of a completed wave, as a Ray Data Dataset:
    the materialized ``frontier/`` dir if that wave compacted (or drained),
    else the chain recorded in its manifest (base + deltas with status
    flips overlaid). This is the read path a resume, a restore, or a
    downstream consumer uses — the full frontier is never rewritten to
    serve a read."""
    import ray.data as rd

    wd = Path(wave_dir)
    mat = wd / "frontier"
    if mat.exists() and any(mat.rglob("*.parquet")):
        return rd.read_parquet(str(mat))
    manifest = json.loads((wd / "manifest.json").read_text())
    out = wd.parent
    chain = _FrontierChain.from_manifest(out, manifest)
    ds = rd.read_parquet(chain.sources())
    if len(chain.cum_processed) or len(chain.cum_disallowed):
        ds = ds.map_batches(
            make_update_status(
                ray.put(chain.cum_processed), ray.put(chain.cum_disallowed)
            ),
            batch_format="pyarrow",
        )
    return ds


def _seed_frontier(cfg: CrawlConfig, seeds: list[str], prioritize) -> pa.Table:
    """Wave-0 seeding (Crawler.scala:156-160): seeds enter at the
    normalizer (bypassing only the best-effort LRU dedup), then scope filter;
    hosts are all unknown so the lenient filter passes everything; PageManager
    dedup keeps the first of duplicate-normalizing seeds."""
    t = pa.table(
        {
            "url": pa.array(seeds, pa.string()),
            "depth": pa.array([0] * len(seeds), pa.int32()),
        }
    )
    t = make_scope_filter_stage(cfg)(make_normalize_stage(cfg)(t))
    # first-discovery-wins dedup, deterministic because seeds are ordered:
    # np.unique's return_index is each url's first occurrence
    urls = np.asarray(t.column("url").to_pylist(), dtype=object)
    keep = np.zeros(len(urls), dtype=bool)
    keep[np.unique(urls, return_index=True)[1]] = True
    t = t.filter(pa.array(keep))
    t = prioritize(t)
    status = pa.array([STATUS_DISCOVERED] * t.num_rows, pa.string())
    return pa.table(
        {
            "url": t.column("url"),
            "host": t.column("host"),
            "status": status,
            "depth": t.column("depth"),
            "priority": t.column("priority"),
        }
    )


def _host_prep(
    cfg: CrawlConfig,
    hosts_state: HostsState,
    robots_path: str,
    need: list[str],
    now_s: float,
) -> int:
    """C3/C4/A3: fetch robots for ``need``, this wave's unknown/expired
    hosts; returns how many. The robots stage runs on the driver, built
    once per run and cached on ``hosts_state`` (measured: 20k
    sim-lookups+parses take ~0.5 s)."""
    if not need:
        return 0
    sim = getattr(hosts_state, "_sim", None)
    if sim is None:
        sim = hosts_state._sim = (
            cfg.robots_transport()
            if cfg.robots_transport is not None
            else RobotsFetchSim(robots_path, cfg)
        )
    batch = pa.table(
        {
            "host": pa.array(need, pa.string()),
            "now_s": pa.array([now_s] * len(need), pa.float64()),
        }
    )
    hosts_state.merge_fetched(sim(batch))
    return len(need)


# the claim round of a wave of two or more fetch tasks: claim task i takes
# hash partition i of every fetch task's candidates (a one-task wave claims
# inside its fetch task, with the same function)
_claim_chunk = ray.remote(claim_partition)


def _rank_write_selected(*args, **kwargs):
    """Removed: each fetch task writes its chunk's slice of the ranked
    selected manifest (stages/fetch.make_fetch_process_tee), so no task
    ranks and writes it. The name stays because the benchmark's tracer
    (perfbench/tracing.py) patches it by name; nothing calls it, so traced
    ``schedule.rank_s`` reads 0."""
    raise RuntimeError(
        "_rank_write_selected was removed: the fetch tasks write the selected manifest"
    )


# the wave loop's plain Ray task of stages over a group of parquet files
_scan_task = ray.remote(scan_parts)


@dataclass(frozen=True)
class _Selection:
    """A one-task wave's selection, run at the head of its one fetch task:
    the selection task's body over the wave's one file group (the
    eligible filter and strict robots in ``stages``, then the per-host
    top-k under ``sched``), the reject keys, the rank with the page
    ``budget`` cut, and the one work item."""

    paths: list
    stages: list
    sched: object
    budget: int
    wave: int

    def run(self) -> tuple[pa.Table | None, tuple]:
        """(the work item, or None when nothing is selected; (reject keys,
        sorted selected url hashes, per-host selected counts,
        n_selected))."""
        kept, rejects = select_partial(self.paths, self.stages, None, self.sched)
        rejects = _unique_rejects([rejects])
        if not kept.num_rows:
            return None, (rejects, np.empty(0, np.uint64), {}, 0)
        ranked = rank_selected_arrow(kept, self.budget)
        sel_sorted, (item,) = _fetch_items(ranked, self.wave, 1)
        return item, (rejects, sel_sorted, host_count_dict(ranked), ranked.num_rows)


@ray.remote
def _fetch_task(item, stages, n_parts: int, claim=None):
    """One fetch work item through ``stages`` (the fused tee and the
    candidate chain). Without ``claim``, returns the candidates as
    ``n_parts`` hash partitions, one object per claim task
    (``num_returns=n_parts``). In a wave of one fetch task the hash
    exchange is the identity, so ``claim`` — ``claim_partition`` bound to
    partition 0 — claims the candidates here and the task returns its
    result: the wave runs no claim round.

    In a one-task wave ``item`` is the wave's :class:`_Selection`: the
    task selects, ranks and cuts its work item first, so the whole wave —
    select, rank, fetch, the candidate chain and the claim — is this one
    task, and the selected rows never reach the driver. It returns
    ``(reject keys, sorted selected url hashes, per-host selected counts,
    n_selected, claim result)``; the claim result is None when nothing was
    selected, and then the task returns before it fetches. Every step is
    a function of the wave's immutable inputs and every write a
    deterministic part name, so a retried task rewrites the same bytes."""
    head = None
    if isinstance(item, _Selection):
        item, head = item.run()
        if item is None:
            return (*head, None)
    cands = apply_stages(item, stages)
    if claim is not None:
        out = claim(cands)
        return out if head is None else (*head, out)
    parts = split_by_hash(cands, n_parts)
    return parts[0] if n_parts == 1 else parts


# the selected manifest's columns after ``wave``
_MANIFEST_COLS = ["host", "rank_in_host", "global_rank", "url", "priority", "depth"]


def _fetch_items(ranked: pa.Table, wave: int, n_items: int) -> tuple[np.ndarray, list[pa.Table]]:
    """The ranked selected rows cut into ``n_items`` fetch work items:
    contiguous chunks in url-hash order, each a ``chunk`` index column and
    the selected manifest's columns. Also returns the sorted url hashes
    (the wave's Processed flips)."""
    h = hash64(ranked.column("url"))
    order = np.argsort(h)
    rows = ranked.take(pa.array(order))
    n = rows.num_rows
    bounds = [n * i // n_items for i in range(n_items + 1)]
    chunk = np.repeat(np.arange(n_items, dtype=np.int32), np.diff(bounds))
    rows = pa.table(
        {
            "chunk": chunk,
            "wave": pa.array(np.full(n, wave, dtype=np.int32)),
            **{c: rows.column(c) for c in _MANIFEST_COLS},
        }
    )
    items = [rows.slice(s, e - s) for s, e in zip(bounds, bounds[1:])]
    return h[order], items


@dataclass
class _Run:
    """Cross-wave state of one :func:`run_crawl` call."""

    cfg: CrawlConfig
    corpus: CorpusMeta
    out: Path
    log: object
    # read once: the default seen-shard count, and the cap of compaction's
    # fan-out; every other round is capped at max_tasks, twice as many
    n_cpu: int
    max_tasks: int
    seen: SeenSet
    content_seen: SeenSet | None
    hosts_state: HostsState
    summary: CrawlSummary
    chain: _FrontierChain | None = None
    start_wave: int = 0
    total_fetched: int = 0
    # Discovered-per-host ledger, maintained arithmetically wave-over-wave
    # (seeds + claims − selected − rejects, each politeness-bounded) so the
    # host histogram never rescans the frontier. None -> rebuild by one
    # partial-counts scan (first wave after a resume). Driver memory is
    # O(#live hosts) in COLUMNAR arrays — the same bound and shape as the
    # hosts table itself (state/hosts.py).
    host_ledger: _HostLedger | None = None
    # previous frontier's row count, so n_new never needs a metadata rescan
    prev_frontier_rows: int = 0
    # the current hosts checkpoint, relative to ``out``: written at seed and
    # by the waves whose host prep fetched robots, named by every manifest
    hosts_checkpoint: str = ""
    # (per-run token, shipped factory) of the fetch transport
    # (cfg.fetch_transport, or a CorpusTransport over the hashed layout):
    # every worker builds the transport once per token
    transport: object = None
    process_fetched: object = None
    normalize: object = None
    scope: object = None


@dataclass
class _Wave:
    """One wave's state, filled in by the steps in run order."""

    n: int
    wdir: Path
    t0: float
    now_s: float
    metrics: dict
    step_times: dict = field(default_factory=dict)
    _last: float = 0.0
    eligible_files: list = field(default_factory=list)
    # the selection round's file groups
    select_groups: list = field(default_factory=list)
    # the wave's stages and payloads, each by value or as a ray.put ref
    eligible: object = None
    strict_robots: object = None
    lenient_robots: object = None
    sched: object = None
    # the whole wave runs as one task (_select_fetch_claim)
    one_task: bool = False
    # task rounds run: select, fetch and claim (1 for a one-task wave)
    rounds: int = 0
    # nothing selected: the wave drains the frontier
    drained: bool = False
    # selected rows (Arrow): unranked from _select, then ranked and trimmed
    # to the page budget by _rank_selected (a one-task wave never holds them)
    selected: pa.Table | None = None
    rejects: pa.Table | None = None
    disallowed: np.ndarray | None = None
    n_selected: int = 0
    sel_sorted: np.ndarray | None = None
    # per-host selected counts, for the host ledger
    sel_counts: dict = field(default_factory=dict)
    cand_refs: list = field(default_factory=list)
    # refs of the claims' results: the claim tasks', or, in a wave of one
    # fetch task, that task's own
    claim_refs: list = field(default_factory=list)
    claims: list = field(default_factory=list)
    n_new: int = 0

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self.step_times[name] = round(now - (self._last or self.t0), 3)
        self._last = now


def run_crawl(
    cfg: CrawlConfig,
    corpus: CorpusMeta,
    out_dir: str | Path,
    *,
    seeds: list[str] | None = None,
    resume: bool = False,
    log=print,
) -> CrawlSummary:
    run = _open_run(cfg, corpus, Path(out_dir), seeds, resume, log)
    for n in range(run.start_wave, cfg.max_waves):
        if n > 0 and run.total_fetched >= cfg.max_pages:
            # a completed wave spent the budget: a straight run stops after
            # it, and so does a run resumed from it
            log(f"[crawl] page budget reached ({run.total_fetched})")
            break
        w = _start_wave(run, n)
        _prep_hosts(run, w)
        if w.one_task:
            _select_fetch_claim(run, w)
        else:
            _select(run, w)
        if w.drained:
            _drain(run, w)
            _finish_wave(run, w, f"[crawl] wave {n}: frontier drained, stopping")
            break
        if not w.one_task:
            _rank_selected(run, w)
            _fetch_candidates(run, w)
        _claim_and_write_frontier(run, w)
        _update_ledger(run, w)
        _compact_if_due(run, w)
        _finish_wave(run, w)
    summary = run.summary
    summary.total_fetched = run.total_fetched
    summary.final_frontier_rows = run.prev_frontier_rows
    summary.seen_size = run.seen.size()
    run.seen.shutdown()
    if run.content_seen is not None:
        run.content_seen.shutdown()
    return summary


# --------------------------------------------------------------------------
# run steps: open (resume or seed), warm-up
# --------------------------------------------------------------------------
def _open_run(
    cfg: CrawlConfig,
    corpus: CorpusMeta,
    out: Path,
    seeds: list[str] | None,
    resume: bool,
    log,
) -> _Run:
    """Start the seen sets, resume from the last completed wave (or seed a
    fresh frontier), build the wave stages and warm the session up."""
    out.mkdir(parents=True, exist_ok=True)
    n_cpu = max(1, int(ray.cluster_resources().get("CPU", 1)))
    completed = sorted(
        (
            d
            for d in (out.glob("wave_*") if resume else ())
            if (d / "manifest.json").exists()
            and json.loads((d / "manifest.json").read_text()).get("completed")
        ),
        # numeric sort: lexicographic breaks at wave 10000 ('wave_9999' >
        # 'wave_10000')
        key=lambda d: int(d.name.split("_")[1]),
    )

    def seen_set() -> SeenSet:
        return SeenSet(
            cfg.seen_shards or n_cpu,
            backend=cfg.seen_backend,
            cuckoo_capacity=cfg.seen_cuckoo_capacity,
        )

    run = _Run(
        cfg=cfg,
        corpus=corpus,
        out=out,
        log=log,
        n_cpu=n_cpu,
        max_tasks=2 * n_cpu,
        seen=seen_set(),
        content_seen=seen_set() if cfg.dedup_content else None,
        hosts_state=HostsState(cfg),
        summary=CrawlSummary(out_dir=str(out)),
    )
    if completed:
        _resume(run, completed)
    else:
        _seed(run, seeds if seeds is not None else corpus.seeds)
    run.process_fetched = make_process_fetched_stage(cfg)
    run.normalize = make_normalize_stage(cfg)
    run.scope = make_scope_filter_stage(cfg)
    # one fetch path: url chunks through a transport, by default a
    # CorpusTransport over the hashed layout — built here once for a corpus
    # that lacks it
    factory = cfg.fetch_transport
    if factory is None:
        if not layout_is_valid(corpus):
            build_hashed_layout(corpus)
        factory = functools.partial(CorpusTransport, corpus.hashed_dir, cfg.max_content_length)
    run.transport = (uuid.uuid4().hex, ship(factory))
    _warm_up(run)
    return run


@ray.remote
def _load_seen(seen_set: SeenSet, paths: list[str], column: str, wave: int) -> None:
    """Resume task: hash one string column of a group of parquet files and
    bulk-load the hashes into the seen shards, stamped ``wave``."""
    tables = [pq.read_table(p, columns=[column]) for p in paths]
    seen_set.load(hash64(pa.concat_tables(tables).column(column)), wave)


def _resume(run: _Run, completed: list[Path]) -> None:
    """Restart after the last completed wave: its manifest names the
    frontier chain and the hosts checkpoint (a manifest that names none
    was written when every wave wrote its own ``hosts.parquet``). The seen
    sets are rebuilt, not restored — the chain's urls are the URL seen set and the completed
    waves' ``novel/`` texts the content seen set — by one round of load
    tasks that call the shards directly, stamped with the last completed
    wave so the next wave's probes see all of it."""
    last = completed[-1]
    manifest = json.loads((last / "manifest.json").read_text())
    # the flips files store url hashes, and the rebuilt seen set is compared
    # with freshly computed ones: both need the writer's hash function
    if manifest.get("hash_impl") != impl_id():
        raise RuntimeError(
            f"checkpoint {last} was written with hash implementation "
            f"{manifest.get('hash_impl')!r} but this process uses {impl_id()!r}; "
            "url-hash membership would silently miss — re-crawl or pin the "
            "original library version"
        )
    wave = manifest["wave"]
    run.start_wave = wave + 1
    run.total_fetched = manifest["total_fetched"]
    run.hosts_checkpoint = manifest.get("hosts_checkpoint", f"{last.name}/hosts.parquet")
    run.hosts_state.restore(run.out / run.hosts_checkpoint)
    run.summary.per_wave = [json.loads((d / "manifest.json").read_text()) for d in completed]
    run.chain = _FrontierChain.from_manifest(run.out, manifest)
    n_tasks = task_count(manifest["n_frontier"], schedule.ROWS_PER_TASK, run.max_tasks)
    loads = [
        _load_seen.remote(run.seen, g, "url", wave)
        for g in file_groups(run.chain.sources(), n_tasks)
    ]
    if run.content_seen is not None:
        novel = [str(p) for d in completed for p in sorted((d / "novel").glob("*.parquet"))]
        loads += [
            _load_seen.remote(run.content_seen, g, "text", wave)
            for g in file_groups(novel, n_tasks)
        ]
    ray.get(loads)
    # a no-op resume (last completed wave was max_waves-1) must still point
    # last_wave_dir at the completed wave, not wave_-001
    run.summary.waves = run.start_wave
    run.prev_frontier_rows = manifest["n_frontier"]
    run.log(f"[crawl] resuming after wave {wave}")


def _seed(run: _Run, seeds: list[str]) -> None:
    """Wave -1: wipe any previous run's checkpoints (stale wave dirs would
    merge into the new run's frontier reads) and write the seeded frontier
    as the ``init`` checkpoint."""
    import shutil

    out, cfg = run.out, run.cfg
    for d in list(out.glob("wave_*")) + [out / "init"]:
        if d.exists():
            shutil.rmtree(d)
    init_dir = out / "init"
    (init_dir / "frontier").mkdir(parents=True, exist_ok=True)
    frontier0 = _seed_frontier(cfg, seeds, make_prioritize_stage(cfg))
    # split into multiple part files: a single-file frontier becomes ONE
    # read task next wave, serializing every downstream step behind one
    # reader (measured: ~2.5 s serial at 300k rows)
    rows_per_part = max(2048, min(20_000, (frontier0.num_rows // 64) + 1))
    for part, start in enumerate(range(0, max(frontier0.num_rows, 1), rows_per_part)):
        pq.write_table(
            frontier0.slice(start, rows_per_part),
            init_dir / "frontier" / f"part-{part:05d}.parquet",
        )
    run.seen.add_urls(frontier0.column("url").to_pylist(), wave=-1)
    run.hosts_checkpoint = "init/hosts.parquet"
    run.hosts_state.checkpoint(out / run.hosts_checkpoint)
    (init_dir / "manifest.json").write_text(
        json.dumps(
            {
                "wave": -1,
                "completed": True,
                "hash_impl": impl_id(),
                "total_fetched": 0,
                "n_frontier": frontier0.num_rows,
                "hosts_checkpoint": run.hosts_checkpoint,
                "files": {"frontier": _file_lineage(init_dir / "frontier")},
            }
        )
    )
    run.chain = _FrontierChain(out, init_dir / "frontier")
    # the seed pass already knows wave 0's Discovered-per-host ledger —
    # skip wave 0's full frontier scan for the host histogram
    seed_counts = partial_host_counts(frontier0)
    run.host_ledger = _HostLedger.from_counts(
        seed_counts["host"].to_pylist(), seed_counts["n"].to_numpy()
    )
    run.prev_frontier_rows = frontier0.num_rows


@ray.remote
def _warm(t: pa.Table) -> pa.Table:
    """Identity task of the warm-up. Unpickling it makes a task worker
    import this module, and with it every stage a wave task runs (fetch,
    transform, schedule, the html parser, pyarrow.parquet); the table round
    trip loads Ray's Arrow table serializer in the worker and the driver."""
    return t


def _warm_up(run: _Run) -> None:
    """Session warm-up, outside the per-wave timers: the seen-shard actors
    and the first task worker start lazily, and a worker pays its imports
    on its first crawl task. Without the warm-up, wave 0 would bill that
    one-time bring-up to its own steps. One identity task over an empty
    frontier table runs while the shards answer their first call; recorded
    as summary.warmup_s. No Ray Data runs: no crawl step needs it."""
    tw = time.perf_counter()
    warm = _warm.remote(FRONTIER_SCHEMA.empty_table())
    run.seen.size()
    if run.content_seen is not None:
        run.content_seen.size()
    ray.get(warm)
    run.summary.warmup_s = round(time.perf_counter() - tw, 3)


# --------------------------------------------------------------------------
# wave steps, in run order
# --------------------------------------------------------------------------
def _start_wave(run: _Run, n: int) -> _Wave:
    t0 = time.perf_counter()
    wdir = _wave_dir(run.out, n)
    # a crash mid-wave leaves a dir without a completed manifest; wipe it so
    # re-written parquet dirs don't accumulate stale part files
    manifest_path = wdir / "manifest.json"
    if wdir.exists() and not (
        manifest_path.exists() and json.loads(manifest_path.read_text()).get("completed")
    ):
        import shutil

        shutil.rmtree(wdir)
    return _Wave(
        n=n,
        wdir=wdir,
        t0=t0,
        now_s=n * run.cfg.wave_duration_s,
        metrics={"wave": n, "completed": False},
    )


def _prep_hosts(run: _Run, w: _Wave) -> None:
    """Host histogram, robots for unknown/expired hosts (C3/C4/A3), the
    wave's broadcast robots filters and scheduler payload — each inline in
    the task specs, or one ``ray.put`` when too large (stages/payload.py)
    — and the wave's shape: it runs as one task when its selection round
    is one task and its politeness bound fits one fetch task."""
    cfg, hosts_state = run.cfg, run.hosts_state
    # logical frontier = base ∪ deltas, minus rows flipped since the last
    # compaction (broadcast sorted hashes, politeness-bounded); the
    # eligible scan reads only parts that can hold Discovered rows —
    # O(Discovered) once the base has a status-split compaction
    w.eligible_files = run.chain.eligible_sources()
    w.eligible = make_eligible_filter(ship(run.chain.flips_merged()))
    if run.host_ledger is None:
        # shuffle-free host histogram: per-file-group partials, driver merge
        n_tasks = task_count(run.prev_frontier_rows, schedule.ROWS_PER_TASK, run.max_tasks)
        partials = pa.concat_tables(
            ray.get(
                [
                    _scan_task.remote(g, [w.eligible, partial_host_counts])
                    for g in file_groups(w.eligible_files, n_tasks)
                ]
            )
        )
        host_counts = partials.group_by("host").aggregate([("n", "sum")])
        run.host_ledger = _HostLedger.from_counts(
            host_counts["host"].to_pylist(), host_counts["n_sum"].to_numpy()
        )
    hosts_needed, n_eligible = run.host_ledger.eligible()
    w.mark("host_histogram")
    need = hosts_state.missing_or_expired(hosts_needed, w.now_s)
    n_robots = _host_prep(cfg, hosts_state, run.corpus.robots_path, need, w.now_s)
    w.wdir.mkdir(parents=True, exist_ok=True)
    if need:
        # the hosts table changes only here: a wave that fetched no robots
        # keeps naming the last checkpoint
        run.hosts_checkpoint = f"{w.wdir.name}/hosts.parquet"
        hosts_state.checkpoint(run.out / run.hosts_checkpoint)
    rules = ship(hosts_state.rules_payload(w.now_s))
    # strict robots re-evaluates only the rows of the hosts fetched just
    # now: a host's rules change only here, so every other row of a live
    # host keeps the answer it got under the same rules — strict at an
    # earlier wave, or lenient when it was claimed. The set is a function
    # of the hosts checkpoint, so a resume recomputes it exactly.
    recheck = np.sort(hash64(need)) if need else np.empty(0, np.uint64)
    w.strict_robots = make_strict_robots_filter(rules, ship(recheck))
    w.lenient_robots = make_lenient_robots_filter(rules)
    sched = hosts_state.sched_payload(w.now_s, cfg.wave_duration_s)
    w.sched = ship(sched)
    n_tasks = task_count(n_eligible, schedule.ROWS_PER_TASK, run.max_tasks)
    w.select_groups = file_groups(w.eligible_files, n_tasks)
    # one selection task, and no selection can outgrow one fetch task
    bound = run.host_ledger.fetch_bound(sched)
    w.one_task = len(w.select_groups) == 1 and bound <= cfg.fetch_transport_batch_size
    w.metrics.update(
        n_eligible=n_eligible,
        fetch_bound=bound,
        n_hosts_eligible=len(hosts_needed),
        n_robots_fetched=n_robots,
    )
    w.mark("host_prep")


def _select(run: _Run, w: _Wave) -> None:
    """Strict robots (C2) + politeness selection (D1/D2) of a wave that
    runs in rounds: one task per file group runs the eligible filter and
    strict robots, keeps its partial top-k per host and splits the flagged
    rejects off; the driver merges the politeness-bounded partials when
    more than one has rows (stages/schedule.select_wave). The round is
    sized by the host ledger's eligible rows. The selected rows carry
    their within-host ranks. A one-task wave selects inside its fetch task
    instead (:func:`_select_fetch_claim`)."""
    w.metrics["select_tasks"] = len(w.select_groups)
    w.rounds += 1
    w.selected, w.rejects = select_wave(
        w.eligible_files,
        [w.eligible, w.strict_robots],
        w.sched,
        n_tasks=len(w.select_groups),
    )
    w.n_selected = w.selected.num_rows
    w.drained = w.n_selected == 0
    w.disallowed = w.rejects.column("url_hash").to_numpy()
    w.metrics["n_disallowed"] = int(len(w.disallowed))
    w.mark("select")


def _select_fetch_claim(run: _Run, w: _Wave) -> None:
    """A one-task wave (its one file group selects in one task, and its
    politeness bound fits one fetch task): one ``_fetch_task`` whose head
    is the wave's :class:`_Selection` runs selection, strict robots, the
    rank and budget cut, the fetch, the candidate chain and the claim, and
    writes the wave's selected, processed and delta parts. The driver
    gets back only the reject keys, the selected url hashes (the flips),
    the per-host selected counts (the ledger), ``n_selected`` and the
    claim's counts: the wave makes one task round trip. An empty selection
    comes back before any fetch, and the wave drains."""
    cfg = run.cfg
    for sub in ("processed", "selected"):
        (w.wdir / sub).mkdir(parents=True, exist_ok=True)
    w.metrics["select_tasks"] = 1
    w.rounds += 1
    selection = _Selection(
        w.select_groups[0],
        [w.eligible, w.strict_robots],
        w.sched,
        cfg.max_pages - run.total_fetched,
        w.n,
    )
    ref = _fetch_task.remote(selection, _fetch_stages(run, w), 1, _claim_in_task(run, w))
    w.mark("fetch_prep")
    w.rejects, w.sel_sorted, w.sel_counts, w.n_selected, claim = ray.get(ref)
    w.disallowed = w.rejects.column("url_hash").to_numpy()
    w.metrics["n_disallowed"] = int(len(w.disallowed))
    w.drained = claim is None
    if not w.drained:
        _record_max_fetchers(cfg, w)
        w.metrics.update(fetch_tasks=1, claim_tasks=0)
        w.claims = [claim]
        _keep_processed_readable(run, w)
    w.mark("fetch_candidates")


def _drain(run: _Run, w: _Wave) -> None:
    """Terminal wave (nothing selected): fold this wave's disallowed flips
    into the chain and compact to a final materialized frontier — the one
    O(frontier) write of the run, at its end."""
    empty = np.empty(0, np.uint64)
    if len(w.disallowed):
        flips_path = w.wdir / "flips.parquet"
        _write_flips(flips_path, empty, w.disallowed)
        run.chain.add_wave(None, flips_path, empty, w.disallowed)
    _compact(run, w)
    for sub in ("processed", "selected"):
        (w.wdir / sub).mkdir(parents=True, exist_ok=True)


def _rank_selected(run: _Run, w: _Wave) -> None:
    """Global rank and budget trim, on the driver in Arrow: one sort of the
    selected rows by (priority desc, url asc) gives ``global_rank``, and a
    page budget that binds keeps the first rows of that order
    (stages/schedule.rank_selected_arrow). The trimmed rows are each
    host's lowest, so the kept rows' ``rank_in_host`` from the selection
    still holds. The fetch tasks write the ranked rows as the wave's
    selected manifest (see _fetch_candidates)."""
    w.selected = rank_selected_arrow(w.selected, run.cfg.max_pages - run.total_fetched)
    w.n_selected = w.selected.num_rows
    w.sel_counts = host_count_dict(w.selected)


def _record_max_fetchers(cfg: CrawlConfig, w: _Wave) -> int | None:
    """E2 — bandwidth split: the budget's binding consequence is the
    concurrent-fetcher cap (FetcherManager.scala:66); the wave applies it
    as the number of fetch tasks in flight (results identical,
    parallelism bounded; see CrawlConfig.total_bandwidth_budget_bps). The
    cap is recorded in the manifest of every wave that fetches."""
    if not cfg.total_bandwidth_budget_bps:
        return None
    w.metrics["max_fetchers"] = max(
        1,
        int(cfg.total_bandwidth_budget_bps)
        // max(1, int(cfg.min_bandwidth_per_fetcher_bps)),
    )
    return w.metrics["max_fetchers"]


def _fetch_stages(run: _Run, w: _Wave) -> list:
    """A fetch task's stages: the fused tee, then the candidate chain."""
    tee = make_fetch_process_tee(
        run.process_fetched,
        str(w.wdir / "processed"),
        str(w.wdir / "selected"),
        run.transport,
    )
    return [tee, explode_links, run.normalize, run.scope, make_propose()]


def _claim_in_task(run: _Run, w: _Wave):
    """The claim a wave of one fetch task runs inside that task: hash
    partition 0 of the wave's candidates, which is all of them."""
    return functools.partial(
        claim_partition, 0, run.seen, w.n, run.cfg, str(w.wdir / "delta"), w.lenient_robots
    )


def _keep_processed_readable(run: _Run, w: _Wave) -> None:
    """Nothing fetched (an empty work item, or every fetch missed): keep
    the processed checkpoint readable — one empty part in the processed
    schema."""
    processed_dir = w.wdir / "processed"
    if not any(processed_dir.glob("*.parquet")):
        pq.write_table(
            run.process_fetched(empty_fetched_table()),
            processed_dir / "part-empty.parquet",
        )


def _fetch_candidates(run: _Run, w: _Wave) -> None:
    """Fetch (A2) + process (A7, B1-B3) + candidate chain (B4 -> B5 -> B6),
    one Ray task per work item. Each task runs the fused tee
    (stages/fetch.make_fetch_process_tee): it writes its chunk's slice of
    the ranked selected manifest (``selected/part-<chunk>.parquet``),
    fetches its urls, parses, writes its own processed-checkpoint part
    (deterministic names -> retry-safe), and passes only (links,
    child_depth) on to the candidate chain in the same task — html never
    leaves it and nothing is re-read.

    A work item is a contiguous chunk of the ranked selected rows in
    url-hash order (_fetch_items):
    ``task_count(n_selected, fetch_transport_batch_size, 2·CPUs)`` chunks,
    so a small wave runs one task and a large one spreads over the
    cluster. A wave of one fetch task claims in that task too (F1, the
    hash exchange of a one-way split is the identity), so it runs two task
    rounds: selection, then fetch-and-claim. A wave of two or more returns
    its candidates split by url hash into one part per claim task, and
    claims in a round of as many tasks (see _claim_and_write_frontier)."""
    cfg = run.cfg
    for sub in ("processed", "selected"):
        (w.wdir / sub).mkdir(parents=True, exist_ok=True)
    n_items = task_count(w.n_selected, cfg.fetch_transport_batch_size, run.max_tasks)
    w.sel_sorted, items = _fetch_items(w.selected, w.n, n_items)
    max_fetchers = _record_max_fetchers(cfg, w)
    stages = _fetch_stages(run, w)
    claim = _claim_in_task(run, w) if n_items == 1 else None
    w.metrics["fetch_tasks"] = n_items
    w.metrics["claim_tasks"] = 0 if claim is not None else n_items
    w.rounds += 1
    w.mark("fetch_prep")  # sel hashing + work items
    in_flight: list = []
    for item in items:
        if max_fetchers and len(in_flight) >= max_fetchers:
            _, in_flight = ray.wait(in_flight, num_returns=1, fetch_local=False)
        if claim is None:
            refs = _fetch_task.options(num_returns=n_items).remote(item, stages, n_items)
            w.cand_refs.append(refs)
        else:
            refs = w.claim_refs = [_fetch_task.remote(item, stages, 1, claim)]
        in_flight.append(refs[0])
    # every processed-checkpoint part is on disk before the wave's metrics
    # read them; fetch_local=False: the candidate parts stay in the object
    # store where the claims will run
    firsts = [r[0] for r in w.cand_refs] or w.claim_refs
    ray.wait(firsts, num_returns=len(firsts), fetch_local=False)
    _keep_processed_readable(run, w)
    w.mark("fetch_candidates")


def _fetch_status(w: _Wave) -> int:
    """The wave's fetch-status histogram and extracted count, read from
    the processed checkpoint's tiny flag columns; returns its rows."""
    import pyarrow.dataset as pads

    proc_files = sorted(str(p) for p in (w.wdir / "processed").glob("*.parquet"))
    flags = pads.dataset(proc_files).to_table(
        columns=["fetch_status", "is_html", "length_exceeded"]
    )
    vc = pc.value_counts(flags.column("fetch_status").combine_chunks())
    status_hist = {
        int(vc.field("values")[i].as_py()): int(vc.field("counts")[i].as_py())
        for i in range(len(vc))
    }
    # body-cap class (Fetcher.scala:168-170): consumed, never parsed
    n_len_exceeded = int(pc.sum(flags.column("length_exceeded")).as_py() or 0)
    if n_len_exceeded:
        status_hist["length_limit_exceeded"] = n_len_exceeded
    # selected urls absent from the corpus are 404s (they produce no
    # processed row; the page still ends Processed in the frontier)
    if w.n_selected > flags.num_rows:
        status_hist[404] = status_hist.get(404, 0) + (w.n_selected - flags.num_rows)
    w.metrics.update(
        fetch_status=status_hist,
        n_extracted=int(pc.sum(flags.column("is_html")).as_py() or 0),
    )
    return flags.num_rows


def _claim_and_write_frontier(run: _Run, w: _Wave) -> None:
    """Claim (F1) and the frontier delta checkpoint (O(changed), never a
    rewrite). In a wave of two or more fetch tasks, claim task i takes
    hash partition i of every fetch task's candidates — the reduce side of
    a hash shuffle whose map side is the fetch tasks, so no two claimants
    share a url — and claims (lenient robots on the new urls only),
    prioritizes, and writes its own delta part under a partition-derived
    name (retry-safe tee — see stages/transform.claim_partition). A wave
    of one fetch task already claimed in it, with the same function, and
    submits no claim round. The claims are dispatched first: everything
    the driver does until their ray.get (the fetch-status read, the novel
    filter, the flips write) depends only on the candidate tables and the
    processed checkpoint, so it overlaps the claims instead of
    serializing behind them. Status flips (selected -> Processed, rejected
    -> Disallowed; both politeness-bounded) append as a tiny flips file —
    the reference analog is the batched ``UPDATE pages SET status``
    (SlickPageRepository.scala:37-51)."""
    delta_dir = w.wdir / "delta"
    if w.cand_refs:
        w.rounds += 1
        w.claim_refs = [
            _claim_chunk.remote(
                i,
                run.seen,
                w.n,
                run.cfg,
                str(delta_dir),
                w.lenient_robots,
                *[refs[i] for refs in w.cand_refs],
            )
            for i in range(len(w.cand_refs))
        ]
    n_processed = _fetch_status(w)
    w.mark("extract_write")
    # cross-wave novel-content filter (optional, stages/novel.py)
    if run.content_seen is not None:
        from abwcf_ray.stages.novel import novel_extracted

        _, w.metrics["n_novel"] = novel_extracted(
            w.wdir / "processed",
            w.wdir / "novel",
            run.content_seen,
            w.n,
            n_tasks=task_count(n_processed, schedule.ROWS_PER_TASK, run.max_tasks),
        )
        w.mark("novel_filter")
    flips_path = w.wdir / "flips.parquet"
    _write_flips(flips_path, w.sel_sorted, w.disallowed)
    if w.claim_refs:
        w.claims = ray.get(w.claim_refs)
    w.n_new = sum(n for n, _ in w.claims)
    delta_dir.mkdir(exist_ok=True)
    if not any(delta_dir.glob("*.parquet")):
        # zero-claim wave: keep the dir readable in the chain union
        pq.write_table(FRONTIER_SCHEMA.empty_table(), delta_dir / "part-empty.parquet")
    run.chain.add_wave(delta_dir, flips_path, w.sel_sorted, w.disallowed)
    w.mark("frontier_write")


def _update_ledger(run: _Run, w: _Wave) -> None:
    """Host ledger update: exact arithmetic, no frontier rescan."""
    led = run.host_ledger
    led.apply(list(w.sel_counts), -np.fromiter(w.sel_counts.values(), np.int64))
    # apply() sums repeated hosts: one -1 per reject, and the claim tasks'
    # per-host counts, which may share hosts
    led.apply(w.rejects.column("host").to_pylist(), np.full(w.rejects.num_rows, -1))
    led.apply(
        [h for _, c in w.claims for h in c], [n for _, c in w.claims for n in c.values()]
    )
    if led.has_negative():
        # defensive: arithmetic drift would starve a host of robots prep
        # forever — drop the ledger and rescan next wave
        run.log(f"[crawl] wave {w.n}: host ledger went negative; rescanning")
        run.host_ledger = None
    else:
        led.prune()


def _compact_if_due(run: _Run, w: _Wave) -> None:
    """Periodic compaction: bound the chain length AND the broadcast flips
    array (the only O(frontier) write, amortized over
    frontier_compact_every waves; the flips-size trigger is a hard byte
    bound — 10^7-page waves fill it long before the delta count)."""
    chain = run.chain
    n_flips = len(chain.cum_processed) + len(chain.cum_disallowed)
    if (
        len(chain.deltas) >= run.cfg.frontier_compact_every
        or n_flips >= run.cfg.frontier_compact_max_flips
    ):
        _compact(run, w)


def _compact(run: _Run, w: _Wave) -> None:
    """Fold the chain into ``frontier/``, one task per
    ``schedule.ROWS_PER_TASK`` frontier rows, at most one per CPU."""
    n_rows = run.prev_frontier_rows + w.n_new
    w.metrics["compact_tasks"] = _compact_frontier(
        run.chain,
        w.wdir / "frontier",
        task_count(n_rows, schedule.ROWS_PER_TASK, run.n_cpu),
    )
    w.mark("frontier_compact")


def _finish_wave(run: _Run, w: _Wave, done_msg: str | None = None) -> None:
    """Write the wave's manifest (every wave, the drain wave included,
    completes here)."""
    run.total_fetched += w.n_selected
    lineage = {
        key: _file_lineage(w.wdir / sub)
        for key, sub in (
            ("frontier_delta", "delta"),
            ("processed", "processed"),
            ("selected", "selected"),
            ("frontier", "frontier"),
        )
        if (w.wdir / sub).exists()
    }
    # n_new == lineage["frontier_delta"] rows (footer-checked in tests)
    run.prev_frontier_rows += w.n_new
    w.metrics.update(
        task_rounds=w.rounds,
        n_selected=w.n_selected,
        n_new=w.n_new,
        n_frontier=run.prev_frontier_rows,
        total_fetched=run.total_fetched,
        seen_size=run.seen.size(),
        duration_s=round(time.perf_counter() - w.t0, 3),
        step_times=w.step_times,
        completed=True,
        hash_impl=impl_id(),
        files=lineage,
        frontier_chain=run.chain.manifest_entry(),
        hosts_checkpoint=run.hosts_checkpoint,
    )
    (w.wdir / "manifest.json").write_text(json.dumps(w.metrics))
    run.summary.per_wave.append(w.metrics)
    run.summary.waves = w.n + 1
    run.log(
        done_msg
        or f"[crawl] wave {w.n}: eligible={w.metrics['n_eligible']} "
        f"selected={w.n_selected} new={w.n_new} "
        f"frontier={run.prev_frontier_rows} ({w.metrics['duration_s']}s)"
    )


def restore_topk(frontier_dir: str | Path, k: int):
    """A6/D4 bounded-restore scan: ``SELECT ... WHERE status='Discovered'
    ORDER BY crawl_priority DESC LIMIT k`` (SlickPageRepository.scala:58-61,
    PageRestorer.scala:37-53). The wave model restores everything by default;
    this is the bounded variant for driving a partial re-injection."""
    import ray.data as rd

    ds = rd.read_parquet(str(frontier_dir)).map_batches(
        lambda t: t.filter(pc.equal(t["status"], STATUS_DISCOVERED)),
        batch_format="pyarrow",
    )
    return ds.sort(["priority", "url"], descending=[True, False]).limit(k)


def load_config_toml(path: str | Path) -> CrawlConfig:
    """CrawlConfig from a TOML file (the rebuild of the reference's HOCON
    surface, reference.conf:8-251 / CrawlerSettings.scala:5-14). Keys match
    the dataclass field names; unknown keys raise."""
    import tomllib

    data = tomllib.loads(Path(path).read_text())
    norm = data.pop("normalization", None)
    kwargs = dict(data)
    for tuple_key in ("must_match", "must_not_match", "user_agents"):
        if tuple_key in kwargs:
            kwargs[tuple_key] = tuple(kwargs[tuple_key])
    if norm is not None:
        from abwcf_ray.config import NormalizationConfig

        kwargs["normalization"] = NormalizationConfig(**norm)
    return CrawlConfig(**kwargs)


def main() -> None:  # pragma: no cover — CLI entry
    import argparse

    parser = argparse.ArgumentParser(description="Run a simulated crawl.")
    parser.add_argument("--n-pages", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="/tmp/abwcf_crawl")
    parser.add_argument("--corpus-dir", default=None)
    parser.add_argument("--config", default=None, help="TOML CrawlConfig file")
    parser.add_argument("--max-waves", type=int, default=50)
    parser.add_argument("--max-depth", type=int, default=2**31 - 1)
    parser.add_argument("--wave-duration", type=float, default=10.0)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument(
        "--transport",
        choices=["corpus", "http"],
        default="corpus",
        help="fetcher: 'corpus' (default: CorpusTransport over the hashed "
        "layout), 'http' (real network via HTTPTransport; urls must be "
        "reachable)",
    )
    args = parser.parse_args()

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")

    from abwcf_ray.sources.corpus import generate_corpus

    corpus_dir = args.corpus_dir or f"/tmp/abwcf_corpus_{args.n_pages}_{args.seed}"
    corpus = generate_corpus(corpus_dir, n_pages=args.n_pages, seed=args.seed)
    if args.config:
        cfg = load_config_toml(args.config)
    else:
        cfg = CrawlConfig(
            max_waves=args.max_waves,
            max_crawl_depth=args.max_depth,
            wave_duration_s=args.wave_duration,
        )
    if args.transport == "http":
        from dataclasses import replace as _dc_replace

        from abwcf_ray.stages.transport import HTTPTransport

        cap = cfg.max_content_length
        cfg = _dc_replace(cfg, fetch_transport=lambda: HTTPTransport(max_content_length=cap))
    summary = run_crawl(cfg, corpus, args.out, resume=args.resume)
    print(
        json.dumps(
            {
                "waves": summary.waves,
                "total_fetched": summary.total_fetched,
                "frontier_rows": summary.final_frontier_rows,
                "seen_size": summary.seen_size,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":  # pragma: no cover
    main()
