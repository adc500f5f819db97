"""Instrumentation of the crawl engine from outside the program.

Two parts:

- :class:`WaveClock` takes every wave's boundaries from outside the wave
  loop: the start is the last call of ``_wave_dir`` for that wave (the
  driver calls it once at each wave start, and once for wave 0 while
  seeding), the end is the ``log`` callback the wave loop calls when the wave
  completes. It is installed in every run, traced or not.
- :func:`install` (traced runs only) wraps the per-layer entry points as
  ``abwcf_ray.pipelines.crawl`` imports them: the ``make_*`` stage factories
  (their batch functions run on Ray workers), the ``SeenSet`` and
  ``HostsState`` classes, and the driver-side helpers (seeding, host prep,
  selection, fetch planning, compaction, selected-manifest ranking). Each
  call records one span: name, start, end, process, its parent span in the
  same process, and counts (rows in and out and the like).

Clocks are ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans from
different processes share one time axis. Driver spans are kept in a list;
worker spans go to a ``SpanSink`` actor that keeps them in memory. The
benchmark drains the sink at the end of each Ray session and writes all spans
to one file when the run ends.
"""

from __future__ import annotations

import os
import re
import time
from contextlib import contextmanager

import ray

from abwcf_ray.state.hosts import HostsState
from abwcf_ray.state.seen import SeenSet

SINK_NAME = "perfbench_span_sink"
NAMESPACE = "perfbench"

# Per-process recorder state. It is module-level because the wrapped code
# runs in Ray workers that only import this module; ``driver`` is set only
# in the benchmark process.
_state: dict = {"driver": False, "spans": [], "stack": [], "seq": 0, "sink": None}
# readings of objects run_crawl creates and drops itself (driver only)
gauges: dict = {}


@ray.remote(num_cpus=0)
class SpanSink:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, span: dict) -> None:
        self.spans.append(span)

    def drain(self) -> list[dict]:
        out, self.spans = self.spans, []
        return out


def _emit(rec: dict) -> None:
    if _state["driver"]:
        _state["spans"].append(rec)
        return
    if _state["sink"] is None:
        _state["sink"] = ray.get_actor(SINK_NAME, namespace=NAMESPACE)
    # blocking, so every worker span is in the sink before its task returns
    ray.get(_state["sink"].add.remote(rec))


@contextmanager
def span(name: str, **counts):
    """Record one span around the ``with`` body; the body may add counts to
    the yielded dict."""
    _state["seq"] += 1
    sid = f"{os.getpid()}-{_state['seq']}"
    parent = _state["stack"][-1] if _state["stack"] else None
    _state["stack"].append(sid)
    rec = {"name": name, "id": sid, "parent": parent, "pid": os.getpid(), **counts}
    rec["t0"] = time.perf_counter()
    try:
        yield rec
    finally:
        rec["t1"] = time.perf_counter()
        _state["stack"].pop()
        _emit(rec)


# ---------------------------------------------------------------------------
# wrapped entry points
# ---------------------------------------------------------------------------
def _n_links(out) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.list_value_length(out.column("links"))).as_py() or 0)


def _n_html(out) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(out.column("is_html")).as_py() or 0)


# factory name in pipelines.crawl -> (span name, extra counts of the output)
FACTORIES = {
    "make_eligible_filter": ("crawl.eligible", {}),
    "make_strict_robots_filter": ("transform.strict_robots", {}),
    "make_fetch_process_tee": ("fetch.tee", {}),
    "make_process_fetched_stage": ("htmlx", {"links_out": _n_links, "html": _n_html}),
    "make_normalize_stage": ("transform.normalize", {}),
    "make_scope_filter_stage": ("transform.scope", {}),
    "make_lenient_robots_filter": ("transform.robots", {}),
    "make_propose": ("transform.propose", {}),
}


def _traced_batch_fn(name: str, fn, extra: dict):
    def traced(batch):
        with span(name, rows_in=batch.num_rows) as rec:
            out = fn(batch)
            rec["rows_out"] = out.num_rows
            for k, f in extra.items():
                rec[k] = f(out)
        return out

    return traced


def _traced_factory(name: str, factory, extra: dict):
    def make(*args, **kwargs):
        return _traced_batch_fn(name, factory(*args, **kwargs), extra)

    return make


class TracedSeenSet(SeenSet):
    def add_urls(self, urls, wave: int) -> None:
        with span("seen.add", n=len(urls)):
            super().add_urls(urls, wave)

    def propose(self, hashes, depths, wave: int) -> None:
        with span("seen.propose", n=len(hashes)):
            super().propose(hashes, depths, wave)

    def claim(self, hashes, depths, wave: int, token: int):
        with span("seen.claim", n=len(hashes)) as rec:
            mask = super().claim(hashes, depths, wave, token)
            rec["admitted"] = int(mask.sum())
        return mask

    def checkpoint(self, ckpt_dir) -> None:
        with span("seen.checkpoint"):
            super().checkpoint(ckpt_dir)

    def restore(self, ckpt_dir) -> None:
        with span("seen.restore"):
            super().restore(ckpt_dir)

    def shutdown(self) -> None:
        gauges["seen.mem_bytes"] = self.mem_bytes()
        super().shutdown()


class TracedHostsState(HostsState):
    def __init__(self, cfg) -> None:
        super().__init__(cfg)
        gauges["hosts_state"] = self

    def checkpoint(self, path) -> None:
        with span("hosts.checkpoint"):
            super().checkpoint(path)

    def restore(self, path) -> None:
        with span("hosts.restore"):
            super().restore(path)


def _traced_driver_fn(name: str, fn, counts=None):
    def traced(*args, **kwargs):
        with span(name) as rec:
            out = fn(*args, **kwargs)
            if counts is not None:
                rec.update(counts(args, kwargs, out))
        return out

    return traced


def _plan_counts(args, kwargs, items) -> dict:
    """Row groups a wave reads and the rows they hold (read after the
    planner returned, inside the span but outside the program)."""
    import pyarrow.parquet as pq

    rg_rows = 0
    for it in items:
        md = pq.ParquetFile(it["path"]).metadata
        rg_rows += sum(md.row_group(r).num_rows for r in it["rgs"])
    return {"row_groups": sum(len(it["rgs"]) for it in items), "rg_rows": rg_rows}


def _select_counts(args, kwargs, out) -> dict:
    return {"rows_out": len(out)} if hasattr(out, "__len__") else {}


def _rank_write_traced(sel_table, wave: int, path: str) -> int:
    from abwcf_ray.pipelines import crawl

    with span("schedule.rank", rows_in=sel_table.num_rows):
        return crawl._rank_write_selected._function(sel_table, wave, path)


DRIVER_FNS = {
    "_seed_frontier": ("crawl.seed", None),
    "_host_prep": ("hosts.prep", lambda a, k, n: {"fetched": int(n)}),
    "select_wave": ("schedule.select", _select_counts),
    "plan_pruned_fetch": ("fetch.plan", _plan_counts),
    "_compact_frontier": ("crawl.compact", None),
}


_TICK = os.sysconf("SC_CLK_TCK")


def machine_cpu_s() -> float:
    """CPU seconds the whole machine has spent running anything (user, nice,
    system, irq, softirq; not idle, iowait or steal) since boot. The
    benchmark runs alone on its machine, so a delta of this over an interval
    is the crawl's CPU time in it, counting every Ray process, even those
    that exit before they could be asked; time the hypervisor steals is not
    in it."""
    with open("/proc/stat") as f:
        v = f.readline().split()[1:]
    return (int(v[0]) + int(v[1]) + int(v[2]) + int(v[5]) + int(v[6])) / _TICK


class WaveClock:
    """Wave boundaries seen from outside the wave loop (installed in every
    run), on the wall clock and on the machine's CPU clock."""

    _DONE = re.compile(r"\[crawl\] wave (\d+):")

    def __init__(self) -> None:
        self.starts: dict[int, tuple[float, float]] = {}
        self.ends: dict[int, tuple[float, float]] = {}

    def log(self, msg: str) -> None:
        t = (time.perf_counter(), machine_cpu_s())
        m = self._DONE.match(msg)
        if m:
            self.ends[int(m.group(1))] = t

    def wrap_wave_dir(self, fn):
        def wave_dir(out, n):
            self.starts[n] = (time.perf_counter(), machine_cpu_s())
            return fn(out, n)

        return wave_dir

    def waves(self) -> list[tuple[int, float, float]]:
        """(wave, start, end) wall times of every wave that completed."""
        return [(w, self.starts[w][0], t1[0]) for w, t1 in sorted(self.ends.items())]

    def wave_cpu(self) -> list[tuple[int, float, float]]:
        """(wave, start, end) on the CPU clock."""
        return [(w, self.starts[w][1], t1[1]) for w, t1 in sorted(self.ends.items())]


_saved: dict = {}


def install(clock: WaveClock, traced: bool) -> None:
    """Patch ``abwcf_ray.pipelines.crawl``: always the wave clock, and with
    ``traced`` every per-layer entry point. :func:`uninstall` reverts it."""
    from abwcf_ray.pipelines import crawl
    from abwcf_ray.stages import fetch

    uninstall()
    patches = {(crawl, "_wave_dir"): clock.wrap_wave_dir(crawl._wave_dir)}
    if traced:
        _state["driver"] = True
        for attr, (name, extra) in FACTORIES.items():
            # run_crawl imports the fused fetch stage's factory at call time
            mod = crawl if hasattr(crawl, attr) else fetch
            patches[mod, attr] = _traced_factory(name, getattr(mod, attr), extra)
        for attr, (name, counts) in DRIVER_FNS.items():
            patches[crawl, attr] = _traced_driver_fn(name, getattr(crawl, attr), counts)
        patches[crawl, "_rank_write_selected"] = ray.remote(_rank_write_traced)
        patches[crawl, "SeenSet"] = TracedSeenSet
        patches[crawl, "HostsState"] = TracedHostsState
    for (mod, attr), value in patches.items():
        _saved[mod, attr] = getattr(mod, attr)
        setattr(mod, attr, value)


def uninstall() -> None:
    for (mod, attr), value in _saved.items():
        setattr(mod, attr, value)
    _saved.clear()


def start_session_sink():
    """Create this Ray session's span sink (traced runs)."""
    return SpanSink.options(name=SINK_NAME, namespace=NAMESPACE).remote()


def collect(sink) -> list[dict]:
    """Every span recorded so far: the driver's and the sink's."""
    spans = _state["spans"] + (ray.get(sink.drain.remote()) if sink is not None else [])
    _state["spans"] = []
    return spans


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span: its duration minus its children's (children
    run in the span's own process, one after another)."""
    child = {}
    for s in spans:
        if s.get("parent"):
            child[s["parent"]] = child.get(s["parent"], 0.0) + (s["t1"] - s["t0"])
    return {s["id"]: (s["t1"] - s["t0"]) - child.get(s["id"], 0.0) for s in spans}


def wave_self(waves: list[tuple[int, float, float]], spans: list[dict]) -> float:
    """Sum over waves of wave wall time minus the part of it that any span
    (in any process) covers."""
    iv = sorted((s["t0"], s["t1"]) for s in spans)
    total = 0.0
    for _, w0, w1 in waves:
        covered, cur0, cur1 = 0.0, None, None
        for a, b in iv:
            a, b = max(a, w0), min(b, w1)
            if a >= b:
                continue
            if cur1 is None or a > cur1:
                if cur1 is not None:
                    covered += cur1 - cur0
                cur0, cur1 = a, b
            else:
                cur1 = max(cur1, b)
        if cur1 is not None:
            covered += cur1 - cur0
        total += (w1 - w0) - covered
    return total


def layer_metrics(
    spans: list[dict],
    waves: list[tuple[int, float, float]],
    manifests: list[dict],
    warmup_s: float,
    n_waves_started: int,
) -> dict[str, tuple[float, str]]:
    st = self_times(spans)
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def n(name):
        return len(by.get(name, []))

    def busy(name):
        return float(sum(st[s["id"]] for s in by.get(name, [])))

    def tot(name, key):
        return int(sum(s.get(key, 0) for s in by.get(name, [])))

    def ratio(a, b):
        return float(a / b) if b else 0.0

    def step(name):
        return float(sum(m.get("step_times", {}).get(name, 0.0) for m in manifests))

    def msum(key):
        return int(sum(m.get(key, 0) for m in manifests))

    n_new = msum("n_new")
    sel_rows = msum("n_selected")
    prop_in = tot("transform.propose", "rows_in")
    hosts = gauges.get("hosts_state")
    out = {
        "crawl.wave_self_s": (wave_self(waves, spans), "s"),
        "crawl.warmup_s": (warmup_s, "s"),
        "crawl.seed_s": (busy("crawl.seed"), "s"),
        "crawl.frontier_write_s": (step("frontier_write"), "s"),
        "crawl.compact_s": (busy("crawl.compact"), "s"),
        "crawl.compactions": (n("crawl.compact"), "count"),
        "crawl.host_histogram_s": (step("host_histogram"), "s"),
        "crawl.waves_failed": (n_waves_started - len(manifests), "count"),
        "schedule.select_s": (busy("schedule.select"), "s"),
        "schedule.rank_s": (busy("schedule.rank"), "s"),
        "schedule.eligible_rows": (msum("n_eligible"), "rows"),
        "schedule.selected_rows": (sel_rows, "rows"),
        "hosts.robots_fetched": (msum("n_robots_fetched"), "count"),
        "hosts.prep_s": (busy("hosts.prep"), "s"),
        "hosts.checkpoint_s": (busy("hosts.checkpoint"), "s"),
        "hosts.restore_s": (busy("hosts.restore"), "s"),
        "hosts.live": (len(hosts) if hosts is not None else 0, "count"),
        "fetch.pages": (tot("htmlx", "rows_in"), "pages"),
        "fetch.busy_s": (busy("fetch.tee"), "s"),
        "fetch.row_groups": (tot("fetch.plan", "row_groups"), "count"),
        "fetch.read_amplification": (ratio(tot("fetch.plan", "rg_rows"), sel_rows), "ratio"),
        "htmlx.pages": (tot("htmlx", "html"), "pages"),
        "htmlx.busy_s": (busy("htmlx"), "s"),
        "htmlx.links_out": (tot("htmlx", "links_out"), "count"),
        "transform.normalize.busy_s": (busy("transform.normalize"), "s"),
        "transform.scope.pass_ratio": (
            ratio(tot("transform.scope", "rows_out"), tot("transform.scope", "rows_in")),
            "ratio",
        ),
        "transform.robots.busy_s": (busy("transform.robots"), "s"),
        "transform.robots.pass_ratio": (
            ratio(tot("transform.robots", "rows_out"), tot("transform.robots", "rows_in")),
            "ratio",
        ),
        "transform.propose.rows_in": (prop_in, "rows"),
        "transform.propose.busy_s": (busy("transform.propose"), "s"),
        "transform.propose.rpc_skip_ratio": (
            1.0 - ratio(tot("seen.propose", "n"), prop_in) if prop_in else 0.0,
            "ratio",
        ),
        "seen.claim_s": (busy("seen.claim"), "s"),
        "seen.admit_ratio": (ratio(n_new, prop_in), "ratio"),
        "seen.checkpoint_s": (busy("seen.checkpoint"), "s"),
        "seen.restore_s": (busy("seen.restore"), "s"),
        "seen.mem_bytes": (gauges.get("seen.mem_bytes", 0), "bytes"),
    }
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, dict]:
    st = self_times(spans)
    agg: dict[str, dict] = {}
    for s in spans:
        a = agg.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["total_s"] += s["t1"] - s["t0"]
        a["self_s"] += st[s["id"]]
    return agg
