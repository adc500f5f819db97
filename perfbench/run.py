"""Crawl-engine benchmark: ``run_crawl`` over a generated corpus on ``nproc``
CPUs, oracle-checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload mature_frontier --seed 1 --seconds 10 --trace 0

A run builds (or reuses) the corpus and the seed's oracle result in a child
process, then crawls the workload in a closed loop: one driver process runs
the waves back to back in one Ray session. It repeats the whole crawl until
``--seconds`` have been measured (at least once). After each crawl the gate
(``gate.py``) compares the output with the oracle.

``--trace 0`` prints the end-to-end metrics, measured with tracing off. The
gated times are read from the machine's CPU clock (``tracing.machine_cpu_s``):
on a virtual machine whose hypervisor steals a varying share of the CPUs,
wall-clock times of identical runs differ by up to a third, while CPU time
barely moves. The wall-clock counterparts are reported on the line before
the result, ungated.

``--trace 1`` first crawls the first ``REF_WAVES`` waves untraced as a
reference, then the whole crawl with every layer wrapped (``tracing.py``). A
workload with ``trace_restart_after`` stops the traced crawl there and
resumes it from its checkpoint in a new Ray session, so the restore paths are
measured too. It prints the per-layer metrics and the tracing overhead
(traced against untraced wall time of the reference waves), and writes every
span to ``.perfbench_work/spans/<workload>_s<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it reports the
seed, ``nproc``, the per-wave selected counts and the gate's checks. The exit
code is 0 only when the output is correct. The benchmark must run alone on
its machine: the CPU clock counts every process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Ray's unix socket paths live under its temp dir and may not exceed 107
# bytes; the session dir adds ~62, so a deep checkout falls back to Ray's
# default temp dir
RAY_TMP = ROOT / ".pbr"
RAY_TMP_MAX = 44
# waves of the untraced reference crawl a traced run compares itself with
REF_WAVES = 8
THREAD_VARS = ("POLARS_MAX_THREADS", "RAYON_NUM_THREADS", "OMP_NUM_THREADS")


def _pin_env() -> None:
    for v in THREAD_VARS:
        os.environ[v] = "1"
    # Ray workers inherit this: they import abwcf_ray and perfbench from here
    paths = [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))


def _nproc() -> int:
    """CPUs as ``nproc`` reports them in the caller's environment (it honours
    ``OMP_NUM_THREADS``, which the benchmark later pins for its own
    threads)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def _peak_rss_mb() -> float:
    """The driver's peak RSS so far. The inputs are built in a child
    process, so before the gate this is the crawl's peak."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _dir_mb(d: Path) -> float:
    return sum(p.stat().st_size for p in d.rglob("*") if p.is_file()) / 1e6


class Segment:
    """One Ray session running one ``run_crawl`` call."""

    def __init__(self, workload, max_waves: int, resume: bool, traced: bool, nproc: int):
        self.workload = workload
        self.max_waves = max_waves
        self.resume = resume
        self.traced = traced
        self.nproc = nproc

    def run(self, corpus, out: Path, seeds, after=None) -> None:
        """Crawl; ``after(summary)`` runs inside the session once the crawl
        returned (the gate reads the frontier through Ray)."""
        import ray
        from ray.data import DataContext

        from abwcf_ray.pipelines.crawl import run_crawl
        from perfbench import tracing

        self.clock = tracing.WaveClock()
        tracing.install(self.clock, self.traced)
        self.t_init = time.perf_counter()
        self.cpu_init = tracing.machine_cpu_s()
        init_kw = {}
        if len(str(RAY_TMP)) <= RAY_TMP_MAX:
            init_kw["_temp_dir"] = str(RAY_TMP)
        old_sessions = set(RAY_TMP.glob("session_2*"))
        ray.init(
            address="local",
            num_cpus=self.nproc,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            namespace=tracing.NAMESPACE,
            object_store_memory=512 * 2**20,
            **init_kw,
        )
        try:
            DataContext.get_current().enable_progress_bars = False
            sink = tracing.start_session_sink() if self.traced else None
            self.t_call = time.perf_counter()
            self.cpu_call = tracing.machine_cpu_s()
            self.summary = run_crawl(
                self.workload.config(self.max_waves),
                corpus,
                out,
                seeds=seeds,
                resume=self.resume,
                log=self.clock.log,
            )
            self.t_end = time.perf_counter()
            self.cpu_end = tracing.machine_cpu_s()
            self.peak_rss_mb = _peak_rss_mb()
            self.spans = tracing.collect(sink) if self.traced else []
            if after is not None:
                after(self.summary)
        finally:
            tracing.uninstall()
            ray.shutdown()
            # this session's logs and sockets (a few MB per session)
            for d in set(RAY_TMP.glob("session_2*")) - old_sessions:
                shutil.rmtree(d, ignore_errors=True)

    @property
    def waves(self) -> list[tuple[int, float, float]]:
        return self.clock.waves()

    @property
    def waves_cpu(self) -> list[tuple[int, float, float]]:
        return self.clock.wave_cpu()


class Rep:
    """One crawl of a workload, then the gate. A traced crawl of a workload
    with ``trace_restart_after`` stops there and resumes in a new Ray
    session."""

    def __init__(self, workload, corpus, seeds, oracle, out: Path, nproc: int):
        self.w, self.corpus, self.seeds, self.oracle = workload, corpus, seeds, oracle
        self.out, self.nproc = out, nproc

    def run(self, traced: bool = False, corrupt: bool = False, max_waves: int | None = None) -> "Rep":
        """``max_waves`` set: an untraced reference crawl of that many
        waves, not gated."""
        from abwcf_ray.stages.fetch import invalidate_rg_index

        if self.out.exists():
            shutil.rmtree(self.out)
        self.corrupt = corrupt
        restart = self.w.trace_restart_after if traced else None
        if max_waves is not None:
            self.segments = [Segment(self.w, max_waves, False, False, self.nproc)]
        elif restart is not None:
            self.segments = [
                Segment(self.w, restart, False, True, self.nproc),
                Segment(self.w, self.w.max_waves, True, True, self.nproc),
            ]
        else:
            self.segments = [Segment(self.w, self.w.max_waves, False, traced, self.nproc)]
        for i, seg in enumerate(self.segments):
            if i:
                # a restart: the resumed segment must not reuse the driver's
                # in-memory fetch index of the first one
                invalidate_rg_index(self.corpus.hashed_dir)
            last = i == len(self.segments) - 1
            seg.run(self.corpus, self.out, self.seeds, self._gate if last and max_waves is None else None)
        self.manifests = [
            json.loads((d / "manifest.json").read_text())
            for d in sorted(self.out.glob("wave_*"), key=lambda d: int(d.name.split("_")[1]))
            if (d / "manifest.json").exists()
        ]
        self.ckpt_mb = _dir_mb(self.out)
        self.clock_ok, self.clock_skew_s = self._check_clock()
        return self

    def _gate(self, summary) -> None:
        from perfbench import gate

        if self.corrupt:
            gate.corrupt(self.out, summary.last_wave_dir)
        self.gate = gate.check(
            self.out, summary.last_wave_dir, summary.seen_size, self.oracle, self.corpus
        )

    def _check_clock(self) -> tuple[bool, float]:
        """The outside wave boundaries must agree with the manifests' own
        ``duration_s`` (measured inside the wave loop)."""
        dur = {m["wave"]: m["duration_s"] for m in self.manifests}
        skew = [abs((t1 - t0) - dur.get(w, float("inf"))) for w, t0, t1 in self.waves]
        worst = max(skew) if skew else float("inf")
        return worst <= 0.25, worst

    @property
    def waves(self):
        return [w for s in self.segments for w in s.waves]

    def totals(self) -> tuple[int, int]:
        """(pages fetched, new frontier urls)."""
        return (
            sum(m.get("n_selected", 0) for m in self.manifests),
            sum(m.get("n_new", 0) for m in self.manifests),
        )

    def metrics(self) -> dict:
        """End-to-end metrics on the machine's CPU clock (gated) and their
        wall-clock counterparts (reported only)."""
        import numpy as np

        pages, new = self.totals()
        seg = self.segments[0]
        in_waves = seg.waves_cpu[-1][2] - seg.waves_cpu[0][1]
        per_wave = [t1 - t0 for _, t0, t1 in seg.waves_cpu]
        wall_in_waves = seg.waves[-1][2] - seg.waves[0][1]
        wall_per_wave = [t1 - t0 for _, t0, t1 in seg.waves]
        return {
            "gated": {
                "pages_per_cpu_s": pages / in_waves,
                "new_urls_per_cpu_s": new / in_waves,
                "wave_cpu_s_p50": float(np.percentile(per_wave, 50)),
                "wave_cpu_s_p75": float(np.percentile(per_wave, 75)),
                "crawl_cpu_s": seg.cpu_end - seg.cpu_call,
                "setup_s": seg.waves_cpu[0][1] - seg.cpu_init,
                "driver_peak_rss_mb": seg.peak_rss_mb,
                "ckpt_mb": self.ckpt_mb,
            },
            "wall": {
                "pages_per_s": pages / wall_in_waves,
                "new_urls_per_s": new / wall_in_waves,
                "wave_s_p50": float(np.percentile(wall_per_wave, 50)),
                "wave_s_p75": float(np.percentile(wall_per_wave, 75)),
                "crawl_s": seg.t_end - seg.t_call,
                "setup_s": seg.waves[0][1] - seg.t_init,
                "ray_init_s": seg.t_call - seg.t_init,
                "warmup_s": seg.summary.warmup_s,
            },
        }


UNITS = {
    "pages_per_cpu_s": "pages/cpu-s",
    "new_urls_per_cpu_s": "urls/cpu-s",
    "wave_cpu_s_p50": "cpu-s",
    "wave_cpu_s_p75": "cpu-s",
    "crawl_cpu_s": "cpu-s",
    "setup_s": "s",
    "driver_peak_rss_mb": "MB",
    "ckpt_mb": "MB",
}


def _end_to_end(reps: list[Rep]) -> tuple[dict, dict]:
    per = [r.metrics() for r in reps]
    gated = {k: statistics.median(p["gated"][k] for p in per) for k in UNITS}
    wall = {k: statistics.median(p["wall"][k] for p in per) for k in per[0]["wall"]}
    return {k: {"value": gated[k], "unit": u} for k, u in UNITS.items()}, wall


def _per_layer(rep: Rep, ref: Rep) -> tuple[dict, list[dict]]:
    from perfbench import tracing

    spans = []
    for i, seg in enumerate(rep.segments):
        for s in seg.spans:
            s = dict(s, seg=i, id=f"{i}:{s['id']}")
            if s["parent"]:
                s["parent"] = f"{i}:{s['parent']}"
            spans.append(s)
    n_started = sum(len(seg.clock.starts) for seg in rep.segments)
    layers = tracing.layer_metrics(
        spans,
        rep.waves,
        rep.manifests,
        sum(seg.summary.warmup_s for seg in rep.segments),
        n_started,
    )
    # restart -> end of the first resumed wave; 0 for a workload whose
    # traced run has no restart
    resumed = rep.segments[-1] if len(rep.segments) > 1 else None
    layers["crawl.resume_s"] = (resumed.waves[0][2] - resumed.t_init if resumed else 0.0, "s")
    # wall time of the same first waves of the same crawl, traced and not
    n_ref = len(ref.waves)
    traced_s = rep.waves[n_ref - 1][2] - rep.waves[0][1]
    plain_s = ref.waves[-1][2] - ref.waves[0][1]
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    layers["trace.overhead_share"] = (traced_s / plain_s - 1.0, "ratio")
    layers["trace.spans"] = (len(spans), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}, spans


def main() -> int:
    ap = argparse.ArgumentParser(description="crawl-engine benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n-pages", type=int, default=None, help="corpus size (smoke test)")
    ap.add_argument(
        "--corrupt", action="store_true", help="damage the output before the gate (smoke test)"
    )
    a = ap.parse_args()

    if not (ROOT / "abwcf_ray" / "__init__.py").is_file():
        print(f"no abwcf_ray package under {ROOT}", file=sys.stderr)
        return 2
    nproc = _nproc()
    _pin_env()
    from perfbench.workloads import N_PAGES, WORKLOADS, Inputs

    if a.workload not in WORKLOADS:
        print(f"unknown workload {a.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[a.workload]
    n_pages = a.n_pages or N_PAGES
    subprocess.run(
        [sys.executable, "-m", "perfbench.workloads", "--workload", w.name,
         "--seed", str(a.seed), "--n-pages", str(n_pages), "--work", str(WORK)],
        cwd=ROOT, check=True, timeout=170,
    )

    import abwcf_ray

    if Path(abwcf_ray.__file__).resolve().parent != ROOT / "abwcf_ray":
        print(f"abwcf_ray imported from {abwcf_ray.__file__}, not {ROOT}", file=sys.stderr)
        return 2
    inputs = Inputs(ROOT, WORK, w, a.seed, n_pages)
    corpus = inputs.corpus()
    seeds = inputs.seeds(corpus)
    oracle = inputs.oracle()
    out = WORK / "out" / w.name

    def rep() -> Rep:
        return Rep(w, corpus, seeds, oracle, out, nproc)

    info = {"workload": w.name, "seed": a.seed, "nproc": nproc, "n_pages": n_pages}
    if a.trace:
        ref = rep().run(max_waves=min(w.max_waves, REF_WAVES))
        reps = [rep().run(traced=True, corrupt=a.corrupt)]
        metrics, spans = _per_layer(reps[0], ref)
        from perfbench import tracing

        spans_path = WORK / "spans" / f"{w.name}_s{a.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(
            json.dumps({"self_time": tracing.self_time_by_name(spans), "spans": spans})
        )
    else:
        reps = []
        t0 = time.perf_counter()
        while not reps or time.perf_counter() - t0 < a.seconds:
            reps.append(rep().run(corrupt=a.corrupt))
        metrics, info["wall"] = _end_to_end(reps)

    checks = [r.gate for r in reps]
    correct = all(g["correct"] for g in checks) and all(r.clock_ok for r in reps)
    info.update(
        reps=len(reps),
        waves=[len(r.waves) for r in reps],
        selected_per_wave=[m.get("n_selected", 0) for m in reps[-1].manifests],
        clock_skew_s=max(r.clock_skew_s for r in reps),
        gate=checks,
    )
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, sum(g["attempted"] for g in checks)),
                "failed": sum(g["failed"] for g in checks),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
