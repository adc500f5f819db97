"""Heavy-hitter skew microbench for the politeness scheduler.

Claim under test (README "Shuffle-free politeness scheduler",
stages/schedule.py module docstring): a heavy-hitter host never
materializes as a single group — every selection task prunes it to k_h
rows before the driver merge, so select_wave's cost is flat in host skew
where a groupby(host) shuffle would funnel the hot host through one task.

Builds an n-row frontier at three skews (uniform over 12k hosts; one host
holding 50%; one host holding 90%), runs the real ``select_wave`` over
each in the same Ray session, and prints one JSON line with wall times and
selected sizes. The selected set stays politeness-bounded (the hot host
still yields only k_h rows), so output size SHRINKS with skew while wall
time stays flat — the signature of pruning before the merge.

Usage: python tools/bench_skew.py [--rows 600000] [--cpus 16]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pyarrow as pa

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def mk_frontier(n: int, hot_frac: float, n_hosts: int = 12_000) -> pa.Table:
    rng = np.random.default_rng(7)
    host_ids = rng.integers(0, n_hosts, n)
    n_hot = int(n * hot_frac)
    if n_hot:
        host_ids[:n_hot] = 0  # host 0 is the heavy hitter
    urls = [f"https://h{h}.example/p{i}" for i, h in enumerate(host_ids)]
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "host": pa.array([f"https://h{h}.example" for h in host_ids]),
            "depth": pa.array(np.zeros(n, dtype=np.int32), pa.int32()),
            "priority": pa.array(rng.integers(0, 1 << 40, n), pa.int64()),
        }
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=600_000)
    ap.add_argument("--cpus", type=int, default=16)
    ap.add_argument("--blocks", type=int, default=64, help="parquet files per frontier")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus, include_dashboard=False)
    import tempfile

    import pyarrow.parquet as pq

    from abwcf_ray.stages.schedule import select_wave
    from abwcf_ray.state.hosts import sched_payload_from_delays

    delays = {f"https://h{h}.example": 1000 for h in range(12_000)}
    payload = ray.put(sched_payload_from_delays(delays, 10.0))

    out: dict = {
        "metric": "select_wave wall under host skew (s)",
        "rows": args.rows,
        "num_cpus": args.cpus,
        "profiles": {},
    }
    for name, frac in [("uniform", 0.0), ("hot50", 0.5), ("hot90", 0.9)]:
        t = mk_frontier(args.rows, frac)
        tmp = tempfile.TemporaryDirectory()
        step = -(-t.num_rows // args.blocks)
        files = []
        for i, start in enumerate(range(0, t.num_rows, step)):
            files.append(f"{tmp.name}/part-{i:05d}.parquet")
            pq.write_table(t.slice(start, step), files[-1])
        # warm + 3 timed reps, report the median
        select_wave(files, [], payload)
        reps = []
        sel_rows = 0
        for _ in range(3):
            t0 = time.perf_counter()
            sel = select_wave(files, [], payload)[0].to_pandas()
            reps.append(round(time.perf_counter() - t0, 3))
            sel_rows = len(sel)
        tmp.cleanup()
        out["profiles"][name] = {
            "wall_s_median": sorted(reps)[1],
            "wall_s": reps,
            "selected_rows": sel_rows,
        }
    u = out["profiles"]["uniform"]["wall_s_median"]
    h9 = out["profiles"]["hot90"]["wall_s_median"]
    out["hot90_over_uniform"] = round(h9 / u, 3) if u else None
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
