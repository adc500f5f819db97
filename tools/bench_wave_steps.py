"""Per-step wave-cost probe: run the bench headline's single mature-
frontier politeness wave and print the manifest step_times — the
decomposition of the per-wave fixed cost F (round-4 verdict #2).

Usage: RAY_GRAFT_CPUS=32 python tools/bench_wave_steps.py [n_pages] [waves]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def main() -> None:
    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    os.environ.setdefault("RAYON_NUM_THREADS", "1")
    n_pages = int(sys.argv[1]) if len(sys.argv) > 1 else 600_000
    n_waves = int(sys.argv[2]) if len(sys.argv) > 2 else 1

    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow.dataset as pads

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.sources.corpus import generate_corpus

    corpus = generate_corpus(
        f"/tmp/abwcf_bench_corpus_{n_pages}_heavy",
        n_pages=n_pages, seed=42, num_buckets=128, profile="heavy",
    )
    cfg = CrawlConfig(
        max_waves=n_waves, wave_duration_s=600.0, seen_shards=16,
        max_crawl_depth=16,
    )
    out_dir = Path(f"/tmp/abwcf_wavesteps_{NUM_CPUS}")
    shutil.rmtree(out_dir, ignore_errors=True)
    all_urls = (
        pads.dataset(corpus.pages_dir).to_table(columns=["url"])
        .column("url").to_pylist()
    )
    t0 = time.perf_counter()
    summary = run_crawl(cfg, corpus, out_dir, seeds=all_urls,
                        log=lambda *_: None)
    wall = time.perf_counter() - t0
    for w in summary.per_wave:
        print(json.dumps({
            "wave": w.get("wave"),
            "num_cpus": NUM_CPUS,
            "n_pages": n_pages,
            "n_selected": w.get("n_selected"),
            "duration_s": w.get("duration_s"),
            "step_times": w.get("step_times"),
        }))
    print(json.dumps({"total_wall_s": round(wall, 2),
                      "total_fetched": summary.total_fetched}))
    ray.shutdown()


if __name__ == "__main__":
    main()
