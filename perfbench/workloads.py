"""Workloads of the crawl-engine benchmark and their per-seed inputs.

Each workload is a ``CrawlConfig`` that differs from the defaults only in its
politeness window (``wave_duration_s``), its wave count and the slice of the
corpus that seeds the frontier. Waves are deterministic, so a crawl, and a
traced crawl stopped and resumed from its checkpoint, must both match the
single-process oracle's straight run exactly.

The corpus stands in for the web. It is generated once per checkout from
the fixed ``CORPUS_SEED``: at this size (160 hosts) a corpus drawn from the
run's seed moves pages/s and wave times by more than any bound a benchmark
can hold (a handful of large hosts disallowed or slowed by robots.txt
decides a wave's size). The run's seed picks which urls seed the frontier.
The oracle's result depends on both and is built per seed. Both are cached
under the work directory, keyed by a hash of the ``abwcf_ray`` sources and
this file, and built in a child process: none of that work is timed, and
none of it counts towards the driver's peak RSS.

Run ``python3 -m perfbench.workloads --workload W --seed S --n-pages N
--work DIR`` from the repository root to build the inputs of one run.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path

# corpus size of a benchmark run; the smoke test passes a much smaller one
N_PAGES = 8000
CORPUS_SEED = 42
# sparse seeding takes 1/SEED_STRIDE of the corpus urls, dense seeding all
# the others; the run's seed draws which
SEED_STRIDE = 16
# corpus caches kept in the work directory (each is ~30 MB at N_PAGES)
KEEP_CORPORA = 4


@dataclass(frozen=True)
class Workload:
    name: str
    wave_duration_s: float
    max_waves: int
    # a traced run stops the crawl after this many waves and resumes it from
    # its checkpoint in a new Ray session, to measure the restore paths;
    # None: no restart
    trace_restart_after: int | None
    # True: seed 1/SEED_STRIDE of the urls; False: all but 1/SEED_STRIDE
    sparse_seeds: bool
    why: str

    def config(self, max_waves: int | None = None):
        from abwcf_ray.config import CrawlConfig

        return CrawlConfig(
            wave_duration_s=self.wave_duration_s,
            max_waves=self.max_waves if max_waves is None else max_waves,
        )

    def seeds(self, urls: list[str], seed: int) -> list[str]:
        """The frontier's seed urls, in corpus order: a ``seed``-drawn
        1/SEED_STRIDE of ``urls``, or all the others."""
        import random

        picked = set(random.Random(seed).sample(range(len(urls)), len(urls) // SEED_STRIDE))
        return [u for i, u in enumerate(urls) if (i in picked) == self.sparse_seeds]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mature_frontier",
            wave_duration_s=600.0,
            max_waves=4,
            trace_restart_after=None,
            sparse_seeds=False,
            why="15/16 of the corpus starts Discovered and a 600 s window gives "
            "every host a large budget: the fused fetch/parse/candidate stage "
            "carries the run",
        ),
        Workload(
            "growing_frontier",
            wave_duration_s=1.0,
            max_waves=40,
            trace_restart_after=24,
            sparse_seeds=True,
            why="1/16 seeded and a 1 s window (k_h ~ 1 per host): 40 small "
            "waves, so the per-wave fixed cost and the delta-chain "
            "compactions dominate; the traced run restarts after wave 24",
        ),
    )
}


def code_key(root: Path) -> str:
    """Hash of every source file the cached inputs depend on: the program
    (``abwcf_ray``) and the workload definitions (this file)."""
    h = hashlib.sha256()
    files = sorted((root / "abwcf_ray").rglob("*.py")) + [Path(__file__).resolve()]
    for p in files:
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


class Inputs:
    """Per-seed caches of one workload under ``work``, a directory inside
    the checkout."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int, n_pages: int):
        self.workload = workload
        self.seed = seed
        self.n_pages = n_pages
        key = code_key(root)
        self.corpus_root = work / "corpus"
        self.corpus_dir = self.corpus_root / f"{key}_s{CORPUS_SEED}_n{n_pages}"
        self.oracle_path = (
            work / "oracle" / f"{key}_{workload.name}_s{seed}_n{n_pages}.pkl"
        )

    def corpus(self):
        from abwcf_ray.sources.corpus import generate_corpus

        return generate_corpus(
            self.corpus_dir, n_pages=self.n_pages, seed=CORPUS_SEED, profile="heavy"
        )

    @staticmethod
    def corpus_urls(corpus) -> list[str]:
        import pyarrow.parquet as pq

        urls: list[str] = []
        for part in sorted(Path(corpus.pages_dir).glob("*.parquet")):
            urls.extend(pq.read_table(part, columns=["url"]).column("url").to_pylist())
        return urls

    def build(self) -> None:
        """Generate the corpus and the oracle result if not cached yet, and
        drop the least recently used other corpora. Builds of one work
        directory take turns."""
        import fcntl

        self.corpus_root.mkdir(parents=True, exist_ok=True)
        with open(self.corpus_root.parent / "build.lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            self._build()

    def _build(self) -> None:
        corpus = self.corpus()
        os.utime(self.corpus_dir)
        others = sorted(
            (d for d in self.corpus_root.iterdir() if d != self.corpus_dir),
            key=lambda d: d.stat().st_mtime,
        )
        for d in others[: max(0, len(others) - (KEEP_CORPORA - 1))]:
            shutil.rmtree(d, ignore_errors=True)
        if self.oracle_path.exists():
            return
        from abwcf_ray.pipelines.oracle import run_oracle

        res = run_oracle(
            self.workload.config(), corpus, seeds=self.seeds(corpus)
        )
        reduced = {
            "order": res.order,
            "frontier": sorted((u, s, d, p) for u, (s, d, p) in res.frontier.items()),
            "seen": sorted(res.seen),
            "extracted": sorted(res.extracted),
        }
        self.oracle_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.oracle_path.with_suffix(".tmp")
        with open(tmp, "wb") as f:
            pickle.dump(reduced, f)
        os.replace(tmp, self.oracle_path)

    def seeds(self, corpus) -> list[str]:
        return self.workload.seeds(self.corpus_urls(corpus), self.seed)

    def oracle(self) -> dict:
        """The oracle result, reduced to what the gate compares. The pickle
        is written only by :meth:`build`."""
        with open(self.oracle_path, "rb") as f:
            return pickle.load(f)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--n-pages", type=int, default=N_PAGES)
    ap.add_argument("--work", required=True)
    a = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    Inputs(root, Path(a.work), WORKLOADS[a.workload], a.seed, a.n_pages).build()


if __name__ == "__main__":
    main()
