"""Differential config fuzz: the wave engine against the single-process
oracle over drawn corpora and configurations.

Each example draws a small corpus (``generate_corpus``), the crawl fields
``run_oracle`` models (``wave_duration_s``, ``max_waves``, ``max_pages``,
``max_crawl_depth``, ``max_content_length``, ``priority_fn``), and the
engine-only fields the result must not depend on
(``fetch_transport_batch_size``, ``frontier_compact_every``,
``frontier_compact_max_flips``, ``seen_shards``,
``total_bandwidth_budget_bps`` — none, or a budget that allows one fetch
task in flight —, ``dedup_content``, the fan-out row target
``schedule.ROWS_PER_TASK`` and the payloads' inline limit
``payload.INLINE_LIMIT``: Ray's, or 0, which puts every payload in the
object store). It may stop the crawl after a drawn wave and
resume it. The finished crawl must pass the benchmark gate's four checks
(per-wave order, final frontier, seen set, extracted text) against the
oracle, and every crawl runs under a wall-clock timeout, so a hang fails
the example instead of the suite.

Derandomized with 10 examples by default; ``tools/fuzz_crawl.py`` runs more
(``ABWCF_FUZZ_EXAMPLES``) under a chosen seed (``ABWCF_FUZZ_SEED``).
"""

from __future__ import annotations

import dataclasses
import os
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from abwcf_ray.config import CrawlConfig
from abwcf_ray.pipelines.oracle import run_oracle
from abwcf_ray.sources.corpus import generate_corpus
from abwcf_ray.stages.payload import INLINE_LIMIT

EXAMPLES = int(os.environ.get("ABWCF_FUZZ_EXAMPLES", "10"))
FUZZ_SEED = os.environ.get("ABWCF_FUZZ_SEED")
CRAWL_TIMEOUT_S = 120

PRIORITY_FNS = ["breadth_first_hash", "breadth_first", "depth_first", "random"]


@st.composite
def crawl_examples(draw):
    corpus = (draw(st.sampled_from([150, 300, 500])), draw(st.integers(1, 3)))
    max_waves = draw(st.integers(1, 6))
    cfg = CrawlConfig(
        wave_duration_s=draw(st.sampled_from([1.0, 5.0, 10.0, 30.0])),
        max_waves=max_waves,
        max_pages=draw(st.one_of(st.just(CrawlConfig.max_pages), st.integers(1, 120))),
        max_crawl_depth=draw(
            st.one_of(st.just(CrawlConfig.max_crawl_depth), st.integers(0, 4))
        ),
        max_content_length=draw(st.sampled_from([1_000_000, 1_200])),
        priority_fn=draw(st.sampled_from(PRIORITY_FNS)),
        fetch_transport_batch_size=draw(st.sampled_from([256, 1, 7, 64])),
        frontier_compact_every=draw(st.integers(1, 8)),
        frontier_compact_max_flips=draw(st.sampled_from([16_000_000, 10, 100])),
        seen_shards=draw(st.sampled_from([None, 1, 2, 3])),
        total_bandwidth_budget_bps=draw(
            st.sampled_from([None, CrawlConfig.min_bandwidth_per_fetcher_bps])
        ),
        dedup_content=draw(st.booleans()),
    )
    rows_per_task = draw(st.sampled_from([4096, 16, 256]))
    stop = None
    if max_waves >= 2:
        stop = draw(st.one_of(st.none(), st.integers(0, max_waves - 2)))
    inline_limit = draw(st.sampled_from([INLINE_LIMIT, 0]))
    return corpus, cfg, rows_per_task, stop, inline_limit


def _within(seconds: float, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` in a thread; failing if it has not returned
    after ``seconds``."""
    box: dict = {}

    def target() -> None:
        try:
            box["out"] = fn(*args, **kwargs)
        except BaseException as e:  # re-raised in the test thread
            box["err"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(seconds)
    if t.is_alive():
        pytest.fail(f"crawl did not finish within {seconds} s")
    if "err" in box:
        raise box["err"]
    return box["out"]


def check_example(example, corpus_root, out) -> None:
    """Crawl ``example`` (stopping and resuming if it says so) into ``out``
    and assert the gate's four checks against the oracle."""
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.stages import payload, schedule
    from perfbench.gate import check

    (n_pages, corpus_seed), cfg, rows_per_task, stop, inline_limit = example
    corpus = generate_corpus(
        corpus_root / f"c{n_pages}_{corpus_seed}", n_pages=n_pages, seed=corpus_seed,
        num_buckets=4,
    )
    res = run_oracle(cfg, corpus)
    oracle = {
        "order": res.order,
        "frontier": sorted((u, s, d, p) for u, (s, d, p) in res.frontier.items()),
        "seen": sorted(res.seen),
        "extracted": sorted(res.extracted),
    }
    quiet = {"log": lambda *_: None}
    with (
        mock.patch.object(schedule, "ROWS_PER_TASK", rows_per_task),
        mock.patch.object(payload, "INLINE_LIMIT", inline_limit),
    ):
        if stop is not None:
            _within(
                CRAWL_TIMEOUT_S, run_crawl, dataclasses.replace(cfg, max_waves=stop + 1),
                corpus, out, **quiet,
            )
        summary = _within(
            CRAWL_TIMEOUT_S, run_crawl, cfg, corpus, out, resume=stop is not None, **quiet
        )
    got = check(out, summary.last_wave_dir, summary.seen_size, oracle, corpus)
    assert got["correct"], (example, got)


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    derandomize=FUZZ_SEED is None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(example=crawl_examples())
def test_engine_matches_oracle_on_drawn_configs(ray_session, tmp_path_factory, example):
    check_example(example, tmp_path_factory.getbasetemp() / "fuzz_corpora",
                  tmp_path_factory.mktemp("fuzz_crawl"))


if FUZZ_SEED is not None:
    test_engine_matches_oracle_on_drawn_configs = seed(int(FUZZ_SEED))(
        test_engine_matches_oracle_on_drawn_configs
    )
