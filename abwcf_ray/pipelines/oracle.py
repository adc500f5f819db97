"""Single-process reference oracle for the wave model.

A straight-line Python implementation of the exact crawl semantics in
SURVEY.md §3.4 — same kernels (urlnorm/robots/htmlx/hashing), NO Ray, no
shared pipeline code. Golden e2e tests run both this and the Ray Data
pipeline over the same corpus and assert identical: selected fetch order per
wave, final frontier (url/status/depth/priority), extracted text, and seen
set (tests/test_crawl_e2e.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow.dataset as pads

from abwcf_ray.config import CrawlConfig
from abwcf_ray.functions.hashing import hash64_one
from abwcf_ray.functions.htmlx import header_nofollow, parse_document
from abwcf_ray.functions.urlnorm import (
    get_scheme_and_authority,
    normalize_url,
    resolve_location,
)
from abwcf_ray.sources.corpus import CorpusMeta
from abwcf_ray.stages.schedule import budget_for_delay
from abwcf_ray.state.hosts import HostEntry, RobotsFetchSim
import re


@dataclass
class OracleResult:
    # frontier: url -> (status, depth, priority)
    frontier: dict[str, tuple[str, int, int]] = field(default_factory=dict)
    # per wave: list of (host, rank_in_host, url) in canonical global order
    order: list[list[tuple[str, int, str]]] = field(default_factory=list)
    extracted: dict[str, str] = field(default_factory=dict)
    seen: set[str] = field(default_factory=set)
    total_fetched: int = 0


def _priority(cfg: CrawlConfig, url: str, depth: int) -> int:
    if cfg.priority_fn == "breadth_first":
        return -depth
    if cfg.priority_fn == "depth_first":
        return depth
    h = hash64_one(url, seed=cfg.priority_seed)
    if cfg.priority_fn == "random":
        return h >> 1
    return depth * -(1 << 32) + (h & 0xFFFFFFFF)


def run_oracle(cfg: CrawlConfig, corpus: CorpusMeta, seeds: list[str] | None = None) -> OracleResult:
    pages = pads.dataset(corpus.pages_dir).to_table(
        columns=["url", "html", "text", "status", "content_type", "location", "x_robots_tag"]
    )
    web = {r["url"]: r for r in pages.to_pylist()}
    robots_sim = RobotsFetchSim(corpus.robots_path, cfg)

    must = [re.compile(p) for p in cfg.must_match]
    must_not = [re.compile(p) for p in cfg.must_not_match]

    def in_scope(url: str) -> bool:
        return (
            len(url) <= cfg.max_url_length
            and any(rx.fullmatch(url) for rx in must)
            and not any(rx.fullmatch(url) for rx in must_not)
        )

    res = OracleResult()
    hosts: dict[str, HostEntry] = {}

    # ---- seeding (Crawler.scala:156-160) --------------------------------
    for raw in seeds if seeds is not None else corpus.seeds:
        u = normalize_url(raw, cfg.normalization)
        if u is None or not in_scope(u):
            continue
        h = get_scheme_and_authority(u)
        if h is None or u in res.seen:
            continue
        res.seen.add(u)
        res.frontier[u] = ("Discovered", 0, _priority(cfg, u, 0))

    parseable = {"text/html", "application/xhtml+xml"}

    for wave in range(cfg.max_waves):
        now_s = wave * cfg.wave_duration_s
        eligible = [
            (u, d, p) for u, (s, d, p) in res.frontier.items() if s == "Discovered"
        ]

        # host-prep
        for u, _, _ in eligible:
            h = get_scheme_and_authority(u)
            e = hosts.get(h)
            if e is None or e.is_expired(now_s):
                hosts[h] = robots_sim.fetch_one(h, now_s, e)

        # strict robots (C2) + politeness selection (D1/D2)
        by_host: dict[str, list[tuple[int, str, int]]] = {}
        for u, d, p in eligible:
            h = get_scheme_and_authority(u)
            if hosts[h].rules.is_allowed(u):
                by_host.setdefault(h, []).append((p, u, d))
            else:
                res.frontier[u] = ("Disallowed", d, p)

        selected: list[tuple[int, str, str, int]] = []  # (prio, url, host, depth)
        for h, rows in by_host.items():
            k = budget_for_delay(hosts[h].rules.crawl_delay_ms, cfg.wave_duration_s)
            rows.sort(key=lambda r: (-r[0], r[1]))
            for p, u, d in rows[:k]:
                selected.append((p, u, h, d))
        selected.sort(key=lambda r: (-r[0], r[1]))
        budget_left = cfg.max_pages - res.total_fetched
        selected = selected[: int(budget_left)]
        if not selected:
            break

        host_rank: dict[str, int] = {}
        wave_order = []
        for p, u, h, d in selected:
            r = host_rank.get(h, 0)
            wave_order.append((h, r, u))
            host_rank[h] = r + 1
        res.order.append(wave_order)

        # fetch + process + candidates
        candidates: dict[str, int] = {}  # url -> min depth (wave-dedup)
        for p, u, h, d in selected:
            res.frontier[u] = ("Processed", d, p)
            res.total_fetched += 1
            row = web.get(u)
            if row is None:
                continue
            status, ctype = row["status"], row["content_type"]
            links: list[str] = []
            child_depth = d + 1
            if status is not None and 300 <= status < 400 and row["location"]:
                links = [resolve_location(u, row["location"])]
                child_depth = d  # redirects keep depth (Fetcher.scala:129)
            elif (
                row["html"] is not None
                and len(row["html"]) > cfg.max_content_length
            ):
                pass  # body cap (Fetcher.scala:168-170): consumed, not parsed
            elif status == 200 and ctype in parseable and row["html"] is not None:
                doc_links, text, _ = parse_document(row["html"], u)
                res.extracted[u] = text
                if d < cfg.max_crawl_depth and not header_nofollow(row["x_robots_tag"]):
                    links = doc_links
            for link in links:
                n = normalize_url(link, cfg.normalization)
                if n is None or not in_scope(n):
                    continue
                nh = get_scheme_and_authority(n)
                if nh is None:
                    continue
                e = hosts.get(nh)
                if e is not None and not e.is_expired(now_s) and not e.rules.is_allowed(n):
                    continue  # lenient robots (C1): known host disallows
                if n not in candidates or child_depth < candidates[n]:
                    candidates[n] = child_depth

        # seen-set (F1) + prioritize (B7)
        for u in sorted(candidates):
            if u in res.seen:
                continue
            res.seen.add(u)
            d = candidates[u]
            res.frontier[u] = ("Discovered", d, _priority(cfg, u, d))

        if res.total_fetched >= cfg.max_pages:
            break

    return res
