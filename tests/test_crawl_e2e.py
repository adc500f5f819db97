"""End-to-end golden tests: the Ray Data wave pipeline must match the
single-process oracle (pipelines/oracle.py) exactly — fetch order, final
frontier, extracted text, seen set — and a killed run must resume to the
identical final state (SURVEY.md §5 step 3)."""

from __future__ import annotations

import json
from pathlib import Path

import pandas as pd
import pyarrow.dataset as pads
import pytest

from abwcf_ray.config import CrawlConfig
from abwcf_ray.pipelines.oracle import run_oracle
from abwcf_ray.sources.corpus import generate_corpus

N_PAGES = 600
CFG = CrawlConfig(max_waves=5, wave_duration_s=10.0, seen_shards=4, max_crawl_depth=6)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return generate_corpus(tmp_path_factory.mktemp("c"), n_pages=N_PAGES, seed=42,
                           num_buckets=8)


@pytest.fixture(scope="module")
def oracle(corpus):
    return run_oracle(CFG, corpus)


@pytest.fixture(scope="module")
def ray_run(ray_session, corpus, tmp_path_factory):
    from abwcf_ray.pipelines.crawl import run_crawl

    out = tmp_path_factory.mktemp("crawl")
    summary = run_crawl(CFG, corpus, out, log=lambda *_: None)
    return out, summary


def _final_frontier(out: Path, summary) -> pd.DataFrame:
    from abwcf_ray.pipelines.crawl import frontier_dataset

    df = frontier_dataset(summary.last_wave_dir).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def test_fetch_order_matches_oracle(ray_run, oracle):
    out, summary = ray_run
    for wave, expected in enumerate(oracle.order):
        sel = pads.dataset(str(out / f"wave_{wave:04d}" / "selected")).to_table().to_pandas()
        sel = sel.sort_values("global_rank")
        got = list(zip(sel["host"], sel["rank_in_host"], sel["url"]))
        assert got == expected, f"wave {wave} fetch order diverges"


def test_final_frontier_matches_oracle(ray_run, oracle):
    out, summary = ray_run
    got = _final_frontier(out, summary)
    exp = (
        pd.DataFrame(
            [(u, s, d, p) for u, (s, d, p) in oracle.frontier.items()],
            columns=["url", "status", "depth", "priority"],
        )
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["url", "status", "depth", "priority"]].astype({"depth": "int64"}),
        exp.astype({"depth": "int64"}),
    )


def test_extracted_text_byte_identical(ray_run, oracle, corpus):
    out, summary = ray_run
    frames = []
    for d in sorted(out.glob("wave_*/processed")):
        if any(d.glob("*.parquet")):
            t = pads.dataset(str(d)).to_table(columns=["url", "text", "is_html"])
            frames.append(
                t.filter(t.column("is_html")).select(["url", "text"]).to_pandas()
            )
    got = pd.concat(frames).sort_values("url").reset_index(drop=True)
    exp = (
        pd.DataFrame(sorted(oracle.extracted.items()), columns=["url", "text"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)
    # and against the corpus ground truth (the north-rule per-row invariant)
    pages = pads.dataset(corpus.pages_dir).to_table(
        columns=["url", "text"]
    ).to_pandas().set_index("url")
    for url, text in oracle.extracted.items():
        assert pages.loc[url, "text"] == text


def test_seen_set_matches_oracle(ray_run, oracle):
    out, summary = ray_run
    assert summary.seen_size == len(oracle.seen)
    got = _final_frontier(out, summary)
    assert set(got["url"]) == oracle.seen  # frontier urls == seen set


def test_statuses_cover_disallowed(ray_run):
    out, summary = ray_run
    got = _final_frontier(out, summary)
    counts = got["status"].value_counts()
    assert counts.get("Processed", 0) > 0
    assert counts.get("Disallowed", 0) > 0  # 503-robots hosts fail closed


def test_resume_equivalence(ray_session, corpus, tmp_path_factory, oracle):
    """Kill after wave 1, resume, final state must equal the straight run."""
    from abwcf_ray.pipelines.crawl import run_crawl

    out = tmp_path_factory.mktemp("resume")
    cfg_short = CrawlConfig(**{**CFG.__dict__, "max_waves": 2})
    run_crawl(cfg_short, corpus, out, log=lambda *_: None)
    # wave_0001 exists and is completed; resume to the end
    summary = run_crawl(CFG, corpus, out, resume=True, log=lambda *_: None)
    got = _final_frontier(out, summary)
    exp = (
        pd.DataFrame(
            [(u, s, d, p) for u, (s, d, p) in oracle.frontier.items()],
            columns=["url", "status", "depth", "priority"],
        )
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["url", "status", "depth", "priority"]].astype({"depth": "int64"}),
        exp.reset_index(drop=True).astype({"depth": "int64"}),
    )


def test_resume_after_midwave_crash(ray_session, corpus, tmp_path_factory, oracle):
    """A wave dir without a completed manifest (crash mid-wave) is wiped and
    re-run; the final state still matches the oracle."""
    import shutil

    from abwcf_ray.pipelines.crawl import run_crawl

    out = tmp_path_factory.mktemp("crash")
    cfg_short = CrawlConfig(**{**CFG.__dict__, "max_waves": 2})
    run_crawl(cfg_short, corpus, out, log=lambda *_: None)
    # simulate a crash during wave 1: manifest gone, partial files remain
    (out / "wave_0001" / "manifest.json").unlink()
    shutil.rmtree(out / "wave_0001" / "selected")
    summary = run_crawl(CFG, corpus, out, resume=True, log=lambda *_: None)
    got = _final_frontier(out, summary)
    assert len(got) == len(oracle.frontier)
    assert set(got["url"]) == oracle.seen


def test_manifest_lineage(ray_run):
    out, summary = ray_run
    m = json.loads((out / "wave_0000" / "manifest.json").read_text())
    assert m["completed"] and m["wave"] == 0
    assert m["files"]["frontier_delta"], "per-partition delta lineage missing"
    assert all("rows" in f for f in m["files"]["frontier_delta"])
    # n_new comes from the claim tasks' returned counts; the delta parts
    # they tee'd to disk must carry exactly those rows (footer cross-check)
    assert m["n_new"] == sum(f["rows"] for f in m["files"]["frontier_delta"])
    chain = m["frontier_chain"]
    assert chain["base"] and "wave_0000/delta" in chain["deltas"]
    assert "wave_0000/flips.parquet" in chain["flips"]


def test_small_wave_runs_one_fetch_task(ray_run):
    """A wave's fetch runs min(ceil(n_selected / fetch_transport_batch_size),
    2·CPUs) url chunks, at least one: a wave of at most
    ``fetch_transport_batch_size`` selected urls is one fetch task, which
    claims itself (no claim round), and a wave of two or more fetch tasks
    runs as many claim tasks."""
    import ray

    out, _ = ray_run
    b = CFG.fetch_transport_batch_size
    cap = 2 * int(ray.cluster_resources()["CPU"])
    manifests = [json.loads(m.read_text()) for m in sorted(out.glob("wave_*/manifest.json"))]
    fetching = [m for m in manifests if m["n_selected"]]
    assert any(m["n_selected"] <= b for m in fetching)
    for m in fetching:
        assert m["fetch_tasks"] == max(1, min(-(-m["n_selected"] // b), cap)), m["wave"]
        want_claims = 0 if m["fetch_tasks"] == 1 else m["fetch_tasks"]
        assert m["claim_tasks"] == want_claims, m["wave"]


def test_page_budget_trim_matches_oracle(ray_session, corpus, oracle, tmp_path):
    """A page budget that ends inside a wave trims that wave to its lowest
    global ranks: the trimmed selected manifest, written by the fetch
    tasks with the ranks the driver gave the untrimmed set, keeps the
    oracle's order, and the crawl stops at the budget oracle-exact."""
    from abwcf_ray.pipelines.crawl import run_crawl

    budget = len(oracle.order[0]) + len(oracle.order[1]) // 2
    cfg = CrawlConfig(**{**CFG.__dict__, "max_pages": budget})
    o = run_oracle(cfg, corpus)
    assert len(o.order) == 2 and len(o.order[1]) < len(oracle.order[1])
    summary = run_crawl(cfg, corpus, tmp_path, log=lambda *_: None)
    assert summary.total_fetched == budget and summary.waves == 2
    _assert_matches_oracle(tmp_path, summary, o)


def test_resume_after_page_budget_spent_runs_no_wave(ray_session, corpus, oracle, tmp_path):
    """A crawl whose page budget ran out in its last completed wave resumes
    to a no-op, as the straight run stops there. (Found by the config fuzz:
    a resumed run used to start one more wave, trim its selection to
    nothing and still flip that wave's strict-robots rejects to
    Disallowed.)"""
    from abwcf_ray.pipelines.crawl import run_crawl

    cfg = CrawlConfig(**{**CFG.__dict__, "max_pages": len(oracle.order[0])})
    o = run_oracle(cfg, corpus)
    assert len(o.order) == 1
    stopped = CrawlConfig(**{**cfg.__dict__, "max_waves": 1})
    run_crawl(stopped, corpus, tmp_path, log=lambda *_: None)
    summary = run_crawl(cfg, corpus, tmp_path, resume=True, log=lambda *_: None)
    assert summary.waves == 1 and not (tmp_path / "wave_0001").exists()
    _assert_matches_oracle(tmp_path, summary, o)


def test_frontier_compaction_matches_oracle(ray_session, corpus, tmp_path_factory, oracle):
    """With aggressive compaction (every 2 waves) the folded frontier must
    equal the delta-chain result and the oracle exactly."""
    from abwcf_ray.pipelines.crawl import run_crawl

    cfg = CrawlConfig(**{**CFG.__dict__, "frontier_compact_every": 2})
    out = tmp_path_factory.mktemp("compact")
    summary = run_crawl(cfg, corpus, out, log=lambda *_: None)
    # at least one mid-run compaction actually happened (a non-terminal wave
    # carries a materialized frontier)
    mats = [
        d for d in sorted(out.glob("wave_*/frontier"))
        if d.parent.name != f"wave_{summary.waves - 1:04d}"
    ]
    assert mats, "expected a mid-run compaction at frontier_compact_every=2"
    got = _final_frontier(out, summary)
    exp = (
        pd.DataFrame(
            [(u, s, d, p) for u, (s, d, p) in oracle.frontier.items()],
            columns=["url", "status", "depth", "priority"],
        )
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["url", "status", "depth", "priority"]].astype({"depth": "int64"}),
        exp.astype({"depth": "int64"}),
    )


def test_frontier_dataset_mid_run(ray_run, oracle):
    """frontier_dataset on a NON-compacted wave reconstructs the logical
    frontier (base + deltas + flips) without any materialized frontier/."""
    from abwcf_ray.pipelines.crawl import frontier_dataset

    out, summary = ray_run
    m0 = json.loads((out / "wave_0000" / "manifest.json").read_text())
    df = frontier_dataset(out / "wave_0000").to_pandas()
    assert len(df) == m0["n_frontier"]
    # every selected url of wave 0 shows as Processed in the logical view
    sel = pads.dataset(str(out / "wave_0000" / "selected")).to_table().to_pandas()
    by_url = df.set_index("url")["status"]
    assert (by_url.loc[sel["url"]] == "Processed").all()


def test_max_content_length_cap(ray_session, corpus, tmp_path_factory):
    """Body cap (Fetcher.scala:168-170, reference.conf:132): oversize pages
    end Processed but are consumed-not-parsed — no text, no links — and the
    wave manifest histograms the class; the oracle agrees on the full crawl
    outcome under the cap."""
    from abwcf_ray.pipelines.crawl import run_crawl

    cfg = CrawlConfig(**{**CFG.__dict__, "max_content_length": 1200})
    out = tmp_path_factory.mktemp("cap")
    summary = run_crawl(cfg, corpus, out, log=lambda *_: None)
    o = run_oracle(cfg, corpus)
    got = _final_frontier(out, summary)
    exp = (
        pd.DataFrame(
            [(u, s, d, p) for u, (s, d, p) in o.frontier.items()],
            columns=["url", "status", "depth", "priority"],
        )
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["url", "status", "depth", "priority"]].astype({"depth": "int64"}),
        exp.astype({"depth": "int64"}),
    )
    # the cap actually triggered, shows in the manifest histogram, and no
    # capped page produced text or links
    n_exceeded = 0
    for d in sorted(out.glob("wave_*")):
        mf = d / "manifest.json"
        if mf.exists():
            hist = json.loads(mf.read_text()).get("fetch_status", {})
            n_exceeded += hist.get("length_limit_exceeded", 0)
    assert n_exceeded > 0, "fixture corpus has pages over the 1200-byte cap"
    for d in sorted(out.glob("wave_*/processed")):
        if any(d.glob("*.parquet")):
            t = pads.dataset(str(d)).to_table(
                columns=["length_exceeded", "is_html", "text", "links"]
            ).to_pandas()
            capped = t[t["length_exceeded"]]
            assert not capped["is_html"].any()
            assert capped["text"].isna().all()
            assert (capped["links"].map(len) == 0).all()


# short robots TTLs: rules expire every ~3 waves (unreachable every ~2),
# forcing re-fetches and expired-rules reuse mid-crawl
TTL_CFG = CrawlConfig(
    max_waves=6,
    wave_duration_s=10.0,
    seen_shards=4,
    max_crawl_depth=6,
    valid_rules_lifetime_s=25,
    unavailable_rules_lifetime_s=25,
    unreachable_rules_lifetime_s=15,
)


@pytest.fixture(scope="module")
def ttl_oracle(corpus):
    return run_oracle(TTL_CFG, corpus)


def _assert_matches_oracle(out: Path, summary, o) -> None:
    """The gate's checks: per-wave fetch order, final frontier, seen set."""
    for wave, expected in enumerate(o.order):
        sel = pads.dataset(str(out / f"wave_{wave:04d}" / "selected")).to_table().to_pandas()
        sel = sel.sort_values("global_rank")
        got = list(zip(sel["host"], sel["rank_in_host"], sel["url"]))
        assert got == expected, f"wave {wave} fetch order diverges"
    got = _final_frontier(out, summary)
    exp = (
        pd.DataFrame(
            [(u, s, d, p) for u, (s, d, p) in o.frontier.items()],
            columns=["url", "status", "depth", "priority"],
        )
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["url", "status", "depth", "priority"]].astype({"depth": "int64"}),
        exp.astype({"depth": "int64"}),
    )
    assert summary.seen_size == len(o.seen)
    assert set(got["url"]) == o.seen


def test_robots_ttl_expiry_matches_oracle(ray_session, corpus, tmp_path_factory, ttl_oracle):
    """Short robots TTLs force re-fetch + expired-rules-reuse mid-crawl
    (HostManager.scala:142-162); the pipeline must still match the oracle
    wave by wave. Strict robots re-evaluates only the re-fetched hosts'
    rows, so this is where a missed re-evaluation would show."""
    from abwcf_ray.pipelines.crawl import run_crawl

    out = tmp_path_factory.mktemp("ttl")
    summary = run_crawl(TTL_CFG, corpus, out, log=lambda *_: None)
    _assert_matches_oracle(out, summary, ttl_oracle)
    # re-fetches actually happened after wave 0
    refetches = sum(
        json.loads((d / "manifest.json").read_text()).get("n_robots_fetched", 0)
        for d in sorted(out.glob("wave_*"))[1:]
        if (d / "manifest.json").exists()
    )
    assert refetches > 0


def test_robots_ttl_resume_after_refetch_wave(
    ray_session, corpus, tmp_path_factory, ttl_oracle
):
    """Stop right after a wave that re-fetched expired hosts' robots, then
    resume: the resumed run recomputes each wave's re-fetched host set from
    the restored hosts checkpoint and must equal the straight oracle run."""
    import dataclasses

    import pyarrow.parquet as pq

    from abwcf_ray.pipelines.crawl import run_crawl

    out = tmp_path_factory.mktemp("ttl_resume")
    run_crawl(dataclasses.replace(TTL_CFG, max_waves=4), corpus, out, log=lambda *_: None)

    def hosts_after(wave: int) -> pd.DataFrame:
        m = json.loads((out / f"wave_{wave:04d}" / "manifest.json").read_text())
        return pq.read_table(out / m["hosts_checkpoint"]).to_pandas()

    # wave 3 (now 30 s) re-fetched hosts whose wave-0 rules expired at 25 s
    before, after = hosts_after(2), hosts_after(3)
    merged = before.merge(after, on="host", suffixes=("_2", "_3"))
    refetched = merged[
        (merged["valid_until_s_2"] <= 30.0) & (merged["valid_until_s_3"] > 30.0)
    ]
    assert len(refetched) > 0
    summary = run_crawl(TTL_CFG, corpus, out, resume=True, log=lambda *_: None)
    _assert_matches_oracle(out, summary, ttl_oracle)


def test_hosts_checkpoint_written_only_when_robots_fetched(
    ray_session, ray_run, corpus, tmp_path_factory, oracle
):
    """The hosts table changes only when a wave's host prep fetches
    robots, so only the seed and those waves write ``hosts.parquet``; every
    manifest names the latest one. A crawl stopped right after a wave that
    fetched no robots resumes from the checkpoint an earlier wave wrote and
    ends oracle-exact."""
    from abwcf_ray.pipelines.crawl import run_crawl

    out, summary = ray_run
    manifests = [
        json.loads((out / f"wave_{w:04d}" / "manifest.json").read_text())
        for w in range(summary.waves)
    ]
    fetching = [m["wave"] for m in manifests if m["n_robots_fetched"] > 0]
    written = {str(p.relative_to(out)) for p in out.glob("*/hosts.parquet")}
    assert written == {"init/hosts.parquet"} | {f"wave_{w:04d}/hosts.parquet" for w in fetching}
    latest = "init/hosts.parquet"
    for m in manifests:
        if m["n_robots_fetched"]:
            latest = f"wave_{m['wave']:04d}/hosts.parquet"
        assert m["hosts_checkpoint"] == latest, m["wave"]

    quiet = [m["wave"] for m in manifests[:-1] if m["n_robots_fetched"] == 0]
    assert quiet, "fixture must have a wave that fetches no robots before the last"
    stop = quiet[0]
    resumed = tmp_path_factory.mktemp("hosts_quiet_resume")
    stopped = CrawlConfig(**{**CFG.__dict__, "max_waves": stop + 1})
    run_crawl(stopped, corpus, resumed, log=lambda *_: None)
    assert not (resumed / f"wave_{stop:04d}" / "hosts.parquet").exists()
    summary = run_crawl(CFG, corpus, resumed, resume=True, log=lambda *_: None)
    _assert_matches_oracle(resumed, summary, oracle)


def test_refetched_rules_change_rejects_eligible_rows(ray_session, corpus, tmp_path):
    """When a re-fetch changes a host's rules, strict robots re-evaluates
    that host's eligible rows in the same wave. A robots transport serves
    every host as ALLOW_ALL until 30 s, then one busy host as
    ``Disallow: /``; its wave-0 rules expire at 25 s, so wave 3 re-fetches
    them: from wave 3 on none of its urls is fetched, its rows still
    Discovered at wave 3 become Disallowed, and none stays Discovered."""
    import dataclasses

    from abwcf_ray.functions.urlnorm import get_scheme_and_authority
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.state.hosts import robots_rows_from_records

    pages = pads.dataset(corpus.pages_dir).to_table(columns=["url"]).column("url").to_pylist()
    target = pd.Series([get_scheme_and_authority(u) for u in pages]).value_counts().index[0]

    def robots_transport():
        def fetch(batch):
            now_s = batch.column("now_s")[0].as_py()
            body = b"User-agent: *\nDisallow: /\n"

            def record(host):
                return (200, 0, body, "text/plain") if host == target and now_s >= 30 else None

            return robots_rows_from_records(record, batch, cfg)

        return fetch

    cfg = dataclasses.replace(
        CFG,
        max_waves=6,
        valid_rules_lifetime_s=25,
        unavailable_rules_lifetime_s=25,
        robots_transport=robots_transport,
    )
    summary = run_crawl(cfg, corpus, tmp_path, log=lambda *_: None)
    fetched = {
        w: set(
            pads.dataset(str(tmp_path / f"wave_{w:04d}" / "selected"))
            .to_table(columns=["host"])
            .column("host")
            .to_pylist()
        )
        for w in range(summary.waves)
        if (tmp_path / f"wave_{w:04d}" / "selected").exists()
    }
    assert target in fetched[2] and not any(target in fetched[w] for w in fetched if w >= 3)
    rows = _final_frontier(tmp_path, summary)
    statuses = rows[rows["host"] == target]["status"].value_counts().to_dict()
    assert statuses.get("Disallowed", 0) > 0 and "Discovered" not in statuses
    w3 = json.loads((tmp_path / "wave_0003" / "manifest.json").read_text())
    assert w3["n_disallowed"] > 0


def test_compaction_status_split_prunes_eligible_scan(ray_session, corpus, tmp_path_factory):
    """Compaction writes the frontier status-split (discovered/ + settled/)
    and the next wave's eligible scan reads ONLY the discovered split +
    deltas — O(Discovered), not O(frontier), on a mature crawl."""
    import pyarrow.parquet as pq

    from abwcf_ray.pipelines.crawl import _FrontierChain, run_crawl

    def _parquet_rows(d: Path) -> int:
        return sum(pq.read_metadata(f).num_rows for f in d.rglob("*.parquet"))

    cfg = CrawlConfig(**{**CFG.__dict__, "frontier_compact_every": 2})
    out = tmp_path_factory.mktemp("split")
    run_crawl(cfg, corpus, out, log=lambda *_: None)
    mats = [d for d in sorted(out.glob("wave_*/frontier")) if (d / "settled").exists()]
    assert mats, "no status-split compaction found"
    base = mats[0]
    assert _parquet_rows(base / "settled") > 0  # fetched pages became settled
    chain = _FrontierChain(out, base)
    elig = set(chain.eligible_sources())
    allp = set(chain.sources())
    assert elig < allp  # strict subset: settled parts excluded
    assert all("settled" not in p for p in elig)
    # the split is lossless: discovered + settled == full frontier rows
    assert _parquet_rows(base) == _parquet_rows(base / "discovered") + _parquet_rows(
        base / "settled"
    )


def test_resume_from_status_split_base(ray_session, corpus, tmp_path_factory, oracle):
    """Kill AFTER a mid-run compaction (status-split base) and resume: the
    chain must rebuild from the split frontier and finish identically."""
    from abwcf_ray.pipelines.crawl import run_crawl

    out = tmp_path_factory.mktemp("resume_split")
    cfg_short = CrawlConfig(
        **{**CFG.__dict__, "max_waves": 3, "frontier_compact_every": 2}
    )
    run_crawl(cfg_short, corpus, out, log=lambda *_: None)
    assert any(
        (d / "settled").exists() for d in out.glob("wave_*/frontier")
    ), "fixture must compact before the kill for this test to bite"
    cfg_full = CrawlConfig(**{**CFG.__dict__, "frontier_compact_every": 2})
    summary = run_crawl(cfg_full, corpus, out, resume=True, log=lambda *_: None)
    got = _final_frontier(out, summary)
    exp = (
        pd.DataFrame(
            [(u, s, d, p) for u, (s, d, p) in oracle.frontier.items()],
            columns=["url", "status", "depth", "priority"],
        )
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["url", "status", "depth", "priority"]].astype({"depth": "int64"}),
        exp.astype({"depth": "int64"}),
    )


def test_flips_size_triggers_compaction(ray_session, corpus, oracle, tmp_path_factory):
    """The broadcast flips array is formally bounded: with the delta-count
    trigger disabled (huge frontier_compact_every) and a tiny
    frontier_compact_max_flips, compaction must fire from flips pressure
    alone — the chain's cumulative flips never exceed the cap plus one
    wave's politeness-bounded additions — and the crawl still matches the
    oracle fetch order."""
    import dataclasses
    import json as _json

    from abwcf_ray.pipelines.crawl import run_crawl

    cfg = dataclasses.replace(
        CFG, frontier_compact_every=10_000, frontier_compact_max_flips=50
    )
    out = tmp_path_factory.mktemp("crawl_flipscap")
    summary = run_crawl(cfg, corpus, out, log=lambda *_: None)
    compactions = 0
    max_flips_seen = 0
    for wdir in sorted(out.glob("wave_*")):
        m = _json.loads((wdir / "manifest.json").read_text())
        entry = m.get("frontier_chain", {})
        if "frontier_compact" in m.get("step_times", {}):
            compactions += 1
        # chain flips recorded in the manifest = what the next wave broadcasts
        n_flips = 0
        for rel in entry.get("flips", []):
            n_flips += pads.dataset(str(out / rel)).count_rows()
        max_flips_seen = max(max_flips_seen, n_flips)
    assert compactions >= 1, "flips-size trigger never fired"
    # bounded: cap + one wave's additions (politeness-bounded; here <= ~120/wave)
    assert max_flips_seen <= 50 + 200, max_flips_seen
    for wave, expected in enumerate(oracle.order):
        sel = pads.dataset(str(out / f"wave_{wave:04d}" / "selected")).to_table().to_pandas()
        sel = sel.sort_values("global_rank")
        got = list(zip(sel["host"], sel["rank_in_host"], sel["url"]))
        assert got == expected, f"wave {wave} fetch order diverges (flips-cap run)"


def test_bandwidth_budget_caps_fetchers(
    ray_session, corpus, oracle, tmp_path_factory, monkeypatch
):
    """E2 (reference.conf:137,144 / FetcherManager.scala:66): a bandwidth
    budget caps concurrent fetchers at total // min-per-fetcher. The cap
    is recorded in the wave manifest, no two fetch tasks run at once under
    a one-fetcher cap although waves have several url chunks — with the
    default transport and with a user-supplied CorpusTransport factory —
    and the crawl output is IDENTICAL to the uncapped run (parallelism-only
    knob)."""
    import dataclasses
    import json as _json

    from abwcf_ray.pipelines import crawl
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.stages.transport import CorpusTransport

    # each fetch records its (start, end) on the shared monotonic clock
    spans_dir = tmp_path_factory.mktemp("fetch_spans")
    real_tee = crawl.make_fetch_process_tee

    def recording_tee(*args, **kwargs):
        tee = real_tee(*args, **kwargs)
        out_dir = str(spans_dir)

        def timed(batch):
            import time
            import uuid

            t0 = time.monotonic()
            result = tee(batch)
            with open(f"{out_dir}/{uuid.uuid4().hex}", "w") as f:
                f.write(f"{t0} {time.monotonic()}")
            return result

        return timed

    monkeypatch.setattr(crawl, "make_fetch_process_tee", recording_tee)
    cfg = dataclasses.replace(
        CFG,
        total_bandwidth_budget_bps=200_000,  # 200 kB/s / 200 kB/s -> 1 fetcher
        min_bandwidth_per_fetcher_bps=200_000,
        # small chunks, so waves have several fetch tasks
        fetch_transport_batch_size=16,
    )
    hashed = corpus.hashed_dir
    for name, run_cfg in (
        ("crawl_bw", cfg),
        (
            "crawl_bw_transport",
            dataclasses.replace(
                cfg,
                fetch_transport=lambda: CorpusTransport(hashed),
            ),
        ),
    ):
        for f in spans_dir.iterdir():
            f.unlink()
        out = tmp_path_factory.mktemp(name)
        summary = run_crawl(run_cfg, corpus, out, log=lambda *_: None)
        manifests = [_json.loads(m.read_text()) for m in sorted(out.glob("wave_*/manifest.json"))]
        assert manifests[0]["max_fetchers"] == 1
        assert max(m.get("fetch_tasks", 0) for m in manifests) > 1
        # a wave of several fetch tasks claims in a round of as many tasks
        for m in manifests:
            if m.get("fetch_tasks", 0) > 1:
                assert m["claim_tasks"] == m["fetch_tasks"], m["wave"]
        spans = sorted(
            tuple(map(float, f.read_text().split())) for f in spans_dir.iterdir()
        )
        assert len(spans) == sum(m.get("fetch_tasks", 0) for m in manifests)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end, f"two fetch tasks ran at once under a one-fetcher cap ({name})"
        for wave, expected in enumerate(oracle.order):
            sel = pads.dataset(str(out / f"wave_{wave:04d}" / "selected")).to_table().to_pandas()
            sel = sel.sort_values("global_rank")
            got = list(zip(sel["host"], sel["rank_in_host"], sel["url"]))
            assert got == expected, f"wave {wave} fetch order diverges (bandwidth cap, {name})"
        got_f = _final_frontier(out, summary)
        assert len(got_f) == len(oracle.frontier)


def test_cuckoo_backend_matches_oracle(ray_session, corpus, oracle, tmp_path_factory):
    """seen_backend='cuckoo' (the north star's sharded cuckoo-filter URL-seen
    set, state/cuckoo.py): same fetch order, frontier, and seen size as the
    exact backend / single-process oracle. At fixture scale a well-sized
    filter produces zero false positives, and the run is fully deterministic
    (no RNG anywhere in the filter), so this equivalence is exact."""
    import dataclasses

    from abwcf_ray.pipelines.crawl import run_crawl

    cfg = dataclasses.replace(CFG, seen_backend="cuckoo", seen_cuckoo_capacity=100_000)
    out = tmp_path_factory.mktemp("crawl_cuckoo")
    summary = run_crawl(cfg, corpus, out, log=lambda *_: None)
    for wave, expected in enumerate(oracle.order):
        sel = pads.dataset(str(out / f"wave_{wave:04d}" / "selected")).to_table().to_pandas()
        sel = sel.sort_values("global_rank")
        got = list(zip(sel["host"], sel["rank_in_host"], sel["url"]))
        assert got == expected, f"wave {wave} fetch order diverges (cuckoo seen)"
    got_f = _final_frontier(out, summary)
    assert len(got_f) == len(oracle.frontier)
    assert summary.seen_size == len(oracle.seen)
    assert set(got_f["url"]) == oracle.seen


def test_cuckoo_backend_resume_equivalence(ray_session, corpus, oracle, tmp_path_factory):
    """Resume across the cuckoo fold boundary: the checkpoint folds the
    current wave into the filter, and the resumed run (which restarts at the
    NEXT wave) must still match the oracle exactly."""
    import dataclasses

    from abwcf_ray.pipelines.crawl import run_crawl

    out = tmp_path_factory.mktemp("resume_cuckoo")
    cfg_short = dataclasses.replace(
        CFG, max_waves=2, seen_backend="cuckoo", seen_cuckoo_capacity=100_000
    )
    run_crawl(cfg_short, corpus, out, log=lambda *_: None)
    cfg_full = dataclasses.replace(
        CFG, seen_backend="cuckoo", seen_cuckoo_capacity=100_000
    )
    summary = run_crawl(cfg_full, corpus, out, resume=True, log=lambda *_: None)
    got = _final_frontier(out, summary)
    exp = (
        pd.DataFrame(
            [(u, s, d, p) for u, (s, d, p) in oracle.frontier.items()],
            columns=["url", "status", "depth", "priority"],
        )
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["url", "status", "depth", "priority"]].astype({"depth": "int64"}),
        exp.astype({"depth": "int64"}),
    )
    assert summary.seen_size == len(oracle.seen)


def test_noop_resume_last_wave_dir_valid(ray_session, corpus, tmp_path_factory):
    """Resuming a run whose final wave already completed must be a no-op
    that still reports a VALID last_wave_dir (regression: summary.waves
    stayed 0 and last_wave_dir pointed at wave_-001)."""
    from pathlib import Path

    from abwcf_ray.pipelines.crawl import frontier_dataset, run_crawl

    out = tmp_path_factory.mktemp("noop_resume")
    cfg = CrawlConfig(**{**CFG.__dict__, "max_waves": 2})
    first = run_crawl(cfg, corpus, out, log=lambda *_: None)
    again = run_crawl(cfg, corpus, out, resume=True, log=lambda *_: None)
    assert again.waves == first.waves
    assert Path(again.last_wave_dir).name != "wave_-001"
    assert (Path(again.last_wave_dir) / "manifest.json").exists()
    assert again.total_fetched == first.total_fetched
    a = frontier_dataset(again.last_wave_dir).to_pandas().sort_values("url")
    b = frontier_dataset(first.last_wave_dir).to_pandas().sort_values("url")
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )


@pytest.mark.parametrize("resume_shards", [2, None])
def test_resume_with_changed_shard_count(
    ray_session, corpus, tmp_path_factory, oracle, resume_shards
):
    """A resume may change the seen-set shard count: the shards are
    reloaded from the frontier chain and routed by the new count. A run
    written with 3 shards resumes with 2, and with None (the session's 4
    CPUs), and ends oracle-exact."""
    from abwcf_ray.pipelines.crawl import run_crawl

    out = tmp_path_factory.mktemp("shard_change")
    run_crawl(
        CrawlConfig(**{**CFG.__dict__, "max_waves": 2, "seen_shards": 3}),
        corpus,
        out,
        log=lambda *_: None,
    )
    summary = run_crawl(
        CrawlConfig(**{**CFG.__dict__, "seen_shards": resume_shards}),
        corpus,
        out,
        resume=True,
        log=lambda *_: None,
    )
    got = _final_frontier(out, summary)
    exp = sorted((u, s, d, p) for u, (s, d, p) in oracle.frontier.items())
    assert list(
        got[["url", "status", "depth", "priority"]].itertuples(index=False, name=None)
    ) == exp
    assert summary.seen_size == len(oracle.seen)


def test_resume_rebuilds_seen_set_from_chain(ray_session, corpus, tmp_path_factory):
    """No crawl writes a seen-set checkpoint; a resume rebuilds the exact
    seen set from the frontier chain, so its size is the last manifest's
    n_frontier."""
    from abwcf_ray.pipelines.crawl import run_crawl

    out = tmp_path_factory.mktemp("seen_rebuild")
    cfg = CrawlConfig(**{**CFG.__dict__, "max_waves": 2})
    first = run_crawl(cfg, corpus, out, log=lambda *_: None)
    for d in [out / "init", *out.glob("wave_*")]:
        assert not {"seen", "content_seen", "hash_impl.json"} & {p.name for p in d.iterdir()}
    last = json.loads((Path(first.last_wave_dir) / "manifest.json").read_text())
    again = run_crawl(cfg, corpus, out, resume=True, log=lambda *_: None)
    assert again.waves == first.waves  # nothing left to crawl: the size is the rebuild's
    assert again.seen_size == last["n_frontier"] == first.seen_size


def test_resume_refuses_foreign_hash_impl(ray_session, corpus, tmp_path_factory):
    """The checkpoint's url hashes are only comparable under the hash
    implementation that wrote them: a manifest naming another one is
    refused, and the error names both."""
    from abwcf_ray.functions.hashing import impl_id
    from abwcf_ray.pipelines.crawl import run_crawl

    out = tmp_path_factory.mktemp("foreign_impl")
    cfg = CrawlConfig(**{**CFG.__dict__, "max_waves": 1})
    run_crawl(cfg, corpus, out, log=lambda *_: None)
    mpath = out / "wave_0000" / "manifest.json"
    m = json.loads(mpath.read_text())
    assert m["hash_impl"] == impl_id()
    mpath.write_text(json.dumps({**m, "hash_impl": "polars-0.0.0"}))
    with pytest.raises(RuntimeError) as err:
        run_crawl(CFG, corpus, out, resume=True, log=lambda *_: None)
    assert "polars-0.0.0" in str(err.value) and impl_id() in str(err.value)


def _mirror_corpus(out: Path):
    """The fixture corpus with every third page past p2 of a host a mirror
    of the host's p0 (same html and text), so later waves fetch text that
    wave 0 already extracted."""
    import re
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    meta = generate_corpus(out, n_pages=N_PAGES, seed=42, num_buckets=8)
    parts = sorted(Path(meta.pages_dir).glob("*.parquet"))
    t = pa.concat_tables([pq.read_table(p) for p in parts])
    html, text = t.column("html").to_pylist(), t.column("text").to_pylist()
    keys = [re.fullmatch(r"(.*)/p(\d+)", u).groups() for u in t.column("url").to_pylist()]
    home = {host: i for i, (host, k) in enumerate(keys) if k == "0"}
    for i, (host, k) in enumerate(keys):
        if int(k) >= 3 and int(k) % 3 == 0 and host in home:
            html[i], text[i] = html[home[host]], text[home[host]]
    t = t.set_column(t.schema.get_field_index("html"), "html", pa.array(html, pa.binary()))
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(text, pa.string()))
    for p in parts:
        p.unlink()
    pq.write_table(t, parts[0])
    shutil.rmtree(meta.hashed_dir)  # run_crawl rebuilds the fetch layout
    return meta


def test_dedup_content_resume_matches_straight_run(ray_session, tmp_path_factory):
    """A dedup_content crawl stopped after wave 1 and resumed rebuilds the
    content seen set from the completed waves' novel/ parts: every wave
    writes the same novel/ url set as a straight crawl."""
    from abwcf_ray.pipelines.crawl import run_crawl

    corpus = _mirror_corpus(tmp_path_factory.mktemp("c_mirror"))
    cfg = CrawlConfig(**{**CFG.__dict__, "dedup_content": True})

    def novel_urls(out: Path) -> dict[str, set]:
        return {
            d.name: set(pads.dataset(str(d / "novel")).to_table(columns=["url"])["url"].to_pylist())
            for d in sorted(out.glob("wave_*"))
            if (d / "novel").exists()
        }

    straight = tmp_path_factory.mktemp("novel_straight")
    run_crawl(cfg, corpus, straight, log=lambda *_: None)
    out = tmp_path_factory.mktemp("novel_resume")
    run_crawl(CrawlConfig(**{**cfg.__dict__, "max_waves": 2}), corpus, out, log=lambda *_: None)
    run_crawl(cfg, corpus, out, resume=True, log=lambda *_: None)
    want, got = novel_urls(straight), novel_urls(out)
    assert len(want) > 2 and got == want
    # the rebuild must matter: a resumed wave suppresses text first seen
    # before the stop
    manifests = [json.loads(p.read_text()) for p in sorted(out.glob("wave_*/manifest.json"))]
    assert any(m["n_novel"] < m["n_extracted"] for m in manifests[2:])


def test_one_cpu_starts_one_shard_actor(ray_session, corpus, tmp_path, monkeypatch):
    """With seen_shards=None on a one-CPU cluster, the only actors run_crawl
    starts before wave 0 are one seen-set shard (two with dedup_content:
    the content seen set)."""
    import ray
    from ray._private import state

    from abwcf_ray.pipelines.crawl import run_crawl

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    for dedup, n_shards in ((False, 1), (True, 2)):
        before = set(state.actors())
        cfg = CrawlConfig(
            **{**CFG.__dict__, "seen_shards": None, "max_waves": 0, "dedup_content": dedup}
        )
        run_crawl(cfg, corpus, tmp_path / f"dedup_{dedup}", log=lambda *_: None)
        started = [a["ActorClassName"] for k, a in state.actors().items() if k not in before]
        assert started == ["_ExactSeenShard"] * n_shards, started


def test_steady_state_waves_run_no_ray_data_execution(
    ray_session, corpus, tmp_path, monkeypatch
):
    """Every crawl step (warm-up, selection, fetch and candidates, claim,
    the novel filter, compaction) runs as plain Ray tasks: a crawl that
    compacts starts no Ray Data execution at all, whether it reads the
    corpus layout, fetches through a ``CorpusTransport``, or filters novel
    content."""
    import json as _json

    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from abwcf_ray.pipelines import crawl
    from abwcf_ray.stages.transport import CorpusTransport

    executions: list[str] = []
    real_execute = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        executions.append("execute")
        return real_execute(self, *args, **kwargs)

    hashed = corpus.hashed_dir
    for name, transport, dedup in (
        ("fused", None, False),
        ("transport", lambda: CorpusTransport(hashed), False),
        ("dedup_content", None, True),
    ):
        executions.clear()
        monkeypatch.setattr(StreamingExecutor, "execute", execute)
        cfg = CrawlConfig(
            **{
                **CFG.__dict__,
                "frontier_compact_every": 2,
                "fetch_transport": transport,
                "dedup_content": dedup,
            }
        )
        crawl.run_crawl(cfg, corpus, tmp_path / name, log=lambda *_: None)
        monkeypatch.undo()
        manifests = [
            _json.loads(m.read_text()) for m in sorted((tmp_path / name).glob("wave_*/manifest.json"))
        ]
        assert any("frontier_compact" in m.get("step_times", {}) for m in manifests)
        assert not executions, name
        if dedup:
            assert any(m.get("n_novel") for m in manifests)


_FRESH_SESSION_CRAWL = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from ray._private import state
from abwcf_ray.config import CrawlConfig
from abwcf_ray.pipelines.crawl import run_crawl
from abwcf_ray.sources.corpus import generate_corpus

@ray.remote
def worker_imports_ray_data():
    import abwcf_ray.pipelines.crawl  # noqa: F401
    return "ray.data" in sys.modules

got = {
    "driver_ray_data": "ray.data" in sys.modules,
    "worker_ray_data": ray.get(worker_imports_ray_data.remote()),
}
meta = generate_corpus(os.path.join(out, "corpus"), n_pages=300, seed=1)
run_crawl(CrawlConfig(max_waves=3, frontier_compact_every=2), meta,
          os.path.join(out, "crawl"), log=lambda *_: None)
got["actors"] = sorted(a["ActorClassName"] for a in state.actors().values())
print(json.dumps(got))
ray.shutdown()
"""


def test_fresh_session_crawl_starts_no_ray_data(tmp_path):
    """In a fresh one-CPU session, a default crawl that compacts starts one
    actor, its seen-set shard, and no Ray Data actor; and importing the
    crawl module, in the driver or in a task worker, does not import
    ``ray.data``. (Ray's own Arrow table serializer imports ``ray.data``
    in any process that ships a table, so the check runs before the
    crawl.) Runs in a subprocess under a timeout."""
    import os
    import signal
    import subprocess
    import sys

    repo = str(Path(__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-c", _FRESH_SESSION_CRAWL, repo, str(tmp_path)],
        cwd=repo,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the fresh-session crawl did not finish within 240 s")
    assert proc.returncode == 0, stderr[-3000:]
    got = json.loads(stdout.strip().splitlines()[-1])
    assert got == {
        "actors": ["_ExactSeenShard"],
        "driver_ray_data": False,
        "worker_ray_data": False,
    }
    manifests = [
        json.loads(m.read_text()) for m in (tmp_path / "crawl").glob("wave_*/manifest.json")
    ]
    assert len(manifests) == 3
    assert any("frontier_compact" in m["step_times"] for m in manifests)


def test_compaction_group_rerun_is_byte_identical(ray_session, corpus, tmp_path):
    """A retried compaction task overwrites its own parts with the same
    bytes: the part names derive from the group index alone."""
    import json as _json

    import ray

    from abwcf_ray.pipelines.crawl import _compact_group, _FrontierChain, run_crawl
    from abwcf_ray.stages.schedule import file_groups
    from abwcf_ray.stages.transform import make_update_status

    cfg = CrawlConfig(**{**CFG.__dict__, "max_waves": 3, "frontier_compact_every": 100})
    out = tmp_path / "run"
    run_crawl(cfg, corpus, out, log=lambda *_: None)
    # the chain as of the last wave (not compacted yet) and its flips
    manifest = _json.loads((out / "wave_0002" / "manifest.json").read_text())
    chain = _FrontierChain.from_manifest(out, manifest)
    assert chain.deltas and len(chain.cum_processed)
    stages = [
        make_update_status(ray.put(chain.cum_processed), ray.put(chain.cum_disallowed))
    ]
    group = file_groups(chain.sources(), 2)[1]
    dest = tmp_path / "compacted"

    def parts() -> dict[str, bytes]:
        return {str(p.relative_to(dest)): p.read_bytes() for p in sorted(dest.rglob("*.parquet"))}

    ray.get(_compact_group.remote(1, group, stages, str(dest)))
    first = parts()
    assert set(first) == {"discovered/part-00001.parquet", "settled/part-00001.parquet"}
    ray.get(_compact_group.remote(1, group, stages, str(dest)))
    assert parts() == first


def test_compaction_part_count_is_bounded(ray_session, corpus, tmp_path):
    """Each compaction writes at most one part per split per cluster CPU,
    however many files the chain it folds has gathered, so the base's
    part count does not grow from one compaction to the next (a base
    written one part per input file would carry every earlier base's
    parts forward)."""
    from abwcf_ray.pipelines.crawl import run_crawl

    n_cpu = 4  # the test session's cluster
    cfg = CrawlConfig(**{**CFG.__dict__, "frontier_compact_every": 1})
    run_crawl(cfg, corpus, tmp_path, log=lambda *_: None)
    bases = sorted(tmp_path.glob("wave_*/frontier"))
    assert len(bases) >= 3, "fixture must compact several times"
    for base in bases:
        for split in ("discovered", "settled"):
            assert len(list((base / split).glob("*.parquet"))) <= n_cpu, (base, split)


def test_one_cpu_small_waves_run_one_task_per_round(ray_session, corpus, tmp_path, monkeypatch):
    """On a one-CPU cluster every round of a small wave is one task: each
    wave of at most ``ROWS_PER_TASK`` eligible rows selects in one task,
    each wave of at most ``fetch_transport_batch_size`` selected urls
    fetches in one task that also claims (no claim round), and every
    compaction runs one task. A wave whose politeness bound
    (``fetch_bound``, never below its selected count) fits one fetch task
    runs as one task: one round, selection included; the others run a
    selection round, a fetch round and, with two or more fetch tasks, a
    claim round."""
    import ray

    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.stages.schedule import ROWS_PER_TASK

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    cfg = CrawlConfig(**{**CFG.__dict__, "frontier_compact_every": 2})
    run_crawl(cfg, corpus, tmp_path, log=lambda *_: None)
    manifests = [json.loads(m.read_text()) for m in sorted(tmp_path.glob("wave_*/manifest.json"))]
    assert all(m["n_eligible"] <= ROWS_PER_TASK for m in manifests)
    assert [m["select_tasks"] for m in manifests] == [1] * len(manifests)
    small = [m for m in manifests if 0 < m["n_selected"] <= cfg.fetch_transport_batch_size]
    assert small
    assert {(m["fetch_tasks"], m["claim_tasks"]) for m in small} == {(1, 0)}
    compactions = [m["compact_tasks"] for m in manifests if "compact_tasks" in m]
    assert compactions and set(compactions) == {1}
    b = cfg.fetch_transport_batch_size
    within = [m for m in manifests if m["fetch_bound"] <= b]
    assert within
    for m in manifests:
        assert m["n_selected"] <= m["fetch_bound"], m["wave"]
        if m["fetch_bound"] <= b:
            shape = (m["task_rounds"], m.get("fetch_tasks", 0), m.get("claim_tasks", 0))
            assert shape in ((1, 1, 0), (1, 0, 0)), m["wave"]  # (1, 0, 0): drain
        else:
            assert m["task_rounds"] == 2 + (m["claim_tasks"] > 0), m["wave"]


def test_resume_after_one_task_wave(ray_session, corpus, oracle, tmp_path, monkeypatch):
    """A run stopped after a wave whose one fetch task claimed (no claim
    round) resumes from that wave's checkpoint to the oracle's result, and
    the resumed waves claim in their fetch tasks too."""
    import ray

    from abwcf_ray.pipelines.crawl import run_crawl

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    # every wave of this corpus fits one fetch task
    cfg = CrawlConfig(**{**CFG.__dict__, "fetch_transport_batch_size": 4096})
    run_crawl(CrawlConfig(**{**cfg.__dict__, "max_waves": 2}), corpus, tmp_path, log=lambda *_: None)
    stopped = json.loads((tmp_path / "wave_0001" / "manifest.json").read_text())
    assert (stopped["task_rounds"], stopped["fetch_tasks"], stopped["claim_tasks"]) == (1, 1, 0)
    summary = run_crawl(cfg, corpus, tmp_path, resume=True, log=lambda *_: None)
    _assert_matches_oracle(tmp_path, summary, oracle)
    manifests = [json.loads(m.read_text()) for m in sorted(tmp_path.glob("wave_*/manifest.json"))]
    assert len(manifests) > 2
    assert all(m["claim_tasks"] == 0 for m in manifests if m["n_selected"])
    assert {m["task_rounds"] for m in manifests} == {1}


def _small_row_target_run(corpus, out: Path, cfg: CrawlConfig, monkeypatch, resume=False):
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.stages import schedule

    monkeypatch.setattr(schedule, "ROWS_PER_TASK", 64)
    return run_crawl(cfg, corpus, out, resume=resume, log=lambda *_: None)


def test_small_row_target_spreads_rounds(
    ray_session, corpus, oracle, tmp_path, monkeypatch
):
    """With the row target lowered to 64 rows, the 4-CPU session's waves
    select and compact in several tasks (the novel filter spreads too)
    and still end oracle-exact; a run stopped after wave 1 resumes on a
    one-CPU cluster, whose rounds are narrower, and ends oracle-exact
    too."""
    import ray

    cfg = CrawlConfig(**{**CFG.__dict__, "frontier_compact_every": 2, "dedup_content": True})
    summary = _small_row_target_run(corpus, tmp_path / "straight", cfg, monkeypatch)
    _assert_matches_oracle(tmp_path / "straight", summary, oracle)
    manifests = [
        json.loads(m.read_text())
        for m in sorted((tmp_path / "straight").glob("wave_*/manifest.json"))
    ]
    assert max(m["select_tasks"] for m in manifests) > 1
    assert max(m.get("compact_tasks", 0) for m in manifests) > 1
    # a wave that selects in two or more tasks keeps its separate rounds
    assert all(m["task_rounds"] >= 2 for m in manifests if m["select_tasks"] > 1)

    out = tmp_path / "resumed"
    _small_row_target_run(
        corpus, out, CrawlConfig(**{**cfg.__dict__, "max_waves": 2}), monkeypatch
    )
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    summary = _small_row_target_run(corpus, out, cfg, monkeypatch, resume=True)
    _assert_matches_oracle(out, summary, oracle)


def _count_puts(monkeypatch):
    """Wrap ``ray.put`` and the wave start: returns the list of the wave
    each put was made in (-1 before the first wave)."""
    import ray

    from abwcf_ray.pipelines import crawl

    puts: list[int] = []
    wave = [-1]
    real_put, real_start = ray.put, crawl._start_wave

    def put(*args, **kwargs):
        puts.append(wave[0])
        return real_put(*args, **kwargs)

    def start_wave(run, n):
        wave[0] = n
        return real_start(run, n)

    monkeypatch.setattr(ray, "put", put)
    monkeypatch.setattr(crawl, "_start_wave", start_wave)
    return puts


def test_small_waves_put_nothing_in_the_object_store(ray_session, corpus, tmp_path, monkeypatch):
    """A default one-CPU crawl's wave payloads (flips, robots rules, the
    strict recheck set, the scheduler payload, compaction's status arrays,
    the fetch transport's factory) are small enough to travel inline in
    the task specs: the crawl makes no ``ray.put`` at all, from the run's
    start to its last manifest."""
    import ray

    from abwcf_ray.pipelines.crawl import run_crawl

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    puts = _count_puts(monkeypatch)
    cfg = CrawlConfig(max_waves=3, frontier_compact_every=2)
    run_crawl(cfg, corpus, tmp_path, log=lambda *_: None)
    manifests = [json.loads(m.read_text()) for m in sorted(tmp_path.glob("wave_*/manifest.json"))]
    assert len(manifests) == 3 and any("compact_tasks" in m for m in manifests)
    assert puts == []


def test_payloads_over_the_inline_limit_are_put_once_per_wave(
    ray_session, corpus, oracle, tmp_path, monkeypatch
):
    """With the inline limit at 0 every payload goes through the object
    store: the crawl is still oracle-exact, the transport factory is put
    once per run, and each wave puts each of its payloads once — the
    eligible flips, the robots rules, the recheck set and the scheduler
    payload, plus compaction's two status arrays — however many tasks its
    rounds run."""
    import dataclasses

    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.stages import payload, schedule

    monkeypatch.setattr(payload, "INLINE_LIMIT", 0)
    # small row and chunk targets: the rounds run several tasks
    monkeypatch.setattr(schedule, "ROWS_PER_TASK", 64)
    cfg = dataclasses.replace(CFG, fetch_transport_batch_size=16)
    puts = _count_puts(monkeypatch)
    summary = run_crawl(cfg, corpus, tmp_path, log=lambda *_: None)
    monkeypatch.undo()
    _assert_matches_oracle(tmp_path, summary, oracle)
    manifests = [json.loads(m.read_text()) for m in sorted(tmp_path.glob("wave_*/manifest.json"))]
    assert max(m["select_tasks"] for m in manifests) > 1
    assert max(m.get("fetch_tasks", 0) for m in manifests) > 1
    assert puts.count(-1) == 1
    for m in manifests:
        assert puts.count(m["wave"]) == 4 + 2 * ("compact_tasks" in m), m["wave"]
