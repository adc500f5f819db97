"""HostsState / robots fetch-sim classification and TTL tests
(HostManager.scala:112-177, RobotsFetcher.scala:72-138)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from abwcf_ray.config import CrawlConfig
from abwcf_ray.functions.robots import ALLOW_ALL, ALLOW_NONE, ALLOW_SOME
from abwcf_ray.state.hosts import (
    HostEntry,
    HostsState,
    RobotsFetchSim,
    classify_robots_fetch,
)

CFG = CrawlConfig()


def test_classification_matrix():
    ok = classify_robots_fetch(200, 0, b"User-agent: *\nDisallow: /x\n", CFG, 0.0, None)
    assert ok.rules.mode == ALLOW_SOME
    assert ok.valid_until_s == CFG.valid_rules_lifetime_s

    unavailable = classify_robots_fetch(404, 0, None, CFG, 0.0, None)
    assert unavailable.rules.mode == ALLOW_ALL
    assert unavailable.valid_until_s == CFG.unavailable_rules_lifetime_s

    unreachable = classify_robots_fetch(503, 0, None, CFG, 0.0, None)
    assert unreachable.rules.mode == ALLOW_NONE
    assert unreachable.valid_until_s == CFG.unreachable_rules_lifetime_s

    # redirect chain longer than max-redirects -> unavailable (ALLOW_ALL)
    too_many = classify_robots_fetch(200, 7, b"User-agent: *\nDisallow: /\n", CFG, 0.0, None)
    assert too_many.rules.mode == ALLOW_ALL
    # within the cap -> body parsed
    ok_redir = classify_robots_fetch(200, 5, b"User-agent: *\nDisallow: /x\n", CFG, 0.0, None)
    assert ok_redir.rules.mode == ALLOW_SOME

    # 2xx with a NON-text/plain content type -> Unreachable (RFC 9309 gate,
    # RobotsFetcher.scala:72-77 + :118-126): ALLOW_NONE + unreachable TTL,
    # or reuse of expired rules
    html_robots = classify_robots_fetch(
        200, 0, b"<html>robots</html>", CFG, 0.0, None, content_type="text/html"
    )
    assert html_robots.rules.mode == ALLOW_NONE
    assert html_robots.valid_until_s == CFG.unreachable_rules_lifetime_s
    old = classify_robots_fetch(200, 0, b"User-agent: *\nDisallow: /k\n", CFG, 0.0, None)
    reused = classify_robots_fetch(
        200, 0, b"<html></html>", CFG, 50.0, old, content_type="text/html"
    )
    assert reused.rules == old.rules


def test_unreachable_reuses_expired_rules():
    old = classify_robots_fetch(200, 0, b"User-agent: *\nDisallow: /keep\n", CFG, 0.0, None)
    reused = classify_robots_fetch(503, 0, None, CFG, 100.0, old)
    assert reused.rules == old.rules  # HostManager.scala:154-160
    assert reused.valid_until_s == 100.0 + CFG.unreachable_rules_lifetime_s


def test_fetchsim_and_state_merge(tmp_path):
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table(
            {
                "host": pa.array(["https://a", "https://b", "https://c", "https://h"]),
                "status": pa.array([200, 503, 200, 200], pa.int32()),
                "redirect_hops": pa.array([0, 0, 9, 0], pa.int32()),
                "body": pa.array(
                    [
                        b"User-agent: *\nDisallow: /x\nCrawl-delay: 2\n",
                        None,
                        b"x",
                        b"<html>robots as html</html>",
                    ],
                    pa.binary(),
                ),
                "content_type": pa.array(
                    ["text/plain", None, "text/plain", "text/html"], pa.string()
                ),
            }
        ),
        tmp_path / "robots.parquet",
    )
    sim = RobotsFetchSim(str(tmp_path / "robots.parquet"), CFG)
    batch = pa.table(
        {
            "host": pa.array(
                ["https://a", "https://b", "https://c", "https://h", "https://missing"]
            ),
            "now_s": pa.array([10.0] * 5, pa.float64()),
        }
    )
    out = sim(batch)
    by_host = {r["host"]: r for r in out.to_pylist()}
    assert by_host["https://a"]["rule_mode"] == ALLOW_SOME
    assert by_host["https://a"]["crawl_delay_ms"] == 2000
    assert by_host["https://a"]["outcome"] == "ok"
    assert by_host["https://b"]["rule_mode"] == ALLOW_NONE
    assert by_host["https://b"]["outcome"] == "unreachable"
    assert by_host["https://c"]["rule_mode"] == ALLOW_ALL  # redirect cap
    # 2xx text/html robots -> unreachable (content-type gate)
    assert by_host["https://h"]["rule_mode"] == ALLOW_NONE
    assert by_host["https://h"]["outcome"] == "unreachable"
    assert by_host["https://missing"]["rule_mode"] == ALLOW_ALL  # no robots -> 404

    state = HostsState(CFG)
    # pre-existing expired entry for b -> unreachable outcome reuses it
    old_rules = classify_robots_fetch(200, 0, b"User-agent: *\nDisallow: /old\n", CFG, 0.0, None)
    state.set_entry("https://b", HostEntry(old_rules.rules, 5.0))
    state.merge_fetched(out)
    assert state.get_entry("https://b").rules == old_rules.rules
    assert state.get_entry("https://a").rules.crawl_delay_ms == 2000

    # expiry: the rules payload drops expired entries (fail-open downstream)
    from abwcf_ray.functions.hashing import hash64

    state.set_entry("https://a", HostEntry(state.get_entry("https://a").rules, 20.0))
    a_hash = int(hash64(["https://a"])[0])
    assert a_hash in state.rules_payload(now_s=10.0)["hash"]
    assert a_hash not in state.rules_payload(now_s=25.0)["hash"]

    # checkpoint roundtrip
    state.checkpoint(tmp_path / "hosts.parquet")
    state2 = HostsState(CFG)
    state2.restore(tmp_path / "hosts.parquet")
    state2.checkpoint(tmp_path / "hosts2.parquet")
    assert pq.read_table(tmp_path / "hosts.parquet").equals(
        pq.read_table(tmp_path / "hosts2.parquet")
    )
    for h in ("https://a", "https://b", "https://c", "https://h", "https://missing"):
        assert state2.get_entry(h).rules == state.get_entry(h).rules


def test_missing_or_expired():
    state = HostsState(CFG)
    state.set_entry(
        "https://a",
        HostEntry(classify_robots_fetch(404, 0, None, CFG, 0.0, None).rules, 100.0),
    )
    assert state.missing_or_expired(["https://a", "https://b"], 50.0) == ["https://b"]
    assert state.missing_or_expired(["https://a"], 100.0) == ["https://a"]


def test_merge_fetched_vectorized_semantics():
    """Columnar merge edge cases: duplicate host within one batch keeps the
    LAST row; unreachable outcome against an ABSENT host inserts the new
    (ALLOW_NONE) row; sched/rules payloads agree with scalar budgets."""
    import numpy as np

    from abwcf_ray.stages.schedule import budget_for_delay
    from abwcf_ray.state.hosts import MODE_SOME, budgets_for_delays

    state = HostsState(CFG)
    t = pa.table(
        {
            "host": pa.array(["https://d", "https://d", "https://u"]),
            "rule_mode": pa.array(["ALLOW_ALL", "ALLOW_SOME", "ALLOW_NONE"]),
            "robot_rules": pa.array(["", "disallow: /x", ""]),
            "crawl_delay_ms": pa.array([100, 700, 1000], pa.int64()),
            "valid_until_s": pa.array([50.0, 60.0, 70.0], pa.float64()),
            "outcome": pa.array(["ok", "ok", "unreachable"]),
        }
    )
    state.merge_fetched(t)
    assert len(state) == 2
    d = state.get_entry("https://d")
    assert d.rules.crawl_delay_ms == 700 and d.valid_until_s == 60.0
    assert state.get_entry("https://u").rules.mode == "ALLOW_NONE"

    payload = state.rules_payload(now_s=0.0)
    assert list(payload["mode"]).count(MODE_SOME) == 1
    assert payload["some_rules"] == ["disallow: /x"]

    # vectorized budgets == scalar budgets, including delay<=0 and delay>wave
    delays = np.array([0, -5, 1, 700, 10_000, 25_000], dtype=np.int64)
    got = budgets_for_delays(delays, 10.0)
    want = [budget_for_delay(int(x), 10.0) for x in delays]
    assert got.tolist() == want


def test_columnar_state_matches_dict_model():
    """Model-based check: random merge/expiry/payload sequences on the
    columnar HostsState must agree with a naive dict model (the round-2
    implementation's semantics)."""
    import numpy as np

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.state.hosts import MODE_ALL, MODE_NONE, MODE_SOME

    rng = np.random.default_rng(7)
    MODES = ["ALLOW_ALL", "ALLOW_NONE", "ALLOW_SOME"]
    CODE = {"ALLOW_ALL": MODE_ALL, "ALLOW_NONE": MODE_NONE, "ALLOW_SOME": MODE_SOME}
    state = HostsState(CFG)
    model: dict[str, tuple[str, str, int, float, str | None]] = {}

    def random_batch(n):
        hs = [f"https://m{int(i)}.example" for i in rng.integers(0, 40, n)]
        modes = [MODES[i] for i in rng.integers(0, 3, n)]
        rules = ["disallow: /p%d" % i if m == "ALLOW_SOME" else "" for i, m in enumerate(modes)]
        delays = rng.integers(0, 5000, n).tolist()
        valids = (rng.random(n) * 100).round(2).tolist()
        outcomes = [["ok", "unavailable", "unreachable"][i] for i in rng.integers(0, 3, n)]
        return hs, modes, rules, delays, valids, outcomes

    for _ in range(12):
        n = int(rng.integers(1, 25))
        hs, modes, rules, delays, valids, outcomes = random_batch(n)
        state.merge_fetched(
            pa.table(
                {
                    "host": pa.array(hs),
                    "rule_mode": pa.array(modes),
                    "robot_rules": pa.array(rules),
                    "crawl_delay_ms": pa.array(delays, pa.int64()),
                    "valid_until_s": pa.array(valids, pa.float64()),
                    "outcome": pa.array(outcomes),
                }
            )
        )
        # batch-set semantics (matches merge_fetched): duplicate hosts in a
        # batch keep the LAST row; unreachable-reuse consults the PRE-batch
        # state (the pipeline never sends a host twice in one merge)
        pre = dict(model)
        last = {h: (m, r, d, v, o) for h, m, r, d, v, o in zip(hs, modes, rules, delays, valids, outcomes)}
        for h, (m, r, d, v, o) in last.items():
            if o == "unreachable" and h in pre:
                om, orr, od, _, _ = pre[h]
                model[h] = (om, orr, od, v, o)  # reuse rules, new TTL
            else:
                model[h] = (m, r, d, v, o)

        now = float(rng.random() * 100)
        # missing_or_expired
        probe = [f"https://m{i}.example" for i in range(45)]
        want = [h for h in probe if h not in model or model[h][3] <= now]
        assert state.missing_or_expired(probe, now) == want

        # payloads: live set + modes + budgets
        live = {h: t for h, t in model.items() if t[3] > now}
        rp = state.rules_payload(now)
        hh = hash64(list(live)) if live else np.empty(0, np.uint64)
        assert sorted(rp["hash"].tolist()) == sorted(hh.tolist())
        mode_by_hash = {int(x): CODE[live[h][0]] for x, h in zip(hh, live)}
        assert {int(a): int(b) for a, b in zip(rp["hash"], rp["mode"])} == mode_by_hash
        sp = state.sched_payload(now, 10.0)
        from abwcf_ray.stages.schedule import budget_for_delay

        k_by_hash = {int(x): budget_for_delay(live[h][2], 10.0) for x, h in zip(hh, live)}
        assert {int(a): int(b) for a, b in zip(sp["hash"], sp["k"])} == k_by_hash


def test_merge_fetched_rejects_unknown_mode():
    """A corrupted/hand-edited checkpoint with a mode outside the three
    known values must raise, not silently round-trip NaN->uint8 garbage
    into an arbitrary mode (state/hosts._mode_codes)."""
    state = HostsState(CFG)
    bad = pa.table(
        {
            "host": pa.array(["https://h.example"]),
            "rule_mode": pa.array(["ALLOW_SOMETIMES"]),  # not a known mode
            "robot_rules": pa.array([""]),
            "crawl_delay_ms": pa.array([1000], pa.int64()),
            "valid_until_s": pa.array([1e9], pa.float64()),
        }
    )
    with pytest.raises(ValueError, match="unknown robots mode"):
        state.merge_fetched(bad)


def test_rules_payload_key_names_the_live_rules():
    """The rules payload's ``key`` is what worker processes cache their
    rule index on: it holds while the table and its live set are
    unchanged, and it changes with a merge, an expiry, a restore, or
    another table. A worker reuses its index for an equal key."""
    from abwcf_ray.functions.robots import parse_robots_txt
    from abwcf_ray.stages import transform

    rules = parse_robots_txt(b"User-agent: *\nDisallow: /x\n")
    state = HostsState(CFG)
    state.set_entry("https://a", HostEntry(rules, 100.0))
    state.set_entry("https://b", HostEntry(rules, 50.0))
    key = state.rules_payload(10.0)["key"]
    assert state.rules_payload(40.0)["key"] == key  # same live set
    assert state.rules_payload(60.0)["key"] != key  # b expired
    index = transform._rules_state(state.rules_payload(10.0))
    assert transform._rules_state(state.rules_payload(20.0)) is index
    state.set_entry("https://c", HostEntry(rules, 100.0))
    assert state.rules_payload(10.0)["key"] != key
    assert transform._rules_state(state.rules_payload(10.0)) is not index
    other = HostsState(CFG)
    other.set_entry("https://a", HostEntry(rules, 100.0))
    other.set_entry("https://b", HostEntry(rules, 50.0))
    assert other.rules_payload(10.0)["key"] != key
