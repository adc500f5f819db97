"""robots.txt parser/matcher tests (RFC 9309 / crawler-commons semantics,
HostManager.scala:112-136)."""

from __future__ import annotations

import pandas as pd

from abwcf_ray.functions.robots import (
    ALLOW_ALL,
    ALLOW_NONE,
    ALLOW_SOME,
    RobotRules,
    clamp_delay_ms,
    parse_robots_txt,
)

BODY = b"""
# comment
User-agent: *
Disallow: /private/
Allow: /private/public/
Disallow: /tmp
Crawl-delay: 2
"""


def test_parse_and_match_prefixes():
    r = parse_robots_txt(BODY)
    assert r.mode == ALLOW_SOME
    assert r.crawl_delay_ms == 2000
    assert r.is_allowed("https://x.example/ok")
    assert not r.is_allowed("https://x.example/private/a")
    # longest match wins: Allow /private/public/ beats Disallow /private/
    assert r.is_allowed("https://x.example/private/public/a")
    assert not r.is_allowed("https://x.example/tmpfile")  # prefix semantics
    assert r.is_allowed("https://x.example/robots.txt")


def test_batch_matches_scalar():
    r = parse_robots_txt(BODY)
    urls = pd.Series(
        [
            "https://x.example/ok",
            "https://x.example/private/a",
            "https://x.example/private/public/a",
            "https://x.example/tmp",
            "https://x.example/robots.txt",
        ]
    )
    assert list(r.is_allowed_batch(urls)) == [r.is_allowed(u) for u in urls]


def test_wildcard_and_anchor():
    r = parse_robots_txt(b"User-agent: *\nDisallow: /*.pdf$\nDisallow: /x*y\n")
    assert not r.is_allowed("https://h/doc.pdf")
    assert r.is_allowed("https://h/doc.pdf?x")  # $ anchors end incl. query
    assert not r.is_allowed("https://h/x123y")
    assert r.is_allowed("https://h/x123z")


def test_allow_beats_disallow_on_tie():
    r = parse_robots_txt(b"User-agent: *\nDisallow: /dir/\nAllow: /dir2/\n")
    assert r.is_allowed("https://h/dir2/a")
    r2 = parse_robots_txt(b"User-agent: *\nDisallow: /a/\nAllow: /a/\n")
    assert r2.is_allowed("https://h/a/x")  # equal length -> allow wins


def test_specific_agent_group():
    body = b"User-agent: mybot\nDisallow: /only-mybot/\n\nUser-agent: *\nDisallow: /all/\n"
    r_star = parse_robots_txt(body, user_agents=())
    assert not r_star.is_allowed("https://h/all/x")
    assert r_star.is_allowed("https://h/only-mybot/x")
    r_my = parse_robots_txt(body, user_agents=("MyBot",))
    assert not r_my.is_allowed("https://h/only-mybot/x")
    assert r_my.is_allowed("https://h/all/x")  # specific group overrides *


def test_empty_disallow_allows_everything():
    r = parse_robots_txt(b"User-agent: *\nDisallow:\n")
    assert r.mode == ALLOW_ALL
    assert r.is_allowed("https://h/anything")


def test_delay_clamping():
    # HostManager.scala:126-136 + reference.conf:211-219 defaults
    assert clamp_delay_ms(None, 1000, 0, 20000) == 1000
    assert clamp_delay_ms(-5, 1000, 0, 20000) == 1000
    assert clamp_delay_ms(30000, 1000, 0, 20000) == 20000
    assert clamp_delay_ms(0, 1000, 0, 20000) == 0
    r = parse_robots_txt(b"User-agent: *\nDisallow: /x\nCrawl-delay: 30\n")
    assert r.crawl_delay_ms == 20000


def test_modes_and_serialization_roundtrip():
    r = parse_robots_txt(BODY)
    s = r.serialize_rules()
    r2 = RobotRules.deserialize(r.mode, s, r.crawl_delay_ms)
    assert r2 == RobotRules(mode=r.mode, rules=r.rules, crawl_delay_ms=r.crawl_delay_ms)
    assert not RobotRules(mode=ALLOW_NONE).is_allowed("https://h/x")
    assert RobotRules(mode=ALLOW_ALL).is_allowed("https://h/x")


def test_vectorized_target_parity_query_only_urls(ray_session):
    """The vectorized filter stage's matcher target must equal the scalar
    RobotRules path for query-carrying URLs, including an empty path plus
    query ('https://x?q=1' -> '/?q=1') — round-2 ADVICE parity fix."""
    import numpy as np
    import pyarrow as pa
    import ray

    from abwcf_ray.stages.transform import _allowed_mask

    body = b"User-agent: *\nDisallow: /?q=\nDisallow: /p1\n"
    rules = parse_robots_txt(body)
    host = "https://x.example"
    urls = [
        "https://x.example?q=1",          # empty path + query -> '/?q=1'
        "https://x.example/?q=1",
        "https://x.example/?other=1",
        "https://x.example/p1?q=1",
        "https://x.example/p2?",          # trailing '?' with empty query
        "https://x.example/p2#frag",
        "https://x.example",
    ]
    from abwcf_ray.state.hosts import rules_payload_from_dict

    payload = rules_payload_from_dict(
        {host: (rules.mode, rules.serialize_rules(), rules.crawl_delay_ms)}
    )
    batch = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "host": pa.array([host] * len(urls), pa.string()),
        }
    )
    got = _allowed_mask(ray.put(payload), batch, True)
    want = np.array([rules.is_allowed(u) for u in urls])
    assert (got == want).all(), list(zip(urls, got, want))
    # the disallow actually bites somewhere (guard against vacuous parity)
    assert not want.all()


import string as _string

from hypothesis import given, settings
from hypothesis import strategies as st


_PATTERN = st.text(alphabet=_string.ascii_lowercase[:4] + "/*$.?=_-%~", min_size=1, max_size=8)


def _canonical(rules) -> tuple:
    """The rule order ``parse_robots_txt`` produces: longest first, Allow
    before Disallow on a tie."""
    return tuple(sorted(set(rules), key=lambda r: (-len(r[0]), not r[1])))


@given(
    rulesets=st.lists(
        st.lists(st.tuples(_PATTERN, st.booleans()), min_size=1, max_size=4),
        min_size=1,
        max_size=3,
    ),
    rows=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.text(alphabet=_string.ascii_lowercase[:4] + "/?=&#._-%~", max_size=12),
        ),
        min_size=1,
        max_size=12,
    ),
    unknown_allow=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_vectorized_rules_match_scalar_hypothesis(ray_session, rulesets, rows, unknown_allow):
    """Random rule sets (incl. '*' wildcards and '$' anchors) on several
    ALLOW_SOME hosts in one batch, mixed with an ALLOW_ALL host, an
    ALLOW_NONE host and an unknown one, x random urls: the vectorized
    filter (flat rule table, RE2 match pass) must agree with the scalar
    RobotRules.is_allowed for every row, and an unknown host's rows get
    ``unknown_allow`` and are the ones ``return_unknown`` marks."""
    import numpy as np
    import pyarrow as pa
    import ray

    from abwcf_ray.state.hosts import rules_payload_from_dict
    from abwcf_ray.stages.transform import _allowed_mask

    hosts = {
        f"https://some{i}.example": RobotRules(ALLOW_SOME, _canonical(r), 0)
        for i, r in enumerate(rulesets)
    }
    hosts["https://all.example"] = RobotRules(ALLOW_ALL)
    hosts["https://none.example"] = RobotRules(ALLOW_NONE)
    names = list(hosts) + ["https://unknown.example"]
    payload = rules_payload_from_dict(
        {h: (r.mode, r.serialize_rules(), r.crawl_delay_ms) for h, r in hosts.items()}
    )
    row_hosts = [names[i % len(names)] for i, _ in rows]
    urls = [h + ("/" + s if not s.startswith("/") else s) for h, (_, s) in zip(row_hosts, rows)]
    batch = pa.table({"url": pa.array(urls, pa.string()), "host": pa.array(row_hosts, pa.string())})
    got, unknown = _allowed_mask(ray.put(payload), batch, unknown_allow, return_unknown=True)
    want = np.array(
        [hosts[h].is_allowed(u) if h in hosts else unknown_allow for h, u in zip(row_hosts, urls)]
    )
    assert (got == want).all(), list(zip(urls, got, want))
    assert (unknown == np.array([h not in hosts for h in row_hosts])).all()
    assert (_allowed_mask(ray.put(payload), batch, unknown_allow) == want).all()


def test_re2_rejected_pattern_falls_back_to_python_re(ray_session, monkeypatch):
    """A pattern whose fast (RE2) form arrow rejects is matched with its
    Python ``re`` form instead, with the same answers, and only that
    pattern leaves the fast engine."""
    import numpy as np
    import pyarrow as pa
    import ray

    from abwcf_ray.state.hosts import rules_payload_from_dict
    from abwcf_ray.stages import transform

    real = transform._pattern_to_rust
    # a lookbehind: valid for Python re, rejected by RE2
    monkeypatch.setattr(
        transform, "_pattern_to_rust", lambda p: "(?<=x)" + real(p) if p == "/b" else real(p)
    )
    rules = parse_robots_txt(b"User-agent: *\nDisallow: /a\nDisallow: /b\nAllow: /b/ok\n")
    host = "https://fb.example"
    payload = rules_payload_from_dict({host: (rules.mode, rules.serialize_rules(), 0)})
    urls = [host + p for p in ["/a1", "/b", "/b/ok", "/bx", "/c", "/robots.txt"]]
    batch = pa.table({"url": pa.array(urls), "host": pa.array([host] * len(urls))})
    ref = ray.put(payload)
    got = transform._allowed_mask(ref, batch, True)
    want = np.array([rules.is_allowed(u) for u in urls])
    assert (got == want).all(), list(zip(urls, got, want))
    assert not want[1] and want[2]  # the fallback pattern decides rows
    index = transform._rules_state(ref)
    fast = dict(zip(index.patterns, index.re2))
    assert fast["/b"] is None and fast["/a"] is not None and fast["/b/ok"] is not None


def test_rust_pattern_literal_backslash_z():
    """A rule whose path literally contains backslash-Z must match the same
    URLs on the fast path (arrow's RE2 kernel, the engine the robots
    filters run) as on the Python re fallback: the old blanket
    ``pattern.replace('\\Z', '\\z')`` rewrote the tail of the ESCAPED
    literal, silently changing the matched byte."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from abwcf_ray.functions.robots import _pattern_to_regex, _pattern_to_rust

    targets = ["/a\\Zb", "/a\\zb", "/aZb", "/x", "/a\\Z", "/a\\z"]
    s = pa.array(targets)
    for rule in ["/a\\Z", "/a\\Zb$", "/a*\\Z", "/a\\Z$"]:
        py = _pattern_to_regex(rule)
        fast = _pattern_to_rust(rule)
        want = [bool(py.match(t)) for t in targets]
        got = pc.match_substring_regex(s, fast).to_pylist()
        assert got == want, (rule, fast, py.pattern, want, got)
    # and the anchor itself still translates: '$'-anchored rules match
    # end-of-string on both engines
    py = _pattern_to_regex("/exact$")
    fast = _pattern_to_rust("/exact$")
    s2 = pa.array(["/exact", "/exactly", "/exact/"])
    assert pc.match_substring_regex(s2, fast).to_pylist() == [True, False, False]
    assert [bool(py.match(t)) for t in s2.to_pylist()] == [True, False, False]
