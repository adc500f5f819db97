"""Unit tests for the batch-transform stages, incl. the normalize fast-path
equivalence property."""

from __future__ import annotations

import string

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abwcf_ray.config import (
    STRICT_NORMALIZATION,
    CrawlConfig,
    NormalizationConfig,
)
from abwcf_ray.functions.urlnorm import normalize_url
from abwcf_ray.stages.transform import (
    _CANONICAL_RE,
    make_normalize_stage,
    make_prioritize_stage,
    make_scope_filter_stage,
)


def _norm_batch(urls, cfg=None):
    stage = make_normalize_stage(cfg or CrawlConfig())
    t = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "depth": pa.array([1] * len(urls), pa.int32()),
        }
    )
    return stage(t)


def test_normalize_stage_matches_scalar_kernel():
    urls = [
        "https://h1.example/p3",  # fast path
        "HTTPS://H1.EXAMPLE:443/./p3",  # slow path, same canonical
        "https://h2.example/a/b/p7/",  # fast path w/ trailing slash
        "http://exa mple/",  # dropped
        "mailto:x@example.com",  # dropped
        "https://user@h3.example/x?q=1#f",  # slow path
    ]
    out = _norm_batch(urls)
    got = dict(zip(out.column("url").to_pylist(), out.column("host").to_pylist()))
    assert got == {
        "https://h1.example/p3": "https://h1.example",
        "https://h2.example/a/b/p7/": "https://h2.example",
        "https://h3.example/x?q=1": "https://h3.example",
    }


@given(
    st.text(
        alphabet=string.ascii_letters + string.digits + ":/.?#@%-_~[]",
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=300, deadline=None)
def test_normalize_fast_path_agrees(s):
    """Anything the canonical fast-path regex accepts must be a fixed point
    of the full normalizer under EVERY config."""
    url = "https://" + s if not s.startswith("http") else s
    if _CANONICAL_RE.fullmatch(url):
        for cfg in (
            NormalizationConfig(),
            STRICT_NORMALIZATION,
            NormalizationConfig(False, False, False),
        ):
            assert normalize_url(url, cfg) == url


_seg = st.text(alphabet=string.ascii_letters + string.digits + "_-", min_size=1, max_size=8)


@given(
    scheme=st.sampled_from(["http", "https"]),
    host=st.from_regex(r"[a-z0-9][a-z0-9.\-]{0,20}", fullmatch=True),
    segs=st.lists(_seg, min_size=0, max_size=5),
    trailing=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_normalize_fast_path_agrees_dense(scheme, host, segs, trailing):
    """Component-wise generator: every url built from the canonical grammar
    (which the fast-path regex accepts by construction) is a fixed point of
    the full normalizer — dense coverage of the fast-path surface, incl.
    trailing slashes."""
    path = "/" + "/".join(segs) + ("/" if trailing and segs else "")
    url = f"{scheme}://{host}{path}"
    if not _CANONICAL_RE.fullmatch(url):
        return  # e.g. host ending in '-' rejected by the regex — slow path
    for cfg in (NormalizationConfig(), STRICT_NORMALIZATION):
        assert normalize_url(url, cfg) == url


def test_scope_filter_full_match_semantics():
    cfg = CrawlConfig(must_match=(r"https://ok\.example/.*",), must_not_match=(r".*/private/.*",))
    stage = make_scope_filter_stage(cfg)
    t = pa.table(
        {
            "url": pa.array(
                [
                    "https://ok.example/a",
                    "https://ok.example/private/x",
                    "https://other.example/a",
                    "prefix https://ok.example/a",  # fullmatch, not search
                ]
            ),
            "depth": pa.array([0] * 4, pa.int32()),
        }
    )
    assert stage(t).column("url").to_pylist() == ["https://ok.example/a"]


def test_priority_functions_deterministic():
    t = pa.table(
        {
            "url": pa.array(["https://a/1", "https://a/2"]),
            "depth": pa.array([0, 3], pa.int32()),
        }
    )
    bf = make_prioritize_stage(CrawlConfig(priority_fn="breadth_first"))(t)
    assert bf.column("priority").to_pylist() == [0, -3]
    df_ = make_prioritize_stage(CrawlConfig(priority_fn="depth_first"))(t)
    assert df_.column("priority").to_pylist() == [0, 3]
    h1 = make_prioritize_stage(CrawlConfig(priority_fn="breadth_first_hash"))(t)
    h2 = make_prioritize_stage(CrawlConfig(priority_fn="breadth_first_hash"))(t)
    assert h1.column("priority").to_pylist() == h2.column("priority").to_pylist()
    # depth dominates the hash tiebreak
    p = h1.column("priority").to_pylist()
    assert p[0] > p[1]
    with pytest.raises(ValueError):
        make_prioritize_stage(CrawlConfig(priority_fn="nope"))(t)


def test_strict_filter_defers_unknown_hosts(ray_session):
    """Fail-close on an unknown host is TEMPORARY (StrictRobotsFilter
    fail-close-duration): the row is excluded from the wave but NOT flagged
    ``rejected``, so it stays Discovered and retries."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from abwcf_ray.functions.robots import parse_robots_txt
    from abwcf_ray.stages.transform import make_strict_robots_filter
    from abwcf_ray.functions.hashing import hash64

    rules = parse_robots_txt(b"User-agent: *\nDisallow: /private/\n")
    known = "https://known.example"
    from abwcf_ray.state.hosts import rules_payload_from_dict

    payload = rules_payload_from_dict(
        {known: (rules.mode, rules.serialize_rules(), rules.crawl_delay_ms)}
    )
    stage = make_strict_robots_filter(ray.put(payload))
    batch = pa.table(
        {
            "url": pa.array(
                [
                    "https://known.example/ok",
                    "https://known.example/private/x",
                    "https://unknown.example/page",
                ]
            ),
            "host": pa.array([known, known, "https://unknown.example"]),
        }
    )
    out = stage(batch)
    allowed = out.filter(pc.invert(out.column("rejected")))
    assert allowed.column("url").to_pylist() == ["https://known.example/ok"]
    rej = out.filter(out.column("rejected"))
    # only the known-rules reject is flagged; the unknown host is deferred,
    # not Disallowed
    assert set(hash64(rej.column("url")).tolist()) == {
        int(hash64(["https://known.example/private/x"])[0])
    }
    assert rej.column("host").to_pandas().value_counts().to_dict() == {known: 1}


def test_strict_filter_evaluates_only_recheck_hosts(ray_session):
    """With a recheck set (the hosts whose robots this wave fetched), only
    those hosts' rows are evaluated: a live host outside the set passes
    unrejected even where its rules disallow the url (so no rule was
    evaluated), a host in the set has its rejects flagged, and an unknown
    host's rows are dropped without a reject."""
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.functions.robots import parse_robots_txt
    from abwcf_ray.stages.transform import make_strict_robots_filter
    from abwcf_ray.state.hosts import rules_payload_from_dict

    rules = parse_robots_txt(b"User-agent: *\nDisallow: /private/\n")
    fresh, kept, none = "https://fresh.example", "https://kept.example", "https://none.example"
    payload = rules_payload_from_dict(
        {
            fresh: (rules.mode, rules.serialize_rules(), rules.crawl_delay_ms),
            kept: (rules.mode, rules.serialize_rules(), rules.crawl_delay_ms),
            none: ("ALLOW_NONE", "", 1000),
        }
    )
    urls = [
        f"{fresh}/ok",
        f"{fresh}/private/x",
        f"{kept}/ok",
        f"{kept}/private/x",
        f"{none}/x",
        "https://unknown.example/page",
    ]
    hosts = [fresh, fresh, kept, kept, none, "https://unknown.example"]
    batch = pa.table({"url": pa.array(urls), "host": pa.array(hosts)})
    recheck = ray.put(np.sort(hash64([fresh])))
    out = make_strict_robots_filter(ray.put(payload), recheck)(batch)
    rejected = dict(zip(out.column("url").to_pylist(), out.column("rejected").to_pylist()))
    assert rejected == {
        f"{fresh}/ok": False,
        f"{fresh}/private/x": True,  # evaluated: in the recheck set
        f"{kept}/ok": False,
        f"{kept}/private/x": False,  # not evaluated: its rules are unchanged
        f"{none}/x": False,  # not evaluated, though ALLOW_NONE
    }
    # an empty recheck set evaluates nothing; None evaluates every row
    empty = make_strict_robots_filter(ray.put(payload), ray.put(np.empty(0, np.uint64)))
    assert not pc.any(empty(batch).column("rejected")).as_py()
    full = make_strict_robots_filter(ray.put(payload))(batch)
    assert full.filter(full.column("rejected")).column("url").to_pylist() == [
        f"{fresh}/private/x",
        f"{kept}/private/x",
        f"{none}/x",
    ]
    assert empty(batch.slice(0, 0)).column_names == ["url", "host", "rejected"]


def test_wave_stages_pickle_by_reference(ray_session, tmp_path):
    """Every stage a wave ships to a task is a module-level function or a
    ``functools.partial`` over one, so a task submission pickles a
    reference plus the captured values, not the function's code. The
    standard library's pickle refuses nested functions, so this fails for
    any stage that is a closure. The stages are built through the names
    ``pipelines/crawl.py`` calls, with a default config and real object
    refs, as each wave builds them."""
    import pickle

    import numpy as np
    import ray

    from abwcf_ray.pipelines import crawl
    from abwcf_ray.state.hosts import rules_payload_from_dict

    cfg = CrawlConfig()
    hashes = ray.put(np.empty(0, np.uint64))
    hosts_ref = ray.put(rules_payload_from_dict({}))
    shipped = {
        "_scan_task": [crawl.make_eligible_filter(hashes), crawl.partial_host_counts],
        "_select_partial": [
            crawl.make_eligible_filter(hashes),
            crawl.make_strict_robots_filter(hosts_ref, hashes),
        ],
        "_fetch_task": [
            crawl.make_fetch_process_tee(
                crawl.make_process_fetched_stage(cfg), str(tmp_path), str(tmp_path), hashes
            ),
            crawl.explode_links,
            crawl.make_normalize_stage(cfg),
            crawl.make_scope_filter_stage(cfg),
            crawl.make_propose(),
        ],
        "_compact_group": [crawl.make_update_status(hashes, hashes)],
        "_claim_chunk": [crawl.make_lenient_robots_filter(hosts_ref), cfg],
    }
    for stages in shipped.values():
        for stage in stages:
            pickle.loads(pickle.dumps(stage))  # raises on a closure
    # a stage with a user pattern still pickles (compiled re by value)
    pickle.dumps(crawl.make_scope_filter_stage(CrawlConfig(must_not_match=(r".*\.pdf",))))


@given(
    scheme=st.sampled_from(["http", "HTTP", "https", "HtTpS", "ftp"]),
    host=st.from_regex(r"[A-Za-z0-9][A-Za-z0-9.\-]{0,15}", fullmatch=True),
    port=st.sampled_from(["", ":443", ":80", ":0443", ":8080", ":080", ":0"]),
    segs=st.lists(
        st.text(alphabet=string.ascii_letters + string.digits + "_-", min_size=1, max_size=6),
        min_size=0,
        max_size=4,
    ),
    trailing=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_normalize_rescue_pass_matches_scalar(scheme, host, port, segs, trailing):
    """The vectorized rescue pass (lowercase scheme/host, default-port
    strip, ''->'/' path) must agree with normalize_url for every config —
    it fires on exactly the scheme://host[:port]<canonical-path> grammar."""
    path = "".join("/" + s for s in segs) + ("/" if trailing and segs else "")
    url = f"{scheme}://{host}{port}{path}"
    for cfg in (NormalizationConfig(), STRICT_NORMALIZATION, NormalizationConfig(False, False, False)):
        want = normalize_url(url, cfg)
        out = _norm_batch([url], CrawlConfig(normalization=cfg))
        got = out.column("url").to_pylist()
        if want is None:
            assert got == []
        else:
            # the stage additionally requires a host-extract hit; every
            # normalized url carries scheme://authority so it must survive
            assert got == [want], (url, want, got)
