"""Per-record crawl stages as vectorized per-batch arrow callables (run
inside the wave loop's Ray tasks, or as ``map_batches`` UDFs).

The reference's candidate chain (Crawler.scala:93-115):
``HtmlParser -> UrlDeduplicator -> UrlNormalizer -> UrlFilter ->
LenientRobotsFilter -> PageManager.Discover``. Each per-node actor becomes a
batch transform here; the approximate LRU pre-dedup (UrlDeduplicator.scala,
best-effort only) becomes an exact within-batch dedup, and the url-hash
partition of the claim plus the seen set (state/seen.py) make the dedup
exact across batches and waves.

All stages take and return ``pyarrow.Table`` batches.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from abwcf_ray.config import CrawlConfig
from abwcf_ray.functions.hashing import hash64
from abwcf_ray.functions.htmlx import header_nofollow, parse_document
from abwcf_ray.functions.robots import _pattern_to_regex, _pattern_to_rust
from abwcf_ray.functions.urlnorm import normalize_url, resolve_location

CANDIDATE_SCHEMA = pa.schema([("url", pa.string()), ("depth", pa.int32())])
FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("status", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.int64()),
    ]
)

STATUS_DISCOVERED = "Discovered"
STATUS_PROCESSED = "Processed"
STATUS_DISALLOWED = "Disallowed"


# --------------------------------------------------------------------------
# B4 — URL normalizer (+ host extraction)
# --------------------------------------------------------------------------
# Fast path: urls that PROVABLY normalize to themselves — lowercase scheme +
# host, no port/userinfo/query/fragment/whitespace, absolute path whose
# segments contain no dots or empty segments (so dot-segment removal is the
# identity). Everything else takes the full per-url normalizer. The
# predicate is conservative: any url it accepts satisfies
# ``normalize_url(u) == u`` for EVERY NormalizationConfig (query/fragment
# absence makes the config switches moot), verified by
# tests/test_transform_stages.py::test_normalize_fast_path_agrees.
_CANONICAL_RE = re.compile(
    r"https?://[a-z0-9.\-]+/(?:[A-Za-z0-9_\-]+(?:/[A-Za-z0-9_\-]+)*/?)?"
)
_HOST_RE = re.compile(r"^([A-Za-z0-9+.\-]+://[^/]+)")
_CANONICAL_FULL = f"^(?:{_CANONICAL_RE.pattern})$"
_RESCUE_PATTERN = (
    r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://(?P<host>[A-Za-z0-9.\-]+)"
    r"(?P<port>:\d{1,9})?(?P<path>(?:/[A-Za-z0-9_\-]+)*/?)$"
)


def make_normalize_stage(cfg: CrawlConfig):
    """candidates(url, depth) -> (url, host, depth); invalid urls dropped
    (UrlNormalizer.scala:35-39: exception -> drop). Vectorized canonical
    fast path + per-url slow path. The two vectorized regex passes (the
    fast-path gate and the host extraction) run on polars' Rust-regex
    string kernels, zero-copy from arrow — measured 4-7x the pandas
    ``str.fullmatch``/``str.extract`` on corpus link batches, and this is
    the hottest candidate-chain kernel (every discovered link passes
    through). Both patterns are plain character-class regexes with
    identical semantics under ``re`` (tests use the compiled ``re``
    forms) and Rust regex."""
    return functools.partial(_normalize_batch, cfg.normalization)


def _normalize_batch(norm_cfg, batch: pa.Table) -> pa.Table:
    import polars as pl

    if batch.num_rows == 0:
        return pa.table(
            {
                "url": pa.array([], pa.string()),
                "host": pa.array([], pa.string()),
                "depth": pa.array([], pa.int32()),
            }
        )
    url_arr = batch.column("url").combine_chunks()
    fast = (
        pl.from_arrow(url_arr)
        .str.contains(_CANONICAL_FULL)
        .fill_null(False)
        .to_numpy()
        .astype(bool, copy=False)
    )

    # fast rows pass through as an arrow slice — zero per-row Python
    fast_tbl = batch.select(["url", "depth"]).filter(pa.array(fast))
    # non-canonical rows: a vectorized RESCUE pass first — lowercase
    # scheme/host, strip the scheme's default port, "" path -> "/" are
    # UNCONDITIONAL in normalize_url (config flags only gate
    # userinfo/query/fragment, which the rescue grammar excludes), so
    # for a url of shape scheme://host[:port]<canonical-path> the
    # rebuilt string IS normalize_url's output under every config
    # (differential-tested in test_transform_stages). This rescues the
    # common messy-link forms (':443', UPPERCASE host) that dominated
    # the per-url slow loop.
    rescued_tbl = None
    slow_urls: list[str] = []
    slow_depths: list[int] = []
    if not fast.all():
        slow_arr = pa.array(~fast)
        slow_url_arr = url_arr.filter(slow_arr)
        slow_d = batch.column("depth").to_numpy(zero_copy_only=False)[~fast]
        g = (
            pl.from_arrow(slow_url_arr)
            .str.extract_groups(_RESCUE_PATTERN)
            .struct.unnest()
        )
        matched = (
            g["scheme"].is_not_null().to_numpy().astype(bool, copy=False)
        )
        if matched.any():
            rebuilt = (
                g.lazy()
                .filter(pl.col("scheme").is_not_null())
                .with_columns(
                    scheme=pl.col("scheme").str.to_lowercase(),
                    host=pl.col("host").str.to_lowercase(),
                    port_i=pl.col("port").str.slice(1).cast(pl.Int64),
                )
                .with_columns(
                    port_s=pl.when(pl.col("port_i").is_null())
                    .then(pl.lit(""))
                    .when(
                        (pl.col("scheme") == "https") & (pl.col("port_i") == 443)
                    )
                    .then(pl.lit(""))
                    .when((pl.col("scheme") == "http") & (pl.col("port_i") == 80))
                    .then(pl.lit(""))
                    .otherwise(pl.lit(":") + pl.col("port_i").cast(pl.Utf8)),
                    path=pl.when(pl.col("path") == "")
                    .then(pl.lit("/"))
                    .otherwise(pl.col("path")),
                )
                .select(
                    url=pl.col("scheme")
                    + pl.lit("://")
                    + pl.col("host")
                    + pl.col("port_s")
                    + pl.col("path")
                )
                .collect()["url"]
            )
            rescued_tbl = pa.table(
                {
                    "url": rebuilt.to_arrow().cast(pa.string()),
                    "depth": pa.array(slow_d[matched], pa.int32()),
                }
            )
        # residue: full RFC-3986 normalization per url
        if not matched.all():
            slow_in = slow_url_arr.filter(pa.array(~matched)).to_pylist()
            for u, d in zip(slow_in, slow_d[~matched]):
                n = normalize_url(u, norm_cfg) if u is not None else None
                if n is not None:
                    slow_urls.append(n)
                    slow_depths.append(int(d))
    slow_tbl = pa.table(
        {
            "url": pa.array(slow_urls, pa.string()),
            "depth": pa.array(slow_depths, pa.int32()),
        }
    )
    parts = [fast_tbl.cast(slow_tbl.schema)]
    if rescued_tbl is not None:
        parts.append(rescued_tbl)
    parts.append(slow_tbl)
    merged = pa.concat_tables(parts).combine_chunks()
    # vectorized host extraction (normalized urls always carry
    # scheme://authority, so misses are pathological and dropped)
    hosts = pl.from_arrow(merged.column("url").combine_chunks()).str.extract(
        _HOST_RE.pattern, 1
    )
    ok = hosts.is_not_null().to_numpy().astype(bool, copy=False)
    ok_arr = pa.array(ok)
    return pa.table(
        {
            "url": merged.column("url").filter(ok_arr),
            "host": hosts.to_arrow().cast(pa.string()).filter(ok_arr),
            "depth": merged.column("depth").filter(ok_arr),
        }
    )


# --------------------------------------------------------------------------
# B5 — URL scope filter
# --------------------------------------------------------------------------
def make_scope_filter_stage(cfg: CrawlConfig):
    """UrlFilter.scala:35-47: len <= max AND full-match >=1 must-match AND
    full-match 0 must-not-match. Vectorized via pandas str.fullmatch (Java
    ``Regex.matches`` is a full match)."""
    return functools.partial(
        _scope_filter,
        cfg.max_url_length,
        None if cfg.must_match == (".*",) else [re.compile(p) for p in cfg.must_match],
        [re.compile(p) for p in cfg.must_not_match],
    )


def _scope_filter(max_len: int, must, must_not, batch: pa.Table) -> pa.Table:
    """``must`` is None for the trivial ``(".*",)`` must-match list."""
    if batch.num_rows == 0:
        return batch
    # length gate on the arrow kernel (code points, = Python len);
    # pandas is materialized only when user patterns exist — they may
    # use Python-re-only syntax (lookarounds), so fullmatch stays re
    keep = (
        pc.fill_null(
            pc.less_equal(pc.utf8_length(batch.column("url")), max_len), False
        )
        .to_numpy(zero_copy_only=False)
        .astype(bool)
    )
    if must is not None or must_not:
        urls = batch.column("url").to_pandas().astype("string")
        if must is not None:
            any_must = np.zeros(len(urls), dtype=bool)
            for rx in must:
                any_must |= urls.str.fullmatch(rx).fillna(False).to_numpy(dtype=bool)
            keep &= any_must
        for rx in must_not:
            keep &= ~urls.str.fullmatch(rx).fillna(False).to_numpy(dtype=bool)
    return batch.filter(pa.array(keep))


# --------------------------------------------------------------------------
# C1 / C2 — robots filters (broadcast hosts join)
# --------------------------------------------------------------------------
# Per-worker-process cache of broadcast hosts payloads and their rule
# indexes — the rebuild of the per-node Caffeine caches (reference.conf:
# 40-51, 69-80). The filter stages are plain task functions (not actor
# pools): Ray worker processes are long-lived, so the first batch in a
# process pays one local-object-store ray.get and every later batch hits
# this cache. This avoids per-wave actor-pool startup, which dominated wave
# latency.
#
# Evaluation is a sort-based join, not a hash join or a loop over hosts:
# the index is one FLAT rule table sorted by host hash, so each row finds
# its host's rules by two searchsorted calls, and the (row, rule) pairs are
# matched with one regex call per DISTINCT pattern (rule patterns repeat
# across hosts: /wp-admin/, /cgi-bin/, ...). Every step is a numpy or arrow
# kernel over the rows at hand, so a call's cost scales with its rows: the
# small batches of a small wave pay little more than the index lookup.
#
# Where each filter runs (the reference checks a url once after its dedup,
# Crawler.scala:93-115, and again at fetch under the rules its HostManager
# holds, StrictRobotsFilter.scala:72-133):
# - lenient (C1) runs in the claim task, on the rows the seen-set probe
#   marks new — after the wave's min-depth dedup, as the reference's
#   UrlDeduplicator precedes its LenientRobotsFilter;
# - strict (C2) evaluates only rows whose host was fetched in this wave's
#   host prep (the ``recheck`` set). A host's rules change only through
#   that fetch, and every other eligible row of a live host was already
#   evaluated under the same rules — strictly at an earlier wave, or
#   leniently when it was discovered — so its answer cannot have changed.
_RULES_STATE: dict = {}

# authority stops at [/?#] (urlsplit semantics): a query on an empty path
# ("https://x?q=1") must become the target "/?q=1", not be swallowed into
# the authority (scalar/vectorized parity with robots._path_query)
_AUTHORITY_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*")
_FRAGMENT_RE = re.compile(r"#.*$")
_PATH_RE = r"^(?P<p>[^?]*)"
_QUERY_RE = r"^[^?]*\?(?P<q>.*)$"
_UNKNOWN = np.uint8(255)  # mode code of a host absent from the payload


def _match_targets(urls: pa.Array) -> pa.Array:
    """The robots matcher target (RFC 9309) of each url, urlsplit-style:
    path + ``?query`` when the query is non-empty, empty path -> "/",
    fragment dropped (parity test: test_robots.py). Arrow (RE2) kernels."""
    rest = pc.replace_substring_regex(urls, _AUTHORITY_RE.pattern, "", max_replacements=1)
    rest = pc.replace_substring_regex(rest, _FRAGMENT_RE.pattern, "", max_replacements=1)
    path = pc.struct_field(pc.extract_regex(rest, _PATH_RE), [0])
    path = pc.if_else(pc.equal(path, ""), "/", path)
    query = pc.struct_field(pc.extract_regex(rest, _QUERY_RE), [0])
    has_query = pc.fill_null(pc.not_equal(query, ""), False)
    return pc.if_else(has_query, pc.binary_join_element_wise(path, query, "?"), path)


class _HostRulesIndex:
    """Derived, per-worker view of one broadcast hosts rules payload
    (``state.hosts.HostsState.rules_payload``: sorted hash/mode numpy
    columns — zero-copy from the node's object store — plus the ALLOW_SOME
    subset's serialized rules).

    The ALLOW_SOME rules become one flat table sorted by host hash —
    ``r_hash``, ``r_pat`` (an id into ``patterns``) and ``r_score`` =
    ``2·len(pattern) + allow``, so the highest matching score is the most
    specific rule, with Allow winning a tie (RFC 9309 §2.2.2, the order
    ``RobotRules.is_allowed`` walks). Each distinct pattern keeps its
    RE2 form (``_pattern_to_rust``; arrow's regex kernels are RE2) and,
    once RE2 rejects it, falls back to its Python ``re`` form."""

    def __init__(self, payload: dict):
        self.hhash = payload["hash"]
        self.mode = payload["mode"]
        hh: list[int] = []
        pat_ids: list[int] = []
        scores: list[int] = []
        ids: dict[str, int] = {}
        for h, rstr in zip(payload["some_hash"], payload["some_rules"]):
            for line in rstr.splitlines():
                kind, _, pattern = line.partition(": ")
                hh.append(h)
                pat_ids.append(ids.setdefault(pattern, len(ids)))
                scores.append(2 * len(pattern) + (kind == "allow"))
        r_hash = np.array(hh, dtype=np.uint64)
        order = np.argsort(r_hash, kind="stable")
        self.r_hash = r_hash[order]
        self.r_pat = np.array(pat_ids, dtype=np.int64)[order]
        self.r_score = np.array(scores, dtype=np.int64)[order]
        self.patterns = list(ids)
        self.re2: list[str | None] = [_pattern_to_rust(p) for p in self.patterns]
        self._py: dict[int, re.Pattern] = {}

    def modes(self, hh: np.ndarray) -> np.ndarray:
        """Mode code per host hash; ``_UNKNOWN`` for a host not in the
        payload (unknown, or expired at the payload's wave)."""
        if not len(self.hhash):
            return np.full(len(hh), _UNKNOWN, dtype=np.uint8)
        pos = np.minimum(np.searchsorted(self.hhash, hh), len(self.hhash) - 1)
        return np.where(self.hhash[pos] == hh, self.mode[pos], _UNKNOWN)

    def allowed(self, urls: pa.Array, hh: np.ndarray, modes: np.ndarray, unknown_allow: bool):
        from abwcf_ray.state.hosts import MODE_ALL, MODE_NONE, MODE_SOME

        allowed = np.full(len(hh), unknown_allow, dtype=bool)
        allowed[modes == MODE_NONE] = False
        allowed[modes == MODE_ALL] = True
        some = np.flatnonzero(modes == MODE_SOME)
        if len(some):
            allowed[some] = self._some_allowed(urls.take(pa.array(some)), hh[some])
        return allowed

    def _some_allowed(self, urls: pa.Array, hh: np.ndarray) -> np.ndarray:
        """ALLOW_SOME rows: join each row to its host's rules (searchsorted
        bounds + repeat), match each distinct pattern over its pairs, keep
        the best score per row. No matching rule -> allowed."""
        targets = _match_targets(urls)
        lo = np.searchsorted(self.r_hash, hh, side="left")
        cnt = np.searchsorted(self.r_hash, hh, side="right") - lo
        row = np.repeat(np.arange(len(hh)), cnt)
        # rule index of each pair: lo[row] + its offset within the row
        rule = np.arange(len(row)) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
        pid = self.r_pat[rule]
        order = np.argsort(pid, kind="stable")
        pid_sorted = pid[order]
        starts = np.flatnonzero(np.r_[True, pid_sorted[1:] != pid_sorted[:-1]])
        hits = []
        for s, e in zip(starts, np.r_[starts[1:], len(order)]):
            pairs = order[s:e]
            m = self._match(int(pid_sorted[s]), targets.take(pa.array(row[pairs])))
            hits.append(pairs[m])
        best = np.full(len(hh), -1, dtype=np.int64)
        if hits:
            hit = np.concatenate(hits)
            np.maximum.at(best, row[hit], self.r_score[rule[hit]])
        res = (best < 0) | (best % 2 == 1)
        res |= pc.equal(targets, "/robots.txt").to_numpy(zero_copy_only=False)
        return res

    def _match(self, pat: int, targets: pa.Array) -> np.ndarray:
        rx = self.re2[pat]
        if rx is not None:
            try:
                return pc.fill_null(pc.match_substring_regex(targets, rx), False).to_numpy(
                    zero_copy_only=False
                )
            except pa.ArrowInvalid:
                self.re2[pat] = None
        py = self._py.get(pat)
        if py is None:
            py = self._py[pat] = _pattern_to_regex(self.patterns[pat])
        return np.array([py.match(t) is not None for t in targets.to_pylist()], dtype=bool)


def _rules_state(hosts_ref) -> _HostRulesIndex:
    state = _RULES_STATE.get(hosts_ref)
    if state is None:
        if len(_RULES_STATE) >= 8:  # keep only recent waves' payloads
            _RULES_STATE.pop(next(iter(_RULES_STATE)))
        state = _HostRulesIndex(ray.get(hosts_ref))
        _RULES_STATE[hosts_ref] = state
    return state


def _allowed_mask(
    hosts_ref, batch: pa.Table, unknown_allow: bool, return_unknown: bool = False
):
    """Robots answer per row of ``batch`` (url, host) under the payload
    ``hosts_ref``; a host not in the payload gets ``unknown_allow``. With
    ``return_unknown``, also the mask of those rows."""
    index = _rules_state(hosts_ref)
    hh = hash64(batch.column("host"))
    modes = index.modes(hh)
    allowed = index.allowed(batch.column("url").combine_chunks(), hh, modes, unknown_allow)
    if return_unknown:
        return allowed, modes == _UNKNOWN
    return allowed


def make_lenient_robots_filter(hosts_ref):
    """C1 (LenientRobotsFilter.scala:66-118): drop candidates disallowed by
    known host rules; unknown hosts pass (fail-open, :82-86)."""
    return functools.partial(_lenient_robots, hosts_ref)


def _lenient_robots(hosts_ref, batch: pa.Table) -> pa.Table:
    if batch.num_rows == 0:
        return batch
    return batch.filter(pa.array(_allowed_mask(hosts_ref, batch, True)))


def make_strict_robots_filter(hosts_ref, recheck_ref=None):
    """C2 (StrictRobotsFilter.scala:72-133): evaluated just before fetch.
    Allowed rows pass with ``rejected=False``; urls rejected BY KNOWN RULES
    (-> status=Disallowed in the frontier, :128-131) pass with
    ``rejected=True``, so the reject rides the data into selection
    (``schedule.select_wave`` splits them off) in the SAME pass — one scan
    of the eligible set instead of two. A still-unknown host fails closed
    TEMPORARILY (:109-113 — the reference ignores the page only for
    fail-close-duration): the row is dropped from this wave but NOT
    rejected, so it stays Discovered and retries next wave. After
    host-prep every eligible host is known, so this path is a safety net,
    not steady-state behavior.

    ``recheck_ref`` holds the sorted host hashes whose robots this wave's
    host prep fetched: only their rows are evaluated, and a row of any
    other known host passes unrejected (its answer cannot have changed,
    see the section comment above). None evaluates every row."""
    return functools.partial(_strict_robots, hosts_ref, recheck_ref)


def _strict_robots(hosts_ref, recheck_ref, batch: pa.Table) -> pa.Table:
    if batch.num_rows == 0:
        return batch.append_column("rejected", pa.array([], pa.bool_()))
    index = _rules_state(hosts_ref)
    hh = hash64(batch.column("host"))
    modes = index.modes(hh)
    unknown = modes == _UNKNOWN
    mask = ~unknown  # a known host's row passes unless it is checked
    check = mask if recheck_ref is None else mask & _member(ray.get(recheck_ref), hh)
    check = np.flatnonzero(check)
    if len(check):
        urls = batch.column("url").combine_chunks().take(pa.array(check))
        mask[check] = index.allowed(urls, hh[check], modes[check], False)
    keep = mask | ~unknown  # allowed, or disallowed by known rules
    return batch.filter(pa.array(keep)).append_column("rejected", pa.array(~mask[keep]))


# --------------------------------------------------------------------------
# B7 — prioritizer
# --------------------------------------------------------------------------
def make_prioritize_stage(cfg: CrawlConfig):
    """Adds ``priority: int64`` (PrioritizationFunctions.scala:11-24).

    Built-ins: ``breadth_first`` (-depth), ``depth_first`` (+depth),
    ``random`` (seeded hash — the reference's default is irreproducible
    ThreadLocalRandom, PrioritizationFunctions.scala:12), and the rebuild
    default ``breadth_first_hash``: -depth in the high 32 bits with a seeded
    url-hash tiebreak in the low 32, making crawl order fully deterministic
    (SURVEY.md §2 B7/D3)."""
    fn = cfg.priority_fn
    seed = cfg.priority_seed

    def prioritize(batch: pa.Table) -> pa.Table:
        depths = batch.column("depth").to_numpy(zero_copy_only=False).astype(np.int64)
        if callable(fn):  # user hook (H, UserCode.scala:34-35)
            prio = np.asarray(fn(batch), dtype=np.int64)
        elif fn == "breadth_first":
            prio = -depths
        elif fn == "depth_first":
            prio = depths
        elif fn == "random":
            h = hash64(batch.column("url").to_pylist(), seed=seed)
            prio = (h >> np.uint64(1)).astype(np.int64)
        elif fn == "breadth_first_hash":
            h = hash64(batch.column("url").to_pylist(), seed=seed)
            tiebreak = (h & np.uint64(0xFFFFFFFF)).astype(np.int64)
            prio = depths * np.int64(-(1 << 32)) + tiebreak
        else:
            raise ValueError(f"unknown priority_fn: {fn}")
        return batch.append_column("priority", pa.array(prio, pa.int64()))

    return prioritize


# --------------------------------------------------------------------------
# A7 + B1-B3 — process fetched pages: extract text + links in ONE html pass
# --------------------------------------------------------------------------
def make_process_fetched_stage(cfg: CrawlConfig):
    """fetched -> (url, host, depth, fetch_status, is_html, text,
    links: list<string>, child_depth).

    Combines the reference's fan-out after fetch (Fetcher.scala:108-170):
      - every response -> FetchResultConsumer (extraction, A7);
      - 2xx text/html|application/xhtml+xml AND depth < max-crawl-depth
        (CrawlDepthLimiter.scala:22-29, applied before parsing) AND no
        X-Robots-Tag nofollow (RobotsHeaderFilter.scala:26-37) -> link
        extraction with depth+1 (HtmlParser.scala:45);
      - 3xx -> the Location URL, resolved against the page url, re-enters
        as a candidate at the SAME depth (Fetcher.scala:129);
      - 4xx/5xx -> consumed only (logged; page ends Processed either way,
        FetchResultConsumer.scala:29-50).
    The html column is dropped here — binary payloads never cross a shuffle
    (SURVEY.md §7 hard part d)."""
    # consume_fn: the user hook (H, UserCode.scala:68-69)
    return functools.partial(_process_fetched, cfg.max_crawl_depth, cfg.consume_fn)


_PARSEABLE = frozenset({"text/html", "application/xhtml+xml"})


def _process_fetched(max_depth: int, consume, batch: pa.Table) -> pa.Table:
    urls = batch.column("url").to_pylist()
    depths = batch.column("depth").to_pylist()
    statuses = batch.column("status").to_pylist()
    ctypes = batch.column("content_type").to_pylist()
    locations = batch.column("location").to_pylist()
    xrts = batch.column("x_robots_tag").to_pylist()
    htmls = batch.column("html").to_pylist()
    # body-cap flag from the fetch stage (absent when processing a raw
    # corpus directly, e.g. the extraction probe): flagged rows carry a
    # null body, so they fall through to consumed-not-parsed below
    if "length_exceeded" in batch.schema.names:
        exceeded = batch.column("length_exceeded").to_pylist()
    else:
        exceeded = [False] * batch.num_rows

    texts: list[str | None] = []
    links_col: list[list[str]] = []
    child_depths: list[int] = []
    is_html: list[bool] = []
    for url, depth, status, ctype, loc, xrt, html in zip(
        urls, depths, statuses, ctypes, locations, xrts, htmls
    ):
        if status is not None and 300 <= status < 400 and loc:
            texts.append(None)
            links_col.append([resolve_location(url, loc)])
            child_depths.append(depth)  # redirects keep the depth
            is_html.append(False)
            continue
        if status == 200 and ctype in _PARSEABLE and html is not None:
            follow = depth < max_depth and not header_nofollow(xrt)
            links, text, _meta_nofollow = parse_document(html, url)
            if consume is not None:
                text = consume(url, html)
            texts.append(text)
            links_col.append(links if follow else [])
            child_depths.append(depth + 1)
            is_html.append(True)
        else:
            texts.append(None)
            links_col.append([])
            child_depths.append(depth + 1)
            is_html.append(False)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "depth": pa.array(depths, pa.int32()),
            "fetch_status": pa.array(
                [s if s is not None else 404 for s in statuses], pa.int32()
            ),
            "is_html": pa.array(is_html, pa.bool_()),
            "length_exceeded": pa.array(
                [bool(e) for e in exceeded], pa.bool_()
            ),
            "text": pa.array(texts, pa.string()),
            "links": pa.array(links_col, pa.list_(pa.string())),
            "child_depth": pa.array(child_depths, pa.int32()),
        }
    )


def explode_links(batch: pa.Table) -> pa.Table:
    """(links: list<string>, child_depth) -> candidate rows (url, depth)."""
    links = batch.column("links")
    if isinstance(links, pa.ChunkedArray):
        links = links.combine_chunks()
    flat = pc.list_flatten(links)
    parents = pc.list_parent_indices(links)
    depths = pc.take(batch.column("child_depth"), parents)
    return pa.table({"url": flat, "depth": depths.cast(pa.int32())})


# --------------------------------------------------------------------------
# Frontier status update (A4: batched UPDATE pages SET status)
# --------------------------------------------------------------------------
def partial_host_counts(batch: pa.Table) -> pa.Table:
    """Per-batch (host, n) partials — the shuffle-free replacement for
    ``groupby(host).count()``: hosts ≪ rows, so partials collected on the
    driver and merged there cost O(#hosts), not an all-to-all sort
    (SURVEY.md 'pre-aggregate inside map_batches before a groupby')."""
    vc = pc.value_counts(batch.column("host"))
    return pa.table(
        {"host": vc.field("values").cast(pa.string()), "n": vc.field("counts")}
    )


def make_update_status(
    processed_ref: "ray.ObjectRef",
    disallowed_ref: "ray.ObjectRef",
):
    """Rewrites frontier statuses from broadcast SORTED hash arrays of
    processed / disallowed urls. Used only for frontier COMPACTION (fold
    the accumulated per-wave status flips into a materialized frontier) and
    for the lazy `frontier_dataset` reader — the steady-state wave never
    rewrites the frontier (it appends a delta + a flips file instead; see
    pipelines/crawl.py). The reference analog is the batched
    ``UPDATE pages SET status`` (SlickPageRepository.scala:37-51,
    Batcher.scala:14-62)."""
    return functools.partial(_update_status, processed_ref, disallowed_ref)


def _member(sorted_hashes: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Mask of the ``h`` that are in ``sorted_hashes``."""
    if not len(sorted_hashes):
        return np.zeros(len(h), dtype=bool)
    pos = np.searchsorted(sorted_hashes, h)
    posc = np.minimum(pos, len(sorted_hashes) - 1)
    return (pos < len(sorted_hashes)) & (sorted_hashes[posc] == h)


def _update_status(processed_ref, disallowed_ref, batch: pa.Table) -> pa.Table:
    if batch.num_rows == 0:
        return batch
    processed = ray.get(processed_ref)
    disallowed = ray.get(disallowed_ref)
    h = hash64(batch.column("url"))
    status = np.asarray(batch.column("status").to_pylist(), dtype=object)
    if len(processed):
        status[_member(processed, h)] = STATUS_PROCESSED
    if len(disallowed):
        status[_member(disallowed, h)] = STATUS_DISALLOWED
    return batch.set_column(
        batch.schema.get_field_index("status"), "status", pa.array(status, pa.string())
    )


def make_eligible_filter(flips_ref: "ray.ObjectRef"):
    """status == Discovered minus rows flipped since the last compaction.

    The frontier checkpoint is a CHAIN (base + per-wave deltas) whose rows
    are immutable; per-wave status flips (politeness-bounded) live in a
    broadcast sorted hash array instead of a rewritten table. This filter
    is the read-side overlay: a row is eligible iff it was written as
    Discovered and no later wave flipped it. Flips never revert, so the
    subtraction is exact."""
    return functools.partial(_eligible, flips_ref)


def _eligible(flips_ref, batch: pa.Table) -> pa.Table:
    t = batch.filter(pc.equal(batch["status"], STATUS_DISCOVERED))
    if t.num_rows == 0:
        return t
    flips = ray.get(flips_ref)
    if len(flips):
        member = _member(flips, hash64(t.column("url")))
        if member.any():
            t = t.filter(pa.array(~member))
    return t


# --------------------------------------------------------------------------
# B6 + F1 — candidate dedup and routing to the wave's claim tasks
# --------------------------------------------------------------------------
def make_propose():
    """B6 (UrlDeduplicator.scala, a pre-dedup in front of the exact
    PageManager dedup): keep one row per url hash at its minimum depth
    within the batch, and append the ``url_hash`` column that routes each
    row to its claim task (:func:`split_by_hash`). Identical hashes carry
    identical urls (hash identity is the repo-wide convention), so the
    dedup is a pure row filter: the claim task keeps only the min-depth
    row per hash anyway, and a url's rows from other batches meet at that
    one task. (The name is the one perfbench/tracing.py wraps.)"""
    return _propose


def _propose(batch: pa.Table) -> pa.Table:
    h = hash64(batch.column("url"))
    d = batch.column("depth").to_numpy(zero_copy_only=False)
    batch = batch.append_column("url_hash", pa.array(h, pa.uint64()))
    keep = _first_min_depth(h, d)
    return batch if keep.all() else batch.filter(pa.array(keep))


def _first_min_depth(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Mask of one row per hash: the first of its min-depth rows."""
    order = np.lexsort((d, h))  # stable: ties keep input order
    hs = h[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = hs[1:] != hs[:-1]
    keep = np.zeros(len(h), dtype=bool)
    keep[order[first]] = True
    return keep


def split_by_hash(batch: pa.Table, n_parts: int) -> list[pa.Table]:
    """F1 routing: part ``i`` holds the rows with ``url_hash % n_parts ==
    i``, in input order. Each fetch task returns its parts as separate
    objects and claim task ``i`` takes part ``i`` of every fetch task, so
    every url of a wave has exactly one claimant — the hash-partitioned
    map side of a shuffle (one owner per url, as one ``PageManager``
    entity per url in the reference, PageManager.scala:107)."""
    part = batch.column("url_hash").to_numpy() % np.uint64(n_parts)
    return [batch.filter(pa.array(part == i)) for i in range(n_parts)]


def claim_parts(parts: list[pa.Table], seen_set, wave: int, lenient) -> pa.Table:
    """F1 claim for one hash partition of the wave's candidates: the
    min-depth row per url hash, minus urls seen before this wave, through
    the ``lenient`` robots stage (C1); the survivors are registered as seen
    at ``wave``. The probe ignores this wave's own adds (state/seen.py), so
    a retried claim task reproduces its rows exactly (the same
    probe-and-add as stages/novel.py). Lenient robots is a function of the
    url alone, so running it after the dedup keeps the same rows as
    running it first; a url it drops is never added to the seen set, so a
    rediscovery is filtered again."""
    t = pa.concat_tables(parts).combine_chunks()
    h = t.column("url_hash").to_numpy()
    t = t.filter(pa.array(_first_min_depth(h, t.column("depth").to_numpy())))
    h = t.column("url_hash").to_numpy()
    t = lenient(t.filter(pa.array(~seen_set.contains(h, before_wave=wave))))
    seen_set.add(t.column("url_hash").to_numpy(), wave)
    return t


def claim_partition(
    part: int,
    seen_set,
    wave: int,
    cfg: CrawlConfig,
    delta_dir: str,
    lenient,
    *blocks: pa.Table,
) -> tuple[int, dict[str, int]]:
    """Claim + prioritize + WRITE one delta part for hash partition
    ``part`` of the wave's candidates (``blocks``: part ``part`` of every
    fetch task, :func:`split_by_hash` — or, in a wave of one fetch task,
    that task's whole candidate table, since a one-way split is the
    identity). Returns the claimed-row count and its per-host counts (the
    next wave's host-ledger increments — ``ray.get`` yields one result per
    task, so a retried task cannot count twice). No other claim sees these
    urls, so the claim is one probe and one add per seen shard, with the
    ``lenient`` robots stage (C1) in between (:func:`claim_parts`).

    The delta part ``part-<part>.parquet`` is written HERE (the same
    retry-safe side-effect tee as the fused fetch stage): its name is a
    pure function of ``part`` and the retried probe ignores this wave's
    adds, so a re-executed task overwrites its own part with identical
    content. The claimed rows never travel driver-ward."""
    import pyarrow.parquet as pq

    tables = [b for b in blocks if b.num_rows]
    if not tables:
        return 0, {}
    out = make_prioritize_stage(cfg)(claim_parts(tables, seen_set, wave, lenient))
    status = pa.array([STATUS_DISCOVERED] * out.num_rows, pa.string())
    out = out.append_column("status", status).select(FRONTIER_SCHEMA.names)
    if out.num_rows:
        pq.write_table(out, Path(delta_dir) / f"part-{part:05d}.parquet")
    counts = partial_host_counts(out)
    return out.num_rows, dict(zip(counts["host"].to_pylist(), counts["n"].to_pylist()))
