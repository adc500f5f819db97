"""Per-record crawl stages as vectorized per-batch arrow callables (run
inside the wave loop's Ray tasks, or as ``map_batches`` UDFs).

The reference's candidate chain (Crawler.scala:93-115):
``HtmlParser -> UrlDeduplicator -> UrlNormalizer -> UrlFilter ->
LenientRobotsFilter -> PageManager.Discover``. Each per-node actor becomes a
batch transform here; the approximate LRU pre-dedup (UrlDeduplicator.scala,
best-effort only) is subsumed by the exact seen-set (state/seen.py).

All stages take and return ``pyarrow.Table`` batches.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from abwcf_ray.config import CrawlConfig
from abwcf_ray.functions.hashing import hash64
from abwcf_ray.functions.htmlx import header_nofollow, parse_document
from abwcf_ray.functions.robots import RobotRules
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
    import polars as pl

    norm_cfg = cfg.normalization
    canonical_full = f"^(?:{_CANONICAL_RE.pattern})$"
    host_pat = _HOST_RE.pattern  # ^([A-Za-z0-9+.\-]+://[^/]+)
    _RESCUE_PATTERN = (
        r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://(?P<host>[A-Za-z0-9.\-]+)"
        r"(?P<port>:\d{1,9})?(?P<path>(?:/[A-Za-z0-9_\-]+)*/?)$"
    )

    def normalize_batch(batch: pa.Table) -> pa.Table:
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
            .str.contains(canonical_full)
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
            host_pat, 1
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

    return normalize_batch


# --------------------------------------------------------------------------
# B5 — URL scope filter
# --------------------------------------------------------------------------
def make_scope_filter_stage(cfg: CrawlConfig):
    """UrlFilter.scala:35-47: len <= max AND full-match >=1 must-match AND
    full-match 0 must-not-match. Vectorized via pandas str.fullmatch (Java
    ``Regex.matches`` is a full match)."""
    must = [re.compile(p) for p in cfg.must_match]
    must_not = [re.compile(p) for p in cfg.must_not_match]
    max_len = cfg.max_url_length
    trivial_must = cfg.must_match == (".*",)

    def scope_filter(batch: pa.Table) -> pa.Table:
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
        if not trivial_must or must_not:
            urls = batch.column("url").to_pandas().astype("string")
            if not trivial_must:
                any_must = np.zeros(len(urls), dtype=bool)
                for rx in must:
                    any_must |= urls.str.fullmatch(rx).fillna(False).to_numpy(dtype=bool)
                keep &= any_must
            for rx in must_not:
                keep &= ~urls.str.fullmatch(rx).fillna(False).to_numpy(dtype=bool)
        return batch.filter(pa.array(keep))

    return scope_filter


# --------------------------------------------------------------------------
# C1 / C2 — robots filters (broadcast hosts join)
# --------------------------------------------------------------------------
# Per-worker-process cache of broadcast hosts payloads + compiled rulesets —
# the rebuild of the per-node Caffeine caches (reference.conf:40-51, 69-80).
# The filter stages are plain task functions (not actor pools): Ray worker
# processes are long-lived, so the first batch in a process pays one
# local-object-store ray.get and every later batch hits this cache. This
# avoids per-wave actor-pool startup, which dominated wave latency.
#
# Evaluation is vectorized BY RULESET, not by host: many hosts share few
# distinct robots rulesets (true of the fixture corpus and of the real web),
# so rows are masked per distinct serialized ruleset and each rule's regex
# runs ONCE over all matching rows — per-host pandas groups cost ~1 ms per
# group, which dominated the candidate chain at 10^4-host scale.
_RULES_STATE: dict = {}

# authority stops at [/?#] (urlsplit semantics): a query on an empty path
# ("https://x?q=1") must become the target "/?q=1", not be swallowed into
# the authority (scalar/vectorized parity with robots._path_query)
_AUTHORITY_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*")
_FRAGMENT_RE = re.compile(r"#.*$")
_PATH_QUERY_RE = re.compile(r"^([^?]*)(?:\?(.*))?$")


class _HostRulesIndex:
    """Derived, per-worker view of one broadcast hosts rules payload
    (``state.hosts.HostsState.rules_payload``: sorted hash/mode numpy
    columns — zero-copy from the node's object store — plus the ALLOW_SOME
    subset's serialized rules).

    Holds a FLAT rule table (host hash, pattern, allow, plen) plus one
    compiled regex per distinct pattern — rule patterns repeat massively
    across hosts (RFC 9309 in the wild: /wp-admin/, /cgi-bin/, ...), so
    evaluation can be one vectorized regex pass per distinct pattern
    instead of per host."""

    def __init__(self, payload: dict):
        self.hhash = payload["hash"]
        self.mode = payload["mode"]
        hh_f: list[int] = []
        pats: list[str] = []
        allows: list[bool] = []
        for hh, rstr in zip(payload["some_hash"], payload["some_rules"]):
            for line in rstr.splitlines():
                kind, _, pattern = line.partition(": ")
                hh_f.append(hh)
                pats.append(pattern)
                allows.append(kind == "allow")
        self.rules_df = pd.DataFrame(
            {
                "hhash": np.array(hh_f, dtype=np.uint64),
                "pattern": pd.array(pats, dtype="string"),
                "allow": np.array(allows, dtype=bool),
                "plen": np.array([len(p) for p in pats], dtype=np.int32),
            }
        )
        from abwcf_ray.functions.robots import _pattern_to_regex, _pattern_to_rust

        self.regex_by_pattern = {p: _pattern_to_regex(p) for p in set(pats)}
        # Rust-regex forms for the polars match pass, built from each RULE
        # (not by rewriting the compiled Python pattern — see
        # _pattern_to_rust); anything Rust rejects at match time falls back
        # to the Python re form per pattern
        self.rust_by_pattern = {p: _pattern_to_rust(p) for p in set(pats)}


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
    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.state.hosts import MODE_ALL, MODE_NONE, MODE_SOME

    index = _rules_state(hosts_ref)
    n = batch.num_rows
    hh = hash64(batch.column("host"))
    ph = index.hhash
    if len(ph):
        pos = np.minimum(np.searchsorted(ph, hh), len(ph) - 1)
        found = ph[pos] == hh
        modes = np.where(found, index.mode[pos], np.uint8(255))
    else:
        found = np.zeros(n, dtype=bool)
        modes = np.full(n, 255, dtype=np.uint8)  # 255 -> unknown host

    allowed = np.full(n, unknown_allow, dtype=bool)
    allowed[modes == MODE_NONE] = False
    allowed[modes == MODE_ALL] = True

    some = modes == MODE_SOME
    if some.any():
        import polars as pl

        some_ix = np.flatnonzero(some)
        # vectorized path(+query) extraction (matcher target, RFC 9309),
        # urlsplit-equivalent: empty path -> "/", query reattached with "?"
        # only when non-empty (parity test: test_robots.py). Runs on polars
        # Rust-regex kernels (the pandas str ops here were per-row re calls
        # and the hottest cost of the candidate chain's lenient pass).
        some_urls = batch.column("url").combine_chunks().take(pa.array(some_ix))
        paths_pl = (
            pl.DataFrame({"u": pl.from_arrow(some_urls)})
            .lazy()
            .with_columns(
                rest=pl.col("u")
                .str.replace(_AUTHORITY_RE.pattern, "")
                .str.replace(_FRAGMENT_RE.pattern, "")
            )
            .with_columns(
                p=pl.col("rest").str.extract(r"^([^?]*)", 1).fill_null(""),
                q=pl.col("rest").str.extract(r"^[^?]*\?(.*)$", 1),
            )
            .with_columns(
                p=pl.when(pl.col("p") == "").then(pl.lit("/")).otherwise(pl.col("p"))
            )
            .select(
                t=pl.when(pl.col("q").is_null() | (pl.col("q") == ""))
                .then(pl.col("p"))
                .otherwise(pl.col("p") + pl.lit("?") + pl.col("q"))
            )
            .collect()["t"]
        )
        rows = pd.DataFrame(
            {
                "row": np.arange(len(some_ix), dtype=np.int64),
                "hhash": hh[some_ix],
            }
        )
        # hash-join rows x their host's rules -> one record per (row, rule)
        exploded = rows.merge(index.rules_df, on="hhash", how="inner")
        res = np.ones(len(some_ix), dtype=bool)
        if len(exploded):
            rows_np = exploded["row"].to_numpy()
            match = np.zeros(len(exploded), dtype=bool)
            # one vectorized regex pass per DISTINCT pattern (Rust regex;
            # per-pattern fallback to Python re if a pattern won't compile)
            for pattern, grp in exploded.groupby("pattern", sort=False).groups.items():
                pos = np.asarray(grp)
                sub = paths_pl.gather(rows_np[pos])
                rust = index.rust_by_pattern.get(pattern)
                if rust is not None:
                    try:
                        m = sub.str.contains(rust).fill_null(False).to_numpy()
                    except Exception:
                        index.rust_by_pattern[pattern] = rust = None
                if rust is None:
                    rx = index.regex_by_pattern[pattern]
                    m = (
                        sub.to_pandas()
                        .str.match(rx)
                        .fillna(False)
                        .to_numpy(dtype=bool)
                    )
                match[pos] = m
            hit = exploded[match]
            if len(hit):
                # most-specific wins, allow beats disallow on ties: sort by
                # (plen, allow) and keep the last record per row
                winner = (
                    hit.sort_values(["row", "plen", "allow"], kind="mergesort")
                    .drop_duplicates("row", keep="last")
                )
                res[winner["row"].to_numpy()] = winner["allow"].to_numpy(dtype=bool)
        res[(paths_pl == "/robots.txt").to_numpy()] = True
        allowed[some_ix] = res
    if return_unknown:
        return allowed, ~found
    return allowed


def make_lenient_robots_filter(hosts_ref):
    """C1 (LenientRobotsFilter.scala:66-118): drop candidates disallowed by
    known host rules; unknown hosts pass (fail-open, :82-86)."""

    def lenient_robots(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        return batch.filter(pa.array(_allowed_mask(hosts_ref, batch, True)))

    return lenient_robots


def make_strict_robots_filter(hosts_ref):
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
    not steady-state behavior."""

    def strict_robots(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("rejected", pa.array([], pa.bool_()))
        mask, unknown = _allowed_mask(hosts_ref, batch, False, return_unknown=True)
        keep = mask | ~unknown  # allowed, or disallowed by known rules
        return batch.filter(pa.array(keep)).append_column(
            "rejected", pa.array(~mask[keep])
        )

    return strict_robots


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
    parseable = {"text/html", "application/xhtml+xml"}
    max_depth = cfg.max_crawl_depth
    consume = cfg.consume_fn  # user hook (H, UserCode.scala:68-69)

    def process(batch: pa.Table) -> pa.Table:
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
            if status == 200 and ctype in parseable and html is not None:
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

    return process


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
    driver and merged in pandas cost O(#hosts), not an all-to-all sort
    (SURVEY.md 'pre-aggregate inside map_batches before a groupby')."""
    vc = batch.column("host").to_pandas().value_counts()
    return pa.table(
        {
            "host": pa.array(vc.index.astype(str), pa.string()),
            "n": pa.array(vc.to_numpy(dtype=np.int64), pa.int64()),
        }
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

    def _member(sorted_hashes: np.ndarray, h: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(sorted_hashes, h)
        posc = np.minimum(pos, len(sorted_hashes) - 1)
        return (pos < len(sorted_hashes)) & (sorted_hashes[posc] == h)

    def update_status(batch: pa.Table) -> pa.Table:
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

    return update_status


def make_eligible_filter(flips_ref: "ray.ObjectRef"):
    """status == Discovered minus rows flipped since the last compaction.

    The frontier checkpoint is a CHAIN (base + per-wave deltas) whose rows
    are immutable; per-wave status flips (politeness-bounded) live in a
    broadcast sorted hash array instead of a rewritten table. This filter
    is the read-side overlay: a row is eligible iff it was written as
    Discovered and no later wave flipped it. Flips never revert, so the
    subtraction is exact."""

    def eligible(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["status"], STATUS_DISCOVERED))
        if t.num_rows == 0:
            return t
        flips = ray.get(flips_ref)
        if len(flips):
            h = hash64(t.column("url"))
            pos = np.searchsorted(flips, h)
            posc = np.minimum(pos, len(flips) - 1)
            member = (pos < len(flips)) & (flips[posc] == h)
            if member.any():
                t = t.filter(pa.array(~member))
        return t

    return eligible


# --------------------------------------------------------------------------
# F1 — seen-set probe/add stages
# --------------------------------------------------------------------------
# B6 — approximate pre-dedup cache (UrlDeduplicator.scala: a best-effort
# LRU in front of the exact PageManager dedup; "best-effort only",
# UrlDeduplicator.scala:13). The cache gates ONLY the propose RPC into the
# seen shards — it never filters rows out of the returned block, so every
# output block is a pure function of its input block and task retries /
# lineage recomputes trivially reproduce it (no dependence on task identity
# or worker-process survival). Skipping an RPC is always safe because
# SeenShard.propose is a commutative, idempotent min-depth merge: a
# (hash, depth) already sent at equal-or-lower depth is a no-op at the
# shard. Cross-batch duplicate ROWS flow through to the claim phase, which
# arbitrates them exactly (competing claimants carry identical rows —
# hash identity is the repo-wide url-identity convention). The cache is
# therefore process-wide per (run, wave): sharing across tasks only
# increases RPC savings, never changes any block's content.
_PREDEDUP: dict = {}
# B6 — approximate pre-dedup (UrlDeduplicator.scala: best-effort LRU in
# front of the exact dedup): a cache resets past this many distinct hashes
# (bounded memory, best-effort like the reference's LRU)
PREDEDUP_CACHE_SIZE = 2_000_000


def _prededup_state(key, cache_size: int) -> dict:
    st = _PREDEDUP.get(key)
    if st is None:
        if len(_PREDEDUP) >= 32:
            _PREDEDUP.pop(next(iter(_PREDEDUP)))
        st = _PREDEDUP[key] = {
            "h": np.empty(0, np.uint64),  # sorted hashes proposed by this task
            "d": np.empty(0, np.int64),  # aligned min depth
            "pend": [],  # (h, d) arrays awaiting compaction
            "pend_n": 0,
            "cap": int(cache_size),
        }
    return st


def make_propose(
    seen_set, wave: int, run_key: str = "", cache_size: int = PREDEDUP_CACHE_SIZE
):
    """Register each candidate's (url_hash, depth) with its seen shard's
    wave-min table (phase 1 of the shuffle-free wave-dedup; see
    state/seen.SeenShard.propose), after a best-effort pre-dedup (B6):

    - within a batch: exact vectorized dedup, keep the min-depth row per
      url hash (identical hashes carry identical urls — hash identity is
      the repo-wide convention). This is a PURE row filter: the claim
      phase keeps only the wave-min-depth row per hash anyway, so the
      final frontier is unchanged.
    - across batches (process-wide cache): SKIP the propose RPC for a
      (hash, depth) already sent at equal-or-lower depth — but keep the
      row in the output block, so block content never depends on cache
      state and retries/lineage recomputes are exactly reproducible. The
      cache clears when it exceeds ``cache_size`` (best-effort, like the
      reference's bounded LRU).

    What the cache cuts is duplicate (hash, depth) traffic into the seen
    shards — hot urls are linked from many pages of the same wave; the
    surviving duplicate ROWS are arbitrated exactly by claim (F1)."""

    def propose(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        h = hash64(batch.column("url"))
        d = batch.column("depth").to_numpy(zero_copy_only=False).astype(np.int64)

        # intra-batch: keep the first row per hash at its min depth
        order = np.lexsort((d, h))
        first = np.ones(len(order), dtype=bool)
        hs = h[order]
        first[1:] = hs[1:] != hs[:-1]
        keep = np.zeros(len(h), dtype=bool)
        keep[order[first]] = True

        hk, dk = h[keep], d[keep]
        # cross-batch RPC gate (never filters output rows — see _PREDEDUP)
        st = _prededup_state((run_key, wave), cache_size)
        rpc = np.ones(len(hk), dtype=bool)
        for ch, cd in [(st["h"], st["d"])] + st["pend"]:
            if len(ch):
                pos = np.minimum(np.searchsorted(ch, hk), len(ch) - 1)
                rpc &= ~((ch[pos] == hk) & (cd[pos] <= dk))
        if rpc.any():
            hp, dp = hk[rpc], dk[rpc]
            seen_set.propose(hp, dp, wave)

            # amortized compaction: proposed chunks queue as SORTED ``pend``
            # chunks (each probed above) and fold into the main array only
            # when they outgrow it or fragment (O(log) compactions)
            po = np.argsort(hp, kind="stable")
            st["pend"].append((hp[po], dp[po]))
            st["pend_n"] += len(hp)
            if len(st["pend"]) > 16 or st["pend_n"] >= max(65536, len(st["h"])):
                merged_h = np.concatenate([st["h"]] + [p[0] for p in st["pend"]])
                merged_d = np.concatenate([st["d"]] + [p[1] for p in st["pend"]])
                mo = np.lexsort((merged_d, merged_h))
                merged_h, merged_d = merged_h[mo], merged_d[mo]
                mfirst = np.ones(len(merged_h), dtype=bool)
                mfirst[1:] = merged_h[1:] != merged_h[:-1]
                st["pend"], st["pend_n"] = [], 0
                if int(mfirst.sum()) > st["cap"]:
                    st["h"] = np.empty(0, np.uint64)  # bounded: best-effort reset
                    st["d"] = np.empty(0, np.int64)
                else:
                    st["h"] = merged_h[mfirst]
                    st["d"] = merged_d[mfirst]
        return batch.filter(pa.array(keep)) if not keep.all() else batch

    return propose


def claim_batch(batch: pa.Table, seen_set, wave: int, token: int) -> pa.Table:
    """Phase 2 of the shuffle-free wave-dedup: keep only rows this claimant
    WINS — unseen urls at their wave-minimum depth, first claim token wins.
    ``token`` must be UNIQUE per block and stable across retries (the driver
    enumerates the claim chunks of candidate tables and passes the chunk index
    — content-derived tokens would collide for two distinct blocks carrying
    identical candidate sets, double-inserting those urls). Winners are
    registered as seen by the shard."""
    if batch.num_rows == 0:
        return batch
    h = hash64(batch.column("url"))
    d = batch.column("depth").to_numpy(zero_copy_only=False)
    mask = seen_set.claim(h, d, wave, token)
    return batch.filter(pa.array(mask))
