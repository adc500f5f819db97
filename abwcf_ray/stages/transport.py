"""Fetch-transport interface (round-4 verdict #3): the A2/A3 fetch
semantics factored behind a small protocol so a user can point the crawl
at a real network without editing ``stages/fetch.py``.

The reference's fetcher (``Fetcher.scala:74-188``) has four behaviors a
transport must reproduce, whatever the wire:

1. **No redirect following for pages** — 3xx statuses are REPORTED with
   their ``Location`` header; the crawl's candidate chain re-enters the
   target (``Fetcher.scala:116-131``). (Robots fetching follows up to 5
   redirects — that lives in ``state/hosts.RobotsFetchSim`` and is a
   different gate.)
2. **Body size cap** (``Fetcher.scala:168-170``, reference.conf's 1 MB
   ``max-content-length``): an oversize download is ABORTED, the body
   dropped, and the row flagged ``length_exceeded`` — the page is
   consumed but never parsed.
3. **Status classes**: transport-level failures (timeout, refused, DNS)
   must not kill the wave — they map to a synthetic status 0 row (html
   NULL), mirroring the reference's failure consumer
   (``FetchResultConsumer.scala:29-50``).
4. **Per-stream bandwidth throttle** (``Fetcher.scala:144``): each
   concurrent fetcher paces its reads to ``bytes_per_sec`` with a token
   bucket; the CLUSTER-level split is the cap on fetch tasks in flight
   (``CrawlConfig.total_bandwidth_budget_bps`` — E2).

Output contract — every transport returns the FETCHED SCHEMA of
``stages/fetch._emit_fetched``::

    url string, depth int32, status int32, content_type string,
    location string, x_robots_tag string, html binary,
    length_exceeded bool

Deployment shape: ``CrawlConfig.fetch_transport`` is a zero-arg factory;
None means :class:`CorpusTransport` over the corpus's hashed layout. The
wave cuts its selected ``(url, depth)`` rows, in url-hash order, into
``min(ceil(n_selected / fetch_transport_batch_size), 2·CPUs)`` chunks (at
least one) and runs one plain Ray task per chunk through the fused
fetch->process->checkpoint tee (``stages/fetch.make_fetch_process_tee``).
The factory is ``ray.put`` once per run and each worker process builds
the transport from it once (``stages/fetch._transport``), so per-process
state (connection pools, the layout's file index, token buckets) builds
once in ``__init__``, not per chunk.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from abwcf_ray.functions.hashing import hash64
from abwcf_ray.sources.corpus import read_layout
from abwcf_ray.stages.fetch import FETCH_COLUMNS, _emit_fetched, empty_fetched_table

FETCHED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("depth", pa.int32()),
        ("status", pa.int32()),
        ("content_type", pa.string()),
        ("location", pa.string()),
        ("x_robots_tag", pa.string()),
        ("html", pa.binary()),
        ("length_exceeded", pa.bool_()),
    ]
)

#: synthetic status for transport-level failures (timeout, refused, DNS)
STATUS_TRANSPORT_ERROR = 0


class FetchTransport:
    """Protocol: map one batch of urls+depths to fetched rows.

    Implementations must be constructible inside a Ray worker
    (``__init__`` may do expensive setup — it runs once per worker
    process) and
    ``fetch`` must be retry-pure: the same input batch yields the same
    rows (required for Ray task retries; a live-web transport is only
    as pure as the web, which the reference accepts too)."""

    def fetch(self, urls: list[str], depths: np.ndarray) -> pa.Table:
        raise NotImplementedError


class CorpusTransport(FetchTransport):
    """The default (sandbox) transport: the "web" is the corpus's hashed
    layout (sources/corpus.build_hashed_layout), hash-sorted uncompressed
    Arrow IPC files whose url-hash ranges the layout's marker lists.
    ``__init__`` reads the marker and raises, naming the directory, if the
    layout is missing or unusable. Per batch the urls hash; each file whose
    range holds one of them is memory-mapped (a zero-copy open) and, per
    record batch, a ``searchsorted`` left and right on the stored
    ``url_hash`` column finds the hit rows, and ``take`` copies them out:
    only the selected records' bytes are copied, nothing is decompressed. A url
    stored twice returns both rows; an absent url returns none (the driver
    counts it a 404). Tested against the O(corpus) reference
    ``stages/fetch.make_fetch_scan`` in tests/test_fetch_pruned.py and
    tests/test_transport.py."""

    def __init__(self, hashed_dir: str, max_content_length: int | None = None):
        self.hashed_dir = str(hashed_dir)
        self.max_content_length = max_content_length
        files = read_layout(self.hashed_dir)["files"]
        self._paths = [f"{self.hashed_dir}/{name}" for name, _, _ in files]
        self._mins = np.array([lo for _, lo, _ in files], dtype=np.uint64)
        self._maxs = np.array([hi for _, _, hi in files], dtype=np.uint64)

    def fetch(self, urls: list[str], depths: np.ndarray) -> pa.Table:
        # each distinct hash once, with the depth of its first url
        hs, first = np.unique(hash64(list(urls)), return_index=True)
        ds = np.asarray(depths, dtype=np.int32)[first]
        # the files whose [min, max] holds a selected hash
        lo = np.searchsorted(hs, self._mins, side="left")
        hi = np.searchsorted(hs, self._maxs, side="right")
        hits, hit_depths = [], []
        for f in np.flatnonzero(lo < hi):
            sel, sel_d = hs[lo[f] : hi[f]], ds[lo[f] : hi[f]]
            with pa.memory_map(self._paths[f]) as source:
                reader = pa.ipc.open_file(source)
                for b in range(reader.num_record_batches):
                    batch = reader.get_batch(b)
                    stored = batch.column("url_hash").to_numpy()
                    left = np.searchsorted(stored, sel, side="left")
                    n = np.searchsorted(stored, sel, side="right") - left
                    total = int(n.sum())
                    if not total:
                        continue
                    # rows [left_i, left_i + n_i) of every selected hash i;
                    # take copies them out of the mapping
                    starts = np.repeat(left - np.cumsum(n) + n, n)
                    rows = starts + np.arange(total)
                    hits.append(batch.select(FETCH_COLUMNS).take(pa.array(rows)))
                    hit_depths.append(np.repeat(sel_d, n))
        if not hits:
            return empty_fetched_table()
        return _emit_fetched(
            pa.Table.from_batches(hits), np.concatenate(hit_depths), self.max_content_length
        )


class _TokenBucket:
    """Byte-rate pacer (Fetcher.scala:144 per-stream throttle): take(n)
    sleeps just enough to keep the long-run rate at ``rate_bps``."""

    def __init__(self, rate_bps: float):
        self.rate = float(rate_bps)
        self.available = float(rate_bps)  # one second of burst
        self.t_last = time.monotonic()

    def take(self, n: int) -> None:
        if self.rate <= 0:
            return
        now = time.monotonic()
        self.available = min(
            self.rate, self.available + (now - self.t_last) * self.rate
        )
        self.t_last = now
        self.available -= n
        if self.available < 0:
            time.sleep(-self.available / self.rate)


class HTTPTransport(FetchTransport):
    """Real-network transport over stdlib ``http.client`` — the
    skeleton a production deployment would swap in (the sandbox has no
    outbound network; tests drive it against a localhost fixture
    server). One instance per worker process: connections pool per (scheme,
    authority), reads stream in 64 KiB chunks through the token bucket,
    and the body cap ABORTS mid-download (connection dropped, flag set)
    exactly like the reference's aborted entity
    (``Fetcher.scala:168-170``).

    Redirects are NOT followed (contract #1): 3xx rows carry the
    ``Location`` header for the candidate chain. Transport failures map
    to ``STATUS_TRANSPORT_ERROR`` rows (contract #3)."""

    CHUNK = 65536

    def __init__(
        self,
        max_content_length: int | None = 1_048_576,
        bytes_per_sec: float = 0.0,
        timeout_s: float = 30.0,
        user_agent: str = "abwcf-ray/1.0",
    ):
        self.max_content_length = max_content_length
        self.bucket = _TokenBucket(bytes_per_sec) if bytes_per_sec else None
        self.timeout_s = timeout_s
        self.user_agent = user_agent
        self._conns: dict = {}

    def _conn(self, scheme: str, netloc: str):
        import http.client

        key = (scheme, netloc)
        c = self._conns.get(key)
        if c is None:
            cls = (
                http.client.HTTPSConnection
                if scheme == "https"
                else http.client.HTTPConnection
            )
            c = cls(netloc, timeout=self.timeout_s)
            self._conns[key] = c
        return c

    def _fetch_one(self, url: str, truncate_at: int | None = None):
        """-> (status, content_type, location, x_robots_tag, html,
        length_exceeded). ``content_type`` is the bare media type (the
        reference compares only that, Fetcher.scala:160). ``truncate_at``
        stops the read after that many body bytes and keeps them (robots
        bodies are truncated, not discarded)."""
        from urllib.parse import urlsplit

        sp = urlsplit(url)
        target = sp.path or "/"
        if sp.query:
            target += "?" + sp.query
        key = (sp.scheme, sp.netloc)
        # a pooled keep-alive connection the server has since closed (idle
        # timeout, max requests) fails on send or response: drop it and
        # retry once on a fresh connection
        for retry in (True, False):
            reused = key in self._conns
            conn = self._conn(*key)
            try:
                conn.request("GET", target, headers={"User-Agent": self.user_agent})
                resp = conn.getresponse()
                break
            except Exception:
                conn.close()
                self._conns.pop(key, None)
                if not (retry and reused):
                    return (STATUS_TRANSPORT_ERROR, None, None, None, None, False)
        try:
            status = int(resp.status)
            ctype = resp.getheader("Content-Type")
            if ctype is not None:
                ctype = ctype.split(";", 1)[0].strip()
            location = resp.getheader("Location")
            xrt = resp.getheader("X-Robots-Tag")
            chunks: list[bytes] = []
            total = 0
            exceeded = False
            while True:
                chunk = resp.read(self.CHUNK)
                if not chunk:
                    break
                if self.bucket is not None:
                    self.bucket.take(len(chunk))
                total += len(chunk)
                if (
                    self.max_content_length is not None
                    and total > self.max_content_length
                ):
                    # abort the download: drop the connection rather
                    # than draining an arbitrarily large body
                    exceeded = True
                    conn.close()
                    self._conns.pop(key, None)
                    chunks = []
                    break
                chunks.append(chunk)
                if truncate_at is not None and total >= truncate_at:
                    # the rest of the body stays unread: drop the connection
                    conn.close()
                    self._conns.pop(key, None)
                    break
            body = None if exceeded else b"".join(chunks)[:truncate_at]
            return (status, ctype, location, xrt, body, exceeded)
        except Exception:
            # timeout / protocol error mid-body: synthetic failure row;
            # drop the (possibly wedged) connection
            conn.close()
            self._conns.pop(key, None)
            return (STATUS_TRANSPORT_ERROR, None, None, None, None, False)

    def fetch(self, urls: list[str], depths: np.ndarray) -> pa.Table:
        rows = [self._fetch_one(u) for u in urls]
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "depth": pa.array(
                    np.asarray(depths, dtype=np.int32), pa.int32()
                ),
                "status": pa.array([r[0] for r in rows], pa.int32()),
                "content_type": pa.array([r[1] for r in rows], pa.string()),
                "location": pa.array([r[2] for r in rows], pa.string()),
                "x_robots_tag": pa.array([r[3] for r in rows], pa.string()),
                "html": pa.array([r[4] for r in rows], pa.binary()),
                "length_exceeded": pa.array(
                    [r[5] for r in rows], pa.bool_()
                ),
            }
        )


class HTTPRobotsFetcher:
    """A3 over a real network (``RobotsFetcher.scala:56-138``): GET
    ``<host>/robots.txt``, FOLLOW up to ``cfg.robots_max_redirects``
    redirects (robots fetching follows them, unlike page fetching —
    contract #1's exception), truncate the body at
    ``cfg.robots_max_bytes`` (500 KiB default; the reference truncates
    rather than discarding), and report ``(status, hops, body,
    content_type)`` into the SHARED classifier
    (``state/hosts.robots_rows_from_records``) — so the text/plain gate,
    redirect-budget check, status classes and TTLs are byte-identical to
    the corpus sim's. Usable directly as the host-prep robots stage
    (same batch contract as ``RobotsFetchSim``)."""

    def __init__(self, cfg, timeout_s: float = 30.0):
        self.cfg = cfg
        self.http = HTTPTransport(max_content_length=None, timeout_s=timeout_s)

    def _record(self, host: str):
        from urllib.parse import urljoin

        url = host.rstrip("/") + "/robots.txt"
        hops = 0
        while True:
            status, ctype, location, _, body, _ = self.http._fetch_one(
                url, truncate_at=self.cfg.robots_max_bytes
            )
            if status == STATUS_TRANSPORT_ERROR:
                return (None, hops, None, None)  # unreachable class
            if status in (301, 302, 303, 307, 308):
                hops += 1
                if hops > self.cfg.robots_max_redirects or not location:
                    # over the redirect budget (or a 3xx without a target):
                    # report the hop count; the classifier marks unavailable
                    return (status, hops, None, ctype)
                url = urljoin(url, location)
                continue
            return (status, hops, body, ctype)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from abwcf_ray.state.hosts import robots_rows_from_records

        return robots_rows_from_records(self._record, batch, self.cfg)

