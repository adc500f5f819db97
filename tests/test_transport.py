"""FetchTransport interface (stages/transport.py, round-4 verdict #3):
the corpus-sim transport must match the O(corpus) reference fetch
byte-for-byte, and the HTTP transport skeleton must reproduce the
reference fetcher's semantics (no redirect following, body-cap abort,
failure classes, throttle) against a localhost fixture server."""

from __future__ import annotations

import threading
import time

import numpy as np
import pyarrow as pa
import pytest

from abwcf_ray.sources.corpus import generate_corpus


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    return generate_corpus(tmp_path_factory.mktemp("tc"), n_pages=5_000, seed=7)


def _selected_urls(corpus, n=400):
    import pyarrow.dataset as pads

    urls = (
        pads.dataset(corpus.pages_dir)
        .to_table(columns=["url"])
        .column("url")
        .to_pylist()
    )
    step = max(1, len(urls) // n)
    return urls[::step][:n] + ["https://nowhere.example/missing0"]


def _canon(t: pa.Table):
    import pandas as pd

    df = t.to_pandas().sort_values("url").reset_index(drop=True)
    df["html"] = df["html"].map(lambda b: None if b is None else bytes(b))
    return df


def test_corpus_transport_matches_pruned_reader(corpus):
    """CorpusTransport.fetch == the O(corpus) reference
    (``stages/fetch.make_fetch_scan``) for the same selection (present +
    absent urls, body cap on)."""
    import pandas as pd
    import pyarrow.dataset as pads

    from abwcf_ray.stages.fetch import FETCH_COLUMNS, make_fetch_scan
    from abwcf_ray.stages.transport import CorpusTransport

    urls = _selected_urls(corpus)
    depths = np.arange(len(urls), dtype=np.int32)
    cap = 6000

    tr = CorpusTransport(corpus.hashed_dir, max_content_length=cap)
    got = _canon(tr.fetch(urls, depths))
    exp = _canon(
        make_fetch_scan(urls, depths, cap)(
            pads.dataset(corpus.pages_dir).to_table(columns=FETCH_COLUMNS)
        )
    )
    pd.testing.assert_frame_equal(got, exp)
    # the absent url matched nothing (404-by-absence)
    assert "https://nowhere.example/missing0" not in set(got["url"])
    assert len(got) >= len(urls) // 2


def test_corpus_transport_refuses_missing_or_invalid_layout(corpus, tmp_path):
    """A CorpusTransport over a directory without a usable layout raises,
    naming the directory, instead of answering every url with no row (a
    silent all-404 crawl)."""
    import json
    import shutil
    from pathlib import Path

    from abwcf_ray.stages.transport import CorpusTransport

    missing = tmp_path / "nowhere"
    with pytest.raises(ValueError, match=str(missing)):
        CorpusTransport(str(missing))
    # a layout marker without the format field: the older parquet layout
    old = tmp_path / "old"
    shutil.copytree(corpus.hashed_dir, old)
    marker = old / "_LAYOUT_OK.json"
    rec = json.loads(marker.read_text())
    rec.pop("format")
    marker.write_text(json.dumps(rec))
    with pytest.raises(ValueError, match=str(old)):
        CorpusTransport(str(old))
    # a part file lost after the marker was written
    lost = tmp_path / "lost"
    shutil.copytree(corpus.hashed_dir, lost)
    next(Path(lost).glob("part-*")).unlink()
    with pytest.raises(ValueError, match=str(lost)):
        CorpusTransport(str(lost))


# ---------------------------------------------------------------- HTTP


class _FixtureHandler:
    """Tiny WSGI-less handler set for the localhost fixture server."""


@pytest.fixture(scope="module")
def http_server():
    import http.server

    class H(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):  # quiet
            pass

        def do_GET(self):
            if self.path == "/ok":
                body = b"<html><a href='/x'>x</a></html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("X-Robots-Tag", "nofollow")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            elif self.path == "/charset":
                body = b"<html><body><p>caf\xc3\xa9</p><a href='/x'>x</a></body></html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            elif self.path == "/redir":
                self.send_response(301)
                self.send_header("Location", "/ok")
                self.send_header("Content-Length", "0")
                self.end_headers()
            elif self.path == "/big":
                body = b"x" * 300_000
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                try:
                    self.wfile.write(body)
                except BrokenPipeError:
                    pass  # client aborted at the cap — expected
            else:
                self.send_response(404)
                self.send_header("Content-Length", "0")
                self.end_headers()

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()


def test_http_transport_semantics(http_server):
    from abwcf_ray.stages.transport import (
        STATUS_TRANSPORT_ERROR,
        HTTPTransport,
    )

    tr = HTTPTransport(max_content_length=100_000, timeout_s=5.0)
    urls = [
        f"{http_server}/ok",
        f"{http_server}/redir",
        f"{http_server}/big",
        f"{http_server}/nope",
        "http://127.0.0.1:1/refused",  # nothing listens on port 1
    ]
    out = tr.fetch(urls, np.zeros(len(urls), dtype=np.int32)).to_pandas()
    row = out.set_index("url")

    ok = row.loc[f"{http_server}/ok"]
    assert ok["status"] == 200
    assert ok["x_robots_tag"] == "nofollow"
    assert b"href" in bytes(ok["html"])
    assert not ok["length_exceeded"]

    redir = row.loc[f"{http_server}/redir"]
    # contract #1: 3xx NOT followed; Location reported for the chain
    assert redir["status"] == 301
    assert redir["location"] == "/ok"

    big = row.loc[f"{http_server}/big"]
    # contract #2: cap aborts the download and drops the body
    assert big["length_exceeded"]
    assert big["html"] is None

    assert row.loc[f"{http_server}/nope"]["status"] == 404
    # contract #3: refused connection -> synthetic failure row, no raise
    assert (
        row.loc["http://127.0.0.1:1/refused"]["status"]
        == STATUS_TRANSPORT_ERROR
    )
    # schema contract
    assert list(out.columns) == [
        "url", "depth", "status", "content_type", "location",
        "x_robots_tag", "html", "length_exceeded",
    ]


def test_http_transport_parses_html_with_charset(http_server):
    """A real server's ``text/html; charset=utf-8`` is still html: the
    transport reports the bare media type, so the page is parsed and its
    links reach the candidate chain."""
    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.stages.transform import (
        explode_links,
        make_normalize_stage,
        make_process_fetched_stage,
    )
    from abwcf_ray.stages.transport import HTTPTransport

    cfg = CrawlConfig()
    fetched = HTTPTransport(timeout_s=5.0).fetch(
        [f"{http_server}/charset"], np.zeros(1, dtype=np.int32)
    )
    assert fetched.column("content_type").to_pylist() == ["text/html"]
    processed = make_process_fetched_stage(cfg)(fetched)
    assert processed.column("is_html").to_pylist() == [True]
    assert processed.column("text").to_pylist() == ["café"]
    cand = make_normalize_stage(cfg)(explode_links(processed))
    assert cand.column("url").to_pylist() == [f"{http_server}/x"]
    assert cand.column("depth").to_pylist() == [1]


def test_http_transport_reconnects_stale_keepalive():
    """A server that closes idle keep-alive connections: the next request
    on the stale pooled connection fails, and the transport retries it
    once on a fresh connection instead of reporting a transport error."""
    import http.server

    from abwcf_ray.stages.transport import HTTPTransport

    class H(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive
        timeout = 0.2  # the server drops a connection idle this long

        def log_message(self, *a):
            pass

        def do_GET(self):
            body = b"<html><a href='/x'>x</a></html>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    try:
        tr = HTTPTransport(max_content_length=None, timeout_s=5.0)
        first = tr.fetch([f"{base}/a", f"{base}/b"], np.zeros(2, np.int32))
        time.sleep(1.0)  # past the idle timeout: the pooled connection is stale
        second = tr.fetch([f"{base}/c"], np.zeros(1, np.int32))
    finally:
        srv.shutdown()
    assert first.column("status").to_pylist() == [200, 200]
    assert second.column("status").to_pylist() == [200]
    assert second.column("html").to_pylist()[0].startswith(b"<html>")


def test_http_transport_throttle(http_server):
    """contract #4: the token bucket paces reads — fetching ~93 KB at
    64 KB/s must take >= ~0.4 s (first ~64 KB ride the burst)."""
    from abwcf_ray.stages.transport import HTTPTransport

    tr = HTTPTransport(max_content_length=None, bytes_per_sec=65536.0)
    t0 = time.perf_counter()
    out = tr.fetch(
        [f"{http_server}/big"] , np.zeros(1, dtype=np.int32)
    ).to_pandas()
    dt = time.perf_counter() - t0
    assert len(bytes(out["html"][0])) == 300_000
    # 300 KB at 64 KB/s with a 64 KB burst -> >= (300-64)/64 = 3.7 s of
    # pacing; assert a loose lower bound to stay timing-robust
    assert dt >= 1.5


def test_crawl_with_corpus_transport_matches_fused_path(
    corpus, ray_session, tmp_path
):
    """e2e parity: a wave crawl with a user-supplied CorpusTransport
    factory (cfg.fetch_transport) produces the same final frontier as the
    default (cfg.fetch_transport None, the engine's own CorpusTransport
    over the layout it checked at run start)."""
    import pandas as pd

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.pipelines.crawl import frontier_dataset, run_crawl
    from abwcf_ray.stages.transport import CorpusTransport

    hashed = corpus.hashed_dir
    cap = CrawlConfig().max_content_length

    def run(out, transport):
        cfg = CrawlConfig(
            max_waves=2,
            wave_duration_s=10.0,
            seen_shards=4,
            max_crawl_depth=8,
            fetch_transport=transport,
        )
        s = run_crawl(cfg, corpus, out, log=lambda *_: None)
        return (
            frontier_dataset(s.last_wave_dir)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )

    base = run(tmp_path / "fused", None)
    via_transport = run(
        tmp_path / "transport",
        lambda: CorpusTransport(hashed, max_content_length=cap),
    )
    pd.testing.assert_frame_equal(via_transport, base)


def test_crawl_with_transport_under_small_bandwidth_budget(corpus, ray_session, tmp_path):
    """A bandwidth budget of one fetcher (300 kB/s / 200 kB/s -> 1) on the
    transport path runs the wave with one fetch task in flight instead of
    failing it, with the same frontier as the default, uncapped run."""
    import json

    import pandas as pd

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.pipelines.crawl import frontier_dataset, run_crawl
    from abwcf_ray.stages.transport import CorpusTransport

    hashed = corpus.hashed_dir
    cap = CrawlConfig().max_content_length

    def run(out, **kw):
        cfg = CrawlConfig(
            max_waves=2,
            wave_duration_s=10.0,
            seen_shards=4,
            max_crawl_depth=8,
            **kw,
        )
        s = run_crawl(cfg, corpus, out, log=lambda *_: None)
        return s, (
            frontier_dataset(s.last_wave_dir).to_pandas().sort_values("url").reset_index(drop=True)
        )

    s, capped = run(
        tmp_path / "capped",
        fetch_transport=lambda: CorpusTransport(hashed, max_content_length=cap),
        total_bandwidth_budget_bps=300_000,
    )
    manifest = json.loads((tmp_path / "capped" / "wave_0000" / "manifest.json").read_text())
    assert manifest["max_fetchers"] == 1 and s.waves == 2
    _, base = run(tmp_path / "fused")
    pd.testing.assert_frame_equal(capped, base)


_ONE_CPU_CRAWL = """
import json, os, sys, uuid
sys.path.insert(0, sys.argv[1])
base, out, calls = sys.argv[2], sys.argv[3], sys.argv[4]
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from dataclasses import replace
from abwcf_ray.config import CrawlConfig
from abwcf_ray.pipelines.crawl import frontier_dataset, run_crawl
from abwcf_ray.sources.corpus import generate_corpus
from abwcf_ray.stages.transport import HTTPRobotsFetcher, HTTPTransport

def transport():
    open(os.path.join(calls, f"{os.getpid()}-{uuid.uuid4().hex}"), "w").close()
    return HTTPTransport(timeout_s=5.0)

cfg = CrawlConfig(max_waves=6, wave_duration_s=10.0, fetch_transport_batch_size=2)
cfg = replace(cfg, fetch_transport=transport,
              robots_transport=lambda: HTTPRobotsFetcher(cfg, timeout_s=5.0))
# a small generated corpus stands in for the run's CorpusMeta; with both
# transports set, every page and robots.txt comes over HTTP
meta = generate_corpus(os.path.join(out, "corpus"), n_pages=50, seed=1)
s = run_crawl(cfg, meta, os.path.join(out, "crawl"),
              seeds=[base + "/", base + "/private/secret"], log=lambda *_: None)
df = frontier_dataset(s.last_wave_dir).to_pandas()
print(json.dumps(dict(zip(df["url"], df["status"]))))
ray.shutdown()
"""


def test_http_crawl_runs_on_one_cpu(tmp_path):
    """A crawl through HTTPTransport and HTTPRobotsFetcher on a one-CPU
    cluster (a fresh process, under a timeout) against a localhost site:
    linked pages, two 301s whose targets are reached only through them (one
    with an absolute ``Location``, one with a relative one that resolves
    against the page url), a robots.txt that disallows a seeded page and a
    linked one, and ``text/html; charset=utf-8`` pages. The final frontier
    is exact, and each worker process built the transport once."""
    import http.server
    import json
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    pages = {
        "/": "<a href='/a'>a</a><a href='/old'>old</a><a href='/moved'>m</a>"
        "<a href='/private/other'>p</a>",
        "/a": "<a href='/b'>b</a><a href='/'>home</a>",
        "/b": "<p>b</p><a href='/a'>a</a>",
        "/c": "<p>c</p>",
        "/d": "<p>d</p>",
    }

    class H(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def _send(self, status, body=b"", ctype=None, loc=None):
            self.send_response(status)
            if ctype:
                self.send_header("Content-Type", ctype)
            if loc:
                self.send_header("Location", loc)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/robots.txt":
                self._send(200, b"User-agent: *\nDisallow: /private/\n", "text/plain")
            elif self.path == "/old":
                self._send(301, loc=f"{base}/c")
            elif self.path == "/moved":
                self._send(301, loc="/d")
            elif self.path in pages:
                body = f"<html><body>{pages[self.path]}</body></html>".encode()
                self._send(200, body, "text/html; charset=utf-8")
            else:
                self._send(404)

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    calls = tmp_path / "transport_calls"
    calls.mkdir()
    repo = str(Path(__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CRAWL, repo, base, str(tmp_path), str(calls)],
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
        pytest.fail("the one-CPU HTTP crawl did not finish within 240 s")
    finally:
        srv.shutdown()
    assert proc.returncode == 0, stderr[-3000:]
    frontier = json.loads(stdout.strip().splitlines()[-1])
    assert frontier == {
        f"{base}/": "Processed",
        f"{base}/a": "Processed",
        f"{base}/b": "Processed",
        f"{base}/old": "Processed",
        f"{base}/c": "Processed",
        f"{base}/moved": "Processed",
        f"{base}/d": "Processed",
        f"{base}/private/secret": "Disallowed",
    }
    pids = [f.name.split("-")[0] for f in calls.iterdir()]
    assert pids and len(pids) == len(set(pids)), "a worker built the transport twice"


@pytest.fixture(scope="module")
def robots_http_server():
    import http.server

    class H(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def _send(self, status, body=b"", ctype="text/plain", loc=None):
            self.send_response(status)
            if loc:
                self.send_header("Location", loc)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            p = self.path
            if p == "/robots.txt":
                self._send(200, b"User-agent: *\nDisallow: /private/\nCrawl-delay: 2\n")
            elif p.startswith("/hop"):
                n = int(p[4:-11])  # /hop{n}/robots.txt
                self._send(301, loc=f"/hop{n-1}/robots.txt" if n > 1 else "/robots.txt")
            elif p == "/loop/robots.txt":
                self._send(301, loc="/loop/robots.txt")
            elif p == "/html/robots.txt":
                self._send(200, b"<html>not robots</html>", ctype="text/html; charset=utf-8")
            elif p == "/err/robots.txt":
                self._send(503)
            elif p == "/big/robots.txt":
                self._send(200, b"User-agent: *\n" + b"Disallow: /x\n" * 60_000)
            else:
                self._send(404)

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()


def test_http_robots_fetcher_semantics(robots_http_server):
    """A3 over HTTP through the SHARED classifier: plain 2xx -> parsed
    SOME rules + crawl delay; <=max redirects followed; a loop past the
    budget -> unavailable; non-text/plain 2xx -> unreachable; 5xx ->
    unreachable; 404 -> unavailable (ALLOW_ALL); oversize truncated."""
    import pyarrow as pa

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.stages.transport import HTTPRobotsFetcher

    cfg = CrawlConfig()
    fr = HTTPRobotsFetcher(cfg, timeout_s=5.0)
    # route each "host" to a distinct path prefix on the fixture server
    base = robots_http_server
    hosts = [base, f"{base}/hop3", f"{base}/loop", f"{base}/html",
             f"{base}/err", f"{base}/nothing", f"{base}/big"]
    batch = pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "now_s": pa.array([0.0] * len(hosts), pa.float64()),
        }
    )
    out = fr(batch).to_pandas().set_index("host")

    ok = out.loc[base]
    assert ok["outcome"] == "ok"
    assert ok["rule_mode"] == "ALLOW_SOME"
    assert ok["crawl_delay_ms"] == 2000
    assert "/private/" in ok["robot_rules"]

    hop = out.loc[f"{base}/hop3"]  # 3 redirects then plain robots
    assert hop["outcome"] == "ok" and hop["rule_mode"] == "ALLOW_SOME"

    assert out.loc[f"{base}/loop"]["outcome"] == "unavailable"
    assert out.loc[f"{base}/html"]["outcome"] == "unreachable"
    assert out.loc[f"{base}/err"]["outcome"] == "unreachable"
    assert out.loc[f"{base}/nothing"]["outcome"] == "unavailable"
    big = out.loc[f"{base}/big"]
    assert big["outcome"] == "ok"  # truncated, still parsed


def test_http_robots_fetcher_bounds_endless_body():
    """A robots.txt body that never ends is read only up to
    ``robots_max_bytes`` and truncated (the reference truncates rather
    than discards): the fetch returns promptly with the rules parsed from
    the prefix."""
    import http.server

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.stages.transport import HTTPRobotsFetcher

    stop = threading.Event()

    class H(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            # HTTP/1.0, no Content-Length: the body ends only at close
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
            self.end_headers()
            try:
                self.wfile.write(b"User-agent: *\nDisallow: /private/\nCrawl-delay: 3\n")
                while not stop.is_set():  # paced: a client that never stops
                    # reading must not exhaust memory before the test fails
                    self.wfile.write(b"# padding line of an endless robots.txt\n" * 1024)
                    time.sleep(0.01)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client stopped reading — expected

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    fr = HTTPRobotsFetcher(CrawlConfig(robots_max_bytes=64 * 1024), timeout_s=5.0)
    result: list = []
    t = threading.Thread(target=lambda: result.append(fr._record(base)), daemon=True)
    t0 = time.perf_counter()
    try:
        t.start()
        t.join(timeout=20)
        assert not t.is_alive(), "robots fetch did not stop at robots_max_bytes"
        status, hops, body, ctype = result[0]
        assert (status, hops, ctype) == (200, 0, "text/plain")
        assert len(body) == 64 * 1024
        out = fr(
            pa.table({"host": pa.array([base]), "now_s": pa.array([0.0], pa.float64())})
        ).to_pandas()
    finally:
        stop.set()
        srv.shutdown()
    assert time.perf_counter() - t0 < 20
    assert out["outcome"][0] == "ok" and out["rule_mode"][0] == "ALLOW_SOME"
    assert "/private/" in out["robot_rules"][0]
    assert out["crawl_delay_ms"][0] == 3000


def test_crawl_sim_delegates_to_shared_classifier(corpus, ray_session):
    """RobotsFetchSim routes through robots_rows_from_records — outcome
    parity is structural; spot-check the sim still parses its corpus."""
    import pyarrow as pa

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.state.hosts import RobotsFetchSim

    sim = RobotsFetchSim(corpus.robots_path, CrawlConfig())
    import pyarrow.parquet as pq

    some_hosts = pq.read_table(corpus.robots_path).column("host").to_pylist()[:20]
    batch = pa.table(
        {
            "host": pa.array(some_hosts, pa.string()),
            "now_s": pa.array([0.0] * len(some_hosts), pa.float64()),
        }
    )
    out = sim(batch).to_pandas()
    assert len(out) == 20
    assert set(out["outcome"]) <= {"ok", "unavailable", "unreachable"}
