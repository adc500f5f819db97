"""Deterministic synthetic web corpus (FIXTURES.md).

Generates the three fixture inputs the crawl engine consumes:

- ``pages`` — Common-Crawl-style page table matching BASELINE.json's
  ``input_hint`` columns ``(url, warc_ts, html: binary, text, lang)`` plus
  simulation columns ``(status, content_type, location, x_robots_tag)``.
  Written as one parquet part per generation chunk (deterministic content).
  The crawl fetches from a second copy, the hashed layout
  (:func:`build_hashed_layout`: sorted by ``url_hash``, uncompressed Arrow
  IPC), reading only the records of a wave's url hashes.
- ``robots.parquet`` — per-host robots.txt fetch outcomes
  ``(host, status, redirect_hops, body)``.
- ``seeds.json`` — crawl entry points (canonical + non-canonical + one
  invalid URL).

Everything is a pure function of ``(seed, n_pages)``: the text is generated
first and the HTML is rendered around it, so the extractor must reproduce
the ``text`` column byte-for-byte (FIXTURES.md §1). Host sizes follow a
power law so heavy-hitter domains exist (exercises scheduler salting), and
links point "forward" within a host so crawl depth is layered from the
rank-0 seed pages.
"""

from __future__ import annotations

import html as _html
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from abwcf_ray.functions.hashing import hash64, impl_id

LANGS = ["en", "de", "fr", "es", "zz"]
LANG_WEIGHTS = [0.55, 0.15, 0.12, 0.10, 0.08]
_VOCAB = {
    "en": "the quick brown fox jumps over lazy dog and runs through green fields with great speed".split(),
    "de": "der schnelle braune fuchs springt über den faulen hund und rennt durch grüne felder".split(),
    "fr": "le renard brun rapide saute par dessus le chien paresseux et court dans les champs".split(),
    "es": "el zorro marrón rápido salta sobre el perro perezoso y corre por los campos verdes".split(),
    "zz": "zorp blik thang wubble fren kplo vrash dinkle morv quux zibber nark".split(),
}

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("status", pa.int32()),
        ("content_type", pa.string()),
        ("location", pa.string()),
        ("x_robots_tag", pa.string()),
    ]
)

_EPOCH_2025 = 1_735_689_600_000_000  # 2025-01-01T00:00:00Z in µs


# page-weight profiles: (paras_lo, paras_hi, words_lo, words_hi, links_lo,
# links_hi). "light" keeps unit-test corpora small and fast; "heavy"
# approximates real web pages (8-15 KB html, tens of links) for throughput
# benchmarks.
PROFILES = {
    "light": (1, 4, 8, 40, 0, 20),
    "bench": (4, 8, 24, 60, 8, 30),
    "heavy": (6, 14, 30, 90, 10, 50),
}


@dataclass
class CorpusMeta:
    n_pages: int
    seed: int
    num_buckets: int
    n_hosts: int
    out_dir: str
    profile: str = "light"
    # v2: adds the hash-sorted fetch layout (hashed_dir)
    # v3: robots.parquet gains a content_type column (text/plain gate)
    version: int = 3

    @property
    def pages_dir(self) -> str:
        return str(Path(self.out_dir) / "pages")

    @property
    def hashed_dir(self) -> str:
        """Fetch substrate: the pages re-laid-out SORTED by ``url_hash``
        in uncompressed Arrow IPC files, so a wave's fetch copies only the
        selected records (O(selected), not O(corpus))."""
        return str(Path(self.out_dir) / "pages_hashed")

    @property
    def robots_path(self) -> str:
        return str(Path(self.out_dir) / "robots.parquet")

    @property
    def seeds(self) -> list[str]:
        return json.loads((Path(self.out_dir) / "seeds.json").read_text())


def _host_layout(n_pages: int, n_hosts: int) -> np.ndarray:
    """Power-law host sizes summing to n_pages; returns cumulative offsets
    (len n_hosts+1): host h owns page indices [cum[h], cum[h+1])."""
    weights = 1.0 / np.arange(1, n_hosts + 1) ** 1.1
    sizes = np.maximum(1, np.floor(weights / weights.sum() * n_pages)).astype(np.int64)
    # distribute the remainder over the biggest hosts
    diff = n_pages - int(sizes.sum())
    if diff > 0:
        sizes[: diff % n_hosts] += diff // n_hosts + 1
        if diff // n_hosts and n_hosts < diff:
            sizes[diff % n_hosts :] += diff // n_hosts
    elif diff < 0:
        for h in range(n_hosts - 1, -1, -1):
            take = min(sizes[h] - 1, -diff)
            sizes[h] -= take
            diff += take
            if diff == 0:
                break
    cum = np.zeros(n_hosts + 1, dtype=np.int64)
    np.cumsum(sizes, out=cum[1:])
    return cum


def _page_path(rank: int) -> str:
    if rank % 7 == 3:
        return f"/a/p{rank}"
    if rank % 11 == 4:
        return f"/a/b/p{rank}"
    return f"/p{rank}"


def _page_url(host_id: int, rank: int) -> str:
    return f"https://h{host_id}.example{_page_path(rank)}"


def _noncanonical_variant(host_id: int, rank: int, rng: random.Random) -> str:
    """A URL that normalizes to _page_url(host_id, rank)."""
    path = _page_path(rank)
    choice = rng.randrange(3)
    if choice == 0:
        return f"HTTPS://H{host_id}.EXAMPLE{path}"
    if choice == 1:
        return f"https://h{host_id}.example:443{path}"
    return f"https://h{host_id}.example/.{path}"


def _make_text(
    rng: random.Random, lang: str, host_id: int, rank: int, profile: tuple
) -> tuple[str, str, list[str]]:
    p_lo, p_hi, w_lo, w_hi, _, _ = profile
    title = f"Page p{rank} on h{host_id}.example"
    vocab = _VOCAB[lang]
    paras = []
    for _ in range(rng.randint(p_lo, p_hi)):
        n_words = rng.randint(w_lo, w_hi)
        paras.append(" ".join(rng.choice(vocab) for _ in range(n_words)))
    text = title + "\n\n" + "\n\n".join(paras)
    return text, title, paras


def _gen_page(i: int, host_id: int, rank: int, host_size: int, n_hosts: int,
              cum: np.ndarray, seed: int, profile: tuple = PROFILES["light"]):
    rng = random.Random((seed << 32) ^ i)
    url = _page_url(host_id, rank)

    lang = rng.choices(LANGS, weights=LANG_WEIGHTS, k=1)[0]
    text, title, paras = _make_text(rng, lang, host_id, rank, profile)

    # ~2% of pages are redirects to a same-host canonical target
    if rng.random() < 0.02 and host_size > 1:
        target_rank = rng.randrange(host_size)
        location = _page_url(host_id, target_rank)
        return url, b"", "", lang, 301, "text/html", location, None

    x_robots = "noindex, nofollow" if rng.random() < 0.02 else None
    content_type = "text/plain" if rng.random() < 0.03 else "text/html"
    meta_nofollow = rng.random() < 0.03

    # out-links (FIXTURES.md §3): ~70% same-host forward, ~20% cross-host,
    # ~5% non-http, ~5% non-canonical variants
    links: list[str] = []
    for _ in range(rng.randint(profile[4], profile[5])):
        r = rng.random()
        if r < 0.70:
            if rank + 1 < host_size:
                t = rng.randint(rank + 1, min(host_size - 1, rank + 40))
                links.append(_page_url(host_id, t))
        elif r < 0.90:
            h2 = rng.randrange(n_hosts)
            t = rng.randrange(int(cum[h2 + 1] - cum[h2]))
            links.append(_page_url(h2, t))
        elif r < 0.95:
            links.append(rng.choice(["mailto:someone@example.com", "ftp://files.example/f.zip"]))
        else:
            if rank + 1 < host_size:
                t = rng.randint(rank + 1, min(host_size - 1, rank + 40))
                links.append(_noncanonical_variant(host_id, t, rng))

    meta = '<meta name="robots" content="noindex, nofollow">' if meta_nofollow else ""
    body_parts = [f"<h1>{_html.escape(title)}</h1>"]
    body_parts += [f"<p>{_html.escape(p)}</p>" for p in paras]
    body_parts += [f'<a href="{_html.escape(a, quote=True)}">link {j}</a>' for j, a in enumerate(links)]
    doc = (
        f"<html><head><title>{_html.escape(title)}</title>{meta}</head>"
        f"<body>{''.join(body_parts)}</body></html>"
    )
    return url, doc.encode("utf-8"), text, lang, 200, content_type, None, x_robots


def _gen_robots(host_id: int, seed: int) -> tuple[str, int, int, bytes | None, str | None]:
    """-> (host, status, redirect_hops, body, content_type)."""
    rng = random.Random((seed << 33) ^ host_id)
    host = f"https://h{host_id}.example"
    p = rng.random()
    if p < 0.80:
        status, hops = 200, 0
    elif p < 0.90:
        return host, 404, 0, None, None
    elif p < 0.95:
        return host, 503, 0, None, None
    else:
        status, hops = 200, rng.randint(1, 7)  # redirect chain, then a 200 body

    # ~4% of 2xx hosts serve their robots.txt as text/html (misconfigured) —
    # RFC 9309 / RobotsFetcher.scala only accepts text/plain; such a
    # response classifies as Unreachable
    content_type = "text/html" if rng.random() < 0.04 else "text/plain"
    lines = ["User-agent: *"]
    for _ in range(rng.randint(0, 5)):
        kind = "Allow" if rng.random() < 0.3 else "Disallow"
        prefix = rng.choice(["/a/", "/a/b/", f"/p{rng.randrange(20)}", "/*9$"])
        lines.append(f"{kind}: {prefix}")
    delay = rng.choice([None, 0, 1, 2, 30])
    if delay is not None:
        lines.append(f"Crawl-delay: {delay}")
    return host, status, hops, "\n".join(lines).encode(), content_type


def rank0_urls(meta: "CorpusMeta", k: int) -> list[str]:
    """Rank-0 (layer-0) page urls of the first ``k`` hosts — wide seed lists
    for throughput benchmarks where the ramp-up of frontier growth should
    not dominate the measurement."""
    return [_page_url(h, 0) for h in range(min(k, meta.n_hosts))]


def _generate_chunk(
    pages_dir: str,
    start: int,
    stop: int,
    cum: np.ndarray,
    n_hosts: int,
    seed: int,
    profile: str,
    num_buckets: int,  # kept for call-compat; layout is flat (one part/chunk)
) -> int:
    """Generate pages [start, stop) and write one part file for the chunk."""
    prof = PROFILES[profile]
    host_ids = np.searchsorted(cum, np.arange(start, stop), side="right") - 1
    rows = []
    for i in range(start, stop):
        h = int(host_ids[i - start])
        rank = i - int(cum[h])
        url, doc, text, lang, status, ctype, loc, xrt = _gen_page(
            i, h, rank, int(cum[h + 1] - cum[h]), n_hosts, cum, seed, prof
        )
        rows.append((url, _EPOCH_2025 + i * 1_000_000, doc, text, lang,
                     status, ctype, loc, xrt))
    cols = list(zip(*rows))
    table = pa.table(
        {
            "url": pa.array(cols[0], pa.string()),
            "warc_ts": pa.array(cols[1], pa.timestamp("us")),
            "html": pa.array(cols[2], pa.binary()),
            "text": pa.array(cols[3], pa.string()),
            "lang": pa.array(cols[4], pa.string()),
            "status": pa.array(cols[5], pa.int32()),
            "content_type": pa.array(cols[6], pa.string()),
            "location": pa.array(cols[7], pa.string()),
            "x_robots_tag": pa.array(cols[8], pa.string()),
        }
    )
    pq.write_table(table, Path(pages_dir) / f"part-{start:09d}.parquet")
    return stop - start


# --- hash-sorted fetch layout --------------------------------------------
# The fetch simulation looks each selected url up in the corpus. The hashed
# layout stores the fetch columns SORTED by ``url_hash``, one uncompressed
# Arrow IPC file per part of _HASHED_FILE_ROWS rows, and its marker records
# each file's hash range. A reader memory-maps only the files whose range
# holds a selected hash and copies only the selected rows
# (stages/transport.CorpusTransport): O(selected) bytes, no decompression.
FETCH_LAYOUT_COLUMNS = [
    "url", "status", "content_type", "location", "x_robots_tag", "html",
]
_LAYOUT_SCHEMA = pa.schema(
    [(f.name, f.type) for f in PAGES_SCHEMA if f.name in FETCH_LAYOUT_COLUMNS]
    + [("url_hash", pa.uint64())]
)
_HASHED_FILE_ROWS = 8192
# the marker's ``format``: a marker without it is the older parquet layout
LAYOUT_FORMAT = "arrow-ipc-1"
# one marker entry per layout file
_LAYOUT_ENTRY = pa.schema(
    [("name", pa.string()), ("min", pa.uint64()), ("max", pa.uint64()), ("rows", pa.int64())]
)


def _add_url_hash(t: pa.Table) -> pa.Table:
    return t.append_column("url_hash", pa.array(hash64(t.column("url")), pa.uint64()))


def _write_hashed_batch(batch: pa.Table, out_dir: str) -> pa.Table:
    """One sorted batch -> one Arrow IPC file; returns its marker entry
    (name, min and max ``url_hash``). The name leads with the batch's min
    hash (keeps directory listing in hash order) plus a uuid suffix: two
    batches CAN share a min hash (duplicate urls, or a hash value spanning a
    batch boundary after the sort), and min-hash-only names silently
    overwrote one of them — dropping rows from the fetch substrate (round-2
    ADVICE)."""
    import uuid

    if batch.num_rows == 0:
        return _LAYOUT_ENTRY.empty_table()
    batch = batch.select(_LAYOUT_SCHEMA.names).cast(_LAYOUT_SCHEMA)
    lo, hi = batch.column("url_hash")[0].as_py(), batch.column("url_hash")[-1].as_py()
    name = f"part-{lo:016x}-{uuid.uuid4().hex[:8]}.arrow"
    with pa.ipc.new_file(Path(out_dir) / name, _LAYOUT_SCHEMA) as writer:
        writer.write_table(batch)
    return pa.Table.from_pylist(
        [{"name": name, "min": lo, "max": hi, "rows": batch.num_rows}], _LAYOUT_ENTRY
    )


def build_hashed_layout(meta: CorpusMeta) -> str:
    """(Re)build the hash-sorted fetch layout under ``meta.hashed_dir``."""
    import functools
    import shutil

    out = Path(meta.hashed_dir)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True, exist_ok=True)

    use_ray = False
    if meta.n_pages >= 50_000:
        try:
            import ray

            use_ray = ray.is_initialized()
        except ImportError:  # pragma: no cover
            use_ray = False
    if use_ray:
        import ray.data as rd

        entries = (
            rd.read_parquet(meta.pages_dir, columns=FETCH_LAYOUT_COLUMNS)
            .map_batches(_add_url_hash, batch_format="pyarrow")
            .sort("url_hash")
            .map_batches(
                functools.partial(_write_hashed_batch, out_dir=str(out)),
                batch_format="pyarrow",
                batch_size=_HASHED_FILE_ROWS,
            )
            .take_all()
        )
    else:
        import pyarrow.dataset as pads

        t = _add_url_hash(
            pads.dataset(meta.pages_dir).to_table(columns=FETCH_LAYOUT_COLUMNS)
        )
        # 64-bit offsets before the sort: sort_by takes (concatenates) the
        # whole table, and >2 GB of html in 32-bit-offset binary overflows
        # ("offset overflow while concatenating arrays"); each file is cast
        # back to the layout schema when written
        schema = pa.schema(
            [
                pa.field(
                    f.name,
                    {pa.string(): pa.large_string(), pa.binary(): pa.large_binary()}.get(
                        f.type, f.type
                    ),
                )
                for f in t.schema
            ]
        )
        t = t.cast(schema).sort_by("url_hash")
        entries = []
        for start in range(0, t.num_rows, _HASHED_FILE_ROWS):
            entries += _write_hashed_batch(t.slice(start, _HASHED_FILE_ROWS), str(out)).to_pylist()

    # completion marker: a partial build (crash mid-write) or a corrupted
    # one (two drivers racing on the same dir append distinct uuid-suffixed
    # part files → silently duplicated fetch rows) must not be reusable.
    # It lists each file's hash range, the readers' only index.
    entries.sort(key=lambda e: (e["min"], e["name"]))
    (out / "_LAYOUT_OK.json").write_text(
        json.dumps(
            {
                "format": LAYOUT_FORMAT,
                "n_rows": sum(e["rows"] for e in entries),
                "n_files": len(entries),
                "hash_impl": impl_id(),
                "files": [[e["name"], e["min"], e["max"]] for e in entries],
            }
        )
    )
    return str(out)


def read_layout(hashed_dir: str | Path) -> dict:
    """The completion marker of the hashed layout under ``hashed_dir``,
    checked against the files on disk and this process's hash
    implementation (the layout is sorted and looked up by ``url_hash``:
    under another implementation every fetch would miss). Raises
    ``ValueError`` naming the directory when the layout is missing,
    partial, of another format (a marker without ``format`` is the older
    parquet layout) or hashed otherwise."""
    out = Path(hashed_dir)
    try:
        rec = json.loads((out / "_LAYOUT_OK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"no valid fetch layout in {out}: {e}") from None
    n_files = len(list(out.glob("part-*.arrow")))
    if rec.get("format") != LAYOUT_FORMAT:
        problem = f"format {rec.get('format')!r}, not {LAYOUT_FORMAT!r}"
    elif rec.get("hash_impl") != impl_id():
        problem = f"hash implementation {rec.get('hash_impl')!r}, not {impl_id()!r}"
    elif n_files != rec.get("n_files"):
        problem = f"{n_files} part files on disk, the marker lists {rec.get('n_files')}"
    else:
        return rec
    raise ValueError(f"fetch layout in {out} is not usable: {problem}")


def layout_is_valid(meta: CorpusMeta) -> bool:
    """True iff ``meta.hashed_dir`` holds a complete layout
    (:func:`read_layout`) of the corpus's row count."""
    try:
        return read_layout(meta.hashed_dir)["n_rows"] == meta.n_pages
    except ValueError:
        return False


def generate_corpus(
    out_dir: str | Path,
    n_pages: int = 2000,
    seed: int = 42,
    num_buckets: int = 32,
    chunk_size: int = 10_000,
    profile: str = "light",
) -> CorpusMeta:
    """Generate (or reuse, if already present with identical parameters) the
    fixture corpus under ``out_dir``."""
    out = Path(out_dir)
    n_hosts = max(4, n_pages // 50)
    meta = CorpusMeta(n_pages=n_pages, seed=seed, num_buckets=num_buckets,
                      n_hosts=n_hosts, out_dir=str(out), profile=profile)
    meta_path = out / "meta.json"
    if meta_path.exists():
        existing = json.loads(meta_path.read_text())
        if existing == asdict(meta):
            if layout_is_valid(meta):
                return meta
            # corpus is intact but the fetch layout is partial/corrupt
            # (e.g. a crashed or concurrent previous build) — rebuild it
            build_hashed_layout(meta)
            return meta
    if out.exists():
        # parameter mismatch or partial previous generation: stale part
        # files would silently inflate the corpus (readers scan the dir)
        import shutil

        shutil.rmtree(out)

    out.mkdir(parents=True, exist_ok=True)
    cum = _host_layout(n_pages, n_hosts)
    pages_dir = Path(meta.pages_dir)
    pages_dir.mkdir(parents=True, exist_ok=True)

    chunks = [
        (start, min(start + chunk_size, n_pages))
        for start in range(0, n_pages, chunk_size)
    ]
    # page content is a pure function of (seed, page index), so chunks can
    # generate in parallel Ray tasks (used for bench-scale corpora); each
    # chunk writes its own part file per bucket — content is identical to
    # the sequential path, only the file split differs
    use_ray = n_pages >= 100_000
    if use_ray:
        try:
            import ray

            use_ray = ray.is_initialized()
        except ImportError:  # pragma: no cover
            use_ray = False
    if use_ray:
        import ray

        gen_task = ray.remote(_generate_chunk)
        cum_ref = ray.put(cum)
        ray.get(
            [
                gen_task.remote(
                    str(pages_dir), start, stop, cum_ref, n_hosts, seed,
                    profile, num_buckets
                )
                for start, stop in chunks
            ]
        )
    else:
        for start, stop in chunks:
            _generate_chunk(
                str(pages_dir), start, stop, cum, n_hosts, seed, profile, num_buckets
            )

    # --- robots ----------------------------------------------------------
    robots_rows = [_gen_robots(h, seed) for h in range(n_hosts)]
    rcols = list(zip(*robots_rows))
    pq.write_table(
        pa.table(
            {
                "host": pa.array(rcols[0], pa.string()),
                "status": pa.array(rcols[1], pa.int32()),
                "redirect_hops": pa.array(rcols[2], pa.int32()),
                "body": pa.array(rcols[3], pa.binary()),
                "content_type": pa.array(rcols[4], pa.string()),
            }
        ),
        meta.robots_path,
    )

    # --- seeds (FIXTURES.md §3): 8 canonical rank-0 pages, one duplicate
    # non-canonical variant, one invalid URL ------------------------------
    seeds = [_page_url(h, 0) for h in range(min(8, n_hosts))]
    seeds.append("HTTPS://H0.EXAMPLE:443/./p0")  # normalizes to seeds[0]
    seeds.append("http://exa mple/")  # invalid -> dropped by the normalizer
    (out / "seeds.json").write_text(json.dumps(seeds))

    build_hashed_layout(meta)
    meta_path.write_text(json.dumps(asdict(meta)))
    return meta
