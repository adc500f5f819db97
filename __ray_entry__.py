"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in abwcf_ray) calls ``ray.init()`` / ``ray.shutdown()``.

Query families (SURVEY.md §2 + training-data extras):

- crawl-derived operators run over a deterministic url/priority derivation
  of the ``documents`` table so DuckDB can replicate the derivation inline
  (frontier top-k politeness selection, scope filter, normalizer);
- dedup / text / similarity operators run over ``documents`` /
  ``embeddings`` directly;
- the end-to-end crawl runs over the fixture corpus (sized from the sf's
  documents count) — not SQL-expressible, rows-only check;
- ``events_window`` / ``lineitem_pricing_agg`` cover windowed and grouped
  aggregation against plain SQL.
"""

from __future__ import annotations

import shutil
import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

# driver-side import guard: make `abwcf_ray` importable when this module is
# loaded from outside the repo root (Ray workers inherit the driver's cwd,
# which the grading driver sets to the repo root)
_REPO = str(Path(__file__).resolve().parent)
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_HOSTS = 97
_WAVE_S = 10.0

# the paragraph queries' constructed multi-paragraph corpus — the SQL twin
# of _built_paragraph_corpus (see its docstring)
_BUILT_PARA_SQL = """
            built AS (
                SELECT a.doc_id,
                       a.text
                       || CASE WHEN a.doc_id % 3 <> 0
                               THEN chr(10) || b.text ELSE '' END
                       || CASE WHEN a.doc_id % 5 = 0
                               THEN chr(10) ELSE '' END
                       || CASE WHEN a.doc_id % 4 <> 0
                               THEN chr(10) || c.text ELSE '' END AS text
                FROM documents a
                JOIN documents b
                  ON b.doc_id = (a.doc_id * 7 + 1) % (SELECT COUNT(*) FROM documents)
                JOIN documents c
                  ON c.doc_id = (a.doc_id * 13 + 2) % (SELECT COUNT(*) FROM documents)
            )"""


def _substr_kept_sql(k: int, sfx: str) -> str:
    """CTE chain computing per-doc n_kept for ExactSubstr at gram size
    ``k`` (window=1 exact mode), names suffixed ``sfx`` so two k's can
    coexist in one query (the substr_dedup_winnow sandwich oracle).
    Expects sibling CTEs ``toks`` (doc_id, ws) and ``tok`` (exploded
    doc_id, tok, tp) to exist."""
    return f"""
            grams{sfx} AS (
                SELECT doc_id, ws,
                       unnest(range(CAST(len(ws) AS BIGINT) - {k} + 1)) AS pos
                FROM toks WHERE len(ws) >= {k}
            ),
            g2{sfx} AS (
                SELECT doc_id, pos,
                       array_to_string(ws[pos+1 : pos+{k}], chr(31)) AS gram,
                       doc_id * 1048576 + pos AS okey
                FROM grams{sfx}
            ),
            firsts{sfx} AS (
                SELECT gram, MIN(okey) AS first_key
                FROM g2{sfx} GROUP BY gram HAVING COUNT(*) > 1
            ),
            droppos{sfx} AS (
                SELECT DISTINCT g.doc_id, g.pos + u.range AS tp
                FROM g2{sfx} g JOIN firsts{sfx} f USING (gram), range({k}) u
                WHERE g.okey <> f.first_key
            ),
            kept{sfx} AS (
                SELECT t.doc_id,
                       CAST(COUNT(*) FILTER (WHERE p.tp IS NULL) AS BIGINT)
                           AS n_kept
                FROM tok t LEFT JOIN droppos{sfx} p USING (doc_id, tp)
                GROUP BY t.doc_id
            )"""


def _quiet():
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _docs(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _derive_frontier_batch(batch: pa.Table) -> pa.Table:
    """documents -> synthetic frontier rows. The EXACT same derivation is
    written inline in the SQL oracles: url/host from doc_id, a Knuth
    multiplicative-hash priority, delay class from host number."""
    d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    host_num = d % _HOSTS
    urls = [f"https://h{h}.example/p{i}" for h, i in zip(host_num, d)]
    hosts = [f"https://h{h}.example" for h in host_num]
    priority = (d * 2654435761) % 4294967296
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "host": pa.array(hosts, pa.string()),
            "depth": pa.array(np.zeros(len(d), dtype=np.int32), pa.int32()),
            "priority": pa.array(priority, pa.int64()),
        }
    )


def _delay_ms_for_host_num(h: int) -> int:
    return 500 * (1 + h % 4)


_FRONTIER_SQL = (
    "SELECT 'https://h' || (doc_id % 97) || '.example/p' || doc_id AS url, "
    "'https://h' || (doc_id % 97) || '.example' AS host, "
    "(doc_id * 2654435761) % 4294967296 AS priority "
    "FROM documents"
)


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------
def _q_frontier_topk(sf_dir: str):
    """D1/D2: shuffle-free per-host politeness top-k over the derived
    frontier, using the real scheduler stage (partial top-k per block +
    exact hash(host)-sharded merge)."""
    import ray

    from abwcf_ray.stages.schedule import select_wave
    from abwcf_ray.state.hosts import sched_payload_from_delays

    _quiet()
    delays = {f"https://h{h}.example": _delay_ms_for_host_num(h) for h in range(_HOSTS)}
    out, _ = select_wave(
        [f"{sf_dir}/documents.parquet"],
        [_derive_frontier_batch],
        ray.put(sched_payload_from_delays(delays, _WAVE_S)),
        columns=["doc_id"],
    )
    out = out.to_pandas().sort_values(["host", "priority", "url"], ascending=[True, False, True])
    out["rank_in_host"] = out.groupby("host").cumcount().astype(np.int64)
    return out[["host", "url", "priority", "rank_in_host"]].reset_index(drop=True)


def _q_restore_topk(sf_dir: str):
    """A6/D4: bounded restore — Discovered rows, global top-k by
    (priority desc, url asc), via the real restore_topk function over a
    written frontier parquet."""
    import pyarrow.compute as _pc

    from abwcf_ray.pipelines.crawl import restore_topk

    _quiet()

    def with_status(batch: pa.Table) -> pa.Table:
        t = _derive_frontier_batch(batch)
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        status = np.where(d % 5 == 0, "Processed", "Discovered")
        return t.append_column("status", pa.array(status, pa.string()))

    out_dir = Path("/tmp/abwcf_restore_frontier")
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = _docs(sf_dir, ["doc_id"]).map_batches(with_status, batch_format="pyarrow")
    ds.write_parquet(str(out_dir))
    top = restore_topk(out_dir, 100).to_pandas()
    return top[["url", "priority"]]


def _q_host_histogram(sf_dir: str):
    _quiet()
    ds = _docs(sf_dir, ["doc_id"]).map_batches(
        _derive_frontier_batch, batch_format="pyarrow"
    )
    out = ds.groupby("host").count().to_pandas()
    return out.rename(columns={"count()": "n_pages"})[["host", "n_pages"]]


def _q_scope_filter(sf_dir: str):
    """B5: length + must/must-not regex scope filter via the real stage."""
    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.stages.transform import make_scope_filter_stage

    _quiet()
    cfg = CrawlConfig(
        must_match=(r"https://h[0-9]+\.example/p[0-9]+",),
        must_not_match=(r".*[02468]",),
    )
    ds = _docs(sf_dir, ["doc_id"]).map_batches(
        _derive_frontier_batch, batch_format="pyarrow"
    )
    out = ds.map_batches(make_scope_filter_stage(cfg), batch_format="pyarrow")
    return out.select_columns(["url"]).to_pandas()


def _q_normalize_urls(sf_dir: str):
    """B4: three classes of non-canonical variants all normalize to the
    canonical url the SQL oracle constructs directly."""
    from abwcf_ray.config import STRICT_NORMALIZATION
    from abwcf_ray.functions.urlnorm import normalize_urls

    _quiet()

    def variants(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        out = []
        for i in d:
            h = i % _HOSTS
            m = i % 3
            if m == 0:
                out.append(f"HTTPS://H{h}.EXAMPLE/p{i}")
            elif m == 1:
                out.append(f"https://h{h}.example:443/p{i}")
            else:
                out.append(f"https://h{h}.example/./p{i}")
        return pa.table({"url_raw": pa.array(out, pa.string())})

    def normalize(batch: pa.Table) -> pa.Table:
        normed = normalize_urls(batch.column("url_raw").to_pylist(), STRICT_NORMALIZATION)
        return pa.table({"url_norm": pa.array(normed, pa.string())})

    ds = _docs(sf_dir, ["doc_id"]).map_batches(variants, batch_format="pyarrow")
    return ds.map_batches(normalize, batch_format="pyarrow").to_pandas()


def _q_exact_dedup(sf_dir: str):
    from abwcf_ray.stages.dedup import exact_dedup

    _quiet()
    out = exact_dedup(_docs(sf_dir, ["doc_id", "text"])).to_pandas()
    return out[["doc_id", "dup_count"]].sort_values("doc_id").reset_index(drop=True)


def _q_token_counts(sf_dir: str):
    from abwcf_ray.stages.text import add_token_counts

    _quiet()
    out = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_token_counts, batch_format="pyarrow"
    )
    return out.select_columns(["doc_id", "n_tokens"]).to_pandas()


def _q_quality_by_lang(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    from abwcf_ray.stages.text import add_quality_signals

    _quiet()
    ds = _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        add_quality_signals, batch_format="pyarrow"
    )
    agg = (
        ds.groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars_m", alias_name="sum_chars"),
            Sum("n_words", alias_name="sum_words"),
        )
        .to_pandas()
    )
    agg["avg_chars"] = (agg["sum_chars"] / agg["n_docs"]).round(4)
    return agg[["lang", "n_docs", "sum_chars", "sum_words", "avg_chars"]]


def _q_events_window(sf_dir: str):
    """Tumbling 1-hour windowed aggregate over the events stream (G:
    per-batch partials, then the keyed-partition merge — the (key,
    window) aggregate key is output-sized, see stages/windows.py)."""
    import ray.data as rd

    from abwcf_ray.stages.windows import tumbling_windows

    _quiet()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    out = tumbling_windows(
        ds, key="user_id", ts_col="ts", value_col="value", width_us=3_600_000_000
    ).to_pandas()
    out["sum_value"] = out["sum_value"].round(4)
    return out


_SESSION_GAP_US = 4 * 3600 * 1_000_000  # 4 h
_SLIDE_US = 3_600_000_000  # 1 h slide
_WIDTH_US = 7_200_000_000  # 2 h width


def _q_session_windows(sf_dir: str):
    """Gap-based session windows per user over the events stream."""
    import ray.data as rd

    from abwcf_ray.stages.windows import session_windows

    _quiet()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    out = session_windows(
        ds, key="user_id", ts_col="ts", value_col="value", gap_us=_SESSION_GAP_US
    ).to_pandas()
    out["session_id"] = out["session_id"].astype(np.int64)
    return out


def _q_sliding_windows(sf_dir: str):
    """2-hour windows sliding by 1 hour over the events stream."""
    import ray.data as rd

    from abwcf_ray.stages.windows import sliding_windows

    _quiet()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    out = sliding_windows(
        ds, key="user_id", ts_col="ts", value_col="value",
        width_us=_WIDTH_US, slide_us=_SLIDE_US,
    ).to_pandas()
    out["sum_value"] = out["sum_value"].round(4)
    return out


def _q_lineitem_pricing(sf_dir: str):
    """TPC-H Q1-style grouped aggregate (general-aggregation coverage)."""
    import ray.data as rd
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    _quiet()
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def disc_price(batch: pa.Table) -> pa.Table:
        dp = pc.multiply(
            batch.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), batch.column("l_discount"))
        )
        return batch.append_column("disc_price", dp)

    out = (
        ds.map_batches(disc_price, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Count(alias_name="n_rows"),
        )
        .to_pandas()
    )
    for c in ["sum_qty", "sum_base_price", "sum_disc_price"]:
        out[c] = out[c].round(2)
    return out


def _q_knn_top5(sf_dir: str):
    """Brute-force cosine top-5 for the three lowest vec_ids (ints only in
    the output so float representation differences can't affect the hash)."""
    import ray.data as rd

    from abwcf_ray.stages.similarity import knn_bruteforce

    _quiet()
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    # distributed top-3-by-id: never materialize the whole table for 3 rows
    qdf = ds.sort("vec_id").limit(3).to_pandas()
    queries = np.array(list(qdf["embedding"]), dtype=np.float64)
    out = knn_bruteforce(ds, queries, k=5, query_ids=qdf["vec_id"].to_numpy())
    return out[["query_id", "neighbor_id", "rank"]]


def _q_knn_ivf(sf_dir: str):
    import ray.data as rd

    from abwcf_ray.stages.similarity import knn_ivf

    _quiet()
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    qdf = ds.sort("vec_id").limit(3).to_pandas()
    queries = np.array(list(qdf["embedding"]), dtype=np.float64)
    out = knn_ivf(ds, queries, k=5, nlist=16, nprobe=4, query_ids=qdf["vec_id"].to_numpy())
    return out[["query_id", "neighbor_id", "rank"]]


def _q_minhash_dedup(sf_dir: str):
    from abwcf_ray.stages.dedup import minhash_lsh_dedup

    _quiet()
    return minhash_lsh_dedup(_docs(sf_dir, ["doc_id", "text"]), threshold=0.9)


def _q_minhash_dedup_exact(sf_dir: str):
    """Degenerate-parameter minhash: shingle_k=1 + threshold=1.0 means a
    verified pair has ALL permutation minima equal, which (at 512 perms)
    holds exactly for equal distinct-token sets on this data — the same
    SQL-checkable construction as ngram_dedup, exercised through the FULL
    minhash machinery (vectorized signatures, slim band explode,
    distributed verify, connected components). 64 perms is NOT enough:
    the testdata's J~0.97 near-dup pairs full-signature-collide with
    p = J^64 ~ 0.11 each (measured: 15 false dups at sf0.001); at 512
    perms p ~ 2e-8. (Edge the oracle would disagree on: two zero-token
    docs — both get the all-sentinel signature and verify equal, SQL
    groups them too, so even that edge agrees.)"""
    from abwcf_ray.stages.dedup import minhash_lsh_dedup

    _quiet()
    out = minhash_lsh_dedup(
        _docs(sf_dir, ["doc_id", "text"]),
        num_perm=512,
        bands=16,
        shingle_k=1,
        threshold=1.0,
    )
    out["is_dup"] = out["is_dup"].astype(np.int64)
    return out


def _q_simhash_dedup(sf_dir: str):
    from abwcf_ray.stages.dedup import simhash_dedup

    _quiet()
    return simhash_dedup(_docs(sf_dir, ["doc_id", "text"]), max_hamming=0)


def _q_embedding_dedup(sf_dir: str):
    import ray.data as rd

    from abwcf_ray.stages.dedup import embedding_dedup

    _quiet()
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return embedding_dedup(ds, threshold=0.99, planes=8)


def _q_embedding_dedup_exact(sf_dir: str):
    """Degenerate-parameter embedding near-dup: ``planes=0`` collapses the
    random-hyperplane LSH to ONE bucket, so the candidate set is exhaustive
    (recall 1 by construction — no probabilistic argument needed, unlike
    minhash_dedup_exact's perm-count bound) and the pipeline reduces to
    exact all-pairs cosine dedup run through the FULL machinery: slim
    bucket explode -> partitioned pair generation -> distributed exact
    cosine verify (unit-vector payloads cross the exchange once) ->
    connected components -> label assignment. SQL-checkable with
    list_cosine_similarity + a recursive-CTE transitive closure. Threshold
    0.4 sits in a measured gap of the testdata's pairwise-cosine
    distribution (nearest pairs 0.3994 / 0.4010 at sf0.001, 0.3999 /
    0.4005 at sf0.01), so float32-vs-float64 rounding cannot flip a pair."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import embedding_dedup

    _quiet()
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = embedding_dedup(ds, threshold=0.4, planes=0, tables=1)
    out["is_dup"] = out["is_dup"].astype(np.int64)
    return out


def _q_ngram_dedup(sf_dir: str):
    """n-gram Jaccard dedup at threshold=1.0 with k=1 shingles: duplicate
    <=> EQUAL token sets — distributed LSH candidates + exact set-equality
    verify, and fully SQL-expressible (group by sorted distinct token
    list), so this near-dup family gets a DuckDB value oracle. (Edge the
    oracle would disagree on: two zero-token docs — Jaccard undefined, the
    engine says not-dup, SQL groups them; the testdata has no such docs.)"""
    from abwcf_ray.stages.dedup import ngram_jaccard_dedup

    _quiet()
    out = ngram_jaccard_dedup(
        _docs(sf_dir, ["doc_id", "text"]), shingle_k=1, threshold=1.0
    )
    out["is_dup"] = out["is_dup"].astype(np.int64)
    return out


def _q_curation(sf_dir: str):
    """Web-text curation flagship: quality filter (word-count bounds +
    integer-exact alpha ratio) -> exact dedup keep-min-id; SQL-oracled."""
    from abwcf_ray.pipelines.curate import curate

    _quiet()
    out = curate(
        _docs(sf_dir, ["doc_id", "text"]), min_words=25, max_words=80
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_langid_fingerprint(sf_dir: str):
    from abwcf_ray.stages.text import add_fingerprint, add_lang_id

    _quiet()
    ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(add_lang_id, batch_format="pyarrow")
        .map_batches(add_fingerprint, batch_format="pyarrow")
    )
    out = ds.select_columns(["doc_id", "lang_id", "fingerprint"]).to_pandas()
    out["fingerprint"] = out["fingerprint"].astype("int64", errors="ignore")
    return out


def _q_lang_id(sf_dir: str):
    """Language ID alone (split from langid_fingerprint so the stopword-
    profile heuristic gets a DuckDB value oracle — the fingerprint half
    uses a custom 64-bit hash SQL cannot reproduce)."""
    from abwcf_ray.stages.text import add_lang_id

    _quiet()
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_lang_id, batch_format="pyarrow"
    )
    return ds.select_columns(["doc_id", "lang_id"]).to_pandas()


def _q_stratified_sample(sf_dir: str):
    """Exact per-language quota sample (40 docs/lang) via the two-level
    sampler (per-block partial top-quota + exact sharded merge) — the
    deterministic Knuth sampling key makes the selected set SQL-checkable."""
    from abwcf_ray.stages.sample import stratified_sample

    _quiet()
    out = stratified_sample(
        _docs(sf_dir, ["doc_id", "lang"]), 40, strata_col="lang"
    ).to_pandas()
    return out[["doc_id", "lang"]].sort_values("doc_id").reset_index(drop=True)


def _q_host_cap(sf_dir: str):
    """Per-host document cap (the C4/Gopher per-domain limit) = stratified
    quota sampling with host strata — run with the driver merge DISABLED so
    the hash(stratum)-sharded distributed merge path itself is SQL-oracled
    (97 strata exercise real fan-out, unlike the 5-lang case)."""
    from abwcf_ray.stages.sample import stratified_sample

    _quiet()

    def with_host(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column(
            "host", pa.array([f"h{i % _HOSTS}.example" for i in d], pa.string())
        )

    ds = _docs(sf_dir, ["doc_id"]).map_batches(with_host, batch_format="pyarrow")
    out = stratified_sample(
        ds, 3, strata_col="host", driver_merge_max_rows=0
    ).to_pandas()
    return out[["doc_id", "host"]].sort_values("doc_id").reset_index(drop=True)


def _orders_customer_join(sf_dir: str, broadcast_max_rows: int):
    import ray.data as rd

    from abwcf_ray.stages.join import equi_join

    _quiet()
    orders = rd.read_parquet(
        str(Path(sf_dir) / "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    )
    cust = rd.read_parquet(
        str(Path(sf_dir) / "customer.parquet"),
        columns=["c_custkey", "c_nationkey", "c_mktsegment"],
    ).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_nationkey", "c_mktsegment"]),
        batch_format="pyarrow",
    )
    out = equi_join(
        orders, cust, on="o_custkey", broadcast_max_rows=broadcast_max_rows
    ).to_pandas()
    return (
        out[["o_orderkey", "o_custkey", "c_nationkey", "c_mktsegment"]]
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )


def _q_orders_join(sf_dir: str):
    """Generic hash equi-join, BROADCAST regime (stages/join.equi_join):
    the dimension side (customer) ships to the object store once and every
    orders batch probes it map-side — zero shuffle."""
    return _orders_customer_join(sf_dir, broadcast_max_rows=2_000_000)


def _q_orders_join_bucketed(sf_dir: str):
    """Same join, BUCKETED big-big regime forced (broadcast_max_rows=0):
    both sides tagged + hash(key)-partitioned in ONE union + ONE keyed
    exchange, per-bucket vectorized pandas merge. Identical oracle."""
    return _orders_customer_join(sf_dir, broadcast_max_rows=0)


def _orders_membership(sf_dir: str, anti: bool, broadcast_max_rows: int):
    import pandas as pd
    import ray.data as rd

    from abwcf_ray.stages.join import semi_join

    _quiet()
    orders = rd.read_parquet(
        str(Path(sf_dir) / "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    )
    # right side: customers in nations 0-4 only, so BOTH the semi and the
    # anti direction are non-empty (every customer has an order in the
    # synthetic tables — a plain "customers with no orders" oracle would be
    # an empty set, i.e. no signal)
    cust = (
        rd.read_parquet(
            str(Path(sf_dir) / "customer.parquet"),
            columns=["c_custkey", "c_nationkey"],
        )
        .filter(expr="c_nationkey < 5")
        .select_columns(["c_custkey"])
        .map_batches(
            lambda t: t.rename_columns(["o_custkey"]), batch_format="pyarrow"
        )
    )
    out = semi_join(
        orders, cust, on="o_custkey", anti=anti,
        broadcast_max_rows=broadcast_max_rows,
    ).to_pandas()
    if out.empty:
        out = pd.DataFrame({
            "o_orderkey": pd.Series([], dtype="int64"),
            "o_custkey": pd.Series([], dtype="int64"),
        })
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    out["o_custkey"] = out["o_custkey"].astype("int64")
    return (
        out[["o_orderkey", "o_custkey"]]
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )


def _q_orders_semi(sf_dir: str):
    """Semi join (stages/join.semi_join), BROADCAST regime: orders placed by
    nation-0..4 customers; the right side's distinct key hashes ship once
    (8 B/key), left filters map-side — zero shuffle."""
    return _orders_membership(sf_dir, anti=False, broadcast_max_rows=8_000_000)


def _q_orders_anti(sf_dir: str):
    """Anti join (NOT EXISTS), BROADCAST regime: orders NOT placed by
    nation-0..4 customers."""
    return _orders_membership(sf_dir, anti=True, broadcast_max_rows=8_000_000)


def _q_orders_semi_bloom(sf_dir: str):
    """Semi join, BLOOM + BUCKETED EXACT regime forced: a distributed bloom
    build prunes left rows map-side (definite-absent rows never enter the
    exchange); the bloom-positive residue is exactly verified in one
    hash(key)-partitioned exchange. Identical oracle to orders_semi."""
    return _orders_membership(sf_dir, anti=False, broadcast_max_rows=0)


def _q_orders_anti_bloom(sf_dir: str):
    """Anti join, BLOOM + BUCKETED EXACT regime forced: bloom-absent left
    rows are emitted straight to the output (exact: no false negatives);
    only the residue shuffles. Identical oracle to orders_anti."""
    return _orders_membership(sf_dir, anti=True, broadcast_max_rows=0)


def _orders_customer_left_join(sf_dir: str, broadcast_max_rows: int):
    import ray.data as rd

    from abwcf_ray.stages.join import equi_join

    _quiet()
    orders = rd.read_parquet(
        str(Path(sf_dir) / "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    )
    # right side restricted to nations 0-4 so a real slice of the left is
    # UNMATCHED — the left-join semantics (unmatched rows kept exactly once,
    # right columns null) are what the oracle verifies; sentinels replace
    # the nulls on both sides so the value compare is dtype-exact
    cust = (
        rd.read_parquet(
            str(Path(sf_dir) / "customer.parquet"),
            columns=["c_custkey", "c_nationkey", "c_mktsegment"],
        )
        .filter(expr="c_nationkey < 5")
        .map_batches(
            lambda t: t.rename_columns(
                ["o_custkey", "c_nationkey", "c_mktsegment"]
            ),
            batch_format="pyarrow",
        )
    )
    out = equi_join(
        orders, cust, on="o_custkey", how="left",
        broadcast_max_rows=broadcast_max_rows,
    ).to_pandas()
    out["c_nationkey"] = out["c_nationkey"].fillna(-1).astype("int64")
    out["c_mktsegment"] = out["c_mktsegment"].fillna("").astype(str)
    return (
        out[["o_orderkey", "o_custkey", "c_nationkey", "c_mktsegment"]]
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )


def _q_orders_left_join(sf_dir: str):
    """LEFT OUTER hash equi-join, BROADCAST regime (stages/join.equi_join
    how='left'): unmatched orders keep exactly one row with null right
    columns (sentinel-filled identically in the SQL)."""
    return _orders_customer_left_join(sf_dir, broadcast_max_rows=2_000_000)


def _q_orders_left_join_bucketed(sf_dir: str):
    """Same left join, BUCKETED big-big regime forced: one union + one
    keyed exchange, per-bucket pandas left merge with exact nullable-int
    restore. Identical oracle."""
    return _orders_customer_left_join(sf_dir, broadcast_max_rows=0)


def _q_user_running(sf_dir: str):
    """Keyed window functions (stages/winfun.keyed_window_functions): per
    user, ordered by (ts, event_id) — ROW_NUMBER, running SUM of the props
    payload length, and LAG of the event timestamp (inter-arrival gap
    base). ONE hash(user)-keyed exchange + per-shard vectorized segmented
    scans; mirrors ROW_NUMBER/SUM/LAG OVER (PARTITION BY user_id ORDER BY
    ts, event_id) exactly, all-int64."""
    import ray.data as rd

    from abwcf_ray.stages.winfun import keyed_window_functions

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "ts", "user_id", "props"],
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "plen": pc.utf8_length(t.column("props")).cast(pa.int64()),
            }
        )

    out = keyed_window_functions(
        ev.map_batches(prep, batch_format="pyarrow"),
        key_col="user_id",
        order_cols=["ts_us", "event_id"],
        sum_col="plen",
        lag_col="ts_us",
    ).to_pandas()
    return (
        out[["event_id", "user_id", "ts_us", "plen", "rn", "run_sum", "lag_prev"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def _q_doc_rank(sf_dir: str):
    """Global total-order rank (stages/rank.global_rank): exact 1-based
    ROW_NUMBER of every document under (n_chars, doc_id) — the distributed
    range-partitioned sort with exact offsets (one histogram pass derives
    boundaries AND per-range counts, one range exchange ranks). This is
    the one operator whose correctness an order-insensitive value compare
    can only see through explicit rank values."""
    import ray.data as rd

    from abwcf_ray.stages.rank import global_rank

    _quiet()
    ds = rd.read_parquet(
        str(Path(sf_dir) / "documents.parquet"), columns=["doc_id", "n_chars"]
    )
    out = global_rank(ds, key_col="n_chars", id_col="doc_id").to_pandas()
    return (
        out[["doc_id", "n_chars", "rank"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_user_rank_tiles(sf_dir: str):
    """DENSE_RANK + NTILE over the keyed window exchange
    (stages/winfun.keyed_window_functions): per user, events ranked
    tie-aware by payload length (dense_rank increments on value change,
    not row change — ts has heavy ties so the two genuinely differ) and
    bucketed into quartiles with standard SQL NTILE fill (first cnt%4
    buckets one row fatter). Same ONE hash(user)-keyed exchange as
    user_running; all-int64."""
    import ray.data as rd

    from abwcf_ray.stages.winfun import keyed_window_functions

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "props"],
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "plen": pc.utf8_length(t.column("props")).cast(pa.int64()),
            }
        )

    out = keyed_window_functions(
        ev.map_batches(prep, batch_format="pyarrow"),
        key_col="user_id",
        order_cols=["plen", "event_id"],
        dense_rank_cols=["plen"],
        ntile=4,
    )
    return (
        out.to_pandas()[["event_id", "user_id", "plen", "dense_rank", "ntile"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def _q_funnel(sf_dir: str):
    """Funnel analysis (stages/funnel.funnel_counts): users completing
    view -> click -> purchase as an ORDERED subsequence of their event
    history — one hash(user)-keyed exchange, per-shard vectorized greedy
    earliest-match (one segmented-min per funnel step, no per-user loop).
    The SQL twin chains per-step MIN(rn) subqueries over the same
    (ts, event_id) ordering."""
    import ray.data as rd

    from abwcf_ray.stages.funnel import funnel_counts

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "event_type": t.column("event_type"),
            }
        )

    return funnel_counts(
        ev.map_batches(prep, batch_format="pyarrow"),
        user_col="user_id",
        order_cols=["ts_us", "event_id"],
        type_col="event_type",
        steps=["view", "click", "purchase"],
    )


def _q_lang_source_rollup(sf_dir: str):
    """ROLLUP aggregation (stages/rollup.rollup_counts): doc count +
    total chars at (lang, source), (lang), and () granularities in ONE
    pass — map-side combiner at the finest level, one keyed merge
    (exchange O(distinct combos)), coarser levels re-aggregated from the
    merged finest table. Mirrors GROUP BY ROLLUP(lang, source)."""
    from abwcf_ray.stages.rollup import rollup_counts

    _quiet()
    ds = _docs(sf_dir, ["lang", "source", "n_chars"])
    return rollup_counts(ds, group_cols=["lang", "source"], sum_col="n_chars")


def _lang_bigrams(sf_dir: str, lang: str):
    """documents -> one exploded ``w`` column of consecutive-token BIGRAMS
    from the given language's docs. Bigrams, not unigrams, on purpose: the
    fixture corpus draws every language from ONE 31-token vocabulary, so
    unigram sets are identical across languages (set ops degenerate);
    bigram coverage differs per language. Vectorized: findall-explode +
    per-doc groupby shift — no per-row Python."""

    def explode(t: pa.Table) -> pa.Table:
        pdf = t.to_pandas()
        ex = pdf.loc[pdf["lang"] == lang, "text"].str.findall(r"\S+").explode()
        nxt = ex.groupby(level=0).shift(-1)
        big = (ex + " " + nxt).dropna()
        return pa.table({"w": pa.array(big.to_numpy(), pa.string())})

    return _docs(sf_dir, ["text", "lang"]).map_batches(
        explode, batch_format="pyarrow"
    )


def _q_bigram_setop(sf_dir: str, op: str):
    from abwcf_ray.stages.setops import set_op

    _quiet()
    out = set_op(
        _lang_bigrams(sf_dir, "en"),
        _lang_bigrams(sf_dir, "de"),
        op=op,
        key_cols=["w"],
    ).to_pandas()
    if out.empty:  # empty Datasets surface with no columns
        return pd.DataFrame({"w": pd.Series([], dtype=object)})
    return out.sort_values("w").reset_index(drop=True)


def _q_bigram_intersect(sf_dir: str):
    """Distributed INTERSECT DISTINCT (stages/setops.set_op): bigrams the
    English and German slices share — per-batch distinct combiner,
    plan-level union, ONE keyed tuple exchange, per-partition presence-flag
    merge. Mirrors SQL INTERSECT exactly."""
    return _q_bigram_setop(sf_dir, "intersect")


def _q_bigram_except(sf_dir: str):
    """Distributed EXCEPT DISTINCT (stages/setops.set_op): bigrams only
    the English slice has. Same shape as bigram_intersect; mirrors SQL
    EXCEPT exactly."""
    return _q_bigram_setop(sf_dir, "except")


def _q_lang_source_stats(sf_dir: str):
    """Grouped moment statistics (stages/stats.group_stats): per
    (lang, source), exact int64 count/sum/sumsq/min/max of n_chars in ONE
    combiner + keyed-merge pass, with mean and population variance as
    SINGLE IEEE divisions of the exact moments — the SQL twin computes the
    identical expressions (NOT var_pop(), whose Welford recurrence rounds
    differently), so the float columns hash-match bit-for-bit."""
    from abwcf_ray.stages.stats import group_stats

    _quiet()
    out = group_stats(
        _docs(sf_dir, ["lang", "source", "n_chars"]),
        group_cols=["lang", "source"],
        value_col="n_chars",
    ).to_pandas()
    out = out.rename(
        columns={
            "count": "n_rows",
            "sum": "sum_v",
            "sumsq": "sumsq_v",
            "min": "min_v",
            "max": "max_v",
        }
    )
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


def _q_lang_source_cube(sf_dir: str):
    """CUBE aggregation (stages/rollup.cube_counts): doc count + total
    chars at ALL FOUR subsets of (lang, source) — including the
    rollup-unreachable (source)-only slice — still ONE pass over the rows
    (every level derives from the shared merged finest table). Mirrors
    GROUP BY CUBE(lang, source) with the GROUPING() bitmask."""
    from abwcf_ray.stages.rollup import cube_counts

    _quiet()
    ds = _docs(sf_dir, ["lang", "source", "n_chars"])
    return cube_counts(ds, group_cols=["lang", "source"], sum_col="n_chars")


def _host_word_pairs(sf_dir: str):
    """documents -> exploded (host, word) rows: host from the standard
    doc_id % 97 derivation, words = whitespace tokens (the term_postings
    tokenization, regexp-mirrorable)."""
    def explode(t: pa.Table) -> pa.Table:
        pdf = t.select(["doc_id", "text"]).to_pandas()
        host = "h" + (pdf["doc_id"] % _HOSTS).astype(str) + ".example"
        ex = pd.DataFrame({"host": host, "w": pdf["text"].str.findall(r"\S+")})
        ex = ex.explode("w").dropna(subset=["w"])
        return pa.table(
            {
                "host": pa.array(ex["host"].to_numpy(), pa.string()),
                "w": pa.array(ex["w"].astype(str).to_numpy(), pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )


def _q_host_distinct_terms(sf_dir: str):
    """Per-group exact COUNT(DISTINCT): distinct terms per host
    (stages/distinct.group_distinct_count) — pair-hash-partitioned exact
    dedupe, additive per-partition partials, combo-bounded final merge.
    64-bit hash item identity (the decontaminate soundness contract)."""
    from abwcf_ray.stages.distinct import group_distinct_count

    _quiet()
    out = group_distinct_count(
        _host_word_pairs(sf_dir), group_col="host", item_col="w"
    ).to_pandas()
    return out.sort_values("host").reset_index(drop=True)


def _q_host_distinct_hll(sf_dir: str):
    """Per-group HLL distinct estimate (stages/distinct.group_distinct_hll):
    one 2^p-byte register vector per (block, host) crosses the exchange
    regardless of term cardinality. Approximate by nature — rows-only
    check; the error bound is pytest-verified against the exact sibling
    (tests/test_distinct.py)."""
    from abwcf_ray.stages.distinct import group_distinct_hll

    _quiet()
    out = group_distinct_hll(
        _host_word_pairs(sf_dir), group_col="host", item_col="w", p=12
    ).to_pandas()
    return out.sort_values("host").reset_index(drop=True)


def _q_orders_full_join(sf_dir: str):
    """FULL OUTER hash equi-join (stages/join.equi_join how='outer',
    bucketed by construction — only the keyed exchange can emit each
    unmatched right row exactly once). Left = orders of custkeys < 100,
    right = customers 50..149, so BOTH unmatched directions are
    non-empty; nulls sentinel-filled identically in the SQL."""
    import ray.data as rd

    from abwcf_ray.stages.join import equi_join

    _quiet()
    orders = rd.read_parquet(
        str(Path(sf_dir) / "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    ).filter(expr="o_custkey < 100")
    cust = (
        rd.read_parquet(
            str(Path(sf_dir) / "customer.parquet"),
            columns=["c_custkey", "c_nationkey"],
        )
        .filter(expr="c_custkey >= 50 and c_custkey < 150")
        .map_batches(
            lambda t: t.rename_columns(["o_custkey", "c_nationkey"]),
            batch_format="pyarrow",
        )
    )
    out = equi_join(orders, cust, on="o_custkey", how="outer").to_pandas()
    out["o_orderkey"] = out["o_orderkey"].fillna(-1).astype("int64")
    out["o_custkey"] = out["o_custkey"].astype("int64")
    out["c_nationkey"] = out["c_nationkey"].fillna(-1).astype("int64")
    return (
        out[["o_orderkey", "o_custkey", "c_nationkey"]]
        .sort_values(["o_orderkey", "o_custkey"])
        .reset_index(drop=True)
    )


def _q_orders_revenue_top(sf_dir: str):
    """TPC-H Q3-style COMPOSED pipeline: semi-join (customers in the
    BUILDING segment -> their orders) -> semi-join (their lineitems) ->
    keyed revenue aggregate -> exact distributed top-10 by (revenue desc,
    orderkey). Revenue is integer-exact: floor(price*100) and
    floor(discount*100) are single IEEE ops computed identically in SQL,
    then pure int64 arithmetic — so the whole four-operator composition
    value-hashes against DuckDB."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg
    from abwcf_ray.stages.join import semi_join
    from abwcf_ray.stages.sample import topk_per_group

    _quiet()
    cust = (
        rd.read_parquet(
            str(Path(sf_dir) / "customer.parquet"),
            columns=["c_custkey", "c_mktsegment"],
        )
        .filter(expr="c_mktsegment == 'BUILDING'")
        .select_columns(["c_custkey"])
        .map_batches(
            lambda t: t.rename_columns(["o_custkey"]), batch_format="pyarrow"
        )
    )
    orders = semi_join(
        rd.read_parquet(
            str(Path(sf_dir) / "orders.parquet"),
            columns=["o_orderkey", "o_custkey"],
        ),
        cust,
        on="o_custkey",
    ).select_columns(["o_orderkey"]).map_batches(
        lambda t: t.rename_columns(["l_orderkey"]), batch_format="pyarrow"
    )
    items = semi_join(
        rd.read_parquet(
            str(Path(sf_dir) / "lineitem.parquet"),
            columns=["l_orderkey", "l_extendedprice", "l_discount"],
        ),
        orders,
        on="l_orderkey",
    )

    def revenue(t: pa.Table) -> pa.Table:
        p = np.floor(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        d = np.floor(
            t.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": t.column("l_orderkey"),
                "revenue": pa.array(p * (100 - d), pa.int64()),
            }
        )

    agg = keyed_hash_agg(
        items.map_batches(revenue, batch_format="pyarrow"),
        lambda b: b.column("o_orderkey").to_numpy(zero_copy_only=False),
        lambda g: g.groupby("o_orderkey", as_index=False).agg(
            revenue=("revenue", "sum")
        ),
    ).map_batches(
        lambda t: t.append_column("g", pa.array(np.zeros(t.num_rows, np.int64))),
        batch_format="pyarrow",
    )
    out = topk_per_group(
        agg, 10, group_col="g", score_col="revenue", id_col="o_orderkey"
    ).to_pandas()
    out["revenue"] = out["revenue"].astype("int64")
    return (
        out[["o_orderkey", "revenue"]]
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )


def _q_big_orders(sf_dir: str):
    """TPC-H Q18-style COMPOSED pipeline (large-volume customer):
    per-order quantity sums with map-side partials -> HAVING sum > 250
    -> inner join back to orders (broadcast: the qualifying set is
    HAVING-bounded) -> broadcast customer-name join -> exact distributed
    top-100 by the MULTI-KEY order (o_totalprice DESC, o_orderdate,
    o_orderkey) via topk_per_group's lexicographic sort keys. Quantity
    sums are pure int64; price/date are carried untouched, so the whole
    composition value-hashes against DuckDB."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg
    from abwcf_ray.stages.join import equi_join
    from abwcf_ray.stages.sample import topk_per_group

    _quiet()
    li = rd.read_parquet(
        str(Path(sf_dir) / "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity"],
    )

    def qty(t: pa.Table) -> pa.Table:
        q = t.column("l_quantity").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {"o_orderkey": t.column("l_orderkey"), "q": pa.array(q, pa.int64())}
        )

    sums = keyed_hash_agg(
        li.map_batches(qty, batch_format="pyarrow"),
        lambda b: b.column("o_orderkey").to_numpy(zero_copy_only=False),
        lambda g: g.groupby("o_orderkey", as_index=False).agg(
            sum_qty=("q", "sum")
        ),
    ).filter(expr="sum_qty > 250")

    orders = rd.read_parquet(
        str(Path(sf_dir) / "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    )

    def day(t: pa.Table) -> pa.Table:
        d = (
            t.column("o_orderdate")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .view(np.int64)
            // 86_400_000_000
        )
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "o_totalprice": t.column("o_totalprice"),
                "o_orderdate_day": pa.array(d, pa.int64()),
            }
        )

    j = equi_join(orders.map_batches(day, batch_format="pyarrow"), sums,
                  on="o_orderkey")
    cust = rd.read_parquet(
        str(Path(sf_dir) / "customer.parquet"),
        columns=["c_custkey", "c_name"],
    ).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_name"]),
        batch_format="pyarrow",
    )
    j2 = equi_join(j, cust, on="o_custkey").map_batches(
        lambda t: t.append_column(
            "g", pa.array(np.zeros(t.num_rows, np.int64))
        ),
        batch_format="pyarrow",
    )
    out = topk_per_group(
        j2,
        100,
        group_col="g",
        score_col=["o_totalprice", "o_orderdate_day"],
        descending=[True, False],
        id_col="o_orderkey",
    ).to_pandas()
    out["sum_qty"] = out["sum_qty"].astype("int64")
    return (
        out[
            [
                "c_name",
                "o_custkey",
                "o_orderkey",
                "o_orderdate_day",
                "o_totalprice",
                "sum_qty",
            ]
        ]
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )


def _q_top_per_host(sf_dir: str):
    """Exact top-5 longest documents per host (the per-domain best-quality
    pick): two-level top-k — per-block prune to <=k per group, then one
    hash(host)-keyed exchange merges each group wholly in one shard
    (stages/sample.topk_per_group). Mirrors ROW_NUMBER() OVER (PARTITION BY
    host ORDER BY len DESC, doc_id) <= 5 exactly, ties included."""
    from abwcf_ray.stages.sample import topk_per_group

    _quiet()

    def prep(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tl = pc.utf8_length(b.column("text")).cast(pa.int64())
        return pa.table(
            {
                "doc_id": pa.array(d, pa.int64()),
                "host": pa.array([f"h{i % _HOSTS}.example" for i in d], pa.string()),
                "text_len": tl,
            }
        )

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(prep, batch_format="pyarrow")
    out = topk_per_group(
        ds, 5, group_col="host", score_col="text_len", id_col="doc_id"
    ).to_pandas()
    return out[["doc_id", "host", "text_len"]].sort_values("doc_id").reset_index(
        drop=True
    )


def _q_term_postings(sf_dir: str):
    """Inverted-index build (stages/index.term_postings): word ->
    document frequency + ascending comma-joined posting list, for words in
    >= max(2, n_docs/50) distinct docs. Exchange carries distinct
    (word, doc_id) pairs only; per-term merge via the keyed-partition
    idiom (never a full-term-domain sort shuffle)."""
    from abwcf_ray.stages.index import term_postings

    _quiet()
    docs = _docs(sf_dir, ["doc_id", "text"])
    thr = max(2, docs.count() // 50)
    out = term_postings(docs, min_df=thr).to_pandas()
    return out.sort_values("word").reset_index(drop=True)


def _q_sample_rate(sf_dir: str):
    """Shuffle-free deterministic 35% hash sample (pure row filter)."""
    from abwcf_ray.stages.sample import sample_by_rate

    _quiet()
    return sample_by_rate(_docs(sf_dir, ["doc_id"]), 0.35).to_pandas()


def _q_repetition_signals(sf_dir: str):
    """Gopher-style word/bigram repetition quality signals. Fractions are
    single IEEE divisions of exact integer counts on both sides, so the
    float columns hash-match without a rounding step."""
    from abwcf_ray.stages.text import add_repetition_signals

    _quiet()
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_repetition_signals, batch_format="pyarrow"
    )
    return ds.select_columns(
        ["doc_id", "n_words", "top_word_frac", "dup_word_frac", "top_bigram_frac"]
    ).to_pandas()


def _q_pii_scrub(sf_dir: str):
    """PII redaction over documents with deterministic synthetic contact
    strings appended (the fixture corpus contains no PII, so the query
    CONSTRUCTS it — identically in SQL — to make the redaction
    non-degenerate: emails on doc_id%3!=1, phones on doc_id%3!=0)."""
    from abwcf_ray.stages.text import scrub_pii

    _quiet()

    def synth(batch: pa.Table) -> pa.Table:
        import pandas as pd

        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch.column("text").to_pandas().astype("string").fillna("")
        sd = pd.Series(d).astype(str)
        m = d % 3
        email = (" reach user" + sd + "@mail.example").where(m != 1, "")
        phone = (" call +1-555-" + pd.Series(1000 + d % 9000).astype(str)).where(
            m != 0, ""
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "text": pa.array((t + email.values + phone.values).tolist(), pa.string()),
            }
        )

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(synth, batch_format="pyarrow")
    out = ds.map_batches(scrub_pii, batch_format="pyarrow")
    return out.select_columns(["doc_id", "text_clean", "n_emails", "n_phones"]).to_pandas()


_DECONTAM_K = 4  # word 4-grams: non-degenerate on the fixture (real runs use 13)
_DECONTAM_MOD = 20  # benchmark set = docs with doc_id % 20 == 0


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination (broadcast semi-join on word-gram hashes):
    returns the CLEAN corpus (docs sharing no word 4-gram with the
    benchmark slice) plus each doc's distinct-gram count. Gram identity is
    the 64-bit token-hash mix — string-exact up to 64-bit collisions, the
    same soundness contract as the ngram_dedup oracle."""
    from abwcf_ray.stages.decontam import decontaminate

    _quiet()
    ds = _docs(sf_dir, ["doc_id", "text"])

    def bench_slice(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(d % _DECONTAM_MOD == 0))

    bench_texts = (
        ds.map_batches(bench_slice, batch_format="pyarrow").to_pandas()["text"].tolist()
    )
    out = decontaminate(ds, bench_texts, k=_DECONTAM_K).to_pandas()
    clean = out[~out["contaminated"]]
    return clean[["doc_id", "n_grams"]].sort_values("doc_id").reset_index(drop=True)


def _q_mixture_epochs(sf_dir: str):
    """Deterministic epoch replication for data mixtures: en upsampled
    2.5x, de downsampled to 0.5x, everything else 1.0 — copy counts are a
    pure function of (lang weight, Knuth key), so SQL reproduces them."""
    from abwcf_ray.stages.sample import replicate_by_weight

    _quiet()
    out = replicate_by_weight(
        _docs(sf_dir, ["doc_id", "lang"]), {"en": 2.5, "de": 0.5}
    ).to_pandas()
    return out[["doc_id", "lang", "epoch"]].sort_values(
        ["doc_id", "epoch"]
    ).reset_index(drop=True)


def _q_chunk_docs(sf_dir: str):
    """Fixed-size token chunking (sequence-packing prep): 32-word windows,
    remainder kept; fully vectorized (polars list.slice with expression
    offsets — no per-chunk Python)."""
    from abwcf_ray.stages.packing import chunk_documents

    _quiet()
    out = chunk_documents(_docs(sf_dir, ["doc_id", "text"]), 32).to_pandas()
    return out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


def _built_paragraph_corpus(sf_dir: str):
    """Deterministic multi-paragraph corpus for the paragraph operators:
    the fixture documents are single-line and all-distinct, so (like
    ``_q_pii_scrub``) the query CONSTRUCTS the duplication — identically
    in SQL: doc i's text is text(i), then text((7i+1)%N) when i%3!=0,
    then a blank line when i%5==0, then text((13i+2)%N) when i%4!=0.
    Each distinct paragraph then occurs 1-3 times corpus-wide."""
    import pandas as pd
    import ray.data as rd

    base = (
        _docs(sf_dir, ["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    ids = base["doc_id"].to_numpy()
    n = len(ids)
    if not (ids == np.arange(n)).all():
        raise AssertionError("paragraph queries require contiguous doc_ids")
    txt = base["text"].tolist()
    built = []
    for i in ids:
        t = txt[i]
        if i % 3 != 0:
            t += "\n" + txt[(i * 7 + 1) % n]
        if i % 5 == 0:
            t += "\n"
        if i % 4 != 0:
            t += "\n" + txt[(i * 13 + 2) % n]
        built.append(t)
    return rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": built}))


def _q_paragraph_dedup(sf_dir: str):
    """First-wins exact paragraph dedup (RefinedWeb/MassiveText-style line
    dedup): paragraph text never enters an exchange — 16-byte (hash, okey)
    occurrence pairs settle winners inside coarse hash partitions, then
    the drop set broadcasts (doc-co-partitioned reassembly past the
    broadcast bound). Blank lines are always kept."""
    from abwcf_ray.stages.paragraphs import paragraph_dedup

    _quiet()
    out = paragraph_dedup(_built_paragraph_corpus(sf_dir)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_substr_dedup(sf_dir: str):
    """ExactSubstr dedup (Lee et al. 2022 §3.2) over the constructed
    paragraph corpus: every duplicated >=16-token run is removed from all
    occurrences except the first (by (doc_id, pos)). Gram-granularity
    exact mode (window=1); only 24-byte occurrence rows cross the
    exchange, winners settle in coarse hash partitions, drop spans merge
    via a diff array. The SQL oracle groups by gram STRINGS, so the
    value-hash check also guards the 64-bit gram hashing end-to-end."""
    from abwcf_ray.stages.substr import exact_substring_dedup

    _quiet()
    out = exact_substring_dedup(
        _built_paragraph_corpus(sf_dir), k=16, window=1
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_substr_dedup_winnow(sf_dir: str):
    """The scale lever on ExactSubstr: robust winnowing (Schleimer et al.
    2003) with window=4 shrinks the occurrence exchange ~4x; recall is
    exact only for runs >= k + w - 1, so winnow drop POSITIONS are
    approximate by design. What IS exact — and what this query now
    value-checks against SQL — is the winnowing contract sandwich, per
    doc: (a) winnow never over-drops (its drops are a subset of exact
    k=16 mode's, so n_kept_winnow >= n_kept at k=16 — ``floor_ok``), and
    (b) every doc that exact mode at k' = k + w - 1 = 19 touches is also
    touched by winnow (``caught_ok`` — the Schleimer guarantee that
    shared runs >= k+w-1 select a common fingerprint). The oracle
    recomputes the two exact sides in SQL and pins both flags to 1;
    the position-level subset claim is additionally brute-force-tested
    in tests/test_substr.py."""
    from abwcf_ray.stages.substr import exact_substring_dedup

    _quiet()
    corp = _built_paragraph_corpus(sf_dir)

    def slim(k: int, window: int, names: dict[str, str]):
        df = exact_substring_dedup(corp, k=k, window=window).to_pandas()
        return df[["doc_id", *names]].rename(columns=names)

    win = slim(16, 4, {"n_kept": "n_kept_win", "n_tokens": "n_tokens"})
    ex16 = slim(16, 1, {"n_kept": "n_kept16"})
    ex19 = slim(19, 1, {"n_kept": "n_kept19"})
    m = win.merge(ex16, on="doc_id").merge(ex19, on="doc_id")
    m["floor_ok"] = (m["n_kept_win"] >= m["n_kept16"]).astype(np.int64)
    m["caught_ok"] = (
        (m["n_kept19"] == m["n_tokens"]) | (m["n_kept_win"] < m["n_tokens"])
    ).astype(np.int64)
    out = m[["doc_id", "n_tokens", "n_kept16", "n_kept19",
             "floor_ok", "caught_ok"]]
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_semdedup(sf_dir: str):
    """SemDeDup (cluster-then-dedup, Abbas et al. 2023) at working
    parameters: k-means into 8 clusters, within-cluster exact-cosine
    dedup. Approximate by design (cross-cluster pairs never considered)
    -> rows-only check; the value oracle is semdedup_exact."""
    import ray.data as rd

    from abwcf_ray.stages.semdedup import semdedup

    _quiet()
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = semdedup(ds, n_clusters=8, threshold=0.4)
    out["is_dup"] = out["is_dup"].astype(np.int64)
    return out


def _q_semdedup_exact(sf_dir: str):
    """Degenerate-parameter SemDeDup: ``n_clusters=1`` makes the k-means
    candidate scope exhaustive, so the FULL machinery (distributed k-means
    fit, nearest-centroid slim explode, partitioned pair generation,
    distributed cosine verify, connected components, labels) must equal
    all-pairs cosine dedup — the same recursive-CTE SQL value oracle as
    embedding_dedup_exact (threshold 0.4 sits in the fixture's measured
    pairwise-cosine gap, so rounding cannot flip a pair)."""
    import ray.data as rd

    from abwcf_ray.stages.semdedup import semdedup

    _quiet()
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = semdedup(ds, n_clusters=1, threshold=0.4)
    out["is_dup"] = out["is_dup"].astype(np.int64)
    return out


def _q_lm_rarity(sf_dir: str):
    """CCNet-style unigram-LM rarity scoring with the corpus as its own
    reference model: vocabulary rank assigned by (count DESC, word ASC)
    over a combiner-bounded groupby, broadcast once as a sorted hash
    array; every doc scored map-side (rank_sum / n_lm_tokens, single IEEE
    division) and bucketed head/middle/tail. Fully SQL-expressible because
    the score is integer rank arithmetic, not a float log-prob."""
    from abwcf_ray.stages.lm import lm_rarity_score

    _quiet()
    out = lm_rarity_score(_docs(sf_dir, ["doc_id", "text"]))
    return (
        out.select_columns(
            ["doc_id", "n_lm_tokens", "rank_sum", "mean_rank", "lm_bucket"]
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_boilerplate(sf_dir: str):
    """Corpus-frequency boilerplate removal (CCNet-style): paragraphs
    occurring >= 3 times corpus-wide are stripped from every document.
    Occurrences never shuffle: per-batch partial counts -> native Sum ->
    the frequent-hash set broadcasts as a sorted array and drops are
    re-derived map-side."""
    from abwcf_ray.stages.paragraphs import remove_boilerplate

    _quiet()
    out = remove_boilerplate(
        _built_paragraph_corpus(sf_dir), min_df=3
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_novel_content(sf_dir: str):
    """The cross-wave novel-content machinery (stages/novel.py) outside the
    crawl: documents split into two synthetic waves (even/odd doc_id),
    processed-checkpoint-shaped parquet on disk, a real content SeenSet
    across both calls — the SQL oracle recomputes first-occurrence-by-wave
    with min-url arbitration."""
    import pandas as pd
    import pyarrow.parquet as _pq

    from abwcf_ray.state.seen import SeenSet
    from abwcf_ray.stages.novel import novel_extracted

    _quiet()
    df = _docs(sf_dir, ["doc_id", "text"]).to_pandas()
    d = df["doc_id"].to_numpy()
    df["url"] = [f"https://h{i % _HOSTS}.example/p{i}" for i in d]
    df["is_html"] = True
    base = Path("/tmp/abwcf_novel_q")
    shutil.rmtree(base, ignore_errors=True)
    for w in (0, 1):
        wdir = base / f"w{w}" / "processed"
        wdir.mkdir(parents=True, exist_ok=True)
        part = df[d % 2 == w][["url", "text", "is_html"]]
        _pq.write_table(
            pa.Table.from_pandas(part, preserve_index=False),
            wdir / "part-0000.parquet",
        )
    content_seen = SeenSet(2)
    frames = []
    for w in (0, 1):
        novel_extracted(base / f"w{w}" / "processed", base / f"w{w}" / "novel",
                        content_seen, wave=w)
        files = sorted((base / f"w{w}" / "novel").glob("*.parquet"))
        if files:
            got = _pq.read_table([str(f) for f in files]).to_pandas()
            got["wave"] = np.int64(w)
            frames.append(got[["url", "wave"]])
    content_seen.shutdown()
    out = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
        {"url": [], "wave": []}
    )
    return out.sort_values(["wave", "url"]).reset_index(drop=True)


def _q_curation_full(sf_dir: str):
    """The fully-composed curation pipeline: quality -> repetition ->
    decontamination -> exact dedup -> per-lang quota sample, one streaming
    filter pass + two bounded exchanges, SQL-oracled end-to-end."""
    from abwcf_ray.pipelines.curate import curate_full

    _quiet()
    ds = _docs(sf_dir, ["doc_id", "text", "lang"])

    def bench_slice(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(d % _DECONTAM_MOD == 0))

    bench_texts = (
        ds.map_batches(bench_slice, batch_format="pyarrow").to_pandas()["text"].tolist()
    )
    out = curate_full(
        ds, bench_texts, decontam_k=_DECONTAM_K, quota=25
    ).to_pandas()
    return out[["doc_id", "lang", "dup_count"]].sort_values("doc_id").reset_index(
        drop=True
    )


def _q_knn_ivf_exact(sf_dir: str):
    """Degenerate-parameter IVF: ``nprobe == nlist`` probes every inverted
    list, so the approximate path must return EXACTLY the brute-force
    cosine top-k — which SQL computes directly. This puts a DuckDB value
    oracle on the whole IVF machinery (k-means fit, list assignment,
    probing, tie-aware partial merge) end-to-end. (A degenerate minhash
    oracle — bands=num_perm, threshold=1.0 ⇔ equal token sets — was
    evaluated and is UNSOUND on this fixture: near-identical token sets at
    Jaccard≈0.98 collide on all 64 components with probability J^64≈0.3,
    and they do in practice; see COVERAGE.md.)"""
    import ray.data as rd

    from abwcf_ray.stages.similarity import knn_ivf

    _quiet()
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    qdf = ds.sort("vec_id").limit(3).to_pandas()
    queries = np.array(list(qdf["embedding"]), dtype=np.float64)
    out = knn_ivf(
        ds, queries, k=5, nlist=8, nprobe=8, query_ids=qdf["vec_id"].to_numpy()
    )
    return out[["query_id", "neighbor_id", "rank"]]


def _crawl_corpus_for(sf_dir: str):
    from abwcf_ray.sources.corpus import generate_corpus

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    n_pages = max(1000, n_docs * 4)
    return generate_corpus(f"/tmp/abwcf_entry_corpus_{n_pages}", n_pages=n_pages, seed=42)


def _q_crawl(sf_dir: str):
    """End-to-end wave crawl over the fixture corpus (sized from sf);
    returns the final frontier (url, status, depth, priority)."""
    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.pipelines.crawl import frontier_dataset, run_crawl

    _quiet()
    corpus = _crawl_corpus_for(sf_dir)
    out_dir = Path(f"/tmp/abwcf_entry_crawl_{corpus.n_pages}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = CrawlConfig(max_waves=3, wave_duration_s=10.0, seen_shards=4,
                      max_crawl_depth=8)
    summary = run_crawl(cfg, corpus, out_dir, log=lambda *_: None)
    df = frontier_dataset(summary.last_wave_dir).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def _q_crawl_cuckoo(sf_dir: str):
    """The same wave crawl on the memory-bounded cuckoo-filter URL-seen
    backend (state/cuckoo.py — the north star's "sharded cuckoo-filter
    URL-seen set", ~2.4 B/url vs 12 B/url exact). Deterministic; at this
    scale the filter has zero false positives, so the result equals
    ``crawl_wave`` exactly (also asserted e2e in
    tests/test_crawl_e2e.py::test_cuckoo_backend_matches_oracle)."""
    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.pipelines.crawl import frontier_dataset, run_crawl

    _quiet()
    corpus = _crawl_corpus_for(sf_dir)
    out_dir = Path(f"/tmp/abwcf_entry_crawl_cuckoo_{corpus.n_pages}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = CrawlConfig(max_waves=3, wave_duration_s=10.0, seen_shards=4,
                      max_crawl_depth=8,
                      seen_backend="cuckoo", seen_cuckoo_capacity=1_000_000)
    summary = run_crawl(cfg, corpus, out_dir, log=lambda *_: None)
    df = frontier_dataset(summary.last_wave_dir).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def _q_anchor_labels(sf_dir: str):
    """Labeled link graph: (dst, anchor-text) edges via the regex anchor
    lexer (functions/htmlx.anchor_texts, the href-absolutization fast
    path shared with the link extractor), then the modal anchor per
    TARGET page — the classic web-ranking page-label asset — through ONE
    hash(dst) exchange (stages/stats.group_mode). The HTML is CONSTRUCTED
    from the documents table by doc_id arithmetic (the
    _built_paragraph_corpus pattern), exercising absolute, root-relative
    and relative hrefs, nested inner markup, whitespace collapsing and
    empty-anchor drops — so the SQL oracle replays the same edge algebra
    without parsing HTML, and the value hash pins the lexer +
    urljoin-absolutization + group_mode end-to-end. The lexer is also
    differential-tested against html.parser over the fixture crawl
    corpus (tests/test_htmlx.py)."""
    from abwcf_ray.functions.htmlx import anchor_texts
    from abwcf_ray.stages.stats import group_mode

    _quiet()
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def build_and_extract(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        dst, anch = [], []
        for i in ids:
            i = int(i)
            src = f"https://h{i % 97}.example/p{i}"
            parts = [f'<html><body><a href="/skip{i}"></a>']
            for j in range(i % 3 + 1):
                tgt = (i * 7 + j * 13 + 1) % n_docs
                lab = f"label {(i + tgt) % 5}"
                if j == 0:
                    parts.append(
                        f'<a href="https://h{tgt % 97}.example/p{tgt}">'
                        f"<b>{lab}</b></a>"
                    )
                elif j == 1:
                    sloppy = lab.replace(" ", " \t ")
                    parts.append(
                        f'<a class="m" href="/p{tgt}">{sloppy}</a>'
                    )
                else:
                    parts.append(f'<a href="p{tgt}"> {lab} </a>')
            parts.append("</body></html>")
            for href, text in anchor_texts("".join(parts), src):
                dst.append(href)
                anch.append(text)
        return pa.table(
            {
                "dst": pa.array(dst, pa.string()),
                "anchor": pa.array(anch, pa.string()),
            }
        )

    ed = _docs(sf_dir, ["doc_id"]).map_batches(
        build_and_extract, batch_format="pyarrow"
    )
    out = group_mode(ed, group_cols=["dst"], value_col="anchor").to_pandas()
    return out.sort_values("dst").reset_index(drop=True)


def _q_llm_corpus(sf_dir: str):
    """The COMPOSED crawl-to-training-corpus pipeline
    (pipelines/llm_corpus.build_training_corpus): wave crawl -> extracted
    text -> quality gate -> exact dedup (min-url winner) -> global-offset
    sequence packing -> BPE train + encode, every phase the production
    stage verbatim. Returns the one-row corpus-mass summary. no_oracle
    (e2e composition like crawl_wave); each constituent op carries its
    own SQL oracle elsewhere, and the composition is pinned by
    tests/test_llm_corpus.py."""
    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.pipelines.llm_corpus import build_training_corpus

    _quiet()
    corpus = _crawl_corpus_for(sf_dir)
    out_dir = Path(f"/tmp/abwcf_llm_corpus_{corpus.n_pages}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = CrawlConfig(max_waves=3, wave_duration_s=10.0, seen_shards=4,
                      max_crawl_depth=8)
    run_crawl(cfg, corpus, out_dir, log=lambda *_: None)
    return build_training_corpus(out_dir)


def _graph_edges(sf_dir: str):
    """Deterministic synthetic link graph over documents (node = doc_id,
    dense 0..n-1): out-degree 1 + doc_id % 3, j-th link target
    (doc_id*1103 + j*7919 + 31) % n, self-loops dropped. The EXACT same
    derivation is written inline in the SQL oracles (_GRAPH_EDGES_SQL) —
    the same shared-synthesis pattern as _FRONTIER_SQL."""
    docs = _docs(sf_dir, ["doc_id"])
    n = docs.count()

    def explode(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        deg = 1 + (d % 3)
        src = np.repeat(d, deg)
        j = np.arange(len(src), dtype=np.int64) - np.repeat(np.cumsum(deg) - deg, deg)
        dst = (src * 1103 + j * 7919 + 31) % n
        keep = dst != src
        return pa.table(
            {
                "src": pa.array(src[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
            }
        )

    return docs.map_batches(explode, batch_format="pyarrow"), n


def _graph_nodes(sf_dir: str):
    return _docs(sf_dir, ["doc_id"]).map_batches(
        lambda b: pa.table({"node": b.column("doc_id").cast(pa.int64())}),
        batch_format="pyarrow",
    )


def _asof_impl(sf_dir: str, bucket_span_us):
    import pyarrow.compute as pc
    import ray.data as rd

    from abwcf_ray.stages.asof import asof_join

    _quiet()
    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value", "event_type"],
    )
    left = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "purchase")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    right = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "click")).select(
            ["event_id", "user_id", "ts", "value"]
        ),
        batch_format="pyarrow",
    )
    out = asof_join(
        left,
        right,
        key_col="user_id",
        ts_col="ts",
        left_cols=["event_id", "user_id", "ts"],
        payload_cols=["event_id", "value"],
        bucket_span_us=bucket_span_us,
    ).to_pandas()
    df = pd.DataFrame(
        {
            "user_id": out["_key"].astype("int64"),
            "ts_us": out["_ts"].astype("int64"),
            "event_id": out["event_id"].astype("int64"),
            "click_id": out["event_id_r"].fillna(-1).astype("int64"),
            "click_value": out["value_r"].fillna(-1.0).astype("float64"),
            "matched": out["matched"].astype("int64"),
        }
    )
    return df.sort_values("event_id").reset_index(drop=True)


def _q_asof_join(sf_dir: str):
    """As-of temporal join: every purchase event joined to the user's
    latest prior-or-equal click (single-stage hash(key) partitioning, one
    vectorized merge_asof kernel per partition). Oracle: DuckDB's native
    ASOF LEFT JOIN."""
    return _asof_impl(sf_dir, None)


def _q_asof_join_forward(sf_dir: str):
    """FORWARD as-of join — every purchase joined to the user's EARLIEST
    later-or-equal click ("time to next touchpoint"): the backward
    stage run on NEGATED microsecond timestamps (order reversal maps
    l.ts <= r.ts onto the backward l.ts >= r.ts including equality), so
    the whole asof machinery — partitioning, carry-ins, merge kernel —
    is reused unchanged. Oracle: DuckDB ASOF LEFT JOIN with <=."""
    import ray.data as rd

    from abwcf_ray.stages.asof import asof_join

    _quiet()
    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value", "event_type"],
    )

    def neg(cols):
        def fn(b: pa.Table) -> pa.Table:
            data = {c: b.column(c) for c in cols}
            data["nts"] = pc.multiply(
                b.column("ts").cast(pa.int64()), pa.scalar(-1, pa.int64())
            )
            return pa.table(data)

        return fn

    left = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "purchase")),
        batch_format="pyarrow",
    ).map_batches(neg(["event_id", "user_id"]), batch_format="pyarrow")
    right = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "click")),
        batch_format="pyarrow",
    ).map_batches(neg(["event_id", "user_id", "value"]), batch_format="pyarrow")
    out = asof_join(
        left,
        right,
        key_col="user_id",
        ts_col="nts",
        left_cols=["event_id", "user_id", "nts"],
        payload_cols=["event_id", "value"],
    ).to_pandas()
    df = pd.DataFrame(
        {
            "user_id": out["_key"].astype("int64"),
            "ts_us": -out["_ts"].astype("int64"),
            "event_id": out["event_id"].astype("int64"),
            "click_id": out["event_id_r"].fillna(-1).astype("int64"),
            "click_value": out["value_r"].fillna(-1.0).astype("float64"),
            "matched": out["matched"].astype("int64"),
        }
    )
    return df.sort_values("event_id").reset_index(drop=True)


def _q_asof_join_bucketed(sf_dir: str):
    """The same join forced onto the SKEW-SAFE two-stage path (hash(key,
    day-bucket) partitioning + latest-right carry-in summaries) — the hot
    key never forms one unbounded partition; same ASOF oracle because the
    paths are exact and bit-identical."""
    return _asof_impl(sf_dir, 86_400_000_000)


def _range_impl(sf_dir: str, bucket_span_us):
    import pyarrow.compute as pc
    import ray.data as rd

    from abwcf_ray.stages.asof import range_join_agg

    _quiet()
    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    left = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "purchase")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    right = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "click")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    out = range_join_agg(
        left,
        right,
        key_col="user_id",
        ts_col="ts",
        left_cols=["event_id", "user_id", "ts"],
        agg_col="event_id",
        width_us=86_400_000_000,
        bucket_span_us=bucket_span_us,
    ).to_pandas()
    df = pd.DataFrame(
        {
            "user_id": out["_key"].astype("int64"),
            "ts_us": out["_ts"].astype("int64"),
            "event_id": out["event_id"].astype("int64"),
            "n_in_window": out["n_in_window"].astype("int64"),
            "sum_in_window": out["sum_in_window"].astype("int64"),
        }
    )
    return df.sort_values("event_id").reset_index(drop=True)


def _q_range_pairs(sf_dir: str):
    """Range join, pair-explode form: every (purchase, click) pair of the
    same user within the purchase's preceding 12 h — contiguous-range
    gather per partition (two merge_asof position probes + one
    repeat/cumsum explode, group-start clamped). Oracle: plain inequality
    INNER join."""
    import pyarrow.compute as pc
    import ray.data as rd

    from abwcf_ray.stages.asof import range_join_pairs

    _quiet()
    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    left = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "purchase")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    right = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "click")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    out = range_join_pairs(
        left,
        right,
        key_col="user_id",
        ts_col="ts",
        left_id_col="event_id",
        right_id_col="event_id",
        width_us=43_200_000_000,
        bucket_span_us=43_200_000_000,
    ).to_pandas()
    df = pd.DataFrame(
        {
            "purchase_id": out["left_id"].astype("int64"),
            "click_id": out["right_id"].astype("int64"),
            "user_id": out["_key"].astype("int64"),
            "purchase_ts_us": out["left_ts"].astype("int64"),
            "click_ts_us": out["right_ts"].astype("int64"),
        }
    )
    return df.sort_values(["purchase_id", "click_id"]).reset_index(drop=True)


def _q_range_join(sf_dir: str):
    """Range join, aggregate form: every purchase gets the COUNT and int64
    SUM of click event-ids in its preceding 24 h — per-partition prefix
    sums + two merge_asof probes, integer-exact end-to-end. Oracle: plain
    DuckDB inequality join + GROUP BY."""
    return _range_impl(sf_dir, None)


def _q_range_join_bucketed(sf_dir: str):
    """The same range join on the SKEW-SAFE path: hash(key, 2-day-bucket)
    partitioning with each right row duplicated into its own and the next
    bucket (influence window spans ≤ 2 buckets) — a hot key never forms
    one unbounded partition; same oracle, exact parity."""
    return _range_impl(sf_dir, 172_800_000_000)


def _q_top_keywords(sf_dir: str):
    """TF-IDF-style keyword per document: argmax by (tf DESC, corpus df
    ASC, token ASC) — integer ordering so the window-function SQL oracle
    hash-matches (idf is monotone in df, so the induced ranking equals
    the float tf·idf ranking)."""
    from abwcf_ray.stages.lm import top_keywords

    _quiet()
    out = top_keywords(_docs(sf_dir, ["doc_id", "text"]))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_token_quantiles(sf_dir: str):
    """Exact corpus-distribution stats: discrete quantiles of per-doc
    whitespace-token counts via one-pass sparse histograms + keyed merge
    (exchange O(distinct counts), never O(docs)). Oracle: DuckDB
    quantile_disc, same ceil(q·N) rank rule."""
    from abwcf_ray.stages.sketch import int_quantiles
    from abwcf_ray.stages.text import add_token_counts

    _quiet()
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_token_counts, batch_format="pyarrow"
    )
    return int_quantiles(
        ds, col="n_tokens", qs=[0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0]
    )


def _event_value_milli(sf_dir: str):
    """events.value (double) -> milli-unit int64 (FLOOR(value*1000)):
    both sides compute the SAME IEEE double multiply + floor, so the
    derivation is hash-exact (the single-float-op discipline)."""
    import ray.data as rd

    def milli(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        return pa.table(
            {"x": pa.array(np.floor(v * 1000.0).astype(np.int64), pa.int64())}
        )

    return rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["value"]
    ).map_batches(milli, batch_format="pyarrow")


_KLL_QS = [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99]


def _q_kll_quantiles_exact(sf_dir: str):
    """Quantile compactor sketch (stages/kll.kll_quantiles), DEGENERATE
    regime: capacity >= row count means no compaction ever fires, so the
    mergeable-summary machinery (per-block sketch rows, stack merge,
    weighted quantile rule) must reproduce exact quantile_disc — a full
    SQL value oracle on the sketch plumbing (the minhash_dedup_exact
    pattern). The headline small-k regime is kll_quantiles."""
    from abwcf_ray.stages.kll import kll_quantiles

    _quiet()
    return kll_quantiles(
        _event_value_milli(sf_dir), col="x", qs=_KLL_QS, k=2_000_000
    )


def _q_kll_quantiles(sf_dir: str):
    """Same sketch at working capacity (k=512): O(k·log(n/k)) rows per
    block cross the exchange regardless of the value domain — the
    unbounded-domain (timestamps, scaled floats) counterpart of the exact
    int_quantiles histogram. Approximate + merge-order-dependent by
    nature -> rows-only; the rank-error bound is pytest-verified
    (tests/test_kll.py)."""
    from abwcf_ray.stages.kll import kll_quantiles

    _quiet()
    return kll_quantiles(_event_value_milli(sf_dir), col="x", qs=_KLL_QS, k=512)


def _q_host_quantiles(sf_dir: str):
    """Exact per-group quantiles (stages/sketch.group_int_quantiles):
    quantile_disc of document length per host — sparse (group, value)
    histograms map-side, ONE hash(group)-keyed merge lands each group's
    histogram whole, quantiles off the per-group cumulative counts.
    Exchange O(distinct pairs), never O(docs)."""
    from abwcf_ray.stages.sketch import group_int_quantiles

    _quiet()

    def with_host(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "host": pa.array(
                    [f"h{i % _HOSTS}.example" for i in d], pa.string()
                ),
                "n_chars": t.column("n_chars"),
            }
        )

    ds = _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        with_host, batch_format="pyarrow"
    )
    out = group_int_quantiles(
        ds, group_col="host", col="n_chars", qs=[0.25, 0.50, 0.90]
    ).to_pandas()
    return out.sort_values(["host", "q_pct"]).reset_index(drop=True)


def _q_host_trimmed_mean(sf_dir: str):
    """Per-host trimmed mean of document length (stages/sketch
    .group_trimmed_mean): mean within the [p10, p90] quantile_disc band —
    bounds AND aggregate both off the same single sparse-histogram
    exchange; mean is ONE IEEE division of exact int64s."""
    from abwcf_ray.stages.sketch import group_trimmed_mean

    _quiet()

    def with_host(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "host": pa.array(
                    [f"h{i % _HOSTS}.example" for i in d], pa.string()
                ),
                "n_chars": t.column("n_chars"),
            }
        )

    ds = _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        with_host, batch_format="pyarrow"
    )
    out = group_trimmed_mean(
        ds, group_col="host", col="n_chars", q_lo=0.1, q_hi=0.9
    ).to_pandas()
    return out.sort_values("host").reset_index(drop=True)


def _q_user_event_pivot(sf_dir: str):
    """PIVOT (stages/pivot.pivot_counts): per-user event counts laid out
    wide (one int64 column per event type) — map-side bincount combiner
    emits one slim wide row per distinct user per batch, ONE hash(user)-
    keyed merge sums. Mirrors COUNT(*) FILTER (WHERE event_type = ...)."""
    import ray.data as rd

    from abwcf_ray.stages.pivot import pivot_counts

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["user_id", "event_type"]
    )
    out = pivot_counts(
        ev, group_col="user_id", pivot_col="event_type",
        categories=["click", "error", "purchase", "signup", "view"],
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_event_unpivot(sf_dir: str):
    """UNPIVOT (stages/pivot.unpivot): the wide per-user event-count
    matrix melted back to long (user_id, variable, value) rows —
    map-side only, ZERO shuffle beyond the pivot's own merge; explicit
    zero counts survive the roundtrip (UNION-ALL mirror in SQL)."""
    import ray.data as rd

    from abwcf_ray.stages.pivot import pivot_counts, unpivot

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["user_id", "event_type"]
    )
    cats = ["click", "error", "purchase", "signup", "view"]
    wide = pivot_counts(
        ev, group_col="user_id", pivot_col="event_type", categories=cats
    )
    out = unpivot(
        wide, id_cols=["user_id"], value_cols=[f"n_{c}" for c in cats]
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["value"] = out["value"].astype("int64")
    return out.sort_values(["user_id", "variable"]).reset_index(drop=True)


def _q_compression_signal(sf_dir: str):
    """zlib compression-ratio quality signal per document (the redundancy
    proxy next to the Gopher repetition fractions). zlib isn't available
    to SQL -> rows-only; pytest pins an exact per-doc differential."""
    from abwcf_ray.stages.text import add_compression_ratio

    _quiet()
    out = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_compression_ratio, batch_format="pyarrow"
    )
    return (
        out.select_columns(["doc_id", "n_bytes", "compression_ratio"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_distinct_words(sf_dir: str):
    """Exact corpus distinct-word count (per-batch unique + keyed-merge
    distinct; exchange O(distinct)); the HLL sketch (hll_distinct) is the
    bounded-exchange estimate of the same quantity."""
    from abwcf_ray.stages.sketch import exact_distinct_count

    _quiet()
    n = exact_distinct_count(_docs(sf_dir, ["text"]))
    return pd.DataFrame({"n_distinct": np.array([n], np.int64)})


def _q_hll_distinct(sf_dir: str):
    """HyperLogLog estimate of the corpus distinct-word count: one 16 KB
    register vector per block crosses the exchange regardless of
    cardinality. Approximate by nature -> rows-only; pytest pins the
    error bound and merge layout-invariance, and distinct_words carries
    the exact SQL-oracled value next to it."""
    from abwcf_ray.stages.sketch import hll_distinct_count

    _quiet()
    est = hll_distinct_count(_docs(sf_dir, ["text"]), p=14)
    return pd.DataFrame({"estimate": np.array([round(est, 2)], np.float64)})


def _q_heavy_hitters(sf_dir: str):
    """Frequent words of the corpus via Misra-Gries sketch + exact verify:
    the sketch bounds the exchange to k counters per block, the verify
    pass makes the output EXACT (guaranteed complete for threshold >
    N/(k+1)) — so a plain GROUP BY ... HAVING is a full value oracle on
    the sketch machinery."""
    from abwcf_ray.stages.sketch import heavy_hitters

    _quiet()
    docs = _docs(sf_dir, ["text"])
    n_tokens = int(
        docs.map_batches(
            lambda b: pa.table(
                {
                    "n": pa.array(
                        [
                            int(
                                b.column("text")
                                .to_pandas()
                                .astype("string")
                                .fillna("")
                                .str.count(r"\S+")
                                .sum()
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("n")
    )
    out = heavy_hitters(
        _docs(sf_dir, ["text"]), threshold=max(1, n_tokens // 50), k=4096
    )
    return out.rename(columns={"item": "word"}).reset_index(drop=True)


def _q_cms_topwords(sf_dir: str):
    """Frequent words via Count-Min sketch + exact verify
    (stages/sketch.cms_heavy_hitters): the CMS sibling of heavy_hitters.
    A Count-Min cell only over-counts, so the candidate set is an
    unconditional superset of the true frequent set and the verify pass
    makes the output EXACTLY the GROUP BY ... HAVING table — a full
    value oracle on Count-Min machinery with no precondition."""
    from abwcf_ray.stages.sketch import cms_heavy_hitters

    _quiet()
    docs = _docs(sf_dir, ["text"])
    n_tokens = int(
        docs.map_batches(
            lambda b: pa.table(
                {
                    "n": pa.array(
                        [
                            int(
                                b.column("text")
                                .to_pandas()
                                .astype("string")
                                .fillna("")
                                .str.count(r"\S+")
                                .sum()
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("n")
    )
    out = cms_heavy_hitters(
        _docs(sf_dir, ["text"]),
        threshold=max(1, n_tokens // 80),
        depth=4,
        width=65536,
    )
    return out.rename(columns={"item": "word"}).reset_index(drop=True)


def _q_pack_bins(sf_dir: str):
    """GPT-style sequence packing by global token offsets
    (stages/packing.pack_bins): concat all docs' whitespace tokens in
    doc_id order, split every 64 — two-level distributed prefix scan
    (slim count table -> bucket-sum exchange -> driver exclusive prefix
    -> map-side span explode), exact int64 arithmetic mirrored by a
    window-SUM + lateral-range SQL oracle."""
    from abwcf_ray.stages.packing import pack_bins

    _quiet()
    out = pack_bins(
        _docs(sf_dir, ["doc_id", "text"]), window=64
    ).to_pandas()
    return out.sort_values(["bin_id", "doc_id"]).reset_index(drop=True)


def _docs_en(sf_dir: str):
    """Target distribution for the DSIR queries: the English slice."""
    import pyarrow.compute as pc

    return _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "en")),
        batch_format="pyarrow",
    )


def _q_dsir_counts(sf_dir: str):
    """SQL-oracled degeneration of the DSIR machinery: exact 64-bit gram
    hashes (no modular bucketing), integer hit sums per raw document
    against the target (lang='en') and raw gram-count tables — the same
    fit / gram-kernel / broadcast-probe code paths the bucketed scorer
    uses, value-checked by DuckDB on gram STRINGS."""
    from abwcf_ray.stages.dsir import dsir_exact_hits

    _quiet()
    out = dsir_exact_hits(
        _docs(sf_dir, ["doc_id", "text"]), _docs_en(sf_dir)
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_dsir(sf_dir: str):
    """Full DSIR (Xie et al. 2023): hashed-bigram bag models (m=8192) of
    the target (lang='en') and raw corpora, per-doc log importance weight,
    Gumbel top-100 resample. Float log-weights are not SQL-hashable ->
    rows-only at the gate; pytest pins brute-force parity, determinism,
    and layout invariance."""
    import ray

    from abwcf_ray.stages.dsir import (
        add_dsir_logw,
        dsir_log_weights,
        dsir_resample,
        fit_bucket_counts,
    )

    _quiet()
    m = 8192
    raw = _docs(sf_dir, ["doc_id", "text"])
    tc = fit_bucket_counts(_docs_en(sf_dir), m=m)
    rc = fit_bucket_counts(raw, m=m)
    w_ref = ray.put(dsir_log_weights(tc, rc))
    sel = dsir_resample(add_dsir_logw(raw, w_ref, m=m), 100, seed=7)
    return (
        sel[["doc_id", "n_grams", "dsir_logw"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_gopher_rules(sf_dir: str):
    """Remaining Gopher quality rules (mean word length, symbol/word
    ratio, alpha-word fraction, distinct-stopword hits, bullet/ellipsis
    line fractions, composite gopher_pass). The fixture text is a clean
    word soup, so the query decorates it deterministically by doc_id —
    identically in the SQL — to make every signal non-degenerate (the
    pii_scrub precedent)."""
    from abwcf_ray.stages.text import add_gopher_rules

    _quiet()

    def deco(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch.column("text").to_pandas().astype("string").fillna("")
        t = t + np.where(d % 4 == 0, " ## … ... #tag", "")
        t = t + np.where(d % 3 == 0, "\n- bullet item\ntrail …", "")
        t = t + np.where(d % 5 == 0, " to be of and that have with", "")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "text": pa.array(t.tolist(), pa.string()),
            }
        )

    out = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        deco, batch_format="pyarrow"
    ).map_batches(add_gopher_rules, batch_format="pyarrow")
    return (
        out.select_columns(
            [
                "doc_id",
                "n_words",
                "mean_word_len",
                "symbol_word_ratio",
                "alpha_word_frac",
                "stopword_hits",
                "bullet_line_frac",
                "ellipsis_line_frac",
                "gopher_pass",
            ]
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_graph_degrees(sf_dir: str):
    """Per-node in/out degree of the link graph: one map-side combiner
    pass + one O(distinct nodes) groupby — the exchange never carries
    edges."""
    from abwcf_ray.stages.graph import degrees

    _quiet()
    edges, _ = _graph_edges(sf_dir)
    out = degrees(edges, include_zero_nodes_from=_graph_nodes(sf_dir))
    return out.to_pandas().sort_values("node").reset_index(drop=True)


def _q_pagerank(sf_dir: str):
    """Fixed-point integer PageRank, 5 power iterations, BROADCAST regime
    (dense int64 rank vector in the object store, edges stream, in-sums
    settle in a combiner-bounded native groupby). Integer arithmetic makes
    the iterative result exactly SQL-expressible — the oracle mirrors the
    iteration with chained CTEs."""
    from abwcf_ray.stages.graph import pagerank

    _quiet()
    edges, n = _graph_edges(sf_dir)
    out = pagerank(edges, n_nodes=n, iters=5)
    return out.to_pandas().sort_values("node").reset_index(drop=True)


def _q_pagerank_distributed(sf_dir: str):
    """Same PageRank forced onto the DISTRIBUTED regime (ranks are rows;
    two keyed exchanges per iteration, nothing graph-sized on the driver)
    — the same value oracle covers it because the fixed-point arithmetic
    is bit-identical across regimes (pytest pins regime parity too)."""
    from abwcf_ray.stages.graph import pagerank

    _quiet()
    edges, n = _graph_edges(sf_dir)
    out = pagerank(
        edges,
        n_nodes=n,
        nodes_ds=_graph_nodes(sf_dir),
        iters=5,
        broadcast_max_nodes=0,
        merge_partitions=16,
    )
    return out.to_pandas().sort_values("node").reset_index(drop=True)


def _q_hits(sf_dir: str):
    """Fixed-point integer HITS (stages/graph.hits), 4 hub/authority
    power iterations, broadcast regime: dense int64 score vectors in the
    object store, edges stream, in-sums settle in combiner-bounded keyed
    merges; ONE integer floor-division per node per half-iteration keeps
    the renormalized iteration exactly SQL-expressible (chained CTEs)."""
    from abwcf_ray.stages.graph import hits

    _quiet()
    edges, n = _graph_edges(sf_dir)
    out = hits(edges, n_nodes=n, iters=4)
    return out.to_pandas().sort_values("node").reset_index(drop=True)


def _hits_sql(iters: int = 4) -> str:
    """Chained-CTE mirror of stages/graph.hits: per iteration one
    authority in-sum + integer renormalize, then the same for hubs.
    HUGEINT-safe sums, all arithmetic integer -> bit-exact hash match."""
    scale = 10**6
    ctes = [
        f"edges AS ({_GRAPH_EDGES_SQL})",
        "nodes AS (SELECT doc_id AS node FROM documents)",
        f"h0 AS (SELECT node, CAST({scale} AS BIGINT) AS v FROM nodes)",
    ]
    prev_h = "h0"
    for i in range(1, iters + 1):
        ctes.append(
            f"""ar{i} AS (
                SELECT e.dst AS node, SUM(p.v) AS s
                FROM edges e JOIN {prev_h} p ON p.node = e.src
                GROUP BY e.dst)"""
        )
        ctes.append(
            # MAX-normalization (mirrors stages/graph.hits: per-node
            # resolution independent of n — see half_step)
            f"at{i} AS (SELECT GREATEST(COALESCE(MAX(s), 0), 1) AS t "
            f"FROM ar{i})"
        )
        ctes.append(
            f"""a{i} AS (
                SELECT n.node,
                       CAST(COALESCE(r.s, 0) * {scale} // at.t AS BIGINT) AS v
                FROM nodes n LEFT JOIN ar{i} r ON r.node = n.node
                CROSS JOIN at{i} at)"""
        )
        ctes.append(
            f"""hr{i} AS (
                SELECT e.src AS node, SUM(q.v) AS s
                FROM edges e JOIN a{i} q ON q.node = e.dst
                GROUP BY e.src)"""
        )
        ctes.append(
            f"ht{i} AS (SELECT GREATEST(COALESCE(MAX(s), 0), 1) AS t "
            f"FROM hr{i})"
        )
        ctes.append(
            f"""h{i} AS (
                SELECT n.node,
                       CAST(COALESCE(r.s, 0) * {scale} // ht.t AS BIGINT) AS v
                FROM nodes n LEFT JOIN hr{i} r ON r.node = n.node
                CROSS JOIN ht{i} ht)"""
        )
        prev_h = f"h{i}"
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
        SELECT h.node, h.v AS hub_scaled, a.v AS auth_scaled
        FROM h{iters} h JOIN a{iters} a ON a.node = h.node
        ORDER BY h.node"""
    )


def _q_kcore(sf_dir: str):
    """k-core membership, k=3 (stages/graph.kcore): 6 synchronous peel
    rounds over the canonical undirected graph — broadcast alive vector,
    edges stream, combiner-bounded degree merges; bulk-synchronous
    rounds make the peel exactly SQL-expressible (chained CTEs)."""
    from abwcf_ray.stages.graph import kcore

    _quiet()
    edges, n = _graph_edges(sf_dir)
    out = kcore(edges, n_nodes=n, k=3, rounds=6)
    return out.to_pandas().sort_values("node").reset_index(drop=True)


def _kcore_sql(k: int = 3, rounds: int = 6) -> str:
    """Chained-CTE mirror of stages/graph.kcore: UNION-dedup'd
    undirected edges, one CTE per synchronous peel round."""
    ctes = [
        f"edges AS ({_GRAPH_EDGES_SQL})",
        "nodes AS (SELECT doc_id AS node FROM documents)",
        """und AS (
            SELECT src AS a, dst AS b FROM edges WHERE src <> dst
            UNION
            SELECT dst AS a, src AS b FROM edges WHERE src <> dst)""",
        "a0 AS (SELECT node FROM nodes)",
    ]
    prev = "a0"
    for i in range(1, rounds + 1):
        ctes.append(
            f"""a{i} AS (
                SELECT dd.node FROM (
                    SELECT e.a AS node, COUNT(*) AS d
                    FROM und e
                    JOIN {prev} x ON x.node = e.a
                    JOIN {prev} y ON y.node = e.b
                    GROUP BY e.a
                ) dd WHERE dd.d >= {k})"""
        )
        prev = f"a{i}"
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
        SELECT n.node,
               CAST(CASE WHEN s.node IS NULL THEN 0 ELSE 1 END AS BIGINT)
                   AS in_core
        FROM nodes n LEFT JOIN {prev} s ON s.node = n.node
        ORDER BY n.node"""
    )


def _seed_nodes(sf_dir: str):
    """Deterministic BFS seed set: every 17th doc (same derivation inline
    in the bfs_hops SQL oracle — the _GRAPH_EDGES_SQL shared-synthesis
    pattern)."""
    def pick(b: pa.Table) -> pa.Table:
        node = b.column("node").to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(node[node % 17 == 0], pa.int64())})

    return _graph_nodes(sf_dir).map_batches(pick, batch_format="pyarrow")


def _graph_edges_weighted(sf_dir: str):
    """The _graph_edges link graph with a deterministic positive weight
    w = 1 + (src*3 + dst*5) % 7 (crawl-cost analog) — the EXACT same
    expression is inlined in the sssp SQL oracle's edges CTE."""
    edges, n = _graph_edges(sf_dir)

    def add_w(b: pa.Table) -> pa.Table:
        src = b.column("src").to_numpy(zero_copy_only=False)
        dst = b.column("dst").to_numpy(zero_copy_only=False)
        return b.append_column(
            "w", pa.array(1 + (src * 3 + dst * 5) % 7, pa.int64())
        )

    return edges.map_batches(add_w, batch_format="pyarrow"), n


def _q_pagerank_weighted(sf_dir: str):
    """WEIGHTED PageRank (stages/graph.pagerank_weighted): rank splits
    proportionally to edge weight via (rank*w) // W_out — all floor
    divisions, so the 5-iteration fixed point is exactly SQL-mirrorable
    (chained CTEs with a weighted-out-sum), the pagerank discipline
    extended to weighted graphs."""
    from abwcf_ray.stages.graph import pagerank_weighted

    _quiet()
    edges_w, n = _graph_edges_weighted(sf_dir)
    out = pagerank_weighted(edges_w, n_nodes=n, iters=5).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


def _q_pagerank_personalized(sf_dir: str):
    """Personalized PageRank / random walk with restart
    (stages/graph.personalized_pagerank): teleport mass returns only to
    the shared BFS seed set (node %% 17 == 0), ranks measure seed
    proximity — the related-pages primitive; same floor-division
    fixed-point discipline, chained-CTE oracle."""
    from abwcf_ray.stages.graph import personalized_pagerank

    _quiet()
    edges, n = _graph_edges(sf_dir)
    out = personalized_pagerank(
        edges, n_nodes=n, seeds=_seed_nodes(sf_dir), iters=5
    ).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


def _q_sssp(sf_dir: str):
    """Multi-source WEIGHTED shortest path (stages/graph.sssp) from the
    BFS seed set, 4 synchronous Bellman-Ford rounds, BROADCAST regime
    (dense int64 distance vector; edges stream, each round emits only
    improving relaxations). Integer min relaxation over fixed rounds is
    exactly SQL-expressible — the oracle mirrors the rounds with
    chained CTEs."""
    from abwcf_ray.stages.graph import sssp

    _quiet()
    edges, n = _graph_edges_weighted(sf_dir)
    out = sssp(edges, _seed_nodes(sf_dir), n_nodes=n, rounds=4)
    return out.to_pandas().sort_values("node").reset_index(drop=True)


def _q_sssp_distributed(sf_dir: str):
    """Same weighted SSSP forced onto the DISTRIBUTED regime (distances
    are rows; two keyed exchanges per round, nothing graph-sized on the
    driver) — the same value oracle covers it because integer min
    relaxation is bit-identical across regimes."""
    from abwcf_ray.stages.graph import sssp

    _quiet()
    edges, n = _graph_edges_weighted(sf_dir)
    out = sssp(
        edges,
        _seed_nodes(sf_dir),
        n_nodes=n,
        nodes_ds=_graph_nodes(sf_dir),
        rounds=4,
        broadcast_max_nodes=0,
        merge_partitions=16,
    )
    return out.to_pandas().sort_values("node").reset_index(drop=True)


def _q_bfs_hops(sf_dir: str):
    """Multi-source BFS hop distance from the seed set over the link
    graph, capped at 4 hops, BROADCAST regime (dense int64 distance
    vector in the object store; edges stream, each round emits only
    improving relaxations). Fixed synchronous rounds of integer min
    relaxation make the result exactly SQL-expressible — the oracle
    mirrors the rounds with chained CTEs."""
    from abwcf_ray.stages.graph import bfs_hops

    _quiet()
    edges, n = _graph_edges(sf_dir)
    out = bfs_hops(edges, _seed_nodes(sf_dir), n_nodes=n, max_hops=4)
    return out.to_pandas().sort_values("node").reset_index(drop=True)


def _q_bfs_hops_distributed(sf_dir: str):
    """Same BFS forced onto the DISTRIBUTED regime (distances are rows;
    two keyed exchanges per round, nothing graph-sized on the driver) —
    the same value oracle covers it because integer min relaxation is
    bit-identical across regimes (pytest pins regime parity too)."""
    from abwcf_ray.stages.graph import bfs_hops

    _quiet()
    edges, n = _graph_edges(sf_dir)
    out = bfs_hops(
        edges,
        _seed_nodes(sf_dir),
        n_nodes=n,
        nodes_ds=_graph_nodes(sf_dir),
        max_hops=4,
        broadcast_max_nodes=0,
        merge_partitions=16,
    )
    return out.to_pandas().sort_values("node").reset_index(drop=True)


def _q_skyline(sf_dir: str):
    """2-D skyline (Pareto frontier) of lineitem over (quantity,
    price-in-cents), both maximized: per-batch vectorized local skyline
    (the operator is algebraic, so local prune loses nothing) + one
    final merge block. Integer dims make the dominance set exactly
    SQL-expressible; the oracle uses a per-qty max + running-max window,
    not a quadratic NOT EXISTS."""
    from pathlib import Path

    import ray.data as rd

    from abwcf_ray.stages.skyline import skyline2d

    _quiet()
    li = rd.read_parquet(
        str(Path(sf_dir) / "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
    )

    def pts(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                "linenumber": t.column("l_linenumber").cast(pa.int64()),
                "qty": pa.array(
                    t.column("l_quantity")
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    pa.int64(),
                ),
                "price_c": pa.array(
                    np.floor(
                        t.column("l_extendedprice").to_numpy(zero_copy_only=False)
                        * 100.0
                    ).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    out = skyline2d(
        li.map_batches(pts, batch_format="pyarrow"), x_col="qty", y_col="price_c"
    )
    return (
        out.to_pandas()
        .sort_values(["qty", "price_c", "l_orderkey", "linenumber"])
        .reset_index(drop=True)
    )


def _q_resample_ffill(sf_dir: str):
    """Hourly per-user resample of the event stream with forward fill
    (stages/resample.py): map-side last-per-(user, bucket) combiner, ONE
    hash(user) exchange, vectorized gap expansion AFTER the exchange so
    fill rows never cross the wire. The fill only MOVES float values
    (never recomputes), so the oracle hash-matches bit-for-bit."""
    from pathlib import Path

    import ray.data as rd

    from abwcf_ray.stages.resample import resample_ffill

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"],
    )
    out = resample_ffill(
        ev,
        key_col="user_id",
        ts_col="ts",
        val_col="value",
        tie_col="event_id",
        span_us=3_600_000_000,
    )
    return (
        out.to_pandas().sort_values(["user_id", "bucket"]).reset_index(drop=True)
    )


def _q_resample_interp(sf_dir: str):
    """Hourly per-user resample with LINEAR INTERPOLATION across gaps
    (stages/resample.resample_interp): same combiner + one hash(user)
    exchange as resample_ffill; each gap value is the fixed four-op
    expression v0 + ((v1−v0)·(g−b0))/(b1−b0) over the neighbor
    observations, mirrored bit-for-bit by the LEAD()-based oracle."""
    from pathlib import Path

    import ray.data as rd

    from abwcf_ray.stages.resample import resample_interp

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"],
    )
    out = resample_interp(
        ev,
        key_col="user_id",
        ts_col="ts",
        val_col="value",
        tie_col="event_id",
        span_us=3_600_000_000,
    )
    return (
        out.to_pandas().sort_values(["user_id", "bucket"]).reset_index(drop=True)
    )


def _q_fuzzy_names(sf_dir: str):
    """Entity-resolution fuzzy self-join (stages/fuzzy.py): every pair of
    customer names within Levenshtein distance 1, via SymSpell/FastSS
    deletion-neighborhood banding (rolling-hash variants, no O(len^2)
    materialization) + exact vectorized verify through
    verify_edges_distributed. The oracle is DuckDB's levenshtein() over
    the length-banded cross join."""
    from pathlib import Path

    import ray.data as rd

    from abwcf_ray.stages.fuzzy import fuzzy_join_ed1

    _quiet()
    cust = rd.read_parquet(
        str(Path(sf_dir) / "customer.parquet"),
        columns=["c_custkey", "c_name"],
    )
    out = fuzzy_join_ed1(cust, id_col="c_custkey", str_col="c_name")
    return (
        out.to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
    )


def _q_char_pairs(sf_dir: str):
    """BPE-trainer pair statistics (stages/bpe.char_pair_counts): global
    top-50 adjacent codepoint pairs over documents.text — one uint32
    decode + shifted 64-bit view per batch, np.unique pre-aggregation
    (shuffle volume = distinct pairs ~ alphabet², never characters),
    one keyed exchange, pruned two-level top-k. Exact integer counts;
    tie-break (n DESC, c1, c2) in codepoint order = SQL string order."""
    from abwcf_ray.stages.bpe import char_pair_counts

    _quiet()
    out = char_pair_counts(_docs(sf_dir, ["text"]), k=50).to_pandas()
    return out.sort_values(["n", "c1", "c2"], ascending=[False, True, True]
                           ).reset_index(drop=True)


def _q_group_zscore(sf_dir: str):
    """Per-document z-score of n_chars within its language
    (stages/stats.group_zscore): exact int64 moments off one keyed
    exchange, broadcast back once via ray.put, per-row fixed IEEE
    expression mirrored bit-for-bit by the SQL oracle."""
    from abwcf_ray.stages.stats import group_zscore

    _quiet()
    out = group_zscore(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"]),
        group_cols=["lang"],
        value_col="n_chars",
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_group_welch(sf_dir: str):
    """Per-language Welch t-statistic of n_chars between the even/odd
    doc_id cohorts (stages/stats.group_welch_t): one keyed exchange
    co-locates both cohorts of a group, exact int64 moments, t as a
    fixed IEEE expression mirrored op-for-op by the SQL oracle."""
    import ray.data as rd

    from abwcf_ray.stages.stats import group_welch_t

    _quiet()
    docs = _docs(sf_dir, ["doc_id", "lang", "n_chars"])

    def cohort(t):
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.append_column("cohort", pa.array(d % 2, pa.int64()))

    out = group_welch_t(
        docs.map_batches(cohort, batch_format="pyarrow"),
        group_cols=["lang"],
        cohort_col="cohort",
        value_col="n_chars",
    ).to_pandas()
    return out.sort_values("lang").reset_index(drop=True)


def _q_bpe_merges(sf_dir: str):
    """Full BPE tokenizer training, 8 merges (stages/bpe.bpe_train):
    per round one distinct-pair-bounded count exchange + argmax + one
    vectorized corpus-wide greedy merge pass, corpus re-materialized per
    round (the PageRank iteration idiom). Iterative and therefore
    no_oracle; round 1 degenerates to the SQL-oracled char_pairs top-1,
    and tests/test_bpe.py pins the whole merge sequence against a
    sequential reference implementation."""
    from abwcf_ray.stages.bpe import bpe_train

    _quiet()
    return bpe_train(_docs(sf_dir, ["text"]), n_merges=8)


def _q_bpe_encode(sf_dir: str):
    """Train-then-tokenize composition (stages/bpe.bpe_encode): 8 trained
    merges replayed over the corpus in one stateless map pass (merge
    table rides in the closure), per-doc token counts out. no_oracle
    (greedy merge application is not SQL-expressible); the kernel is
    pinned against a sequential reference in tests/test_bpe.py and the
    fixed-merge sibling below carries a full value oracle."""
    from abwcf_ray.stages.bpe import bpe_encode, bpe_train

    _quiet()
    docs = _docs(sf_dir, ["doc_id", "text"])
    merges = bpe_train(docs, n_merges=8)
    out = bpe_encode(docs, merges).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_bpe_encode_fixed(sf_dir: str):
    """SQL-value-oracled degeneration of the BPE encode kernel: two FIXED
    merges ('t','h')->U+0001 then (U+0001,'e')->U+0002. For a != b the
    kernel's simultaneous-match + greedy-every-other selection equals
    leftmost non-overlapping replacement, so nested SQL replace() with
    1-char sentinels reproduces the token counts exactly (corpus text
    contains no control chars)."""
    import pandas as pd

    from abwcf_ray.stages.bpe import bpe_encode

    _quiet()
    merges = pd.DataFrame(
        {
            "left_id": [ord("t"), 1],
            "right_id": [ord("h"), ord("e")],
            "new_id": [1, 2],
        }
    )
    out = bpe_encode(_docs(sf_dir, ["doc_id", "text"]), merges).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_group_corr(sf_dir: str):
    """Grouped Pearson correlation (stages/stats.group_corr): exact
    int64 moments (adds Σx², Σy² to the covariance partials) + exactly
    three IEEE ops (multiply, sqrt, divide) — the oracle reproduces the
    float bit-for-bit with the identical expression (NOT corr())."""
    from pathlib import Path

    import ray.data as rd

    from abwcf_ray.stages.stats import group_corr

    _quiet()
    li = rd.read_parquet(
        str(Path(sf_dir) / "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_discount"],
    )

    def ints(t):
        q = t.column("l_quantity").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        d = np.floor(
            t.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "x": pa.array(q, pa.int64()),
                "y": pa.array(d, pa.int64()),
            }
        )

    out = group_corr(
        li.map_batches(ints, batch_format="pyarrow"),
        group_cols=["l_returnflag", "l_linestatus"],
        x_col="x",
        y_col="y",
    ).to_pandas()
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(
        drop=True
    )


def _q_group_regression(sf_dir: str):
    """Per-event-type OLS fit of spend (cents) on hour-of-day
    (stages/stats.group_regression): the group_corr moment exchange
    reused, with slope/intercept/r2 each a fixed short IEEE expression
    over exact int64 moments — the oracle mirrors the expressions
    bit-for-bit (NOT regr_slope()/regr_intercept()/regr_r2())."""
    from pathlib import Path

    import pyarrow.compute as pc
    import ray.data as rd

    from abwcf_ray.stages.stats import group_regression

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_type", "ts", "value"],
    )

    def ints(t):
        hour = pc.hour(t.column("ts")).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        cents = np.floor(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "x": pa.array(hour, pa.int64()),
                "y": pa.array(cents, pa.int64()),
            }
        )

    out = group_regression(
        ev.map_batches(ints, batch_format="pyarrow"),
        group_cols=["event_type"],
        x_col="x",
        y_col="y",
    ).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


def _q_snapshot_diff(sf_dir: str):
    """Change-data-capture between two snapshot versions of the
    documents table (stages/diff.snapshot_diff): old = docs without
    doc_id%17==0, new = docs without doc_id%11==0 with lang rewritten
    on %13 and n_chars bumped on %7 — the diff returns exactly the
    added / removed / changed keys with old/new values side by side
    (one keyed exchange via the outer equi-join; output is O(churn))."""
    import pyarrow.compute as pc

    from abwcf_ray.stages.diff import snapshot_diff

    _quiet()
    docs = _docs(sf_dir, ["doc_id", "lang", "source", "n_chars"])

    def mk_old(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(d % 17 != 0))

    def mk_new(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(d % 11 != 0))
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        lang = pc.if_else(
            pa.array(d % 13 == 0), pa.scalar("xx"), t.column("lang")
        )
        n_chars = pa.array(
            t.column("n_chars").to_numpy(zero_copy_only=False)
            + np.where(d % 7 == 0, 5, 0),
            pa.int64(),
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lang": lang,
                "source": t.column("source"),
                "n_chars": n_chars,
            }
        )

    old = docs.map_batches(mk_old, batch_format="pyarrow")
    new = docs.map_batches(mk_new, batch_format="pyarrow")
    out = snapshot_diff(
        old, new, key="doc_id", compare_cols=["lang", "source", "n_chars"]
    ).to_pandas()
    # absent-side ints: sentinel-fill (-1) like the other outer-join
    # queries so both sides hash as plain int64
    for c in ("old_n_chars", "new_n_chars"):
        out[c] = out[c].fillna(-1).astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_host_mad(sf_dir: str):
    """Per-host median + median-absolute-deviation of document length
    (stages/sketch.group_mad): both statistics off ONE sparse-histogram
    exchange (the MAD re-keys the in-shard histogram by |v − med|);
    exact int64 end-to-end."""
    from abwcf_ray.stages.sketch import group_mad

    _quiet()

    def with_host(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "host": pa.array(
                    [f"h{i % _HOSTS}.example" for i in d], pa.string()
                ),
                "n_chars": t.column("n_chars"),
            }
        )

    ds = _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        with_host, batch_format="pyarrow"
    )
    out = group_mad(ds, group_col="host", col="n_chars").to_pandas()
    return out.sort_values("host").reset_index(drop=True)


def _q_price_wmedian(sf_dir: str):
    """Quantity-WEIGHTED median of lineitem price-in-cents per
    (returnflag, linestatus) (stages/sketch.group_weighted_median): one
    sparse-histogram exchange with int64 summed weights, lower-median
    rank rule (smallest v with 2·cum ≥ total). Cents come from
    FLOOR(price*100 + 0.5) — the identical IEEE op sequence in the SQL
    oracle, so the hash matches bit-for-bit."""
    from pathlib import Path

    import ray.data as rd

    from abwcf_ray.stages.sketch import group_weighted_median

    _quiet()
    li = rd.read_parquet(
        str(Path(sf_dir) / "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_quantity"],
    )

    def prep(t: pa.Table) -> pa.Table:
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
        grp = pc.binary_join_element_wise(
            t.column("l_returnflag").cast(pa.string()),
            t.column("l_linestatus").cast(pa.string()),
            "|",
        )
        return pa.table(
            {
                "grp": grp,
                "cents": pa.array(
                    np.floor(price * 100.0 + 0.5).astype(np.int64), pa.int64()
                ),
                "qty": pa.array(qty.astype(np.int64), pa.int64()),
            }
        )

    out = group_weighted_median(
        li.map_batches(prep, batch_format="pyarrow"),
        group_col="grp",
        val_col="cents",
        weight_col="qty",
    ).to_pandas()
    return out.sort_values("grp").reset_index(drop=True)


def _q_group_covariance(sf_dir: str):
    """Grouped bivariate covariance (stages/stats.group_cov): exact
    int64 moments (n, Σx, Σy, Σxy) combined map-side + one keyed merge;
    each covariance is a single IEEE division of exact integers, so the
    oracle hash-matches by computing the identical expressions (NOT
    covar_samp(), whose streaming update rounds differently)."""
    from pathlib import Path

    import numpy as np
    import ray.data as rd

    from abwcf_ray.stages.stats import group_cov

    _quiet()
    li = rd.read_parquet(
        str(Path(sf_dir) / "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_discount"],
    )

    def ints(t):
        import pyarrow as pa

        q = t.column("l_quantity").to_numpy(zero_copy_only=False).astype(np.int64)
        d = np.floor(
            t.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "x": pa.array(q, pa.int64()),
                "y": pa.array(d, pa.int64()),
            }
        )

    out = group_cov(
        li.map_batches(ints, batch_format="pyarrow"),
        group_cols=["l_returnflag", "l_linestatus"],
        x_col="x",
        y_col="y",
    )
    return (
        out.to_pandas()
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )


def _q_group_mode(sf_dir: str):
    """Per-user modal event type (stages/stats.group_mode): map-side
    (group, value) partial counts, ONE hash(group) exchange landing each
    group's histogram whole, smallest-value tie-break — deterministic
    under any layout and mirrored by the oracle's window rank."""
    from pathlib import Path

    import ray.data as rd

    from abwcf_ray.stages.stats import group_mode

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["user_id", "event_type"],
    )
    out = group_mode(ev, group_cols=["user_id"], value_col="event_type")
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


def _q_user_rolling(sf_dir: str):
    """Moving 7-row window SUM per user (stages/winfun
    .keyed_window_functions roll_rows): SQL ROWS BETWEEN 6 PRECEDING AND
    CURRENT ROW — one cumsum + one clamped gather per shard on top of the
    same single keyed exchange as user_running; exact int64."""
    import ray.data as rd

    from abwcf_ray.stages.winfun import keyed_window_functions

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "ts", "user_id", "props"],
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "plen": pc.utf8_length(t.column("props")).cast(pa.int64()),
            }
        )

    out = keyed_window_functions(
        ev.map_batches(prep, batch_format="pyarrow"),
        key_col="user_id",
        order_cols=["ts_us", "event_id"],
        sum_col="plen",
        roll_rows=7,
    ).to_pandas()
    return (
        out[["event_id", "user_id", "plen", "rn", "roll_sum"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def _q_user_pct_rank(sf_dir: str):
    """Tie-aware RANK + PERCENT_RANK + CUME_DIST per user over the props
    payload length (stages/winfun rank_cols): tie runs from vectorized
    change flags, each distribution stat ONE IEEE division of exact
    int64s — bit-exact against the SQL window functions."""
    import ray.data as rd

    from abwcf_ray.stages.winfun import keyed_window_functions

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "props"],
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "plen": pc.utf8_length(t.column("props")).cast(pa.int64()),
            }
        )

    out = keyed_window_functions(
        ev.map_batches(prep, batch_format="pyarrow"),
        key_col="user_id",
        order_cols=["plen", "event_id"],
        rank_cols=["plen"],
    ).to_pandas()
    return (
        out[["event_id", "user_id", "plen", "rank", "pct_rank", "cume_dist"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def _q_user_coverage(sf_dir: str):
    """Per-user interval union (stages/intervals.interval_union): events
    become [ts, ts + len(props) s) activity intervals; merged-block count
    + total covered span per user via ONE hash(user) exchange and a
    vectorized gaps-and-islands pass. Exact int64; the oracle is the
    standard windowed-running-max islands query."""
    import ray.data as rd

    from abwcf_ray.stages.intervals import interval_union

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["user_id", "ts", "props"],
    )

    def prep(t: pa.Table) -> pa.Table:
        s = t.column("ts").cast(pa.int64())
        plen = pc.utf8_length(t.column("props")).cast(pa.int64())
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "s": s,
                "e": pc.add(
                    s, pc.multiply(plen, pa.scalar(1_000_000, pa.int64()))
                ),
            }
        )

    out = interval_union(
        ev.map_batches(prep, batch_format="pyarrow"),
        key_col="user_id",
        start_col="s",
        end_col="e",
    )
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


def _q_event_throttle(sf_dir: str):
    """Per-(user, event_type) time-proximity duplicate suppression
    (stages/throttle.window_dedup): drop an event when the same key
    fired within the previous 60 s — ONE hash(user) exchange + a
    vectorized lexsort/diff filter per shard; exact LAG(ts) semantics,
    so the oracle is one SQL window."""
    import ray.data as rd

    from abwcf_ray.stages.throttle import window_dedup

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "event_type", "ts"],
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "event_type": t.column("event_type"),
                "ts_us": t.column("ts").cast(pa.int64()),
            }
        )

    out = window_dedup(
        ev.map_batches(prep, batch_format="pyarrow"),
        key_cols=["user_id", "event_type"],
        ts_col="ts_us",
        tiebreak_col="event_id",
        gap=60_000_000,
    )
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


def _q_ohlc_hourly(sf_dir: str):
    """Per-(event_type, hour) OPEN/HIGH/LOW/CLOSE candles
    (stages/stats.group_ohlc): associative partial state — open/close
    re-selected by (ts, id) order at every merge — collapses map-side
    before ONE keyed exchange. value is only SELECTED (no arithmetic),
    so floats pass through bit-exact; the oracle is FIRST_VALUE /
    LAST_VALUE windows."""
    import ray.data as rd

    from abwcf_ray.stages.stats import group_ohlc

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "event_type", "ts", "value"],
    ).map_batches(
        lambda t: pa.table(
            {
                "event_type": t.column("event_type"),
                "hour": pc.divide(
                    t.column("ts").cast(pa.int64()),
                    pa.scalar(3_600_000_000, pa.int64()),
                ),
                "ts_us": t.column("ts").cast(pa.int64()),
                "event_id": t.column("event_id"),
                "value": t.column("value"),
            }
        ),
        batch_format="pyarrow",
    )
    out = group_ohlc(
        ev,
        group_cols=["event_type", "hour"],
        ts_col="ts_us",
        id_col="event_id",
        value_col="value",
    ).to_pandas()
    out = out.rename(columns={"open_v": "open", "close_v": "close"})
    return (
        out[["event_type", "hour", "open", "hi", "lo", "close", "n"]]
        .sort_values(["event_type", "hour"])
        .reset_index(drop=True)
    )


def _q_bounce_rate(sf_dir: str):
    """Sessionized bounce rate per user: the fraction of gap-based
    sessions containing exactly one event — the session machinery
    (stages/windows.session_windows, skew-safe two-stage) reduced by a
    tiny keyed aggregate; the rate is one IEEE division of exact
    counts."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg
    from abwcf_ray.stages.windows import session_windows

    _quiet()
    ds = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["user_id", "ts", "value"]
    )
    sess = session_windows(
        ds, key="user_id", ts_col="ts", value_col="value", gap_us=_SESSION_GAP_US
    )

    def partial(t: pa.Table) -> pa.Table:
        ne = t.column("n_events").to_numpy(zero_copy_only=False).astype(np.int64)
        pdf = pd.DataFrame(
            {
                "user_id": t.column("user_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "n_sessions": np.ones(len(ne), np.int64),
                "n_bounce": (ne == 1).astype(np.int64),
            }
        )
        g = pdf.groupby("user_id", as_index=False, sort=False).agg(
            n_sessions=("n_sessions", "sum"), n_bounce=("n_bounce", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = keyed_hash_agg(
        sess.map_batches(partial, batch_format="pyarrow"),
        lambda b: b.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64),
        lambda g: g.groupby("user_id", as_index=False, sort=False).agg(
            n_sessions=("n_sessions", "sum"), n_bounce=("n_bounce", "sum")
        ),
        partitions=16,
    ).to_pandas()
    out["n_sessions"] = out["n_sessions"].astype(np.int64)
    out["n_bounce"] = out["n_bounce"].astype(np.int64)
    out["bounce_rate"] = out["n_bounce"].to_numpy(np.int64).astype(
        np.float64
    ) / out["n_sessions"].to_numpy(np.int64).astype(np.float64)
    return out.sort_values("user_id").reset_index(drop=True)


def _q_user_twa(sf_dir: str):
    """Per-user TIME-WEIGHTED average of the value signal
    (stages/stats.group_time_weighted): each value held until the
    user's next event, weighted by holding seconds — fixed-point
    quantize + exact int64 num/den sums + one IEEE division. The
    sensor/billing aggregate made hash-safe."""
    import ray.data as rd

    from abwcf_ray.stages.stats import group_time_weighted

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "ts", "value"],
    ).map_batches(
        lambda t: pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "value": t.column("value"),
            }
        ),
        batch_format="pyarrow",
    )
    out = group_time_weighted(
        ev,
        key_col="user_id",
        ts_col="ts_us",
        value_col="value",
        id_col="event_id",
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _q_type_value_quantiles(sf_dir: str):
    """Per-event-type discrete quantiles of the FLOAT value column
    (stages/sketch.group_float_quantiles): quantile_disc SELECTS an
    element, so the float output is bit-exact with no quantization —
    the float sibling of host_quantiles. Sparse float histogram, one
    keyed exchange."""
    import ray.data as rd

    from abwcf_ray.stages.sketch import group_float_quantiles

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_type", "value"],
    )
    out = group_float_quantiles(
        ev, group_col="event_type", col="value", qs=[0.1, 0.5, 0.9]
    ).to_pandas()
    return out.sort_values(["event_type", "q_pct"]).reset_index(drop=True)


def _q_knn_loo(sf_dir: str):
    """Leave-one-out 1-NN label accuracy
    (stages/similarity.knn_loo_accuracy): the embedding-space quality
    eval with EXACT integer distances (quantized), (d2, id) tie-broken
    nearest neighbor excluding self, per-label exact counts + one IEEE
    division — the full eval, assignment included, under a SQL value
    oracle."""
    import ray.data as rd

    from abwcf_ray.stages.similarity import knn_loo_accuracy

    _quiet()
    emb = rd.read_parquet(str(Path(sf_dir) / "embeddings.parquet"))
    out = knn_loo_accuracy(
        emb, vec_col="embedding", id_col="vec_id", label_col="label"
    ).to_pandas()
    return out.sort_values("label").reset_index(drop=True)


def _q_kmeans_step(sf_dir: str):
    """One exact k-means Lloyd step (stages/similarity.kmeans_assign_step):
    deterministic init (the min-vec_id row per label, quantized), exact
    integer squared distances, argmin tie-broken by centroid id, new
    per-(cluster, dim) counts + sums — the whole assign/resum step under
    a full SQL value oracle (assignment included)."""
    import ray.data as rd

    from abwcf_ray.stages.similarity import kmeans_assign_step

    _quiet()
    emb = rd.read_parquet(str(Path(sf_dir) / "embeddings.parquet"))

    # deterministic init: quantized embedding of the min vec_id per label
    def pick_min(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "label": t.column("label")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "vec_id": t.column("vec_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = pdf.groupby("label", as_index=False)["vec_id"].min()
        return pa.Table.from_pandas(g, preserve_index=False)

    mins = (
        emb.map_batches(pick_min, batch_format="pyarrow")
        .to_pandas()
        .groupby("label", as_index=False)["vec_id"]
        .min()
        .sort_values("label")
    )
    want = np.sort(mins["vec_id"].to_numpy(np.int64))

    def keep_min_rows(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        pos = np.searchsorted(want, ids)
        m = (pos < len(want)) & (want[np.minimum(pos, len(want) - 1)] == ids)
        return t.filter(pa.array(m))

    rows = emb.map_batches(keep_min_rows, batch_format="pyarrow").to_pandas()
    rows = rows.sort_values("label").reset_index(drop=True)
    C = np.floor(
        np.stack([np.asarray(v, np.float64) for v in rows["embedding"]])
        * 16384.0
    ).astype(np.int64)

    out = kmeans_assign_step(
        emb, vec_col="embedding", centroids_q=C, scale_bits=14
    ).to_pandas()
    return out.sort_values(["cluster", "dim"]).reset_index(drop=True)


def _q_centroid_dots(sf_dir: str):
    """Pairwise dot products between per-label embedding SUM vectors in
    exact fixed-point (cluster-geometry summary: which classes point the
    same way): the label_centroids machinery at scale_bits=14 (bound:
    sum_q products x dims < 2^63), pairwise combine on the labels x dim
    result — politeness-bounded driver finish, exact int64 end-to-end."""
    import ray.data as rd

    from abwcf_ray.stages.similarity import label_centroids

    _quiet()
    emb = rd.read_parquet(str(Path(sf_dir) / "embeddings.parquet"))
    cen = label_centroids(
        emb, vec_col="embedding", label_col="label", scale_bits=14
    ).to_pandas()
    piv = cen.pivot(index="label", columns="dim", values="sum_q").sort_index()
    S = piv.to_numpy(np.int64)
    labels = piv.index.to_numpy(np.int64)
    G = S @ S.T  # exact int64 under the documented bound
    ia, ib = np.triu_indices(len(labels), k=1)
    out = pd.DataFrame(
        {
            "label_a": labels[ia],
            "label_b": labels[ib],
            "dot_q": G[ia, ib].astype(np.int64),
        }
    )
    return out.sort_values(["label_a", "label_b"]).reset_index(drop=True)


def _q_events_audit(sf_dir: str):
    """Data-quality audit per event_type: row count, id/ts extents,
    value extents (floats only SELECTED — min/max pass bit-exact), and
    the exact distinct-user count — the schema/range validation pass a
    production pipeline runs before training. Map-side partials + one
    tiny keyed merge; distinct users via per-batch (type, user) dedupe
    (globally distinct after the keyed merge because pairs co-locate)."""
    import ray.data as rd

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.stages.dedup import keyed_hash_agg

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "event_type": t.column("event_type").to_pandas(),
                "event_id": t.column("event_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "ts_us": t.column("ts")
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False),
                "value": t.column("value").to_numpy(zero_copy_only=False),
                "user_id": t.column("user_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = pdf.groupby("event_type", as_index=False).agg(
            n=("event_id", "size"),
            min_id=("event_id", "min"),
            max_id=("event_id", "max"),
            min_ts=("ts_us", "min"),
            max_ts=("ts_us", "max"),
            min_value=("value", "min"),
            max_value=("value", "max"),
        )
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("event_type", as_index=False).agg(
            n=("n", "sum"),
            min_id=("min_id", "min"),
            max_id=("max_id", "max"),
            min_ts=("min_ts", "min"),
            max_ts=("max_ts", "max"),
            min_value=("min_value", "min"),
            max_value=("max_value", "max"),
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    audit = keyed_hash_agg(
        ev.map_batches(partial, batch_format="pyarrow"),
        lambda b: hash64(b.column("event_type")),
        merge,
        partitions=4,
    ).to_pandas()

    def upartial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "event_type": t.column("event_type").to_pandas(),
                "user_id": t.column("user_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(pdf, preserve_index=False)

    def ucount(g: pd.DataFrame) -> pd.DataFrame:
        m = g.drop_duplicates(["event_type", "user_id"])
        out = m.groupby("event_type", as_index=False).agg(
            n_users=("user_id", "size")
        )
        out["n_users"] = out["n_users"].astype(np.int64)
        return out

    users = keyed_hash_agg(
        ev.map_batches(upartial, batch_format="pyarrow"),
        lambda b: hash64(b.column("event_type")),
        ucount,
        partitions=4,
    ).to_pandas()
    out = audit.merge(users, on="event_type")
    return out.sort_values("event_type").reset_index(drop=True)


def _q_node_clustering(sf_dir: str):
    """Per-node local clustering coefficient
    (stages/graph.node_clustering): the triangle machinery with
    apex-carrying wedges so each closed wedge credits all three nodes;
    degrees merged in one final node-keyed exchange; coefficient is ONE
    IEEE division of exact int64s (0.0 below degree 2)."""
    from abwcf_ray.stages.graph import node_clustering

    _quiet()
    edges, _ = _graph_edges(sf_dir)
    out = node_clustering(edges).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


def _q_event_trigrams(sf_dir: str):
    """Consecutive 3-step journey counts
    (stages/transitions.ngram_path_counts): the bigram Markov machinery
    generalized to base-K window codes — one hash(user) exchange,
    per-shard bincount, K^3-bounded partials. Oracle: double LEAD."""
    import ray.data as rd

    from abwcf_ray.stages.transitions import ngram_path_counts

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type"],
    ).map_batches(
        lambda t: pa.table(
            {
                "event_id": t.column("event_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "user_id": t.column("user_id"),
                "event_type": t.column("event_type"),
            }
        ),
        batch_format="pyarrow",
    )
    return ngram_path_counts(
        ev,
        user_col="user_id",
        order_cols=["ts_us", "event_id"],
        type_col="event_type",
        n=3,
    )


def _q_last_touch(sf_dir: str):
    """Last-touch attribution (stages/winfun.last_match_before): for
    every purchase, the id of the user's latest PRIOR view/click — one
    keyed exchange, per-shard running-max of source positions with the
    segment-base validity test (no per-row loop). The oracle is the
    MAX(CASE...) OVER (... 1 PRECEDING) position window joined back to
    ids."""
    import ray.data as rd

    from abwcf_ray.stages.winfun import last_match_before

    _quiet()

    def mk(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "is_src": pc.cast(
                    pc.or_(
                        pc.equal(et, pa.scalar("view")),
                        pc.equal(et, pa.scalar("click")),
                    ),
                    pa.int64(),
                ),
                "is_tgt": pc.cast(
                    pc.equal(et, pa.scalar("purchase")), pa.int64()
                ),
            }
        )

    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
    ).map_batches(mk, batch_format="pyarrow")
    out = last_match_before(
        ev,
        key_col="user_id",
        order_cols=["ts_us", "event_id"],
        source_col="is_src",
        target_col="is_tgt",
        id_col="event_id",
    ).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def _q_canonical_docs(sf_dir: str):
    """Canonical-document selection per exact-duplicate cluster: the
    dedup POLICY op — cluster = min doc_id over identical text, the
    keeper is the (n_chars DESC, doc_id ASC) argmax; one hash(text)
    keyed exchange (the exact_dedup shape) whose merge picks both in
    one vectorized sort."""
    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.stages.dedup import keyed_hash_agg

    _quiet()
    docs = _docs(sf_dir, ["doc_id", "text", "n_chars"])

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["text", "n_chars", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        a = g.groupby("text", sort=False).agg(
            canonical_id=("doc_id", "first"),
            cluster=("doc_id", "min"),
            n_members=("doc_id", "size"),
        )
        a = a.reset_index(drop=True)[["cluster", "canonical_id", "n_members"]]
        for c in a.columns:
            a[c] = a[c].astype(np.int64)
        return a

    out = keyed_hash_agg(
        docs,
        lambda b: hash64(b.column("text")),
        pick,
        partitions=32,
    ).to_pandas()
    return out.sort_values("cluster").reset_index(drop=True)


def _q_journey_counts(sf_dir: str):
    """Entry-journey distribution: each user's FIRST-5 event-type path
    (ordered by event_id), counted per distinct journey — per-shard
    vectorized head-5 + segmented string join (users land whole via one
    hash(user) exchange), then one tiny hash(journey) count merge;
    nothing user-sized on the driver."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg
    from abwcf_ray.functions.hashing import hash64

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["user_id", "event_id", "event_type"],
    )

    def journeys(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "journey": pd.Series([], dtype=object),
                    "n_users": pd.Series([], dtype=np.int64),
                }
            )
        g = g.sort_values(["user_id", "event_id"], kind="mergesort")
        rk = g.groupby("user_id").cumcount()
        g = g[rk < 5]
        p = g.groupby("user_id", sort=False)["event_type"].agg(">".join)
        out = p.value_counts().rename_axis("journey").reset_index(name="n_users")
        out["n_users"] = out["n_users"].astype(np.int64)
        return out

    parts = keyed_hash_agg(
        ev,
        lambda b: b.column("user_id")
        .to_numpy(zero_copy_only=False)
        .view(np.uint64),
        journeys,
        partitions=16,
    )
    out = keyed_hash_agg(
        parts,
        lambda b: hash64(b.column("journey")),
        lambda g: g.groupby("journey", as_index=False)["n_users"]
        .sum()
        .astype({"n_users": np.int64}),
        partitions=8,
    ).to_pandas()
    return out.sort_values("journey").reset_index(drop=True)


def _q_snm_pairs(sf_dir: str):
    """Sorted-neighborhood (merge/purge) dedup join
    (stages/simjoin.sorted_neighborhood_join): the THIRD candidate
    scheme next to LSH and prefix filtering — exact global rank on an
    8-byte lexicographic text key, window-10 rank pairs, exact
    shingle-Jaccard verify through the shared router. The oracle pins
    BOTH the blocking definition (ROW_NUMBER + rank-distance join) and
    the verification stats."""
    from abwcf_ray.stages.simjoin import sorted_neighborhood_join

    _quiet()
    out = sorted_neighborhood_join(
        _docs(sf_dir, ["doc_id", "text"]),
        window=10,
        threshold_num=3,
        threshold_den=10,
        shingle_k=3,
    ).to_pandas()
    if "shared" not in out.columns:
        out = pd.DataFrame(
            {
                c: pd.Series([], dtype=np.int64)
                for c in ["src", "dst", "shared", "size_a", "size_b"]
            }
        ).assign(jaccard=pd.Series([], dtype=np.float64))
    return out.sort_values(["src", "dst"]).reset_index(drop=True)


def _q_label_dim_medians(sf_dir: str):
    """ROBUST per-(label, dim) centroid: the continuous MEDIAN of each
    quantized embedding component (outlier-immune alternative to the
    mean centroid) — stages/sketch.group_median_cont on a packed
    (label * dims + dim) composite key, unpacked after; the (a+b)*0.5
    dyadic midpoint keeps the float hash-exact."""
    import ray.data as rd

    from abwcf_ray.stages.sketch import group_median_cont

    _quiet()
    emb = rd.read_parquet(str(Path(sf_dir) / "embeddings.parquet"))
    DIMS = 64

    def explode(t: pa.Table) -> pa.Table:
        pl = t.column("embedding")
        if isinstance(pl, pa.ChunkedArray):
            pl = pl.combine_chunks()
        X = np.asarray(pl.flatten().to_numpy(zero_copy_only=False)).reshape(
            -1, DIMS
        )
        q = np.floor(X.astype(np.float64) * 16384.0).astype(np.int64)
        lab = t.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        g = np.repeat(lab, DIMS) * DIMS + np.tile(
            np.arange(DIMS, dtype=np.int64), len(lab)
        )
        return pa.table({"g": pa.array(g), "q": pa.array(q.ravel())})

    out = group_median_cont(
        emb.map_batches(explode, batch_format="pyarrow"),
        group_col="g",
        col="q",
        merge_partitions=16,
    ).to_pandas()
    out["label"] = (out["g"] // DIMS).astype(np.int64)
    out["dim"] = (out["g"] % DIMS).astype(np.int64)
    out = out[["label", "dim", "n", "med_cont"]]
    return out.sort_values(["label", "dim"]).reset_index(drop=True)


def _q_vocab_growth(sf_dir: str):
    """Vocabulary growth curve (the Heaps'-law corpus statistic): how
    many distinct tokens exist among the first 25/50/75/100%% of docs
    (by doc_id) — computed as ONE pass: per-token MIN(doc_id) via
    map-side (token, min-doc) combiners + one keyed merge (exchange
    O(vocabulary)), then each token counts toward every checkpoint its
    first doc precedes. Exact int64."""
    import ray.data as rd

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.stages.dedup import keyed_hash_agg

    _quiet()
    docs = _docs(sf_dir, ["doc_id", "text"])
    n_docs = docs.count()
    cps = [
        (n_docs * 25) // 100,
        (n_docs * 50) // 100,
        (n_docs * 75) // 100,
        n_docs,
    ]

    def partial(t: pa.Table) -> pa.Table:
        texts = [tx or "" for tx in t.column("text").to_pylist()]
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        tok_lists = [tx.split() for tx in texts]
        lens = np.array([len(x) for x in tok_lists], np.int64)
        flat = [w for ts in tok_lists for w in ts]
        did = np.repeat(ids, lens)
        g = (
            pd.DataFrame({"w": flat, "min_doc": did})
            .groupby("w", as_index=False, sort=False)["min_doc"]
            .min()
        )
        g["min_doc"] = g["min_doc"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    firsts = keyed_hash_agg(
        docs.map_batches(partial, batch_format="pyarrow"),
        lambda b: hash64(b.column("w")),
        lambda g: g.groupby("w", as_index=False)["min_doc"]
        .min()
        .astype({"min_doc": np.int64}),
        partitions=16,
    )

    def bucketize(t: pa.Table) -> pa.Table:
        md = t.column("min_doc").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        rows = []
        for cp in cps:
            rows.append((int(cp), int((md < cp).sum())))
        return pa.table(
            {
                "first_docs": pa.array([r[0] for r in rows], pa.int64()),
                "n": pa.array([r[1] for r in rows], pa.int64()),
            }
        )

    parts = firsts.map_batches(bucketize, batch_format="pyarrow").to_pandas()
    out = parts.groupby("first_docs", as_index=False)["n"].sum().rename(
        columns={"n": "n_distinct_tokens"}
    )
    out["n_distinct_tokens"] = out["n_distinct_tokens"].astype(np.int64)
    return out.sort_values("first_docs").reset_index(drop=True)


def _q_order_size_hist(sf_dir: str):
    """Order-fanout histogram — the join-cardinality profile every
    planner wants: lineitems per order (keyed count), then orders per
    fanout size (second tiny keyed count). Exact int64, two
    combiner-bounded exchanges."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg

    _quiet()
    li = rd.read_parquet(
        str(Path(sf_dir) / "lineitem.parquet"), columns=["l_orderkey"]
    )

    def partial(t: pa.Table) -> pa.Table:
        k, c = np.unique(
            t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(
                np.int64
            ),
            return_counts=True,
        )
        return pa.table(
            {"k": pa.array(k, pa.int64()), "c": pa.array(c.astype(np.int64))}
        )

    per_order = keyed_hash_agg(
        li.map_batches(partial, batch_format="pyarrow"),
        lambda b: b.column("k").to_numpy(zero_copy_only=False).view(np.uint64),
        lambda g: g.groupby("k", as_index=False)["c"].sum().astype(
            {"c": np.int64}
        ),
        partitions=16,
    )

    def hist(t: pa.Table) -> pa.Table:
        s, n = np.unique(
            t.column("c").to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True,
        )
        return pa.table(
            {
                "n_items": pa.array(s, pa.int64()),
                "n_orders": pa.array(n.astype(np.int64)),
            }
        )

    parts = per_order.map_batches(hist, batch_format="pyarrow").to_pandas()
    out = parts.groupby("n_items", as_index=False)["n_orders"].sum()
    out["n_orders"] = out["n_orders"].astype(np.int64)
    return out.sort_values("n_items").reset_index(drop=True)


def _q_conversion_latency(sf_dir: str):
    """View-to-purchase conversion latency quantiles: per user, first
    'view' timestamp v0 and the first 'purchase' at-or-after it — one
    hash(user) exchange + vectorized per-segment min scans — then the
    global exact quantile_disc of the floor-divided latency seconds
    (stages/sketch.int_quantiles). The funnel-analytics composition,
    exact int end-to-end."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg
    from abwcf_ray.stages.sketch import int_quantiles

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["user_id", "ts", "event_type"],
    ).map_batches(
        lambda t: pa.table(
            {
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "is_view": pc.cast(
                    pc.equal(t.column("event_type"), pa.scalar("view")),
                    pa.int64(),
                ),
                "is_pur": pc.cast(
                    pc.equal(t.column("event_type"), pa.scalar("purchase")),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def latencies(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"latency_s": pd.Series([], dtype=np.int64)})
        if len(g) == 0:
            return empty
        iv = g[g["is_view"] == 1].groupby("user_id")["ts_us"].min()
        p = g[g["is_pur"] == 1][["user_id", "ts_us"]].copy()
        if p.empty or iv.empty:
            return empty
        p["v0"] = p["user_id"].map(iv)
        p = p[p["v0"].notna() & (p["ts_us"] >= p["v0"])]
        if p.empty:
            return empty
        p0 = p.groupby("user_id").agg(p0=("ts_us", "min"), v0=("v0", "min"))
        lat = (
            (p0["p0"].to_numpy(np.int64) - p0["v0"].to_numpy(np.int64))
            // 1_000_000
        )
        return pd.DataFrame({"latency_s": lat.astype(np.int64)})

    lat_ds = keyed_hash_agg(
        ev,
        lambda b: b.column("user_id")
        .to_numpy(zero_copy_only=False)
        .view(np.uint64),
        latencies,
        partitions=16,
    )
    return int_quantiles(lat_ds, col="latency_s", qs=[0.5, 0.9, 0.99])


def _q_orders_recon(sf_dir: str):
    """Cross-table key reconciliation — the data-integrity primitive
    every ingestion pipeline runs: distinct o_orderkey vs distinct
    l_orderkey, counted as only-left / only-right / both. Map-side
    distinct combiners on each side, side-tagged union, ONE keyed
    exchange whose per-partition presence flags ADD (each key lives in
    exactly one partition), partitions-sized driver finish. Exact
    int64."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg

    _quiet()

    def side(col: str, tag: int):
        def fn(t: pa.Table) -> pa.Table:
            k = np.unique(
                t.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
            )
            return pa.table(
                {
                    "k": pa.array(k, pa.int64()),
                    "s": pa.array(np.full(len(k), tag, np.int64)),
                }
            )

        return fn

    left = rd.read_parquet(
        str(Path(sf_dir) / "orders.parquet"), columns=["o_orderkey"]
    ).map_batches(side("o_orderkey", 1), batch_format="pyarrow")
    right = rd.read_parquet(
        str(Path(sf_dir) / "lineitem.parquet"), columns=["l_orderkey"]
    ).map_batches(side("l_orderkey", 2), batch_format="pyarrow")

    def summarize(g: pd.DataFrame) -> pd.DataFrame:
        # sides are 1/2 bit flags; per-key OR == sum of the DISTINCT
        # (k, s) pairs — fully vectorized
        m = g.drop_duplicates(["k", "s"]).groupby("k")["s"].sum()
        vc = m.value_counts()
        return pd.DataFrame(
            {
                "n_only_orders": np.array([int(vc.get(1, 0))], np.int64),
                "n_only_lineitem": np.array([int(vc.get(2, 0))], np.int64),
                "n_both": np.array([int(vc.get(3, 0))], np.int64),
            }
        )

    parts = keyed_hash_agg(
        left.union(right),
        lambda b: b.column("k").to_numpy(zero_copy_only=False).view(np.uint64),
        summarize,
        partitions=16,
    ).to_pandas()
    out = pd.DataFrame(
        {c: np.array([int(parts[c].sum())], np.int64) for c in parts.columns}
    )
    return out


def _q_user_running_max(sf_dir: str):
    """Per-user running maximum + drawdown of an integer signal
    (stages/winfun.keyed_window_functions max_col option): the
    peak-tracking window — MAX OVER (ROWS UNBOUNDED PRECEDING) and its
    gap to the current value, exact int64 on one keyed exchange."""
    import ray.data as rd

    from abwcf_ray.stages.winfun import keyed_window_functions

    _quiet()

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "w": eid % 1000,
            }
        )

    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    ).map_batches(mk, batch_format="pyarrow")
    out = keyed_window_functions(
        ev,
        key_col="user_id",
        order_cols=["ts_us", "event_id"],
        max_col="w",
    ).to_pandas()
    out = out[["event_id", "w", "run_max", "drawdown"]].astype(
        {c: np.int64 for c in ["event_id", "w", "run_max", "drawdown"]}
    )
    return out.sort_values("event_id").reset_index(drop=True)


def _q_burst_days(sf_dir: str):
    """3-sigma burst days per user — anomaly detection with EXACT
    integer arithmetic: a day's count c bursts when c*m - S1 > 0 and
    (c*m - S1)^2 > 9*(m*S2 - S1^2) over the user's m daily counts
    (the z > 3 test cross-multiplied to kill the sqrt and divisions).
    Daily counts + per-user moments off ONE hash(user) exchange, the
    predicate vectorized in the same shard."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["user_id", "ts"]
    ).map_batches(
        lambda t: pa.table(
            {
                "user_id": t.column("user_id"),
                "day": pc.divide(
                    t.column("ts").cast(pa.int64()),
                    pa.scalar(86_400_000_000, pa.int64()),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "user_id": t.column("user_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "day": t.column("day")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = pdf.groupby(["user_id", "day"], as_index=False).size()
        g = g.rename(columns={"size": "c"})
        g["c"] = g["c"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["user_id", "day"], as_index=False)["c"].sum()
        m["c"] = m["c"].astype(np.int64)
        agg = m.groupby("user_id", as_index=False).agg(
            m_days=("day", "size"), s1=("c", "sum")
        )
        m2 = m.assign(csq=m["c"].to_numpy(np.int64) ** 2)
        agg = agg.merge(
            m2.groupby("user_id", as_index=False)["csq"].sum().rename(
                columns={"csq": "s2"}
            ),
            on="user_id",
        )
        j = m.merge(agg, on="user_id")
        c = j["c"].to_numpy(np.int64)
        md = j["m_days"].to_numpy(np.int64)
        s1 = j["s1"].to_numpy(np.int64)
        s2 = j["s2"].to_numpy(np.int64)
        dev = c * md - s1
        keep = (dev > 0) & (dev * dev > 9 * (md * s2 - s1 * s1))
        out = j.loc[keep, ["user_id", "day", "c"]].copy()
        for col in out.columns:
            out[col] = out[col].astype(np.int64)
        return out

    out = keyed_hash_agg(
        ev.map_batches(partial, batch_format="pyarrow"),
        lambda b: b.column("user_id")
        .to_numpy(zero_copy_only=False)
        .view(np.uint64),
        finish,
        partitions=16,
    ).to_pandas()
    return out.sort_values(["user_id", "day"]).reset_index(drop=True)


def _q_label_scatter(sf_dir: str):
    """Per-label within-cluster scatter (stages/similarity.label_scatter):
    trace of the biased covariance in EXACT fixed-point — quantized
    first/second moments per (label, dim), one keyed exchange, trace
    numerator exact int64, scatter one IEEE division. The
    label_centroids dyadic discipline extended to second moments."""
    import ray.data as rd

    from abwcf_ray.stages.similarity import label_scatter

    _quiet()
    emb = rd.read_parquet(str(Path(sf_dir) / "embeddings.parquet"))
    out = label_scatter(emb, vec_col="embedding", label_col="label").to_pandas()
    return out.sort_values("label").reset_index(drop=True)


def _q_user_gini(sf_dir: str):
    """Per-user event-type Gini impurity: 1 - sum(p^2) computed as the
    exact integer (n^2 - sum(c^2)) / n^2 — ONE IEEE division of two
    exact int64s (the entropy-style diversity score made hash-safe).
    Map-side (user, type) counts + one keyed exchange."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["user_id", "event_type"],
    )

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "user_id": t.column("user_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "event_type": t.column("event_type").to_pandas(),
            }
        )
        g = pdf.groupby(["user_id", "event_type"], as_index=False).size()
        g = g.rename(columns={"size": "c"})
        g["c"] = g["c"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["user_id", "event_type"], as_index=False)["c"].sum()
        c = m["c"].to_numpy(np.int64)
        m["csq"] = c * c
        out = m.groupby("user_id", as_index=False).agg(
            n=("c", "sum"), ssq=("csq", "sum")
        )
        out["n"] = out["n"].astype(np.int64)
        out["ssq"] = out["ssq"].astype(np.int64)
        n = out["n"].to_numpy(np.int64)
        out["gini"] = (n * n - out["ssq"].to_numpy(np.int64)).astype(
            np.float64
        ) / (n * n).astype(np.float64)
        return out

    out = keyed_hash_agg(
        ev.map_batches(partial, batch_format="pyarrow"),
        lambda b: b.column("user_id")
        .to_numpy(zero_copy_only=False)
        .view(np.uint64),
        finish,
        partitions=16,
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _q_activity_spikes(sf_dir: str):
    """Day-over-day activity spikes: users' daily event counts that at
    least DOUBLED vs their previous ACTIVE day — daily counts via one
    keyed aggregate, LAG via the stages/winfun keyed window exchange,
    integer compare (no floats). The change-detection composition."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg
    from abwcf_ray.stages.winfun import keyed_window_functions

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["user_id", "ts"]
    ).map_batches(
        lambda t: pa.table(
            {
                "user_id": t.column("user_id"),
                "day": pc.divide(
                    t.column("ts").cast(pa.int64()),
                    pa.scalar(86_400_000_000, pa.int64()),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "user_id": t.column("user_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "day": t.column("day")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = pdf.groupby(["user_id", "day"], as_index=False).size()
        g = g.rename(columns={"size": "n"})
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    daily = keyed_hash_agg(
        ev.map_batches(partial, batch_format="pyarrow"),
        lambda b: b.column("user_id")
        .to_numpy(zero_copy_only=False)
        .view(np.uint64),
        lambda g: g.groupby(["user_id", "day"], as_index=False)["n"]
        .sum()
        .astype({"n": np.int64}),
        partitions=16,
    )
    w = keyed_window_functions(
        daily,
        key_col="user_id",
        order_cols=["day"],
        lag_col="n",
        lag_sentinel=-1,
    ).to_pandas()
    w = w.rename(columns={"lag_prev": "n_prev"})
    out = w[(w["n_prev"] > 0) & (w["n"] >= 2 * w["n_prev"])]
    out = out[["user_id", "day", "n", "n_prev"]].astype(
        {c: np.int64 for c in ["user_id", "day", "n", "n_prev"]}
    )
    return out.sort_values(["user_id", "day"]).reset_index(drop=True)


def _q_interval_join(sf_dir: str):
    """Keyed interval OVERLAP join (stages/intervals.interval_join):
    even-event intervals x odd-event intervals per user, strict-overlap
    pairs with the overlap length — ONE union + ONE keyed exchange +
    per-shard searchsorted-prefix explode (composite segment offsets,
    no per-key loop). Exact int64."""
    import ray.data as rd

    from abwcf_ray.stages.intervals import interval_join

    _quiet()

    def mk(parity: int, id_name: str):
        def fn(t: pa.Table) -> pa.Table:
            eid = t.column("event_id").to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            ts = (
                t.column("ts")
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            keep = (eid % 2) == parity
            dur = (eid % 500 + 50) * 1_000_000
            return pa.table(
                {
                    "user_id": t.column("user_id").to_numpy(
                        zero_copy_only=False
                    )[keep],
                    "s": ts[keep],
                    "e": (ts + dur)[keep],
                    id_name: eid[keep],
                }
            )

        return fn

    def read():
        return rd.read_parquet(
            str(Path(sf_dir) / "events.parquet"),
            columns=["event_id", "user_id", "ts"],
        )

    left = read().map_batches(mk(0, "left_eid"), batch_format="pyarrow")
    right = read().map_batches(mk(1, "right_eid"), batch_format="pyarrow")
    out = interval_join(
        left,
        right,
        key_col="user_id",
        start_col="s",
        end_col="e",
        left_id="left_eid",
        right_id="right_eid",
    ).to_pandas()
    return out.sort_values(["user_id", "left_eid", "right_eid"]).reset_index(
        drop=True
    )


def _q_user_concurrency(sf_dir: str):
    """Per-user PEAK CONCURRENCY (stages/intervals.peak_concurrency):
    sweep-line max of simultaneously-open event intervals — 2 delta rows
    per interval through ONE keyed exchange, per-shard cumsum +
    segmented max. Half-open semantics (the -1 sorts before the +1 at
    equal ts), mirrored by the oracle's ORDER BY ts, delta."""
    import ray.data as rd

    from abwcf_ray.stages.intervals import peak_concurrency

    _quiet()

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        ts = (
            t.column("ts")
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        dur = (eid % 900 + 100) * 1_000_000
        return pa.table(
            {"user_id": t.column("user_id"), "s": ts, "e": ts + dur}
        )

    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    ).map_batches(mk, batch_format="pyarrow")
    out = peak_concurrency(
        ev, key_col="user_id", start_col="s", end_col="e"
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _q_top_types_per_user(sf_dir: str):
    """Top-2 event types per user by count (ties broken by type ASC):
    map-side (user, type) partial counts + ONE hash(user) keyed exchange
    whose merge sums counts and takes the per-user head — the
    top-k-BY-AGGREGATE composition (counts never exist globally, only
    per-shard). Exact int64."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["user_id", "event_type"],
    )

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "user_id": t.column("user_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "event_type": t.column("event_type").to_pandas(),
            }
        )
        g = pdf.groupby(["user_id", "event_type"], as_index=False).size()
        g = g.rename(columns={"size": "n"})
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def top2(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        m["n"] = m["n"].astype(np.int64)
        m = m.sort_values(
            ["user_id", "n", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        m["rk"] = m.groupby("user_id").cumcount().astype(np.int64) + 1
        return m[m["rk"] <= 2].reset_index(drop=True)

    out = keyed_hash_agg(
        ev.map_batches(partial, batch_format="pyarrow"),
        lambda b: b.column("user_id")
        .to_numpy(zero_copy_only=False)
        .view(np.uint64),
        top2,
        partitions=16,
    ).to_pandas()
    return out.sort_values(["user_id", "rk"]).reset_index(drop=True)


def _q_simjoin_pairs(sf_dir: str):
    """Exact 3-shingle Jaccard similarity self-join at threshold 3/10
    (stages/simjoin.similarity_join): the prefix-filter AllPairs join —
    recall 1.0 BY CONSTRUCTION (vs the probabilistic LSH candidates in
    ngram_dedup); rarest-first global order broadcast once, bucket pair
    explode, exact overlap stats off one flat lexsort in the shared
    verify router. The SQL oracle enumerates pairs COMPLETELY (token
    explode self-join), so a hash-match proves both the stats AND that
    prefix filtering missed nothing. Counts exact int64; jaccard is one
    IEEE division. Contract: docs have >= shingle_k tokens on this
    fixture (min 10), so the short-doc single-shingle fallback never
    diverges from the SQL shingle set."""
    from abwcf_ray.stages.simjoin import similarity_join

    _quiet()
    out = similarity_join(
        _docs(sf_dir, ["doc_id", "text"]),
        threshold_num=3,
        threshold_den=10,
        shingle_k=3,
    ).to_pandas()
    if "shared" not in out.columns:
        out = pd.DataFrame(
            {
                c: pd.Series([], dtype=np.int64)
                for c in ["src", "dst", "shared", "size_a", "size_b"]
            }
        ).assign(jaccard=pd.Series([], dtype=np.float64))
    return out.sort_values(["src", "dst"]).reset_index(drop=True)


def _q_user_rate_window(sf_dir: str):
    """Per-event 1-hour RANGE-frame count + weighted sum
    (stages/winfun.range_frame_agg): SQL's RANGE BETWEEN X PRECEDING
    frame — the burst-detection / rate-limit window — vectorized per
    keyed shard with the composite segment-offset searchsorted trick
    (no per-key loop). Exact int64; deterministic under ts ties because
    RANGE frames include peers."""
    import ray.data as rd

    from abwcf_ray.stages.winfun import range_frame_agg

    _quiet()

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "w": eid % 100,
            }
        )

    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    ).map_batches(mk, batch_format="pyarrow")
    out = range_frame_agg(
        ev,
        key_col="user_id",
        ts_col="ts_us",
        weight_col="w",
        range_preceding=3_600_000_000,
        id_col="event_id",
    ).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def _q_active_days(sf_dir: str):
    """Per-user activity-calendar islands
    (stages/transitions.distinct_value_islands): distinct active days
    grouped into runs of CONSECUTIVE days — n_values / n_islands /
    longest. The day - ROW_NUMBER() islands trick, vectorized on the
    deduplicated value axis per keyed shard. Exact int64."""
    import ray.data as rd

    from abwcf_ray.stages.transitions import distinct_value_islands

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["user_id", "ts"]
    ).map_batches(
        lambda t: pa.table(
            {
                "user_id": t.column("user_id"),
                "day": pc.divide(
                    t.column("ts").cast(pa.int64()),
                    pa.scalar(86_400_000_000, pa.int64()),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out = distinct_value_islands(
        ev, key_col="user_id", value_col="day"
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _q_link_reciprocity(sf_dir: str):
    """Mutual-link rate of the crawl link graph
    (stages/graph.reciprocity): fraction of directed edges whose
    reverse exists — the link-farm signal. Unordered-pair keyed
    exchange, per-partition one-row summaries, one IEEE division of
    exact counts."""
    from abwcf_ray.stages.graph import reciprocity

    _quiet()
    edges, _ = _graph_edges(sf_dir)
    return reciprocity(edges)


def _q_user_intervals(sf_dir: str):
    """Per-user merged activity-interval coverage
    (stages/intervals.interval_coverage): each event opens a
    [ts, ts + dur] interval (dur deterministic from event_id),
    overlapping/touching intervals coalesce into maximal blocks — the
    gaps-and-islands family over RANGES. ONE hash(user) exchange +
    per-shard vectorized islands (grouped cummax + one boundary scan,
    no per-interval loop); exact int64 throughout. The oracle is the
    MAX(end) OVER ... 1 PRECEDING islands rewrite."""
    import ray.data as rd

    from abwcf_ray.stages.intervals import interval_coverage

    _quiet()

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        ts = (
            t.column("ts")
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        dur = (eid % 900 + 100) * 1_000_000
        return pa.table(
            {"user_id": t.column("user_id"), "s": ts, "e": ts + dur}
        )

    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    ).map_batches(mk, batch_format="pyarrow")
    out = interval_coverage(
        ev, key_col="user_id", start_col="s", end_col="e"
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _q_user_cum_distinct(sf_dir: str):
    """Per-event CUMULATIVE DISTINCT event-type count
    (stages/winfun.cumulative_distinct): SQL's missing
    COUNT(DISTINCT) OVER via the first-occurrence-flag + running-sum
    rewrite, vectorized per keyed shard (one duplicated() pass + one
    grouped cumsum). Exact int64; the oracle is the identical
    ROW_NUMBER()=1 / SUM(flag) OVER rewrite."""
    import ray.data as rd

    from abwcf_ray.stages.winfun import cumulative_distinct

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
    ).map_batches(
        lambda t: pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "event_type": t.column("event_type"),
            }
        ),
        batch_format="pyarrow",
    )
    out = cumulative_distinct(
        ev,
        key_col="user_id",
        order_cols=["ts_us", "event_id"],
        value_col="event_type",
        out_col="n_types_seen",
        id_col="event_id",
    ).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def _q_host_iqr(sf_dir: str):
    """Per-host Tukey-fence outlier summary on doc length
    (stages/sketch.group_iqr_outliers): continuous quartiles + IQR +
    fence counts off ONE sparse-histogram exchange. The dyadic
    discipline extended to the quartile family: f = frac(q*(n-1)) is
    k/4 at q in {0.25, 0.75}, so q1/q3/iqr/1.5*iqr and both fences are
    exactly representable and the float columns hash-match."""
    from abwcf_ray.stages.sketch import group_iqr_outliers

    _quiet()

    def with_host(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "host": pa.array(
                    [f"h{i % _HOSTS}.example" for i in d], pa.string()
                ),
                "n_chars": t.column("n_chars"),
            }
        )

    ds = _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        with_host, batch_format="pyarrow"
    )
    out = group_iqr_outliers(ds, group_col="host", col="n_chars").to_pandas()
    return out.sort_values("host").reset_index(drop=True)


def _q_host_median_cont(sf_dir: str):
    """Per-host CONTINUOUS median of doc length
    (stages/sketch.group_median_cont): quantile_cont(0.5) semantics off
    the same one-exchange sparse histogram as group_mad; the even-N
    midpoint (a+b)*0.5 is exactly representable, so the float
    hash-matches."""
    from abwcf_ray.stages.sketch import group_median_cont

    _quiet()

    def with_host(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "host": pa.array(
                    [f"h{i % _HOSTS}.example" for i in d], pa.string()
                ),
                "n_chars": t.column("n_chars"),
            }
        )

    ds = _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        with_host, batch_format="pyarrow"
    )
    out = group_median_cont(ds, group_col="host", col="n_chars").to_pandas()
    return out.sort_values("host").reset_index(drop=True)


def _q_doc_pct_rank(sf_dir: str):
    """Global PERCENT_RANK over (n_chars, doc_id) — the exact
    distributed total order (stages/rank.global_rank: histogram pass +
    range exchange) finished with one IEEE division (rank-1)/(N-1);
    a unique tie-break makes RANK == ROW_NUMBER so the SQL window
    hash-matches."""
    from abwcf_ray.stages.rank import global_rank

    _quiet()
    docs = _docs(sf_dir, ["doc_id", "n_chars"])
    n = docs.count()
    out = global_rank(docs, key_col="n_chars", id_col="doc_id").to_pandas()
    out["pct_rank"] = (out["rank"].to_numpy(np.int64) - 1).astype(
        np.float64
    ) / np.float64(n - 1)
    return (
        out[["doc_id", "n_chars", "rank", "pct_rank"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_label_centroids(sf_dir: str):
    """Per-label embedding centroid in exact fixed-point
    (stages/similarity.label_centroids): components quantized by an
    EXACT power-of-two multiply + floor, int64 partial sums per
    (label, dim), one keyed exchange, single-division quantized mean.
    Long output (label, dim, n, sum_q, mean_q)."""
    import ray.data as rd

    from abwcf_ray.stages.similarity import label_centroids

    _quiet()
    emb = rd.read_parquet(str(Path(sf_dir) / "embeddings.parquet"))
    out = label_centroids(emb, vec_col="embedding", label_col="label").to_pandas()
    return out.sort_values(["label", "dim"]).reset_index(drop=True)


def _q_region_revenue(sf_dir: str):
    """Multi-join chain (the TPC-H Q5 shape): lineitem ⋈ orders ⋈
    customer distributed via stages/join.equi_join (keyed exchanges,
    big-big), then nation ⋈ region collapsed to a 25-row broadcast
    lookup applied map-side (never shuffled). Revenue is EXACT integer
    cents·(100−disc_pct) summed int64, one IEEE division at the end —
    the float discipline that lets the 5-table SQL mirror hash-match."""
    import ray.data as rd

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.stages.dedup import keyed_hash_agg
    from abwcf_ray.stages.join import equi_join

    _quiet()
    li = rd.read_parquet(
        str(Path(sf_dir) / "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "rev_scaled": pa.array(
                    np.floor(
                        t.column("l_extendedprice").to_numpy(zero_copy_only=False)
                        * 100.0
                        + 0.5
                    ).astype(np.int64)
                    * (
                        100
                        - np.floor(
                            t.column("l_discount").to_numpy(zero_copy_only=False)
                            * 100.0
                            + 0.5
                        ).astype(np.int64)
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    od = rd.read_parquet(
        str(Path(sf_dir) / "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    cu = rd.read_parquet(
        str(Path(sf_dir) / "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    j1 = equi_join(
        li,
        od.map_batches(
            lambda t: pa.table(
                {
                    "l_orderkey": t.column("o_orderkey"),
                    "o_custkey": t.column("o_custkey"),
                }
            ),
            batch_format="pyarrow",
        ),
        on="l_orderkey",
        how="inner",
    )
    j2 = equi_join(
        j1.map_batches(
            lambda t: pa.table(
                {
                    "c_custkey": t.column("o_custkey"),
                    "rev_scaled": t.column("rev_scaled"),
                }
            ),
            batch_format="pyarrow",
        ),
        cu,
        on="c_custkey",
        how="inner",
    )

    # nation ⋈ region is 25 rows: collapse to a broadcast nationkey ->
    # region-name lookup, applied map-side (the dimension never shuffles)
    import pyarrow.parquet as pq

    na = pq.read_table(
        str(Path(sf_dir) / "nation.parquet"), columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()
    re_ = pq.read_table(
        str(Path(sf_dir) / "region.parquet"), columns=["r_regionkey", "r_name"]
    ).to_pandas()
    nr = na.merge(re_, left_on="n_regionkey", right_on="r_regionkey")
    kmap = dict(zip(nr["n_nationkey"].astype(int), nr["r_name"]))

    def attach_region(t: pa.Table) -> pa.Table:
        nk = t.column("c_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
        names = pd.Series(nk).map(kmap).to_numpy()
        return pa.table(
            {
                "r_name": pa.array(names, pa.string()),
                "rev_scaled": t.column("rev_scaled"),
            }
        )

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "r_name": t.column("r_name").to_pandas(),
                "s": t.column("rev_scaled")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = pdf.groupby("r_name", as_index=False, sort=False).agg(s=("s", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    out = keyed_hash_agg(
        j2.map_batches(attach_region, batch_format="pyarrow").map_batches(
            partial, batch_format="pyarrow"
        ),
        lambda b: hash64(b.column("r_name")),
        lambda g: g.groupby("r_name", as_index=False, sort=False).agg(s=("s", "sum")),
        partitions=4,
    ).to_pandas()
    out["rev_scaled"] = out["s"].astype(np.int64)
    out["revenue"] = out["rev_scaled"].to_numpy(np.int64).astype(
        np.float64
    ) / np.float64(10000.0)
    return (
        out[["r_name", "rev_scaled", "revenue"]]
        .sort_values("r_name")
        .reset_index(drop=True)
    )


_ROUTE_RULES = [
    "/u/1",
    "/u/1/t/click",
    "/u/12",
    "/u/2/t/view",
    "/u/3",
    "/u/4/t/purchase",
    "/u/10",
]


def _q_route_match(sf_dir: str):
    """Longest-matching-prefix routing (stages/index.
    longest_prefix_route): events become /u/<user>/t/<type> paths,
    labeled with the LONGEST rule prefix from a broadcast rule table
    (vectorized starts_with masks, shortest-first overwrite — no
    exchange), then counted per rule. Oracle: LIKE-join + length-DESC
    ROW_NUMBER."""
    import ray.data as rd

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.stages.dedup import keyed_hash_agg
    from abwcf_ray.stages.index import longest_prefix_route

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["user_id", "event_type"]
    ).map_batches(
        lambda t: pa.table(
            {
                "url": pc.binary_join_element_wise(
                    "/u/",
                    pc.cast(t.column("user_id"), pa.string()),
                    "/t/",
                    t.column("event_type"),
                    "",
                )
            }
        ),
        batch_format="pyarrow",
    )
    routed = longest_prefix_route(ev, rules=_ROUTE_RULES, key_col="url")

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame({"rule": t.column("rule").to_pandas()})
        g = pdf.groupby("rule", as_index=False, sort=False).size()
        g = g.rename(columns={"size": "n"})
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    out = keyed_hash_agg(
        routed.map_batches(partial, batch_format="pyarrow"),
        lambda b: hash64(b.column("rule")),
        lambda g: g.groupby("rule", as_index=False, sort=False).agg(n=("n", "sum")),
        partitions=4,
    ).to_pandas()
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("rule").reset_index(drop=True)


def _q_cohort_retention(sf_dir: str):
    """Cohort retention triangle (stages/cohort.cohort_retention): users
    cohorted by first active DAY, distinct re-activity counted at each
    day offset. One hash(user) exchange (map-side distinct combiner),
    per-shard grouped-min cohorts, tiny (cohort, offset) merge. Exact
    int64; oracle is the DISTINCT-activity + MIN-cohort join."""
    import ray.data as rd

    from abwcf_ray.stages.cohort import cohort_retention

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["user_id", "ts"]
    ).map_batches(
        lambda t: pa.table(
            {
                "user_id": t.column("user_id"),
                "day": pc.divide(
                    t.column("ts").cast(pa.int64()),
                    pa.scalar(86_400_000_000, pa.int64()),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out = cohort_retention(ev, user_col="user_id", bucket_col="day").to_pandas()
    return out.sort_values(["cohort", "offset"]).reset_index(drop=True)


def _q_order_deciles(sf_dir: str):
    """Global equi-depth decile analysis (stages/rank.global_ntile_agg):
    every order gets its exact NTILE(10) OVER (ORDER BY cents,
    orderkey) via the histogram-pass + range-exchange global rank
    (nothing row-sized on the driver), then per-decile count + spend.
    Exact int64; SQL-oracled with the identical NTILE."""
    import ray.data as rd

    from abwcf_ray.stages.rank import global_ntile_agg

    _quiet()
    od = rd.read_parquet(
        str(Path(sf_dir) / "orders.parquet"),
        columns=["o_orderkey", "o_totalprice"],
    ).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "cents": pa.array(
                    np.floor(
                        t.column("o_totalprice").to_numpy(zero_copy_only=False)
                        * 100.0
                        + 0.5
                    ).astype(np.int64),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out = global_ntile_agg(
        od, key_col="cents", id_col="o_orderkey", tiles=10
    ).to_pandas()
    return out.sort_values("tile").reset_index(drop=True)


def _q_event_streaks(sf_dir: str):
    """Longest consecutive same-event-type run per user
    (stages/transitions.longest_streak): ONE hash(user) exchange +
    vectorized gaps-and-islands scan. Oracle: the ROW_NUMBER-difference
    islands query."""
    import ray.data as rd

    from abwcf_ray.stages.transitions import longest_streak

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "event_type", "ts"],
    ).map_batches(
        lambda t: pa.table(
            {
                "user_id": t.column("user_id"),
                "event_type": t.column("event_type"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "event_id": t.column("event_id"),
            }
        ),
        batch_format="pyarrow",
    )
    out = longest_streak(
        ev,
        user_col="user_id",
        order_cols=["ts_us", "event_id"],
        type_col="event_type",
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _q_lang_share(sf_dir: str):
    """Ratio-to-report: each language's share of total corpus chars —
    exact int64 sums via map-side partials + one keyed exchange, then a
    SINGLE IEEE division per lang of two exact integers (the
    repetition_signals float discipline)."""
    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.stages.dedup import keyed_hash_agg

    _quiet()
    ds = _docs(sf_dir, ["lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "lang": t.column("lang").to_pandas(),
                "n": np.ones(t.num_rows, np.int64),
                "s": t.column("n_chars")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = pdf.groupby("lang", as_index=False, sort=False).agg(
            n=("n", "sum"), s=("s", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    merged = keyed_hash_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        lambda b: hash64(b.column("lang")),
        lambda g: g.groupby("lang", as_index=False, sort=False).agg(
            n=("n", "sum"), s=("s", "sum")
        ),
        partitions=16,
    ).to_pandas()
    # lang cardinality is tiny; the share division happens once on the
    # politeness-bounded result, not per row
    merged["n_docs"] = merged["n"].astype(np.int64)
    merged["sum_chars"] = merged["s"].astype(np.int64)
    total = np.float64(np.int64(merged["sum_chars"].sum()))
    merged["share"] = merged["sum_chars"].to_numpy(np.int64).astype(np.float64) / total
    out = merged[["lang", "n_docs", "sum_chars", "share"]]
    return out.sort_values("lang").reset_index(drop=True)


def _q_above_avg_orders(sf_dir: str):
    """Filter-by-group-aggregate: orders strictly above their own
    customer's mean order value. The mean compare is EXACT integer
    arithmetic (cents * n_cust > sum_cust — no division anywhere), via
    one keyed per-customer aggregate + stages/join.equi_join back to
    the order stream."""
    import ray.data as rd

    from abwcf_ray.stages.dedup import keyed_hash_agg
    from abwcf_ray.stages.join import equi_join

    _quiet()
    od = rd.read_parquet(
        str(Path(sf_dir) / "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "cents": pa.array(
                    np.floor(
                        t.column("o_totalprice").to_numpy(zero_copy_only=False)
                        * 100.0
                        + 0.5
                    ).astype(np.int64),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def partial(t: pa.Table) -> pa.Table:
        pdf = pd.DataFrame(
            {
                "o_custkey": t.column("o_custkey").to_pandas(),
                "n_cust": np.ones(t.num_rows, np.int64),
                "sum_cust": t.column("cents")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = pdf.groupby("o_custkey", as_index=False, sort=False).agg(
            n_cust=("n_cust", "sum"), sum_cust=("sum_cust", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    aggs = keyed_hash_agg(
        od.map_batches(partial, batch_format="pyarrow"),
        lambda b: b.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64),
        lambda g: g.groupby("o_custkey", as_index=False, sort=False).agg(
            n_cust=("n_cust", "sum"), sum_cust=("sum_cust", "sum")
        ),
    )
    joined = equi_join(od, aggs, on="o_custkey", how="inner")

    def filt(t: pa.Table) -> pa.Table:
        c = t.column("cents").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.column("n_cust").to_numpy(zero_copy_only=False).astype(np.int64)
        s = t.column("sum_cust").to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(c * n > s)).select(
            ["o_orderkey", "o_custkey", "cents"]
        )

    out = joined.map_batches(filt, batch_format="pyarrow").to_pandas()
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _q_conj_search(sf_dir: str):
    """AND-of-terms conjunctive document search
    (stages/index.conjunctive_search): keep docs whose whitespace tokens
    include ALL of {spark, join, window} — broadcast-small-side shape,
    pure map-side (one vectorized RE2 mask per term per batch, no
    exchange). Oracle: the identical conjunction of regexp_matches."""
    from abwcf_ray.stages.index import conjunctive_search

    _quiet()
    out = conjunctive_search(
        _docs(sf_dir, ["doc_id", "lang", "text"]),
        terms=["spark", "join", "window"],
        keep_cols=["lang"],
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_props_extract(sf_dir: str):
    """Regex field extraction from the JSON props payload
    (pc.extract_regex, fully vectorized — no JSON parser in the hot
    path) feeding per-event-type integer moments
    (stages/stats.group_stats): the extract-transform-aggregate ETL
    shape. Exact int64 moments; mean/var are single IEEE divisions."""
    import ray.data as rd

    from abwcf_ray.stages.stats import group_stats

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["event_type", "props"]
    )

    def extract(t: pa.Table) -> pa.Table:
        st = pc.extract_regex(t.column("props"), r'"k": (?P<k>\d+)')
        k = pc.struct_field(st, "k").cast(pa.int64())
        tbl = pa.table({"event_type": t.column("event_type"), "k": k})
        # rows whose props lack the field drop out (same as the SQL
        # oracle's regexp_extract filter)
        return tbl.filter(pc.is_valid(k))

    out = group_stats(
        ev.map_batches(extract, batch_format="pyarrow"),
        group_cols=["event_type"],
        value_col="k",
    ).to_pandas()
    out = out.rename(
        columns={
            "count": "n_rows",
            "sum": "sum_v",
            "sumsq": "sumsq_v",
            "min": "min_v",
            "max": "max_v",
        }
    )
    return out.sort_values("event_type").reset_index(drop=True)


def _q_user_decay(sf_dir: str):
    """Per-user exponentially-decayed event count
    (stages/stats.group_decayed_count): the freshness / recrawl-priority
    signal — each event weighs 2^-(age_days), weights are exact int64
    ``1 << (30 - age)``, one keyed exchange of map-side partials, score
    is a single IEEE division. t_ref is the corpus max timestamp (one
    column-pruned aggregate pass); the oracle computes the identical
    integer expression."""
    import ray.data as rd

    from abwcf_ray.stages.stats import group_decayed_count

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"), columns=["user_id", "ts"]
    ).map_batches(
        lambda t: pa.table(
            {
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    t_ref = int(ev.max("ts_us"))
    out = group_decayed_count(
        ev,
        group_col="user_id",
        ts_col="ts_us",
        t_ref=t_ref,
        halflife=86_400_000_000,
        clamp=30,
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _q_event_paths(sf_dir: str):
    """Per-user ordered event path (stages/stats.group_string_agg):
    SQL string_agg(event_type ORDER BY event_id) — rows land whole-group
    via ONE hash(user) exchange, per-partition mergesort + segmented
    join."""
    from pathlib import Path

    import ray.data as rd

    from abwcf_ray.stages.stats import group_string_agg

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["user_id", "event_id", "event_type"],
    )
    out = group_string_agg(
        ev,
        group_cols=["user_id"],
        value_col="event_type",
        order_col="event_id",
        sep=">",
    )
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


def _q_cooccurrence(sf_dir: str):
    """Document co-occurrence counts (stages/cooccur.cooccurrence):
    vectorized per-doc distinct-token pair explode (segment_pair_indices
    gather, shared with the fuzzy-join band buckets), map-side partial
    counts, ONE hash(w1,w2) exchange. Pairs in >= 2 docs, w1 < w2."""
    from abwcf_ray.stages.cooccur import cooccurrence

    _quiet()
    out = cooccurrence(_docs(sf_dir, ["text"]), min_count=2).to_pandas()
    return out.sort_values(
        ["n", "w1", "w2"], ascending=[False, True, True]
    ).reset_index(drop=True)


def _q_cooccur_lift(sf_dir: str):
    """Co-occurrence association strength (stages/cooccur
    .cooccurrence_lift): pair counts + a broadcast term-document-frequency
    vocabulary; lift = n_docs*n/(df1*df2) as ONE IEEE division of exact
    int64 products, so the float hash-matches SQL bit-for-bit."""
    from abwcf_ray.stages.cooccur import cooccurrence_lift

    _quiet()
    out = cooccurrence_lift(_docs(sf_dir, ["text"]), min_count=3).to_pandas()
    return out.sort_values(
        ["n", "w1", "w2"], ascending=[False, True, True]
    ).reset_index(drop=True)


def _q_fuzzy_clusters(sf_dir: str):
    """Entity clustering (stages/fuzzy.fuzzy_clusters_ed1): transitive
    closure of the ed<=1 fuzzy name join through the shared CC
    dispatcher; cluster = component min custkey. Oracle: recursive-CTE
    min-label reachability over the levenshtein edge set."""
    from pathlib import Path

    import numpy as np
    import ray.data as rd

    from abwcf_ray.stages.fuzzy import fuzzy_clusters_ed1

    _quiet()
    cust = rd.read_parquet(
        str(Path(sf_dir) / "customer.parquet"),
        columns=["c_custkey", "c_name"],
    )
    out = fuzzy_clusters_ed1(cust, id_col="c_custkey", str_col="c_name")
    out["is_dup"] = out["is_dup"].astype(np.int64)
    return out


def _q_event_transitions(sf_dir: str):
    """Global first-order Markov chain of user behavior
    (stages/transitions.py): per-user time-ordered next-event bigram
    counts via ONE hash(user) exchange + per-shard vectorized bincount;
    the probability column is one IEEE division of two exact int64s,
    mirrored verbatim by the oracle."""
    from pathlib import Path

    import ray.data as rd

    from abwcf_ray.stages.transitions import transition_matrix

    _quiet()
    ev = rd.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type"],
    )
    return transition_matrix(
        ev,
        user_col="user_id",
        order_cols=["ts", "event_id"],
        type_col="event_type",
    )


def _q_jsonl_roundtrip(sf_dir: str):
    """Malformed-tolerant JSONL source (sources/jsonl.py) under a full SQL
    value oracle: write ``documents`` out as JSONL shards (distributed
    ``write_json``, one file per block), append a deterministic garbage
    shard (truncated writer tail, binary junk, a non-object line — the
    defect classes the source exists for), read it back with
    ``read_jsonl``'s fixed-schema coercion, drop the ``_bad`` tombstones,
    and aggregate by lang. sum_textlen goes through JSON string escaping
    both ways, so the oracle checks text fidelity, not just row counts."""
    import os

    from abwcf_ray.sources.jsonl import read_jsonl

    _quiet()
    out_dir = f"/tmp/abwcf_jsonl_{Path(sf_dir).name}_{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    _docs(sf_dir, ["doc_id", "text", "lang", "n_chars"]).write_json(out_dir)
    with open(f"{out_dir}/zz_garbage.json", "w") as f:
        f.write('{"doc_id": 999999999, "text": "truncated by a killed wr\n')
        f.write("\x01\x02 not json at all\n")
        f.write("[1, 2, 3]\n")

    schema = {
        "doc_id": pa.int64(),
        "text": pa.string(),
        "lang": pa.string(),
        "n_chars": pa.int64(),
    }

    def clean_lens(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("_bad"), 0))
        return b.append_column(
            "text_len", pc.utf8_length(b.column("text")).cast(pa.int64())
        )

    ds = read_jsonl(out_dir, schema=schema).map_batches(
        clean_lens, batch_format="pyarrow"
    )
    from ray.data.aggregate import Count, Sum

    agg = (
        ds.groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="sum_chars"),
            Sum("text_len", alias_name="sum_textlen"),
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    return agg[["lang", "n_docs", "sum_chars", "sum_textlen"]]


def _q_csv_roundtrip(sf_dir: str):
    """Malformed-tolerant CSV source (sources/csv_src.py) under the same
    full SQL value oracle as jsonl_roundtrip: write ``documents`` as CSV
    shards (distributed write_csv), append a garbage shard (wrong-arity
    rows, a type-damaged row, plus real rows that must SURVIVE its
    defects... kept separate so counts stay exact), read back with
    row-tolerant parsing + schema coercion, aggregate by lang. The text
    column survives CSV quoting both ways, so sum_textlen checks
    fidelity."""
    import os

    from abwcf_ray.sources.csv_src import read_csv_tolerant

    _quiet()
    out_dir = f"/tmp/abwcf_csv_{Path(sf_dir).name}_{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    _docs(sf_dir, ["doc_id", "text", "lang", "n_chars"]).write_csv(out_dir)
    # a defective shard: header + wrong-arity rows + a type-damaged row —
    # every row here must drop or coerce WITHOUT adding to the aggregate
    # (doc_id null / lang null rows are filtered like _bad jsonl lines)
    with open(f"{out_dir}/zz_garbage.csv", "w") as f:
        f.write("doc_id,text,lang,n_chars\n")
        f.write("1,too,many,columns,here,9\n")
        f.write("not_an_int,oops,xx,12\n")
        f.write("7,unfinished quote \" mid,yy\n")

    schema = {
        "doc_id": pa.int64(),
        "text": pa.string(),
        "lang": pa.string(),
        "n_chars": pa.int64(),
    }

    def clean_lens(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(b.column("doc_id")), pc.is_valid(b.column("lang"))
        )
        b = b.filter(keep)
        return b.append_column(
            "text_len", pc.utf8_length(b.column("text")).cast(pa.int64())
        )

    ds = read_csv_tolerant(out_dir, schema=schema).map_batches(
        clean_lens, batch_format="pyarrow"
    )
    from ray.data.aggregate import Count, Sum

    agg = (
        ds.groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="sum_chars"),
            Sum("text_len", alias_name="sum_textlen"),
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    return agg[["lang", "n_docs", "sum_chars", "sum_textlen"]]


def _q_source_similarity(sf_dir: str):
    """Mirror detection / source-similarity matrix
    (stages/setops.group_jaccard_matrix): pairwise vocabulary Jaccard
    between crawl sources — distinct (source, token) combiner, one
    keyed exchange on hash(token) where pair emission is a vectorized
    shift-by-k sweep, O(sources²) driver output; jaccard is one IEEE
    division of exact int64s mirrored by the SQL oracle."""
    from abwcf_ray.stages.setops import group_jaccard_matrix

    _quiet()
    return group_jaccard_matrix(
        _docs(sf_dir, ["source", "text"]), group_col="source"
    )


def _q_ipc_roundtrip(sf_dir: str):
    """Arrow IPC (Feather v2) sink + source (sources/ipc.py) under the
    same full SQL value oracle as csv/jsonl_roundtrip: write ``documents``
    as IPC shards (one per block, content-hash part names — idempotent
    retries), append a corrupt shard that must tolerate to zero rows,
    read back per-shard, aggregate by lang. IPC carries the schema
    verbatim, so fidelity is byte-exact with no coercion layer."""
    import os

    from abwcf_ray.sources.ipc import read_ipc, write_ipc

    _quiet()
    out_dir = f"/tmp/abwcf_ipc_{Path(sf_dir).name}_{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    write_ipc(_docs(sf_dir, ["doc_id", "text", "lang", "n_chars"]), out_dir)
    with open(f"{out_dir}/zz-corrupt.arrow", "wb") as f:
        f.write(b"ARROW1\x00\x00not-a-real-footer")

    def text_len(b: pa.Table) -> pa.Table:
        return b.append_column(
            "text_len", pc.utf8_length(b.column("text")).cast(pa.int64())
        )

    ds = read_ipc(out_dir).map_batches(text_len, batch_format="pyarrow")
    from ray.data.aggregate import Count, Sum

    agg = (
        ds.groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="sum_chars"),
            Sum("text_len", alias_name="sum_textlen"),
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    return agg[["lang", "n_docs", "sum_chars", "sum_textlen"]]


def _q_triangles(sf_dir: str):
    """Exact triangle count of the undirected link graph
    (stages/graph.triangle_count): degree-oriented wedge-check — canonical
    distinct edges, (deg, id) orientation via two equi_joins, per-apex
    vectorized combination explode combined to wedge counts, one closing-
    edge co-partition probe. The SQL twin is the canonical three-way
    self-join on the same lo<hi edge set."""
    from abwcf_ray.stages.graph import triangle_count

    _quiet()
    edges, _n = _graph_edges(sf_dir)
    t = triangle_count(edges)
    return pd.DataFrame({"n_triangles": np.array([t], np.int64)})


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: the end-to-end crawl."""
    return _q_crawl("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # --- curated correctness panel: the driver oracle-checks the
        # FIRST 50 entries (CORRECTNESS gate cap), so they are ordered
        # to span every SURVEY §2 family and every LLM-pipeline family
        # (round-4 verdict #1): e2e crawl, scheduling, url ops, the
        # dedup family, fuzzy/sim joins, decontam/DSIR, text analysis,
        # sampling/packing/mixture, BPE, KNN/kmeans, graph, sketches,
        # windows, temporal + relational joins, window functions, rollup.
        "crawl_wave": _q_crawl,
        "crawl_wave_cuckoo": _q_crawl_cuckoo,
        "frontier_topk": _q_frontier_topk,
        "restore_topk": _q_restore_topk,
        "host_histogram": _q_host_histogram,
        "scope_filter": _q_scope_filter,
        "normalize_urls": _q_normalize_urls,
        "anchor_labels": _q_anchor_labels,
        "exact_dedup": _q_exact_dedup,
        "minhash_dedup_exact": _q_minhash_dedup_exact,
        "ngram_dedup": _q_ngram_dedup,
        "embedding_dedup_exact": _q_embedding_dedup_exact,
        "semdedup_exact": _q_semdedup_exact,
        "paragraph_dedup": _q_paragraph_dedup,
        "substr_dedup": _q_substr_dedup,
        "substr_dedup_winnow": _q_substr_dedup_winnow,
        "fuzzy_clusters": _q_fuzzy_clusters,
        "simjoin_pairs": _q_simjoin_pairs,
        "snm_pairs": _q_snm_pairs,
        "decontaminate": _q_decontaminate,
        "dsir_counts": _q_dsir_counts,
        "token_counts": _q_token_counts,
        "quality_by_lang": _q_quality_by_lang,
        "lang_id": _q_lang_id,
        "gopher_rules": _q_gopher_rules,
        "pii_scrub": _q_pii_scrub,
        "repetition_signals": _q_repetition_signals,
        "lm_rarity": _q_lm_rarity,
        "stratified_sample": _q_stratified_sample,
        "host_cap": _q_host_cap,
        "pack_bins": _q_pack_bins,
        "chunk_docs": _q_chunk_docs,
        "mixture_epochs": _q_mixture_epochs,
        "bpe_encode_fixed": _q_bpe_encode_fixed,
        "knn_top5": _q_knn_top5,
        "knn_ivf_exact": _q_knn_ivf_exact,
        "kmeans_step": _q_kmeans_step,
        "pagerank": _q_pagerank,
        "triangles": _q_triangles,
        "heavy_hitters": _q_heavy_hitters,
        "kll_quantiles_exact": _q_kll_quantiles_exact,
        "host_distinct_terms": _q_host_distinct_terms,
        "events_window": _q_events_window,
        "session_windows": _q_session_windows,
        "asof_join": _q_asof_join,
        "range_join": _q_range_join,
        "orders_join": _q_orders_join,
        "orders_semi": _q_orders_semi,
        "user_running": _q_user_running,
        "lang_source_rollup": _q_lang_source_rollup,
        # --- end of driver-checked panel; remainder in family groups ---
        "curation_full": _q_curation_full,
        "llm_corpus": _q_llm_corpus,
        "source_similarity": _q_source_similarity,
        "bigram_intersect": _q_bigram_intersect,
        "jsonl_roundtrip": _q_jsonl_roundtrip,
        "csv_roundtrip": _q_csv_roundtrip,
        "ipc_roundtrip": _q_ipc_roundtrip,
        "funnel": _q_funnel,
        "skyline": _q_skyline,
        "snapshot_diff": _q_snapshot_diff,
        "sliding_windows": _q_sliding_windows,
        "lineitem_pricing": _q_lineitem_pricing,
        "knn_ivf": _q_knn_ivf,
        "minhash_dedup": _q_minhash_dedup,
        "simhash_dedup": _q_simhash_dedup,
        "curation": _q_curation,
        "embedding_dedup": _q_embedding_dedup,
        "langid_fingerprint": _q_langid_fingerprint,
        "sample_rate": _q_sample_rate,
        "top_per_host": _q_top_per_host,
        "term_postings": _q_term_postings,
        "orders_join_bucketed": _q_orders_join_bucketed,
        "orders_left_join": _q_orders_left_join,
        "orders_left_join_bucketed": _q_orders_left_join_bucketed,
        "orders_full_join": _q_orders_full_join,
        "orders_revenue_top": _q_orders_revenue_top,
        "big_orders": _q_big_orders,
        "user_rank_tiles": _q_user_rank_tiles,
        "doc_rank": _q_doc_rank,
        "lang_source_cube": _q_lang_source_cube,
        "lang_source_stats": _q_lang_source_stats,
        "bigram_except": _q_bigram_except,
        "host_distinct_hll": _q_host_distinct_hll,
        "orders_anti": _q_orders_anti,
        "orders_semi_bloom": _q_orders_semi_bloom,
        "orders_anti_bloom": _q_orders_anti_bloom,
        "novel_content": _q_novel_content,
        "boilerplate": _q_boilerplate,
        "semdedup": _q_semdedup,
        "asof_join_bucketed": _q_asof_join_bucketed,
        "asof_join_forward": _q_asof_join_forward,
        "cms_topwords": _q_cms_topwords,
        "distinct_words": _q_distinct_words,
        "compression_signal": _q_compression_signal,
        "hll_distinct": _q_hll_distinct,
        "token_quantiles": _q_token_quantiles,
        "host_quantiles": _q_host_quantiles,
        "user_event_pivot": _q_user_event_pivot,
        "event_unpivot": _q_event_unpivot,
        "kll_quantiles": _q_kll_quantiles,
        "top_keywords": _q_top_keywords,
        "range_pairs": _q_range_pairs,
        "range_join_bucketed": _q_range_join_bucketed,
        "dsir": _q_dsir,
        "graph_degrees": _q_graph_degrees,
        "hits": _q_hits,
        "kcore": _q_kcore,
        "pagerank_distributed": _q_pagerank_distributed,
        "pagerank_weighted": _q_pagerank_weighted,
        "pagerank_personalized": _q_pagerank_personalized,
        "bfs_hops": _q_bfs_hops,
        "bfs_hops_distributed": _q_bfs_hops_distributed,
        "sssp": _q_sssp,
        "sssp_distributed": _q_sssp_distributed,
        "resample_ffill": _q_resample_ffill,
        "resample_interp": _q_resample_interp,
        "event_transitions": _q_event_transitions,
        "fuzzy_names": _q_fuzzy_names,
        "group_covariance": _q_group_covariance,
        "group_corr": _q_group_corr,
        "char_pairs": _q_char_pairs,
        "bpe_merges": _q_bpe_merges,
        "bpe_encode": _q_bpe_encode,
        "group_zscore": _q_group_zscore,
        "group_welch": _q_group_welch,
        "group_regression": _q_group_regression,
        "host_mad": _q_host_mad,
        "price_wmedian": _q_price_wmedian,
        "group_mode": _q_group_mode,
        "user_rolling": _q_user_rolling,
        "user_pct_rank": _q_user_pct_rank,
        "host_trimmed_mean": _q_host_trimmed_mean,
        "event_paths": _q_event_paths,
        "user_coverage": _q_user_coverage,
        "event_throttle": _q_event_throttle,
        "user_decay": _q_user_decay,
        "conj_search": _q_conj_search,
        "props_extract": _q_props_extract,
        "order_deciles": _q_order_deciles,
        "cohort_retention": _q_cohort_retention,
        "route_match": _q_route_match,
        "region_revenue": _q_region_revenue,
        "host_median_cont": _q_host_median_cont,
        "ohlc_hourly": _q_ohlc_hourly,
        "bounce_rate": _q_bounce_rate,
        "user_intervals": _q_user_intervals,
        "user_cum_distinct": _q_user_cum_distinct,
        "host_iqr": _q_host_iqr,
        "user_rate_window": _q_user_rate_window,
        "active_days": _q_active_days,
        "link_reciprocity": _q_link_reciprocity,
        "interval_overlaps": _q_interval_join,
        "user_concurrency": _q_user_concurrency,
        "top_types_per_user": _q_top_types_per_user,
        "label_scatter": _q_label_scatter,
        "user_gini": _q_user_gini,
        "activity_spikes": _q_activity_spikes,
        "burst_days": _q_burst_days,
        "user_running_max": _q_user_running_max,
        "orders_recon": _q_orders_recon,
        "conversion_latency": _q_conversion_latency,
        "label_dim_medians": _q_label_dim_medians,
        "vocab_growth": _q_vocab_growth,
        "order_size_hist": _q_order_size_hist,
        "last_touch": _q_last_touch,
        "canonical_docs": _q_canonical_docs,
        "journey_counts": _q_journey_counts,
        "event_trigrams": _q_event_trigrams,
        "node_clustering": _q_node_clustering,
        "centroid_dots": _q_centroid_dots,
        "knn_loo": _q_knn_loo,
        "events_audit": _q_events_audit,
        "type_value_quantiles": _q_type_value_quantiles,
        "user_twa": _q_user_twa,
        "doc_pct_rank": _q_doc_pct_rank,
        "label_centroids": _q_label_centroids,
        "event_streaks": _q_event_streaks,
        "lang_share": _q_lang_share,
        "above_avg_orders": _q_above_avg_orders,
        "cooccurrence": _q_cooccurrence,
        "cooccur_lift": _q_cooccur_lift,
    }


_GRAPH_EDGES_SQL = """
    SELECT d.doc_id AS src,
           (d.doc_id * 1103 + g.j * 7919 + 31) % (SELECT COUNT(*) FROM documents) AS dst
    FROM documents d
    CROSS JOIN generate_series(0, 2) AS g(j)
    WHERE g.j <= d.doc_id % 3
      AND (d.doc_id * 1103 + g.j * 7919 + 31) % (SELECT COUNT(*) FROM documents) <> d.doc_id
"""


def _pagerank_sql(iters: int = 5) -> str:
    """Chained-CTE mirror of stages/graph.pagerank: one CTE per power
    iteration, HUGEINT-safe sums, all arithmetic integer so it
    hash-matches the engine bit-for-bit."""
    scale = 10**9
    base = ((100 - 85) * scale) // 100
    ctes = [
        f"edges AS ({_GRAPH_EDGES_SQL})",
        "nodes AS (SELECT doc_id AS node FROM documents)",
        "odeg AS (SELECT src AS node, COUNT(*) AS od FROM edges GROUP BY src)",
        f"r0 AS (SELECT node, CAST({scale} AS BIGINT) AS rank FROM nodes)",
    ]
    prev = "r0"
    for i in range(1, iters + 1):
        ctes.append(
            f"""r{i} AS (
                SELECT nodes.node,
                       CAST({base} + (85 * COALESCE(s.insum, 0)) // 100 AS BIGINT) AS rank
                FROM nodes LEFT JOIN (
                    SELECT e.dst AS node, SUM(p.rank // o.od) AS insum
                    FROM edges e
                    JOIN {prev} p ON p.node = e.src
                    JOIN odeg o ON o.node = e.src
                    GROUP BY e.dst
                ) s ON s.node = nodes.node
            )"""
        )
        prev = f"r{i}"
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"\nSELECT node, rank AS rank_scaled FROM {prev}"
    )


def _pagerank_weighted_sql(iters: int = 5) -> str:
    """Chained-CTE mirror of stages/graph.pagerank_weighted: the
    _pagerank_sql pattern with a weighted out-sum CTE and per-edge
    (rank * w) // wo contributions — HUGEINT-safe, all integer."""
    scale = 10**9
    base = ((100 - 85) * scale) // 100
    ctes = [
        f"edges0 AS ({_GRAPH_EDGES_SQL})",
        "edges AS (SELECT src, dst, 1 + (src * 3 + dst * 5) % 7 AS w FROM edges0)",
        "nodes AS (SELECT doc_id AS node FROM documents)",
        "wout AS (SELECT src AS node, SUM(w) AS wo FROM edges GROUP BY src)",
        f"r0 AS (SELECT node, CAST({scale} AS BIGINT) AS rank FROM nodes)",
    ]
    prev = "r0"
    for i in range(1, iters + 1):
        ctes.append(
            f"""r{i} AS (
                SELECT nodes.node,
                       CAST({base} + (85 * COALESCE(s.insum, 0)) // 100 AS BIGINT) AS rank
                FROM nodes LEFT JOIN (
                    SELECT e.dst AS node, SUM((p.rank * e.w) // o.wo) AS insum
                    FROM edges e
                    JOIN {prev} p ON p.node = e.src
                    JOIN wout o ON o.node = e.src
                    GROUP BY e.dst
                ) s ON s.node = nodes.node
            )"""
        )
        prev = f"r{i}"
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"\nSELECT node, rank AS rank_scaled FROM {prev}"
    )


def _ppr_sql(iters: int = 5) -> str:
    """Chained-CTE mirror of stages/graph.personalized_pagerank: seed-
    concentrated base mass, zero-start non-seeds, floor divisions."""
    scale = 10**9
    ctes = [
        f"edges AS ({_GRAPH_EDGES_SQL})",
        "nodes AS (SELECT doc_id AS node FROM documents)",
        "params AS (SELECT (SELECT COUNT(*) FROM documents) AS n,"
        " (SELECT COUNT(*) FROM documents WHERE doc_id % 17 = 0) AS ns)",
        f"""basev AS (
            SELECT node,
                   CAST(CASE WHEN node % 17 = 0
                        THEN (CAST(15 AS BIGINT) * {scale} * (SELECT n FROM params))
                             // (SELECT ns FROM params) // 100
                        ELSE 0 END AS BIGINT) AS b
            FROM nodes
        )""",
        "odeg AS (SELECT src AS node, COUNT(*) AS od FROM edges GROUP BY src)",
        f"""r0 AS (
            SELECT node,
                   CAST(CASE WHEN node % 17 = 0 THEN {scale} ELSE 0 END
                        AS BIGINT) AS rank
            FROM nodes
        )""",
    ]
    prev = "r0"
    for i in range(1, iters + 1):
        ctes.append(
            f"""r{i} AS (
                SELECT nodes.node,
                       CAST(b.b + (85 * COALESCE(s.insum, 0)) // 100 AS BIGINT) AS rank
                FROM nodes
                JOIN basev b ON b.node = nodes.node
                LEFT JOIN (
                    SELECT e.dst AS node, SUM(p.rank // o.od) AS insum
                    FROM edges e
                    JOIN {prev} p ON p.node = e.src
                    JOIN odeg o ON o.node = e.src
                    GROUP BY e.dst
                ) s ON s.node = nodes.node
            )"""
        )
        prev = f"r{i}"
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"\nSELECT node, rank AS rank_scaled FROM {prev}"
    )


def _sssp_sql(rounds: int = 6) -> str:
    """Chained-CTE mirror of stages/graph.sssp: one CTE per synchronous
    Bellman-Ford round over the weighted edges (w = 1 + (src*3+dst*5)%7,
    same expression as _graph_edges_weighted), sentinel INF = 2^62 for
    unreached, all arithmetic integer so it hash-matches bit-for-bit."""
    INF = 1 << 62
    ctes = [
        f"""edges AS (
            SELECT src, dst, CAST(1 + (src*3 + dst*5) % 7 AS BIGINT) AS w
            FROM ({_GRAPH_EDGES_SQL})
        )""",
        "nodes AS (SELECT doc_id AS node FROM documents)",
        f"""d0 AS (
            SELECT node,
                   CAST(CASE WHEN node % 17 = 0 THEN 0 ELSE {INF} END AS BIGINT) AS dist
            FROM nodes
        )""",
    ]
    prev = "d0"
    for i in range(1, rounds + 1):
        ctes.append(
            f"""d{i} AS (
                SELECT p.node,
                       CAST(LEAST(p.dist, COALESCE(m.nd, {INF})) AS BIGINT) AS dist
                FROM {prev} p LEFT JOIN (
                    SELECT e.dst AS node, MIN(q.dist + e.w) AS nd
                    FROM edges e
                    JOIN {prev} q ON q.node = e.src AND q.dist < {INF}
                    GROUP BY e.dst
                ) m ON m.node = p.node
            )"""
        )
        prev = f"d{i}"
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
        SELECT node,
               CAST(CASE WHEN dist >= {INF} THEN -1 ELSE dist END AS BIGINT) AS dist
        FROM {prev}"""
    )


def _bfs_hops_sql(max_hops: int = 4) -> str:
    """Chained-CTE mirror of stages/graph.bfs_hops: one CTE per
    synchronous min-relaxation round, sentinel S = max_hops + 1 for
    unreached, all arithmetic integer so it hash-matches the engine
    bit-for-bit."""
    S = max_hops + 1
    ctes = [
        f"edges AS ({_GRAPH_EDGES_SQL})",
        "nodes AS (SELECT doc_id AS node FROM documents)",
        f"""d0 AS (
            SELECT node,
                   CAST(CASE WHEN node % 17 = 0 THEN 0 ELSE {S} END AS BIGINT) AS hops
            FROM nodes
        )""",
    ]
    prev = "d0"
    for i in range(1, max_hops + 1):
        ctes.append(
            f"""d{i} AS (
                SELECT p.node,
                       CAST(LEAST(p.hops, COALESCE(m.nh, {S})) AS BIGINT) AS hops
                FROM {prev} p LEFT JOIN (
                    SELECT e.dst AS node, MIN(q.hops + 1) AS nh
                    FROM edges e
                    JOIN {prev} q ON q.node = e.src AND q.hops < {S}
                    GROUP BY e.dst
                ) m ON m.node = p.node
            )"""
        )
        prev = f"d{i}"
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
        SELECT node,
               CAST(CASE WHEN hops >= {S} THEN -1 ELSE hops END AS BIGINT) AS hops
        FROM {prev}"""
    )


def oracle_sql() -> dict[str, str]:
    return {
        "frontier_topk": f"""
            WITH frontier AS ({_FRONTIER_SQL}),
            ranked AS (
                SELECT host, url, priority,
                       ROW_NUMBER() OVER (PARTITION BY host ORDER BY priority DESC, url ASC) - 1 AS rank_in_host,
                       CAST(regexp_extract(host, 'h([0-9]+)\\.', 1) AS BIGINT) AS host_num
                FROM frontier
            )
            SELECT host, url, priority, rank_in_host
            FROM ranked
            WHERE rank_in_host < GREATEST(1, 10000 // (500 * (1 + host_num % 4)))
        """,
        "restore_topk": f"""
            WITH frontier AS (
                SELECT 'https://h' || (doc_id % 97) || '.example/p' || doc_id AS url,
                       (doc_id * 2654435761) % 4294967296 AS priority,
                       CASE WHEN doc_id % 5 = 0 THEN 'Processed' ELSE 'Discovered' END AS status
                FROM documents
            )
            SELECT url, priority FROM frontier
            WHERE status = 'Discovered'
            ORDER BY priority DESC, url ASC LIMIT 100
        """,
        "host_histogram": f"""
            WITH frontier AS ({_FRONTIER_SQL})
            SELECT host, COUNT(*) AS n_pages FROM frontier GROUP BY host
        """,
        "csv_roundtrip": """
            SELECT lang, COUNT(*) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
                   CAST(SUM(LENGTH(text)) AS BIGINT) AS sum_textlen
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "source_similarity": r"""
            WITH ws AS (
                SELECT DISTINCT source, w FROM (
                    SELECT source,
                           unnest(regexp_extract_all(text, '\S+')) AS w
                    FROM documents)
            ),
            vs AS (
                SELECT source, CAST(COUNT(*) AS BIGINT) AS n
                FROM ws GROUP BY source
            ),
            pw AS (
                SELECT a.source AS s1, b.source AS s2,
                       CAST(COUNT(*) AS BIGINT) AS shared
                FROM ws a JOIN ws b ON a.w = b.w AND a.source < b.source
                GROUP BY 1, 2
            )
            SELECT s1, s2, shared, va.n AS n1, vb.n AS n2,
                   CAST(shared AS DOUBLE)
                       / CAST(va.n + vb.n - shared AS DOUBLE) AS jaccard
            FROM pw
            JOIN vs va ON va.source = s1
            JOIN vs vb ON vb.source = s2
            ORDER BY s1, s2
        """,
        "ipc_roundtrip": """
            SELECT lang, COUNT(*) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
                   CAST(SUM(LENGTH(text)) AS BIGINT) AS sum_textlen
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "jsonl_roundtrip": """
            SELECT lang, COUNT(*) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
                   CAST(SUM(LENGTH(text)) AS BIGINT) AS sum_textlen
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "scope_filter": f"""
            WITH frontier AS ({_FRONTIER_SQL})
            SELECT url FROM frontier
            WHERE regexp_full_match(url, 'https://h[0-9]+\\.example/p[0-9]+')
              AND NOT regexp_full_match(url, '.*[02468]')
              AND length(url) <= 2048
        """,
        "normalize_urls": """
            SELECT 'https://h' || (doc_id % 97) || '.example/p' || doc_id AS url_norm
            FROM documents
        """,
        "exact_dedup": """
            SELECT MIN(doc_id) AS doc_id, COUNT(*) AS dup_count
            FROM documents GROUP BY text
        """,
        "token_counts": """
            SELECT doc_id, CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens
            FROM documents
        """,
        "quality_by_lang": """
            SELECT lang,
                   COUNT(*) AS n_docs,
                   CAST(SUM(length(text)) AS BIGINT) AS sum_chars,
                   CAST(SUM(length(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS sum_words,
                   ROUND(SUM(length(text)) / COUNT(*), 4) AS avg_chars
            FROM documents GROUP BY lang
        """,
        "events_window": """
            SELECT user_id,
                   epoch_us(ts) // 3600000000 AS window_id,
                   COUNT(*) AS n_events,
                   ROUND(SUM(value), 4) AS sum_value
            FROM events GROUP BY user_id, epoch_us(ts) // 3600000000
        """,
        "session_windows": f"""
            WITH e AS (
                SELECT user_id, epoch_us(ts) AS ts_us, value FROM events
            ),
            b AS (
                SELECT user_id, ts_us, value,
                       CASE WHEN ts_us - LAG(ts_us) OVER
                            (PARTITION BY user_id ORDER BY ts_us, value)
                            > {_SESSION_GAP_US}
                            OR LAG(ts_us) OVER
                            (PARTITION BY user_id ORDER BY ts_us, value) IS NULL
                       THEN 1 ELSE 0 END AS brk
                FROM e
            ),
            s AS (
                SELECT user_id, ts_us, value,
                       CAST(SUM(brk) OVER (PARTITION BY user_id
                            ORDER BY ts_us, value ROWS UNBOUNDED PRECEDING)
                            - 1 AS BIGINT) AS session_id
                FROM b
            )
            SELECT user_id, session_id,
                   MIN(ts_us) AS session_start,
                   COUNT(*) AS n_events,
                   ROUND(SUM(value), 4) AS sum_value
            FROM s GROUP BY user_id, session_id
        """,
        "sliding_windows": f"""
            WITH e AS (
                SELECT user_id, epoch_us(ts) AS ts_us, value FROM events
            ),
            w AS (
                SELECT user_id,
                       ((ts_us // {_SLIDE_US}) - j) * {_SLIDE_US} AS window_start,
                       value
                FROM e, (VALUES (0), (1)) AS t(j)
                WHERE ((ts_us // {_SLIDE_US}) - j) >= 0
            )
            SELECT user_id, window_start,
                   COUNT(*) AS n_events,
                   ROUND(SUM(value), 4) AS sum_value
            FROM w GROUP BY user_id, window_start
        """,
        "lineitem_pricing": """
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 2) AS sum_qty,
                   ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   COUNT(*) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "curation": r"""
            WITH q AS (
                SELECT doc_id, text,
                       CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_words,
                       CAST(length(regexp_extract_all(text, '[A-Za-zÀ-ÿ]')) AS BIGINT) AS n_alpha,
                       CAST(length(text) AS BIGINT) AS n_chars
                FROM documents
            ),
            f AS (
                SELECT * FROM q
                WHERE n_words >= 25 AND n_words <= 80 AND 2 * n_alpha >= n_chars
            )
            SELECT MIN(doc_id) AS doc_id, COUNT(*) AS dup_count
            FROM f GROUP BY text
        """,
        "ngram_dedup": r"""
            WITH keyed AS (
                SELECT doc_id,
                       list_sort(list_distinct(regexp_extract_all(text, '\S+'))) AS k
                FROM documents
            )
            SELECT doc_id,
                   MIN(doc_id) OVER (PARTITION BY k) AS cluster,
                   CAST(doc_id <> MIN(doc_id) OVER (PARTITION BY k) AS BIGINT) AS is_dup
            FROM keyed
        """,
        "minhash_dedup_exact": r"""
            WITH keyed AS (
                SELECT doc_id,
                       list_sort(list_distinct(regexp_extract_all(text, '\S+'))) AS k
                FROM documents
            )
            SELECT doc_id,
                   MIN(doc_id) OVER (PARTITION BY k) AS cluster,
                   CAST(doc_id <> MIN(doc_id) OVER (PARTITION BY k) AS BIGINT) AS is_dup
            FROM keyed
        """,
        "embedding_dedup_exact": """
            WITH RECURSIVE pairs AS (
                SELECT a.vec_id AS src, b.vec_id AS dst
                FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
                WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
            ),
            sym AS (
                SELECT src, dst FROM pairs
                UNION
                SELECT dst AS src, src AS dst FROM pairs
            ),
            reach(id, r) AS (
                SELECT vec_id, vec_id FROM embeddings
                UNION
                SELECT reach.id, sym.dst FROM reach JOIN sym ON reach.r = sym.src
            )
            SELECT id AS vec_id,
                   MIN(r) AS cluster,
                   CAST(id <> MIN(r) AS BIGINT) AS is_dup
            FROM reach GROUP BY id
        """,
        "knn_ivf_exact": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding
                FROM embeddings ORDER BY vec_id LIMIT 3
            ),
            scored AS (
                SELECT q.query_id, e.vec_id AS neighbor_id,
                       list_cosine_similarity(q.embedding, e.embedding) AS cosine
                FROM q CROSS JOIN embeddings e
                WHERE e.vec_id != q.query_id
            ),
            ranked AS (
                SELECT query_id, neighbor_id,
                       ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY cosine DESC, neighbor_id ASC) - 1 AS rank
                FROM scored
            )
            SELECT query_id, neighbor_id, rank FROM ranked WHERE rank < 5
        """,
        "lang_id": r"""
            WITH words AS (
                SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-zà-ÿü]+')) AS w
                FROM documents
            ),
            counts AS (
                SELECT doc_id,
                       COUNT(*) AS n,
                       SUM(CASE WHEN w IN ('der','die','das','und','den','über','durch','mit','ein','ist') THEN 1 ELSE 0 END) AS de_h,
                       SUM(CASE WHEN w IN ('the','and','of','a','to','over','with','through','in','is') THEN 1 ELSE 0 END) AS en_h,
                       SUM(CASE WHEN w IN ('el','la','los','las','y','por','sobre','con','un','es') THEN 1 ELSE 0 END) AS es_h,
                       SUM(CASE WHEN w IN ('le','la','les','et','dans','par','sur','des','un','est') THEN 1 ELSE 0 END) AS fr_h
                FROM words GROUP BY doc_id
            ),
            scored AS (
                SELECT d.doc_id,
                       COALESCE(c.de_h, 0) / GREATEST(COALESCE(c.n, 0), 1)::DOUBLE AS de_s,
                       COALESCE(c.en_h, 0) / GREATEST(COALESCE(c.n, 0), 1)::DOUBLE AS en_s,
                       COALESCE(c.es_h, 0) / GREATEST(COALESCE(c.n, 0), 1)::DOUBLE AS es_s,
                       COALESCE(c.fr_h, 0) / GREATEST(COALESCE(c.n, 0), 1)::DOUBLE AS fr_s
                FROM documents d LEFT JOIN counts c USING (doc_id)
            )
            SELECT doc_id,
                   CASE
                     WHEN GREATEST(de_s, en_s, es_s, fr_s) < 0.08 THEN 'zz'
                     WHEN de_s >= en_s AND de_s >= es_s AND de_s >= fr_s THEN 'de'
                     WHEN en_s >= es_s AND en_s >= fr_s THEN 'en'
                     WHEN es_s >= fr_s THEN 'es'
                     ELSE 'fr'
                   END AS lang_id
            FROM scored
        """,
        "knn_top5": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding
                FROM embeddings ORDER BY vec_id LIMIT 3
            ),
            scored AS (
                SELECT q.query_id, e.vec_id AS neighbor_id,
                       list_cosine_similarity(q.embedding, e.embedding) AS cosine
                FROM q CROSS JOIN embeddings e
                WHERE e.vec_id != q.query_id
            ),
            ranked AS (
                SELECT query_id, neighbor_id,
                       ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY cosine DESC, neighbor_id ASC) - 1 AS rank
                FROM scored
            )
            SELECT query_id, neighbor_id, rank FROM ranked WHERE rank < 5
        """,
        "stratified_sample": """
            WITH keyed AS (
                SELECT doc_id, lang,
                       ROW_NUMBER() OVER (
                           PARTITION BY lang
                           ORDER BY (doc_id * 2654435761) % 4294967296, doc_id
                       ) AS r
                FROM documents
            )
            SELECT doc_id, lang FROM keyed WHERE r <= 40
        """,
        # integer key compared to the float threshold in DOUBLE on both
        # sides (numpy casts uint64 < float the same way) — no CAST, so
        # there is no truncation boundary to disagree on
        "sample_rate": """
            SELECT doc_id FROM documents
            WHERE (doc_id * 2654435761) % 4294967296 < 0.35 * 4294967296
        """,
        "host_cap": """
            WITH keyed AS (
                SELECT doc_id, 'h' || (doc_id % 97) || '.example' AS host,
                       ROW_NUMBER() OVER (
                           PARTITION BY doc_id % 97
                           ORDER BY (doc_id * 2654435761) % 4294967296, doc_id
                       ) AS r
                FROM documents
            )
            SELECT doc_id, host FROM keyed WHERE r <= 3
        """,
        "orders_join": """
            SELECT o.o_orderkey, o.o_custkey, c.c_nationkey, c.c_mktsegment
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        """,
        "orders_join_bucketed": """
            SELECT o.o_orderkey, o.o_custkey, c.c_nationkey, c.c_mktsegment
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        """,
        "orders_left_join": """
            SELECT o.o_orderkey, o.o_custkey,
                   CAST(COALESCE(c.c_nationkey, -1) AS BIGINT) AS c_nationkey,
                   COALESCE(c.c_mktsegment, '') AS c_mktsegment
            FROM orders o
            LEFT JOIN (SELECT * FROM customer WHERE c_nationkey < 5) c
              ON o.o_custkey = c.c_custkey
        """,
        "orders_left_join_bucketed": """
            SELECT o.o_orderkey, o.o_custkey,
                   CAST(COALESCE(c.c_nationkey, -1) AS BIGINT) AS c_nationkey,
                   COALESCE(c.c_mktsegment, '') AS c_mktsegment
            FROM orders o
            LEFT JOIN (SELECT * FROM customer WHERE c_nationkey < 5) c
              ON o.o_custkey = c.c_custkey
        """,
        "host_distinct_terms": r"""
            WITH d AS (
                SELECT 'h' || (doc_id % 97) || '.example' AS host, text
                FROM documents
            ),
            raw AS (
                SELECT host, unnest(regexp_extract_all(text, '\S+')) AS w
                FROM d
            )
            SELECT host, CAST(COUNT(DISTINCT w) AS BIGINT) AS distinct
            FROM raw GROUP BY host
        """,
        "lang_source_rollup": """
            SELECT COALESCE(lang, '*') AS lang,
                   COALESCE(source, '*') AS source,
                   CAST(COUNT(*) AS BIGINT) AS count,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars,
                   CAST(2 - GROUPING(lang) - GROUPING(source) AS BIGINT)
                       AS level
            FROM documents
            GROUP BY ROLLUP(lang, source)
        """,
        "lang_source_cube": """
            SELECT COALESCE(lang, '*') AS lang,
                   COALESCE(source, '*') AS source,
                   CAST(COUNT(*) AS BIGINT) AS count,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars,
                   CAST(GROUPING(lang, source) AS BIGINT) AS grouping
            FROM documents
            GROUP BY CUBE(lang, source)
        """,
        "lang_source_stats": """
            WITH m AS (
                SELECT lang, source,
                       CAST(COUNT(*) AS BIGINT) AS n_rows,
                       CAST(SUM(n_chars) AS BIGINT) AS sum_v,
                       CAST(SUM(n_chars * n_chars) AS BIGINT) AS sumsq_v,
                       MIN(n_chars) AS min_v,
                       MAX(n_chars) AS max_v
                FROM documents GROUP BY lang, source
            )
            SELECT lang, source, n_rows, sum_v, sumsq_v, min_v, max_v,
                   CAST(sum_v AS DOUBLE) / CAST(n_rows AS DOUBLE) AS mean,
                   CAST(n_rows * sumsq_v - sum_v * sum_v AS DOUBLE)
                       / CAST(n_rows * n_rows AS DOUBLE) AS var_pop
            FROM m ORDER BY lang, source
        """,
        "bigram_intersect": r"""
            WITH en AS (SELECT regexp_extract_all(text, '\S+') AS l
                        FROM documents WHERE lang = 'en'),
                 de AS (SELECT regexp_extract_all(text, '\S+') AS l
                        FROM documents WHERE lang = 'de')
            SELECT unnest([l[i] || ' ' || l[i+1]
                           FOR i IN generate_series(1, len(l)-1)]) AS w
            FROM en
            INTERSECT
            SELECT unnest([l[i] || ' ' || l[i+1]
                           FOR i IN generate_series(1, len(l)-1)]) AS w
            FROM de
            ORDER BY w
        """,
        "bigram_except": r"""
            WITH en AS (SELECT regexp_extract_all(text, '\S+') AS l
                        FROM documents WHERE lang = 'en'),
                 de AS (SELECT regexp_extract_all(text, '\S+') AS l
                        FROM documents WHERE lang = 'de')
            SELECT unnest([l[i] || ' ' || l[i+1]
                           FOR i IN generate_series(1, len(l)-1)]) AS w
            FROM en
            EXCEPT
            SELECT unnest([l[i] || ' ' || l[i+1]
                           FOR i IN generate_series(1, len(l)-1)]) AS w
            FROM de
            ORDER BY w
        """,
        "doc_rank": """
            SELECT doc_id, n_chars,
                   CAST(ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS BIGINT)
                       AS rank
            FROM documents
        """,
        "big_orders": """
            WITH q AS (
                SELECT l_orderkey,
                       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                           AS sum_qty
                FROM lineitem GROUP BY l_orderkey
                HAVING SUM(CAST(l_quantity AS BIGINT)) > 250
            )
            SELECT c.c_name,
                   o.o_custkey,
                   o.o_orderkey,
                   CAST(epoch_us(o.o_orderdate) // 86400000000 AS BIGINT)
                       AS o_orderdate_day,
                   o.o_totalprice,
                   q.sum_qty
            FROM q
            JOIN orders o ON o.o_orderkey = q.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            ORDER BY o.o_totalprice DESC, o_orderdate_day, o.o_orderkey
            LIMIT 100
        """,
        "orders_revenue_top": """
            WITH rev AS (
                SELECT l_orderkey AS o_orderkey,
                       CAST(SUM(CAST(FLOOR(l_extendedprice*100) AS BIGINT)
                           * (100 - CAST(FLOOR(l_discount*100) AS BIGINT)))
                           AS BIGINT) AS revenue
                FROM lineitem
                WHERE l_orderkey IN (
                    SELECT o_orderkey FROM orders o
                    JOIN customer c ON o.o_custkey = c.c_custkey
                    WHERE c.c_mktsegment = 'BUILDING')
                GROUP BY l_orderkey
            )
            SELECT o_orderkey, revenue FROM rev
            QUALIFY ROW_NUMBER() OVER (ORDER BY revenue DESC, o_orderkey) <= 10
        """,
        "orders_full_join": """
            SELECT COALESCE(o.o_orderkey, -1) AS o_orderkey,
                   COALESCE(o.o_custkey, c.c_custkey) AS o_custkey,
                   CAST(COALESCE(c.c_nationkey, -1) AS BIGINT) AS c_nationkey
            FROM (SELECT o_orderkey, o_custkey FROM orders
                  WHERE o_custkey < 100) o
            FULL JOIN (SELECT c_custkey, c_nationkey FROM customer
                       WHERE c_custkey >= 50 AND c_custkey < 150) c
              ON o.o_custkey = c.c_custkey
        """,
        "user_running": """
            SELECT event_id, user_id,
                   CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                   CAST(length(props) AS BIGINT) AS plen,
                   CAST(ROW_NUMBER() OVER w AS BIGINT) AS rn,
                   CAST(SUM(CAST(length(props) AS BIGINT)) OVER w AS BIGINT)
                       AS run_sum,
                   COALESCE(LAG(CAST(epoch_us(ts) AS BIGINT)) OVER w, -1)
                       AS lag_prev
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
        """,
        "funnel": """
            WITH pos AS (
                SELECT user_id, event_type,
                       ROW_NUMBER() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS rn
                FROM events
            ),
            s1 AS (SELECT user_id, MIN(rn) AS r1 FROM pos
                   WHERE event_type = 'view' GROUP BY user_id),
            s2 AS (SELECT pos.user_id, MIN(rn) AS r2 FROM pos
                   JOIN s1 USING (user_id)
                   WHERE event_type = 'click' AND rn > r1
                   GROUP BY pos.user_id),
            s3 AS (SELECT pos.user_id, MIN(rn) AS r3 FROM pos
                   JOIN s2 USING (user_id)
                   WHERE event_type = 'purchase' AND rn > r2
                   GROUP BY pos.user_id)
            SELECT CAST(1 AS BIGINT) AS step, 'view' AS step_type,
                   CAST((SELECT COUNT(*) FROM s1) AS BIGINT) AS n_users
            UNION ALL
            SELECT CAST(2 AS BIGINT), 'click',
                   CAST((SELECT COUNT(*) FROM s2) AS BIGINT)
            UNION ALL
            SELECT CAST(3 AS BIGINT), 'purchase',
                   CAST((SELECT COUNT(*) FROM s3) AS BIGINT)
            ORDER BY step
        """,
        "user_rank_tiles": """
            SELECT event_id, user_id,
                   CAST(length(props) AS BIGINT) AS plen,
                   CAST(DENSE_RANK() OVER
                        (PARTITION BY user_id ORDER BY length(props))
                        AS BIGINT) AS dense_rank,
                   CAST(NTILE(4) OVER
                        (PARTITION BY user_id ORDER BY length(props), event_id)
                        AS BIGINT) AS ntile
            FROM events ORDER BY event_id
        """,
        "orders_semi": """
            SELECT o_orderkey, o_custkey FROM orders o
            WHERE EXISTS (SELECT 1 FROM customer c
                          WHERE c.c_custkey = o.o_custkey AND c.c_nationkey < 5)
        """,
        "orders_anti": """
            SELECT o_orderkey, o_custkey FROM orders o
            WHERE NOT EXISTS (SELECT 1 FROM customer c
                              WHERE c.c_custkey = o.o_custkey AND c.c_nationkey < 5)
        """,
        "orders_semi_bloom": """
            SELECT o_orderkey, o_custkey FROM orders o
            WHERE EXISTS (SELECT 1 FROM customer c
                          WHERE c.c_custkey = o.o_custkey AND c.c_nationkey < 5)
        """,
        "orders_anti_bloom": """
            SELECT o_orderkey, o_custkey FROM orders o
            WHERE NOT EXISTS (SELECT 1 FROM customer c
                              WHERE c.c_custkey = o.o_custkey AND c.c_nationkey < 5)
        """,
        "top_per_host": """
            WITH d AS (
                SELECT doc_id, 'h' || (doc_id % 97) || '.example' AS host,
                       CAST(length(text) AS BIGINT) AS text_len
                FROM documents
            ),
            r AS (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY host ORDER BY text_len DESC, doc_id
                ) AS rn FROM d
            )
            SELECT doc_id, host, text_len FROM r WHERE rn <= 5
        """,
        "term_postings": r"""
            WITH raw AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
                FROM documents
            ),
            toks AS (SELECT DISTINCT doc_id, w FROM raw),
            n AS (SELECT GREATEST(2, COUNT(*) // 50) AS thr FROM documents)
            SELECT w AS word, CAST(COUNT(*) AS BIGINT) AS df,
                   string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
            FROM toks GROUP BY w
            HAVING COUNT(*) >= (SELECT thr FROM n)
        """,
        "repetition_signals": r"""
            WITH w AS (
                SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
            ),
            tok AS (SELECT doc_id, unnest(ws) AS wd FROM w),
            wc AS (SELECT doc_id, wd, COUNT(*) AS c FROM tok GROUP BY doc_id, wd),
            wagg AS (
                SELECT doc_id, MAX(c) AS mx,
                       SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup
                FROM wc GROUP BY doc_id
            ),
            bg AS (
                SELECT doc_id,
                       unnest(list_transform(range(1, len(ws)),
                                             i -> ws[i] || ' ' || ws[i+1])) AS b
                FROM w
            ),
            bc AS (SELECT doc_id, b, COUNT(*) AS c FROM bg GROUP BY doc_id, b),
            bagg AS (SELECT doc_id, MAX(c) AS bmx FROM bc GROUP BY doc_id)
            SELECT w.doc_id,
                   CAST(len(ws) AS BIGINT) AS n_words,
                   COALESCE(wagg.mx, 0) / GREATEST(len(ws), 1)::DOUBLE AS top_word_frac,
                   COALESCE(wagg.dup, 0) / GREATEST(len(ws), 1)::DOUBLE AS dup_word_frac,
                   COALESCE(bagg.bmx, 0) / GREATEST(len(ws) - 1, 1)::DOUBLE AS top_bigram_frac
            FROM w LEFT JOIN wagg USING (doc_id) LEFT JOIN bagg USING (doc_id)
        """,
        "pii_scrub": r"""
            WITH synth AS (
                SELECT doc_id,
                       text
                       || CASE WHEN doc_id % 3 <> 1
                               THEN ' reach user' || doc_id || '@mail.example'
                               ELSE '' END
                       || CASE WHEN doc_id % 3 <> 0
                               THEN ' call +1-555-' || (1000 + doc_id % 9000)
                               ELSE '' END AS text
                FROM documents
            ),
            emailed AS (
                SELECT doc_id,
                       CAST(length(regexp_extract_all(text,
                           '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
                       regexp_replace(text,
                           '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g') AS text
                FROM synth
            )
            SELECT doc_id,
                   regexp_replace(text, '\+[0-9]{1,3}-[0-9]{3}-[0-9]{3,10}',
                                  '<PHONE>', 'g') AS text_clean,
                   n_emails,
                   CAST(length(regexp_extract_all(text,
                       '\+[0-9]{1,3}-[0-9]{3}-[0-9]{3,10}')) AS BIGINT) AS n_phones
            FROM emailed
        """,
        "decontaminate": r"""
            WITH w AS (
                SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
            ),
            g AS (
                SELECT doc_id,
                       unnest(CASE
                           WHEN len(ws) >= 4 THEN list_transform(
                               range(1, len(ws) - 2),
                               i -> array_to_string(ws[i:i+3], ' '))
                           WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
                           ELSE [] END) AS gram
                FROM w
            ),
            bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 20 = 0),
            cont AS (SELECT DISTINCT doc_id FROM g JOIN bench USING (gram)),
            ng AS (SELECT doc_id, COUNT(DISTINCT gram) AS n_grams FROM g GROUP BY doc_id)
            SELECT d.doc_id, COALESCE(ng.n_grams, 0) AS n_grams
            FROM documents d LEFT JOIN ng USING (doc_id)
            WHERE d.doc_id NOT IN (SELECT doc_id FROM cont)
        """,
        "curation_full": r"""
            WITH q AS (
                SELECT doc_id, text, lang,
                       CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_words,
                       CAST(length(regexp_extract_all(text, '[A-Za-zÀ-ÿ]')) AS BIGINT) AS n_alpha,
                       CAST(length(text) AS BIGINT) AS n_chars
                FROM documents
            ),
            qf AS (
                SELECT doc_id, text, lang, n_words FROM q
                WHERE n_words >= 5 AND n_words <= 100000 AND 2*n_alpha >= n_chars
            ),
            tok AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS wd FROM qf),
            wc AS (SELECT doc_id, wd, COUNT(*) AS c FROM tok GROUP BY doc_id, wd),
            mxt AS (SELECT doc_id, MAX(c) AS mx FROM wc GROUP BY doc_id),
            rf AS (
                SELECT qf.doc_id, qf.text, qf.lang FROM qf JOIN mxt USING (doc_id)
                WHERE mxt.mx * 8 <= qf.n_words * 1
            ),
            wall AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents),
            gb AS (
                SELECT unnest(CASE
                    WHEN len(ws) >= 4 THEN list_transform(
                        range(1, len(ws) - 2), i -> array_to_string(ws[i:i+3], ' '))
                    WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
                    ELSE [] END) AS gram
                FROM wall WHERE doc_id % 20 = 0
            ),
            bench AS (SELECT DISTINCT gram FROM gb),
            wrf AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM rf),
            grf AS (
                SELECT doc_id, unnest(CASE
                    WHEN len(ws) >= 4 THEN list_transform(
                        range(1, len(ws) - 2), i -> array_to_string(ws[i:i+3], ' '))
                    WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
                    ELSE [] END) AS gram
                FROM wrf
            ),
            cont AS (SELECT DISTINCT doc_id FROM grf JOIN bench USING (gram)),
            clean AS (
                SELECT rf.doc_id, rf.text, rf.lang FROM rf
                WHERE rf.doc_id NOT IN (SELECT doc_id FROM cont)
            ),
            dd AS (
                SELECT MIN(lpad(CAST(doc_id AS VARCHAR), 20, '0') || '|' || lang) AS ml,
                       COUNT(*) AS dup_count
                FROM clean GROUP BY text
            ),
            reps AS (
                SELECT CAST(substr(ml, 1, 20) AS BIGINT) AS doc_id,
                       substr(ml, 22) AS lang, dup_count
                FROM dd
            ),
            keyed AS (
                SELECT doc_id, lang, dup_count,
                       ROW_NUMBER() OVER (
                           PARTITION BY lang
                           ORDER BY (doc_id * 2654435761) % 4294967296, doc_id
                       ) AS r
                FROM reps
            )
            SELECT doc_id, lang, dup_count FROM keyed WHERE r <= 25
        """,
        "novel_content": """
            WITH d AS (
                SELECT doc_id, text,
                       'https://h' || (doc_id % 97) || '.example/p' || doc_id AS url,
                       doc_id % 2 AS wave
                FROM documents
            ),
            w0 AS (SELECT MIN(url) AS url FROM d WHERE wave = 0 GROUP BY text),
            t0 AS (SELECT DISTINCT text FROM d WHERE wave = 0),
            w1 AS (
                SELECT MIN(url) AS url FROM d
                WHERE wave = 1 AND text NOT IN (SELECT text FROM t0)
                GROUP BY text
            )
            SELECT url, CAST(0 AS BIGINT) AS wave FROM w0
            UNION ALL
            SELECT url, CAST(1 AS BIGINT) AS wave FROM w1
        """,
        "mixture_epochs": """
            WITH w AS (
                SELECT doc_id, lang,
                       CASE lang WHEN 'en' THEN 2.5 WHEN 'de' THEN 0.5
                                 ELSE 1.0 END AS wt,
                       (doc_id * 2654435761) % 4294967296 AS k
                FROM documents
            ),
            c AS (
                SELECT doc_id, lang,
                       CAST(floor(wt) + CASE WHEN k < (wt - floor(wt)) * 4294967296
                                             THEN 1 ELSE 0 END AS BIGINT) AS n_copies
                FROM w
            )
            SELECT doc_id, lang, unnest(range(n_copies)) AS epoch
            FROM c WHERE n_copies > 0
        """,
        "chunk_docs": r"""
            WITH w AS (
                SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
            ),
            c AS (
                SELECT doc_id, ws, CAST(len(ws) AS BIGINT) AS n,
                       unnest(range((CAST(len(ws) AS BIGINT) + 31) // 32)) AS chunk_id
                FROM w WHERE len(ws) > 0
            )
            SELECT doc_id, chunk_id,
                   array_to_string(ws[chunk_id*32+1 : CAST(least((chunk_id+1)*32, n) AS BIGINT)], ' ') AS chunk_text,
                   CAST(least(n - chunk_id*32, 32) AS BIGINT) AS n_tokens
            FROM c
        """,
        "paragraph_dedup": f"""
            WITH {_BUILT_PARA_SQL},
            paras AS (
                SELECT doc_id,
                       unnest(string_split(text, chr(10))) AS para,
                       unnest(range(0, len(string_split(text, chr(10))))) AS para_idx
                FROM built
            ),
            keyed AS (
                SELECT doc_id, para, para_idx,
                       doc_id * 1048576 + para_idx AS okey
                FROM paras
            ),
            firsts AS (
                SELECT para, MIN(okey) AS first_key
                FROM keyed WHERE para <> '' GROUP BY para
            ),
            flagged AS (
                SELECT k.doc_id, k.para, k.para_idx,
                       (k.para = '' OR k.okey = f.first_key) AS kept
                FROM keyed k LEFT JOIN firsts f USING (para)
            )
            SELECT doc_id,
                   COUNT(*) AS n_paras,
                   COUNT(*) FILTER (WHERE kept) AS n_kept,
                   COALESCE(STRING_AGG(CASE WHEN kept THEN para END,
                                       chr(10) ORDER BY para_idx), '') AS text
            FROM flagged GROUP BY doc_id
        """,
        "substr_dedup": f"""
            WITH {_BUILT_PARA_SQL},
            toks AS (
                SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws
                FROM built
            ),
            grams AS (
                SELECT doc_id, ws,
                       unnest(range(CAST(len(ws) AS BIGINT) - 16 + 1)) AS pos
                FROM toks WHERE len(ws) >= 16
            ),
            g2 AS (
                SELECT doc_id, pos,
                       array_to_string(ws[pos+1 : pos+16], chr(31)) AS gram,
                       doc_id * 1048576 + pos AS okey
                FROM grams
            ),
            firsts AS (
                SELECT gram, MIN(okey) AS first_key
                FROM g2 GROUP BY gram HAVING COUNT(*) > 1
            ),
            drops AS (
                SELECT g.doc_id, g.pos
                FROM g2 g JOIN firsts f USING (gram)
                WHERE g.okey <> f.first_key
            ),
            droppos AS (
                SELECT DISTINCT d.doc_id, d.pos + u.range AS tp
                FROM drops d, range(16) u
            ),
            tok AS (
                SELECT doc_id,
                       unnest(ws) AS tok,
                       unnest(range(CAST(len(ws) AS BIGINT))) AS tp
                FROM toks
            ),
            flagged AS (
                SELECT t.doc_id, t.tok, t.tp, (p.tp IS NULL) AS kept
                FROM tok t LEFT JOIN droppos p USING (doc_id, tp)
            ),
            rebuilt AS (
                SELECT doc_id,
                       COUNT(*) FILTER (WHERE kept) AS n_kept,
                       COALESCE(STRING_AGG(CASE WHEN kept THEN tok END,
                                           ' ' ORDER BY tp), '') AS text_clean
                FROM flagged GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(len(d.ws) AS BIGINT) AS n_tokens,
                   COALESCE(r.n_kept, 0) AS n_kept,
                   COALESCE(r.text_clean, '') AS text_clean
            FROM toks d LEFT JOIN rebuilt r USING (doc_id)
        """,
        "substr_dedup_winnow": f"""
            WITH {_BUILT_PARA_SQL},
            toks AS (
                SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws
                FROM built
            ),
            tok AS (
                SELECT doc_id,
                       unnest(ws) AS tok,
                       unnest(range(CAST(len(ws) AS BIGINT))) AS tp
                FROM toks
            ),
            {_substr_kept_sql(16, '16')},
            {_substr_kept_sql(19, '19')}
            SELECT t.doc_id,
                   CAST(len(t.ws) AS BIGINT) AS n_tokens,
                   COALESCE(k16.n_kept, 0) AS n_kept16,
                   COALESCE(k19.n_kept, 0) AS n_kept19,
                   CAST(1 AS BIGINT) AS floor_ok,
                   CAST(1 AS BIGINT) AS caught_ok
            FROM toks t
            LEFT JOIN kept16 k16 USING (doc_id)
            LEFT JOIN kept19 k19 USING (doc_id)
        """,
        "anchor_labels": """
            WITH nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
            e AS (
                SELECT d.doc_id AS i, g.j AS j,
                       (d.doc_id * 7 + g.j * 13 + 1) % nn.n AS t
                FROM documents d, nn, generate_series(0, 2) AS g(j)
                WHERE g.j <= d.doc_id % 3
            ),
            edges AS (
                SELECT CASE WHEN j = 0
                         THEN 'https://h' || (t % 97) || '.example/p' || t
                         ELSE 'https://h' || (i % 97) || '.example/p' || t
                       END AS dst,
                       'label ' || ((i + t) % 5) AS anchor
                FROM e
            ),
            hist AS (
                SELECT dst, anchor, CAST(COUNT(*) AS BIGINT) AS n
                FROM edges GROUP BY dst, anchor
            ),
            ranked AS (
                SELECT dst, anchor, n,
                       ROW_NUMBER() OVER (
                           PARTITION BY dst ORDER BY n DESC, anchor ASC
                       ) AS r
                FROM hist
            )
            SELECT dst, anchor AS mode_value, n FROM ranked WHERE r = 1
        """,
        "boilerplate": f"""
            WITH {_BUILT_PARA_SQL},
            paras AS (
                SELECT doc_id,
                       unnest(string_split(text, chr(10))) AS para,
                       unnest(range(0, len(string_split(text, chr(10))))) AS para_idx
                FROM built
            ),
            freq AS (
                SELECT para FROM paras
                WHERE para <> '' GROUP BY para HAVING COUNT(*) >= 3
            ),
            flagged AS (
                SELECT p.doc_id, p.para, p.para_idx,
                       (p.para = '' OR f.para IS NULL) AS kept
                FROM paras p LEFT JOIN freq f USING (para)
            )
            SELECT doc_id,
                   COUNT(*) AS n_paras,
                   COUNT(*) FILTER (WHERE kept) AS n_kept,
                   COALESCE(STRING_AGG(CASE WHEN kept THEN para END,
                                       chr(10) ORDER BY para_idx), '') AS text
            FROM flagged GROUP BY doc_id
        """,
        "lm_rarity": r"""
            WITH toks AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
                FROM documents
            ),
            vocab AS (
                SELECT w, ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, w ASC) AS r
                FROM toks GROUP BY w
                QUALIFY r <= 65536
            ),
            agg AS (
                SELECT t.doc_id,
                       COUNT(*) AS n_lm_tokens,
                       SUM(COALESCE(v.r, 65537)) AS rank_sum
                FROM toks t LEFT JOIN vocab v USING (w)
                GROUP BY t.doc_id
            ),
            scored AS (
                SELECT d.doc_id,
                       CAST(COALESCE(a.n_lm_tokens, 0) AS BIGINT) AS n_lm_tokens,
                       CAST(COALESCE(a.rank_sum, 0) AS BIGINT) AS rank_sum,
                       COALESCE(a.rank_sum, 0)
                           / GREATEST(COALESCE(a.n_lm_tokens, 0), 1)::DOUBLE AS mean_rank
                FROM documents d LEFT JOIN agg a USING (doc_id)
            )
            SELECT doc_id, n_lm_tokens, rank_sum, mean_rank,
                   CASE WHEN mean_rank <= 14.0 THEN 'head'
                        WHEN mean_rank <= 16.5 THEN 'middle'
                        ELSE 'tail' END AS lm_bucket
            FROM scored ORDER BY doc_id
        """,
        "semdedup_exact": """
            WITH RECURSIVE pairs AS (
                SELECT a.vec_id AS src, b.vec_id AS dst
                FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
                WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
            ),
            sym AS (
                SELECT src, dst FROM pairs
                UNION
                SELECT dst AS src, src AS dst FROM pairs
            ),
            reach(id, r) AS (
                SELECT vec_id, vec_id FROM embeddings
                UNION
                SELECT reach.id, sym.dst FROM reach JOIN sym ON reach.r = sym.src
            )
            SELECT id AS vec_id,
                   MIN(r) AS cluster,
                   CAST(id <> MIN(r) AS BIGINT) AS is_dup
            FROM reach GROUP BY id
        """,
        "asof_join": """
            WITH l AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'purchase'
            ),
            r AS (
                SELECT event_id, user_id, ts, value FROM events
                WHERE event_type = 'click'
            )
            SELECT l.user_id,
                   epoch_us(l.ts) AS ts_us,
                   l.event_id,
                   COALESCE(r.event_id, -1) AS click_id,
                   COALESCE(r.value, -1.0) AS click_value,
                   CAST(r.event_id IS NOT NULL AS BIGINT) AS matched
            FROM l ASOF LEFT JOIN r
              ON l.user_id = r.user_id AND l.ts >= r.ts
        """,
        "asof_join_forward": """
            WITH l AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'purchase'
            ),
            r AS (
                SELECT event_id, user_id, ts, value FROM events
                WHERE event_type = 'click'
            )
            SELECT l.user_id,
                   epoch_us(l.ts) AS ts_us,
                   l.event_id,
                   COALESCE(r.event_id, -1) AS click_id,
                   COALESCE(r.value, -1.0) AS click_value,
                   CAST(r.event_id IS NOT NULL AS BIGINT) AS matched
            FROM l ASOF LEFT JOIN r
              ON l.user_id = r.user_id AND l.ts <= r.ts
        """,
        "asof_join_bucketed": """
            WITH l AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'purchase'
            ),
            r AS (
                SELECT event_id, user_id, ts, value FROM events
                WHERE event_type = 'click'
            )
            SELECT l.user_id,
                   epoch_us(l.ts) AS ts_us,
                   l.event_id,
                   COALESCE(r.event_id, -1) AS click_id,
                   COALESCE(r.value, -1.0) AS click_value,
                   CAST(r.event_id IS NOT NULL AS BIGINT) AS matched
            FROM l ASOF LEFT JOIN r
              ON l.user_id = r.user_id AND l.ts >= r.ts
        """,
        "top_keywords": r"""
            WITH toks AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
                FROM documents
            ),
            tf AS (SELECT doc_id, w, COUNT(*) AS tf FROM toks GROUP BY doc_id, w),
            dfreq AS (SELECT w, COUNT(DISTINCT doc_id) AS df FROM toks GROUP BY w),
            ranked AS (
                SELECT tf.doc_id, tf.w, tf.tf, dfreq.df,
                       ROW_NUMBER() OVER (
                           PARTITION BY tf.doc_id
                           ORDER BY tf.tf DESC, dfreq.df ASC, tf.w ASC
                       ) AS rn
                FROM tf JOIN dfreq USING (w)
            )
            SELECT doc_id, w AS keyword, tf, df FROM ranked WHERE rn = 1
        """,
        "token_quantiles": r"""
            WITH n AS (
                SELECT CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS nt
                FROM documents
            )
            SELECT CAST(1 AS BIGINT) AS q_pct, quantile_disc(nt, 0.01) AS value FROM n
            UNION ALL SELECT CAST(10 AS BIGINT) AS q_pct, quantile_disc(nt, 0.1) AS value FROM n
            UNION ALL SELECT CAST(25 AS BIGINT) AS q_pct, quantile_disc(nt, 0.25) AS value FROM n
            UNION ALL SELECT CAST(50 AS BIGINT) AS q_pct, quantile_disc(nt, 0.5) AS value FROM n
            UNION ALL SELECT CAST(75 AS BIGINT) AS q_pct, quantile_disc(nt, 0.75) AS value FROM n
            UNION ALL SELECT CAST(90 AS BIGINT) AS q_pct, quantile_disc(nt, 0.9) AS value FROM n
            UNION ALL SELECT CAST(99 AS BIGINT) AS q_pct, quantile_disc(nt, 0.99) AS value FROM n
            UNION ALL SELECT CAST(100 AS BIGINT) AS q_pct, quantile_disc(nt, 1.0) AS value FROM n
        """,
        "user_event_pivot": """
            SELECT user_id,
                   CAST(COUNT(*) FILTER (event_type = 'click') AS BIGINT) AS n_click,
                   CAST(COUNT(*) FILTER (event_type = 'error') AS BIGINT) AS n_error,
                   CAST(COUNT(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase,
                   CAST(COUNT(*) FILTER (event_type = 'signup') AS BIGINT) AS n_signup,
                   CAST(COUNT(*) FILTER (event_type = 'view') AS BIGINT) AS n_view
            FROM events GROUP BY user_id
        """,
        "event_unpivot": """
            WITH w AS (
                SELECT user_id,
                       CAST(COUNT(*) FILTER (event_type = 'click') AS BIGINT) AS n_click,
                       CAST(COUNT(*) FILTER (event_type = 'error') AS BIGINT) AS n_error,
                       CAST(COUNT(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase,
                       CAST(COUNT(*) FILTER (event_type = 'signup') AS BIGINT) AS n_signup,
                       CAST(COUNT(*) FILTER (event_type = 'view') AS BIGINT) AS n_view
                FROM events GROUP BY user_id
            )
            SELECT user_id, variable, value FROM (
                SELECT user_id, 'n_click' AS variable, n_click AS value FROM w
                UNION ALL
                SELECT user_id, 'n_error', n_error FROM w
                UNION ALL
                SELECT user_id, 'n_purchase', n_purchase FROM w
                UNION ALL
                SELECT user_id, 'n_signup', n_signup FROM w
                UNION ALL
                SELECT user_id, 'n_view', n_view FROM w
            ) ORDER BY user_id, variable
        """,
        "host_quantiles": """
            WITH d AS (
                SELECT 'h' || (doc_id % 97) || '.example' AS host, n_chars
                FROM documents
            )
            SELECT host, CAST(25 AS BIGINT) AS q_pct,
                   quantile_disc(n_chars, 0.25) AS value FROM d GROUP BY host
            UNION ALL
            SELECT host, CAST(50 AS BIGINT) AS q_pct,
                   quantile_disc(n_chars, 0.5) AS value FROM d GROUP BY host
            UNION ALL
            SELECT host, CAST(90 AS BIGINT) AS q_pct,
                   quantile_disc(n_chars, 0.9) AS value FROM d GROUP BY host
        """,
        "kll_quantiles_exact": """
            WITH n AS (
                SELECT CAST(FLOOR(value*1000) AS BIGINT) AS x FROM events
            )
            SELECT CAST(1 AS BIGINT) AS q_pct, quantile_disc(x, 0.01) AS value FROM n
            UNION ALL SELECT CAST(10 AS BIGINT) AS q_pct, quantile_disc(x, 0.1) AS value FROM n
            UNION ALL SELECT CAST(25 AS BIGINT) AS q_pct, quantile_disc(x, 0.25) AS value FROM n
            UNION ALL SELECT CAST(50 AS BIGINT) AS q_pct, quantile_disc(x, 0.5) AS value FROM n
            UNION ALL SELECT CAST(75 AS BIGINT) AS q_pct, quantile_disc(x, 0.75) AS value FROM n
            UNION ALL SELECT CAST(90 AS BIGINT) AS q_pct, quantile_disc(x, 0.9) AS value FROM n
            UNION ALL SELECT CAST(99 AS BIGINT) AS q_pct, quantile_disc(x, 0.99) AS value FROM n
        """,
        "distinct_words": r"""
            SELECT CAST(COUNT(DISTINCT w) AS BIGINT) AS n_distinct
            FROM (SELECT unnest(regexp_extract_all(text, '\S+')) AS w FROM documents)
        """,
        "heavy_hitters": r"""
            WITH toks AS (
                SELECT unnest(regexp_extract_all(text, '\S+')) AS w FROM documents
            ),
            n AS (SELECT GREATEST(1, COUNT(*) // 50) AS thr FROM toks)
            SELECT w AS word, COUNT(*) AS cnt
            FROM toks
            GROUP BY w
            HAVING COUNT(*) >= (SELECT thr FROM n)
        """,
        "bpe_encode_fixed": """
            SELECT doc_id,
                   CAST(length(replace(replace(text, 'th', chr(1)),
                                       chr(1) || 'e', chr(2))) AS BIGINT)
                       AS n_tokens
            FROM documents ORDER BY doc_id
        """,
        "pack_bins": r"""
            WITH t AS (
                SELECT doc_id,
                       CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n
                FROM documents
            ),
            o AS (
                SELECT doc_id, n,
                       CAST(COALESCE(SUM(n) OVER (ORDER BY doc_id
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0) AS BIGINT) AS s
                FROM t
            ),
            e AS (
                SELECT doc_id, n, s,
                       unnest(range(s // 64, (s + n - 1) // 64 + 1)) AS bin_id
                FROM o WHERE n > 0
            )
            SELECT bin_id, doc_id,
                   LEAST(s + n, (bin_id + 1) * 64)
                       - GREATEST(s, bin_id * 64) AS n_in_bin
            FROM e ORDER BY bin_id, doc_id
        """,
        "cms_topwords": r"""
            WITH toks AS (
                SELECT unnest(regexp_extract_all(text, '\S+')) AS w FROM documents
            ),
            n AS (SELECT GREATEST(1, COUNT(*) // 80) AS thr FROM toks)
            SELECT w AS word, COUNT(*) AS cnt
            FROM toks
            GROUP BY w
            HAVING COUNT(*) >= (SELECT thr FROM n)
        """,
        "range_join": """
            WITH l AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'purchase'
            ),
            r AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'click'
            )
            SELECT l.user_id,
                   epoch_us(l.ts) AS ts_us,
                   l.event_id,
                   COUNT(r.event_id) AS n_in_window,
                   CAST(COALESCE(SUM(r.event_id), 0) AS BIGINT) AS sum_in_window
            FROM l LEFT JOIN r
              ON l.user_id = r.user_id
             AND epoch_us(r.ts) BETWEEN epoch_us(l.ts) - 86400000000 AND epoch_us(l.ts)
            GROUP BY l.user_id, l.ts, l.event_id
        """,
        "range_join_bucketed": """
            WITH l AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'purchase'
            ),
            r AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'click'
            )
            SELECT l.user_id,
                   epoch_us(l.ts) AS ts_us,
                   l.event_id,
                   COUNT(r.event_id) AS n_in_window,
                   CAST(COALESCE(SUM(r.event_id), 0) AS BIGINT) AS sum_in_window
            FROM l LEFT JOIN r
              ON l.user_id = r.user_id
             AND epoch_us(r.ts) BETWEEN epoch_us(l.ts) - 86400000000 AND epoch_us(l.ts)
            GROUP BY l.user_id, l.ts, l.event_id
        """,
        "range_pairs": """
            WITH l AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'purchase'
            ),
            r AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'click'
            )
            SELECT l.event_id AS purchase_id,
                   r.event_id AS click_id,
                   l.user_id,
                   epoch_us(l.ts) AS purchase_ts_us,
                   epoch_us(r.ts) AS click_ts_us
            FROM l JOIN r
              ON l.user_id = r.user_id
             AND epoch_us(r.ts) BETWEEN epoch_us(l.ts) - 43200000000 AND epoch_us(l.ts)
        """,
        "dsir_counts": r"""
            WITH tok AS (
                SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
            ),
            uni AS (SELECT doc_id, unnest(ws) AS g FROM tok),
            bi AS (
                SELECT doc_id,
                       unnest(list_transform(range(1, len(ws)),
                                             i -> ws[i] || ' ' || ws[i+1])) AS g
                FROM tok
            ),
            grams AS (
                SELECT doc_id, g FROM uni UNION ALL SELECT doc_id, g FROM bi
            ),
            tcnt AS (
                SELECT g, COUNT(*) AS c
                FROM grams JOIN documents USING (doc_id)
                WHERE lang = 'en' GROUP BY g
            ),
            rcnt AS (SELECT g, COUNT(*) AS c FROM grams GROUP BY g),
            agg AS (
                SELECT gr.doc_id,
                       COUNT(*) AS n_grams,
                       SUM(COALESCE(t.c, 0)) AS target_hits,
                       SUM(r.c) AS raw_hits
                FROM grams gr
                LEFT JOIN tcnt t USING (g)
                JOIN rcnt r USING (g)
                GROUP BY gr.doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(a.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(a.target_hits, 0) AS BIGINT) AS target_hits,
                   CAST(COALESCE(a.raw_hits, 0) AS BIGINT) AS raw_hits
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """,
        "gopher_rules": r"""
            WITH deco AS (
                SELECT doc_id,
                       text
                       || CASE WHEN doc_id % 4 = 0 THEN ' ## … ... #tag' ELSE '' END
                       || CASE WHEN doc_id % 3 = 0 THEN chr(10) || '- bullet item' || chr(10) || 'trail …' ELSE '' END
                       || CASE WHEN doc_id % 5 = 0 THEN ' to be of and that have with' ELSE '' END AS text
                FROM documents
            ),
            w AS (SELECT doc_id, text, regexp_extract_all(text, '\S+') AS ws FROM deco),
            tok AS (SELECT doc_id, unnest(ws) AS wd FROM w),
            tagg AS (
                SELECT doc_id,
                       SUM(length(wd)) AS wlen,
                       SUM(CASE WHEN regexp_matches(wd, '[A-Za-z]') THEN 1 ELSE 0 END) AS alpha,
                       COUNT(DISTINCT CASE WHEN lower(wd) IN
                           ('the','be','to','of','and','that','have','with')
                           THEN lower(wd) END) AS hits
                FROM tok GROUP BY doc_id
            ),
            ln AS (SELECT doc_id, unnest(string_split(text, chr(10))) AS l FROM w),
            lagg AS (
                SELECT doc_id,
                       COUNT(*) AS n_lines,
                       SUM(CASE WHEN regexp_matches(l, '^[-*•]') THEN 1 ELSE 0 END) AS bullets,
                       SUM(CASE WHEN regexp_matches(l, '(\.\.\.|…)$') THEN 1 ELSE 0 END) AS ells
            FROM ln GROUP BY doc_id
            ),
            scored AS (
                SELECT w.doc_id,
                       CAST(len(ws) AS BIGINT) AS n_words,
                       COALESCE(tagg.wlen, 0) / GREATEST(len(ws), 1)::DOUBLE AS mean_word_len,
                       ((length(text) - length(replace(text, '#', '')))
                        + ((length(text) - length(replace(text, '...', ''))) // 3)
                        + (length(text) - length(replace(text, '…', ''))))
                           / GREATEST(len(ws), 1)::DOUBLE AS symbol_word_ratio,
                       COALESCE(tagg.alpha, 0) / GREATEST(len(ws), 1)::DOUBLE AS alpha_word_frac,
                       CAST(COALESCE(tagg.hits, 0) AS BIGINT) AS stopword_hits,
                       COALESCE(lagg.bullets, 0) / GREATEST(lagg.n_lines, 1)::DOUBLE AS bullet_line_frac,
                       COALESCE(lagg.ells, 0) / GREATEST(lagg.n_lines, 1)::DOUBLE AS ellipsis_line_frac
                FROM w
                LEFT JOIN tagg USING (doc_id)
                LEFT JOIN lagg USING (doc_id)
            )
            SELECT *,
                   CAST(n_words >= 50 AND n_words <= 100000
                        AND mean_word_len >= 3.0 AND mean_word_len <= 10.0
                        AND symbol_word_ratio <= 0.1
                        AND alpha_word_frac >= 0.8
                        AND stopword_hits >= 2
                        AND bullet_line_frac <= 0.9
                        AND ellipsis_line_frac <= 0.3 AS BIGINT) AS gopher_pass
            FROM scored
        """,
        "triangles": f"""
            WITH edges AS ({_GRAPH_EDGES_SQL}),
            und AS (
                SELECT DISTINCT LEAST(src, dst) AS lo, GREATEST(src, dst) AS hi
                FROM edges
            )
            SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles
            FROM und a
            JOIN und b ON b.lo = a.hi
            JOIN und c ON c.lo = a.lo AND c.hi = b.hi
        """,
        "graph_degrees": f"""
            WITH edges AS ({_GRAPH_EDGES_SQL}),
            nodes AS (SELECT doc_id AS node FROM documents),
            o AS (SELECT src AS node, COUNT(*) AS c FROM edges GROUP BY src),
            i AS (SELECT dst AS node, COUNT(*) AS c FROM edges GROUP BY dst)
            SELECT n.node,
                   CAST(COALESCE(o.c, 0) AS BIGINT) AS out_deg,
                   CAST(COALESCE(i.c, 0) AS BIGINT) AS in_deg
            FROM nodes n
            LEFT JOIN o USING (node)
            LEFT JOIN i USING (node)
        """,
        "pagerank": _pagerank_sql(5),
        "hits": _hits_sql(4),
        "kcore": _kcore_sql(3, 6),
        "pagerank_distributed": _pagerank_sql(5),
        "pagerank_weighted": _pagerank_weighted_sql(5),
        "pagerank_personalized": _ppr_sql(5),
        "bfs_hops": _bfs_hops_sql(4),
        "bfs_hops_distributed": _bfs_hops_sql(4),
        "sssp": _sssp_sql(4),
        "sssp_distributed": _sssp_sql(4),
        "skyline": """
            WITH pts AS (
                SELECT l_orderkey,
                       CAST(l_linenumber AS BIGINT) AS linenumber,
                       CAST(FLOOR(l_quantity) AS BIGINT) AS qty,
                       CAST(FLOOR(l_extendedprice * 100) AS BIGINT) AS price_c
                FROM lineitem
            ),
            m AS (SELECT qty, MAX(price_c) AS mp FROM pts GROUP BY qty),
            s AS (
                SELECT qty, mp,
                       MAX(mp) OVER (
                           ORDER BY qty DESC
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ) AS prev_best
                FROM m
            )
            SELECT p.l_orderkey, p.linenumber, p.qty, p.price_c
            FROM pts p JOIN s ON p.qty = s.qty AND p.price_c = s.mp
            WHERE s.prev_best IS NULL OR s.mp > s.prev_best
        """,
        "fuzzy_names": """
            SELECT a.c_custkey AS src, b.c_custkey AS dst
            FROM customer a JOIN customer b
              ON a.c_custkey < b.c_custkey
             AND abs(length(a.c_name) - length(b.c_name)) <= 1
             AND levenshtein(a.c_name, b.c_name) <= 1
            ORDER BY src, dst
        """,
        "group_mode": """
            SELECT user_id, mode_value, n FROM (
                SELECT user_id, event_type AS mode_value, COUNT(*) AS n,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id
                           ORDER BY COUNT(*) DESC, event_type
                       ) AS rn
                FROM events GROUP BY user_id, event_type
            ) WHERE rn = 1 ORDER BY user_id
        """,
        "user_rolling": """
            SELECT event_id, user_id,
                   CAST(length(props) AS BIGINT) AS plen,
                   CAST(ROW_NUMBER() OVER w AS BIGINT) AS rn,
                   CAST(SUM(CAST(length(props) AS BIGINT)) OVER (
                        PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN 6 PRECEDING AND CURRENT ROW
                   ) AS BIGINT) AS roll_sum
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ORDER BY event_id
        """,
        "host_trimmed_mean": """
            WITH d AS (
                SELECT 'h' || (doc_id % 97) || '.example' AS host, n_chars
                FROM documents
            ),
            b AS (
                SELECT host, quantile_disc(n_chars, 0.1) AS lo,
                       quantile_disc(n_chars, 0.9) AS hi
                FROM d GROUP BY host
            )
            SELECT d.host, COUNT(*) AS n_kept,
                   CAST(SUM(d.n_chars) AS BIGINT) AS sum_kept,
                   CAST(SUM(d.n_chars) AS DOUBLE) / COUNT(*) AS trimmed_mean
            FROM d JOIN b ON d.host = b.host
            WHERE d.n_chars BETWEEN b.lo AND b.hi
            GROUP BY d.host ORDER BY d.host
        """,
        "user_pct_rank": """
            SELECT event_id, user_id,
                   CAST(length(props) AS BIGINT) AS plen,
                   CAST(RANK() OVER w AS BIGINT) AS rank,
                   PERCENT_RANK() OVER w AS pct_rank,
                   CUME_DIST() OVER w AS cume_dist
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY length(props))
            ORDER BY event_id
        """,
        "ohlc_hourly": """
            WITH x AS (
                SELECT event_type,
                       CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                       event_id, value
                FROM events
            ),
            w AS (
                SELECT event_type, hour, value,
                       FIRST_VALUE(value) OVER (
                           PARTITION BY event_type, hour
                           ORDER BY ts_us, event_id
                       ) AS open,
                       LAST_VALUE(value) OVER (
                           PARTITION BY event_type, hour
                           ORDER BY ts_us, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND UNBOUNDED FOLLOWING
                       ) AS close
                FROM x
            )
            SELECT event_type, hour,
                   MIN(open) AS open,
                   MAX(value) AS hi,
                   MIN(value) AS lo,
                   MIN(close) AS close,
                   COUNT(*) AS n
            FROM w GROUP BY event_type, hour
            ORDER BY event_type, hour
        """,
        "bounce_rate": f"""
            WITH e AS (
                SELECT user_id, epoch_us(ts) AS ts_us, value FROM events
            ),
            b AS (
                SELECT user_id, ts_us, value,
                       CASE WHEN ts_us - LAG(ts_us) OVER
                            (PARTITION BY user_id ORDER BY ts_us, value)
                            > {_SESSION_GAP_US}
                            OR LAG(ts_us) OVER
                            (PARTITION BY user_id ORDER BY ts_us, value) IS NULL
                       THEN 1 ELSE 0 END AS brk
                FROM e
            ),
            s AS (
                SELECT user_id,
                       CAST(SUM(brk) OVER (PARTITION BY user_id
                            ORDER BY ts_us, value ROWS UNBOUNDED PRECEDING)
                            - 1 AS BIGINT) AS session_id
                FROM b
            ),
            sess AS (
                SELECT user_id, session_id, COUNT(*) AS n_events
                FROM s GROUP BY user_id, session_id
            )
            SELECT user_id,
                   COUNT(*) AS n_sessions,
                   CAST(SUM(CASE WHEN n_events = 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_bounce,
                   CAST(SUM(CASE WHEN n_events = 1 THEN 1 ELSE 0 END)
                        AS BIGINT)::DOUBLE / COUNT(*)::DOUBLE AS bounce_rate
            FROM sess GROUP BY user_id ORDER BY user_id
        """,
        "user_twa": """
            WITH e AS (
                SELECT user_id, event_id,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                       CAST(FLOOR(value * 1024.0) AS BIGINT) AS q
                FROM events
            ),
            w AS (
                SELECT user_id, q,
                       (LEAD(ts_us) OVER (
                            PARTITION BY user_id ORDER BY ts_us, event_id
                        ) - ts_us) // 1000000 AS dt_s
                FROM e
            ),
            a AS (
                SELECT user_id,
                       CAST(SUM(q * dt_s) AS BIGINT) AS num,
                       CAST(SUM(dt_s) AS BIGINT) AS den
                FROM w WHERE dt_s IS NOT NULL GROUP BY user_id
            )
            SELECT user_id, num, den,
                   CAST(num AS DOUBLE) / CAST(den AS DOUBLE) AS twa_q
            FROM a WHERE den > 0 ORDER BY user_id
        """,
        "type_value_quantiles": """
            WITH a AS (
                SELECT event_type,
                       quantile_disc(value, 0.1) AS q10,
                       quantile_disc(value, 0.5) AS q50,
                       quantile_disc(value, 0.9) AS q90
                FROM events GROUP BY event_type
            )
            SELECT event_type, CAST(10 AS BIGINT) AS q_pct, q10 AS value
            FROM a
            UNION ALL
            SELECT event_type, CAST(50 AS BIGINT), q50 FROM a
            UNION ALL
            SELECT event_type, CAST(90 AS BIGINT), q90 FROM a
            ORDER BY event_type, q_pct
        """,
        "knn_loo": """
            WITH q AS (
                SELECT vec_id, CAST(label AS BIGINT) AS lab,
                       CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                           AS dim,
                       CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE)
                                  * 16384.0) AS BIGINT) AS q
                FROM embeddings
            ),
            p AS (
                SELECT a.vec_id AS i, b.vec_id AS j,
                       CAST(SUM((a.q - b.q) * (a.q - b.q)) AS BIGINT) AS d2
                FROM q a JOIN q b
                     ON a.dim = b.dim AND a.vec_id <> b.vec_id
                GROUP BY a.vec_id, b.vec_id
            ),
            nn AS (
                SELECT i, j,
                       ROW_NUMBER() OVER (PARTITION BY i ORDER BY d2, j)
                           AS rk
                FROM p
            ),
            lbl AS (SELECT DISTINCT vec_id, lab FROM q),
            a1 AS (
                SELECT la.lab AS label, lb.lab AS pred
                FROM nn
                JOIN lbl la ON la.vec_id = nn.i
                JOIN lbl lb ON lb.vec_id = nn.j
                WHERE nn.rk = 1
            )
            SELECT label, COUNT(*) AS n,
                   CAST(SUM(CASE WHEN pred = label THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_correct,
                   CAST(SUM(CASE WHEN pred = label THEN 1 ELSE 0 END)
                        AS BIGINT)::DOUBLE / COUNT(*)::DOUBLE AS acc
            FROM a1 GROUP BY label ORDER BY label
        """,
        "kmeans_step": """
            WITH q AS (
                SELECT vec_id, CAST(label AS BIGINT) AS lab,
                       CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                           AS dim,
                       CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE)
                                  * 16384.0) AS BIGINT) AS q
                FROM embeddings
            ),
            labs AS (
                SELECT lab, MIN(vec_id) AS mid,
                       CAST(ROW_NUMBER() OVER (ORDER BY lab) - 1 AS BIGINT)
                           AS cluster
                FROM (SELECT DISTINCT vec_id, lab FROM q) GROUP BY lab
            ),
            cent AS (
                SELECT l.cluster AS c, q.dim, q.q AS cq
                FROM labs l JOIN q ON q.vec_id = l.mid
            ),
            dist AS (
                SELECT q.vec_id, c.c,
                       CAST(SUM((q.q - c.cq) * (q.q - c.cq)) AS BIGINT) AS d2
                FROM q JOIN cent c ON c.dim = q.dim
                GROUP BY q.vec_id, c.c
            ),
            asg AS (
                SELECT vec_id, c,
                       ROW_NUMBER() OVER (
                           PARTITION BY vec_id ORDER BY d2, c
                       ) AS rk
                FROM dist
            ),
            a1 AS (SELECT vec_id, c FROM asg WHERE rk = 1)
            SELECT a1.c AS cluster, q.dim,
                   COUNT(*) AS n,
                   CAST(SUM(q.q) AS BIGINT) AS sum_q
            FROM a1 JOIN q ON q.vec_id = a1.vec_id
            GROUP BY a1.c, q.dim
            ORDER BY cluster, dim
        """,
        "centroid_dots": """
            WITH x AS (
                SELECT CAST(label AS BIGINT) AS label,
                       CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                           AS dim,
                       CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE)
                                  * 16384.0) AS BIGINT) AS q
                FROM embeddings
            ),
            s AS (
                SELECT label, dim, CAST(SUM(q) AS BIGINT) AS sq
                FROM x GROUP BY label, dim
            )
            SELECT a.label AS label_a, b.label AS label_b,
                   CAST(SUM(a.sq * b.sq) AS BIGINT) AS dot_q
            FROM s a JOIN s b ON a.dim = b.dim AND a.label < b.label
            GROUP BY a.label, b.label
            ORDER BY label_a, label_b
        """,
        "events_audit": """
            WITH base AS (
                SELECT event_type, event_id,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                       value, user_id
                FROM events
            ),
            a AS (
                SELECT event_type,
                       COUNT(*) AS n,
                       CAST(MIN(event_id) AS BIGINT) AS min_id,
                       CAST(MAX(event_id) AS BIGINT) AS max_id,
                       MIN(ts_us) AS min_ts,
                       MAX(ts_us) AS max_ts,
                       MIN(value) AS min_value,
                       MAX(value) AS max_value,
                       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
                FROM base GROUP BY event_type
            )
            SELECT event_type, n, min_id, max_id, min_ts, max_ts,
                   min_value, max_value, n_users
            FROM a ORDER BY event_type
        """,
        "node_clustering": f"""
            WITH edges AS ({_GRAPH_EDGES_SQL}),
            und AS (
                SELECT DISTINCT LEAST(src, dst) AS lo, GREATEST(src, dst) AS hi
                FROM edges
            ),
            tri AS (
                SELECT a.lo AS x, a.hi AS y, b.hi AS z
                FROM und a
                JOIN und b ON b.lo = a.hi
                JOIN und c ON c.lo = a.lo AND c.hi = b.hi
            ),
            tn AS (
                SELECT node, COUNT(*) AS n_tri FROM (
                    SELECT x AS node FROM tri
                    UNION ALL SELECT y FROM tri
                    UNION ALL SELECT z FROM tri
                ) GROUP BY node
            ),
            dg AS (
                SELECT node, COUNT(*) AS deg FROM (
                    SELECT lo AS node FROM und
                    UNION ALL SELECT hi FROM und
                ) GROUP BY node
            )
            SELECT dg.node,
                   CAST(COALESCE(tn.n_tri, 0) AS BIGINT) AS n_tri,
                   CAST(dg.deg AS BIGINT) AS deg,
                   CASE WHEN dg.deg >= 2
                        THEN CAST(2 * COALESCE(tn.n_tri, 0) AS DOUBLE)
                             / CAST(dg.deg * (dg.deg - 1) AS DOUBLE)
                        ELSE 0.0 END AS clustering
            FROM dg LEFT JOIN tn USING (node)
            ORDER BY dg.node
        """,
        "event_trigrams": """
            WITH o AS (
                SELECT user_id, event_type AS t1,
                       LEAD(event_type, 1) OVER w AS t2,
                       LEAD(event_type, 2) OVER w AS t3
                FROM events
                WINDOW w AS (
                    PARTITION BY user_id
                    ORDER BY CAST(epoch_us(ts) AS BIGINT), event_id
                )
            )
            SELECT t1, t2, t3, COUNT(*) AS cnt
            FROM o WHERE t2 IS NOT NULL AND t3 IS NOT NULL
            GROUP BY t1, t2, t3
            ORDER BY t1, t2, t3
        """,
        "last_touch": """
            WITH e AS (
                SELECT event_id, user_id, event_type,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us
                FROM events
            ),
            o AS (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY user_id ORDER BY ts_us, event_id
                ) AS pos
                FROM e
            ),
            w AS (
                SELECT event_id, event_type, user_id, pos,
                       MAX(CASE WHEN event_type IN ('view', 'click')
                                THEN pos END) OVER (
                           PARTITION BY user_id ORDER BY pos
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING
                       ) AS src_pos
                FROM o
            )
            SELECT w.event_id,
                   CAST(COALESCE(s.event_id, -1) AS BIGINT) AS attr_id
            FROM w LEFT JOIN o s
                 ON s.user_id = w.user_id AND s.pos = w.src_pos
            WHERE w.event_type = 'purchase'
            ORDER BY w.event_id
        """,
        "canonical_docs": """
            WITH g AS (
                SELECT text, MIN(doc_id) AS cluster, COUNT(*) AS n_members
                FROM documents GROUP BY text
            ),
            r AS (
                SELECT text, doc_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY text ORDER BY n_chars DESC, doc_id
                       ) AS rk
                FROM documents
            )
            SELECT CAST(g.cluster AS BIGINT) AS cluster,
                   CAST(r.doc_id AS BIGINT) AS canonical_id,
                   CAST(g.n_members AS BIGINT) AS n_members
            FROM g JOIN r ON r.text = g.text AND r.rk = 1
            ORDER BY cluster
        """,
        "journey_counts": """
            WITH r AS (
                SELECT user_id, event_type, event_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id ORDER BY event_id
                       ) AS rk
                FROM events
            ),
            p AS (
                SELECT user_id,
                       string_agg(event_type, '>' ORDER BY event_id)
                           AS journey
                FROM r WHERE rk <= 5 GROUP BY user_id
            )
            SELECT journey, COUNT(*) AS n_users
            FROM p GROUP BY journey ORDER BY journey
        """,
        "label_scatter": """
            WITH x AS (
                SELECT CAST(label AS BIGINT) AS label,
                       CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                           AS dim,
                       CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE)
                                  * 65536.0) AS BIGINT) AS q
                FROM embeddings
            ),
            pd AS (
                SELECT label, dim, COUNT(*) AS n,
                       CAST(SUM(q) AS BIGINT) AS s1,
                       CAST(SUM(q*q) AS BIGINT) AS s2
                FROM x GROUP BY label, dim
            ),
            t AS (
                SELECT label, CAST(MAX(n) AS BIGINT) AS n,
                       CAST(SUM(n*s2 - s1*s1) AS BIGINT) AS trace_num
                FROM pd GROUP BY label
            )
            SELECT label, n, trace_num,
                   CAST(trace_num AS DOUBLE) / CAST(n*n AS DOUBLE) AS scatter
            FROM t ORDER BY label
        """,
        "user_gini": """
            WITH c AS (
                SELECT user_id, event_type, COUNT(*) AS c
                FROM events GROUP BY user_id, event_type
            ),
            a AS (
                SELECT user_id,
                       CAST(SUM(c) AS BIGINT) AS n,
                       CAST(SUM(c*c) AS BIGINT) AS ssq
                FROM c GROUP BY user_id
            )
            SELECT user_id, n, ssq,
                   CAST(n*n - ssq AS DOUBLE) / CAST(n*n AS DOUBLE) AS gini
            FROM a ORDER BY user_id
        """,
        "snm_pairs": r"""
            WITH k AS (
                SELECT doc_id, text, ascii(substr(text, 1, 1)) * 72057594037927936 + ascii(substr(text, 2, 1)) * 281474976710656 + ascii(substr(text, 3, 1)) * 1099511627776 + ascii(substr(text, 4, 1)) * 4294967296 + ascii(substr(text, 5, 1)) * 16777216 + ascii(substr(text, 6, 1)) * 65536 + ascii(substr(text, 7, 1)) * 256 + ascii(substr(text, 8, 1)) * 1 AS skey
                FROM documents
            ),
            r AS (
                SELECT doc_id,
                       ROW_NUMBER() OVER (ORDER BY skey, doc_id) AS rnk
                FROM k
            ),
            cand AS (
                SELECT LEAST(a.doc_id, b.doc_id) AS src,
                       GREATEST(a.doc_id, b.doc_id) AS dst
                FROM r a JOIN r b
                     ON b.rnk > a.rnk AND b.rnk - a.rnk < 10
            ),
            t AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS l
                  FROM documents),
            s AS (
                SELECT doc_id,
                       unnest([l[i] || ' ' || l[i+1] || ' ' || l[i+2]
                               FOR i IN generate_series(1, len(l)-2)]) AS sh
                FROM t
            ),
            tok AS (SELECT DISTINCT doc_id, sh FROM s),
            sz AS (SELECT doc_id, COUNT(*) AS n FROM tok GROUP BY doc_id),
            p AS (
                SELECT c.src, c.dst, COUNT(*) AS shared
                FROM cand c
                JOIN tok a ON a.doc_id = c.src
                JOIN tok b ON b.doc_id = c.dst AND b.sh = a.sh
                GROUP BY c.src, c.dst
            )
            SELECT src, dst, shared, sa.n AS size_a, sb.n AS size_b,
                   CAST(shared AS DOUBLE)
                       / CAST(sa.n + sb.n - shared AS DOUBLE) AS jaccard
            FROM p JOIN sz sa ON sa.doc_id = src
                   JOIN sz sb ON sb.doc_id = dst
            WHERE 10 * shared >= 3 * (sa.n + sb.n - shared)
            ORDER BY src, dst
        """,
        "label_dim_medians": """
            WITH x AS (
                SELECT CAST(label AS BIGINT) AS label,
                       CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                           AS dim,
                       CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE)
                                  * 16384.0) AS BIGINT) AS q
                FROM embeddings
            )
            SELECT label, dim, COUNT(*) AS n,
                   quantile_cont(q, 0.5) AS med_cont
            FROM x GROUP BY label, dim
            ORDER BY label, dim
        """,
        "vocab_growth": """
            WITH tok AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS w
                FROM documents
            ),
            f AS (SELECT w, MIN(doc_id) AS md FROM tok GROUP BY w),
            n AS (SELECT COUNT(*) AS nd FROM documents),
            cp AS (
                SELECT CAST(nd * 25 // 100 AS BIGINT) AS c FROM n
                UNION ALL SELECT CAST(nd * 50 // 100 AS BIGINT) FROM n
                UNION ALL SELECT CAST(nd * 75 // 100 AS BIGINT) FROM n
                UNION ALL SELECT CAST(nd AS BIGINT) FROM n
            )
            SELECT cp.c AS first_docs,
                   CAST(SUM(CASE WHEN f.md < cp.c THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_distinct_tokens
            FROM cp CROSS JOIN f
            GROUP BY cp.c ORDER BY first_docs
        """,
        "order_size_hist": """
            WITH per AS (
                SELECT l_orderkey, COUNT(*) AS c
                FROM lineitem GROUP BY l_orderkey
            )
            SELECT CAST(c AS BIGINT) AS n_items,
                   COUNT(*) AS n_orders
            FROM per GROUP BY c ORDER BY n_items
        """,
        "conversion_latency": """
            WITH e AS (
                SELECT user_id, event_type,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us
                FROM events
            ),
            v AS (
                SELECT user_id, MIN(ts_us) AS v0 FROM e
                WHERE event_type = 'view' GROUP BY user_id
            ),
            p AS (
                SELECT e.user_id, MIN(e.ts_us) AS p0, MIN(v.v0) AS v0
                FROM e JOIN v USING (user_id)
                WHERE e.event_type = 'purchase' AND e.ts_us >= v.v0
                GROUP BY e.user_id
            ),
            lat AS (SELECT (p0 - v0) // 1000000 AS latency_s FROM p),
            a AS (
                SELECT quantile_disc(latency_s, 0.5) AS q50,
                       quantile_disc(latency_s, 0.9) AS q90,
                       quantile_disc(latency_s, 0.99) AS q99
                FROM lat
            )
            SELECT CAST(50 AS BIGINT) AS q_pct, CAST(q50 AS BIGINT) AS value
            FROM a
            UNION ALL SELECT CAST(90 AS BIGINT), CAST(q90 AS BIGINT) FROM a
            UNION ALL SELECT CAST(99 AS BIGINT), CAST(q99 AS BIGINT) FROM a
            ORDER BY q_pct
        """,
        "orders_recon": """
            WITH l AS (SELECT DISTINCT o_orderkey AS k FROM orders),
            r AS (SELECT DISTINCT l_orderkey AS k FROM lineitem),
            f AS (
                SELECT COALESCE(l.k, r.k) AS k,
                       CASE WHEN l.k IS NOT NULL THEN 1 ELSE 0 END
                       + CASE WHEN r.k IS NOT NULL THEN 2 ELSE 0 END AS s
                FROM l FULL OUTER JOIN r ON l.k = r.k
            )
            SELECT
                CAST(SUM(CASE WHEN s = 1 THEN 1 ELSE 0 END) AS BIGINT)
                    AS n_only_orders,
                CAST(SUM(CASE WHEN s = 2 THEN 1 ELSE 0 END) AS BIGINT)
                    AS n_only_lineitem,
                CAST(SUM(CASE WHEN s = 3 THEN 1 ELSE 0 END) AS BIGINT)
                    AS n_both
            FROM f
        """,
        "user_running_max": """
            WITH e AS (
                SELECT event_id, user_id,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                       event_id % 1000 AS w
                FROM events
            )
            SELECT event_id, w,
                   CAST(MAX(w) OVER (
                       PARTITION BY user_id ORDER BY ts_us, event_id
                       ROWS UNBOUNDED PRECEDING
                   ) AS BIGINT) AS run_max,
                   CAST(MAX(w) OVER (
                       PARTITION BY user_id ORDER BY ts_us, event_id
                       ROWS UNBOUNDED PRECEDING
                   ) - w AS BIGINT) AS drawdown
            FROM e ORDER BY event_id
        """,
        "burst_days": """
            WITH d AS (
                SELECT user_id,
                       CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day,
                       CAST(COUNT(*) AS BIGINT) AS c
                FROM events GROUP BY user_id, day
            ),
            a AS (
                SELECT user_id,
                       CAST(COUNT(*) AS BIGINT) AS m_days,
                       CAST(SUM(c) AS BIGINT) AS s1,
                       CAST(SUM(c*c) AS BIGINT) AS s2
                FROM d GROUP BY user_id
            )
            SELECT d.user_id, d.day, d.c
            FROM d JOIN a USING (user_id)
            WHERE d.c * a.m_days - a.s1 > 0
              AND (d.c * a.m_days - a.s1) * (d.c * a.m_days - a.s1)
                  > 9 * (a.m_days * a.s2 - a.s1 * a.s1)
            ORDER BY d.user_id, d.day
        """,
        "activity_spikes": """
            WITH d AS (
                SELECT user_id,
                       CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day,
                       COUNT(*) AS n
                FROM events GROUP BY user_id, day
            ),
            w AS (
                SELECT user_id, day, CAST(n AS BIGINT) AS n,
                       CAST(COALESCE(LAG(n) OVER (
                           PARTITION BY user_id ORDER BY day
                       ), -1) AS BIGINT) AS n_prev
                FROM d
            )
            SELECT user_id, day, n, n_prev
            FROM w WHERE n_prev > 0 AND n >= 2 * n_prev
            ORDER BY user_id, day
        """,
        "interval_overlaps": """
            WITH iv AS (
                SELECT user_id, event_id,
                       CAST(epoch_us(ts) AS BIGINT) AS s,
                       CAST(epoch_us(ts) AS BIGINT)
                         + (event_id % 500 + 50) * 1000000 AS e
                FROM events
            ),
            l AS (SELECT * FROM iv WHERE event_id % 2 = 0),
            r AS (SELECT * FROM iv WHERE event_id % 2 = 1)
            SELECT l.user_id,
                   l.event_id AS left_eid,
                   r.event_id AS right_eid,
                   LEAST(l.e, r.e) - GREATEST(l.s, r.s) AS overlap
            FROM l JOIN r ON l.user_id = r.user_id
            WHERE LEAST(l.e, r.e) - GREATEST(l.s, r.s) > 0
            ORDER BY l.user_id, left_eid, right_eid
        """,
        "user_concurrency": """
            WITH iv AS (
                SELECT user_id,
                       CAST(epoch_us(ts) AS BIGINT) AS s,
                       CAST(epoch_us(ts) AS BIGINT)
                         + (event_id % 900 + 100) * 1000000 AS e
                FROM events
            ),
            d AS (
                SELECT user_id, s AS ts, 1 AS delta FROM iv
                UNION ALL
                SELECT user_id, e AS ts, -1 AS delta FROM iv
            ),
            run AS (
                SELECT user_id,
                       SUM(delta) OVER (
                           PARTITION BY user_id ORDER BY ts, delta
                           ROWS UNBOUNDED PRECEDING
                       ) AS live
                FROM d
            ),
            pk AS (
                SELECT user_id, CAST(MAX(live) AS BIGINT) AS peak
                FROM run GROUP BY user_id
            ),
            cnt AS (
                SELECT user_id, COUNT(*) AS n_intervals FROM iv
                GROUP BY user_id
            )
            SELECT pk.user_id, pk.peak, cnt.n_intervals
            FROM pk JOIN cnt USING (user_id)
            ORDER BY pk.user_id
        """,
        "top_types_per_user": """
            WITH c AS (
                SELECT user_id, event_type, COUNT(*) AS n
                FROM events GROUP BY user_id, event_type
            ),
            rk AS (
                SELECT user_id, event_type, n,
                       CAST(ROW_NUMBER() OVER (
                           PARTITION BY user_id
                           ORDER BY n DESC, event_type
                       ) AS BIGINT) AS rk
                FROM c
            )
            SELECT user_id, event_type, n, rk
            FROM rk WHERE rk <= 2
            ORDER BY user_id, rk
        """,
        "simjoin_pairs": r"""
            WITH t AS (
                SELECT doc_id, regexp_extract_all(text, '\S+') AS l
                FROM documents
            ),
            s AS (
                SELECT doc_id,
                       unnest([l[i] || ' ' || l[i+1] || ' ' || l[i+2]
                               FOR i IN generate_series(1, len(l)-2)]) AS sh
                FROM t
            ),
            tok AS (SELECT DISTINCT doc_id, sh FROM s),
            sz AS (SELECT doc_id, COUNT(*) AS n FROM tok GROUP BY doc_id),
            p AS (
                SELECT a.doc_id AS src, b.doc_id AS dst, COUNT(*) AS shared
                FROM tok a JOIN tok b
                     ON a.sh = b.sh AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT src, dst, shared, sa.n AS size_a, sb.n AS size_b,
                   CAST(shared AS DOUBLE)
                       / CAST(sa.n + sb.n - shared AS DOUBLE) AS jaccard
            FROM p JOIN sz sa ON sa.doc_id = src
                   JOIN sz sb ON sb.doc_id = dst
            WHERE 10 * shared >= 3 * (sa.n + sb.n - shared)
            ORDER BY src, dst
        """,
        "user_rate_window": """
            WITH e AS (
                SELECT event_id, user_id,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                       event_id % 100 AS w
                FROM events
            )
            SELECT event_id,
                   CAST(COUNT(*) OVER wf AS BIGINT) AS n_frame,
                   CAST(SUM(w) OVER wf AS BIGINT) AS w_frame
            FROM e
            WINDOW wf AS (
                PARTITION BY user_id ORDER BY ts_us
                RANGE BETWEEN 3600000000 PRECEDING AND CURRENT ROW
            )
            ORDER BY event_id
        """,
        "active_days": """
            WITH d AS (
                SELECT DISTINCT user_id,
                       CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day
                FROM events
            ),
            i AS (
                SELECT user_id, day,
                       day - ROW_NUMBER() OVER (
                           PARTITION BY user_id ORDER BY day
                       ) AS grp
                FROM d
            ),
            g AS (
                SELECT user_id, grp, COUNT(*) AS len
                FROM i GROUP BY user_id, grp
            )
            SELECT user_id,
                   CAST(SUM(len) AS BIGINT) AS n_values,
                   COUNT(*) AS n_islands,
                   CAST(MAX(len) AS BIGINT) AS longest
            FROM g GROUP BY user_id ORDER BY user_id
        """,
        "link_reciprocity": f"""
            WITH edges AS ({_GRAPH_EDGES_SQL}),
            e AS (SELECT DISTINCT src, dst FROM edges WHERE src <> dst),
            m AS (
                SELECT COUNT(*) AS n_recip
                FROM e a JOIN e b ON a.src = b.dst AND a.dst = b.src
            )
            SELECT (SELECT COUNT(*) FROM e) AS n_edges,
                   m.n_recip,
                   CAST(m.n_recip AS DOUBLE)
                       / CAST((SELECT COUNT(*) FROM e) AS DOUBLE)
                       AS reciprocity
            FROM m
        """,
        "user_intervals": """
            WITH iv AS (
                SELECT user_id,
                       CAST(epoch_us(ts) AS BIGINT) AS s,
                       CAST(epoch_us(ts) AS BIGINT)
                         + (event_id % 900 + 100) * 1000000 AS e
                FROM events
            ),
            m AS (
                SELECT user_id, s, e,
                       MAX(e) OVER (
                           PARTITION BY user_id ORDER BY s, e
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING
                       ) AS prev_max
                FROM iv
            ),
            f AS (
                SELECT user_id, s, e,
                       CASE WHEN prev_max IS NULL OR s > prev_max
                            THEN 1 ELSE 0 END AS brk
                FROM m
            ),
            g AS (
                SELECT user_id, s, e,
                       SUM(brk) OVER (
                           PARTITION BY user_id ORDER BY s, e
                           ROWS UNBOUNDED PRECEDING
                       ) AS blk
                FROM f
            ),
            b AS (
                SELECT user_id, blk, MIN(s) AS bs, MAX(e) AS be
                FROM g GROUP BY user_id, blk
            )
            SELECT user_id,
                   COUNT(*) AS n_blocks,
                   CAST(SUM(be - bs) AS BIGINT) AS covered
            FROM b GROUP BY user_id ORDER BY user_id
        """,
        "user_cum_distinct": """
            WITH e AS (
                SELECT event_id, user_id, event_type,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us
                FROM events
            ),
            f AS (
                SELECT event_id, user_id, ts_us,
                       CASE WHEN ROW_NUMBER() OVER (
                                PARTITION BY user_id, event_type
                                ORDER BY ts_us, event_id) = 1
                            THEN 1 ELSE 0 END AS ff
                FROM e
            )
            SELECT event_id,
                   CAST(SUM(ff) OVER (
                       PARTITION BY user_id ORDER BY ts_us, event_id
                       ROWS UNBOUNDED PRECEDING
                   ) AS BIGINT) AS n_types_seen
            FROM f ORDER BY event_id
        """,
        "host_iqr": """
            WITH d AS (
                SELECT 'h' || (doc_id % 97) || '.example' AS host, n_chars
                FROM documents
            ),
            q AS (
                SELECT host, COUNT(*) AS n,
                       quantile_cont(n_chars, 0.25) AS q1,
                       quantile_cont(n_chars, 0.75) AS q3
                FROM d GROUP BY host
            )
            SELECT q.host, q.n, q.q1, q.q3, q.q3 - q.q1 AS iqr,
                   CAST(SUM(CASE WHEN d.n_chars < q.q1 - 1.5*(q.q3 - q.q1)
                                   OR d.n_chars > q.q3 + 1.5*(q.q3 - q.q1)
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers
            FROM d JOIN q USING (host)
            GROUP BY q.host, q.n, q.q1, q.q3
            ORDER BY q.host
        """,
        "host_median_cont": """
            WITH d AS (
                SELECT 'h' || (doc_id % 97) || '.example' AS host, n_chars
                FROM documents
            )
            SELECT host,
                   COUNT(*) AS n,
                   quantile_cont(n_chars, 0.5) AS med_cont
            FROM d GROUP BY host ORDER BY host
        """,
        "doc_pct_rank": """
            SELECT doc_id, n_chars,
                   CAST(ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS BIGINT)
                       AS rank,
                   CAST(ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) - 1
                        AS DOUBLE)
                       / CAST((SELECT COUNT(*) FROM documents) - 1 AS DOUBLE)
                       AS pct_rank
            FROM documents ORDER BY doc_id
        """,
        "label_centroids": """
            WITH x AS (
                SELECT CAST(label AS BIGINT) AS label,
                       CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim,
                       CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1048576.0)
                            AS BIGINT) AS q
                FROM embeddings
            )
            SELECT label, dim,
                   COUNT(*) AS n,
                   CAST(SUM(q) AS BIGINT) AS sum_q,
                   CAST(SUM(q) AS BIGINT)::DOUBLE / COUNT(*)::DOUBLE AS mean_q
            FROM x GROUP BY label, dim
            ORDER BY label, dim
        """,
        "region_revenue": """
            WITH li AS (
                SELECT l_orderkey,
                       CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)
                       * (100 - CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT))
                           AS rev_scaled
                FROM lineitem
            ),
            m AS (
                SELECT r.r_name,
                       CAST(SUM(li.rev_scaled) AS BIGINT) AS rev_scaled
                FROM li
                JOIN orders o   ON li.l_orderkey = o.o_orderkey
                JOIN customer c ON o.o_custkey = c.c_custkey
                JOIN nation n   ON c.c_nationkey = n.n_nationkey
                JOIN region r   ON n.n_regionkey = r.r_regionkey
                GROUP BY r.r_name
            )
            SELECT r_name, rev_scaled,
                   CAST(rev_scaled AS DOUBLE) / 10000.0 AS revenue
            FROM m ORDER BY r_name
        """,
        "route_match": """
            WITH u AS (
                SELECT '/u/' || user_id || '/t/' || event_type AS url
                FROM events
            ),
            r(rule) AS (VALUES ('/u/1'), ('/u/1/t/click'), ('/u/12'),
                               ('/u/2/t/view'), ('/u/3'), ('/u/4/t/purchase'),
                               ('/u/10')),
            m AS (
                SELECT u.url, r.rule,
                       ROW_NUMBER() OVER (
                           PARTITION BY u.rowid
                           ORDER BY length(r.rule) DESC, r.rule
                       ) AS rn
                FROM (SELECT url, ROW_NUMBER() OVER () AS rowid FROM u) u
                JOIN r ON u.url LIKE r.rule || '%'
            )
            SELECT rule, COUNT(*) AS n FROM m WHERE rn = 1
            GROUP BY rule ORDER BY rule
        """,
        "cohort_retention": """
            WITH a AS (
                SELECT DISTINCT user_id,
                       CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day
                FROM events
            ),
            c AS (SELECT user_id, MIN(day) AS cohort FROM a GROUP BY user_id)
            SELECT c.cohort,
                   a.day - c.cohort AS "offset",
                   COUNT(DISTINCT a.user_id) AS n_users
            FROM a JOIN c ON a.user_id = c.user_id
            GROUP BY c.cohort, a.day - c.cohort
            ORDER BY c.cohort, "offset"
        """,
        "order_deciles": """
            WITH r AS (
                SELECT CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents,
                       NTILE(10) OVER (
                           ORDER BY CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT),
                                    o_orderkey
                       ) AS tile
                FROM orders
            )
            SELECT CAST(tile AS BIGINT) AS tile,
                   COUNT(*) AS n_rows,
                   CAST(SUM(cents) AS BIGINT) AS sum_cents
            FROM r GROUP BY tile ORDER BY tile
        """,
        "event_streaks": """
            WITH o AS (
                SELECT user_id, event_type,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id
                           ORDER BY epoch_us(ts), event_id
                       ) AS rn_all,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id, event_type
                           ORDER BY epoch_us(ts), event_id
                       ) AS rn_type
                FROM events
            ),
            runs AS (
                SELECT user_id, COUNT(*) AS len
                FROM o GROUP BY user_id, event_type, rn_all - rn_type
            )
            SELECT user_id, CAST(MAX(len) AS BIGINT) AS max_streak
            FROM runs GROUP BY user_id ORDER BY user_id
        """,
        "lang_share": """
            WITH m AS (
                SELECT lang,
                       COUNT(*) AS n_docs,
                       CAST(SUM(n_chars) AS BIGINT) AS sum_chars
                FROM documents GROUP BY lang
            )
            SELECT lang, n_docs, sum_chars,
                   CAST(sum_chars AS DOUBLE)
                       / CAST((SELECT CAST(SUM(n_chars) AS BIGINT) FROM documents)
                              AS DOUBLE) AS share
            FROM m ORDER BY lang
        """,
        "above_avg_orders": """
            WITH o AS (
                SELECT o_orderkey, o_custkey,
                       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
                FROM orders
            ),
            a AS (
                SELECT o_custkey,
                       COUNT(*) AS n_cust,
                       CAST(SUM(cents) AS BIGINT) AS sum_cust
                FROM o GROUP BY o_custkey
            )
            SELECT o.o_orderkey, o.o_custkey, o.cents
            FROM o JOIN a ON o.o_custkey = a.o_custkey
            WHERE o.cents * a.n_cust > a.sum_cust
            ORDER BY o.o_orderkey
        """,
        "conj_search": r"""
            SELECT doc_id, lang FROM documents
            WHERE regexp_matches(text, '(?:^|\s)spark(?:\s|$)')
              AND regexp_matches(text, '(?:^|\s)join(?:\s|$)')
              AND regexp_matches(text, '(?:^|\s)window(?:\s|$)')
            ORDER BY doc_id
        """,
        "props_extract": r"""
            WITH x AS (
                SELECT event_type,
                       CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT) AS k
                FROM events
                WHERE regexp_matches(props, '"k": (\d+)')
            ),
            m AS (
                SELECT event_type,
                       CAST(COUNT(*) AS BIGINT) AS n_rows,
                       CAST(SUM(k) AS BIGINT) AS sum_v,
                       CAST(SUM(k * k) AS BIGINT) AS sumsq_v,
                       MIN(k) AS min_v,
                       MAX(k) AS max_v
                FROM x GROUP BY event_type
            )
            SELECT event_type, n_rows, sum_v, sumsq_v, min_v, max_v,
                   CAST(sum_v AS DOUBLE) / CAST(n_rows AS DOUBLE) AS mean,
                   CAST(n_rows * sumsq_v - sum_v * sum_v AS DOUBLE)
                       / CAST(n_rows * n_rows AS DOUBLE) AS var_pop
            FROM m ORDER BY event_type
        """,
        "user_decay": """
            WITH mx AS (SELECT MAX(CAST(epoch_us(ts) AS BIGINT)) AS t FROM events),
            w AS (
                SELECT user_id,
                       ((SELECT t FROM mx) - CAST(epoch_us(ts) AS BIGINT))
                           // 86400000000 AS age
                FROM events
            )
            SELECT user_id,
                   COUNT(*) AS n,
                   CAST(SUM(CASE WHEN age BETWEEN 0 AND 30
                                 THEN CAST(1 AS BIGINT) << CAST(30 - age AS INTEGER)
                                 ELSE 0 END) AS BIGINT) AS sum_scaled,
                   CAST(SUM(CASE WHEN age BETWEEN 0 AND 30
                                 THEN CAST(1 AS BIGINT) << CAST(30 - age AS INTEGER)
                                 ELSE 0 END) AS BIGINT)::DOUBLE
                       / 1073741824.0 AS decayed
            FROM w
            GROUP BY user_id
            ORDER BY user_id
        """,
        "event_throttle": """
            WITH w AS (
                SELECT event_id, user_id, event_type,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                       LAG(CAST(epoch_us(ts) AS BIGINT)) OVER (
                           PARTITION BY user_id, event_type
                           ORDER BY epoch_us(ts), event_id
                       ) AS pts
                FROM events
            )
            SELECT event_id, user_id, event_type, ts_us
            FROM w
            WHERE pts IS NULL OR ts_us - pts > 60000000
            ORDER BY event_id
        """,
        "user_coverage": """
            WITH iv AS (
                SELECT user_id,
                       CAST(epoch_us(ts) AS BIGINT) AS s,
                       CAST(epoch_us(ts) AS BIGINT)
                           + CAST(length(props) AS BIGINT) * 1000000 AS e
                FROM events
            ),
            x AS (
                SELECT user_id, s, e,
                       MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                             AND 1 PRECEDING) AS pmax
                FROM iv
            ),
            y AS (
                SELECT user_id, s, e,
                       CASE WHEN pmax IS NULL OR s > pmax THEN 1 ELSE 0 END
                           AS ng
                FROM x
            ),
            z AS (
                SELECT user_id, s, e,
                       SUM(ng) OVER (PARTITION BY user_id ORDER BY s, e
                                     ROWS BETWEEN UNBOUNDED PRECEDING
                                              AND CURRENT ROW) AS gid
                FROM y
            ),
            g AS (
                SELECT user_id, gid, MIN(s) AS gs, MAX(e) AS ge
                FROM z GROUP BY user_id, gid
            )
            SELECT user_id, COUNT(*) AS n_blocks,
                   CAST(SUM(ge - gs) AS BIGINT) AS covered
            FROM g GROUP BY user_id ORDER BY user_id
        """,
        "event_paths": """
            SELECT user_id,
                   string_agg(event_type, '>' ORDER BY event_id) AS path
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "cooccurrence": r"""
            WITH tok AS (
                SELECT DISTINCT * FROM (
                    SELECT doc_id,
                           unnest(regexp_extract_all(lower(text),
                                                     '[a-z]{4,}')) AS w
                    FROM documents)
            )
            SELECT a.w AS w1, b.w AS w2, COUNT(*) AS n
            FROM tok a JOIN tok b
              ON a.doc_id = b.doc_id AND a.w < b.w
            GROUP BY a.w, b.w
            HAVING COUNT(*) >= 2
            ORDER BY n DESC, w1, w2
        """,
        "cooccur_lift": r"""
            WITH tok AS (
                SELECT DISTINCT * FROM (
                    SELECT doc_id,
                           unnest(regexp_extract_all(lower(text),
                                                     '[a-z]{4,}')) AS w
                    FROM documents)
            ),
            nd AS (SELECT COUNT(*) AS n_docs FROM documents),
            tdf AS (SELECT w, COUNT(*) AS df FROM tok GROUP BY w),
            p AS (
                SELECT a.w AS w1, b.w AS w2, COUNT(*) AS n
                FROM tok a JOIN tok b
                  ON a.doc_id = b.doc_id AND a.w < b.w
                GROUP BY a.w, b.w
                HAVING COUNT(*) >= 3
            )
            SELECT p.w1, p.w2, p.n,
                   CAST(p.n * nd.n_docs AS DOUBLE)
                       / CAST(d1.df * d2.df AS DOUBLE) AS lift
            FROM p CROSS JOIN nd
            JOIN tdf d1 ON d1.w = p.w1
            JOIN tdf d2 ON d2.w = p.w2
            ORDER BY n DESC, w1, w2
        """,
        "group_zscore": """
            WITH m AS (
                SELECT lang, COUNT(*) AS n,
                       CAST(SUM(n_chars) AS BIGINT) AS sx,
                       CAST(SUM(n_chars * n_chars) AS BIGINT) AS sxx
                FROM documents GROUP BY lang
            )
            SELECT doc_id, d.lang, n_chars,
                   (CAST(n_chars AS DOUBLE)
                        - CAST(sx AS DOUBLE) / CAST(n AS DOUBLE))
                       / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                                  / CAST(n * n AS DOUBLE)) AS z
            FROM documents d JOIN m USING (lang)
            ORDER BY doc_id
        """,
        "group_welch": """
            WITH m AS (
                SELECT lang, doc_id % 2 AS cohort, COUNT(*) AS n,
                       CAST(SUM(n_chars) AS BIGINT) AS sx,
                       CAST(SUM(n_chars * n_chars) AS BIGINT) AS sxx
                FROM documents GROUP BY lang, doc_id % 2
            ),
            w AS (
                SELECT lang,
                       CAST(COALESCE(MAX(CASE WHEN cohort = 0 THEN n END), 0) AS BIGINT) AS n0,
                       CAST(COALESCE(MAX(CASE WHEN cohort = 0 THEN sx END), 0) AS BIGINT) AS sx0,
                       CAST(COALESCE(MAX(CASE WHEN cohort = 0 THEN sxx END), 0) AS BIGINT) AS sxx0,
                       CAST(COALESCE(MAX(CASE WHEN cohort = 1 THEN n END), 0) AS BIGINT) AS n1,
                       CAST(COALESCE(MAX(CASE WHEN cohort = 1 THEN sx END), 0) AS BIGINT) AS sx1,
                       CAST(COALESCE(MAX(CASE WHEN cohort = 1 THEN sxx END), 0) AS BIGINT) AS sxx1
                FROM m GROUP BY lang
            )
            SELECT lang, n0, n1, sx0, sx1, sxx0, sxx1,
                   (CAST(sx1 AS DOUBLE) / CAST(n1 AS DOUBLE)
                        - CAST(sx0 AS DOUBLE) / CAST(n0 AS DOUBLE))
                       / sqrt(CAST(n1 * sxx1 - sx1 * sx1 AS DOUBLE)
                                  / CAST(n1 * (n1 - 1) AS DOUBLE)
                                  / CAST(n1 AS DOUBLE)
                              + CAST(n0 * sxx0 - sx0 * sx0 AS DOUBLE)
                                  / CAST(n0 * (n0 - 1) AS DOUBLE)
                                  / CAST(n0 AS DOUBLE)) AS t
            FROM w ORDER BY lang
        """,
        "char_pairs": """
            WITH pairs AS (
                SELECT substr(d.text, i.i, 1) AS c1,
                       substr(d.text, i.i + 1, 1) AS c2
                FROM documents d,
                     LATERAL (SELECT UNNEST(generate_series(
                         1, length(d.text) - 1)) AS i) i
            )
            SELECT c1, c2, CAST(COUNT(*) AS BIGINT) AS n
            FROM pairs GROUP BY c1, c2
            ORDER BY n DESC, c1, c2 LIMIT 50
        """,
        "group_corr": """
            WITH t AS (
                SELECT l_returnflag, l_linestatus,
                       CAST(l_quantity AS BIGINT) AS x,
                       CAST(FLOOR(l_discount * 100) AS BIGINT) AS y
                FROM lineitem
            ),
            m AS (
                SELECT l_returnflag, l_linestatus,
                       COUNT(*) AS n,
                       CAST(SUM(x) AS BIGINT) AS sx,
                       CAST(SUM(y) AS BIGINT) AS sy,
                       CAST(SUM(x * x) AS BIGINT) AS sxx,
                       CAST(SUM(y * y) AS BIGINT) AS syy,
                       CAST(SUM(x * y) AS BIGINT) AS sxy
                FROM t GROUP BY l_returnflag, l_linestatus
            )
            SELECT l_returnflag, l_linestatus, n, sx, sy, sxx, syy, sxy,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                       / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                              * CAST(n * syy - sy * sy AS DOUBLE)) AS corr
            FROM m ORDER BY l_returnflag, l_linestatus
        """,
        "group_regression": """
            WITH t AS (
                SELECT event_type,
                       CAST(EXTRACT(hour FROM ts) AS BIGINT) AS x,
                       CAST(FLOOR(value * 100) AS BIGINT) AS y
                FROM events
            ),
            m AS (
                SELECT event_type,
                       COUNT(*) AS n,
                       CAST(SUM(x) AS BIGINT) AS sx,
                       CAST(SUM(y) AS BIGINT) AS sy,
                       CAST(SUM(x * x) AS BIGINT) AS sxx,
                       CAST(SUM(y * y) AS BIGINT) AS syy,
                       CAST(SUM(x * y) AS BIGINT) AS sxy
                FROM t GROUP BY event_type
            )
            SELECT event_type, n, sx, sy, sxx, syy, sxy,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                       / CAST(n * sxx - sx * sx AS DOUBLE) AS slope,
                   (CAST(sy AS DOUBLE)
                        - (CAST(n * sxy - sx * sy AS DOUBLE)
                               / CAST(n * sxx - sx * sx AS DOUBLE))
                          * CAST(sx AS DOUBLE))
                       / CAST(n AS DOUBLE) AS intercept,
                   (CAST(n * sxy - sx * sy AS DOUBLE)
                        * CAST(n * sxy - sx * sy AS DOUBLE))
                       / (CAST(n * sxx - sx * sx AS DOUBLE)
                              * CAST(n * syy - sy * sy AS DOUBLE)) AS r2
            FROM m ORDER BY event_type
        """,
        "snapshot_diff": """
            WITH old AS (
                SELECT doc_id, lang, source, n_chars
                FROM documents WHERE doc_id % 17 <> 0
            ),
            new AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 13 = 0 THEN 'xx' ELSE lang END
                           AS lang,
                       source,
                       n_chars
                           + CASE WHEN doc_id % 7 = 0 THEN 5 ELSE 0 END
                           AS n_chars
                FROM documents WHERE doc_id % 11 <> 0
            )
            SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
                   CASE WHEN o.doc_id IS NULL THEN 'added'
                        WHEN n.doc_id IS NULL THEN 'removed'
                        ELSE 'changed' END AS change,
                   o.lang AS old_lang,
                   o.source AS old_source,
                   COALESCE(o.n_chars, -1) AS old_n_chars,
                   n.lang AS new_lang,
                   n.source AS new_source,
                   COALESCE(n.n_chars, -1) AS new_n_chars
            FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
            WHERE o.doc_id IS NULL OR n.doc_id IS NULL
               OR o.lang IS DISTINCT FROM n.lang
               OR o.source IS DISTINCT FROM n.source
               OR o.n_chars IS DISTINCT FROM n.n_chars
            ORDER BY doc_id
        """,
        "host_mad": """
            WITH d AS (
                SELECT 'h' || (doc_id % 97) || '.example' AS host, n_chars
                FROM documents
            ),
            m AS (
                SELECT host, quantile_disc(n_chars, 0.5) AS med
                FROM d GROUP BY host
            )
            SELECT d.host, m.med,
                   quantile_disc(abs(d.n_chars - m.med), 0.5) AS mad
            FROM d JOIN m ON d.host = m.host
            GROUP BY d.host, m.med
            ORDER BY d.host
        """,
        "price_wmedian": """
            WITH h AS (
                SELECT l_returnflag || '|' || l_linestatus AS grp,
                       CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS v,
                       CAST(l_quantity AS BIGINT) AS w
                FROM lineitem
            ),
            c AS (SELECT grp, v, CAST(SUM(w) AS BIGINT) AS wv FROM h GROUP BY grp, v),
            cum AS (
                SELECT grp, v,
                       CAST(SUM(wv) OVER (PARTITION BY grp ORDER BY v) AS BIGINT) AS cw,
                       CAST(SUM(wv) OVER (PARTITION BY grp) AS BIGINT) AS tot
                FROM c
            )
            SELECT grp, CAST(MIN(v) AS BIGINT) AS wmed, CAST(MIN(tot) AS BIGINT) AS total_w
            FROM cum WHERE 2 * cw >= tot
            GROUP BY grp
            ORDER BY grp
        """,
        "group_covariance": """
            WITH t AS (
                SELECT l_returnflag, l_linestatus,
                       CAST(l_quantity AS BIGINT) AS x,
                       CAST(FLOOR(l_discount * 100) AS BIGINT) AS y
                FROM lineitem
            ),
            m AS (
                SELECT l_returnflag, l_linestatus,
                       COUNT(*) AS n,
                       CAST(SUM(x) AS BIGINT) AS sx,
                       CAST(SUM(y) AS BIGINT) AS sy,
                       CAST(SUM(x * y) AS BIGINT) AS sxy
                FROM t GROUP BY l_returnflag, l_linestatus
            )
            SELECT l_returnflag, l_linestatus, n, sx, sy, sxy,
                   CASE WHEN n > 1 THEN
                       CAST(n * sxy - sx * sy AS DOUBLE)
                       / CAST(n * (n - 1) AS DOUBLE)
                   END AS cov_samp,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                       / CAST(n * n AS DOUBLE) AS cov_pop
            FROM m ORDER BY l_returnflag, l_linestatus
        """,
        "fuzzy_clusters": """
            WITH RECURSIVE pairs AS (
                SELECT a.c_custkey AS src, b.c_custkey AS dst
                FROM customer a JOIN customer b
                  ON a.c_custkey < b.c_custkey
                 AND abs(length(a.c_name) - length(b.c_name)) <= 1
                 AND levenshtein(a.c_name, b.c_name) <= 1
            ),
            sym AS (
                SELECT src, dst FROM pairs
                UNION
                SELECT dst AS src, src AS dst FROM pairs
            ),
            reach(id, r) AS (
                SELECT c_custkey, c_custkey FROM customer
                UNION
                SELECT reach.id, sym.dst FROM reach JOIN sym ON reach.r = sym.src
            )
            SELECT id AS c_custkey,
                   MIN(r) AS cluster,
                   CAST(id <> MIN(r) AS BIGINT) AS is_dup
            FROM reach GROUP BY id ORDER BY c_custkey
        """,
        "event_transitions": """
            WITH pairs AS (
                SELECT event_type AS src,
                       LEAD(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS dst
                FROM events
            ),
            m AS (
                SELECT src, dst, COUNT(*) AS n
                FROM pairs WHERE dst IS NOT NULL
                GROUP BY src, dst
            )
            SELECT src, dst, n,
                   CAST(n AS DOUBLE) / CAST(
                       SUM(n) OVER (PARTITION BY src) AS DOUBLE) AS p
            FROM m ORDER BY src, dst
        """,
        "resample_ffill": """
            WITH obs AS (
                SELECT user_id, bucket, value FROM (
                    SELECT user_id,
                           epoch_us(ts) // 3600000000 AS bucket,
                           value,
                           ROW_NUMBER() OVER (
                               PARTITION BY user_id, epoch_us(ts) // 3600000000
                               ORDER BY ts DESC, event_id DESC
                           ) AS rn
                    FROM events
                ) WHERE rn = 1
            ),
            spans AS (
                SELECT user_id, MIN(bucket) AS b0, MAX(bucket) AS b1
                FROM obs GROUP BY user_id
            ),
            grid AS (
                SELECT user_id, UNNEST(generate_series(b0, b1)) AS bucket
                FROM spans
            ),
            j AS (
                SELECT g.user_id, g.bucket, o.value AS v,
                       CASE WHEN o.user_id IS NULL THEN 0 ELSE 1 END AS ob
                FROM grid g
                LEFT JOIN obs o ON o.user_id = g.user_id AND o.bucket = g.bucket
            )
            SELECT user_id, CAST(bucket AS BIGINT) AS bucket,
                   LAST_VALUE(v IGNORE NULLS) OVER (
                       PARTITION BY user_id ORDER BY bucket
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
                   ) AS value,
                   CAST(ob AS BIGINT) AS observed
            FROM j
        """,
        "resample_interp": """
            WITH obs AS (
                SELECT user_id, bucket, value FROM (
                    SELECT user_id,
                           epoch_us(ts) // 3600000000 AS bucket,
                           value,
                           ROW_NUMBER() OVER (
                               PARTITION BY user_id, epoch_us(ts) // 3600000000
                               ORDER BY ts DESC, event_id DESC
                           ) AS rn
                    FROM events
                ) WHERE rn = 1
            ),
            nbr AS (
                SELECT user_id, bucket, value,
                       LEAD(bucket) OVER (
                           PARTITION BY user_id ORDER BY bucket
                       ) AS nb,
                       LEAD(value) OVER (
                           PARTITION BY user_id ORDER BY bucket
                       ) AS nv
                FROM obs
            ),
            grid AS (
                SELECT user_id, bucket AS b0, value AS v0, nb, nv,
                       UNNEST(generate_series(bucket,
                                              COALESCE(nb - 1, bucket))) AS g
                FROM nbr
            )
            SELECT user_id, CAST(g AS BIGINT) AS bucket,
                   CASE WHEN g = b0 THEN v0
                        ELSE v0 + ((nv - v0) * CAST(g - b0 AS DOUBLE))
                                 / CAST(nb - b0 AS DOUBLE)
                   END AS value,
                   CAST(CASE WHEN g = b0 THEN 1 ELSE 0 END AS BIGINT)
                       AS observed
            FROM grid
        """,
    }
