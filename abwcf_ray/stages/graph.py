"""Link-graph analytics over crawl output — degrees and PageRank.

A web crawler's natural by-product is the hyperlink graph (every parsed
page emits (src_url, dst_url) pairs — the reference's HtmlParser output,
HtmlParser.scala:30-48, is exactly this stream before scope filtering).
This module analyses that graph at corpus scale: per-node in/out degree
and PageRank centrality, the canonical crawl-frontier prioritisation
signal (Page et al. 1999; the reference's priority hook,
reference.conf:96-104, is where such a score would plug in via
``CrawlConfig.priority_fn``).

Scale shape
-----------

**Degrees** are one map-side combiner pass: each batch emits partial
``(node, out_n, in_n)`` counts, a native ``groupby(node).sum`` settles
them — the exchange is O(distinct nodes), never O(edges).

**PageRank** is the classic distributed power iteration with one
all-to-all per step, in two regimes (same dual-regime convention as
``stages/transform.py``'s robots filter and ``stages/paragraphs.py``):

- *broadcast regime* (``n_nodes <= broadcast_max_nodes``, default 2^24
  nodes = 128 MB of int64 ranks): the rank vector lives as ONE dense
  numpy array in the object store (``ray.put`` once per iteration, read
  zero-copy by every task); edges stream through ``map_batches``, each
  batch segment-sums its contributions sparsely, and a native
  ``groupby(dst).sum`` settles the per-node in-sums (exchange =
  O(distinct dst nodes) thanks to the per-batch combiner). The driver
  holds only the O(n_nodes) rank vector, never edges.
- *distributed regime* (above the bound): ranks are rows, not an array.
  Edges are keyed ONCE by hash(src) with out-degree attached; each
  iteration is two keyed exchanges — attach ranks to edges inside
  hash(src) partitions (the ``cc_labels_distributed`` message-passing
  shape, ``stages/dedup.py``), then ``groupby(dst-partition)`` sums
  contributions. Nothing graph-sized ever reaches the driver.

Exactness
---------

Ranks are **fixed-point int64** (``SCALE = 10^9``): contribution =
``rank // outdeg``, update = ``base + damping_num * insum //
damping_den`` — pure integer arithmetic, so the result is bit-identical
across regimes, block layouts, and parallelism levels, AND exactly
SQL-expressible (the ``pagerank`` DuckDB oracle mirrors the iteration
with chained CTEs; a float power iteration would hash-drift on
summation order). Floor-rounding leaks ≤ 1 ulp of mass per node per
step on both sides identically. Dangling nodes (out-degree 0) leak
their mass — the simplest of the standard dangling conventions, chosen
because it keeps the update local; both sides implement the same one.

Overflow: ``insum <= n_nodes * SCALE`` (total mass) ``= 2^24 * 10^9 ≈
1.7e16``; times ``damping_num`` (85) ≈ 1.4e18 < 2^63. The SQL side sums
in HUGEINT and casts back.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from abwcf_ray.stages.dedup import _int_pkey

SCALE = 10**9
# dense int64 rank vector bound for the broadcast regime: 2^24 nodes = 128 MB
PAGERANK_BROADCAST_MAX_NODES = 1 << 24
GRAPH_MERGE_PARTITIONS = 64


def _edge_arrays(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    src = batch.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
    dst = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    return src, dst


def _sparse_sum(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 segment sum of vals by key (sort + reduceat — C kernels,
    no float accumulation)."""
    if len(keys) == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    v = vals[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    return k[starts], np.add.reduceat(v, starts)


def degrees(
    edges_ds,
    *,
    include_zero_nodes_from=None,
    merge_partitions: int = GRAPH_MERGE_PARTITIONS,
):
    """Per-node (out_deg, in_deg) from an edge Dataset with int64 columns
    (src, dst). One combiner pass, then a keyed-partition merge: the
    exchange sorts by a ``merge_partitions``-valued hash key and each
    partition segment-sums its nodes vectorized — 10× faster than the
    native ``groupby(node).sum`` here because Ray Data's sort-based
    aggregate pays O(rows log rows) comparisons on the FULL 10^k-distinct
    node key, where this pays it on a 64-valued key (measured 23 s → 2 s
    at 1.6M partial rows; the same reason ``stages/schedule.py`` and
    ``stages/dedup.py`` shard their merges by a small hash key).

    ``include_zero_nodes_from``: optional Dataset with a ``node`` column —
    nodes that must appear in the output even with degree 0 on both sides
    (the crawl analog: pages fetched but never linked to).
    """
    P = merge_partitions

    def partial(batch: pa.Table) -> pa.Table:
        src, dst = _edge_arrays(batch)
        ones = np.ones(len(src), np.int64)
        on, oc = _sparse_sum(src, ones)
        inn, ic = _sparse_sum(dst, ones)
        node = np.concatenate([on, inn])
        return pa.table(
            {
                "pkey": pa.array(_int_pkey(node, P), pa.int64()),
                "node": pa.array(node, pa.int64()),
                "out_n": pa.array(
                    np.concatenate([oc, np.zeros(len(inn), np.int64)]), pa.int64()
                ),
                "in_n": pa.array(
                    np.concatenate([np.zeros(len(on), np.int64), ic]), pa.int64()
                ),
            }
        )

    parts = edges_ds.map_batches(partial, batch_format="pyarrow")
    if include_zero_nodes_from is not None:
        def zeros(b: pa.Table) -> pa.Table:
            node = b.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
            z = np.zeros(len(node), np.int64)
            return pa.table(
                {
                    "pkey": pa.array(_int_pkey(node, P), pa.int64()),
                    "node": pa.array(node, pa.int64()),
                    "out_n": pa.array(z, pa.int64()),
                    "in_n": pa.array(z, pa.int64()),
                }
            )

        parts = parts.union(
            include_zero_nodes_from.map_batches(zeros, batch_format="pyarrow")
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        node = g["node"].to_numpy()
        order = np.argsort(node, kind="stable")
        k = node[order]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        return pd.DataFrame(
            {
                "node": k[starts],
                "out_deg": np.add.reduceat(g["out_n"].to_numpy()[order], starts),
                "in_deg": np.add.reduceat(g["in_n"].to_numpy()[order], starts),
            }
        )

    return parts.groupby("pkey").map_groups(merge, batch_format="pandas")


def _pagerank_broadcast(
    edges_m,
    n_nodes: int,
    iters: int,
    d_num: int,
    d_den: int,
    partitions: int = GRAPH_MERGE_PARTITIONS,
):
    """Broadcast regime: dense int64 rank/outdeg vectors in the object
    store, edges stream, per-node in-sums settle in a keyed-partition
    merge (small hash key — see :func:`degrees` for why not the native
    ``groupby(node).sum``) whose driver-bound output is ≤ n_nodes rows."""
    import ray

    P = partitions

    def merge_sums(g: pd.DataFrame) -> pd.DataFrame:
        k, v = _sparse_sum(g["node"].to_numpy(), g["s"].to_numpy())
        return pd.DataFrame({"node": k, "s": v})

    # out-degree vector (one pass over edges, sparse partials -> keyed
    # merge -> driver assembles the bounded dense vector)
    def odeg_partial(batch: pa.Table) -> pa.Table:
        src, _ = _edge_arrays(batch)
        k, v = _sparse_sum(src, np.ones(len(src), np.int64))
        return pa.table(
            {
                "pkey": pa.array(_int_pkey(k, P), pa.int64()),
                "node": pa.array(k, pa.int64()),
                "s": pa.array(v, pa.int64()),
            }
        )

    outdeg = np.zeros(n_nodes, np.int64)
    od = (
        edges_m.map_batches(odeg_partial, batch_format="pyarrow")
        .groupby("pkey")
        .map_groups(merge_sums, batch_format="pandas")
    )
    for b in od.iter_batches(batch_format="pyarrow"):
        outdeg[b.column("node").to_numpy(zero_copy_only=False)] = b.column(
            "s"
        ).to_numpy(zero_copy_only=False)

    base = ((d_den - d_num) * SCALE) // d_den
    ranks = np.full(n_nodes, SCALE, np.int64)
    safe_odeg = np.maximum(outdeg, 1)

    for _ in range(iters):
        contrib = ranks // safe_odeg  # outdeg==0 rows are never read (no out-edges)
        ref = ray.put(contrib)

        def insum_partial(batch: pa.Table, *, _ref=ref) -> pa.Table:
            c = ray.get(_ref)  # zero-copy shared-memory read per task
            src, dst = _edge_arrays(batch)
            k, v = _sparse_sum(dst, c[src])
            return pa.table(
                {
                    "pkey": pa.array(_int_pkey(k, P), pa.int64()),
                    "node": pa.array(k, pa.int64()),
                    "s": pa.array(v, pa.int64()),
                }
            )

        new = np.full(n_nodes, base, np.int64)
        agg = (
            edges_m.map_batches(insum_partial, batch_format="pyarrow")
            .groupby("pkey")
            .map_groups(merge_sums, batch_format="pandas")
        )
        for b in agg.iter_batches(batch_format="pyarrow"):
            nd = b.column("node").to_numpy(zero_copy_only=False)
            s = b.column("s").to_numpy(zero_copy_only=False)
            new[nd] = base + (d_num * s) // d_den
        ranks = new

    return ranks


def _pagerank_distributed(
    edges_m, nodes_ds, iters: int, d_num: int, d_den: int, partitions: int
):
    """Distributed regime: ranks are rows; two keyed exchanges per
    iteration, nothing graph-sized on the driver (the
    ``cc_labels_distributed`` message-passing shape)."""
    P = partitions
    base = ((d_den - d_num) * SCALE) // d_den

    # one-time: attach out-degree to every edge inside hash(src) partitions
    def edge_rows(batch: pa.Table) -> pa.Table:
        src, dst = _edge_arrays(batch)
        return pa.table(
            {
                "skey": pa.array(_int_pkey(src, P), pa.int64()),
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    def attach_odeg(g: pd.DataFrame) -> pd.DataFrame:
        src = g["src"].to_numpy()
        k, v = _sparse_sum(src, np.ones(len(src), np.int64))
        od = pd.Series(v, index=k)
        return pd.DataFrame(
            {
                "skey": g["skey"].to_numpy(),
                "src": src,
                "dst": g["dst"].to_numpy(),
                "odeg": od.reindex(src).to_numpy().astype(np.int64),
            }
        )

    keyed_edges = (
        edges_m.map_batches(edge_rows, batch_format="pyarrow")
        .groupby("skey")
        .map_groups(attach_odeg, batch_format="pandas")
        # normalize to arrow blocks so the per-iteration union with the
        # arrow rank messages is homogeneous
        .map_batches(lambda t: t, batch_format="pyarrow")
        .materialize()
    )

    def init_ranks(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "rank": pa.array(np.full(len(node), SCALE, np.int64), pa.int64()),
            }
        )

    nodes_m = nodes_ds.materialize()
    ranks = nodes_m.map_batches(init_ranks, batch_format="pyarrow").materialize()

    # rank rows and edge rows meet in hash(src)==hash(node) partitions;
    # sentinel dst = -1 marks a rank row (node ids are non-negative)
    def rank_msgs(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False)
        rank = batch.column("rank").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "skey": pa.array(_int_pkey(node, P), pa.int64()),
                "src": pa.array(node, pa.int64()),
                "dst": pa.array(np.full(len(node), -1, np.int64), pa.int64()),
                "odeg": pa.array(rank, pa.int64()),  # carries rank for rank rows
            }
        )

    def emit_contribs(g: pd.DataFrame) -> pd.DataFrame:
        is_rank = g["dst"].to_numpy() == -1
        rk = g[is_rank]
        ed = g[~is_rank]
        lookup = pd.Series(rk["odeg"].to_numpy(), index=rk["src"].to_numpy())
        r = lookup.reindex(ed["src"].to_numpy()).to_numpy()
        od = ed["odeg"].to_numpy()
        contrib = (r // od).astype(np.int64)
        dst = ed["dst"].to_numpy()
        # per-partition combiner before the dst exchange
        k, v = _sparse_sum(dst, contrib)
        return pd.DataFrame(
            {"dkey": _int_pkey(k, P), "node": k, "s": v}
        )

    def zero_rows(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "dkey": pa.array(_int_pkey(node, P), pa.int64()),
                "node": pa.array(node, pa.int64()),
                "s": pa.array(np.zeros(len(node), np.int64), pa.int64()),
            }
        )

    def reduce_ranks(g: pd.DataFrame) -> pd.DataFrame:
        k, v = _sparse_sum(g["node"].to_numpy(), g["s"].to_numpy())
        return pd.DataFrame({"node": k, "rank": base + (d_num * v) // d_den})

    for _ in range(iters):
        msgs = keyed_edges.union(
            ranks.map_batches(rank_msgs, batch_format="pyarrow")
        )
        contribs = (
            msgs.groupby("skey")
            .map_groups(emit_contribs, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow")
        )
        # zero rows make every node (incl. in-degree-0) produce a rank row
        all_in = contribs.union(
            nodes_m.map_batches(zero_rows, batch_format="pyarrow")
        )
        ranks = (
            all_in.groupby("dkey")
            .map_groups(reduce_ranks, batch_format="pandas")
            .materialize()
        )
    return ranks


def pagerank(
    edges_ds,
    *,
    n_nodes: int | None = None,
    nodes_ds=None,
    iters: int = 5,
    damping_num: int = 85,
    damping_den: int = 100,
    broadcast_max_nodes: int = PAGERANK_BROADCAST_MAX_NODES,
    merge_partitions: int = GRAPH_MERGE_PARTITIONS,
):
    """Fixed-point integer PageRank over an edge Dataset (src, dst int64).

    Node ids must be dense ``0..n_nodes-1`` in the broadcast regime (the
    rank vector is a dense array); the distributed regime takes any int64
    ids via ``nodes_ds`` (a Dataset with one ``node`` column covering every
    node that should receive a rank). Returns a Dataset with columns
    ``(node, rank_scaled)`` where ``rank_scaled`` is the rank in units of
    ``1/SCALE`` (initial mass = SCALE per node).

    Deterministic across regimes, layouts, and parallelism: all arithmetic
    is int64 (see module docstring).
    """
    import ray.data as rd

    edges_m = edges_ds.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("src").cast(pa.int64()),
                "dst": b.column("dst").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    if n_nodes is not None and n_nodes <= broadcast_max_nodes:
        ranks = _pagerank_broadcast(
            edges_m, n_nodes, iters, damping_num, damping_den
        )
        nodes = np.arange(n_nodes, dtype=np.int64)
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "rank_scaled": pa.array(ranks, pa.int64()),
                }
            )
        )

    if nodes_ds is None:
        if n_nodes is None:
            raise ValueError("pagerank needs n_nodes (dense ids) or nodes_ds")
        nodes_ds = rd.range(n_nodes).map_batches(
            lambda b: pa.table({"node": b.column("id").cast(pa.int64())}),
            batch_format="pyarrow",
        )
    out = _pagerank_distributed(
        edges_m, nodes_ds, iters, damping_num, damping_den, merge_partitions
    )
    return out.map_batches(
        lambda b: pa.table(
            {"node": b.column("node"), "rank_scaled": b.column("rank")}
        ),
        batch_format="pyarrow",
    )


# --------------------------------------------------------------------------
# crawl integration: host-level PageRank from wave output, priority hook
# --------------------------------------------------------------------------
# host = scheme://authority prefix — the frontier's host definition
# (stages/transform.py _HOST_RE; HostQueue keys in the reference)
_HOST_PATTERN = r"^([A-Za-z0-9+.\-]+://[^/]+)"


def _hosts_of(str_arr: pa.ChunkedArray | pa.Array):
    import polars as pl

    if isinstance(str_arr, pa.ChunkedArray):
        str_arr = str_arr.combine_chunks()
    return pl.from_arrow(str_arr).str.extract(_HOST_PATTERN, 1)


def host_pagerank(
    processed_ds,
    *,
    iters: int = 5,
    max_hosts_driver: int = 5_000_000,
    **pagerank_kwargs,
):
    """Host-level PageRank from crawl wave output — the classic crawl
    prioritisation signal (Page et al. 1999), computed from the engine's
    own ``processed`` checkpoints (``url`` + ``links: list<string>``,
    written by every wave's fetch/parse tee) and fed back into the next
    crawl via :func:`make_host_rank_priority` (the reference's user
    priority hook, UserCode.scala:34-35 / CrawlConfig.priority_fn).

    Shape: (src_host, dst_host) string pairs explode map-side (one regex
    kernel per batch); distinct hosts settle in a keyed merge and densify
    to 0..n-1 ids on the driver under ``max_hosts_driver`` (the crawl's
    own hosts table is driver-resident too); the sorted host array
    broadcasts once
    and edges id-map via searchsorted into :func:`pagerank`.

    Returns a pandas DataFrame (host, rank_scaled) sorted by
    (rank_scaled desc, host asc)."""
    import ray

    import pyarrow.compute as pc

    from abwcf_ray.functions.hashing import hash64
    from abwcf_ray.stages.dedup import keyed_hash_agg

    def explode_pairs(b: pa.Table) -> pa.Table:
        links = b.column("links")
        if isinstance(links, pa.ChunkedArray):
            links = links.combine_chunks()
        flat = pc.list_flatten(links)
        parent = pc.list_parent_indices(links).to_numpy(zero_copy_only=False)
        src_host = _hosts_of(b.column("url")).to_arrow().cast(pa.string())
        dst_host = _hosts_of(flat).to_arrow().cast(pa.string())
        src = src_host.take(pa.array(parent, pa.int64()))
        ok = pc.and_(pc.is_valid(src), pc.is_valid(dst_host))
        return pa.table(
            {
                "src_host": src.filter(ok),
                "dst_host": dst_host.filter(ok),
            }
        )

    pairs = processed_ds.map_batches(explode_pairs, batch_format="pyarrow")
    pairs_m = pairs.materialize()

    def host_rows(b: pa.Table) -> pa.Table:
        hs = (
            pd.concat([b.column("src_host").to_pandas(), b.column("dst_host").to_pandas()])
            .drop_duplicates()
        )
        return pa.table({"host": pa.array(hs.tolist(), pa.string())})

    distinct = keyed_hash_agg(
        pairs_m.map_batches(host_rows, batch_format="pyarrow"),
        lambda b: hash64(b.column("host")),
        lambda g: g[["host"]].drop_duplicates(),
    )
    hosts = distinct.to_pandas()["host"]
    if len(hosts) > max_hosts_driver:
        raise ValueError(
            f"{len(hosts)} hosts exceed max_hosts_driver={max_hosts_driver}; "
            "raise the bound (hosts are 'scheme://authority' strings — the "
            "crawl's own hosts table is driver-resident at the same bound)"
        )
    # node id = position in the hash-sorted host array; id-mapping is then
    # one vectorized uint64 searchsorted per batch (a string searchsorted
    # would compare per element in Python), same 64-bit-collision
    # soundness contract as the seen set
    hh = hash64(hosts.tolist())
    order = np.argsort(hh, kind="stable")
    host_arr = hosts.to_numpy(dtype=object)[order]
    sorted_hh = hh[order]
    hh_ref = ray.put(sorted_hh)

    def to_ids(b: pa.Table) -> pa.Table:
        sh = ray.get(hh_ref)
        src = np.searchsorted(sh, hash64(b.column("src_host")))
        dst = np.searchsorted(sh, hash64(b.column("dst_host")))
        return pa.table(
            {
                "src": pa.array(src.astype(np.int64), pa.int64()),
                "dst": pa.array(dst.astype(np.int64), pa.int64()),
            }
        )

    edges = pairs_m.map_batches(to_ids, batch_format="pyarrow")
    ranks = (
        pagerank(edges, n_nodes=len(host_arr), iters=iters, **pagerank_kwargs)
        .to_pandas()
        .sort_values("node")
    )
    out = pd.DataFrame(
        {"host": host_arr, "rank_scaled": ranks["rank_scaled"].to_numpy()}
    )
    return out.sort_values(
        ["rank_scaled", "host"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)


def make_host_rank_priority(host_rank_df, *, default_rank: int = 0):
    """CrawlConfig.priority_fn hook: priority = the url's host PageRank
    (``rank_scaled`` from :func:`host_pagerank`); unknown hosts get
    ``default_rank``. Equal-rank urls fall to the scheduler's canonical
    (priority desc, url asc) tiebreak, so the hook stays deterministic.

    The lookup broadcasts as a (sorted host-hash uint64 array, rank int64
    array) pair — the columnar hosts-payload shape of
    ``stages/transform.py`` — probed with one hash64 + searchsorted per
    batch."""
    import ray

    from abwcf_ray.functions.hashing import hash64

    hh = hash64(host_rank_df["host"].tolist())
    order = np.argsort(hh, kind="stable")
    payload = (hh[order], host_rank_df["rank_scaled"].to_numpy(np.int64)[order])
    ref = ray.put(payload)

    def priority_fn(batch: pa.Table) -> np.ndarray:
        hs, ranks = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        bh = _hosts_of(batch.column("url")).to_arrow().cast(pa.string())
        h = hash64(bh)
        if not len(hs):
            return np.full(batch.num_rows, default_rank, np.int64)
        pos = np.minimum(np.searchsorted(hs, h), len(hs) - 1)
        return np.where(hs[pos] == h, ranks[pos], np.int64(default_rank))

    return priority_fn


def _orient_by_degree(edges, partitions: int):
    """Shared prefix of the triangle family: canonical distinct
    undirected edges, undirected degrees, and the (deg, id)-oriented
    edge Dataset (u -> v with (deg_u, u) < (deg_v, v)). Returns
    (und, deg, oriented) — see :func:`triangle_count` steps 1-2 for the
    exchange budget and the O(sqrt(m)) out-degree cap the orientation
    buys."""
    import ray.data  # noqa: F401  (Dataset ops used via the inputs)

    from abwcf_ray.stages.dedup import keyed_hash_agg
    from abwcf_ray.stages.join import equi_join

    GOLD = np.uint64(0x9E3779B97F4A7C15)

    def canon(t: pa.Table) -> pa.Table:
        s, d = _edge_arrays(t)
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        keep = lo != hi
        g = pd.DataFrame({"lo": lo[keep], "hi": hi[keep]}).drop_duplicates()
        return pa.Table.from_pandas(g, preserve_index=False)

    def pair_key(b: pa.Table) -> np.ndarray:
        lo = b.column("lo").to_numpy(zero_copy_only=False).view(np.uint64)
        hi = b.column("hi").to_numpy(zero_copy_only=False).view(np.uint64)
        return lo * GOLD ^ hi

    und = keyed_hash_agg(
        edges.map_batches(canon, batch_format="pyarrow"),
        pair_key,
        lambda g: g.drop_duplicates(),
        partitions=partitions,
    )

    def deg_partial(t: pa.Table) -> pa.Table:
        lo = t.column("lo").to_numpy(zero_copy_only=False)
        hi = t.column("hi").to_numpy(zero_copy_only=False)
        n, c = _sparse_sum(
            np.concatenate([lo, hi]),
            np.ones(2 * t.num_rows, np.int64),
        )
        return pa.table({"node": pa.array(n, pa.int64()), "deg": pa.array(c)})

    deg = keyed_hash_agg(
        und.map_batches(deg_partial, batch_format="pyarrow"),
        lambda b: b.column("node").to_numpy(zero_copy_only=False).view(np.uint64)
        * GOLD,
        lambda g: g.groupby("node", as_index=False, sort=False).agg(
            deg=("deg", "sum")
        ),
        partitions=partitions,
    )

    def ren(c_from: str, c_to: str):
        def f(t: pa.Table) -> pa.Table:
            return t.rename_columns(
                [c_to if c == "node" else (c_from if c == "deg" else c) for c in t.column_names]
            )

        return f

    j = equi_join(
        und, deg.map_batches(ren("deg_lo", "lo"), batch_format="pyarrow"), on="lo"
    )
    j = equi_join(
        j, deg.map_batches(ren("deg_hi", "hi"), batch_format="pyarrow"), on="hi"
    )

    def orient(t: pa.Table) -> pa.Table:
        lo = t.column("lo").to_numpy(zero_copy_only=False).astype(np.int64)
        hi = t.column("hi").to_numpy(zero_copy_only=False).astype(np.int64)
        dl = t.column("deg_lo").to_numpy(zero_copy_only=False).astype(np.int64)
        dh = t.column("deg_hi").to_numpy(zero_copy_only=False).astype(np.int64)
        lo_first = (dl < dh) | ((dl == dh) & (lo < hi))
        u = np.where(lo_first, lo, hi)
        v = np.where(lo_first, hi, lo)
        dv = np.where(lo_first, dh, dl)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "deg_v": pa.array(dv, pa.int64()),
            }
        )

    return und, deg, j.map_batches(orient, batch_format="pyarrow")


def triangle_count(
    edges,
    *,
    partitions: int = 64,
) -> int:
    """Exact triangle count of the UNDIRECTED simple graph induced by an
    (src, dst) edge Dataset (self-loops dropped, duplicate/reciprocal
    edges collapsed).

    The classic degree-oriented wedge-check (node-iterator++ / the
    MapReduce shape of Suri & Vassilvitskii 2011), expressed as three
    keyed exchanges — never an all-pairs anything:

    1. *canonicalize*: per-batch (lo, hi) dedupe (combiner), then a
       hash(lo, hi)-keyed exchange settles GLOBAL distinct edges (each
       pair lives in exactly one partition — the pair-hash idiom from
       stages/distinct.py).
    2. *orient by degree*: undirected degrees via one keyed merge
       (exchange O(nodes)); each edge is oriented low-(deg, id) ->
       high-(deg, id), attached with two equi_joins (broadcast regime
       under the join's row bound, bucketed big-big above — stages/
       join.py picks per input). Degree orientation caps every node's
       OUT-degree at O(sqrt(m)), so the wedge explode below is bounded
       even on power-law graphs where an id-orientation would explode
       at the hubs.
    3. *wedges + closing probe*: a hash(u)-keyed exchange lands each
       node's out-neighborhood whole; per partition, one vectorized
       combination explode emits each out-pair (a, b) in orientation
       order, pre-combined to (a, b, n_wedges) counts (the combiner —
       repeated wedges collapse before the wire). A triangle's closing
       edge {a, b} is itself oriented a -> b, so ONE final hash(a, b)
       co-partition of wedge counts with oriented edges scores
       sum(n_wedges where the edge exists). Each triangle is counted
       exactly once, at its unique minimum-(deg, id) apex.

    Exchange budget: edges cross 4 exchanges (distinct, 2 joins in the
    bucketed regime, wedge/probe); wedge volume is sum-over-u C(d+(u),2)
    <= O(m^1.5) worst case, combined per partition before the exchange.
    Returns the exact count as a python int (the only driver-side value).

    Steps 1-2 live in the shared :func:`_orient_by_degree`.
    """
    from abwcf_ray.stages.dedup import keyed_hash_agg

    GOLD = np.uint64(0x9E3779B97F4A7C15)

    _, _, oriented = _orient_by_degree(edges, partitions)

    # -- 3. wedge explode (per-apex combination pairs) + closing probe --
    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "a": pd.Series([], dtype=np.int64),
                    "b": pd.Series([], dtype=np.int64),
                    "n_wedges": pd.Series([], dtype=np.int64),
                }
            )
        # orientation order within each apex: (deg_v, v) ascending, so a
        # pair (a, b) comes out with (deg_a, a) < (deg_b, b) — the exact
        # orientation of its closing edge if that edge exists
        g = g.sort_values(["u", "deg_v", "v"], kind="mergesort")
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        n = len(g)
        newu = np.empty(n, bool)
        newu[0] = True
        np.not_equal(u[1:], u[:-1], out=newu[1:])
        idx = np.arange(n, dtype=np.int64)
        start = np.maximum.accumulate(np.where(newu, idx, 0))
        gid = np.cumsum(newu) - 1
        size = np.bincount(gid)[gid]
        reps = size - (idx - start) - 1  # pairs where this row is 'a'
        total = int(reps.sum())
        if total == 0:
            return pd.DataFrame(
                {
                    "a": pd.Series([], dtype=np.int64),
                    "b": pd.Series([], dtype=np.int64),
                    "n_wedges": pd.Series([], dtype=np.int64),
                }
            )
        first = np.repeat(idx, reps)
        c = np.concatenate([[0], np.cumsum(reps)])
        k = np.arange(total, dtype=np.int64) - np.repeat(c[:-1], reps)
        second = first + 1 + k
        w = pd.DataFrame({"a": v[first], "b": v[second]})
        return w.groupby(["a", "b"], as_index=False, sort=False).agg(
            n_wedges=("a", "size")
        )

    def u_key(b: pa.Table) -> np.ndarray:
        return b.column("u").to_numpy(zero_copy_only=False).view(np.uint64) * GOLD

    wedge_counts = keyed_hash_agg(oriented, u_key, wedges, partitions=partitions)

    def edge_flag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": t.column("u"),
                "b": t.column("v"),
                "n_wedges": pa.array(np.zeros(t.num_rows, np.int64)),
                "is_edge": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )

    def wedge_flag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "is_edge", pa.array(np.zeros(t.num_rows, np.int64))
        )

    both = wedge_counts.map_batches(wedge_flag, batch_format="pyarrow").union(
        oriented.map_batches(edge_flag, batch_format="pyarrow")
    )

    def ab_key(b: pa.Table) -> np.ndarray:
        a = b.column("a").to_numpy(zero_copy_only=False).view(np.uint64)
        bb = b.column("b").to_numpy(zero_copy_only=False).view(np.uint64)
        return a * GOLD ^ bb

    def score(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["a", "b"], as_index=False, sort=False).agg(
            n_wedges=("n_wedges", "sum"), is_edge=("is_edge", "max")
        )
        tri = int(m.loc[m["is_edge"] == 1, "n_wedges"].sum())
        return pd.DataFrame({"tri": np.array([tri], np.int64)})

    parts = keyed_hash_agg(both, ab_key, score, partitions=partitions).to_pandas()
    return int(parts["tri"].sum())


# --------------------------------------------------------------------------
# multi-source BFS hop distance
# --------------------------------------------------------------------------
def _sparse_min(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 segment MIN of vals by key (sort + minimum.reduceat —
    the min twin of :func:`_sparse_sum`)."""
    if len(keys) == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    v = vals[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    return k[starts], np.minimum.reduceat(v, starts)


def _bfs_broadcast(edges_m, n_nodes: int, seed_idx: np.ndarray, max_hops: int):
    """Broadcast regime: the distance vector is ONE dense int64 array in
    the object store per round; edges stream, each batch emits only the
    IMPROVING candidates (dist[src]+1 < dist[dst]) pre-combined by a
    sparse per-batch min, and the keyed-partition merge settles per-node
    mins whose driver-bound output is <= n_frontier rows. Rounds where no
    edge improves end the walk early — the fixed-round result is
    identical because min-propagation is monotone."""
    import ray

    from abwcf_ray.stages.dedup import _int_pkey

    P = GRAPH_MERGE_PARTITIONS
    S = max_hops + 1  # sentinel: unreached within max_hops
    dist = np.full(n_nodes, S, np.int64)
    dist[seed_idx] = 0

    def merge_mins(g: pd.DataFrame) -> pd.DataFrame:
        k, v = _sparse_min(g["node"].to_numpy(), g["h"].to_numpy())
        return pd.DataFrame({"node": k, "h": v})

    for _ in range(max_hops):
        ref = ray.put(dist)

        def relax_partial(batch: pa.Table, *, _ref=ref) -> pa.Table:
            d = ray.get(_ref)  # zero-copy shared-memory read per task
            src, dst = _edge_arrays(batch)
            cand = d[src] + 1
            imp = cand < d[dst]
            k, v = _sparse_min(dst[imp], cand[imp])
            return pa.table(
                {
                    "pkey": pa.array(_int_pkey(k, P), pa.int64()),
                    "node": pa.array(k, pa.int64()),
                    "h": pa.array(v, pa.int64()),
                }
            )

        agg = (
            edges_m.map_batches(relax_partial, batch_format="pyarrow")
            .groupby("pkey")
            .map_groups(merge_mins, batch_format="pandas")
        )
        changed = False
        for b in agg.iter_batches(batch_format="pyarrow"):
            nd = b.column("node").to_numpy(zero_copy_only=False)
            h = b.column("h").to_numpy(zero_copy_only=False)
            np.minimum.at(dist, nd, h)
            changed = changed or len(nd) > 0
        if not changed:
            break
    return dist


def _bfs_distributed(
    edges_m, nodes_ds, seeds_ds, max_hops: int, partitions: int
):
    """Distributed regime: distances are rows; each round is the
    ``_pagerank_distributed`` two-exchange message-passing shape with MIN
    in place of SUM — distance rows meet edges in hash(src) partitions
    (sentinel dst = -1 marks a distance row), relaxed candidates are
    pre-combined per partition, and a hash(dst) exchange settles the new
    per-node min against the carried current distance. Nothing
    graph-sized ever reaches the driver."""
    from abwcf_ray.stages.dedup import _int_pkey

    P = partitions
    S = max_hops + 1

    def edge_rows(batch: pa.Table) -> pa.Table:
        src, dst = _edge_arrays(batch)
        return pa.table(
            {
                "skey": pa.array(_int_pkey(src, P), pa.int64()),
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "h": pa.array(np.zeros(len(src), np.int64), pa.int64()),
            }
        )

    keyed_edges = edges_m.map_batches(edge_rows, batch_format="pyarrow").materialize()

    # init: nodes at sentinel, seeds at 0, settled by one keyed min
    def node_rows(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "dkey": pa.array(_int_pkey(node, P), pa.int64()),
                "node": pa.array(node, pa.int64()),
                "h": pa.array(np.full(len(node), S, np.int64), pa.int64()),
            }
        )

    def seed_rows(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "dkey": pa.array(_int_pkey(node, P), pa.int64()),
                "node": pa.array(node, pa.int64()),
                "h": pa.array(np.zeros(len(node), np.int64), pa.int64()),
            }
        )

    def reduce_mins(g: pd.DataFrame) -> pd.DataFrame:
        k, v = _sparse_min(g["node"].to_numpy(), g["h"].to_numpy())
        return pd.DataFrame({"node": k, "h": v})

    nodes_m = nodes_ds.materialize()
    dists = (
        nodes_m.map_batches(node_rows, batch_format="pyarrow")
        .union(seeds_ds.map_batches(seed_rows, batch_format="pyarrow"))
        .groupby("dkey")
        .map_groups(reduce_mins, batch_format="pandas")
        .map_batches(lambda t: t, batch_format="pyarrow")
        .materialize()
    )

    def dist_msgs(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False)
        h = batch.column("h").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "skey": pa.array(_int_pkey(node, P), pa.int64()),
                "src": pa.array(node, pa.int64()),
                "dst": pa.array(np.full(len(node), -1, np.int64), pa.int64()),
                "h": pa.array(h, pa.int64()),
            }
        )

    def emit_relaxed(g: pd.DataFrame) -> pd.DataFrame:
        is_dist = g["dst"].to_numpy() == -1
        dr = g[is_dist]
        ed = g[~is_dist]
        lookup = pd.Series(dr["h"].to_numpy(), index=dr["src"].to_numpy())
        hs = lookup.reindex(ed["src"].to_numpy()).to_numpy()
        live = hs < S
        cand = (hs[live] + 1).astype(np.int64)
        dst = ed["dst"].to_numpy()[live]
        k, v = _sparse_min(dst, cand)
        return pd.DataFrame({"dkey": _int_pkey(k, P), "node": k, "h": v})

    def carry_rows(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "dkey": pa.array(_int_pkey(node, P), pa.int64()),
                "node": pa.array(node, pa.int64()),
                "h": batch.column("h"),
            }
        )

    for _ in range(max_hops):
        msgs = keyed_edges.union(
            dists.map_batches(dist_msgs, batch_format="pyarrow")
        )
        relaxed = (
            msgs.groupby("skey")
            .map_groups(emit_relaxed, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow")
        )
        dists = (
            relaxed.union(dists.map_batches(carry_rows, batch_format="pyarrow"))
            .groupby("dkey")
            .map_groups(reduce_mins, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow")
            .materialize()
        )
    return dists


def bfs_hops(
    edges_ds,
    seeds_ds,
    *,
    n_nodes: int | None = None,
    nodes_ds=None,
    max_hops: int = 4,
    broadcast_max_nodes: int = PAGERANK_BROADCAST_MAX_NODES,
    merge_partitions: int = GRAPH_MERGE_PARTITIONS,
):
    """Minimum hop distance from ANY seed over a directed edge Dataset
    (src, dst int64), capped at ``max_hops`` — the crawl-depth /
    seed-proximity signal (the reference caps traversal depth the same
    way via its crawl-depth limiter, Frontier.scala:24-38; this computes
    the same quantity over an already-collected link graph).

    ``seeds_ds`` is a Dataset with one ``node`` column. Returns a Dataset
    with columns ``(node, hops)`` covering every node (dense ``0..n-1``
    in the broadcast regime, ``nodes_ds`` rows otherwise); nodes not
    reached within ``max_hops`` get ``hops = -1``.

    Exactly ``max_hops`` synchronous relaxation rounds — each round is one
    edge stream + one O(frontier) keyed exchange (broadcast regime: dense
    shared-memory distance vector) or two keyed exchanges (distributed
    regime: nothing graph-sized on the driver) — so the result is
    bit-identical across regimes, layouts, and parallelism, and exactly
    SQL-expressible (the ``bfs_hops`` DuckDB oracle mirrors the rounds
    with chained CTEs; early exit on a quiet round is safe because min
    relaxation is monotone).
    """
    import ray.data as rd

    edges_m = edges_ds.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("src").cast(pa.int64()),
                "dst": b.column("dst").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    S = max_hops + 1
    if n_nodes is not None and n_nodes <= broadcast_max_nodes:
        seed_idx = np.concatenate(
            [
                b.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
                for b in seeds_ds.iter_batches(batch_format="pyarrow")
            ]
            or [np.empty(0, np.int64)]
        )
        dist = _bfs_broadcast(edges_m, n_nodes, seed_idx, max_hops)
        hops = np.where(dist >= S, -1, dist)
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array(np.arange(n_nodes, dtype=np.int64), pa.int64()),
                    "hops": pa.array(hops, pa.int64()),
                }
            )
        )

    if nodes_ds is None:
        if n_nodes is None:
            raise ValueError("bfs_hops needs n_nodes (dense ids) or nodes_ds")
        nodes_ds = rd.range(n_nodes).map_batches(
            lambda b: pa.table({"node": b.column("id").cast(pa.int64())}),
            batch_format="pyarrow",
        )
    out = _bfs_distributed(edges_m, nodes_ds, seeds_ds, max_hops, merge_partitions)

    def finish(b: pa.Table) -> pa.Table:
        h = b.column("h").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": b.column("node"),
                "hops": pa.array(np.where(h >= S, -1, h), pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# HITS hubs & authorities (Kleinberg 1999), fixed-point integer
# --------------------------------------------------------------------------
# Integer normalization keeps the iteration SQL-expressible: after each
# in-sum, scores are rescaled to total mass ~= n * HITS_SCALE via ONE
# integer division per node ((s * HITS_SCALE) // total). Overflow bound:
# max_in_degree * HITS_SCALE^2 < 2^63 => in-degree < 9.2e6 at the default
# scale; raise `partitions` and lower `scale` for denser graphs.
HITS_SCALE = 10**6


def hits(
    edges_ds,
    *,
    n_nodes: int,
    iters: int = 4,
    scale: int = HITS_SCALE,
    partitions: int = GRAPH_MERGE_PARTITIONS,
):
    """Fixed-point integer HITS over an edge Dataset (src, dst int64),
    BROADCAST regime: dense int64 hub/authority vectors live in the
    object store (8 B/node — the `_pagerank_broadcast` bound), edges
    stream, per-node in-sums settle in a combiner-bounded keyed merge.
    The distributed analog is exactly `_pagerank_distributed`'s
    message-passing shape plus one scalar `sum()` per half-iteration
    (the normalizer); the fixed-point arithmetic is regime-invariant.

    Returns a Dataset (node, hub_scaled, auth_scaled). Deterministic
    under any layout: all arithmetic is int64 (sums are associative,
    ONE floor division per node per half-iteration), mirrored 1:1 by
    the chained-CTE SQL oracle.
    """
    import ray
    import ray.data as rd

    P = partitions

    edges_m = edges_ds.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("src").cast(pa.int64()),
                "dst": b.column("dst").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def merge_sums(g: pd.DataFrame) -> pd.DataFrame:
        k, v = _sparse_sum(g["node"].to_numpy(), g["s"].to_numpy())
        return pd.DataFrame({"node": k, "s": v})

    def half_step(vec: np.ndarray, out_to_in: bool) -> np.ndarray:
        """One in-sum + renormalize: authority step (sum hub over
        in-edges) when out_to_in, hub step (sum auth over out-edges)
        otherwise."""
        ref = ray.put(vec)

        def partial(batch: pa.Table, *, _ref=ref) -> pa.Table:
            v = ray.get(_ref)  # zero-copy shared-memory read
            src, dst = _edge_arrays(batch)
            gather, target = (src, dst) if out_to_in else (dst, src)
            k, s = _sparse_sum(target, v[gather])
            return pa.table(
                {
                    "pkey": pa.array(_int_pkey(k, P), pa.int64()),
                    "node": pa.array(k, pa.int64()),
                    "s": pa.array(s, pa.int64()),
                }
            )

        raw = np.zeros(len(vec), np.int64)
        agg = (
            edges_m.map_batches(partial, batch_format="pyarrow")
            .groupby("pkey")
            .map_groups(merge_sums, batch_format="pandas")
        )
        for b in agg.iter_batches(batch_format="pyarrow"):
            nd = b.column("node").to_numpy(zero_copy_only=False)
            s = b.column("s").to_numpy(zero_copy_only=False)
            raw[nd] = s
        # normalize by the MAX node, not total mass: a total-mass
        # normalizer caps the vector sum at ~scale, so per-node values
        # quantize to 0 once n >> scale (web-scale graphs); max-norm
        # gives every graph per-node resolution `scale` independent of n
        # (HITS is invariant to the normalization constant). Overflow
        # bound unchanged: raw*scale < 2^63 i.e. in_deg_max < 2^63/scale².
        total = max(int(raw.max()) if len(raw) else 0, 1)
        return (raw * np.int64(scale)) // np.int64(total)

    hub = np.full(n_nodes, scale, np.int64)
    auth = np.zeros(n_nodes, np.int64)
    for _ in range(iters):
        auth = half_step(hub, out_to_in=True)
        hub = half_step(auth, out_to_in=False)

    return rd.from_arrow(
        pa.table(
            {
                "node": pa.array(np.arange(n_nodes, dtype=np.int64), pa.int64()),
                "hub_scaled": pa.array(hub, pa.int64()),
                "auth_scaled": pa.array(auth, pa.int64()),
            }
        )
    )


# --------------------------------------------------------------------------
# k-core membership (synchronous peel rounds)
# --------------------------------------------------------------------------
def kcore(
    edges_ds,
    *,
    n_nodes: int,
    k: int = 2,
    rounds: int = 6,
    partitions: int = GRAPH_MERGE_PARTITIONS,
):
    """k-core membership of the UNDIRECTED simple graph: ``rounds``
    SYNCHRONOUS peel rounds (each round recomputes degrees over the
    surviving subgraph and drops every node below ``k`` at once — the
    Matula–Beck peel expressed as bulk-synchronous rounds so the
    iteration is exactly SQL-expressible as chained CTEs). Once the
    survivor set is a fixed point, further rounds are no-ops in both the
    engine and the mirror, so any ``rounds`` >= the true peel depth
    yields the exact k-core; on sparse web graphs the depth is small
    (the fixture converges by round 3 — pytest pins a converged
    reference).

    Broadcast regime: one bit-ish (bool) alive vector in the object
    store per round, canonical distinct edges stream (the triangle_count
    canonicalization), per-node surviving degrees settle in a
    combiner-bounded keyed merge. Returns (node, in_core: int64 0/1).
    """
    import ray
    import ray.data as rd

    from abwcf_ray.functions.hashing import hash64  # noqa: F401
    from abwcf_ray.stages.dedup import keyed_hash_agg

    GOLD = np.uint64(0x9E3779B97F4A7C15)

    def canon(t: pa.Table) -> pa.Table:
        s, d = _edge_arrays(t)
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        keep = lo != hi
        g = pd.DataFrame({"lo": lo[keep], "hi": hi[keep]}).drop_duplicates()
        return pa.Table.from_pandas(g, preserve_index=False)

    def pair_key(b: pa.Table) -> np.ndarray:
        lo = b.column("lo").to_numpy(zero_copy_only=False).view(np.uint64)
        hi = b.column("hi").to_numpy(zero_copy_only=False).view(np.uint64)
        return lo * GOLD ^ hi

    und = keyed_hash_agg(
        edges_ds.map_batches(canon, batch_format="pyarrow"),
        pair_key,
        lambda g: g.drop_duplicates(),
        partitions=partitions,
    ).materialize()

    def merge_sums(g: pd.DataFrame) -> pd.DataFrame:
        n, v = _sparse_sum(g["node"].to_numpy(), g["s"].to_numpy())
        return pd.DataFrame({"node": n, "s": v})

    alive = np.ones(n_nodes, bool)
    for _ in range(rounds):
        ref = ray.put(alive)

        def deg_partial(t: pa.Table, *, _ref=ref) -> pa.Table:
            a = ray.get(_ref)
            lo = t.column("lo").to_numpy(zero_copy_only=False)
            hi = t.column("hi").to_numpy(zero_copy_only=False)
            m = a[lo] & a[hi]
            lo, hi = lo[m], hi[m]
            n, c = _sparse_sum(
                np.concatenate([lo, hi]), np.ones(2 * len(lo), np.int64)
            )
            return pa.table(
                {
                    "pkey": pa.array(_int_pkey(n, partitions), pa.int64()),
                    "node": pa.array(n, pa.int64()),
                    "s": pa.array(c, pa.int64()),
                }
            )

        deg = np.zeros(n_nodes, np.int64)
        agg = (
            und.map_batches(deg_partial, batch_format="pyarrow")
            .groupby("pkey")
            .map_groups(merge_sums, batch_format="pandas")
        )
        for b in agg.iter_batches(batch_format="pyarrow"):
            nd = b.column("node").to_numpy(zero_copy_only=False)
            s = b.column("s").to_numpy(zero_copy_only=False)
            deg[nd] = s
        alive = alive & (deg >= k)

    return rd.from_arrow(
        pa.table(
            {
                "node": pa.array(np.arange(n_nodes, dtype=np.int64), pa.int64()),
                "in_core": pa.array(alive.astype(np.int64), pa.int64()),
            }
        )
    )


# --------------------------------------------------------------------------
# multi-source weighted shortest path (synchronous Bellman-Ford rounds)
# --------------------------------------------------------------------------
SSSP_INF = np.int64(1) << np.int64(62)


def sssp(
    edges_ds,
    seeds_ds,
    *,
    n_nodes: int | None = None,
    nodes_ds=None,
    rounds: int = 6,
    broadcast_max_nodes: int = PAGERANK_BROADCAST_MAX_NODES,
    merge_partitions: int = GRAPH_MERGE_PARTITIONS,
):
    """Minimum WEIGHTED distance from any seed over a directed edge
    Dataset ``(src, dst, w)`` (int64, w >= 0) — the weighted twin of
    :func:`bfs_hops` (crawl-cost / latency-weighted seed proximity; the
    reference's crawl-depth limiter, Frontier.scala:24-38, is the w == 1
    special case of the same traversal bound).

    Exactly ``rounds`` synchronous Bellman-Ford relaxation rounds
    (``dist[dst] = min(dist[dst], dist[src] + w)`` over every edge at
    once) — each round is one edge stream plus one keyed min exchange
    (broadcast regime: dense int64 distance vector in the object store,
    zero-copy per task) or two keyed exchanges (distributed regime:
    distances are rows, nothing graph-sized on the driver). Integer min
    relaxation is monotone, so early exit on a quiet round is safe and
    the fixed-round result is bit-identical across regimes and
    parallelism — exactly SQL-expressible (the ``sssp`` DuckDB oracle
    mirrors the rounds with chained CTEs).

    Returns a Dataset ``(node, dist)``; nodes unreached within
    ``rounds`` relaxations get ``dist = -1``. Note Bellman-Ford after R
    rounds bounds paths to <= R EDGES, not R cost units.
    """
    import ray.data as rd

    edges_m = edges_ds.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("src").cast(pa.int64()),
                "dst": b.column("dst").cast(pa.int64()),
                "w": b.column("w").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    if n_nodes is not None and n_nodes <= broadcast_max_nodes:
        seed_idx = np.concatenate(
            [
                b.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
                for b in seeds_ds.iter_batches(batch_format="pyarrow")
            ]
            or [np.empty(0, np.int64)]
        )
        dist = _sssp_broadcast(edges_m, n_nodes, seed_idx, rounds)
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array(np.arange(n_nodes, dtype=np.int64), pa.int64()),
                    "dist": pa.array(
                        np.where(dist >= SSSP_INF, -1, dist), pa.int64()
                    ),
                }
            )
        )

    if nodes_ds is None:
        if n_nodes is None:
            raise ValueError("sssp needs n_nodes (dense ids) or nodes_ds")
        nodes_ds = rd.range(n_nodes).map_batches(
            lambda b: pa.table({"node": b.column("id").cast(pa.int64())}),
            batch_format="pyarrow",
        )
    out = _sssp_distributed(edges_m, nodes_ds, seeds_ds, rounds, merge_partitions)

    def finish(b: pa.Table) -> pa.Table:
        h = b.column("h").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": b.column("node"),
                "dist": pa.array(np.where(h >= SSSP_INF, -1, h), pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _sssp_broadcast(edges_m, n_nodes: int, seed_idx: np.ndarray, rounds: int):
    """Broadcast regime: dense int64 distance vector shared zero-copy
    per round; each batch emits only IMPROVING candidates
    (dist[src] + w < dist[dst]) pre-combined by a sparse per-batch min,
    settled by the keyed-partition merge (same shape as
    :func:`_bfs_broadcast` with +1 generalized to +w)."""
    import ray

    from abwcf_ray.stages.dedup import _int_pkey

    P = GRAPH_MERGE_PARTITIONS
    dist = np.full(n_nodes, SSSP_INF, np.int64)
    dist[seed_idx] = 0

    def merge_mins(g: pd.DataFrame) -> pd.DataFrame:
        k, v = _sparse_min(g["node"].to_numpy(), g["h"].to_numpy())
        return pd.DataFrame({"node": k, "h": v})

    for _ in range(rounds):
        ref = ray.put(dist)

        def relax_partial(batch: pa.Table, *, _ref=ref) -> pa.Table:
            d = ray.get(_ref)  # zero-copy shared-memory read per task
            src, dst = _edge_arrays(batch)
            w = batch.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
            live = d[src] < SSSP_INF
            cand = d[src[live]] + w[live]
            dl = dst[live]
            imp = cand < d[dl]
            k, v = _sparse_min(dl[imp], cand[imp])
            return pa.table(
                {
                    "pkey": pa.array(_int_pkey(k, P), pa.int64()),
                    "node": pa.array(k, pa.int64()),
                    "h": pa.array(v, pa.int64()),
                }
            )

        agg = (
            edges_m.map_batches(relax_partial, batch_format="pyarrow")
            .groupby("pkey")
            .map_groups(merge_mins, batch_format="pandas")
        )
        changed = False
        for b in agg.iter_batches(batch_format="pyarrow"):
            nd = b.column("node").to_numpy(zero_copy_only=False)
            h = b.column("h").to_numpy(zero_copy_only=False)
            np.minimum.at(dist, nd, h)
            changed = changed or len(nd) > 0
        if not changed:
            break
    return dist


def _sssp_distributed(edges_m, nodes_ds, seeds_ds, rounds: int, partitions: int):
    """Distributed regime: distances are rows (sentinel dst = -1 marks a
    distance row inside the hash(src) partition), relaxed candidates are
    pre-combined per partition, and a hash(dst) exchange settles the new
    per-node min against the carried current distance — the
    :func:`_bfs_distributed` two-exchange shape with +w relaxation.
    Nothing graph-sized ever reaches the driver."""
    from abwcf_ray.stages.dedup import _int_pkey

    P = partitions
    INF = int(SSSP_INF)

    def edge_rows(batch: pa.Table) -> pa.Table:
        src, dst = _edge_arrays(batch)
        w = batch.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "skey": pa.array(_int_pkey(src, P), pa.int64()),
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "h": pa.array(w, pa.int64()),  # h carries the edge weight
            }
        )

    keyed_edges = edges_m.map_batches(edge_rows, batch_format="pyarrow").materialize()

    def node_rows(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "dkey": pa.array(_int_pkey(node, P), pa.int64()),
                "node": pa.array(node, pa.int64()),
                "h": pa.array(np.full(len(node), INF, np.int64), pa.int64()),
            }
        )

    def seed_rows(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "dkey": pa.array(_int_pkey(node, P), pa.int64()),
                "node": pa.array(node, pa.int64()),
                "h": pa.array(np.zeros(len(node), np.int64), pa.int64()),
            }
        )

    def reduce_mins(g: pd.DataFrame) -> pd.DataFrame:
        k, v = _sparse_min(g["node"].to_numpy(), g["h"].to_numpy())
        return pd.DataFrame({"node": k, "h": v})

    dists = (
        nodes_ds.materialize()
        .map_batches(node_rows, batch_format="pyarrow")
        .union(seeds_ds.map_batches(seed_rows, batch_format="pyarrow"))
        .groupby("dkey")
        .map_groups(reduce_mins, batch_format="pandas")
        .map_batches(lambda t: t, batch_format="pyarrow")
        .materialize()
    )

    def dist_msgs(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False)
        h = batch.column("h").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "skey": pa.array(_int_pkey(node, P), pa.int64()),
                "src": pa.array(node, pa.int64()),
                "dst": pa.array(np.full(len(node), -1, np.int64), pa.int64()),
                "h": pa.array(h, pa.int64()),
            }
        )

    def emit_relaxed(g: pd.DataFrame) -> pd.DataFrame:
        is_dist = g["dst"].to_numpy() == -1
        dr = g[is_dist]
        ed = g[~is_dist]
        lookup = pd.Series(dr["h"].to_numpy(), index=dr["src"].to_numpy())
        hs = lookup.reindex(ed["src"].to_numpy()).to_numpy()
        live = hs < INF
        cand = (hs[live] + ed["h"].to_numpy()[live]).astype(np.int64)
        dst = ed["dst"].to_numpy()[live]
        k, v = _sparse_min(dst, cand)
        return pd.DataFrame({"dkey": _int_pkey(k, P), "node": k, "h": v})

    def carry_rows(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "dkey": pa.array(
                    _int_pkey(node.astype(np.int64), P), pa.int64()
                ),
                "node": batch.column("node").cast(pa.int64()),
                "h": batch.column("h").cast(pa.int64()),
            }
        )

    for _ in range(rounds):
        msgs = keyed_edges.union(
            dists.map_batches(dist_msgs, batch_format="pyarrow")
        )
        relaxed = (
            msgs.groupby("skey")
            .map_groups(emit_relaxed, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow")
        )
        dists = (
            dists.map_batches(carry_rows, batch_format="pyarrow")
            .union(relaxed)
            .groupby("dkey")
            .map_groups(reduce_mins, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow")
            .materialize()
        )
    return dists


def reciprocity(edges_ds, *, partitions: int = 64):
    """Link-graph reciprocity — the fraction of directed edges whose
    reverse edge also exists (mutual-link rate: a crawl-graph spam /
    link-farm signal; Newman's standard r = |reciprocated| / |edges|,
    self-loops excluded, duplicate edges counted once).

    Distributed shape: each distinct directed edge becomes one
    (lo, hi, fwd, bwd) row on its UNORDERED pair key (lo = min(src,dst),
    fwd = 1 iff src < dst), deduped map-side; ONE hash(lo, hi)-keyed
    exchange lands both directions of a pair in the same partition,
    where per-pair max(fwd)/max(bwd) absorbs duplicates and
    n_recip += 2 per pair with both. Each partition emits ONE summary
    row, so the driver merge is partitions-sized. The ratio is one IEEE
    division of exact int64 counts (the repetition_signals discipline).

    Returns a one-row pandas DataFrame (n_edges, n_recip, reciprocity).
    """
    from abwcf_ray.stages.dedup import keyed_hash_agg

    _GOLD = np.uint64(0x9E3779B97F4A7C15)

    def pairs(b: pa.Table) -> pa.Table:
        src, dst = _edge_arrays(b)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        fwd = (src < dst).astype(np.int64)
        pdf = pd.DataFrame(
            {"lo": lo, "hi": hi, "fwd": fwd, "bwd": 1 - fwd}
        ).groupby(["lo", "hi"], as_index=False, sort=False).agg(
            fwd=("fwd", "max"), bwd=("bwd", "max")
        )
        return pa.Table.from_pandas(pdf, preserve_index=False)

    def key_of(b: pa.Table) -> np.ndarray:
        lo = b.column("lo").to_numpy(zero_copy_only=False).view(np.uint64)
        hi = b.column("hi").to_numpy(zero_copy_only=False).view(np.uint64)
        return lo * _GOLD ^ hi

    def summarize(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["lo", "hi"], as_index=False, sort=False).agg(
            fwd=("fwd", "max"), bwd=("bwd", "max")
        )
        n_edges = int(m["fwd"].sum() + m["bwd"].sum())
        n_recip = 2 * int((m["fwd"].to_numpy() & m["bwd"].to_numpy()).sum())
        return pd.DataFrame(
            {
                "n_edges": np.array([n_edges], np.int64),
                "n_recip": np.array([n_recip], np.int64),
            }
        )

    parts = keyed_hash_agg(
        edges_ds.map_batches(pairs, batch_format="pyarrow"),
        key_of,
        summarize,
        partitions=partitions,
    ).to_pandas()
    n_edges = int(parts["n_edges"].sum())
    n_recip = int(parts["n_recip"].sum())
    out = pd.DataFrame(
        {
            "n_edges": np.array([n_edges], np.int64),
            "n_recip": np.array([n_recip], np.int64),
        }
    )
    out["reciprocity"] = out["n_recip"].to_numpy(np.int64).astype(
        np.float64
    ) / out["n_edges"].to_numpy(np.int64).astype(np.float64)
    return out


def node_clustering(edges, *, partitions: int = 64):
    """Per-node triangle counts and LOCAL CLUSTERING COEFFICIENT —
    c_v = 2*T_v / (d_v*(d_v-1)) over the undirected simple graph (the
    link-farm / community-density signal; Watts-Strogatz local
    coefficient). Exact: T_v and d_v are int64, the coefficient is ONE
    IEEE division of exact integers (0.0 for degree < 2).

    Same degree-oriented machinery as :func:`triangle_count` (shared
    :func:`_orient_by_degree` prefix) but wedges CARRY THEIR APEX — a
    closed wedge (u; a, b) credits all three of u, a, b — so the wedge
    combiner is necessarily weaker (apex identity blocks (a, b)
    pre-combining; volume = raw wedge count, still O(m^1.5)-bounded by
    the orientation). The probe emits per-node partial counts, merged
    with degrees in ONE final node-keyed exchange.

    Returns a Dataset (node, n_tri:int64, deg:int64,
    clustering:float64) over every node incident to an edge.
    """
    from abwcf_ray.stages.dedup import keyed_hash_agg

    GOLD = np.uint64(0x9E3779B97F4A7C15)
    _, deg, oriented = _orient_by_degree(edges, partitions)

    def wedges_apex(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "a": pd.Series([], dtype=np.int64),
                "b": pd.Series([], dtype=np.int64),
                "apex": pd.Series([], dtype=np.int64),
            }
        )
        if len(g) == 0:
            return empty
        g = g.sort_values(["u", "deg_v", "v"], kind="mergesort")
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        n = len(g)
        newu = np.empty(n, bool)
        newu[0] = True
        np.not_equal(u[1:], u[:-1], out=newu[1:])
        idx = np.arange(n, dtype=np.int64)
        start = np.maximum.accumulate(np.where(newu, idx, 0))
        gid = np.cumsum(newu) - 1
        size = np.bincount(gid)[gid]
        reps = size - (idx - start) - 1
        total = int(reps.sum())
        if total == 0:
            return empty
        first = np.repeat(idx, reps)
        c = np.concatenate([[0], np.cumsum(reps)])
        k = np.arange(total, dtype=np.int64) - np.repeat(c[:-1], reps)
        second = first + 1 + k
        return pd.DataFrame(
            {"a": v[first], "b": v[second], "apex": u[first]}
        )

    def u_key(b: pa.Table) -> np.ndarray:
        return b.column("u").to_numpy(zero_copy_only=False).view(np.uint64) * GOLD

    wedge_rows = keyed_hash_agg(oriented, u_key, wedges_apex, partitions=partitions)

    def edge_flag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": t.column("u"),
                "b": t.column("v"),
                "apex": pa.array(np.full(t.num_rows, -1, np.int64)),
                "is_edge": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )

    def wedge_flag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "is_edge", pa.array(np.zeros(t.num_rows, np.int64))
        )

    both = wedge_rows.map_batches(wedge_flag, batch_format="pyarrow").union(
        oriented.map_batches(edge_flag, batch_format="pyarrow")
    )

    def ab_key(b: pa.Table) -> np.ndarray:
        a = b.column("a").to_numpy(zero_copy_only=False).view(np.uint64)
        bb = b.column("b").to_numpy(zero_copy_only=False).view(np.uint64)
        return a * GOLD ^ bb

    def score(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "node": pd.Series([], dtype=np.int64),
                "n_tri": pd.Series([], dtype=np.int64),
            }
        )
        e = g[g["is_edge"] == 1][["a", "b"]].drop_duplicates()
        w = g[g["is_edge"] == 0]
        if e.empty or w.empty:
            return empty
        m = w.merge(e, on=["a", "b"])
        if m.empty:
            return empty
        nodes = np.concatenate(
            [m["apex"].to_numpy(np.int64), m["a"].to_numpy(np.int64),
             m["b"].to_numpy(np.int64)]
        )
        n, c = _sparse_sum(nodes, np.ones(len(nodes), np.int64))
        return pd.DataFrame({"node": n.astype(np.int64), "n_tri": c})

    tri_parts = keyed_hash_agg(both, ab_key, score, partitions=partitions)

    def tri_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t.column("node"),
                "n_tri": t.column("n_tri"),
                "deg": pa.array(np.zeros(t.num_rows, np.int64)),
            }
        )

    def deg_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t.column("node"),
                "n_tri": pa.array(np.zeros(t.num_rows, np.int64)),
                "deg": t.column("deg"),
            }
        )

    merged = tri_parts.map_batches(tri_side, batch_format="pyarrow").union(
        deg.map_batches(deg_side, batch_format="pyarrow")
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("node", as_index=False, sort=False).agg(
            n_tri=("n_tri", "sum"), deg=("deg", "sum")
        )
        m["n_tri"] = m["n_tri"].astype(np.int64)
        m["deg"] = m["deg"].astype(np.int64)
        d = m["deg"].to_numpy(np.int64)
        t = m["n_tri"].to_numpy(np.int64)
        denom = d * (d - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cl = (2 * t).astype(np.float64) / denom.astype(np.float64)
        m["clustering"] = np.where(denom > 0, cl, 0.0)
        return m

    return keyed_hash_agg(
        merged,
        lambda b: b.column("node").to_numpy(zero_copy_only=False).view(np.uint64)
        * GOLD,
        finish,
        partitions=partitions,
    )


def pagerank_weighted(
    edges_w,
    *,
    n_nodes: int,
    iters: int = 5,
    d_num: int = 85,
    d_den: int = 100,
    partitions: int = GRAPH_MERGE_PARTITIONS,
):
    """WEIGHTED PageRank in the same fixed-point integer discipline as
    :func:`pagerank` — each edge carries a positive int64 weight ``w``
    (crawl cost / link prominence) and a node's rank splits
    proportionally:

        contribution(e) = (rank[src] * w_e) // W_out[src]
        rank'           = base + d_num * insum // d_den

    All floor divisions, so the iteration is bit-identical across
    layouts AND exactly SQL-mirrorable with chained CTEs (the pagerank
    oracle pattern with a weighted-out-sum CTE). Broadcast regime only
    (the dense-vector + streaming-edges shape; a 2^24-node cap like
    pagerank's — see its regime discussion): dense int64 rank vector
    ``ray.put`` per iteration, per-edge contributions computed
    map-side, in-sums settle in a keyed-partition merge. Overflow
    bound: max_rank * max_w < 2^63 (mass conservation keeps
    max_rank <= n_nodes * SCALE).

    Input: Dataset of (src, dst, w:int64 positive). Returns a Dataset
    of (node, rank:int64).
    """
    import ray
    import ray.data as rd

    P = partitions

    def merge_sums(g: pd.DataFrame) -> pd.DataFrame:
        k, v = _sparse_sum(g["node"].to_numpy(), g["s"].to_numpy())
        return pd.DataFrame({"node": k, "s": v})

    edges_m = edges_w.materialize()

    def wout_partial(batch: pa.Table) -> pa.Table:
        src, _ = _edge_arrays(batch)
        w = batch.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        k, v = _sparse_sum(src, w)
        return pa.table(
            {
                "pkey": pa.array(_int_pkey(k, P), pa.int64()),
                "node": pa.array(k, pa.int64()),
                "s": pa.array(v, pa.int64()),
            }
        )

    wout = np.zeros(n_nodes, np.int64)
    od = (
        edges_m.map_batches(wout_partial, batch_format="pyarrow")
        .groupby("pkey")
        .map_groups(merge_sums, batch_format="pandas")
    )
    for b in od.iter_batches(batch_format="pyarrow"):
        wout[b.column("node").to_numpy(zero_copy_only=False)] = b.column(
            "s"
        ).to_numpy(zero_copy_only=False)

    base = ((d_den - d_num) * SCALE) // d_den
    ranks = np.full(n_nodes, SCALE, np.int64)
    safe_wout = np.maximum(wout, 1)

    for _ in range(iters):
        ref = ray.put(ranks)
        wref = ray.put(safe_wout)

        def insum_partial(batch: pa.Table, *, _r=ref, _w=wref) -> pa.Table:
            r = ray.get(_r)
            wo = ray.get(_w)
            src, dst = _edge_arrays(batch)
            w = batch.column("w").to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            contrib = (r[src] * w) // wo[src]
            k, v = _sparse_sum(dst, contrib)
            return pa.table(
                {
                    "pkey": pa.array(_int_pkey(k, P), pa.int64()),
                    "node": pa.array(k, pa.int64()),
                    "s": pa.array(v, pa.int64()),
                }
            )

        new = np.full(n_nodes, base, np.int64)
        agg = (
            edges_m.map_batches(insum_partial, batch_format="pyarrow")
            .groupby("pkey")
            .map_groups(merge_sums, batch_format="pandas")
        )
        for b in agg.iter_batches(batch_format="pyarrow"):
            nd = b.column("node").to_numpy(zero_copy_only=False)
            s = b.column("s").to_numpy(zero_copy_only=False)
            new[nd] = base + (d_num * s) // d_den
        ranks = new

    return rd.from_arrow(
        pa.table(
            {
                "node": pa.array(np.arange(n_nodes, dtype=np.int64)),
                "rank_scaled": pa.array(ranks, pa.int64()),
            }
        )
    )


def personalized_pagerank(
    edges,
    *,
    n_nodes: int,
    seeds: np.ndarray,
    iters: int = 5,
    d_num: int = 85,
    d_den: int = 100,
    partitions: int = GRAPH_MERGE_PARTITIONS,
):
    """PERSONALIZED PageRank (random walk with restart): teleport mass
    returns only to the SEED set, so ranks measure proximity to the
    seeds — the similar-pages / related-hosts primitive. Same
    fixed-point integer discipline as :func:`pagerank` (floor divisions
    only, bit-identical across layouts, chained-CTE SQL-mirrorable):

        rank'(v) = base(v) + d_num * insum(v) // d_den
        base(v)  = ((d_den - d_num) * SCALE * n_nodes // len(seeds))
                   // d_den  for seeds, 0 otherwise

    (total teleport mass matches the uniform variant, concentrated on
    the seeds; rank starts at SCALE on seeds, 0 elsewhere). Broadcast
    regime: dense int64 vectors, streaming edges, keyed-partition
    in-sum merges. Returns (node, rank_scaled).
    """
    import ray
    import ray.data as rd

    P = partitions
    if hasattr(seeds, "iter_batches"):  # a (node) Dataset, like bfs_hops
        seeds = np.concatenate(
            [
                b.column("node").to_numpy(zero_copy_only=False)
                for b in seeds.iter_batches(batch_format="pyarrow")
            ]
            or [np.empty(0, np.int64)]
        )
    seeds = np.asarray(seeds, np.int64)

    def merge_sums(g: pd.DataFrame) -> pd.DataFrame:
        k, v = _sparse_sum(g["node"].to_numpy(), g["s"].to_numpy())
        return pd.DataFrame({"node": k, "s": v})

    edges_m = edges.materialize()

    def odeg_partial(batch: pa.Table) -> pa.Table:
        src, _ = _edge_arrays(batch)
        k, v = _sparse_sum(src, np.ones(len(src), np.int64))
        return pa.table(
            {
                "pkey": pa.array(_int_pkey(k, P), pa.int64()),
                "node": pa.array(k, pa.int64()),
                "s": pa.array(v, pa.int64()),
            }
        )

    outdeg = np.zeros(n_nodes, np.int64)
    od = (
        edges_m.map_batches(odeg_partial, batch_format="pyarrow")
        .groupby("pkey")
        .map_groups(merge_sums, batch_format="pandas")
    )
    for b in od.iter_batches(batch_format="pyarrow"):
        outdeg[b.column("node").to_numpy(zero_copy_only=False)] = b.column(
            "s"
        ).to_numpy(zero_copy_only=False)
    safe_odeg = np.maximum(outdeg, 1)

    seed_base = ((d_den - d_num) * SCALE * n_nodes // len(seeds)) // d_den
    base_v = np.zeros(n_nodes, np.int64)
    base_v[seeds] = seed_base
    ranks = np.zeros(n_nodes, np.int64)
    ranks[seeds] = SCALE

    for _ in range(iters):
        contrib = ranks // safe_odeg
        ref = ray.put(contrib)

        def insum_partial(batch: pa.Table, *, _ref=ref) -> pa.Table:
            c = ray.get(_ref)
            src, dst = _edge_arrays(batch)
            k, v = _sparse_sum(dst, c[src])
            return pa.table(
                {
                    "pkey": pa.array(_int_pkey(k, P), pa.int64()),
                    "node": pa.array(k, pa.int64()),
                    "s": pa.array(v, pa.int64()),
                }
            )

        new = base_v.copy()
        agg = (
            edges_m.map_batches(insum_partial, batch_format="pyarrow")
            .groupby("pkey")
            .map_groups(merge_sums, batch_format="pandas")
        )
        for b in agg.iter_batches(batch_format="pyarrow"):
            nd = b.column("node").to_numpy(zero_copy_only=False)
            s = b.column("s").to_numpy(zero_copy_only=False)
            new[nd] = base_v[nd] + (d_num * s) // d_den
        ranks = new

    return rd.from_arrow(
        pa.table(
            {
                "node": pa.array(np.arange(n_nodes, dtype=np.int64)),
                "rank_scaled": pa.array(ranks, pa.int64()),
            }
        )
    )
