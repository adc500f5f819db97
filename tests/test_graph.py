"""Link-graph analytics: degrees + fixed-point PageRank (stages/graph.py).

Brute-force references are dense numpy implementations of the SAME integer
arithmetic; the operator must match them bit-for-bit in both regimes and
under any block layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from abwcf_ray.stages.graph import SCALE, degrees, pagerank


def _random_graph(seed: int, n: int, m: int):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    keep = src != dst
    return src[keep], dst[keep]


def _ref_pagerank(src, dst, n, iters, d_num=85, d_den=100):
    outdeg = np.bincount(src, minlength=n).astype(np.int64)
    ranks = np.full(n, SCALE, np.int64)
    base = ((d_den - d_num) * SCALE) // d_den
    for _ in range(iters):
        contrib = ranks // np.maximum(outdeg, 1)
        insum = np.zeros(n, np.int64)
        np.add.at(insum, dst, contrib[src])
        ranks = base + (d_num * insum) // d_den
    return ranks


def _edges_ds(src, dst, blocks=4):
    t = pa.table(
        {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
    )
    return rd.from_arrow(t).repartition(blocks)


def _nodes_ds(n):
    return rd.from_arrow(
        pa.table({"node": pa.array(np.arange(n, dtype=np.int64), pa.int64())})
    )


def test_degrees_brute_force(ray_session):
    src, dst = _random_graph(7, 50, 300)
    out = (
        degrees(_edges_ds(src, dst), include_zero_nodes_from=_nodes_ds(50))
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert out["node"].tolist() == list(range(50))
    np.testing.assert_array_equal(
        out["out_deg"].to_numpy(), np.bincount(src, minlength=50)
    )
    np.testing.assert_array_equal(
        out["in_deg"].to_numpy(), np.bincount(dst, minlength=50)
    )


def test_pagerank_broadcast_matches_reference(ray_session):
    # graph with dangling nodes (no out-edges) and zero-in-degree nodes
    src, dst = _random_graph(11, 80, 250)
    out = (
        pagerank(_edges_ds(src, dst), n_nodes=80, iters=6)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    np.testing.assert_array_equal(
        out["rank_scaled"].to_numpy(), _ref_pagerank(src, dst, 80, 6)
    )


def test_pagerank_regime_parity_and_layout_invariance(ray_session):
    src, dst = _random_graph(23, 60, 200)
    ref = _ref_pagerank(src, dst, 60, 4)
    broad = (
        pagerank(_edges_ds(src, dst, blocks=3), n_nodes=60, iters=4)
        .to_pandas()
        .sort_values("node")
    )
    dist = (
        pagerank(
            _edges_ds(src, dst, blocks=9),
            n_nodes=60,
            nodes_ds=_nodes_ds(60),
            iters=4,
            broadcast_max_nodes=0,
            merge_partitions=7,
        )
        .to_pandas()
        .sort_values("node")
    )
    np.testing.assert_array_equal(broad["rank_scaled"].to_numpy(), ref)
    np.testing.assert_array_equal(dist["rank_scaled"].to_numpy(), ref)
    assert dist["node"].tolist() == list(range(60))


def test_pagerank_star_graph_concentrates_rank(ray_session):
    # n-1 leaves all pointing at node 0: node 0 must end far above leaves
    n = 21
    src = np.arange(1, n, dtype=np.int64)
    dst = np.zeros(n - 1, dtype=np.int64)
    out = (
        pagerank(_edges_ds(src, dst, blocks=2), n_nodes=n, iters=5)
        .to_pandas()
        .set_index("node")["rank_scaled"]
    )
    assert out.loc[0] > 10 * out.loc[1]
    np.testing.assert_array_equal(
        out.loc[1:].to_numpy(), np.full(n - 1, out.loc[1])
    )


def test_pagerank_mass_bounds(ray_session):
    # floor rounding only ever LEAKS mass: total stays <= n*SCALE and > 0
    src, dst = _random_graph(5, 40, 160)
    out = pagerank(_edges_ds(src, dst), n_nodes=40, iters=8).to_pandas()
    total = int(out["rank_scaled"].sum())
    assert 0 < total <= 40 * SCALE
    assert (out["rank_scaled"] >= ((100 - 85) * SCALE) // 100).all()


def _processed_table(rows):
    """rows: list of (url, [link urls])."""
    return pa.table(
        {
            "url": pa.array([u for u, _ in rows], pa.string()),
            "links": pa.array([ls for _, ls in rows], pa.list_(pa.string())),
        }
    )


def test_host_pagerank_matches_reference(ray_session):
    from abwcf_ray.stages.graph import host_pagerank

    # 3 hosts: a -> b (x2 pages), b -> c, c -> a ; plus an intra-host link
    rows = [
        ("https://a.example/p1", ["https://b.example/x", "https://b.example/y"]),
        ("https://a.example/p2", ["https://b.example/z"]),
        ("https://b.example/p1", ["https://c.example/x"]),
        ("https://c.example/p1", ["https://a.example/x", "https://c.example/self"]),
    ]
    ds = rd.from_arrow(_processed_table(rows)).repartition(2)
    out = host_pagerank(ds, iters=4)
    assert set(out["host"]) == {
        "https://a.example",
        "https://b.example",
        "https://c.example",
    }

    # reference: host graph a->b x3, b->c x1, c->a x1, c->c x1 (self kept:
    # intra-host links are real links)
    hosts = sorted(out["host"])  # a, b, c
    idx = {h: i for i, h in enumerate(hosts)}
    src = np.array([idx["https://a.example"]] * 3 + [idx["https://b.example"]] + [idx["https://c.example"]] * 2)
    dst = np.array([idx["https://b.example"]] * 3 + [idx["https://c.example"]] + [idx["https://a.example"], idx["https://c.example"]])
    ref = _ref_pagerank(src, dst, 3, 4)
    got = out.set_index("host")["rank_scaled"]
    for h, i in idx.items():
        assert got[h] == ref[i]


def test_host_rank_priority_hook(ray_session):
    import pandas as pd

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.stages.graph import make_host_rank_priority
    from abwcf_ray.stages.transform import make_prioritize_stage

    ranks = pd.DataFrame(
        {
            "host": ["https://hot.example", "https://cold.example"],
            "rank_scaled": np.array([5_000_000_000, 200_000_000], np.int64),
        }
    )
    fn = make_host_rank_priority(ranks, default_rank=7)
    cfg = CrawlConfig(priority_fn=fn)
    batch = pa.table(
        {
            "url": pa.array(
                [
                    "https://cold.example/a",
                    "https://hot.example/b",
                    "https://unknown.example/c",
                ]
            ),
            "depth": pa.array([0, 1, 2], pa.int32()),
        }
    )
    out = make_prioritize_stage(cfg)(batch)
    assert out.column("priority").to_pylist() == [200_000_000, 5_000_000_000, 7]


def test_host_pagerank_from_real_crawl(ray_session, tmp_path):
    """End-to-end: crawl the fixture corpus, feed the wave's processed
    checkpoints into host_pagerank, get one positive rank per host seen."""
    import ray.data as rdata

    from abwcf_ray.config import CrawlConfig
    from abwcf_ray.pipelines.crawl import run_crawl
    from abwcf_ray.sources.corpus import generate_corpus
    from abwcf_ray.stages.graph import host_pagerank

    corpus = generate_corpus(tmp_path / "corpus", n_pages=600, seed=42, num_buckets=8)
    cfg = CrawlConfig(max_waves=2, seen_shards=2)
    summary = run_crawl(cfg, corpus, tmp_path / "hpr", log=lambda *_: None)
    processed = rdata.read_parquet(
        [str(p) for p in sorted((tmp_path / "hpr").glob("wave_*/processed/*.parquet"))],
        columns=["url", "links"],
    )
    out = host_pagerank(processed, iters=3)
    assert len(out) > 1
    assert (out["rank_scaled"] > 0).all()
    assert out["rank_scaled"].is_monotonic_decreasing


def _tri_brute(edges_df, n):
    """trace(A^3)/6 on the dense undirected simple adjacency."""
    A = np.zeros((n, n), np.int64)
    for s, d in edges_df.itertuples(index=False):
        if s != d:
            A[s, d] = 1
            A[d, s] = 1
    return int(np.trace(A @ A @ A) // 6)


def test_triangle_count_brute_force(ray_session):
    import pandas as pd

    from abwcf_ray.stages.graph import triangle_count

    rng = np.random.default_rng(19)
    n = 40
    e = pd.DataFrame(
        {
            "src": rng.integers(0, n, 500).astype(np.int64),
            "dst": rng.integers(0, n, 500).astype(np.int64),
        }
    )
    got = triangle_count(rd.from_pandas(e).repartition(7), partitions=8)
    assert got == _tri_brute(e, n)


def test_triangle_count_known_graphs(ray_session):
    import pandas as pd

    from abwcf_ray.stages.graph import triangle_count

    # K5: C(5,3) = 10 triangles; input deliberately noisy — duplicates,
    # reciprocals, self-loops — the canonicalize step must absorb all
    k5 = [(i, j) for i in range(5) for j in range(5) if i != j]
    noisy = k5 + k5[:7] + [(2, 2), (4, 4)]
    e = pd.DataFrame(noisy, columns=["src", "dst"]).astype(np.int64)
    assert triangle_count(rd.from_pandas(e).repartition(3), partitions=4) == 10

    # star graph: no triangles
    star = pd.DataFrame(
        {"src": np.zeros(20, np.int64), "dst": np.arange(1, 21, dtype=np.int64)}
    )
    assert triangle_count(rd.from_pandas(star), partitions=4) == 0


def test_triangle_count_layout_invariance(ray_session):
    import pandas as pd

    from abwcf_ray.stages.graph import triangle_count

    rng = np.random.default_rng(23)
    n = 60
    e = pd.DataFrame(
        {
            "src": rng.integers(0, n, 900).astype(np.int64),
            "dst": rng.integers(0, n, 900).astype(np.int64),
        }
    )
    a = triangle_count(rd.from_pandas(e).repartition(1), partitions=4)
    b = triangle_count(rd.from_pandas(e).repartition(11), partitions=64)
    assert a == b == _tri_brute(e, n)


# --------------------------------------------------------------------------
# bfs_hops
# --------------------------------------------------------------------------
def _ref_bfs(src, dst, n, seeds, max_hops):
    S = max_hops + 1
    dist = np.full(n, S, np.int64)
    dist[np.asarray(seeds, np.int64)] = 0
    for _ in range(max_hops):
        cand = dist[src] + 1
        new = dist.copy()
        np.minimum.at(new, dst, cand)
        if np.array_equal(new, dist):
            break
        dist = new
    return np.where(dist >= S, -1, dist)


def _seeds_ds(seeds):
    return rd.from_arrow(
        pa.table({"node": pa.array(np.asarray(seeds, np.int64), pa.int64())})
    )


def test_bfs_hops_broadcast_matches_reference(ray_session):
    from abwcf_ray.stages.graph import bfs_hops

    src, dst = _random_graph(11, 60, 150)
    seeds = [0, 7, 41]
    out = (
        bfs_hops(_edges_ds(src, dst), _seeds_ds(seeds), n_nodes=60, max_hops=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    ref = _ref_bfs(src, dst, 60, seeds, 3)
    assert out["node"].tolist() == list(range(60))
    np.testing.assert_array_equal(out["hops"].to_numpy(), ref)
    # seeds are 0, unreached are -1 (the random graph at m=150/n=60 leaves some)
    assert (out["hops"].to_numpy()[seeds] == 0).all()


def test_bfs_hops_regime_parity_and_layout_invariance(ray_session):
    from abwcf_ray.stages.graph import bfs_hops

    src, dst = _random_graph(23, 80, 240)
    seeds = [3, 4, 77]
    ref = _ref_bfs(src, dst, 80, seeds, 4)
    for blocks in (1, 7):
        broadcast = (
            bfs_hops(
                _edges_ds(src, dst, blocks), _seeds_ds(seeds), n_nodes=80, max_hops=4
            )
            .to_pandas()
            .sort_values("node")["hops"]
            .to_numpy()
        )
        distributed = (
            bfs_hops(
                _edges_ds(src, dst, blocks),
                _seeds_ds(seeds),
                n_nodes=80,
                max_hops=4,
                broadcast_max_nodes=0,  # force the distributed regime
            )
            .to_pandas()
            .sort_values("node")["hops"]
            .to_numpy()
        )
        np.testing.assert_array_equal(broadcast, ref)
        np.testing.assert_array_equal(distributed, ref)


def test_bfs_hops_chain_graph_exact_depths(ray_session):
    from abwcf_ray.stages.graph import bfs_hops

    # 0 -> 1 -> 2 -> 3 -> 4, seed {0}: hops = index, capped at max_hops=2
    src = np.array([0, 1, 2, 3], np.int64)
    dst = np.array([1, 2, 3, 4], np.int64)
    out = (
        bfs_hops(_edges_ds(src, dst, 2), _seeds_ds([0]), n_nodes=5, max_hops=2)
        .to_pandas()
        .sort_values("node")["hops"]
        .tolist()
    )
    assert out == [0, 1, 2, -1, -1]


def _ref_hits(src, dst, n, iters, scale):
    hub = np.full(n, scale, np.int64)
    auth = np.zeros(n, np.int64)
    for _ in range(iters):
        raw = np.zeros(n, np.int64)
        np.add.at(raw, dst, hub[src])
        auth = (raw * scale) // max(int(raw.max()), 1)
        raw = np.zeros(n, np.int64)
        np.add.at(raw, src, auth[dst])
        hub = (raw * scale) // max(int(raw.max()), 1)
    return hub, auth


def test_hits_matches_reference(ray_session):
    from abwcf_ray.stages.graph import HITS_SCALE, hits

    src, dst = _random_graph(11, 60, 400)
    out = (
        hits(_edges_ds(src, dst), n_nodes=60, iters=4)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    hub, auth = _ref_hits(src, dst, 60, 4, HITS_SCALE)
    np.testing.assert_array_equal(out["hub_scaled"].to_numpy(), hub)
    np.testing.assert_array_equal(out["auth_scaled"].to_numpy(), auth)


def test_hits_layout_invariance_and_star(ray_session):
    from abwcf_ray.stages.graph import hits

    src, dst = _random_graph(13, 40, 250)
    a = (
        hits(_edges_ds(src, dst, blocks=1), n_nodes=40, iters=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    b = (
        hits(_edges_ds(src, dst, blocks=9), n_nodes=40, iters=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert a.equals(b)

    # star: all spokes point at hub 0 -> node 0 takes (almost) all
    # authority, spokes share hub mass, hub 0 has no out-edges -> hub 0
    n = 8
    ssrc = np.arange(1, n, dtype=np.int64)
    sdst = np.zeros(n - 1, np.int64)
    s = (
        hits(_edges_ds(ssrc, sdst, blocks=2), n_nodes=n, iters=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert s.loc[0, "auth_scaled"] > 0
    assert (s.loc[1:, "auth_scaled"] == 0).all()
    assert s.loc[0, "hub_scaled"] == 0
    assert s.loc[1:, "hub_scaled"].nunique() == 1


def _ref_kcore(src, dst, n, k):
    # converged peel on the undirected simple graph
    pairs = {(min(a, b), max(a, b)) for a, b in zip(src, dst) if a != b}
    alive = set(range(n))
    while True:
        deg = {v: 0 for v in alive}
        for a, b in pairs:
            if a in alive and b in alive:
                deg[a] += 1
                deg[b] += 1
        drop = {v for v in alive if deg[v] < k}
        if not drop:
            return alive
        alive -= drop


def test_kcore_matches_converged_reference(ray_session):
    from abwcf_ray.stages.graph import kcore

    src, dst = _random_graph(23, 50, 220)
    out = (
        kcore(_edges_ds(src, dst), n_nodes=50, k=3, rounds=50)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    want = _ref_kcore(src, dst, 50, 3)
    got = set(out.loc[out["in_core"] == 1, "node"].tolist())
    assert got == want


def test_kcore_triangle_with_tail(ray_session):
    from abwcf_ray.stages.graph import kcore

    # triangle 0-1-2 plus a tail 2-3-4: the 2-core is exactly the triangle
    src = np.array([0, 1, 2, 2, 3], np.int64)
    dst = np.array([1, 2, 0, 3, 4], np.int64)
    out = (
        kcore(_edges_ds(src, dst, blocks=2), n_nodes=5, k=2, rounds=5)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert out["in_core"].tolist() == [1, 1, 1, 0, 0]


# --------------------------------------------------------------------------
# sssp (weighted Bellman-Ford)
# --------------------------------------------------------------------------
def _ref_sssp(src, dst, w, n, seeds, rounds):
    INF = np.int64(1) << np.int64(62)
    dist = np.full(n, INF, np.int64)
    dist[np.asarray(seeds, np.int64)] = 0
    for _ in range(rounds):
        live = dist[src] < INF
        cand = dist[src[live]] + w[live]
        new = dist.copy()
        np.minimum.at(new, dst[live], cand)
        if np.array_equal(new, dist):
            break
        dist = new
    return np.where(dist >= INF, -1, dist)


def _wedges_ds(src, dst, w, blocks=4):
    t = pa.table(
        {
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
            "w": pa.array(w, pa.int64()),
        }
    )
    return rd.from_arrow(t).repartition(blocks)


def test_sssp_broadcast_matches_reference(ray_session):
    from abwcf_ray.stages.graph import sssp

    src, dst = _random_graph(31, 60, 150)
    w = (1 + (src * 3 + dst * 5) % 7).astype(np.int64)
    seeds = [0, 7, 41]
    out = (
        sssp(_wedges_ds(src, dst, w), _seeds_ds(seeds), n_nodes=60, rounds=5)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    ref = _ref_sssp(src, dst, w, 60, seeds, 5)
    assert out["node"].tolist() == list(range(60))
    np.testing.assert_array_equal(out["dist"].to_numpy(), ref)
    assert (out["dist"].to_numpy()[seeds] == 0).all()


def test_sssp_regime_parity_and_layout_invariance(ray_session):
    from abwcf_ray.stages.graph import sssp

    src, dst = _random_graph(41, 80, 240)
    w = (1 + (src + dst) % 4).astype(np.int64)
    seeds = [3, 4, 77]
    ref = _ref_sssp(src, dst, w, 80, seeds, 4)
    for blocks in (7,):
        broadcast = (
            sssp(
                _wedges_ds(src, dst, w, blocks),
                _seeds_ds(seeds),
                n_nodes=80,
                rounds=4,
            )
            .to_pandas()
            .sort_values("node")["dist"]
            .to_numpy()
        )
        distributed = (
            sssp(
                _wedges_ds(src, dst, w, blocks),
                _seeds_ds(seeds),
                n_nodes=80,
                rounds=4,
                broadcast_max_nodes=0,  # force the distributed regime
            )
            .to_pandas()
            .sort_values("node")["dist"]
            .to_numpy()
        )
        np.testing.assert_array_equal(broadcast, ref)
        np.testing.assert_array_equal(distributed, ref)


def test_sssp_chain_graph_takes_cheaper_long_path(ray_session):
    from abwcf_ray.stages.graph import sssp

    # 0 -> 2 direct cost 10; 0 -> 1 -> 2 cost 2+3: Bellman-Ford must
    # prefer the cheaper two-edge path once rounds >= 2.
    src = np.array([0, 0, 1], np.int64)
    dst = np.array([2, 1, 2], np.int64)
    w = np.array([10, 2, 3], np.int64)
    out = (
        sssp(_wedges_ds(src, dst, w, 2), _seeds_ds([0]), n_nodes=3, rounds=3)
        .to_pandas()
        .sort_values("node")["dist"]
        .to_numpy()
    )
    np.testing.assert_array_equal(out, [0, 2, 5])


def test_reciprocity_bruteforce(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from abwcf_ray.stages.graph import reciprocity

    rng = np.random.default_rng(53)
    n = 400
    src = rng.integers(0, 30, n).astype(np.int64)
    dst = rng.integers(0, 30, n).astype(np.int64)
    # duplicates + self-loops on purpose
    edges = set(
        (int(s), int(d)) for s, d in zip(src, dst) if s != d
    )
    n_recip_ref = sum(1 for s, d in edges if (d, s) in edges)

    df = pd.DataFrame({"src": src, "dst": dst})
    for blocks in (1, 7):
        out = reciprocity(
            rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
            .repartition(blocks),
            partitions=4,
        )
        assert out["n_edges"].tolist() == [len(edges)]
        assert out["n_recip"].tolist() == [n_recip_ref]
        assert out["reciprocity"].iloc[0] == n_recip_ref / len(edges)


def test_node_clustering_bruteforce(ray_session):
    import itertools

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from abwcf_ray.stages.graph import node_clustering

    rng = np.random.default_rng(97)
    n_edges, n_nodes = 300, 25
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    und = set(
        (min(int(s), int(d)), max(int(s), int(d)))
        for s, d in zip(src, dst)
        if s != d
    )
    adj = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    ref = {}
    for v, nb in adj.items():
        t = sum(
            1 for a, b in itertools.combinations(sorted(nb), 2)
            if (min(a, b), max(a, b)) in und
        )
        d = len(nb)
        ref[v] = (t, d, (2 * t) / (d * (d - 1)) if d >= 2 else 0.0)

    df = pd.DataFrame({"src": src, "dst": dst})
    for blocks in (1, 6):
        out = (
            node_clustering(
                rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
                .repartition(blocks),
                partitions=8,
            )
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )
        assert len(out) == len(ref)
        for row in out.itertuples():
            t, d, c = ref[int(row.node)]
            assert (row.n_tri, row.deg) == (t, d)
            assert row.clustering == c


def test_pagerank_weighted_numpy_reference(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from abwcf_ray.stages.graph import SCALE, pagerank_weighted

    rng = np.random.default_rng(107)
    n_nodes, n_edges = 40, 200
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = (1 + (src * 3 + dst * 5) % 7).astype(np.int64)

    # integer reference, identical floor-division order
    wout = np.zeros(n_nodes, np.int64)
    np.add.at(wout, src, w)
    safe = np.maximum(wout, 1)
    base = (15 * SCALE) // 100
    r = np.full(n_nodes, SCALE, np.int64)
    for _ in range(3):
        contrib = (r[src] * w) // safe[src]
        insum = np.zeros(n_nodes, np.int64)
        np.add.at(insum, dst, contrib)
        r = base + (85 * insum) // 100

    df = pd.DataFrame({"src": src, "dst": dst, "w": w})
    for blocks in (1, 5):
        out = (
            pagerank_weighted(
                rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
                .repartition(blocks),
                n_nodes=n_nodes,
                iters=3,
            )
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )
        np.testing.assert_array_equal(out["rank_scaled"].to_numpy(), r)


def test_personalized_pagerank_numpy_reference(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from abwcf_ray.stages.graph import SCALE, personalized_pagerank

    rng = np.random.default_rng(109)
    n_nodes, n_edges = 40, 180
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    seeds = np.array([0, 7, 21], np.int64)

    outdeg = np.bincount(src, minlength=n_nodes).astype(np.int64)
    safe = np.maximum(outdeg, 1)
    seed_base = (15 * SCALE * n_nodes // len(seeds)) // 100
    base_v = np.zeros(n_nodes, np.int64)
    base_v[seeds] = seed_base
    r = np.zeros(n_nodes, np.int64)
    r[seeds] = SCALE
    for _ in range(3):
        contrib = r[src] // safe[src]
        insum = np.zeros(n_nodes, np.int64)
        np.add.at(insum, dst, contrib)
        r = base_v + (85 * insum) // 100

    df = pd.DataFrame({"src": src, "dst": dst})
    for blocks in (1, 5):
        out = (
            personalized_pagerank(
                rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
                .repartition(blocks),
                n_nodes=n_nodes,
                seeds=seeds,
                iters=3,
            )
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )
        np.testing.assert_array_equal(out["rank_scaled"].to_numpy(), r)
    # non-seed mass decays toward zero reachable-only: seeds dominate
    assert out.loc[out["node"].isin(seeds), "rank_scaled"].min() > 0
