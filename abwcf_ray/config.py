"""Configuration for the crawl engine.

Mirrors the reference's HOCON tunables (`/root/reference/src/main/resources/
reference.conf:8-251`) as a Python dataclass; keys keep the reference's
meaning but are re-expressed for the wave model (see SURVEY.md §3.4): the
wall-clock politeness window becomes a virtual per-wave budget, and the
reference's actor-pool sizes become task fan-outs sized to the cluster's
CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class NormalizationConfig:
    """URL-normalizer switches (reference.conf:101-113 `abwcf.actors.url-normalizer`)."""

    remove_userinfo: bool = True
    remove_query: bool = False
    remove_fragment: bool = True


# The all-remove config used by the reference's conformance spec
# (UrlNormalizationServiceSpec.scala:9).
STRICT_NORMALIZATION = NormalizationConfig(
    remove_userinfo=True, remove_query=True, remove_fragment=True
)


@dataclass(frozen=True)
class CrawlConfig:
    """Full crawl configuration (wave model).

    Reference key mapping (reference.conf):
      - max_crawl_depth           <- abwcf.actors.crawl-depth-limiter.max-crawl-depth (:19)
      - max_url_length            <- abwcf.actors.url-filter.max-url-length (:90)
      - must_match/must_not_match <- abwcf.actors.url-filter.* (:96-99)
      - normalization             <- abwcf.actors.url-normalizer.* (:101-113)
      - user_agents               <- abwcf.robots.user-agents (:205)
      - default/min/max_crawl_delay_ms <- abwcf.robots.*-crawl-delay (:211-219)
      - valid/unavailable/unreachable_rules_lifetime_s <- abwcf.robots.*-rules-lifetime (:221-230)
      - robots_max_redirects      <- abwcf.robots.fetching.max-redirects (:242)
      - robots_max_bytes          <- abwcf.robots.fetching.max-content-length (:237)
      - max_content_length        <- abwcf.fetching.max-content-length (:132)

    Wave-model additions (SURVEY.md §2 D2, §3.4):
      - wave_duration_s: the politeness window; per-wave per-host fetch budget
        k_h = max(1, floor(wave_duration_s / crawl_delay_h)).
      - seen_shards: the seen-set partitioning knob (None: one seen-set
        shard actor per cluster CPU).
    """

    # Scope / filtering
    max_crawl_depth: int = 2**31 - 1
    max_url_length: int = 2048
    must_match: tuple[str, ...] = (".*",)
    must_not_match: tuple[str, ...] = ()
    normalization: NormalizationConfig = field(default_factory=NormalizationConfig)

    # Robots / politeness
    user_agents: tuple[str, ...] = ()
    default_crawl_delay_ms: int = 1_000
    min_crawl_delay_ms: int = 0
    max_crawl_delay_ms: int = 20_000
    valid_rules_lifetime_s: int = 24 * 3600
    unavailable_rules_lifetime_s: int = 24 * 3600
    unreachable_rules_lifetime_s: int = 3600
    robots_max_redirects: int = 5
    robots_max_bytes: int = 500 * 1024

    # Fetching
    max_content_length: int = 1_000_000  # 1 MB body cap (reference.conf:132)

    # Wave model
    wave_duration_s: float = 10.0
    max_waves: int = 1_000_000
    max_pages: int = 2**63 - 1  # total fetched-page budget

    # Partitioning / parallelism (derive from cluster size where possible).
    # Seen-set shard actors; None = the cluster's CPU count at run start.
    # A resume may change it: the shards are reloaded from the frontier
    # chain and routed by the new count (pipelines/crawl._resume).
    seen_shards: int | None = None
    # URL-seen membership backend: "exact" (sorted uint64 hash + wave per
    # url, 12 B/url, zero error) or "cuckoo" (the north star's sharded
    # cuckoo-filter seen set, state/cuckoo.py: ~2.4 B/url — ~24 GB vs
    # ~120 GB cluster-wide at 10^10 urls — with a ≈1.2e-4 false-positive
    # rate = bounded under-crawl, never a re-crawl). Same wave-versioned
    # retry contract either way.
    seen_backend: str = "exact"
    # per-SHARD cuckoo capacity: size to expected_seen_urls / seen_shards
    # (e.g. 10^10 urls / 256 shards -> 40M; the table is ~2.8 B x capacity)
    seen_cuckoo_capacity: int = 4_000_000

    # Cross-wave novel-content filter (stages/novel.py): when True, each
    # wave additionally writes wave_N/novel/ — the processed html rows
    # whose extracted text was never seen in ANY earlier wave (content-hash
    # seen set sharded like the URL seen set; min-url winner within the
    # wave). Off by default: the reference consumes every fetch.
    dedup_content: bool = False

    # Frontier checkpoint model: each wave appends a DELTA (new Discovered
    # rows) plus a flips file (politeness-bounded status changes) instead of
    # rewriting the frontier — O(changed) per wave, the Ray analog of the
    # reference's batched ``UPDATE pages SET status``
    # (SlickPageRepository.scala:37-51). Once the chain holds this many
    # deltas, the wave folds base+deltas+flips into a fresh materialized
    # frontier (bounds read fan-in and the broadcast flips array).
    frontier_compact_every: int = 8
    # hard bound on the broadcast flips array, in cumulative flip hashes
    # (8 B each): compaction also fires once the chain's flips exceed this
    # many entries, regardless of delta count — a 10^7-page wave cadence
    # cannot grow the broadcast past ~this x 8 bytes (~128 MB at the
    # default) between compactions (round-3 VERDICT 'Next round' #8)
    frontier_compact_max_flips: int = 16_000_000

    # E2 — bandwidth split (reference.conf:137,144; FetcherManager.scala:66):
    # the reference divides a per-node bandwidth budget among fetchers and
    # caps concurrent fetchers at total // min-per-fetcher (5 MB/s /
    # 200 kB/s -> <= 25). A fetch-sim has no wall-clock bandwidth to
    # throttle, but the budget's BINDING consequence — the concurrent-
    # fetcher cap — is enforced for real: when a budget is set, at most the
    # derived max fetchers fetch tasks run at once (recorded in the wave
    # manifest), whichever transport fetches. None = uncapped (sim
    # default). Results are identical either way; only fetch parallelism
    # changes.
    total_bandwidth_budget_bps: int | None = None
    min_bandwidth_per_fetcher_bps: int = 200_000

    # A2 fetch transport (Fetcher.scala:74-188 factored behind
    # stages/transport.FetchTransport — round-4 verdict #3): a zero-arg
    # CALLABLE returning the FetchTransport every wave fetches its url
    # chunks through, one task per chunk through the fused tee, the
    # transport built once per worker process — e.g.
    # ``lambda: HTTPTransport(bytes_per_sec=200_000)`` for a real crawl.
    # None (default) = CorpusTransport over the corpus's hashed layout
    # (built at run start if missing or invalid), with max_content_length
    # as its body cap. Redirect/cap/failure-class semantics live in the
    # transport; the wave machinery is transport-agnostic.
    fetch_transport: object = None
    # A3 robots transport (RobotsFetcher.scala:56-138 behind the same
    # seam): None = corpus sim; a zero-arg CALLABLE returning a batch
    # stage with RobotsFetchSim's contract (host+now_s rows -> parsed
    # host rows) — e.g. ``lambda: HTTPRobotsFetcher(cfg)`` for a real
    # crawl. Classification is SHARED (state/hosts.robots_rows_from_records),
    # so outcome semantics cannot drift between transports.
    robots_transport: object = None
    # the smallest url chunk a wave splits off for one fetch task: a wave
    # runs min(ceil(n_selected / fetch_transport_batch_size), 2·CPUs)
    # chunks, at least one, so a wave of at most this many urls is one task
    # and a large wave spreads over the cluster in 2·CPUs chunks
    fetch_transport_batch_size: int = 256

    # Priority function: "breadth_first_hash" (deterministic default),
    # "breadth_first", "depth_first", "random" (seeded) — or a CALLABLE
    # ``batch(pa.Table[url, host, depth]) -> int64 ndarray`` (the rebuild of
    # UserCode.createPrioritizer, UserCode.scala:34-35).
    priority_fn: object = "breadth_first_hash"
    priority_seed: int = 42

    # Fetch-result consumer hook (UserCode.createFetchResultConsumer,
    # UserCode.scala:68-69): a callable ``(url, html_bytes) -> str`` that
    # replaces the default h1/p text extraction. None -> default extractor.
    consume_fn: object = None
