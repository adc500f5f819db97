"""Synthetic 10^6-host host-prep microbench (round-2 VERDICT 'Next round'
#8): measures the driver-side hosts-table operations a wave performs —
merge_fetched of a fetched batch, rules_payload / sched_payload over the
full live table, checkpoint + restore — at 1M hosts, and prints one JSON
line. Run: python tools/bench_hosts.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pyarrow as pa

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from abwcf_ray.config import CrawlConfig
from abwcf_ray.state.hosts import HostsState

N_HOSTS = 1_000_000


def main() -> None:
    cfg = CrawlConfig()
    hosts = [f"https://h{i}.example" for i in range(N_HOSTS)]
    rules = [
        "disallow: /private/\nallow: /private/ok" if i % 3 else ""
        for i in range(N_HOSTS)
    ]
    table = pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "rule_mode": pa.array(
                ["ALLOW_SOME" if i % 3 else "ALLOW_ALL" for i in range(N_HOSTS)]
            ),
            "robot_rules": pa.array(rules, pa.string()),
            "crawl_delay_ms": pa.array([1000] * N_HOSTS, pa.int64()),
            "valid_until_s": pa.array([86400.0] * N_HOSTS, pa.float64()),
            "outcome": pa.array(["ok"] * N_HOSTS, pa.string()),
        }
    )
    out = {}
    state = HostsState(cfg)

    t0 = time.perf_counter()
    state.merge_fetched(table)
    out["merge_fetched_1m_s"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    payload = state.rules_payload(now_s=0.0)
    out["rules_payload_1m_s"] = round(time.perf_counter() - t0, 3)
    out["payload_hosts"] = len(payload["hash"])

    t0 = time.perf_counter()
    state.sched_payload(now_s=0.0, wave_duration_s=10.0)
    out["sched_payload_1m_s"] = round(time.perf_counter() - t0, 3)

    # the broadcast filters' hidden per-WORKER cost, paid once per wave:
    # building _HostRulesIndex (flat rule table + compiled regexes) over
    # the whole live table
    from abwcf_ray.stages.transform import _HostRulesIndex

    t0 = time.perf_counter()
    _HostRulesIndex(payload)
    out["rules_index_full_1m_s"] = round(time.perf_counter() - t0, 3)
    import pickle

    out["rules_payload_pickle_mb"] = round(len(pickle.dumps(payload)) / 1e6, 1)

    t0 = time.perf_counter()
    state.missing_or_expired(hosts[:100_000], now_s=0.0)
    out["missing_or_expired_100k_s"] = round(time.perf_counter() - t0, 3)

    ckpt = Path("/tmp/abwcf_hosts_bench.parquet")
    t0 = time.perf_counter()
    state.checkpoint(ckpt)
    out["checkpoint_1m_s"] = round(time.perf_counter() - t0, 3)

    state2 = HostsState(cfg)
    t0 = time.perf_counter()
    state2.restore(ckpt)
    out["restore_1m_s"] = round(time.perf_counter() - t0, 3)

    # the wave-path host ledger at 1M hosts (columnar; crawl._HostLedger)
    from abwcf_ray.pipelines.crawl import _HostLedger
    import numpy as np

    t0 = time.perf_counter()
    led = _HostLedger.from_counts(hosts, np.ones(N_HOSTS, np.int64))
    out["ledger_build_1m_s"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    led.apply(hosts[:5000], -np.ones(5000, np.int64))  # a politeness wave
    eligible_hosts, n_eligible = led.eligible()
    led.prune()
    out["ledger_wave_update_1m_s"] = round(time.perf_counter() - t0, 3)
    assert n_eligible == N_HOSTS - 5000

    print(json.dumps(out))


if __name__ == "__main__":
    main()
