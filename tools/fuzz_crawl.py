"""Run the differential config fuzz of ``tests/test_crawl_fuzz.py`` with
more examples than the test suite's derandomized ten.

    python tools/fuzz_crawl.py --examples 200 --seed 7

Each example crawls a drawn small corpus under a drawn ``CrawlConfig``
(optionally stopping and resuming) on a 4-CPU local Ray session and checks
it against the single-process oracle with the benchmark gate's four checks.
Without ``--seed`` the run is derandomized (the same examples every time).
Stops at the first failure and prints the shrunk example; turn each failure
into a named regression test.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--examples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=None)
    a = ap.parse_args()
    os.environ["ABWCF_FUZZ_EXAMPLES"] = str(a.examples)
    if a.seed is not None:
        os.environ["ABWCF_FUZZ_SEED"] = str(a.seed)
    import pytest

    root = Path(__file__).resolve().parent.parent
    return pytest.main(
        [
            str(root / "tests" / "test_crawl_fuzz.py"),
            "-q",
            "-x",
            "-p",
            "no:cacheprovider",
            "--rootdir",
            str(root),
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
