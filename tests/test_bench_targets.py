"""The benchmark wraps btwifi functions by name (bench/spans.py).  A target
that is renamed or deleted is dropped from the per-layer metrics without an
error, so this guard fails instead."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_benchmark_span_target_exists():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    missing = [name for owner, _, name in spans.targets() if owner is None]
    assert missing == []
