"""The end-to-end metric table and the percentile rule.

The system has two clocks and every number names its own: ``sim`` is
simulated seconds from the device cost model (repeats exactly for a
seed), ``host`` is ``time.perf_counter()`` of the Python process.
"""

from __future__ import annotations

import math

# name -> (unit, clock, better)
END_TO_END = {
    "setup_s": ("s", "host", "lower"),
    "host_ops_per_s": ("1/s", "host", "higher"),
    "host_ops_per_ref_s": ("1/s", "host", "higher"),
    "host_peak_rss_mb": ("MB", "host", "lower"),
    "sim_ops_per_s": ("1/s", "sim", "higher"),
    "sim_read_p50_ms": ("ms", "sim", "lower"),
    "sim_read_p99_ms": ("ms", "sim", "lower"),
    "sim_update_p50_ms": ("ms", "sim", "lower"),
    "sim_update_p99_ms": ("ms", "sim", "lower"),
    "sim_scan_p50_ms": ("ms", "sim", "lower"),
    "sim_scan_p95_ms": ("ms", "sim", "lower"),
    "sim_txn_p50_ms": ("ms", "sim", "lower"),
    "sim_txn_p95_ms": ("ms", "sim", "lower"),
    "sim_write_amp": ("ratio", "sim", "lower"),
    "sim_recovery_s": ("s", "sim", "lower"),
    "sim_migration_flip_ms": ("ms", "sim", "lower"),
    "failed_op_ratio": ("ratio", "sim", "lower"),
}

# A percentile is reported only with at least ten samples beyond it.
MIN_SAMPLES = {0.50: 1, 0.95: 200, 0.99: 1000}
TAIL = {"read": 0.99, "update": 0.99, "scan": 0.95, "txn": 0.95}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses a sample too small to support it."""
    if len(samples) < MIN_SAMPLES[q]:
        raise ValueError(
            f"p{round(q * 100)} needs {MIN_SAMPLES[q]} samples, got {len(samples)}"
        )
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def latency_metrics(op_class: str, seconds: list[float]) -> dict[str, float]:
    """``sim_<class>_p50_ms`` and the class's tail percentile, each only
    where the sample supports it (an unsupported one is omitted, not 0)."""
    out = {}
    for q in (0.50, TAIL[op_class]):
        if len(seconds) >= MIN_SAMPLES[q]:
            out[f"sim_{op_class}_p{round(q * 100)}_ms"] = 1000.0 * percentile(seconds, q)
    return out


def format_metric(
    name: str, value: float, unit: str, clock: str, samples: dict[str, int] | None = None
) -> str:
    """One human-readable report line: name, value, unit, clock, and for
    a latency metric the sample count of its op class."""
    n = (samples or {}).get(name.split("_")[1]) if "_" in name else None
    count = f"  n={n}" if n is not None else ""
    return f"  {name:<46} {value:>16.6f} {unit:<6} [{clock}]{count}"
