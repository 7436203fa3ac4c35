"""Control arm for the histogram-backed chaos percentiles: the report's
p50/p99/max must be identical to the list-based nearest-rank computation
the histogram replaced (:func:`_percentile`, kept here as the reference)."""

import repro.chaos.workload as workload
from repro.chaos import run_scenario
from repro.chaos.gray import control_config
from repro.obs.hist import Histogram


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def test_control_arm_percentiles_match_list_computation(monkeypatch):
    captured = []

    class RecordingHistogram(Histogram):
        """The real histogram, additionally keeping the raw samples so
        the old list-based computation can run beside it."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.samples = []
            captured.append(self)

        def record(self, value):
            self.samples.append(value)
            super().record(value)

    monkeypatch.setattr(workload, "Histogram", RecordingHistogram)
    report = run_scenario(
        "gray/limp-datanode-mid-scan", seed=1, ops=60, config=control_config()
    )
    assert report.passed, report.violations

    (hist,) = captured
    samples = hist.samples
    observed = report.observed
    assert observed["reads"] == len(samples) > 0
    assert observed["read_p50"] == _percentile(samples, 0.50)
    assert observed["read_p99"] == _percentile(samples, 0.99)
    assert observed["read_max"] == max(samples)
