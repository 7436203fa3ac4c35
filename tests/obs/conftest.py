"""Hook hygiene: the tracer (with the clock observer it installs) and the
fault observer are process-wide state, and process-wide state must not leak
between tests, so every obs test tears both down; later tests — including
untraced seed benchmarks — stay unobserved."""

import pytest

from repro.obs.trace import uninstall_tracer
from repro.sim.failure import clear_fault_observer


@pytest.fixture(autouse=True)
def _clean_hooks():
    yield
    uninstall_tracer()
    clear_fault_observer()
