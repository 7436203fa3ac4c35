"""The installed package imports only the standard library and itself:
``pyproject.toml`` declares no runtime dependencies."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"


def _run(script: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


def test_import_loads_only_stdlib_and_repro():
    out = _run(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'repro'}))\n"
    )
    assert out.strip() == "[]"


def test_import_succeeds_without_networkx():
    out = _run(
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "from repro.core.workload_partition import WorkloadPartitioner\n"
        "print(WorkloadPartitioner(2).partition([{b'a', b'b'}, {b'c'}]).n_partitions)\n"
    )
    assert out.strip() == "2"


def test_import_loads_no_openssl_hashlib():
    # Nothing imports ``hashlib``, which would load OpenSSL (~3.5 MB of
    # RSS) into every process; frame memo keys are the built-in ``hash()``.
    out = _run(
        "import sys\n"
        "import repro\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    assert out.strip() == "[]"
