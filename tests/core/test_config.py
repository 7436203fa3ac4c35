"""Configuration arithmetic and validation."""

import dataclasses

import pytest

from repro.config import (
    INDEX_HEAP_FRACTION,
    READ_CACHE_HEAP_FRACTION,
    GiB,
    LogBaseConfig,
)
from repro.dfs.filesystem import DEFAULT_BLOCK_SIZE


def test_defaults_match_paper():
    config = LogBaseConfig()
    assert config.replication == 3
    assert DEFAULT_BLOCK_SIZE == 64 * 1024 * 1024
    assert config.segment_size == 64 * 1024 * 1024
    assert INDEX_HEAP_FRACTION == 0.40
    assert READ_CACHE_HEAP_FRACTION == 0.20


def test_option_count_ratchet():
    """A new knob has to change a number here, in its own diff."""
    fields = dataclasses.fields(LogBaseConfig)
    assert len(fields) == 45
    assert sum(1 for f in fields if f.type == "bool") == 16
    assert sum(1 for name in vars(LogBaseConfig) if name.startswith("with_")) == 8


def test_budget_arithmetic():
    config = LogBaseConfig(heap_bytes=GiB)
    assert config.index_budget_bytes == int(0.40 * GiB)
    assert config.cache_budget_bytes == int(0.20 * GiB)


def test_paper_index_capacity_estimate():
    """§3.5: 40% of 1 GB heap holds ~17 million 24-byte entries."""
    config = LogBaseConfig(heap_bytes=GiB)
    entries = config.index_budget_bytes // 24
    assert 16_000_000 < entries < 18_500_000


def test_validate_accepts_defaults():
    LogBaseConfig().validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"replication": 0},
        {"index_kind": "hash"},
        {"max_versions": 0},
    ],
)
def test_validate_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        LogBaseConfig(**kwargs).validate()
