"""Shared by the chaos family tests."""

from repro.chaos import SCENARIOS


def names(family: str) -> list[str]:
    """Names of ``family``'s registry rows — what the family tests
    parametrise over, so a new row is picked up without touching them."""
    return sorted(row.name for row in SCENARIOS.values() if row.family == family)
