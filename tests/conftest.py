"""Shared test configuration and helpers."""

import math

from hypothesis import HealthCheck, settings

# Property tests exercise real subsystem code (graph builds, SQL
# execution); wall-clock deadlines make them flaky on loaded machines.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def matches_number(answer, expected, rel_tol=1e-4):
    """True when *answer*'s numeric value (a lone list item unwrapped)
    equals *expected*."""
    value = answer.value
    if isinstance(value, (list, tuple)) and len(value) == 1:
        value = value[0]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isclose(float(value), expected, rel_tol=rel_tol,
                        abs_tol=1e-9)
