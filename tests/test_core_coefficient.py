"""Tests for the home access coefficient (Appendix A)."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.hockney import FAST_ETHERNET, HockneyModel
from repro.core.coefficient import home_access_coefficient


def _exact_ratio(o, d, model):
    """The first-principles definition: eliminated pair over one redirect."""
    pair = model.latency_us(1) + model.latency_us(o) + model.latency_us(d)
    redirect = 2 * model.latency_us(1)
    return pair / redirect


def test_matches_first_principles_ratio():
    model = HockneyModel(startup_us=100.0, bandwidth_mb_s=11.5)
    for o, d in [(24, 24), (8208, 4000), (1000, 10)]:
        alpha = home_access_coefficient(o, d, model.half_peak_bytes)
        assert alpha == pytest.approx(_exact_ratio(o, d, model))


def test_asymptotic_form():
    # alpha ~ 3/2 + (o+d)/(2 m_half) for m_half >> 1
    m_half = FAST_ETHERNET.half_peak_bytes
    o, d = 4096, 1024
    alpha = home_access_coefficient(o, d, m_half)
    assert alpha == pytest.approx(1.5 + (o + d) / (2 * m_half), rel=1e-3)


def test_small_object_alpha_near_three_halves():
    alpha = home_access_coefficient(24, 24, FAST_ETHERNET.half_peak_bytes)
    assert 1.4 < alpha < 1.7


def test_larger_objects_worth_more():
    m_half = FAST_ETHERNET.half_peak_bytes
    small = home_access_coefficient(100, 50, m_half)
    large = home_access_coefficient(10000, 5000, m_half)
    assert large > small


def test_alpha_orders_inversely_with_half_peak_length():
    """alpha is monotone decreasing in m_half: the longer the half-peak
    length, the more a redirection's start-up dominates and the less an
    eliminated data transfer is worth relative to it.  Note m_half is NOT
    monotone across network generations (GigE's bandwidth grew faster
    than its latency fell), so the ordering follows m_half, not age."""
    from repro.cluster.hockney import GIGABIT, MYRINET

    o, d = 1024, 256
    models = [FAST_ETHERNET, GIGABIT, MYRINET]
    by_half_peak = sorted(models, key=lambda m: m.half_peak_bytes)
    alphas = [
        home_access_coefficient(o, d, m.half_peak_bytes) for m in by_half_peak
    ]
    assert alphas == sorted(alphas, reverse=True)


@pytest.mark.parametrize(
    "o,d,m", [(0, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 0)]
)
def test_invalid_inputs_rejected(o, d, m):
    with pytest.raises(ValueError):
        home_access_coefficient(o, d, m)


@given(
    o=st.floats(min_value=1, max_value=1e8),
    d=st.floats(min_value=0, max_value=1e8),
    m=st.floats(min_value=1, max_value=1e8),
)
def test_property_alpha_always_favours_migration_benefit(o, d, m):
    """alpha > 1: one eliminated fault-in/diff pair always outweighs one
    redirection (both pay at least the same start-ups, the pair moves more
    data) — the reason the threshold can dip to its floor."""
    assert home_access_coefficient(o, d, m) > 1.0


@given(
    o1=st.floats(min_value=1, max_value=1e8),
    o2=st.floats(min_value=1, max_value=1e8),
    d=st.floats(min_value=0, max_value=1e8),
    m=st.floats(min_value=1, max_value=1e8),
)
def test_property_alpha_monotone_in_object_size(o1, o2, d, m):
    lo, hi = sorted((o1, o2))
    assert home_access_coefficient(lo, d, m) <= home_access_coefficient(
        hi, d, m
    )
