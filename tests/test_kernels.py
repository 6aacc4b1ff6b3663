"""Constant-product kernels: exact integer quotes and grid scans."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xdmev import _kernels


def test_swap_out_known_value():
    # doubling the input reserve halves the output reserve
    out = _kernels.swap_out(100 * 10**18, 2000 * 10**18, 100 * 10**18, 0)
    assert out == 1000 * 10**18


def test_swap_out_dust_rounds_to_zero():
    assert _kernels.swap_out(10**24, 1, 1, 0) == 0


def test_grid_scan_rejects_degenerate_input():
    with pytest.raises(ValueError):
        _kernels.grid_scan(1, 1, 1, 1, 0, 0, 0, 10, 1)
    with pytest.raises(ValueError):
        _kernels.grid_scan(1, 1, 1, 1, 0, 0, 10, 10, 5)


def test_grid_scan_prefers_smallest_amount_on_ties():
    # a hopeless pair: every amount loses; profit -dx is maximized at lo
    amount, profit = _kernels.grid_scan(10**18, 10**18, 10**18, 10**18, 0, 0, 0, 10**18, 11)
    assert amount == 0
    assert profit == 0


def ceil_kept_swap_out(reserve_in, reserve_out, amount_in, fee_bps):
    """The quote as the invariant states it: the pool keeps ceil(k / denom)."""
    if amount_in <= 0:
        return 0
    amount_eff = amount_in * (10_000 - fee_bps) // 10_000
    if amount_eff <= 0:
        return 0
    kept = -(-(reserve_in * reserve_out) // (reserve_in + amount_eff))
    return max(reserve_out - kept, 0)


UNITS = st.integers(min_value=0, max_value=10**40)


@settings(max_examples=2000, deadline=None)
@given(UNITS, UNITS, st.integers(min_value=-(10**3), max_value=10**40),
       st.integers(min_value=0, max_value=10_000))
@example(1, 1, 1, 0)
@example(10**24, 1, 1, 0)
@example(3, 7, 5, 9_999)
def test_swap_out_floors_what_the_pool_does_not_keep(reserve_in, reserve_out, amount_in, fee_bps):
    # reserve_out - ceil(k / denom) == floor(reserve_out * amount_eff / denom)
    assert _kernels.swap_out(reserve_in, reserve_out, amount_in, fee_bps) == ceil_kept_swap_out(
        reserve_in, reserve_out, amount_in, fee_bps
    )
