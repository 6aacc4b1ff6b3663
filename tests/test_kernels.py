"""Constant-product kernels: exact integer quotes and grid scans."""

import pytest

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
