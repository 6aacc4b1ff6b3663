"""Constant-product kernels.

All quantities are raw fixed-point units (ints scaled by 10^18).

Output rounding is always adversary-unfavorable: the pool keeps the
remainder, never the trader.
"""

from __future__ import annotations

from .fixedpoint import div_half_even

BPS_DENOM = 10_000


def swap_out(reserve_in: int, reserve_out: int, amount_in: int, fee_bps: int) -> int:
    """Output units for a constant-product swap, rounded down.

    Returns 0 when the input is too small to buy a single unit; callers
    translate that into an insufficient-liquidity error.
    """
    if amount_in <= 0:
        return 0
    amount_eff = amount_in * (BPS_DENOM - fee_bps) // BPS_DENOM
    if amount_eff <= 0:
        return 0
    # reserve_out - ceil(k / denom) with k = reserve_in * reserve_out and
    # denom = reserve_in + amount_eff, in one floor division: the pool
    # keeps ceil(k / denom), so the invariant never decreases
    return reserve_out * amount_eff // (reserve_in + amount_eff)


def round_trip_profit(
    buy_rin: int,
    buy_rout: int,
    sell_rin: int,
    sell_rout: int,
    buy_fee_bps: int,
    sell_fee_bps: int,
    amount_in: int,
) -> int:
    """Profit units of buy-then-sell across two pools for a given input.

    ``buy_rin``/``buy_rout`` are the buy pool's reserves seen from the
    input asset; the intermediate output is sold into the second pool.
    Negative results are meaningful (the trade loses money).
    """
    mid = swap_out(buy_rin, buy_rout, amount_in, buy_fee_bps)
    if mid <= 0:
        return -amount_in
    back = swap_out(sell_rin, sell_rout, mid, sell_fee_bps)
    return back - amount_in


def grid_scan(
    buy_rin: int,
    buy_rout: int,
    sell_rin: int,
    sell_rout: int,
    buy_fee_bps: int,
    sell_fee_bps: int,
    lo: int,
    hi: int,
    points: int,
) -> tuple[int, int]:
    """Best (amount, profit) over an evenly spaced grid of input amounts.

    Grid positions are round-half-even to whole units; ties on profit keep
    the smallest amount. ``points`` must be >= 2 and ``hi > lo``.
    """
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    if hi <= lo:
        raise ValueError("grid interval is empty")
    span = hi - lo
    steps = points - 1
    best_amount = lo
    best_profit = round_trip_profit(
        buy_rin, buy_rout, sell_rin, sell_rout, buy_fee_bps, sell_fee_bps, lo
    )
    for k in range(1, points):
        amount = div_half_even(lo * steps + span * k, steps)
        profit = round_trip_profit(
            buy_rin, buy_rout, sell_rin, sell_rout, buy_fee_bps, sell_fee_bps, amount
        )
        if profit > best_profit:
            best_profit = profit
            best_amount = amount
    return best_amount, best_profit
