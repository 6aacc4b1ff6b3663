"""Pool, bridge, and pending-transaction mechanics."""

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import one_domain_doc, scen
from xdmev.actions import KIND_SWAP, apply_action, max_feasible_amount, resolve_amount
from xdmev.engine import mev_oracle
from xdmev.errors import (
    AlreadyConsumed,
    FeeExceedsOutput,
    InsufficientBalance,
    InsufficientLiquidity,
    InvalidAmount,
    PriceMismatch,
    PricesEqual,
    UnknownPool,
    XdmevError,
)
from xdmev.fixedpoint import SCALE, Amount
from xdmev.model import CREDIT, DEBIT, Registry, WorldState
from xdmev.scenario import BUNDLED_NAMES, load_bundled
from xdmev.venues import (
    ArbLegEffect,
    BridgeSpec,
    ConstantProductPool,
    CpSwapEffect,
    LegOpportunity,
    PendingTx,
    PricePushEffect,
    StylizedArbSpec,
    StylizedMidpointPool,
    TransferEffect,
    apply_bridge,
    apply_pending_tx,
    apply_stylized_arb,
    apply_stylized_fill,
    apply_swap,
    bridge_output,
    quote_swap,
)


def cp(pool_id="pool", rx="100", ry="2000", fee=0, domain="dex"):
    return ConstantProductPool(
        id=pool_id, domain=domain, asset_x="ETH", asset_y="DAI",
        reserve_x=Amount(rx), reserve_y=Amount(ry), fee_bps=fee,
    )


def mid(pool_id, price, domain="i"):
    return StylizedMidpointPool(
        id=pool_id, domain=domain, asset_x="ETH", asset_y="DAI", price=Amount(price)
    )


def state_with(pools, balances=None):
    """A state holding ``pools`` and ``balances``, a map of nonzero ``Amount``s
    that the state stores as int units."""
    registry = Registry(
        native_assets={"dex": "DAI", "i": "ETH", "j": "ETH"},
        players=frozenset({"P", "whale"}),
        assets=frozenset({"ETH", "DAI"}),
        pool_ids=frozenset(p.id for p in pools),
    )
    units = {key: amount.units for key, amount in (balances or {}).items()}
    return WorldState(registry, units, {p.id: p for p in pools})


class TestQuoteSwap:
    def test_doubling_input_reserve_halves_output(self):
        assert quote_swap(cp(), "x_to_y", Amount("100")) == Amount("1000")

    def test_round_trip_never_profits(self):
        pool = cp()
        out = quote_swap(pool, "x_to_y", Amount("3"))
        back = quote_swap(
            ConstantProductPool(
                id="after", domain="dex", asset_x="ETH", asset_y="DAI",
                reserve_x=pool.reserve_x + Amount("3"), reserve_y=pool.reserve_y - out,
            ),
            "y_to_x",
            out,
        )
        assert back <= Amount("3")

    def test_fee_quote_matches_integer_oracle(self):
        # independent evaluation of the swap formula with exact integers:
        # out = R_out - ceil(R_in * R_out / (R_in + in * (1 - fee)))
        pool = cp(fee=30)
        amount_in = Amount("1")
        rin, rout = 100 * SCALE, 2000 * SCALE
        eff = amount_in.units * (10_000 - 30) // 10_000
        expected = rout - (-(-(rin * rout) // (rin + eff)))
        assert quote_swap(pool, "x_to_y", amount_in) == Amount.from_units(expected)

    def test_zero_and_negative_amounts_rejected(self):
        with pytest.raises(InvalidAmount):
            quote_swap(cp(), "x_to_y", Amount("0"))
        with pytest.raises(InvalidAmount):
            quote_swap(cp(), "x_to_y", Amount("-1"))

    def test_dust_input_is_insufficient_liquidity(self):
        pool = cp(rx="1000000", ry="0.000000000000000005")
        with pytest.raises(InsufficientLiquidity):
            quote_swap(pool, "x_to_y", Amount.from_units(1))

    def test_quote_leaves_pool_unchanged(self):
        pool = cp()
        quote_swap(pool, "x_to_y", Amount("1"))
        assert pool.reserve_x == Amount("100") and pool.reserve_y == Amount("2000")


class TestApplySwap:
    def test_zero_amount_rejected_state_unchanged(self):
        s = state_with([cp()], {("dex", "P", "ETH"): Amount("1")})
        with pytest.raises(InvalidAmount):
            apply_swap(s, "P", "pool", "x_to_y", Amount("0"))
        assert s.balance("dex", "P", "ETH") == Amount("1")

    def test_exact_balance_boundary(self):
        s = state_with([cp()], {("dex", "P", "ETH"): Amount("2")})
        s2 = apply_swap(s, "P", "pool", "x_to_y", Amount("2"))
        assert s2.balance("dex", "P", "ETH") == Amount("0")
        assert s2.balance("dex", "P", "DAI") > Amount("0")

    def test_insufficient_balance(self):
        s = state_with([cp()], {("dex", "P", "ETH"): Amount("1")})
        with pytest.raises(InsufficientBalance):
            apply_swap(s, "P", "pool", "x_to_y", Amount("1.5"))

    def test_path_independence_up_to_one_unit(self):
        # sequential a then b vs one swap of a+b, fee 0, checked exactly
        a, b = Amount("3"), Amount("4")
        balances = {("dex", "P", "ETH"): Amount("10")}
        s_split = apply_swap(state_with([cp()], dict(balances)), "P", "pool", "x_to_y", a)
        s_split = apply_swap(s_split, "P", "pool", "x_to_y", b)
        s_once = apply_swap(state_with([cp()], dict(balances)), "P", "pool", "x_to_y", a + b)
        rx_split = s_split.pool("pool").reserve_x
        rx_once = s_once.pool("pool").reserve_x
        ry_split = s_split.pool("pool").reserve_y
        ry_once = s_once.pool("pool").reserve_y
        assert rx_split == rx_once
        assert abs(ry_split - ry_once) <= Amount.from_units(1)

    def test_invariant_preserved_within_one_unit_zero_fee(self):
        s = state_with([cp()], {("dex", "P", "ETH"): Amount("7")})
        before = s.pool("pool")
        after = apply_swap(s, "P", "pool", "x_to_y", Amount("7")).pool("pool")
        k_before = before.reserve_x.units * before.reserve_y.units
        k_after = after.reserve_x.units * after.reserve_y.units
        # the pool keeps the rounding remainder: k never decreases, and the
        # output reserve sits within one unit of the exact curve
        assert 0 <= k_after - k_before < after.reserve_x.units

    def test_conservation_touches_only_pool_and_player(self):
        s = state_with(
            [cp(), cp("other", "50", "900")],
            {("dex", "P", "ETH"): Amount("5"), ("dex", "whale", "DAI"): Amount("9")},
        )
        s2 = apply_swap(s, "P", "pool", "x_to_y", Amount("5"))
        assert s2.pool("other") == s.pool("other")
        assert s2.balance("dex", "whale", "DAI") == Amount("9")

    def test_moved_pool_equals_and_hashes_as_a_built_one(self):
        s = state_with([cp()], {("dex", "P", "ETH"): Amount("100")})
        moved = apply_swap(s, "P", "pool", "x_to_y", Amount("100")).pool("pool")
        built = cp(rx="200", ry="1000")
        assert type(moved) is ConstantProductPool
        assert moved == built and hash(moved) == hash(built)


DUST_POOLS = {
    "x_to_y": cp(rx="1000000", ry="0.000000000000000005"),
    "y_to_x": cp(rx="0.000000000000000005", ry="1000000"),
}


class TestApplySwapErrorsMatchQuote:
    """``apply_swap`` rejects a swap with ``quote_swap``'s exception type,
    message and check order (amount before direction)."""

    @pytest.mark.parametrize(
        "pool, direction, amount",
        [
            *[(cp(), d, a) for d in ("x_to_y", "y_to_x") for a in ("0", "-1")],
            (cp(), "sideways", "1"),
            (cp(), "sideways", "0"),
            *[(pool, d, "0.000000000000000001") for d, pool in DUST_POOLS.items()],
        ],
        ids=["x_zero", "x_negative", "y_zero", "y_negative", "unknown_direction",
             "unknown_direction_zero", "x_dust", "y_dust"],
    )
    def test_same_error_as_quote(self, pool, direction, amount):
        s = state_with([pool], {("dex", "P", "ETH"): Amount("5"), ("dex", "P", "DAI"): Amount("5")})
        expected = _outcome(quote_swap, pool, direction, Amount(amount))
        assert isinstance(expected, tuple)
        assert _outcome(apply_swap, s, "P", "pool", direction, Amount(amount)) == expected
        if (direction, amount) == ("sideways", "0"):
            assert expected == (InvalidAmount, "swap amount must be positive, got 0")


class TestStylizedFill:
    def test_fill_at_price_both_directions(self):
        pool = mid("m", "20", domain="i")
        s = state_with([pool], {("i", "P", "ETH"): Amount("2"), ("i", "P", "DAI"): Amount("100")})
        s2 = apply_stylized_fill(s, "P", "m", "x_to_y", Amount("2"))
        assert s2.balance("i", "P", "DAI") == Amount("140")
        s3 = apply_stylized_fill(s, "P", "m", "y_to_x", Amount("100"))
        assert s3.balance("i", "P", "ETH") == Amount("7")

    def test_fill_does_not_move_the_quote(self):
        pool = mid("m", "20")
        s = state_with([pool], {("i", "P", "ETH"): Amount("1")})
        s2 = apply_stylized_fill(s, "P", "m", "x_to_y", Amount("1"))
        assert s2.pool("m").price == Amount("20")


class TestStylizedArb:
    def spec(self, profit="1"):
        return StylizedArbSpec(
            id="arb", pool_a="uni", pool_b="toro",
            declared_profit=Amount(profit), profit_asset="ETH", profit_domain="i",
        )

    def test_two_pool_example(self):
        s = state_with([mid("uni", "30", "i"), mid("toro", "20", "j")])
        s2 = apply_stylized_arb(s, "P", self.spec())
        assert s2.pool("uni").price == Amount("25")
        assert s2.pool("toro").price == Amount("25")
        assert s2.balance("i", "P", "ETH") == Amount("1")

    def test_four_pool_rebalance_pairs(self):
        s = state_with(
            [mid("uni", "25", "i"), mid("sushi", "25", "i"),
             mid("toro", "20", "j"), mid("unagi", "20", "j")]
        )
        first = StylizedArbSpec("a1", "uni", "toro", Amount("0.3"), "ETH", "i")
        second = StylizedArbSpec("a2", "sushi", "unagi", Amount("0.3"), "ETH", "i")
        s = apply_stylized_arb(s, "P", first)
        s = apply_stylized_arb(s, "P", second)
        for pool_id in ("uni", "sushi", "toro", "unagi"):
            assert s.pool(pool_id).price == Amount("22.5")
        assert s.balance("i", "P", "ETH") == Amount("0.6")

    def test_equal_prices_error(self):
        s = state_with([mid("uni", "20", "i"), mid("toro", "20", "j")])
        with pytest.raises(PricesEqual):
            apply_stylized_arb(s, "P", self.spec())

    def test_rerunning_after_rebalance_errors(self):
        s = state_with([mid("uni", "30", "i"), mid("toro", "20", "j")])
        s2 = apply_stylized_arb(s, "P", self.spec())
        with pytest.raises(PricesEqual):
            apply_stylized_arb(s2, "P", self.spec())

    def test_unknown_pool(self):
        s = state_with([mid("uni", "30", "i")])
        with pytest.raises(UnknownPool):
            apply_stylized_arb(s, "P", self.spec())


class TestPendingTx:
    def test_price_push(self):
        s = state_with([mid("uni", "20", "i")])
        tx = PendingTx("tx1", "i", PricePushEffect("uni", Amount("30")))
        s2 = apply_pending_tx(s, tx)
        assert s2.pool("uni").price == Amount("30")
        assert s2.consumed == frozenset({"tx1"})

    def test_double_execution_rejected(self):
        s = state_with([mid("uni", "20", "i")])
        tx = PendingTx("tx1", "i", PricePushEffect("uni", Amount("30")))
        s2 = apply_pending_tx(s, tx)
        with pytest.raises(AlreadyConsumed):
            apply_pending_tx(s2, tx)

    def test_third_party_cp_swap(self):
        s = state_with([cp()], {("dex", "whale", "ETH"): Amount("100")})
        tx = PendingTx("t", "dex", CpSwapEffect("pool", "x_to_y", Amount("100"), "whale"))
        s2 = apply_pending_tx(s, tx)
        assert s2.balance("dex", "whale", "DAI") == Amount("1000")
        assert s2.balance("dex", "P", "DAI") == Amount("0")

    def test_transfer_effect(self):
        s = state_with([], {("i", "whale", "ETH"): Amount("4")})
        tx = PendingTx("t", "i", TransferEffect("i", "whale", "P", "ETH", Amount("1.5")))
        s2 = apply_pending_tx(s, tx)
        assert s2.balance("i", "P", "ETH") == Amount("1.5")
        assert s2.balance("i", "whale", "ETH") == Amount("2.5")

    def test_arb_leg_price_gate_and_completion_credit(self):
        opp = LegOpportunity("op", "P", Amount("1"), "ETH", "i", ("l1", "l2"))
        pools = [mid("uni", "30", "i"), mid("sushi", "20", "i")]
        l1 = PendingTx("l1", "i", ArbLegEffect("sushi", Amount("20"), Amount("25"), opp))
        l2 = PendingTx("l2", "i", ArbLegEffect("uni", Amount("30"), Amount("25"), opp))
        s = state_with(pools)
        s = apply_pending_tx(s, l1)
        assert s.balance("i", "P", "ETH") == Amount("0")  # half-done pays nothing
        s = apply_pending_tx(s, l2)
        assert s.balance("i", "P", "ETH") == Amount("1")
        assert s.pool("uni").price == s.pool("sushi").price == Amount("25")

    def test_arb_leg_wrong_price_rejected(self):
        opp = LegOpportunity("op", "P", Amount("1"), "ETH", "i", ("l1", "l2"))
        leg = PendingTx("l2", "i", ArbLegEffect("uni", Amount("30"), Amount("25"), opp))
        s = state_with([mid("uni", "20", "i")])
        with pytest.raises(PriceMismatch):
            apply_pending_tx(s, leg)


class TestBridge:
    def bridge(self, rate=Fraction(1), fee="0"):
        return BridgeSpec(
            id="b", from_domain="i", to_domain="j",
            from_asset="ETH", to_asset="ETH", rate=rate, flat_fee=Amount(fee),
        )

    def test_identity_bridge(self):
        s = state_with([], {("i", "P", "ETH"): Amount("10")})
        s2 = apply_bridge(s, "P", self.bridge(), Amount("10"))
        assert s2.balance("j", "P", "ETH") == Amount("10")
        assert s2.balance("i", "P", "ETH") == Amount("0")

    def test_discounted_rate(self):
        s = state_with([], {("i", "P", "ETH"): Amount("288033.14")})
        s2 = apply_bridge(s, "P", self.bridge(rate=Fraction(9, 10)), Amount("288033.14"))
        assert s2.balance("j", "P", "ETH") == Amount("259229.826")

    def test_zero_quantity_rejected(self):
        s = state_with([], {("i", "P", "ETH"): Amount("1")})
        with pytest.raises(InvalidAmount):
            apply_bridge(s, "P", self.bridge(), Amount("0"))

    def test_fee_exceeding_output_rejected(self):
        s = state_with([], {("i", "P", "ETH"): Amount("1")})
        with pytest.raises(FeeExceedsOutput):
            apply_bridge(s, "P", self.bridge(fee="2"), Amount("1"))

    def test_flat_fee_conservation(self):
        s = state_with([], {("i", "P", "ETH"): Amount("10")})
        s2 = apply_bridge(s, "P", self.bridge(fee="0.25"), Amount("10"))
        total_before = s.balance("i", "P", "ETH") + s.balance("j", "P", "ETH")
        total_after = s2.balance("i", "P", "ETH") + s2.balance("j", "P", "ETH")
        assert total_before - total_after == Amount("0.25")


# -- one state per application ------------------------------------------------
#
# The reference below is the pre-fusion update chain, written out: each
# debit, credit, pool replacement and consume builds its own state.


def _ref_credit(state, domain, player, asset, amount):
    if amount.units < 0:
        raise InsufficientBalance(f"cannot credit negative amount {amount}")
    if amount.units == 0:
        return state
    balances = dict(state.balances)
    key = (domain, player, asset)
    balances[key] = (state.balance(*key) + amount).units
    return WorldState(state.registry, balances, state.pools, state.consumed)


def _ref_debit(state, domain, player, asset, amount):
    if amount.units < 0:
        raise InsufficientBalance(f"cannot debit negative amount {amount}")
    if amount.units == 0:
        return state
    key = (domain, player, asset)
    held = state.balance(*key)
    if held < amount:
        raise InsufficientBalance(f"{player} holds {held} {asset} on {domain}, needs {amount}")
    balances = dict(state.balances)
    if (held - amount).units == 0:
        del balances[key]
    else:
        balances[key] = (held - amount).units
    return WorldState(state.registry, balances, state.pools, state.consumed)


def _ref_with_pool(state, pool_id, pool):
    pools = dict(state.pools)
    pools[pool_id] = pool
    return WorldState(state.registry, state.balances, pools, state.consumed)


def _ref_stylized(state, pool_id):
    pool = state.pool(pool_id)
    if not isinstance(pool, StylizedMidpointPool):
        raise UnknownPool(f"pool {pool_id!r} is not a stylized pool")
    return pool


def _ref_swap(state, player, pool_id, direction, amount_in):
    pool = state.pool(pool_id)
    if not isinstance(pool, ConstantProductPool):
        raise UnknownPool(f"pool {pool_id!r} is not a constant-product pool")
    out = quote_swap(pool, direction, amount_in)
    if direction == "x_to_y":
        asset_in, asset_out = pool.asset_x, pool.asset_y
        new_pool = replace(pool, reserve_x=pool.reserve_x + amount_in,
                           reserve_y=pool.reserve_y - out)
    else:
        asset_in, asset_out = pool.asset_y, pool.asset_x
        new_pool = replace(pool, reserve_y=pool.reserve_y + amount_in,
                           reserve_x=pool.reserve_x - out)
    state = _ref_debit(state, pool.domain, player, asset_in, amount_in)
    state = _ref_credit(state, pool.domain, player, asset_out, out)
    return _ref_with_pool(state, pool_id, new_pool)


def _ref_fill(state, player, pool_id, direction, amount_in):
    pool = _ref_stylized(state, pool_id)
    if amount_in.units <= 0:
        raise InvalidAmount(f"fill amount must be positive, got {amount_in}")
    if direction == "x_to_y":
        asset_in, asset_out, out = pool.asset_x, pool.asset_y, amount_in * pool.price
    elif direction == "y_to_x":
        asset_in, asset_out, out = pool.asset_y, pool.asset_x, amount_in / pool.price
    else:
        raise InvalidAmount(f"unknown swap direction {direction!r}")
    if out.units <= 0:
        raise InsufficientLiquidity(f"pool {pool_id}: fill output rounds to zero")
    state = _ref_debit(state, pool.domain, player, asset_in, amount_in)
    return _ref_credit(state, pool.domain, player, asset_out, out)


def _ref_stylized_arb(state, player, spec):
    pool_a, pool_b = state.pool(spec.pool_a), state.pool(spec.pool_b)
    for pool in (pool_a, pool_b):
        if not isinstance(pool, StylizedMidpointPool):
            raise UnknownPool(f"pool {pool.id!r} is not a stylized pool")
    if pool_a.price == pool_b.price:
        raise PricesEqual(f"{spec.pool_a} and {spec.pool_b} both quote {pool_a.price}")
    midpoint = (pool_a.price + pool_b.price) / Amount(2)
    state = _ref_with_pool(state, spec.pool_a, replace(pool_a, price=midpoint))
    state = _ref_with_pool(state, spec.pool_b, replace(pool_b, price=midpoint))
    return _ref_credit(state, spec.profit_domain, player, spec.profit_asset, spec.declared_profit)


def _ref_pending(state, tx):
    if tx.id in state.consumed:
        raise AlreadyConsumed(f"pending tx {tx.id!r} already executed")
    effect = tx.effect
    if isinstance(effect, PricePushEffect):
        pool = _ref_stylized(state, effect.pool_id)
        state = _ref_with_pool(state, effect.pool_id, replace(pool, price=effect.to_price))
    elif isinstance(effect, CpSwapEffect):
        state = _ref_swap(state, effect.account, effect.pool_id, effect.direction,
                          effect.amount_in)
    elif isinstance(effect, TransferEffect):
        state = _ref_debit(state, effect.domain, effect.from_account, effect.asset, effect.amount)
        state = _ref_credit(state, effect.domain, effect.to_account, effect.asset, effect.amount)
    else:
        pool = _ref_stylized(state, effect.pool_id)
        if pool.price != effect.from_price:
            raise PriceMismatch(
                f"leg {tx.id!r} expects {effect.pool_id} at {effect.from_price}, "
                f"pool quotes {pool.price}"
            )
        state = _ref_with_pool(state, effect.pool_id, replace(pool, price=effect.to_price))
        opp = effect.opportunity
        if set(opp.leg_ids) - {tx.id} <= state.consumed:
            state = _ref_credit(state, opp.profit_domain, opp.beneficiary, opp.profit_asset,
                                opp.declared_profit)
    return WorldState(state.registry, state.balances, state.pools, state.consumed | {tx.id})


def _ref_bridge(state, player, bridge, quantity):
    if quantity.units <= 0:
        raise InvalidAmount(f"bridge quantity must be positive, got {quantity}")
    arriving = bridge_output(bridge, quantity)
    if arriving.units < 0:
        raise FeeExceedsOutput(
            f"bridge {bridge.id}: fee {bridge.flat_fee} exceeds converted {quantity}"
        )
    state = _ref_debit(state, bridge.from_domain, player, bridge.from_asset, quantity)
    return _ref_credit(state, bridge.to_domain, player, bridge.to_asset, arriving)


def _ref_apply(state, player, action, amount):
    """``apply_action``'s venue dispatch on the reference chain; parametric
    amounts must already lie in the action's interval."""
    if not action.parametric:
        amount = resolve_amount(state, player, action)
    if action.kind == "ExecutePendingTx":
        return _ref_pending(state, action.tx)
    if action.kind == "StylizedArb":
        return _ref_stylized_arb(state, player, action.arb)
    if action.kind == "Bridge":
        return _ref_bridge(state, player, action.bridge, amount)
    if isinstance(state.pool(action.pool_id), ConstantProductPool):
        return _ref_swap(state, player, action.pool_id, action.direction, amount)
    return _ref_fill(state, player, action.pool_id, action.direction, amount)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except XdmevError as exc:
        return type(exc), str(exc)


def edge_doc() -> dict:
    """Every pending effect kind, a self-transfer, a zero transfer, a transfer
    and a sweep that empty a balance, and a tx that fails once another ran."""
    doc = one_domain_doc()
    doc["players"][0]["balances"] = [{"domain": "d0", "asset": "GLD", "amount": "10"}]
    doc["players"].append({"id": "whale", "capabilities": [],
                           "balances": [{"domain": "d0", "asset": "AAA", "amount": "5"}]})
    doc["pools"] = [
        {"id": "cp", "type": "constant_product", "domain": "d0", "asset_x": "AAA",
         "asset_y": "GLD", "reserve_x": "100", "reserve_y": "200", "fee_bps": 30},
        {"id": "m0", "type": "stylized_midpoint", "domain": "d0", "asset_x": "AAA",
         "asset_y": "GLD", "price": "10"},
    ]

    def transfer(tx_id, to, amount):
        return {"id": tx_id, "domain": "d0",
                "effect": {"type": "transfer", "from_account": "whale", "to_account": to,
                           "asset": "AAA", "amount": amount}}

    doc["mempool"] = [
        transfer("self", "whale", "2"),
        transfer("drain", "P", "5"),
        transfer("zero", "P", "0"),
        {"id": "whale_swap", "domain": "d0",
         "effect": {"type": "cp_swap", "pool": "cp", "direction": "x_to_y",
                    "amount_in": "5", "account": "whale"}},
        {"id": "push", "domain": "d0",
         "effect": {"type": "price_push", "pool": "m0", "to_price": "11"}},
    ]
    doc["actions"] = [
        {"id": "sweep", "player": "P", "kind": "Swap", "pool": "cp",
         "direction": "y_to_x", "amount": "all"},
        {"id": "buy", "player": "P", "kind": "Swap", "pool": "cp",
         "direction": "y_to_x", "amount": {"interval": ["0", "10"]}},
        {"id": "fill", "player": "P", "kind": "Swap", "pool": "m0",
         "direction": "x_to_y", "amount": {"fixed": "1"}},
    ]
    return doc


SCENARIOS = (*BUNDLED_NAMES, "edge_doc")


def _scenario(name):
    return scen(edge_doc()) if name == "edge_doc" else load_bundled(name)


def _trials(state, player, action):
    """Amounts to try: None for a discrete action, else positive in-interval probes."""
    if not action.parametric:
        return [None]
    lo, hi = action.interval.lo.units, action.interval.hi.units
    probes = {max(lo, 1), (lo + hi) // 2, hi, max_feasible_amount(state, player, action).units}
    return [Amount.from_units(u) for u in sorted(probes) if max(lo, 1) <= u <= hi]


def _starts(sc, player):
    """The initial state and every state one valid action away."""
    initial = sc.initial_state()
    states = [initial]
    for action in sc.space.for_player(player):
        for amount in _trials(initial, player, action):
            nxt = _outcome(apply_action, initial, player, action, amount)
            if isinstance(nxt, WorldState):
                states.append(nxt)
    return states


def _assert_int_balances(state):
    """Every stored balance is a nonzero int."""
    assert all(type(v) is int and v != 0 for v in state.balances.values()), state.balances


class TestFusedUpdateMatchesSingleSteps:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_action_from_initial_and_one_step_on(self, name):
        sc = _scenario(name)
        player = sc.defaults.player
        outcomes = set()
        for start in _starts(sc, player):
            for action in sc.space.for_player(player):
                for amount in _trials(start, player, action):
                    fused = _outcome(apply_action, start, player, action, amount)
                    ref = _outcome(_ref_apply, start, player, action, amount)
                    assert fused == ref, (action.id, amount)
                    if isinstance(fused, WorldState):
                        assert hash(fused) == hash(ref)
                        _assert_int_balances(fused)
                    outcomes.add(type(fused) if isinstance(fused, WorldState) else fused[0])
        assert WorldState in outcomes

    def test_edge_doc_covers_its_cases(self):
        sc = scen(edge_doc())
        s0 = sc.initial_state()
        act = {a.id: a for a in sc.space.for_player("P")}
        drained = apply_action(s0, "P", act["drain"])
        assert ("d0", "whale", "AAA") not in drained.balances
        swept = apply_action(s0, "P", act["sweep"])
        assert ("d0", "P", "GLD") not in swept.balances
        assert apply_action(s0, "P", act["self"]).balances == s0.balances
        with pytest.raises(AlreadyConsumed):
            apply_action(drained, "P", act["drain"])
        with pytest.raises(InsufficientBalance):
            apply_action(drained, "P", act["whale_swap"])

    @pytest.mark.parametrize("sign", [DEBIT, CREDIT])
    @pytest.mark.parametrize("amount", ["-1", "0", "0.5", "1", "1.5"])
    def test_single_moves(self, sign, amount):
        state = state_with([cp()], {("dex", "P", "DAI"): Amount("1")})
        ref = _ref_debit if sign == DEBIT else _ref_credit
        move = (sign, "dex", "P", "DAI", Amount(amount).units)
        fused = _outcome(state.update, (move,))
        assert fused == _outcome(ref, state, *move[1:4], Amount(amount))
        if isinstance(fused, WorldState):
            _assert_int_balances(fused)


class TestOneStatePerApplication:
    def test_each_kind_builds_exactly_one_state(self, monkeypatch):
        cases = [
            (start, sc.defaults.player, action, amount)
            for sc in map(_scenario, SCENARIOS)
            for start in _starts(sc, sc.defaults.player)
            for action in sc.space.for_player(sc.defaults.player)
            for amount in _trials(start, sc.defaults.player, action)
        ]
        built = []
        init = WorldState.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(WorldState, "__init__", counting_init)
        covered = set()
        for start, player, action, amount in cases:
            built.clear()
            try:
                apply_action(start, player, action, amount)
            except XdmevError:
                assert built == [], action.id
                continue
            assert len(built) == 1, action.id
            kind = action.kind
            if kind == KIND_SWAP:
                kind += ":" + type(start.pool(action.pool_id)).__name__
            covered.add(kind)
        assert covered == {
            "Bridge", "ExecutePendingTx", "StylizedArb",
            "Swap:ConstantProductPool", "Swap:StylizedMidpointPool",
        }


# -- states own their maps ----------------------------------------------------
#
# ``WorldState.__init__`` keeps the dicts it is given, and ``update`` shares
# every map it does not change with the parent. Nothing may write into a map
# once a state holds it.


def _snapshot(state):
    """Copies of a state's maps, and the hash of a state rebuilt from them
    (the state's own hash is cached, so it cannot show a later write)."""
    balances, pools = dict(state.balances), dict(state.pools)
    rebuilt = WorldState(state.registry, dict(balances), dict(pools), state.consumed)
    return balances, pools, state.consumed, hash(rebuilt)


class TestStatesOwnTheirMaps:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_applications_and_oracle_leave_parents_unchanged(self, name):
        sc = _scenario(name)
        player = sc.defaults.player
        starts = _starts(sc, player)
        before = [_snapshot(start) for start in starts]
        applied = 0
        for start, snapshot in zip(starts, before):
            _assert_int_balances(start)
            for action in sc.space.for_player(player):
                for amount in _trials(start, player, action):
                    nxt = _outcome(apply_action, start, player, action, amount)
                    if isinstance(nxt, WorldState):
                        applied += 1
                        _assert_int_balances(nxt)
                    assert _snapshot(start) == snapshot, (action.id, amount)
        assert applied > 0
        initial = starts[0]
        mev_oracle(sc.space, initial, sc.default_query(), grid_points=5)
        assert [_snapshot(start) for start in starts] == before
