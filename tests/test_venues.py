"""Pool, bridge, and pending-transaction mechanics."""

import random
from collections.abc import Mapping
from fractions import Fraction

import pytest

from conftest import one_domain_doc, scen
from xdmev.actions import (
    KIND_SWAP,
    Action,
    AmountInterval,
    apply_action,
    max_feasible_amount,
    resolve_amount,
)
from xdmev.engine import mev, mev_oracle
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
from xdmev.model import Registry, WorldState
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
)


def cp(pool_id="pool", rx="100", ry="2000", fee=0, domain="dex"):
    return ConstantProductPool(
        id=pool_id, domain=domain, asset_x="ETH", asset_y="DAI",
        reserve_x_units=Amount(rx).units, reserve_y_units=Amount(ry).units, fee_bps=fee,
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
        pools={p.id: p for p in pools},
    )
    units = {key: amount.units for key, amount in (balances or {}).items()}
    return WorldState(registry, units, {p.id: p.state() for p in pools})


def exact_swap_out(reserve_in, reserve_out, amount_in, fee_bps):
    """Swap output units by the exact-integer formula, evaluated here and
    not through the package: out = R_out - ceil(R_in * R_out / (R_in + in * (1 - fee)))."""
    eff = amount_in * (10_000 - fee_bps) // 10_000
    return reserve_out - (-(-(reserve_in * reserve_out) // (reserve_in + eff)))


def swap_credit(pool, direction, amount_in):
    """What ``apply_swap`` credits P for ``amount_in`` on ``pool``, from a
    state where P holds exactly that much of the input asset."""
    asset_in, asset_out = ("ETH", "DAI") if direction == "x_to_y" else ("DAI", "ETH")
    s = state_with([pool], {("dex", "P", asset_in): amount_in})
    return apply_swap(s, "P", pool, direction, amount_in.units).balance("dex", "P", asset_out)


class TestQuoteSwap:
    """A swap's output (its quote) is the balance ``apply_swap`` credits."""

    def test_doubling_input_reserve_halves_output(self):
        assert swap_credit(cp(), "x_to_y", Amount("100")) == Amount("1000")

    def test_round_trip_never_profits(self):
        pool = cp()
        s = apply_swap(state_with([pool], {("dex", "P", "ETH"): Amount("3")}),
                       "P", pool, "x_to_y", Amount("3").units)
        out = s.balance("dex", "P", "DAI")
        back = apply_swap(s, "P", pool, "y_to_x", out.units)
        assert back.balance("dex", "P", "ETH") <= Amount("3")

    def test_fee_quote_matches_integer_oracle(self):
        expected = exact_swap_out(100 * SCALE, 2000 * SCALE, SCALE, 30)
        assert swap_credit(cp(fee=30), "x_to_y", Amount("1")) == Amount.from_units(expected)

    def test_zero_and_negative_amounts_rejected(self):
        pool = cp()
        s = state_with([pool], {("dex", "P", "ETH"): Amount("1")})
        with pytest.raises(InvalidAmount):
            apply_swap(s, "P", pool, "x_to_y", 0)
        with pytest.raises(InvalidAmount):
            apply_swap(s, "P", pool, "x_to_y", -SCALE)

    def test_dust_input_is_insufficient_liquidity(self):
        pool = cp(rx="1000000", ry="0.000000000000000005")
        with pytest.raises(InsufficientLiquidity):
            swap_credit(pool, "x_to_y", Amount.from_units(1))

    def test_quote_leaves_pool_unchanged(self):
        # the parent state is unchanged: same pool, same balances
        pool = cp()
        s = state_with([pool], {("dex", "P", "ETH"): Amount("1")})
        apply_swap(s, "P", pool, "x_to_y", Amount("1").units)
        assert s == state_with([cp()], {("dex", "P", "ETH"): Amount("1")})
        assert s.pool("pool").reserve_x == Amount("100")
        assert s.pool("pool").reserve_y == Amount("2000")


class TestApplySwap:
    def test_zero_amount_rejected_state_unchanged(self):
        pool = cp()
        s = state_with([pool], {("dex", "P", "ETH"): Amount("1")})
        with pytest.raises(InvalidAmount):
            apply_swap(s, "P", pool, "x_to_y", Amount("0").units)
        assert s.balance("dex", "P", "ETH") == Amount("1")

    def test_exact_balance_boundary(self):
        pool = cp()
        s = state_with([pool], {("dex", "P", "ETH"): Amount("2")})
        s2 = apply_swap(s, "P", pool, "x_to_y", Amount("2").units)
        assert s2.balance("dex", "P", "ETH") == Amount("0")
        assert s2.balance("dex", "P", "DAI") > Amount("0")

    def test_insufficient_balance(self):
        pool = cp()
        s = state_with([pool], {("dex", "P", "ETH"): Amount("1")})
        with pytest.raises(InsufficientBalance):
            apply_swap(s, "P", pool, "x_to_y", Amount("1.5").units)

    def test_path_independence_up_to_one_unit(self):
        # sequential a then b vs one swap of a+b, fee 0, checked exactly
        a, b, pool = Amount("3"), Amount("4"), cp()
        balances = {("dex", "P", "ETH"): Amount("10")}
        s_split = apply_swap(state_with([pool], dict(balances)), "P", pool, "x_to_y", a.units)
        s_split = apply_swap(s_split, "P", pool, "x_to_y", b.units)
        s_once = apply_swap(
            state_with([pool], dict(balances)), "P", pool, "x_to_y", (a + b).units
        )
        rx_split = s_split.pool("pool").reserve_x
        rx_once = s_once.pool("pool").reserve_x
        ry_split = s_split.pool("pool").reserve_y
        ry_once = s_once.pool("pool").reserve_y
        assert rx_split == rx_once
        assert abs(ry_split - ry_once) <= Amount.from_units(1)

    def test_invariant_preserved_within_one_unit_zero_fee(self):
        pool = cp()
        s = state_with([pool], {("dex", "P", "ETH"): Amount("7")})
        before = s.pool("pool")
        after = apply_swap(s, "P", pool, "x_to_y", Amount("7").units).pool("pool")
        k_before = before.reserve_x.units * before.reserve_y.units
        k_after = after.reserve_x.units * after.reserve_y.units
        # the pool keeps the rounding remainder: k never decreases, and the
        # output reserve sits within one unit of the exact curve
        assert 0 <= k_after - k_before < after.reserve_x.units

    def test_conservation_touches_only_pool_and_player(self):
        pool = cp()
        s = state_with(
            [pool, cp("other", "50", "900")],
            {("dex", "P", "ETH"): Amount("5"), ("dex", "whale", "DAI"): Amount("9")},
        )
        s2 = apply_swap(s, "P", pool, "x_to_y", Amount("5").units)
        assert s2.pool("other") == s.pool("other")
        assert s2.balance("dex", "whale", "DAI") == Amount("9")

    def test_moved_pool_equals_and_hashes_as_a_built_one(self):
        pool = cp()
        s = state_with([pool], {("dex", "P", "ETH"): Amount("100")})
        moved = apply_swap(s, "P", pool, "x_to_y", Amount("100").units).pool("pool")
        built = cp(rx="200", ry="1000")
        assert type(moved) is ConstantProductPool
        assert moved == built and hash(moved) == hash(built)


DUST_POOLS = {
    "x_to_y": cp(rx="1000000", ry="0.000000000000000005"),
    "y_to_x": cp(rx="0.000000000000000005", ry="1000000"),
}


class TestApplySwapErrorsMatchQuote:
    """``apply_swap`` rejects a swap with a pinned exception type and
    message, checking the amount before the direction."""

    @pytest.mark.parametrize(
        "pool, direction, amount, expected",
        [
            *[(cp(), d, a, (InvalidAmount, f"swap amount must be positive, got {a}"))
              for d in ("x_to_y", "y_to_x") for a in ("0", "-1")],
            (cp(), "sideways", "1", (InvalidAmount, "unknown swap direction 'sideways'")),
            (cp(), "sideways", "0", (InvalidAmount, "swap amount must be positive, got 0")),
            *[(pool, d, "0.000000000000000001",
               (InsufficientLiquidity, "pool pool: input 0.000000000000000001 buys no output"))
              for d, pool in DUST_POOLS.items()],
        ],
        ids=["x_zero", "x_negative", "y_zero", "y_negative", "unknown_direction",
             "unknown_direction_zero", "x_dust", "y_dust"],
    )
    def test_same_error_as_quote(self, pool, direction, amount, expected):
        s = state_with([pool], {("dex", "P", "ETH"): Amount("5"), ("dex", "P", "DAI"): Amount("5")})
        assert _outcome(apply_swap, s, "P", pool, direction, Amount(amount).units) == expected


class TestStylizedFill:
    def test_fill_at_price_both_directions(self):
        pool = mid("m", "20", domain="i")
        s = state_with([pool], {("i", "P", "ETH"): Amount("2"), ("i", "P", "DAI"): Amount("100")})
        s2 = apply_stylized_fill(s, "P", pool, "x_to_y", Amount("2").units)
        assert s2.balance("i", "P", "DAI") == Amount("140")
        s3 = apply_stylized_fill(s, "P", pool, "y_to_x", Amount("100").units)
        assert s3.balance("i", "P", "ETH") == Amount("7")

    def test_fill_does_not_move_the_quote(self):
        pool = mid("m", "20")
        s = state_with([pool], {("i", "P", "ETH"): Amount("1")})
        s2 = apply_stylized_fill(s, "P", pool, "x_to_y", Amount("1").units)
        assert s2.pool("m").price == Amount("20")


class TestStylizedArb:
    UNI, TORO = mid("uni", "30", "i"), mid("toro", "20", "j")

    def spec(self, profit="1"):
        return StylizedArbSpec(
            id="arb", pool_a=self.UNI, pool_b=self.TORO,
            declared_profit=Amount(profit), profit_asset="ETH", profit_domain="i",
        )

    def test_two_pool_example(self):
        s = state_with([self.UNI, self.TORO])
        s2 = apply_stylized_arb(s, "P", self.spec())
        assert s2.pool("uni").price == Amount("25")
        assert s2.pool("toro").price == Amount("25")
        assert s2.balance("i", "P", "ETH") == Amount("1")

    def test_four_pool_rebalance_pairs(self):
        uni, sushi = mid("uni", "25", "i"), mid("sushi", "25", "i")
        toro, unagi = mid("toro", "20", "j"), mid("unagi", "20", "j")
        s = state_with([uni, sushi, toro, unagi])
        first = StylizedArbSpec("a1", uni, toro, Amount("0.3"), "ETH", "i")
        second = StylizedArbSpec("a2", sushi, unagi, Amount("0.3"), "ETH", "i")
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
        s = state_with([self.UNI, self.TORO])
        s2 = apply_stylized_arb(s, "P", self.spec())
        with pytest.raises(PricesEqual):
            apply_stylized_arb(s2, "P", self.spec())

    def test_unknown_pool(self):
        s = state_with([self.UNI])
        with pytest.raises(UnknownPool, match="^unknown pool 'toro'$"):
            apply_stylized_arb(s, "P", self.spec())


class TestPendingTx:
    def test_price_push(self):
        uni = mid("uni", "20", "i")
        s = state_with([uni])
        tx = PendingTx("tx1", "i", PricePushEffect(uni, Amount("30")))
        s2 = apply_pending_tx(s, tx)
        assert s2.pool("uni").price == Amount("30")
        assert s2.consumed == frozenset({"tx1"})

    def test_double_execution_rejected(self):
        uni = mid("uni", "20", "i")
        s = state_with([uni])
        tx = PendingTx("tx1", "i", PricePushEffect(uni, Amount("30")))
        s2 = apply_pending_tx(s, tx)
        with pytest.raises(AlreadyConsumed):
            apply_pending_tx(s2, tx)

    def test_third_party_cp_swap(self):
        pool = cp()
        s = state_with([pool], {("dex", "whale", "ETH"): Amount("100")})
        tx = PendingTx("t", "dex", CpSwapEffect(pool, "x_to_y", Amount("100"), "whale"))
        s2 = apply_pending_tx(s, tx)
        assert s2.balance("dex", "whale", "DAI") == Amount("1000")
        assert s2.balance("dex", "P", "DAI") == Amount("0")

    def test_transfer_effect(self):
        s = state_with([], {("i", "whale", "ETH"): Amount("4")})
        tx = PendingTx("t", "i", TransferEffect("whale", "P", "ETH", Amount("1.5")))
        s2 = apply_pending_tx(s, tx)
        assert s2.balance("i", "P", "ETH") == Amount("1.5")
        assert s2.balance("i", "whale", "ETH") == Amount("2.5")

    def test_arb_leg_price_gate_and_completion_credit(self):
        opp = LegOpportunity("op", "P", Amount("1"), "ETH", "i", ("l1", "l2"))
        uni, sushi = mid("uni", "30", "i"), mid("sushi", "20", "i")
        l1 = PendingTx("l1", "i", ArbLegEffect(sushi, Amount("20"), Amount("25"), opp))
        l2 = PendingTx("l2", "i", ArbLegEffect(uni, Amount("30"), Amount("25"), opp))
        s = state_with([uni, sushi])
        s = apply_pending_tx(s, l1)
        assert s.balance("i", "P", "ETH") == Amount("0")  # half-done pays nothing
        s = apply_pending_tx(s, l2)
        assert s.balance("i", "P", "ETH") == Amount("1")
        assert s.pool("uni").price == s.pool("sushi").price == Amount("25")

    @pytest.mark.parametrize("to_price", ["0", "-1"])
    def test_push_or_leg_to_a_nonpositive_price_rejected(self, to_price):
        opp = LegOpportunity("op", "P", Amount("1"), "ETH", "i", ("l1",))
        uni = mid("uni", "20", "i")
        s = state_with([uni])
        for effect in (PricePushEffect(uni, Amount(to_price)),
                       ArbLegEffect(uni, Amount("20"), Amount(to_price), opp)):
            with pytest.raises(XdmevError) as err:
                apply_pending_tx(s, PendingTx("l1", "i", effect))
            assert type(err.value) is XdmevError
            assert str(err.value) == "pool uni: price must be positive"

    @pytest.mark.parametrize("to_price, value, witness, explored", [
        ("0", "0.1", ("fill",), (2, 4)),
        ("-1", "0.1", ("fill",), (2, 4)),
        ("0.5", "2", ("push", "fill"), (5, 5)),
    ])
    def test_push_to_a_nonpositive_price_is_unavailable_to_mev(
        self, to_price, value, witness, explored
    ):
        # selling AAA for the native GLD divides by the pushed price
        doc = one_domain_doc()
        doc["players"][0]["balances"] = [{"domain": "d0", "asset": "AAA", "amount": "10"}]
        doc["pools"] = [{"id": "m0", "type": "stylized_midpoint", "domain": "d0",
                         "asset_x": "GLD", "asset_y": "AAA", "price": "10"}]
        doc["mempool"] = [{"id": "push", "domain": "d0", "effect": {
            "type": "price_push", "pool": "m0", "to_price": to_price}}]
        doc["actions"] = [{"id": "fill", "player": "P", "kind": "Swap", "pool": "m0",
                           "direction": "y_to_x", "amount": {"fixed": "1"}}]
        sc = scen(doc)
        for search, count in zip((mev, mev_oracle), explored):
            result = search(sc.space, sc.initial_state(), sc.default_query())
            assert result.value == Amount(value)
            assert tuple(step[0] for step in result.witness) == witness
            assert result.explored == count

    def test_arb_leg_wrong_price_rejected(self):
        opp = LegOpportunity("op", "P", Amount("1"), "ETH", "i", ("l1", "l2"))
        uni = mid("uni", "20", "i")
        leg = PendingTx("l2", "i", ArbLegEffect(uni, Amount("30"), Amount("25"), opp))
        s = state_with([uni])
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
        s2 = apply_bridge(s, "P", self.bridge(), Amount("10").units)
        assert s2.balance("j", "P", "ETH") == Amount("10")
        assert s2.balance("i", "P", "ETH") == Amount("0")

    def test_discounted_rate(self):
        s = state_with([], {("i", "P", "ETH"): Amount("288033.14")})
        s2 = apply_bridge(s, "P", self.bridge(rate=Fraction(9, 10)), Amount("288033.14").units)
        assert s2.balance("j", "P", "ETH") == Amount("259229.826")

    def test_zero_quantity_rejected(self):
        s = state_with([], {("i", "P", "ETH"): Amount("1")})
        with pytest.raises(InvalidAmount):
            apply_bridge(s, "P", self.bridge(), Amount("0").units)

    def test_fee_exceeding_output_rejected(self):
        s = state_with([], {("i", "P", "ETH"): Amount("1")})
        with pytest.raises(FeeExceedsOutput):
            apply_bridge(s, "P", self.bridge(fee="2"), Amount("1").units)

    def test_flat_fee_conservation(self):
        s = state_with([], {("i", "P", "ETH"): Amount("10")})
        s2 = apply_bridge(s, "P", self.bridge(fee="0.25"), Amount("10").units)
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


def _ref_with_pool(state, pool):
    pools = dict(state.pools)
    pools[pool.id] = pool.state()
    return WorldState(state.registry, state.balances, pools, state.consumed)


def _ref_at(state, pool):
    """The pool record ``pool`` carrying its value in ``state``."""
    if pool.id not in state.pools:
        raise UnknownPool(f"unknown pool {pool.id!r}")
    value = state.pools[pool.id]
    if isinstance(pool, ConstantProductPool):
        return pool.replace(reserve_x_units=value[0], reserve_y_units=value[1])
    return pool.replace(price=Amount.from_units(value))


def _ref_swap(state, player, pool, direction, amount_in):
    return _ref_swap_and_pool(state, player, pool, direction, amount_in)[0]


def _ref_swap_and_pool(state, player, pool, direction, amount_in):
    """``_ref_swap``'s state and the moved pool record it stores; the output
    comes from ``exact_swap_out``, with the checks in ``apply_swap``'s order."""
    if amount_in.units <= 0:
        raise InvalidAmount(f"swap amount must be positive, got {amount_in}")
    pool = _ref_at(state, pool)
    if direction == "x_to_y":
        reserve_in, reserve_out = pool.reserve_x_units, pool.reserve_y_units
    elif direction == "y_to_x":
        reserve_in, reserve_out = pool.reserve_y_units, pool.reserve_x_units
    else:
        raise InvalidAmount(f"unknown swap direction {direction!r}")
    out = Amount.from_units(exact_swap_out(reserve_in, reserve_out, amount_in.units, pool.fee_bps))
    if out.units <= 0:
        raise InsufficientLiquidity(f"pool {pool.id}: input {amount_in} buys no output")
    if direction == "x_to_y":
        asset_in, asset_out = pool.asset_x, pool.asset_y
        new_pool = pool.replace(reserve_x_units=(pool.reserve_x + amount_in).units,
                                reserve_y_units=(pool.reserve_y - out).units)
    else:
        asset_in, asset_out = pool.asset_y, pool.asset_x
        new_pool = pool.replace(reserve_y_units=(pool.reserve_y + amount_in).units,
                                reserve_x_units=(pool.reserve_x - out).units)
    state = _ref_debit(state, pool.domain, player, asset_in, amount_in)
    state = _ref_credit(state, pool.domain, player, asset_out, out)
    return _ref_with_pool(state, new_pool), new_pool


def _ref_fill(state, player, pool, direction, amount_in):
    pool = _ref_at(state, pool)
    if amount_in.units <= 0:
        raise InvalidAmount(f"fill amount must be positive, got {amount_in}")
    if direction == "x_to_y":
        asset_in, asset_out, out = pool.asset_x, pool.asset_y, amount_in * pool.price
    elif direction == "y_to_x":
        asset_in, asset_out, out = pool.asset_y, pool.asset_x, amount_in / pool.price
    else:
        raise InvalidAmount(f"unknown swap direction {direction!r}")
    if out.units <= 0:
        raise InsufficientLiquidity(f"pool {pool.id}: fill output rounds to zero")
    state = _ref_debit(state, pool.domain, player, asset_in, amount_in)
    return _ref_credit(state, pool.domain, player, asset_out, out)


def _ref_stylized_arb(state, player, spec):
    pool_a, pool_b = _ref_at(state, spec.pool_a), _ref_at(state, spec.pool_b)
    if pool_a.price == pool_b.price:
        raise PricesEqual(f"{pool_a.id} and {pool_b.id} both quote {pool_a.price}")
    midpoint = (pool_a.price + pool_b.price) / Amount(2)
    state = _ref_with_pool(state, pool_a.replace(price=midpoint))
    state = _ref_with_pool(state, pool_b.replace(price=midpoint))
    return _ref_credit(state, spec.profit_domain, player, spec.profit_asset, spec.declared_profit)


def _ref_pending(state, tx):
    if tx.id in state.consumed:
        raise AlreadyConsumed(f"pending tx {tx.id!r} already executed")
    effect = tx.effect
    if isinstance(effect, PricePushEffect):
        pool = _ref_at(state, effect.pool)
        state = _ref_with_pool(state, pool.replace(price=effect.to_price))
    elif isinstance(effect, CpSwapEffect):
        state = _ref_swap(state, effect.account, effect.pool, effect.direction, effect.amount_in)
    elif isinstance(effect, TransferEffect):
        state = _ref_debit(state, tx.domain, effect.from_account, effect.asset, effect.amount)
        state = _ref_credit(state, tx.domain, effect.to_account, effect.asset, effect.amount)
    else:
        pool = _ref_at(state, effect.pool)
        if pool.price != effect.from_price:
            raise PriceMismatch(
                f"leg {tx.id!r} expects {pool.id} at {effect.from_price}, "
                f"pool quotes {pool.price}"
            )
        state = _ref_with_pool(state, pool.replace(price=effect.to_price))
        opp = effect.opportunity
        if set(opp.leg_ids) - {tx.id} <= state.consumed:
            state = _ref_credit(state, opp.profit_domain, opp.beneficiary, opp.profit_asset,
                                opp.declared_profit)
    return WorldState(state.registry, state.balances, state.pools, state.consumed | {tx.id})


def _ref_bridge(state, player, bridge, quantity):
    if quantity.units <= 0:
        raise InvalidAmount(f"bridge quantity must be positive, got {quantity}")
    arriving = quantity.mul_fraction(bridge.rate) - bridge.flat_fee
    if arriving.units < 0:
        raise FeeExceedsOutput(
            f"bridge {bridge.id}: fee {bridge.flat_fee} exceeds converted {quantity}"
        )
    state = _ref_debit(state, bridge.from_domain, player, bridge.from_asset, quantity)
    return _ref_credit(state, bridge.to_domain, player, bridge.to_asset, arriving)


def _ref_apply(state, player, action, amount):
    """``apply_action``'s venue dispatch on the reference chain; parametric
    amounts (units) must already lie in the action's interval."""
    if not action.parametric:
        amount = resolve_amount(state, player, action)
    if amount is not None:
        amount = Amount.from_units(amount)
    if action.kind == "ExecutePendingTx":
        return _ref_pending(state, action.target)
    if action.kind == "StylizedArb":
        return _ref_stylized_arb(state, player, action.target)
    if action.kind == "Bridge":
        return _ref_bridge(state, player, action.target, amount)
    if isinstance(action.target, ConstantProductPool):
        return _ref_swap(state, player, action.target, action.direction, amount)
    return _ref_fill(state, player, action.target, action.direction, amount)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
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
    lo, hi = action.amount.lo.units, action.amount.hi.units
    probes = {max(lo, 1), (lo + hi) // 2, hi, max_feasible_amount(state, player, action)}
    return [u for u in sorted(probes) if max(lo, 1) <= u <= hi]


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

    @pytest.mark.parametrize("sign", ["debit", "credit"])
    @pytest.mark.parametrize("amount", ["-1", "0", "0.5", "1", "1.5"])
    def test_single_moves(self, sign, amount):
        state = state_with([cp()], {("dex", "P", "DAI"): Amount("1")})
        ref = _ref_debit if sign == "debit" else _ref_credit
        key = ("dex", "P", "DAI")
        fused = _outcome(state.update, **{sign: (key, Amount(amount).units)})
        assert fused == _outcome(ref, state, *key, Amount(amount))
        if isinstance(fused, WorldState):
            _assert_int_balances(fused)


class TestOneSwapBodyMatchesReference:
    # failures the random cases below must reach, by class and message start
    FAILURES = {
        (InvalidAmount, "swap amount must be positive"),
        (InvalidAmount, "unknown swap direction"),
        (InsufficientLiquidity, "pool pool: input"),
        (InsufficientBalance, "P holds"),
        (UnknownPool, "unknown pool"),
    }

    def test_random_swaps_and_their_failures(self):
        rng = random.Random(1414)
        seen = set()
        moved = 0
        for _ in range(600):
            pool = ConstantProductPool(
                "pool", "dex", "ETH", "DAI", rng.randint(1, 10**24), rng.randint(1, 10**24),
                rng.choice((0, 5, 30, 9_999)),
            )
            balances = {
                ("dex", "P", asset): Amount.from_units(rng.randint(1, 10**24))
                for asset in ("ETH", "DAI") if rng.random() < 0.8
            }
            state = state_with([pool], balances)
            # a record of a pool the state does not hold
            target = rng.choice((pool,) * 7 + (pool.replace(id="nowhere"),))
            direction = rng.choice(("x_to_y",) * 4 + ("y_to_x",) * 4 + ("sideways",))
            amount = rng.choice((0, -3, 1, rng.randint(1, 10**18), rng.randint(1, 10**24)))
            got = _outcome(apply_swap, state, "P", target, direction, amount)
            ref = _outcome(
                _ref_swap_and_pool, state, "P", target, direction, Amount.from_units(amount)
            )
            if isinstance(got, WorldState):
                ref_state, ref_pool = ref
                assert got == ref_state and hash(got) == hash(ref_state)
                assert got.pool(target.id) == ref_pool
                _assert_int_balances(got)
                moved += 1
            else:
                assert got == ref
                seen |= {f for f in self.FAILURES if got[0] is f[0] and got[1].startswith(f[1])}
        assert seen == self.FAILURES and moved > 100


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
                kind += ":" + type(action.target).__name__
            covered.add(kind)
        assert covered == {
            "Bridge", "ExecutePendingTx", "StylizedArb",
            "Swap:ConstantProductPool", "Swap:StylizedMidpointPool",
        }


class TestDispatchErrorsMatchReference:
    # ``apply_action`` resolves a sweep's held amount from the action's
    # target and dispatches on it in one pass; each failure must still be
    # the reference chain's
    def test_sweeps_directions_and_unknown_pools(self):
        sc = scen(edge_doc())
        s0 = sc.initial_state()
        sweep = sc.space.lookup("P", "sweep")  # y_to_x on cp: spends all of P's GLD
        emptied = apply_action(s0, "P", sweep)
        cp, m0 = sc.registry.pools["cp"], sc.registry.pools["m0"]
        # specs of pools the state does not hold
        nowhere, nowhere_m = cp.replace(id="nowhere"), m0.replace(id="nowhere_m")

        def swap(target, direction, mode):
            label = mode if mode == "all" else mode.__class__.__name__
            return Action(f"{target.id}:{direction}:{label}", KIND_SWAP, frozenset({"d0"}),
                          target, direction, mode)

        one = Amount("1")
        cases = [
            (emptied, sweep, None),
            (s0, swap(m0, "y_to_x", "all"), None),
            (emptied, swap(m0, "y_to_x", "all"), None),
            (s0, swap(cp, "sideways", one), None),
            (s0, swap(cp, "sideways", "all"), None),
            (emptied, swap(cp, "sideways", "all"), None),
            (s0, swap(m0, "sideways", one), None),
            (s0, swap(m0, "sideways", "all"), None),
            (s0, swap(nowhere, "x_to_y", one), None),
            (s0, swap(nowhere, "x_to_y", "all"), None),  # P holds no AAA: nothing to sweep
            (s0, swap(nowhere, "y_to_x", "all"), None),
            (s0, swap(nowhere, "x_to_y", AmountInterval(Amount(0), one)), SCALE),
            (s0, swap(nowhere_m, "y_to_x", one), None),
        ]
        outcomes = set()
        for state, action, amount in cases:
            got = _outcome(apply_action, state, "P", action, amount)
            assert got == _outcome(_ref_apply, state, "P", action, amount), action.id
            outcomes.add(got if isinstance(got, tuple) else WorldState)
        assert outcomes == {
            WorldState,
            (InvalidAmount, "action 'sweep': nothing to sweep"),
            (InvalidAmount, "action 'm0:y_to_x:all': nothing to sweep"),
            (InvalidAmount, "action 'cp:sideways:all': nothing to sweep"),
            (InvalidAmount, "action 'nowhere:x_to_y:all': nothing to sweep"),
            (InvalidAmount, "unknown swap direction 'sideways'"),
            (UnknownPool, "unknown pool 'nowhere'"),
            (UnknownPool, "unknown pool 'nowhere_m'"),
        }


class _CountingPools(Mapping):
    """A ``Registry.pools`` that counts its spec reads; every ``Mapping``
    read (``[]``, ``get``, ``in``) goes through ``__getitem__``."""

    def __init__(self, pools):
        self._pools = dict(pools)
        self.reads = 0

    def __getitem__(self, pool_id):
        self.reads += 1
        return self._pools[pool_id]

    def __iter__(self):
        return iter(self._pools)

    def __len__(self):
        return len(self._pools)


class TestOneSpecReadPerSwap:
    def test_parametric_fixed_sweep_fill_and_pending_swap(self):
        sc = scen(edge_doc())
        s0 = sc.initial_state()
        pools = _CountingPools(sc.registry.pools)
        balances = {**s0.balances, ("d0", "P", "AAA"): SCALE}  # for the x_to_y fill
        state = WorldState(sc.registry.replace(pools=pools), balances, dict(s0.pools))
        fixed = Action("fixed", KIND_SWAP, frozenset({"d0"}), sc.registry.pools["cp"],
                       "y_to_x", Amount("1"))
        # a swap or fill acts on the pool record the loader resolved: an
        # action's target, a pending cp_swap's linked pool; none reads the registry
        cases = [
            ("buy", SCALE, 0), ("sweep", None, 0), ("fill", None, 0), (fixed, None, 0),
            ("whale_swap", None, 0),
        ]
        for action, amount, reads in cases:
            if isinstance(action, str):
                action = sc.space.lookup("P", action)
            pools.reads = 0
            assert isinstance(apply_action(state, "P", action, amount), WorldState)
            assert pools.reads == reads, action.id


class TestNoAmountBelowTheEdge:
    def test_swap_sweep_and_bridge_build_no_amount(self, bundled, amount_constructions):
        # every amount below the action boundary is int units, so applying
        # an action builds an Amount only on its error path
        cp = bundled("cp_arbitrage_small")
        buy, sell = (cp.space.lookup("P", a) for a in ("buy_pool_a", "sell_pool_b"))
        cp_state = cp.initial_state()
        bought = apply_action(cp_state, "P", buy, 10 * SCALE)
        fig = bundled("figure1_bridge")
        swapped = apply_action(fig.initial_state(), "P", fig.space.lookup("P", "swap_uniswap"))
        cases = [
            (cp_state, buy, 10 * SCALE),
            (bought, sell, None),
            (swapped, fig.space.lookup("P", "move_weth"), None),
        ]
        amount_constructions.clear()
        for state, action, units in cases:
            apply_action(state, "P", action, units)
        assert amount_constructions == []


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
