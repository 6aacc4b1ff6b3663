"""World state, balance reads, and the pricing function."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_domain_doc, scen
from xdmev.errors import (
    InsufficientBalance,
    MissingRate,
    SequenceStepError,
    UnknownId,
    UnknownPool,
    ValidationError,
    XdmevError,
)
from xdmev.engine import _LastSlot
from xdmev.fixedpoint import Amount
from xdmev.model import PriceMatrix, Registry, WorldState, balance_of, convert
from xdmev.scenario import loads


def registry() -> Registry:
    return Registry(
        native_assets={"i": "MATIC", "j": "WMATIC"},
        players=frozenset({"P", "whale"}),
        assets=frozenset({"MATIC", "WMATIC", "WETH"}),
        pools={},
    )


def fresh_state() -> WorldState:
    return WorldState(registry(), {}, {})


class TestBalanceOf:
    def test_absent_reads_zero(self):
        assert balance_of(fresh_state(), "i", "P", "MATIC") == Amount(0)

    def test_read_after_write(self):
        state = fresh_state().credit("i", "P", "MATIC", Amount("5"))
        assert balance_of(state, "i", "P", "MATIC") == Amount("5")

    def test_bridge_example_initial_holding(self, bundled):
        scenario = bundled("figure1_bridge")
        state = scenario.initial_state()
        assert balance_of(state, "ethereum", "P", "MATIC") == Amount("238172.18")

    def test_unknown_ids_raise(self):
        state = fresh_state()
        with pytest.raises(UnknownId):
            balance_of(state, "nope", "P", "MATIC")
        with pytest.raises(UnknownId):
            balance_of(state, "i", "nope", "MATIC")
        with pytest.raises(UnknownId):
            balance_of(state, "i", "P", "nope")

    def test_reads_do_not_mutate(self):
        state = fresh_state().credit("i", "P", "MATIC", Amount("1"))
        first = balance_of(state, "i", "P", "MATIC")
        second = balance_of(state, "i", "P", "MATIC")
        assert first == second == Amount("1")


class TestWorldStateValueSemantics:
    def test_prior_states_stay_intact(self):
        s0 = fresh_state()
        s1 = s0.credit("i", "P", "MATIC", Amount("3"))
        assert s0.balance("i", "P", "MATIC") == Amount(0)
        assert s1.balance("i", "P", "MATIC") == Amount("3")

    def test_zero_entries_normalize_away(self):
        s0 = fresh_state()
        s1 = s0.credit("i", "P", "MATIC", Amount("2")).debit("i", "P", "MATIC", Amount("2"))
        assert s0 == s1
        assert hash(s0) == hash(s1)

    def test_debit_guards_balance(self):
        state = fresh_state().credit("i", "P", "MATIC", Amount("1"))
        with pytest.raises(InsufficientBalance):
            state.debit("i", "P", "MATIC", Amount("1.000000000000000001"))

    def test_consumed_set_is_empty_initially(self, bundled):
        state = bundled("section3_2amm").initial_state()
        assert state.consumed == frozenset()

    def test_pool_specs_take_part_in_equality(self):
        # a state holds only reserves, so equality also asks for equal
        # registries, where the pools' static fields live; the hash does not
        def doc(fee_bps):
            doc = one_domain_doc()
            doc["pools"] = [{"id": "cp", "type": "constant_product", "domain": "d0",
                             "asset_x": "AAA", "asset_y": "GLD", "reserve_x": "100",
                             "reserve_y": "200", "fee_bps": fee_bps}]
            return doc

        fee_30, fee_5 = scen(doc(30)).initial_state(), scen(doc(5)).initial_state()
        assert fee_30.pools == fee_5.pools and fee_30 != fee_5
        assert hash(fee_30) == hash(fee_5)
        text = json.dumps(doc(30))
        first, second = loads(text).initial_state(), loads(text).initial_state()
        assert first.registry is not second.registry
        assert first == second and hash(first) == hash(second)

    def test_with_pool_takes_only_the_declared_pool_at_a_new_value(self, bundled):
        state = bundled("cp_arbitrage_small").initial_state()
        pool_id = sorted(state.pools)[0]
        pool = state.pool(pool_id)
        moved = pool.replace(reserve_x_units=pool.reserve_x_units + 1)
        assert state.with_pool(pool_id, moved).pool(pool_id) == moved
        stylized = bundled("section3_2amm").initial_state()
        other_type = stylized.pool(sorted(stylized.pools)[0])
        for record in (pool.replace(fee_bps=pool.fee_bps + 1), pool.replace(id="elsewhere"),
                       other_type):
            with pytest.raises(XdmevError) as err:
                state.with_pool(pool_id, record)
            assert str(err.value) == f"pool {pool_id}: record does not match its declared spec"
        with pytest.raises(UnknownPool):
            state.with_pool("nowhere", pool)


BALANCE_KEYS = [(d, p, a) for d in ("i", "j") for p in ("P", "whale")
                for a in ("MATIC", "WMATIC", "WETH")]
# (balances, pools, consumed) of one state, drawn from small spaces so that
# distinct draws often agree on some parts
STATE_PARTS = st.tuples(
    st.dictionaries(st.sampled_from(BALANCE_KEYS), st.integers(1, 3), max_size=4),
    st.dictionaries(
        st.sampled_from(("a", "b", "c")),
        st.integers(1, 3) | st.tuples(st.integers(1, 3), st.integers(1, 3)),
        max_size=3,
    ),
    st.frozensets(st.sampled_from(("t1", "t2", "t3")), max_size=3),
)


@st.composite
def state_part_pairs(draw):
    """Two states' parts: the same, or with one of the three parts redrawn."""
    first = draw(STATE_PARTS)
    second = list(first)
    redrawn = draw(st.sampled_from((None, 0, 1, 2)))
    if redrawn is not None:
        second[redrawn] = draw(STATE_PARTS)[redrawn]
    return first, tuple(second)


def reference_key(state: WorldState) -> tuple:
    """An order-free reference identity: each of the three parts as a sorted tuple."""
    return (tuple(sorted(state.balances.items())), tuple(sorted(state.pools.items())),
            tuple(sorted(state.consumed)))


def built_states(parts, reverse: bool) -> list[WorldState]:
    """The state of ``parts`` built twice, inserting entries in list order or
    reversed: once by the constructor, once by a chain of ``update`` calls."""
    balances, pools, consumed = parts
    step = -1 if reverse else 1
    balance_items, pool_items = list(balances.items())[::step], list(pools.items())[::step]
    constructed = WorldState(registry(), dict(balance_items), dict(pool_items), consumed)
    # a key credited and drained first leaves no entry behind
    grown = fresh_state().update(credit=(("j", "whale", "WETH"), 7))
    grown = grown.update(debit=(("j", "whale", "WETH"), 7))
    for key, units in balance_items:
        grown = grown.update(credit=(key, units + 1)).update(debit=(key, 1))
    for pool in pool_items:
        grown = grown.update(pools=(pool,))
    for tx in sorted(consumed)[::step]:
        grown = grown.update(consumed=tx)
    return [constructed, grown]


@settings(max_examples=300, deadline=None)
@given(state_part_pairs())
def test_states_are_equal_exactly_when_their_sorted_parts_are(pair):
    # equality ignores insertion order and how a state was built, and
    # agrees with the reference key; equal states hash equal
    states = [s for parts in pair for reverse in (False, True) for s in built_states(parts, reverse)]
    for a in states:
        for b in states:
            assert (a == b) == (reference_key(a) == reference_key(b))
            if a == b:
                assert hash(a) == hash(b)


ONE = 10**18
HELD = ("i", "P", "MATIC")
# (debit, credit, the moved balance map or the raised (class, message)),
# from a state where P holds 5 MATIC on i
BALANCE_MOVES = {
    "negative-debit": (
        (HELD, -1), None,
        (InsufficientBalance, "cannot debit negative amount -0.000000000000000001"),
    ),
    "negative-credit": (
        None, (HELD, -1),
        (InsufficientBalance, "cannot credit negative amount -0.000000000000000001"),
    ),
    "overdraft": (
        (HELD, 5 * ONE + 1), None,
        (InsufficientBalance, "P holds 5 MATIC on i, needs 5.000000000000000001"),
    ),
    "exact-drain": ((HELD, 5 * ONE), None, {}),
    "zero-debit-of-absent-key": ((("j", "P", "WMATIC"), 0), None, {HELD: 5 * ONE}),
    "zero-credit": (None, (("j", "P", "WMATIC"), 0), {HELD: 5 * ONE}),
    "debit-and-credit-on-one-key": ((HELD, 2 * ONE), (HELD, ONE), {HELD: 4 * ONE}),
}


@pytest.mark.parametrize("debit, credit, expected", BALANCE_MOVES.values(), ids=BALANCE_MOVES)
def test_state_update_and_last_slot_move_balances_by_one_rule(debit, credit, expected):
    # ``WorldState.update`` and the search's last-slot stand-in move balances
    # through the same function: same map, or same class and message
    state = fresh_state().credit(*HELD, Amount("5"))
    before = dict(state.balances)

    def outcome(update):
        try:
            return update(debit, credit)
        except XdmevError as exc:
            return type(exc), str(exc)

    moved = outcome(state.update)
    moved = moved.balances if isinstance(moved, WorldState) else moved
    assert moved == outcome(_LastSlot(state).update) == expected
    assert state.balances == before


def test_an_overdraft_reads_as_the_text_it_is_formatted_to():
    # the message is formatted only when read, yet reads, prints and
    # wraps into a sequence error as one raised with the text itself
    with pytest.raises(InsufficientBalance) as caught:
        fresh_state().update(debit=(HELD, ONE))
    text = "P holds 0 MATIC on i, needs 1"
    assert (type(caught.value), str(caught.value)) == (InsufficientBalance, text)
    assert repr(caught.value) == repr(InsufficientBalance(text))
    assert str(SequenceStepError(0, "a", caught.value)) == f"action 0 (a): {text}"


class TestPriceMatrix:
    def test_wmatic_one_to_one(self):
        prices = PriceMatrix({("WMATIC", "MATIC"): Fraction(1)})
        assert convert(prices, "WMATIC", "MATIC", Amount("288033.14")) == Amount("288033.14")

    def test_wmatic_discounted(self):
        prices = PriceMatrix({("WMATIC", "MATIC"): Fraction(9, 10)})
        assert convert(prices, "WMATIC", "MATIC", Amount("288033.14")) == Amount("259229.826")

    def test_unit_diagonal(self):
        prices = PriceMatrix()
        assert convert(prices, "WETH", "WETH", Amount("7.25")) == Amount("7.25")

    def test_reciprocal_derived(self):
        prices = PriceMatrix({("WMATIC", "MATIC"): Fraction(9, 10)})
        assert prices.rate("MATIC", "WMATIC") == Fraction(10, 9)

    def test_missing_rate(self):
        with pytest.raises(MissingRate):
            PriceMatrix().rate("WETH", "MATIC")

    def test_reciprocity_violation_rejected(self):
        prices = PriceMatrix({("A", "B"): Fraction(2)})
        with pytest.raises(ValidationError):
            prices.declare("B", "A", Fraction(6, 10))

    def test_nonpositive_rnd_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            PriceMatrix({("A", "B"): Fraction(0)})
        with pytest.raises(ValidationError):
            PriceMatrix({("A", "A"): Fraction(2)})

    def test_round_trip_within_one_unit(self):
        # expand first (x7/3), contract last (x3/7) so quantization shrinks
        prices = PriceMatrix({("A", "B"): Fraction(7, 3)})
        x = Amount("123.456789")
        back = convert(prices, "B", "A", convert(prices, "A", "B", x))
        assert abs(back - x) <= Amount.from_units(1)

    def test_negative_amounts_convert(self):
        prices = PriceMatrix({("A", "B"): Fraction(9, 10)})
        assert convert(prices, "A", "B", Amount("-10")) == Amount("-9")

    def test_equality_and_hash_follow_the_declared_rates(self):
        forward = PriceMatrix({("A", "B"): Fraction(9, 10)})
        backward = PriceMatrix()
        backward.declare("B", "A", Fraction(10, 9))
        assert forward == backward and hash(forward) == hash(backward)
        assert forward != PriceMatrix({("A", "B"): Fraction(9, 11)})
        assert forward != PriceMatrix({("A", "C"): Fraction(9, 10)})
        assert PriceMatrix() == PriceMatrix()
        assert forward != forward.entries()

    def test_repr_lists_the_rates_and_rebuilds_the_matrix(self):
        prices = PriceMatrix({("B", "A"): Fraction(2)})
        text = repr(prices)
        assert text == "PriceMatrix({('A', 'B'): Fraction(1, 2), ('B', 'A'): Fraction(2, 1)})"
        assert eval(text, {"PriceMatrix": PriceMatrix, "Fraction": Fraction}) == prices
