"""A shape's last slot, applied to the search's stand-in, prices as the real state does.

``engine._LastSlot`` stands in for the state a shape's last slot applies
to: the venues run on it unchanged and its ``update`` returns the moved
balance map instead of a new ``WorldState``. For every venue kind, over
generated states and amounts (failing ones included), the stand-in's
priced value equals ``priced_balance_delta(terms, apply_action(state, ...).balances)``,
its balances equal the real state's, and when either side raises, the
other raises the same exception class.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import scen
from xdmev.actions import apply_action
from xdmev.engine import MevQuery, _LastSlot, price_terms, priced_balance_delta
from xdmev.fixedpoint import SCALE
from xdmev.model import PriceMatrix, WorldState


def venue_doc() -> dict:
    """Two domains, a (GLD) and b (SLV); P holds every kind of action."""
    cp = {"id": "cp", "type": "constant_product", "domain": "a", "asset_x": "ETH",
          "asset_y": "GLD", "reserve_x": "100", "reserve_y": "2000", "fee_bps": 30}
    styl = [
        {"id": pid, "type": "stylized_midpoint", "domain": "a", "asset_x": "ETH",
         "asset_y": "GLD", "price": "20"}
        for pid in ("sty_1", "sty_2")
    ]
    swaps = [
        {"id": f"cp_{direction}_{mode}", "player": "P", "kind": "Swap", "pool": "cp",
         "direction": direction, "amount": amount}
        for direction in ("x_to_y", "y_to_x")
        for mode, amount in (("fixed", {"fixed": "1.5"}), ("sweep", "all"),
                             ("param", {"interval": ["0", "50"]}))
    ]
    pending = [
        ("push", {"type": "price_push", "pool": "sty_1", "to_price": "30"}),
        ("transfer", {"type": "transfer", "from_account": "Q", "to_account": "P",
                      "asset": "GLD", "amount": "2.5"}),
        ("transfer_zero", {"type": "transfer", "from_account": "Q", "to_account": "P",
                           "asset": "GLD", "amount": "0"}),
        ("leg_1", {"type": "arb_leg", "pool": "sty_1", "from_price": "20", "to_price": "25",
                   "opportunity": "opp"}),
        ("leg_2", {"type": "arb_leg", "pool": "sty_2", "from_price": "20", "to_price": "25",
                   "opportunity": "opp"}),
        ("cp_swap", {"type": "cp_swap", "pool": "cp", "direction": "y_to_x",
                     "amount_in": "4", "account": "P"}),
    ]
    return {
        "schema_version": 1,
        "domains": [{"id": "a", "native_asset": "GLD"}, {"id": "b", "native_asset": "SLV"}],
        "assets": ["ETH", "GLD", "SLV"],
        "players": [
            {"id": "P", "balances": [], "capabilities": [
                {"domain": "a", "kinds": ["Bridge", "ExecutePendingTx", "StylizedArb", "Swap"]},
                {"domain": "b", "kinds": ["Bridge"]},
            ]},
            {"id": "Q", "balances": [], "capabilities": []},
        ],
        "pools": [cp] + styl,
        "bridges": [{"id": "br", "from_domain": "a", "to_domain": "b", "from_asset": "GLD",
                     "to_asset": "SLV", "rate": "3/2", "flat_fee": "0.1"}],
        "mempool": [{"id": tid, "domain": "a", "effect": effect} for tid, effect in pending],
        "opportunities": [{"id": "opp", "beneficiary": "P", "declared_profit": "0.7",
                           "profit_asset": "GLD", "profit_domain": "a",
                           "legs": ["leg_1", "leg_2"]}],
        "stylized_arbs": [{"id": "arb_spec", "pool_a": "sty_1", "pool_b": "sty_2",
                           "declared_profit": "1", "profit_asset": "GLD",
                           "profit_domain": "a"}],
        "actions": swaps + [
            {"id": "fill_x_to_y", "player": "P", "kind": "Swap", "pool": "sty_1",
             "direction": "x_to_y", "amount": {"interval": ["0", "5"]}},
            {"id": "fill_y_to_x", "player": "P", "kind": "Swap", "pool": "sty_2",
             "direction": "y_to_x", "amount": "all"},
            {"id": "bridge", "player": "P", "kind": "Bridge", "bridge": "br",
             "amount": {"interval": ["0", "10"]}},
            {"id": "arb", "player": "P", "kind": "StylizedArb", "arb": "arb_spec"},
        ],
        "prices": [{"from": "SLV", "to": "GLD", "rate": "2/3"}],
        "defaults": {"player": "P", "base_domain": "a", "base_asset": "GLD",
                     "max_sequence_length": 2, "alpha": "0"},
    }


SCENARIO = scen(venue_doc())
ACTIONS = {action.id: action for action in SCENARIO.space.for_player("P")}
REGISTRY = SCENARIO.initial_state().registry
PENDING = tuple(action.target.id for action in ACTIONS.values() if action.kind == "ExecutePendingTx")
BALANCE_KEYS = tuple(
    (domain, player, asset)
    for domain, asset in (("a", "ETH"), ("a", "GLD"), ("b", "SLV"))
    for player in ("P", "Q")
)

# balances of up to 60 tokens, none, or dust, so that debits past the
# balance and zero outputs are common, but not the rule
small_units = st.one_of(
    st.integers(1, 120).map(lambda k: k * SCALE // 2 + k), st.just(0), st.integers(1, 10**6)
)
prices = st.one_of(st.sampled_from((20 * SCALE, 25 * SCALE)), st.integers(1, 40 * SCALE))


@st.composite
def states(draw) -> WorldState:
    balances = {key: units for key in BALANCE_KEYS if (units := draw(small_units))}
    pools = {
        "cp": (draw(st.integers(1, 200 * SCALE)), draw(st.integers(1, 4000 * SCALE))),
        "sty_1": draw(prices),
        "sty_2": draw(prices),
    }
    consumed = frozenset(draw(st.sets(st.sampled_from(PENDING))))
    return WorldState(REGISTRY, balances, pools, consumed)


def funded(sty_2: int, consumed: frozenset = frozenset()) -> WorldState:
    """P holds 30 ETH and 30 GLD, Q 30 GLD; the pools are as declared but
    ``sty_2``: every action applies from here for some such state."""
    balances = {("a", "P", "ETH"): 30 * SCALE, ("a", "P", "GLD"): 30 * SCALE,
                ("a", "Q", "GLD"): 30 * SCALE}
    pools = {"cp": (100 * SCALE, 2000 * SCALE), "sty_1": 20 * SCALE, "sty_2": sty_2}
    return WorldState(REGISTRY, balances, pools, consumed)


def outcome(apply, terms):
    """(priced units, balances) of the balance map ``apply()`` returns, or
    the class of what it raised."""
    try:
        balances = apply()
        return priced_balance_delta(terms, balances), balances
    except Exception as exc:  # the class is what must match
        return type(exc)


@pytest.mark.parametrize("action_id", sorted(ACTIONS))
@settings(max_examples=100, deadline=None)
@example(state=funded(25 * SCALE), initial=funded(20 * SCALE), slv_priced=True, position=50)
@example(
    state=funded(20 * SCALE, frozenset({"leg_1"})), initial=funded(20 * SCALE),
    slv_priced=False, position=50,
)
@given(
    state=states(),
    initial=states(),
    slv_priced=st.booleans(),
    # a parametric amount, in hundredths of the interval's width past its
    # low end: below, inside and above it, and None
    position=st.one_of(st.none(), st.integers(-50, 150)),
)
def test_stand_in_prices_as_the_real_application(action_id, state, initial, slv_priced, position):
    action = ACTIONS[action_id]
    units = None
    if action.parametric and position is not None:
        lo, hi = action.amount.lo.units, action.amount.hi.units
        units = lo + (hi - lo) * position // 100
    # without a SLV rate, b is no value domain: the query check refuses an
    # unpriced one before any pricing
    rates = {("SLV", "GLD"): Fraction(2, 3)} if slv_priced else {}
    query = MevQuery(
        player="P", action_domains=frozenset({"a", "b"}),
        value_domains=("a", "b") if slv_priced else ("a",),
        base_domain="a", base_asset="GLD", prices=PriceMatrix(rates),
    )
    terms = price_terms(query, initial)
    real = outcome(lambda: apply_action(state, "P", action, units).balances, terms)
    stand_in = outcome(lambda: apply_action(_LastSlot(state), "P", action, units), terms)
    assert stand_in == real


def test_every_venue_kind_is_covered():
    kinds = {
        (action.kind, type(action.target).__name__,
         type(getattr(action.target, "effect", None)).__name__, type(action.amount).__name__)
        for action in ACTIONS.values()
    }
    assert {kind[0] for kind in kinds} == {"Swap", "Bridge", "StylizedArb", "ExecutePendingTx"}
    assert {kind[2] for kind in kinds if kind[0] == "ExecutePendingTx"} == {
        "PricePushEffect", "TransferEffect", "ArbLegEffect", "CpSwapEffect",
    }
    assert {kind[3] for kind in kinds if kind[1] == "ConstantProductPool"} == {
        "Amount", "str", "AmountInterval",
    }
