"""Value definitions, the exhaustive search, and its brute-force oracle."""

import gc
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import deep_tips_doc, one_domain_doc, scen
from xdmev._kernels import grid_scan, round_trip_profit
from xdmev.engine import (
    MevQuery,
    extractable_value,
    grid_amounts,
    mev,
    mev_oracle,
    optimal_cp_arbitrage,
    price_terms,
    reachable_states,
    replay_witness,
)
from xdmev.actions import AmountInterval, apply_action, apply_sequence
from xdmev.collusion import classify_collusion
from xdmev.errors import (
    ExplosionGuard, MissingRate, NoOpportunity, ParseError, UnknownId, XdmevError,
)
from xdmev.fixedpoint import SCALE, Amount, div_half_even
from xdmev.scenario import BUNDLED_NAMES, bundled_path, load_bundled
from xdmev.venues import ConstantProductPool

MICRO = Amount("0.000001")


class TestExtractableValue:
    def test_empty_sequence_is_zero(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        assert extractable_value(scenario.space, state, "P", [], "i", "ETH") == Amount(0)

    def test_two_amm_sequence_extracts_one(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        seq = [("tx_buy_eth", None), ("arb_uni_toro", None)]
        assert extractable_value(scenario.space, state, "P", seq, "i", "ETH") == Amount("1")
        assert extractable_value(scenario.space, state, "P", seq, "j", "ETH") == Amount("0")

    def test_bridge_example_legs_may_be_negative(self, bundled):
        scenario = bundled("figure1_bridge")
        state = scenario.initial_state()
        seq = [("swap_uniswap", None), ("move_weth", None), ("swap_quickswap", None)]
        eth_leg = extractable_value(scenario.space, state, "P", seq, "ethereum", "MATIC")
        poly_leg = extractable_value(scenario.space, state, "P", seq, "polygon", "WMATIC")
        assert eth_leg == Amount("-238172.18")
        assert abs(poly_leg - Amount("288033.14")) < Amount("0.000000000001")


class TestReachableStates:
    def test_zero_length_only_initial(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        states = reachable_states(scenario.space, state, "P", {"i", "j"}, 0)
        assert states == frozenset({state})

    def test_single_pending_tx(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        states = reachable_states(scenario.space, state, "P", {"i"}, 1)
        assert len(states) == 2 and state in states

    def test_two_amm_reaches_midpoint_state(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        states = reachable_states(scenario.space, state, "P", {"i", "j"}, 2)
        hits = [
            s for s in states
            if s.pool("uniswap").price == Amount("25") and s.pool("toroswap").price == Amount("25")
        ]
        assert len(hits) == 1


class TestMevOnWorkedExamples:
    def test_two_amm_solo_and_joint(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        solo_i = mev(scenario.space, state, scenario.default_query(
            action_domains=["i"], value_domains=["i"]))
        solo_j = mev(scenario.space, state, scenario.default_query(
            action_domains=["j"], value_domains=["j"]))
        joint = mev(scenario.space, state, scenario.default_query())
        assert solo_i.value == Amount("0") and solo_i.witness == ()
        assert solo_j.value == Amount("0")
        assert joint.value == Amount("1")
        assert [a for a, _ in joint.witness] == ["tx_buy_eth", "arb_uni_toro"]

    def test_four_amm_solo_and_joint(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        solo_i = mev(scenario.space, state, scenario.default_query(
            action_domains=["i"], value_domains=["i"]))
        solo_j = mev(scenario.space, state, scenario.default_query(
            action_domains=["j"], value_domains=["j"]))
        joint = mev(scenario.space, state, scenario.default_query())
        assert solo_i.value == Amount("1")
        assert solo_j.value == Amount("0")
        assert joint.value == Amount("1.6")
        assert sorted(a for a, _ in joint.witness) == [
            "tx1_i", "tx1_j", "tx2_i", "tx2_j", "tx3_i", "tx4_i", "tx5_i"
        ]

    @pytest.mark.parametrize("name, method", [
        ("cp_arbitrage_small", "golden-section"),  # sizes its parametric buy
        ("section3_2amm", "exhaustive"),  # every action is discrete
    ])
    def test_method_names_a_golden_section_answer(self, bundled, name, method):
        scenario = bundled(name)
        result = mev(scenario.space, scenario.initial_state(), scenario.default_query())
        assert result.method == method

    def test_joint_final_state_has_all_pools_rebalanced(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        query = scenario.default_query()
        joint = mev(scenario.space, state, query)
        final = apply_sequence(scenario.space, state, query.player, joint.witness)
        for pool_id in ("uniswap", "sushiswap", "toroswap", "unagiswap"):
            assert final.pool(pool_id).price == Amount("22.5")

    def test_value_scope_excludes_foreign_profits(self, bundled):
        # acting in both domains while valuing only the first: the pair
        # whose profit lands on the second domain is not worth executing
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        result = mev(scenario.space, state, scenario.default_query(
            action_domains=["i", "j"], value_domains=["i"]))
        assert result.value == Amount("1.3")
        assert [a for a, _ in result.witness] == [
            "tx1_i", "tx1_j", "tx2_i", "tx3_i", "tx4_i"
        ]

    def test_action_space_monotonicity_on_bundles(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        wide = mev(scenario.space, state, scenario.default_query(action_domains=["i", "j"],
                                                                 value_domains=["i", "j"]))
        narrow = mev(scenario.space, state, scenario.default_query(action_domains=["i"],
                                                                   value_domains=["i", "j"]))
        assert wide.value >= narrow.value

    def test_witness_replay_reproduces_value(self, bundled):
        for name in ("section3_2amm", "appendix_b_4amm", "figure2_3domain", "cp_arbitrage_small"):
            scenario = bundled(name)
            state = scenario.initial_state()
            query = scenario.default_query()
            result = mev(scenario.space, state, query)
            assert replay_witness(scenario.space, state, query, result.witness) == result.value

    def test_commuting_tips_collapse_to_subsets(self):
        # every ordering of commuting transfers reaches the same state, so
        # the search expands one node per subset instead of one per ordering
        doc = one_domain_doc()
        tips = ["0.25", "1", "2.5", "4", "7", "10.125", "3", "0.5"]
        doc["players"].append({
            "id": "whale",
            "balances": [{"domain": "d0", "asset": "GLD", "amount": "100"}],
            "capabilities": [],
        })
        doc["mempool"] = [
            {
                "id": f"tip_{k}",
                "domain": "d0",
                "effect": {"type": "transfer", "from_account": "whale",
                           "to_account": "P", "asset": "GLD", "amount": amount},
            }
            for k, amount in reversed(list(enumerate(tips)))
        ]
        scenario = scen(doc)
        result = mev(scenario.space, scenario.initial_state(),
                     scenario.default_query(max_len=8))
        assert result.value == sum((Amount(t) for t in tips), Amount(0))
        assert result.witness == tuple((f"tip_{k}", None) for k in range(8))
        assert result.explored <= 2**8 + 1

    def test_explosion_guard_trips(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        query = scenario.default_query()
        tight = MevQuery(
            player=query.player,
            action_domains=query.action_domains,
            value_domains=query.value_domains,
            base_domain=query.base_domain,
            base_asset=query.base_asset,
            prices=query.prices,
            max_sequence_length=query.max_sequence_length,
            candidate_cap=10,
        )
        with pytest.raises(ExplosionGuard):
            mev(scenario.space, state, tight)


def cross_two(scenario, domain_i: str, domain_j: str):
    """``mev`` of P acting and valued in {i, j}, priced in i's native asset."""
    state = scenario.initial_state()
    query = MevQuery(
        player="P",
        action_domains=frozenset({domain_i, domain_j}),
        value_domains=(domain_i, domain_j),
        base_domain=domain_i,
        base_asset=state.registry.native_asset(domain_i),
        prices=scenario.prices,
    )
    return mev(scenario.space, state, query)


class TestMevCrossTwo:
    def test_bridge_example_one_to_one(self, bundled):
        scenario = bundled("figure1_bridge")
        result = cross_two(scenario, "ethereum", "polygon")
        assert abs(result.value - Amount("49860.96")) < Amount("0.000000000001")
        general = mev(scenario.space, scenario.initial_state(), scenario.default_query())
        assert result.value == general.value and result.witness == general.witness

    def test_bridge_example_discounted(self, bundled):
        scenario = bundled("figure1_bridge_discounted")
        result = cross_two(scenario, "ethereum", "polygon")
        assert abs(result.value - Amount("21057.646")) < Amount("0.000000000001")

    def test_no_opportunity_scenario_yields_zero_and_empty_witness(self):
        doc = one_domain_doc()
        doc["domains"].append({"id": "d1", "native_asset": "AAA"})
        doc["players"][0]["capabilities"].append({"domain": "d1", "kinds": ["Swap"]})
        doc["prices"] = [{"from": "AAA", "to": "GLD", "rate": "1/1"}]
        result = cross_two(scen(doc), "d0", "d1")
        assert result.value == Amount("0") and result.witness == ()


def reference_fee_search(cheap_ry, cheap_rx, dear_rx, dear_ry, cheap_fee, dear_fee):
    """(amount, profit) of ``optimal_cp_arbitrage``'s own golden-section loop,
    as it ran for pairs with fees before it shared ``mev``'s schedule."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    best_amount = best_profit = 0
    hi_u = cheap_ry
    lo_f, hi_f = 1.0, float(hi_u)
    tol = max(hi_f * 1e-12, 1.0)

    def consider(units):
        nonlocal best_amount, best_profit
        units = min(max(units, 1), hi_u)
        profit = round_trip_profit(
            cheap_ry, cheap_rx, dear_rx, dear_ry, cheap_fee, dear_fee, units)
        if profit > best_profit or (profit == best_profit and 0 < units < best_amount):
            best_profit = profit
            best_amount = units
        return profit

    consider(1)
    consider(hi_u)
    c = hi_f - (hi_f - lo_f) * inv_phi
    d = lo_f + (hi_f - lo_f) * inv_phi
    fc = consider(int(round(c)))
    fd = consider(int(round(d)))
    while (hi_f - lo_f) > tol:
        if fc > fd:
            hi_f, d, fd = d, c, fc
            c = hi_f - (hi_f - lo_f) * inv_phi
            fc = consider(int(round(c)))
        else:
            lo_f, c, fc = c, d, fd
            d = lo_f + (hi_f - lo_f) * inv_phi
            fd = consider(int(round(d)))
    return best_amount, best_profit


class TestOptimalCpArbitrage:
    def pools(self, ry_b="3000", fee_a=0, fee_b=0):
        a = ConstantProductPool(
            id="pool_a", domain="dex", asset_x="ETH", asset_y="DAI",
            reserve_x_units=Amount("100").units, reserve_y_units=Amount("2000").units, fee_bps=fee_a)
        b = ConstantProductPool(
            id="pool_b", domain="dex", asset_x="ETH", asset_y="DAI",
            reserve_x_units=Amount("100").units, reserve_y_units=Amount(ry_b).units, fee_bps=fee_b)
        return a, b

    def test_identical_pools_no_opportunity(self):
        a, b = self.pools(ry_b="2000")
        with pytest.raises(NoOpportunity):
            optimal_cp_arbitrage(a, b)

    def test_matches_million_point_grid_oracle(self):
        a, b = self.pools()
        plan = optimal_cp_arbitrage(a, b)
        # exhaustive scan of one million evenly spaced inputs over [0, 2000]
        _, grid_profit = grid_scan(
            2000 * SCALE, 100 * SCALE, 100 * SCALE, 3000 * SCALE,
            0, 0, 0, 2000 * SCALE, 1_000_000,
        )
        assert grid_profit <= plan.profit.units
        assert plan.profit.units - grid_profit <= plan.profit.units * 1e-9

    def test_equalizes_marginal_prices_zero_fee(self):
        a, b = self.pools()
        plan = optimal_cp_arbitrage(a, b)
        mid = (100 * SCALE * plan.amount.units) // (2000 * SCALE + plan.amount.units)
        price_cheap = Fraction(2000 * SCALE + plan.amount.units, 100 * SCALE - mid)
        out = 3000 * SCALE - -(-(100 * SCALE * 3000 * SCALE) // (100 * SCALE + mid))
        price_dear = Fraction(3000 * SCALE - out, 100 * SCALE + mid)
        assert abs(price_cheap / price_dear - 1) < Fraction(1, 10**9)

    def test_swapped_arguments_mirror(self):
        a, b = self.pools()
        fwd = optimal_cp_arbitrage(a, b)
        rev = optimal_cp_arbitrage(b, a)
        assert fwd.profit == rev.profit and fwd.amount == rev.amount
        assert fwd.buy_pool == rev.buy_pool == "pool_a"
        assert fwd.sell_pool == rev.sell_pool == "pool_b"

    def test_flipped_orientation_supported(self):
        a, _ = self.pools()
        flipped = ConstantProductPool(
            id="pool_b", domain="dex", asset_x="DAI", asset_y="ETH",
            reserve_x_units=Amount("3000").units, reserve_y_units=Amount("100").units, fee_bps=0)
        plan = optimal_cp_arbitrage(a, flipped)
        assert plan.profit == optimal_cp_arbitrage(*self.pools()).profit

    def test_fee_case_against_fine_grid(self):
        a, b = self.pools(fee_a=30, fee_b=30)
        plan = optimal_cp_arbitrage(a, b)
        _, grid_profit = grid_scan(
            2000 * SCALE, 100 * SCALE, 100 * SCALE, 3000 * SCALE,
            30, 30, 0, 2000 * SCALE, 1_000_000,
        )
        assert abs(plan.profit.units - grid_profit) <= max(plan.profit.units * 1e-6, 10)

    def test_fee_pairs_match_the_reference_loop(self):
        rng = random.Random(20261018)
        fees = (0, 1, 5, 30, 100)
        checked = 0
        for i in range(2000):
            if i % 4 == 0:  # where the old and new stopping widths differ
                reserves = [rng.randrange(10**12, 2**53) for _ in range(4)]
            else:
                reserves = [rng.randrange(1, 10 ** rng.randint(1, 30) + 1) for _ in range(4)]
            a_rx, a_ry, b_rx, b_ry = reserves
            fee_a, fee_b = rng.choice(fees), rng.choice(fees[1:])
            if i % 2:
                fee_a, fee_b = fee_b, fee_a
            a = ConstantProductPool(
                id="pool_a", domain="dex", asset_x="ETH", asset_y="DAI",
                reserve_x_units=a_rx, reserve_y_units=a_ry,
                fee_bps=fee_a)
            b = ConstantProductPool(
                id="pool_b", domain="dex", asset_x="ETH", asset_y="DAI",
                reserve_x_units=b_rx, reserve_y_units=b_ry,
                fee_bps=fee_b)
            if a_ry * b_rx < b_ry * a_rx:
                expected = reference_fee_search(a_ry, a_rx, b_rx, b_ry, fee_a, fee_b)
                pools = ("pool_a", "pool_b")
            elif a_ry * b_rx > b_ry * a_rx:
                expected = reference_fee_search(b_ry, b_rx, a_rx, a_ry, fee_b, fee_a)
                pools = ("pool_b", "pool_a")
            else:
                expected, pools = (0, 0), None
            if expected[0] <= 0 or expected[1] <= 0:
                with pytest.raises(NoOpportunity):
                    optimal_cp_arbitrage(a, b)
                continue
            plan = optimal_cp_arbitrage(a, b)
            assert (plan.amount.units, plan.profit.units) == expected, reserves
            assert (plan.buy_pool, plan.sell_pool) == pools
            checked += 1
        assert checked > 1000

    def test_mismatched_pair_rejected(self):
        a, _ = self.pools()
        other = ConstantProductPool(
            id="x", domain="dex", asset_x="ETH", asset_y="USDC",
            reserve_x_units=Amount("1").units, reserve_y_units=Amount("1").units, fee_bps=0)
        with pytest.raises(Exception):
            optimal_cp_arbitrage(a, other)

    def test_fee_pair_past_float_range_raises_one_error(self):
        # the fee case sizes by golden-section over the buy pool's reserve
        a, b = (
            ConstantProductPool(
                id=pid, domain="dex", asset_x="ETH", asset_y="DAI",
                reserve_x_units=Amount("100").units, reserve_y_units=ry * 10**400, fee_bps=30)
            for pid, ry in (("pool_a", 2), ("pool_b", 3))
        )
        with pytest.raises(XdmevError, match="^pools pool_a and pool_b: amount range reaches past "):
            optimal_cp_arbitrage(a, b)


class TestOracleAgreement:
    def test_discrete_scenarios_agree_exactly(self, bundled):
        for name in ("section3_2amm", "figure1_bridge", "figure1_bridge_discounted",
                     "figure2_3domain", "separable_pair"):
            scenario = bundled(name)
            state = scenario.initial_state()
            query = scenario.default_query()
            fast = mev(scenario.space, state, query)
            slow = mev_oracle(scenario.space, state, query)
            assert fast.value == slow.value, name
            assert fast.witness == slow.witness, name

    def test_empty_action_space(self):
        scenario = scen(one_domain_doc())
        state = scenario.initial_state()
        result = mev_oracle(scenario.space, state, scenario.default_query())
        assert result.value == Amount("0") and result.witness == ()

    def test_parametric_scenario_within_tolerance(self, bundled):
        scenario = bundled("cp_arbitrage_small")
        state = scenario.initial_state()
        query = scenario.default_query()
        fast = mev(scenario.space, state, query)
        slow = mev_oracle(scenario.space, state, query, grid_points=10_001)
        assert slow.value <= fast.value
        assert fast.value - slow.value < Amount("0.001")

    def test_engine_matches_leaf_optimizer_on_cp_scenario(self, bundled):
        scenario = bundled("cp_arbitrage_small")
        state = scenario.initial_state()
        result = mev(scenario.space, state, scenario.default_query())
        plan = optimal_cp_arbitrage(state.pool("pool_a"), state.pool("pool_b"))
        assert abs(result.value - plan.profit) < Amount("0.000000001")

    def test_oracle_counts_grid_candidates(self, bundled):
        scenario = bundled("cp_arbitrage_small")
        state = scenario.initial_state()
        result = mev_oracle(scenario.space, state, scenario.default_query(), grid_points=11)
        assert result.explored > 11


def reference_grid(lo: int, hi: int, points: int) -> list[int]:
    """Grid units as a loop that rounds every point and drops repeats builds them."""
    steps = points - 1
    out: list[int] = []
    for k in range(points):
        units = div_half_even(lo * (steps - k) + hi * k, steps)
        if not out or out[-1] != units:
            out.append(units)
    return out


def identity(state) -> tuple:
    """This module's own state identity: each of the three maps as a sorted tuple."""
    return (tuple(sorted(state.balances.items())), tuple(sorted(state.pools.items())),
            tuple(sorted(state.consumed)))


class ReferenceWalk:
    """Every step the grid walk tries, by plain recursion over the usable
    actions in id order and ``reference_grid`` amounts. ``tried`` counts the
    steps; ``sequences`` holds each valid sequence's (ids, final state) in
    walk order; ``applications`` is what a walk applies that applies each
    (identity, discrete action) edge of the states discrete prefixes reach
    once, and every other step directly."""

    def __init__(self, space, state, player, domains, max_len, grid_points):
        self.actions = [a for a in space.for_player(player) if a.domains <= frozenset(domains)]
        self.player, self.max_len, self.grid_points = player, max_len, grid_points
        self.tried, self.sequences, self.edges, self.direct = 0, [], set(), 0
        if max_len > 0:
            self.extend(state, (), True)

    @property
    def applications(self) -> int:
        return len(self.edges) + self.direct

    def extend(self, state, ids, discrete):
        for action in self.actions:
            if action.id in ids:
                continue
            amount = action.amount
            grid = (reference_grid(amount.lo.units, amount.hi.units, self.grid_points)
                    if action.parametric else [None])
            for units in grid:
                self.tried += 1
                if discrete and units is None:
                    self.edges.add((identity(state), action.id))
                else:
                    self.direct += 1
                try:
                    nxt = apply_action(state, self.player, action, units)
                except XdmevError:
                    continue
                self.sequences.append((ids + (action.id,), nxt))
                if len(ids) + 1 < self.max_len:
                    self.extend(nxt, ids + (action.id,), discrete and units is None)


def guard(cap: int) -> tuple:
    return ExplosionGuard, f"search work exceeded the cap of {cap}"


# What each walk answers on a query several refusals could stop: a negative
# length is refused first, then a grid below 2 points (at any length), then
# a budget too small for the depth-1 steps, before the walk runs.
NEGATIVE_LENGTH = ((XdmevError, "max_sequence_length must be >= 0"),
                   (XdmevError, "max_len must be >= 0"))
SPARSE_GRID = (XdmevError, "grid needs at least 2 points")
# name -> (candidate_cap, max_len) -> the (mev_oracle, reachable_states)
# outcomes at grid_points 2 and 5: the oracle's ``explored``, the size of
# the reachable set, or the error's class and message
WALK_OUTCOMES = {
    "section3_2amm": {
        # at cap 0 and length 0 the oracle's count of the empty sequence
        # trips the guard, while reachable_states, which does not count it,
        # returns the initial state
        (0, 0): ((guard(0), 1), (guard(0), 1)),
        (0, 1): ((guard(0), guard(0)), (guard(0), guard(0))),
        (0, 2): ((guard(0), guard(0)), (guard(0), guard(0))),
        (1, 0): ((1, 1), (1, 1)),
        (1, 1): ((guard(1), guard(1)), (guard(1), guard(1))),
        (1, 2): ((guard(1), guard(1)), (guard(1), guard(1))),
        (2, 0): ((1, 1), (1, 1)),
        (2, 1): ((guard(2), 2), (guard(2), 2)),
        (2, 2): ((guard(2), guard(2)), (guard(2), guard(2))),
        (5, 0): ((1, 1), (1, 1)),
        (5, 1): ((3, 2), (3, 2)),
        (5, 2): ((4, 3), (4, 3)),
    },
    "cp_arbitrage_small": {
        (0, 0): ((guard(0), 1), (guard(0), 1)),  # as in section3_2amm
        (0, 1): ((guard(0), guard(0)), (guard(0), guard(0))),
        (0, 2): ((guard(0), guard(0)), (guard(0), guard(0))),
        (1, 0): ((1, 1), (1, 1)),
        (1, 1): ((guard(1), guard(1)), (guard(1), guard(1))),
        (1, 2): ((guard(1), guard(1)), (guard(1), guard(1))),
        (2, 0): ((1, 1), (1, 1)),
        (2, 1): ((guard(2), guard(2)), (guard(2), guard(2))),
        (2, 2): ((guard(2), guard(2)), (guard(2), guard(2))),
        (5, 0): ((1, 1), (1, 1)),
        # a buy on 5 grid points and a discrete sell: 6 depth-1 steps pass a cap of 5
        (5, 1): ((4, 2), (guard(5), guard(5))),
        (5, 2): ((5, 3), (guard(5), guard(5))),
    },
}


class TestGridWork:
    def test_grid_size_and_points_over_random_intervals(self):
        rng = random.Random(20261018)
        dense = 0
        for i in range(4000):
            lo = rng.randrange(0, 10 ** rng.randint(1, 22))
            # odd draws give spans shorter than the grid, even draws longer ones
            span = rng.randrange(1, 80) if i % 2 else rng.randrange(1, 10 ** rng.randint(1, 24))
            points = rng.randint(2, 60)
            grid = grid_amounts(
                AmountInterval(Amount.from_units(lo), Amount.from_units(lo + span)), points
            )
            assert len(grid) == min(points, span + 1), (lo, span, points)
            assert list(grid) == reference_grid(lo, lo + span, points)
            dense += points - 1 >= span
        assert 500 < dense < 3500  # both kinds of grid are drawn often

    @pytest.mark.parametrize("walker", ["mev_oracle", "reachable_states"])
    def test_grid_past_the_cap_raises_before_it_is_built(
        self, bundled, amount_constructions, walker
    ):
        scenario = bundled("cp_arbitrage_small")
        state = scenario.initial_state()
        query = scenario.default_query().replace(candidate_cap=1000)
        with pytest.raises(ExplosionGuard, match="^search work exceeded the cap of 1000$"):
            if walker == "mev_oracle":
                mev_oracle(scenario.space, state, query, grid_points=10**6)
            else:
                reachable_states(
                    scenario.space, state, "P", query.action_domains, 2,
                    grid_points=10**6, candidate_cap=1000,
                )
        assert len(amount_constructions) < 1000

    @pytest.mark.parametrize("name", ["section3_2amm", "cp_arbitrage_small"])
    @pytest.mark.parametrize("grid_points", [1, 0, -5])
    def test_grid_below_two_points_is_refused(self, bundled, name, grid_points):
        # refused whether or not any action is parametric, and at any length
        scenario = bundled(name)
        state = scenario.initial_state()
        query = scenario.default_query()
        with pytest.raises(XdmevError, match="^grid needs at least 2 points$"):
            mev_oracle(scenario.space, state, query, grid_points)
        for max_len in (0, 2):
            with pytest.raises(XdmevError, match="^grid needs at least 2 points$"):
                reachable_states(
                    scenario.space, state, "P", query.action_domains, max_len, grid_points
                )

    @pytest.mark.parametrize("name", sorted(WALK_OUTCOMES))
    def test_walks_pin_which_refusal_wins(self, bundled, name):
        scenario = bundled(name)
        state = scenario.initial_state()
        query = scenario.default_query()

        def outcome(call):
            try:
                return call()
            except XdmevError as exc:
                return type(exc), str(exc)

        for cap, max_len, grid_points in itertools.product((0, 1, 2, 5), (-1, 0, 1, 2), (1, 2, 5)):
            oracle = outcome(lambda: mev_oracle(
                scenario.space, state,
                query.replace(candidate_cap=cap, max_sequence_length=max_len), grid_points,
            ).explored)
            reachable = outcome(lambda: len(reachable_states(
                scenario.space, state, query.player, query.action_domains, max_len,
                grid_points, cap,
            )))
            if max_len < 0:
                expected = NEGATIVE_LENGTH
            elif grid_points < 2:
                expected = (SPARSE_GRID, SPARSE_GRID)
            else:
                expected = WALK_OUTCOMES[name][cap, max_len][grid_points == 5]
            assert (oracle, reachable) == expected, (cap, max_len, grid_points)

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    @pytest.mark.parametrize("grid_points", [5, 101])
    def test_oracle_finishes_exactly_up_to_its_own_count(self, bundled, name, grid_points):
        # the early check never refuses a query the walk would finish
        scenario = bundled(name)
        state = scenario.initial_state()
        query = scenario.default_query()
        full = mev_oracle(scenario.space, state, query, grid_points)
        capped = mev_oracle(
            scenario.space, state, query.replace(candidate_cap=full.explored), grid_points
        )
        assert capped == full
        with pytest.raises(ExplosionGuard):
            mev_oracle(
                scenario.space, state, query.replace(candidate_cap=full.explored - 1),
                grid_points,
            )

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    @pytest.mark.parametrize("grid_points", [5, 101])
    def test_reachable_states_finish_exactly_up_to_their_own_count(
        self, bundled, name, grid_points, monkeypatch
    ):
        # every step tried counts against the cap, the empty sequence does
        # not; a step the transition graph answers is tried but not applied
        from xdmev import engine

        scenario = bundled(name)
        state = scenario.initial_state()
        query = scenario.default_query()
        walk = (scenario.space, state, query.player, query.action_domains,
                query.max_sequence_length, grid_points)
        reference = ReferenceWalk(*walk)
        applied = []
        apply = engine.apply_action

        def counting_apply(*args, **kwargs):
            applied.append(args[2].id)
            return apply(*args, **kwargs)

        monkeypatch.setattr(engine, "apply_action", counting_apply)
        full = reachable_states(*walk)
        monkeypatch.undo()
        assert len(applied) == reference.applications
        assert full == frozenset([state] + [final for _, final in reference.sequences])
        assert reachable_states(*walk, candidate_cap=reference.tried) == full
        with pytest.raises(ExplosionGuard):
            reachable_states(*walk, candidate_cap=reference.tried - 1)


def there_and_back_doc() -> dict:
    """P sells 1 AAA for 20 GLD at a stylized pool whose quote never moves
    and buys it back, so ``sell`` then ``buy`` returns to the initial state;
    a pending 2.5 GLD tip from Q extends the walk from there."""
    doc = one_domain_doc()
    doc["pools"] = [{"id": "sty", "type": "stylized_midpoint", "domain": "d0",
                     "asset_x": "AAA", "asset_y": "GLD", "price": "20"}]
    doc["players"][0]["balances"] = [{"domain": "d0", "asset": "AAA", "amount": "1"}]
    doc["players"].append({"id": "Q", "capabilities": [],
                           "balances": [{"domain": "d0", "asset": "GLD", "amount": "5"}]})
    doc["mempool"] = [{"id": "tip", "domain": "d0", "effect": {
        "type": "transfer", "from_account": "Q", "to_account": "P", "asset": "GLD",
        "amount": "2.5"}}]
    doc["actions"] = [
        {"id": "buy", "player": "P", "kind": "Swap", "pool": "sty", "direction": "y_to_x",
         "amount": {"fixed": "20"}},
        {"id": "sell", "player": "P", "kind": "Swap", "pool": "sty", "direction": "x_to_y",
         "amount": {"fixed": "1"}},
    ]
    return doc


class TestTransitionGraph:
    """The oracle's walk applies each distinct (state, discrete action) pair
    once, under an identity of its own, and still tries every step."""

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_oracle_needs_no_world_state_equality_or_hash(self, bundled, name, monkeypatch):
        # ``mev``'s memo trusts ``WorldState.__eq__`` and ``__hash__``; the
        # oracle must not, or a fault in them would hide from oracle-check
        from xdmev.model import WorldState

        scenario = bundled(name)
        state = scenario.initial_state()
        query = scenario.default_query()
        expected = mev_oracle(scenario.space, state, query, grid_points=11)

        def refuse(*_):
            raise AssertionError("the oracle compared or hashed a WorldState")

        monkeypatch.setattr(WorldState, "__eq__", refuse)
        monkeypatch.setattr(WorldState, "__hash__", refuse)
        result = mev_oracle(scenario.space, state, query, grid_points=11)
        monkeypatch.undo()
        assert result == expected

    def test_appendix_b_applies_each_distinct_pair_once(self, bundled, monkeypatch):
        from xdmev import engine

        scenario = bundled("appendix_b_4amm")
        applied = []
        apply = engine.apply_action

        def counting_apply(*args, **kwargs):
            applied.append(args[2].id)
            return apply(*args, **kwargs)

        monkeypatch.setattr(engine, "apply_action", counting_apply)
        result = mev_oracle(scenario.space, scenario.initial_state(), scenario.default_query())
        assert (len(applied), result.explored) == (168, 1536)

    @staticmethod
    def walk_both(doc, monkeypatch):
        """The oracle's answer, the reachable states and the applications of
        both walks on ``doc``, each at grid 11 and the default length, with
        no reference cycle left behind; and the test-local walk of the same
        steps, with its brute-force answer: highest GLD gain, then fewest
        steps, then ids in order."""
        from xdmev import engine

        scenario = scen(doc)
        state = scenario.initial_state()
        query = scenario.default_query()
        walk = (scenario.space, state, query.player, query.action_domains,
                query.max_sequence_length, 11)
        reference = ReferenceWalk(*walk)
        gld = ("d0", "P", "GLD")
        value, _, ids = min(
            (-final.balances.get(gld, 0), len(ids), ids) for ids, final in reference.sequences
        )
        applied = []
        apply = engine.apply_action

        def counting_apply(*args, **kwargs):
            applied.append(args[2].id)
            return apply(*args, **kwargs)

        monkeypatch.setattr(engine, "apply_action", counting_apply)
        gc.collect()
        gc.disable()
        try:
            result = mev_oracle(scenario.space, state, query, grid_points=11)
            states = reachable_states(*walk)
            assert gc.collect() == 0
        finally:
            gc.enable()
        monkeypatch.undo()
        assert result.value == Amount.from_units(-value)
        assert tuple(step[0] for step in result.witness) == ids
        assert result.explored == 1 + reference.tried
        assert states == frozenset([state] + [final for _, final in reference.sequences])
        # each walk applies each distinct (identity, discrete action) edge once
        assert len(applied) == 2 * reference.applications
        return state, reference, result

    def test_there_and_back_returns_to_the_root_node(self, monkeypatch):
        state, reference, result = self.walk_both(there_and_back_doc(), monkeypatch)
        assert identity(dict(reference.sequences)[("sell", "buy")]) == identity(state)
        assert [step[0] for step in result.witness] == ["sell", "tip"]
        # back at the root, tip is answered by the root's edge; sell, tip
        # and tip, sell meet in one node, whose buy edge applies once
        assert reference.applications == reference.tried - 2

    def test_states_one_map_apart_are_distinct_nodes(self, monkeypatch):
        # pushes to 10 and to 30 in either order differ in the pool alone,
        # and a zero transfer changes the consumed ids alone; an identity
        # that left either map out would merge them and apply too little
        doc = there_and_back_doc()
        doc["mempool"] += [
            {"id": f"push_{price}", "domain": "d0",
             "effect": {"type": "price_push", "pool": "sty", "to_price": price}}
            for price in ("10", "30")
        ] + [{"id": "nothing", "domain": "d0", "effect": {
            "type": "transfer", "from_account": "Q", "to_account": "P", "asset": "GLD",
            "amount": "0"}}]
        state, reference, _ = self.walk_both(doc, monkeypatch)
        finals = dict(reference.sequences)
        up, down = identity(finals[("push_10", "push_30")]), identity(finals[("push_30", "push_10")])
        assert (up[0], up[2]) == (down[0], down[2]) and up[1] != down[1]
        idle, root = identity(finals[("nothing",)]), identity(state)
        assert idle[:2] == root[:2] and idle[2] != root[2]


class TestAmountsAtTheEdge:
    """Searches price, compare and step in int units; an ``Amount`` is built
    only for an answer's value and its witness amounts."""

    @pytest.fixture
    def cp_query(self, bundled):
        scenario = bundled("cp_arbitrage_small")
        return scenario.space, scenario.initial_state(), scenario.default_query()

    def test_oracle_builds_amounts_for_its_answer_only(self, cp_query, amount_constructions):
        space, state, query = cp_query
        amount_constructions.clear()
        result = mev_oracle(space, state, query, grid_points=4001)
        assert result.explored > 4001
        assert len(amount_constructions) <= 1 + len(result.witness)

    def test_search_builds_amounts_for_its_answer_only(self, cp_query, amount_constructions):
        space, state, query = cp_query
        amount_constructions.clear()
        result = mev(space, state, query)
        assert len(amount_constructions) <= 1 + len(result.witness)

    def test_reachable_states_build_no_amount(self, cp_query, amount_constructions):
        space, state, query = cp_query
        amount_constructions.clear()
        states = reachable_states(space, state, query.player, query.action_domains, 2, 101)
        assert len(states) > 101
        assert amount_constructions == []


class TestQueryMechanics:
    def test_grid_amounts_cover_endpoints_exactly(self):
        interval = AmountInterval(Amount("0"), Amount("10"))
        amounts = grid_amounts(interval, 5)
        assert amounts[0] == Amount("0").units and amounts[-1] == Amount("10").units
        assert list(amounts) == sorted(amounts)

    def test_value_domain_order_does_not_change_value(self, bundled):
        scenario = bundled("figure2_3domain")
        state = scenario.initial_state()
        forward = mev(scenario.space, state, scenario.default_query(
            value_domains=["ethereum", "bsc", "polygon"]))
        backward = mev(scenario.space, state, scenario.default_query(
            value_domains=["polygon", "bsc", "ethereum"]))
        assert forward.value == backward.value

    def test_acting_elsewhere_cannot_move_home_value(self, bundled):
        scenario = bundled("separable_pair")
        state = scenario.initial_state()
        result = mev(scenario.space, state, scenario.default_query(
            action_domains=["d2"], value_domains=["d1"]))
        assert result.value == Amount("0")

    def test_concurrent_distinct_queries_are_safe(self, bundled):
        from concurrent.futures import ThreadPoolExecutor

        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        queries = [
            scenario.default_query(action_domains=["i"], value_domains=["i"]),
            scenario.default_query(action_domains=["j"], value_domains=["j"]),
            scenario.default_query(),
        ] * 3
        with ThreadPoolExecutor(max_workers=4) as pool:
            values = list(pool.map(lambda q: mev(scenario.space, state, q).value, queries))
        assert values == [Amount("1"), Amount("0"), Amount("1.6")] * 3

    def test_search_memo_dies_with_the_call(self, bundled):
        # a reference cycle would keep the memo's states allocated until the
        # cyclic collector runs, raising peak memory across many queries
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        gc.collect()
        gc.disable()
        try:
            mev(scenario.space, state, scenario.default_query())
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("call", ("mev", "mev_oracle", "reachable_states"))
    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_no_query_leaves_a_reference_cycle(self, bundled, name, call):
        # a cycle keeps the query's memo or grids allocated until the cyclic
        # collector runs
        scenario = bundled(name)
        state = scenario.initial_state()
        query = scenario.default_query()
        gc.collect()
        gc.disable()
        try:
            if call == "mev":
                mev(scenario.space, state, query)
            elif call == "mev_oracle":
                mev_oracle(scenario.space, state, query, grid_points=11)
            else:
                reachable_states(
                    scenario.space, state, query.player, query.action_domains, 2)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_grid_walker_applies_through_the_engine_binding(self, bundled, name, monkeypatch):
        # the benchmark counts the oracle's applications by wrapping this
        # binding; a walker that bypasses it drops them from every count. The
        # same holds for the pricer's binding and ``engine.priced_delta_*``.
        from xdmev import engine

        calls, priced = [], []
        apply, price = engine.apply_action, engine.priced_balance_delta

        def counting_apply(*args, **kwargs):
            calls.append(args[2].id)
            return apply(*args, **kwargs)

        def counting_price(*args, **kwargs):
            priced.append(args[-1])
            return price(*args, **kwargs)

        monkeypatch.setattr(engine, "apply_action", counting_apply)
        monkeypatch.setattr(engine, "priced_balance_delta", counting_price)
        scenario = bundled(name)
        state = scenario.initial_state()
        query = scenario.default_query()
        result = mev_oracle(scenario.space, state, query, grid_points=11)
        reference = ReferenceWalk(scenario.space, state, query.player, query.action_domains,
                                  query.max_sequence_length, 11)
        assert result.explored == 1 + reference.tried
        assert len(calls) == reference.applications
        # one pricing per sequence the walk yields, in walk order, of that
        # sequence's final balance map
        assert priced == [final.balances for _, final in reference.sequences]
        calls.clear()
        states = reachable_states(scenario.space, state, query.player, query.action_domains, 2)
        assert len(calls) == ReferenceWalk(
            scenario.space, state, query.player, query.action_domains, 2, 5
        ).applications


    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_search_prices_through_the_engine_binding(self, bundled, name, monkeypatch):
        # ``mev`` prices each node it expands and each probe of a shape's last
        # slot once, through the binding the benchmark wraps; a last slot
        # applies to a stand-in, builds no ``WorldState`` and is priced from
        # the balance map the stand-in returns
        from xdmev import engine
        from xdmev.model import WorldState

        priced, nodes, last_probes, built = [], [], [], []
        applied_to_states = 0
        realizing = []  # per open ``realize`` call: whether it applies a last slot
        price, apply = engine.priced_balance_delta, engine.apply_action
        best_suffix, realize = engine._Search.best_suffix, engine._Search.realize
        init = WorldState.__init__

        def counting_price(*args, **kwargs):
            priced.append(args[-1])
            return price(*args, **kwargs)

        def counting_apply(state, *args, **kwargs):
            nonlocal applied_to_states
            last = bool(realizing) and realizing[-1]
            assert isinstance(state, WorldState) is not last
            nxt = apply(state, *args, **kwargs)  # a failed application raises past the count
            if last:
                assert type(nxt) is dict
                last_probes.append(nxt)
            else:
                applied_to_states += 1
            return nxt

        def counting_best_suffix(search, current, used):
            if (current, used) not in search.memo:
                nodes.append(current)
            return best_suffix(search, current, used)

        def counting_realize(search, shape, idx, state):
            realizing.append(idx == len(shape) - 1)
            try:
                return realize(search, shape, idx, state)
            finally:
                realizing.pop()

        def counting_init(state, *args, **kwargs):
            built.append(state)
            init(state, *args, **kwargs)

        monkeypatch.setattr(engine, "priced_balance_delta", counting_price)
        monkeypatch.setattr(engine, "apply_action", counting_apply)
        monkeypatch.setattr(engine._Search, "best_suffix", counting_best_suffix)
        monkeypatch.setattr(engine._Search, "realize", counting_realize)
        scenario = bundled(name)
        state, query = scenario.initial_state(), scenario.default_query()
        monkeypatch.setattr(WorldState, "__init__", counting_init)
        result = mev(scenario.space, state, query)
        moved = [node.balances for node in nodes] + last_probes
        assert sorted(map(id, priced)) == sorted(map(id, moved))
        # one state per successful application outside a last slot, none inside
        assert len(built) == applied_to_states
        assert (len(last_probes) > 0) == (result.method == "golden-section")

    def test_reachable_states_guard(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        with pytest.raises(ExplosionGuard):
            reachable_states(scenario.space, state, "P", {"i", "j"}, 7, candidate_cap=5)

    @pytest.mark.parametrize("search", ["mev", "mev_oracle", "reachable_states"])
    def test_nesting_past_the_recursion_limit_raises_the_guard(self, search):
        scenario = scen(deep_tips_doc(1200))
        space, state, query = scenario.space, scenario.initial_state(), scenario.default_query()
        run = {
            "mev": lambda: mev(space, state, query),
            "mev_oracle": lambda: mev_oracle(space, state, query),
            "reachable_states": lambda: reachable_states(space, state, "P", {"d0"}, 1200),
        }[search]
        started = time.perf_counter()
        with pytest.raises(ExplosionGuard, match="recursion limit"):
            run()
        assert time.perf_counter() - started < 30

    def test_repeated_query_gives_identical_result(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        query = scenario.default_query()
        first = mev(scenario.space, state, query)
        again = mev(scenario.space, state, query)
        assert first.value == again.value
        assert first.witness == again.witness
        assert first.explored == again.explored


def _section3(call):
    """``call`` on section3_2amm's space, initial state and default query."""
    scenario = load_bundled("section3_2amm")
    return lambda: call(scenario, scenario.initial_state(), scenario.default_query())


# Queries the one query check refuses: (id, the entry of the id alone,
# query fields changed, error class, message). Every entry that takes a
# query refuses each alike; a row's other entries add ``_<entry>`` to its id.
QUERY_REJECTIONS = [
    ("empty_action_domains", "mev", {"action_domains": frozenset()},
     UnknownId, "action_domains must be nonempty"),
    ("empty_value_domains", "mev", {"value_domains": ()},
     UnknownId, "value_domains must be nonempty"),
    ("repeated_value_domains", "mev_oracle", {"value_domains": ("i", "j", "i")},
     UnknownId, "value_domains must not repeat"),
    ("negative_max_sequence_length", "mev", {"max_sequence_length": -1},
     XdmevError, "max_sequence_length must be >= 0"),
    ("unknown_player", "mev", {"player": "nobody"},
     UnknownId, "unknown player 'nobody'"),
    # the first undeclared action domain in sorted order, whatever the hash seed
    ("undeclared_action_domains", "mev", {"action_domains": frozenset({"zz3", "zz1", "zz2"})},
     UnknownId, "unknown domain 'zz1'"),
    ("non_string_action_domain", "mev", {"action_domains": frozenset({"i", 7})},
     UnknownId, "unknown domain 7"),
    ("undeclared_base_domain", "mev", {"base_domain": "zz"},
     UnknownId, "unknown domain 'zz'"),
    ("unknown_base_asset", "mev", {"base_asset": "ZZZ"},
     UnknownId, "unknown asset 'ZZZ'"),
    ("undeclared_value_domain", "mev", {"value_domains": ("i", "zz")},
     UnknownId, "unknown domain 'zz'"),
    ("unpriced_value_domain", "mev", {"base_asset": "DAI"},
     MissingRate, "no rate declared between 'ETH' and 'DAI'"),
]

QUERY_ENTRIES = {
    "mev": lambda sc, s, q: mev(sc.space, s, q),
    "mev_oracle": lambda sc, s, q: mev_oracle(sc.space, s, q),
    "replay_witness": lambda sc, s, q: replay_witness(sc.space, s, q, ()),
    "price_terms": lambda sc, s, q: price_terms(q, s),
}


def _query_rejected(entry, fields):
    return _section3(lambda sc, s, q: QUERY_ENTRIES[entry](sc, s, q.replace(**fields)))


ERROR_PATHS = [
    # (id, call, error class, message)
    *(
        (name if entry == home else f"{name}_{entry}", _query_rejected(entry, fields), *error)
        for name, home, fields, *error in QUERY_REJECTIONS
        for entry in QUERY_ENTRIES
    ),
    ("reachable_undeclared_domains",
     _section3(lambda sc, s, q: reachable_states(sc.space, s, "P", {"zz3", "zz1", "zz2"}, 1)),
     UnknownId, "unknown domain 'zz1'"),
    ("reachable_negative_max_len",
     _section3(lambda sc, s, q: reachable_states(sc.space, s, "P", {"i"}, -1)),
     XdmevError, "max_len must be >= 0"),
    ("collusion_repeated_domains",
     _section3(lambda sc, s, q: classify_collusion(
         sc.space, s, q.replace(value_domains=("i", "i")), Amount(0))),
     XdmevError, "collusion domains must be distinct"),
    ("for_player_unknown",
     _section3(lambda sc, s, q: sc.space.for_player("nobody")),
     UnknownId, "no action space declared for player 'nobody'"),
    ("bundled_path_unknown", lambda: bundled_path("nowhere"),
     ParseError, "no bundled scenario named 'nowhere'"),
]


@pytest.mark.parametrize(
    "call, error, message", [row[1:] for row in ERROR_PATHS], ids=[row[0] for row in ERROR_PATHS]
)
def test_error_paths(call, error, message):
    with pytest.raises(XdmevError) as err:
        call()
    assert (type(err.value), str(err.value)) == (error, message)


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_swap_targets_are_the_registry_specs(bundled, name):
    # a swap acts on the very spec the registry holds, not a copy of it
    scenario = bundled(name)
    swaps = [action for _, action in scenario.player_actions if action.kind == "Swap"]
    for action in swaps:
        assert action.target is scenario.registry.pools[action.target.id], action.id
