"""Acceptance gate: one test per criterion, pinned tolerances, pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import subprocess
import sys
import time
from fractions import Fraction

import test_properties
from xdmev._kernels import grid_scan
from xdmev.collusion import Verdict, classify_collusion
from xdmev.engine import mev, mev_oracle, optimal_cp_arbitrage
from xdmev.fixedpoint import SCALE, Amount
from xdmev.model import Registry, WorldState
from xdmev.scenario import load_bundled
from xdmev.venues import ConstantProductPool, apply_swap


def _report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_two_amm_reproduction(bundled):
    start = time.perf_counter()
    scenario = bundled("section3_2amm")
    state = scenario.initial_state()
    solo_i = mev(scenario.space, state, scenario.default_query(
        action_domains=["i"], value_domains=["i"]))
    solo_j = mev(scenario.space, state, scenario.default_query(
        action_domains=["j"], value_domains=["j"]))
    joint = mev(scenario.space, state, scenario.default_query(
        action_domains=["i", "j"], value_domains=["i", "j"]))
    elapsed = time.perf_counter() - start
    assert solo_i.value == Amount("0")
    assert solo_j.value == Amount("0")
    assert joint.value == Amount("1")
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"2-AMM values (0, 0, 1 ETH) exact in {elapsed:.3f}s")


def test_criterion_2_four_amm_reproduction(bundled):
    start = time.perf_counter()
    scenario = bundled("appendix_b_4amm")
    state = scenario.initial_state()
    solo_i = mev(scenario.space, state, scenario.default_query(
        action_domains=["i"], value_domains=["i"]))
    solo_j = mev(scenario.space, state, scenario.default_query(
        action_domains=["j"], value_domains=["j"]))
    joint = mev(scenario.space, state, scenario.default_query(
        action_domains=["i", "j"], value_domains=["i", "j"]))
    elapsed = time.perf_counter() - start
    assert solo_i.value == Amount("1")
    assert solo_j.value == Amount("0")
    assert joint.value == Amount("1.6")
    witness_ids = sorted(action_id for action_id, _ in joint.witness)
    assert witness_ids == ["tx1_i", "tx1_j", "tx2_i", "tx2_j", "tx3_i", "tx4_i", "tx5_i"]
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    _report(2, f"4-AMM values (1, 0, 1.6 ETH) exact, witness uses all 7 txs, {elapsed:.3f}s")


def test_criterion_3_bridge_arithmetic(bundled):
    one_to_one = bundled("figure1_bridge")
    result = mev(one_to_one.space, one_to_one.initial_state(), one_to_one.default_query())
    assert abs(result.value - Amount("49860.96")) <= Amount("0.01"), str(result.value)

    discounted = bundled("figure1_bridge_discounted")
    result_d = mev(discounted.space, discounted.initial_state(), discounted.default_query())
    assert abs(result_d.value - Amount("21057.646")) <= Amount("1"), str(result_d.value)
    _report(3, f"two-domain values {result.value} (1:1) and {result_d.value} (0.9) within tolerance")


def test_criterion_4_collusion_trichotomy(bundled):
    scenario = bundled("section3_2amm")
    state = scenario.initial_state()
    query = scenario.default_query(
        player="P", value_domains=("i", "j"), base_domain="i", base_asset="ETH")

    def classify(alpha: str):
        return classify_collusion(scenario.space, state, query, Amount(alpha))

    assert classify("0").verdict is Verdict.PROFITABLE
    assert classify("1").verdict is Verdict.INDIFFERENT
    assert classify("2").verdict is Verdict.UNPROFITABLE
    breakeven = classify("0").breakeven
    assert breakeven == Amount("1")
    _report(4, "verdicts Profitable/Indifferent/Unprofitable at alpha 0/1/2, breakeven 1 ETH exact")


def test_criterion_5_oracle_equivalence(bundled):
    from xdmev.scenario import BUNDLED_NAMES

    start = time.perf_counter()
    checked = []
    for name in BUNDLED_NAMES:
        scenario = bundled(name)
        actions = scenario.space.for_player(scenario.defaults.player)
        state = scenario.initial_state()
        query = scenario.default_query()
        engine = mev(scenario.space, state, query)
        if any(a.parametric for a in actions):
            oracle = mev_oracle(scenario.space, state, query, grid_points=100_001)
            assert abs(engine.value - oracle.value) <= Amount("0.000001"), name
        else:
            oracle = mev_oracle(scenario.space, state, query)
            assert engine.value == oracle.value, name
            assert engine.witness == oracle.witness, name
        checked.append(name)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(5, f"engine/oracle agree on {len(checked)} bundled scenarios in {elapsed:.1f}s")


def test_criterion_6_property_suite():
    test_properties.test_mev_is_never_negative()
    test_properties.test_action_space_monotonicity()
    test_properties.test_separability_without_cross_domain_actions()
    test_properties.test_witness_replay_reproduces_value_exactly()
    test_properties.test_verdict_monotone_in_alpha()
    test_properties.test_price_reciprocity_round_trip_within_one_unit()
    _report(6, f"six properties hold over {test_properties.SCENARIO_RUNS} random scenarios each")


def test_criterion_7_constant_product_checks(bundled):
    # zero-fee swaps keep x*y within one reserve unit of the exact curve
    pool = ConstantProductPool(
        id="pool", domain="dex", asset_x="ETH", asset_y="DAI",
        reserve_x_units=Amount("100").units, reserve_y_units=Amount("2000").units, fee_bps=0)
    registry = Registry(
        native_assets={"dex": "DAI"}, players=frozenset({"P"}),
        assets=frozenset({"ETH", "DAI"}), pools={"pool": pool})
    for amount in ("0.000000000000000123", "1", "7.5", "99.999999"):
        state = WorldState(
            registry, {("dex", "P", "ETH"): Amount("100").units}, {"pool": pool.state()})
        after = apply_swap(state, "P", "pool", "x_to_y", Amount(amount).units).pool("pool")
        drift = after.reserve_x.units * after.reserve_y.units - pool.reserve_x.units * pool.reserve_y.units
        assert 0 <= drift < after.reserve_x.units, amount

    scenario = bundled("cp_arbitrage_small")
    state = scenario.initial_state()
    pool_a, pool_b = state.pool("pool_a"), state.pool("pool_b")
    plan = optimal_cp_arbitrage(pool_a, pool_b)

    # post-trade marginal prices equal within 1e-9 relative
    mid = (100 * SCALE * plan.amount.units) // (2000 * SCALE + plan.amount.units)
    price_cheap = Fraction(2000 * SCALE + plan.amount.units, 100 * SCALE - mid)
    sold = 3000 * SCALE - -(-(100 * SCALE * 3000 * SCALE) // (100 * SCALE + mid))
    price_dear = Fraction(3000 * SCALE - sold, 100 * SCALE + mid)
    assert abs(price_cheap / price_dear - 1) < Fraction(1, 10**9)

    # million-point grid oracle within 1e-9 relative
    _, grid_profit = grid_scan(
        2000 * SCALE, 100 * SCALE, 100 * SCALE, 3000 * SCALE,
        0, 0, 0, 2000 * SCALE, 1_000_000)
    assert abs(plan.profit.units - grid_profit) <= plan.profit.units // 10**9 + 1
    _report(7, f"x*y preserved within 1 unit; optimal arb profit {plan.profit} matches 1e6-point grid")


def test_criterion_8_cli_determinism():
    commands = (
        ("mev", "--scenario", "appendix_b_4amm", "--format", "json"),
        ("collusion", "--scenario", "section3_2amm", "--alpha", "1", "--format", "json"),
        ("oracle-check", "--scenario", "separable_pair", "--format", "json"),
        ("validate", "--scenario", "figure1_bridge"),
    )
    for argv in commands:
        outputs = set()
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "xdmev.cli", *argv], capture_output=True)
            assert proc.returncode == 0, f"{argv[0]} exited {proc.returncode}: {proc.stderr!r}"
            assert proc.stdout, f"{argv[0]} wrote nothing to stdout"
            outputs.add((proc.returncode, proc.stdout))
        assert len(outputs) == 1, f"{argv[0]} output varied across runs"
    _report(8, "all four commands byte-identical across 3 repeated runs")
