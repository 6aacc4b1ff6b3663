"""An exhaustive integer reference for parametric answers.

When every parametric range holds at most ``grid_points`` units,
``grid_amounts`` returns every unit of it, so ``mev_oracle`` tries every
integer amount of every sequence: it is the paper's maximum over valid
sequences, computed by enumeration. The documents are
``test_engine_digests.cp_pair_doc``'s constant-product pairs at reserves
of 20-300 units: a parametric buy on pool_a, then a parametric or (about
30% of them) a sweep sell on pool_b, which quotes 5-60% dearer; fees 0, 5
or 30 bps; sequences of at most two steps.

``mev`` sizes each parametric slot by golden-section, a heuristic, so it
may fall short of the optimum; its answer is never above it. Only an
answer labelled ``exact`` must equal it.
"""

import json
import random

from test_engine_digests import CP_FEES, cp_pair_doc
from xdmev.engine import grid_amounts, mev, mev_oracle
from xdmev.fixedpoint import format_units
from xdmev.scenario import loads

SEEDS = range(1, 61)
# the widest range is the buy's [0, reserve_y of pool_a + 1], at most 302 units
GRID_POINTS = 302


def small_pair_doc(seed: int) -> dict:
    """``cp_pair_doc`` with every amount in the tens to hundreds of units."""
    rng = random.Random(seed)
    fee, sweep = rng.choice(CP_FEES), rng.random() < 0.3
    doc = cp_pair_doc(seed, fee, sweep)
    rx_a, ry_a, rx_b = (rng.randint(20, 300) for _ in range(3))
    ry_b = round(rx_b * ry_a / rx_a * rng.uniform(1.05, 1.6))
    pool_a, pool_b = doc["pools"]
    pool_a.update(reserve_x=format_units(rx_a), reserve_y=format_units(ry_a))
    pool_b.update(reserve_x=format_units(rx_b), reserve_y=format_units(ry_b))
    doc["players"][0]["balances"][0]["amount"] = format_units(ry_a + 1)
    buy, sell = doc["actions"]
    buy["amount"] = {"interval": ["0", format_units(ry_a + 1)]}
    if not sweep:
        sell["amount"] = {"interval": ["0", format_units(rx_a)]}
    return doc


def test_exhaustive_optimum_bounds_mev_and_equals_every_exact_answer():
    positive = 0
    for seed in SEEDS:
        scenario = loads(json.dumps(small_pair_doc(seed)))
        for action in scenario.space.for_player("P"):
            if action.parametric:
                lo, hi = action.amount.lo.units, action.amount.hi.units
                assert grid_amounts(action.amount, GRID_POINTS) == tuple(range(lo, hi + 1))
        state, query = scenario.initial_state(), scenario.default_query()
        engine = mev(scenario.space, state, query)
        optimum = mev_oracle(scenario.space, state, query, grid_points=GRID_POINTS)
        assert engine.value <= optimum.value, f"seed {seed}"
        if engine.method == "exact":
            assert engine.value == optimum.value, f"seed {seed}"
        positive += optimum.value.units > 0
    assert positive >= 10  # the family holds profitable documents, not only empty answers
