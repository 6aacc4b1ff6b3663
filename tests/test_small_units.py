"""An exhaustive integer reference for parametric answers.

When every parametric range holds at most ``grid_points`` units,
``grid_amounts`` returns every unit of it, so ``mev_oracle`` tries every
integer amount of every sequence: it is the paper's maximum over valid
sequences, computed by enumeration. Three families of documents hold
reserves of tens to hundreds of units and fees of 0, 5 or 30 bps:

- pairs: ``test_engine_digests.cp_pair_doc``'s constant-product pairs at
  20-300 units, a parametric buy on pool_a, then a parametric or (about
  30% of them) a sweep sell on pool_b, which quotes 5-60% dearer; at most
  two steps;
- chains: a parametric buy on an L2 constant-product pool of 20-300
  units, a sweep bridge to L1 (rate 90/100-110/100, flat fee 0-3 units)
  and a sweep sell on an L1 pool 5-60% dearer, constant-product or (about
  40%) a stylized fill; at most three steps;
- parallel buys: parametric buys on two constant-product pools of 20-120
  units with one fee, and a sweep sell on a stylized pool 5-60% dearer
  than the dearer of the two; at most three steps.

``mev`` sizes each parametric slot by golden-section, a heuristic, so it
may fall short of the optimum; its answer is never above it. Only an
answer labelled ``exact`` must equal it. Each family pins the seeds where
``mev`` falls short today: a seed may leave its list, none may join it.
"""

import json
import random

from test_engine_digests import CP_FEES, cp_pair_doc
from xdmev.engine import grid_amounts, mev, mev_oracle
from xdmev.fixedpoint import format_units
from xdmev.scenario import loads

SEEDS = range(1, 61)
# the widest range is a buy's [0, reserve_y of its pool + 1], at most 302 units
GRID_POINTS = 302
# the seeds where ``mev`` falls below the optimum today, per family
PAIR_MISSES = {14, 21, 32, 33, 46, 49, 53, 57}
CHAIN_MISSES = {5, 6, 26, 28, 31, 41}
PARALLEL_MISSES = {4, 5, 10, 11, 12, 18, 21, 24, 26, 29, 30}


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


def small_chain_doc(seed: int) -> dict:
    """Buy ETH on L2, bridge all of it to L1 and sell all of it there."""
    rng = random.Random(seed)
    fee = rng.choice(CP_FEES)
    rx_a, ry_a = rng.randint(20, 300), rng.randint(20, 300)
    dearer = rng.uniform(1.05, 1.6)
    rate, flat_fee = rng.randint(90, 110), rng.randint(0, 3)
    if rng.random() < 0.4:
        sell_pool = {"type": "stylized_midpoint", "price": f"{ry_a / rx_a * dearer:.18f}"}
    else:
        rx_b = rng.randint(20, 300)
        sell_pool = {"type": "constant_product", "fee_bps": fee, "reserve_x": format_units(rx_b),
                     "reserve_y": format_units(round(rx_b * ry_a / rx_a * dearer))}
    capabilities = [{"domain": d, "kinds": ["Bridge", "Swap"]} for d in ("l1", "l2")]
    return {
        "schema_version": 1,
        "domains": [{"id": "l1", "native_asset": "USD"}, {"id": "l2", "native_asset": "USD"}],
        "assets": ["ETH", "USD"],
        "players": [{"id": "P", "capabilities": capabilities, "balances": [
            {"domain": "l2", "asset": "USD", "amount": format_units(ry_a + 1)}]}],
        "pools": [
            {"id": "pool_l2", "type": "constant_product", "domain": "l2", "asset_x": "ETH",
             "asset_y": "USD", "reserve_x": format_units(rx_a), "reserve_y": format_units(ry_a),
             "fee_bps": fee},
            {"id": "pool_l1", "domain": "l1", "asset_x": "ETH", "asset_y": "USD", **sell_pool},
        ],
        "bridges": [{"id": "to_l1", "from_domain": "l2", "to_domain": "l1", "from_asset": "ETH",
                     "to_asset": "ETH", "rate": f"{rate}/100", "flat_fee": format_units(flat_fee)}],
        "mempool": [], "opportunities": [], "stylized_arbs": [],
        "actions": [
            {"id": "buy", "player": "P", "kind": "Swap", "pool": "pool_l2", "direction": "y_to_x",
             "amount": {"interval": ["0", format_units(ry_a + 1)]}},
            {"id": "bridge", "player": "P", "kind": "Bridge", "bridge": "to_l1", "amount": "all"},
            {"id": "sell", "player": "P", "kind": "Swap", "pool": "pool_l1", "direction": "x_to_y",
             "amount": "all"},
        ],
        "prices": [],
        "defaults": {"player": "P", "base_domain": "l2", "base_asset": "USD",
                     "max_sequence_length": 3, "alpha": "0"},
    }


def small_parallel_doc(seed: int) -> dict:
    """Buy ETH on two constant-product pools and sell all of it on a dearer
    stylized pool, all on one domain."""
    rng = random.Random(seed)
    fee = rng.choice(CP_FEES)
    rx_a, ry_a, rx_b, ry_b = (rng.randint(20, 120) for _ in range(4))
    price = max(ry_a / rx_a, ry_b / rx_b) * rng.uniform(1.05, 1.6)
    pair = {"domain": "dex", "asset_x": "ETH", "asset_y": "USD"}
    cp = {"type": "constant_product", "fee_bps": fee, **pair}
    return {
        "schema_version": 1,
        "domains": [{"id": "dex", "native_asset": "USD"}],
        "assets": ["ETH", "USD"],
        "players": [{"id": "P", "capabilities": [{"domain": "dex", "kinds": ["Swap"]}], "balances": [
            {"domain": "dex", "asset": "USD", "amount": format_units(ry_a + ry_b + 2)}]}],
        "pools": [
            {"id": "pool_a", **cp, "reserve_x": format_units(rx_a), "reserve_y": format_units(ry_a)},
            {"id": "pool_b", **cp, "reserve_x": format_units(rx_b), "reserve_y": format_units(ry_b)},
            {"id": "pool_c", "type": "stylized_midpoint", "price": f"{price:.18f}", **pair},
        ],
        "bridges": [], "mempool": [], "opportunities": [], "stylized_arbs": [],
        "actions": [
            {"id": "buy_a", "player": "P", "kind": "Swap", "pool": "pool_a", "direction": "y_to_x",
             "amount": {"interval": ["0", format_units(ry_a + 1)]}},
            {"id": "buy_b", "player": "P", "kind": "Swap", "pool": "pool_b", "direction": "y_to_x",
             "amount": {"interval": ["0", format_units(ry_b + 1)]}},
            {"id": "sell_c", "player": "P", "kind": "Swap", "pool": "pool_c", "direction": "x_to_y",
             "amount": "all"},
        ],
        "prices": [],
        "defaults": {"player": "P", "base_domain": "dex", "base_asset": "USD",
                     "max_sequence_length": 3, "alpha": "0"},
    }


def profitable_documents(build, seeds=SEEDS, grid_points=GRID_POINTS) -> tuple[int, set[int]]:
    """Check every seed's document of the family ``build``: the grid gives
    every unit, the exhaustive optimum is never below ``mev`` and equals
    every ``exact`` answer. Returns how many documents have a positive
    optimum, and the seeds where ``mev`` falls below it."""
    positive, misses = 0, set()
    for seed in seeds:
        scenario = loads(json.dumps(build(seed)))
        for action in scenario.space.for_player("P"):
            if action.parametric:
                lo, hi = action.amount.lo.units, action.amount.hi.units
                assert grid_amounts(action.amount, grid_points) == tuple(range(lo, hi + 1))
        state, query = scenario.initial_state(), scenario.default_query()
        engine = mev(scenario.space, state, query)
        optimum = mev_oracle(scenario.space, state, query, grid_points=grid_points)
        assert engine.value <= optimum.value, f"seed {seed}"
        if engine.method == "exact":
            assert engine.value == optimum.value, f"seed {seed}"
        positive += optimum.value.units > 0
        if engine.value < optimum.value:
            misses.add(seed)
    return positive, misses


def test_exhaustive_optimum_bounds_mev_and_equals_every_exact_answer():
    positive, misses = profitable_documents(small_pair_doc)
    # the family holds profitable documents, not only empty answers
    assert positive >= 10
    assert misses <= PAIR_MISSES


def test_bridge_chains_exhaustive_optimum_bounds_mev_and_equals_every_exact_answer():
    positive, misses = profitable_documents(small_chain_doc)
    assert positive >= 10
    assert misses <= CHAIN_MISSES


def test_parallel_buys_exhaustive_optimum_bounds_mev_and_equals_every_exact_answer():
    # the widest range is a buy's [0, 121]: 122 grid points give every unit
    positive, misses = profitable_documents(small_parallel_doc, range(1, 31), 122)
    assert positive >= 10
    assert misses <= PARALLEL_MISSES
