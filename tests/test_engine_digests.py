"""Parametric engine answers stay byte-identical across changes.

``engine_digests.json`` holds the value, witness, ``explored`` and
``method`` of ``mev`` and of ``mev_oracle`` at 401 grid points on
documents with golden-section slots: two-pool constant-product pairs
built here (a parametric buy then a parametric or a sweep sell, fees 0,
5 and 30 bps, seeds 1-10) and the parametric ``random_doc`` seeds of
``test_properties``. The bundled scenarios are pinned by
``cli_digests.json``. A change that means to alter an answer regenerates
the file with
``PYTHONPATH=src python tests/test_engine_digests.py > tests/engine_digests.json``
and says why; any other change must leave it as it is.
"""

import json
import random
import sys
from pathlib import Path

from xdmev.engine import mev, mev_oracle
from xdmev.scenario import loads

import test_properties

DIGESTS = Path(__file__).resolve().parent / "engine_digests.json"

CP_SEEDS = range(1, 11)
CP_FEES = (0, 5, 30)
ORACLE_POINTS = 401


def cp_pair_doc(seed: int, fee_bps: int, sweep_sell: bool) -> dict:
    """Two ETH/USD constant-product pools with ``fee_bps`` each, pool_a
    cheaper than pool_b; P buys ETH on pool_a with a parametric amount
    and sells it on pool_b, parametrically or all of it."""
    rng = random.Random(seed)
    rx_a = rng.randint(50, 500)
    price_a = rng.randint(1000, 4000)
    rx_b = rng.randint(50, 500)
    price_b = price_a * (1 + rng.uniform(0.002, 0.05))
    ry_a = rx_a * price_a
    pools = (("pool_a", str(rx_a), str(ry_a)), ("pool_b", str(rx_b), f"{rx_b * price_b:.6f}"))
    return {
        "schema_version": 1,
        "domains": [{"id": "dex", "native_asset": "USD"}],
        "assets": ["ETH", "USD"],
        "players": [
            {
                "id": "P",
                "balances": [{"domain": "dex", "asset": "USD", "amount": str(ry_a + 1)}],
                "capabilities": [{"domain": "dex", "kinds": ["Swap"]}],
            }
        ],
        "pools": [
            {
                "id": pid, "type": "constant_product", "domain": "dex", "asset_x": "ETH",
                "asset_y": "USD", "reserve_x": rx, "reserve_y": ry, "fee_bps": fee_bps,
            }
            for pid, rx, ry in pools
        ],
        "bridges": [],
        "mempool": [],
        "opportunities": [],
        "stylized_arbs": [],
        "actions": [
            {
                "id": "buy_a", "player": "P", "kind": "Swap", "pool": "pool_a",
                "direction": "y_to_x", "amount": {"interval": ["0", str(ry_a + 1)]},
            },
            {
                "id": "sell_b", "player": "P", "kind": "Swap", "pool": "pool_b",
                "direction": "x_to_y",
                "amount": "all" if sweep_sell else {"interval": ["0", str(rx_a)]},
            },
        ],
        "prices": [],
        "defaults": {
            "player": "P", "base_domain": "dex", "base_asset": "USD",
            "max_sequence_length": 2, "alpha": "0",
        },
    }


def documents() -> list[tuple[str, dict]]:
    """(label, document) of every pinned document, in a fixed order."""
    out = []
    for seed in CP_SEEDS:
        for fee in CP_FEES:
            for sell in ("parametric", "sweep"):
                label = f"cp seed {seed} fee {fee} {sell} sell"
                out.append((label, cp_pair_doc(seed, fee, sell == "sweep")))
    for seed in range(test_properties.SCENARIO_RUNS):
        doc = test_properties.random_doc(random.Random(seed), parametric=True)
        out.append((f"random_doc parametric seed {seed}", doc))
    return out


def answer(result) -> dict:
    return {
        "value": str(result.value),
        "witness": [[step, None if amount is None else str(amount)] for step, amount in result.witness],
        "explored": result.explored,
        "method": result.method,
    }


def digests() -> dict[str, dict]:
    """``{label: {"mev": answer, "oracle": answer}}`` for every document."""
    table = {}
    for label, doc in documents():
        scenario = loads(json.dumps(doc))
        state, query = scenario.initial_state(), scenario.default_query()
        table[label] = {
            "mev": answer(mev(scenario.space, state, query)),
            "oracle": answer(mev_oracle(scenario.space, state, query, ORACLE_POINTS)),
        }
    return table


def test_parametric_answers_match_their_checked_in_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = digests()
    assert sorted(actual) == sorted(expected), "the document list changed"
    changed = sorted(label for label in expected if actual[label] != expected[label])
    assert changed == [], f"answers changed: {changed}"


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digests(), sort_keys=True, indent=2) + "\n")
