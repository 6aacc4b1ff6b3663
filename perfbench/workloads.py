"""Seeded workloads: the documents each one generates, the queries run on
them, and the independent reference every answer is checked against.

A workload is built in two steps, both part of set-up: ``generate`` turns
a seed into scenario documents (JSON text), and ``load`` parses them with
``xdmev.scenario.loads`` and returns one round of queries. The timed loop
repeats that round. The program only ever sees the generated documents.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Callable, Optional

SCALE = 10**18

NAMES = ("bundled", "tips", "cp_chain", "oracle_grid")

# tips: every round holds this many scenarios of each N = 5, 6, 7 (max_len = N).
# Equal thirds keep the median inside the N = 6 block and the tail inside the
# N = 7 block for every seed.
TIPS_PER_N = 2
TIP_AMOUNTS = ("0.25", "1", "2.5", "4", "7", "10.125")

CP_PAIRS = 12  # cp_chain scenarios per round
ORACLE_PAIRS = 6  # oracle_grid scenarios per round
ORACLE_GRID = 4001  # mev_oracle grid points for the parametric buy
REACHABLE_GRID = 101  # reachable_states grid points, max_len 2
# allowed |mev - closed form| on a CP pair, in 1e-18 units; both sides round
# and stop golden-section early, and gaps seen stay under 5,000 units
CP_TOLERANCE_UNITS = 10**9

COLD_START_ARGS = ("mev", "--scenario", "section3_2amm")


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the answer is right


def units(text: str) -> int:
    """Fixed-point units of a decimal string, computed without xdmev."""
    return int(Decimal(text) * SCALE)


# -- document generators -------------------------------------------------------


def _base_doc(domain: str, native: str, assets: list[str], players: list[dict]) -> dict:
    return {
        "schema_version": 1,
        "domains": [{"id": domain, "native_asset": native}],
        "assets": assets,
        "players": players,
        "pools": [],
        "bridges": [],
        "mempool": [],
        "opportunities": [],
        "stylized_arbs": [],
        "actions": [],
        "prices": [],
        "defaults": {
            "player": "P",
            "base_domain": domain,
            "base_asset": native,
            "max_sequence_length": 8,
            "alpha": "0",
        },
    }


def tips_doc(rng: random.Random, n: int) -> dict:
    """N commuting transfers from a funded whale to P; max_len = N."""
    ids = rng.sample([f"tip_{k:02d}" for k in range(100)], n)
    amounts = [rng.choice(TIP_AMOUNTS) for _ in ids]
    whale = sum(Decimal(a) for a in amounts) + rng.randint(0, 50)
    doc = _base_doc(
        "d0",
        "GLD",
        ["GLD"],
        [
            {
                "id": "P",
                "balances": [],
                "capabilities": [{"domain": "d0", "kinds": ["ExecutePendingTx"]}],
            },
            {
                "id": "whale",
                "balances": [{"domain": "d0", "asset": "GLD", "amount": str(whale)}],
                "capabilities": [],
            },
        ],
    )
    doc["mempool"] = [
        {
            "id": tid,
            "domain": "d0",
            "effect": {
                "type": "transfer",
                "from_account": "whale",
                "to_account": "P",
                "asset": "GLD",
                "amount": amount,
            },
        }
        for tid, amount in zip(ids, amounts)
    ]
    doc["defaults"]["max_sequence_length"] = n
    return doc


def cp_pair_doc(rng: random.Random, sweep_sell: bool) -> dict:
    """Two ETH/USD constant-product pools, pool_a cheaper than pool_b.

    P holds at least pool_a's USD reserve, so the closed-form optimum is
    always affordable. The buy is parametric; the sell is parametric too
    (k = 2) unless ``sweep_sell``, which sells all ETH held.
    """
    rx_a = rng.randint(50, 500)
    price_a = rng.randint(1000, 4000)
    rx_b = rng.randint(50, 500)
    price_b = price_a * (1 + rng.uniform(0.002, 0.05))
    ry_a = rx_a * price_a
    ry_b = f"{rx_b * price_b:.6f}"
    doc = _base_doc(
        "dex",
        "USD",
        ["ETH", "USD"],
        [
            {
                "id": "P",
                "balances": [{"domain": "dex", "asset": "USD", "amount": str(ry_a + 1)}],
                "capabilities": [{"domain": "dex", "kinds": ["Swap"]}],
            }
        ],
    )
    doc["pools"] = [
        {
            "id": pid,
            "type": "constant_product",
            "domain": "dex",
            "asset_x": "ETH",
            "asset_y": "USD",
            "reserve_x": str(rx),
            "reserve_y": str(ry),
            "fee_bps": rng.choice((0, 5, 30)),
        }
        for pid, rx, ry in (("pool_a", rx_a, ry_a), ("pool_b", rx_b, ry_b))
    ]
    doc["actions"] = [
        {
            "id": "buy_a",
            "player": "P",
            "kind": "Swap",
            "pool": "pool_a",
            "direction": "y_to_x",
            "amount": {"interval": ["0", str(ry_a + 1)]},
        },
        {
            "id": "sell_b",
            "player": "P",
            "kind": "Swap",
            "pool": "pool_b",
            "direction": "x_to_y",
            "amount": "all" if sweep_sell else {"interval": ["0", str(rx_a)]},
        },
    ]
    doc["defaults"]["max_sequence_length"] = 2
    return doc


def generate(name: str, seed: int, root: Path) -> list[tuple[str, str]]:
    """(label, document text) pairs for one round of the workload."""
    rng = random.Random(f"{name}:{seed}")
    if name == "bundled":
        from xdmev.scenario import BUNDLED_NAMES

        names = list(BUNDLED_NAMES)
        rng.shuffle(names)
        folder = root / "src" / "xdmev" / "scenarios"
        return [(n, (folder / f"{n}.json").read_text(encoding="utf-8")) for n in names]
    if name == "tips":
        sizes = [n for n in (5, 6, 7) for _ in range(TIPS_PER_N)]
        rng.shuffle(sizes)
        return [(f"tips{n}_{i}", json.dumps(tips_doc(rng, n))) for i, n in enumerate(sizes)]
    if name in ("cp_chain", "oracle_grid"):
        chain = name == "cp_chain"
        count = CP_PAIRS if chain else ORACLE_PAIRS
        return [(f"pair{i}", json.dumps(cp_pair_doc(rng, not chain))) for i in range(count)]
    raise ValueError(f"unknown workload {name!r}")


# -- queries and references ---------------------------------------------------------


def run_cli(argv) -> tuple[int, str]:
    """``xdmev.cli.main`` in-process; (exit code, digest of captured stdout)."""
    from xdmev import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


class _SameEveryTime:
    """Check that passes when an answer equals the first one seen for it."""

    def __init__(self, describe: Callable[[object], Optional[str]] = lambda _: None):
        self.first = None
        self.describe = describe

    def __call__(self, answer) -> Optional[str]:
        problem = self.describe(answer)
        if problem:
            return problem
        if self.first is None:
            self.first = answer
        elif answer != self.first:
            return f"answer changed between repetitions: {answer!r} != {self.first!r}"
        return None


def _cli_query(argv: tuple[str, ...]) -> Query:
    def exit_ok(answer) -> Optional[str]:
        return None if answer[0] == 0 else f"exit code {answer[0]}"

    return Query(" ".join(argv), lambda: run_cli(argv), _SameEveryTime(exit_ok))


def _tips_query(label: str, doc: dict, sc) -> Query:
    from xdmev import engine

    expected_value = sum(units(tx["effect"]["amount"]) for tx in doc["mempool"])
    expected_witness = tuple((tid, None) for tid in sorted(tx["id"] for tx in doc["mempool"]))

    def run():
        return engine.mev(sc.space, sc.initial_state(), sc.default_query())

    def check(result) -> Optional[str]:
        if result.value.units != expected_value:
            return f"value {result.value} != sum of tips"
        if result.witness != expected_witness:
            return f"witness {result.witness} != every tip id in ascending order"
        return None

    return Query(label, run, check)


def _closed_form(sc) -> Callable[[], int]:
    """Closed-form optimal profit units of a CP pair, computed on first use
    (0 when there is no opportunity)."""

    @functools.cache
    def profit_units() -> int:
        from xdmev import engine
        from xdmev.errors import NoOpportunity

        pools = {p.id: p for p in sc.pools}
        try:
            return engine.optimal_cp_arbitrage(pools["pool_a"], pools["pool_b"]).profit.units
        except NoOpportunity:
            return 0

    return profit_units


def _replay_problem(sc, query, result) -> Optional[str]:
    from xdmev import engine

    replayed = engine.replay_witness(sc.space, sc.initial_state(), query, result.witness)
    if replayed != result.value:
        return f"replayed witness gives {replayed}, answer says {result.value}"
    return None


def _cp_query(label: str, sc) -> Query:
    from xdmev import engine

    query = sc.default_query()
    optimum = _closed_form(sc)

    def run():
        return engine.mev(sc.space, sc.initial_state(), query)

    def check(result) -> Optional[str]:
        problem = _replay_problem(sc, query, result)
        if problem:
            return problem
        gap = result.value.units - optimum()
        if abs(gap) > CP_TOLERANCE_UNITS:
            return f"value {result.value} is {gap} units from the closed-form optimum"
        return None

    return Query(label, run, check)


def _oracle_queries(label: str, sc, with_reachable: bool) -> list[Query]:
    from xdmev import engine

    query = sc.default_query()
    optimum = _closed_form(sc)

    def oracle():
        return engine.mev_oracle(sc.space, sc.initial_state(), query, grid_points=ORACLE_GRID)

    def check_oracle(result) -> Optional[str]:
        problem = _replay_problem(sc, query, result)
        if problem:
            return problem
        if result.value.units < 0:
            return f"negative oracle value {result.value}"
        if result.value.units > optimum() + CP_TOLERANCE_UNITS:
            return f"oracle value {result.value} exceeds the closed-form optimum"
        return None

    def reachable():
        states = engine.reachable_states(
            sc.space,
            sc.initial_state(),
            query.player,
            query.action_domains,
            max_len=2,
            grid_points=REACHABLE_GRID,
        )
        return len(states)

    out = [Query(f"{label} oracle", oracle, check_oracle)]
    if with_reachable:
        out.append(Query(f"{label} reachable", reachable, _SameEveryTime()))
    return out


def load(name: str, documents: list[tuple[str, str]]) -> list[Query]:
    """Parse every document through ``scenario.loads``; one round of queries."""
    from xdmev import scenario

    loaded = [(label, text, scenario.loads(text)) for label, text in documents]
    queries: list[Query] = []
    for index, (label, text, sc) in enumerate(loaded):
        if name == "bundled":
            queries.append(_cli_query(("mev", "--scenario", label, "--format", "json")))
            if len(sc.defaults.value_domains) >= 2:
                queries.append(_cli_query(("collusion", "--scenario", label, "--format", "json")))
            discrete = not any(
                a.parametric for p in sc.space.players() for a in sc.space.for_player(p)
            )
            if discrete:
                queries.append(
                    _cli_query(("oracle-check", "--scenario", label, "--format", "json"))
                )
        elif name == "tips":
            queries.append(_tips_query(label, json.loads(text), sc))
        elif name == "cp_chain":
            queries.append(_cp_query(label, sc))
        else:
            # reachable_states on every other pair keeps oracle queries the
            # majority, so the median is an oracle query for every seed
            queries.extend(_oracle_queries(label, sc, with_reachable=index % 2 == 0))
    return queries
