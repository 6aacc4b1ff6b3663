"""Randomized property suite over generated small scenarios.

Each property runs over at least 200 seeded random scenarios (up to 3
domains, up to 5 actions), so failures reproduce from the seed in the
assertion message. The properties that hold for parametric action spaces
also run over the parametric variant, which adds one action sized on an
interval.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from xdmev.actions import apply_sequence
from xdmev.collusion import Verdict, classify_collusion
from xdmev.engine import (
    MevQuery, mev, mev_oracle, price_terms, priced_balance_delta, replay_witness,
)
from xdmev.errors import MissingRate, UnknownId, XdmevError
from xdmev.fixedpoint import Amount, div_half_even
from xdmev.model import PriceMatrix, Registry, WorldState, convert
from xdmev.scenario import Scenario, loads, serialize_scenario
from xdmev.venues import DIRECTIONS

SCENARIO_RUNS = 200

PRICES = ("8", "10", "12.5", "20", "25", "40")
PUSH_TARGETS = ("5", "15", "18", "30", "50")
TIP_AMOUNTS = ("0.5", "1", "2.25", "3")
PROFITS = ("0.1", "0.4", "1", "1.5")
RATES = ("1/1", "1/2", "2/1", "3/2", "2/3")
PARAM_INTERVALS = (("0", "2"), ("0.5", "5"), ("1", "15"), ("0", "40"), ("12", "40"))


def random_doc(rng: random.Random, cross_domain: bool = True, parametric: bool = False) -> dict:
    """A random scenario document; with ``parametric``, the same document plus
    one interval-sized action (see ``add_parametric_action``)."""
    n_domains = rng.randint(1, 3) if cross_domain else 2
    domains = [f"d{k}" for k in range(n_domains)]
    natives = {d: f"N{k}" for k, d in enumerate(domains)}
    assets = sorted(set(natives.values()) | {"CASH", "PAIR"})

    pools = []
    pool_domain = {}
    by_domain: dict[str, list[str]] = {d: [] for d in domains}
    for d in domains:
        for p in range(2):
            pid = f"pool_{d}_{p}"
            pools.append(
                {"id": pid, "type": "stylized_midpoint", "domain": d,
                 "asset_x": "PAIR", "asset_y": "CASH", "price": rng.choice(PRICES)}
            )
            pool_domain[pid] = d
            by_domain[d].append(pid)

    mempool, arbs, actions, bridges = [], [], [], []
    for k in range(rng.randint(1, 5)):
        choices = ["push", "transfer", "arb", "arb"]
        if cross_domain and n_domains > 1:
            choices.append("bridge")
        kind = rng.choice(choices)
        if kind == "push":
            pid = rng.choice(list(pool_domain))
            mempool.append(
                {"id": f"tx{k}_push", "domain": pool_domain[pid],
                 "effect": {"type": "price_push", "pool": pid,
                            "to_price": rng.choice(PUSH_TARGETS)}}
            )
        elif kind == "transfer":
            d = rng.choice(domains)
            mempool.append(
                {"id": f"tx{k}_tip", "domain": d,
                 "effect": {"type": "transfer", "from_account": "whale",
                            "to_account": "P", "asset": natives[d],
                            "amount": rng.choice(TIP_AMOUNTS)}}
            )
        elif kind == "arb":
            if cross_domain and n_domains > 1 and rng.random() < 0.5:
                da, db = rng.sample(domains, 2)
                pa, pb = rng.choice(by_domain[da]), rng.choice(by_domain[db])
            else:
                d = rng.choice(domains)
                pa, pb = by_domain[d]
            profit_domain = pool_domain[pa]
            arbs.append(
                {"id": f"spec{k}", "pool_a": pa, "pool_b": pb,
                 "declared_profit": rng.choice(PROFITS),
                 "profit_asset": natives[profit_domain],
                 "profit_domain": profit_domain}
            )
            actions.append(
                {"id": f"act{k}_arb", "player": "P", "kind": "StylizedArb",
                 "arb": f"spec{k}"}
            )
        else:
            da, db = rng.sample(domains, 2)
            bridges.append(
                {"id": f"br{k}", "from_domain": da, "to_domain": db,
                 "from_asset": natives[da], "to_asset": natives[db],
                 "rate": rng.choice(RATES), "flat_fee": rng.choice(("0", "0.1"))}
            )
            actions.append(
                {"id": f"act{k}_bridge", "player": "P", "kind": "Bridge",
                 "bridge": f"br{k}", "amount": {"fixed": rng.choice(("0.5", "1", "2"))}}
            )

    all_kinds = ["Bridge", "ExecutePendingTx", "StylizedArb", "Swap"]
    doc = {
        "schema_version": 1,
        "domains": [{"id": d, "native_asset": natives[d]} for d in domains],
        "assets": assets,
        "players": [
            {"id": "P",
             "balances": [
                 {"domain": d, "asset": natives[d], "amount": "10"} for d in domains
             ],
             "capabilities": [{"domain": d, "kinds": all_kinds} for d in domains]},
            {"id": "whale",
             "balances": [
                 {"domain": d, "asset": natives[d], "amount": "100"} for d in domains
             ],
             "capabilities": []},
        ],
        "pools": pools,
        "bridges": bridges,
        "mempool": mempool,
        "opportunities": [],
        "stylized_arbs": arbs,
        "actions": actions,
        "prices": [
            {"from": natives[d], "to": natives["d0"], "rate": rng.choice(RATES)}
            for d in domains[1:]
        ],
        "defaults": {
            "player": "P", "base_domain": "d0", "base_asset": natives["d0"],
            "max_sequence_length": 5, "alpha": "0",
            "action_domains": domains, "value_domains": domains,
        },
    }
    if parametric:
        add_parametric_action(rng, doc)
    return doc


def add_parametric_action(rng: random.Random, doc: dict) -> None:
    """Add one action of P sized on an interval: half the time when there are
    two domains a bridge between them, else a stylized fill, for which P
    also gets PAIR and CASH. Some upper ends exceed what P holds, so the affordable part of the
    interval is sometimes cut short by the balance. Sequences are capped at
    two actions: a parametric action starts a branch of ordered shapes, each
    sized by a golden-section search, and at length 5 the 200 scenarios of
    one property take over 30 s to search."""
    domains = [d["id"] for d in doc["domains"]]
    natives = {d["id"]: d["native_asset"] for d in doc["domains"]}
    lo, hi = rng.choice(PARAM_INTERVALS)
    if len(domains) > 1 and rng.random() < 0.5:
        da, db = rng.sample(domains, 2)
        doc["bridges"].append(
            {"id": "br_param", "from_domain": da, "to_domain": db,
             "from_asset": natives[da], "to_asset": natives[db],
             "rate": rng.choice(RATES), "flat_fee": rng.choice(("0", "0.1"))}
        )
        payload = {"kind": "Bridge", "bridge": "br_param"}
    else:
        pool = rng.choice(doc["pools"])
        doc["players"][0]["balances"] += [
            {"domain": pool["domain"], "asset": "PAIR", "amount": "3"},
            {"domain": pool["domain"], "asset": "CASH", "amount": "30"},
        ]
        payload = {"kind": "Swap", "pool": pool["id"], "direction": rng.choice(DIRECTIONS)}
    doc["actions"].append(
        {"id": "act_param", "player": "P", "amount": {"interval": [lo, hi]}, **payload}
    )
    doc["defaults"]["max_sequence_length"] = 2


@lru_cache(maxsize=None)
def build(seed: int, cross_domain: bool = True, parametric: bool = False) -> Scenario:
    return loads(json.dumps(random_doc(random.Random(seed), cross_domain, parametric)))


def both_variants():
    """(seed, label for messages, scenario) for every seed of the plain
    variant, then of the parametric one."""
    for parametric in (False, True):
        for seed in range(SCENARIO_RUNS):
            label = f"parametric seed {seed}" if parametric else f"seed {seed}"
            yield seed, label, build(seed, parametric=parametric)


def test_mev_is_never_negative():
    for seed, label, scenario in both_variants():
        state = scenario.initial_state()
        rng = random.Random(10_000 + seed)
        domain_ids = [d.id for d in scenario.domains]
        acting = rng.sample(domain_ids, rng.randint(1, len(domain_ids)))
        valuing = rng.sample(domain_ids, rng.randint(1, len(domain_ids)))
        result = mev(scenario.space, state, scenario.default_query(
            action_domains=acting, value_domains=valuing))
        assert result.value >= Amount(0), f"{label}: {result.value} < 0"


def test_action_space_monotonicity():
    for seed in range(SCENARIO_RUNS):
        scenario = build(seed)
        state = scenario.initial_state()
        domain_ids = [d.id for d in scenario.domains]
        narrow = domain_ids[:1]
        values = []
        for upto in range(1, len(domain_ids) + 1):
            result = mev(scenario.space, state, scenario.default_query(
                action_domains=domain_ids[:upto], value_domains=domain_ids))
            values.append(result.value)
        assert values == sorted(values), f"seed {seed}: {values} not monotone"


def test_separability_without_cross_domain_actions():
    for seed in range(SCENARIO_RUNS):
        scenario = build(seed, cross_domain=False)
        state = scenario.initial_state()
        d0, d1 = (d.id for d in scenario.domains)
        joint = mev(scenario.space, state, scenario.default_query(
            action_domains=[d0, d1], value_domains=[d0, d1]))
        solo_sum = Amount(0)
        for d in (d0, d1):
            solo = mev(scenario.space, state, scenario.default_query(
                action_domains=[d], value_domains=[d]))
            solo_sum = solo_sum + solo.value
        assert joint.value == solo_sum, (
            f"seed {seed}: joint {joint.value} != solo sum {solo_sum}"
        )


def test_witness_replay_reproduces_value_exactly():
    for _, label, scenario in both_variants():
        state = scenario.initial_state()
        query = scenario.default_query()
        result = mev(scenario.space, state, query)
        replayed = replay_witness(scenario.space, state, query, result.witness)
        assert replayed == result.value, f"{label}: replay {replayed} != {result.value}"


def test_verdict_monotone_in_alpha():
    rank = {Verdict.UNPROFITABLE: 0, Verdict.INDIFFERENT: 1, Verdict.PROFITABLE: 2}
    for seed in range(SCENARIO_RUNS):
        scenario = build(seed)
        domain_ids = tuple(d.id for d in scenario.domains)
        if len(domain_ids) < 2:
            continue
        state = scenario.initial_state()
        ranks = []
        for alpha in (Amount("0"), Amount("0.7"), Amount("3")):
            query = scenario.default_query(player="P", value_domains=domain_ids)
            report = classify_collusion(scenario.space, state, query, alpha)
            ranks.append(rank[report.verdict])
        assert ranks == sorted(ranks, reverse=True), f"seed {seed}: {ranks}"


def test_price_reciprocity_round_trip_within_one_unit():
    # expanding conversion first, contracting conversion last: the half-unit
    # quantization of the inner step shrinks instead of amplifying
    rng = random.Random(424242)
    one_unit = Amount.from_units(1)
    for run in range(SCENARIO_RUNS):
        rate = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        prices = PriceMatrix({("A", "B"): rate})
        start, mid = ("A", "B") if rate >= 1 else ("B", "A")
        x = Amount.from_units(rng.randint(0, 10**24))
        back = convert(prices, mid, start, convert(prices, start, mid, x))
        assert abs(back - x) <= one_unit, f"run {run}: rate {rate}, x {x}, back {back}"


def priced_delta_reference(query: MevQuery, initial: WorldState, final: WorldState) -> int:
    """The per-domain formula: each native-asset delta converted to the base
    with ``convert``, then the converted amounts summed; in units, as
    ``priced_balance_delta`` returns it. The query is refused first, at its
    first value domain that is undeclared or whose asset has no rate into
    the base, whatever the deltas."""
    for domain in query.value_domains:
        query.prices.rate(initial.registry.native_asset(domain), query.base_asset)
    total = Amount(0)
    for domain in query.value_domains:
        asset = initial.registry.native_asset(domain)
        delta = final.balance(domain, query.player, asset) - initial.balance(
            domain, query.player, asset
        )
        if delta.units:
            total = total + convert(query.prices, asset, query.base_asset, delta)
    return total.units


def test_priced_balance_delta_matches_per_domain_convert():
    rng = random.Random(8080)
    assets = ("A", "B", "C", "D")
    raised = set()
    for run in range(10 * SCENARIO_RUNS):
        domains = [f"d{k}" for k in range(rng.randint(1, 4))]
        registry = Registry(
            native_assets={d: rng.choice(assets) for d in domains},
            players=frozenset({"P", "Q"}),
            assets=frozenset(assets),
            pools={},
        )
        base = rng.choice(assets)
        prices = PriceMatrix()
        for asset in assets:
            if asset != base and rng.random() < 0.9:  # some assets stay unpriced
                prices.declare(asset, base, Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)))

        def random_state():
            balances = {}
            for domain, asset in registry.native_assets.items():
                for player in ("P", "Q"):
                    if rng.random() < 0.7:
                        units = rng.randint(0, 10**24)
                        if units:  # a state stores no zero balance
                            balances[(domain, player, asset)] = units
            return WorldState(registry, balances, {})

        initial = random_state()
        final = random_state() if rng.random() < 0.9 else initial
        value_domains = rng.sample(domains, rng.randint(1, len(domains)))
        if rng.random() < 0.05:
            value_domains.insert(rng.randint(0, len(value_domains)), "undeclared")
        query = MevQuery(
            player="P", action_domains=frozenset(domains), value_domains=tuple(value_domains),
            base_domain=domains[0], base_asset=base, prices=prices,
        )
        outcomes = []
        for pricer in (
            lambda q, i, f: priced_balance_delta(price_terms(q, i), f.balances),
            priced_delta_reference,
        ):
            try:
                outcomes.append(pricer(query, initial, final))
            except XdmevError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], f"run {run}: {outcomes}"
        if isinstance(outcomes[0], tuple):
            raised.add(outcomes[0][0])
    assert raised == {UnknownId, MissingRate}


def test_engine_agrees_with_oracle_on_random_discrete_scenarios():
    for seed in range(100):
        scenario = build(seed)
        state = scenario.initial_state()
        query = scenario.default_query()
        fast = mev(scenario.space, state, query)
        slow = mev_oracle(scenario.space, state, query)
        assert fast.value == slow.value, f"seed {seed}"
        assert fast.witness == slow.witness, f"seed {seed}"


def brute_force_best(scenario: Scenario, query: MevQuery, grid_points: int):
    """(value units, witness) of the best sequence, found by applying every
    ordered choice of the player's actions, every amount of each parametric
    one on an even grid, from the initial state with ``apply_sequence``.

    Best is the order ``mev`` documents: value desc, length asc, id list
    asc, amounts asc (no amount first)."""
    state = scenario.initial_state()
    actions = scenario.space.for_player(query.player)
    steps = grid_points - 1
    grids = {}
    for action in actions:
        if action.parametric:
            lo, hi = action.amount.lo.units, action.amount.hi.units
            units = {div_half_even(lo * (steps - k) + hi * k, steps) for k in range(grid_points)}
            grids[action.id] = [Amount.from_units(u) for u in sorted(units)]
    best_key, best = None, None
    for length in range(query.max_sequence_length + 1):
        for chosen in permutations(actions, length):
            for amounts in product(*(grids.get(a.id, (None,)) for a in chosen)):
                seq = tuple(zip((a.id for a in chosen), amounts))
                try:
                    final = apply_sequence(
                        scenario.space, state, query.player, seq, query.action_domains
                    )
                except XdmevError:
                    continue
                value = priced_delta_reference(query, state, final)
                key = (-value, length, [a.id for a in chosen],
                       [-1 if x is None else x.units for x in amounts])
                if best_key is None or key < best_key:
                    best_key, best = key, (value, seq)
    return best


def test_oracle_equals_a_brute_force_enumeration():
    # the oracle builds a sequence's steps only for a level below it or a
    # value at least the best so far, and keeps the best through a visitor
    for _, label, scenario in both_variants():
        state = scenario.initial_state()
        query = scenario.default_query()
        oracle = mev_oracle(scenario.space, state, query, grid_points=5)
        value, witness = brute_force_best(scenario, query, grid_points=5)
        assert (oracle.value.units, oracle.witness) == (value, witness), label


def test_oracle_never_beats_the_engine_on_parametric_scenarios():
    # the engine sizes a parametric slot by golden-section over every unit;
    # the oracle's even grid finds no better amount on these scenarios
    for seed in range(SCENARIO_RUNS):
        scenario = build(seed, parametric=True)
        state = scenario.initial_state()
        query = scenario.default_query()
        oracle = mev_oracle(scenario.space, state, query, grid_points=201)
        engine = mev(scenario.space, state, query)
        assert oracle.value <= engine.value, f"seed {seed}: {oracle.value} > {engine.value}"


def test_available_actions_are_individually_performable():
    # availability soundness: everything returned extends to a valid
    # single-action sequence, with the max affordable amount if parametric;
    # one unit more than that amount, when still in the interval, fails
    from xdmev.actions import available_actions, max_feasible_amount, validate_sequence

    parametric_checked = 0
    for _, label, scenario in both_variants():
        state = scenario.initial_state()
        domains = frozenset(d.id for d in scenario.domains)

        def violation(action, amount):
            return validate_sequence(scenario.space, "P", domains, state, [(action.id, amount)])

        for action in available_actions(scenario.space, "P", domains, state):
            amount = None
            if action.parametric:
                parametric_checked += 1
                amount = Amount.from_units(max_feasible_amount(state, "P", action))
                above = Amount.from_units(amount.units + 1)
                if above <= action.amount.hi:
                    assert violation(action, above) is not None, (
                        f"{label}: {action.id} also works at {above}"
                    )
            found = violation(action, amount)
            assert found is None, f"{label}: {action.id}: {found}"
    assert parametric_checked > 0


def test_unavailable_parametric_actions_have_no_performable_amount():
    # availability completeness, checked without ``max_feasible_amount``: a
    # parametric action left out performs at no amount of an 11-point grid
    # over its interval, nor at exactly the units P holds of its input
    from xdmev.actions import available_actions, validate_sequence
    from xdmev.engine import grid_amounts

    left_out = 0
    for seed in range(SCENARIO_RUNS):
        scenario = build(seed, parametric=True)
        state = scenario.initial_state()
        domains = frozenset(d.id for d in scenario.domains)
        available = available_actions(scenario.space, "P", domains, state)
        for action in scenario.space.for_player("P"):
            if not action.parametric or action in available:
                continue
            left_out += 1
            held = state.balances.get(_input_key(action), 0)
            tries = grid_amounts(action.amount, 11) + (held,)
            for amount in map(Amount.from_units, tries):
                violation = validate_sequence(
                    scenario.space, "P", domains, state, [(action.id, amount)]
                )
                assert violation is not None, f"seed {seed}: {action.id} works at {amount}"
    assert left_out > 0  # the variant leaves some parametric action unaffordable


def _input_key(action) -> tuple[str, str, str]:
    """Balance key of the asset a parametric swap or bridge of P spends."""
    if action.kind == "Bridge":
        return action.target.from_domain, "P", action.target.from_asset
    pool = action.target
    asset = pool.asset_x if action.direction == "x_to_y" else pool.asset_y
    return pool.domain, "P", asset


def test_breakeven_alpha_is_never_negative():
    for seed in range(SCENARIO_RUNS):
        scenario = build(seed)
        domain_ids = tuple(d.id for d in scenario.domains)
        if len(domain_ids) < 2:
            continue
        query = scenario.default_query(player="P", value_domains=domain_ids)
        report = classify_collusion(scenario.space, scenario.initial_state(), query, Amount("0"))
        assert report.breakeven >= Amount(0), f"seed {seed}: {report.breakeven}"


def scaled_prices(prices: PriceMatrix, factor: Fraction) -> PriceMatrix:
    """``prices`` with every rate multiplied by ``factor``.

    Only meaningful toward one base: the result deliberately breaks the
    reciprocity a declared matrix keeps.
    """
    scaled = PriceMatrix()
    scaled._rates = {pair: rate * factor for pair, rate in prices._rates.items()}
    return scaled


def test_rate_scaling_preserves_single_domain_witness():
    for seed in range(SCENARIO_RUNS):
        scenario = build(seed)
        domain_ids = [d.id for d in scenario.domains]
        if len(domain_ids) < 2:
            continue
        target = domain_ids[-1]
        state = scenario.initial_state()
        base_query = scenario.default_query(
            action_domains=domain_ids, value_domains=[target])
        plain = mev(scenario.space, state, base_query)
        scaled_query = MevQuery(
            player=base_query.player,
            action_domains=base_query.action_domains,
            value_domains=base_query.value_domains,
            base_domain=base_query.base_domain,
            base_asset=base_query.base_asset,
            prices=scaled_prices(scenario.prices, Fraction(7, 2)),
            max_sequence_length=base_query.max_sequence_length,
        )
        scaled = mev(scenario.space, state, scaled_query)
        assert plain.witness == scaled.witness, f"seed {seed}"


def test_serialization_round_trips_random_documents():
    # the loader and the serializer walk one field table: writing a loaded
    # scenario and loading it back gives the same bytes, state and query
    for _, label, scenario in both_variants():
        text = serialize_scenario(scenario)
        reloaded = loads(text)
        assert serialize_scenario(reloaded) == text, label
        assert reloaded.initial_state() == scenario.initial_state(), label
        assert reloaded.default_query() == scenario.default_query(), label
