"""Frozen value records (``xdmev._record``).

Every value class of the package is a ``Record``. Each is sampled here from
the bundled scenarios and the results computed on them, and must keep the
semantics a frozen dataclass gave it. ``MevResult`` is a named tuple, not a
``Record``; it is checked on its own.
"""

import pytest

from xdmev._record import Record
from xdmev.actions import Action, AmountInterval, SequenceViolation, validate_sequence
from xdmev.collusion import CollusionReport, classify_collusion
from xdmev.engine import MevQuery, MevResult, mev
from xdmev.errors import XdmevError
from xdmev.fixedpoint import Amount
from xdmev.model import Registry
from xdmev.scenario import (
    BUNDLED_NAMES,
    BalanceDecl,
    Defaults,
    DomainDecl,
    PlayerDecl,
    Scenario,
    bundled_path,
    loads,
)
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
)

VALUE_CLASSES = (
    ConstantProductPool, StylizedMidpointPool, StylizedArbSpec, BridgeSpec, LegOpportunity,
    PricePushEffect, CpSwapEffect, TransferEffect, ArbLegEffect, PendingTx,
    AmountInterval, Action, SequenceViolation, MevQuery, Registry,
    DomainDecl, BalanceDecl, PlayerDecl, Defaults, Scenario, CollusionReport,
)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


@pytest.fixture(scope="module")
def samples() -> dict:
    """Instances of every value class, built from the bundled scenarios."""
    from xdmev.scenario import load_bundled

    found: dict[type, list] = {cls: [] for cls in VALUE_CLASSES}

    def add(value):
        found[type(value)].append(value)

    for name in BUNDLED_NAMES:
        scenario = load_bundled(name)
        add(scenario)
        add(scenario.registry)
        add(scenario.defaults)
        for value in scenario.domains + scenario.pools + scenario.bridges + scenario.opportunities:
            add(value)
        for value in scenario.stylized_arbs + scenario.mempool:
            add(value)
        for tx in scenario.mempool:
            add(tx.effect)
        for player in scenario.players:
            add(player)
            for balance in player.balances:
                add(balance)
        for _, action in scenario.player_actions:
            add(action)
            if action.parametric:
                add(action.amount)
        state, query = scenario.initial_state(), scenario.default_query()
        add(query)
        add(validate_sequence(
            scenario.space, query.player, query.action_domains, state, [("no_such_action", None)]
        ))
        if len(query.action_domains) > 1 and name != "appendix_b_4amm":
            add(classify_collusion(
                scenario.space, state,
                query.replace(value_domains=scenario.defaults.action_domains), Amount(0),
            ))
    # no bundled mempool holds these two effects; build them on a bundled pool
    pool = load_bundled("cp_arbitrage_small").pools[0]
    add(CpSwapEffect(pool, "x_to_y", Amount("1"), "P"))
    add(CpSwapEffect(pool, "y_to_x", Amount("2"), "P"))
    add(TransferEffect("P", "whale", pool.asset_x, Amount("3")))
    add(TransferEffect("whale", "P", pool.asset_x, Amount("3")))
    return found


def _values(record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_value_class_is_a_record_with_samples(samples):
    assert set(_all_subclasses(Record)) == set(samples)
    assert len(samples) == 21
    assert not any("__slots__" in vars(cls) for cls in samples)  # one storage path
    for cls, values in samples.items():
        assert values, cls.__name__


def test_equal_only_within_one_class_and_equal_values_hash_equal(samples):
    for cls, values in samples.items():
        twin_fields = dict.fromkeys(cls._fields, "object")
        twin_cls = type("Twin", (Record,), {"__annotations__": twin_fields})
        for value in values:
            twin = twin_cls(**_values(value))
            assert value != twin and twin != value, cls.__name__
            copy = cls(**_values(value))
            assert copy is not value
            if cls is Scenario:  # identity equality and hash
                assert copy != value and hash(value) == object.__hash__(value)
                continue
            assert copy == value and not copy != value, cls.__name__
            assert _hash_or_error(copy) == _hash_or_error(value), cls.__name__
        for a in values[:4]:
            for b in values[:4]:
                assert (a == b) == (a is b or (cls is not Scenario and _values(a) == _values(b)))


def test_fields_of_unhashable_maps_keep_records_unhashable(samples):
    for cls in (Registry, PlayerDecl, CollusionReport):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(samples[cls][0])


def test_assignment_and_deletion_raise_attribute_error(samples):
    for cls, values in samples.items():
        value = values[0]
        before = _values(value)
        for name in cls._fields + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert _values(value) == before
        assert all(before[name] is getattr(value, name) for name in cls._fields)


def test_construction_by_position_and_keyword(samples):
    for cls, values in samples.items():
        value = values[0]
        kwargs = _values(value)
        args = tuple(kwargs.values())
        for built in (cls(*args), cls(**kwargs), cls(*args[:1], **dict(list(kwargs.items())[1:]))):
            assert _values(built) == kwargs, cls.__name__
            assert type(built) is cls


def test_bad_constructor_arguments_raise_type_error(samples):
    for cls, values in samples.items():
        kwargs = _values(values[0])
        args = tuple(kwargs.values())
        first = cls._fields[0]
        missing = {k: v for k, v in kwargs.items() if k != first}
        for call in (
            lambda: cls(**missing),
            lambda: cls(*args, not_a_field=1),
            lambda: cls(*args, **{first: args[0]}),
            lambda: cls(*args, None),
        ):
            with pytest.raises(TypeError):
                call()


def test_defaults_fill_omitted_fields():
    pool = ConstantProductPool("p", "d", "X", "Y", 1, 2)
    assert pool.fee_bps == 0
    action = Action("a", "Swap", frozenset({"d"}), pool)
    assert (action.target, action.direction, action.amount) == (pool, None, None)
    query = MevQuery("P", frozenset({"d"}), ("d",), "d", "X", None)
    assert (query.max_sequence_length, query.candidate_cap) == (8, 10_000_000)


def test_replace_changes_fields_and_validates_again(samples):
    pool = samples[ConstantProductPool][0]
    moved = pool.replace(reserve_x_units=5)
    assert moved.reserve_x_units == 5 and moved.reserve_y_units == pool.reserve_y_units
    assert moved.id == pool.id and pool.reserve_x_units != 5
    with pytest.raises(XdmevError, match="fee_bps must lie in"):
        pool.replace(fee_bps=10_000)
    with pytest.raises(XdmevError, match="reserves must be strictly positive"):
        pool.replace(reserve_y_units=0)
    with pytest.raises(XdmevError, match="price must be positive"):
        samples[StylizedMidpointPool][0].replace(price=Amount(0))
    interval = samples[AmountInterval][0]
    with pytest.raises(XdmevError, match="must satisfy lo >= 0 < hi"):
        interval.replace(hi=interval.lo)
    with pytest.raises(TypeError):
        pool.replace(not_a_field=1)
    query = samples[MevQuery][0]
    assert query.replace(candidate_cap=5) == MevQuery(**{**_values(query), "candidate_cap": 5})
    scenario = samples[Scenario][0]
    rebuilt = scenario.replace()
    assert rebuilt.registry is not scenario.registry
    assert rebuilt.registry == scenario.registry


def test_post_init_checks_keep_their_messages():
    with pytest.raises(XdmevError, match=r"^pool p: reserves must be strictly positive$"):
        ConstantProductPool("p", "d", "X", "Y", 0, 1)
    with pytest.raises(XdmevError, match=r"^pool p: fee_bps must lie in \[0, 10000\)$"):
        ConstantProductPool("p", "d", "X", "Y", 1, 1, -1)
    with pytest.raises(XdmevError, match=r"^pool s: price must be positive$"):
        StylizedMidpointPool("s", "d", "X", "Y", Amount(0))
    with pytest.raises(XdmevError, match=r"^interval \[2, 1\] must satisfy lo >= 0 < hi$"):
        AmountInterval(Amount(2), Amount(1))


def test_reading_action_step_leaves_eq_and_hash_unchanged(samples):
    for action in samples[Action]:
        fresh = Action(**_values(action))
        before = hash(fresh)
        assert fresh.step == (fresh.id, None)
        assert fresh.step is fresh.step
        assert hash(fresh) == before
        assert fresh == Action(**_values(action))


def test_mev_result_is_a_frozen_named_tuple(bundled):
    scenario = bundled("cp_arbitrage_small")
    state, query = scenario.initial_state(), scenario.default_query()
    result, again = mev(scenario.space, state, query), mev(scenario.space, state, query)
    assert not hasattr(result, "__dict__")
    with pytest.raises(AttributeError):
        result.value = Amount(0)
    assert MevResult._fields == ("value", "witness", "explored", "method")
    assert result is not again
    assert result == again and hash(result) == hash(again)
    assert hash(result) == hash(tuple(result))


REPRS = {
    ("cp_arbitrage_small", "pool"): (
        "ConstantProductPool(id='pool_a', domain='dex', asset_x='ETH', asset_y='DAI', "
        "reserve_x_units=100000000000000000000, reserve_y_units=2000000000000000000000, fee_bps=0)"
    ),
    ("section3_2amm", "pool"): (
        "StylizedMidpointPool(id='toroswap', domain='j', asset_x='ETH', asset_y='DAI', "
        "price=Amount('20'))"
    ),
    ("cp_arbitrage_small", "action"): (
        "Action(id='buy_pool_a', kind='Swap', domains=frozenset({'dex'}), "
        "target=ConstantProductPool(id='pool_a', domain='dex', asset_x='ETH', asset_y='DAI', "
        "reserve_x_units=100000000000000000000, reserve_y_units=2000000000000000000000, "
        "fee_bps=0), direction='y_to_x', amount=AmountInterval(lo=Amount('0'), "
        "hi=Amount('1000')))"
    ),
    ("section3_2amm", "action"): (
        "Action(id='tx_buy_eth', kind='ExecutePendingTx', domains=frozenset({'i'}), "
        "target=PendingTx(id='tx_buy_eth', domain='i', "
        "effect=PricePushEffect(pool=StylizedMidpointPool(id='uniswap', domain='i', "
        "asset_x='ETH', asset_y='DAI', price=Amount('20')), to_price=Amount('30'))), "
        "direction=None, amount=None)"
    ),
    ("section3_2amm", "query"): (
        "MevQuery(player='P', action_domains=frozenset({'i'}), value_domains=('i', 'j'), "
        "base_domain='i', base_asset='ETH', prices=PriceMatrix({}), max_sequence_length=8, "
        "candidate_cap=10000000)"
    ),
    ("figure1_bridge_discounted", "query"): (
        "MevQuery(player='P', action_domains=frozenset({'ethereum'}), "
        "value_domains=('ethereum', 'polygon'), base_domain='ethereum', base_asset='MATIC', "
        "prices=PriceMatrix({('MATIC', 'WMATIC'): Fraction(10, 9), "
        "('WMATIC', 'MATIC'): Fraction(9, 10)}), max_sequence_length=8, "
        "candidate_cap=10000000)"
    ),
    ("section3_2amm", "result"): (
        "MevResult(value=Amount('1'), witness=(('tx_buy_eth', None), ('arb_uni_toro', None)), "
        "explored=3, method='exhaustive')"
    ),
    ("cp_arbitrage_small", "result"): (
        "MevResult(value=Amount('50.510257216821901796'), witness=(('buy_pool_a', "
        "Amount('224.744871301607227392')), ('sell_pool_b', None)), explored=3, "
        "method='golden-section')"
    ),
}


@pytest.mark.parametrize("name, what", sorted(REPRS))
def test_repr_matches_the_dataclass_repr(bundled, name, what):
    scenario = bundled(name)
    player = scenario.defaults.player
    if what == "pool":
        text = repr(scenario.pools[0])
    elif what == "action":
        text = repr(next(a for a in scenario.space.for_player(player) if len(a.domains) == 1))
    elif what == "query":
        text = repr(scenario.default_query(action_domains=[scenario.defaults.action_domains[0]]))
    else:
        text = repr(mev(scenario.space, scenario.initial_state(), scenario.default_query()))
    assert text == REPRS[name, what]


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_queries_over_equal_rates_are_equal(name):
    # each load declares its own price matrix; equal rates make equal queries
    text = bundled_path(name).read_text(encoding="utf-8")
    first, second = loads(text).default_query(), loads(text).default_query()
    assert first.prices is not second.prices
    assert first == second
    assert hash(first) == hash(second)
