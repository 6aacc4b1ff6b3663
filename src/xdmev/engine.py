"""Extractable-value definitions and the exhaustive sequence search.

``mev`` maximizes the priced sum of per-domain balance changes over every
valid action sequence (distinct ids, bounded length), optimizing
continuous trade sizes by golden-section at the leaves; the one probe
schedule, ``_golden_section``, also serves ``optimal_cp_arbitrage``.
``mev_oracle`` is the independent cross-check: plain enumeration with
amounts discretized on an even grid, sharing nothing with the search but
the state semantics.

Everything here is a pure function over immutable values; the only
mutable machinery (a work counter and the search memo) lives inside one
call, so concurrent queries need no coordination. The searches are plain
functions, methods and generators with no self-referencing closure, so a
query leaves no reference cycle and its states are freed when it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .actions import (
    Action,
    ActionSpaceSpec,
    SequenceStep,
    apply_action,
    apply_sequence,
    max_feasible_amount,
)
from .errors import ExplosionGuard, NoOpportunity, UnknownId, XdmevError
from .fixedpoint import ZERO, Amount, div_half_even
from .model import PriceMatrix, WorldState, balance_of
from .model import convert  # noqa: F401  re-exported; perfbench/tracing.py wraps engine.convert
from .venues import ConstantProductPool
from . import _kernels

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_MAX_SEQUENCE_LENGTH = 8
DEFAULT_CANDIDATE_CAP = 10_000_000


@dataclass(frozen=True)
class MevQuery:
    """What to maximize: who acts where, where value is measured, in what."""

    player: str
    action_domains: frozenset[str]
    value_domains: tuple[str, ...]
    base_domain: str
    base_asset: str
    prices: PriceMatrix
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH
    candidate_cap: int = DEFAULT_CANDIDATE_CAP


@dataclass(frozen=True, slots=True)
class MevResult:
    """Best value and its witness; the final state is ``apply_sequence`` of the witness.

    ``explored`` counts the search's work: for ``mev``, nodes expanded
    (memo misses plus parametric shape evaluations); for ``mev_oracle``,
    1 for the empty sequence plus every grid application tried, failed
    ones included.
    """

    value: Amount
    witness: tuple[SequenceStep, ...]
    explored: int
    method: str


class _Counter:
    """Work counter of one search; trips ExplosionGuard past the cap."""

    __slots__ = ("count", "cap")

    def __init__(self, cap: int):
        self.count = 0
        self.cap = cap

    def bump(self) -> None:
        self.count += 1
        if self.count > self.cap:
            raise ExplosionGuard(f"search work exceeded the cap of {self.cap}")


_Candidate = tuple[Amount, tuple[SequenceStep, ...]]


def _candidate_better(a: _Candidate, b: _Candidate) -> bool:
    """Strict total preference: value desc, length asc, id list asc, amounts asc."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if len(a[1]) != len(b[1]):
        return len(a[1]) < len(b[1])
    ids_a = tuple(step[0] for step in a[1])
    ids_b = tuple(step[0] for step in b[1])
    if ids_a != ids_b:
        return ids_a < ids_b
    amounts_a = tuple(step[1].units if step[1] is not None else -1 for step in a[1])
    amounts_b = tuple(step[1].units if step[1] is not None else -1 for step in b[1])
    return amounts_a < amounts_b


def _merge(a: Optional[_Candidate], b: Optional[_Candidate]) -> Optional[_Candidate]:
    if a is None:
        return b
    if b is None:
        return a
    return b if _candidate_better(b, a) else a


def priced_balance_delta(query: MevQuery, initial: WorldState, final: WorldState) -> Amount:
    """Sum over value domains of the native-asset delta priced into the base.

    Each domain's delta is rounded half-even at the 18th digit on its own,
    as ``convert`` rounds it, and the rounded deltas sum exactly.
    """
    registry = initial.registry
    prices, base, player = query.prices, query.base_asset, query.player
    before, after = initial.balances, final.balances
    total = 0
    for domain in query.value_domains:
        asset = registry.native_asset(domain)
        key = (domain, player, asset)
        delta = after.get(key, 0) - before.get(key, 0)
        if delta:
            if asset != base:
                rate = prices.rate(asset, base)
                delta = div_half_even(delta * rate.numerator, rate.denominator)
            total += delta
    return Amount.from_units(total)


def extractable_value(
    space: ActionSpaceSpec,
    state: WorldState,
    player: str,
    seq: Sequence[SequenceStep],
    value_domain: str,
    asset: str,
) -> Amount:
    """Balance change of ``asset`` in ``value_domain`` after applying ``seq``.

    May be negative; sequence-application errors propagate with their index.
    """
    final = apply_sequence(space, state, player, seq)
    return balance_of(final, value_domain, player, asset) - balance_of(
        state, value_domain, player, asset
    )


def _validate_query(state: WorldState, query: MevQuery) -> None:
    registry = state.registry
    registry.require_player(query.player)
    if not query.action_domains:
        raise UnknownId("action_domains must be nonempty")
    if not query.value_domains:
        raise UnknownId("value_domains must be nonempty")
    if len(set(query.value_domains)) != len(query.value_domains):
        raise UnknownId("value_domains must not repeat")
    for domain in query.action_domains:
        registry.require_domain(domain)
    registry.require_domain(query.base_domain)
    registry.require_asset(query.base_asset)
    for domain in query.value_domains:
        registry.require_domain(domain)
        # raises MissingRate when a native asset cannot be priced to base
        query.prices.rate(registry.native_asset(domain), query.base_asset)
    if query.max_sequence_length < 0:
        raise XdmevError("max_sequence_length must be >= 0")


def _usable_actions(
    space: ActionSpaceSpec, player: str, domains: frozenset[str]
) -> tuple[Action, ...]:
    """The player's actions whose domains all lie in ``domains``."""
    return tuple(a for a in space.for_player(player) if a.domains <= domains)


# -- exhaustive search -------------------------------------------------------


def _golden_section(lo_u: int, hi_u: int, score: Callable[[int], Optional[int]]) -> None:
    """Probe integer amounts in ``[lo_u, hi_u]`` by golden-section on ``score``.

    Both ends are probed first; past two integers, float positions are
    rounded and clamped into the range until the bracket is at most
    ``max((hi - lo) * 1e-12, 1)``. A None score (an invalid probe) ranks
    below every value. Each integer is scored once; the caller keeps its
    own best probe.
    """
    scores: dict[int, Optional[int]] = {}

    def probe(x: float) -> Optional[int]:
        units = min(max(round(x), lo_u), hi_u)
        if units not in scores:
            scores[units] = score(units)
        return scores[units]

    probe(lo_u)
    probe(hi_u)
    if hi_u - lo_u <= 1:
        return
    lo_f, hi_f = float(lo_u), float(hi_u)
    tol = max((hi_f - lo_f) * 1e-12, 1.0)
    c = hi_f - (hi_f - lo_f) * _INV_PHI
    d = lo_f + (hi_f - lo_f) * _INV_PHI
    fc = probe(c)
    fd = probe(d)
    while (hi_f - lo_f) > tol:
        if fc is not None and (fd is None or fc > fd):
            hi_f, d, fd = d, c, fc
            c = hi_f - (hi_f - lo_f) * _INV_PHI
            fc = probe(c)
        else:
            lo_f, c, fc = c, d, fd
            d = lo_f + (hi_f - lo_f) * _INV_PHI
            fd = probe(d)


class _Search:
    """One ``mev`` call's search. Plain methods instead of recursive
    closures, so no reference cycle keeps the memo alive after the call:
    ``best_suffix`` solves discrete prefixes, ``best_shape`` enumerates the
    shapes a parametric action starts, ``realize`` sizes one shape."""

    __slots__ = ("initial", "query", "actions", "counter", "memo")

    def __init__(self, initial: WorldState, query: MevQuery, actions: tuple[Action, ...]):
        self.initial = initial
        self.query = query
        self.actions = actions
        self.counter = _Counter(query.candidate_cap)
        self.memo: dict[tuple[WorldState, frozenset[str]], _Candidate] = {}

    def best_suffix(self, current: WorldState, used: frozenset[str]) -> _Candidate:
        """Best continuation from a state reached by a discrete prefix of ``used``."""
        key = (current, used)
        best = self.memo.get(key)
        if best is not None:
            return best
        self.counter.bump()
        query = self.query
        best = (priced_balance_delta(query, self.initial, current), ())
        if len(used) < query.max_sequence_length:
            for action in self.actions:
                if action.id in used:
                    continue
                if action.parametric:
                    candidate = self.best_shape(current, (action,), used | {action.id})
                else:
                    try:
                        nxt = apply_action(current, query.player, action, None)
                    except XdmevError:
                        continue
                    value, steps = self.best_suffix(nxt, used | {action.id})
                    candidate = (value, (action.step,) + steps)
                best = _merge(best, candidate)
        self.memo[key] = best
        return best

    def best_shape(
        self, start: WorldState, shape: tuple[Action, ...], used: frozenset[str]
    ) -> Optional[_Candidate]:
        """Best of ``shape`` and its extensions, all evaluated from ``start``;
        an invalid shape is not extended."""
        self.counter.bump()
        best = self.realize(shape, 0, start)
        if best is None or len(used) >= self.query.max_sequence_length:
            return best
        for nxt in self.actions:
            if nxt.id not in used:
                best = _merge(best, self.best_shape(start, shape + (nxt,), used | {nxt.id}))
        return best

    def realize(
        self, shape: tuple[Action, ...], idx: int, state: WorldState
    ) -> Optional[_Candidate]:
        """Best candidate applying exactly ``shape[idx:]`` from ``state``, or
        None; values are priced against the query's initial state.

        A discrete slot applies once. A parametric slot runs
        ``_golden_section`` over the affordable part of its interval, each
        probe applied in exact fixed point and scored by the optimized rest
        of the shape, so the returned candidate is exactly replayable.
        """
        if idx == len(shape):
            return priced_balance_delta(self.query, self.initial, state), ()
        player, action = self.query.player, shape[idx]
        best: Optional[_Candidate] = None

        def score(units: Optional[int]) -> Optional[int]:
            nonlocal best
            amount = None if units is None else Amount.from_units(units)
            try:
                nxt = apply_action(state, player, action, amount)
            except XdmevError:
                return None
            rest = self.realize(shape, idx + 1, nxt)
            if rest is None:
                return None
            value, tail = rest
            # a lower value loses the tie-break outright; build no candidate for it
            if best is None or value.units >= best[0].units:
                step = action.step if amount is None else (action.id, amount)
                candidate = (value, (step,) + tail)
                if best is None or _candidate_better(candidate, best):
                    best = candidate
            return value.units

        if not action.parametric:
            score(None)
        else:
            lo_u = max(action.interval.lo.units, 1)
            hi_u = max_feasible_amount(state, player, action).units
            if hi_u >= lo_u:
                _golden_section(lo_u, hi_u, score)
        return best


def mev(space: ActionSpaceSpec, state: WorldState, query: MevQuery) -> MevResult:
    """Maximize the priced balance change over all valid sequences.

    Ties break by shortest sequence, then lexicographic action ids, then
    smallest amounts, so results are stable across runs.

    The search is a depth-first walk that solves each reached (state, used
    ids) pair once. That is exact: a sequence's value depends only on its
    final state, and with the prefix fixed the tie-break order on whole
    sequences is the same order on suffixes. A discrete action applies once
    to its parent's state. A parametric action starts a branch of ordered
    shapes, each optimized by ``_Search.realize`` from the branch's start
    and extended only while it stays valid.
    """
    _validate_query(state, query)
    search = _Search(state, query, _usable_actions(space, query.player, query.action_domains))
    value, witness = search.best_suffix(state, frozenset())
    return MevResult(
        value=value, witness=witness, explored=search.counter.count, method="exhaustive"
    )


def mev_cross_two(
    space: ActionSpaceSpec,
    state: WorldState,
    player: str,
    domain_i: str,
    domain_j: str,
    prices: PriceMatrix,
    max_len: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> MevResult:
    """Two-domain convenience wrapper: act and value in {i, j}, base = i's asset."""
    registry = state.registry
    query = MevQuery(
        player=player,
        action_domains=frozenset({domain_i, domain_j}),
        value_domains=(domain_i, domain_j),
        base_domain=domain_i,
        base_asset=registry.native_asset(domain_i),
        prices=prices,
        max_sequence_length=max_len,
    )
    return mev(space, state, query)


# -- independent oracle -------------------------------------------------------


def grid_amounts(interval, points: int) -> tuple[Amount, ...]:
    """Evenly spaced amounts over [lo, hi], half-even to 18 digits, deduplicated."""
    if points < 2:
        raise XdmevError("grid needs at least 2 points")
    lo, hi = interval.lo.units, interval.hi.units
    steps = points - 1
    out: list[Amount] = []
    prev: Optional[int] = None
    for k in range(points):
        units = div_half_even(lo * (steps - k) + hi * k, steps)
        if units != prev:
            out.append(Amount.from_units(units))
            prev = units
    return tuple(out)


def _grid_sequences(
    actions: tuple[Action, ...],
    start: WorldState,
    player: str,
    max_len: int,
    grid_points: int,
    counter: _Counter,
) -> Iterator[tuple[WorldState, tuple[SequenceStep, ...]]]:
    """Every valid sequence of length 1..max_len from ``start``, depth first
    in action order, as (final state, steps); parametric amounts run over
    ``grid_amounts``. Each application tried bumps ``counter`` once.

    The grids are built here, before the first sequence is drawn.
    """
    choices = tuple(
        (action, grid_amounts(action.interval, grid_points) if action.parametric else (None,))
        for action in actions
    )
    if max_len < 1:
        return iter(())
    return _grid_walk(choices, start, (), frozenset(), player, max_len, counter)


def _grid_walk(choices, current, steps, used, player, max_len, counter):
    """``_grid_sequences`` below the prefix ``steps`` (ids ``used``) that
    reached ``current``, shorter than ``max_len``; ``choices`` pairs each
    action with its amounts. A sequence of length ``max_len`` starts no walk
    below it."""
    deeper = len(steps) + 1 < max_len
    for action, amounts in choices:
        if action.id in used:
            continue
        for amount in amounts:
            counter.bump()
            try:
                nxt = apply_action(current, player, action, amount)
            except XdmevError:
                continue
            seq = steps + ((action.id, amount),)
            yield nxt, seq
            if deeper:
                yield from _grid_walk(
                    choices, nxt, seq, used | {action.id}, player, max_len, counter
                )


def mev_oracle(
    space: ActionSpaceSpec,
    state: WorldState,
    query: MevQuery,
    grid_points: int = 101,
) -> MevResult:
    """Brute-force reference: enumerate ordered subsets, amounts on a grid.

    Deliberately shares no search machinery with ``mev``; agreement between
    the two is the engine's correctness check.
    """
    _validate_query(state, query)
    counter = _Counter(query.candidate_cap)
    sequences = _grid_sequences(
        _usable_actions(space, query.player, query.action_domains),
        state, query.player, query.max_sequence_length, grid_points, counter,
    )
    counter.bump()  # the empty sequence
    best: _Candidate = (ZERO, ())
    for final, steps in sequences:
        value = priced_balance_delta(query, state, final)
        # as in ``_Search.realize``: a lower value cannot win the tie-break
        if value.units >= best[0].units and _candidate_better((value, steps), best):
            best = (value, steps)
    return MevResult(
        value=best[0],
        witness=best[1],
        explored=counter.count,
        method="oracle",
    )


def replay_witness(
    space: ActionSpaceSpec, state: WorldState, query: MevQuery, witness
) -> Amount:
    """Re-apply a witness and re-price it; must reproduce MevResult.value."""
    final = apply_sequence(space, state, query.player, witness)
    return priced_balance_delta(query, state, final)


# -- reachable states ----------------------------------------------------------


def reachable_states(
    space: ActionSpaceSpec,
    state: WorldState,
    player: str,
    domains: frozenset[str] | set[str],
    max_len: int,
    grid_points: int = 5,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> frozenset[WorldState]:
    """Distinct states reachable by valid sequences of length <= max_len.

    Parametric amounts are sampled on the examination grid; the initial
    state (empty sequence) is always included.
    """
    if max_len < 0:
        raise XdmevError("max_len must be >= 0")
    state.registry.require_player(player)
    domains = frozenset(state.registry.require_domain(d) for d in domains)
    sequences = _grid_sequences(
        _usable_actions(space, player, domains),
        state, player, max_len, grid_points, _Counter(candidate_cap),
    )
    return frozenset({state}.union(final for final, _ in sequences))


# -- constant-product arbitrage -------------------------------------------------


class CpArbResult(NamedTuple):
    amount: Amount
    profit: Amount
    buy_pool: str
    sell_pool: str
    input_asset: str


def optimal_cp_arbitrage(
    pool_a: ConstantProductPool, pool_b: ConstantProductPool
) -> CpArbResult:
    """Input size maximizing buy-cheap/sell-dear profit across two pools.

    Zero-fee pairs use the closed form (integer square root, exact
    neighbor check). A pair with fees runs ``mev``'s golden-section
    schedule over [1, hi], hi being the buy pool's input-side reserve, and
    keeps the highest profit, then the smallest amount.
    """
    if (pool_b.asset_x, pool_b.asset_y) == (pool_a.asset_x, pool_a.asset_y):
        b_rx, b_ry = pool_b.reserve_x.units, pool_b.reserve_y.units
    elif (pool_b.asset_x, pool_b.asset_y) == (pool_a.asset_y, pool_a.asset_x):
        b_rx, b_ry = pool_b.reserve_y.units, pool_b.reserve_x.units
    else:
        raise XdmevError(
            f"pools {pool_a.id} and {pool_b.id} do not share an asset pair"
        )
    a_rx, a_ry = pool_a.reserve_x.units, pool_a.reserve_y.units

    # prices of X in Y, compared exactly by cross-multiplication
    lhs = a_ry * b_rx
    rhs = b_ry * a_rx
    if lhs == rhs:
        raise NoOpportunity(
            f"pools {pool_a.id} and {pool_b.id} quote the same marginal price"
        )
    if lhs < rhs:
        cheap_rx, cheap_ry, cheap_fee = a_rx, a_ry, pool_a.fee_bps
        dear_rx, dear_ry, dear_fee = b_rx, b_ry, pool_b.fee_bps
        buy_pool, sell_pool = pool_a, pool_b
    else:
        cheap_rx, cheap_ry, cheap_fee = b_rx, b_ry, pool_b.fee_bps
        dear_rx, dear_ry, dear_fee = a_rx, a_ry, pool_a.fee_bps
        buy_pool, sell_pool = pool_b, pool_a

    best_amount = best_profit = 0

    def score(units: int) -> int:
        """Round-trip profit at ``units``; keeps the highest, then the smallest amount."""
        nonlocal best_amount, best_profit
        profit = _kernels.round_trip_profit(
            cheap_ry, cheap_rx, dear_rx, dear_ry, cheap_fee, dear_fee, units
        )
        if profit > best_profit or (profit == best_profit and units < best_amount):
            best_profit = profit
            best_amount = units
        return profit

    if cheap_fee == 0 and dear_fee == 0:
        k1 = dear_ry * cheap_rx
        k2 = dear_rx * cheap_ry
        k3 = dear_rx + cheap_rx
        center = (math.isqrt(k1 * k2) - k2) // k3
        for units in (center - 1, center, center + 1):
            if units > 0:
                score(units)
    else:
        _golden_section(1, cheap_ry, score)

    if best_amount <= 0 or best_profit <= 0:
        raise NoOpportunity(
            f"no profitable trade between {pool_a.id} and {pool_b.id}"
        )
    # reserves were normalized to pool_a's orientation, so the trade is
    # always denominated in pool_a's Y-side asset
    input_asset = pool_a.asset_y
    return CpArbResult(
        amount=Amount.from_units(best_amount),
        profit=Amount.from_units(best_profit),
        buy_pool=buy_pool.id,
        sell_pool=sell_pool.id,
        input_asset=input_asset,
    )
