"""Extractable-value definitions and the exhaustive sequence search.

``mev`` maximizes the priced sum of per-domain balance changes over every
valid action sequence (distinct ids, bounded length), optimizing
continuous trade sizes by golden-section at the leaves; the one probe
schedule, ``_golden_section``, also serves ``optimal_cp_arbitrage``.
``mev_oracle`` is the independent cross-check: plain enumeration with
amounts discretized on an even grid, sharing nothing with the search but
the state semantics. A search whose sequences nest deeper than the
interpreter's recursion limit, or a golden-section range past float
range, raises a one-line ``XdmevError`` (``ExplosionGuard`` for depth)
instead of escaping with a Python error.

Both compute on int units (see ``model``). Before any search, one pass
of ``price_terms`` checks the query and resolves each value domain's
balance key, starting units and rate; ``priced_balance_delta(terms,
balances)`` then prices a candidate's final balance map in units. The
last slot of a shape ``mev`` sizes applies to a ``_LastSlot`` stand-in:
its ``update`` moves balances by ``model.move_balances``, the function
``WorldState.update`` calls, and returns the moved map, so a last-slot
probe builds no ``WorldState``.
A candidate is its own tie-break key, ``(-value, length, ids, amounts)``:
value units negated, the step count, the action ids in order and each
step's amount units, -1 for a step that takes none. The smaller key is
the better candidate, so comparing two is one tuple comparison that
allocates nothing, and the key grows by one step where a step is added:
``_prepend`` in ``best_suffix`` and ``realize``, the walk's prefix in the
oracle. Inside one ``realize`` call every probe heads the same suffix of
ids, so probes rank by value and then amount, and only the winner
becomes a candidate. The oracle's grid is units. An answer's
``MevResult.value`` and its witness's ``(id, Amount)`` steps are built
once, from the winning candidate; a step with no amount is its action's
shared ``step`` tuple.

Everything here is a pure function over immutable values; the only
mutable machinery (a work counter, the search memo, the oracle's best
candidate) lives inside one call, so concurrent queries need no
coordination. The searches are plain functions and methods, and the
visitor the grid walk calls per sequence is a closure that does not
refer to itself, so a query leaves no reference cycle and its states are
freed when it returns.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from ._record import Record
from .actions import (
    Action,
    ActionSpaceSpec,
    SequenceStep,
    apply_action,
    apply_sequence,
    max_feasible_amount,
)
from .errors import ExplosionGuard, NoOpportunity, UnknownId, XdmevError
from .fixedpoint import Amount, div_half_even, mul_fraction_units
from .model import BalanceKey, PriceMatrix, WorldState, balance_of, move_balances
from .model import convert  # noqa: F401  re-exported; perfbench/tracing.py wraps engine.convert
from .venues import ConstantProductPool
from . import _kernels

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# rounds a golden-section search that ends on its own can need: the
# bracket shrinks by _INV_PHI a round, and 1e-12 of the range takes ~58
_GOLDEN_ROUNDS = 64

DEFAULT_MAX_SEQUENCE_LENGTH = 8
DEFAULT_CANDIDATE_CAP = 10_000_000


class MevQuery(Record):
    """What to maximize: who acts where, where value is measured, in what."""

    player: str
    action_domains: frozenset[str]
    value_domains: tuple[str, ...]
    base_domain: str
    base_asset: str
    prices: PriceMatrix
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH
    candidate_cap: int = DEFAULT_CANDIDATE_CAP


class MevResult(Record):
    """Best value and its witness; the final state is ``apply_sequence`` of the witness.

    ``explored`` counts the search's work: for ``mev``, nodes expanded
    (memo misses plus parametric shape evaluations); for ``mev_oracle``,
    1 for the empty sequence plus every grid application tried, failed
    ones included. Slotted, so a kept result carries no ``__dict__``.
    """

    __slots__ = ("value", "witness", "explored", "method")

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
        """Count one unit of work; raise ExplosionGuard instead when it would pass the cap."""
        if self.count >= self.cap:
            raise ExplosionGuard(f"search work exceeded the cap of {self.cap}")
        self.count += 1

    def check(self, work: int) -> None:
        """Raise ExplosionGuard when ``work`` more bumps would pass the cap."""
        if self.count + work > self.cap:
            raise ExplosionGuard(f"search work exceeded the cap of {self.cap}")


# (-value units, length, action ids, amount units with -1 for none)
_Candidate = tuple[int, int, tuple[str, ...], tuple[int, ...]]
_NO_STEPS: _Candidate = (0, 0, (), ())  # the empty sequence; a last slot extends it


def _prepend(neg_value: int, action_id: str, amount: int, suffix: _Candidate) -> _Candidate:
    """The candidate of value ``-neg_value`` whose steps are (``action_id``,
    ``amount``) followed by ``suffix``'s."""
    _, length, ids, amounts = suffix
    return (neg_value, length + 1, (action_id,) + ids, (amount,) + amounts)


def _merge(a: Optional[_Candidate], b: Optional[_Candidate]) -> Optional[_Candidate]:
    """The better of two candidates, ``a`` when they tie; None loses.
    Value desc, length asc, id list asc, amounts asc is the key's order."""
    if a is None:
        return b
    if b is None:
        return a
    return b if b < a else a


def _result(
    best: _Candidate, space: ActionSpaceSpec, player: str, explored: int, method: str
) -> MevResult:
    """The answer of a search: its value and witness steps become ``Amount``s
    here, once; a step with no amount is its action's ``step`` tuple."""
    neg_value, _, ids, amounts = best
    witness = tuple(
        space.lookup(player, action_id).step if units < 0
        else (action_id, Amount.from_units(units))
        for action_id, units in zip(ids, amounts)
    )
    return MevResult(Amount.from_units(-neg_value), witness, explored, method)


def price_terms(query: MevQuery, initial: WorldState) -> tuple[tuple, ...]:
    """The query's one check, which also resolves its pricing: per value
    domain, (balance key, starting units, rate into the base or None for
    the base). The first failure raises, in order: player, nonempty and
    distinct domains, action domains (sorted), base domain and asset, each
    value domain and its rate (``MissingRate``), then the length bound."""
    registry, prices, base = initial.registry, query.prices, query.base_asset
    registry.require_player(query.player)
    if not query.action_domains:
        raise UnknownId("action_domains must be nonempty")
    if not query.value_domains:
        raise UnknownId("value_domains must be nonempty")
    if len(set(query.value_domains)) != len(query.value_domains):
        raise UnknownId("value_domains must not repeat")
    registry.require_domains(query.action_domains)
    registry.require_domain(query.base_domain)
    registry.require_asset(base)
    terms = []
    for domain in query.value_domains:
        asset = registry.native_asset(domain)
        key = (domain, query.player, asset)
        rate = None if asset == base else prices.rate(asset, base)
        terms.append((key, initial.balances.get(key, 0), rate))
    if query.max_sequence_length < 0:
        raise XdmevError("max_sequence_length must be >= 0")
    return tuple(terms)


def priced_balance_delta(terms: tuple[tuple, ...], balances: dict[BalanceKey, int]) -> int:
    """Units of the sum over value domains of the native-asset delta priced
    into the base; ``terms`` is ``price_terms(query, initial)`` and
    ``balances`` a final balance map: a state's, or the one a last-slot
    probe moved.

    Each domain's delta is rounded half-even at the 18th digit on its own,
    as ``convert`` rounds it, and the rounded deltas sum exactly. The sum
    stays int units: searches compare it as is, and only an answer's value
    becomes an ``Amount``.
    """
    total = 0
    for key, start, rate in terms:
        delta = balances.get(key, 0) - start
        if delta and rate is not None:
            delta = mul_fraction_units(delta, rate)
        total += delta
    return total


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


def _too_deep() -> ExplosionGuard:
    """What a search raises instead of ``RecursionError``: its sequences nest
    one call per step, deeper than the interpreter allows."""
    return ExplosionGuard(
        f"search nesting exceeded the interpreter's recursion limit of {sys.getrecursionlimit()}"
    )


def _usable_actions(
    space: ActionSpaceSpec, player: str, domains: frozenset[str]
) -> tuple[Action, ...]:
    """The player's actions whose domains all lie in ``domains``."""
    return tuple(a for a in space.for_player(player) if a.domains <= domains)


# -- exhaustive search -------------------------------------------------------


def _golden_section(
    lo_u: int, hi_u: int, score: Callable[[int], Optional[int]], label: str
) -> None:
    """Probe integer amounts in ``[lo_u, hi_u]`` by golden-section on ``score``.

    Both ends are probed first; past two integers, float positions are
    rounded and clamped into the range until the bracket is at most
    ``max((hi - lo) * 1e-12, 1)``, or until the bracket, too narrow for
    floats to shrink, revisits a state. Its resolution is therefore
    ``max((hi - lo) * 1e-12, 1, ulp(float(hi)))``: from about 10**18 units
    on, one float ulp at ``hi`` can exceed the tolerance (131,072 units at
    10**21), and on a single-peaked score the best probe lies within that
    resolution of the peak (``tests/test_golden_section.py`` sweeps 660
    ranges), not within the tolerance. A None score (an invalid probe)
    ranks below every value. Each integer is scored once; the caller keeps its
    own best probe. A range past float range raises ``XdmevError`` naming
    ``label`` (what is being sized) after the two end probes.
    """
    scores: dict[int, Optional[int]] = {}

    def probe(x: float) -> Optional[int]:
        units = round(x)
        if units < lo_u:
            units = lo_u
        elif units > hi_u:
            units = hi_u
        if units in scores:
            return scores[units]
        value = scores[units] = score(units)
        return value

    probe(lo_u)
    probe(hi_u)
    if hi_u - lo_u <= 1:
        return
    try:
        lo_f, hi_f = float(lo_u), float(hi_u)
    except OverflowError:
        raise XdmevError(
            f"{label}: amount range reaches past {sys.float_info.max:.4g} units, "
            "too wide for golden-section sizing"
        ) from None
    tol = max((hi_f - lo_f) * 1e-12, 1.0)
    c = hi_f - (hi_f - lo_f) * _INV_PHI
    d = lo_f + (hi_f - lo_f) * _INV_PHI
    fc = probe(c)
    fd = probe(d)
    # the first _GOLDEN_ROUNDS rounds run unwatched; past them each round
    # first records its state (lo, hi, c, d). A bracket a float ulp wide
    # above ``tol`` can only cycle: the state fixes every later round and
    # both its probes are scored, so the first revisit ends the search
    # with every probe it would ever make
    rounds, seen = range(_GOLDEN_ROUNDS), set()
    while True:
        for _ in rounds:
            if not (hi_f - lo_f) > tol:
                return
            if fc is not None and (fd is None or fc > fd):
                hi_f, d, fd = d, c, fc
                c = hi_f - (hi_f - lo_f) * _INV_PHI
                fc = probe(c)
            else:
                lo_f, c, fc = c, d, fd
                d = lo_f + (hi_f - lo_f) * _INV_PHI
                fd = probe(d)
        state = (lo_f, hi_f, c, d)
        if state in seen:
            return
        seen.add(state)
        rounds = range(1)


class _LastSlot:
    """Stand-in for the state a shape's last slot applies to, as
    ``venues._QuoteState`` is for ``quote_swap``: the four fields the venues
    read, and an ``update`` that moves balances by ``move_balances``, the
    rule ``WorldState.update`` follows, and returns the moved balance map.
    No later slot reads the pools or the consumed ids, so they are dropped
    and no ``WorldState`` is built."""

    __slots__ = ("registry", "balances", "pools", "consumed")

    def __init__(self, state: WorldState):
        self.registry = state.registry
        self.balances = state.balances
        self.pools = state.pools
        self.consumed = state.consumed

    def update(self, debit=None, credit=None, pools=(), consumed=None) -> dict[BalanceKey, int]:
        return move_balances(self.balances, debit, credit) if debit or credit else self.balances


class _Search:
    """One ``mev`` call's search. Plain methods instead of recursive
    closures, so no reference cycle keeps the memo alive after the call:
    ``best_suffix`` solves discrete prefixes, ``best_shape`` enumerates the
    shapes a parametric action starts, ``realize`` sizes one shape. Each
    node and each probe of a shape's last slot is priced once, through
    ``priced_balance_delta``; a last slot builds no ``WorldState``."""

    __slots__ = ("terms", "query", "actions", "counter", "memo", "sized")

    def __init__(self, terms: tuple[tuple, ...], query: MevQuery, actions: tuple[Action, ...]):
        self.terms = terms
        self.query = query
        self.actions = actions
        self.counter = _Counter(query.candidate_cap)
        self.memo: dict[tuple[WorldState, frozenset[str]], _Candidate] = {}
        self.sized = False  # whether golden-section sized a parametric slot

    def best_suffix(self, current: WorldState, used: frozenset[str]) -> _Candidate:
        """Best continuation from a state reached by a discrete prefix of ``used``."""
        key = (current, used)
        best = self.memo.get(key)
        if best is not None:
            return best
        self.counter.bump()
        query = self.query
        best = (-priced_balance_delta(self.terms, current.balances), 0, (), ())
        if len(used) < query.max_sequence_length:
            for action in self.actions:
                if action.id in used:
                    continue
                if action.parametric:
                    best = _merge(best, self.best_shape(current, (action,), used | {action.id}))
                    continue
                try:
                    nxt = apply_action(current, query.player, action, None)
                except XdmevError:
                    continue
                suffix = self.best_suffix(nxt, used | {action.id})
                # a lower value loses the tie-break outright; build no candidate for it
                if suffix[0] <= best[0]:
                    best = _merge(best, _prepend(suffix[0], action.id, -1, suffix))
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
        of the shape, so the returned candidate is exactly replayable. The
        last slot applies to a ``_LastSlot`` stand-in for ``state``: its
        probes build no ``WorldState``, and each is priced once, outside
        the probe's ``try``, from the balance map it moved. No probe builds
        a candidate; the call builds one, for its best probe.
        """
        player, action, terms = self.query.player, shape[idx], self.terms
        last = idx == len(shape) - 1
        target = _LastSlot(state) if last else state
        # the best probe so far: its value (at first below every value),
        # amount units and the suffix after it
        best_value, best_units, best_rest = -math.inf, None, None

        def score(units: Optional[int]) -> Optional[int]:
            nonlocal best_value, best_units, best_rest
            try:
                nxt = apply_action(target, player, action, units)
            except XdmevError:
                return None
            if last:
                value, rest = priced_balance_delta(terms, nxt), _NO_STEPS
            else:
                rest = self.realize(shape, idx + 1, nxt)
                if rest is None:
                    return None
                value = -rest[0]
            # every probe heads the same ids and each amount is scored once,
            # so value desc, then this step's amount asc, is the whole
            # tie-break; the candidate is built once, for the winner
            if value >= best_value and (value > best_value or units < best_units):
                best_value, best_units, best_rest = value, units, rest
            return value

        if not action.parametric:
            score(None)
        else:
            lo_u = max(action.amount.lo.units, 1)
            hi_u = max_feasible_amount(state, player, action)
            if hi_u >= lo_u:
                self.sized = True
                _golden_section(lo_u, hi_u, score, f"action {action.id!r}")
        if best_rest is None:
            return None
        amount = -1 if best_units is None else best_units
        return _prepend(-best_value, action.id, amount, best_rest)


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
    and extended only while it stays valid. ``method`` is "golden-section"
    when golden-section sized at least one parametric slot, so the answer
    may be a heuristic, and "exhaustive" otherwise.
    """
    terms = price_terms(query, state)
    search = _Search(terms, query, _usable_actions(space, query.player, query.action_domains))
    try:
        best = search.best_suffix(state, frozenset())
    except RecursionError:
        raise _too_deep() from None
    method = "golden-section" if search.sized else "exhaustive"
    return _result(best, space, query.player, search.counter.count, method)


# -- independent oracle -------------------------------------------------------


def _grid_size(interval, points: int) -> int:
    """Length of ``grid_amounts(interval, points)``, computed without building it."""
    if points < 2:
        raise XdmevError("grid needs at least 2 points")
    return min(points, interval.hi.units - interval.lo.units + 1)


def grid_amounts(interval, points: int) -> tuple[int, ...]:
    """Evenly spaced amount units over [lo, hi], half-even to whole units,
    distinct: every unit in [lo, hi] with a point per unit or more, else
    ``points`` amounts."""
    lo, hi = interval.lo.units, interval.hi.units
    if _grid_size(interval, points) == hi - lo + 1:
        return tuple(range(lo, hi + 1))
    # point k is (lo * (steps - k) + hi * k) / steps; the numerator grows by hi - lo
    steps, span = points - 1, hi - lo
    numerator, grid = lo * steps, []
    for _ in range(points):
        grid.append(div_half_even(numerator, steps))
        numerator += span
    return tuple(grid)


def _grid_choices(
    actions: tuple[Action, ...], max_len: int, grid_points: int, counter: _Counter
) -> tuple[tuple[Action, tuple[Optional[int], ...]], ...]:
    """Each action paired with the amount units ``_grid_walk`` tries:
    ``grid_amounts`` for a parametric action, (None,) for a discrete one.

    ``grid_points < 2`` is refused first, whatever the actions and the
    length; ``max_len < 1`` has no choice to walk. The grids are built only
    after ``counter`` is checked to have room for every depth-1 application.
    """
    if grid_points < 2:
        raise XdmevError("grid needs at least 2 points")
    if max_len < 1:
        return ()
    counter.check(sum(_grid_size(a.amount, grid_points) if a.parametric else 1 for a in actions))
    return tuple(
        (action, grid_amounts(action.amount, grid_points) if action.parametric else (None,))
        for action in actions
    )


def _grid_walk(choices, current, ids, amounts, used, player, max_len, counter, visit) -> None:
    """Call ``visit(final, ids, amounts, action id, units)`` for every
    valid sequence that extends the prefix ``ids``, ``amounts`` (the ids
    ``used``, reaching ``current``) by one to ``max_len`` steps, depth
    first in action order, each before the sequences below it. The
    prefix's amounts are as in a candidate's key; ``units`` is the last
    step's, None for a step that takes none. Each application tried bumps
    ``counter`` once. The walk extends the prefix only when a level lies
    below it, the visitor only to keep it."""
    deeper = len(ids) + 1 < max_len
    bump = counter.bump
    for action, grid in choices:
        action_id = action.id
        if action_id in used:
            continue
        if deeper:
            below, ids_below = used | {action_id}, ids + (action_id,)
        for units in grid:
            bump()
            try:
                nxt = apply_action(current, player, action, units)
            except XdmevError:
                continue
            visit(nxt, ids, amounts, action_id, units)
            if deeper:
                _grid_walk(
                    choices, nxt, ids_below, amounts + (-1 if units is None else units,),
                    below, player, max_len, counter, visit,
                )


def mev_oracle(
    space: ActionSpaceSpec,
    state: WorldState,
    query: MevQuery,
    grid_points: int = 101,
) -> MevResult:
    """Brute-force reference: enumerate ordered subsets, amounts on a grid.

    ``_grid_walk`` visits every valid sequence; the visitor prices its
    final state with the query's ``price_terms`` and keeps the best
    candidate, building a sequence's candidate only when its value is at
    least the best so far. ``explored`` counts the empty sequence and
    every grid application tried. Deliberately shares no search machinery
    with ``mev``; agreement between the two is the engine's correctness
    check.
    """
    terms = price_terms(query, state)
    counter = _Counter(query.candidate_cap)
    max_len = query.max_sequence_length
    choices = _grid_choices(
        _usable_actions(space, query.player, query.action_domains), max_len, grid_points, counter
    )
    counter.bump()  # the empty sequence
    best, best_value = _NO_STEPS, 0

    def keep(final: WorldState, ids, amounts, action_id: str, units: Optional[int]) -> None:
        nonlocal best, best_value
        value = priced_balance_delta(terms, final.balances)
        # as in ``_Search.best_suffix``: a lower value cannot win the tie-break
        if value >= best_value:
            amount = -1 if units is None else units
            candidate = (-value, len(ids) + 1, ids + (action_id,), amounts + (amount,))
            if candidate < best:
                best, best_value = candidate, value

    try:
        _grid_walk(choices, state, (), (), frozenset(), query.player, max_len, counter, keep)
    except RecursionError:
        raise _too_deep() from None
    return _result(best, space, query.player, counter.count, "oracle")


def replay_witness(
    space: ActionSpaceSpec, state: WorldState, query: MevQuery, witness
) -> Amount:
    """Re-apply a witness and re-price it; must reproduce MevResult.value.
    An invalid query is refused before the replay, as ``mev`` refuses it."""
    terms = price_terms(query, state)
    final = apply_sequence(space, state, query.player, witness)
    return Amount.from_units(priced_balance_delta(terms, final.balances))


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
    state (empty sequence) is always included. ``_grid_walk`` visits each
    valid sequence and the visitor adds its final state; every application
    tried counts against ``candidate_cap``, the empty sequence does not.
    """
    if max_len < 0:
        raise XdmevError("max_len must be >= 0")
    state.registry.require_player(player)
    domains = state.registry.require_domains(domains)
    counter = _Counter(candidate_cap)
    choices = _grid_choices(_usable_actions(space, player, domains), max_len, grid_points, counter)
    seen = {state}
    try:
        _grid_walk(
            choices, state, (), (), frozenset(), player, max_len, counter,
            lambda final, *_: seen.add(final),
        )
    except RecursionError:
        raise _too_deep() from None
    return frozenset(seen)


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
        b_rx, b_ry = pool_b.reserve_x_units, pool_b.reserve_y_units
    elif (pool_b.asset_x, pool_b.asset_y) == (pool_a.asset_y, pool_a.asset_x):
        b_rx, b_ry = pool_b.reserve_y_units, pool_b.reserve_x_units
    else:
        raise XdmevError(
            f"pools {pool_a.id} and {pool_b.id} do not share an asset pair"
        )
    a_rx, a_ry = pool_a.reserve_x_units, pool_a.reserve_y_units

    # prices of X in Y, compared exactly by cross-multiplication
    lhs = a_ry * b_rx
    rhs = b_ry * a_rx
    if lhs == rhs:
        raise NoOpportunity(
            f"pools {pool_a.id} and {pool_b.id} quote the same marginal price"
        )
    cheap, dear = (a_rx, a_ry, pool_a.fee_bps, pool_a), (b_rx, b_ry, pool_b.fee_bps, pool_b)
    if lhs > rhs:
        cheap, dear = dear, cheap
    cheap_rx, cheap_ry, cheap_fee, buy_pool = cheap
    dear_rx, dear_ry, dear_fee, sell_pool = dear

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
        _golden_section(1, cheap_ry, score, f"pools {pool_a.id} and {pool_b.id}")

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
