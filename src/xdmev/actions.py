"""Action templates, availability, and sequence validation/application.

An action is a named one-shot state mapping owned by one domain (bridges
and cross-domain rebalances carry a domain pair). Sequences never repeat
an action id; pending transactions additionally mark the state's consumed
set. Amounts come in three modes: fixed, parametric over a closed
interval, or "all" (sweep the full input balance at execution time).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvalidAmount, SequenceStepError, UnknownId, XdmevError
from .fixedpoint import Amount
from .model import WorldState
from .venues import (
    BridgeSpec,
    ConstantProductPool,
    PendingTx,
    StylizedArbSpec,
    StylizedMidpointPool,
    X_TO_Y,
    apply_bridge,
    apply_pending_tx,
    apply_stylized_arb,
    apply_stylized_fill,
    apply_swap,
)

KIND_BRIDGE = "Bridge"
KIND_PENDING = "ExecutePendingTx"
KIND_ARB = "StylizedArb"
KIND_SWAP = "Swap"


@dataclass(frozen=True)
class AmountInterval:
    lo: Amount
    hi: Amount

    def __post_init__(self):
        if self.lo.units < 0 or self.hi <= self.lo:
            raise XdmevError(f"interval [{self.lo}, {self.hi}] must satisfy lo >= 0 < hi")


@dataclass(frozen=True)
class Action:
    """One declared action template.

    Exactly one payload group is populated, matching ``kind``:
    swap -> pool_id/direction, arb -> arb, bridge -> bridge, pending -> tx.
    ``amount``/``interval``/``sweep`` are mutually exclusive amount modes.
    """

    id: str
    kind: str
    domains: frozenset[str]
    pool_id: Optional[str] = None
    direction: Optional[str] = None
    amount: Optional[Amount] = None
    interval: Optional[AmountInterval] = None
    sweep: bool = False
    arb: Optional[StylizedArbSpec] = None
    bridge: Optional[BridgeSpec] = None
    tx: Optional[PendingTx] = None

    @property
    def parametric(self) -> bool:
        return self.interval is not None

    @cached_property
    def step(self) -> SequenceStep:
        """This action's witness step when it takes no amount, built once
        and shared by every result that contains it."""
        return (self.id, None)

    def sort_key(self) -> str:
        return self.id


class ActionSpaceSpec:
    """Per-player action templates with deterministic id ordering."""

    def __init__(self, actions_by_player: Mapping[str, Iterable[Action]]):
        self._by_player: dict[str, tuple[Action, ...]] = {}
        self._lookup: dict[tuple[str, str], Action] = {}
        for player, actions in actions_by_player.items():
            ordered = tuple(sorted(actions, key=Action.sort_key))
            self._by_player[player] = ordered
            for action in ordered:
                self._lookup[(player, action.id)] = action

    def players(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_player))

    def for_player(self, player: str) -> tuple[Action, ...]:
        try:
            return self._by_player[player]
        except KeyError:
            raise UnknownId(f"no action space declared for player {player!r}") from None

    def lookup(self, player: str, action_id: str) -> Action:
        try:
            return self._lookup[(player, action_id)]
        except KeyError:
            raise UnknownId(
                f"action {action_id!r} is not in player {player!r}'s space"
            ) from None


# -- single-action application ------------------------------------------------


def _input_units(state: WorldState, player: str, action: Action) -> Optional[int]:
    """Units the player holds of the asset a swap or bridge spends; None for other kinds."""
    if action.kind == KIND_SWAP:
        pool = state.pool(action.pool_id)
        asset = pool.asset_x if action.direction == X_TO_Y else pool.asset_y
        return state.balances.get((pool.domain, player, asset), 0)
    if action.kind == KIND_BRIDGE:
        bridge = action.bridge
        return state.balances.get((bridge.from_domain, player, bridge.from_asset), 0)
    return None


def resolve_amount(state: WorldState, player: str, action: Action) -> Optional[Amount]:
    """Concrete amount for non-parametric actions (None when kind takes none)."""
    if action.parametric:
        raise InvalidAmount(f"action {action.id!r} requires an explicit amount")
    if action.amount is not None:
        return action.amount
    if action.sweep:
        held = _input_units(state, player, action)
        if held is None:
            raise InvalidAmount(f"action {action.id!r}: sweep needs a swap or bridge")
        if held <= 0:
            raise InvalidAmount(f"action {action.id!r}: nothing to sweep")
        return Amount.from_units(held)
    return None


def apply_action(
    state: WorldState, player: str, action: Action, amount: Optional[Amount] = None
) -> WorldState:
    """Apply one action; ``amount`` is required iff the action is parametric."""
    interval = action.interval
    if interval is not None:
        if amount is None:
            raise InvalidAmount(f"action {action.id!r} requires an amount")
        units = amount.units
        if units < interval.lo.units or units > interval.hi.units:
            raise InvalidAmount(
                f"action {action.id!r}: amount {amount} outside "
                f"[{interval.lo}, {interval.hi}]"
            )
        if units <= 0:
            raise InvalidAmount(f"action {action.id!r}: amount must be positive")
    else:
        if amount is not None:
            raise InvalidAmount(f"action {action.id!r} takes no amount")
        amount = resolve_amount(state, player, action)

    if action.kind == KIND_PENDING:
        return apply_pending_tx(state, action.tx)
    if action.kind == KIND_ARB:
        return apply_stylized_arb(state, player, action.arb)
    if action.kind == KIND_BRIDGE:
        return apply_bridge(state, player, action.bridge, amount)
    if action.kind == KIND_SWAP:
        pool = state.pool(action.pool_id)
        if isinstance(pool, ConstantProductPool):
            return apply_swap(state, player, action.pool_id, action.direction, amount)
        if isinstance(pool, StylizedMidpointPool):
            return apply_stylized_fill(state, player, action.pool_id, action.direction, amount)
        raise UnknownId(f"action {action.id!r}: unsupported pool type")
    raise XdmevError(f"action {action.id!r}: unknown kind {action.kind!r}")


def max_feasible_amount(state: WorldState, player: str, action: Action) -> Amount:
    """Largest in-interval amount the player can afford right now."""
    hi = action.interval.hi
    held = _input_units(state, player, action)
    return hi if held is None or held >= hi.units else Amount.from_units(held)


# -- availability ----------------------------------------------------------------


def available_actions(
    space: ActionSpaceSpec,
    player: str,
    domains: frozenset[str] | set[str],
    state: WorldState,
) -> tuple[Action, ...]:
    """Templates that can be applied from ``state`` for some in-range amount.

    Soundness over cleverness: availability is decided by actually trying
    one application (the largest affordable amount for parametric actions),
    so every returned action extends to a valid single-action sequence.
    """
    state.registry.require_player(player)
    domains = frozenset(state.registry.require_domain(d) for d in domains)
    out = []
    for action in space.for_player(player):
        if not action.domains <= domains:
            continue
        if _single_application_works(state, player, action):
            out.append(action)
    return tuple(out)


def _single_application_works(state: WorldState, player: str, action: Action) -> bool:
    try:
        if action.parametric:
            trial = max_feasible_amount(state, player, action)
            if trial < action.interval.lo or trial.units <= 0:
                return False
            apply_action(state, player, action, trial)
        else:
            apply_action(state, player, action, None)
    except XdmevError:
        return False
    return True


# -- sequences ----------------------------------------------------------------

SequenceStep = tuple[str, Optional[Amount]]


@dataclass(frozen=True)
class SequenceViolation:
    index: int
    action_id: str
    reason: str


def validate_sequence(
    space: ActionSpaceSpec,
    player: str,
    domains: frozenset[str] | set[str],
    state: WorldState,
    seq: Sequence[SequenceStep],
) -> Optional[SequenceViolation]:
    """None when the sequence is valid, else the first violation."""
    state.registry.require_player(player)
    domains = frozenset(state.registry.require_domain(d) for d in domains)
    seen: set[str] = set()
    current = state
    for index, (action_id, amount) in enumerate(seq):
        if action_id in seen:
            return SequenceViolation(index, action_id, "action id repeated")
        seen.add(action_id)
        try:
            action = space.lookup(player, action_id)
        except UnknownId as exc:
            return SequenceViolation(index, action_id, str(exc))
        if not action.domains <= domains:
            missing = ", ".join(sorted(action.domains - domains))
            return SequenceViolation(
                index, action_id, f"requires domains outside the active set: {missing}"
            )
        try:
            current = apply_action(current, player, action, amount)
        except XdmevError as exc:
            return SequenceViolation(index, action_id, str(exc))
    return None


def apply_sequence(
    space: ActionSpaceSpec,
    state: WorldState,
    player: str,
    seq: Sequence[SequenceStep],
) -> WorldState:
    """Left-to-right fold; the first failing action raises with its index."""
    seen: set[str] = set()
    current = state
    for index, (action_id, amount) in enumerate(seq):
        action = space.lookup(player, action_id)
        if action_id in seen:
            raise SequenceStepError(index, action_id, InvalidAmount("action id repeated"))
        seen.add(action_id)
        try:
            current = apply_action(current, player, action, amount)
        except XdmevError as exc:
            raise SequenceStepError(index, action_id, exc) from exc
    return current
