"""Action templates, availability, and sequence validation/application.

An action is a named one-shot state mapping owned by one domain (bridges
and cross-domain rebalances carry a domain pair). Sequences never repeat
an action id; pending transactions additionally mark the state's consumed
set. Amounts come in three modes: fixed, parametric over a closed
interval, or "all" (sweep the full input balance at execution time).
Below a sequence step ``(id, Amount)``, amounts are int units (see ``model``).
``apply_action`` takes one pass: a swap reads its pool's spec from the
registry once, sweeps the balance that spec names, and gives the venue the spec.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ._record import Record
from .errors import InvalidAmount, SequenceStepError, UnknownId, XdmevError
from .fixedpoint import Amount, format_units
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


class AmountInterval(Record):
    lo: Amount
    hi: Amount

    def __post_init__(self):
        if self.lo.units < 0 or self.hi <= self.lo:
            raise XdmevError(f"interval [{self.lo}, {self.hi}] must satisfy lo >= 0 < hi")


class Action(Record):
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

    def __post_init__(self):
        # ``step``: this action's witness step when it takes no amount, built
        # once and shared by every result that contains it. It derives from
        # ``id``, so equal actions have equal steps.
        object.__setattr__(self, "step", (self.id, None))

    @property
    def parametric(self) -> bool:
        return self.interval is not None

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
        pool = state.registry.pool(action.pool_id)
        asset = pool.asset_x if action.direction == X_TO_Y else pool.asset_y
        return state.balances.get((pool.domain, player, asset), 0)
    if action.kind == KIND_BRIDGE:
        bridge = action.bridge
        return state.balances.get((bridge.from_domain, player, bridge.from_asset), 0)
    return None


def resolve_amount(state: WorldState, player: str, action: Action) -> Optional[int]:
    """Concrete amount units for non-parametric actions (None when kind takes none)."""
    if action.parametric:
        raise InvalidAmount(f"action {action.id!r} requires an explicit amount")
    if action.amount is not None:
        return action.amount.units
    if action.sweep:
        held = _input_units(state, player, action)
        if held is None:
            raise InvalidAmount(f"action {action.id!r}: sweep needs a swap or bridge")
        if held <= 0:
            raise InvalidAmount(f"action {action.id!r}: nothing to sweep")
        return held
    return None


def apply_action(
    state: WorldState, player: str, action: Action, amount: Optional[int] = None
) -> WorldState:
    """Apply one action; ``amount`` (units) is required iff the action is parametric."""
    interval = action.interval
    if interval is not None:
        if amount is None:
            raise InvalidAmount(f"action {action.id!r} requires an amount")
        if amount < interval.lo.units or amount > interval.hi.units:
            raise InvalidAmount(
                f"action {action.id!r}: amount {format_units(amount)} outside "
                f"[{interval.lo}, {interval.hi}]"
            )
        if amount <= 0:
            raise InvalidAmount(f"action {action.id!r}: amount must be positive")
    elif amount is not None:
        raise InvalidAmount(f"action {action.id!r} takes no amount")
    elif action.amount is not None:
        amount = action.amount.units

    kind = action.kind
    if kind == KIND_SWAP:
        pool_id, direction = action.pool_id, action.direction
        spec = state.registry.pool(pool_id)
        if amount is None and action.sweep:
            asset = spec.asset_x if direction == X_TO_Y else spec.asset_y
            amount = state.balances.get((spec.domain, player, asset), 0)
            if amount <= 0:
                raise InvalidAmount(f"action {action.id!r}: nothing to sweep")
        if spec.__class__ is ConstantProductPool:
            return apply_swap(state, player, pool_id, direction, amount, None, spec)
        if spec.__class__ is StylizedMidpointPool:
            return apply_stylized_fill(state, player, pool_id, direction, amount, spec)
        raise UnknownId(f"action {action.id!r}: unsupported pool type")
    if amount is None and action.sweep:
        amount = resolve_amount(state, player, action)
    if kind == KIND_PENDING:
        return apply_pending_tx(state, action.tx)
    if kind == KIND_ARB:
        return apply_stylized_arb(state, player, action.arb)
    if kind == KIND_BRIDGE:
        return apply_bridge(state, player, action.bridge, amount)
    raise XdmevError(f"action {action.id!r}: unknown kind {action.kind!r}")


def max_feasible_amount(state: WorldState, player: str, action: Action) -> int:
    """Units of the largest in-interval amount the player can afford right now."""
    hi = action.interval.hi.units
    held = _input_units(state, player, action)
    return hi if held is None or held >= hi else held


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
        trial = max_feasible_amount(state, player, action) if action.parametric else None
        # ``apply_action`` rejects a trial below the interval or not positive
        apply_action(state, player, action, trial)
    except XdmevError:
        return False
    return True


# -- sequences ----------------------------------------------------------------

SequenceStep = tuple[str, Optional[Amount]]


class SequenceViolation(Record):
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
    """None when the sequence is valid, else ``apply_sequence``'s failing step."""
    state.registry.require_player(player)
    domains = frozenset(state.registry.require_domain(d) for d in domains)
    try:
        apply_sequence(space, state, player, seq, domains)
    except SequenceStepError as exc:
        return SequenceViolation(exc.index, exc.action_id, str(exc.cause))
    return None


def apply_sequence(
    space: ActionSpaceSpec,
    state: WorldState,
    player: str,
    seq: Sequence[SequenceStep],
    domains: Optional[frozenset[str]] = None,
) -> WorldState:
    """Left-to-right fold; each step is checked for a repeated id, looked up, checked
    against ``domains`` when given, then applied; a failure raises ``SequenceStepError``."""
    seen: set[str] = set()
    current = state
    for index, (action_id, amount) in enumerate(seq):
        try:
            if action_id in seen:
                raise InvalidAmount("action id repeated")
            seen.add(action_id)
            action = space.lookup(player, action_id)
            if domains is not None and not action.domains <= domains:
                missing = ", ".join(sorted(action.domains - domains))
                raise XdmevError(f"requires domains outside the active set: {missing}")
            units = None if amount is None else amount.units
            current = apply_action(current, player, action, units)
        except XdmevError as exc:
            raise SequenceStepError(index, action_id, exc) from exc
    return current
