"""Action templates and sequence validation/application.

An action is a named one-shot state mapping owned by one domain (bridges
and cross-domain rebalances carry a domain pair). It acts on one
``target``, the record the loader resolved: a pool spec (the very object
in ``Registry.pools``) for a swap, a ``BridgeSpec``, a ``StylizedArbSpec``
or a ``PendingTx``; an arb's and an effect's pools are linked specs too.
Sequences never repeat an action id; pending transactions additionally
mark the state's consumed set. Its one ``amount`` mode is a fixed
``Amount``, an ``AmountInterval`` (parametric) or "all" (sweep the full
input balance at execution time); an arb or a pending tx takes none.
Below a sequence step ``(id, Amount)``, amounts are int units (see
``model``). ``apply_action`` takes one pass: it resolves the amount, then
dispatches once on the target's class and hands the target to its venue;
no venue reads a ``Registry.pools`` entry. Whether an action can run is
decided by running it: a search uses the actions whose domains the query
allows (``engine._usable_actions``), sizes a parametric one up to
``max_feasible_amount`` and drops an application that raises.
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
ACTION_KINDS = (KIND_BRIDGE, KIND_PENDING, KIND_ARB, KIND_SWAP)


class AmountInterval(Record):
    lo: Amount
    hi: Amount

    def __post_init__(self):
        if self.lo.units < 0 or self.hi <= self.lo:
            raise XdmevError(f"interval [{self.lo}, {self.hi}] must satisfy lo >= 0 < hi")


class Action(Record):
    """One declared action template: ``target`` is what it acts on, ``direction``
    a swap's (else None), ``amount`` its one amount mode (None for an arb or a
    pending tx). ``step`` and ``parametric`` derive from the fields, once, at
    construction."""

    id: str
    kind: str
    domains: frozenset[str]
    target: object  # a pool spec, BridgeSpec, StylizedArbSpec or PendingTx
    direction: Optional[str] = None
    amount: Amount | AmountInterval | str | None = None

    def __post_init__(self):
        # ``step``: this action's witness step when it takes no amount, built
        # once and shared by every result that contains it; ``parametric``:
        # whether ``amount`` is an interval. Each derives from a field, so
        # equal actions agree on both.
        object.__setattr__(self, "step", (self.id, None))
        object.__setattr__(self, "parametric", self.amount.__class__ is AmountInterval)

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
    """Units the player holds of the asset a swap or bridge spends; None for other targets."""
    target = action.target
    cls = target.__class__
    if cls is ConstantProductPool or cls is StylizedMidpointPool:
        asset = target.asset_x if action.direction == X_TO_Y else target.asset_y
        return state.balances.get((target.domain, player, asset), 0)
    if cls is BridgeSpec:
        return state.balances.get((target.from_domain, player, target.from_asset), 0)
    return None


def resolve_amount(state: WorldState, player: str, action: Action) -> Optional[int]:
    """Concrete amount units for non-parametric actions (None when the action takes none)."""
    mode = action.amount
    if mode.__class__ is Amount:
        return mode.units
    if mode is None:
        return None
    if mode.__class__ is AmountInterval:
        raise InvalidAmount(f"action {action.id!r} requires an explicit amount")
    held = _input_units(state, player, action)
    if held is None:
        raise InvalidAmount(f"action {action.id!r}: sweep needs a swap or bridge")
    if held <= 0:
        raise InvalidAmount(f"action {action.id!r}: nothing to sweep")
    return held


def apply_action(
    state: WorldState, player: str, action: Action, amount: Optional[int] = None
) -> WorldState:
    """Apply one action; ``amount`` (units) is required iff the action is parametric."""
    mode = action.amount
    if mode.__class__ is AmountInterval:
        if amount is None:
            raise InvalidAmount(f"action {action.id!r} requires an amount")
        if amount < mode.lo.units or amount > mode.hi.units:
            raise InvalidAmount(
                f"action {action.id!r}: amount {format_units(amount)} outside "
                f"[{mode.lo}, {mode.hi}]"
            )
        if amount <= 0:
            raise InvalidAmount(f"action {action.id!r}: amount must be positive")
    elif amount is not None:
        raise InvalidAmount(f"action {action.id!r} takes no amount")
    elif mode is not None:
        amount = resolve_amount(state, player, action)

    target = action.target
    cls = target.__class__
    if cls is ConstantProductPool:
        return apply_swap(state, player, target, action.direction, amount)
    if cls is StylizedMidpointPool:
        return apply_stylized_fill(state, player, target, action.direction, amount)
    if cls is BridgeSpec:
        return apply_bridge(state, player, target, amount)
    if cls is PendingTx:
        return apply_pending_tx(state, target)
    if cls is StylizedArbSpec:
        return apply_stylized_arb(state, player, target)
    raise XdmevError(f"action {action.id!r}: unsupported target {cls.__name__}")


def max_feasible_amount(state: WorldState, player: str, action: Action) -> int:
    """Units of the largest in-interval amount the player can afford right now."""
    hi = action.amount.hi.units
    held = _input_units(state, player, action)
    return hi if held is None or held >= hi else held


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
    domains = state.registry.require_domains(domains)
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
