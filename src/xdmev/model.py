"""World state, identifiers, players, and the cross-domain pricing function.

The world is monolithic: one balance map keyed by (domain, player, asset)
covers every domain, and pool states live beside it. Amounts at the edge
only: every quantity a query computes or changes is int units
(``Amount.units``), the engine's priced deltas, search candidates, grid
amounts and steps included; an ``Amount`` is built only where a value
enters from a document or leaves the state layer (loading, ``quote_swap``,
``balance()``, rendering, and an answer's ``MevResult.value`` and witness
amounts, built once per answer). Error messages format units with
``format_units``. ``WorldState`` is a value — applying anything yields a
new state, prior states stay intact, and states are hashable so
reachable-state sets deduplicate naturally.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from ._record import Record
from .errors import (
    InsufficientBalance,
    MissingRate,
    UnknownId,
    UnknownPool,
    ValidationError,
)
from .fixedpoint import ZERO, Amount, format_units

ID_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

ACTION_KINDS = ("Bridge", "ExecutePendingTx", "StylizedArb", "Swap")


def check_id(value: str, field: str) -> str:
    if not isinstance(value, str) or ID_RE.match(value) is None:
        raise ValidationError(field, f"invalid identifier {value!r}")
    return value


class Registry(Record):
    """Declared identifier sets of a scenario; shared by all of its states."""

    native_assets: Mapping[str, str]  # domain id -> asset id
    players: frozenset[str]
    assets: frozenset[str]
    pool_ids: frozenset[str]

    def require_domain(self, domain: str) -> str:
        if domain not in self.native_assets:
            raise UnknownId(f"unknown domain {domain!r}")
        return domain

    def require_player(self, player: str) -> str:
        if player not in self.players:
            raise UnknownId(f"unknown player {player!r}")
        return player

    def require_asset(self, asset: str) -> str:
        if asset not in self.assets:
            raise UnknownId(f"unknown asset {asset!r}")
        return asset

    def native_asset(self, domain: str) -> str:
        self.require_domain(domain)
        return self.native_assets[domain]


BalanceKey = tuple[str, str, str]  # (domain, player, asset)

DEBIT = -1
CREDIT = 1
BalanceMove = tuple[int, str, str, str, int]  # (DEBIT or CREDIT, domain, player, asset, units)


class WorldState:
    """Immutable snapshot of balances, pool states, and consumed actions.

    ``balances`` maps (domain, player, asset) to nonzero int units; zero
    balances are never stored, so states that differ only by explicit
    zeros compare equal. A state owns the dicts it is built from: the
    constructor neither copies nor filters them, so a caller hands over
    maps it will not change again, with no zero balance in them. All
    updaters return fresh states.
    """

    __slots__ = ("registry", "balances", "pools", "consumed", "_key")

    def __init__(
        self,
        registry: Registry,
        balances: dict[BalanceKey, int],
        pools: dict[str, object],
        consumed: frozenset[str] = frozenset(),
    ):
        self.registry = registry
        self.balances = balances
        self.pools = pools
        self.consumed = consumed
        self._key = None

    # -- reads ---------------------------------------------------------

    def balance(self, domain: str, player: str, asset: str) -> Amount:
        units = self.balances.get((domain, player, asset))
        return ZERO if units is None else Amount.from_units(units)

    def pool(self, pool_id: str):
        try:
            return self.pools[pool_id]
        except KeyError:
            raise UnknownPool(f"unknown pool {pool_id!r}") from None

    # -- functional updates ---------------------------------------------

    def update(
        self,
        moves: Sequence[BalanceMove] = (),
        pools: Sequence[tuple[str, object]] = (),
        consumed: Optional[str] = None,
    ) -> "WorldState":
        """One new state: ``moves`` applied in order, then ``pools``
        replaced, then ``consumed`` marked executed.

        A move is ``(DEBIT or CREDIT, domain, player, asset, units)``. A
        negative amount or a debit past the balance raises
        ``InsufficientBalance``, checked in move order; a zero amount moves
        nothing, and a balance that reaches zero is dropped. Nothing is
        built when a check fails. Each changed map is copied once, and the
        new state owns the copy; an unchanged map is shared with this state.
        """
        balances = self.balances
        if moves:
            balances = dict(balances)
            for sign, domain, player, asset, units in moves:
                if units < 0:
                    verb = "debit" if sign == DEBIT else "credit"
                    raise InsufficientBalance(
                        f"cannot {verb} negative amount {format_units(units)}"
                    )
                if units == 0:
                    continue
                key = (domain, player, asset)
                held = balances.get(key, 0)
                if sign == DEBIT:
                    if held < units:
                        raise InsufficientBalance(
                            f"{player} holds {format_units(held)} {asset} on {domain}, "
                            f"needs {format_units(units)}"
                        )
                    units = -units
                units += held
                if units:
                    balances[key] = units
                else:
                    del balances[key]
        if pools:
            replaced, pools = pools, dict(self.pools)
            pools.update(replaced)
        else:
            pools = self.pools
        consumed = self.consumed if consumed is None else self.consumed | {consumed}
        return WorldState(self.registry, balances, pools, consumed)

    # Single-step forms of ``update``, kept as named entry points (the
    # benchmark's tracer wraps them by name). Each converts its ``Amount``
    # argument to units and builds one state through ``update``.

    def credit(self, domain: str, player: str, asset: str, amount: Amount) -> "WorldState":
        """``update`` with one credit of ``amount`` (converted to units)."""
        return self.update(((CREDIT, domain, player, asset, amount.units),))

    def debit(self, domain: str, player: str, asset: str, amount: Amount) -> "WorldState":
        """``update`` with one debit of ``amount`` (converted to units)."""
        return self.update(((DEBIT, domain, player, asset, amount.units),))

    def with_pool(self, pool_id: str, pool) -> "WorldState":
        """``update`` replacing one pool."""
        return self.update(pools=((pool_id, pool),))

    def consume(self, action_id: str) -> "WorldState":
        """``update`` marking one action executed."""
        return self.update(consumed=action_id)

    # -- value semantics -------------------------------------------------

    def _canonical_key(self):
        if self._key is None:
            self._key = (
                tuple(sorted(self.balances.items())),
                tuple(sorted(self.pools.items(), key=lambda item: item[0])),
                tuple(sorted(self.consumed)),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WorldState) and self._canonical_key() == other._canonical_key()

    def __hash__(self) -> int:
        return hash(self._canonical_key())

    def __repr__(self) -> str:
        return (
            f"WorldState(balances={len(self.balances)}, pools={len(self.pools)}, "
            f"consumed={sorted(self.consumed)})"
        )


def balance_of(state: WorldState, domain: str, player: str, asset: str) -> Amount:
    """Stored balance, or zero when no entry exists. Ids must resolve."""
    reg = state.registry
    reg.require_domain(domain)
    reg.require_player(player)
    reg.require_asset(asset)
    return state.balance(domain, player, asset)


class PriceMatrix:
    """Pairwise conversion rates between assets, exact and reciprocal.

    The diagonal is structural (never stored, always 1) and declaring a
    pair implies its exact multiplicative inverse. Declaring both
    directions is allowed only when they are exact inverses.
    """

    __slots__ = ("_rates",)

    def __init__(self, rates: Mapping[tuple[str, str], Fraction] | None = None):
        self._rates: dict[tuple[str, str], Fraction] = {}
        if rates:
            for (src, dst), rate in rates.items():
                self.declare(src, dst, rate)

    def declare(self, src: str, dst: str, rate: Fraction) -> None:
        field = f"prices({src}->{dst})"
        if rate <= 0:
            raise ValidationError(field, f"rate must be positive, got {rate}")
        if src == dst:
            if rate != 1:
                raise ValidationError(field, "diagonal rates are structurally 1")
            return
        inverse = self._rates.get((dst, src))
        if inverse is not None and inverse * rate != 1:
            raise ValidationError(
                field,
                f"reciprocity violated for pair ({src}, {dst}): "
                f"rate {rate} is not the inverse of rate({dst}->{src}) = {inverse}",
            )
        existing = self._rates.get((src, dst))
        if existing is not None and existing != rate:
            raise ValidationError(field, f"conflicting rates {existing} and {rate}")
        self._rates[(src, dst)] = rate
        self._rates[(dst, src)] = 1 / rate

    def has_rate(self, src: str, dst: str) -> bool:
        return src == dst or (src, dst) in self._rates

    def rate(self, src: str, dst: str) -> Fraction:
        if src == dst:
            return Fraction(1)
        try:
            return self._rates[(src, dst)]
        except KeyError:
            raise MissingRate(f"no rate declared between {src!r} and {dst!r}") from None

    def entries(self) -> list[tuple[str, str, Fraction]]:
        return [(src, dst, rate) for (src, dst), rate in sorted(self._rates.items())]

    # Value semantics over the declared rates (both directions of each pair),
    # so queries over equal rates compare and hash equal. The hash reads the
    # rates when it is taken: declare nothing more into a matrix once hashed.

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._rates == other._rates
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._rates.items()))

    def __repr__(self) -> str:
        return f"PriceMatrix({dict(sorted(self._rates.items()))!r})"


def convert(prices: PriceMatrix, src: str, dst: str, amount: Amount) -> Amount:
    """Amount times the declared rate, rounded half-even at the 18th digit."""
    if src == dst:
        return amount
    return amount.mul_fraction(prices.rate(src, dst))
