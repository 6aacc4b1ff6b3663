"""World state, identifiers, players, and the cross-domain pricing function.

The world is monolithic: one balance map keyed by (domain, player, asset)
covers every domain, and pool states live beside it. ``WorldState`` is a
value — applying anything yields a new state, prior states stay intact,
and states are hashable so reachable-state sets deduplicate naturally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import (
    InsufficientBalance,
    MissingRate,
    UnknownId,
    UnknownPool,
    ValidationError,
)
from .fixedpoint import ZERO, Amount

ID_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

ACTION_KINDS = ("Bridge", "ExecutePendingTx", "StylizedArb", "Swap")


def check_id(value: str, field: str) -> str:
    if not isinstance(value, str) or ID_RE.match(value) is None:
        raise ValidationError(field, f"invalid identifier {value!r}")
    return value


@dataclass(frozen=True)
class Registry:
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


class WorldState:
    """Immutable snapshot of balances, pool states, and consumed actions.

    Zero balances are never stored, so states that differ only by
    explicit zeros compare equal. All updaters return fresh states.
    """

    __slots__ = ("registry", "balances", "pools", "consumed", "_key")

    def __init__(
        self,
        registry: Registry,
        balances: Mapping[BalanceKey, Amount],
        pools: Mapping[str, object],
        consumed: frozenset[str] = frozenset(),
    ):
        self.registry = registry
        self.balances = {k: v for k, v in balances.items() if v.units != 0}
        self.pools = dict(pools)
        self.consumed = consumed
        self._key = None

    # -- reads ---------------------------------------------------------

    def balance(self, domain: str, player: str, asset: str) -> Amount:
        return self.balances.get((domain, player, asset), ZERO)

    def pool(self, pool_id: str):
        try:
            return self.pools[pool_id]
        except KeyError:
            raise UnknownPool(f"unknown pool {pool_id!r}") from None

    # -- functional updates ---------------------------------------------

    def credit(self, domain: str, player: str, asset: str, amount: Amount) -> "WorldState":
        if amount.units < 0:
            raise InsufficientBalance(f"cannot credit negative amount {amount}")
        if amount.units == 0:
            return self
        balances = dict(self.balances)
        key = (domain, player, asset)
        balances[key] = self.balance(*key) + amount
        return self._replace(balances=balances)

    def debit(self, domain: str, player: str, asset: str, amount: Amount) -> "WorldState":
        if amount.units < 0:
            raise InsufficientBalance(f"cannot debit negative amount {amount}")
        if amount.units == 0:
            return self
        key = (domain, player, asset)
        held = self.balance(*key)
        if held < amount:
            raise InsufficientBalance(
                f"{player} holds {held} {asset} on {domain}, needs {amount}"
            )
        balances = dict(self.balances)
        remainder = held - amount
        if remainder.units == 0:
            del balances[key]
        else:
            balances[key] = remainder
        return self._replace(balances=balances)

    def with_pool(self, pool_id: str, pool) -> "WorldState":
        pools = dict(self.pools)
        pools[pool_id] = pool
        return WorldState(self.registry, self.balances, pools, self.consumed)

    def consume(self, action_id: str) -> "WorldState":
        return WorldState(
            self.registry, self.balances, self.pools, self.consumed | {action_id}
        )

    def _replace(self, balances) -> "WorldState":
        return WorldState(self.registry, balances, self.pools, self.consumed)

    # -- value semantics -------------------------------------------------

    def _canonical_key(self):
        if self._key is None:
            self._key = (
                tuple(sorted((k, v.units) for k, v in self.balances.items())),
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


def convert(prices: PriceMatrix, src: str, dst: str, amount: Amount) -> Amount:
    """Amount times the declared rate, rounded half-even at the 18th digit."""
    if src == dst:
        return amount
    return amount.mul_fraction(prices.rate(src, dst))
