"""World state, identifiers, players, and the cross-domain pricing function.

The world is monolithic: one balance map keyed by (domain, player, asset)
covers every domain, and pool states live beside it. A pool is split in
two: its record as declared (ids, assets, fee) is a spec in the scenario's
``Registry``, and the state holds only what swaps move, as ints (a
constant-product pool's two reserves, a stylized pool's price units).
Only the pool classes in ``venues`` convert between the two;
``WorldState.pool`` joins them back into a record at the edge.

Amounts at the edge only: every quantity a query computes or changes is
int units (``Amount.units``), the engine's priced deltas, search
candidates, grid amounts and steps included; an ``Amount`` is built only
where a value enters from a document or leaves the state layer (loading,
``balance()``, ``pool()``, rendering, and an answer's
``MevResult.value`` and witness amounts, built once per answer). Error
messages format units with ``format_units``. ``WorldState`` is a value —
applying anything yields a new state through the one primitive
``WorldState.update``, prior states stay intact, and states are hashable
so reachable-state sets and the search memo deduplicate naturally. A
state's identity is its registry and its three maps, compared directly;
its hash is computed from the maps on first use and cached.
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
    XdmevError,
)
from .fixedpoint import ZERO, Amount, format_units

ID_RE = re.compile(r"[A-Za-z0-9_.-]{1,64}\Z")


class Registry(Record):
    """Declared identifier sets and pool specs of a scenario; shared by all
    of its states. A spec is a pool's record as declared, starting reserves
    or price included, so equal registries also start their pools alike."""

    native_assets: Mapping[str, str]  # domain id -> asset id
    players: frozenset[str]
    assets: frozenset[str]
    pools: Mapping[str, object]  # pool id -> pool record as declared

    def require_domain(self, domain: str) -> str:
        if domain not in self.native_assets:
            raise UnknownId(f"unknown domain {domain!r}")
        return domain

    def require_domains(self, domains) -> frozenset[str]:
        """``domains`` as a frozenset, each checked in sorted order (a non-string
        id after the strings) so an error names the same id under any hash seed."""
        domains = frozenset(domains)
        for domain in sorted(domains, key=lambda d: (d.__class__ is not str, str(d))):
            self.require_domain(domain)
        return domains

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

    def pool(self, pool_id: str):
        """The declared record of a pool (its spec)."""
        try:
            return self.pools[pool_id]
        except KeyError:
            raise UnknownPool(f"unknown pool {pool_id!r}") from None


BalanceKey = tuple[str, str, str]  # (domain, player, asset)


class _Overdraft:
    """The message of a debit past the balance, formatted when read: the
    searches raise and drop most overdrafts unread. ``str`` and ``repr``
    read as the formatted text itself, so the exception carrying it reads
    as one raised with that text."""

    __slots__ = ("key", "held", "needed")

    def __init__(self, key: BalanceKey, held: int, needed: int):
        self.key = key
        self.held = held
        self.needed = needed

    def __str__(self) -> str:
        domain, player, asset = self.key
        return (
            f"{player} holds {format_units(self.held)} {asset} on {domain}, "
            f"needs {format_units(self.needed)}"
        )

    def __repr__(self) -> str:
        return repr(str(self))


def move_balances(
    balances: dict[BalanceKey, int],
    debit: Optional[tuple[BalanceKey, int]],
    credit: Optional[tuple[BalanceKey, int]],
) -> dict[BalanceKey, int]:
    """A copy of ``balances`` with ``debit`` taken, then ``credit`` given;
    the one rule by which balances move.

    ``debit`` and ``credit`` are ``(key, units)`` or None. A negative amount
    or a debit past the balance raises ``InsufficientBalance``, the debit
    checked first (an overdraft's message is formatted when read); a zero
    amount moves nothing, and a balance that reaches zero is dropped.
    ``balances`` itself is never written.
    """
    balances = balances.copy()
    if debit is not None:
        key, units = debit
        if units < 0:
            raise InsufficientBalance(f"cannot debit negative amount {format_units(units)}")
        held = balances.get(key, 0)
        if held > units:
            balances[key] = held - units
        elif held < units:
            raise InsufficientBalance(_Overdraft(key, held, units))
        elif units:  # a zero debit of an absent key moves nothing
            del balances[key]
    if credit is not None:
        key, units = credit
        if units < 0:
            raise InsufficientBalance(f"cannot credit negative amount {format_units(units)}")
        units += balances.get(key, 0)
        if units:  # held and credited are never negative
            balances[key] = units
    return balances


class WorldState:
    """Immutable snapshot of balances, pool states, and consumed actions.

    ``balances`` maps (domain, player, asset) to positive int units; zero
    balances are never stored, so states that differ only by explicit
    zeros compare equal. ``pools`` maps each pool id to its state value
    (see the module docstring); the static fields live in ``registry``. A
    state owns the dicts it is built from: the constructor neither copies
    nor filters them, so a caller hands over maps it will not change
    again, with only positive balances in them. All updaters return fresh states.

    Two states are equal when their registries and their ``balances``,
    ``pools`` and ``consumed`` are equal, in any insertion order. The hash
    covers those three, not the registry, and is cached on first use.
    """

    __slots__ = ("registry", "balances", "pools", "consumed", "_hash")

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
        self._hash = None

    # -- reads ---------------------------------------------------------

    def balance(self, domain: str, player: str, asset: str) -> Amount:
        units = self.balances.get((domain, player, asset))
        return ZERO if units is None else Amount.from_units(units)

    def pool(self, pool_id: str):
        """The pool's record: its spec carrying this state's value."""
        return self.registry.pool(pool_id).at(self.pools[pool_id])

    # -- functional updates ---------------------------------------------

    def update(
        self,
        debit: Optional[tuple[BalanceKey, int]] = None,
        credit: Optional[tuple[BalanceKey, int]] = None,
        pools: Sequence[tuple[str, object]] = (),
        consumed: Optional[str] = None,
    ) -> "WorldState":
        """One new state: ``debit`` taken, then ``credit`` given (both by
        ``move_balances``), then ``pools`` (id, state value) replaced, then
        ``consumed`` marked executed. Nothing is built when a check fails.
        Each changed map is copied once, and the new state owns the copy; an
        unchanged map is shared with this state.
        """
        balances = self.balances
        if debit or credit:
            balances = move_balances(balances, debit, credit)
        if pools:
            replaced, pools = pools, self.pools.copy()
            for pool_id, value in replaced:
                pools[pool_id] = value
        else:
            pools = self.pools
        consumed = self.consumed if consumed is None else self.consumed | {consumed}
        return WorldState(self.registry, balances, pools, consumed)

    # Single-step forms of ``update``, kept as named entry points (the
    # benchmark's tracer wraps them by name). Each builds one state
    # through ``update``.

    def credit(self, domain: str, player: str, asset: str, amount: Amount) -> "WorldState":
        """``update`` with one credit of ``amount`` (converted to units)."""
        return self.update(credit=((domain, player, asset), amount.units))

    def debit(self, domain: str, player: str, asset: str, amount: Amount) -> "WorldState":
        """``update`` with one debit of ``amount`` (converted to units)."""
        return self.update(((domain, player, asset), amount.units))

    def with_pool(self, pool_id: str, pool) -> "WorldState":
        """``update`` giving one pool the state of ``pool``: its spec, moved."""
        spec = self.registry.pool(pool_id)
        if type(pool) is not type(spec) or spec.at(pool.state()) != pool:
            raise XdmevError(f"pool {pool_id}: record does not match its declared spec")
        return self.update(pools=((pool_id, pool.state()),))

    def consume(self, action_id: str) -> "WorldState":
        """``update`` marking one action executed."""
        return self.update(consumed=action_id)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # the pools' static fields live in the registry (see ``Registry``), so
        # equal states need equal registries; the hash leaves them out
        if not isinstance(other, WorldState):
            return False
        registry = other.registry
        return (
            (self.registry is registry or self.registry == registry)
            and self.balances == other.balances
            and self.pools == other.pools
            and self.consumed == other.consumed
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (frozenset(self.balances.items()), frozenset(self.pools.items()), self.consumed)
            )
        return self._hash

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
