"""Declarative scenario schema: loading, validation, canonical serialization.

Documents are JSON (UTF-8). Amounts are decimal strings, never numbers;
rationals are "num/den" strings. Canonical form sorts every collection by
its natural key, sorts object keys, indents two spaces, and ends with a
newline, so load -> serialize -> load is a byte-stable fixed point.
Validation is complete at load time: the engine never re-checks
cross-references.

The field tables (``_DOCUMENT`` and the tables it nests) are the one
statement of the schema: ``loads`` and ``serialize_scenario`` walk them, and
``docs/scenario_format.md`` renders its field lists from them. A rule that
spans fields or sections is the ``check`` of one table, stated once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional

from ._record import Record
from .actions import Action, ActionSpaceSpec, AmountInterval
from .actions import KIND_ARB, KIND_BRIDGE, KIND_PENDING, KIND_SWAP
from .engine import DEFAULT_MAX_SEQUENCE_LENGTH, MevQuery
from .errors import ParseError, ValidationError
from .fixedpoint import Amount, format_fraction, format_units, parse_fraction
from .model import ACTION_KINDS, ID_RE, PriceMatrix, Registry, WorldState
from .venues import DIRECTIONS, ArbLegEffect, BridgeSpec, ConstantProductPool, CpSwapEffect
from .venues import LegOpportunity, PendingTx, PricePushEffect, StylizedArbSpec
from .venues import StylizedMidpointPool, TransferEffect

SCHEMA_VERSION = 1


class DomainDecl(Record):
    id: str
    native_asset: str


class BalanceDecl(Record):
    domain: str
    asset: str
    amount: Amount


class PlayerDecl(Record):
    id: str
    balances: tuple[BalanceDecl, ...]
    capabilities: Mapping[str, frozenset[str]]


class Defaults(Record):
    player: str
    base_domain: str
    base_asset: str
    max_sequence_length: int
    alpha: Amount
    action_domains: tuple[str, ...]
    value_domains: tuple[str, ...]


class Scenario(Record, eq=False):
    """A fully validated scenario; immutable. Equality and hash are by
    identity. ``registry`` and ``space`` are derived at construction."""

    schema_version: int
    domains: tuple[DomainDecl, ...]
    assets: tuple[str, ...]
    players: tuple[PlayerDecl, ...]
    pools: tuple[object, ...]
    bridges: tuple[BridgeSpec, ...]
    mempool: tuple[PendingTx, ...]
    opportunities: tuple[LegOpportunity, ...]
    stylized_arbs: tuple[StylizedArbSpec, ...]
    player_actions: tuple[tuple[str, Action], ...]
    prices: PriceMatrix
    defaults: Defaults

    def __post_init__(self):
        registry = Registry(
            native_assets={d.id: d.native_asset for d in self.domains},
            players=frozenset(p.id for p in self.players),
            assets=frozenset(self.assets),
            pools={p.id: p for p in self.pools},
        )
        object.__setattr__(self, "registry", registry)
        by_player: dict[str, list[Action]] = {p.id: [] for p in self.players}
        for owner, action in self.player_actions:
            by_player[owner].append(action)
        for tx in self.mempool:
            for player in self.players:
                if KIND_PENDING in player.capabilities.get(tx.domain, frozenset()):
                    pending = Action(tx.id, KIND_PENDING, frozenset({tx.domain}), tx)
                    by_player[player.id].append(pending)
        object.__setattr__(self, "space", ActionSpaceSpec(by_player))

    def initial_state(self) -> WorldState:
        """A fresh state: declared balances summed per key as int units, zero sums dropped."""
        balances: dict[tuple[str, str, str], int] = {}
        for player in self.players:
            for bal in player.balances:
                key = (bal.domain, player.id, bal.asset)
                balances[key] = balances.get(key, 0) + bal.amount.units
        balances = {key: units for key, units in balances.items() if units}
        pools = {pool.id: pool.state() for pool in self.pools}
        return WorldState(self.registry, balances, pools)

    def default_query(self, player: Optional[str] = None, action_domains=None, value_domains=None,
                      base_domain: Optional[str] = None, base_asset: Optional[str] = None,
                      max_len: Optional[int] = None) -> MevQuery:
        d = self.defaults
        return MevQuery(
            player=d.player if player is None else player,
            action_domains=frozenset(
                d.action_domains if action_domains is None else action_domains
            ),
            value_domains=tuple(d.value_domains if value_domains is None else value_domains),
            base_domain=d.base_domain if base_domain is None else base_domain,
            base_asset=d.base_asset if base_asset is None else base_asset,
            prices=self.prices,
            max_sequence_length=d.max_sequence_length if max_len is None else max_len,
        )


# -- field kinds -------------------------------------------------------------------
# A kind is a tuple ``(loader, *arguments)``. ``loader(kind, value, path, name, ns,
# minimum)`` checks field (or list index) ``name`` of the object at ``path`` and
# returns what its record holds; ``ns`` maps namespaces to the ids declared so
# far. A minimum is 0, or a message: the value is above zero (a list nonempty).

REQUIRED = object()
_POOL_TYPE_NAMES = {ConstantProductPool: "constant-product", StylizedMidpointPool: "stylized"}


def _at(path: str, name) -> str:
    """The path of field or list index ``name`` inside ``path``; top-level fields are bare."""
    if name.__class__ is int:
        return f"{path}[{name}]"
    return name if path == "document" else f"{path}.{name}"


def _expected(what: str, value, path: str, name) -> ValidationError:
    """The error of a value of the wrong type, or of a required field that is absent."""
    if value is REQUIRED:
        return ValidationError(f"{path}.{name}", "missing required field")
    return ValidationError(_at(path, name), f"expected {what}, got {type(value).__name__}")


def _nullable(kind, value, path, name, ns, minimum):
    """The loader of a row whose default is None: a null counts as absent."""
    return None if value is None else kind[0](kind, value, path, name, ns, minimum)


def _ref(kind, value, path, name, ns, minimum):
    """``(_ref, namespace, link, cls)``: a declared id (of a ``cls`` pool), or its record."""
    _, what, link, cls = kind
    if value.__class__ is str and value in ns[what]:
        record = ns[what][value]
        if cls is None or record.__class__ is cls:
            return record if link else value
    if value.__class__ is not str:
        raise _expected("string", value, path, name)
    if cls is not None:
        raise ValidationError(_at(path, name), f"{value!r} is not a {_POOL_TYPE_NAMES[cls]} pool")
    raise ValidationError(_at(path, name), f"undeclared {what} {value!r}")


def _id(kind, value, path, name, ns, minimum):
    """``(_id, namespace)``: a well-formed identifier that is new in the namespace."""
    if value.__class__ is not str:
        raise _expected("string", value, path, name)
    if ID_RE.match(value) is None:
        raise ValidationError(_at(path, name), f"invalid identifier {value!r}")
    if value in ns[kind[1]]:
        raise ValidationError(_at(path, name), f"duplicate {kind[1]} {value!r}")
    ns[kind[1]][value] = None
    return value


def _string(kind, value, path, name, ns, minimum):
    """``(_string, choices, label)``: a string, one of ``choices`` when given."""
    if value.__class__ is not str:
        raise _expected("string", value, path, name)
    if kind[1] is not None and value not in kind[1]:
        raise ValidationError(_at(path, name), f"unknown {kind[2]} {value!r}")
    return value


def _number(kind, value, path, name, ns, minimum):
    """``(_number, parse, write)``: a string ``parse`` reads: an amount, its units, or a rate."""
    if value.__class__ is not str:
        raise _expected("string", value, path, name)
    try:
        number = kind[1](value)
    except ValueError as exc:
        raise ValidationError(_at(path, name), str(exc)) from None
    sign = number.units if number.__class__ is Amount else number
    if minimum.__class__ is str and sign <= 0:
        raise ValidationError(_at(path, name), minimum)
    if minimum == 0 and sign < 0:
        raise ValidationError(_at(path, name), f"amount {number} below minimum 0")
    return number


def _integer(kind, value, path, name, ns, minimum):
    """``(_integer, below, only)``: an integer, below ``below`` or equal to ``only``."""
    _, below, only = kind
    if value.__class__ is not int:
        raise _expected("integer", value, path, name)
    if only is not None and value != only:
        raise ValidationError(_at(path, name), f"unsupported version {value}")
    if below is not None and not minimum <= value < below:
        raise ValidationError(_at(path, name), f"{name} must lie in [{minimum}, {below})")
    if minimum is not None and value < minimum:
        raise ValidationError(_at(path, name), f"must be >= {minimum}")
    return value


def _list(kind, value, path, name, ns, minimum):
    """``(_list, item, sort, collect)``: a list of ``item``s, written sorted by the fields
    ``sort`` names (``()``: the items; None: unsorted), held as ``collect = (hold, items)``."""
    if value.__class__ is not list:
        raise _expected("list", value, path, name)
    where, item, items = _at(path, name), kind[1], []
    for i, entry in enumerate(value):
        items.append(item[0](item, entry, where, i, ns, None))
    if minimum is not None and not items:
        raise ValidationError(where, minimum)
    return tuple(items) if kind[3] is None else kind[3][0](items, where)


def _section(kind, value, path, name, ns, minimum):
    """``(_section, table)``: a nested object."""
    if value is REQUIRED:
        raise _expected("object", value, path, name)
    return _read(value, kind[1], _at(path, name), ns)


def _mode(kind, value, path, name, ns, minimum):
    """``(_mode,)``: an action amount, "all", {"fixed": amount above the minimum} or
    {"interval": [lo, hi]}, held as the ``Action``'s amount: "all", an ``Amount``
    or an ``AmountInterval``."""
    where, keys = _at(path, name), list(value) if value.__class__ is dict else None
    if value == "all":
        return value
    if keys == ["fixed"]:
        return _number(_AMOUNT, value["fixed"], where, "fixed", ns, minimum)
    if keys == ["interval"]:
        bounds, span = value["interval"], f"{where}.interval"
        if bounds.__class__ is not list:
            raise _expected("list", bounds, where, "interval")
        if len(bounds) != 2:
            raise ValidationError(span, "interval needs [lo, hi]")
        lo = _number(_AMOUNT, bounds[0], span, 0, ns, 0)
        hi = _number(_AMOUNT, bounds[1], span, 1, ns, None)
        if hi <= lo:
            raise ValidationError(f"{span}[1]", "hi must exceed lo")
        return AmountInterval(lo, hi)
    raise ValidationError(where, 'expected "all", {"fixed": ...} or {"interval": [lo, hi]}')


def _dump(kind, value):
    """The JSON of a record's ``value`` for a field of ``kind``; None omits the field."""
    code = kind[0]
    if code is _section:
        return _write(value, kind[1])
    if code is _list:
        _, item, sort, collect = kind
        out = [_dump(item, v) for v in (value if collect is None else collect[1](value))]
        if sort is not None:
            out.sort(key=(lambda obj: [obj[field] for field in sort]) if sort else None)
        return out
    if code is _ref:
        return value if value.__class__ is str else value.id
    if code is _number:
        return kind[2](value)
    if code is _mode:
        if value.__class__ is AmountInterval:
            return {"interval": [str(value.lo), str(value.hi)]}
        return {"fixed": str(value)} if value.__class__ is Amount else value
    return value


def _field(record, attr):
    """What a row's ``attr`` names: an attribute or a tuple index."""
    return getattr(record, attr) if attr.__class__ is str else record[attr]


class _Table:
    """One section or variant. A row ``(name, kind, default, minimum, attr)`` gives a
    field's name, kind, ``REQUIRED`` or else its default (None: a null counts as
    absent), minimum and record attribute; a short row is required, with no minimum,
    and maps to the attribute of its name. ``build(*values)`` makes the record (a
    tuple when None); ``check(record, path, ns)`` applies cross-field rules and may
    return the record to keep. ``pair`` names two fields that are strings before
    either resolves. With ``variants``, the field ``tag = (name, label, attr)``
    picks one, whose rows follow these; a string variant is the tag's error. The
    writer reads a row by ``get``, and the tag at ``attr`` or by the variant's ``build``."""

    __slots__ = ("rows", "fields", "build", "check", "pair", "tag", "variants", "names", "required",
                 "key", "get")

    def __init__(self, rows, build=None, check=None, pair=(), tag=None, variants=None,
                 get=_field):
        rows = [row + (REQUIRED, None, row[0])[len(row) - 2:] for row in rows]
        self.rows, self.build, self.check, self.pair = tuple(rows), build, check, pair
        self.tag, self.variants, self.get = tag, variants, get
        self.names = frozenset(row[0] for row in rows)
        self.fields = tuple((r[0], _nullable if r[2] is None else r[1][0]) + r[1:4] for r in rows)
        self.required = sum(row[2] is REQUIRED for row in rows)
        self.key = rows[0][1][1] if rows and rows[0][1][0] is _id else None
        for variant in (variants or {}).values():
            if variant.__class__ is _Table:
                variant.rows = self.rows + variant.rows
                variant.fields = self.fields + variant.fields
                variant.names = variant.names | self.names | {tag[0]}
                variant.required += self.required + 1


def _read(obj, table: _Table, path: str, ns: dict):
    """The record of the entry ``obj`` at ``path``."""
    if obj.__class__ is not dict:
        raise ValidationError(path, f"expected object, got {type(obj).__name__}")
    check, key, pair, get = table.check, table.key, table.pair, obj.get
    if table.variants is not None:
        name, label, _ = table.tag
        tag = _string(_STRING, get(name, REQUIRED), path, name, ns, None)
        table = table.variants.get(tag)
        if table.__class__ is not _Table:
            raise ValidationError(f"{path}.{name}", table or f"unknown {label} {tag!r}")
    for name in pair:  # both are strings before either resolves
        _string(_STRING, get(name, REQUIRED), path, name, ns, None)
    values = []
    append = values.append
    for name, load, kind, default, minimum in table.fields:
        append(load(kind, get(name, default), path, name, ns, minimum))
    # every required field is present, so only more fields can be unknown ones
    if len(obj) > table.required and not table.names.issuperset(obj):
        unknown, top = min(set(obj) - table.names), path == "document"
        raise ValidationError(_at(path, unknown), f"unknown {'top-level ' if top else ''}field")
    record = tuple(values) if table.build is None else table.build(*values)
    if check is not None:
        record = check(record, path, ns) or record
    if key is not None:
        ns[key][values[0]] = record
    return record


def _write(record, table: _Table) -> dict:
    """The canonical object of ``record``."""
    get, obj = table.get, {}
    if table.variants is not None:
        name, _, attr = table.tag
        tags = (tag for tag, v in table.variants.items() if record.__class__ is v.build)
        obj[name] = get(record, attr) if attr else next(tags)
        table = table.variants[obj[name]]
    for name, kind, _, _, attr in table.rows:
        value = _dump(kind, get(record, attr))
        if value is not None:
            obj[name] = value
    return obj


# -- cross-field rules ----------------------------------------------------------------


def _capabilities(entries: list, where: str) -> dict:
    out: dict[str, frozenset[str]] = {}
    for i, (domain, kinds) in enumerate(entries):
        if domain in out:
            raise ValidationError(f"{where}[{i}].domain", f"duplicate capability domain {domain!r}")
        out[domain] = frozenset(kinds)
    return out


def _price_matrix(entries: list, where: str) -> PriceMatrix:
    """The price entries, declared in order: reciprocity holds pair by pair."""
    prices = PriceMatrix()
    for i, (src, dst, rate) in enumerate(entries):
        try:
            prices.declare(src, dst, rate)
        except ValidationError as exc:
            raise ValidationError(f"{where}[{i}].rate", str(exc)) from None
    return prices


def _pool_rules(pool, path: str, ns: dict) -> None:
    if pool.asset_x == pool.asset_y:
        raise ValidationError(f"{path}.asset_y", "pool assets must differ")


def _pending_rules(entry: tuple, path: str, ns: dict) -> PendingTx:
    """The PendingTx of a mempool entry: a transfer moves on its domain, any
    other effect's pool lives there, and an arb leg is a declared leg."""
    tid, domain, effect = entry
    if effect.__class__ is TransferEffect:
        return PendingTx(tid, domain, effect)
    pool = ns["pool"][effect.pool_id]
    if pool.domain != domain:
        raise ValidationError(f"{path}.effect.pool", f"pool {pool.id!r} lives on {pool.domain!r}")
    if effect.__class__ is ArbLegEffect and tid not in effect.opportunity.leg_ids:
        where, opp = f"{path}.effect.opportunity", effect.opportunity.id
        raise ValidationError(where, f"tx {tid!r} is not a declared leg of {opp!r}")
    return PendingTx(tid, domain, effect)


def _opportunity_rules(opp: LegOpportunity, path: str, ns: dict) -> None:
    if len(opp.leg_ids) < 2:
        raise ValidationError(f"{path}.legs", "an opportunity needs at least two legs")
    if len(set(opp.leg_ids)) != len(opp.leg_ids):
        raise ValidationError(f"{path}.legs", "legs must be distinct")


def _arb_rules(arb: StylizedArbSpec, path: str, ns: dict) -> None:
    pa, pb = ns["pool"][arb.pool_a], ns["pool"][arb.pool_b]
    if pa is pb:
        raise ValidationError(f"{path}.pool_b", "pools must differ")
    if (pa.asset_x, pa.asset_y) != (pb.asset_x, pb.asset_y):
        raise ValidationError(f"{path}.pool_b", "pools must share the same asset pair")


def _action_rules(entry: tuple, path: str, ns: dict) -> tuple[str, Action]:
    """(owner, Action) of an action entry: the amount mode its kind asks
    for, and the owner's capability on every domain it touches."""
    kind, aid, owner, mode, target, direction = entry
    if kind == KIND_ARB:
        if mode is not None:
            raise ValidationError(f"{path}.amount", "stylized arbs take no amount")
        pools = ns["pool"]
        domains = frozenset({pools[target.pool_a].domain, pools[target.pool_b].domain})
    elif mode is None:
        raise ValidationError(f"{path}.amount", f"{kind.lower()} actions need an amount mode")
    elif kind == KIND_SWAP:
        domains = frozenset({target.domain})
    else:
        domains = frozenset({target.from_domain, target.to_domain})
    capabilities = ns["player"][owner].capabilities
    for domain in sorted(domains):
        if kind not in capabilities.get(domain, ()):
            message = f"player {owner!r} lacks {kind} capability on {domain!r}"
            raise ValidationError(f"{path}.kind", message)
    return owner, Action(aid, kind, domains, target, direction, mode)


def _defaults_rules(values: tuple, path: str, ns: dict) -> Defaults:
    """The domain lists: every domain when absent, no domain twice."""
    lists = [tuple(ns["domain"]) if domains is None else domains for domains in values[5:]]
    for field, domains in zip(("action_domains", "value_domains"), lists):
        for i, domain in enumerate(domains):
            if domain in domains[:i]:
                raise ValidationError(f"{path}.{field}[{i}]", f"repeated domain {domain!r}")
    return Defaults(*values[:5], *lists)


def _document_rules(scenario: Scenario, path: str, ns: dict) -> None:
    """Every opportunity leg is an arb leg in the mempool, and every domain's
    native asset prices into the default base."""
    effects = ((tx.id, tx.effect) for tx in scenario.mempool)
    arb_legs = {(e.opportunity.id, tid) for tid, e in effects if e.__class__ is ArbLegEffect}
    for idx, opp in enumerate(scenario.opportunities):
        missing = sorted(leg for leg in opp.leg_ids if (opp.id, leg) not in arb_legs)
        if missing:
            message = f"legs not present in the mempool: {missing}"
            raise ValidationError(f"opportunities[{idx}].legs", message)
    base = scenario.defaults.base_asset
    for d in scenario.domains:
        if not scenario.prices.has_rate(d.native_asset, base):
            message = f"no rate from native asset {d.native_asset!r} of domain {d.id!r}"
            raise ValidationError("prices", f"{message} to base asset {base!r}")


# -- the schema -------------------------------------------------------------------------

_STRING, _AMOUNT = (_string, None, None), (_number, Amount, str)
_UNITS = (_number, lambda text: Amount(text).units, format_units)
_RATE = (_number, parse_fraction, format_fraction)
_ASSET, _DOMAIN, _PLAYER = ((_ref, what, False, None) for what in ("asset", "domain", "player"))
_STYLIZED_POOL = (_ref, "pool", False, StylizedMidpointPool)
_DIRECTION = (_string, DIRECTIONS, "direction")
_POSITIVE_RESERVE, _POSITIVE_RATE = "reserves must be positive", "rate must be positive"


def _entries(table: _Table, sort=("id",), collect=None) -> tuple:
    return (_list, (_section, table), sort, collect)


_POOL = _Table(
    [("id", (_id, "pool")), ("domain", _DOMAIN), ("asset_x", _ASSET), ("asset_y", _ASSET)],
    check=_pool_rules, pair=("asset_x", "asset_y"), tag=("type", "pool type", None), variants={
        "constant_product": _Table([
            ("reserve_x", _UNITS, REQUIRED, _POSITIVE_RESERVE, "reserve_x_units"),
            ("reserve_y", _UNITS, REQUIRED, _POSITIVE_RESERVE, "reserve_y_units"),
            ("fee_bps", (_integer, 10_000, None), 0, 0),
        ], build=ConstantProductPool),
        "stylized_midpoint": _Table(
            [("price", _AMOUNT, REQUIRED, "price must be positive")], build=StylizedMidpointPool),
    })

_EFFECT = _Table([], tag=("type", "effect type", None), variants={
    "price_push": _Table([("pool", _STYLIZED_POOL, REQUIRED, None, "pool_id"),
                          ("to_price", _AMOUNT)], build=PricePushEffect),
    "cp_swap": _Table([
        ("pool", (_ref, "pool", False, ConstantProductPool), REQUIRED, None, "pool_id"),
        ("direction", _DIRECTION), ("amount_in", _AMOUNT), ("account", _PLAYER),
    ], build=CpSwapEffect),
    "transfer": _Table([
        ("from_account", _PLAYER), ("to_account", _PLAYER), ("asset", _ASSET),
        ("amount", _AMOUNT, REQUIRED, 0),
    ], build=TransferEffect),
    "arb_leg": _Table([
        ("pool", _STYLIZED_POOL, REQUIRED, None, "pool_id"), ("from_price", _AMOUNT),
        ("to_price", _AMOUNT), ("opportunity", (_ref, "opportunity", True, None)),
    ], build=ArbLegEffect),
})

_ACTION = _Table([
    ("id", (_id, "action id")), ("player", _PLAYER, REQUIRED, None, "owner"),
    ("amount", (_mode,), None, "fixed amount must be positive"),
], check=_action_rules, tag=("kind", "action kind", "kind"), variants={
    KIND_SWAP: _Table([("pool", (_ref, "pool", True, None), REQUIRED, None, "target"),
                       ("direction", _DIRECTION)], build=lambda *values: (KIND_SWAP, *values)),
    KIND_BRIDGE: _Table([("bridge", (_ref, "bridge", True, None), REQUIRED, None, "target")],
                        build=lambda *values: (KIND_BRIDGE, *values, None)),
    KIND_ARB: _Table([("arb", (_ref, "stylized arb", True, None), REQUIRED, None, "target")],
                     build=lambda *values: (KIND_ARB, *values, None)),
    KIND_PENDING: "pending transactions belong in the mempool",
}, get=lambda pair, attr: pair[0] if attr == "owner" else _field(pair[1], attr))

# The top-level sections in dependency order: every reference resolves
# against the sections read before it.
_DOCUMENT = _Table([
    ("schema_version", (_integer, None, SCHEMA_VERSION)),
    ("assets", (_list, (_id, "asset"), (), None)),
    ("domains", _entries(_Table([("id", (_id, "domain")), ("native_asset", _ASSET)],
                                build=DomainDecl)), REQUIRED, "at least one domain is required"),
    ("players", _entries(_Table([
        ("id", (_id, "player")),
        ("balances", _entries(_Table(
            [("domain", _DOMAIN), ("asset", _ASSET), ("amount", _AMOUNT, REQUIRED, 0)],
            build=BalanceDecl), sort=("domain", "asset")), []),
        ("capabilities", _entries(_Table([
            ("domain", _DOMAIN, REQUIRED, None, 0),
            ("kinds", (_list, (_string, ACTION_KINDS, "action kind"), (), None), REQUIRED, None, 1),
        ]), sort=("domain",), collect=(_capabilities, dict.items)), []),
    ], build=PlayerDecl))),
    ("pools", _entries(_POOL), []),
    ("bridges", _entries(_Table([
        ("id", (_id, "bridge")), ("from_domain", _DOMAIN), ("to_domain", _DOMAIN),
        ("from_asset", _ASSET), ("to_asset", _ASSET), ("rate", _RATE, REQUIRED, _POSITIVE_RATE),
        ("flat_fee", _AMOUNT, "0", 0),
    ], build=BridgeSpec)), []),
    ("opportunities", _entries(_Table([
        ("id", (_id, "opportunity")), ("beneficiary", _PLAYER),
        ("declared_profit", _AMOUNT, REQUIRED, 0), ("profit_asset", _ASSET),
        ("profit_domain", _DOMAIN), ("legs", (_list, _STRING, (), None), REQUIRED, None, "leg_ids"),
    ], build=LegOpportunity, check=_opportunity_rules)), []),
    ("mempool", _entries(_Table(
        [("id", (_id, "action id")), ("domain", _DOMAIN), ("effect", (_section, _EFFECT))],
        check=_pending_rules)), []),
    ("stylized_arbs", _entries(_Table([
        ("id", (_id, "stylized arb")), ("pool_a", _STYLIZED_POOL), ("pool_b", _STYLIZED_POOL),
        ("declared_profit", _AMOUNT, REQUIRED, 0), ("profit_asset", _ASSET),
        ("profit_domain", _DOMAIN),
    ], build=StylizedArbSpec, check=_arb_rules)), []),
    ("actions", _entries(_ACTION), [], None, "player_actions"),
    ("prices", _entries(_Table([
        ("from", _ASSET, REQUIRED, None, 0), ("to", _ASSET, REQUIRED, None, 1),
        ("rate", _RATE, REQUIRED, _POSITIVE_RATE, 2),
    ], pair=("from", "to")), ("from", "to"), (
        _price_matrix, lambda prices: [e for e in prices.entries() if e[0] < e[1]])), []),
    ("defaults", (_section, _Table([
        ("player", _PLAYER), ("base_domain", _DOMAIN), ("base_asset", _ASSET),
        ("max_sequence_length", (_integer, None, None), DEFAULT_MAX_SEQUENCE_LENGTH, 0),
        ("alpha", _AMOUNT, "0", 0),
        ("action_domains", (_list, _DOMAIN, None, None), None, "must be nonempty"),
        ("value_domains", (_list, _DOMAIN, None, None), None, "must be nonempty"),
    ], check=_defaults_rules))),
], build=lambda *values: Scenario(*[values[i] for i in _SCENARIO_ORDER]), check=_document_rules)

_SCENARIO_ORDER = [[row[4] for row in _DOCUMENT.rows].index(f) for f in Scenario._fields]
_NAMESPACES = ("asset", "domain", "player", "pool", "bridge", "opportunity", "stylized arb",
               "action id")  # pending txs and actions share one namespace


# -- loading and serialization ------------------------------------------------------


def _unique_names(pairs: list) -> dict:
    """One JSON object as a dict; a name given twice raises ValueError, since
    ``json`` would keep only its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise ValueError(f"duplicate name {name!r}")
            seen.add(name)
    return obj


def loads(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_names)
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno}, column {exc.colno}"
        raise ParseError(f"malformed document at {where}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:  # too deep, too long an integer, a name twice
        raise ParseError(f"malformed document: {exc}") from None
    return _read(doc, _DOCUMENT, "document", {what: {} for what in _NAMESPACES})


def load_path(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return loads(text)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical document: sorted keys, two-space indent, trailing newline."""
    return json.dumps(_write(scenario, _DOCUMENT), sort_keys=True, indent=2) + "\n"


# -- bundled scenarios ------------------------------------------------------------

BUNDLED_NAMES = (
    "appendix_b_4amm", "cp_arbitrage_small", "figure1_bridge", "figure1_bridge_discounted",
    "figure2_3domain", "section3_2amm", "separable_pair",
)


# resolved once; the scenarios are plain files beside this module
_BUNDLED_DIR = Path(__file__).parent / "scenarios"


def bundled_path(name: str) -> Path:
    if name not in BUNDLED_NAMES:
        raise ParseError(f"no bundled scenario named {name!r}")
    return _BUNDLED_DIR / f"{name}.json"


def load_bundled(name: str) -> Scenario:
    return load_path(bundled_path(name))
