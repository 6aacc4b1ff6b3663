"""Declarative scenario schema: loading, validation, canonical serialization.

Documents are JSON (UTF-8). Amounts are decimal strings, never numbers;
rationals are "num/den" strings. Canonical form sorts every collection by
its natural key, sorts object keys, indents two spaces, and ends with a
newline, so load -> serialize -> load is a byte-stable fixed point.
Validation is complete at load time: the engine never re-checks
cross-references.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional

from ._record import Record
from .actions import (
    Action,
    ActionSpaceSpec,
    AmountInterval,
    KIND_ARB,
    KIND_BRIDGE,
    KIND_PENDING,
    KIND_SWAP,
)
from .engine import DEFAULT_MAX_SEQUENCE_LENGTH, MevQuery
from .errors import ParseError, ValidationError
from .fixedpoint import ZERO, Amount, format_fraction, parse_fraction
from .model import ACTION_KINDS, PriceMatrix, Registry, WorldState, check_id
from .venues import (
    ArbLegEffect,
    BridgeSpec,
    ConstantProductPool,
    CpSwapEffect,
    DIRECTIONS,
    LegOpportunity,
    PendingTx,
    PricePushEffect,
    StylizedArbSpec,
    StylizedMidpointPool,
    TransferEffect,
)

SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = {
    "schema_version",
    "domains",
    "assets",
    "players",
    "pools",
    "bridges",
    "mempool",
    "opportunities",
    "stylized_arbs",
    "actions",
    "prices",
    "defaults",
}


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
        object.__setattr__(self, "space", _build_space(self))

    def initial_state(self) -> WorldState:
        """A fresh state owning fresh maps: declared balances summed per
        key as int units, zero sums dropped."""
        balances: dict[tuple[str, str, str], int] = {}
        for player in self.players:
            for bal in player.balances:
                key = (bal.domain, player.id, bal.asset)
                balances[key] = balances.get(key, 0) + bal.amount.units
        balances = {key: units for key, units in balances.items() if units}
        pools = {pool.id: pool.state() for pool in self.pools}
        return WorldState(self.registry, balances, pools)

    def default_query(
        self,
        player: Optional[str] = None,
        action_domains=None,
        value_domains=None,
        base_domain: Optional[str] = None,
        base_asset: Optional[str] = None,
        max_len: Optional[int] = None,
    ) -> MevQuery:
        d = self.defaults
        return MevQuery(
            player=player or d.player,
            action_domains=frozenset(action_domains or d.action_domains),
            value_domains=tuple(value_domains or d.value_domains),
            base_domain=base_domain or d.base_domain,
            base_asset=base_asset or d.base_asset,
            prices=self.prices,
            max_sequence_length=d.max_sequence_length if max_len is None else max_len,
        )


# -- parsing helpers ------------------------------------------------------------
#
# Every field is named by its path in the document (``pools[0].reserve_x``);
# ``path`` is the enclosing object's path, and "document" for the root.


def _require(obj: dict, field: str, path: str):
    if field not in obj:
        raise ValidationError(f"{path}.{field}", "missing required field")
    return obj[field]


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(path, f"expected string, got {type(value).__name__}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(path, f"expected list, got {type(value).__name__}")
    return value


def _expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected object, got {type(value).__name__}")
    return value


def _expect_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(path, f"expected integer, got {type(value).__name__}")
    return value


def _str(obj: dict, field: str, path: str) -> str:
    """A required string field."""
    value = obj.get(field)
    if isinstance(value, str):  # the common case builds no path
        return value
    return _expect_str(_require(obj, field, path), f"{path}.{field}")


def _ref(obj: dict, field: str, path: str, declared: Mapping, what: str) -> str:
    """A required string field naming a key of ``declared``."""
    value = obj.get(field)
    if isinstance(value, str) and value in declared:
        return value
    value = _str(obj, field, path)
    if value not in declared:
        raise ValidationError(f"{path}.{field}", f"undeclared {what} {value!r}")
    return value


def _new_id(obj, path: str, seen, what: str, field: Optional[str] = "id") -> str:
    """``obj[field]`` (``obj`` itself when ``field`` is None) as a well-formed
    identifier that is not yet in ``seen``."""
    if field is not None:
        obj, path = _require(obj, field, path), f"{path}.{field}"
    value = check_id(_expect_str(obj, path), path)
    if value in seen:
        raise ValidationError(path, f"duplicate {what} {value!r}")
    return value


def _items(obj: dict, field: str, path: str, required: bool = False, objects: bool = False):
    """(path, value) for each entry of the list field ``obj[field]``; with
    ``objects``, every value must be an object."""
    where = field if path == "document" else f"{path}.{field}"
    raw = _require(obj, field, path) if required else obj.get(field, [])
    for i, value in enumerate(_expect_list(raw, where)):
        item = f"{where}[{i}]"
        yield item, _expect_dict(value, item) if objects else value


def _entries(obj: dict, field: str, path: str, required: bool = False):
    """(path, object) for each entry of the list field ``obj[field]``."""
    return _items(obj, field, path, required, objects=True)


_POOL_TYPE_NAMES = {ConstantProductPool: "constant-product", StylizedMidpointPool: "stylized"}


def _pool(obj: dict, field: str, path: str, pools: Mapping, cls: type, domain=None):
    """The pool named by ``obj[field]``: a ``cls`` pool, on ``domain`` when given."""
    pool_id = _str(obj, field, path)
    pool = pools.get(pool_id)
    if not isinstance(pool, cls):
        raise ValidationError(f"{path}.{field}", f"{pool_id!r} is not a {_POOL_TYPE_NAMES[cls]} pool")
    if domain is not None and pool.domain != domain:
        raise ValidationError(f"{path}.{field}", f"pool {pool_id!r} lives on {pool.domain!r}")
    return pool


def _direction(obj: dict, path: str) -> str:
    direction = _str(obj, "direction", path)
    if direction not in DIRECTIONS:
        raise ValidationError(f"{path}.direction", f"unknown direction {direction!r}")
    return direction


def _amount(value, path: str, minimum: Optional[Amount] = None) -> Amount:
    text = _expect_str(value, path)
    try:
        amount = Amount(text)
    except ValueError as exc:
        raise ValidationError(path, str(exc)) from None
    if minimum is not None and amount < minimum:
        raise ValidationError(path, f"amount {amount} below minimum {minimum}")
    return amount


def _amount_field(obj: dict, field: str, path: str, minimum: Optional[Amount] = None) -> Amount:
    return _amount(_require(obj, field, path), f"{path}.{field}", minimum)


def _fraction(obj: dict, field: str, path: str):
    where = f"{path}.{field}"
    try:
        ratio = parse_fraction(_str(obj, field, path))
    except ValueError as exc:
        raise ValidationError(where, str(exc)) from None
    if ratio <= 0:
        raise ValidationError(where, "rate must be positive")
    return ratio


def _amount_mode(value, path: str) -> Optional[dict]:
    """The ``Action`` amount arguments an ``amount`` field asks for; None when absent."""
    if value is None:
        return None
    if value == "all":
        return {"sweep": True}
    if isinstance(value, dict) and set(value) == {"fixed"}:
        fixed = _amount(value["fixed"], f"{path}.fixed")
        if fixed.units <= 0:
            raise ValidationError(f"{path}.fixed", "fixed amount must be positive")
        return {"amount": fixed}
    if isinstance(value, dict) and set(value) == {"interval"}:
        bounds = _expect_list(value["interval"], f"{path}.interval")
        if len(bounds) != 2:
            raise ValidationError(f"{path}.interval", "interval needs [lo, hi]")
        lo = _amount(bounds[0], f"{path}.interval[0]", ZERO)
        hi = _amount(bounds[1], f"{path}.interval[1]")
        if hi <= lo:
            raise ValidationError(f"{path}.interval[1]", "hi must exceed lo")
        return {"interval": AmountInterval(lo, hi)}
    raise ValidationError(path, "expected \"all\", {\"fixed\": ...} or {\"interval\": [lo, hi]}")


# -- loading ---------------------------------------------------------------------


def loads(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed document at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return _from_object(doc)


def load_path(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return loads(text)


def load_scenario(source: str | Path) -> Scenario:
    """Load from a path, or parse directly when given document text."""
    if isinstance(source, Path):
        return load_path(source)
    if source.lstrip().startswith("{"):
        return loads(source)
    return load_path(source)


def _from_object(doc) -> Scenario:
    root = _expect_dict(doc, "document")
    unknown = set(root) - _TOP_LEVEL_KEYS
    if unknown:
        raise ValidationError(sorted(unknown)[0], "unknown top-level field")
    version = _expect_int(_require(root, "schema_version", "document"), "schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError("schema_version", f"unsupported version {version}")

    # Each section becomes one id-keyed dict in document order. Sections are
    # read in dependency order, so every reference resolves against the
    # sections read before it.
    assets: dict[str, None] = {}
    for path, value in _items(root, "assets", "document", required=True):
        assets[_new_id(value, path, assets, "asset", field=None)] = None

    domains: dict[str, DomainDecl] = {}
    for path, entry in _entries(root, "domains", "document", required=True):
        did = _new_id(entry, path, domains, "domain")
        domains[did] = DomainDecl(did, _ref(entry, "native_asset", path, assets, "asset"))
    if not domains:
        raise ValidationError("domains", "at least one domain is required")

    players: dict[str, PlayerDecl] = {}
    for path, entry in _entries(root, "players", "document", required=True):
        pid = _new_id(entry, path, players, "player")
        balances = tuple(
            BalanceDecl(
                _ref(bal, "domain", b_path, domains, "domain"),
                _ref(bal, "asset", b_path, assets, "asset"),
                _amount_field(bal, "amount", b_path, ZERO),
            )
            for b_path, bal in _entries(entry, "balances", path)
        )
        capabilities: dict[str, frozenset[str]] = {}
        for c_path, cap in _entries(entry, "capabilities", path):
            _ref(cap, "domain", c_path, domains, "domain")
            domain = _new_id(cap, c_path, capabilities, "capability domain", field="domain")
            kinds = []
            for k_path, kind in _items(cap, "kinds", c_path, required=True):
                if _expect_str(kind, k_path) not in ACTION_KINDS:
                    raise ValidationError(k_path, f"unknown action kind {kind!r}")
                kinds.append(kind)
            capabilities[domain] = frozenset(kinds)
        players[pid] = PlayerDecl(pid, balances, capabilities)

    pools: dict[str, object] = {}
    for path, entry in _entries(root, "pools", "document"):
        pool_id = _new_id(entry, path, pools, "pool")
        domain = _ref(entry, "domain", path, domains, "domain")
        for field in ("asset_x", "asset_y"):  # both are strings before either resolves
            _str(entry, field, path)
        asset_x = _ref(entry, "asset_x", path, assets, "asset")
        asset_y = _ref(entry, "asset_y", path, assets, "asset")
        if asset_x == asset_y:
            raise ValidationError(f"{path}.asset_y", "pool assets must differ")
        pool_type = _str(entry, "type", path)
        if pool_type == "constant_product":
            fee = _expect_int(entry.get("fee_bps", 0), f"{path}.fee_bps")
            if not 0 <= fee < 10_000:
                raise ValidationError(f"{path}.fee_bps", "fee_bps must lie in [0, 10000)")
            reserves = [_amount_field(entry, f, path).units for f in ("reserve_x", "reserve_y")]
            for field, reserve in zip(("reserve_x", "reserve_y"), reserves):
                if reserve <= 0:
                    raise ValidationError(f"{path}.{field}", "reserves must be positive")
            pools[pool_id] = ConstantProductPool(pool_id, domain, asset_x, asset_y, *reserves, fee)
        elif pool_type == "stylized_midpoint":
            price = _amount_field(entry, "price", path)
            if price.units <= 0:
                raise ValidationError(f"{path}.price", "price must be positive")
            pools[pool_id] = StylizedMidpointPool(pool_id, domain, asset_x, asset_y, price)
        else:
            raise ValidationError(f"{path}.type", f"unknown pool type {pool_type!r}")

    bridges: dict[str, BridgeSpec] = {}
    for path, entry in _entries(root, "bridges", "document"):
        bid = _new_id(entry, path, bridges, "bridge")
        bridges[bid] = BridgeSpec(
            id=bid,
            from_domain=_ref(entry, "from_domain", path, domains, "domain"),
            to_domain=_ref(entry, "to_domain", path, domains, "domain"),
            from_asset=_ref(entry, "from_asset", path, assets, "asset"),
            to_asset=_ref(entry, "to_asset", path, assets, "asset"),
            rate=_fraction(entry, "rate", path),
            flat_fee=_amount(entry.get("flat_fee", "0"), f"{path}.flat_fee", ZERO),
        )

    # opportunities come before the mempool so that legs can resolve
    opportunities: dict[str, LegOpportunity] = {}
    for path, entry in _entries(root, "opportunities", "document"):
        oid = _new_id(entry, path, opportunities, "opportunity")
        beneficiary = _ref(entry, "beneficiary", path, players, "player")
        profit_domain = _ref(entry, "profit_domain", path, domains, "domain")
        profit_asset = _ref(entry, "profit_asset", path, assets, "asset")
        legs = tuple(
            _expect_str(leg, l_path) for l_path, leg in _items(entry, "legs", path, required=True)
        )
        if len(legs) < 2:
            raise ValidationError(f"{path}.legs", "an opportunity needs at least two legs")
        if len(set(legs)) != len(legs):
            raise ValidationError(f"{path}.legs", "legs must be distinct")
        opportunities[oid] = LegOpportunity(
            id=oid,
            beneficiary=beneficiary,
            declared_profit=_amount_field(entry, "declared_profit", path, ZERO),
            profit_asset=profit_asset,
            profit_domain=profit_domain,
            leg_ids=legs,
        )

    mempool: dict[str, PendingTx] = {}
    for path, entry in _entries(root, "mempool", "document"):
        tid = _new_id(entry, path, mempool, "action id")
        domain = _ref(entry, "domain", path, domains, "domain")
        e_path = f"{path}.effect"
        obj = _expect_dict(_require(entry, "effect", path), e_path)
        e_type = _str(obj, "type", e_path)
        if e_type == "price_push":
            pool = _pool(obj, "pool", e_path, pools, StylizedMidpointPool, domain)
            effect = PricePushEffect(pool.id, _amount_field(obj, "to_price", e_path))
        elif e_type == "cp_swap":
            pool = _pool(obj, "pool", e_path, pools, ConstantProductPool, domain)
            effect = CpSwapEffect(
                pool_id=pool.id,
                direction=_direction(obj, e_path),
                account=_ref(obj, "account", e_path, players, "player"),
                amount_in=_amount_field(obj, "amount_in", e_path),
            )
        elif e_type == "transfer":
            effect = TransferEffect(
                domain=domain,
                from_account=_ref(obj, "from_account", e_path, players, "player"),
                to_account=_ref(obj, "to_account", e_path, players, "player"),
                asset=_ref(obj, "asset", e_path, assets, "asset"),
                amount=_amount_field(obj, "amount", e_path, ZERO),
            )
        elif e_type == "arb_leg":
            pool = _pool(obj, "pool", e_path, pools, StylizedMidpointPool, domain)
            opp = opportunities[_ref(obj, "opportunity", e_path, opportunities, "opportunity")]
            if tid not in opp.leg_ids:
                raise ValidationError(
                    f"{e_path}.opportunity", f"tx {tid!r} is not a declared leg of {opp.id!r}"
                )
            effect = ArbLegEffect(
                pool_id=pool.id,
                from_price=_amount_field(obj, "from_price", e_path),
                to_price=_amount_field(obj, "to_price", e_path),
                opportunity=opp,
            )
        else:
            raise ValidationError(f"{e_path}.type", f"unknown effect type {e_type!r}")
        mempool[tid] = PendingTx(id=tid, domain=domain, effect=effect)

    arb_legs = {
        (tx.effect.opportunity.id, tx.id)
        for tx in mempool.values()
        if isinstance(tx.effect, ArbLegEffect)
    }
    for idx, opp in enumerate(opportunities.values()):
        missing = sorted(leg for leg in opp.leg_ids if (opp.id, leg) not in arb_legs)
        if missing:
            raise ValidationError(
                f"opportunities[{idx}].legs", f"legs not present in the mempool: {missing}"
            )

    arbs: dict[str, StylizedArbSpec] = {}
    for path, entry in _entries(root, "stylized_arbs", "document"):
        aid = _new_id(entry, path, arbs, "stylized arb")
        pa = _pool(entry, "pool_a", path, pools, StylizedMidpointPool)
        pb = _pool(entry, "pool_b", path, pools, StylizedMidpointPool)
        if pa.id == pb.id:
            raise ValidationError(f"{path}.pool_b", "pools must differ")
        if (pa.asset_x, pa.asset_y) != (pb.asset_x, pb.asset_y):
            raise ValidationError(f"{path}.pool_b", "pools must share the same asset pair")
        arbs[aid] = StylizedArbSpec(
            id=aid,
            pool_a=pa.id,
            pool_b=pb.id,
            profit_domain=_ref(entry, "profit_domain", path, domains, "domain"),
            profit_asset=_ref(entry, "profit_asset", path, assets, "asset"),
            declared_profit=_amount_field(entry, "declared_profit", path, ZERO),
        )

    actions: dict[str, tuple[str, Action]] = {}
    action_ids = set(mempool)  # pending txs and actions share one namespace
    for path, entry in _entries(root, "actions", "document"):
        aid = _new_id(entry, path, action_ids, "action id")
        action_ids.add(aid)
        owner = _ref(entry, "player", path, players, "player")
        kind = _str(entry, "kind", path)
        if kind == KIND_PENDING:
            raise ValidationError(f"{path}.kind", "pending transactions belong in the mempool")
        if kind not in ACTION_KINDS:
            raise ValidationError(f"{path}.kind", f"unknown action kind {kind!r}")
        mode = _amount_mode(entry.get("amount"), f"{path}.amount")
        if kind == KIND_ARB:
            if mode is not None:
                raise ValidationError(f"{path}.amount", "stylized arbs take no amount")
            arb = arbs[_ref(entry, "arb", path, arbs, "stylized arb")]
            domains_touched = {pools[arb.pool_a].domain, pools[arb.pool_b].domain}
            payload = {"arb": arb}
        else:
            if kind == KIND_SWAP:
                pool = pools[_ref(entry, "pool", path, pools, "pool")]
                domains_touched = {pool.domain}
                payload = {"pool_id": pool.id, "direction": _direction(entry, path)}
            else:
                bridge = bridges[_ref(entry, "bridge", path, bridges, "bridge")]
                domains_touched = {bridge.from_domain, bridge.to_domain}
                payload = {"bridge": bridge}
            if mode is None:
                raise ValidationError(f"{path}.amount", f"{kind.lower()} actions need an amount mode")
            payload.update(mode)
        capabilities = players[owner].capabilities
        for domain in sorted(domains_touched):
            if kind not in capabilities.get(domain, frozenset()):
                raise ValidationError(
                    f"{path}.kind", f"player {owner!r} lacks {kind} capability on {domain!r}"
                )
        actions[aid] = (owner, Action(aid, kind, frozenset(domains_touched), **payload))

    prices = PriceMatrix()
    for path, entry in _entries(root, "prices", "document"):
        for field in ("from", "to"):  # both are strings before either resolves
            _str(entry, field, path)
        src = _ref(entry, "from", path, assets, "asset")
        dst = _ref(entry, "to", path, assets, "asset")
        rate = _fraction(entry, "rate", path)
        try:
            prices.declare(src, dst, rate)
        except ValidationError as exc:
            raise ValidationError(f"{path}.rate", str(exc)) from None

    defaults_obj = _expect_dict(_require(root, "defaults", "document"), "defaults")
    d_player = _ref(defaults_obj, "player", "defaults", players, "player")
    d_base_domain = _ref(defaults_obj, "base_domain", "defaults", domains, "domain")
    d_base_asset = _ref(defaults_obj, "base_asset", "defaults", assets, "asset")
    max_len = _expect_int(
        defaults_obj.get("max_sequence_length", DEFAULT_MAX_SEQUENCE_LENGTH),
        "defaults.max_sequence_length",
    )
    if max_len < 0:
        raise ValidationError("defaults.max_sequence_length", "must be >= 0")

    def domain_list(field: str) -> tuple[str, ...]:
        if defaults_obj.get(field) is None:
            return tuple(domains)
        values = []
        for where, value in _items(defaults_obj, field, "defaults"):
            if _expect_str(value, where) not in domains:
                raise ValidationError(where, f"undeclared domain {value!r}")
            if value in values:
                raise ValidationError(where, f"repeated domain {value!r}")
            values.append(value)
        if not values:
            raise ValidationError(f"defaults.{field}", "must be nonempty")
        return tuple(values)

    defaults = Defaults(
        player=d_player,
        base_domain=d_base_domain,
        base_asset=d_base_asset,
        max_sequence_length=max_len,
        alpha=_amount(defaults_obj.get("alpha", "0"), "defaults.alpha", ZERO),
        action_domains=domain_list("action_domains"),
        value_domains=domain_list("value_domains"),
    )

    # every domain's measurement asset must price into the default base
    for domain in domains.values():
        if not prices.has_rate(domain.native_asset, defaults.base_asset):
            raise ValidationError(
                "prices",
                f"no rate from native asset {domain.native_asset!r} of domain "
                f"{domain.id!r} to base asset {defaults.base_asset!r}",
            )

    return Scenario(
        schema_version=version,
        domains=tuple(domains.values()),
        assets=tuple(assets),
        players=tuple(players.values()),
        pools=tuple(pools.values()),
        bridges=tuple(bridges.values()),
        mempool=tuple(mempool.values()),
        opportunities=tuple(opportunities.values()),
        stylized_arbs=tuple(arbs.values()),
        player_actions=tuple(actions.values()),
        prices=prices,
        defaults=defaults,
    )


def _build_space(scenario: Scenario) -> ActionSpaceSpec:
    by_player: dict[str, list[Action]] = {p.id: [] for p in scenario.players}
    for owner, action in scenario.player_actions:
        by_player[owner].append(action)
    for tx in scenario.mempool:
        for player in scenario.players:
            if KIND_PENDING in player.capabilities.get(tx.domain, frozenset()):
                by_player[player.id].append(
                    Action(
                        id=tx.id,
                        kind=KIND_PENDING,
                        domains=frozenset({tx.domain}),
                        tx=tx,
                    )
                )
    return ActionSpaceSpec(by_player)


# -- canonical serialization -------------------------------------------------------


def _amount_mode_obj(action: Action):
    if action.sweep:
        return "all"
    if action.amount is not None:
        return {"fixed": str(action.amount)}
    if action.interval is not None:
        return {"interval": [str(action.interval.lo), str(action.interval.hi)]}
    return None


def _effect_obj(effect) -> dict:
    if isinstance(effect, PricePushEffect):
        return {"type": "price_push", "pool": effect.pool_id, "to_price": str(effect.to_price)}
    if isinstance(effect, CpSwapEffect):
        return {
            "type": "cp_swap",
            "pool": effect.pool_id,
            "direction": effect.direction,
            "amount_in": str(effect.amount_in),
            "account": effect.account,
        }
    if isinstance(effect, TransferEffect):
        return {
            "type": "transfer",
            "from_account": effect.from_account,
            "to_account": effect.to_account,
            "asset": effect.asset,
            "amount": str(effect.amount),
        }
    if isinstance(effect, ArbLegEffect):
        return {
            "type": "arb_leg",
            "pool": effect.pool_id,
            "from_price": str(effect.from_price),
            "to_price": str(effect.to_price),
            "opportunity": effect.opportunity.id,
        }
    raise TypeError(f"unknown effect {type(effect).__name__}")


def to_canonical_object(scenario: Scenario) -> dict:
    pools = []
    for pool in sorted(scenario.pools, key=lambda p: p.id):
        if isinstance(pool, ConstantProductPool):
            pools.append(
                {
                    "id": pool.id,
                    "type": "constant_product",
                    "domain": pool.domain,
                    "asset_x": pool.asset_x,
                    "asset_y": pool.asset_y,
                    "reserve_x": str(pool.reserve_x),
                    "reserve_y": str(pool.reserve_y),
                    "fee_bps": pool.fee_bps,
                }
            )
        else:
            pools.append(
                {
                    "id": pool.id,
                    "type": "stylized_midpoint",
                    "domain": pool.domain,
                    "asset_x": pool.asset_x,
                    "asset_y": pool.asset_y,
                    "price": str(pool.price),
                }
            )

    actions = []
    for owner, action in sorted(scenario.player_actions, key=lambda pair: pair[1].id):
        obj: dict = {"id": action.id, "player": owner, "kind": action.kind}
        mode = _amount_mode_obj(action)
        if mode is not None:
            obj["amount"] = mode
        if action.kind == KIND_SWAP:
            obj["pool"] = action.pool_id
            obj["direction"] = action.direction
        elif action.kind == KIND_BRIDGE:
            obj["bridge"] = action.bridge.id
        elif action.kind == KIND_ARB:
            obj["arb"] = action.arb.id
        actions.append(obj)

    return {
        "schema_version": scenario.schema_version,
        "domains": [
            {"id": d.id, "native_asset": d.native_asset}
            for d in sorted(scenario.domains, key=lambda d: d.id)
        ],
        "assets": sorted(scenario.assets),
        "players": [
            {
                "id": p.id,
                "balances": [
                    {"domain": b.domain, "asset": b.asset, "amount": str(b.amount)}
                    for b in sorted(p.balances, key=lambda b: (b.domain, b.asset))
                ],
                "capabilities": [
                    {"domain": domain, "kinds": sorted(kinds)}
                    for domain, kinds in sorted(p.capabilities.items())
                ],
            }
            for p in sorted(scenario.players, key=lambda p: p.id)
        ],
        "pools": pools,
        "bridges": [
            {
                "id": b.id,
                "from_domain": b.from_domain,
                "to_domain": b.to_domain,
                "from_asset": b.from_asset,
                "to_asset": b.to_asset,
                "rate": format_fraction(b.rate),
                "flat_fee": str(b.flat_fee),
            }
            for b in sorted(scenario.bridges, key=lambda b: b.id)
        ],
        "mempool": [
            {"id": tx.id, "domain": tx.domain, "effect": _effect_obj(tx.effect)}
            for tx in sorted(scenario.mempool, key=lambda tx: tx.id)
        ],
        "opportunities": [
            {
                "id": o.id,
                "beneficiary": o.beneficiary,
                "declared_profit": str(o.declared_profit),
                "profit_asset": o.profit_asset,
                "profit_domain": o.profit_domain,
                "legs": sorted(o.leg_ids),
            }
            for o in sorted(scenario.opportunities, key=lambda o: o.id)
        ],
        "stylized_arbs": [
            {
                "id": a.id,
                "pool_a": a.pool_a,
                "pool_b": a.pool_b,
                "declared_profit": str(a.declared_profit),
                "profit_asset": a.profit_asset,
                "profit_domain": a.profit_domain,
            }
            for a in sorted(scenario.stylized_arbs, key=lambda a: a.id)
        ],
        "actions": actions,
        "prices": [
            {"from": src, "to": dst, "rate": format_fraction(rate)}
            for src, dst, rate in scenario.prices.entries()
            if src < dst
        ],
        "defaults": {
            "player": scenario.defaults.player,
            "base_domain": scenario.defaults.base_domain,
            "base_asset": scenario.defaults.base_asset,
            "max_sequence_length": scenario.defaults.max_sequence_length,
            "alpha": str(scenario.defaults.alpha),
            "action_domains": list(scenario.defaults.action_domains),
            "value_domains": list(scenario.defaults.value_domains),
        },
    }


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical document: sorted keys, two-space indent, trailing newline."""
    return json.dumps(to_canonical_object(scenario), sort_keys=True, indent=2) + "\n"


# -- bundled scenarios ------------------------------------------------------------

BUNDLED_NAMES = (
    "appendix_b_4amm",
    "cp_arbitrage_small",
    "figure1_bridge",
    "figure1_bridge_discounted",
    "figure2_3domain",
    "section3_2amm",
    "separable_pair",
)


# resolved once; the scenarios are plain files beside this module
_BUNDLED_DIR = Path(__file__).parent / "scenarios"


def bundled_path(name: str) -> Path:
    if name not in BUNDLED_NAMES:
        raise ParseError(f"no bundled scenario named {name!r}")
    return _BUNDLED_DIR / f"{name}.json"


def load_bundled(name: str) -> Scenario:
    return load_path(bundled_path(name))
