"""Pool and bridge machinery: the state-mutating half of the action space.

Two pool models coexist. Constant-product pools carry real curve math for
continuous-amount arbitrage; stylized midpoint pools carry a single quoted
price and exist to reproduce worked examples whose profits are stipulated
rather than derived. Pending transactions are consumable third-party
effects; executing one is itself an action.

A pool record is a spec in the scenario's ``Registry`` and, as a state
value in ``WorldState.pools``, only what swaps move: ``state()`` gives a
record's value (a constant-product pool's ``(reserve_x_units,
reserve_y_units)``, a stylized pool's price units) and ``spec.at(value)``
the record back. Every venue takes the pool record the loader linked
(an action's ``target``, an effect's ``pool``, an arb's ``pool_a`` and
``pool_b``), reads no ``Registry.pools`` entry, reads the pool's value
from the state and builds one new state with one ``WorldState.update``:
at most one debit, one credit, the pools it moves and the pending tx it
consumes. Amounts are int units (see ``model``); the
``reserve_x``/``reserve_y`` properties hand out ``Amount``s.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernels
from ._record import Record
from .errors import (
    AlreadyConsumed,
    FeeExceedsOutput,
    InsufficientLiquidity,
    InvalidAmount,
    PriceMismatch,
    PricesEqual,
    UnknownPool,
    XdmevError,
)
from .fixedpoint import SCALE, Amount, div_half_even, format_units, mul_fraction_units
from .model import WorldState

X_TO_Y = "x_to_y"
Y_TO_X = "y_to_x"
DIRECTIONS = (X_TO_Y, Y_TO_X)


class ConstantProductPool(Record):
    """x*y = k pool; reserves (int units) are part of the value and change on swaps."""

    id: str
    domain: str
    asset_x: str
    asset_y: str
    reserve_x_units: int
    reserve_y_units: int
    fee_bps: int = 0

    def __post_init__(self):
        if self.reserve_x_units <= 0 or self.reserve_y_units <= 0:
            raise XdmevError(f"pool {self.id}: reserves must be strictly positive")
        if not 0 <= self.fee_bps < 10_000:
            raise XdmevError(f"pool {self.id}: fee_bps must lie in [0, 10000)")

    @property
    def reserve_x(self) -> Amount:
        return Amount.from_units(self.reserve_x_units)

    @property
    def reserve_y(self) -> Amount:
        return Amount.from_units(self.reserve_y_units)

    def state(self) -> tuple[int, int]:
        """This pool's state value: its reserves."""
        return self.reserve_x_units, self.reserve_y_units

    def at(self, reserves: tuple[int, int]) -> "ConstantProductPool":
        """This pool with the given reserves, validated again."""
        return self.replace(reserve_x_units=reserves[0], reserve_y_units=reserves[1])


class StylizedMidpointPool(Record):
    """Infinitely deep market quoting one midpoint price (asset_y per asset_x)."""

    id: str
    domain: str
    asset_x: str
    asset_y: str
    price: Amount

    def __post_init__(self):
        if self.price.units <= 0:
            raise XdmevError(f"pool {self.id}: price must be positive")

    def state(self) -> int:
        """This pool's state value: its price units."""
        return self.price.units

    def at(self, price_units: int) -> "StylizedMidpointPool":
        """This pool quoting ``price_units``."""
        return self.replace(price=Amount.from_units(price_units))


class StylizedArbSpec(Record):
    """Pair rebalance: both pools move to the midpoint, profit is stipulated."""

    id: str
    pool_a: StylizedMidpointPool
    pool_b: StylizedMidpointPool
    declared_profit: Amount
    profit_asset: str
    profit_domain: str


class BridgeSpec(Record):
    """Linear-rate transfer between domains with an optional flat fee."""

    id: str
    from_domain: str
    to_domain: str
    from_asset: str
    to_asset: str
    rate: Fraction
    flat_fee: Amount


class LegOpportunity(Record):
    """Stipulated-profit opportunity realized by executing all of its legs.

    The credit fires exactly once, when the final leg executes; partial
    execution moves prices but earns nothing.
    """

    id: str
    beneficiary: str
    declared_profit: Amount
    profit_asset: str
    profit_domain: str
    leg_ids: tuple[str, ...]


class PricePushEffect(Record):
    """Third-party flow that moves a stylized pool to a new quoted price."""

    pool: StylizedMidpointPool
    to_price: Amount


class CpSwapEffect(Record):
    """Third-party swap on a constant-product pool, for the named account."""

    pool: ConstantProductPool
    direction: str
    amount_in: Amount
    account: str


class TransferEffect(Record):
    """Third-party balance transfer on its pending tx's domain."""

    from_account: str
    to_account: str
    asset: str
    amount: Amount


class ArbLegEffect(Record):
    """One leg of a declared rebalance: pool must sit at from_price, moves to to_price."""

    pool: StylizedMidpointPool
    from_price: Amount
    to_price: Amount
    opportunity: LegOpportunity


class PendingTx(Record):
    """A mempool entry: consumable exactly once per sequence."""

    id: str
    domain: str
    effect: object

    def __post_init__(self):
        # ``other_legs``: an arbitrage leg's other leg ids, derived from the fields
        if self.effect.__class__ is ArbLegEffect:
            others = frozenset(self.effect.opportunity.leg_ids) - {self.id}
            object.__setattr__(self, "other_legs", others)


# -- constant-product operations -----------------------------------------


def _value(state: WorldState, pool):
    """The state value of the pool record ``pool``."""
    try:
        return state.pools[pool.id]
    except KeyError:
        raise UnknownPool(f"unknown pool {pool.id!r}") from None


def apply_swap(
    state: WorldState,
    player: str,
    pool: ConstantProductPool,
    direction: str,
    amount_in: int,
    consumed: str | None = None,
) -> WorldState:
    """Swap against a constant-product pool, debiting and crediting the
    player; a pending tx running the swap passes its id as ``consumed``.

    The one swap body: checks in their order (amount, pool, direction,
    liquidity), one ``_kernels.swap_out`` call (rounded down), one ``update``."""
    if amount_in <= 0:
        raise InvalidAmount(f"swap amount must be positive, got {format_units(amount_in)}")
    reserve_x, reserve_y = _value(state, pool)
    domain = pool.domain
    if direction == X_TO_Y:
        out = _kernels.swap_out(reserve_x, reserve_y, amount_in, pool.fee_bps)
        debit, credit = (domain, player, pool.asset_x), (domain, player, pool.asset_y)
        reserves = (reserve_x + amount_in, reserve_y - out)
    elif direction == Y_TO_X:
        out = _kernels.swap_out(reserve_y, reserve_x, amount_in, pool.fee_bps)
        debit, credit = (domain, player, pool.asset_y), (domain, player, pool.asset_x)
        reserves = (reserve_x - out, reserve_y + amount_in)
    else:
        raise InvalidAmount(f"unknown swap direction {direction!r}")
    if out <= 0:
        raise InsufficientLiquidity(
            f"pool {pool.id}: input {format_units(amount_in)} buys no output"
        )
    return state.update((debit, amount_in), (credit, out), ((pool.id, reserves),), consumed)


def _to_price(pool: StylizedMidpointPool, price: Amount) -> int:
    """Units of a price a pending tx moves a pool to, checked as declared."""
    if price.units <= 0:
        raise XdmevError(f"pool {pool.id}: price must be positive")
    return price.units


def apply_stylized_fill(
    state: WorldState, player: str, pool: StylizedMidpointPool, direction: str, amount_in: int
) -> WorldState:
    """Trade at a stylized pool's quoted price, rounded half-even; the quote does not move."""
    price = _value(state, pool)
    if amount_in <= 0:
        raise InvalidAmount(f"fill amount must be positive, got {format_units(amount_in)}")
    if direction == X_TO_Y:
        asset_in, asset_out = pool.asset_x, pool.asset_y
        out = div_half_even(amount_in * price, SCALE)
    elif direction == Y_TO_X:
        asset_in, asset_out = pool.asset_y, pool.asset_x
        out = div_half_even(amount_in * SCALE, price)
    else:
        raise InvalidAmount(f"unknown swap direction {direction!r}")
    if out <= 0:
        raise InsufficientLiquidity(f"pool {pool.id}: fill output rounds to zero")
    domain = pool.domain
    return state.update(
        ((domain, player, asset_in), amount_in), ((domain, player, asset_out), out)
    )


# -- stylized arbitrage ----------------------------------------------------


def apply_stylized_arb(state: WorldState, player: str, spec: StylizedArbSpec) -> WorldState:
    """Move both pools to the arithmetic midpoint and credit the stipulated profit."""
    pool_a, pool_b = spec.pool_a, spec.pool_b
    price_a, price_b = _value(state, pool_a), _value(state, pool_b)
    if price_a == price_b:
        raise PricesEqual(f"{pool_a.id} and {pool_b.id} both quote {format_units(price_a)}")
    # (a + b) / Amount(2) on units: div_half_even(s * SCALE, 2 * SCALE) == div_half_even(s, 2)
    midpoint = div_half_even(price_a + price_b, 2)
    return state.update(
        credit=((spec.profit_domain, player, spec.profit_asset), spec.declared_profit.units),
        pools=((pool_a.id, midpoint), (pool_b.id, midpoint)),
    )


# -- pending transactions ---------------------------------------------------


def apply_pending_tx(state: WorldState, tx: PendingTx) -> WorldState:
    """Execute a mempool entry once; effect errors propagate."""
    if tx.id in state.consumed:
        raise AlreadyConsumed(f"pending tx {tx.id!r} already executed")
    effect = tx.effect
    cls = effect.__class__
    if cls is CpSwapEffect:
        return apply_swap(
            state, effect.account, effect.pool, effect.direction, effect.amount_in.units, tx.id
        )
    debit = credit = None
    if cls is PricePushEffect:
        _value(state, effect.pool)
        pools = ((effect.pool.id, _to_price(effect.pool, effect.to_price)),)
    elif cls is TransferEffect:
        units = effect.amount.units
        debit = ((tx.domain, effect.from_account, effect.asset), units)
        credit = ((tx.domain, effect.to_account, effect.asset), units)
        pools = ()
    elif cls is ArbLegEffect:
        pool = effect.pool
        price = _value(state, pool)
        if price != effect.from_price.units:
            raise PriceMismatch(
                f"leg {tx.id!r} expects {pool.id} at {effect.from_price}, "
                f"pool quotes {format_units(price)}"
            )
        opp = effect.opportunity
        if tx.other_legs <= state.consumed:
            key = (opp.profit_domain, opp.beneficiary, opp.profit_asset)
            credit = (key, opp.declared_profit.units)
        pools = ((pool.id, _to_price(pool, effect.to_price)),)
    else:
        raise XdmevError(f"pending tx {tx.id!r}: unknown effect {cls.__name__}")
    return state.update(debit, credit, pools, tx.id)


# -- bridges -----------------------------------------------------------------


def bridge_output(bridge: BridgeSpec, quantity: int) -> int:
    """Destination units: quantity x rate - flat_fee, half-even on the product."""
    return mul_fraction_units(quantity, bridge.rate) - bridge.flat_fee.units


def apply_bridge(state: WorldState, player: str, bridge: BridgeSpec, quantity: int) -> WorldState:
    """Move quantity across the bridge, charging the flat fee on arrival."""
    if quantity <= 0:
        raise InvalidAmount(f"bridge quantity must be positive, got {format_units(quantity)}")
    arriving = bridge_output(bridge, quantity)
    if arriving < 0:
        raise FeeExceedsOutput(
            f"bridge {bridge.id}: fee {bridge.flat_fee} exceeds converted "
            f"{format_units(quantity)}"
        )
    return state.update(
        ((bridge.from_domain, player, bridge.from_asset), quantity),
        ((bridge.to_domain, player, bridge.to_asset), arriving),
    )
