"""Pool and bridge machinery: the state-mutating half of the action space.

Two pool models coexist. Constant-product pools carry real curve math for
continuous-amount arbitrage; stylized midpoint pools carry a single quoted
price and exist to reproduce worked examples whose profits are stipulated
rather than derived. Pending transactions are consumable third-party
effects; executing one is itself an action.
Amounts are int units (see ``model``); ``quote_swap`` and a pool's
``reserve_x``/``reserve_y`` hand out ``Amount``s.
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
from .model import CREDIT, DEBIT, BalanceMove, WorldState

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

    def _with_reserves(self, reserve_x_units: int, reserve_y_units: int) -> "ConstantProductPool":
        """This pool with new reserves, without running ``__init__`` again.

        Only the reserves change, so only their positivity is checked again;
        a new field or invariant on this class must be carried over here.
        """
        if reserve_x_units <= 0 or reserve_y_units <= 0:
            raise XdmevError(f"pool {self.id}: reserves must be strictly positive")
        moved = object.__new__(ConstantProductPool)
        moved.__dict__.update(
            self.__dict__, reserve_x_units=reserve_x_units, reserve_y_units=reserve_y_units
        )
        return moved


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


class StylizedArbSpec(Record):
    """Pair rebalance: both pools move to the midpoint, profit is stipulated."""

    id: str
    pool_a: str
    pool_b: str
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

    pool_id: str
    to_price: Amount


class CpSwapEffect(Record):
    """Third-party swap on a constant-product pool, for the named account."""

    pool_id: str
    direction: str
    amount_in: Amount
    account: str


class TransferEffect(Record):
    """Third-party balance transfer within one domain."""

    domain: str
    from_account: str
    to_account: str
    asset: str
    amount: Amount


class ArbLegEffect(Record):
    """One leg of a declared rebalance: pool must sit at from_price, moves to to_price."""

    pool_id: str
    from_price: Amount
    to_price: Amount
    opportunity: LegOpportunity


class PendingTx(Record):
    """A mempool entry: consumable exactly once per sequence."""

    id: str
    domain: str
    effect: object


# -- constant-product operations -----------------------------------------

# what one application changes: balance moves, then (pool id, new pool) pairs
_Effects = tuple[tuple[BalanceMove, ...], tuple[tuple[str, object], ...]]


def _quote_units(pool: ConstantProductPool, direction: str, amount_in: int) -> tuple[int, bool]:
    """The one constant-product quote: (output units rounded down, whether
    X is sold), with ``quote_swap``'s checks and errors in their order:
    amount, direction, liquidity. The direction is compared here only."""
    if amount_in <= 0:
        raise InvalidAmount(f"swap amount must be positive, got {format_units(amount_in)}")
    if direction == X_TO_Y:
        sells_x, reserve_in, reserve_out = True, pool.reserve_x_units, pool.reserve_y_units
    elif direction == Y_TO_X:
        sells_x, reserve_in, reserve_out = False, pool.reserve_y_units, pool.reserve_x_units
    else:
        raise InvalidAmount(f"unknown swap direction {direction!r}")
    out_units = _kernels.swap_out(reserve_in, reserve_out, amount_in, pool.fee_bps)
    if out_units <= 0:
        raise InsufficientLiquidity(
            f"pool {pool.id}: input {format_units(amount_in)} buys no output"
        )
    return out_units, sells_x


def quote_swap(pool: ConstantProductPool, direction: str, amount_in: Amount) -> Amount:
    """Pure quote: output for ``amount_in``, pool untouched, rounded down."""
    return Amount.from_units(_quote_units(pool, direction, amount_in.units)[0])


def _swap_effects(
    state: WorldState, player: str, pool_id: str, direction: str, amount_in: int
) -> _Effects:
    """Balance moves and pool replacement of a constant-product swap; the
    pool is read once."""
    pool = state.pool(pool_id)
    if not isinstance(pool, ConstantProductPool):
        raise UnknownPool(f"pool {pool_id!r} is not a constant-product pool")
    out, sells_x = _quote_units(pool, direction, amount_in)
    if sells_x:
        asset_in, asset_out = pool.asset_x, pool.asset_y
        moved = pool._with_reserves(pool.reserve_x_units + amount_in, pool.reserve_y_units - out)
    else:
        asset_in, asset_out = pool.asset_y, pool.asset_x
        moved = pool._with_reserves(pool.reserve_x_units - out, pool.reserve_y_units + amount_in)
    moves = (
        (DEBIT, pool.domain, player, asset_in, amount_in),
        (CREDIT, pool.domain, player, asset_out, out),
    )
    return moves, ((pool_id, moved),)


def apply_swap(
    state: WorldState, player: str, pool_id: str, direction: str, amount_in: int
) -> WorldState:
    """Swap against a constant-product pool, debiting and crediting the player."""
    return state.update(*_swap_effects(state, player, pool_id, direction, amount_in))


def _stylized(state: WorldState, pool_id: str) -> StylizedMidpointPool:
    pool = state.pool(pool_id)
    if not isinstance(pool, StylizedMidpointPool):
        raise UnknownPool(f"pool {pool_id!r} is not a stylized pool")
    return pool


def _repriced(pool: StylizedMidpointPool, price: Amount) -> StylizedMidpointPool:
    return StylizedMidpointPool(pool.id, pool.domain, pool.asset_x, pool.asset_y, price)


def apply_stylized_fill(
    state: WorldState, player: str, pool_id: str, direction: str, amount_in: int
) -> WorldState:
    """Trade at a stylized pool's quoted price, rounded half-even; the quote does not move."""
    pool = _stylized(state, pool_id)
    if amount_in <= 0:
        raise InvalidAmount(f"fill amount must be positive, got {format_units(amount_in)}")
    if direction == X_TO_Y:
        asset_in, asset_out = pool.asset_x, pool.asset_y
        out = div_half_even(amount_in * pool.price.units, SCALE)
    elif direction == Y_TO_X:
        asset_in, asset_out = pool.asset_y, pool.asset_x
        out = div_half_even(amount_in * SCALE, pool.price.units)
    else:
        raise InvalidAmount(f"unknown swap direction {direction!r}")
    if out <= 0:
        raise InsufficientLiquidity(f"pool {pool_id}: fill output rounds to zero")
    return state.update((
        (DEBIT, pool.domain, player, asset_in, amount_in),
        (CREDIT, pool.domain, player, asset_out, out),
    ))


# -- stylized arbitrage ----------------------------------------------------


def apply_stylized_arb(state: WorldState, player: str, spec: StylizedArbSpec) -> WorldState:
    """Move both pools to the arithmetic midpoint and credit the stipulated profit."""
    pool_a = _stylized(state, spec.pool_a)
    pool_b = _stylized(state, spec.pool_b)
    if pool_a.price == pool_b.price:
        raise PricesEqual(
            f"{spec.pool_a} and {spec.pool_b} both quote {pool_a.price}"
        )
    # (a + b) / Amount(2) as one Amount: div_half_even(s * SCALE, 2 * SCALE) == div_half_even(s, 2)
    midpoint = Amount.from_units(div_half_even(pool_a.price.units + pool_b.price.units, 2))
    return state.update(
        ((CREDIT, spec.profit_domain, player, spec.profit_asset, spec.declared_profit.units),),
        ((spec.pool_a, _repriced(pool_a, midpoint)), (spec.pool_b, _repriced(pool_b, midpoint))),
    )


# -- pending transactions ---------------------------------------------------


def apply_pending_tx(state: WorldState, tx: PendingTx) -> WorldState:
    """Execute a mempool entry once; effect errors propagate."""
    if tx.id in state.consumed:
        raise AlreadyConsumed(f"pending tx {tx.id!r} already executed")
    effect = tx.effect
    moves, pools = (), ()
    if isinstance(effect, PricePushEffect):
        pool = _stylized(state, effect.pool_id)
        pools = ((effect.pool_id, _repriced(pool, effect.to_price)),)
    elif isinstance(effect, CpSwapEffect):
        moves, pools = _swap_effects(
            state, effect.account, effect.pool_id, effect.direction, effect.amount_in.units
        )
    elif isinstance(effect, TransferEffect):
        moves = (
            (DEBIT, effect.domain, effect.from_account, effect.asset, effect.amount.units),
            (CREDIT, effect.domain, effect.to_account, effect.asset, effect.amount.units),
        )
    elif isinstance(effect, ArbLegEffect):
        moves, pools = _arb_leg_effects(state, tx.id, effect)
    else:
        raise XdmevError(f"pending tx {tx.id!r}: unknown effect {type(effect).__name__}")
    return state.update(moves, pools, tx.id)


def _arb_leg_effects(
    state: WorldState, tx_id: str, effect: ArbLegEffect
) -> _Effects:
    pool = _stylized(state, effect.pool_id)
    if pool.price != effect.from_price:
        raise PriceMismatch(
            f"leg {tx_id!r} expects {effect.pool_id} at {effect.from_price}, "
            f"pool quotes {pool.price}"
        )
    opp = effect.opportunity
    moves = ()
    if set(opp.leg_ids) - {tx_id} <= state.consumed:
        profit = opp.declared_profit.units
        moves = ((CREDIT, opp.profit_domain, opp.beneficiary, opp.profit_asset, profit),)
    return moves, ((effect.pool_id, _repriced(pool, effect.to_price)),)


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
    return state.update((
        (DEBIT, bridge.from_domain, player, bridge.from_asset, quantity),
        (CREDIT, bridge.to_domain, player, bridge.to_asset, arriving),
    ))
