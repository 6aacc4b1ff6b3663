"""Exception hierarchy shared across the engine."""


class XdmevError(Exception):
    """Base class for every domain error raised by this package."""


class UnknownId(XdmevError):
    """An identifier does not resolve within the scenario."""


class UnknownPool(UnknownId):
    """A pool id does not resolve."""


class MissingRate(XdmevError):
    """No conversion rate is declared between two assets, in either direction."""


class InsufficientBalance(XdmevError):
    """A debit exceeds the available balance."""


class InsufficientLiquidity(XdmevError):
    """A swap output would drain the pool or rounds to zero."""


class InvalidAmount(XdmevError):
    """An amount is zero, negative, or outside its declared interval."""


class PricesEqual(XdmevError):
    """A stylized arbitrage has no price gap to close."""


class PriceMismatch(XdmevError):
    """A declared trade leg expects a pool price the pool does not show."""


class AlreadyConsumed(XdmevError):
    """A pending transaction was already executed in this sequence."""


class FeeExceedsOutput(XdmevError):
    """A bridge transfer would be eaten entirely by its flat fee."""


class NoOpportunity(XdmevError):
    """Marginal prices already agree; no arbitrage exists."""


class ExplosionGuard(XdmevError):
    """The search work exceeded the configured cap."""


class ParseError(XdmevError):
    """A scenario document is not well-formed."""


class ValidationError(XdmevError):
    """A scenario document violates the schema. Carries the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class SequenceStepError(XdmevError):
    """An action inside a sequence failed; carries the failing index."""

    def __init__(self, index: int, action_id: str, cause: XdmevError):
        super().__init__(f"action {index} ({action_id}): {cause}")
        self.index = index
        self.action_id = action_id
        self.cause = cause
