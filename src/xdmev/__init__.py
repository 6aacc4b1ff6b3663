"""Deterministic multi-domain extractable-value engine.

Models a set of interconnected execution domains over one monolithic
world state, computes extractable value and its maximum over action
sequences (one ``MevQuery`` over any set of domains, balances priced in
one base asset), and classifies sequencer-collusion incentives.
"""

from .fixedpoint import Amount, ZERO
from .model import PriceMatrix, Registry, WorldState, balance_of, convert
from .venues import (
    BridgeSpec,
    ConstantProductPool,
    PendingTx,
    StylizedArbSpec,
    StylizedMidpointPool,
    apply_bridge,
    apply_pending_tx,
    apply_stylized_arb,
    apply_swap,
)
from .actions import (
    Action,
    ActionSpaceSpec,
    AmountInterval,
    apply_sequence,
    validate_sequence,
)
from .engine import (
    CpArbResult,
    MevQuery,
    MevResult,
    extractable_value,
    mev,
    mev_oracle,
    optimal_cp_arbitrage,
    reachable_states,
    replay_witness,
)
from .collusion import CollusionReport, Verdict, classify_collusion
from .scenario import BUNDLED_NAMES, Scenario, load_bundled, serialize_scenario

__version__ = "0.1.0"

__all__ = [
    "Amount",
    "ZERO",
    "PriceMatrix",
    "Registry",
    "WorldState",
    "balance_of",
    "convert",
    "BridgeSpec",
    "ConstantProductPool",
    "PendingTx",
    "StylizedArbSpec",
    "StylizedMidpointPool",
    "apply_bridge",
    "apply_pending_tx",
    "apply_stylized_arb",
    "apply_swap",
    "Action",
    "ActionSpaceSpec",
    "AmountInterval",
    "apply_sequence",
    "validate_sequence",
    "CpArbResult",
    "MevQuery",
    "MevResult",
    "extractable_value",
    "mev",
    "mev_oracle",
    "optimal_cp_arbitrage",
    "reachable_states",
    "replay_witness",
    "CollusionReport",
    "Verdict",
    "classify_collusion",
    "BUNDLED_NAMES",
    "Scenario",
    "load_bundled",
    "serialize_scenario",
    "__version__",
]
