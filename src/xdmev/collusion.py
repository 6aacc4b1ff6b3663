"""Sequencer-collusion incentives over a set of domains.

Given a collusion cost alpha in the base asset, the margin
``joint - (sum of solo values + alpha)`` classifies the coalition:
positive means colluding pays, zero means indifference, negative means
the sequencers do better alone. All comparisons are exact fixed point.
"""

from __future__ import annotations

import enum
from typing import Mapping

from ._record import Record
from .actions import ActionSpaceSpec
from .engine import DEFAULT_MAX_SEQUENCE_LENGTH, MevQuery, MevResult, mev
from .errors import XdmevError
from .fixedpoint import ZERO, Amount
from .model import PriceMatrix, WorldState


class Verdict(enum.Enum):
    PROFITABLE = "Profitable"
    INDIFFERENT = "Indifferent"
    UNPROFITABLE = "Unprofitable"


class CollusionReport(Record):
    domains: tuple[str, ...]
    alpha: Amount
    solo_values: Mapping[str, Amount]
    joint_value: Amount
    margin: Amount
    verdict: Verdict
    solo_results: Mapping[str, MevResult]
    joint_result: MevResult

    @property
    def breakeven(self) -> Amount:
        return self.joint_value - sum(self.solo_values.values(), ZERO)


def _solo_query(joint_query: MevQuery, domain: str) -> MevQuery:
    return joint_query.replace(action_domains=frozenset({domain}), value_domains=(domain,))


def classify_collusion(
    space: ActionSpaceSpec,
    state: WorldState,
    player: str,
    domains: tuple[str, ...],
    alpha: Amount,
    prices: PriceMatrix,
    base_domain: str,
    base_asset: str,
    max_len: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> CollusionReport:
    """Compare the coalition's joint value against solo extraction plus alpha."""
    if len(domains) < 2:
        raise XdmevError("collusion needs at least two domains")
    if len(set(domains)) != len(domains):
        raise XdmevError("collusion domains must be distinct")
    if alpha.units < 0:
        raise XdmevError("alpha must be >= 0")
    joint_query = MevQuery(
        player=player,
        action_domains=frozenset(domains),
        value_domains=tuple(domains),
        base_domain=base_domain,
        base_asset=base_asset,
        prices=prices,
        max_sequence_length=max_len,
    )
    joint = mev(space, state, joint_query)
    solo_results = {
        domain: mev(space, state, _solo_query(joint_query, domain))
        for domain in domains
    }
    solo_values = {domain: result.value for domain, result in solo_results.items()}
    margin = joint.value - sum(solo_values.values(), ZERO) - alpha
    if margin > ZERO:
        verdict = Verdict.PROFITABLE
    elif margin == ZERO:
        verdict = Verdict.INDIFFERENT
    else:
        verdict = Verdict.UNPROFITABLE
    return CollusionReport(
        domains=tuple(domains),
        alpha=alpha,
        solo_values=solo_values,
        joint_value=joint.value,
        margin=margin,
        verdict=verdict,
        solo_results=solo_results,
        joint_result=joint,
    )


def alpha_breakeven(
    space: ActionSpaceSpec,
    state: WorldState,
    player: str,
    domains: tuple[str, ...],
    prices: PriceMatrix,
    base_domain: str,
    base_asset: str,
    max_len: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> Amount:
    """The alpha at which colluding and acting alone pay the same."""
    report = classify_collusion(
        space, state, player, domains, ZERO, prices, base_domain, base_asset, max_len
    )
    return report.breakeven
