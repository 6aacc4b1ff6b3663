"""Sequencer-collusion incentives over a set of domains.

The coalition is a ``MevQuery``'s value domains. Its joint value and
each member's solo value are that query restricted to the coalition and
to the member (``_coalition_query``). Given a collusion cost alpha in the
base asset, the margin ``joint - (sum of solo values + alpha)`` classifies
the coalition: positive means colluding pays, zero means indifference,
negative means the sequencers do better alone. All comparisons are exact
fixed point.
"""

from __future__ import annotations

import enum
from typing import Mapping

from ._record import Record
from .actions import ActionSpaceSpec
from .engine import MevQuery, MevResult, mev
from .errors import XdmevError
from .fixedpoint import ZERO, Amount
from .model import WorldState


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


def _coalition_query(query: MevQuery, domains) -> MevQuery:
    """``query`` acting and valuing in ``domains`` only; every other field is kept."""
    return query.replace(action_domains=frozenset(domains), value_domains=tuple(domains))


def classify_collusion(
    space: ActionSpaceSpec, state: WorldState, query: MevQuery, alpha: Amount
) -> CollusionReport:
    """Compare the coalition's joint value against solo extraction plus alpha.

    The coalition is ``query.value_domains``. The joint search runs
    ``query`` restricted to the coalition, each solo search ``query``
    restricted to one member, so its player, base, prices,
    ``max_sequence_length`` and ``candidate_cap`` hold for all of them.
    The report's ``breakeven`` does not depend on ``alpha``.
    """
    domains = query.value_domains
    if len(domains) < 2:
        raise XdmevError("collusion needs at least two domains")
    if len(set(domains)) != len(domains):
        raise XdmevError("collusion domains must be distinct")
    if alpha.units < 0:
        raise XdmevError("alpha must be >= 0")
    joint = mev(space, state, _coalition_query(query, domains))
    solo_results = {
        domain: mev(space, state, _coalition_query(query, (domain,))) for domain in domains
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
