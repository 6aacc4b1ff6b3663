"""Collusion trichotomy, breakeven, and margin identities."""

import pytest

from xdmev.collusion import Verdict, classify_collusion
from xdmev.errors import ExplosionGuard, XdmevError
from xdmev.fixedpoint import Amount


def classify(scenario, alpha: str, domains=("i", "j")):
    query = scenario.default_query(value_domains=domains)
    return classify_collusion(scenario.space, scenario.initial_state(), query, Amount(alpha))


def breakeven(scenario, domains=("i", "j")):
    return classify(scenario, "0", domains).breakeven


class TestTwoAmmExample:
    def test_free_collusion_is_profitable(self, bundled):
        report = classify(bundled("section3_2amm"), "0")
        assert report.solo_values == {"i": Amount("0"), "j": Amount("0")}
        assert report.joint_value == Amount("1")
        assert report.margin == Amount("1")
        assert report.verdict is Verdict.PROFITABLE

    def test_boundary_alpha_is_indifferent(self, bundled):
        report = classify(bundled("section3_2amm"), "1")
        assert report.margin == Amount("0")
        assert report.verdict is Verdict.INDIFFERENT

    def test_expensive_collusion_is_unprofitable(self, bundled):
        report = classify(bundled("section3_2amm"), "2")
        assert report.margin == Amount("-1")
        assert report.verdict is Verdict.UNPROFITABLE

    def test_breakeven_is_one(self, bundled):
        assert breakeven(bundled("section3_2amm")) == Amount("1")


class TestFourAmmExample:
    def test_profitable_with_margin(self, bundled):
        report = classify(bundled("appendix_b_4amm"), "0")
        assert report.solo_values == {"i": Amount("1"), "j": Amount("0")}
        assert report.joint_value == Amount("1.6")
        assert report.margin == Amount("0.6")
        assert report.verdict is Verdict.PROFITABLE

    def test_breakeven(self, bundled):
        assert breakeven(bundled("appendix_b_4amm")) == Amount("0.6")


class TestSeparableScenario:
    def test_breakeven_is_zero_without_cross_domain_actions(self, bundled):
        assert breakeven(bundled("separable_pair"), ("d1", "d2")) == Amount("0")

    def test_zero_alpha_is_indifferent(self, bundled):
        report = classify(bundled("separable_pair"), "0", ("d1", "d2"))
        assert report.verdict is Verdict.INDIFFERENT


class TestIdentities:
    @pytest.mark.parametrize("alpha", ["0", "0.25", "0.6", "1.6", "3"])
    def test_margin_equals_breakeven_minus_alpha(self, bundled, alpha):
        scenario = bundled("appendix_b_4amm")
        report = classify(scenario, alpha)
        assert report.margin == breakeven(scenario) - Amount(alpha)

    def test_verdict_monotone_in_alpha(self, bundled):
        scenario = bundled("appendix_b_4amm")
        rank = {Verdict.UNPROFITABLE: 0, Verdict.INDIFFERENT: 1, Verdict.PROFITABLE: 2}
        verdicts = [classify(scenario, a).verdict for a in ("0", "0.6", "1", "5")]
        ranks = [rank[v] for v in verdicts]
        assert ranks == sorted(ranks, reverse=True)

    def test_guards(self, bundled):
        scenario = bundled("section3_2amm")
        with pytest.raises(XdmevError):
            classify(scenario, "0", domains=("i",))
        with pytest.raises(XdmevError):
            classify(scenario, "-1")


class TestCallersQuery:
    def test_candidate_cap_holds_for_every_search(self, bundled):
        scenario = bundled("section3_2amm")
        query = scenario.default_query(value_domains=("i", "j")).replace(candidate_cap=1)
        with pytest.raises(ExplosionGuard):
            classify_collusion(scenario.space, scenario.initial_state(), query, Amount(0))

    def test_coalition_is_the_value_domains(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        own = scenario.default_query(action_domains=("i", "j"), value_domains=("i", "j"))
        other = own.replace(action_domains=frozenset({"i"}))
        assert other.action_domains != own.action_domains
        report = classify_collusion(scenario.space, state, other, Amount("0.25"))
        assert report == classify_collusion(scenario.space, state, own, Amount("0.25"))
        assert report.joint_value == Amount("1.6")
