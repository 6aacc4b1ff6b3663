"""Which actions a query may use and can run, sequence validation, and
sequence application."""

import pytest

from conftest import one_domain_doc, scen
from xdmev.actions import apply_action, apply_sequence, max_feasible_amount, validate_sequence
from xdmev.engine import _usable_actions
from xdmev.errors import (
    AlreadyConsumed,
    InsufficientBalance,
    InvalidAmount,
    PriceMismatch,
    PricesEqual,
    SequenceStepError,
    UnknownId,
)
from xdmev.fixedpoint import Amount


def swap_only_doc(balance="0"):
    doc = one_domain_doc()
    doc["pools"] = [
        {"id": "pool", "type": "constant_product", "domain": "d0",
         "asset_x": "AAA", "asset_y": "GLD",
         "reserve_x": "100", "reserve_y": "2000", "fee_bps": 0},
    ]
    doc["actions"] = [
        {"id": "buy", "player": "P", "kind": "Swap", "pool": "pool",
         "direction": "y_to_x", "amount": {"interval": ["0", "50"]}},
    ]
    if balance != "0":
        doc["players"][0]["balances"] = [{"domain": "d0", "asset": "GLD", "amount": balance}]
    return doc


def ids(actions):
    return [a.id for a in actions]


class TestAvailableActions:
    """A query uses the player's actions inside its domains
    (``_usable_actions``); one of them runs when ``apply_action`` succeeds,
    a parametric one at ``max_feasible_amount``."""

    def test_zero_balance_swap_space_is_empty(self):
        scenario = scen(swap_only_doc())
        state = scenario.initial_state()
        buy = scenario.space.lookup("P", "buy")
        assert max_feasible_amount(state, "P", buy) == 0
        with pytest.raises(InvalidAmount, match="amount must be positive"):
            apply_action(state, "P", buy, 0)
        with pytest.raises(InsufficientBalance):
            apply_action(state, "P", buy, Amount("1").units)

    def test_affordable_swap_is_available(self):
        scenario = scen(swap_only_doc("10"))
        state = scenario.initial_state()
        buy = scenario.space.lookup("P", "buy")
        assert max_feasible_amount(state, "P", buy) == Amount("10").units
        after = apply_action(state, "P", buy, Amount("10").units)
        assert after.balance("d0", "P", "GLD") == Amount("0")

    def test_two_amm_example_only_pending_tx_at_start(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        # the rebalance action is unusable twice over: its domains span
        # {i, j}, and the two quotes have not diverged yet
        assert ids(_usable_actions(scenario.space, "P", frozenset({"i"}))) == ["tx_buy_eth"]
        both = _usable_actions(scenario.space, "P", frozenset({"i", "j"}))
        assert ids(both) == ["arb_uni_toro", "tx_buy_eth"]
        with pytest.raises(PricesEqual):
            apply_action(state, "P", scenario.space.lookup("P", "arb_uni_toro"))
        apply_action(state, "P", scenario.space.lookup("P", "tx_buy_eth"))

    def test_consumed_tx_disappears_and_arb_appears(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        state = apply_sequence(scenario.space, state, "P", [("tx_buy_eth", None)])
        with pytest.raises(AlreadyConsumed):
            apply_action(state, "P", scenario.space.lookup("P", "tx_buy_eth"))
        apply_action(state, "P", scenario.space.lookup("P", "arb_uni_toro"))

    def test_deterministic_ordering_by_id(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        usable = _usable_actions(scenario.space, "P", frozenset({"i", "j"}))
        assert ids(usable) == sorted(ids(usable))
        runs = []
        for action in usable:
            try:
                apply_action(state, "P", action)
            except PriceMismatch:
                continue
            runs.append(action.id)
        assert runs == ["tx1_i", "tx1_j", "tx2_i", "tx2_j"]


class TestValidateSequence:
    def test_empty_sequence_ok(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        assert validate_sequence(scenario.space, "P", {"i", "j"}, state, []) is None

    def test_repeated_id_flagged_at_second_occurrence(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        violation = validate_sequence(
            scenario.space, "P", {"i", "j"}, state,
            [("tx_buy_eth", None), ("tx_buy_eth", None)],
        )
        assert violation is not None
        assert violation.index == 1
        assert "repeated" in violation.reason

    def test_seven_tx_rebalance_sequence_ok(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        seq = [(tx, None) for tx in
               ("tx1_i", "tx2_i", "tx3_i", "tx4_i", "tx5_i", "tx1_j", "tx2_j")]
        assert validate_sequence(scenario.space, "P", {"i", "j"}, state, seq) is None

    def test_out_of_domain_action_flagged(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        violation = validate_sequence(
            scenario.space, "P", {"i"}, state, [("tx1_j", None)]
        )
        assert violation is not None and "domains" in violation.reason

    def test_precondition_failure_reported_with_index(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        # tx3_i expects the first pool at 30; nothing pushed it yet
        violation = validate_sequence(
            scenario.space, "P", {"i", "j"}, state, [("tx3_i", None)]
        )
        assert violation is not None and violation.index == 0

    def test_amount_outside_interval_flagged(self):
        scenario = scen(swap_only_doc("100"))
        state = scenario.initial_state()
        violation = validate_sequence(
            scenario.space, "P", {"d0"}, state, [("buy", Amount("51"))]
        )
        assert violation is not None and "outside" in violation.reason


class TestApplySequence:
    def test_empty_sequence_is_identity(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        assert apply_sequence(scenario.space, state, "P", []) == state

    def test_two_amm_sequence_reaches_midpoint_state(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        final = apply_sequence(
            scenario.space, state, "P", [("tx_buy_eth", None), ("arb_uni_toro", None)]
        )
        assert final.pool("uniswap").price == Amount("25")
        assert final.pool("toroswap").price == Amount("25")
        assert final.balance("i", "P", "ETH") == Amount("1")

    def test_deterministic_reapplication(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        seq = [("tx_buy_eth", None), ("arb_uni_toro", None)]
        assert apply_sequence(scenario.space, state, "P", seq) == apply_sequence(
            scenario.space, state, "P", seq
        )

    def test_commuting_actions_on_disjoint_domains(self, bundled):
        # both orders of two single-domain rebalances land on the same state
        scenario = bundled("separable_pair")
        state = scenario.initial_state()
        ab = apply_sequence(scenario.space, state, "P",
                            [("arb_left", None), ("arb_right", None)])
        ba = apply_sequence(scenario.space, state, "P",
                            [("arb_right", None), ("arb_left", None)])
        assert ab == ba

    def test_error_carries_failing_index(self, bundled):
        scenario = bundled("appendix_b_4amm")
        state = scenario.initial_state()
        with pytest.raises(SequenceStepError) as err:
            apply_sequence(scenario.space, state, "P",
                           [("tx1_i", None), ("tx4_i", None)])
        assert err.value.index == 1
        assert err.value.action_id == "tx4_i"

    def test_consumed_set_tracks_exactly_pending_txs(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        final = apply_sequence(
            scenario.space, state, "P", [("tx_buy_eth", None), ("arb_uni_toro", None)]
        )
        assert final.consumed == frozenset({"tx_buy_eth"})


# one bad step of each kind after a valid first step (index 1), or alone
# (index 0); validate_sequence and apply_sequence share one fold
BAD_STEPS = [
    ({"i", "j"}, [("tx_buy_eth", None), ("tx_buy_eth", None)], 1, "action id repeated"),
    ({"i", "j"}, [("tx_buy_eth", None), ("nope", None)], 1,
     "action 'nope' is not in player 'P''s space"),
    ({"i"}, [("tx_buy_eth", None), ("arb_uni_toro", None)], 1,
     "requires domains outside the active set: j"),
    ({"i", "j"}, [("arb_uni_toro", None)], 0, "uniswap and toroswap both quote 20"),
]


class TestOneFold:
    @pytest.mark.parametrize(
        "domains, seq, index, reason", BAD_STEPS,
        ids=["repeated", "unknown", "out_of_domain", "failing_apply"],
    )
    def test_validate_and_apply_report_the_same_step(self, bundled, domains, seq, index, reason):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        violation = validate_sequence(scenario.space, "P", domains, state, seq)
        assert (violation.index, violation.action_id, violation.reason) == (
            index, seq[index][0], reason
        )
        with pytest.raises(SequenceStepError) as err:
            apply_sequence(scenario.space, state, "P", seq, frozenset(domains))
        assert (err.value.index, err.value.action_id, str(err.value.cause)) == (
            index, seq[index][0], reason
        )

    def test_unknown_id_keeps_its_index_and_type(self, bundled):
        scenario = bundled("section3_2amm")
        state = scenario.initial_state()
        with pytest.raises(SequenceStepError) as err:
            apply_sequence(scenario.space, state, "P", [("tx_buy_eth", None), ("nope", None)])
        assert err.value.index == 1 and isinstance(err.value.cause, UnknownId)


class TestBridgeSweep:
    @staticmethod
    def sweep_doc(held):
        doc = one_domain_doc()
        doc["domains"].append({"id": "d1", "native_asset": "AAA"})
        doc["players"][0]["capabilities"].append({"domain": "d1", "kinds": ["Bridge"]})
        doc["players"][0]["balances"] = [{"domain": "d0", "asset": "GLD", "amount": held}]
        doc["bridges"] = [{"id": "br", "from_domain": "d0", "to_domain": "d1",
                           "from_asset": "GLD", "to_asset": "GLD",
                           "rate": "99/100", "flat_fee": "0.5"}]
        doc["actions"] = [{"id": "move", "player": "P", "kind": "Bridge", "bridge": "br",
                           "amount": "all"}]
        doc["prices"] = [{"from": "AAA", "to": "GLD", "rate": "1/1"}]
        return doc

    def test_held_balance_moves_across(self):
        scenario = scen(self.sweep_doc("12.5"))
        state = scenario.initial_state()
        moved = apply_action(state, "P", scenario.space.lookup("P", "move"))
        assert moved.balances == {("d1", "P", "GLD"): Amount("11.875").units}  # 12.5 x 0.99 - 0.5

    def test_nothing_held_is_nothing_to_sweep(self):
        scenario = scen(self.sweep_doc("0"))
        with pytest.raises(InvalidAmount, match="^action 'move': nothing to sweep$"):
            apply_action(scenario.initial_state(), "P", scenario.space.lookup("P", "move"))
