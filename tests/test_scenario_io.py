"""Scenario loading, validation completeness, and canonical serialization."""

import json

import pytest

from conftest import one_domain_doc, scen
from xdmev import scenario as schema
from xdmev.errors import ParseError, ValidationError
from xdmev.fixedpoint import Amount
from xdmev.scenario import (
    BUNDLED_NAMES,
    bundled_path,
    load_bundled,
    load_path,
    loads,
    serialize_scenario,
)
from xdmev.venues import ConstantProductPool, StylizedMidpointPool


class TestBundledScenarios:
    def test_all_bundled_load(self):
        for name in BUNDLED_NAMES:
            scenario = load_bundled(name)
            assert scenario.schema_version == 1

    def test_two_amm_shape(self, bundled):
        scenario = bundled("section3_2amm")
        assert len(scenario.domains) == 2
        stylized = [p for p in scenario.pools if isinstance(p, StylizedMidpointPool)]
        assert len(stylized) == 2
        assert all(p.price == Amount("20") for p in stylized)
        assert len(scenario.mempool) == 1
        assert len(scenario.stylized_arbs) == 1
        assert scenario.stylized_arbs[0].declared_profit == Amount("1")

    def test_four_amm_shape(self, bundled):
        scenario = bundled("appendix_b_4amm")
        assert len(scenario.domains) == 2
        assert len(scenario.pools) == 4
        assert sorted(tx.id for tx in scenario.mempool) == [
            "tx1_i", "tx1_j", "tx2_i", "tx2_j", "tx3_i", "tx4_i", "tx5_i"
        ]
        profits = sorted(str(o.declared_profit) for o in scenario.opportunities)
        assert profits == ["0.3", "0.3", "1"]

    def test_cp_scenario_shape(self, bundled):
        scenario = bundled("cp_arbitrage_small")
        pools = {p.id: p for p in scenario.pools}
        assert isinstance(pools["pool_a"], ConstantProductPool)
        assert pools["pool_a"].reserve_y == Amount("2000")
        assert pools["pool_b"].reserve_y == Amount("3000")

    def test_round_trip_is_byte_stable(self):
        for name in BUNDLED_NAMES:
            raw = bundled_path(name).read_text(encoding="utf-8")
            assert serialize_scenario(loads(raw)) == raw, name

    def test_load_path_matches_loads_of_its_text(self):
        path = bundled_path("section3_2amm")
        from_path = load_path(str(path))
        from_text = loads(path.read_text(encoding="utf-8"))
        assert serialize_scenario(from_path) == serialize_scenario(from_text)


class TestInitialState:
    def test_no_balances_reads_zero(self):
        scenario = scen(one_domain_doc())
        state = scenario.initial_state()
        assert state.balance("d0", "P", "GLD") == Amount(0)
        assert state.consumed == frozenset()

    def test_bridge_example_holdings(self, bundled):
        state = bundled("figure1_bridge").initial_state()
        assert state.balance("ethereum", "P", "MATIC") == Amount("238172.18")

    def test_round_trip_state_identical(self, bundled):
        scenario = bundled("figure2_3domain")
        reloaded = loads(serialize_scenario(scenario))
        assert scenario.initial_state() == reloaded.initial_state()


class TestDefaultQuery:
    def test_only_absent_arguments_take_the_defaults(self, bundled):
        scenario = bundled("section3_2amm")
        d = scenario.defaults
        query = scenario.default_query()
        assert (query.player, query.action_domains, query.value_domains) == (
            d.player, frozenset(d.action_domains), tuple(d.value_domains))
        assert (query.base_domain, query.base_asset) == (d.base_domain, d.base_asset)
        empty = scenario.default_query(
            player="", action_domains=[], value_domains=[], base_domain="", base_asset="")
        assert (empty.player, empty.action_domains, empty.value_domains) == ("", frozenset(), ())
        assert (empty.base_domain, empty.base_asset) == ("", "")


class TestValidation:
    def test_reciprocity_violation_names_the_pair(self):
        doc = one_domain_doc()
        doc["prices"] = [
            {"from": "AAA", "to": "GLD", "rate": "2/1"},
            {"from": "GLD", "to": "AAA", "rate": "6/10"},
        ]
        with pytest.raises(ValidationError) as err:
            scen(doc)
        assert "reciprocity" in str(err.value)
        assert "GLD" in str(err.value) and "AAA" in str(err.value)

    def test_dangling_pool_reference(self):
        doc = one_domain_doc()
        doc["actions"] = [
            {"id": "a", "player": "P", "kind": "Swap", "pool": "ghost",
             "direction": "x_to_y", "amount": {"fixed": "1"}},
        ]
        with pytest.raises(ValidationError) as err:
            scen(doc)
        assert err.value.field == "actions[0].pool"
        assert "ghost" in str(err.value)

    def test_duplicate_action_ids_across_mempool_and_actions(self):
        doc = one_domain_doc()
        doc["pools"] = [{"id": "m", "type": "stylized_midpoint", "domain": "d0",
                         "asset_x": "AAA", "asset_y": "GLD", "price": "10"}]
        doc["mempool"] = [{"id": "dup", "domain": "d0",
                           "effect": {"type": "price_push", "pool": "m", "to_price": "12"}}]
        doc["actions"] = [{"id": "dup", "player": "P", "kind": "Swap", "pool": "m",
                           "direction": "x_to_y", "amount": {"fixed": "1"}}]
        with pytest.raises(ValidationError) as err:
            scen(doc)
        assert "duplicate" in str(err.value)

    def test_unknown_schema_version_rejected(self):
        doc = one_domain_doc()
        doc["schema_version"] = 2
        with pytest.raises(ValidationError) as err:
            scen(doc)
        assert err.value.field == "schema_version"

    def test_negative_balance_rejected(self):
        doc = one_domain_doc()
        doc["players"][0]["balances"] = [
            {"domain": "d0", "asset": "GLD", "amount": "-1"}
        ]
        with pytest.raises(ValidationError) as err:
            scen(doc)
        assert "balances" in err.value.field

    def test_amounts_must_be_strings(self):
        doc = one_domain_doc()
        doc["players"][0]["balances"] = [{"domain": "d0", "asset": "GLD", "amount": 5}]
        with pytest.raises(ValidationError):
            scen(doc)

    def test_capability_gate_on_actions(self):
        doc = one_domain_doc()
        doc["players"][0]["capabilities"] = [{"domain": "d0", "kinds": ["Swap"]}]
        doc["pools"] = [
            {"id": "m1", "type": "stylized_midpoint", "domain": "d0",
             "asset_x": "AAA", "asset_y": "GLD", "price": "10"},
            {"id": "m2", "type": "stylized_midpoint", "domain": "d0",
             "asset_x": "AAA", "asset_y": "GLD", "price": "12"},
        ]
        doc["stylized_arbs"] = [
            {"id": "spec", "pool_a": "m1", "pool_b": "m2", "declared_profit": "1",
             "profit_asset": "GLD", "profit_domain": "d0"},
        ]
        doc["actions"] = [{"id": "arb", "player": "P", "kind": "StylizedArb", "arb": "spec"}]
        with pytest.raises(ValidationError) as err:
            scen(doc)
        assert "capability" in str(err.value)

    def test_opportunity_legs_must_exist_in_mempool(self):
        doc = one_domain_doc()
        doc["pools"] = [{"id": "m", "type": "stylized_midpoint", "domain": "d0",
                         "asset_x": "AAA", "asset_y": "GLD", "price": "10"}]
        doc["opportunities"] = [
            {"id": "op", "beneficiary": "P", "declared_profit": "1",
             "profit_asset": "GLD", "profit_domain": "d0", "legs": ["l1", "l2"]},
        ]
        doc["mempool"] = [
            {"id": "l1", "domain": "d0",
             "effect": {"type": "arb_leg", "pool": "m", "from_price": "10",
                        "to_price": "11", "opportunity": "op"}},
        ]
        with pytest.raises(ValidationError) as err:
            scen(doc)
        assert "l2" in str(err.value)

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            loads("{\n  \"schema_version\": 1,\n  oops\n}")
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("text", [
        "[" * 1000 + "]" * 1000,  # nested past the interpreter's recursion limit
        '{"schema_version": ' + "1" * 4301 + "}",  # past the int conversion digit limit
    ], ids=["deep_nesting", "long_integer"])
    def test_hostile_document_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="^malformed document: "):
            loads(text)

    def test_repeated_top_level_name_is_a_parse_error(self):
        text = bundled_path("cp_arbitrage_small").read_text(encoding="utf-8")
        text = text.replace("{", '{"schema_version": 99, ', 1)
        with pytest.raises(ParseError) as err:
            loads(text)
        assert str(err.value) == "malformed document: duplicate name 'schema_version'"

    def test_repeated_nested_name_is_a_parse_error(self):
        # json would keep the last value: pool_a would load with reserve 7
        text = bundled_path("cp_arbitrage_small").read_text(encoding="utf-8")
        text = text.replace('"reserve_x": "100"', '"reserve_x": "100", "reserve_x": "7"', 1)
        with pytest.raises(ParseError) as err:
            loads(text)
        assert str(err.value) == "malformed document: duplicate name 'reserve_x'"

    def test_unknown_top_level_field(self):
        doc = one_domain_doc()
        doc["extra"] = []
        with pytest.raises(ValidationError):
            scen(doc)

    def test_interval_bounds_checked(self):
        doc = one_domain_doc()
        doc["pools"] = [{"id": "pool", "type": "constant_product", "domain": "d0",
                         "asset_x": "AAA", "asset_y": "GLD",
                         "reserve_x": "1", "reserve_y": "1", "fee_bps": 0}]
        doc["actions"] = [{"id": "a", "player": "P", "kind": "Swap", "pool": "pool",
                           "direction": "x_to_y", "amount": {"interval": ["5", "5"]}}]
        with pytest.raises(ValidationError) as err:
            scen(doc)
        assert "hi must exceed lo" in str(err.value)

    def test_identifier_charset_enforced(self):
        doc = one_domain_doc()
        doc["assets"].append("bad asset!")
        with pytest.raises(ValidationError):
            scen(doc)

    def test_pending_tx_kind_not_allowed_in_actions(self):
        doc = one_domain_doc()
        doc["actions"] = [{"id": "a", "player": "P", "kind": "ExecutePendingTx"}]
        with pytest.raises(ValidationError) as err:
            scen(doc)
        assert "mempool" in str(err.value)


class TestCanonicalForm:
    def test_serialization_sorts_collections(self):
        doc = one_domain_doc()
        doc["assets"] = ["GLD", "AAA"]
        text = serialize_scenario(scen(doc))
        parsed = json.loads(text)
        assert parsed["assets"] == ["AAA", "GLD"]
        assert text.endswith("\n")

    def test_serialize_load_fixed_point(self):
        scenario = scen(one_domain_doc())
        once = serialize_scenario(scenario)
        twice = serialize_scenario(loads(once))
        assert once == twice


def full_doc() -> dict:
    """A valid two-domain document with every section and entry kind populated."""
    all_kinds = ["Bridge", "ExecutePendingTx", "StylizedArb", "Swap"]
    return {
        "schema_version": 1,
        "domains": [{"id": "d0", "native_asset": "GLD"}, {"id": "d1", "native_asset": "SLV"}],
        "assets": ["AAA", "GLD", "SLV"],
        "players": [
            {"id": "P",
             "balances": [{"domain": "d0", "asset": "GLD", "amount": "10"}],
             "capabilities": [{"domain": "d0", "kinds": list(all_kinds)},
                              {"domain": "d1", "kinds": list(all_kinds)}]},
            {"id": "whale",
             "balances": [{"domain": "d0", "asset": "AAA", "amount": "100"}],
             "capabilities": []},
        ],
        "pools": [
            {"id": "cp", "type": "constant_product", "domain": "d0", "asset_x": "AAA",
             "asset_y": "GLD", "reserve_x": "100", "reserve_y": "200", "fee_bps": 30},
            {"id": "m0", "type": "stylized_midpoint", "domain": "d0", "asset_x": "AAA",
             "asset_y": "GLD", "price": "10"},
            {"id": "m1", "type": "stylized_midpoint", "domain": "d1", "asset_x": "AAA",
             "asset_y": "GLD", "price": "12"},
        ],
        "bridges": [
            {"id": "br", "from_domain": "d0", "to_domain": "d1", "from_asset": "GLD",
             "to_asset": "SLV", "rate": "1/2", "flat_fee": "0.1"},
        ],
        "mempool": [
            {"id": "push", "domain": "d0",
             "effect": {"type": "price_push", "pool": "m0", "to_price": "11"}},
            {"id": "cpswap", "domain": "d0",
             "effect": {"type": "cp_swap", "pool": "cp", "direction": "x_to_y",
                        "amount_in": "1", "account": "whale"}},
            {"id": "tip", "domain": "d0",
             "effect": {"type": "transfer", "from_account": "whale", "to_account": "P",
                        "asset": "AAA", "amount": "1"}},
            {"id": "leg0", "domain": "d0",
             "effect": {"type": "arb_leg", "pool": "m0", "from_price": "10",
                        "to_price": "11", "opportunity": "op"}},
            {"id": "leg1", "domain": "d1",
             "effect": {"type": "arb_leg", "pool": "m1", "from_price": "12",
                        "to_price": "11", "opportunity": "op"}},
        ],
        "opportunities": [
            {"id": "op", "beneficiary": "P", "declared_profit": "1", "profit_asset": "GLD",
             "profit_domain": "d0", "legs": ["leg0", "leg1"]},
        ],
        "stylized_arbs": [
            {"id": "sa", "pool_a": "m0", "pool_b": "m1", "declared_profit": "1",
             "profit_asset": "GLD", "profit_domain": "d0"},
        ],
        "actions": [
            {"id": "swap_fixed", "player": "P", "kind": "Swap", "pool": "cp",
             "direction": "x_to_y", "amount": {"fixed": "1"}},
            {"id": "swap_range", "player": "P", "kind": "Swap", "pool": "cp",
             "direction": "y_to_x", "amount": {"interval": ["0", "5"]}},
            {"id": "bridge_all", "player": "P", "kind": "Bridge", "bridge": "br", "amount": "all"},
            {"id": "arb", "player": "P", "kind": "StylizedArb", "arb": "sa"},
        ],
        "prices": [
            {"from": "GLD", "to": "SLV", "rate": "2/1"},
            {"from": "AAA", "to": "GLD", "rate": "1/10"},
        ],
        "defaults": {"player": "P", "base_domain": "d0", "base_asset": "GLD",
                     "max_sequence_length": 4, "alpha": "0.5",
                     "action_domains": ["d0", "d1"], "value_domains": ["d0"]},
    }


DROP = object()  # mutation value: delete the key or list entry


def _mutated(path: tuple, value) -> object:
    """``full_doc()`` with the value at ``path`` replaced (or dropped, or
    appended when the index is one past the end of a list)."""
    if not path:
        return value
    doc = full_doc()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if value is DROP:
        del parent[key]
    elif isinstance(parent, list) and key == len(parent):
        parent.append(value)
    else:
        parent[key] = value
    return doc


def _copy_of(*path):
    value = full_doc()
    for key in path:
        value = value[key]
    return value


MISSING = "missing required field"

# (case id, path, new value, expected .field, expected message after "field: ")
REJECTIONS = [
    # document
    ("root_not_object", (), [], "document", "expected object, got list"),
    ("unknown_top_level", ("extra",), [], "extra", "unknown top-level field"),
    ("schema_version_missing", ("schema_version",), DROP, "document.schema_version", MISSING),
    ("schema_version_str", ("schema_version",), "1", "schema_version", "expected integer, got str"),
    ("schema_version_bool", ("schema_version",), True, "schema_version", "expected integer, got bool"),
    ("schema_version_2", ("schema_version",), 2, "schema_version", "unsupported version 2"),
    # assets
    ("assets_missing", ("assets",), DROP, "document.assets", MISSING),
    ("assets_not_list", ("assets",), {}, "assets", "expected list, got dict"),
    ("asset_not_str", ("assets", 0), 1, "assets[0]", "expected string, got int"),
    ("asset_bad_id", ("assets", 0), "bad asset!", "assets[0]", "invalid identifier 'bad asset!'"),
    ("asset_duplicate", ("assets", 2), "AAA", "assets[2]", "duplicate asset 'AAA'"),
    # domains
    ("domains_missing", ("domains",), DROP, "document.domains", MISSING),
    ("domains_not_list", ("domains",), "d0", "domains", "expected list, got str"),
    ("domains_empty", ("domains",), [], "domains", "at least one domain is required"),
    ("domain_not_object", ("domains", 0), "d0", "domains[0]", "expected object, got str"),
    ("domain_id_missing", ("domains", 0, "id"), DROP, "domains[0].id", MISSING),
    ("domain_id_not_str", ("domains", 0, "id"), 7, "domains[0].id", "expected string, got int"),
    ("domain_id_empty", ("domains", 0, "id"), "", "domains[0].id", "invalid identifier ''"),
    ("domain_duplicate", ("domains", 1, "id"), "d0", "domains[1].id", "duplicate domain 'd0'"),
    ("domain_native_missing", ("domains", 0, "native_asset"), DROP,
     "domains[0].native_asset", MISSING),
    ("domain_native_undeclared", ("domains", 0, "native_asset"), "XYZ",
     "domains[0].native_asset", "undeclared asset 'XYZ'"),
    # players
    ("players_missing", ("players",), DROP, "document.players", MISSING),
    ("players_not_list", ("players",), {}, "players", "expected list, got dict"),
    ("player_not_object", ("players", 0), [], "players[0]", "expected object, got list"),
    ("player_id_missing", ("players", 0, "id"), DROP, "players[0].id", MISSING),
    ("player_duplicate", ("players", 1, "id"), "P", "players[1].id", "duplicate player 'P'"),
    ("balances_not_list", ("players", 0, "balances"), {}, "players[0].balances",
     "expected list, got dict"),
    ("balance_not_object", ("players", 0, "balances", 0), "x", "players[0].balances[0]",
     "expected object, got str"),
    ("balance_domain_missing", ("players", 0, "balances", 0, "domain"), DROP,
     "players[0].balances[0].domain", MISSING),
    ("balance_domain_undeclared", ("players", 0, "balances", 0, "domain"), "d9",
     "players[0].balances[0].domain", "undeclared domain 'd9'"),
    ("balance_asset_undeclared", ("players", 0, "balances", 0, "asset"), "XYZ",
     "players[0].balances[0].asset", "undeclared asset 'XYZ'"),
    ("balance_amount_missing", ("players", 0, "balances", 0, "amount"), DROP,
     "players[0].balances[0].amount", MISSING),
    ("balance_amount_number", ("players", 0, "balances", 0, "amount"), 5,
     "players[0].balances[0].amount", "expected string, got int"),
    ("balance_amount_malformed", ("players", 0, "balances", 0, "amount"), "1.2.3",
     "players[0].balances[0].amount", "not a decimal amount: '1.2.3'"),
    ("balance_amount_too_precise", ("players", 0, "balances", 0, "amount"),
     "0.0000000000000000001", "players[0].balances[0].amount",
     "more than 18 fractional digits: '0.0000000000000000001'"),
    ("balance_amount_negative", ("players", 0, "balances", 0, "amount"), "-1",
     "players[0].balances[0].amount", "amount -1 below minimum 0"),
    ("capabilities_not_list", ("players", 0, "capabilities"), "all",
     "players[0].capabilities", "expected list, got str"),
    ("capability_not_object", ("players", 0, "capabilities", 0), 1,
     "players[0].capabilities[0]", "expected object, got int"),
    ("capability_domain_missing", ("players", 0, "capabilities", 0, "domain"), DROP,
     "players[0].capabilities[0].domain", MISSING),
    ("capability_domain_undeclared", ("players", 0, "capabilities", 0, "domain"), "d9",
     "players[0].capabilities[0].domain", "undeclared domain 'd9'"),
    ("capability_domain_duplicate", ("players", 0, "capabilities", 1, "domain"), "d0",
     "players[0].capabilities[1].domain", "duplicate capability domain 'd0'"),
    ("capability_kinds_missing", ("players", 0, "capabilities", 0, "kinds"), DROP,
     "players[0].capabilities[0].kinds", MISSING),
    ("capability_kinds_not_list", ("players", 0, "capabilities", 0, "kinds"), "Swap",
     "players[0].capabilities[0].kinds", "expected list, got str"),
    ("capability_kind_not_str", ("players", 0, "capabilities", 0, "kinds", 0), 3,
     "players[0].capabilities[0].kinds[0]", "expected string, got int"),
    ("capability_kind_unknown", ("players", 0, "capabilities", 0, "kinds", 0), "Fly",
     "players[0].capabilities[0].kinds[0]", "unknown action kind 'Fly'"),
    # pools
    ("pools_not_list", ("pools",), {}, "pools", "expected list, got dict"),
    ("pools_null", ("pools",), None, "pools", "expected list, got NoneType"),
    ("pool_not_object", ("pools", 0), "cp", "pools[0]", "expected object, got str"),
    ("pool_id_missing", ("pools", 0, "id"), DROP, "pools[0].id", MISSING),
    ("pool_duplicate", ("pools", 1, "id"), "cp", "pools[1].id", "duplicate pool 'cp'"),
    ("pool_domain_undeclared", ("pools", 0, "domain"), "d9", "pools[0].domain",
     "undeclared domain 'd9'"),
    ("pool_asset_x_undeclared", ("pools", 0, "asset_x"), "XYZ", "pools[0].asset_x",
     "undeclared asset 'XYZ'"),
    ("pool_asset_y_missing", ("pools", 0, "asset_y"), DROP, "pools[0].asset_y", MISSING),
    ("pool_asset_y_undeclared", ("pools", 0, "asset_y"), "XYZ", "pools[0].asset_y",
     "undeclared asset 'XYZ'"),
    ("pool_assets_equal", ("pools", 0, "asset_y"), "AAA", "pools[0].asset_y",
     "pool assets must differ"),
    ("pool_assets_both_strings", ("pools", 0), dict(_copy_of("pools", 0), asset_x="XYZ", asset_y=5),
     "pools[0].asset_y", "expected string, got int"),
    ("pool_type_missing", ("pools", 0, "type"), DROP, "pools[0].type", MISSING),
    ("pool_type_unknown", ("pools", 0, "type"), "curve", "pools[0].type",
     "unknown pool type 'curve'"),
    ("pool_fee_str", ("pools", 0, "fee_bps"), "30", "pools[0].fee_bps",
     "expected integer, got str"),
    ("pool_fee_too_high", ("pools", 0, "fee_bps"), 10_000, "pools[0].fee_bps",
     "fee_bps must lie in [0, 10000)"),
    ("pool_reserve_missing", ("pools", 0, "reserve_x"), DROP, "pools[0].reserve_x", MISSING),
    ("pool_reserve_malformed", ("pools", 0, "reserve_x"), "abc", "pools[0].reserve_x",
     "not a decimal amount: 'abc'"),
    ("pool_reserve_x_zero", ("pools", 0, "reserve_x"), "0", "pools[0].reserve_x",
     "reserves must be positive"),
    ("pool_reserve_y_negative", ("pools", 0, "reserve_y"), "-1", "pools[0].reserve_y",
     "reserves must be positive"),
    ("pool_price_missing", ("pools", 1, "price"), DROP, "pools[1].price", MISSING),
    ("pool_price_zero", ("pools", 1, "price"), "0", "pools[1].price", "price must be positive"),
    # bridges
    ("bridges_not_list", ("bridges",), "br", "bridges", "expected list, got str"),
    ("bridge_not_object", ("bridges", 0), [], "bridges[0]", "expected object, got list"),
    ("bridge_id_bad", ("bridges", 0, "id"), "a b", "bridges[0].id", "invalid identifier 'a b'"),
    ("bridge_duplicate", ("bridges", 1), _copy_of("bridges", 0), "bridges[1].id",
     "duplicate bridge 'br'"),
    ("bridge_from_domain_undeclared", ("bridges", 0, "from_domain"), "d9",
     "bridges[0].from_domain", "undeclared domain 'd9'"),
    ("bridge_to_domain_missing", ("bridges", 0, "to_domain"), DROP, "bridges[0].to_domain",
     MISSING),
    ("bridge_from_asset_undeclared", ("bridges", 0, "from_asset"), "XYZ",
     "bridges[0].from_asset", "undeclared asset 'XYZ'"),
    ("bridge_to_asset_undeclared", ("bridges", 0, "to_asset"), "XYZ", "bridges[0].to_asset",
     "undeclared asset 'XYZ'"),
    ("bridge_rate_missing", ("bridges", 0, "rate"), DROP, "bridges[0].rate", MISSING),
    ("bridge_rate_decimal", ("bridges", 0, "rate"), "0.5", "bridges[0].rate",
     "not a num/den rational: '0.5'"),
    ("bridge_rate_zero_den", ("bridges", 0, "rate"), "1/0", "bridges[0].rate",
     "zero denominator: '1/0'"),
    ("bridge_rate_zero", ("bridges", 0, "rate"), "0/1", "bridges[0].rate",
     "rate must be positive"),
    ("bridge_flat_fee_negative", ("bridges", 0, "flat_fee"), "-0.1", "bridges[0].flat_fee",
     "amount -0.1 below minimum 0"),
    # opportunities
    ("opportunities_not_list", ("opportunities",), {}, "opportunities",
     "expected list, got dict"),
    ("opportunity_not_object", ("opportunities", 0), "op", "opportunities[0]",
     "expected object, got str"),
    ("opportunity_duplicate", ("opportunities", 1), _copy_of("opportunities", 0),
     "opportunities[1].id", "duplicate opportunity 'op'"),
    ("opportunity_beneficiary_undeclared", ("opportunities", 0, "beneficiary"), "Q",
     "opportunities[0].beneficiary", "undeclared player 'Q'"),
    ("opportunity_profit_domain_undeclared", ("opportunities", 0, "profit_domain"), "d9",
     "opportunities[0].profit_domain", "undeclared domain 'd9'"),
    ("opportunity_profit_asset_undeclared", ("opportunities", 0, "profit_asset"), "XYZ",
     "opportunities[0].profit_asset", "undeclared asset 'XYZ'"),
    ("opportunity_legs_missing", ("opportunities", 0, "legs"), DROP,
     "opportunities[0].legs", MISSING),
    ("opportunity_legs_not_list", ("opportunities", 0, "legs"), "leg0",
     "opportunities[0].legs", "expected list, got str"),
    ("opportunity_leg_not_str", ("opportunities", 0, "legs", 0), 0,
     "opportunities[0].legs[0]", "expected string, got int"),
    ("opportunity_one_leg", ("opportunities", 0, "legs"), ["leg0"], "opportunities[0].legs",
     "an opportunity needs at least two legs"),
    ("opportunity_repeated_leg", ("opportunities", 0, "legs"), ["leg0", "leg0"],
     "opportunities[0].legs", "legs must be distinct"),
    ("opportunity_profit_negative", ("opportunities", 0, "declared_profit"), "-1",
     "opportunities[0].declared_profit", "amount -1 below minimum 0"),
    ("opportunity_leg_not_in_mempool", ("opportunities", 0, "legs", 2), "leg2",
     "opportunities[0].legs", "legs not present in the mempool: ['leg2']"),
    # mempool
    ("mempool_not_list", ("mempool",), {}, "mempool", "expected list, got dict"),
    ("mempool_entry_not_object", ("mempool", 0), "push", "mempool[0]",
     "expected object, got str"),
    ("mempool_id_missing", ("mempool", 0, "id"), DROP, "mempool[0].id", MISSING),
    ("mempool_duplicate_id", ("mempool", 1, "id"), "push", "mempool[1].id",
     "duplicate action id 'push'"),
    ("mempool_domain_undeclared", ("mempool", 0, "domain"), "d9", "mempool[0].domain",
     "undeclared domain 'd9'"),
    ("mempool_effect_missing", ("mempool", 0, "effect"), DROP, "mempool[0].effect", MISSING),
    ("mempool_effect_not_object", ("mempool", 0, "effect"), "push", "mempool[0].effect",
     "expected object, got str"),
    ("mempool_effect_type_missing", ("mempool", 0, "effect", "type"), DROP,
     "mempool[0].effect.type", MISSING),
    ("mempool_effect_type_unknown", ("mempool", 0, "effect", "type"), "burn",
     "mempool[0].effect.type", "unknown effect type 'burn'"),
    ("price_push_pool_not_stylized", ("mempool", 0, "effect", "pool"), "cp",
     "mempool[0].effect.pool", "'cp' is not a stylized pool"),
    ("price_push_pool_undeclared", ("mempool", 0, "effect", "pool"), "ghost",
     "mempool[0].effect.pool", "'ghost' is not a stylized pool"),
    ("price_push_pool_other_domain", ("mempool", 0, "effect", "pool"), "m1",
     "mempool[0].effect.pool", "pool 'm1' lives on 'd1'"),
    ("price_push_to_price_missing", ("mempool", 0, "effect", "to_price"), DROP,
     "mempool[0].effect.to_price", MISSING),
    ("cp_swap_pool_not_cp", ("mempool", 1, "effect", "pool"), "m0",
     "mempool[1].effect.pool", "'m0' is not a constant-product pool"),
    ("cp_swap_pool_other_domain", ("mempool", 1, "domain"), "d1",
     "mempool[1].effect.pool", "pool 'cp' lives on 'd0'"),
    ("cp_swap_direction_unknown", ("mempool", 1, "effect", "direction"), "up",
     "mempool[1].effect.direction", "unknown direction 'up'"),
    ("cp_swap_account_undeclared", ("mempool", 1, "effect", "account"), "Q",
     "mempool[1].effect.account", "undeclared player 'Q'"),
    ("cp_swap_amount_in_missing", ("mempool", 1, "effect", "amount_in"), DROP,
     "mempool[1].effect.amount_in", MISSING),
    ("transfer_from_undeclared", ("mempool", 2, "effect", "from_account"), "Q",
     "mempool[2].effect.from_account", "undeclared player 'Q'"),
    ("transfer_to_missing", ("mempool", 2, "effect", "to_account"), DROP,
     "mempool[2].effect.to_account", MISSING),
    ("transfer_to_undeclared", ("mempool", 2, "effect", "to_account"), "Q",
     "mempool[2].effect.to_account", "undeclared player 'Q'"),
    ("transfer_asset_undeclared", ("mempool", 2, "effect", "asset"), "XYZ",
     "mempool[2].effect.asset", "undeclared asset 'XYZ'"),
    ("transfer_amount_negative", ("mempool", 2, "effect", "amount"), "-1",
     "mempool[2].effect.amount", "amount -1 below minimum 0"),
    ("arb_leg_pool_not_stylized", ("mempool", 3, "effect", "pool"), "cp",
     "mempool[3].effect.pool", "'cp' is not a stylized pool"),
    ("arb_leg_opportunity_undeclared", ("mempool", 3, "effect", "opportunity"), "nope",
     "mempool[3].effect.opportunity", "undeclared opportunity 'nope'"),
    ("arb_leg_not_a_declared_leg", ("mempool", 3, "id"), "leg9",
     "mempool[3].effect.opportunity", "tx 'leg9' is not a declared leg of 'op'"),
    ("arb_leg_from_price_missing", ("mempool", 3, "effect", "from_price"), DROP,
     "mempool[3].effect.from_price", MISSING),
    ("arb_leg_to_price_malformed", ("mempool", 3, "effect", "to_price"), "x",
     "mempool[3].effect.to_price", "not a decimal amount: 'x'"),
    # stylized_arbs
    ("stylized_arbs_not_list", ("stylized_arbs",), "sa", "stylized_arbs",
     "expected list, got str"),
    ("stylized_arb_not_object", ("stylized_arbs", 0), 0, "stylized_arbs[0]",
     "expected object, got int"),
    ("stylized_arb_duplicate", ("stylized_arbs", 1), _copy_of("stylized_arbs", 0),
     "stylized_arbs[1].id", "duplicate stylized arb 'sa'"),
    ("stylized_arb_pool_a_not_stylized", ("stylized_arbs", 0, "pool_a"), "cp",
     "stylized_arbs[0].pool_a", "'cp' is not a stylized pool"),
    ("stylized_arb_pool_b_undeclared", ("stylized_arbs", 0, "pool_b"), "ghost",
     "stylized_arbs[0].pool_b", "'ghost' is not a stylized pool"),
    ("stylized_arb_same_pool", ("stylized_arbs", 0, "pool_b"), "m0",
     "stylized_arbs[0].pool_b", "pools must differ"),
    ("stylized_arb_pair_mismatch", ("pools", 2, "asset_y"), "SLV",
     "stylized_arbs[0].pool_b", "pools must share the same asset pair"),
    ("stylized_arb_profit_domain_undeclared", ("stylized_arbs", 0, "profit_domain"), "d9",
     "stylized_arbs[0].profit_domain", "undeclared domain 'd9'"),
    ("stylized_arb_profit_asset_undeclared", ("stylized_arbs", 0, "profit_asset"), "XYZ",
     "stylized_arbs[0].profit_asset", "undeclared asset 'XYZ'"),
    ("stylized_arb_profit_missing", ("stylized_arbs", 0, "declared_profit"), DROP,
     "stylized_arbs[0].declared_profit", MISSING),
    # actions
    ("actions_not_list", ("actions",), {}, "actions", "expected list, got dict"),
    ("action_not_object", ("actions", 0), "swap", "actions[0]", "expected object, got str"),
    ("action_id_shared_with_mempool", ("actions", 0, "id"), "push", "actions[0].id",
     "duplicate action id 'push'"),
    ("action_player_undeclared", ("actions", 0, "player"), "Q", "actions[0].player",
     "undeclared player 'Q'"),
    ("action_kind_missing", ("actions", 0, "kind"), DROP, "actions[0].kind", MISSING),
    ("action_kind_pending", ("actions", 0, "kind"), "ExecutePendingTx", "actions[0].kind",
     "pending transactions belong in the mempool"),
    ("action_kind_unknown", ("actions", 0, "kind"), "Fly", "actions[0].kind",
     "unknown action kind 'Fly'"),
    ("action_fixed_malformed", ("actions", 0, "amount", "fixed"), "x",
     "actions[0].amount.fixed", "not a decimal amount: 'x'"),
    ("action_fixed_number", ("actions", 0, "amount", "fixed"), 1,
     "actions[0].amount.fixed", "expected string, got int"),
    ("action_fixed_zero", ("actions", 0, "amount", "fixed"), "0",
     "actions[0].amount.fixed", "fixed amount must be positive"),
    ("action_interval_not_list", ("actions", 1, "amount", "interval"), "0-5",
     "actions[1].amount.interval", "expected list, got str"),
    ("action_interval_one_bound", ("actions", 1, "amount", "interval"), ["0"],
     "actions[1].amount.interval", "interval needs [lo, hi]"),
    ("action_interval_lo_negative", ("actions", 1, "amount", "interval", 0), "-1",
     "actions[1].amount.interval[0]", "amount -1 below minimum 0"),
    ("action_interval_hi_malformed", ("actions", 1, "amount", "interval", 1), "x",
     "actions[1].amount.interval[1]", "not a decimal amount: 'x'"),
    ("action_interval_empty", ("actions", 1, "amount", "interval"), ["5", "5"],
     "actions[1].amount.interval[1]", "hi must exceed lo"),
    ("action_amount_mode_unknown", ("actions", 0, "amount"), "some", "actions[0].amount",
     'expected "all", {"fixed": ...} or {"interval": [lo, hi]}'),
    ("action_amount_mode_two_keys", ("actions", 0, "amount"),
     {"fixed": "1", "interval": ["0", "1"]}, "actions[0].amount",
     'expected "all", {"fixed": ...} or {"interval": [lo, hi]}'),
    ("swap_pool_missing", ("actions", 0, "pool"), DROP, "actions[0].pool", MISSING),
    ("swap_pool_undeclared", ("actions", 0, "pool"), "ghost", "actions[0].pool",
     "undeclared pool 'ghost'"),
    ("swap_direction_unknown", ("actions", 0, "direction"), "up", "actions[0].direction",
     "unknown direction 'up'"),
    ("swap_amount_missing", ("actions", 0, "amount"), DROP, "actions[0].amount",
     "swap actions need an amount mode"),
    ("swap_amount_null", ("actions", 0, "amount"), None, "actions[0].amount",
     "swap actions need an amount mode"),
    ("bridge_action_undeclared", ("actions", 2, "bridge"), "ghost", "actions[2].bridge",
     "undeclared bridge 'ghost'"),
    ("bridge_action_amount_missing", ("actions", 2, "amount"), DROP, "actions[2].amount",
     "bridge actions need an amount mode"),
    ("arb_action_amount_given", ("actions", 3, "amount"), "all", "actions[3].amount",
     "stylized arbs take no amount"),
    ("arb_action_undeclared", ("actions", 3, "arb"), "ghost", "actions[3].arb",
     "undeclared stylized arb 'ghost'"),
    ("action_capability_missing", ("players", 0, "capabilities", 1, "kinds"),
     ["ExecutePendingTx"], "actions[2].kind", "player 'P' lacks Bridge capability on 'd1'"),
    # prices
    ("prices_not_list", ("prices",), {}, "prices", "expected list, got dict"),
    ("price_not_object", ("prices", 0), "GLD/SLV", "prices[0]", "expected object, got str"),
    ("price_from_missing", ("prices", 0, "from"), DROP, "prices[0].from", MISSING),
    ("price_from_undeclared", ("prices", 0, "from"), "XYZ", "prices[0].from",
     "undeclared asset 'XYZ'"),
    ("price_to_undeclared", ("prices", 0, "to"), "XYZ", "prices[0].to",
     "undeclared asset 'XYZ'"),
    ("price_pair_both_strings", ("prices", 0), {"from": "XYZ", "to": 1, "rate": "2/1"},
     "prices[0].to", "expected string, got int"),
    ("price_rate_missing", ("prices", 0, "rate"), DROP, "prices[0].rate",
     "missing required field"),
    ("price_rate_malformed", ("prices", 0, "rate"), "2", "prices[0].rate",
     "not a num/den rational: '2'"),
    ("price_rate_zero", ("prices", 0, "rate"), "0/1", "prices[0].rate",
     "rate must be positive"),
    ("price_reciprocity", ("prices", 2), {"from": "SLV", "to": "GLD", "rate": "1/3"},
     "prices[2].rate", "prices(SLV->GLD): reciprocity violated for pair (SLV, GLD): "
     "rate 1/3 is not the inverse of rate(GLD->SLV) = 2"),
    ("price_diagonal", ("prices", 2), {"from": "GLD", "to": "GLD", "rate": "2/1"},
     "prices[2].rate", "prices(GLD->GLD): diagonal rates are structurally 1"),
    ("price_native_rate_missing", ("prices", 0), DROP, "prices",
     "no rate from native asset 'SLV' of domain 'd1' to base asset 'GLD'"),
    # defaults
    ("defaults_missing", ("defaults",), DROP, "document.defaults", MISSING),
    ("defaults_not_object", ("defaults",), [], "defaults", "expected object, got list"),
    ("defaults_player_missing", ("defaults", "player"), DROP, "defaults.player", MISSING),
    ("defaults_player_undeclared", ("defaults", "player"), "Q", "defaults.player",
     "undeclared player 'Q'"),
    ("defaults_base_domain_undeclared", ("defaults", "base_domain"), "d9",
     "defaults.base_domain", "undeclared domain 'd9'"),
    ("defaults_base_asset_number", ("defaults", "base_asset"), 1, "defaults.base_asset",
     "expected string, got int"),
    ("defaults_base_asset_undeclared", ("defaults", "base_asset"), "XYZ",
     "defaults.base_asset", "undeclared asset 'XYZ'"),
    ("defaults_max_len_str", ("defaults", "max_sequence_length"), "4",
     "defaults.max_sequence_length", "expected integer, got str"),
    ("defaults_max_len_negative", ("defaults", "max_sequence_length"), -1,
     "defaults.max_sequence_length", "must be >= 0"),
    ("defaults_alpha_negative", ("defaults", "alpha"), "-1", "defaults.alpha",
     "amount -1 below minimum 0"),
    ("defaults_action_domains_not_list", ("defaults", "action_domains"), "d0",
     "defaults.action_domains", "expected list, got str"),
    ("defaults_action_domain_not_str", ("defaults", "action_domains", 0), 0,
     "defaults.action_domains[0]", "expected string, got int"),
    ("defaults_action_domain_undeclared", ("defaults", "action_domains", 1), "d9",
     "defaults.action_domains[1]", "undeclared domain 'd9'"),
    ("defaults_value_domain_repeated", ("defaults", "value_domains", 1), "d0",
     "defaults.value_domains[1]", "repeated domain 'd0'"),
    ("defaults_value_domains_empty", ("defaults", "value_domains"), [],
     "defaults.value_domains", "must be nonempty"),
    # unknown fields, in every section and variant
    ("pool_field_typo", ("pools", 0, "fee_bsp"), 30, "pools[0].fee_bsp", "unknown field"),
    ("stylized_pool_fee_bps", ("pools", 1, "fee_bps"), 30, "pools[1].fee_bps", "unknown field"),
    ("pool_unknown_fields_sorted", ("pools", 1), dict(_copy_of("pools", 1), zeta=1, alpha=2),
     "pools[1].alpha", "unknown field"),
    ("effect_extra_field", ("mempool", 0, "effect", "amount_in"), "1",
     "mempool[0].effect.amount_in", "unknown field"),
    ("arb_action_pool", ("actions", 3, "pool"), "cp", "actions[3].pool", "unknown field"),
    ("balance_extra_field", ("players", 0, "balances", 0, "note"), "x",
     "players[0].balances[0].note", "unknown field"),
    ("defaults_extra_field", ("defaults", "base"), "d0", "defaults.base", "unknown field"),
]


class TestRejections:
    """One single-fault mutation of ``full_doc`` per loader rejection: each
    pins the exact offending field and the exact message."""

    def test_full_doc_loads(self):
        scenario = scen(full_doc())
        assert serialize_scenario(loads(serialize_scenario(scenario))) == serialize_scenario(
            scenario
        )

    @pytest.mark.parametrize(
        "path, value, field, message",
        [case[1:] for case in REJECTIONS],
        ids=[case[0] for case in REJECTIONS],
    )
    def test_rejection(self, path, value, field, message):
        with pytest.raises(ValidationError) as err:
            loads(json.dumps(_mutated(path, value)))
        assert err.value.field == field
        assert str(err.value) == f"{field}: {message}"


@pytest.mark.parametrize("doc, path, value, field, message", [
    (lambda: json.loads(bundled_path("cp_arbitrage_small").read_text(encoding="utf-8")),
     ("pools", 0, "reserve_x"), "1" * 5000, "pools[0].reserve_x",
     "more than 4300 digits in the integer part"),
    (full_doc, ("bridges", 0, "rate"), "1" * 5000 + "/1", "bridges[0].rate",
     "more than 4300 digits in the numerator"),
], ids=["amount", "rate"])
def test_number_past_the_digit_limit_names_its_field(
    capsys, tmp_path, doc, path, value, field, message
):
    # the interpreter's own message would tell the author to call
    # ``sys.set_int_max_str_digits``; the schema's names the field and the limit
    from xdmev import cli

    raw = doc()
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ValidationError) as err:
        loads(json.dumps(raw))
    assert (err.value.field, str(err.value)) == (field, f"{field}: {message}")
    document = tmp_path / "long.json"
    document.write_text(json.dumps(raw))
    assert cli.main(["validate", "--scenario", str(document)]) == 2
    assert capsys.readouterr().err == f"error: {field}: {message}\n"


# -- rejections generated from the schema tables ------------------------------------

_POOL_TYPES = {ConstantProductPool: "constant-product", StylizedMidpointPool: "stylized"}


def _objects(value, table, path: str, keys: tuple):
    """(keys, path, table, tag) of every object of the document ``value`` that
    the schema reads: ``keys`` reach it, ``path`` names it in errors, and
    ``tag`` is the field that picked its variant."""
    tag = None
    if table.variants is not None:
        tag = table.tag[0]
        table = table.variants[value[tag]]
    yield keys, path, table, tag
    for name, kind, _, _, _ in table.rows:
        where = name if path == "document" else f"{path}.{name}"
        if name not in value:
            continue
        if kind[0] is schema._section:
            yield from _objects(value[name], kind[1], where, keys + (name,))
        elif kind[0] is schema._list and kind[1][0] is schema._section:
            for i, entry in enumerate(value[name]):
                yield from _objects(entry, kind[1][1], f"{where}[{i}]", keys + (name, i))


def generated_rejections() -> list:
    """(case id, path, new value, field, message) for every required field of
    ``full_doc()`` dropped, every amount or rate field given as a JSON number,
    and every reference field naming an undeclared id."""
    doc, cases = full_doc(), []
    for keys, path, table, tag in _objects(doc, schema._DOCUMENT, "document", ()):
        obj = doc
        for key in keys:
            obj = obj[key]
        for name, kind, default, _, _ in table.rows + ((tag, None, schema.REQUIRED, None, None),):
            if name is None or name not in obj:
                continue
            where = name if path == "document" else f"{path}.{name}"
            if default is schema.REQUIRED:
                cases.append((f"missing:{where}", keys + (name,), DROP, f"{path}.{name}", MISSING))
            if kind and kind[0] is schema._number:
                cases.append((f"number:{where}", keys + (name,), 5, where,
                              "expected string, got int"))
            refs = [(keys + (name,), where, kind)] if kind and kind[0] is schema._ref else []
            if kind and kind[0] is schema._list and kind[1][0] is schema._ref:
                refs.append((keys + (name, 0), f"{where}[0]", kind[1]))
            for ref_keys, ref_where, ref in refs:
                message = f"undeclared {ref[1]} 'ghost'"
                if ref[3] is not None:
                    message = f"'ghost' is not a {_POOL_TYPES[ref[3]]} pool"
                cases.append((f"undeclared:{ref_where}", ref_keys, "ghost", ref_where, message))
    return cases


GENERATED = generated_rejections()


def test_generated_rejections_cover_every_kind():
    kinds = {case[0].split(":")[0] for case in GENERATED}
    assert kinds == {"missing", "number", "undeclared"}
    assert len(GENERATED) == len({case[0] for case in GENERATED})


@pytest.mark.parametrize(
    "path, value, field, message", [case[1:] for case in GENERATED],
    ids=[case[0] for case in GENERATED],
)
def test_generated_rejection(path, value, field, message):
    with pytest.raises(ValidationError) as err:
        loads(json.dumps(_mutated(path, value)))
    assert err.value.field == field
    assert str(err.value) == f"{field}: {message}"
