"""CLI surface: flags, reports, exit codes, and output determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import deep_tips_doc, one_domain_doc
from xdmev import cli
from xdmev.errors import ExplosionGuard
from xdmev.scenario import BUNDLED_NAMES, bundled_path


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMevCommand:
    def test_two_amm_joint_query(self, capsys):
        code, out, _ = run_cli(
            capsys, "mev", "--scenario", "section3_2amm",
            "--action-domains", "i,j", "--value-domains", "i,j",
        )
        assert code == 0
        assert "value: 1 ETH" in out
        assert "tx_buy_eth" in out and "arb_uni_toro" in out

    def test_two_amm_solo_query_is_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "mev", "--scenario", "section3_2amm",
            "--action-domains", "i", "--value-domains", "i",
        )
        assert code == 0
        assert "value: 0 ETH" in out

    def test_foreign_actions_cannot_move_home_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "mev", "--scenario", "separable_pair",
            "--action-domains", "d2", "--value-domains", "d1",
        )
        assert code == 0
        assert "value: 0 GLD" in out

    def test_json_report_contains_all_numbers(self, capsys):
        code, out, _ = run_cli(
            capsys, "mev", "--scenario", "section3_2amm", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["value"] == "1"
        assert [w["action"] for w in report["result"]["witness"]] == [
            "tx_buy_eth", "arb_uni_toro"
        ]
        assert report["result"]["witness"][1]["deltas"] == {"i": {"ETH": "+1"}}

    def test_defaults_make_scenario_alone_runnable(self, capsys):
        code, out, _ = run_cli(capsys, "mev", "--scenario", "figure2_3domain")
        assert code == 0
        assert "value: 0.20475 ETH" in out

    def test_base_and_maxlen_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "mev", "--scenario", "section3_2amm",
            "--base", "j:ETH", "--max-len", "1",
        )
        assert code == 0
        assert "value: 0 ETH" in out  # the rebalance needs two steps

    def test_missing_scenario_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "mev", "--scenario", "/nope/none.json")
        assert code == 2
        assert "error" in err

    def test_bad_domain_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "mev", "--scenario", "section3_2amm", "--action-domains", "zz",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (("mev", "--action-domains", ","), "--action-domains", "','"),
            (("mev", "--value-domains", " , "), "--value-domains", "' , '"),
            (("collusion", "--domains", ","), "--domains", "','"),
            (("mev", "--action-domains", ""), "--action-domains", "''"),
            (("mev", "--value-domains", ""), "--value-domains", "''"),
            (("collusion", "--domains", ""), "--domains", "''"),
        ],
        ids=[
            "action_domains", "value_domains", "collusion_domains",
            "action_domains_empty", "value_domains_empty", "collusion_domains_empty",
        ],
    )
    def test_empty_csv_names_its_flag(self, capsys, argv, flag, text):
        command, *flags = argv
        code, out, err = run_cli(capsys, command, "--scenario", "section3_2amm", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: {flag}: expected a csv of domain ids, got {text}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("mev", "--player", ""), "unknown player ''"),
            (("mev", "--base", ""), "--base: expected domain:asset, got ''"),
            (("collusion", "--player", ""), "unknown player ''"),
        ],
        ids=["mev_player", "mev_base", "collusion_player"],
    )
    def test_empty_value_is_not_the_default(self, capsys, argv, message):
        # an empty flag value is a value: it is rejected, not read as absent
        command, *flags = argv
        code, out, err = run_cli(capsys, command, "--scenario", "section3_2amm", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_explosion_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ExplosionGuard("too many candidates")

        monkeypatch.setattr(cli, "mev", boom)
        code, _, err = run_cli(capsys, "mev", "--scenario", "section3_2amm")
        assert code == 3
        assert "too many" in err


class TestCollusionCommand:
    def test_four_amm_profitable(self, capsys):
        code, out, _ = run_cli(
            capsys, "collusion", "--scenario", "appendix_b_4amm", "--alpha", "0",
        )
        assert code == 0
        assert "verdict: Profitable" in out
        assert "margin: 0.6" in out
        assert "breakeven alpha: 0.6" in out

    def test_two_amm_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "collusion", "--scenario", "section3_2amm", "--alpha", "1",
        )
        assert code == 0
        assert "verdict: Indifferent" in out

    def test_two_amm_expensive(self, capsys):
        code, out, _ = run_cli(
            capsys, "collusion", "--scenario", "section3_2amm", "--alpha", "2",
        )
        assert code == 0
        assert "verdict: Unprofitable" in out
        assert "margin: -1" in out

    def test_json_variant(self, capsys):
        code, out, _ = run_cli(
            capsys, "collusion", "--scenario", "section3_2amm",
            "--alpha", "0", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["verdict"] == "Profitable"
        assert report["result"]["solo_values"] == {"i": "0", "j": "0"}
        assert report["result"]["breakeven_alpha"] == "1"

    def test_max_len_zero_is_honoured(self, capsys):
        code, out, _ = run_cli(
            capsys, "collusion", "--scenario", "section3_2amm",
            "--max-len", "0", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["query"]["max_sequence_length"] == 0
        assert report["result"]["joint_value"] == "0"
        assert report["result"]["verdict"] == "Indifferent"

    def test_malformed_alpha_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "collusion", "--scenario", "section3_2amm", "--alpha", "abc",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --alpha: not a decimal amount: 'abc'\n"


class TestOracleCheckCommand:
    def test_discrete_scenario_agrees_exactly(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--scenario", "figure2_3domain",
        )
        assert code == 0
        assert "agree: yes" in out

    def test_coarse_grid_lower_bounds_and_exits_4(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--scenario", "cp_arbitrage_small",
            "--grid-points", "11", "--format", "json",
        )
        assert code == 4
        report = json.loads(out)
        engine = report["result"]["engine_value"]
        oracle = report["result"]["oracle_value"]
        assert float(oracle) <= float(engine)
        assert "grid" in report["result"]["note"]

    def test_fine_grid_agrees_within_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--scenario", "cp_arbitrage_small",
            "--grid-points", "100001",
        )
        assert code == 0
        assert "agree: yes" in out


    @pytest.mark.parametrize("points", ["1", "0", "-5"])
    @pytest.mark.parametrize("name", ["section3_2amm", "cp_arbitrage_small"])
    def test_grid_below_two_points_exits_2(self, capsys, name, points):
        # refused on a discrete scenario as on a parametric one
        code, out, err = run_cli(
            capsys, "oracle-check", "--scenario", name, "--grid-points", points,
        )
        assert (code, out, err) == (2, "", "error: grid needs at least 2 points\n")


class TestValidateCommand:
    def test_bundled_are_valid(self, capsys):
        for name in ("section3_2amm", "appendix_b_4amm", "cp_arbitrage_small"):
            code, out, _ = run_cli(capsys, "validate", "--scenario", name)
            assert code == 0
            assert "valid" in out

    def test_reciprocity_violation_exits_2(self, capsys, tmp_path):
        doc = one_domain_doc()
        doc["prices"] = [
            {"from": "AAA", "to": "GLD", "rate": "2/1"},
            {"from": "GLD", "to": "AAA", "rate": "6/10"},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert code == 2
        assert "AAA" in err and "GLD" in err

    def test_dangling_pool_exits_2(self, capsys, tmp_path):
        doc = one_domain_doc()
        doc["actions"] = [
            {"id": "a", "player": "P", "kind": "Swap", "pool": "ghost",
             "direction": "x_to_y", "amount": {"fixed": "1"}},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert code == 2
        assert "ghost" in err

    def test_directory_path_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate", "--scenario", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"assets": ["caf\xe9"]}')  # latin-1, not UTF-8
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: not UTF-8 text") and err.count("\n") == 1


    @pytest.mark.parametrize("command", ["validate", "mev"])
    @pytest.mark.parametrize("text", [
        "[" * 1000 + "]" * 1000,  # nested past the interpreter's recursion limit
        '{"schema_version": ' + "1" * 4301 + "}",  # past the int conversion digit limit
    ], ids=["deep_nesting", "long_integer"])
    def test_hostile_document_exits_2(self, capsys, tmp_path, command, text):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed document: ") and err.count("\n") == 1


class TestSearchLimits:
    """Inputs past the search's numeric or nesting range exit with one error line."""

    HUGE = "1" + "0" * 400

    def overflow_doc(self, hi: str) -> dict:
        """``cp_arbitrage_small`` with ``buy_pool_a``'s interval and P's DAI
        balance both raised to ``hi``."""
        doc = json.loads(bundled_path("cp_arbitrage_small").read_text(encoding="utf-8"))
        doc["players"][0]["balances"][0]["amount"] = hi
        (buy,) = [a for a in doc["actions"] if a["id"] == "buy_pool_a"]
        buy["amount"]["interval"][1] = hi
        return doc

    @pytest.mark.parametrize("command", ["mev", "oracle-check"])
    def test_parametric_range_past_float_range_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(self.overflow_doc(self.HUGE)))
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: action 'buy_pool_a': amount range reaches past ")
        assert err.count("\n") == 1

    def test_parametric_range_inside_float_range_is_sized(self, capsys, tmp_path):
        # 10**250 units still converts to a float: golden-section sizes it
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(self.overflow_doc("1" + "0" * 232)))
        code, out, err = run_cli(capsys, "mev", "--scenario", str(path), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["method"] == "golden-section"

    def test_interval_narrower_than_a_float_step_is_sized(self, tmp_path):
        # 10**21 units and up, [1000, 1000.1] is a few float ulps wide: the
        # golden-section bracket stops shrinking above its tolerance and
        # used to cycle forever
        doc = one_domain_doc()
        doc["domains"] = [{"id": "d0", "native_asset": "USD"}]
        doc["assets"] = ["ETH", "USD"]
        doc["players"][0]["balances"] = [{"domain": "d0", "asset": "USD", "amount": "5000"}]
        doc["pools"] = [{"id": "cp", "type": "constant_product", "domain": "d0",
                         "asset_x": "ETH", "asset_y": "USD",
                         "reserve_x": "1000", "reserve_y": "2000000"}]
        doc["actions"] = [{"id": "buy", "player": "P", "kind": "Swap", "pool": "cp",
                           "direction": "y_to_x", "amount": {"interval": ["1000", "1000.1"]}}]
        doc["defaults"].update(base_asset="USD", max_sequence_length=1)
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "xdmev.cli", "mev", "--scenario", str(path)],
            capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "method: golden-section" in proc.stdout
        assert "value: 0 USD" in proc.stdout

    @pytest.mark.parametrize("command", ["mev", "oracle-check"])
    def test_document_nested_past_the_recursion_limit_exits_3(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(deep_tips_doc(1200)))
        started = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert time.perf_counter() - started < 30
        assert (code, out) == (3, "")
        assert err.startswith("error: search nesting exceeded the interpreter's recursion limit")
        assert err.count("\n") == 1


class TestWitnessRendering:
    def test_pending_cp_swap_and_transfer_params(self, capsys, tmp_path):
        # a whale's pending swap lifts GLD's price for P's sell, and a pending
        # transfer hands P GLD: the witness runs both
        doc = one_domain_doc()
        doc["players"][0]["balances"] = [{"domain": "d0", "asset": "AAA", "amount": "10"}]
        doc["players"].append({"id": "whale", "capabilities": [], "balances": [
            {"domain": "d0", "asset": "GLD", "amount": "500"}]})
        doc["pools"] = [{"id": "cp", "type": "constant_product", "domain": "d0",
                         "asset_x": "AAA", "asset_y": "GLD",
                         "reserve_x": "100", "reserve_y": "2000"}]
        doc["mempool"] = [
            {"id": "whale_buy", "domain": "d0",
             "effect": {"type": "cp_swap", "pool": "cp", "direction": "y_to_x",
                        "amount_in": "400", "account": "whale"}},
            {"id": "gift", "domain": "d0",
             "effect": {"type": "transfer", "from_account": "whale", "to_account": "P",
                        "asset": "GLD", "amount": "5"}},
        ]
        doc["actions"] = [{"id": "sell", "player": "P", "kind": "Swap", "pool": "cp",
                           "direction": "x_to_y", "amount": {"fixed": "10"}}]
        path = tmp_path / "pending.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "mev", "--scenario", str(path), "--format", "json")
        assert code == 0
        params = {step["action"]: step["params"] for step in json.loads(out)["result"]["witness"]}
        assert params == {
            "gift": "pending transfer 5 GLD whale->P",
            "whale_buy": "pending cp_swap cp y_to_x 400",
            "sell": "swap cp x_to_y",
        }

    def test_bridge_sweep_shows_the_swept_amount(self, capsys, tmp_path):
        # P bridges the 5 WETH it holds plus the 116.97 the uniswap swap buys
        doc = json.loads(bundled_path("figure1_bridge").read_text(encoding="utf-8"))
        doc["players"][0]["balances"].append(
            {"domain": "ethereum", "asset": "WETH", "amount": "5"})
        doc["bridges"][0].update(rate="99/100", flat_fee="1")
        for action in doc["actions"]:
            if action["id"] == "move_weth":
                action["amount"] = "all"
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "mev", "--scenario", str(path), "--format", "json")
        assert code == 0
        steps = {step["action"]: step for step in json.loads(out)["result"]["witness"]}
        move = steps["move_weth"]
        assert (move["amount"], move["resolved_amount"]) == (None, "121.97")
        assert move["deltas"] == {"ethereum": {"WETH": "-121.97"}, "polygon": {"WETH": "+119.7503"}}


class TestDeterminism:
    """Byte-identical machine-readable output across repeated runs."""

    COMMANDS = (
        ("mev", "--scenario", "section3_2amm", "--format", "json"),
        ("mev", "--scenario", "appendix_b_4amm", "--format", "json"),
        ("collusion", "--scenario", "appendix_b_4amm", "--alpha", "0.5", "--format", "json"),
        ("oracle-check", "--scenario", "separable_pair", "--format", "json"),
        ("oracle-check", "--scenario", "cp_arbitrage_small",
         "--grid-points", "1001", "--format", "json"),
    )

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: f"{argv[0]}:{argv[2]}")
    def test_thread_count_invariant_bytes(self, argv):
        # named for the removed thread pool; the id is kept stable.
        # The 1001-point grid lower-bounds cp_arbitrage_small's optimum by
        # more than the tolerance, so that check reports a disagreement.
        expected = cli.EXIT_DISAGREE if argv[2] == "cp_arbitrage_small" else cli.EXIT_OK
        outputs = []
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "xdmev.cli", *argv], capture_output=True
            )
            assert proc.returncode == expected, proc.stderr.decode()
            assert proc.stdout
            outputs.append((proc.returncode, proc.stdout))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_undeclared_domain_error_is_seed_independent(self):
        # the query check names the first undeclared domain in sorted order,
        # not the first one a frozenset's hash order yields
        argv = ("mev", "--scenario", "figure2_3domain", "--action-domains", "zz1,zz2,zz3")
        errors = set()
        for seed in ("1", "5"):
            proc = subprocess.run(
                [sys.executable, "-m", "xdmev.cli", *argv], capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 2, proc.stderr
            errors.add(proc.stderr)
        assert errors == {"error: unknown domain 'zz1'\n"}

    # the bundled commands a benchmark round runs: ``mev`` on every scenario,
    # ``collusion`` with two or more value domains, ``oracle-check`` when no
    # action is parametric; one line per command with its stdout's sha256
    BUNDLED_DIGESTS = """
import contextlib, hashlib, io
from xdmev import cli
from xdmev.scenario import BUNDLED_NAMES, load_bundled

for name in BUNDLED_NAMES:
    sc = load_bundled(name)
    commands = ["mev"]
    if len(sc.defaults.value_domains) >= 2:
        commands.append("collusion")
    if not any(a.parametric for p in sc.space.players() for a in sc.space.for_player(p)):
        commands.append("oracle-check")
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "--scenario", name, "--format", "json"])
        print(name, command, code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""

    def test_bundled_output_bytes_are_seed_independent(self):
        # sets of states iterate in hash order; no output byte may follow it
        digests = []
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-c", self.BUNDLED_DIGESTS], capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.splitlines())
        assert len(digests[0]) >= 2 * len(BUNDLED_NAMES)
        assert all(line.split()[2] == "0" for line in digests[0])
        assert digests[0] == digests[1]


class TestParserReuse:
    """``main`` reuses one parser per process; no option outlives its call."""

    SEQUENCE = (
        ("mev", "--scenario", "cp_arbitrage_small", "--max-len", "1", "--format", "json"),
        ("mev", "--scenario", "cp_arbitrage_small", "--format", "json"),
        ("collusion", "--scenario", "figure1_bridge", "--alpha", "5"),
        ("mev", "--scenario", "section3_2amm", "--max-len", "x"),
        ("oracle-check", "--scenario", "section3_2amm"),
    )

    def test_back_to_back_calls_match_fresh_processes(self, capsys):
        for argv in self.SEQUENCE:
            if "x" in argv:
                with pytest.raises(SystemExit) as info:
                    cli.main(list(argv))
                code = info.value.code
                assert code == 2
            else:
                code = cli.main(list(argv))
            out = capsys.readouterr().out
            fresh = subprocess.run(
                [sys.executable, "-m", "xdmev.cli", *argv], capture_output=True, text=True
            )
            assert (code, out) == (fresh.returncode, fresh.stdout), argv

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
