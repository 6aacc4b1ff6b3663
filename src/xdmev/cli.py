"""Command-line front end.

Subcommands: ``mev`` (run a value query), ``collusion`` (classify a
coalition), ``oracle-check`` (engine vs. brute-force cross-check),
``validate`` (schema check only). Reports go to stdout, diagnostics to
stderr. Exit codes: 0 success, 2 validation/parse failure, unreadable
scenario file or an amount range past float range, 3 search explosion
(work cap or nesting depth), 4 oracle disagreement.

Machine-readable output is deterministic: sorted keys, decimal strings,
no timestamps; identical invocations produce identical bytes.

``explored`` (``engine_explored`` in ``oracle-check``) is the number of
search nodes ``mev`` expanded: memo misses on (state, used action ids),
the initial state included, plus parametric shape evaluations. The
query's ``candidate_cap`` bounds that count; exceeding it exits 3.
``oracle_explored`` is the oracle's count instead: 1 for the empty
sequence plus every grid application it attempted, failed ones included
(a failed application extends no sequence, but it is counted).

``main`` builds its argument parser on its first call and reuses it for
every later call in the same process, so in-process callers pay for the
parser tree once; ``build_parser`` still returns a fresh parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .actions import KIND_ARB, KIND_BRIDGE, KIND_PENDING, KIND_SWAP, apply_action, resolve_amount
from .collusion import classify_collusion
from .engine import MevQuery, _usable_actions, mev, mev_oracle
from .errors import ExplosionGuard, ValidationError, XdmevError
from .fixedpoint import Amount, format_units
from .scenario import BUNDLED_NAMES, Scenario, bundled_path, load_path
from .venues import ArbLegEffect, CpSwapEffect, PricePushEffect, TransferEffect

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EXPLOSION = 3
EXIT_DISAGREE = 4

ORACLE_TOLERANCE = Amount("0.000001")


def _resolve_scenario(arg: str) -> Path:
    if arg in BUNDLED_NAMES:
        return bundled_path(arg)
    return Path(arg)


def _load(arg: str) -> Scenario:
    return load_path(_resolve_scenario(arg))


def _parse_base(text: str) -> tuple[str, str]:
    domain, sep, asset = text.partition(":")
    if not sep or not domain or not asset:
        raise ValidationError("--base", f"expected domain:asset, got {text!r}")
    return domain, asset


def _parse_alpha(text: str) -> Amount:
    try:
        return Amount(text)
    except ValueError as exc:
        raise ValidationError("--alpha", str(exc)) from None


def _csv(text: str | None, flag: str) -> tuple[str, ...] | None:
    if text is None:
        return None
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts:
        raise ValidationError(flag, f"expected a csv of domain ids, got {text!r}")
    return parts


def _build_query(scenario: Scenario, args) -> MevQuery:
    base_domain = base_asset = None
    if args.base is not None:
        base_domain, base_asset = _parse_base(args.base)
    return scenario.default_query(
        player=args.player,
        action_domains=_csv(args.action_domains, "--action-domains"),
        value_domains=_csv(args.value_domains, "--value-domains"),
        base_domain=base_domain,
        base_asset=base_asset,
        max_len=args.max_len,
    )


# -- witness rendering ----------------------------------------------------------


def _action_params(scenario: Scenario, action) -> str:
    t = action.target
    if action.kind == KIND_SWAP:
        return f"swap {t.id} {action.direction}"
    if action.kind == KIND_BRIDGE:
        return f"bridge {t.id} {t.from_domain}->{t.to_domain} ({t.from_asset}->{t.to_asset})"
    if action.kind == KIND_ARB:
        return f"rebalance {t.pool_a}/{t.pool_b} profit {t.declared_profit} {t.profit_asset}"
    if action.kind == KIND_PENDING:
        effect = t.effect
        if isinstance(effect, PricePushEffect):
            return f"pending price_push {effect.pool_id} -> {effect.to_price}"
        if isinstance(effect, CpSwapEffect):
            return f"pending cp_swap {effect.pool_id} {effect.direction} {effect.amount_in}"
        if isinstance(effect, TransferEffect):
            return (
                f"pending transfer {effect.amount} {effect.asset} "
                f"{effect.from_account}->{effect.to_account}"
            )
        if isinstance(effect, ArbLegEffect):
            return (
                f"pending arb_leg {effect.pool_id} {effect.from_price}->{effect.to_price} "
                f"({effect.opportunity.id})"
            )
    return action.kind


def _witness_steps(scenario: Scenario, player: str, state, witness) -> list[dict]:
    steps = []
    current = state
    for index, (action_id, amount) in enumerate(witness, start=1):
        action = scenario.space.lookup(player, action_id)
        units = None if amount is None else amount.units
        resolved = resolve_amount(current, player, action) if units is None else units
        nxt = apply_action(current, player, action, units)
        deltas: dict[str, dict[str, str]] = {}
        touched = set(current.balances) | set(nxt.balances)
        for key in sorted(touched):
            domain, owner, asset = key
            if owner != player:
                continue
            diff = nxt.balances.get(key, 0) - current.balances.get(key, 0)
            if diff:
                text = format_units(diff)
                deltas.setdefault(domain, {})[asset] = f"+{text}" if diff > 0 else text
        steps.append(
            {
                "index": index,
                "action": action_id,
                "kind": action.kind,
                "domains": sorted(action.domains),
                "amount": None if amount is None else str(amount),
                "resolved_amount": None if resolved is None else format_units(resolved),
                "params": _action_params(scenario, action),
                "deltas": deltas,
            }
        )
        current = nxt
    return steps


def _render_steps_text(steps: list[dict], out) -> None:
    if not steps:
        print("  (empty sequence)", file=out)
        return
    for step in steps:
        domains = ",".join(step["domains"])
        delta_bits = [
            f"{domain} {asset} {value}"
            for domain, assets in sorted(step["deltas"].items())
            for asset, value in sorted(assets.items())
        ]
        delta_text = "; ".join(delta_bits) if delta_bits else "no player balance change"
        amount_text = f"  amount={step['resolved_amount']}" if step["resolved_amount"] else ""
        print(
            f"  {step['index']}. {step['action']}  [{domains}]  {step['params']}"
            f"{amount_text}  |  {delta_text}",
            file=out,
        )


def _emit(report: dict, fmt: str, render_text) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        render_text(sys.stdout)


def _query_echo(args, query: MevQuery) -> dict:
    return {
        "scenario": args.scenario,
        "player": query.player,
        "action_domains": sorted(query.action_domains),
        "value_domains": list(query.value_domains),
        "base_domain": query.base_domain,
        "base_asset": query.base_asset,
        "max_sequence_length": query.max_sequence_length,
    }


# -- subcommands ---------------------------------------------------------------


def cmd_mev(args) -> int:
    scenario = _load(args.scenario)
    query = _build_query(scenario, args)
    state = scenario.initial_state()
    result = mev(scenario.space, state, query)
    steps = _witness_steps(scenario, query.player, state, result.witness)
    report = {
        "command": "mev",
        "query": _query_echo(args, query),
        "result": {
            "value": str(result.value),
            "base_asset": query.base_asset,
            "method": result.method,
            "explored": result.explored,
            "witness": steps,
        },
    }

    def render(out):
        echo = report["query"]
        print(f"scenario: {echo['scenario']}", file=out)
        print(f"player: {echo['player']}", file=out)
        print(f"action domains: {', '.join(echo['action_domains'])}", file=out)
        print(f"value domains: {', '.join(echo['value_domains'])}", file=out)
        print(f"base: {echo['base_domain']}:{echo['base_asset']}", file=out)
        print(f"max sequence length: {echo['max_sequence_length']}", file=out)
        print(f"method: {result.method}  explored: {result.explored}", file=out)
        print(f"value: {result.value} {query.base_asset}", file=out)
        print("witness:", file=out)
        _render_steps_text(steps, out)

    _emit(report, args.format, render)
    return EXIT_OK


def cmd_collusion(args) -> int:
    scenario = _load(args.scenario)
    coalition = _csv(args.domains, "--domains")
    query = scenario.default_query(
        player=args.player, action_domains=coalition, value_domains=coalition, max_len=args.max_len
    )
    alpha = scenario.defaults.alpha if args.alpha is None else _parse_alpha(args.alpha)
    state = scenario.initial_state()
    report_obj = classify_collusion(scenario.space, state, query, alpha)
    domains = query.value_domains
    joint_steps = _witness_steps(scenario, query.player, state, report_obj.joint_result.witness)
    report = {
        "command": "collusion",
        "query": {
            "scenario": args.scenario,
            "player": query.player,
            "domains": list(domains),
            "alpha": str(alpha),
            "base_domain": query.base_domain,
            "base_asset": query.base_asset,
            "max_sequence_length": query.max_sequence_length,
        },
        "result": {
            "alpha": str(alpha),
            "solo_values": {d: str(v) for d, v in report_obj.solo_values.items()},
            "joint_value": str(report_obj.joint_value),
            "margin": str(report_obj.margin),
            "verdict": report_obj.verdict.value,
            "breakeven_alpha": str(report_obj.breakeven),
            "joint_witness": joint_steps,
        },
    }

    def render(out):
        print(f"scenario: {args.scenario}", file=out)
        print(f"player: {query.player}", file=out)
        print(f"domains: {', '.join(domains)}", file=out)
        print(f"alpha: {alpha} {query.base_asset}", file=out)
        for domain in domains:
            print(f"solo {domain}: {report_obj.solo_values[domain]}", file=out)
        print(f"joint: {report_obj.joint_value}", file=out)
        print(f"margin: {report_obj.margin}", file=out)
        print(f"breakeven alpha: {report_obj.breakeven}", file=out)
        print(f"verdict: {report_obj.verdict.value}", file=out)
        print("joint witness:", file=out)
        _render_steps_text(joint_steps, out)

    _emit(report, args.format, render)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    scenario = _load(args.scenario)
    query = _build_query(scenario, args)
    state = scenario.initial_state()
    engine_result = mev(scenario.space, state, query)
    oracle_result = mev_oracle(scenario.space, state, query, grid_points=args.grid_points)
    usable = _usable_actions(scenario.space, query.player, query.action_domains)
    has_parametric = any(a.parametric for a in usable)
    tolerance = ORACLE_TOLERANCE if has_parametric else Amount(0)
    difference = engine_result.value - oracle_result.value
    agree = abs(difference) <= tolerance
    grid_note = (
        "grid amounts lower-bound the continuous optimum; raise --grid-points to tighten"
        if has_parametric
        else "discrete action space: agreement must be exact"
    )
    report = {
        "command": "oracle_check",
        "query": {**_query_echo(args, query), "grid_points": args.grid_points},
        "result": {
            "engine_value": str(engine_result.value),
            "oracle_value": str(oracle_result.value),
            "difference": str(difference),
            "tolerance": str(tolerance),
            "agree": agree,
            "engine_explored": engine_result.explored,
            "oracle_explored": oracle_result.explored,
            "engine_witness": _witness_steps(scenario, query.player, state, engine_result.witness),
            "oracle_witness": _witness_steps(scenario, query.player, state, oracle_result.witness),
            "note": grid_note,
        },
    }

    def render(out):
        print(f"scenario: {args.scenario}", file=out)
        print(f"grid points: {args.grid_points}", file=out)
        print(f"engine value: {engine_result.value} ({engine_result.explored} nodes)", file=out)
        print(f"oracle value: {oracle_result.value} ({oracle_result.explored} candidates)", file=out)
        print(f"difference: {difference}  tolerance: {tolerance}", file=out)
        print(f"agree: {'yes' if agree else 'NO'}", file=out)
        print(f"note: {grid_note}", file=out)

    _emit(report, args.format, render)
    return EXIT_OK if agree else EXIT_DISAGREE


def cmd_validate(args) -> int:
    _load(args.scenario)
    print(f"{args.scenario}: valid")
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--player", help="acting player (default: scenario default)")
    parser.add_argument("--action-domains", help="csv of domains whose actions are usable")
    parser.add_argument("--value-domains", help="csv of domains where value is measured")
    parser.add_argument("--base", help="base as domain:asset")
    parser.add_argument("--max-len", type=int, help="sequence length cap")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdmev",
        description="Deterministic multi-domain extractable-value engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mev = sub.add_parser("mev", help="maximize priced balance change over sequences")
    p_mev.add_argument("--scenario", required=True, help="bundled name or path")
    _add_query_flags(p_mev)
    p_mev.set_defaults(func=cmd_mev)

    p_col = sub.add_parser("collusion", help="classify a sequencer coalition")
    p_col.add_argument("--scenario", required=True)
    p_col.add_argument("--player")
    p_col.add_argument("--domains", help="csv of coalition domains")
    p_col.add_argument("--alpha", help="collusion cost in the base asset")
    p_col.add_argument("--max-len", type=int)
    p_col.add_argument("--format", choices=("text", "json"), default="text")
    p_col.set_defaults(func=cmd_collusion)

    p_orc = sub.add_parser("oracle-check", help="cross-check the engine against brute force")
    p_orc.add_argument("--scenario", required=True)
    p_orc.add_argument("--grid-points", type=int, default=101)
    _add_query_flags(p_orc)
    p_orc.set_defaults(func=cmd_oracle_check)

    p_val = sub.add_parser("validate", help="validate a scenario document")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)

    return parser


# built on the first ``main`` call, not at import, so start-up stays cheap
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExplosionGuard as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXPLOSION
    except (XdmevError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
