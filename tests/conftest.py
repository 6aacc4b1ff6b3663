"""Shared fixtures and document builders for the test suite."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import xdmev
from xdmev.fixedpoint import Amount
from xdmev.scenario import Scenario, load_bundled, loads


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_xdmev():
    """``python -m xdmev.cli`` subprocesses import the package these tests
    import, also when only pytest's ``pythonpath`` setting puts it in reach."""
    src = str(Path(xdmev.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


def scen(doc: dict) -> Scenario:
    """Build a scenario through the real loader (validation included)."""
    return loads(json.dumps(doc))


def one_domain_doc() -> dict:
    """Minimal valid single-domain document; tests mutate it as needed."""
    return {
        "schema_version": 1,
        "domains": [{"id": "d0", "native_asset": "GLD"}],
        "assets": ["AAA", "GLD"],
        "players": [
            {
                "id": "P",
                "balances": [],
                "capabilities": [{"domain": "d0", "kinds": ["ExecutePendingTx", "Swap", "StylizedArb", "Bridge"]}],
            }
        ],
        "pools": [],
        "bridges": [],
        "mempool": [],
        "opportunities": [],
        "stylized_arbs": [],
        "actions": [],
        "prices": [],
        "defaults": {
            "player": "P",
            "base_domain": "d0",
            "base_asset": "GLD",
            "max_sequence_length": 8,
            "alpha": "0",
        },
    }


def deep_tips_doc(n: int) -> dict:
    """``n`` pending transfers of 1 GLD each from a funded whale to P, at
    ``max_sequence_length`` n: the searches nest one call per step, past
    the interpreter's recursion limit from n = 1000 on."""
    doc = one_domain_doc()
    doc["players"][0]["capabilities"] = [{"domain": "d0", "kinds": ["ExecutePendingTx"]}]
    doc["players"].append({
        "id": "whale",
        "balances": [{"domain": "d0", "asset": "GLD", "amount": str(n)}],
        "capabilities": [],
    })
    doc["mempool"] = [
        {"id": f"tip_{k:04d}", "domain": "d0", "effect": {
            "type": "transfer", "from_account": "whale", "to_account": "P",
            "asset": "GLD", "amount": "1",
        }}
        for k in range(n)
    ]
    doc["defaults"]["max_sequence_length"] = n
    return doc


@pytest.fixture(scope="session")
def bundled():
    cache: dict[str, Scenario] = {}

    def get(name: str) -> Scenario:
        if name not in cache:
            cache[name] = load_bundled(name)
        return cache[name]

    return get


@pytest.fixture
def amount_constructions(monkeypatch) -> list:
    """A list that gains one entry per ``Amount`` built while the test runs,
    through ``Amount(...)`` or ``Amount.from_units``."""
    built: list = []
    init = Amount.__init__
    from_units = Amount.__dict__["from_units"].__func__

    def counting_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counting_from_units(cls, units):
        built.append("from_units")
        return from_units(cls, units)

    monkeypatch.setattr(Amount, "__init__", counting_init)
    monkeypatch.setattr(Amount, "from_units", classmethod(counting_from_units))
    return built
