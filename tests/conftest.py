"""Shared fixtures and document builders for the test suite."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import xdmev
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


@pytest.fixture(scope="session")
def bundled():
    cache: dict[str, Scenario] = {}

    def get(name: str) -> Scenario:
        if name not in cache:
            cache[name] = load_bundled(name)
        return cache[name]

    return get
