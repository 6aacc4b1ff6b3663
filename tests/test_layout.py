"""Source-tree hygiene: the package ships Python modules and scenario JSON
only, importing its CLI stays light, states are built in one place, and
pool specs are read from the registry only at the state layer's edge."""

import re
import subprocess
import sys
from pathlib import Path

import xdmev

PACKAGE = Path(xdmev.__file__).parent


def test_package_holds_only_python_and_bundled_scenarios():
    strays = []
    for path in sorted(PACKAGE.rglob("*")):
        rel = path.relative_to(PACKAGE)
        if path.is_dir() or "__pycache__" in rel.parts:
            continue
        if path.suffix == ".py" and rel.parts[0] != "scenarios":
            continue
        if len(rel.parts) == 2 and rel.parts[0] == "scenarios" and path.suffix == ".json":
            continue
        strays.append(rel.as_posix())
    assert strays == [], f"non-source files in src/xdmev: {strays}"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # ``dataclasses`` execs generated methods for every class and imports
    # ``inspect`` (with ``ast``, ``tokenize`` and ``dis``): once about two
    # thirds of the import time every CLI call pays
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import xdmev.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout == "[]\n", proc.stdout + proc.stderr


def test_world_states_are_built_only_by_the_state_layer_and_the_loader():
    # ``WorldState.update`` is the one path from a state to the next, and the
    # loader builds each initial state; a venue building its own state would
    # grow a second path beside ``update``
    built = re.compile(r"\bWorldState\(|__new__\(\s*WorldState\b")
    builders = {
        path.name for path in PACKAGE.glob("*.py")
        if built.search(path.read_text(encoding="utf-8"))
    }
    assert builders <= {"model.py", "scenario.py"}, sorted(builders)
    assert "model.py" in builders


def test_insufficient_balance_is_raised_only_by_the_state_layer():
    # ``model.move_balances`` is the one rule by which balances move; a
    # second copy of its checks elsewhere would drift from it unnoticed
    raisers = {
        path.name for path in PACKAGE.glob("*.py")
        if "raise InsufficientBalance(" in path.read_text(encoding="utf-8")
    }
    assert raisers == {"model.py"}, sorted(raisers)


def test_pool_specs_are_read_from_the_registry_only_by_the_state_layer():
    # the loader links every pool a record acts on, so each venue takes the
    # record; ``WorldState.pool`` and ``with_pool`` join spec and value at
    # the edge, and a lookup anywhere else would re-resolve a linked pool
    readers = {
        path.name for path in PACKAGE.glob("*.py")
        if "registry.pool(" in path.read_text(encoding="utf-8")
    }
    assert readers == {"model.py"}, sorted(readers)
