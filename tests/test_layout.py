"""Source-tree hygiene: the package ships Python modules and scenario JSON only."""

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
