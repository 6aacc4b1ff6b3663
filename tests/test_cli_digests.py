"""Every bundled CLI answer stays byte-identical across changes.

``cli_digests.json`` holds the exit code and the sha256 of stdout of
``mev``, ``collusion`` (on scenarios with two or more value domains) and
``oracle-check``, in text and json, for every bundled scenario. A change
that means to alter an answer regenerates the file with
``PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json``
and says why; any other change must leave it as it is.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from xdmev import cli
from xdmev.scenario import BUNDLED_NAMES, load_bundled

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"


def commands() -> list[tuple[str, ...]]:
    out = []
    for name in BUNDLED_NAMES:
        subcommands = ["mev", "oracle-check"]
        if len(load_bundled(name).defaults.value_domains) >= 2:
            subcommands.insert(1, "collusion")
        for command in subcommands:
            for fmt in ("text", "json"):
                out.append((command, "--scenario", name, "--format", fmt))
    return out


def digests() -> dict[str, dict]:
    """``{argv joined by spaces: {"exit": code, "stdout_sha256": hex}}``, run in-process."""
    table = {}
    for argv in commands():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
        table[" ".join(argv)] = {"exit": code, "stdout_sha256": digest}
    return table


def test_bundled_cli_outputs_match_their_checked_in_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = digests()
    assert sorted(actual) == sorted(expected), "the command list changed"
    changed = sorted(argv for argv in expected if actual[argv] != expected[argv])
    assert changed == [], f"outputs changed: {changed}"


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digests(), sort_keys=True, indent=2) + "\n")
