"""Golden CLI outputs: every command on every shipped input, pinned by digest.

Each entry of ``golden_outputs.json`` is the sha256 of one invocation's
exit code, standard output and standard error. JSON reports are hashed
without their ``generated_at`` timestamp; tables carry none. A change that
alters any printed number, polynomial, witness or digest fails here.

To rewrite the digests after an intended output change, run

    PYTHONPATH=src python tests/test_golden_outputs.py --write

and say in the change why the outputs moved.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from poishom import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
INPUTS = sorted(
    str(path.relative_to(ROOT))
    for folder in ("problems", "bench/inputs")
    for path in (ROOT / folder).glob("*.json")
)
COMMANDS = [
    ["check"],
    ["modular"],
    ["cohomology", "--max-weight", "2"],
    ["homology", "--max-weight", "2"],
    ["duality", "--max-weight", "2", "--trials", "3"],
]


def _digest(code: int, text: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, text, err]).encode()).hexdigest()


def _outputs(path: str) -> dict:
    """Digest of each command on one input, keyed "<command> <format>".

    Each command runs once, in json; its table is rendered from the same
    report, as ``main`` would print it with ``--format table``.
    """
    digests = {}
    for command in COMMANDS:
        reports, make_report = [], cli._Run.report

        def report(run):
            reports.append(make_report(run))
            return reports[-1]

        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli._Run, "report", report), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command[0], str(ROOT / path), "--format", "json", *command[1:]])
        json_text = table_text = out.getvalue()  # empty when no report is made
        if reports:
            assert json_text == json.dumps(reports[0], indent=2, sort_keys=True) + "\n"
            table_text = cli._render_table(reports[0]) + "\n"
            reports[0].pop("generated_at")
            json_text = json.dumps(reports[0], indent=2, sort_keys=True)
        digests[f"{command[0]} json"] = _digest(code, json_text, err.getvalue())
        digests[f"{command[0]} table"] = _digest(code, table_text, err.getvalue())
    return digests


@pytest.mark.parametrize("path", INPUTS)
def test_cli_outputs_match_golden_digests(path):
    assert _outputs(path) == json.loads(GOLDEN.read_text())[path]


def test_golden_digests_cover_every_shipped_input():
    assert sorted(json.loads(GOLDEN.read_text())) == INPUTS


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_outputs.py --write")
    GOLDEN.write_text(json.dumps({path: _outputs(path) for path in INPUTS}, indent=2) + "\n")
