"""CLI outputs against a fixture: every byte of stdout and stderr, and the
exit code, of `voa.cli.run(argv)` in this process.

The argvs are the commands of README's "Command line" block and every argv
of `tests/test_cli.py`, bad input included, each run as given and with
`--json` added (or, where it is given, removed).  `--out` is left out: its
paths are temporary.  `tests/fixtures/cli_outputs.json` holds the outputs;
write it again with

    PYTHONPATH=src python tests/test_cli_outputs.py

only where a change of the outputs is meant.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from test_cli import BAD_INPUT, DETERMINISM, PRESET_PARAMETERS, \
    _readme_commands
from voa.cli import run

FIXTURE = Path(__file__).parent / "fixtures" / "cli_outputs.json"

_COORD = ["coord-check", "--algebra", "heisenberg", "--lambda", "0",
          "--state", "b(-1) |0>"]

# the argvs of the tests in test_cli.py that run one command inline
_INLINE = [
    ["verify", "--algebra", "heisenberg", "--degree", "2"],
    ["ope", "--algebra", "virasoro", "--a", "L(-2) |0>", "--b", "L(-2) |0>"],
    ["ope", "--algebra", "affine:sl2", "--a", "e(-1) v_k",
     "--b", "f(-1) v_k"],
    ["ope", "--algebra", "lattice:2", "--a", "1_{1,2}", "--b", "1_{-1,2}"],
    ["bracket", "--algebra", "heisenberg", "--a", "b(-1) |0>",
     "--b", "b(-1) |0>", "--m", "2", "--n", "-2"],
    ["character", "--algebra", "heisenberg", "--lambda", "0",
     "--cutoff", "6"],
    ["character", "--algebra", "virasoro"],
    ["character", "--algebra", "virasoro", "--param", "c=1/2",
     "--cutoff", "5"],
    ["npoint", "--n", "4"],
    ["center", "--algebra", "affine:sl2", "--param", "k=-2",
     "--degree", "2", "--json"],
    ["coset", "--algebra", "heisenberg", "--states", "b(-1) |0>",
     "--degree", "1", "--json"],
    _COORD + ["--rho", "1, eps", "--check", "huang", "--window", "2",
              "--degree", "2", "--first-order", "eps"],
    *(_COORD + ["--rho", rho.format(name), "--check", check,
                *(a.format(name) for a in first_order)]
      for check in ("huang", "primary")
      for rho, first_order in (("1, {}", []), ("{}", []),
                               ("1, {}", ["--first-order", "{}"]))
      for name in ("t", "s")),
    ["bf-check", "--degree", "2"],
    ["verify", "--algebra", "nope"],
    ["npoint", "--n", "0"],
    ["npoint", "--n", "2"],
    ["verify", "--algebra", "heisenberg", "--degree", "1"],
    ["bf-check", "--degree", "1"],
]


def argvs():
    """Each argv once, in a fixed order, and its twin with or without
    --json."""
    out = []
    for argv in ([argv for argv, _ in _readme_commands()] + _INLINE
                 + [argv for argv, _ in BAD_INPUT] + PRESET_PARAMETERS
                 + DETERMINISM):
        twin = ([a for a in argv if a != "--json"] if "--json" in argv
                else argv + ["--json"])
        for a in (argv, twin):
            if a not in out:
                out.append(a)
    return out


def output(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = run(list(argv))
    return {"argv": argv, "code": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def test_outputs_match_the_fixture():
    expected = json.loads(FIXTURE.read_text())
    assert [case["argv"] for case in expected] == argvs()
    for case in expected:
        assert output(case["argv"]) == case, case["argv"]


if __name__ == "__main__":
    outputs = [output(argv) for argv in argvs()]
    FIXTURE.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {len(outputs)} outputs to {FIXTURE}", file=sys.stderr)
