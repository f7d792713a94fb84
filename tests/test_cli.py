"""Tests for the command-line interface.

The CLI must be a thin adapter: its output is compared against direct
library calls, and identical invocations must produce identical bytes.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from voa import (State, character, get_preset, heisenberg_npoint,
                 render_state, singular_part)
from voa.cli import parse_state, run
from voa.scalars import ParamPoint


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_state_roundtrip():
    alg = get_preset("virasoro").algebra
    v = parse_state(alg, "L(-2)^2 L(-3) |0>")
    expected = get_preset("virasoro").state(
        [("L", -2), ("L", -2), ("L", -3)])
    assert v == expected


def test_parse_state_errors():
    alg = get_preset("virasoro").algebra
    from voa.cli import CliError
    with pytest.raises(CliError, match="position"):
        parse_state(alg, "L(-2) X(-1) |0>")
    with pytest.raises(CliError, match="missing vacuum"):
        parse_state(alg, "L(-2)")


def test_verify_pass_and_exit_code(capsys):
    code, out, _ = _run(capsys, "verify", "--algebra", "heisenberg",
                        "--degree", "2")
    assert code == 0
    assert "all axioms pass" in out


def test_ope_virasoro_table(capsys):
    code, out, _ = _run(capsys, "ope", "--algebra", "virasoro",
                        "--a", "L(-2) |0>", "--b", "L(-2) |0>")
    assert code == 0
    assert out.strip() == "{4: (c/2) |0>, 2: 2 L(-2) |0>, 1: L(-3) |0>}"


def test_ope_matches_library(capsys):
    inst = get_preset("affine:sl2")
    alg = inst.algebra
    table = singular_part(alg, inst.gen_state("e"), inst.gen_state("f"))
    code, out, _ = _run(capsys, "ope", "--algebra", "affine:sl2",
                        "--a", "e(-1) v_k", "--b", "f(-1) v_k")
    assert code == 0
    body = ", ".join(f"{j}: {render_state(alg, table[j])}"
                     for j in sorted(table, reverse=True))
    assert out.strip() == "{" + body + "}"


def test_ope_of_sector_vacua_matches_library(capsys):
    inst = get_preset("lattice:2")
    table = singular_part(inst.algebra, State.vacuum(1), State.vacuum(-1))
    code, out, _ = _run(capsys, "ope", "--algebra", "lattice:2",
                        "--a", "1_{1,2}", "--b", "1_{-1,2}")
    assert code == 0
    assert out == "{2: |0>, 1: 2 b(-1) |0>}\n"
    assert table == {2: State.vacuum(), 1: inst.state([("b", -1)]).scale(2)}


def test_bracket_central_term(capsys):
    code, out, _ = _run(capsys, "bracket", "--algebra", "heisenberg",
                        "--a", "b(-1) |0>", "--b", "b(-1) |0>",
                        "--m", "2", "--n", "-2")
    assert code == 0
    assert out.strip() == "(2) * (|0>)_[0]"


def test_character_matches_library(capsys):
    inst = get_preset("heisenberg", lam=0)
    ch = character(inst, cutoff=6)
    code, out, _ = _run(capsys, "character", "--algebra", "heisenberg",
                        "--lambda", "0", "--cutoff", "6")
    assert code == 0
    assert out.strip() == ch.render()


def test_character_parametric_requires_param(capsys):
    code, _, err = _run(capsys, "character", "--algebra", "virasoro")
    assert code == 2
    assert "parametric" in err


def test_character_with_param(capsys):
    inst = get_preset("virasoro")
    ch = character(inst, cutoff=5, point=ParamPoint(c="1/2"))
    code, out, _ = _run(capsys, "character", "--algebra", "virasoro",
                        "--param", "c=1/2", "--cutoff", "5")
    assert code == 0
    assert out.strip() == ch.render()


def test_npoint_matches_library(capsys):
    code, out, _ = _run(capsys, "npoint", "--n", "4")
    assert code == 0
    assert out.strip() == heisenberg_npoint(None, 4).render()


def test_center_sl2_critical(capsys):
    code, out, _ = _run(capsys, "center", "--algebra", "affine:sl2",
                        "--param", "k=-2", "--degree", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 1


def test_coset_heisenberg(capsys):
    code, out, _ = _run(capsys, "coset", "--algebra", "heisenberg",
                        "--states", "b(-1) |0>", "--degree", "1", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 0


def test_coord_check(capsys):
    code, out, _ = _run(capsys, "coord-check", "--algebra", "heisenberg",
                        "--lambda", "0", "--state", "b(-1) |0>",
                        "--rho", "1, eps", "--check", "huang",
                        "--window", "2", "--degree", "2",
                        "--first-order", "eps")
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("check", ["huang", "primary"])
@pytest.mark.parametrize("rho, first_order", [
    ("1, {}", []), ("{}", []), ("1, {}", ["--first-order", "{}"])])
def test_coord_check_parameter_named_t(capsys, check, rho, first_order):
    # t in --rho is a parameter like any other, not the series variable
    runs = []
    for name in ("t", "s"):
        runs.append(_run(capsys, "coord-check", "--algebra", "heisenberg",
                         "--lambda", "0", "--state", "b(-1) |0>",
                         "--rho", rho.format(name), "--check", check,
                         *(a.format(name) for a in first_order)))
    (code_t, out_t, _), (code_s, out_s, _) = runs
    assert code_t == code_s == 0
    assert out_t == out_s.replace("(s)", "(t)")


def test_bf_check(capsys):
    code, out, _ = _run(capsys, "bf-check", "--degree", "2")
    assert code == 0
    assert "pass" in out


def test_unknown_algebra_exits_2(capsys):
    code, _, err = _run(capsys, "verify", "--algebra", "nope")
    assert code == 2
    assert "unknown preset" in err


# (argv, part of the one-line error); tests/test_cli_outputs.py pins the
# whole output of each
BAD_INPUT = [
    (["character", "--algebra", "virasoro", "--param", "c=1/2",
      "--sector", "1"], "has no sectors"),
    (["npoint", "--n", "-1"], "--n must be >= 0"),
    (["verify", "--algebra", "heisenberg", "--degree", "-3"],
     "--degree must be >= 0"),
    (["center", "--algebra", "affine:sl2", "--degree", "-1"],
     "--degree must be >= 0"),
    (["coset", "--algebra", "heisenberg", "--states", "b(-1) |0>",
      "--degree", "-1"], "--degree must be >= 0"),
    (["coord-check", "--algebra", "heisenberg", "--state", "b(-1) |0>",
      "--rho", "1", "--degree", "-1"], "--degree must be >= 0"),
    (["coord-check", "--algebra", "heisenberg", "--state", "b(-1) |0>",
      "--rho", "1", "--window", "-1"], "--window must be >= 0"),
    (["bf-check", "--degree", "-1"], "--degree must be >= 0"),
    (["character", "--algebra", "heisenberg", "--lambda", "0",
      "--cutoff", "-1"], "--cutoff must be >= 0"),
    (["coord-check", "--algebra", "heisenberg", "--state", "b(-1) |0>",
      "--rho", "1/0"], "--rho"),
    (["verify", "--algebra", "weyl:0", "--degree", "1"],
     "weyl rank parameter N must be >= 1"),
    (["verify", "--algebra", "weyl:-1", "--degree", "1"],
     "weyl rank parameter N must be >= 1"),
    (["center", "--algebra", "affine:sl2", "--param", "k=-2", "--param",
      "k=1", "--degree", "1"], "--param k given more than once"),
    (["center", "--algebra", "affine:sl2", "--param", "q=3", "--degree",
      "1"], "error: --param q is not a parameter of affine:sl2"),
    (["verify", "--algebra", "virasoro", "--param", "k=3", "--degree", "1"],
     "error: --param k is not a parameter of virasoro"),
    (["verify", "--algebra", "weyl:x", "--degree", "1"],
     "error: weyl rank parameter must be an integer, got 'x'"),
    (["verify", "--algebra", "lattice:", "--degree", "1"],
     "error: lattice rank parameter must be an integer, got ''"),
    (["verify", "--algebra", "virasoro", "--lambda", "3", "--degree", "1"],
     "error: --lambda: lam is not a parameter of virasoro"),
    (["center", "--algebra", "affine:sl2", "--lambda", "1", "--degree", "1"],
     "error: --lambda: lam is not a parameter of affine:sl2"),
    (["character", "--algebra", "heisenberg", "--lambda", "0", "--param",
      "lam=1", "--cutoff", "3"],
     "error: lam given twice: by --lambda and by --param lam"),
    (["bracket", "--algebra", "heisenberg", "--a", "b(-1) |0>", "--b",
      "b(2) |0>", "--m", "1", "--n", "1"], "error: state 'b(2) |0>' is zero"),
    (["ope", "--algebra", "heisenberg", "--a", "b(1) |0>", "--b",
      "b(-1) |0>"], "error: state 'b(1) |0>' is zero"),
    (["coset", "--algebra", "heisenberg", "--states", "b(1) |0>",
      "--degree", "1"], "error: state 'b(1) |0>' is zero"),
    (["coord-check", "--algebra", "heisenberg", "--lambda", "0", "--state",
      "b(1) |0>", "--rho", "1"], "error: state 'b(1) |0>' is zero"),
    (["coord-check", "--algebra", "heisenberg", "--lambda", "0", "--state",
      "b(-1) |0>", "--rho", "1, eps", "--first-order", "zz"],
     "error: first-order parameter 'zz' does not occur in rho"),
    (["ope", "--algebra", "heisenberg", "--a", "|0> b(-1)", "--b",
      "b(-1) |0>"],
     "state syntax: trailing input after vacuum at position 4"),
    (["ope", "--algebra", "heisenberg", "--a", "1_{1,2}", "--b",
      "b(-1) |0>"],
     "algebra 'heisenberg' has no lattice sectors (position 0)"),
    (["ope", "--algebra", "lattice:2", "--a", "1_{1,3}", "--b",
      "b(-1) |0>"],
     "sector vacuum 1_{m,N} needs N=2 (position 0)"),
    (["ope", "--algebra", "heisenberg", "--a", "b(-1) ?? |0>", "--b",
      "b(-1) |0>"],
     "state syntax: unrecognized token '??' at position 6"),
    (["center", "--algebra", "affine:sl2", "--param", "k", "--degree", "1"],
     "--param expects name=value, got 'k'"),
    (["center", "--algebra", "affine:sl2", "--param", "k=x", "--degree",
      "1"], "--param k: 'x' is not a rational"),
    (["verify", "--algebra", "heisenberg", "--lambda", "x", "--degree", "1"],
     "--lambda: 'x' is not a rational"),
    (["bracket", "--algebra", "heisenberg", "--a", "b(-1) |0>", "--b",
      "b(-1) |0>", "--m", "x", "--n", "1"], "--m and --n must be rationals"),
    (["npoint", "--algebra", "virasoro", "--n", "2"],
     "npoint supports --algebra heisenberg"),
    (["center", "--algebra", "virasoro", "--degree", "1"],
     "center requires an affine preset (affine:sl2, ...)"),
    (["coset", "--algebra", "heisenberg", "--states", ";", "--degree", "1"],
     "--states needs at least one state (semicolon-separated)"),
    (["coord-check", "--algebra", "commutative", "--state", "x(-1) |0>",
      "--rho", "1"], "preset 'commutative' has no conformal vector"),
    (["coord-check", "--algebra", "heisenberg", "--state", "b(-1) |0>",
      "--rho", "0, 1"],
     "--rho: coordinate change needs a nonzero linear coefficient"),
    (["coord-check", "--algebra", "heisenberg", "--state", "b(-1) |0>",
      "--rho", "1, $"], "--rho: expected number, name or '(' at position 0"),
    (["coord-check", "--algebra", "virasoro", "--state", "L(-2) |0>",
      "--rho", "1, 1/4", "--check", "primary"],
     "state is not primary: L_2 does not annihilate the state"),
    (["character", "--algebra", "weyl:1", "--cutoff", "2"],
     "infinite-dimensional, from the zero modes of the even weight-0 "
     "generator a*"),
    (["character", "--algebra", "commutative"],
     "error: preset 'commutative' has no conformal structure"),
    (["character", "--algebra", "affine:sl2", "--param", "k=-2"],
     "error: preset 'affine:sl2' has no conformal structure"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUT)
def test_bad_input_exits_2_with_one_line(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


_OPE_TABLE = "{4: (c/2) |0>, 2: 2 L(-2) |0>, 1: L(-3) |0>}"


def _readme_commands():
    """(argv, next line) for each command of README's "Command line" block,
    with backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    lines.append("")
    return [(shlex.split(line)[1:], lines[i + 1].strip())
            for i, line in enumerate(lines) if line.startswith("voa ")]


def test_readme_commands_run():
    commands = _readme_commands()
    assert [argv[0] for argv, _ in commands] == [
        "verify", "ope", "bracket", "character", "character", "npoint",
        "center", "coord-check", "bf-check"]
    for argv, next_line in commands:
        result = subprocess.run([sys.executable, "-m", "voa.cli", *argv],
                                capture_output=True, text=True)
        assert result.returncode == 0, (argv, result.stderr)
        if argv[0] == "ope":
            # the comment under the command is its output
            assert next_line == f"# {_OPE_TABLE}"
            assert result.stdout == _OPE_TABLE + "\n"


PRESET_PARAMETERS = [
    ["verify", "--algebra", "heisenberg", "--param", "lam=1/2", "--degree",
     "1"],
    ["verify", "--algebra", "affine:sl3", "--param", "k=1", "--degree", "1"],
    ["verify", "--algebra", "virasoro", "--param", "c=1/2", "--degree", "1"],
]


@pytest.mark.parametrize("argv", PRESET_PARAMETERS)
def test_preset_parameters_accepted(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    assert "all axioms pass" in out


def test_npoint_zero_points(capsys):
    code, out, _ = _run(capsys, "npoint", "--n", "0")
    assert code == 0
    assert out.strip() == "1"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = _run(capsys, "npoint", "--n", "2",
                        "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == heisenberg_npoint(None, 2).render() + "\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--algebra", "heisenberg", "--degree", "1"],
    ["bf-check", "--degree", "1"],
])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, argv):
    # exit code 1 means a failed verification, not an unwritable file
    target = tmp_path / "missing" / "x"
    code, out, err = _run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: --out {target}: No such file or directory\n"


def test_closed_stdout_pipe_ends_silently():
    # the reader of a pipe may go before the output comes (`voa coset ... |
    # head -3`); exit code 1 means a failed verification, and a traceback
    # would say the library broke
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "voa.cli", "npoint", "--n", "2"],
            stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode != 1


def _subprocess_bytes(argv):
    return subprocess.run(
        [sys.executable, "-m", "voa.cli"] + argv,
        capture_output=True, check=True).stdout


DETERMINISM = [
    ["ope", "--algebra", "virasoro", "--a", "L(-2) |0>", "--b", "L(-2) |0>"],
    ["character", "--algebra", "heisenberg", "--lambda", "0",
     "--cutoff", "8", "--json"],
    ["npoint", "--n", "4", "--json"],
    ["verify", "--algebra", "heisenberg", "--degree", "2", "--json"],
]


@pytest.mark.parametrize("argv", DETERMINISM)
def test_byte_determinism(argv):
    first = _subprocess_bytes(argv)
    second = _subprocess_bytes(argv)
    assert first == second
    assert first  # nonempty output
