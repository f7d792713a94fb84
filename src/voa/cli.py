"""Command-line front end: thin adapters over the library computations.

Exit codes: 0 success / verification passed, 1 failed verification (with a
witness rendered), 2 usage or input errors.  Output is deterministic for
identical invocations.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
from fractions import Fraction

from .scalars import ParamPoint, PoleAtPoint, ScalarParseError, parse_scalar
from .fock import ModeAlgebra, State, UnknownGenerator, normal_order, \
    render_state
from .ope import commutator_via_formula, coset_graded, singular_part, \
    verify_axioms
from .presets import PRESET_NAMES, boson_fermion_check, get_preset
from .characters import boson_fermion_character_check, character
from .correlators import heisenberg_npoint
from .coords import CoordChange, NotPrimary, huang_check, \
    primary_differential_check


class CliError(Exception):
    """Input error reported to the user; exits with code 2."""


_FACTOR = re.compile(
    r"\|0>"
    r"|1_\{(-?\d+),(\d+)\}"
    r"|([A-Za-z][A-Za-z0-9*]*)\((-?\d+)\)(?:\^(\d+))?"
    r"|\S+")


def parse_state(alg: ModeAlgebra, text: str) -> State:
    """Parse "b(-2)^2 b(-1) |0>", "v_k", "1_{m,N}" into a nonzero State."""
    word = []
    sector = None
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        if sector is not None:
            raise CliError(
                f"state syntax: trailing input after vacuum at position {pos}")
        m = _FACTOR.match(text, pos)
        tok = m.group(0)
        if tok == "|0>" or tok == alg.vacuum_symbol:
            sector = 0
        elif m.group(1) is not None:
            if not alg.has_sectors:
                raise CliError(
                    f"algebra {alg.name!r} has no lattice sectors "
                    f"(position {pos})")
            if int(m.group(2)) != alg.lattice_N:
                raise CliError(
                    f"sector vacuum 1_{{m,N}} needs N={alg.lattice_N} "
                    f"(position {pos})")
            sector = int(m.group(1))
        elif m.group(3) is not None:
            name, mode, power = m.group(3), int(m.group(4)), m.group(5)
            try:
                alg.gen_index(name)
            except UnknownGenerator as exc:
                raise CliError(f"{exc} (position {pos})")
            word.extend([(name, mode)] * (int(power) if power else 1))
        else:
            raise CliError(
                f"state syntax: unrecognized token {tok!r} at position {pos}")
        pos = m.end()
    if sector is None:
        raise CliError("state syntax: missing vacuum "
                       f"(expected |0>, {alg.vacuum_symbol} or 1_{{m,N}})")
    state = normal_order(alg, word, sector)
    if state.is_zero:
        raise CliError(f"state {text!r} is zero")
    return state


def _parse_params(entries) -> dict:
    out = {}
    for entry in entries or []:
        if "=" not in entry:
            raise CliError(f"--param expects name=value, got {entry!r}")
        name, _, value = entry.partition("=")
        key = name.strip()
        if key in out:
            raise CliError(f"--param {key} given more than once")
        try:
            out[key] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise CliError(f"--param {name}: {value!r} is not a rational")
    return out


def _load_instance(args):
    params = _parse_params(getattr(args, "param", None))
    lam = getattr(args, "lam", None)
    if lam is not None:
        try:
            lam = Fraction(lam)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"--lambda: {lam!r} is not a rational")
        if "lam" in params:
            raise CliError("lam given twice: by --lambda and by --param lam")
    elif "lam" in params:
        lam = params["lam"]
    level = params.get("k")
    try:
        inst = get_preset(args.algebra, level=level, lam=lam)
    except ValueError as exc:
        raise CliError(str(exc))
    for name in params:
        if name not in inst.params:
            raise CliError(
                f"--param {name} is not a parameter of {args.algebra}")
    if lam is not None and "lam" not in inst.params:
        raise CliError(f"--lambda: lam is not a parameter of {args.algebra}")
    return inst, params


def _emit(args, doc, text: str) -> None:
    """Write doc as JSON under --json, else text, to --out or stdout."""
    if args.json:
        text = json.dumps(doc, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(f"--out {out}: {exc.strerror or exc}")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    inst, _ = _load_instance(args)
    report = verify_axioms(inst.algebra, args.degree)
    _emit(args, report.to_json(), report.render())
    return 0 if report.passed else 1


def cmd_ope(args) -> int:
    inst, _ = _load_instance(args)
    alg = inst.algebra
    A = parse_state(alg, args.a)
    B = parse_state(alg, args.b)
    poles = singular_part(alg, A, B)
    doc = {str(j): render_state(alg, st) for j, st in sorted(poles.items())}
    body = ", ".join(f"{j}: {render_state(alg, poles[j])}"
                     for j in sorted(poles, reverse=True))
    _emit(args, doc, "{" + body + "}")
    return 0


def cmd_bracket(args) -> int:
    inst, _ = _load_instance(args)
    alg = inst.algebra
    A = parse_state(alg, args.a)
    B = parse_state(alg, args.b)
    try:
        m = Fraction(args.m)
        n = Fraction(args.n)
    except (ValueError, ZeroDivisionError):
        raise CliError("--m and --n must be rationals")
    terms, mode = commutator_via_formula(alg, A, m, B, n)
    doc = {"mode": str(mode),
           "terms": [{"coeff": str(c), "state": render_state(alg, st)}
                     for c, st in terms]}
    text = " + ".join(f"({c}) * ({render_state(alg, st)})_[{mode}]"
                      for c, st in terms)
    _emit(args, doc, text or "0")
    return 0


def cmd_character(args) -> int:
    inst, params = _load_instance(args)
    point = None
    names = [p for p in (inst.central_charge.parameters()
                         if inst.central_charge is not None else [])]
    if names:
        missing = [p for p in names if p not in params]
        if missing:
            raise CliError(
                "central charge is parametric; supply --param "
                + " ".join(f"{p}=..." for p in missing))
        point = ParamPoint(**{p: str(params[p]) for p in names})
    ch = character(inst, sector=args.sector, cutoff=args.cutoff, point=point)
    _emit(args, ch.to_json(), ch.render())
    return 0


def cmd_npoint(args) -> int:
    if args.algebra != "heisenberg":
        raise CliError("npoint supports --algebra heisenberg")
    if args.n < 0:
        raise CliError(f"--n must be >= 0, got {args.n}")
    f = heisenberg_npoint(None, args.n)
    _emit(args, f.to_json(), f.render())
    return 0


def cmd_center(args) -> int:
    inst, _ = _load_instance(args)
    if inst.lie is None:
        raise CliError("center requires an affine preset (affine:sl2, ...)")
    alg = inst.algebra
    currents = [st for _, st in inst.generator_states()]
    basis = coset_graded(alg, currents, args.degree)
    _render_subspace(args, alg, basis, f"center, degree {args.degree}")
    return 0


def cmd_coset(args) -> int:
    inst, _ = _load_instance(args)
    alg = inst.algebra
    gens = [parse_state(alg, chunk.strip())
            for chunk in args.states.split(";") if chunk.strip()]
    if not gens:
        raise CliError("--states needs at least one state "
                       "(semicolon-separated)")
    basis = coset_graded(alg, gens, args.degree)
    _render_subspace(args, alg, basis, f"coset, degree {args.degree}")
    return 0


def _render_subspace(args, alg, basis, label):
    rendered = [render_state(alg, v) for v in basis]
    doc = {"dimension": len(basis), "basis": rendered}
    lines = [f"{label}: dimension {len(basis)}"]
    lines.extend(f"  {r}" for r in rendered)
    _emit(args, doc, "\n".join(lines))


def cmd_coord_check(args) -> int:
    inst, _ = _load_instance(args)
    if inst.conformal is None:
        raise CliError(f"preset {inst.name!r} has no conformal vector")
    A = parse_state(inst.algebra, args.state)
    coeffs = []
    for chunk in args.rho.split(","):
        try:
            coeffs.append(parse_scalar(chunk.strip()))
        except (ScalarParseError, ZeroDivisionError) as exc:
            raise CliError(f"--rho: {exc}")
    try:
        rho = CoordChange(tuple(coeffs))
    except ValueError as exc:
        raise CliError(f"--rho: {exc}")
    check = primary_differential_check if args.check == "primary" \
        else huang_check
    try:
        report = check(inst, A, rho, window=args.window, D=args.degree,
                       first_order_in=args.first_order)
    except NotPrimary as exc:
        raise CliError(f"state is not primary: {exc}")
    doc = {"description": report.description, "passed": report.passed,
           "witness": report.witness}
    _emit(args, doc, report.render())
    return 0 if report.passed else 1


def cmd_bf_check(args) -> int:
    report = boson_fermion_check(args.degree)
    chreport = boson_fermion_character_check(Fraction(args.degree))
    passed = report.passed and chreport.passed
    doc = {"modes": {"passed": report.passed, "mismatch": report.mismatch},
           "characters": {"passed": chreport.passed,
                          "mismatch": chreport.mismatch}}
    _emit(args, doc, report.render() + "\n" + chreport.render())
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voa",
        description="Exact computations in vertex (super)algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=True):
        if algebra:
            p.add_argument("--algebra", required=True,
                           help="preset name: " + " | ".join(
                               PRESET_NAMES + ["lattice:N", "weyl:N"]))
            p.add_argument("--param", action="append", metavar="NAME=VALUE",
                           help="rational parameter assignment "
                                "(k=... for affine levels)")
            p.add_argument("--lambda", dest="lam", default=None,
                           help="conformal parameter of the heisenberg preset")
        p.add_argument("--json", action="store_true",
                       help="structured output")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")

    p = sub.add_parser("verify", help="check the vertex-algebra axioms")
    common(p)
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ope", help="singular part of an operator product")
    common(p)
    p.add_argument("--a", required=True, help='state, e.g. "L(-2) |0>"')
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_ope)

    p = sub.add_parser("bracket", help="mode commutator via the OPE formula")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--m", required=True, help="mode of the first state")
    p.add_argument("--n", required=True, help="mode of the second state")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("character", help="graded character q-series")
    common(p)
    p.add_argument("--sector", type=int, default=0)
    p.add_argument("--cutoff", type=int, default=8)
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("npoint", help="free-boson n-point function")
    common(p, algebra=False)
    p.add_argument("--algebra", default="heisenberg")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_npoint)

    p = sub.add_parser("center", help="invariants of the currents by degree")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("coset", help="commutant of given states by degree")
    common(p)
    p.add_argument("--states", required=True,
                   help="semicolon-separated states")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_coset)

    p = sub.add_parser("coord-check",
                       help="coordinate-change transformation checks")
    common(p)
    p.add_argument("--state", required=True)
    p.add_argument("--rho", required=True,
                   help='comma-separated coefficients, e.g. "1, eps"')
    p.add_argument("--check", choices=["huang", "primary"], default="huang")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--first-order", dest="first_order", default=None,
                   metavar="PARAM",
                   help="name the infinitesimal parameter, which must "
                        "occur in --rho (the comparison is exact)")
    p.set_defaults(func=cmd_coord_check)

    p = sub.add_parser("bf-check", help="boson-fermion correspondence checks")
    common(p, algebra=False)
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(func=cmd_bf_check)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # degree bounds, cutoffs and windows count down to 0
        for name in ("degree", "cutoff", "window"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise CliError(f"--{name} must be >= 0, got {value}")
        return args.func(args)
    except (CliError, ValueError, UnknownGenerator, PoleAtPoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # a closed pipe (`voa coset ... | head`) ends the process silently
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
