"""Constructors for the standard vertex (super)algebra instances.

Shipped presets: heisenberg, virasoro (symbolic c), affine sl2/sl3 (symbolic
level k), free fermion, Weyl (beta-gamma) systems, rank-one lattice algebras
V_{sqrt(N) Z}, and commutative vertex algebras built from differential
polynomial algebras.

Lattice algebras store the boson in the rescaled normalization
[b_m, b_n] = (m/N) delta_{m,-n} so that every structure constant is
rational; see the fock module docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Scalar, Poly, parse_scalar
from .fock import (ModeAlgebra, GeneratorSpec, BracketRule, BracketTerm,
                   CentralTerm, PbwMonomial, State, normal_order, apply_mode,
                   basis_monomials, mode_index)
from .fields import OperatorCache
from .ope import morphism_check
from .linalg import kernel_basis


class InvalidLieData(ValueError):
    pass


def _poly(text):
    s = parse_scalar(text)
    return s.num


# ---------------------------------------------------------------------------
# Lie data
# ---------------------------------------------------------------------------

@dataclass
class LieData:
    """Finite-dimensional Lie algebra with an invariant bilinear form.

    Structure constants: bracket[(i, j)] = {k: coefficient}; the form is
    normalized so the highest root has squared length 2, and h_vee is the
    dual Coxeter number (half the Casimir eigenvalue on the adjoint).
    `_matrix_lie` gives the coefficients and the form's entries as ints
    when integral, else as Fractions, as `Poly` coefficients are.
    """
    name: str
    basis: list
    bracket: dict
    form: list
    h_vee: Fraction = None
    _ginv: list = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.basis)
        for i in range(n):
            for j in range(n):
                for k, c in self.pair(i, j).items():
                    if self.pair(j, i).get(k, 0) != -c:
                        raise InvalidLieData(f"bracket not antisymmetric at "
                                             f"({self.basis[i]},{self.basis[j]})")
        # [i,[j,k]] = [[i,j],k] + [j,[i,k]]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = {}
                    for tgt, c in self.pair(j, k).items():
                        for t2, c2 in self.pair(i, tgt).items():
                            lhs[t2] = lhs.get(t2, 0) + c * c2
                    rhs = {}
                    for tgt, c in self.pair(i, j).items():
                        for t2, c2 in self.pair(tgt, k).items():
                            rhs[t2] = rhs.get(t2, 0) + c * c2
                    for tgt, c in self.pair(i, k).items():
                        for t2, c2 in self.pair(j, tgt).items():
                            rhs[t2] = rhs.get(t2, 0) + c * c2
                    for t2 in set(lhs) | set(rhs):
                        if lhs.get(t2, 0) != rhs.get(t2, 0):
                            raise InvalidLieData(
                                f"Jacobi fails at ({self.basis[i]},"
                                f"{self.basis[j]},{self.basis[k]})")
        # invariance: ([i,j], k) + (j, [i,k]) = 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    s = sum(c * self.form[t][k] for t, c in
                            self.pair(i, j).items())
                    s += sum(c * self.form[j][t] for t, c in
                             self.pair(i, k).items())
                    if s != 0:
                        raise InvalidLieData(
                            f"form not invariant at ({self.basis[i]},"
                            f"{self.basis[j]},{self.basis[k]})")
        if self.h_vee is None:
            self.h_vee = self._dual_coxeter()

    def pair(self, i, j):
        return self.bracket.get((i, j), {})

    def gram_inverse(self):
        """The inverse of the form, solved once per LieData; each call
        returns a fresh copy of the rows."""
        if self._ginv is None:
            # the solutions of form^T x_k = e_k are the rows of the inverse
            degenerate = "invariant form is degenerate"
            self._ginv = _solve(self.form, _units(len(self.basis)),
                                degenerate, degenerate)
        return [list(row) for row in self._ginv]

    def _dual_coxeter(self) -> Fraction:
        """h_vee from the Casimir acting by 2 h_vee on the adjoint."""
        ginv = self.gram_inverse()
        n = len(self.basis)
        # Casimir on basis vector 0: sum_{a,b} ginv[a][b] [x_a, [x_b, x_0]]
        target = 0
        acc = {}
        for a in range(n):
            for b in range(n):
                g = ginv[a][b]
                if g == 0:
                    continue
                for t, c in self.pair(b, target).items():
                    for t2, c2 in self.pair(a, t).items():
                        acc[t2] = acc.get(t2, 0) + g * c * c2
        eig = acc.get(target, 0)
        for t2, v in acc.items():
            if t2 != target and v != 0:
                raise InvalidLieData("Casimir is not scalar on the adjoint")
        return Fraction(eig, 2)


def _solve(cols, targets, dependent, outside):
    """The x_k with sum_c x_k[c] cols[c] = targets[k].

    With C the matrix of columns cols and T that of the K targets, the
    kernel vectors of [C | -T] are the (x, y) with C x = T y.  Their y
    parts span Q^K iff every target is in the span of cols, and then the
    kernel has dimension K iff C x = 0 only for x = 0.  In that case no
    column of C is free, so the kernel basis is the K vectors (x_k, e_k).
    Otherwise this raises InvalidLieData with the message `dependent` if
    the cols are linearly dependent, else with `outside`.  The cols are
    dependent iff some column of C is free, and a free column's basis
    vector is zero after that column (`kernel_basis`), so iff some basis
    vector has a zero y part.
    """
    n, K = len(cols), len(targets)
    rows = [{} for _ in cols[0]]
    for c, vec in enumerate(cols + [[-x for x in t] for t in targets]):
        for r, x in enumerate(vec):
            if x:
                rows[r][c] = Scalar.from_fraction(x)
    kernel = [[x.as_fraction() for x in v] for v in kernel_basis(rows, n + K)]
    ys = [v[n:] for v in kernel]
    if ys != _units(K):
        raise InvalidLieData(dependent if not all(map(any, ys)) else outside)
    return [v[:n] for v in kernel]


def _units(n):
    return [[int(i == k) for i in range(n)] for k in range(n)]


def _matrix_lie(name, named_mats):
    """LieData from explicit matrices with the trace form.

    Raises InvalidLieData if a commutator is outside the span of the
    matrices or the matrices are linearly dependent, since then the
    structure constants do not exist or are not unique.
    """
    names = [n for n, _ in named_mats]
    mats = [m for _, m in named_mats]
    dim = range(len(mats[0]))

    def flat(a):
        return [a[i][j] for i in dim for j in dim]

    def comm(a, b):
        return [sum(a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in dim)
                for i in dim for j in dim]

    pairs = [(i, j) for i in range(len(mats)) for j in range(len(mats))]
    solved = _solve([flat(m) for m in mats],
                    [comm(mats[i], mats[j]) for i, j in pairs],
                    "basis matrices are linearly dependent",
                    "commutator not in the span of the basis")
    bracket = {}
    for ij, x in zip(pairs, solved):
        dec = {c: mode_index(v) for c, v in enumerate(x) if v}
        if dec:
            bracket[ij] = dec
    form = [[mode_index(sum(a[i][t] * b[t][i] for i in dim for t in dim))
             for b in mats] for a in mats]
    return LieData(name, names, bracket, form)


def sl2_data() -> LieData:
    e = [[0, 1], [0, 0]]
    h = [[1, 0], [0, -1]]
    f = [[0, 0], [1, 0]]
    return _matrix_lie("sl2", [("e", e), ("h", h), ("f", f)])


def sl3_data() -> LieData:
    def E(i, j):
        m = [[0] * 3 for _ in range(3)]
        m[i][j] = 1
        return m

    def D(i, j):
        m = [[0] * 3 for _ in range(3)]
        m[i][i] = 1
        m[j][j] = -1
        return m

    named = [("e1", E(0, 1)), ("e2", E(1, 2)), ("e3", E(0, 2)),
             ("f1", E(1, 0)), ("f2", E(2, 1)), ("f3", E(2, 0)),
             ("h1", D(0, 1)), ("h2", D(1, 2))]
    return _matrix_lie("sl3", named)


# ---------------------------------------------------------------------------
# Algebra instances
# ---------------------------------------------------------------------------

@dataclass
class AlgebraInstance:
    name: str
    algebra: ModeAlgebra
    conformal: State | None = None
    central_charge: Scalar | None = None
    lie: LieData | None = None
    params: tuple = ()  # the preset's parameter names, set or symbolic

    def state(self, word, sector=0) -> State:
        return normal_order(self.algebra, word, sector)

    def gen_state(self, gen_name: str) -> State:
        g = self.algebra.gen_index(gen_name)
        return State.monomial(PbwMonomial(0, ((g, -self.algebra.weight(g)),)))

    def generator_states(self):
        return [(spec.name, self.gen_state(spec.name))
                for spec in self.algebra.generators]


def heisenberg(lam=None) -> AlgebraInstance:
    """Rank-one Heisenberg with conformal vector (1/2)b(-1)^2 + lam*b(-2)."""
    alg = ModeAlgebra(
        "heisenberg", [GeneratorSpec("b", Fraction(1))],
        {(0, 0): BracketRule((), CentralTerm(Scalar.one(), _poly("m")))})
    if lam is None:
        lam = Scalar.param("lam")
    elif not isinstance(lam, Scalar):
        lam = Scalar.from_fraction(Fraction(lam))
    b = alg.gen_index("b")
    omega = State.monomial(PbwMonomial(0, ((b, -1), (b, -1))),
                           Fraction(1, 2)) \
        + State.monomial(PbwMonomial(0, ((b, -2),)), lam)
    cc = Scalar.one() - lam * lam * 12
    return AlgebraInstance("heisenberg", alg, omega, cc, params=("lam",))


def virasoro() -> AlgebraInstance:
    alg = ModeAlgebra(
        "virasoro", [GeneratorSpec("L", Fraction(2))],
        {(0, 0): BracketRule((BracketTerm(0, _poly("m-n")),),
                             CentralTerm(Scalar.param("c"),
                                         _poly("(m^3-m)/12")))})
    omega = State.monomial(PbwMonomial(0, ((0, -2),)))
    return AlgebraInstance("virasoro", alg, omega, Scalar.param("c"),
                           params=("c",))


def affine(lie: LieData, level=None) -> AlgebraInstance:
    """Vacuum module V_k(g): [x_m, y_n] = [x,y]_{m+n} + m (x,y) k delta."""
    k = Scalar.param("k") if level is None else (
        level if isinstance(level, Scalar)
        else Scalar.from_fraction(Fraction(level)))
    gens = [GeneratorSpec(nm, Fraction(1)) for nm in lie.basis]
    rules = {}
    for i in range(len(lie.basis)):
        for j in range(i, len(lie.basis)):
            terms = tuple(BracketTerm(t, Poly.const(c)) for t, c in
                          sorted(lie.pair(i, j).items()))
            central = None
            if lie.form[i][j]:
                central = CentralTerm(k, _poly("m").scale(lie.form[i][j]))
            if terms or central:
                rules[(i, j)] = BracketRule(terms, central)
    name = f"affine:{lie.name}"
    alg = ModeAlgebra(name, gens, rules, vacuum_symbol="v_k")
    inst = AlgebraInstance(name, alg, lie=lie, params=("k",))
    try:
        inst.conformal = sugawara(inst)
        dim_g = len(lie.basis)
        inst.central_charge = (k * dim_g) / (k + Scalar.from_fraction(lie.h_vee))
    except ZeroDivisionError:
        pass
    return inst


def sugawara(inst: AlgebraInstance) -> State:
    """Sugawara vector 1/(2(k+h_vee)) sum_{a,b} G^{ab} J^a_{-1} J^b_{-1} v_k.

    The orthonormal-basis sum is contracted with the inverse Gram matrix of
    the chosen basis, which is equivalent and stays rational.
    """
    lie = inst.lie
    alg = inst.algebra
    if lie is None:
        raise ValueError("sugawara requires an affine instance")
    # the level, symbolic or numeric: [x_m, y_n] has central term m (x, y) k
    (i, j), c = next((ij, r.central) for ij, r in alg.rules.items()
                     if r.central is not None)
    k = c.scalar * c.coeff.evaluate({"m": 1}) / lie.form[i][j]
    denom = (k + Scalar.from_fraction(lie.h_vee)) * 2
    if denom.is_zero:
        raise ZeroDivisionError("level equals the critical level -h_vee")
    ginv = lie.gram_inverse()
    n = len(lie.basis)
    omega = State.sum(
        (apply_mode(alg, a, -1, apply_mode(alg, b, -1, State.vacuum())),
         ginv[a][b])
        for a in range(n) for b in range(n) if ginv[a][b])
    return omega.scale(Scalar.one() / denom)


def free_fermion() -> AlgebraInstance:
    """Charged fermions: psi of weight 1, psi* of weight 0."""
    alg = ModeAlgebra(
        "fermion",
        [GeneratorSpec("psi", Fraction(1), True),
         GeneratorSpec("psi*", Fraction(0), True)],
        {(0, 1): BracketRule((), CentralTerm(Scalar.one(), _poly("1")))})
    # bc-type conformal vector -:psi dpsi*: with c = -2
    p, q = alg.gen_index("psi"), alg.gen_index("psi*")
    omega = State.monomial(PbwMonomial(0, ((p, -1), (q, -1))), -1)
    return AlgebraInstance("fermion", alg, omega,
                           Scalar.from_fraction(Fraction(-2)))


def weyl(N: int = 1) -> AlgebraInstance:
    """N beta-gamma pairs: [a_{i,m}, a*_{j,n}] = delta_ij delta_{m,-n}."""
    if N < 1:
        raise ValueError("weyl rank parameter N must be >= 1")
    gens = []
    for i in range(1, N + 1):
        gens.append(GeneratorSpec(f"a{i}" if N > 1 else "a", Fraction(1)))
    for i in range(1, N + 1):
        gens.append(GeneratorSpec(f"a*{i}" if N > 1 else "a*", Fraction(0)))
    rules = {}
    for i in range(N):
        rules[(i, N + i)] = BracketRule(
            (), CentralTerm(Scalar.one(), _poly("1")))
    alg = ModeAlgebra(f"weyl:{N}" if N > 1 else "weyl:1", gens, rules)
    omega = State.sum(
        (State.monomial(PbwMonomial(0, ((i, -1), (N + i, -1)))), 1)
        for i in range(N))
    return AlgebraInstance(alg.name, alg, omega,
                           Scalar.from_fraction(2 * N))


def lattice(N: int) -> AlgebraInstance:
    """Rank-one lattice algebra V_{sqrt(N) Z}; super iff N is odd."""
    if N < 1:
        raise ValueError("lattice rank parameter N must be >= 1")
    alg = ModeAlgebra(
        f"lattice:{N}", [GeneratorSpec("b", Fraction(1))],
        {(0, 0): BracketRule((), CentralTerm(Scalar.one(),
                                             _poly("m").scale(Fraction(1, N))))},
        lattice_N=N, charge_gen=0)
    b = alg.gen_index("b")
    omega = State.monomial(PbwMonomial(0, ((b, -1), (b, -1))),
                           Fraction(N, 2))
    return AlgebraInstance(alg.name, alg, omega, Scalar.one())


def commutative_va(num_gens: int = 1) -> AlgebraInstance:
    """Commutative vertex algebra of a differential polynomial algebra.

    Generators x (or x1..xn) with zero brackets; x(-1-j)|0> represents the
    j-th derivative divided by j!, and Y(A,z) = sum m(T^n A) z^n / n!.
    """
    gens = [GeneratorSpec(f"x{i}" if num_gens > 1 else "x", Fraction(1))
            for i in range(1, num_gens + 1)]
    alg = ModeAlgebra("commutative", gens, {})
    return AlgebraInstance("commutative", alg)


# ---------------------------------------------------------------------------
# Lattice vertex operators and the boson-fermion correspondence
# ---------------------------------------------------------------------------

def lattice_vertex_op(inst: AlgebraInstance, lam: int, window, target: State):
    """Coefficients of Y(1_lam, z) target as {z-exponent: State}."""
    ops = OperatorCache(inst.algebra)
    x = ops.field(State.vacuum(lam))
    coeffs = {Fraction(e): ops.coeff(x, e, target) for e in window}
    return {e: acc for e, acc in coeffs.items() if not acc.is_zero}


@dataclass
class BosonFermionReport:
    degree: int
    passed: bool
    mismatch: str | None = None
    dims: list = field(default_factory=list)

    def render(self) -> str:
        lines = [f"boson-fermion check to degree {self.degree}: "
                 f"{'pass' if self.passed else 'FAIL'}"]
        for d, nf, nl in self.dims:
            lines.append(f"  degree {d}: fermion dim {nf}, lattice dim {nl}")
        if self.mismatch:
            lines.append(f"  mismatch: {self.mismatch}")
        return "\n".join(lines)


def boson_fermion_check(D: int = 4) -> BosonFermionReport:
    """Verify the correspondence Lambda ~ V_Z on basis states up to degree D.

    The lattice grading is charge-shifted against the fermion grading
    (deg_ferm = deg_lat - m/2 on the charge-m sector); dimensions are
    compared under that shift, and the modes by `morphism_check` with
    psi -> 1_{-1} and psi* -> 1_1.
    """
    falg, lalg = free_fermion().algebra, lattice(1).algebra
    report = BosonFermionReport(D, True)

    # graded dimensions under the charge shift
    for d in range(D + 1):
        nf = len(basis_monomials(falg, d, 0))
        nl = sum(len(basis_monomials(lalg, Fraction(2 * d + m, 2), m))
                 for m in range(-3 * D - 2, 3 * D + 3))
        report.dims.append((d, nf, nl))
        if nf != nl:
            report.passed = False
            report.mismatch = f"graded dimension at degree {d}: {nf} != {nl}"
            return report

    report.mismatch = morphism_check(falg, lalg, [State.vacuum(-1),
                                                  State.vacuum(1)], D)
    report.passed = report.mismatch is None
    return report


# ---------------------------------------------------------------------------
# Preset registry (CLI entry point)
# ---------------------------------------------------------------------------

def get_preset(name: str, level=None, lam=None) -> AlgebraInstance:
    if name == "heisenberg":
        return heisenberg(lam)
    if name == "virasoro":
        return virasoro()
    if name == "fermion":
        return free_fermion()
    if name == "commutative":
        return commutative_va()
    if name.startswith("affine:"):
        which = name.split(":", 1)[1]
        if which == "sl2":
            return affine(sl2_data(), level)
        if which == "sl3":
            return affine(sl3_data(), level)
        raise ValueError(f"unknown Lie algebra {which!r}")
    if name.startswith("weyl:"):
        return weyl(_rank(name))
    if name.startswith("lattice:"):
        return lattice(_rank(name))
    raise ValueError(f"unknown preset {name!r}")


def _rank(name: str) -> int:
    """The integer N of a "weyl:N" or "lattice:N" preset name."""
    kind, _, text = name.partition(":")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{kind} rank parameter must be an integer, "
                         f"got {text!r}") from None


PRESET_NAMES = ["heisenberg", "virasoro", "affine:sl2", "affine:sl3",
                "fermion", "weyl:1", "lattice:1", "lattice:2", "commutative"]
