"""OPE singular parts, commutator formula, locality, axiom verification.

Modes follow the weight-shifted convention of the fields module:
Y(A, z) = sum_p A_[p] z^(-p - wt A), so the pole order of the term A_[p]B in
the OPE is j = p + wt A, and A_[p]B vanishes once p exceeds deg B.

The associativity check uses the finite coefficient identities that the
re-expansion of Y(A,z)Y(B,w)C into Y(Y(A,z-w)B,w)C imposes on singular
products: for n >= 0 (in the unshifted indexing Y(A,z) = sum A_(n) z^{-n-1})

  (A_(n)B)_(m) = sum_{i=0..n} (-1)^i C(n,i)
                 (A_(n-i) B_(m+i) - (-1)^{n+|A||B|} B_(n+m-i) A_(i)),

which is exhaustive over a computed mode window (the coefficient-wise
domain swap involves no other finite data).

Each check of `verify_axioms` is a generator of the witnesses of its failing
cases; the report keeps the first one, so a witness is the first failing case
in a fixed search order, (deg A, deg B, A, B, ...).

The loops carry modes and degrees as ints in units of 1/u
(`ModeAlgebra.unit`), as `fields.OperatorCache` takes them, and step by u;
a witness and `NotLocalUpTo.witness` give their modes back as real values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .fock import (ModeAlgebra, PbwMonomial, State, all_sector_monomials,
                   apply_mode, basis_monomials, mode_index, render_monomial,
                   render_state)
from .fields import OperatorCache, gbinom, translate
from .linalg import kernel_basis


class NotLocalUpTo(Exception):
    """No locality order up to the degree bound D.

    `witness` is the first failing (r, t, C) of the largest order tried,
    rendered in the message as in the locality witness of `verify_axioms`.
    """

    def __init__(self, alg, D, witness=None):
        message = f"no locality order found up to degree bound {D}"
        if witness is not None:
            r, t, C = witness
            message += f": modes ({r},{t}), C={render_state(alg, C)}"
        super().__init__(message)
        self.D = D
        self.witness = witness


def state_parity(alg: ModeAlgebra, state: State) -> int:
    ps = {alg.mono_parity(m) for m in state.terms}
    if len(ps) > 1:
        raise ValueError("state has mixed parity")
    return ps.pop() if ps else 0


def _max_target_degree(alg, B) -> int:
    """Largest p with A_[p]B possibly nonzero, in units of 1/u: the result
    degree must be >= 0."""
    return max(alg.scaled_degree(m) for m in B.terms)


# ---------------------------------------------------------------------------
# Singular part and commutator formula
# ---------------------------------------------------------------------------

def singular_part(alg: ModeAlgebra, A: State, B: State,
                  ops: OperatorCache | None = None) -> dict:
    """Poles of Y(A,z)B as {pole order j >= 1: State}, read through `ops`
    when a cache is given, else through one made for the call."""
    if ops is None:
        ops = OperatorCache(alg)
    u, dA = alg.unit, A.scaled_degree(alg)
    a = ops.field(A)
    poles = {}
    for p in range(u - dA, _max_target_degree(alg, B) + 1, u):
        v = ops.apply(a, p, B)
        if not v.is_zero:
            poles[(p + dA) // u] = v
    return poles


def commutator_via_formula(alg: ModeAlgebra, A: State, m, B: State, kk):
    """[A_[m], B_[kk]] as a finite combination sum_n C(..) (A_[n]B)_[m+kk].

    Returns (terms, mode) where terms is a list of (coefficient, State) and
    the combination acts as sum coeff * state_[mode] (`apply_combination`);
    the mode and the coefficients are ints when integral (`mode_index`).
    """
    dA = A.degree(alg)
    m = mode_index(m)
    terms = []
    for j, AB in singular_part(alg, A, B).items():
        c = gbinom(m + dA - 1, j - 1)
        if c:
            terms.append((c, AB))
    return terms, mode_index(m + Fraction(kk))


def apply_combination(alg: ModeAlgebra, combination, C: State) -> State:
    """Apply a `commutator_via_formula` combination to the state C.

    A test oracle: the tests compare it with `commutator_direct`, and no
    check of the library calls it.
    """
    terms, mode = combination
    ops = OperatorCache(alg)
    mode = alg.to_units(mode)
    if mode is None:
        return State.zero()
    return State.sum((ops.apply(ops.field(AB), mode, C), c)
                     for c, AB in terms)


def commutator_direct(alg: ModeAlgebra, A: State, m, B: State, kk,
                      C: State) -> State:
    """[A_[m], B_[kk]] C by two mode-application orders (supercommutator)."""
    eps = -1 if (state_parity(alg, A) and state_parity(alg, B)) else 1
    ops = OperatorCache(alg)
    a, b = ops.field(A), ops.field(B)
    m, kk = alg.to_units(m), alg.to_units(kk)
    if m is None or kk is None:
        return State.zero()
    return (ops.apply(a, m, ops.apply(b, kk, C))
            - ops.apply(b, kk, ops.apply(a, m, C)).scale(eps))


# ---------------------------------------------------------------------------
# Locality
# ---------------------------------------------------------------------------

def _charge(alg, state: State) -> int:
    qs = {m.sector for m in state.terms}
    if len(qs) > 1:
        raise ValueError("state has mixed charge")
    return qs.pop() if qs else 0


def _locality_windows(alg, A, B, C, N, cap):
    """Mode pairs (r, t) to test for the (z-w)^N kernel on C, in units of
    1/u.

    Modes are aligned to the charge cosets where the terms are nonzero; the
    window covers every reachable result degree up to `cap` and N+4 values
    of the mode split, enough to expose any failure of the N-th finite
    difference (the kernel is polynomial of degree < N in the split when
    the bracket table is consistent).
    """
    u = alg.unit
    qA, qB = _charge(alg, A), _charge(alg, B)
    sC = _charge(alg, C)
    dC = C.scaled_degree(alg)
    t_top = dC - alg.scaled_energy(sC + qB)
    s_top = dC - alg.scaled_energy(sC + qA + qB) - N * u
    for L in range(int(cap) + 1):
        S = s_top - L * u               # r + t; result degree = e_res + L
        for jt in range(N + 4):
            t = t_top + (1 - jt) * u
            yield S - t, t


def locality_defect(ops: OperatorCache, a: int, b: int, eps: int, N: int,
                    r, t, c: PbwMonomial) -> State:
    """Coefficient of the (z-w)^N-multiplied supercommutator at modes (r,t)
    on the monomial c: sum_i (-1)^i C(N,i) [A_[r+N-i], B_[t+i]] c, with
    a, b the fields of A, B in `ops`, eps the sign of B A in the
    supercommutator and r, t in units of 1/u."""
    pair, u = ops.pair, ops.alg.unit
    pairs = []
    for i in range(N + 1):
        k = (-1) ** i * comb(N, i)
        p, q = r + (N - i) * u, t + i * u
        pairs.append((pair(a, p, b, q, c), k))
        pairs.append((pair(b, q, a, p, c), -eps * k))
    return State.sum(pairs)


def locality_witness(ops: OperatorCache, A: State, B: State, N: int,
                     test_states, cap):
    """First (r, t, C) where (z-w)^N [Y(A,z),Y(B,w)] C != 0, else None;
    r and t are real modes.

    The test states are basis monomials.  The two-mode products of `ops`
    live for one C, since neighbouring windows share N of their N+1 pairs.
    """
    alg = ops.alg
    a, b = ops.field(A), ops.field(B)
    eps = -1 if (state_parity(alg, A) and state_parity(alg, B)) else 1
    for C in test_states:
        c, = C.terms
        ops.new_scope()
        for r, t in _locality_windows(alg, A, B, C, N, cap):
            if not locality_defect(ops, a, b, eps, N, r, t, c).is_zero:
                return alg.from_units(r), alg.from_units(t), C
    return None


def locality_order(alg: ModeAlgebra, A: State, B: State, D) -> int:
    """Least N annihilating the supercommutator on basis states of deg <= D."""
    dA, dB = A.degree(alg), B.degree(alg)
    states = [C for _, Cs in _grouped_basis(alg, D) for C in Cs]
    bound = int(D + dA + dB)
    ops = OperatorCache(alg)
    witness = None
    for N in range(bound + 1):
        witness = locality_witness(ops, A, B, N, states, int(D))
        if witness is None:
            return N
    raise NotLocalUpTo(alg, D, witness)


# ---------------------------------------------------------------------------
# Associativity (finite Borcherds-type coefficient identities)
# ---------------------------------------------------------------------------

def associativity_defect(ops: OperatorCache, a: int, b: int, ab: int, n: int,
                         m, c: PbwMonomial, sA, sB, sign: int) -> State:
    """LHS - RHS of the singular-product re-expansion identity (n >= 0) on
    the monomial c.

    a, b and ab are the fields of A, B and A_(n)B in `ops`, and sign is
    (-1)^(n + |A||B|).  The unshifted product X_(j) is X_[j + s] with
    s = 1 - wt X, here sA and sB, so (A_(n)B)_(m) is
    (A_(n)B)_[m + n + sA + sB]; m, sA and sB are in units of 1/u.
    """
    pair, u = ops.pair, ops.alg.unit
    mB = m + sB
    pairs = [(ops.col(ab, mB + n * u + sA, c), 1)]
    for i in range(n + 1):
        k = (-1) ** i * comb(n, i)
        pairs.append((pair(a, (n - i) * u + sA, b, mB + i * u, c), -k))
        pairs.append((pair(b, mB + (n - i) * u, a, i * u + sA, c), k * sign))
    return State.sum(pairs)


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None

    def to_json(self):
        return {"check": self.name, "passed": self.passed,
                "witness": self.witness}


@dataclass
class AxiomReport:
    algebra: str
    degree: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {"algebra": self.algebra, "degree": self.degree,
                "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}

    def render(self) -> str:
        lines = [f"axiom report: {self.algebra} (degree {self.degree})"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"  {c.name:<14} {status}"
            if c.witness:
                line += f"  witness: {c.witness}"
            lines.append(line)
        lines.append(f"result: {'all axioms pass' if self.passed else 'FAILED'}")
        return "\n".join(lines)


def _grouped_basis(alg, D):
    """Basis states grouped by degree, for all sectors, degrees <= D; each
    degree an int in units of 1/u, so the window loops of the axiom checks
    run on ints."""
    groups = []
    for d in range(int(D * alg.unit) + 1):
        monos = all_sector_monomials(alg, alg.from_units(d))
        if monos:
            groups.append((d, [State.monomial(m) for m in monos]))
    return groups


def _pairs(groups, D):
    """(dA, A, dB, B) with dA + dB <= D, in the order (deg A, deg B, A, B);
    D and the degrees in units of 1/u."""
    for dA, As in groups:
        for dB, Bs in groups:
            if dA + dB <= D:
                for A in As:
                    for B in Bs:
                        yield dA, A, dB, B


def _upto(groups, top):
    """(dC, C) over the basis states of degree <= top, in basis order."""
    for dC, Cs in groups:
        if dC <= top:
            for C in Cs:
                yield dC, C


def _vacuum_failures(ops, groups, D):
    """Y(A,z)|0> is regular with constant term A."""
    alg = ops.alg
    vac, = State.vacuum().terms
    for dA, As in groups:
        for A in As:
            a = ops.field(A)
            for p in range(alg.unit - dA, 1, alg.unit):
                if not ops.col(a, p, vac).is_zero:
                    yield (f"A={render_state(alg, A)}, "
                           f"mode {alg.from_units(p)}")
            if ops.col(a, -dA, vac) != A:
                yield f"A={render_state(alg, A)}, creation mode"


def _translation_failures(ops, groups, D):
    """[T, A_[p]] = (1 - p - wt A) A_[p-1]."""
    alg, u = ops.alg, ops.alg.unit
    for dA, A, dB, B in _pairs(groups, D):
        a = ops.field(A)
        b, = B.terms
        TB = translate(alg, B)
        for p in range(-dA - u, _max_target_degree(alg, B) + u + 1, u):
            lhs = translate(alg, ops.col(a, p, b)) - ops.apply(a, p, TB)
            rhs = ops.col(a, p - u, b).scale(alg.from_units(u - p - dA))
            if lhs != rhs:
                yield (f"A={render_state(alg, A)}, "
                       f"B={render_state(alg, B)}, mode {alg.from_units(p)}")


def _locality_failures(ops, groups, D):
    """N from the maximal pole order annihilates the supercommutator."""
    alg = ops.alg
    for dA, A, dB, B in _pairs(groups, D):
        if dB < dA:
            continue
        N = max(singular_part(alg, A, B, ops), default=0)
        Cs = [C for _, C in _upto(groups, D - dA - dB)]
        w = locality_witness(ops, A, B, N, Cs, D // alg.unit)
        if w is not None:
            r, t, C = w
            yield (f"A={render_state(alg, A)}, B={render_state(alg, B)}, "
                   f"N={N}, modes ({r},{t}), C={render_state(alg, C)}")


def _associativity_failures(ops, groups, D):
    """Singular products re-expand consistently."""
    alg, u = ops.alg, ops.alg.unit
    for dA, A, dB, B in _pairs(groups, D):
        ops.new_scope()
        a, b = ops.field(A), ops.field(B)
        bm, = B.terms
        eps = state_parity(alg, A) * state_parity(alg, B)
        sA, sB = u - dA, u - dB
        qAB = _charge(alg, A) + _charge(alg, B)
        Cs = [(dC, C, alg.scaled_energy(_charge(alg, C) + qAB))
              for dC, C in _upto(groups, D - dA - dB)]
        n_max = int(alg.from_units(_max_target_degree(alg, B) + dA - u))
        for n in range(0, n_max + 1):
            ab = ops.field(ops.col(a, n * u + sA, bm))     # A_(n)B
            sign = (-1) ** (n + eps)
            dAB = dB - (n * u + u - dA)      # weight of A_(n)B
            for dC, C, e_res in Cs:
                c, = C.terms
                # m values hitting result degrees e_res + L in [0, D]
                top = dC - e_res + dAB - u
                for L in range(D // u + 1):
                    m = top - L * u
                    if not associativity_defect(ops, a, b, ab, n, m, c,
                                                sA, sB, sign).is_zero:
                        yield (f"A={render_state(alg, A)}, "
                               f"B={render_state(alg, B)}, n={n}, "
                               f"m={alg.from_units(m)}, "
                               f"C={render_state(alg, C)}")


def verify_axioms(alg: ModeAlgebra, D: int) -> AxiomReport:
    """Check the vertex-algebra axioms on basis triples of total degree <= D.

    Pairs and triples are bounded by total degree (deg A + deg B (+ deg C)
    <= D), which keeps the verification exhaustive over a well-defined
    finite family while scaling to multi-generator presets.  The checks run
    in the order vacuum, translation, locality, associativity; each reports
    the first failing case in a fixed search order, (deg A, deg B, A, B,
    ...), where "..." are the check's own modes and test states.  All four
    read their mode actions through one `OperatorCache`, which lives for
    this call only: X_[p] on a monomial is kept for the call, a two-mode
    product X_[p] Y_[q] C for one locality test state or one associativity
    pair (A, B).
    """
    report = AxiomReport(alg.name, D)
    groups = _grouped_basis(alg, D)
    ops = OperatorCache(alg)
    Du = int(D * alg.unit)
    for name, failures in (
            ("vacuum", _vacuum_failures(ops, groups, Du)),
            ("translation", _translation_failures(ops, groups, Du)),
            ("locality", _locality_failures(ops, groups, Du)),
            ("associativity", _associativity_failures(ops, groups, Du))):
        witness = next(failures, None)
        report.checks.append(CheckResult(name, witness is None, witness))
    return report


def morphism_check(src: ModeAlgebra, tgt: ModeAlgebra, images, D):
    """First witness "g(n) on v" that g -> images[g] does not define a vertex
    algebra map from sector 0 of src, else None.

    phi(g1(n1)...gk(nk)|0>) = phi(g1)_[n1+s1] ... phi(gk)_[nk+sk] |0> with
    s = wt g - deg phi(g); the check compares phi(g_n v) with
    phi(g)_[n+s] phi(v) in the order (d = deg v <= D, v, g, -d-2 <= n <= d+1).
    The images act through one `OperatorCache` made for the call, with the
    shifts in units of 1/u of the target; off that grid, every mode of the
    image acts by zero.
    """
    ops = OperatorCache(tgt)
    shifts = [tgt.to_units(src.weight(g) - A.degree(tgt)) for g, A in
              zip(range(len(src.generators)), images, strict=True)]
    xs = [ops.field(A) for A in images]
    u = tgt.unit
    step = {(): State.vacuum()}  # word -> phi(word|0>), for this call only

    def image(word):
        if word not in step:
            (g, n), rest = word[0], word[1:]
            step[word] = (State.zero() if shifts[g] is None else
                          ops.apply(xs[g], n * u + shifts[g], image(rest)))
        return step[word]

    for d in range(D + 1):
        for mono in basis_monomials(src, d, 0):
            for g in range(len(images)):
                for n in range(-d - 2, d + 2):
                    gv = apply_mode(src, g, n, State.monomial(mono))
                    lhs = State.sum((image(x.word), c)
                                    for x, c in gv.terms.items())
                    if lhs != image(((g, n),) + mono.word):
                        return (f"{src.generators[g].name}({n}) on "
                                f"{render_monomial(src, mono)}")
    return None


# ---------------------------------------------------------------------------
# Coset and center
# ---------------------------------------------------------------------------

def coset_graded(alg: ModeAlgebra, Wgens, d):
    """Basis of {v in V_d : Y(A,z)v regular for all A in Wgens} as States.

    The rows are the singular modes A_[p] on the basis monomials of V_d,
    read through one `OperatorCache` made for the call.
    """
    monos = basis_monomials(alg, d, 0)
    if not monos:
        return []
    ops = OperatorCache(alg)
    u = alg.unit
    rows = []
    for A in Wgens:
        a = ops.field(A)
        for p in range(u - A.scaled_degree(alg), alg.to_units(d) + 1, u):
            # sparse rows {column: coefficient} of A_[p] restricted to V_d
            block = {}
            for i, m in enumerate(monos):
                for t, c in ops.col(a, p, m).terms.items():
                    block.setdefault(t, {})[i] = c
            rows.extend(block[t] for t in sorted(block))
    return [State({m: c for m, c in zip(monos, vec) if not c.is_zero})
            for vec in kernel_basis(rows, len(monos))]
