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

Each check of `verify_axioms` reports its first failing case in a fixed
search order, (deg A, deg B, A, B, ...).  Locality and associativity run in
one sweep over the unordered pairs {A, B}, in which each test state C holds
one `TwoModeProducts` table of the products X_[p] Y_[q] C for both checks
and both orders of the pair; the table is dropped with C.  The cases in
which the sector-0 vacuum |0>, whose field is the identity, is one of the
two fields hold by construction and are not run: translation for A = |0>,
and locality and associativity of every pair holding |0> (`verify_axioms`
gives the reasons).

The loops carry modes and degrees as ints in units of 1/u
(`ModeAlgebra.unit`), as `fields.OperatorCache` takes them, and step by u;
a witness and `NotLocalUpTo.witness` give their modes back as real values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .fock import (ModeAlgebra, State, _apply_mono, all_sector_monomials,
                   basis_monomials, mode_index, render_monomial, render_state)
from .fields import OperatorCache, gbinom
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


class TwoModeProducts(dict):
    """X_[p] Y_[q] c on one basis state C = c, keyed by the ints (x, p, y, q)
    (fields of `ops`, modes in units of 1/u) and computed through `ops` on
    first read.

    A check holds one table per test state and drops it with the state:
    the products of one window are shared with the next N windows of the
    same C, and in `verify_axioms` with the locality and associativity
    checks of both orders of a pair {A, B}.
    """

    def __init__(self, ops: OperatorCache, C: State):
        super().__init__()
        self.ops = ops
        self.c, = C.terms

    def __missing__(self, key):
        x, p, y, q = key
        ops = self.ops
        v = self[key] = ops.apply(x, p, ops.col(y, q, self.c))
        return v


def locality_defect(products: TwoModeProducts, a: int, b: int, eps: int,
                    N: int, r, t) -> State:
    """Coefficient of the (z-w)^N-multiplied supercommutator at modes (r,t)
    on the state of `products`: sum_i (-1)^i C(N,i) [A_[r+N-i], B_[t+i]] C,
    with a, b the fields of A, B, eps the sign of B A in the supercommutator
    and r, t in units of 1/u."""
    u = products.ops.alg.unit
    pairs = []
    for i in range(N + 1):
        k = (-1) ** i * comb(N, i)
        p, q = r + (N - i) * u, t + i * u
        pairs.append((products[a, p, b, q], k))
        pairs.append((products[b, q, a, p], -eps * k))
    return State.sum(pairs)


def locality_witness(ops: OperatorCache, A: State, B: State, N: int,
                     tests, cap):
    """First (r, t, C) where (z-w)^N [Y(A,z),Y(B,w)] C != 0, else None;
    r and t are real modes.

    `tests` yields each test state C, a basis monomial, with the
    `TwoModeProducts` table of C.
    """
    alg = ops.alg
    a, b = ops.field(A), ops.field(B)
    eps = -1 if (state_parity(alg, A) and state_parity(alg, B)) else 1
    for C, products in tests:
        for r, t in _locality_windows(alg, A, B, C, N, cap):
            if not locality_defect(products, a, b, eps, N, r, t).is_zero:
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
        tests = ((C, TwoModeProducts(ops, C)) for C in states)
        witness = locality_witness(ops, A, B, N, tests, int(D))
        if witness is None:
            return N
    raise NotLocalUpTo(alg, D, witness)


# ---------------------------------------------------------------------------
# Associativity (finite Borcherds-type coefficient identities)
# ---------------------------------------------------------------------------

def associativity_defect(products: TwoModeProducts, a: int, b: int, ab: int,
                         n: int, m, sA, sB, sign: int) -> State:
    """LHS - RHS of the singular-product re-expansion identity (n >= 0) on
    the state of `products`.

    a, b and ab are the fields of A, B and A_(n)B, and sign is
    (-1)^(n + |A||B|).  The unshifted product X_(j) is X_[j + s] with
    s = 1 - wt X, here sA and sB, so (A_(n)B)_(m) is
    (A_(n)B)_[m + n + sA + sB]; m, sA and sB are in units of 1/u.
    """
    ops, u = products.ops, products.ops.alg.unit
    mB = m + sB
    pairs = [(ops.col(ab, mB + n * u + sA, products.c), 1)]
    for i in range(n + 1):
        k = (-1) ** i * comb(n, i)
        pairs.append((products[a, (n - i) * u + sA, b, mB + i * u], -k))
        pairs.append((products[b, mB + (n - i) * u, a, i * u + sA],
                      k * sign))
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
    """[T, A_[p]] = (1 - p - wt A) A_[p-1], for A other than the identity
    field |0> (`verify_axioms`)."""
    alg, u = ops.alg, ops.alg.unit
    vac = State.vacuum()
    for dA, A, dB, B in _pairs(groups, D):
        if A == vac:
            continue
        a = ops.field(A)
        b, = B.terms
        TB = ops.translate(B)
        for p in range(-dA - u, _max_target_degree(alg, B) + u + 1, u):
            lhs = ops.translate(ops.col(a, p, b)) - ops.apply(a, p, TB)
            rhs = ops.col(a, p - u, b).scale(alg.from_units(u - p - dA))
            if lhs != rhs:
                yield (f"A={render_state(alg, A)}, "
                       f"B={render_state(alg, B)}, mode {alg.from_units(p)}")


def _associativity_steps(ops, dA, A, dB, B):
    """What the associativity check of (A, B) reads on every test state:
    the fields a, b of A and B, their shifts sA, sB (`associativity_defect`)
    and, for each n, (n, field of A_(n)B, (-1)^(n + |A||B|), weight of
    A_(n)B)."""
    alg, u = ops.alg, ops.alg.unit
    a, b = ops.field(A), ops.field(B)
    bm, = B.terms
    eps = state_parity(alg, A) * state_parity(alg, B)
    sA, sB = u - dA, u - dB
    n_max = int(alg.from_units(_max_target_degree(alg, B) + dA - u))
    steps = [(n, ops.field(ops.col(a, n * u + sA, bm)), (-1) ** (n + eps),
              dB - (n * u + u - dA)) for n in range(n_max + 1)]
    return a, b, sA, sB, steps


def _locality_and_associativity(ops, groups, D):
    """The first witnesses of locality and of associativity (None for a
    check that passes), from one sweep.

    Locality: N from the maximal pole order annihilates the
    supercommutator, on the ordered pairs (A, B) with deg A <= deg B.
    Associativity: singular products re-expand consistently, on all
    ordered pairs.  The sweep visits each unordered pair {A, B} once, at
    its first position in `_pairs` order, and the test states C of degree
    <= D - deg A - deg B in basis order.  Each C holds one
    `TwoModeProducts` table, read by locality and associativity of both
    orders of the pair and dropped with C.  Each check keeps its first
    witness in its own search order, (pair position, C, window) for
    locality and (pair position, n, C, m) for associativity: a case that
    cannot come before the witness found so far is not run, and the sweep
    stops once both witnesses come before the next pair.

    The pairs holding the identity field |0> hold by construction and
    are not run (`verify_axioms`).
    """
    alg, u = ops.alg, ops.alg.unit
    vac = State.vacuum()
    cap = D // u
    pairs = list(_pairs(groups, D))
    position = {(A, B): k for k, (_, A, _, B) in enumerate(pairs)}
    loc = assoc = None          # (sort key, witness)

    def before(found, key):
        return found is None or key < found[0]

    for k, (dA, A, dB, B) in enumerate(pairs):
        k2 = position[B, A]
        if k2 < k or vac in (A, B):
            continue
        if not before(loc, k) and not before(assoc, (k, 0)):
            break
        orders = [(k, dA, A, dB, B)]
        if k2 > k:
            orders.append((k2, dB, B, dA, A))
        local = [(pos, X, Y, max(singular_part(alg, X, Y, ops), default=0))
                 for pos, dX, X, dY, Y in orders
                 if dX <= dY and before(loc, pos)]
        assocs = [(pos, X, Y, *_associativity_steps(ops, dX, X, dY, Y))
                  for pos, dX, X, dY, Y in orders
                  if before(assoc, (pos, 0))]
        qAB = _charge(alg, A) + _charge(alg, B)
        for dC, C in _upto(groups, D - dA - dB):
            local = [job for job in local if before(loc, job[0])]
            assocs = [job for job in assocs if before(assoc, (job[0], 0))]
            if not local and not assocs:
                break
            products = TwoModeProducts(ops, C)
            for pos, X, Y, N in local:
                if not before(loc, pos):
                    continue        # (A, B) failed on this C before (B, A)
                w = locality_witness(ops, X, Y, N, [(C, products)], cap)
                if w is not None:
                    r, t, _ = w
                    loc = (pos, f"A={render_state(alg, X)}, "
                                f"B={render_state(alg, Y)}, N={N}, "
                                f"modes ({r},{t}), C={render_state(alg, C)}")
            e_res = alg.scaled_energy(_charge(alg, C) + qAB)
            for pos, X, Y, a, b, sX, sY, steps in assocs:
                for n, ab, sign, dAB in steps:
                    if not before(assoc, (pos, n)):
                        break
                    # m values hitting result degrees e_res + L in [0, D]
                    top = dC - e_res + dAB - u
                    for L in range(cap + 1):
                        m = top - L * u
                        if not associativity_defect(products, a, b, ab, n, m,
                                                    sX, sY, sign).is_zero:
                            assoc = ((pos, n), f"A={render_state(alg, X)}, "
                                     f"B={render_state(alg, Y)}, n={n}, "
                                     f"m={alg.from_units(m)}, "
                                     f"C={render_state(alg, C)}")
                            break
    return (None if loc is None else loc[1],
            None if assoc is None else assoc[1])


def verify_axioms(alg: ModeAlgebra, D: int) -> AxiomReport:
    """Check the vertex-algebra axioms on basis triples of total degree <= D.

    Pairs and triples are bounded by total degree (deg A + deg B (+ deg C)
    <= D), which keeps the verification exhaustive over a well-defined
    finite family while scaling to multi-generator presets.  The report
    lists the checks in the order vacuum, translation, locality,
    associativity; each reports the first failing case in a fixed search
    order, (deg A, deg B, A, B, ...), where "..." are the check's own modes
    and test states.  Locality and associativity run in one sweep over
    the unordered pairs {A, B} (`_locality_and_associativity`).  All four
    read their mode actions through one `OperatorCache`, which lives for
    this call only: X_[p] on a monomial is kept for the call, a two-mode
    product X_[p] Y_[q] C for one pair {A, B} and one test state C.

    The vacuum |0> of sector 0 names the identity field: 1_[p] is
    delta_{p,0} times the identity for every bracket table
    (`fields._field_mode_raw`).  So these cases hold by construction, can
    hold no witness, and are not run:

    - locality of every pair holding |0>: [1_[r], B_[t]] = 0;
    - translation for A = |0>: [T, 1_[p]] = 0 = (1 - p) 1_[p-1];
    - associativity of (|0>, B): every term of the defect has a factor
      1_[p] with p >= 1;
    - associativity of (B, |0>): term i of the right side cancels term
      n - i, and the left side is (B_(n)|0>)_(m) C, where B_(n)|0> = 0 for
      n >= 0, that is B_[p]|0> = 0 for p > -deg B, for every table that
      `ModeAlgebra` accepts.  By induction on the word of B = g(n) R in
      `fields._field_mode_raw`: in sector 0 a generator mode that is not
      a creation mode kills |0>, so the modes g_m moved inside,
      n < m <= 0, give 0 or carry the factor C(-m - wt g, j) = 0, as
      0 <= -m - wt g < j = -n - wt g; the outside terms, m <= n, carry
      R_[p-m]|0> with p - m > -deg R, which is 0.  The base case of a
      lattice sector vacuum 1_k holds as E-|0> = |0> (the one term,
      j = 0, of `fields._annihilation_terms` on the empty word), so
      Y(1_k, z)|0> = E+(z) z^(...) 1_k is regular.  The vacuum check
      still runs, on every A.

    A lattice sector vacuum 1_m with m != 0 is an ordinary field and is
    checked like any other state.
    """
    report = AxiomReport(alg.name, D)
    groups = _grouped_basis(alg, D)
    ops = OperatorCache(alg)
    Du = int(D * alg.unit)
    witnesses = [next(_vacuum_failures(ops, groups, Du), None),
                 next(_translation_failures(ops, groups, Du), None),
                 *_locality_and_associativity(ops, groups, Du)]
    for name, witness in zip(("vacuum", "translation", "locality",
                              "associativity"), witnesses):
        report.checks.append(CheckResult(name, witness is None, witness))
    return report


def morphism_check(src: ModeAlgebra, tgt: ModeAlgebra, images, D):
    """First witness "g(n) on v" that g -> images[g] does not define a vertex
    algebra map from sector 0 of src, else None.

    phi(g1(n1)...gk(nk)|0>) = phi(g1)_[n1+s1] ... phi(gk)_[nk+sk] |0> with
    s = wt g - deg phi(g); the check compares phi(g_n v) with
    phi(g)_[n+s] phi(v) in the order (d = deg v <= D, v, g, -d-2 <= n <= d+1).
    Each case is one zero-sum: g_n v is read from the source's memo
    (`fock._apply_mono`), and the case fails when phi(g_n v) - phi(g(n) v)
    is nonzero, the images taken term by term in the order of g_n v, then
    phi(g(n) v).  The images act through one `OperatorCache` made for the
    call, with the shifts in units of 1/u of the target; off that grid,
    every mode of the image acts by zero.
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
                    gv = _apply_mono(src, g, n, mono)
                    diff = [(image(x.word), c) for x, c in gv.terms.items()]
                    diff.append((image(((g, n),) + mono.word), -1))
                    if not State.sum(diff).is_zero:
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
