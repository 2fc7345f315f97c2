"""Finite-dimensional associative algebras by structure constants, their
modules, and the structure theory the rest of the package leans on:
radicals, idempotent splitting, composition lengths, Ext groups,
standard modules and filtrations by them, and Morita-basic reductions.

Radical computation is exact and one chain in every characteristic: the
kernel of the trace form, then in characteristic p the kernels of the
characteristic-polynomial coefficients c_p, c_p^2, ... (verified
nilpotent afterwards).  The primitive idempotents are those of the
semisimple quotient A/J, lifted to A (`FDAlgebra.primitive_idempotents`).
The centre of A/J is split into fields, over F_p by Berlekamp's subalgebra
of the x with x^p = x and over Q by a primitive element whose minimal
polynomial has certified irreducible factors; a non-commutative simple
component is split further until each corner is no larger than its
centre.  So locality and indecomposability are exact, and what cannot be
split raises UnsplitSemisimpleQuotient.  Isomorphism is exact too: a walk
over the primitive idempotents of End(M) builds a split mono M -> N one
indecomposable summand at a time (`_isomorphism`, shared with
`ditmod.are_isomorphic`), and the summands of a module are the images of
those idempotents (`AlgMod.indecomposable_summands`).  Composition length
is a count over the primitive idempotents in every field: e.M has
dimension [M:S_e] dim End(S_e) (`AlgMod.length`).  Filtrations by
standard modules need no enumeration either: the trace filtration decides
them exactly over any field (`has_filtration_by`).

Every coordinate or membership query against a fixed basis (structure
constants of End(M) and of subalgebras, submodules and quotients) goes
through one `linalg.Span` per basis.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter

from .errors import BudgetExceeded, DitredError, ParseError, line_context
from .linalg import Mat, Span, _matrix_equation_kernel, span_basis
from .scalars import IrreducibleFactorizationUnavailable, Poly, factor_squarefree, field_from_name, field_name


class UnsplitSemisimpleQuotient(DitredError, ArithmeticError):
    """The semisimple quotient could not be split exactly into primitive
    idempotents with the implemented methods, or a count showed that an
    idempotent taken as primitive is not."""


class NotBasicAlgebra(DitredError, ValueError):
    """The semisimple quotient splits, but into matrix blocks: some
    primitive idempotents have isomorphic projectives."""


class NotStandardFamily(DitredError, ValueError):
    """The family is not the standard modules of the algebra for any order
    of its primitive idempotents, so the trace filtration cannot decide
    membership in the modules it filters."""


def _poly_xgcd(a: Poly, b: Poly):
    """Extended Euclid: (g, u, v) monic g = u*a + v*b."""
    fld = a.field
    r0, r1 = a, b
    u0, u1 = Poly.one(fld), Poly.zero(fld)
    v0, v1 = Poly.zero(fld), Poly.one(fld)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    c = r0.lc()
    inv = fld.inv(c)
    return r0.scale(inv), u0.scale(inv), v0.scale(inv)


class FDAlgebra:
    """Associative unital algebra given by structure constants.  It is
    immutable: its radical, primitive idempotents, left multiplications
    and projectives A.e are computed once and kept on the instance."""

    def __init__(self, field, table, unit, labels=None):
        self.field = field
        self.table = [[list(c) for c in row] for row in table]
        self.dim = len(table)
        self.unit = list(unit)
        self.labels = list(labels) if labels else [f"b{i}" for i in range(self.dim)]
        # the nonzero (k, c) of each structure constant vector b_i.b_j
        self._nz_table = [[[(k, c) for k, c in enumerate(t) if c] for t in row] for row in self.table]
        self._rad = None
        self._left_mats = None
        self._gens = None
        self._prims = None
        self._projectives = {}

    # -- arithmetic on coefficient vectors --------------------------------
    def zero_vec(self):
        return [self.field.zero] * self.dim

    def basis_vec(self, i: int):
        v = self.zero_vec()
        v[i] = self.field.one
        return v

    def mul(self, u, v):
        out = [self.field.zero] * self.dim
        vnz = [(j, b) for j, b in enumerate(v) if b]
        for a, row in zip(u, self._nz_table):
            if a:
                for j, b in vnz:
                    pairs = row[j]
                    if pairs:
                        c = a * b
                        for k, t in pairs:
                            out[k] = out[k] + c * t
        return out

    def left_mult(self, v) -> Mat:
        cols = [self.mul(v, self.basis_vec(j)) for j in range(self.dim)]
        return Mat.from_cols(self.field, cols, self.dim)

    def right_mult(self, v) -> Mat:
        cols = [self.mul(self.basis_vec(j), v) for j in range(self.dim)]
        return Mat.from_cols(self.field, cols, self.dim)

    def left_mats(self):
        if self._left_mats is None:
            self._left_mats = [self.left_mult(self.basis_vec(i)) for i in range(self.dim)]
        return self._left_mats

    def generators(self):
        """Indices of basis elements that generate the algebra with the
        unit, chosen greedily in basis order: b_i is taken when it is not in
        the subalgebra the unit and the earlier choices generate.  That
        subalgebra is the span of the words in the generators, kept closed
        under left multiplication by each of them.  Computed once."""
        if self._gens is None:
            span = Span(self.field, [self.unit])
            gens = []
            for i in range(self.dim):
                if span.contains(self.basis_vec(i)):
                    continue
                gens.append(i)
                # the span is closed under the earlier generators: multiply
                # it by the new one, and every new vector by all of them
                todo = [(v, [i]) for v in span.basis]
                while todo:
                    v, by = todo.pop()
                    for g in by:
                        w = self.mul(self.basis_vec(g), v)
                        if span.add(w):
                            todo.append((w, gens))
            self._gens = gens
        return self._gens

    def op(self) -> "FDAlgebra":
        table = [[self.table[j][i] for j in range(self.dim)] for i in range(self.dim)]
        return FDAlgebra(self.field, table, self.unit, self.labels)

    def check_associativity(self):
        """(b_i.b_j).b_k = b_i.(b_j.b_k) for every triple, in the order
        (i, j, k), from the structure constants: the left side is the sum
        of T[i][j][l].T[l][k] and the right side of T[j][k][l].T[i][l]."""
        n, zero, nz = self.dim, self.field.zero, self._nz_table
        for i in range(n):
            for j in range(n):
                ij = nz[i][j]
                for k in range(n):
                    a = [zero] * n
                    for l, c in ij:
                        for m, t in nz[l][k]:
                            a[m] = a[m] + c * t
                    b = [zero] * n
                    for l, c in nz[j][k]:
                        for m, t in nz[i][l]:
                            b[m] = b[m] + c * t
                    if a != b:
                        raise ValueError(f"not associative at ({i},{j},{k})")

    # -- subquotients ------------------------------------------------------
    def subalgebra_on(self, vectors, unit_vec):
        """Algebra structure on a multiplicatively closed subspace."""
        basis = span_basis(self.field, vectors)
        return _algebra_on(self.field, basis, self.mul, unit_vec), basis

    # -- radical -----------------------------------------------------------
    def radical(self):
        """Basis of the Jacobson radical, by one chain of kernels.  Level q
        keeps the x of the current subspace with c_q(charpoly(L_x L_y)) = 0
        for every y there, for q = 1, p, p^2, ... up to the dimension.
        Level 1 is the trace form, since c_1 = -trace, and in
        characteristic 0 it gives the whole radical.  The result is checked
        to be a nil ideal."""
        if self._rad is not None:
            return self._rad
        p, n = self.field.char, self.dim
        sub = [self.basis_vec(i) for i in range(n)]
        q = 1
        while q <= n and sub:
            if q == 1:
                rows = _trace_form(self.left_mats(), self.field.zero)
            else:
                rows = _charpoly_form([self.left_mult(x) for x in sub], n - q)
            kernel = Mat(self.field, rows).kernel()
            sub = span_basis(self.field, [_lift_vec(self.field, kv, sub, n) for kv in kernel])
            if p == 0:
                break
            q *= p
        self._assert_nil_ideal(sub)
        self._rad = sub
        return sub

    def _assert_nil_ideal(self, rad):
        # two-sided ideal
        span = Span(self.field, rad)
        for v in rad:
            for i in range(self.dim):
                for w in (self.mul(v, self.basis_vec(i)), self.mul(self.basis_vec(i), v)):
                    if not span.contains(w):
                        raise AssertionError("computed radical is not an ideal")
        # nilpotent: powers of the subspace shrink to zero
        cur = list(rad)
        steps = 0
        while cur:
            steps += 1
            if steps > self.dim + 1:
                raise AssertionError("computed radical is not nilpotent")
            nxt = [self.mul(u, v) for u in cur for v in rad]
            cur = span_basis(self.field, [w for w in nxt if any(w)])

    # -- idempotents ---------------------------------------------------------
    def find_nontrivial_idempotent(self):
        """The first primitive idempotent, or None when the unit is the only
        one, i.e. when A is local.  Exact wherever `primitive_idempotents`
        answers."""
        prims = self.primitive_idempotents()
        return list(prims[0]) if len(prims) > 1 else None

    def primitive_idempotents(self):
        """Orthogonal primitive idempotents summing to 1, as a tuple of
        tuples; split once per algebra, like the radical.

        The primitive idempotents of the semisimple quotient A/J
        (`_split_semisimple`, on the unit vectors off the echelon pivots of
        J) are ordered by the least basis index in their support,
        descending, ties broken by the text of their coefficients.  Each
        but the last is lifted from its coset representative x, taken
        inside the corner r.A.r of the rest r = 1 - e_1 - ... lifted so far,
        by e <- 3e^2 - 2e^3 until e^2 = e: the defect e^2 - e lies in J and
        squares at each step.  The last is the rest.  So they stay
        orthogonal, and each is primitive because its image is.  A/J of
        dimension 1 means A is local; an A/J that cannot be split exactly
        raises UnsplitSemisimpleQuotient."""
        if self._prims is not None:
            return self._prims
        fld = self.field
        keep, bars = range(self.dim), []
        if self.dim > 1:
            rad = self.radical()
            quo = self
            if rad:
                keep, project = _pivot_quotient(Span(fld, rad), self.dim)
                quo = FDAlgebra(fld, [[project(self.table[i][j]) for j in keep] for i in keep],
                                project(self.unit))
            if len(keep) > 1:
                bars = _split_semisimple(quo)
        bars.sort(key=lambda e: (-next(i for i, c in enumerate(e) if c), [str(c) for c in e]))
        out, rest = [], list(self.unit)
        for bar in bars[:-1]:
            x = self.zero_vec()
            for i, c in zip(keep, bar):
                x[i] = c
            e = self._lift_idempotent(self.mul(self.mul(rest, x), rest))
            out.append(tuple(e))
            rest = [a - b for a, b in zip(rest, e)]
        self._prims = tuple(out) + (tuple(rest),)
        return self._prims

    def _lift_idempotent(self, e):
        """The idempotent e <- 3e^2 - 2e^3 converges to from an e with
        e^2 - e nilpotent."""
        three, two = self.field.of(3), self.field.of(2)
        for _ in range(self.dim + 1):
            e2 = self.mul(e, e)
            if e2 == e:
                return e
            e3 = self.mul(e2, e)
            e = [three * a - two * b for a, b in zip(e2, e3)]
        raise AssertionError("idempotent lifting did not converge")

    def corner(self, e):
        """The corner algebra eAe with unit e."""
        vecs = [self.mul(self.mul(e, self.basis_vec(i)), e) for i in range(self.dim)]
        vecs = [v for v in vecs if any(c != self.field.zero for c in v)]
        return self.subalgebra_on(vecs, e)

    def is_local(self) -> bool:
        """Whether the unit is the only nonzero idempotent; exact wherever
        `primitive_idempotents` answers."""
        return self.find_nontrivial_idempotent() is None


# ---------------------------------------------------------------------------
# splitting a semisimple algebra
# ---------------------------------------------------------------------------

def _split_semisimple(Q):
    """Orthogonal primitive idempotents summing to 1 of a semisimple algebra
    Q of dimension >= 2, as coefficient lists, in no particular order.

    The centre Z is a product of fields; `_central_idempotents` splits it.
    Each central primitive idempotent c cuts out a simple component c.Q,
    a matrix ring over a division ring of dimension d = dim c.Z over the
    ground field.  When Z = Q every component is a field.  Otherwise a
    corner f.Q.f of a component with dimension d is a division ring, so f
    is primitive; a larger one is split by the minimal polynomial of one of
    the elements f.b.f, f.(b + b').f and f.b.b'.f over the basis (by
    Wedderburn, over F_p such a corner is M_n(F_p^d) with n >= 2, so it is
    not a division ring).  A corner no candidate splits raises
    UnsplitSemisimpleQuotient: over Q it may be a non-commutative division
    ring, which is not decided.  Over any field other than F_p and Q
    nothing is split and dimension >= 2 raises."""
    fld = Q.field
    if fld.kind not in ("prime-field", "rationals"):
        raise UnsplitSemisimpleQuotient(
            f"a semisimple quotient of dimension {Q.dim} over {fld!r} is not split by the implemented methods")
    centre = _centre(Q)
    pieces = _central_idempotents(Q, centre)
    if len(centre) == Q.dim:
        return pieces
    out = []
    for c in pieces:
        d = len(span_basis(fld, [Q.mul(c, z) for z in centre]))
        todo = [c]
        while todo:
            f = todo.pop()
            corner = [Q.mul(Q.mul(f, Q.basis_vec(i)), f) for i in range(Q.dim)]
            if len(span_basis(fld, corner)) == d:
                out.append(f)
                continue
            for x in _corner_candidates(Q, f, corner):
                parts = _crt_split(Q, f, x)
                if len(parts) > 1:
                    todo += parts
                    break
            else:
                raise UnsplitSemisimpleQuotient(
                    f"no candidate element splits a corner of dimension {len(span_basis(fld, corner))} "
                    f"over a centre of dimension {d}")
    return out


def _centre(Q):
    """A basis of the centre of Q: the unit vectors when Q is commutative,
    otherwise the x with x.b = b.x for every basis element b."""
    n = Q.dim
    if all(Q.table[i][j] == Q.table[j][i] for i in range(n) for j in range(i)):
        return [Q.basis_vec(i) for i in range(n)]
    rows = [[Q.table[j][i][k] - Q.table[i][j][k] for j in range(n)] for i in range(n) for k in range(n)]
    return Mat(Q.field, rows).kernel()


def _central_idempotents(Q, centre):
    """The primitive idempotents of the commutative semisimple algebra
    spanned by `centre` (its unit is the unit of Q).

    Over F_p the x with x^p = x form the Berlekamp subalgebra, a product
    of one copy of F_p per field factor (Berlekamp 1967): the kernel of
    x -> x^p - x, which is F_p-linear.  Splitting by the minimal
    polynomials of its basis elements in turn, each of them a product of
    distinct linear factors, separates all the factors.

    Over Q the element x = sum c^i z_i is primitive, deg minpoly(x) =
    dim, for all but at most C(dim, 2)(dim - 1) values of c: each pair of
    distinct embeddings into an algebraic closure agrees at x for at most
    dim - 1 values.  The CRT idempotents of the irreducible factors of its
    minimal polynomial are then the primitive idempotents.  A factor
    whose irreducibility cannot be certified raises
    UnsplitSemisimpleQuotient.

    A basis of orthogonal idempotents summing to 1, such as the vertices
    of a path algebra, is the split already: each spans a field."""
    fld, unit, d = Q.field, Q.unit, len(centre)
    if d == 1:
        return [unit]
    if _splits_unit(Q, centre):
        return centre
    if fld.is_finite():
        span = Span(fld, centre)
        cols = [[a - b for a, b in zip(span.coords(_power(Q, z, fld.char)), _unit(fld, d, i))]
                for i, z in enumerate(centre)]
        fixed = [_lift_vec(fld, k, centre, Q.dim) for k in Mat.from_cols(fld, cols, d).kernel()]
        pieces = [unit]
        for y in fixed:
            if len(pieces) == len(fixed):
                break
            pieces = [f for e in pieces for f in _crt_split(Q, e, Q.mul(y, e))]
        if len(pieces) != len(fixed):
            raise AssertionError("the Berlekamp subalgebra did not separate the factors")
        return pieces
    for c in range(1, d * (d - 1) ** 2 // 2 + 2):
        x = _lift_vec(fld, [fld.of(c ** i) for i in range(d)], centre, Q.dim)
        m = _minpoly_in(Q, x, unit)
        if m.degree == d:
            try:
                fac = factor_squarefree(m, require_irreducible=True)
            except IrreducibleFactorizationUnavailable as err:
                raise UnsplitSemisimpleQuotient(f"the centre of A/J is not split: {err}") from err
            return _crt_idempotents(Q, unit, x, m, fac)
    raise AssertionError("no primitive element: the centre is not semisimple")


def _splits_unit(Q, vecs):
    """Are `vecs` orthogonal idempotents summing to the unit of Q?"""
    zero = Q.zero_vec()
    for i, v in enumerate(vecs):
        for j, w in enumerate(vecs):
            if Q.mul(v, w) != (v if i == j else zero):
                return False
    return [sum(c, Q.field.zero) for c in zip(*vecs)] == Q.unit


def _corner_candidates(Q, f, corner):
    """The elements f.b.f, f.(b + b').f and f.b.b'.f over basis elements
    b != b' of Q, given the f.b.f."""
    n = Q.dim
    yield from corner
    for i in range(n):
        for j in range(i + 1, n):
            yield [a + b for a, b in zip(corner[i], corner[j])]
    for i in range(n):
        for j in range(n):
            if i != j:
                yield Q.mul(Q.mul(f, Q.table[i][j]), f)


def _crt_split(Q, e, x):
    """The CRT idempotents of x in the algebra with unit e that contains
    it, one per coprime factor of its minimal polynomial; [e] when there
    is only one."""
    m = _minpoly_in(Q, x, e)
    fac = factor_squarefree(m)
    return _crt_idempotents(Q, e, x, m, fac) if len(fac) > 1 else [e]


def _crt_idempotents(Q, e, x, m, fac):
    """For m = prod f^k the minimal polynomial of x (unit e) and `fac` its
    pairwise coprime (f, k): the idempotents g(x) with g = 1 mod f^k and
    g = 0 mod m / f^k.  They are orthogonal and sum to e."""
    out = []
    for f, k in fac:
        F = f ** k
        G = m // F
        _, _, v = _poly_xgcd(F, G)  # u.F + v.G = 1
        g = _eval_at(Q, (v * G) % m, x, e)
        if Q.mul(g, g) != g:
            raise AssertionError("CRT idempotent failed")
        out.append(g)
    return out


def _minpoly_in(Q, x, e):
    """The minimal polynomial of x in the algebra with unit e that contains
    it: the first power of x in the span of e, x, x^2, ..."""
    fld = Q.field
    powers = Span(fld, [e])
    p = e
    while True:
        p = Q.mul(p, x)
        c = powers.coords(p)
        if c is not None:
            return Poly(fld, [-a for a in c] + [fld.one])
        powers.add(p)


def _eval_at(Q, p: Poly, x, e):
    """p(x) in the algebra with unit e that contains x."""
    acc = [Q.field.zero] * Q.dim
    for c in reversed(p.coeffs):
        acc = [a + c * u for a, u in zip(Q.mul(acc, x), e)]
    return acc


def _power(Q, x, k):
    """x^k for k >= 1, by repeated squaring."""
    out, sq = None, x
    while True:
        if k & 1:
            out = sq if out is None else Q.mul(out, sq)
        k >>= 1
        if not k:
            return out
        sq = Q.mul(sq, sq)


def _symmetric_form(k, entry):
    """The k x k matrix of a symmetric form: entry(i, j) is computed for
    i <= j only and mirrored."""
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = entry(i, j)
    return rows


def _trace_form(mats, zero):
    """The Gram matrix of Tr(X.Y) over square matrices.  Tr(X.Y) = Tr(Y.X),
    so one triangle is summed, each entry over the nonzero entries of the
    sparser factor without forming the product."""
    nz = [[(r, c, a) for r, row in enumerate(X.rows) for c, a in enumerate(row) if a] for X in mats]

    def trace(i, j):
        if len(nz[i]) < len(nz[j]):
            i, j = j, i
        Y = mats[i].rows
        return sum((a * Y[c][r] for r, c, a in nz[j]), zero)

    return _symmetric_form(len(mats), trace)


def _charpoly_form(mats, k):
    """The Gram matrix of the x^k coefficient of charpoly(X.Y).  The
    characteristic polynomials of X.Y and Y.X agree, so one triangle is
    computed; each right factor's nonzero pairs are built once."""
    pairs = [X._row_pairs() for X in mats]
    return _symmetric_form(len(mats), lambda i, j: mats[j]._times(pairs[i], mats[i].n).charpoly().coeff(k))


def _lift_vec(field, coords, basis, dim):
    v = [field.zero] * dim
    for c, b in zip(coords, basis):
        for t in range(dim):
            v[t] = v[t] + c * b[t]
    return v


def _algebra_on(field, basis, mul, unit, flat=list):
    """The FDAlgebra on an independent list of elements closed under `mul`,
    with unit element `unit`; `flat` turns an element into a coordinate
    vector.  Structure constants are coordinates in one span."""
    span = Span(field, [flat(b) for b in basis])

    def coords(x):
        c = span.coords(flat(x))
        if c is None:
            raise ValueError("product left the span of the basis")
        return c

    table = [[coords(mul(f, g)) for g in basis] for f in basis]
    return FDAlgebra(field, table, coords(unit))


# ---------------------------------------------------------------------------
# modules over an FDAlgebra
# ---------------------------------------------------------------------------

class AlgMod:
    """Left module over an FDAlgebra: action matrices per basis element."""

    def __init__(self, alg: FDAlgebra, dim: int, mats):
        self.alg = alg
        self.dim = dim
        self.mats = list(mats)
        if len(self.mats) != alg.dim:
            raise ValueError("one action matrix per algebra basis element")
        self._rad_acts = None
        self._end = None

    def act(self, avec) -> Mat:
        """The action of the algebra element with coefficients avec: the
        sum of c * A_b, accumulated over the nonzero entries into one
        fresh row list."""
        fld, d = self.alg.field, self.dim
        out = [[fld.zero] * d for _ in range(d)]
        for c, m in zip(avec, self.mats):
            if c:
                for orow, mrow in zip(out, m.rows):
                    for j, a in enumerate(mrow):
                        if a:
                            orow[j] = orow[j] + c * a
        return Mat._own(fld, out, d)

    def check(self):
        fld = self.alg.field
        if self.dim and not self.act(self.alg.unit) == Mat.eye(fld, self.dim):
            raise ValueError("unit does not act as identity")
        for i in range(self.alg.dim):
            for j in range(self.alg.dim):
                lhs = self.mats[i] * self.mats[j]
                rhs = self.act(self.alg.table[i][j])
                if lhs != rhs:
                    raise ValueError(f"action not multiplicative at ({i},{j})")

    # -- constructions -----------------------------------------------------
    @staticmethod
    def regular(alg: FDAlgebra) -> "AlgMod":
        return AlgMod(alg, alg.dim, alg.left_mats())

    @staticmethod
    def direct_sum(a: "AlgMod", b: "AlgMod") -> "AlgMod":
        fld = a.alg.field
        mats = [Mat.block_diag(fld, [m1, m2]) for m1, m2 in zip(a.mats, b.mats)]
        return AlgMod(a.alg, a.dim + b.dim, mats)

    def submodule_closure(self, vectors):
        """Basis of the smallest submodule containing the vectors."""
        span = Span(self.alg.field, vectors)
        frontier = list(span.basis)
        while frontier:
            new = []
            for v in frontier:
                for m in self.mats:
                    w = m.apply(v)
                    if span.add(w):
                        new.append(w)
            frontier = new
        return span.basis

    def submodule(self, basis) -> "AlgMod":
        """The submodule on an independent invariant list of vectors."""
        return AlgMod(self.alg, len(basis), _restrict_maps(self.alg.field, basis, self.mats))

    def quotient(self, sub_basis):
        """Quotient module and the projection matrix."""
        fld = self.alg.field
        sub = Span(fld, sub_basis)
        if not sub.basis:
            return self, Mat.eye(fld, self.dim)
        keep, project = _pivot_quotient(sub, self.dim)
        proj = Mat(fld, [project(_unit(fld, self.dim, j)) for j in range(self.dim)]).T()
        mats = [proj * m * Mat.from_cols(fld, [_unit(fld, self.dim, j) for j in keep], self.dim) for m in self.mats]
        return AlgMod(self.alg, len(keep), mats), proj

    def hom(self, other: "AlgMod"):
        """Basis of intertwiners self -> other as matrices: the F with
        F A_b - B_b F = 0 for each b of `FDAlgebra.generators`.  Every
        basis element is a combination of the unit and of words in the
        generators, and on a module (as `check` asserts) the unit acts as
        the identity and a word as the product of its matrices; so these
        equations have the kernel of those for all b, hence the same
        reduced form and basis."""
        fld = self.alg.field
        one, minus = fld.one, -fld.one
        equations = [[(0, None, self.mats[b], one), (0, other.mats[b], None, minus)] for b in self.alg.generators()]
        return [F for (F,) in _matrix_equation_kernel(fld, [(other.dim, self.dim)], equations)]

    def hom_dim(self, other: "AlgMod") -> int:
        return len(self.hom(other))

    def end_algebra(self):
        """Endomorphism algebra as an FDAlgebra (composition order:
        (f*g)(v) = f(g(v))), with its basis of matrices; built once and
        kept on the module."""
        if self._end is None:
            fld = self.alg.field
            basis = self.hom(self)
            self._end = _algebra_on(fld, basis, Mat.__mul__, Mat.eye(fld, self.dim), _flat_mat), basis
        return self._end

    def is_isomorphic(self, other: "AlgMod") -> Mat | None:
        """An isomorphism self -> other as a matrix, or None when there is
        none; exact (`_isomorphism`).  An End(self) that cannot be split
        raises UnsplitSemisimpleQuotient."""
        if self.dim != other.dim:
            return None
        if self.dim == 0:
            return Mat.zeros(self.alg.field, 0, 0)
        return _isomorphism(self.alg.field, self.hom(other), self.end_algebra, lambda: other.hom(self),
                            Mat.__mul__, _flat_mat)

    def length(self) -> int:
        """Composition length from the primitive idempotents and the
        radical J: the sum over e of dim(e.M) / (dim A.e - dim J.e).

        The count is exact (Auslander-Reiten-Smalo, Representation Theory
        of Artin Algebras).  Let S_e = A.e/J.e be the simple top of A.e and
        d_e = dim End(S_e).  Then dim e.M = dim Hom(A.e, M) = [M:S_e].d_e.
        Let n_e be the number of idempotents in the set whose projective is
        isomorphic to A.e.  The block of the semisimple A/J at S_e is then
        a matrix ring over a division ring of dimension d_e with n_e rows,
        so dim S_e = n_e.d_e.  The n_e terms of one class add up to
        [M:S_e], and the whole sum is the length.  A total that is not an
        integer proves some idempotent was not primitive and raises
        UnsplitSemisimpleQuotient; an integer total does not prove the
        converse."""
        if self.dim == 0:
            return 0
        alg = self.alg
        fld = alg.field
        total = Fraction(0)
        for e in alg.primitive_idempotents():
            em = self.act(e).rank()
            if em:
                # dim A.e/J.e: the b.e that stay independent over J.e
                top = Span(fld, [alg.mul(r, e) for r in alg.radical()])
                simple_dim = sum(top.add(alg.mul(alg.basis_vec(i), e)) for i in range(alg.dim))
                total += Fraction(em, simple_dim)
        if total.denominator != 1:
            raise UnsplitSemisimpleQuotient(f"composition count {total} is not an integer; "
                                            "an idempotent is not primitive")
        return int(total)

    def indecomposable_summands(self):
        """The indecomposable summands e.M, one per primitive idempotent e
        of End(M) in their order: e commutes with the action, so e.M is a
        submodule, and M is their direct sum."""
        if self.dim == 0:
            return []
        E, basis = self.end_algebra()
        fld = self.alg.field
        return [self.submodule(span_basis(fld, _combine(e, basis).cols())) for e in E.primitive_idempotents()]


def _unit(field, n, j):
    v = [field.zero] * n
    v[j] = field.one
    return v


def _complement_in(field, small, big):
    """Vectors of `big` extending a basis of `small` (inside the span)."""
    span = Span(field, small)
    return [v for v in big if span.add(v)]


def _restrict_maps(field, basis, maps):
    """The matrices of `maps` on the invariant span of an independent list
    of vectors, in coordinates over that list."""
    span = Span(field, basis)
    out = []
    for m in maps:
        cols = [span.coords(m.apply(v)) for v in basis]
        if any(c is None for c in cols):
            raise ValueError("not a submodule")
        out.append(Mat.from_cols(field, cols, len(basis)))
    return out


def _pivot_quotient(span, n):
    """Coordinates on field^n modulo `span`: the unit vectors off its
    echelon pivots complete it to a basis, and project(v) gives the
    coordinates of v on them.  Extends `span` by those unit vectors."""
    k = len(span.basis)
    pivots = set(span.pivots)
    keep = [j for j in range(n) if j not in pivots]
    for j in keep:
        span.add(_unit(span.field, n, j))

    def project(v):
        c = span.coords(v)
        if c is None:
            raise AssertionError("projection failed")
        return c[k:]

    return keep, project


def _isomorphism(field, homs, end, back, compose, flat):
    """An isomorphism M -> N, or None when there is none; exact.  M and N
    are nonzero of the same dimension, `homs` is a basis of Hom(M, N),
    `end()` gives End(M) as an FDAlgebra with its basis, `back()` a basis
    of Hom(N, M), `compose(g, f)` is g after f and `flat` gives the
    coordinates of a morphism; morphisms have `+`, `scale` and
    `is_invertible`.  End(M) is only built past step 1 and Hom(N, M) only
    past step 3.

    1. The first invertible basis hom is returned.
    2. M ~ N gives Hom(M, N) ~ End(M), so no hom, or a dimension other
       than dim End(M), means M and N are not isomorphic.
    3. End(M) local (one primitive idempotent): if phi: M -> N is an
       isomorphism, the maps that are not are phi.rad End(M), a subspace,
       so some basis hom would be invertible.
    4. Otherwise let e_1, ..., e_r be the primitive idempotents of End(M)
       (Krull-Schmidt and Fitting: Auslander-Reiten-Smalo, Representation
       Theory of Artin Algebras, I.4 and II.2), M_s the indecomposable
       summand e_s cuts out and u = e_1 + ... + e_s.  Starting from f = 0,
       step s replaces f by the first f + h.e_s, h a basis hom, that is
       split mono on u.M; no such h means "not isomorphic".

    Why the walk is exact.  Let f be split mono on U = (e_1 + ... +
    e_{s-1}).M, so N is the direct sum of f(U) and some C; let pi be the
    projection onto C along f(U).  On U (+) M_s the map f + h.e_s is
    triangular with f invertible from U onto f(U), so it is split mono
    iff pi.h is split mono on M_s.  If M ~ N, Krull-Schmidt cancels U:
    C ~ M_s (+) ... (+) M_r, so some map M_s -> C is split mono.
    End(M_s) is local, so the maps phi: M_s -> C that are not split mono
    (psi.phi in rad End(M_s) for every psi: C -> M_s) form a subspace.
    Every map M_s -> C is pi.h.e_s for some h, and h -> pi.h.e_s is
    linear, so some basis hom h gives a map outside that subspace.  So a
    step with no such h proves that M and N are not isomorphic.  After
    step r, f is split mono on M, so it is injective (its f0 at every
    point, over a layer), and M and N have the same dimensions: f is an
    isomorphism.  The test: a
    left inverse of f on u.M is u.g for some g: N -> M, so f is split
    mono there iff u lies in the span of the u.g.f, g over a basis of
    Hom(N, M).

    An End(M) whose semisimple quotient cannot be split raises
    UnsplitSemisimpleQuotient, an explicit "undecided"."""
    for h in homs:
        if h.is_invertible():
            return h
    if not homs:
        return None
    E, basis = end()
    if len(homs) != E.dim:
        return None
    prims = E.primitive_idempotents()
    if len(prims) == 1:
        return None
    backs = back()
    f = u = None
    for e in (_combine(p, basis) for p in prims):
        u = e if u is None else u + e
        target, ugs = flat(u), [compose(u, g) for g in backs]
        for h in homs:
            nxt = compose(h, e) if f is None else f + compose(h, e)
            if Span(field, [flat(compose(ug, nxt)) for ug in ugs]).contains(target):
                f = nxt
                break
        else:
            return None
    return f


def _combine(coeffs, basis):
    """The combination of `basis` with a nonzero coefficient vector."""
    terms = [b.scale(c) for c, b in zip(coeffs, basis) if c]
    return sum(terms[1:], terms[0])


def _flat_mat(m: Mat):
    return [a for r in m.rows for a in r]


# ---------------------------------------------------------------------------
# projectives, Ext, standard modules, Morita basics
# ---------------------------------------------------------------------------

def _trace(M: AlgMod, idems):
    """The submodule of M generated by e.M for each e in `idems`: the trace
    in M of the projectives A.e, since every map A.e -> M is a -> a.m for
    some m in e.M."""
    return M.submodule_closure([v for e in idems for v in M.act(e).cols()])


def _rad_of(M: AlgMod, vecs):
    """A basis of J.U inside M, for J the radical of the algebra and U the
    submodule spanned by `vecs`.  The action matrices of J are built once
    per module."""
    if M._rad_acts is None:
        M._rad_acts = [M.act(r) for r in M.alg.radical()]
    return span_basis(M.alg.field, [a.apply(v) for a in M._rad_acts for v in vecs])


def projective_module(alg: FDAlgebra, e) -> tuple[AlgMod, list]:
    """The left module A.e with its basis inside A; built once per
    idempotent and kept on the algebra, so callers must not mutate it."""
    key = tuple(e)
    if key not in alg._projectives:
        basis = span_basis(alg.field, [alg.mul(alg.basis_vec(i), e) for i in range(alg.dim)])
        alg._projectives[key] = AlgMod.regular(alg).submodule(basis), basis
    return alg._projectives[key]


def projective_cover_presentation(alg: FDAlgebra, M: AlgMod):
    """A projective presentation P1 -> P0 -> M -> 0 built from primitive
    idempotents; returns (P0, pi: Mat, Omega_basis) with Omega = ker pi."""
    fld = alg.field
    prims = alg.primitive_idempotents()
    # generators of M: lift a basis of M / rad M
    units = [_unit(fld, M.dim, j) for j in range(M.dim)]
    gens = _complement_in(fld, _rad_of(M, units), units)
    pieces = []
    maps = []
    for g in gens:
        for e in prims:
            eg = M.act(e).apply(g)
            if any(c != fld.zero for c in eg):
                # the map A.e -> M, v -> v.g
                P, basis = projective_module(alg, e)
                cols = [M.act(v).apply(g) for v in basis]
                pieces.append(P)
                maps.append(Mat.from_cols(fld, cols, M.dim))
    if not pieces:
        P0 = AlgMod(alg, 0, [Mat.zeros(fld, 0, 0)] * alg.dim)
        return P0, Mat.zeros(fld, M.dim, 0), []
    P0 = pieces[0]
    for P in pieces[1:]:
        P0 = AlgMod.direct_sum(P0, P)
    pi = Mat.hstack(fld, maps)
    if M.dim and pi.rank() != M.dim:
        raise AssertionError("projective presentation is not surjective")
    omega = pi.kernel()
    return P0, pi, omega


def ext1_dim(alg: FDAlgebra, M: AlgMod, N: AlgMod) -> int:
    """dim Ext^1(M, N) via Hom(Omega M, N) / image of Hom(P0, N)."""
    fld = alg.field
    P0, pi, omega = projective_cover_presentation(alg, M)
    if not omega:
        return 0
    Om = P0.submodule(omega)
    homs_Om_N = Om.hom(N)
    if not homs_Om_N:
        return 0
    homs_P0_N = P0.hom(N)
    # restriction of P0 -> N maps to Omega
    O = Mat.from_cols(fld, omega, P0.dim)
    img = Span(fld, [_flat_mat(h * O) for h in homs_P0_N])
    # each hom Omega -> N independent of the image adds one dimension
    return sum(img.add(_flat_mat(h)) for h in homs_Om_N)


def simple_modules(alg: FDAlgebra):
    """Simple modules of a split basic-ish algebra: tops of the
    projectives at primitive idempotents, deduplicated."""
    out = []
    for e in alg.primitive_idempotents():
        P, _ = projective_module(alg, e)
        S = P.quotient(_rad_of(P, [_unit(alg.field, P.dim, j) for j in range(P.dim)]))[0]
        if all(S.is_isomorphic(T) is None for T in out):
            out.append(S)
    return out


def standard_modules(alg: FDAlgebra, order=None):
    """For an ordered complete set of primitive idempotents, the largest
    quotient of each projective whose composition factors stay at or below
    its index: Delta(i) = P(i) / (trace of the later P(j) in P(i))."""
    prims = alg.primitive_idempotents()
    if order is not None:
        prims = [prims[i] for i in order]
    projs = [projective_module(alg, e)[0] for e in prims]
    return [P.quotient(_trace(P, prims[i + 1:]))[0] for i, P in enumerate(projs)]


def _standard_order(alg: FDAlgebra, family):
    """(order, idems): the family indices in an order under which `family`
    is the standard modules, and per family index the primitive idempotent
    whose simple is its top.  Raises NotStandardFamily when there is no
    such order.  The argument is in `has_filtration_by`."""
    fld = alg.field
    prims = alg.primitive_idempotents()
    n = len(prims)
    if len(family) != n:
        raise NotStandardFamily(f"{len(family)} modules for {n} primitive idempotents")
    top, kernel_tops = [], []
    for k, T in enumerate(family):
        radT = Span(fld, _rad_of(T, [_unit(fld, T.dim, c) for c in range(T.dim)]))
        heads = [(i, v) for i, e in enumerate(prims) for v in T.act(e).cols() if not radT.contains(v)]
        if len({i for i, _ in heads}) != 1 or len(T.submodule_closure([heads[0][1]])) != T.dim:
            raise NotStandardFamily(f"module {k + 1} of the family is not cyclic with a simple top")
        i, x = heads[0]
        # K = ker(P(i) -> T, a -> a.x) and the idempotents of its top
        P, basis = projective_module(alg, prims[i])
        K = Mat.from_cols(fld, [T.act(b).apply(x) for b in basis], T.dim).kernel()
        radK = Span(fld, _rad_of(P, K))
        top.append(i)
        kernel_tops.append([j for j, e in enumerate(prims) if any(not radK.contains(P.act(e).apply(v)) for v in K)])
    if len(set(top)) != len(top):
        raise NotStandardFamily("two modules of the family have the same top")
    # k before l: L(top k) is a composition factor of family[l], or L(top l) is in the top of K_k
    before = {l: {k for k in range(n) if k != l and not family[l].act(prims[top[k]]).is_zero()}
              | {k for k in range(n) if top[l] in kernel_tops[k]} for l in range(n)}
    try:
        order = list(TopologicalSorter(before).static_order())
    except CycleError:
        raise NotStandardFamily("no order of the primitive idempotents makes the family standard") from None
    return order, [prims[i] for i in top]


def has_filtration_by(alg: FDAlgebra, M: AlgMod, family):
    """A filtration of M by `family`, or None when M has none; exact.  The
    witness holds one (family index, basis) per factor, bottom to top: the
    basis spans the member of the chain whose top factor is that copy of
    family[index].  Raises NotStandardFamily when `family` is not the
    standard modules of `alg` for any order of its primitive idempotents.

    Notation.  For an order e_1 < ... < e_n of the primitive idempotents,
    P(j) = A.e_j has simple top L(j), and tr_S(X), the trace of the P(k)
    with k in S, is the submodule of X generated by the e_k.X (`_trace`).
    The standard module Delta(j) = P(j)/tr_{>j}(P(j)) has top L(j), and
    all its composition factors are L(i) with i <= j.  A map P(k) -> X is
    zero for every k in S iff e_k.X = 0 for every k in S, iff X has no
    composition factor L(k), k in S.

    Order recovery.  Each family[k] must be cyclic with simple top
    L(j_k), the j_k distinct, so P(j_k) maps onto it with kernel K_k.
    Put k before l when e_{j_k}.family[l] != 0, and k after l when L(j_k)
    lies in the top of K_l.  If the family is standard for an order, that
    order obeys both rules: Delta(l) has its factors at or below l, and
    its kernel tr_{>l}(P(j_l)) is generated by images of P(>l).
    Conversely take a topological order.  K_l is covered by projectives
    P(>l), so K_l is inside tr_{>l}(P(j_l)).  family[l] has no factor
    L(>l), so the image of tr_{>l}(P(j_l)) in it is zero and
    tr_{>l}(P(j_l)) is inside K_l.  So family[l] = Delta(l).  Hence the
    family is standard for some order iff this graph is acyclic, and then
    for every topological order.

    Criterion (Dlab-Ringel, LMS Lecture Notes 168, 1992; Ringel, Math. Z.
    208, 1991).  Let U_j = tr_{>=j}(M), so M = U_1 and U_{n+1} = 0.
      (a) Ext^1(Delta(i), Delta(j)) = 0 for j <= i.  It is a quotient of
          Hom(tr_{>i}(P(i)), Delta(j)), whose source has its top among the
          L(>i) and whose target has its factors among the L(<=j).
      (b) M is in F(Delta) iff every U_j/U_{j+1} is filtered by Delta(j).
          By (a), a factor Delta(i) directly below a factor Delta(l) with
          i < l splits off and the two can be swapped.  So a filtration can
          be sorted with the indices falling upward.  Its member N_j with
          the factors of index >= j is generated by images of P(>=j), so
          N_j is inside U_j.  M/N_j has no factor L(>=j), so U_j is inside
          N_j.  By (a) again, U_j/U_{j+1} is then Delta(j)^m.
      (c) M/U_{j+1} has no factor L(>j): a map from P(>j) to it lifts to
          M, into U_{j+1}.  So for U_{j+1} <= V <= U_j and g in e_j.M,
          (V + A.g)/V is a quotient of Delta(j).

    The walk.  For j = n down to 1, start from V = U_{j+1} and add A.g for
    each g in e_j.M = e_j.U_j outside V + J.U_j.  By (c) each step adds at
    most dim Delta(j).  If every step adds exactly that, the steps are
    factors Delta(j), and at the end e_j.M lies in V + J.U_j.  Then
    U_j = U_{j+1} + A.e_j.M = V + J.U_j, so V = U_j by Nakayama's lemma.
    Now let U_j/U_{j+1} = Delta(j)^m.  Each chosen g adds a new summand
    L(j) to its top, so the g extend to m generators.  They give a map
    from Delta(j)^m onto U_j/U_{j+1}, which is an isomorphism by
    dimension.  So every step adds exactly dim Delta(j).  Therefore a
    shorter step proves that M is not in F(Delta), by (b), and None is
    exact."""
    order, idems = _standard_order(alg, family)
    fld = alg.field
    wit, cur = [], []  # cur: the chain member reached so far, U_{j+1} when layer j starts
    for k in reversed(order):
        # sums of submodules are submodules: U_j = U_{j+1} + A.e_j.M, V + A.g
        U = span_basis(fld, cur + _trace(M, [idems[k]]))
        below = Span(fld, _rad_of(M, U) + cur)
        for g in M.act(idems[k]).cols():
            if below.contains(g):
                continue
            nxt = span_basis(fld, cur + M.submodule_closure([g]))
            if len(nxt) - len(cur) != family[k].dim:
                return None
            cur = nxt
            wit.append((k, cur))
            for v in cur:
                below.add(v)
    return wit


def basic_algebra(alg: FDAlgebra):
    """Morita-basic reduction: choose one primitive idempotent per
    isomorphism class of projectives; return (basic algebra, e) where the
    corner e.A.e realizes it and e is the chosen idempotent sum."""
    prims = alg.primitive_idempotents()
    projs = [projective_module(alg, e)[0] for e in prims]
    chosen = []
    chosen_mods = []
    for e, P in zip(prims, projs):
        if all(P.is_isomorphic(Q) is None for Q in chosen_mods):
            chosen.append(e)
            chosen_mods.append(P)
    esum = _lift_vec(alg.field, [alg.field.one] * len(chosen), chosen, alg.dim)
    corner, cbasis = alg.corner(esum)
    return corner, esum, cbasis


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def algebra_to_text(alg: FDAlgebra) -> str:
    lines = ["algebra", f"field {field_name(alg.field)}", f"dim {alg.dim}"]
    lines.append("basis " + " ".join(alg.labels))
    lines.append("unit " + " ".join(str(c) for c in alg.unit))
    z = alg.field.zero
    for i in range(alg.dim):
        for j in range(alg.dim):
            if any(c != z for c in alg.table[i][j]):
                lines.append(f"mul {i + 1} {j + 1} = " + " ".join(str(c) for c in alg.table[i][j]))
    return "\n".join(lines) + "\n"


def algebra_from_text(text: str) -> FDAlgebra:
    field = None
    dim = None
    labels = None
    unit = None
    table = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line == "algebra":
            continue
        with line_context(ln):
            if line.startswith("field "):
                field = field_from_name(line[6:])
            elif field is None:
                raise ParseError("the field line must come first", ln)
            elif line.startswith("dim "):
                dim = int(line[4:])
                table = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
            elif line.startswith("basis "):
                labels = line[6:].split()
            elif line.startswith("unit "):
                unit = _parse_vector(field, line[5:], dim, ln)
            elif line.startswith("mul "):
                head, _, rest = line[4:].partition("=")
                vec = _parse_vector(field, rest, dim, ln)
                i, j = (int(t) - 1 for t in head.split())
                if not (0 <= i < dim and 0 <= j < dim):
                    raise ParseError(f"mul index out of range 1..{dim}", ln)
                table[i][j] = vec
            else:
                raise ParseError(f"unrecognized algebra line {line!r}", ln)
    if field is None or dim is None or unit is None:
        raise ParseError("algebra file missing field/dim/unit")
    alg = FDAlgebra(field, table, unit, labels)
    with line_context(None):
        alg.check_associativity()
    return alg


def _parse_vector(field, s, dim, ln):
    """A coefficient vector of length dim, the dimension declared so far."""
    if dim is None:
        raise ParseError("the dim line must come before unit and mul lines", ln)
    vec = [field.parse(t) for t in s.split()]
    if len(vec) != dim:
        raise ParseError(f"expected {dim} coefficients, got {len(vec)}", ln)
    return vec


def algmod_to_text(M: AlgMod) -> str:
    lines = ["algmod", f"dim {M.dim}"]
    for i, m in enumerate(M.mats):
        if not m.is_zero():
            rows = ["[" + " ".join(str(e) for e in r) + "]" for r in m.rows]
            lines.append(f"act {i + 1} = " + " ".join(rows))
    return "\n".join(lines) + "\n"


def algmod_from_text(alg: FDAlgebra, text: str) -> AlgMod:
    dim = None
    mats = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line == "algmod":
            continue
        with line_context(ln):
            if line.startswith("dim "):
                dim = int(line[4:])
            elif line.startswith("act "):
                head, _, rest = line[4:].partition("=")
                i = int(head.strip()) - 1
                if not 0 <= i < alg.dim:
                    raise ParseError(f"act index out of range 1..{alg.dim}", ln)
                mats[i] = _parse_matrix(alg.field, rest, ln, ncols=dim)
            else:
                raise ParseError(f"unrecognized module line {line!r}", ln)
    if dim is None:
        raise ParseError("module file missing dim")
    full = [mats.get(i, Mat.zeros(alg.field, dim, dim)) for i in range(alg.dim)]
    M = AlgMod(alg, dim, full)
    with line_context(None):
        M.check()
    return M


def _parse_matrix(field, s, ln, ncols=None) -> Mat:
    """A matrix written row by row as `[a b] [c d]`."""
    rows = []
    for chunk in s.split("]"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not chunk.startswith("["):
            raise ParseError(f"bad matrix chunk {chunk!r}", ln)
        rows.append([field.parse(t) for t in chunk[1:].split()])
    return Mat(field, rows, ncols=ncols)


def endolength_algmod(M: AlgMod) -> int:
    """Length of a module over its own endomorphism algebra (acting on
    the right by evaluation)."""
    if M.dim == 0:
        return 0
    E, basis = M.end_algebra()
    mod = AlgMod(E, M.dim, basis)
    return mod.length()


def enumerate_algmods(alg: FDAlgebra, dmax: int, budget: int = 300_000):
    """All modules of dimension <= dmax over a split basic algebra,
    enumerated through dimension vectors at the primitive idempotents and
    action matrices for a graded radical basis, then verified against the
    full multiplication table.  Complete over F_p.  An algebra that is
    split but not basic raises NotBasicAlgebra, one that is not split
    UnsplitSemisimpleQuotient."""
    fld = alg.field
    prims = alg.primitive_idempotents()
    rad = alg.radical()
    if len(prims) + len(rad) != alg.dim:
        def corner_dim(vecs, e):
            return len(span_basis(fld, [alg.mul(alg.mul(e, v), e) for v in vecs]))

        # A/J is split when every e.(A/J).e is the field; its surplus
        # dimension then comes from matrix blocks
        whole = [alg.basis_vec(n) for n in range(alg.dim)]
        if all(corner_dim(whole, e) - corner_dim(rad, e) == 1 for e in prims):
            raise NotBasicAlgebra(f"enumeration needs a basic algebra: A/J is split of dimension "
                                  f"{alg.dim - len(rad)} with {len(prims)} primitive idempotents")
        raise UnsplitSemisimpleQuotient("enumeration needs a split basic algebra")
    # graded radical pieces e_i r e_j
    pieces = []
    for r in rad:
        for i, ei in enumerate(prims):
            for j, ej in enumerate(prims):
                v = alg.mul(ei, alg.mul(r, ej))
                if any(c != fld.zero for c in v):
                    pieces.append((i, j, v))
    # the prims stay independent modulo the radical, so a piece is
    # independent of prims + earlier pieces iff of the earlier pieces
    span = Span(fld, prims)
    pieces_basis = [(i, j, v) for (i, j, v) in pieces if span.add(v)]
    # coordinates of each algebra basis element over prims + pieces
    coords = [span.coords(alg.basis_vec(n)) for n in range(alg.dim)]
    if any(c is None for c in coords):
        raise UnsplitSemisimpleQuotient("basis escapes idempotents plus radical")
    grid = fld.elements() if fld.is_finite() else fld.grid()
    out = []
    count = 0
    npr = len(prims)
    for dims in itertools.product(range(dmax + 1), repeat=npr):
        total = sum(dims)
        if total == 0 or total > dmax:
            continue
        offs = []
        o = 0
        for d in dims:
            offs.append(o)
            o += d
        size = 1
        for (i, j, _) in pieces_basis:
            size *= len(grid) ** (dims[i] * dims[j])
        count += size
        if count > budget:
            raise BudgetExceeded("algebra module enumeration over budget")
        spaces = []
        for (i, j, _) in pieces_basis:
            spaces.append(list(_mat_space(fld, dims[i], dims[j], grid)))
        for combo in itertools.product(*spaces):
            piece_mats = []
            for (idx, (i, j, _)) in enumerate(pieces_basis):
                m = Mat.zeros(fld, total, total)
                blk = combo[idx]
                for r in range(dims[i]):
                    for c in range(dims[j]):
                        m.rows[offs[i] + r][offs[j] + c] = blk.rows[r][c]
                piece_mats.append(m)
            prim_mats = []
            for i in range(npr):
                m = Mat.zeros(fld, total, total)
                for r in range(dims[i]):
                    m.rows[offs[i] + r][offs[i] + r] = fld.one
                prim_mats.append(m)
            gens = prim_mats + piece_mats
            mats = []
            for n in range(alg.dim):
                m = Mat.zeros(fld, total, total)
                for c, g in zip(coords[n], gens):
                    if c != fld.zero:
                        m = m + g.scale(c)
                mats.append(m)
            M = AlgMod(alg, total, mats)
            try:
                M.check()
            except ValueError:
                continue
            out.append(M)
    return out


def _mat_space(field, m, n, grid):
    if m * n == 0:
        yield Mat.zeros(field, m, n)
        return
    for entries in itertools.product(grid, repeat=m * n):
        yield Mat(field, [list(entries[r * n:(r + 1) * n]) for r in range(m)], ncols=n)
