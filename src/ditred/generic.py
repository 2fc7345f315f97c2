"""Generic modules realized over localized rational algebras.

A minimal terminal layer has trivial points and rational points k[x]_g.
The field of fractions of a rational component, viewed as the module on
which x acts as itself, is the canonical indecomposable of infinite
k-dimension but endolength one.  Pushing it through a reduction trace
realizes a generic module of the source as a free module over the
localization, of rank equal to its endolength; evaluating x at points of
the spectrum yields the one-parameter family of finite-dimensional
specializations.
"""

from __future__ import annotations

from .algebras import AlgMod
from .bigraph import Ditalgebra
from .ditmod import DitModule, end_algebra
from .errors import DitredError, NotRationalPoint
from .linalg import Mat
from .reduction import ReductionTrace
from .scalars import FracField, Poly, RatFunc, localize_membership, RationalAlgebra


class NotInSpectrum(DitredError, ValueError):
    pass


class NotEndofinite(DitredError, ValueError):
    pass


class NotFinitelyGenerated(DitredError, ValueError):
    pass


def q_module(dit: Ditalgebra, i: int) -> DitModule:
    """The fraction-field module of a rational point: one-dimensional over
    k(x), with x acting as x."""
    if not dit.is_rational(i):
        raise NotRationalPoint(f"point {i} carries no rational component")
    rf = FracField(dit.field)
    return DitModule.simple(dit, i, lam=rf.x, coef=rf)


class TransferBimodule:
    """The composite image of the terminal layer's regular columns: for
    each terminal point, the chained image of its canonical rank-one
    module, with the right action of the terminal component recorded as
    scalar multiplication."""

    def __init__(self, trace: ReductionTrace):
        self.trace = trace
        self.source = trace.source
        self.terminal = trace.terminal
        self.columns = {}
        rf = FracField(self.source.field)
        for i in self.terminal.points():
            if self.terminal.is_rational(i):
                col = trace.apply_module(q_module(self.terminal, i))
                self._check_localized(col, self.terminal.base[i])
            else:
                col = trace.apply_module(DitModule.simple(self.terminal, i))
            self.columns[i] = col

    def _check_localized(self, col: DitModule, g: Poly):
        alg = RationalAlgebra(g if not g.is_zero() else Poly.one(self.source.field))
        for m in list(col.arr.values()) + list(col.xact.values()):
            for row in m.rows:
                for entry in row:
                    if isinstance(entry, RatFunc) and not localize_membership(entry, alg):
                        raise NotFinitelyGenerated(
                            "transfer column entries leave the localization"
                        )

    def column(self, i: int) -> DitModule:
        return self.columns[i]

    def rank(self, i: int) -> int:
        return self.columns[i].total_dim


def transfer_bimodule(trace: ReductionTrace) -> TransferBimodule:
    if not trace.terminal.is_minimal():
        raise ValueError("trace does not end at a minimal layer")
    return TransferBimodule(trace)


class GenericRealization:
    """A rational point of the terminal layer together with the free
    module its fraction-field column realizes."""

    def __init__(self, T: TransferBimodule, point: int, g: Poly, column: DitModule, endol: int):
        self.transfer = T
        self.point = point
        self.g = g
        self.column = column
        self.rank = column.total_dim
        self.endol = endol

    @property
    def algebra(self) -> RationalAlgebra:
        return RationalAlgebra(self.g)

    def spectrum_contains(self, lam) -> bool:
        return self.g.eval(lam) != self.g.field.zero

    def specialize(self, lam) -> DitModule:
        return specialize(self, lam)

    def __repr__(self):
        return f"GenericRealization(point={self.point}, rank={self.rank}, g={self.g!r})"


def realize_generic(T: TransferBimodule, i: int) -> GenericRealization:
    """Realize the generic module at a rational terminal point: the
    column is free by construction, so the localizer is the terminal
    component's own; the rank equals the endolength of the realized
    module."""
    term = T.terminal
    if not term.is_rational(i):
        raise NotRationalPoint(f"terminal point {i} is not rational")
    g = term.base[i]
    col = T.column(i)
    endol = endolength_kx(T.source, col)
    return GenericRealization(T, i, g if g.degree >= 0 else Poly.one(term.field), col, endol)


def smith_normal_form(field, rows):
    """Smith normal form over k[x] for a matrix of polynomials: returns
    the list of diagonal invariant factors (monic, each dividing the
    next), without the transforms."""
    A = [[p for p in r] for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    diag = []
    top = 0

    def nonzero_min(r0, c0):
        best = None
        for r in range(r0, m):
            for c in range(c0, n):
                if not A[r][c].is_zero():
                    if best is None or A[r][c].degree < A[best[0]][best[1]].degree:
                        best = (r, c)
        return best

    r0 = c0 = 0
    while r0 < m and c0 < n:
        pos = nonzero_min(r0, c0)
        if pos is None:
            break
        pr, pc = pos
        A[r0], A[pr] = A[pr], A[r0]
        for r in range(m):
            A[r][c0], A[r][pc] = A[r][pc], A[r][c0]
        # clear row and column by division
        again = True
        while again:
            again = False
            for r in range(r0 + 1, m):
                if A[r][c0].is_zero():
                    continue
                qd, rem = A[r][c0].divmod(A[r0][c0])
                A[r] = [a - qd * b for a, b in zip(A[r], A[r0])]
                if not rem.is_zero():
                    A[r0], A[r] = A[r], A[r0]
                    again = True
            for c in range(c0 + 1, n):
                if A[r0][c].is_zero():
                    continue
                qd, rem = A[r0][c].divmod(A[r0][c0])
                for r in range(m):
                    A[r][c] = A[r][c] - qd * A[r][c0]
                if not rem.is_zero():
                    for r in range(m):
                        A[r][c0], A[r][c] = A[r][c], A[r][c0]
                    again = True
        # ensure divisibility into the remaining block
        pivot = A[r0][c0]
        fixed = False
        for r in range(r0 + 1, m):
            for c in range(c0 + 1, n):
                if not (A[r][c] % pivot).is_zero():
                    A[r0] = [a + b for a, b in zip(A[r0], A[r])]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        diag.append(pivot.monic())
        r0 += 1
        c0 += 1
    return diag


def realize_presentation(field, n_gens: int, relations, g0: Poly):
    """Localizer and free rank for the cokernel of a polynomial relation
    matrix (rows = relations on the generators): localizing at the product
    of the nontrivial invariant factors kills the torsion."""
    diag = smith_normal_form(field, relations) if relations else []
    g = g0.monic() if g0.degree > 0 else Poly.one(field)
    for dpoly in diag:
        if dpoly.degree > 0:
            g = (g * dpoly).monic()
        elif dpoly.is_zero():
            raise AssertionError("zero invariant factor out of order")
    rank = n_gens - len([dpoly for dpoly in diag if not dpoly.is_zero()])
    return g, rank


def endolength_kx(dit: Ditalgebra, G: DitModule) -> int:
    """Endolength of a module valued in the rational function field:
    verifies the split of the endomorphisms into the function field plus a
    nilpotent radical when present, in which case the endolength is the
    k(x)-dimension; otherwise computes the length over the endomorphism
    algebra directly."""
    if not isinstance(G.coef, FracField):
        raise NotEndofinite("expected a module over k(x)")
    if G.coef.char != 0:
        raise NotEndofinite("endolength over k(x) is implemented for characteristic 0")
    if G.total_dim == 0:
        return 0
    E, basis = end_algebra(dit, G)
    rad = E.radical()
    if E.dim - len(rad) == 1:
        return G.total_dim
    mats = [f.f0_blockdiag() for f in basis]
    mod = AlgMod(E, G.total_dim, mats)
    return mod.length()


def end_splitting_certificate(dit: Ditalgebra, G: DitModule):
    """(split_holds, dim over k(x), radical dimension): the splitting
    holds when the endomorphisms are the function field plus a nilpotent
    ideal."""
    E, _ = end_algebra(dit, G)
    rad = E.radical()  # nilpotency asserted inside
    return (E.dim - len(rad) == 1, G.total_dim, len(rad))


def specialize(R: GenericRealization, lam) -> DitModule:
    """Evaluate the realization at a spectrum point: a finite-dimensional
    module of dimension equal to the rank."""
    field = R.g.field
    lam = field.of(lam) if isinstance(lam, int) else lam
    if R.g.eval(lam) == field.zero:
        raise NotInSpectrum(f"localizer vanishes at {lam}")
    col = R.column
    src = R.transfer.source

    def ev(m: Mat) -> Mat:
        return Mat(field, [[entry.eval(lam) for entry in row] for row in m.rows], ncols=m.n)

    arr = {a.name: ev(col.arr[a.name]) for a in src.full}
    xact = {i: ev(col.xact[i]) for i in src.points() if src.is_rational(i)}
    return DitModule(src, col.dims, arr, xact, field)


def generic_census(dit: Ditalgebra, d: int, budget: int = 64, trace: ReductionTrace | None = None):
    """One realization per rational point of the terminal minimal layer
    whose realized endolength stays within the bound."""
    from .reduction import reduce_to_minimal

    if trace is None:
        trace = reduce_to_minimal(dit, d, budget=budget)
    T = transfer_bimodule(trace)
    out = []
    for i in trace.terminal.points():
        if not trace.terminal.is_rational(i):
            continue
        R = realize_generic(T, i)
        if R.endol <= d:
            out.append(R)
    return out, trace


def realization_to_text(R: GenericRealization) -> str:
    """Exact serialization: point, localizer, rank, and the left-action
    matrices of the realized column over k(x)."""
    from .scalars import poly_str

    src = R.transfer.source
    col = R.column
    lines = [
        "realization",
        f"point {R.point + 1}",
        f"localizer {poly_str(R.g)}",
        f"rank {R.rank}",
        "dims " + " ".join(str(d) for d in col.dims),
    ]

    def emit(prefix, ident, m):
        if m.m and m.n:
            rows = ["[" + " ".join(repr(e).replace(" ", "") for e in r) + "]" for r in m.rows]
            lines.append(f"{prefix} {ident} = " + " ".join(rows))

    for a in src.full:
        emit("arrow", a.name, col.arr[a.name])
    for i in src.points():
        if src.is_rational(i):
            emit("x", i + 1, col.xact[i])
    return "\n".join(lines) + "\n"
