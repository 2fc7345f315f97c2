"""Finite-dimensional modules over a layered tensor algebra with
derivation, their two-component morphisms, Hom/End spaces by exact linear
algebra, endolength, indecomposability, isomorphism testing, and the
enumeration oracle used by the verification suites.

A module assigns each point a coefficient vector space (over the ground
field, or over k(x) for generically-valued modules) and each full arrow a
matrix; rational points also carry the action of x.  A morphism is a pair
(f0, f1): pointwise maps plus a value on every dashed arrow, extended
bilinearly over degree-0 paths.

The oracle `enumerate_indecomposables` lists every module over the
enumeration grid but classifies each GL(d)-orbit once: it floods the
orbit of the first module with elementary base changes, drops the orbit
when one of its modules splits along coordinates, and otherwise tests
that one module for indecomposability and isomorphism with the earlier
representatives.  Over F_p on layers with delta = 0 the orbits are the
isomorphism classes and the sweep alone decides decomposability; where
delta hits dashed arrows, or over the rational grid, those two tests
decide what the sweep cannot.
"""

from __future__ import annotations

import itertools

from .algebras import AlgMod, _algebra_on, _isomorphism, _mat_space, _parse_matrix
from .bigraph import Ditalgebra, PathElement
from .errors import BudgetExceeded, DitredError, ParseError, line_context
from .linalg import Mat, _matrix_equation_kernel
from .scalars import FracField, Poly


class ZeroModule(DitredError, ValueError):
    pass


class DomainMismatch(DitredError, ValueError):
    pass


class InvalidModule(DitredError, ValueError):
    pass


class DitModule:
    """Representation of a ditalgebra: per-point spaces and per-arrow
    matrices over a coefficient field containing the ground field."""

    def __init__(self, dit: Ditalgebra, dims, arr=None, xact=None, coef=None, check=True):
        self.dit = dit
        self.coef = coef if coef is not None else dit.field
        self.dims = tuple(dims)
        self.arr = dict(arr or {})
        self.xact = dict(xact or {})
        self._end = None  # end_algebra over self.dit, built on first use
        if not self.arr.keys() >= dit.full_names_set:
            for a in dit.full:
                if a.name not in self.arr:
                    self.arr[a.name] = Mat.zeros(self.coef, self.dims[a.t], self.dims[a.s])
        for i in dit.rational_points:
            if i not in self.xact:
                if self.dims[i]:
                    raise InvalidModule(f"missing x-action at rational point {i}")
                self.xact[i] = Mat.zeros(self.coef, 0, 0)
        if check:
            self.validate()

    # -- scalars ---------------------------------------------------------
    def emb(self, c):
        """Embed a ground-field scalar into the coefficient field."""
        if self.coef == self.dit.field:
            return c
        if isinstance(self.coef, FracField) and self.coef.base == self.dit.field:
            return self.coef.of(c)
        raise InvalidModule("unsupported coefficient field")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def validate(self):
        for a in self.dit.full:
            m = self.arr[a.name]
            if (m.m, m.n) != (self.dims[a.t], self.dims[a.s]):
                raise InvalidModule(f"matrix shape for arrow {a.name}")
        for i in self.dit.points():
            if self.dit.is_rational(i) and self.dims[i]:
                X = self.xact[i]
                if (X.m, X.n) != (self.dims[i], self.dims[i]):
                    raise InvalidModule(f"x-action shape at {i}")
                g = self.dit.base[i]
                gX = _poly_at(g, X, self)
                if not gX.is_invertible():
                    raise InvalidModule(f"localizer does not act invertibly at point {i}")
        for gen in self.dit.ideal:
            for (i, j), m in self.act_map(gen).items():
                if not m.is_zero():
                    raise InvalidModule("ideal generator acts nonzero")

    # -- path action -------------------------------------------------------
    def x_power(self, i: int, e: int) -> Mat:
        if e == 0:
            return Mat.eye(self.coef, self.dims[i])
        return self.xact[i].pow(e)

    def eval_path(self, key) -> Mat:
        """Action matrix of a degree-0 decorated path."""
        start, arrows, exps = key
        m = self.x_power(start, exps[0])
        pt = start
        for j, name in enumerate(arrows):
            a = self.dit.arrow(name)
            m = self.arr[name] * m
            pt = a.t
            if exps[j + 1]:
                m = self.x_power(pt, exps[j + 1]) * m
        return m

    def act_map(self, el: PathElement):
        """Matrices of a degree-0 element, grouped by (start, end)."""
        out = {}
        for key, c in el.terms.items():
            if el.alg.key_degree(key) != 0:
                raise ValueError("action of non-degree-0 element")
            i, j = key[0], el.alg.key_end(key)
            m = self.eval_path(key).scale(self.emb(c))
            out[(i, j)] = out.get((i, j), Mat.zeros(self.coef, self.dims[j], self.dims[i])) + m
        return out

    # -- constructions -------------------------------------------------------
    @staticmethod
    def zero(dit: Ditalgebra, coef=None) -> "DitModule":
        return DitModule(dit, [0] * dit.n, coef=coef)

    @staticmethod
    def simple(dit: Ditalgebra, i: int, lam=None, coef=None) -> "DitModule":
        """The one-dimensional module at a trivial point, or a one-dim
        module at a rational point with x acting by the scalar lam."""
        dims = [0] * dit.n
        dims[i] = 1
        coef_ = coef if coef is not None else dit.field
        xact = {}
        if dit.is_rational(i):
            if lam is None:
                raise InvalidModule("rational point needs an eigenvalue")
            xact[i] = Mat(coef_, [[lam]])
        for j in dit.points():
            if dit.is_rational(j) and j != i:
                xact[j] = Mat.zeros(coef_, 0, 0)
        return DitModule(dit, dims, {}, xact, coef_)

    def direct_sum(self, other: "DitModule") -> "DitModule":
        dims = [a + b for a, b in zip(self.dims, other.dims)]
        arr = {}
        for a in self.dit.full:
            arr[a.name] = Mat.block_diag(self.coef, [self.arr[a.name], other.arr[a.name]])
        xact = {}
        for i in self.dit.points():
            if self.dit.is_rational(i):
                xact[i] = Mat.block_diag(self.coef, [self.xact[i], other.xact[i]])
        return DitModule(self.dit, dims, arr, xact, self.coef, check=False)

    def base_change(self, mats) -> "DitModule":
        """Conjugate by invertible per-point matrices (new = P old P^-1)."""
        invs = {i: mats[i].inv() for i in self.dit.points() if self.dims[i]}
        arr = {}
        for a in self.dit.full:
            m = self.arr[a.name]
            P = mats[a.t] if self.dims[a.t] else Mat.zeros(self.coef, 0, 0)
            Q = invs.get(a.s, Mat.zeros(self.coef, self.dims[a.s], self.dims[a.s]))
            arr[a.name] = (P * m * Q) if self.dims[a.t] and self.dims[a.s] else m
        xact = {}
        for i in self.dit.points():
            if self.dit.is_rational(i):
                xact[i] = mats[i] * self.xact[i] * invs[i] if self.dims[i] else self.xact[i]
        return DitModule(self.dit, self.dims, arr, xact, self.coef, check=False)

    def __eq__(self, other):
        return (
            isinstance(other, DitModule)
            and self.dit is other.dit
            and self.dims == other.dims
            and self.arr == other.arr
            and self.xact == other.xact
        )

    def __repr__(self):
        return f"DitModule(dims={self.dims})"


def _poly_at(g: Poly, X: Mat, module: DitModule) -> Mat:
    n = X.m
    acc = Mat.zeros(module.coef, n, n)
    for c in reversed(list(g.coeffs)):
        acc = acc * X + Mat.eye(module.coef, n).scale(module.emb(c))
    return acc


class DitMorphism:
    """Two-component morphism between modules over the same ditalgebra."""

    def __init__(self, src: DitModule, dst: DitModule, f0, f1):
        self.src = src
        self.dst = dst
        self.f0 = dict(f0)
        self.f1 = dict(f1)

    @staticmethod
    def identity(M: DitModule) -> "DitMorphism":
        f0 = {i: Mat.eye(M.coef, M.dims[i]) for i in M.dit.points()}
        f1 = {v.name: Mat.zeros(M.coef, M.dims[v.t], M.dims[v.s]) for v in M.dit.dashed}
        return DitMorphism(M, M, f0, f1)

    @staticmethod
    def zero(src: DitModule, dst: DitModule) -> "DitMorphism":
        f0 = {i: Mat.zeros(src.coef, dst.dims[i], src.dims[i]) for i in src.dit.points()}
        f1 = {v.name: Mat.zeros(src.coef, dst.dims[v.t], src.dims[v.s]) for v in src.dit.dashed}
        return DitMorphism(src, dst, f0, f1)

    def f1_eval(self, el: PathElement):
        """Value of the bilinear extension of f1 on a degree-1 element,
        grouped by (start, end) component."""
        out = {}
        src, dst = self.src, self.dst
        alg = el.alg
        for key, c in el.terms.items():
            segments, letters = src.dit.alg.split_at_dashed(key)
            if len(letters) != 1:
                raise ValueError("f1 extension needs a degree-1 element")
            # right part acts on the source, left part on the target
            (right_key, left_key), (v,) = segments, letters
            R = src.eval_path(right_key)
            L = dst.eval_path(left_key)
            m = (L * self.f1[v] * R).scale(src.emb(c))
            i, j = key[0], alg.key_end(key)
            out[(i, j)] = out.get((i, j), Mat.zeros(src.coef, dst.dims[j], src.dims[i])) + m
        return out

    def check(self) -> bool:
        """The defining compatibility: for every full arrow a,
        a.f0 = f0.a + f1(delta a), and f0 commutes with x at rational
        points."""
        src, dst = self.src, self.dst
        for i in src.dit.points():
            if src.dit.is_rational(i) and src.dims[i] and dst.dims[i]:
                if self.f0[i] * src.xact[i] != dst.xact[i] * self.f0[i]:
                    return False
        for a in src.dit.full:
            lhs = dst.arr[a.name] * self.f0[a.s]
            rhs = self.f0[a.t] * src.arr[a.name]
            d = src.dit.delta_of(a.name)
            if not d.is_zero():
                for (i, j), m in self.f1_eval(d).items():
                    rhs = rhs + m
            if lhs != rhs:
                return False
        return True

    def compose(self, other: "DitMorphism") -> "DitMorphism":
        """self after other."""
        if other.dst is not self.src and other.dst.dims != self.src.dims:
            raise DomainMismatch("codomain/domain mismatch")
        f, g = other, self
        src, mid, dst = f.src, f.dst, g.dst
        f0 = {i: g.f0[i] * f.f0[i] for i in src.dit.points()}
        f1 = {}
        for v in src.dit.dashed:
            acc = g.f0[v.t] * f.f1[v.name] + g.f1[v.name] * f.f0[v.s]
            dv = src.dit.delta_of(v.name)
            for key, c in dv.terms.items():
                segments, letters = src.dit.alg.split_at_dashed(key)
                if len(letters) != 2:
                    raise ValueError("delta of a dashed arrow must have degree 2")
                (right_key, mid_key, left_key), (u_early, u_late) = segments, letters
                term = (
                    dst.eval_path(left_key)
                    * g.f1[u_late]
                    * mid.eval_path(mid_key)
                    * f.f1[u_early]
                    * src.eval_path(right_key)
                ).scale(src.emb(c))
                acc = acc + term
            f1[v.name] = acc
        return DitMorphism(src, dst, f0, f1)

    def f0_blockdiag(self) -> Mat:
        return Mat.block_diag(self.src.coef, [self.f0[i] for i in self.src.dit.points()])

    def is_invertible(self) -> bool:
        return all(self.f0[i].is_invertible() for i in self.src.dit.points())

    def scale(self, c) -> "DitMorphism":
        return DitMorphism(
            self.src,
            self.dst,
            {i: m.scale(c) for i, m in self.f0.items()},
            {v: m.scale(c) for v, m in self.f1.items()},
        )

    def __add__(self, other: "DitMorphism") -> "DitMorphism":
        return DitMorphism(
            self.src,
            self.dst,
            {i: self.f0[i] + other.f0[i] for i in self.f0},
            {v: self.f1[v] + other.f1[v] for v in self.f1},
        )

    def __repr__(self):
        return f"DitMorphism({self.src.dims} -> {self.dst.dims})"


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------

def hom_space(dit: Ditalgebra, M: DitModule, N: DitModule):
    """Exact basis of the space of morphisms M -> N.  The unknowns are f0
    at each point, then f1 at each dashed arrow; the equations are
    f0_i X_M - X_N f0_i = 0 at each rational point i, then
    N_a f0_s - f0_t M_a - f1(delta a) = 0 for each full arrow a: s -> t,
    where each term of delta a, a dashed letter v between degree-0 paths,
    contributes -c * N(left) f1_v M(right)."""
    coef = M.coef
    one, minus = coef.one, -coef.one
    shapes = [(N.dims[i], M.dims[i]) for i in dit.points()]
    shapes += [(N.dims[v.t], M.dims[v.s]) for v in dit.dashed]
    block = {v.name: dit.n + k for k, v in enumerate(dit.dashed)}
    equations = [[(i, None, M.xact[i], one), (i, N.xact[i], None, minus)] for i in dit.rational_points]
    for a in dit.full:
        terms = [(a.s, N.arr[a.name], None, one), (a.t, None, M.arr[a.name], minus)]
        for key, c in dit.delta_of(a.name).terms.items():
            (right_key, left_key), (v,) = dit.alg.split_at_dashed(key)
            terms.append((block[v], N.eval_path(left_key), M.eval_path(right_key), -M.emb(c)))
        equations.append(terms)
    out = []
    for blocks in _matrix_equation_kernel(coef, shapes, equations):
        f0 = dict(zip(dit.points(), blocks[:dit.n]))
        f1 = {v.name: m for v, m in zip(dit.dashed, blocks[dit.n:])}
        out.append(DitMorphism(M, N, f0, f1))
    return out


def end_algebra(dit: Ditalgebra, M: DitModule):
    """Endomorphisms of M as an FDAlgebra under plain composition,
    together with the morphism basis.  M is a left module over it via
    f |-> f0 (blockdiag); as a right module over the opposite algebra this
    realizes the action m.(f0,f1) = f0(m).

    Over the module's own layer the result is built once and kept on M, so
    `is_indecomposable` and `endolength` share it: a module's content is
    set when it is constructed and never changed."""
    if dit is M.dit and M._end is not None:
        return M._end
    basis = hom_space(dit, M, M)
    out = _algebra_on(M.coef, basis, DitMorphism.compose, DitMorphism.identity(M), _flatten_morphism), basis
    if dit is M.dit:
        M._end = out
    return out


def _flatten_morphism(f: DitMorphism):
    out = []
    for i in f.src.dit.points():
        out.extend([f.f0[i].rows[r][c] for r in range(f.f0[i].m) for c in range(f.f0[i].n)])
    for v in f.src.dit.dashed:
        m = f.f1[v.name]
        out.extend([m.rows[r][c] for r in range(m.m) for c in range(m.n)])
    return out


def endolength(dit: Ditalgebra, M: DitModule) -> int:
    """Length of M as a right module over its endomorphism algebra."""
    if M.total_dim == 0:
        return 0
    alg, basis = end_algebra(dit, M)
    mats = [f.f0_blockdiag() for f in basis]
    mod = AlgMod(alg, M.total_dim, mats)
    return mod.length()


def is_indecomposable(dit: Ditalgebra, M: DitModule) -> bool:
    if M.total_dim == 0:
        raise ZeroModule("the zero module is not indecomposable")
    alg, _ = end_algebra(dit, M)
    return alg.find_nontrivial_idempotent() is None


def are_isomorphic(dit: Ditalgebra, M: DitModule, N: DitModule):
    """An isomorphism M -> N (invertible f0 at every point), or None when
    there is none; exact, by a walk over the primitive idempotents of
    End(M) (`algebras._isomorphism`).  An End(M) that cannot be split
    raises UnsplitSemisimpleQuotient, an explicit "undecided"."""
    if M.dims != N.dims:
        return None
    if M.total_dim == 0:
        return DitMorphism.zero(M, N)
    return _isomorphism(M.coef, hom_space(dit, M, N), lambda: end_algebra(dit, M), lambda: hom_space(dit, N, M),
                        DitMorphism.compose, _flatten_morphism)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def enumerate_modules_dims(dit: Ditalgebra, dim_vectors, budget: int = 2_000_000):
    """All modules with the listed dimension vectors over the enumeration
    grid (every matrix over F_p; the deterministic parameter grid over
    Q), filtered by the module axioms."""
    field = dit.field
    grid = field.grid()
    out = []
    count = 0
    for dims in dim_vectors:
        gens = []
        for i in dit.points():
            if dit.is_rational(i) and dims[i]:
                gens.append(("x", i, dims[i], dims[i]))
        for a in dit.full:
            if dims[a.t] and dims[a.s]:
                gens.append(("a", a.name, dims[a.t], dims[a.s]))
        size = 1
        for _, _, mm, nn in gens:
            size *= len(grid) ** (mm * nn)
        count += size
        if count > budget:
            raise BudgetExceeded(f"enumeration would visit > {budget} candidates")
        for combo in itertools.product(*[list(_mat_space(field, mm, nn, grid)) for _, _, mm, nn in gens]):
            arr = {}
            xact = {}
            for (kind, ident, _, _), mat in zip(gens, combo):
                if kind == "x":
                    xact[ident] = mat
                else:
                    arr[ident] = mat
            try:
                M = DitModule(dit, dims, arr, xact)
            except InvalidModule:
                continue
            out.append(M)
    return out


def enumerate_modules(dit: Ditalgebra, dmax: int, budget: int = 2_000_000):
    """All modules with total dimension <= dmax over the enumeration grid,
    filtered by the module axioms."""
    return enumerate_modules_dims(dit, _dim_vectors(dit.n, dmax), budget)


def _dim_vectors(n, dmax):
    for total in range(1, dmax + 1):
        for dims in itertools.product(range(total + 1), repeat=n):
            if sum(dims) == total:
                yield dims


def enumerate_indecomposables(dit: Ditalgebra, dmax: int, budget: int = 2_000_000):
    """Exhaustive-up-to-isomorphism list of indecomposables of total
    dimension <= dmax (complete over F_p; grid-restricted over Q).

    The modules of `enumerate_modules` are swept one GL(d)-orbit at a
    time.  The first module not yet seen floods its orbit with elementary
    base changes at one point (see `_orbit_moves`), following only
    enumerated modules; every module the flood reaches is isomorphic to
    it and is skipped.  When some module of the orbit falls apart along
    its coordinates (`_splits`), the orbit is decomposable and End is
    never built.  Any other orbit is tested once with `is_indecomposable`
    and compared with the earlier representatives by `are_isomorphic`.
    The first module of each isomorphism class in enumeration order is
    kept, as a per-module test would keep it.

    Over F_p on a layer with delta = 0 the sweep is exact: the moves
    generate GL(d), so the flood is the whole orbit, orbits are the
    isomorphism classes, and an orbit with no split module is
    indecomposable.  Where delta hits dashed arrows, one isomorphism
    class can join several orbits and a module can decompose with no
    split module in its orbit; over Q the flood only stays inside the
    grid.  In those cases the fallback tests above decide."""
    slots = _matrix_slots(dit)
    reps = []
    for M, orbit in _orbit_sweep(dit, dmax, budget):
        if any(_splits(k, slots) for k in orbit):
            continue
        if not is_indecomposable(dit, M):
            continue
        if any(N.dims == M.dims and are_isomorphic(dit, M, N) is not None for N in reps):
            continue
        reps.append(M)
    return reps


def _orbit_sweep(dit: Ditalgebra, dmax: int, budget: int = 2_000_000):
    """Yield (M, orbit) for the first module M of each orbit in the order
    of `enumerate_modules`, where orbit holds the keys of the enumerated
    modules the flood from M reaches."""
    mods = enumerate_modules(dit, dmax, budget)
    keys = [_module_key(M) for M in mods]
    enumerated = set(keys)
    slots = _matrix_slots(dit)
    moves = _orbit_moves(dit.field, dmax)
    seen = set()
    for M, key in zip(mods, keys):
        if key not in seen:
            orbit = _flood_orbit(key, enumerated, slots, moves)
            seen |= orbit
            yield M, orbit


def _module_key(M: DitModule):
    """Hashable content of M: dims, then the entries of every full-arrow
    matrix and x-action matrix in the order of `_matrix_slots`."""
    mats = [M.arr[a.name] for a in M.dit.full]
    mats += [M.xact[i] for i in M.dit.points() if M.dit.is_rational(i)]
    return M.dims, tuple(tuple(map(tuple, m.rows)) for m in mats)


def _matrix_slots(dit: Ditalgebra):
    """(target, source) point of each matrix in a module key."""
    return [(a.t, a.s) for a in dit.full] + [(i, i) for i in dit.points() if dit.is_rational(i)]


def _orbit_scalar(field):
    """A generator of the unit group of F_p, or -1 over Q."""
    if not field.is_finite():
        return -field.one
    p = field.p
    return next(field.of(g) for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)


def _scale_row(k, c):
    return lambda rows: rows[:k] + (tuple(c * x for x in rows[k]),) + rows[k + 1:]


def _swap_rows(k):
    return lambda rows: rows[:k] + (rows[k + 1], rows[k]) + rows[k + 2:]


def _add_row(i, j, c):
    return lambda rows: rows[:i] + (tuple(x + c * y for x, y in zip(rows[i], rows[j])),) + rows[i + 1:]


def _orbit_moves(field, dmax: int):
    """Elementary base changes g at a point of dimension d, for each d <=
    dmax: scale basis vector 0 by w and by 1/w (w from `_orbit_scalar`),
    swap adjacent basis vectors, add +-(basis vector 1) to basis vector 0.
    Over F_p they generate GL(d).  Each move is a pair of row operations
    (rows -> g.rows, rows -> g^-T.rows): an incoming matrix A becomes g.A
    and an outgoing one A.g^-1 = (g^-T.A^T)^T."""
    w, one = _orbit_scalar(field), field.one
    moves = {}
    for d in range(1, dmax + 1):
        out = []
        if w != one:
            out += [(_scale_row(0, c), _scale_row(0, field.inv(c))) for c in {w, field.inv(w)}]
        out += [(_swap_rows(k), _swap_rows(k)) for k in range(d - 1)]
        if d >= 2:
            out += [(_add_row(0, 1, c), _add_row(1, 0, -c)) for c in {one, -one}]
        moves[d] = out
    return moves


def _transpose(rows):
    return tuple(zip(*rows))


def _flood_orbit(key, enumerated, slots, moves):
    """Every key in `enumerated` reachable from `key` by `_orbit_moves`
    applied at one point at a time."""
    orbit = {key}
    todo = [key]
    while todo:
        dims, mats = todo.pop()
        for i, d in enumerate(dims):
            for g, g_inv_t in moves.get(d, ()):
                new = []
                for (t, s), A in zip(slots, mats):
                    if A and A[0]:
                        if t == i:
                            A = g(A)
                        if s == i:
                            A = _transpose(g_inv_t(_transpose(A)))
                    new.append(A)
                k = (dims, tuple(new))
                if k in enumerated and k not in orbit:
                    orbit.add(k)
                    todo.append(k)
    return orbit


def _splits(key, slots) -> bool:
    """True when the basis vectors fall into two or more classes joined by
    the nonzero entries of the key's matrices: then the module is the
    direct sum of the coordinate subspaces of the classes."""
    dims, mats = key
    parent = {(i, r): (i, r) for i, d in enumerate(dims) for r in range(d)}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for (t, s), A in zip(slots, mats):
        for r, row in enumerate(A):
            for c, x in enumerate(row):
                if x:
                    parent[find((t, r))] = find((s, c))
    return len({find(u) for u in parent}) > 1


# ---------------------------------------------------------------------------
# module text format
# ---------------------------------------------------------------------------

def module_to_text(M: DitModule) -> str:
    lines = ["module", "dims " + " ".join(str(d) for d in M.dims)]

    def fmt_entry(x):
        return str(x).replace(" ", "")

    for i in M.dit.points():
        if M.dit.is_rational(i) and M.dims[i]:
            rows = ["[" + " ".join(fmt_entry(e) for e in r) + "]" for r in M.xact[i].rows]
            lines.append(f"x {i + 1} = " + " ".join(rows))
    for a in M.dit.full:
        m = M.arr[a.name]
        if m.m and m.n:
            rows = ["[" + " ".join(fmt_entry(e) for e in r) + "]" for r in m.rows]
            lines.append(f"arrow {a.name} = " + " ".join(rows))
    return "\n".join(lines) + "\n"


def module_from_text(dit: Ditalgebra, text: str, coef=None) -> DitModule:
    """A module in the format of `module_to_text`.  The dims line comes
    before the matrices; each line is checked against the layer (the
    dimension count, point indices and their rationality, full arrow names,
    matrix shapes), and a bad line raises a ParseError naming it."""
    coef = coef or dit.field
    dims = None
    arr = {}
    xact = {}
    full = {a.name for a in dit.full}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line == "module":
            continue
        kind, _, rest = line.partition(" ")
        head, _, mat = rest.partition("=")
        head = head.strip()
        with line_context(ln):
            if kind == "dims":
                dims = tuple(int(t) for t in rest.split())
                if len(dims) != dit.n or any(d < 0 for d in dims):
                    raise ParseError(f"expected {dit.n} nonnegative dimensions", ln)
            elif kind in ("x", "arrow") and dims is None:
                raise ParseError("the dims line must come before x and arrow lines", ln)
            elif kind == "x":
                i = int(head) - 1
                if not (0 <= i < dit.n and dit.is_rational(i)):
                    raise ParseError(f"x {head}: not a rational point", ln)
                xact[i] = _parse_block(coef, mat, ln, (dims[i], dims[i]))
            elif kind == "arrow":
                if head not in full:
                    raise ParseError(f"unknown full arrow {head!r}", ln)
                a = dit.arrow(head)
                arr[head] = _parse_block(coef, mat, ln, (dims[a.t], dims[a.s]))
            else:
                raise ParseError(f"unrecognized module line {line!r}", ln)
    if dims is None:
        raise ParseError("missing dims")
    with line_context(None):
        return DitModule(dit, dims, arr, xact, coef)


def _parse_block(field, s, ln, shape):
    """The matrix of an input line, which must have the given shape."""
    m = _parse_matrix(field, s.strip(), ln, ncols=shape[1])
    if (m.m, m.n) != shape:
        raise ParseError(f"expected a {shape[0]}x{shape[1]} matrix, got {m.m}x{m.n}", ln)
    return m


def morphism_to_text(f: DitMorphism) -> str:
    lines = ["morphism"]

    def emit(prefix, ident, m):
        if m.m and m.n:
            rows = ["[" + " ".join(str(e).replace(" ", "") for e in r) + "]" for r in m.rows]
            lines.append(f"{prefix} {ident} = " + " ".join(rows))

    for i in f.src.dit.points():
        emit("f0", i + 1, f.f0[i])
    for v in f.src.dit.dashed:
        emit("f1", v.name, f.f1[v.name])
    return "\n".join(lines) + "\n"


def morphism_from_text(src: DitModule, dst: DitModule, text: str) -> DitMorphism:
    """A morphism in the format of `morphism_to_text`; each line is checked
    against the two modules (point indices, dashed arrow names, matrix
    shapes), and a bad line raises a ParseError naming it."""
    f = DitMorphism.zero(src, dst)
    dit = src.dit
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line == "morphism":
            continue
        kind, _, rest = line.partition(" ")
        head, _, mat = rest.partition("=")
        head = head.strip()
        with line_context(ln):
            if kind == "f0":
                i = int(head) - 1
                if not 0 <= i < dit.n:
                    raise ParseError(f"f0 index out of range 1..{dit.n}", ln)
                f.f0[i] = _parse_block(src.coef, mat, ln, (dst.dims[i], src.dims[i]))
            elif kind == "f1":
                if head not in f.f1:
                    raise ParseError(f"unknown dashed arrow {head!r}", ln)
                v = dit.arrow(head)
                f.f1[head] = _parse_block(src.coef, mat, ln, (dst.dims[v.t], src.dims[v.s]))
            else:
                raise ParseError(f"unrecognized morphism line {line!r}", ln)
    return f
