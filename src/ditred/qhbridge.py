"""The bridge onto module categories filtered by standard modules.

For a layer over a product of copies of the ground field with
finite-dimensional degree-0 part, the endomorphisms of the regular module
inside the two-component morphism category form a finite-dimensional
algebra (taken with opposite multiplication).  Hom from the regular
module embeds the whole module category onto the induced modules over
that algebra, which coincide with the modules filtered by the induced
images of the simples.  This module computes the right algebra, the
embedding functor, induction, filtration witnesses and exact refutations
from the trace filtration, quasi-heredity certificates, and Morita-basic
reductions.
"""

from __future__ import annotations

from .algebras import (
    AlgMod,
    FDAlgebra,
    NotStandardFamily,
    basic_algebra,
    ext1_dim,
    has_filtration_by,
    standard_modules,
    _pivot_quotient,
    _restrict_maps,
    _unit,
)
from .bigraph import Ditalgebra, PathElement, UndecidableForCyclic
from .ditmod import DitModule, DitMorphism, _flatten_morphism, end_algebra, hom_space
from .errors import DitredError
from .linalg import Mat, Span, span_basis


class NotSpecial(DitredError, ValueError):
    """The bridge needs a trivial base and a finite-dimensional degree-0
    part."""


class CoefficientMismatch(DitredError, ValueError):
    """A module's coefficient field is not the ground field of the layer
    the right algebra was built from; base change is not implemented."""


def _require_special(dit: Ditalgebra):
    if any(dit.is_rational(i) for i in dit.points()):
        raise NotSpecial("rational components in the base")
    if not dit.check_directed() and dit.full:
        # a finite degree-0 part only needs acyclicity of the full arrows
        try:
            dit.degree0_path_basis()
        except UndecidableForCyclic as e:
            raise NotSpecial(f"degree-0 part is not finite-dimensional: {e}")


def regular_module(dit: Ditalgebra):
    """The degree-0 part modulo the ideal as a left module over itself;
    returns (module, basis_keys, right_mult) where right_mult(arrow_name)
    gives the right-multiplication matrices per point."""
    _require_special(dit)
    keys = dit.degree0_path_basis()
    field = dit.field
    # quotient by the ideal: span of all p*g*q
    gens = [g for g in dit.ideal if not g.is_zero()]
    index = {k: n for n, k in enumerate(keys)}

    def vec(el: PathElement):
        v = [field.zero] * len(keys)
        for k, c in el.terms.items():
            v[index[k]] = c
        return v

    paths = [PathElement(dit.alg, {k: field.one}) for k in keys]
    ideal_vecs = []
    for g in gens:
        for p in paths:
            for q in paths:
                w = p * g * q
                if not w.is_zero():
                    ideal_vecs.append(vec(w))
    # basis of the quotient: kept keys, and coordinates of a path element
    keep, project = _pivot_quotient(Span(field, ideal_vecs), len(keys))
    kept = [keys[n] for n in keep]

    def coords(el: PathElement):
        return project(vec(el))

    # group kept basis keys by endpoint
    by_point = {i: [] for i in dit.points()}
    for k in kept:
        by_point[dit.alg.key_end(k)].append(k)
    dims = [len(by_point[i]) for i in dit.points()]
    offsets = {}
    for i in dit.points():
        for loc, k in enumerate(by_point[i]):
            offsets[k] = (i, loc)

    def el_to_point_vecs(el: PathElement):
        co = coords(el)
        out = {i: [field.zero] * dims[i] for i in dit.points()}
        for n, k in enumerate(kept):
            i, loc = offsets[k]
            out[i][loc] = co[n]
        return out

    arr = {}
    for a in dit.full:
        m = Mat.zeros(field, dims[a.t], dims[a.s])
        for cidx, k in enumerate(by_point[a.s]):
            prod = dit.alg.gen(a.name) * PathElement(dit.alg, {k: field.one})
            pv = el_to_point_vecs(prod)
            for r in range(dims[a.t]):
                m.rows[r][cidx] = pv[a.t][r]
        arr[a.name] = m
    M = DitModule(dit, dims, arr, {}, dit.field)

    def right_mult(el: PathElement):
        """Right multiplication by a degree-0 element, per point blocks."""
        blocks = {i: Mat.zeros(field, dims[i], dims[i]) for i in dit.points()}
        for i in dit.points():
            for cidx, k in enumerate(by_point[i]):
                prod = PathElement(dit.alg, {k: field.one}) * el
                pv = el_to_point_vecs(prod)
                for r in range(dims[i]):
                    blocks[i].rows[r][cidx] = pv[i][r]
        return blocks

    return M, kept, right_mult


class RightAlgebra:
    """The opposite endomorphism algebra of the regular module in the
    two-component morphism category, with the canonical embedding of the
    degree-0 part."""

    def __init__(self, dit: Ditalgebra):
        _require_special(dit)
        self.dit = dit
        self.regular, self.basis_keys, self._right_mult = regular_module(dit)
        comp_alg, morphs = end_algebra(dit, self.regular)
        self.alg = comp_alg.op()
        self.morphs = morphs
        self._span = Span(dit.field, [_flatten_morphism(f) for f in morphs])

    @property
    def dim(self) -> int:
        return self.alg.dim

    def embed(self, el: PathElement):
        """Coordinates of right-multiplication by a degree-0 element."""
        blocks = self._right_mult(el)
        f0 = {i: blocks[i] for i in self.dit.points()}
        f1 = {v.name: Mat.zeros(self.dit.field, self.regular.dims[v.t], self.regular.dims[v.s]) for v in self.dit.dashed}
        mor = DitMorphism(self.regular, self.regular, f0, f1)
        return self._coords(mor)

    def _coords(self, mor: DitMorphism):
        sol = self._span.coords(_flatten_morphism(mor))
        if sol is None:
            raise AssertionError("endomorphism outside the computed algebra")
        return sol

    def hom_module(self, N: DitModule) -> AlgMod:
        """Hom(regular, N) as a left module over the right algebra, the
        action being pre-composition."""
        homs = hom_space(self.dit, self.regular, N)
        d = len(homs)
        if d == 0:
            return AlgMod(self.alg, 0, [Mat.zeros(self.dit.field, 0, 0)] * self.alg.dim)
        span = Span(self.dit.field, [_flatten_morphism(h) for h in homs])
        mats = []
        for g in self.morphs:
            cols = []
            for h in homs:
                sol = span.coords(_flatten_morphism(h.compose(g)))
                if sol is None:
                    raise AssertionError("pre-composition left the Hom space")
                cols.append(sol)
            mats.append(Mat.from_cols(self.dit.field, cols, d))
        return AlgMod(self.alg, d, mats)

    def induce(self, M: DitModule) -> AlgMod:
        """Tensor over the degree-0 part: the right algebra, a right
        module over it through `embed`, tensored with M.  M must have its
        coefficients in the layer's ground field."""
        fld = self.dit.field
        if M.coef != fld:
            raise CoefficientMismatch(f"module coefficients in {M.coef!r}, but the right algebra is over {fld!r}")
        offs, o = {}, 0
        for i in self.dit.points():
            offs[i] = o
            o += M.dims[i]
        right, acts = [], []
        # the kept path basis spans the degree-0 part; it has the trivial paths
        for key in self.basis_keys:
            right.append(self.alg.right_mult(self.embed(PathElement(self.dit.alg, {key: fld.one}))))
            js, jt = key[0], self.dit.alg.key_end(key)
            act = Mat.zeros(fld, o, o)
            for r, row in enumerate(M.eval_path(key).rows):
                act.rows[offs[jt] + r][offs[js]:offs[js] + M.dims[js]] = row
            acts.append(act)
        return _tensor(self.alg, self.alg.left_mats(), right, acts)

    def standard_family(self):
        """The induced images of the one-dimensional modules at the
        points, in point order."""
        return [self.induce(DitModule.simple(self.dit, i)) for i in self.dit.points()]


def _tensor(alg: FDAlgebra, left, right, acts) -> AlgMod:
    """B tensor_C N as a module over `alg`, from matrices: `left[i]` is the
    action of alg's i-th basis element on B and, for c over a spanning set
    of C, `right[c]` is right multiplication by c on B and `acts[c]` the
    action of c on N.  B (x) N has b (x) n at b.dim(N) + n; it is divided
    by b.c (x) n - b (x) c.n for every (c, b, n), and the unit vectors off
    the echelon pivots of those relations are the basis of the quotient."""
    fld = alg.field
    bdim = left[0].m if left else 0
    ndim = acts[0].m if acts else 0
    total = bdim * ndim

    def nonzero_cols(m):
        return [[(k, x) for k, x in enumerate(col) if x] for col in m.cols()]

    span = Span(fld)
    for R, A in zip(right, acts):
        rcols, acols = nonzero_cols(R), nonzero_cols(A)
        for b in range(bdim):
            for n in range(ndim):
                row = [fld.zero] * total
                for k, x in rcols[b]:
                    row[k * ndim + n] = x
                for k, x in acols[n]:
                    row[b * ndim + k] = row[b * ndim + k] - x
                span.add(row)
    keep, project = _pivot_quotient(span, total)
    mats = []
    for L in left:
        lcols = nonzero_cols(L)
        cols = []
        for j in keep:
            b, n = divmod(j, ndim)
            v = [fld.zero] * total
            for k, x in lcols[b]:
                v[k * ndim + n] = x
            cols.append(project(v))
        mats.append(Mat.from_cols(fld, cols, len(keep)))
    return AlgMod(alg, len(keep), mats)


def right_algebra(dit: Ditalgebra) -> RightAlgebra:
    return RightAlgebra(dit)


def functor_H(bridge: RightAlgebra, N: DitModule) -> AlgMod:
    return bridge.hom_module(N)


def induce(bridge: RightAlgebra, M: DitModule) -> AlgMod:
    return bridge.induce(M)


def delta_filtration(alg: FDAlgebra, family, M: AlgMod):
    """A filtration witness of M by the standard family, or None, which
    certifies non-membership; see `has_filtration_by`."""
    return has_filtration_by(alg, M, family)


# ---------------------------------------------------------------------------
# quasi-heredity
# ---------------------------------------------------------------------------

class QHCertificate:
    """The four verdicts; a verdict is None when it is undecided, and
    `undecided` then gives the reason."""

    def __init__(self, end_dims, hom_pairs, ext_pairs, filtration, verdicts, undecided=None):
        self.end_dims = end_dims
        self.hom_pairs = hom_pairs
        self.ext_pairs = ext_pairs
        self.filtration = filtration
        self.verdicts = verdicts
        self.undecided = undecided

    @property
    def passed(self) -> bool:
        return all(v is True for v in self.verdicts.values())

    @property
    def failed(self) -> bool:
        return any(v is False for v in self.verdicts.values())

    def report(self) -> str:
        def word(v):
            return "pass" if v else "FAIL" if v is False else f"undecided ({self.undecided})"

        v = self.verdicts
        overall = ("quasi-hereditary" if self.passed else
                   "NOT quasi-hereditary for this order" if self.failed else "undecided")
        return "\n".join([
            f"condition 1 (scalar endomorphisms): {word(v['local_end'])}; End dims {self.end_dims}",
            f"condition 2 (hom order): {word(v['hom_order'])}; nonzero Hom pairs {self.hom_pairs}",
            f"condition 3 (ext order): {word(v['ext_order'])}; nonzero Ext1 pairs {self.ext_pairs}",
            f"condition 4 (regular module filtered): {word(v['regular_filtered'])}",
            f"overall: {overall}",
        ])


def check_quasi_hereditary(alg: FDAlgebra, deltas) -> QHCertificate:
    """Verify the four defining conditions for the ordered family.  They
    judge the algebra only when the family is its standard modules for
    some order, so that is checked first (by `has_filtration_by`, before
    its walk): for a family that is not standard every verdict is
    undecided (None) and `undecided` gives the reason."""
    try:
        filtration = has_filtration_by(alg, AlgMod.regular(alg), deltas)
        undecided = None
    except NotStandardFamily as e:
        filtration, undecided = None, str(e)
    n = len(deltas)
    end_dims = [D.hom_dim(D) for D in deltas]
    hom_pairs = []
    ext_pairs = []
    for i in range(n):
        for j in range(n):
            if i != j and deltas[i].hom_dim(deltas[j]) > 0:
                hom_pairs.append((i + 1, j + 1))
            if ext1_dim(alg, deltas[i], deltas[j]) > 0:
                ext_pairs.append((i + 1, j + 1))
    verdicts = {
        "local_end": all(d == 1 for d in end_dims),
        "hom_order": all(i <= j for (i, j) in hom_pairs),
        "ext_order": all(i < j for (i, j) in ext_pairs),
        "regular_filtered": filtration is not None,
    }
    if undecided is not None:
        verdicts = dict.fromkeys(verdicts)
    return QHCertificate(end_dims, hom_pairs, ext_pairs, filtration, verdicts, undecided)


def oracle_standard_modules(alg: FDAlgebra, order=None):
    """The standard modules of `alg` (`algebras.standard_modules`): the
    largest quotients of the projectives with composition factors at or
    below their index.  The family the `qh` and `filtration` commands use
    when no family file is given; it is not computed independently."""
    return standard_modules(alg, order)


# ---------------------------------------------------------------------------
# Morita-basic reduction with its functors
# ---------------------------------------------------------------------------

class BasicReduction:
    """Corner reduction at one projective per isomorphism class, with the
    equivalence and its quasi-inverse as explicit functors."""

    def __init__(self, alg: FDAlgebra):
        self.alg = alg
        self.basic, self.e, self.corner_basis = basic_algebra(alg)

    def to_basic(self, M: AlgMod) -> AlgMod:
        """e.M as a module over the corner algebra."""
        fld = self.alg.field
        act_e = M.act(self.e)
        img = span_basis(fld, [act_e.apply(_unit(fld, M.dim, j)) for j in range(M.dim)])
        return AlgMod(self.basic, len(img), _restrict_maps(fld, img, [M.act(cb) for cb in self.corner_basis]))

    def from_basic(self, N: AlgMod) -> AlgMod:
        """(A.e) tensor over the corner with N."""
        fld, A = self.alg.field, self.alg
        ae = span_basis(fld, [A.mul(A.basis_vec(i), self.e) for i in range(A.dim)])
        left = _restrict_maps(fld, ae, A.left_mats())
        right = _restrict_maps(fld, ae, [A.right_mult(cb) for cb in self.corner_basis])
        return _tensor(A, left, right, N.mats)
