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
    keep, project = _quotient_coords(field, ideal_vecs, len(keys))
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

    return M, kept, right_mult, el_to_point_vecs


class RightAlgebra:
    """The opposite endomorphism algebra of the regular module in the
    two-component morphism category, with the canonical embedding of the
    degree-0 part."""

    def __init__(self, dit: Ditalgebra):
        _require_special(dit)
        self.dit = dit
        self.regular, self.basis_keys, self._right_mult, self._el_vecs = regular_module(dit)
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
        """Tensor over the degree-0 part: the right algebra acting on the
        quotient of (algebra) x (module) by the bimodule relations.  M must
        have its coefficients in the layer's ground field."""
        fld = self.dit.field
        if M.coef != fld:
            raise CoefficientMismatch(f"module coefficients in {M.coef!r}, but the right algebra is over {fld!r}")
        G = self.alg.dim
        mdim = M.total_dim
        moffs = []
        for i in self.dit.points():
            for t in range(M.dims[i]):
                moffs.append((i, t))
        midx = {p: n for n, p in enumerate(moffs)}
        total = G * mdim

        def tens(gi, mi):
            return gi * mdim + mi

        rels = []
        # relations gamma.rho_a (x) m - gamma (x) a.m for a over a spanning
        # set of the degree-0 part (the kept path basis)
        for key in self.basis_keys:
            el = PathElement(self.dit.alg, {key: fld.one})
            emb = self.embed(el)  # coordinates of rho_el in the algebra
            js, jt = key[0], self.dit.alg.key_end(key)
            # action of el on M: block from js to jt
            act = M.eval_path(key)
            for gi in range(G):
                # gamma_i . rho_el in the (opposite) algebra
                prod = self.alg.mul(self.alg.basis_vec(gi), emb)
                for t_src in range(M.dims[js]):
                    row = [fld.zero] * total
                    for gk in range(G):
                        if prod[gk] != fld.zero:
                            row[tens(gk, midx[(js, t_src)])] = row[tens(gk, midx[(js, t_src)])] + prod[gk]
                    for t_dst in range(M.dims[jt]):
                        v = act.rows[t_dst][t_src]
                        if v != fld.zero:
                            row[tens(gi, midx[(jt, t_dst)])] = row[tens(gi, midx[(jt, t_dst)])] - v
                    rels.append(row)
        # also the idempotent relations gamma.e_i (x) m - gamma (x) e_i m
        for i in self.dit.points():
            el = self.dit.alg.e(i)
            emb = self.embed(el)
            for gi in range(G):
                prod = self.alg.mul(self.alg.basis_vec(gi), emb)
                for (j, t), mi in midx.items():
                    row = [fld.zero] * total
                    for gk in range(G):
                        if prod[gk] != fld.zero:
                            row[tens(gk, mi)] = row[tens(gk, mi)] + prod[gk]
                    if j == i:
                        row[tens(gi, mi)] = row[tens(gi, mi)] - fld.one
                    if any(x != fld.zero for x in row):
                        rels.append(row)
        # quotient space coordinates
        keep, project = _quotient_coords(fld, rels, total)
        qdim = len(keep)
        mats = []
        for bi in range(G):
            cols = []
            for n in keep:
                gi, mi = divmod(n, mdim)
                prod = self.alg.mul(self.alg.basis_vec(bi), self.alg.basis_vec(gi))
                v = [fld.zero] * total
                for gk in range(G):
                    if prod[gk] != fld.zero:
                        v[tens(gk, mi)] = v[tens(gk, mi)] + prod[gk]
                cols.append(project(v))
            mats.append(Mat.from_cols(fld, cols, qdim) if qdim else Mat.zeros(fld, 0, 0))
        return AlgMod(self.alg, qdim, mats)

    def standard_family(self):
        """The induced images of the one-dimensional modules at the
        points, in point order."""
        return [self.induce(DitModule.simple(self.dit, i)) for i in self.dit.points()]


def _quotient_coords(field, rels, n):
    """Coordinates on field^n modulo span(rels): the unit vectors kept
    greedily in index order to complete a basis of the span, and the
    projection of a vector onto their coordinates."""
    span = Span(field, rels)
    k = len(span.basis)
    keep = [j for j in range(n) if span.add(_unit(field, n, j))]

    def project(v):
        return span.coords(v)[k:]

    return keep, project


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
        fld = self.alg.field
        # A.e as a right corner-module with left A-action
        ae_span = Span(fld, [self.alg.mul(self.alg.basis_vec(i), self.e) for i in range(self.alg.dim)])
        ae = ae_span.basis
        if not ae or N.dim == 0:
            return AlgMod(self.alg, 0, [Mat.zeros(fld, 0, 0)] * self.alg.dim)
        total = len(ae) * N.dim

        def tens(ai, ni):
            return ai * N.dim + ni

        rels = []
        for ci, cb in enumerate(self.corner_basis):
            # v.cb (x) n - v (x) cb.n
            for ai, v in enumerate(ae):
                w = self.alg.mul(v, cb)
                wc = ae_span.coords(w)
                for ni in range(N.dim):
                    row = [fld.zero] * total
                    for ak in range(len(ae)):
                        if wc[ak] != fld.zero:
                            row[tens(ak, ni)] = row[tens(ak, ni)] + wc[ak]
                    col = N.mats[ci].col(ni) if N.dim else []
                    for nk in range(N.dim):
                        if col[nk] != fld.zero:
                            row[tens(ai, nk)] = row[tens(ai, nk)] - col[nk]
                    if any(x != fld.zero for x in row):
                        rels.append(row)
        keep, project = _quotient_coords(fld, rels, total)
        qdim = len(keep)
        mats = []
        for bi in range(self.alg.dim):
            cols = []
            for n in keep:
                ai, ni = divmod(n, N.dim)
                # left multiplication preserves the left ideal A.e
                w = self.alg.mul(self.alg.basis_vec(bi), ae[ai])
                wc = ae_span.coords(w)
                v = [fld.zero] * total
                for ak in range(len(ae)):
                    if wc[ak] != fld.zero:
                        v[tens(ak, ni)] = v[tens(ak, ni)] + wc[ak]
                cols.append(project(v))
            mats.append(Mat.from_cols(fld, cols, qdim) if qdim else Mat.zeros(fld, 0, 0))
        return AlgMod(self.alg, qdim, mats)
