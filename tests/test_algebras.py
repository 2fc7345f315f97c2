import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    DENSITIES,
    KERNEL_FIELDS,
    jordan,
    make_a2,
    make_kron,
    make_reg,
    mat2,
    rand_rows,
    rand_scalar,
    truncated,
    typed,
)
from ditred import algebras
from ditred.algebras import (
    AlgMod,
    FDAlgebra,
    NotBasicAlgebra,
    UnsplitSemisimpleQuotient,
    _charpoly_form,
    _complement_in,
    _lift_vec,
    _pivot_quotient,
    _poly_xgcd,
    _rad_of,
    _trace_form,
    _unit,
    algebra_from_text,
    algebra_to_text,
    algmod_from_text,
    algmod_to_text,
    basic_algebra,
    endolength_algmod,
    enumerate_algmods,
    ext1_dim,
    has_filtration_by,
    projective_module,
    simple_modules,
    standard_modules,
)
from ditred.bigraph import Arrow, Ditalgebra
from ditred.ditmod import (
    DitModule,
    are_isomorphic,
    end_algebra,
    endolength,
    enumerate_modules,
    hom_space,
    is_indecomposable,
)
from ditred.errors import BudgetExceeded, DitredError
from ditred.linalg import Mat, Span, span_basis
from ditred.qhbridge import right_algebra
from ditred.scalars import QQ, FracField, PrimeField, factor_squarefree
from test_linalg import _ref_charpoly

F2 = PrimeField(2)
F3 = PrimeField(3)

# the references below enumerate F_p^k only while p^k is at most this
_REF_BUDGET = 1 << 14


def path_a2(field):
    """Structure constants of the path algebra on one arrow 1 -> 2
    (basis: the two trivial paths and the arrow)."""
    z, o = field.zero, field.one
    t = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    t[0][0][0] = o          # e1 e1 = e1
    t[1][1][1] = o          # e2 e2 = e2
    t[2][0][2] = o          # a e1 = a
    t[1][2][2] = o          # e2 a = a
    return FDAlgebra(field, t, [o, o, z], ["e1", "e2", "a"])


def dual_numbers(field):
    z, o = field.zero, field.one
    return FDAlgebra(field, [[[o, z], [z, o]], [[z, o], [z, z]]], [o, z], ["1", "t"])


def field_f4_over_f2():
    """F_2[t]/(t^2 + t + 1) on the basis 1, t: a field with 4 elements."""
    z, o = F2.zero, F2.one
    return FDAlgebra(F2, [[[o, z], [z, o]], [[z, o], [o, o]]], [o, z])


def a_n_layer(field, arrows):
    """The layer with points 0..n-1 and one full arrow per (source, target)."""
    n = 1 + max(max(st) for st in arrows)
    return Ditalgebra(field, [None] * n, [Arrow(f"a{i}", s, t, 0) for i, (s, t) in enumerate(arrows)], [], {})


# -- the composition length of earlier versions, by the radical series and a
# -- block splitting of the semisimple quotient; kept as the reference.
# -- Over F_p it was also measured by enumerating the vectors of M: a
# -- nonzero vector generating the least submodule generates a simple one.

def _ref_length_by_enumeration(M):
    fld = M.alg.field
    total = 0
    while M.dim > 0:
        best = None
        for coeffs in itertools.product(fld.elements(), repeat=M.dim):
            if all(c == fld.zero for c in coeffs):
                continue
            sub = M.submodule_closure([list(coeffs)])
            if best is None or len(sub) < len(best):
                best = sub
                if len(best) == 1:
                    break
        M = M.quotient(best)[0]
        total += 1
    return total


def _radical_series(M):
    """[M, JM, J^2 M, ...] as bases inside M, ending at 0."""
    fld = M.alg.field
    rad = M.alg.radical()
    layers = [[_unit(fld, M.dim, j) for j in range(M.dim)]]
    while layers[-1]:
        prev = layers[-1]
        nxt = [M.act(r).apply(v) for r in rad for v in prev]
        nxt = span_basis(fld, [v for v in nxt if any(c != fld.zero for c in v)])
        assert len(nxt) < len(prev), "radical series does not descend"
        layers.append(nxt)
    return layers


def _quotient_by_ideal(alg, ideal_basis):
    """Quotient algebra and the kept basis indices."""
    ideal = Span(alg.field, ideal_basis)
    if not ideal.basis:
        return alg, list(range(alg.dim))
    keep, project = _pivot_quotient(ideal, alg.dim)
    d = len(keep)
    table = [[project(alg.mul(alg.basis_vec(keep[i]), alg.basis_vec(keep[j]))) for j in range(d)]
             for i in range(d)]
    return FDAlgebra(alg.field, table, project(alg.unit)), keep


def _center(B):
    right = [Mat.from_cols(B.field, [B.mul(B.basis_vec(j), B.basis_vec(i)) for j in range(B.dim)], B.dim)
             for i in range(B.dim)]
    blocks = [L - R for L, R in zip(B.left_mats(), right)]
    return Mat(B.field, [r for X in blocks for r in X.rows], ncols=B.dim).kernel() if blocks else []


def _central_primitive_idempotents(B):
    csub, cbasis = B.subalgebra_on(_center(B), B.unit)
    return [_lift_vec(B.field, e, cbasis, B.dim) for e in _ref_primitive_idempotents(csub)]


def _layer_module(fld, M, layer_basis, bot, quo, keep):
    """The subquotient spanned by layer_basis over the semisimple quotient."""
    span = Span(fld, list(bot) + list(layer_basis))
    mats = []
    for j in keep:
        act = M.act(_unit(fld, M.alg.dim, j))
        cols = [span.coords(act.apply(v))[len(bot):] for v in layer_basis]
        mats.append(Mat.from_cols(fld, cols, len(layer_basis)))
    return AlgMod(quo, len(layer_basis), mats)


def _semisimple_length(B, V):
    """Length of a module over a semisimple algebra."""
    if V.dim == 0:
        return 0
    if B.field.is_finite() and B.field.char ** V.dim <= _REF_BUDGET:
        return _ref_length_by_enumeration(V)
    total = 0
    for e in _central_primitive_idempotents(B):
        act = V.act(e)
        part = span_basis(B.field, [act.apply(_unit(B.field, V.dim, j)) for j in range(V.dim)])
        if not part:
            continue
        blk, bbasis = B.corner(e)
        prim = _ref_primitive_idempotents(blk)
        p0 = _lift_vec(B.field, prim[0], bbasis, B.dim)
        col = span_basis(B.field, [B.mul(B.mul(e, B.basis_vec(i)), p0) for i in range(B.dim)])
        assert col and len(part) % len(col) == 0, "inconsistent simple dimension"
        total += len(part) // len(col)
    return total


def _length_by_layers(M):
    """Sum over the radical layers of their lengths over A/J."""
    fld = M.alg.field
    layers = _radical_series(M)
    quo, keep = _quotient_by_ideal(M.alg, M.alg.radical())
    total = 0
    for top, bot in zip(layers, layers[1:]):
        layer_basis = _complement_in(fld, bot, top)
        total += _semisimple_length(quo, _layer_module(fld, M, layer_basis, bot, quo, keep))
    return total


# -- the idempotent search of earlier versions, kept as the reference:
# -- candidate elements split by the coprime factors of their minimal
# -- polynomials, then over F_p every element while p^dim <= _REF_BUDGET.
# -- Above that budget, and over Q, its None can be a miss.

def _ref_candidates(A):
    vecs = [A.basis_vec(i) for i in range(A.dim)]
    out = list(vecs)
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            out.append([a + b for a, b in zip(vecs[i], vecs[j])])
    for i in range(A.dim):
        for j in range(A.dim):
            if i != j:
                out.append(A.mul(vecs[i], vecs[j]))
    return out


def _ref_split_by_minpoly(A, x):
    m = A.left_mult(x).minpoly()
    fac = factor_squarefree(m)
    if len(fac) < 2:
        return None
    f = fac[0][0] ** fac[0][1]
    g = m // f
    gg, u, v = _poly_xgcd(f, g)
    if gg.degree != 0:
        return None
    acc = A.zero_vec()
    for c in reversed(list((v * g).coeffs)):
        acc = [a + c * w for a, w in zip(A.mul(acc, x), A.unit)]
    assert A.mul(acc, acc) == acc
    if all(c == A.field.zero for c in acc) or acc == A.unit:
        return None
    return acc


def _ref_find_nontrivial_idempotent(A):
    if A.dim <= 1:
        return None
    for x in _ref_candidates(A):
        e = _ref_split_by_minpoly(A, x)
        if e is not None:
            return e
    if A.field.is_finite() and A.field.char ** A.dim <= _REF_BUDGET:
        for coeffs in itertools.product(A.field.elements(), repeat=A.dim):
            v = list(coeffs)
            if A.mul(v, v) == v and any(c != A.field.zero for c in v) and v != A.unit:
                return v
    return None


def _ref_primitive_idempotents(A):
    """The search's split: A itself at the unit, every other idempotent
    inside its corner."""
    todo, out = [A.unit], []
    while todo:
        e = todo.pop()
        if e == A.unit:
            f = _ref_find_nontrivial_idempotent(A)
        else:
            corner, cbasis = A.corner(e)
            f = _ref_find_nontrivial_idempotent(corner)
            if f is not None:
                f = _lift_vec(A.field, f, cbasis, A.dim)
        if f is None:
            out.append(tuple(e))
            continue
        todo += [f, [a - b for a, b in zip(e, f)]]
    return tuple(out)


def _corner_first_prims(A):
    """The search's split as earlier versions still did it: every
    idempotent, the unit included, inside a corner copy e.A.e."""
    todo, out = [A.unit], []
    while todo:
        e = todo.pop()
        corner, cbasis = A.corner(e)
        f = _ref_find_nontrivial_idempotent(corner)
        if f is None:
            out.append(tuple(e))
            continue
        f = _lift_vec(A.field, f, cbasis, A.dim)
        todo += [f, [a - b for a, b in zip(e, f)]]
    return tuple(out)


def _end_module(dit, N):
    """N as a left module over its endomorphism algebra."""
    E, basis = end_algebra(dit, N)
    return AlgMod(E, N.total_dim, [f.f0_blockdiag() for f in basis])


def _partitions(total, largest):
    if total == 0:
        yield ()
        return
    for p in range(min(total, largest), 0, -1):
        for rest in _partitions(total - p, p):
            yield (p,) + rest


def length_sweep(field, dmax_dit):
    """Modules over A2 (all of dimension <= 3), the dual numbers (all of
    dimension <= 2), k[t]/(t^2) and k[t]/(t^3) (one Jordan module per
    partition of 1..4) and M_2(k), and the End-modules of the Kronecker, A2
    and regularizable layers' modules of dimension <= dmax_dit."""
    mods = enumerate_algmods(path_a2(field), 3) + enumerate_algmods(dual_numbers(field), 2)
    for n in (2, 3):
        A = truncated(field, n)
        mods += [jordan(A, parts) for total in range(1, 5) for parts in _partitions(total, n)]
    M2 = mat2(field)
    reg = AlgMod.regular(M2)
    simple = projective_module(M2, M2.primitive_idempotents()[0])[0]
    mods += [simple, reg, AlgMod.direct_sum(reg, simple)]
    for dit in (make_kron(field), make_a2(field), make_reg(field)):
        mods += [_end_module(dit, N) for N in enumerate_modules(dit, dmax_dit)]
    return mods


class TestRadical:
    @pytest.mark.parametrize("field", [QQ, F2, F3])
    def test_path_algebra_radical(self, field):
        A = path_a2(field)
        A.check_associativity()
        rad = A.radical()
        assert len(rad) == 1
        assert rad[0][2] != field.zero  # spanned by the arrow

    @pytest.mark.parametrize("field", [QQ, F2, F3])
    def test_dual_numbers(self, field):
        B = dual_numbers(field)
        rad = B.radical()
        assert len(rad) == 1
        assert B.is_local()

    @pytest.mark.parametrize("field", [QQ, F2])
    def test_matrix_algebra_semisimple(self, field):
        M2 = mat2(field)
        assert M2.radical() == []

    def test_group_algebra_char2(self):
        # F2[C2 x C2]: radical has dimension 3
        field = F2
        z, o = field.zero, field.one
        elts = list(itertools.product([0, 1], repeat=2))
        idx = {e: i for i, e in enumerate(elts)}
        t = [[[z] * 4 for _ in range(4)] for _ in range(4)]
        for g in elts:
            for h in elts:
                k = ((g[0] + h[0]) % 2, (g[1] + h[1]) % 2)
                t[idx[g]][idx[h]][idx[k]] = o
        A = FDAlgebra(field, t, [o, z, z, z])
        A.check_associativity()
        assert len(A.radical()) == 3

    def test_f4_as_f2_algebra_is_semisimple(self):
        field = F2
        z, o = field.zero, field.one
        # basis 1, w with w^2 = w + 1
        t = [[[o, z], [z, o]], [[z, o], [o, o]]]
        A = FDAlgebra(field, t, [o, z])
        A.check_associativity()
        assert A.radical() == []
        assert A.is_local()  # a field: no nontrivial idempotents


# -- the radical of earlier versions: the trace form in characteristic 0,
# the characteristic-polynomial chain in characteristic p, kept as the
# reference for the one chain that replaced both

def _trace_radical(A):
    rows = []
    mats = A.left_mats()
    for j in range(A.dim):
        row = []
        for i in range(A.dim):
            prod = mats[i] * mats[j]
            tr = A.field.zero
            for d in range(A.dim):
                tr = tr + prod.rows[d][d]
            row.append(tr)
        rows.append(row)
    return Mat(A.field, rows).kernel()


def _charp_radical(A):
    p, n = A.field.char, A.dim
    sub = [A.basis_vec(i) for i in range(n)]
    q = 1
    while q <= n and sub:
        rows = []
        for y in sub:
            Ly = A.left_mult(y)
            rows.append([_ref_charpoly(A.left_mult(x) * Ly).coeff(n - q) for x in sub])
        newsub = []
        for kv in Mat(A.field, rows).kernel():
            v = [A.field.zero] * n
            for c, b in zip(kv, sub):
                for t in range(n):
                    v[t] = v[t] + c * b[t]
            newsub.append(v)
        sub = span_basis(A.field, newsub)
        q *= p
    return sub


def _reference_radical(A):
    return _trace_radical(A) if A.field.char == 0 else _charp_radical(A)


class TestRadicalChain:
    """`FDAlgebra.radical` against the two algorithms it replaced."""

    @pytest.mark.parametrize("field,dmax_dit", [(F2, 3), (F3, 3), (QQ, 2)], ids=repr)
    def test_end_algebras(self, field, dmax_dit):
        algs = [end_algebra(dit, N)[0]
                for dit in (make_kron(field), make_a2(field), make_reg(field))
                for N in enumerate_modules(dit, dmax_dit)]
        assert len(algs) >= 36
        for A in algs:
            assert A.radical() == _reference_radical(A)

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_fixture_algebras(self, field):
        for A in _fixture_algebras(field):
            assert A.radical() == _reference_radical(A)

    @pytest.mark.parametrize("field", [F2, F3], ids=repr)
    def test_gram_matrices_equal_plain_products(self, field):
        """`_charpoly_form` builds each right factor's nonzero pairs once;
        at every level q = p, p^2, ... the radical reaches, its Gram matrix
        equals the one from plain `Mat.__mul__` products."""
        levels = 0
        for dit in (make_kron(field), make_a2(field), make_reg(field)):
            for N in enumerate_modules(dit, 3):
                A = end_algebra(dit, N)[0]
                mats = A.left_mats()
                q = field.char
                while q <= A.dim:
                    k = A.dim - q
                    want = [[(X * Y).charpoly().coeff(k) for X in mats] for Y in mats]
                    assert typed(_charpoly_form(mats, k)) == typed(want)
                    levels += 1
                    q *= field.char
        assert levels

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_halved_gram_matrices_equal_full_ones(self, field):
        """Both forms are symmetric, so one triangle is computed and mirrored."""
        for A in _fixture_algebras(field):
            mats = A.left_mats()
            assert typed(_trace_form(mats, field.zero)) == typed(_ref_trace_form(mats, field.zero))
            full = [[(X * Y).charpoly() for X in mats] for Y in mats]
            for k in range(A.dim):
                assert typed(_charpoly_form(mats, k)) == typed([[f.coeff(k) for f in row] for row in full])


def _fixture_algebras(field):
    algs = [path_a2(field), dual_numbers(field), mat2(field)]
    algs += [truncated(field, n) for n in (2, 3, 4)]
    for arrows in ([(0, 1), (1, 2)], [(0, 1), (2, 1)], [(1, 0), (1, 2), (3, 2)]):
        algs.append(right_algebra(a_n_layer(field, arrows)).alg)
    if field == F2:
        algs.append(field_f4_over_f2())
    return algs


class TestIdempotents:
    def test_primitive_decomposition_m2(self):
        M2 = mat2(QQ)
        prims = M2.primitive_idempotents()
        assert len(prims) == 2
        total = [x + y for x, y in zip(prims[0], prims[1])]
        assert total == M2.unit
        for e in prims:
            assert M2.mul(e, e) == list(e)  # the cached idempotents are tuples
        assert M2.mul(prims[0], prims[1]) == M2.zero_vec()

    def test_basic_of_m2(self):
        M2 = mat2(QQ)
        corner, esum, _ = basic_algebra(M2)
        assert corner.dim == 1

    def test_path_algebra_already_basic(self):
        A = path_a2(QQ)
        corner, esum, _ = basic_algebra(A)
        assert corner.dim == A.dim


class TestModules:
    def test_regular_length(self):
        A = path_a2(QQ)
        reg = AlgMod.regular(A)
        reg.check()
        assert reg.length() == 3

    def test_length_enumeration_matches_layers(self):
        for field in (F2, F3):
            A = path_a2(field)
            reg = AlgMod.regular(A)
            assert _ref_length_by_enumeration(reg) == _length_by_layers(reg) == 3
            assert reg.length() == 3

    def test_projectives_and_simples(self):
        A = path_a2(QQ)
        prims = A.primitive_idempotents()
        projs = [projective_module(A, e)[0] for e in prims]
        assert sorted(P.dim for P in projs) == [1, 2]
        simples = simple_modules(A)
        assert sorted(S.dim for S in simples) == [1, 1]

    def test_ext_a2(self):
        A = path_a2(QQ)
        simples = simple_modules(A)
        # order the simples by the idempotent they live at
        def at_point(S, i):
            return not S.act(A.basis_vec(i)).is_zero()
        S1 = next(S for S in simples if at_point(S, 0))
        S2 = next(S for S in simples if at_point(S, 1))
        e12 = ext1_dim(A, S1, S2)
        e21 = ext1_dim(A, S2, S1)
        assert {e12, e21} == {0, 1}
        assert ext1_dim(A, S1, S1) == 0

    def test_standard_modules_oracle(self):
        A = path_a2(QQ)
        deltas = standard_modules(A)
        assert sorted(D.dim for D in deltas) == [1, 1] or sorted(D.dim for D in deltas) == [1, 2]

    def test_filtration_search(self):
        A = path_a2(F2)
        reg = AlgMod.regular(A)
        deltas = standard_modules(A)
        wit = has_filtration_by(A, reg, deltas)
        assert wit is not None

    def test_endolength_algmod(self):
        A = dual_numbers(QQ)
        reg = AlgMod.regular(A)
        assert endolength_algmod(reg) == 2

    def test_decompose(self):
        A = path_a2(QQ)
        reg = AlgMod.regular(A)
        parts = reg.indecomposable_summands()
        assert sorted(p.dim for p in parts) == [1, 2]

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_summands_in_one_pass(self, field):
        """One summand per primitive idempotent of End(M): the dimensions
        add up to dim M and each summand has a local End."""
        rng = random.Random(31)
        mods = [AlgMod.regular(path_a2(field)), AlgMod.regular(mat2(field))]
        mods += [_in_random_basis(jordan(truncated(field, 2), parts), rng) for parts in ([2, 1], [1, 2, 1])]
        for M in mods:
            parts = M.indecomposable_summands()
            assert sum(S.dim for S in parts) == M.dim
            assert all(S.end_algebra()[0].is_local() for S in parts)
        assert sorted(S.dim for S in mods[-1].indecomposable_summands()) == [1, 1, 2]
        assert AlgMod(path_a2(field), 0, [Mat.zeros(field, 0, 0)] * 3).indecomposable_summands() == []

    def test_end_algebra_is_kept_on_the_module(self):
        M = jordan(truncated(QQ, 2), [2, 1])
        assert M.end_algebra() is M.end_algebra()

    def test_enumeration_over_budget(self):
        A = path_a2(F2)
        assert len(enumerate_algmods(A, 2)) > 1
        with pytest.raises(BudgetExceeded) as err:
            enumerate_algmods(A, 2, budget=1)
        assert isinstance(err.value, RuntimeError)

    @pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
    def test_enumeration_refuses_a_split_algebra_that_is_not_basic(self, field):
        """M_2(k) has two primitive idempotents and no radical: it is split,
        and not basic, and the error says so."""
        with pytest.raises(NotBasicAlgebra, match="needs a basic algebra") as err:
            enumerate_algmods(mat2(field), 2)
        assert isinstance(err.value, DitredError) and not isinstance(err.value, UnsplitSemisimpleQuotient)

    def test_enumeration_refuses_an_unsplit_algebra(self):
        with pytest.raises(UnsplitSemisimpleQuotient, match="split basic"):
            enumerate_algmods(_poly_quotient(QQ, [1, 0]), 2)  # Q[x]/(x^2 + 1)


class TestLengthCount:
    """The idempotent count against the radical-layer length of earlier
    versions, kept above, and against enumeration over F_p."""

    @pytest.mark.parametrize("field,dmax_dit", [(F2, 3), (F3, 3), (QQ, 2)])
    def test_count_matches_layers(self, field, dmax_dit):
        mods = length_sweep(field, dmax_dit)
        assert len(mods) > 50
        for M in mods:
            n = M.length()
            assert n == _length_by_layers(M)
            if field.is_finite():
                assert n == _ref_length_by_enumeration(M)

    @pytest.mark.parametrize("field", [F2, F3], ids=repr)
    def test_endolength_matches_enumeration_on_small_layers(self, field):
        """The inputs that earlier versions measured by enumeration: the
        indecomposables of the Kronecker and A2 layers up to dimension 3."""
        count = 0
        for dit in (make_kron(field), make_a2(field)):
            for N in enumerate_modules(dit, 3):
                if is_indecomposable(dit, N):
                    assert endolength(dit, N) == _ref_length_by_enumeration(_end_module(dit, N))
                    count += 1
        assert count >= 10

    def test_simple_with_larger_endomorphisms(self):
        # over F4 = F2[t]/(t^2+t+1) the simple module is F4: dimension 2, d_e = 2
        A = field_f4_over_f2()
        reg = AlgMod.regular(A)
        assert A.primitive_idempotents() == (tuple(A.unit),)
        for M, n in ((reg, 1), (AlgMod.direct_sum(reg, reg), 2)):
            assert M.length() == _ref_length_by_enumeration(M) == _length_by_layers(M) == n

    def test_non_primitive_idempotent_raises(self):
        # the unit of A2 is not primitive: dim 1.A2 = 3 over dim A2/J = 2
        A = path_a2(QQ)
        A._prims = (tuple(A.unit),)
        with pytest.raises(UnsplitSemisimpleQuotient):
            AlgMod.regular(A).length()

    def test_zero_module(self):
        assert AlgMod(path_a2(QQ), 0, [Mat.zeros(QQ, 0, 0)] * 3).length() == 0


AN_ARROWS = ([(0, 1), (1, 2)], [(0, 1), (2, 1)], [(0, 1), (1, 2), (2, 3)], [(1, 0), (1, 2), (3, 2)])


def _least_index(e):
    return next(i for i, c in enumerate(e) if c)


def _projective_dims(A, prims):
    return sorted(len(span_basis(A.field, [A.mul(A.basis_vec(i), list(e)) for i in range(A.dim)])) for e in prims)


def _assert_complete_orthogonal(A, prims):
    total = A.zero_vec()
    for e in prims:
        assert A.mul(list(e), list(e)) == list(e)
        total = [a + b for a, b in zip(total, e)]
        for f in prims:
            if f is not e:
                assert A.mul(list(e), list(f)) == A.zero_vec()
    assert total == A.unit


class TestUnitSplitting:
    """primitive_idempotents gives the idempotents of the earlier search,
    kept above, as a set, in the canonical order: the least basis index of
    the support falls along the tuple."""

    @pytest.mark.parametrize("field", [F2, F3, QQ])
    def test_same_tuple(self, field):
        algs = [mat2(field), path_a2(field), truncated(field, 3)]
        for arrows in AN_ARROWS:
            algs.append(right_algebra(a_n_layer(field, arrows)).alg)
        for A in algs:
            prims = A.primitive_idempotents()
            assert set(prims) == set(_ref_primitive_idempotents(A)) == set(_corner_first_prims(A))
            lows = [_least_index(e) for e in prims]
            assert lows == sorted(lows, reverse=True)

    def test_f4_unit_primitive(self):
        A = field_f4_over_f2()
        assert A.primitive_idempotents() == _corner_first_prims(A) == (tuple(A.unit),)


def _poly_quotient(field, low):
    """k[t]/(f) on the basis 1, t, ..., t^(d-1), for the monic f of degree
    d = len(low) whose lower coefficients are `low`, constant first."""
    d = len(low)
    low = [field.of(c) for c in low]

    def power(k):
        v = [field.zero] * (2 * d - 1)
        v[k] = field.one
        for top in range(2 * d - 2, d - 1, -1):
            c, v[top] = v[top], field.zero
            for i, a in enumerate(low):
                v[top - d + i] = v[top - d + i] - c * a
        return v[:d]

    table = [[power(i + j) for j in range(d)] for i in range(d)]
    return FDAlgebra(field, table, power(0))


def _diagonal(field, n):
    """k x ... x k (n factors) on its primitive idempotents."""
    table = [[_unit(field, n, i) if i == j else [field.zero] * n for j in range(n)] for i in range(n)]
    return FDAlgebra(field, table, [field.one] * n)


def _rebased(A, rng):
    """A on a seeded random basis with small coefficients."""
    while True:
        rows = [[A.field.of(rng.randint(-2, 2)) for _ in range(A.dim)] for _ in range(A.dim)]
        if Mat(A.field, rows).rank() == A.dim:
            B, _ = A.subalgebra_on(rows, A.unit)
            B.check_associativity()
            return B


class TestExactSplitting:
    """Locality and the primitive idempotents come from an exact split of
    A/J, and what cannot be split raises."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_truncated_over_q_is_local_without_candidates(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("a local algebra needs no split")

        monkeypatch.setattr(algebras, "_split_semisimple", refuse)
        monkeypatch.setattr(algebras, "_crt_split", refuse)
        rng = random.Random(100 + n)
        for _ in range(3):
            A = _rebased(truncated(QQ, n), rng)
            assert A.is_local()
            assert A.primitive_idempotents() == (tuple(A.unit),)

    @pytest.mark.parametrize("low", [[1, 1], [1, 1, 0], [1, 0, 1]], ids=["F4", "F8", "F8'"])
    def test_extension_fields_of_f2_are_local(self, low):
        A = _poly_quotient(F2, low)
        assert A.radical() == []
        assert A.is_local()
        assert _rebased(A, random.Random(7)).is_local()

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_cube_of_the_field_splits_into_three(self, field):
        """No element of F2 x F2 x F2 has a minimal polynomial of degree 3,
        so no primitive element exists there; the Berlekamp split needs
        none.  Over Q a primitive element splits it."""
        rng = random.Random(3)
        for A in [_diagonal(field, 3)] + [_rebased(_diagonal(field, 3), rng) for _ in range(3)]:
            prims = A.primitive_idempotents()
            assert len(prims) == 3
            _assert_complete_orthogonal(A, prims)

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_matrix_algebra_splits_into_two(self, field):
        rng = random.Random(11)
        for A in [mat2(field)] + [_rebased(mat2(field), rng) for _ in range(3)]:
            prims = A.primitive_idempotents()
            assert len(prims) == 2
            _assert_complete_orthogonal(A, prims)
            assert _projective_dims(A, prims) == [2, 2]

    def test_f2_end_algebra_past_the_enumeration_budget(self):
        """End(J3 + J3 + J1) over k[t]/(t^3): dimension 17, so the earlier
        search could not enumerate it; A/J = M_2(F2) x F2."""
        M = jordan(truncated(F2, 3), [3, 3, 1])
        E, basis = M.end_algebra()
        assert E.dim == 17 and F2.char ** E.dim > _REF_BUDGET
        prims = E.primitive_idempotents()
        _assert_complete_orthogonal(E, prims)
        # E.e = Hom(J_a, M) for the summand J_a that e projects onto
        assert _projective_dims(E, prims) == [3, 7, 7]
        mod = AlgMod(E, M.dim, basis)
        assert mod.length() == _ref_length_by_enumeration(mod) == 4

    def test_uncertified_quartic_centre_raises(self):
        A = _poly_quotient(QQ, [2, 0, 3, 0])  # Q[x]/((x^2 + 1)(x^2 + 2))
        assert A.radical() == []
        with pytest.raises(UnsplitSemisimpleQuotient):
            A.primitive_idempotents()
        with pytest.raises(UnsplitSemisimpleQuotient):
            A.is_local()

    def test_quadratic_fields_over_q_are_local(self):
        for low in ([1, 0], [2, 0], [-2, 0], [1, 1]):
            assert _poly_quotient(QQ, low).is_local()
        # Q[x]/(x^2 - 1) = Q x Q
        assert len(_poly_quotient(QQ, [-1, 0]).primitive_idempotents()) == 2

    @pytest.mark.parametrize("field", [F2, F3], ids=repr)
    def test_agrees_with_the_search_where_it_was_complete(self, field):
        algs = [end_algebra(dit, N)[0]
                for dit in (make_kron(field), make_a2(field), make_reg(field))
                for N in enumerate_modules(dit, 3)]
        algs += _fixture_algebras(field)
        algs = [A for A in algs if field.char ** A.dim <= _REF_BUDGET]
        assert len(algs) >= 36
        for A in algs:
            prims, ref = A.primitive_idempotents(), _ref_primitive_idempotents(A)
            assert len(prims) == len(ref)
            assert _projective_dims(A, prims) == _projective_dims(A, ref)
            assert A.is_local() == (_ref_find_nontrivial_idempotent(A) is None)

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_agrees_with_the_search_on_right_algebras(self, field):
        for arrows in AN_ARROWS:
            A = right_algebra(a_n_layer(field, arrows)).alg
            prims, ref = A.primitive_idempotents(), _ref_primitive_idempotents(A)
            assert len(prims) == len(ref) == len(a_n_layer(field, arrows).points())
            assert _projective_dims(A, prims) == _projective_dims(A, ref)


# -- the invertible-combination search of earlier versions, kept as the
# -- reference: each matrix alone, a greedy rank completion, then every
# -- combination over F_p while p^k <= _REF_BUDGET (complete there), and
# -- otherwise a grid, where its None can be a miss.

def _ref_invertible_combo(field, mats):
    if not mats:
        return None
    k = len(mats)
    z, o = field.zero, field.one
    for i, m in enumerate(mats):
        if m.is_invertible():
            return [o if j == i else z for j in range(k)]
    n = mats[0].m
    scalars = field.elements() if field.is_finite() else field.grid()
    cur = Mat.zeros(field, n, n)
    cur_rank = 0
    coeffs = []
    for h in mats:
        best, best_rank = z, cur_rank
        for c in scalars:
            if c == z:
                continue
            r = (cur + h.scale(c)).rank()
            if r > best_rank:
                best, best_rank = c, r
        coeffs.append(best)
        if best != z:
            cur = cur + h.scale(best)
            cur_rank = best_rank
        if cur_rank == n:
            return coeffs + [z] * (k - len(coeffs))
    if _ref_complete(field, k):
        for coeffs in itertools.product(field.elements(), repeat=k):
            if _ref_lin_comb(field, coeffs, mats).is_invertible():
                return list(coeffs)
        return None
    head = min(k, 4)
    for coeffs in itertools.product(field.grid(), repeat=head):
        full = list(coeffs) + [o] * (k - head)
        if _ref_lin_comb(field, full, mats).is_invertible():
            return full
    for i in range(k):
        for j in range(k):
            if (mats[i] + mats[j]).is_invertible():
                coeffs = [z] * k
                coeffs[i] = coeffs[i] + o
                coeffs[j] = coeffs[j] + o
                return coeffs
    return None


def _ref_lin_comb(field, coeffs, mats) -> Mat:
    out = None
    for c, m in zip(coeffs, mats):
        if c:
            t = m.scale(c)
            out = t if out is None else out + t
    return out if out is not None else Mat.zeros(field, mats[0].m, mats[0].n)


def _ref_complete(field, k):
    """Whether the reference decides k homs: over F_p with p^k <= _REF_BUDGET."""
    return field.is_finite() and field.char ** k <= _REF_BUDGET


def _conjugate(M, P):
    """M in another basis: the action P.m.P^-1."""
    Pi = P.inv()
    return AlgMod(M.alg, M.dim, [P * m * Pi for m in M.mats])


def _in_random_basis(M, rng):
    """M conjugated by a seeded random invertible matrix with small entries."""
    fld = M.alg.field
    while True:
        P = Mat(fld, [[fld.of(rng.randint(-2, 2)) for _ in range(M.dim)] for _ in range(M.dim)])
        if P.is_invertible():
            return _conjugate(M, P)


def _assert_isomorphism(f, M, N):
    assert f is not None and f.is_invertible()
    assert all(f * a == b * f for a, b in zip(M.mats, N.mats))


class TestIsomorphism:
    """`AlgMod.is_isomorphic` and `ditmod.are_isomorphic` against the truth
    by construction and against the search they replaced, kept above."""

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_jordan_pairs_agree_with_the_search(self, field):
        """Every pair of Jordan modules of one dimension <= 3, the second in
        a random basis: an isomorphism exactly for equal partitions, and the
        reference agrees wherever it found one or was complete."""
        rng = random.Random(13)
        checked = 0
        for n in (2, 3):
            A = truncated(field, n)
            for total in range(1, 4):
                parts = list(_partitions(total, n))
                for p, q in itertools.product(parts, repeat=2):
                    M, N = jordan(A, list(p)), _in_random_basis(jordan(A, list(q)), rng)
                    f, homs = M.is_isomorphic(N), M.hom(N)
                    ref = _ref_invertible_combo(field, homs)
                    if p == q:
                        _assert_isomorphism(f, M, N)
                    else:
                        assert f is None
                    if ref is not None or _ref_complete(field, len(homs)):
                        assert (f is None) == (ref is None)
                    checked += 1
        assert checked == 23

    @pytest.mark.parametrize("field,dmax", [(F2, 3), (F3, 2)], ids=repr)
    def test_path_algebra_modules_agree_with_the_search(self, field, dmax):
        mods = enumerate_algmods(path_a2(field), dmax)
        rng = random.Random(17)
        for M in mods:
            for N in mods:
                if M.dim == N.dim:
                    N2 = _in_random_basis(N, rng)
                    f, ref = M.is_isomorphic(N2), _ref_invertible_combo(field, M.hom(N2))
                    assert (f is None) == (ref is None)  # the search is complete on these
                    if f is not None:
                        _assert_isomorphism(f, M, N2)

    @pytest.mark.parametrize("field,parts,P", [
        (QQ, [2, 1, 1], [[1, 1, -1, 2], [2, 0, 0, 1], [0, 1, -2, 0], [0, 1, 0, -1]]),
        (F2, [1, 1, 2, 1], [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 1, 0], [1, 1, 0, 0, 1], [1, 1, 1, 1, 0]]),
        (F3, [2, 2, 1, 1], [[2, 2, 0, 0, 2, 2], [2, 2, 2, 1, 0, 1], [0, 1, 2, 2, 0, 1], [0, 0, 2, 2, 1, 2],
                            [0, 1, 0, 0, 0, 1], [0, 2, 1, 1, 2, 1]]),
    ], ids=["Q-211", "F2-1121", "F3-2211"])
    def test_false_negatives_of_the_search(self, field, parts, P):
        """Jordan modules over k[t]/(t^2) in a second basis that the search
        called "not isomorphic": Hom has 10, 17 and 20 basis homs, above its
        enumeration budget over F_p."""
        M = jordan(truncated(field, 2), parts)
        N = _conjugate(M, Mat(field, [[field.of(a) for a in r] for r in P]))
        homs = M.hom(N)
        assert _ref_invertible_combo(field, homs) is None and not _ref_complete(field, len(homs))
        _assert_isomorphism(M.is_isomorphic(N), M, N)

    @pytest.mark.parametrize("field,dmax", [(F2, 3), (F3, 2), (QQ, 2)], ids=repr)
    def test_layer_modules_agree_with_the_search(self, field, dmax):
        """`are_isomorphic` on every pair of modules of one dimension vector
        of total <= dmax over the Kronecker layer and over a layer whose
        derivation hits a dashed arrow, so that f1 counts, against the
        search on the f0."""
        for dit in (make_kron(field), make_reg(field)):
            mods = enumerate_modules(dit, dmax)
            for M in mods:
                for N in mods:
                    if M.dims != N.dims:
                        continue
                    f, homs = are_isomorphic(dit, M, N), hom_space(dit, M, N)
                    ref = _ref_invertible_combo(field, [h.f0_blockdiag() for h in homs])
                    if ref is not None or _ref_complete(field, len(homs)):
                        assert (f is None) == (ref is None)
                    if f is not None:
                        assert f.is_invertible() and f.check()
                    if M is N:
                        assert f is not None

    def test_decomposable_kronecker_pair_over_q(self):
        """K(2) + K(2) + K(3) with K(l) = (a, b) = (1, l), and the same module
        in a second basis: no basis hom is invertible, and the walk returns
        an invertible morphism; K(2) + K(3) + K(3) is not isomorphic."""
        kron = make_kron(QQ)

        def kronecker(*lams):
            d = len(lams)
            diag = Mat(QQ, [[lam if r == c else 0 for c in range(d)] for r, lam in enumerate(lams)])
            return DitModule(kron, (d, d), {"a": Mat.eye(QQ, d), "b": diag})

        M = kronecker(2, 2, 3)
        P0 = Mat(QQ, [[1, 2, 0], [1, 1, -1], [0, 1, 2]])
        P1 = Mat(QQ, [[2, 0, 1], [1, -1, 0], [1, 1, 2]])
        N = M.base_change({0: P0, 1: P1})
        assert not any(h.is_invertible() for h in hom_space(kron, M, N))
        f = are_isomorphic(kron, M, N)
        assert f is not None and f.is_invertible() and f.check()
        assert are_isomorphic(kron, kronecker(2, 3, 3), N) is None


def _callers(tree, attr, arg=None):
    """The enclosing function name of every `.<attr>()` or `<attr>()` call;
    with `arg`, of every such call whose first argument is `<arg>(...)`."""
    out = []

    def first_calls(call):
        a = call.args[0] if call.args else None
        return isinstance(a, ast.Call) and isinstance(a.func, ast.Name) and a.func.id == arg

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if (isinstance(node, ast.Call) and attr in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
                and (arg is None or first_calls(node))):
            out.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return out


# -- the intertwiner solver of earlier versions, one hand-built row per
# -- entry of F A_b - B_b F; kept as the reference for `AlgMod.hom` on the
# -- shared equation builder

def _ref_algmod_hom(M, N):
    fld = M.alg.field
    m, n = N.dim, M.dim
    if m * n == 0:
        return []
    rows = []
    for bi in range(M.alg.dim):
        A = M.mats[bi]
        B = N.mats[bi]
        for r in range(m):
            for c in range(n):
                row = [fld.zero] * (m * n)
                for k in range(n):
                    row[r * n + k] = row[r * n + k] + A.rows[k][c]
                for k in range(m):
                    row[k * n + c] = row[k * n + c] - B.rows[r][k]
                rows.append(row)
    ker = Mat(fld, rows).kernel() if rows else []
    return [Mat(fld, [v[r * n:(r + 1) * n] for r in range(m)]) for v in ker]


def _hom_corpus(field):
    """AlgMods per algebra: Jordan modules over k[t]/(t^2) and k[t]/(t^3),
    modules over M_2(k), and over the right algebras of A_n layers the
    regular, simple, projective and standard modules, with every module of
    dimension <= 2 over F_p."""
    out = []
    for n in (2, 3):
        alg = truncated(field, n)
        parts = [p for p in ([1], [2], [3], [1, 1], [2, 1], [3, 1], [2, 2], [1, 1, 1]) if max(p) <= n]
        out.append([jordan(alg, p) for p in parts])
    A = mat2(field)
    R = AlgMod.regular(A)
    out.append([R, AlgMod.direct_sum(R, R)] + simple_modules(A))
    for arrows in ([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (0, 2)]):
        A = right_algebra(a_n_layer(field, arrows)).alg
        mods = [AlgMod.regular(A)] + simple_modules(A) + standard_modules(A)
        mods += [projective_module(A, e)[0] for e in A.primitive_idempotents()]
        if field.is_finite():
            mods += enumerate_algmods(A, 2)
        out.append(mods)
    rng = random.Random(3301)
    for n, partitions in ((2, ([2, 1], [2, 2])), (3, ([3], [3, 1], [3, 1, 1, 3])), (4, ([4], [2, 1]))):
        B, basis = _seeded_truncated(field, n, rng)
        T = truncated(field, n)
        out.append([_in_random_basis(_transported(jordan(T, p), B, basis), rng) for p in partitions])
    Z = FDAlgebra(field, [], [])
    out.append([AlgMod(Z, 0, [])])
    return out


def _seeded_truncated(field, n, rng):
    """k[t]/(t^n) on a seeded basis b_i = t^i + (lower powers of t), as in
    the benchmark's algebras; returns the algebra and the b_i as vectors
    in the basis 1, t, ..., t^(n-1)."""
    z, o = field.zero, field.one
    pool = [0, 0, 1, -1, 2] + ([Fraction(1, 2), Fraction(-3, 2)] if field.char == 0 else [])
    rows = [[field.of(rng.choice(pool)) if k < i else o if k == i else z for k in range(n)] for i in range(n)]
    T = truncated(field, n)
    B, basis = T.subalgebra_on(rows, T.unit)
    assert basis == rows
    return B, basis


def _transported(M, B, basis):
    """The module M over B, whose basis elements are the vectors `basis`
    of M's algebra."""
    N = AlgMod(B, M.dim, [M.act(b) for b in basis])
    N.check()
    return N


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
def test_algmod_hom_matches_reference(field):
    """`AlgMod.hom`, with equations for the algebra's generators only, on
    `linalg._matrix_equation_kernel`, gives the bases of the hand-built
    solver over every basis element it replaced, entry for entry and in
    order, and each basis map intertwines the actions of all of them."""
    pairs = 0
    for mods in _hom_corpus(field):
        for M, N in itertools.product(mods, repeat=2):
            got = M.hom(N)
            assert [typed(F.rows) for F in got] == [typed(F.rows) for F in _ref_algmod_hom(M, N)]
            assert all((F.m, F.n) == (N.dim, M.dim) for F in got)
            assert all(F * A == B * F for F in got for A, B in zip(M.mats, N.mats))
            pairs += 1
    assert pairs > 300


def _words_span(A, gens):
    """The span of the unit and all words in the basis elements gens,
    by products of growing length."""
    span = Span(A.field, [A.unit])
    layer = [A.unit]
    while layer:
        layer = [w for w in (A.mul(A.basis_vec(g), v) for v in layer for g in gens) if span.add(w)]
    return span


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
def test_generators_generate_greedily(field):
    """`FDAlgebra.generators` generate the algebra with the unit; each one
    lies outside the subalgebra the unit and the earlier ones generate,
    and each basis element before it inside; the list is computed once."""
    algs = {M.alg for mods in _hom_corpus(field) for M in mods}
    assert len(algs) >= 9
    for A in algs:
        gens = A.generators()
        assert A.generators() is gens
        assert len(_words_span(A, gens).basis) == A.dim
        for k in range(A.dim):
            earlier = [g for g in gens if g < k]
            assert (k in gens) != _words_span(A, earlier).contains(A.basis_vec(k))
    assert truncated(field, 4).generators() == [1]
    assert mat2(field).generators() == [0, 1, 2]
    assert FDAlgebra(field, [], []).generators() == []


def _ref_act(M, avec):
    out = Mat.zeros(M.alg.field, M.dim, M.dim)
    for c, m in zip(avec, M.mats):
        if c:
            out = out + m.scale(c)
    return out


@pytest.mark.parametrize("field", [F2, F3, QQ, FracField(QQ)], ids=repr)
def test_act_matches_accumulated_sum(field):
    """`AlgMod.act` accumulates c * A_b into one row list and gives the
    sum of scaled matrices it replaced, with fresh rows."""
    rng = random.Random(5407)
    mods = [jordan(truncated(field, 3), p) for p in ([3], [2, 1], [3, 1, 1])] + [AlgMod.regular(mat2(field))]
    if not isinstance(field, FracField):
        mods += [M for group in _hom_corpus(field) for M in group]
    for M in mods:
        for density in DENSITIES:
            avec = [rand_scalar(field, rng, density) for _ in range(M.alg.dim)]
            got = M.act(avec)
            assert (got.m, got.n) == (M.dim, M.dim)
            assert typed(got.rows) == typed(_ref_act(M, avec).rows)
            assert not {id(r) for r in got.rows} & {id(r) for m in M.mats for r in m.rows}


def test_grid_only_in_the_enumeration_oracles():
    """A decision procedure never samples the parameter grid: `.grid()` is
    called only by the enumeration oracles, the unravelling value and the
    CLI `generics` listing.  Nor does one in `algebras` enumerate F_p:
    there `.elements()` is called only by `enumerate_algmods`."""
    src = Path(algebras.__file__).resolve().parent
    allowed = {"enumerate_modules_dims", "enumerate_algmods", "_spectrum_value", "cmd_generics"}
    hits = [f"{p.name} in {fn}" for p in sorted(src.glob("*.py"))
            for fn in _callers(ast.parse(p.read_text()), "grid") if fn not in allowed]
    assert hits == []
    tree = ast.parse(Path(algebras.__file__).read_text())
    assert set(_callers(tree, "elements")) == {"enumerate_algmods"}


def _identifiers(tree):
    """Every function name, variable, attribute and imported name."""
    out = set()
    for node in ast.walk(tree):
        out.add(getattr(node, "id", None) if isinstance(node, ast.Name) else
                getattr(node, "attr", None) if isinstance(node, ast.Attribute) else
                getattr(node, "name", None) if isinstance(node, (ast.FunctionDef, ast.alias)) else None)
    return out - {None}


def test_one_quotient_by_unit_vectors():
    """`_pivot_quotient` is the only helper that completes a span by unit
    vectors (`.add(_unit(...))`), and the greedy `_quotient_coords` that
    the bridge had is gone: both tensor constructions and the regular
    module divide by `_pivot_quotient`."""
    src = Path(algebras.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    hits = [f"{name} in {fn}" for name, tree in trees.items() for fn in _callers(tree, "add", "_unit")]
    assert hits == ["algebras.py in _pivot_quotient"]
    assert [name for name, tree in trees.items() if "_quotient_coords" in _identifiers(tree)] == []


def test_one_builder_for_hom_equations():
    """Both Hom solvers build their equations through
    `linalg._matrix_equation_kernel` and no other code calls it; the
    hand-built rows (`add_equation`, the `cells` dicts) are gone, and
    `ditmod` cuts path keys at their dashed letters only through
    `PathAlgebra.split_at_dashed`: it reads no arrow degree itself."""
    src = Path(algebras.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    hits = [f"{name} in {fn}" for name, tree in trees.items() for fn in _callers(tree, "_matrix_equation_kernel")]
    assert hits == ["algebras.py in hom", "ditmod.py in hom_space"]
    assert [name for name, tree in trees.items() if {"add_equation", "cells"} & _identifiers(tree)] == []
    ditmod_tree = trees["ditmod.py"]
    assert "deg" not in _identifiers(ditmod_tree) and _callers(ditmod_tree, "index") == []
    assert _callers(ditmod_tree, "split_at_dashed") == ["f1_eval", "compose", "hom_space"]


def test_grid_guard_sees_calls():
    tree = ast.parse("def f(k):\n    return [c for c in k.grid()]\ng = F.grid()\nh = F.elements()\n")
    assert _callers(tree, "grid") == ["f", None]
    assert _callers(tree, "elements") == [None]
    tree = ast.parse("def f(s):\n    s.add(_unit(k, 2, 0))\n    s.add(v)\n    s.add(unit(k, 2, 0))\n")
    assert _callers(tree, "add", "_unit") == ["f"]
    assert _callers(tree, "add") == ["f", "f", "f"]
    assert _callers(ast.parse("def f(k):\n    return g(k), k.g(), h(k)\n"), "g") == ["f", "f"]
    assert {"f", "s", "_unit", "add"} <= _identifiers(ast.parse("from m import _unit\n" + "def f(s):\n    s.add(_unit)\n"))


# -- the associativity check of earlier versions, by `mul` on basis vectors

def _ref_check_associativity(A):
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                a = A.mul(A.table[i][j], A.basis_vec(k))
                b = A.mul(A.basis_vec(i), A.table[j][k])
                if a != b:
                    raise ValueError(f"not associative at ({i},{j},{k})")


def _outcome(check, A):
    try:
        check(A)
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
def test_associativity_check_matches_reference(field):
    """Same verdict and same first failing triple, on associative tables and
    on seeded one-entry perturbations of them."""
    rng = random.Random(23)
    for A in _fixture_algebras(field):
        assert _outcome(FDAlgebra.check_associativity, A) is None is _outcome(_ref_check_associativity, A)
        for _ in range(6):
            table = [[list(t) for t in row] for row in A.table]
            i, j, k = (rng.randrange(A.dim) for _ in range(3))
            table[i][j][k] = table[i][j][k] + field.of(rng.choice([1, 2, -1]))
            B = FDAlgebra(field, table, A.unit)
            assert _outcome(FDAlgebra.check_associativity, B) == _outcome(_ref_check_associativity, B)


class TestAlgebraFormat:
    def test_roundtrip(self):
        A = path_a2(QQ)
        text = algebra_to_text(A)
        B = algebra_from_text(text)
        assert algebra_to_text(B) == text

    def test_module_roundtrip(self):
        A = path_a2(QQ)
        reg = AlgMod.regular(A)
        text = algmod_to_text(reg)
        M = algmod_from_text(A, text)
        assert algmod_to_text(M) == text


# -- the dense kernels the sparse ones replaced, kept as references ----------

def _ref_alg_mul(A, u, v):
    z = A.field.zero
    out = [z] * A.dim
    for i, a in enumerate(u):
        if a == z:
            continue
        for j, b in enumerate(v):
            if b == z:
                continue
            t = A.table[i][j]
            c = a * b
            for k in range(A.dim):
                if t[k] != z:
                    out[k] = out[k] + c * t[k]
    return out


def _ref_trace_form(mats, zero):
    n = mats[0].n if mats else 0
    return [[sum((X.rows[r][c] * Y.rows[c][r] for r in range(n) for c in range(n)), zero) for X in mats]
            for Y in mats]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_mul_and_trace_form_match_dense_reference(field):
    """Random structure constants: `mul` needs no associativity."""
    rng = random.Random(59)
    top = 3 if field.kind == "ratfunc" else 5
    for density in DENSITIES:
        for dim in range(top + 1):
            table = [[[rand_scalar(field, rng, density) for _ in range(dim)] for _ in range(dim)]
                     for _ in range(dim)]
            A = FDAlgebra(field, table, [field.zero] * dim)
            for _ in range(4):
                u = [rand_scalar(field, rng, density) for _ in range(dim)]
                v = [rand_scalar(field, rng, density) for _ in range(dim)]
                assert typed([A.mul(u, v)]) == typed([_ref_alg_mul(A, u, v)])
            mats = [Mat(field, rand_rows(field, rng, dim, dim, density), ncols=dim) for _ in range(rng.randint(0, 4))]
            gram = _trace_form(mats, field.zero)
            assert typed(gram) == typed(_ref_trace_form(mats, field.zero))
            # a zero X gives the field's own zero (an int over Q), not a sum of zero products
            assert all(row[j] is field.zero for row in gram for j, X in enumerate(mats) if X.is_zero())


class TestBuiltOnce:
    def test_projective_module_is_kept_per_idempotent(self):
        A = right_algebra(a_n_layer(QQ, [(0, 1), (1, 2)])).alg
        for e in A.primitive_idempotents():
            P, basis = projective_module(A, e)
            assert projective_module(A, list(e)) == (P, basis)
            fresh = AlgMod.regular(A).submodule(basis)
            assert [m.rows for m in P.mats] == [m.rows for m in fresh.mats]

    def test_radical_actions_are_kept_on_the_module(self):
        A = right_algebra(a_n_layer(F3, [(0, 1), (1, 2)])).alg
        M = AlgMod.regular(A)
        units = [_unit(F3, M.dim, j) for j in range(M.dim)]
        first = _rad_of(M, units)
        acts = M._rad_acts
        assert _rad_of(M, units) == first and M._rad_acts is acts
        assert [a.rows for a in acts] == [M.act(r).rows for r in A.radical()]
