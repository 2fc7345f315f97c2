import itertools
import random
from fractions import Fraction

import pytest

from conftest import F2, F3, make_a2, make_kron, make_reg, make_ss, typed
from ditred import ditmod
from ditred.bigraph import Arrow, Ditalgebra, PathAlgebra
from ditred.ditmod import (
    DitModule,
    DitMorphism,
    InvalidModule,
    ZeroModule,
    are_isomorphic,
    end_algebra,
    endolength,
    enumerate_indecomposables,
    enumerate_modules,
    hom_space,
    is_indecomposable,
    module_from_text,
    module_to_text,
    morphism_from_text,
    morphism_to_text,
)
from ditred.errors import ParseError
from ditred.linalg import Mat
from ditred.scalars import QQ, FracField, Poly


def mk(field, *rows):
    return Mat(field, [[field.of(c) for c in r] for r in rows])


def a2_P(field=QQ):
    return DitModule(make_a2(field), (1, 1), {"a": mk(field, [1])})


class TestHomSpace:
    def test_ss_simples(self, ss):
        S1, S2 = DitModule.simple(ss, 0), DitModule.simple(ss, 1)
        assert len(hom_space(ss, S1, S2)) == 0
        assert len(hom_space(ss, S1, S1)) == 1

    def test_reg_matches_semisimple(self, reg, ss):
        # hom dimensions agree with the ones after killing the arrow pair
        for di, dj in itertools.product(range(2), repeat=2):
            M = DitModule.simple(reg, di)
            N = DitModule.simple(reg, dj)
            Ms = DitModule.simple(ss, di)
            Ns = DitModule.simple(ss, dj)
            assert len(hom_space(reg, M, N)) == len(hom_space(ss, Ms, Ns))

    def test_a2_projective_homs(self, a2):
        P = a2_P()
        S1 = DitModule.simple(a2, 0)
        S2 = DitModule.simple(a2, 1)
        # with arrows acting source-to-target, the two-dimensional
        # indecomposable has its simple socle at the target point
        assert len(hom_space(a2, S2, P)) == 1
        assert len(hom_space(a2, P, S1)) == 1
        assert len(hom_space(a2, P, S2)) == 0

    def test_base_change_invariance(self, kron):
        rng = random.Random(31)
        M = DitModule(kron, (2, 2), {"a": mk(QQ, [1, 0], [0, 1]), "b": mk(QQ, [0, 1], [0, 0])})
        N = DitModule(kron, (1, 2), {"a": mk(QQ, [1], [0]), "b": mk(QQ, [0], [1])})
        base = len(hom_space(kron, M, N))
        for _ in range(5):
            P0 = mk(QQ, [1, rng.randint(-2, 2)], [0, 1])
            P1 = mk(QQ, [1, 0], [rng.randint(-2, 2), 1])
            M2 = M.base_change({0: P0, 1: P1})
            assert len(hom_space(kron, M2, N)) == base


class TestCompose:
    def test_identity_neutral(self, reg):
        M = DitModule(reg, (1, 1), {"a": mk(QQ, [1])})
        f = hom_space(reg, M, M)[0]
        idm = DitMorphism.identity(M)
        g1 = idm.compose(f)
        g2 = f.compose(idm)
        assert g1.f0 == f.f0 and g1.f1 == f.f1
        assert g2.f0 == f.f0 and g2.f1 == f.f1

    def test_composite_satisfies_compatibility(self, reg):
        M = DitModule(reg, (1, 1), {"a": mk(QQ, [2])})
        N = DitModule(reg, (2, 1), {"a": mk(QQ, [1, 0])})
        fs = hom_space(reg, M, N)
        gs = hom_space(reg, N, M)
        assert fs and gs
        for f in fs:
            assert f.check()
            for g in gs:
                assert g.compose(f).check()

    def test_associativity_random(self, kron):
        rng = random.Random(5)
        M = DitModule(kron, (1, 1), {"a": mk(QQ, [1]), "b": mk(QQ, [0])})
        E = hom_space(kron, M, M)
        for _ in range(10):
            f, g, h = (rng.choice(E) for _ in range(3))
            lhs = h.compose(g).compose(f)
            rhs = h.compose(g.compose(f))
            assert lhs.f0 == rhs.f0 and lhs.f1 == rhs.f1

    def test_f1_eval_needs_degree_one(self, reg):
        M = DitModule(reg, (1, 1), {"a": mk(QQ, [1])})
        f = DitMorphism.identity(M)
        assert f.f1_eval(reg.alg.gen("v")) == {(0, 1): f.f1["v"]}
        for el in (reg.alg.gen("a"), reg.alg.e(0)):
            with pytest.raises(ValueError, match="f1 extension needs a degree-1 element"):
                f.f1_eval(el)

    def test_compose_needs_degree_two_derivations(self, reg, monkeypatch):
        M = DitModule(reg, (1, 1), {"a": mk(QQ, [1])})
        f = DitMorphism.identity(M)
        monkeypatch.setitem(reg.delta, "v", reg.alg.gen("v"))
        with pytest.raises(ValueError, match="delta of a dashed arrow must have degree 2"):
            f.compose(f)


class TestEndolength:
    def test_ss_simple(self, ss):
        assert endolength(ss, DitModule.simple(ss, 0)) == 1

    def test_kron_one_one(self, kron):
        M = DitModule(kron, (1, 1), {"a": mk(QQ, [1]), "b": mk(QQ, [0])})
        # scalar endomorphisms force endolength = dimension
        alg, _ = end_algebra(kron, M)
        assert alg.dim == 1
        assert endolength(kron, M) == 2

    def test_scalar_end_gives_dim(self, a2):
        P = a2_P()
        alg, _ = end_algebra(a2, P)
        assert alg.dim == 1
        assert endolength(a2, P) == P.total_dim == 2

    def test_direct_power_invariance(self, kron):
        M = DitModule(kron, (1, 1), {"a": mk(QQ, [1]), "b": mk(QQ, [0])})
        e1 = endolength(kron, M)
        M2 = M.direct_sum(M)
        M3 = M2.direct_sum(M)
        assert endolength(kron, M2) == e1
        assert endolength(kron, M3) == e1

    def test_f2_matches_q(self):
        for field in (F2, F3):
            kron = make_kron(field)
            M = DitModule(kron, (1, 1), {"a": mk(field, [1]), "b": mk(field, [0])})
            assert endolength(kron, M) == 2

    def test_end_built_once_per_module(self, kron, monkeypatch):
        homs = _record(monkeypatch, "hom_space")
        M = DitModule(kron, (1, 1), {"a": mk(QQ, [1]), "b": mk(QQ, [0])})
        assert is_indecomposable(kron, M) and endolength(kron, M) == 2
        assert end_algebra(kron, M) is end_algebra(kron, M)
        assert len(homs) == 1
        # a module equal by content builds its own; equality ignores the memo
        N = DitModule(kron, M.dims, M.arr, M.xact)
        assert N == M and endolength(kron, N) == 2 and len(homs) == 2
        # over another layer object End is built on every call
        other = make_kron(QQ)
        assert end_algebra(other, M)[0].dim == end_algebra(other, M)[0].dim == 1
        assert len(homs) == 4


class TestIndecomposable:
    def test_simple_and_sum(self, ss):
        S1 = DitModule.simple(ss, 0)
        assert is_indecomposable(ss, S1)
        assert not is_indecomposable(ss, S1.direct_sum(S1))

    def test_a2_projective(self, a2):
        assert is_indecomposable(a2, a2_P())

    def test_kron_block_diagonal(self, kron):
        M = DitModule(kron, (2, 2), {"a": mk(QQ, [1, 0], [0, 0]), "b": mk(QQ, [0, 0], [0, 1])})
        assert not is_indecomposable(kron, M)

    def test_zero_module(self, ss):
        with pytest.raises(ZeroModule):
            is_indecomposable(ss, DitModule.zero(ss))


class TestIsomorphism:
    def test_identity(self, a2):
        P = a2_P()
        f = are_isomorphic(a2, P, P)
        assert f is not None and f.is_invertible()

    def test_pencil_eigenvalue(self, kron):
        M = DitModule(kron, (1, 1), {"a": mk(QQ, [1]), "b": mk(QQ, [2])})
        N = DitModule(kron, (1, 1), {"a": mk(QQ, [1]), "b": mk(QQ, [3])})
        assert are_isomorphic(kron, M, N) is None

    def test_permuted_basis(self, kron):
        M = DitModule(kron, (2, 2), {"a": mk(QQ, [1, 0], [0, 1]), "b": mk(QQ, [0, 1], [0, 0])})
        P = mk(QQ, [0, 1], [1, 0])
        N = M.base_change({0: P, 1: P})
        f = are_isomorphic(kron, M, N)
        assert f is not None and f.is_invertible()


class TestEnumeration:
    def test_ss(self):
        out = enumerate_indecomposables(make_ss(F2), 2)
        assert sorted(m.dims for m in out) == [(0, 1), (1, 0)]

    def test_a2_classical(self):
        out = enumerate_indecomposables(make_a2(F2), 2)
        assert sorted(m.dims for m in out) == [(0, 1), (1, 0), (1, 1)]

    def test_kron_f2_dmax2(self):
        out = enumerate_indecomposables(make_kron(F2), 2)
        ones = [(repr(m.arr["a"]), repr(m.arr["b"])) for m in out if m.dims == (1, 1)]
        assert sorted(m.dims for m in out) == [(0, 1), (1, 0), (1, 1), (1, 1), (1, 1)]
        assert sorted(ones) == [("[0]", "[1]"), ("[1]", "[0]"), ("[1]", "[1]")]

    def test_indec_against_sum_oracle(self):
        # cross-check: an enumerated module is indecomposable iff it is
        # not isomorphic to any direct sum formed from the enumeration
        a2 = make_a2(F2)
        indecs = enumerate_indecomposables(a2, 2)
        every = enumerate_modules(a2, 2)
        for M in every:
            if M.total_dim < 2:
                continue
            sums = []
            for A, B in itertools.product(indecs, repeat=2):
                if tuple(x + y for x, y in zip(A.dims, B.dims)) == M.dims:
                    sums.append(A.direct_sum(B))
            splits = any(are_isomorphic(a2, M, S) is not None for S in sums)
            assert splits != is_indecomposable(a2, M)


def _per_module_indecomposables(dit, dmax):
    """Reference oracle: End and the isomorphism search on every module."""
    reps = []
    for M in enumerate_modules(dit, dmax):
        if not is_indecomposable(dit, M):
            continue
        if any(N.dims == M.dims and are_isomorphic(dit, M, N) is not None for N in reps):
            continue
        reps.append(M)
    return reps


def _quiver(field, n, edges):
    return Ditalgebra(field, [None] * n, [Arrow(f"a{k}", s, t, 0) for k, (s, t) in enumerate(edges)], [], {})


def _kron_b_regular(field):
    """Kronecker layer with delta(b) = v: b can be moved by a morphism, so
    the orbits of (a, b) = (1, 0) and (1, 1) are one isomorphism class."""
    a, b, v = Arrow("a", 0, 1, 0), Arrow("b", 0, 1, 0), Arrow("v", 0, 1, 1)
    alg = PathAlgebra(field, [None, None], [a, b, v])
    return Ditalgebra(field, [None, None], [a, b], [v], {"b": alg.gen("v")})


def _gl_order(q, dims):
    out = 1
    for d in dims:
        for k in range(d):
            out *= q ** d - q ** k
    return out


def _invertible_mod_p(rows, p):
    n = len(rows)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = rows[r][c] * inv % p
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return True


def _automorphism_count(dit, M):
    """Invertible elements of End(M) over F_p, counted over every
    combination of a basis of End(M)."""
    p, n = dit.field.p, M.total_dim
    basis = [[x.v for row in f.f0_blockdiag().rows for x in row] for f in hom_space(dit, M, M)]
    count = 0
    for cs in itertools.product(range(p), repeat=len(basis)):
        flat = [sum(c * b[k] for c, b in zip(cs, basis)) % p for k in range(n * n)]
        count += _invertible_mod_p([flat[r * n:(r + 1) * n] for r in range(n)], p)
    return count


def _record(monkeypatch, name):
    """Wrap ditmod.<name>; the returned list collects (args, result) per call."""
    real, calls = getattr(ditmod, name), []

    def wrapper(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(ditmod, name, wrapper)
    return calls


class TestOrbitSweep:
    @pytest.mark.parametrize("dit, dmax", [
        (make_kron(F2), 4),
        (make_kron(F3), 3),
        (_quiver(F3, 4, [(1, 0), (2, 0), (3, 0)]), 3),
        (_quiver(QQ, 3, [(0, 1), (1, 2)]), 3),
        (make_reg(F2), 3),
        (make_reg(F3), 3),
        (_kron_b_regular(F3), 3),
    ], ids=["kron-f2", "kron-f3", "d4-f3", "a3-q", "reg-f2", "reg-f3", "kron-b-regular-f3"])
    def test_same_representatives_as_per_module_oracle(self, dit, dmax):
        assert enumerate_indecomposables(dit, dmax) == _per_module_indecomposables(dit, dmax)

    def test_fallback_rejects_unsplit_decomposable_orbit(self, monkeypatch):
        # δ(a) = v: the orbit of a = 1 on (1, 1) does not split, yet the
        # module is isomorphic to a = 0, which does
        calls = _record(monkeypatch, "is_indecomposable")
        reps = enumerate_indecomposables(make_reg(F3), 3)
        assert [(M.dims, found) for (_, M), found in calls] == [((0, 1), True), ((1, 0), True), ((1, 1), False)]
        assert [M.dims for M in reps] == [(0, 1), (1, 0)]

    def test_fallback_joins_orbits_of_one_class(self, monkeypatch):
        calls = _record(monkeypatch, "are_isomorphic")
        reps = enumerate_indecomposables(_kron_b_regular(F3), 3)
        assert any(f is not None for _, f in calls)
        assert [M.dims for M in reps] == [(0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("field", [F2, F3])
    def test_orbits_are_complete(self, field):
        # orbit-stabilizer: |orbit| * |Aut M| = |GL(d)| fails for an orbit
        # the generating moves do not fully reach
        dit = make_kron(field)
        q = field.p
        orbits = list(ditmod._orbit_sweep(dit, 3))
        for M, orbit in orbits:
            assert len(orbit) * _automorphism_count(dit, M) == _gl_order(q, M.dims), M
        assert sum(M.dims == (1, 1) for M, _ in orbits) == q + 2

    def test_one_indecomposability_test_per_unsplit_orbit(self, monkeypatch):
        dit = make_kron(F2)
        calls = _record(monkeypatch, "is_indecomposable")
        reps = enumerate_indecomposables(dit, 4)
        orbits, slots = list(ditmod._orbit_sweep(dit, 4)), ditmod._matrix_slots(dit)
        unsplit = [M for M, orbit in orbits if not any(ditmod._splits(k, slots) for k in orbit)]
        assert [M for (_, M), _ in calls] == unsplit
        assert len(reps) == len(unsplit) == 11
        assert len(orbits) == 48 and len(enumerate_modules(dit, 4)) == 428

    def test_split_detector(self):
        kron = make_kron(F2)
        slots = ditmod._matrix_slots(kron)
        one, zero = mk(F2, [1]), mk(F2, [0])
        S = DitModule(kron, (1, 1), {"a": one, "b": zero}).direct_sum(DitModule(kron, (1, 1), {"a": zero, "b": one}))
        swap = mk(F2, [0, 1], [1, 0])
        permuted = S.base_change({0: Mat.eye(F2, 2), 1: swap})
        assert permuted.arr["a"] == mk(F2, [0, 0], [1, 0])
        assert ditmod._splits(ditmod._module_key(permuted), slots)
        both = DitModule(kron, (1, 1), {"a": one, "b": one})
        assert not ditmod._splits(ditmod._module_key(both), slots)

    def test_split_modules_are_decomposable(self):
        kron = make_kron(F2)
        slots = ditmod._matrix_slots(kron)
        split = [M for M in enumerate_modules(kron, 3) if ditmod._splits(ditmod._module_key(M), slots)]
        assert split
        for M in split:
            assert not is_indecomposable(kron, M)


class TestRationalPoints:
    def test_localizer_must_act_invertibly(self):
        x = Poly.x(QQ)
        dit = Ditalgebra(QQ, [None, x], [], [], {})
        with pytest.raises(InvalidModule):
            DitModule(dit, (0, 1), {}, {1: mk(QQ, [0])})  # x acts as 0 but g = x
        M = DitModule(dit, (0, 1), {}, {1: mk(QQ, [2])})
        assert endolength(dit, M) == 1

    def test_kx_valued_module(self, kron):
        rf = FracField(QQ)
        G = DitModule(kron, (1, 1), {"a": Mat(rf, [[rf.one]]), "b": Mat(rf, [[rf.x]])}, coef=rf)
        alg, _ = end_algebra(kron, G)
        assert alg.dim == 1


class TestConstruction:
    def test_layer_precomputes_what_modules_read(self):
        x = Poly.x(QQ)
        dit = Ditalgebra(QQ, [x, None, Poly.one(QQ)], [Arrow("a", 0, 1, 0), Arrow("b", 1, 2, 0)],
                         [Arrow("v", 0, 1, 1)], {})
        assert dit.rational_points == (0, 2)
        assert dit.full_names_set == {"a", "b"}

    def test_zero_fill_only_for_missing_data(self):
        x = Poly.x(QQ)
        dit = Ditalgebra(QQ, [None, None, x], [Arrow("a", 0, 1, 0), Arrow("b", 1, 2, 0)], [], {})
        a = mk(QQ, [1], [2])
        M = DitModule(dit, (1, 2, 0), {"a": a})
        assert M.arr["a"] is a and M.arr["b"] == Mat.zeros(QQ, 0, 2)
        assert list(M.arr) == ["a", "b"] and M.xact == {2: Mat.zeros(QQ, 0, 0)}
        b = mk(QQ, [3], [4])
        full = DitModule(dit, (1, 1, 2), {"a": mk(QQ, [1]), "b": b}, {2: mk(QQ, [1, 0], [0, 1])})
        assert full.arr["b"] is b and len(full.arr) == 2
        with pytest.raises(InvalidModule):
            DitModule(dit, (0, 0, 1), {}, {}, check=False)  # no x-action where it is needed


class TestModuleFormat:
    def test_roundtrip(self, kron):
        M = DitModule(kron, (2, 1), {"a": mk(QQ, [1, 0]), "b": mk(QQ, [0, Fraction(1, 2)])})
        text = module_to_text(M)
        M2 = module_from_text(kron, text)
        assert M2.dims == M.dims and M2.arr == M.arr
        assert module_to_text(M2) == text

    def test_roundtrip_rational(self):
        x = Poly.x(QQ)
        dit = Ditalgebra(QQ, [None, x - Poly.one(QQ)], [Arrow("a", 0, 1, 0)], [], {})
        M = DitModule(dit, (1, 2), {"a": mk(QQ, [1], [0])}, {1: mk(QQ, [0, 1], [-1, 0])})
        text = module_to_text(M)
        M2 = module_from_text(dit, text)
        assert M2.xact == M.xact and M2.arr == M.arr


class TestModuleFormatErrors:
    """A malformed line of a module or morphism file raises a ParseError
    naming that line; each of these was accepted or crashed before."""

    @pytest.mark.parametrize("body,line", [
        ("dims 1 1\narrow zz = [1]", 3),
        ("dims 1 1\nx 5 = [1]", 3),
        ("dims 1 1\nx 2 = [1]", 3),
        ("dims 1", 2),
        ("dims 1 x", 2),
        ("dims 1 1\narrow a = [1 0]", 3),
        ("arrow a = [1]\ndims 1 1", 2),
    ], ids=["unknown-arrow", "point-out-of-range", "trivial-point", "dims-count",
            "dims-not-integer", "arrow-shape", "dims-after-matrix"])
    def test_module_line(self, a2, body, line):
        with pytest.raises(ParseError) as err:
            module_from_text(a2, "module\n" + body + "\n")
        assert err.value.line == line

    def test_module_check_is_a_parse_error(self):
        dit = make_a2(QQ, ideal_a=True)
        with pytest.raises(ParseError) as err:
            module_from_text(dit, "module\ndims 1 1\narrow a = [1]\n")
        assert err.value.line is None

    @pytest.mark.parametrize("body", ["f0 9 = [1]", "f1 zz = [1]", "f0 1 = [1 0]", "f0 x = [1]"],
                             ids=["point-out-of-range", "unknown-dashed-arrow", "shape", "index-not-integer"])
    def test_morphism_line(self, a2, body):
        M = DitModule(a2, (1, 1), {"a": mk(QQ, [1])})
        with pytest.raises(ParseError) as err:
            morphism_from_text(M, M, "morphism\n" + body + "\n")
        assert err.value.line == 2


class TestMorphismFormat:
    def test_roundtrip(self, reg):
        M = DitModule(reg, (1, 1), {"a": mk(QQ, [2])})
        N = DitModule(reg, (2, 1), {"a": mk(QQ, [1, 0])})
        for f in hom_space(reg, M, N):
            text = morphism_to_text(f)
            g = morphism_from_text(M, N, text)
            assert g.f0 == f.f0 and g.f1 == f.f1
            assert morphism_to_text(g) == text

    def test_kx_module_roundtrip(self, kron):
        from ditred.scalars import FracField, Poly, RatFunc

        rf = FracField(QQ)
        x = Poly.x(QQ)
        G = DitModule(
            kron, (1, 1),
            {"a": Mat(rf, [[rf.one]]), "b": Mat(rf, [[RatFunc(x + Poly.one(QQ), x - Poly.one(QQ))]])},
            coef=rf,
        )
        text = module_to_text(G)
        G2 = module_from_text(kron, text, coef=rf)
        assert G2.arr == G.arr


# ---------------------------------------------------------------------------
# the Hom solver of earlier versions, one hand-built row per equation entry;
# kept as the reference for `hom_space` on the shared equation builder
# ---------------------------------------------------------------------------

def _ref_hom_space(dit, M, N):
    coef = M.coef
    z = coef.zero
    slots = []  # (kind, id, shape, offset)
    offset = 0
    for i in dit.points():
        sh = (N.dims[i], M.dims[i])
        slots.append(("f0", i, sh, offset))
        offset += sh[0] * sh[1]
    for v in dit.dashed:
        sh = (N.dims[v.t], M.dims[v.s])
        slots.append(("f1", v.name, sh, offset))
        offset += sh[0] * sh[1]
    total = offset
    if total == 0:
        return []
    rows = []
    slot_at = {(kind, ident): (sh, off) for kind, ident, sh, off in slots}

    def add_equation(coeff_cells):
        row = [z] * total
        for (kind, ident, r, c), val in coeff_cells.items():
            sh, off = slot_at[(kind, ident)]
            row[off + r * sh[1] + c] = row[off + r * sh[1] + c] + val
        rows.append(row)

    # x-action commuting at rational points: f0_i X_M - X_N f0_i = 0
    for i in dit.points():
        if not dit.is_rational(i) or M.dims[i] == 0 or N.dims[i] == 0:
            continue
        XM, XN = M.xact[i], N.xact[i]
        for r in range(N.dims[i]):
            for c in range(M.dims[i]):
                cells = {}
                for k in range(M.dims[i]):
                    cells[("f0", i, r, k)] = cells.get(("f0", i, r, k), z) + XM.rows[k][c]
                for k in range(N.dims[i]):
                    cells[("f0", i, k, c)] = cells.get(("f0", i, k, c), z) - XN.rows[r][k]
                add_equation(cells)
    # full-arrow compatibility: N_a f0_s - f0_t M_a - f1(delta a) = 0
    for a in dit.full:
        d = dit.delta_of(a.name)
        for r in range(N.dims[a.t]):
            for c in range(M.dims[a.s]):
                cells = {}
                Na = N.arr[a.name]
                Ma = M.arr[a.name]
                for k in range(N.dims[a.s]):
                    cells[("f0", a.s, k, c)] = cells.get(("f0", a.s, k, c), z) + Na.rows[r][k]
                for k in range(M.dims[a.t]):
                    cells[("f0", a.t, r, k)] = cells.get(("f0", a.t, r, k), z) - Ma.rows[k][c]
                for key, cc in d.terms.items():
                    start, arrows, exps = key
                    degs = [dit.arrow(x).deg for x in arrows]
                    k1 = degs.index(1)
                    v = arrows[k1]
                    right_key = (start, arrows[:k1], exps[: k1 + 1])
                    left_key = (dit.arrow(v).t, arrows[k1 + 1:], exps[k1 + 1:])
                    R = M.eval_path(right_key)
                    L = N.eval_path(left_key)
                    sc = M.emb(cc)
                    va = dit.arrow(v)
                    for rr in range(N.dims[va.t]):
                        for ccol in range(M.dims[va.s]):
                            coefv = L.rows[r][rr] * R.rows[ccol][c] * sc
                            if coefv != z:
                                cells[("f1", v, rr, ccol)] = cells.get(("f1", v, rr, ccol), z) - coefv
                add_equation(cells)
    if not rows:
        kernel = Mat.zeros(coef, 1, total).kernel()
    else:
        kernel = Mat(coef, rows).kernel()
    out = []
    for vec in kernel:
        f0 = {}
        f1 = {}
        for kind, ident, sh, off in slots:
            m = Mat(coef, [[vec[off + r * sh[1] + c] for c in range(sh[1])] for r in range(sh[0])], ncols=sh[1])
            if kind == "f0":
                f0[ident] = m
            else:
                f1[ident] = m
        out.append(DitMorphism(M, N, f0, f1))
    return out


def _blocks(f):
    """Every block of a morphism with its shape and typed entries, in order."""
    return [(k, m.m, m.n, typed(m.rows)) for k, m in [*f.f0.items(), *f.f1.items()]]


def _assert_homs_match_reference(dit, pairs):
    """hom_space equals the reference entry for entry and in order on
    every pair, and each basis morphism passes `DitMorphism.check`; returns
    whether some basis morphism has a nonzero f1 block."""
    f1_seen = False
    for M, N in pairs:
        got = hom_space(dit, M, N)
        assert [_blocks(f) for f in got] == [_blocks(f) for f in _ref_hom_space(dit, M, N)]
        for f in got:
            assert f.check()
            f1_seen = f1_seen or any(not m.is_zero() for m in f.f1.values())
    return f1_seen


def _pairs(mods, rng, cap):
    """All ordered pairs of mods, or a sample of cap of them."""
    pairs = list(itertools.product(mods, repeat=2))
    return pairs if len(pairs) <= cap else rng.sample(pairs, cap)


def make_loop(field=QQ):
    """A full loop a at point 0 whose derivation is a dashed loop v, and a
    full arrow b: 0 -> 1; f0_0 enters the equation of a twice."""
    a, b, v = Arrow("a", 0, 0, 0), Arrow("b", 0, 1, 0), Arrow("v", 0, 0, 1)
    alg = PathAlgebra(field, [None, None], [a, b, v])
    return Ditalgebra(field, [None, None], [a, b], [v], {"a": alg.gen("v")})


def _hom_layers():
    from test_reduction import make_a3_rel, make_pencil, make_rational_edge, make_square

    return {"reg": (make_reg, 3), "kron": (make_kron, 2), "a2": (make_a2, 2), "a3_rel": (make_a3_rel, 2),
            "square": (make_square, 1), "rational_edge": (make_rational_edge, 2),
            "pencil": (make_pencil, 2), "loop": (make_loop, 2)}


class TestHomSpaceReference:
    """`hom_space` on `linalg._matrix_equation_kernel` gives the bases of
    the hand-built solver it replaced, in the same order."""

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    @pytest.mark.parametrize("name", sorted(_hom_layers()))
    def test_layers_match_reference(self, name, field):
        build, dmax = _hom_layers()[name]
        dit = build(field)
        mods = [M for M in enumerate_modules(dit, dmax) if M.total_dim]
        f1_seen = _assert_homs_match_reference(dit, _pairs(mods, random.Random(name), 500))
        assert f1_seen == (name in ("reg", "loop"))

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_kronecker_trace_layers_match_reference(self, field):
        """Every layer of the Kronecker driver trace, on its modules of
        dimension one and on terminal modules sent back through the trace."""
        from ditred.reduction import reduce_to_minimal

        trace = reduce_to_minimal(make_kron(field), 2, dim_cap=4)
        rng = random.Random(5)
        sent = rng.sample([M for M in enumerate_modules(trace.terminal, 2) if M.total_dim], 6)
        layers = [(trace.terminal, sent)]
        for step in reversed(trace.steps):
            sent = [step.apply_module(M) for M in sent]
            layers.append((step.src, sent))
        f1_seen = False
        for dit, sent in layers:
            mods = [M for M in enumerate_modules(dit, 1) if M.total_dim] + sent
            f1_seen |= _assert_homs_match_reference(dit, _pairs(mods, rng, 150))
        assert len(layers) > 10 and any(dit.rational_points for dit, _ in layers) and f1_seen

    def test_kx_columns_match_reference(self, kron):
        """k(x)-valued modules over the Kronecker layer over Q: the census
        column at the rational terminal point, as `endolength_kx` reads it,
        its square, a base change of it by x and x + 1, and the other
        columns of the transfer bimodule with k(x) coefficients."""
        from ditred.generic import transfer_bimodule
        from ditred.reduction import reduce_to_minimal

        trace = reduce_to_minimal(kron, 2, dim_cap=4)
        T = transfer_bimodule(trace)
        cols = [T.column(i) for i in trace.terminal.points()]
        G = next(c for c in cols if isinstance(c.coef, FracField))
        rf = G.coef
        x = rf.x
        mods = [G, G.direct_sum(G), G.base_change({0: Mat(rf, [[x]]), 1: Mat(rf, [[x + rf.one]])})]
        mods += [DitModule(kron, c.dims, {a: m.cast(rf, rf.of) for a, m in c.arr.items()}, coef=rf)
                 for c in cols if c is not G]
        assert G.dims == (1, 1) and len(mods) == 9
        _assert_homs_match_reference(kron, itertools.product(mods, repeat=2))
        assert len(hom_space(kron, G, G)) == 1
