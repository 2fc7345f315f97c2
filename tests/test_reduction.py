import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import (
    F2,
    F3,
    make_a2,
    make_kron,
    make_reg,
    make_ss,
    random_keys,
    ref_delta,
    ref_path_mul,
    typed_terms,
)
from ditred.bigraph import (
    Arrow,
    Ditalgebra,
    PathAlgebra,
    PathElement,
    UnsupportedDecoration,
    ditalgebra_from_text,
    ditalgebra_to_text,
)
from ditred.ditmod import (
    DitModule,
    DitMorphism,
    InvalidModule,
    are_isomorphic,
    endolength,
    enumerate_indecomposables,
    enumerate_modules,
    enumerate_modules_dims,
    hom_space,
)
from ditred.linalg import Mat
from ditred.reduction import (
    AdmissibleData,
    BudgetExceeded,
    DecompositionInvalid,
    HomNotZero,
    HypothesisFailed,
    NotASource,
    ReductionStep,
    ReductionTrace,
    SPoint,
    WildnessEncountered,
    _eval_entry,
    _image_dims,
    _kills_simple,
    _offsets,
    _place,
    _pull_back,
    _source_dims,
    _spectrum_value,
    b_subalgebra,
    build_admissible,
    build_admissible_case1,
    build_admissible_case2,
    build_admissible_case3,
    detach_restrict_module,
    detach_restrict_morphism,
    fitting_split,
    reduce_to_minimal,
    step_absorb,
    step_absorb_loop,
    step_delete,
    step_detach,
    step_factor_out,
    step_reduce_X,
    terminal_module_candidates,
    step_regularize,
    step_unravel,
    substitute,
    trace_to_json,
    verify_coverage,
)
from ditred.scalars import QQ, FracField, Poly, PrimeField, RatFunc


def mk(field, *rows):
    return Mat(field, [[field.of(c) for c in r] for r in rows])


def edge_X(dit, arrow):
    from ditred.reduction import _edge_admissible

    return step_reduce_X(dit, (arrow,), _edge_admissible(dit, arrow))


# ---------------------------------------------------------------------------
# deletion
# ---------------------------------------------------------------------------

class TestDelete:
    def test_ss_delete_second(self, ss):
        step = step_delete(ss, [0])
        assert step.tgt.n == 1
        S1 = DitModule.simple(step.tgt, 0)
        img = step.apply_module(S1)
        assert img.dims == (1, 0)

    def test_a2_delete_source(self, a2):
        step = step_delete(a2, [1])
        assert step.tgt.n == 1 and not step.tgt.full
        # image class = modules annihilated at the deleted point
        for M in enumerate_modules(step.tgt, 2):
            img = step.apply_module(M)
            assert img.dims[0] == 0

    def test_identity_deletion(self, a2):
        step = step_delete(a2, [0, 1])
        assert ditalgebra_to_text(step.tgt) == ditalgebra_to_text(a2)

    def test_endolength_preserved(self):
        for field in (F2, F3):
            a2 = make_a2(field)
            step = step_delete(a2, [1])
            for M in enumerate_modules(step.tgt, 4):
                if M.total_dim == 0:
                    continue
                assert endolength(step.tgt, M) == endolength(a2, step.apply_module(M))


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------

class TestRegularize:
    def test_reg_to_ss(self, reg):
        step = step_regularize(reg, "a", "v")
        assert not step.tgt.full and not step.tgt.dashed

    def test_invalid_when_delta_zero(self, a2):
        with pytest.raises(DecompositionInvalid):
            step_regularize(a2, "a")

    def test_equivalence_hom_dims(self):
        reg = make_reg(F2)
        step = step_regularize(reg, "a", "v")
        mods = enumerate_modules(step.tgt, 3)
        for M, N in itertools.product(mods, repeat=2):
            if M.total_dim == 0 or N.total_dim == 0:
                continue
            lhs = len(hom_space(step.tgt, M, N))
            rhs = len(hom_space(reg, step.apply_module(M), step.apply_module(N)))
            assert lhs == rhs

    def test_adapted_generator(self):
        # delta(a) = v + w.b needs the adapted degree-1 generator v~
        field = QQ
        a = Arrow("a", 0, 1, 0)
        b = Arrow("b", 0, 2, 0)
        v = Arrow("v", 0, 1, 1)
        w = Arrow("w", 2, 1, 1)
        alg = PathAlgebra(field, [None, None, None], [a, b, v, w])
        dval = alg.gen("v") + alg.gen("w") * alg.gen("b")
        dit = Ditalgebra(field, [None, None, None], [a, b], [v, w], {"a": dval})
        step = step_regularize(dit, "a", "v")
        assert [x.name for x in step.tgt.full] == ["b"]
        assert [x.name for x in step.tgt.dashed] == ["w"]
        # morphism transport keeps compatibility
        M = DitModule(step.tgt, (1, 1, 1), {"b": mk(field, [1])})
        N = DitModule(step.tgt, (1, 1, 1), {"b": mk(field, [0])})
        for f in hom_space(step.tgt, M, N):
            Ff = step.apply_morphism(f)
            assert Ff.check()

    def test_endolength_preserved(self):
        reg = make_reg(F2)
        step = step_regularize(reg, "a", "v")
        for M in enumerate_modules(step.tgt, 4):
            if M.total_dim == 0:
                continue
            assert endolength(step.tgt, M) == endolength(reg, step.apply_module(M))


# ---------------------------------------------------------------------------
# factoring out
# ---------------------------------------------------------------------------

class TestFactorOut:
    def test_a2_with_ideal(self):
        dit = make_a2(ideal_a=True)
        step = step_factor_out(dit, ["a"])
        assert not step.tgt.full
        assert all(g.is_zero() for g in step.tgt.ideal)

    def test_identity_when_empty(self, a2):
        step = step_factor_out(a2, [])
        assert ditalgebra_to_text(step.tgt) == ditalgebra_to_text(a2)

    def test_not_in_ideal(self, a2):
        with pytest.raises(HypothesisFailed):
            step_factor_out(a2, ["a"])

    def test_endolength_preserved(self):
        dit = make_a2(F2, ideal_a=True)
        step = step_factor_out(dit, ["a"])
        for M in enumerate_modules(step.tgt, 4):
            if M.total_dim == 0:
                continue
            assert endolength(step.tgt, M) == endolength(dit, step.apply_module(M))


# ---------------------------------------------------------------------------
# absorption
# ---------------------------------------------------------------------------

class TestAbsorb:
    def test_a2_relayer(self, a2):
        step = step_absorb(a2, ["a"])
        assert step.tgt.absorbed == {"a"}
        # the degree-0 subalgebra generated by the base and the absorbed
        # arrow has the three-dimensional path structure
        assert len(step.tgt.degree0_path_basis()) == 3

    def test_absorb_nothing(self, a2):
        step = step_absorb(a2, [])
        assert ditalgebra_to_text(step.tgt) == ditalgebra_to_text(a2)

    def test_reg_fails(self, reg):
        with pytest.raises(HypothesisFailed):
            step_absorb(reg, ["a"])

    def test_loop_to_rational(self):
        dit = Ditalgebra(QQ, [None], [Arrow("l", 0, 0, 0)], [], {})
        step = step_absorb_loop(dit, "l")
        assert step.tgt.is_rational(0)
        assert not step.tgt.full
        M = DitModule(step.tgt, (2,), {}, {0: mk(QQ, [0, 1], [0, 0])})
        img = step.apply_module(M)
        assert img.arr["l"] == M.xact[0]
        assert endolength(step.tgt, M) == endolength(dit, img)

    def test_endolength_preserved_marker(self):
        a2 = make_a2(F2)
        step = step_absorb(a2, ["a"])
        for M in enumerate_modules(step.tgt, 4):
            if M.total_dim == 0:
                continue
            assert endolength(step.tgt, M) == endolength(a2, step.apply_module(M))


# ---------------------------------------------------------------------------
# admissible data
# ---------------------------------------------------------------------------

class TestAdmissible:
    def test_case1_semisimple(self, ss):
        S1, S2 = DitModule.simple(ss, 0), DitModule.simple(ss, 1)
        adm = build_admissible(ss, 1, [S1, S2], w0prime=())
        assert len(adm.s_points) == 2 and not adm.p_elems
        assert adm.mu() == 1

    def test_case1_a2(self, a2):
        B = b_subalgebra(a2, ("a",))
        S1, S2 = DitModule.simple(B, 0), DitModule.simple(B, 1)
        P = DitModule(B, (1, 1), {"a": mk(QQ, [1])})
        adm = build_admissible(a2, 1, [S1, S2, P], w0prime=("a",))
        assert adm.mu() == 2
        assert len(adm.p_elems) == 2
        # dual-basis identity: the recorded blocks reproduce each map
        for qs, qd, blocks in adm.p_elems:
            assert qs != qd  # no radical endomorphisms here

    def test_case1_rejects_isomorphic(self, a2):
        B = b_subalgebra(a2, ("a",))
        S1 = DitModule.simple(B, 0)
        with pytest.raises(HypothesisFailed):
            build_admissible(a2, 1, [S1, S1], w0prime=("a",))

    def test_case2_localization(self):
        x = Poly.x(QQ)
        dit = Ditalgebra(QQ, [None, Poly.one(QQ)], [], [], {})
        adm = build_admissible(dit, 2, (1, x))
        assert adm.s_points[0].g == x
        assert adm.mu() == 1

    def test_case3_orthogonal(self, a2):
        B = b_subalgebra(a2, ("a",))
        S1 = DitModule.simple(B, 0)
        part1 = build_admissible_case1(a2, ("a",), [S1])
        S2 = DitModule.simple(B, 1)
        part2 = build_admissible_case1(a2, ("a",), [S2])
        with pytest.raises(HomNotZero):
            # S2 maps into P: gluing P with S2 violates orthogonality
            P = DitModule(B, (1, 1), {"a": mk(QQ, [1])})
            partP = build_admissible_case1(a2, ("a",), [P])
            build_admissible_case3(a2, [part2, partP])
        merged = build_admissible_case3(a2, [part1, part2])
        assert len(merged.s_points) == 2


# ---------------------------------------------------------------------------
# reduction at an admissible module
# ---------------------------------------------------------------------------

class TestReduceX:
    def test_semisimple_relabel(self, ss):
        S1, S2 = DitModule.simple(ss, 0), DitModule.simple(ss, 1)
        adm = build_admissible(ss, 1, [S1, S2], w0prime=())
        step = step_reduce_X(ss, (), adm)
        assert step.tgt.n == 2 and not step.tgt.full and not step.tgt.dashed
        # hom tables match the source through the functor
        for (i, j) in itertools.product(range(2), repeat=2):
            M = DitModule.simple(step.tgt, i)
            N = DitModule.simple(step.tgt, j)
            assert len(hom_space(step.tgt, M, N)) == len(
                hom_space(ss, step.apply_module(M), step.apply_module(N))
            )

    def test_a2_images_recover_indecomposables(self, a2):
        step = edge_X(a2, "a")
        assert step.tgt.n == 3 and not step.tgt.full
        imgs = [step.apply_module(DitModule.simple(step.tgt, q)) for q in range(3)]
        expected = [
            DitModule.simple(a2, 0),
            DitModule.simple(a2, 1),
            DitModule(a2, (1, 1), {"a": mk(QQ, [1])}),
        ]
        matched = set()
        for img in imgs:
            hit = next(
                k for k, E in enumerate(expected)
                if k not in matched and img.dims == E.dims and are_isomorphic(a2, img, E) is not None
            )
            matched.add(hit)
        assert matched == {0, 1, 2}

    def test_degenerate_no_p(self, ss):
        # pairwise non-isomorphic simples with trivial complement: the
        # derivation table of the reduced layer is empty
        S1, S2 = DitModule.simple(ss, 0), DitModule.simple(ss, 1)
        adm = build_admissible(ss, 1, [S1, S2], w0prime=())
        step = step_reduce_X(ss, (), adm)
        assert not step.tgt.delta

    def test_kron_frozen_delta_table(self, kron):
        # the by-hand reduction of one parallel arrow: four transported
        # arrows, two complement duals, and exactly three derivation values
        step = edge_X(kron, "a")
        tgt = step.tgt
        assert sorted(a.name for a in tgt.full) == ["b_1_0", "b_1_2", "b_3_0", "b_3_2"]
        assert sorted(v.name for v in tgt.dashed) == ["pd0", "pd1"]
        arrows = {a.name: (a.s, a.t) for a in list(tgt.full) + list(tgt.dashed)}
        assert arrows == {
            "b_1_0": (0, 1), "b_3_0": (0, 2), "b_1_2": (2, 1), "b_3_2": (2, 2),
            "pd0": (1, 2), "pd1": (2, 0),
        }
        alg = tgt.alg
        assert tgt.delta_of("b_1_0").is_zero()
        assert tgt.delta_of("b_3_0") == alg.gen("pd0") * alg.gen("b_1_0")
        assert tgt.delta_of("b_1_2") == -(alg.gen("b_1_0") * alg.gen("pd1"))
        assert tgt.delta_of("b_3_2") == alg.gen("pd0") * alg.gen("b_1_2") - alg.gen("b_3_0") * alg.gen("pd1")
        assert tgt.delta_of("pd0").is_zero() and tgt.delta_of("pd1").is_zero()

    def test_full_faithful_iso_indec_f2(self):
        # exhaustive check on the two fixture steps over F_2
        for make, arrow in ((make_a2, "a"), (make_kron, "a")):
            dit = make(F2)
            step = edge_X(dit, arrow)
            mods = [M for M in enumerate_modules(step.tgt, 3) if M.total_dim]
            indecs = enumerate_indecomposables(step.tgt, 3)
            for M, N in itertools.product(mods[:40], repeat=2):
                lhs = len(hom_space(step.tgt, M, N))
                rhs = len(hom_space(dit, step.apply_module(M), step.apply_module(N)))
                assert lhs == rhs
            # iso-classes map bijectively onto their images
            images = [step.apply_module(M) for M in indecs]
            for i, A in enumerate(images):
                from ditred.ditmod import is_indecomposable

                assert is_indecomposable(dit, A)
                for j, B in enumerate(images):
                    same_src = are_isomorphic(step.tgt, indecs[i], indecs[j]) is not None
                    same_img = A.dims == B.dims and are_isomorphic(dit, A, B) is not None
                    assert same_src == same_img

    def test_mu_bound_with_strict_and_tight(self, a2):
        step = edge_X(a2, "a")
        mu = step.data["mu"]
        assert mu == 2
        seen_tight = seen_strict = False
        a2f = make_a2(F2)
        stepf = edge_X(a2f, "a")
        for N in enumerate_modules(stepf.tgt, 3):
            if N.total_dim == 0:
                continue
            e_n = endolength(stepf.tgt, N)
            e_f = endolength(a2f, stepf.apply_module(N))
            assert e_f <= mu * e_n
            if e_f == mu * e_n:
                seen_tight = True
            if e_f < mu * e_n:
                seen_strict = True
        assert seen_tight and seen_strict

    def test_morphism_functoriality(self, reg):
        step = step_regularize(reg, "a", "v")
        M = DitModule(step.tgt, (1, 1))
        N = DitModule(step.tgt, (1, 1))
        for f in hom_space(step.tgt, M, N):
            Ff = step.apply_morphism(f)
            assert Ff.check()
        idm = DitMorphism.identity(M)
        Fid = step.apply_morphism(idm)
        FM = step.apply_module(M)
        assert Fid.f0 == DitMorphism.identity(FM).f0

    def test_ideal_transport(self):
        # a composable relation through three points lands in the reduced
        # layer and its modules annihilate it
        field = F2
        a = Arrow("a", 0, 1, 0)
        b = Arrow("b", 1, 2, 0)
        alg = PathAlgebra(field, [None, None, None], [a, b])
        rel = alg.gen("b") * alg.gen("a")
        dit = Ditalgebra(field, [None, None, None], [a, b], [], {}, ideal=[rel])
        step = edge_X(dit, "a")
        assert any(not g.is_zero() for g in step.tgt.ideal)
        for M in enumerate_modules(step.tgt, 3):
            img = step.apply_module(M)  # validates ideal annihilation on the source
            for g in dit.ideal:
                for (i, j), m in img.act_map(g).items():
                    assert m.is_zero()


# ---------------------------------------------------------------------------
# detachment and the commuting squares
# ---------------------------------------------------------------------------

def three_point_source(field=QQ, delta=False, ideal=False, loop=False):
    """A source at point 0 plus structure between points 1 and 2."""
    arrows_full = [Arrow("a", 1, 2, 0)]
    dashed = []
    dtable = {}
    if loop:
        arrows_full.append(Arrow("l", 1, 1, 0)) if False else arrows_full.append(Arrow("l", 2, 2, 0))
    alg = PathAlgebra(field, [None, None, None], arrows_full + [Arrow("v", 1, 2, 1)])
    if delta:
        dashed = [Arrow("v", 1, 2, 1)]
        dtable = {"a": alg.gen("v")}
    gens = []
    dit = Ditalgebra(field, [None, None, None], arrows_full, dashed, dtable, ideal=gens)
    if ideal:
        dit = Ditalgebra(field, [None, None, None], arrows_full, dashed, dtable,
                         ideal=[dit.alg.gen("a")])
    return dit


class TestDetach:
    def test_a2_detach(self, a2):
        step = step_detach(a2, 0)
        assert not step.tgt.full
        P = DitModule(a2, (1, 1), {"a": mk(QQ, [1])})
        res = detach_restrict_module(step, P)
        assert res.dims == (0, 1)

    def test_ss_detach(self, ss):
        step = step_detach(ss, 0)
        res = detach_restrict_module(step, DitModule.simple(ss, 0))
        assert res.total_dim == 0

    def test_kron_detach(self, kron):
        step = step_detach(kron, 0)
        M = DitModule(kron, (1, 1), {"a": mk(QQ, [1]), "b": mk(QQ, [0])})
        assert detach_restrict_module(step, M).total_dim == 1

    def test_not_a_source(self, a2):
        with pytest.raises(NotASource):
            step_detach(a2, 1)

    def test_detach_then_delete_equals_delete(self):
        dit = three_point_source()
        det = step_detach(dit, 0)
        d1 = step_delete(det.tgt, [1, 2])
        d2 = step_delete(dit, [1, 2])
        assert ditalgebra_to_text(d1.tgt) == ditalgebra_to_text(d2.tgt)


class TestCommutingSquares:
    """Restriction after the functor equals the functor after restriction,
    as literal module data, for every step kind."""

    def assert_square(self, dit, e0, mkstep, dmax=2):
        det = step_detach(dit, e0)
        step = mkstep(dit)
        step_det = mkstep(det.tgt)
        # the reduced-then-detached and detached-then-reduced layers agree
        det2 = step_detach(step.tgt, self._image_point(step, e0))
        assert ditalgebra_to_text(det2.tgt) == ditalgebra_to_text(step_det.tgt)
        for M in enumerate_modules(step.tgt, dmax):
            lhs = detach_restrict_module(det, step.apply_module(M))
            res = detach_restrict_module(det2, M)
            rhs = step_det.apply_module(res)
            assert lhs.dims == rhs.dims
            assert lhs.arr == rhs.arr and lhs.xact == rhs.xact

    @staticmethod
    def _image_point(step, e0):
        if step.kind in ("X", "unravel"):
            adm = step.data["adm"]
            for q, sp in enumerate(adm.s_points):
                if adm.ranks.get((e0, q)) and sum(
                    r for (i, qq), r in adm.ranks.items() if qq == q
                ) == adm.ranks[(e0, q)] == 1:
                    return q
            raise AssertionError("no isolated image point for the source")
        if step.kind == "d":
            return step.data["point_map"][e0]
        return e0

    def test_square_delete(self):
        dit = three_point_source(F2)
        self.assert_square(dit, 0, lambda d: step_delete(d, [0, 2] if d.n == 3 else [0, 2]))

    def test_square_regularize(self):
        dit = three_point_source(F2, delta=True)
        self.assert_square(dit, 0, lambda d: step_regularize(d, "a", "v"))

    def test_square_factor_out(self):
        dit = three_point_source(F2, ideal=True)
        self.assert_square(dit, 0, lambda d: step_factor_out(d, ["a"]))

    def test_square_absorb(self):
        dit = three_point_source(F2)
        self.assert_square(dit, 0, lambda d: step_absorb(d, ["a"]))

    def test_square_absorb_loop(self):
        field = F2
        dit = Ditalgebra(field, [None, None], [Arrow("l", 1, 1, 0)], [], {})
        self.assert_square(dit, 0, lambda d: step_absorb_loop(d, "l"))

    def test_square_X(self):
        dit = three_point_source(F2)
        self.assert_square(dit, 0, lambda d: edge_X(d, "a"))


# ---------------------------------------------------------------------------
# unravelling and the splitting projections
# ---------------------------------------------------------------------------

class TestFitting:
    def test_nilpotent_whole(self):
        A = mk(QQ, [0])
        pim, pker = fitting_split(A, Poly.x(QQ), 1)
        assert pim.is_zero() and pker == Mat.eye(QQ, 1)

    def test_invertible_whole(self):
        A = mk(QQ, [2])
        pim, pker = fitting_split(A, Poly.x(QQ), 1)
        assert pker.is_zero() and pim == Mat.eye(QQ, 1)

    def test_rank_one_split(self):
        A = mk(QQ, [0, 0], [0, 2])
        pim, pker = fitting_split(A, Poly.x(QQ), 1)
        assert pim + pker == Mat.eye(QQ, 2)
        assert pim * pker == Mat.zeros(QQ, 2, 2)
        assert (pim * A * pim).rank() == 1

    def test_random_exactness(self):
        rng = random.Random(41)
        x = Poly.x(QQ)
        one = Poly.one(QQ)
        polys = [x, x - one, x * (x - one)]
        for _ in range(50):
            n = rng.randint(1, 6)
            A = Mat(QQ, [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
            h = rng.choice(polys)
            d = rng.randint(1, 2)
            pim, pker = fitting_split(A, h, d)
            assert pim + pker == Mat.eye(QQ, n)
            assert pim * pim == pim and pker * pker == pker
            assert pim * pker == Mat.zeros(QQ, n, n)
            # the split is A-stable
            assert pim * A == A * pim


class TestUnravel:
    def stellar_rational(self, h=None, g=None, arrow=True):
        g = g if g is not None else Poly.one(QQ)
        full = [Arrow("w", 0, 1, 0)] if arrow else []
        return Ditalgebra(QQ, [None, g], full, [], {})

    def test_structure_single_prime(self):
        dit = self.stellar_rational()
        x = Poly.x(QQ)
        step = step_unravel(dit, [1], {1: x}, 1)
        tgt = step.tgt
        rationals = [i for i in tgt.points() if tgt.is_rational(i)]
        trivials = [i for i in tgt.points() if not tgt.is_rational(i)]
        assert len(rationals) == 1
        assert tgt.base[rationals[0]] == x  # localized at the unravelled polynomial
        # one nilpotent-part point plus the original trivial point
        assert len(trivials) == 3 - 1

    def test_pure_localization(self):
        dit = self.stellar_rational()
        step = step_unravel(dit, [1], {1: Poly.one(QQ)}, 2)
        tgt = step.tgt
        assert tgt.n == 2  # no nilpotent-part points appear

    def test_two_primes_depth_two(self):
        x = Poly.x(QQ)
        h = x * (x - Poly.one(QQ))
        dit = self.stellar_rational()
        step = step_unravel(dit, [1], {1: h}, 2)
        tgt = step.tgt
        trivials = [i for i in tgt.points() if not tgt.is_rational(i)]
        # 4 nilpotent-part points (two primes x two depths) + the source
        assert len(trivials) == 5

    def test_coverage_at_depth(self):
        # every module of bounded length at the unravelled point comes
        # from the reduced layer
        x = Poly.x(QQ)
        dit = Ditalgebra(QQ, [None, Poly.one(QQ)], [Arrow("w", 0, 1, 0)], [], {})
        step = step_unravel(dit, [1], {1: x}, 2)
        trace = ReductionTrace(dit, [step])
        targets = []
        for lam in (0, 1):
            targets.append(DitModule(dit, (0, 1), {"w": Mat.zeros(QQ, 1, 0)}, {1: mk(QQ, [lam])}))
        targets.append(DitModule(dit, (1, 1), {"w": mk(QQ, [1])}, {1: mk(QQ, [0])}))
        # one unravel step leaves full arrows, so its target is not minimal
        # and its modules are enumerated directly
        with pytest.raises(HypothesisFailed):
            terminal_module_candidates(trace, 2)
        cands = [step.apply_module(N) for N in enumerate_modules(step.tgt, 2)]
        for T in targets:
            assert any(
                C.dims == T.dims and are_isomorphic(dit, T, C) is not None for C in cands
            ), T.dims

    def test_functor_respects_x_action(self):
        x = Poly.x(QQ)
        dit = self.stellar_rational()
        step = step_unravel(dit, [1], {1: x}, 1)
        tgt = step.tgt
        loc = next(i for i in tgt.points() if tgt.is_rational(i))
        lam = QQ.of(3)
        N = DitModule.simple(tgt, loc, lam=lam)
        img = step.apply_module(N)
        assert img.xact[1] == mk(QQ, [3])


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

class TestDriver:
    def test_ss_empty_trace(self, ss):
        trace = reduce_to_minimal(ss, 2)
        assert not trace.steps and trace.terminal.is_minimal()

    def test_reg_single_regularization(self, reg):
        trace = reduce_to_minimal(reg, 3)
        assert [s.kind for s in trace.steps] == ["r"]
        assert trace.terminal.is_minimal()

    def test_a2_terminal_three_points(self, a2):
        trace = reduce_to_minimal(a2, 2)
        assert trace.terminal.is_minimal()
        assert trace.terminal.n == 3
        covered, missing = verify_coverage(trace, 2, dim_cap=2)
        assert not missing and len(covered) == 3

    def test_a2_with_ideal_factors_out(self):
        dit = make_a2(ideal_a=True)
        trace = reduce_to_minimal(dit, 2)
        assert trace.terminal.is_minimal()
        assert any(s.kind == "q" for s in trace.steps)

    def test_kron_terminates_with_rational_point(self, kron):
        trace = reduce_to_minimal(kron, 2, dim_cap=4)
        term = trace.terminal
        assert term.is_minimal()
        assert sum(1 for i in term.points() if term.is_rational(i)) == 1

    def test_budget_exceeded(self, kron):
        from ditred.reduction import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            reduce_to_minimal(kron, 2, budget=1)

    def test_trace_serialization(self, reg):
        trace = reduce_to_minimal(reg, 2)
        blob = trace_to_json(trace)
        assert '"kind": "r"' in blob
        import json

        data = json.loads(blob)
        assert len(data["steps"]) == 1
        from ditred.bigraph import ditalgebra_from_text

        again = ditalgebra_from_text(data["steps"][-1]["tgt"])
        assert ditalgebra_to_text(again) == ditalgebra_to_text(trace.terminal)


class TestTraceReplay:
    def test_kron_trace_replays_bit_exactly(self):
        kron = make_kron(F2)
        trace = reduce_to_minimal(kron, 2, dim_cap=4)
        from ditred.reduction import trace_from_json

        blob = trace_to_json(trace)
        again = trace_from_json(blob)
        assert trace_to_json(again) == blob
        assert again.terminal.content_hash() == trace.terminal.content_hash()

    def test_unravel_trace_replays(self):
        x = Poly.x(QQ)
        dit = Ditalgebra(QQ, [None, Poly.one(QQ)], [Arrow("w", 0, 1, 0)], [], {})
        step = step_unravel(dit, [1], {1: x}, 2)
        trace = ReductionTrace(dit, [step])
        from ditred.reduction import trace_from_json

        blob = trace_to_json(trace)
        again = trace_from_json(blob)
        assert again.terminal.content_hash() == trace.terminal.content_hash()


def make_a3(field=F2):
    return Ditalgebra(field, [None] * 3, [Arrow("a", 0, 1, 0), Arrow("b", 1, 2, 0)], [], {})


def make_a3_rel(field=F2):
    base = make_a3(field)
    rel = base.alg.gen("b") * base.alg.gen("a")
    return Ditalgebra(field, [None] * 3, list(base.full), [], {}, ideal=[rel])


def make_d4(field=F2):
    return Ditalgebra(field, [None] * 4,
                      [Arrow("a", 0, 3, 0), Arrow("b", 1, 3, 0), Arrow("c", 2, 3, 0)], [], {})


def make_square(field=F2):
    sq0 = Ditalgebra(field, [None] * 4,
                     [Arrow("a", 0, 1, 0), Arrow("b", 1, 3, 0),
                      Arrow("c", 0, 2, 0), Arrow("d", 2, 3, 0)], [], {})
    rel = sq0.alg.gen("b") * sq0.alg.gen("a") - sq0.alg.gen("d") * sq0.alg.gen("c")
    return Ditalgebra(field, [None] * 4, list(sq0.full), [], {}, ideal=[rel])


def make_a2_and_killed_loop(field=F2):
    """A2 beside a point whose loop l satisfies e - l = 0.  The loop makes
    the ideal undecidable, so the point survives the ideal pass, and its
    simple is not a module: its weight is dim_cap + 1."""
    base = Ditalgebra(field, [None] * 3, [Arrow("a", 0, 1, 0), Arrow("l", 2, 2, 0)], [], {})
    return Ditalgebra(field, [None] * 3, list(base.full), [], {},
                      ideal=[base.alg.e(2) - base.alg.gen("l")])


class TestDriverBreadth:
    """The driver on larger directed layers: multi-arrow paths, stars,
    relation ideals, and honest failures outside the implemented moves."""

    def test_a3_full_coverage(self):
        trace = reduce_to_minimal(make_a3(), 3, budget=80, dim_cap=4)
        assert trace.terminal.is_minimal()
        assert trace.terminal.n == 6  # one point per indecomposable
        covered, missing = verify_coverage(trace, 3, dim_cap=4)
        assert not missing and len(covered) == 6

    def test_a3_with_zero_relation(self):
        trace = reduce_to_minimal(make_a3_rel(), 3, budget=80, dim_cap=4)
        assert trace.terminal.is_minimal()
        assert trace.terminal.n == 5
        covered, missing = verify_coverage(trace, 3, dim_cap=4)
        assert not missing and len(covered) == 5

    def test_star_coverage(self):
        trace = reduce_to_minimal(make_d4(), 3, budget=120, dim_cap=4)
        assert trace.terminal.is_minimal()
        covered, missing = verify_coverage(trace, 3, dim_cap=4)
        assert not missing and covered

    def test_commutative_square_relation(self):
        trace = reduce_to_minimal(make_square(), 2, budget=200, dim_cap=4)
        assert trace.terminal.is_minimal()
        covered, missing = verify_coverage(trace, 2, dim_cap=3)
        assert not missing and covered

    def test_wild_pencil_fails_honestly(self):
        from ditred.reduction import BudgetExceeded

        w3 = Ditalgebra(F2, [None, None],
                        [Arrow("a", 0, 1, 0), Arrow("b", 0, 1, 0), Arrow("c", 0, 1, 0)], [], {})
        with pytest.raises((BudgetExceeded, WildnessEncountered)):
            reduce_to_minimal(w3, 2, budget=60, dim_cap=4)

    def test_edge_at_rational_point_fails_honestly(self):
        from ditred.reduction import BudgetExceeded

        de = Ditalgebra(F2, [None, Poly.one(F2)], [Arrow("w", 0, 1, 0)], [], {})
        with pytest.raises((BudgetExceeded, WildnessEncountered)):
            reduce_to_minimal(de, 1, budget=25, dim_cap=2)


# ---------------------------------------------------------------------------
# point weights read off dimension vectors against the module walk they replaced
# ---------------------------------------------------------------------------

def _reference_weight(trace, point, dim_cap):
    """`reduce_to_minimal`'s weight as a module walk: the simple at a
    trivial terminal point sent back through the whole trace."""
    try:
        S = DitModule.simple(trace.terminal, point)
        return trace.apply_module(S).total_dim
    except InvalidModule:
        # the transported ideal kills the point outright
        return dim_cap + 1


DRIVER_FIXTURES = {
    "ss": (make_ss, 2, {}),
    "reg": (make_reg, 3, {}),
    "a2": (make_a2, 2, {}),
    "a2_ideal": (lambda f: make_a2(f, ideal_a=True), 2, {}),
    "kron": (make_kron, 2, {"dim_cap": 4}),
    "a3": (make_a3, 3, {"budget": 80, "dim_cap": 4}),
    "a3_rel": (make_a3_rel, 3, {"budget": 80, "dim_cap": 4}),
    "d4": (make_d4, 3, {"budget": 120, "dim_cap": 4}),
    "square": (make_square, 2, {"budget": 200, "dim_cap": 4}),
    "killed_loop": (make_a2_and_killed_loop, 2, {"dim_cap": 4}),
}


# sha256 of the driver's traces over DRIVER_FIXTURES x (F2, F3, Q), recorded
# while the point weights were still found by walking simples through the
# trace; a run that raises contributes its exception class instead
DRIVER_DIGEST = "a4e0b1cb3fdceb945cd2c92c1242bc6b6b901d9be80e28bdfbbc7c5c1c58001d"


def _driver_digest():
    import hashlib

    from ditred.errors import DitredError

    h = hashlib.sha256()
    for name in sorted(DRIVER_FIXTURES):
        build, d, kw = DRIVER_FIXTURES[name]
        for field in (F2, F3, QQ):
            try:
                out = trace_to_json(reduce_to_minimal(build(field), d, **kw))
            except DitredError as e:
                out = type(e).__name__
            h.update(f"{name} {field!r}\n{out}\n".encode())
    return h.hexdigest()


def test_driver_traces_pinned():
    assert _driver_digest() == DRIVER_DIGEST


def test_driver_traces_do_not_depend_on_term_order(monkeypatch):
    """Term order is not output: with the terms of every PathElement
    permuted by a seeded shuffle as it is built, the driver's traces hash
    as pinned."""
    rng = random.Random(30)
    init, own = PathElement.__init__, PathElement._own
    moved = 0

    def shuffled(terms):
        nonlocal moved
        if len(terms) < 2:
            return terms
        items = list(terms.items())
        rng.shuffle(items)
        out = dict(items)
        moved += list(out) != list(terms)
        return out

    monkeypatch.setattr(PathElement, "__init__", lambda self, alg, terms: init(self, alg, shuffled(terms)))
    monkeypatch.setattr(PathElement, "_own", staticmethod(lambda alg, terms: own(alg, shuffled(terms))))
    assert _driver_digest() == DRIVER_DIGEST
    assert moved > 1000


def _weights_by_level(src, steps, weigher):
    """The weights of the trivial points of every layer of the trace built
    from `steps`, grown one step at a time; `weigher(trace)` gives the
    weight function of the growing trace."""
    out = []
    for trace in _levels(src, steps):
        weight = weigher(trace)
        cur = trace.terminal
        out.append([weight(p) for p in cur.points() if not cur.is_rational(p)])
    return out


def _levels(src, steps):
    """The trace from `src` through `steps`, grown one step at a time from
    the empty trace; each level is a trace of its own."""
    for n in range(len(steps) + 1):
        yield ReductionTrace(src, steps[:n])


def _reference_weigher(dim_cap):
    return lambda trace: lambda p: _reference_weight(trace, p, dim_cap)


def _weigher(dim_cap):
    """The driver's weight: the pulled-back functional at the point, or
    dim_cap + 1 where the ideal kills the point's simple."""
    def weigher(trace):
        weights = _image_dims(trace)
        return lambda p: dim_cap + 1 if _kills_simple(trace.terminal, p) else weights[p]
    return weigher


def _reference_image_dim(trace, i):
    """The per-point walk that `_image_dims` replaced: the dimension vector
    of a one-dimensional module at the terminal point i, sent back
    through every step by `_source_dims`."""
    dims = [0] * trace.terminal.n
    dims[i] = 1
    for step in reversed(trace.steps):
        dims = _source_dims(step, dims)
    return sum(dims)


def _driver_traces(field):
    """The driver's traces over DRIVER_FIXTURES, and the Kronecker trace
    followed by an unravel step at its rational point (depths 1 and 2)."""
    out = {}
    for name in sorted(DRIVER_FIXTURES):
        build, d, kw = DRIVER_FIXTURES[name]
        out[name] = reduce_to_minimal(build(field), d, **kw)
    kron = out["kron"]
    dit = kron.terminal
    point = next(i for i in dit.points() if dit.is_rational(i))
    h = Poly.x(field) - Poly.const(field, field.one)
    for depth in (1, 2):
        step = step_unravel(dit, [point], {point: h}, depth, require_stellar=False)
        out[f"kron_unravel{depth}"] = ReductionTrace(kron.source, kron.steps + [step])
    return out


@dataclasses.dataclass(frozen=True)
class _FrozenSPoint:
    """The frozen dataclass `SPoint` was, kept as the reference."""
    label: str
    g: Poly | None


@dataclasses.dataclass
class _DataclassStep:
    """The dataclass `ReductionStep` was, kept as the reference for its repr."""
    kind: str
    src: Ditalgebra
    tgt: Ditalgebra
    data: dict


def test_spoint_is_the_frozen_dataclass():
    x = Poly.x(QQ)
    fields = [("[0]", None), ("loc[1]", x - Poly.one(QQ)), ("1", x * x + Poly.one(QQ)), ("[0]", x)]
    for f in fields:
        p, ref = SPoint(*f), _FrozenSPoint(*f)
        assert hash(p) == hash(ref) == hash(f)
        assert repr(p) == repr(ref).replace("_FrozenSPoint", "SPoint")
        for g in fields:
            assert (p == SPoint(*g)) == (ref == _FrozenSPoint(*g)) == (f == g)
        assert p != f and p != ref
        with pytest.raises(AttributeError):
            p.g = None
        with pytest.raises(AttributeError):
            del p.label
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(q) is SPoint and q == p and hash(q) == hash(p)
    assert [q.label for q in {SPoint(*f) for f in fields}] == [q.label for q in {_FrozenSPoint(*f) for f in fields}]


def test_reduction_step_repr_is_the_dataclass_repr():
    step = step_delete(make_a2(QQ), [0])
    ref = _DataclassStep(step.kind, step.src, step.tgt, step.data)
    assert repr(step) == repr(ref).replace("_DataclassStep", "ReductionStep")


def _reference_find_filtration(dit):
    """The greedy witness `Ditalgebra.find_filtration` replaced, which
    rebuilt each remaining arrow's set of used arrows on every pass."""

    def order(names, deg):
        remaining = list(names)
        chosen = []
        avail = set()
        while remaining:
            layer = []
            for a in remaining:
                used = {u for u in dit.delta_of(a).arrow_names() if dit.alg.arrows[u].deg == deg}
                if used <= avail:
                    layer.append(a)
            if not layer:
                return None
            chosen.append(tuple(layer))
            avail.update(layer)
            remaining = [a for a in remaining if a not in layer]
        return tuple(chosen)

    of = order(dit.full_names(), 0)
    od = order(dit.dashed_names(), 1)
    if of is None or od is None:
        return None
    return (of, od)


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
def test_find_filtration_equals_reference(field):
    """The same groups in the same order on every layer of the driver's
    traces, layered ones among them."""
    layers = layered = 0
    for trace in _driver_traces(field).values():
        for dit in [trace.source] + [step.tgt for step in trace.steps]:
            got = dit.find_filtration()
            assert got == _reference_find_filtration(dit)
            layers += 1
            layered += got is not None and max(len(got[0]), len(got[1])) > 1
    assert layers and layered


class TestPointWeights:
    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    @pytest.mark.parametrize("name", sorted(DRIVER_FIXTURES))
    def test_inherited_weights_equal_full_walks(self, name, field):
        build, d, kw = DRIVER_FIXTURES[name]
        src = build(field)
        dim_cap = kw.get("dim_cap", 2 * d)
        steps = reduce_to_minimal(src, d, **kw).steps
        got = _weights_by_level(src, steps, _weigher(dim_cap))
        want = _weights_by_level(src, steps, _reference_weigher(dim_cap))
        assert got == want
        if name == "killed_loop":
            assert dim_cap + 1 in want[0]

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_image_dims_equal_per_point_walks(self, field):
        kinds = set()
        for trace in _driver_traces(field).values():
            for level in _levels(trace.source, trace.steps):
                want = tuple(_reference_image_dim(level, i) for i in level.terminal.points())
                assert _image_dims(level) == want
                kinds.update(step.kind for step in level.steps)
        assert {"d", "r", "X", "unravel"} <= kinds

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_pull_back_is_dual_to_source_dims(self, field):
        rng = random.Random(15)
        steps = 0
        for trace in _driver_traces(field).values():
            for step in trace.steps:
                m, n = step.src.n, step.tgt.n
                dims = [[int(i == j) for j in range(n)] for i in range(n)]
                dims += [[rng.randint(0, 3) for _ in range(n)] for _ in range(3)]
                for ell in [[1] * m] + [[rng.randint(-2, 3) for _ in range(m)] for _ in range(3)]:
                    back = _pull_back(step, ell)
                    assert len(back) == n
                    for d in dims:
                        lhs = sum(a * b for a, b in zip(ell, _source_dims(step, d)))
                        assert lhs == sum(a * b for a, b in zip(back, d)), step.kind
                steps += 1
        assert steps

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_ideal_coefficient_test_agrees_with_simple(self, field):
        points = killed = 0
        for trace in _driver_traces(field).values():
            for dit in [trace.source] + [step.tgt for step in trace.steps]:
                for i in dit.points():
                    if dit.is_rational(i):
                        continue
                    try:
                        DitModule.simple(dit, i)
                        raises = False
                    except InvalidModule:
                        raises = True
                    assert _kills_simple(dit, i) == raises
                    points += 1
                    killed += raises
        assert killed and points > killed

    def test_weighing_calls_no_apply_module(self, monkeypatch):
        build, d, kw = DRIVER_FIXTURES["kron"]
        src, dim_cap = build(F2), kw["dim_cap"]
        steps = reduce_to_minimal(src, d, **kw).steps
        calls, modules = [], []
        apply = ReductionStep.apply_module
        monkeypatch.setattr(ReductionStep, "apply_module", lambda st, M: calls.append(st) or apply(st, M))
        init = DitModule.__init__
        monkeypatch.setattr(DitModule, "__init__", lambda M, *a, **kw: modules.append(M) or init(M, *a, **kw))
        weights = _weights_by_level(src, steps, _weigher(dim_cap))
        assert calls == [] and modules == [] and max(map(max, weights)) > 1
        _weights_by_level(src, steps, _reference_weigher(dim_cap))
        assert calls and modules  # the counters see the module walk


ADDITIVITY_STEPS = {
    "delete": lambda f: step_delete(three_point_source(f), [1, 2]),
    "regularize": lambda f: step_regularize(make_reg(f), "a", "v"),
    "factor_out": lambda f: step_factor_out(make_a2(f, ideal_a=True), ["a"]),
    "absorb": lambda f: step_absorb(make_a2(f), ["a"]),
    "absorb_loop": lambda f: step_absorb_loop(Ditalgebra(f, [None, None], [Arrow("l", 1, 1, 0)], [], {}), "l"),
    "X": lambda f: edge_X(make_kron(f), "a"),
    "unravel": lambda f: step_unravel(Ditalgebra(f, [None, Poly.one(f)], [Arrow("w", 0, 1, 0)], [], {}),
                                      [1], {1: Poly.x(f)}, 2),
}


class TestAdditivity:
    """F(N1 + N2) ~ F(N1) + F(N2) for every step kind: the single-point
    coverage argument rests on it."""

    @pytest.mark.parametrize("field,cap", [(F2, 3), (F3, 2), (QQ, 2)], ids=["F2", "F3", "Q"])
    @pytest.mark.parametrize("kind", sorted(ADDITIVITY_STEPS))
    def test_apply_module_is_additive(self, kind, field, cap):
        """Over every pair of nonzero modules of total dimension <= 2 whose
        direct sum has total dimension <= cap."""
        step = ADDITIVITY_STEPS[kind](field)
        mods = [M for M in enumerate_modules(step.tgt, 2) if M.total_dim]
        pairs = 0
        for N1, N2 in itertools.combinations_with_replacement(mods, 2):
            if N1.total_dim + N2.total_dim > cap:
                continue
            lhs = step.apply_module(N1.direct_sum(N2))
            rhs = step.apply_module(N1).direct_sum(step.apply_module(N2))
            assert lhs.dims == rhs.dims
            assert are_isomorphic(step.src, lhs, rhs) is not None, (kind, N1.dims, N2.dims)
            pairs += 1
        assert pairs >= 3


class TestSourceDims:
    """`_source_dims` against the dimension vectors of the transported
    modules."""

    @staticmethod
    def _check_step(step, mods):
        for M in mods:
            assert _source_dims(step, M.dims) == step.apply_module(M).dims, (step.kind, M.dims)

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    @pytest.mark.parametrize("name", sorted(DRIVER_FIXTURES))
    def test_driver_steps(self, name, field):
        build, d, kw = DRIVER_FIXTURES[name]
        trace = reduce_to_minimal(build(field), d, **kw)
        mods = list(terminal_module_candidates(trace, kw.get("dim_cap", 2 * d)))
        for step in reversed(trace.steps):
            mods += _layer_simples(step.tgt)
            self._check_step(step, mods)
            mods = [step.apply_module(M) for M in mods]
        weights = _image_dims(trace)
        for S in _layer_simples(trace.terminal):
            assert weights[S.dims.index(1)] == trace.apply_module(S).total_dim

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_unravel_steps(self, field):
        dit = reduce_to_minimal(make_kron(field), 2, dim_cap=4).terminal
        point = next(i for i in dit.points() if dit.is_rational(i))
        x = Poly.x(field)
        for depth in (1, 2):
            step = step_unravel(dit, [point], {point: x - Poly.const(field, field.one)}, depth,
                                require_stellar=False)
            self._check_step(step, _layer_simples(step.tgt) + list(enumerate_modules(step.tgt, 2)))

    def test_detach_raises_as_its_transport(self):
        dit = Ditalgebra(F2, [None, None], [Arrow("a", 0, 1, 0)], [], {})
        step = step_detach(dit, 0)
        with pytest.raises(ValueError, match="restriction"):
            step.apply_module(DitModule.simple(step.tgt, 1))
        with pytest.raises(ValueError, match="restriction"):
            _source_dims(step, (0, 1))


# ---------------------------------------------------------------------------
# terminal candidates and X-step layouts against the code they replaced
# ---------------------------------------------------------------------------

def _reference_candidates(trace, dim_cap):
    """The candidate walk `terminal_module_candidates` made before it kept
    single-point modules: every module over the terminal layer whose
    dimension vector n has sum(w_i n_i) <= dim_cap, w_i the image
    dimension of a one-dimensional probe module at point i (x acting by
    the grid's first spectrum value at a rational point)."""
    cur = trace.terminal
    weights = []
    for i in cur.points():
        lam = _spectrum_value(cur, i) if cur.is_rational(i) else None
        weights.append(max(1, trace.apply_module(DitModule.simple(cur, i, lam=lam)).total_dim))
    vectors = [n for n in itertools.product(*[range(dim_cap // w + 1) for w in weights])
               if 0 < sum(w * k for w, k in zip(weights, n)) <= dim_cap]
    return enumerate_modules_dims(cur, vectors)


def _reference_coverage(trace, d, dim_cap):
    """`verify_coverage` over the reference candidates."""
    src = trace.source
    targets = [M for M in enumerate_indecomposables(src, dim_cap) if endolength(src, M) <= d]
    images = [img for img in map(trace.apply_module, _reference_candidates(trace, dim_cap))
              if 0 < img.total_dim <= dim_cap]
    covered, missing = [], []
    for T in targets:
        hit = any(img.dims == T.dims and are_isomorphic(src, T, img) is not None for img in images)
        (covered if hit else missing).append(T)
    return covered, missing


def _load_jobs():
    """The benchmark's job module, loaded once from its file."""
    import importlib.util
    import sys
    from pathlib import Path

    if "perfbench_jobs" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
        spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = mod  # its dataclasses look their module up
        spec.loader.exec_module(mod)
    return sys.modules["perfbench_jobs"]


# the `reduce --oracle` jobs of the verify_fp and rational_q mixes:
# (graph, field, endolength, dimension cap)
ORACLE_JOBS = [
    ("K", "fp:2", 2, 4), ("D4", "fp:2", 2, 3), ("D4", "fp:2", 3, 3), ("K", "fp:3", 2, 2),
    ("K", "fp:3", 1, 3), ("A3", "fp:3", 2, 3), ("A4", "fp:2", 2, 3), ("A4", "fp:3", 2, 3),
    ("D4", "fp:3", 1, 3), ("A3", "fp:2", 3, 3), ("K", "q", 1, 3), ("A4", "q", 1, 3),
    ("K", "q", 2, 2), ("A3", "q", 2, 3), ("D4", "q", 2, 2), ("A4", "q", 2, 2), ("K", "q", 1, 2),
]


class TestCoverageReference:
    """`verify_coverage` from single-point candidates against the weighted
    candidate walk it replaced: the same covered and missing lists."""

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    @pytest.mark.parametrize("name", sorted(DRIVER_FIXTURES))
    def test_driver_fixtures(self, name, field):
        build, d, kw = DRIVER_FIXTURES[name]
        trace = reduce_to_minimal(build(field), d, **kw)
        # enumerating the killed loop's source grows fast with the cap
        cap = min(kw.get("dim_cap", 2 * d), 2 if name == "killed_loop" else 3)
        got = verify_coverage(trace, d, cap)
        assert got == _reference_coverage(trace, d, cap)
        assert got[0]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("job", ORACLE_JOBS, ids=lambda j: "-".join(map(str, j)))
    def test_benchmark_layers(self, job, seed):
        graph, fld, d, cap = job
        text, _ = _load_jobs().layer_text(graph, fld, random.Random(seed))
        trace = reduce_to_minimal(ditalgebra_from_text(text), d)
        assert verify_coverage(trace, d, cap) == _reference_coverage(trace, d, cap)

    def test_refuses_terminal_layer_with_full_arrows(self):
        a2 = make_a2(F2)
        step = step_delete(a2, [0, 1])
        for trace in (ReductionTrace(a2), ReductionTrace(a2, [step])):
            with pytest.raises(HypothesisFailed, match="full arrows"):
                terminal_module_candidates(trace, 2)
            with pytest.raises(HypothesisFailed, match="full arrows"):
                verify_coverage(trace, 2, 2)


def _fm_layout(step, M, i):
    """Image basis layout at source point i as each X-step call rebuilt it."""
    adm = step.data["adm"]
    out = []
    for q in range(len(adm.s_points)):
        for t in range(adm.ranks.get((i, q), 0)):
            for m in range(M.dims[q]):
                out.append(((i, q, t), m))
    return out


class TestBoundedWalks:
    def test_terminal_layer_without_points(self):
        trace = ReductionTrace(Ditalgebra(QQ, [], [], [], {}), [])
        assert terminal_module_candidates(trace, 3) == []

    def test_offsets_match_fresh_layout(self, kron):
        step = edge_X(kron, "a")
        adm = step.data["adm"]
        for dims in ((1, 0, 2), (2, 1, 1), (0, 0, 0)):
            M = SimpleNamespace(dims=dims)
            for i in kron.points():
                lay = _fm_layout(step, M, i)
                offs, total = _offsets(adm, dims, i)
                assert total == len(lay)
                assert list(offs) == list(adm.ids_at_point(i))
                for x, start in offs.items():
                    if dims[x[1]]:
                        assert lay.index((x, 0)) == start
                    else:
                        assert start == sum(1 for pair in lay if pair[0] < x)

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_place_sums_overlapping_blocks(self, field):
        rows = ({"a": 0, "b": 1}, 3)
        cols = ({"c": 0, "d": 2}, 3)
        blocks = [("a", "c", mk(field, [1, 2], [0, 1])), ("b", "c", mk(field, [1, 0], [2, 2])),
                  ("a", "d", mk(field, [1], [0]))]
        got = _place(field, rows, cols, blocks)
        want = mk(field, [1, 2, 1], [1, 1, 0], [2, 2, 0])
        assert got == want and type(got.rows[2][2]) is type(field.zero)


# ---------------------------------------------------------------------------
# the X-step functor against the per-entry placement it replaced
# ---------------------------------------------------------------------------

def _reference_layout(step, dims):
    """The image basis layout and (id, m) index of an X step at every base
    point, as `AdmissibleData.layout` built them."""
    M = SimpleNamespace(dims=dims)
    lay = {i: _fm_layout(step, M, i) for i in step.src.points()}
    return lay, {i: {pair: n for n, pair in enumerate(lay[i])} for i in lay}


def _reference_apply_module_X(step, M):
    """The X-step functor on modules, one entry at a time through the index."""
    dit = step.src
    adm = step.data["adm"]
    full_map = step.data["full_map"]
    layouts, index = _reference_layout(step, tuple(M.dims))
    dims = [len(layouts[i]) for i in dit.points()]
    coef = M.coef
    arr = {}
    for w in dit.full:
        mat = Mat.zeros(coef, dims[w.t], dims[w.s])
        if w.name in adm.w0prime:
            for q in range(len(adm.s_points)):
                blk = adm.aact.get((w.name, q))
                if blk is None:
                    continue
                for r in range(blk.m):
                    for c in range(blk.n):
                        entry = blk.rows[r][c]
                        if entry == adm.rf.zero:
                            continue
                        em = _eval_entry(entry, M, q)
                        for m1 in range(M.dims[q]):
                            for m2 in range(M.dims[q]):
                                if em.rows[m1][m2] == coef.zero:
                                    continue
                                ri = index[w.t][((w.t, q, r), m1)]
                                ci = index[w.s][((w.s, q, c), m2)]
                                mat.rows[ri][ci] = mat.rows[ri][ci] + em.rows[m1][m2]
        else:
            for beta in adm.ids_at_point(w.s):
                for alpha in adm.ids_at_point(w.t):
                    blk = M.arr[full_map[(w.name, alpha, beta)]]
                    for m1 in range(M.dims[alpha[1]]):
                        for m2 in range(M.dims[beta[1]]):
                            v = blk.rows[m1][m2]
                            if v == coef.zero:
                                continue
                            ri = index[w.t][(alpha, m1)]
                            ci = index[w.s][(beta, m2)]
                            mat.rows[ri][ci] = mat.rows[ri][ci] + v
        arr[w.name] = mat
    xact = {}
    for i in dit.points():
        if not dit.is_rational(i):
            continue
        mat = Mat.zeros(coef, dims[i], dims[i])
        for q in range(len(adm.s_points)):
            blk = adm.xact.get((i, q))
            if blk is None:
                continue
            for r in range(blk.m):
                for c in range(blk.n):
                    entry = blk.rows[r][c]
                    if entry == adm.rf.zero:
                        continue
                    em = _eval_entry(entry, M, q)
                    for m1 in range(M.dims[q]):
                        for m2 in range(M.dims[q]):
                            if em.rows[m1][m2] == coef.zero:
                                continue
                            ri = index[i][((i, q, r), m1)]
                            ci = index[i][((i, q, c), m2)]
                            mat.rows[ri][ci] = mat.rows[ri][ci] + em.rows[m1][m2]
        xact[i] = mat
    return DitModule(dit, dims, arr, xact, coef, check=False)


def _reference_apply_morph_X(step, f, FM, FN):
    """The X-step functor on morphisms, one entry at a time through the index."""
    dit = step.src
    adm = step.data["adm"]
    dashed_map = step.data["dashed_map"]
    pstar = step.data["pstar_names"]
    coef = FM.coef
    lay_src, idx_src = _reference_layout(step, tuple(f.src.dims))
    _, idx_dst = _reference_layout(step, tuple(f.dst.dims))
    f0 = {}
    for i in dit.points():
        mat = Mat.zeros(coef, FN.dims[i], FM.dims[i])
        for (bid, m2) in lay_src[i]:
            q = bid[1]
            for m1 in range(f.dst.dims[q]):
                v = f.f0[q].rows[m1][m2]
                if v == coef.zero:
                    continue
                ri = idx_dst[i][(bid, m1)]
                ci = idx_src[i][(bid, m2)]
                mat.rows[ri][ci] = mat.rows[ri][ci] + v
        for j, (qs, qd, blocks) in enumerate(adm.p_elems):
            blk = blocks.get(i)
            if blk is None:
                continue
            g = f.f1[pstar[j]]
            for r in range(blk.m):
                for c in range(blk.n):
                    entry = blk.rows[r][c]
                    if entry == adm.rf.zero:
                        continue
                    if not (entry.is_poly() and entry.num.degree <= 0):
                        raise UnsupportedDecoration("non-scalar complement entry")
                    sc = FM.emb(entry.num.coeff(0))
                    for m1 in range(f.dst.dims[qd]):
                        for m2 in range(f.src.dims[qs]):
                            v = g.rows[m1][m2]
                            if v == coef.zero:
                                continue
                            ri = idx_dst[i][((i, qd, r), m1)]
                            ci = idx_src[i][((i, qs, c), m2)]
                            mat.rows[ri][ci] = mat.rows[ri][ci] + sc * v
        f0[i] = mat
    f1 = {}
    for v in dit.dashed:
        mat = Mat.zeros(coef, FN.dims[v.t], FM.dims[v.s])
        for beta in adm.ids_at_point(v.s):
            for alpha in adm.ids_at_point(v.t):
                g = f.f1[dashed_map[(v.name, alpha, beta)]]
                for m1 in range(f.dst.dims[alpha[1]]):
                    for m2 in range(f.src.dims[beta[1]]):
                        val = g.rows[m1][m2]
                        if val == coef.zero:
                            continue
                        ri = idx_dst[v.t][(alpha, m1)]
                        ci = idx_src[v.s][(beta, m2)]
                        mat.rows[ri][ci] = mat.rows[ri][ci] + val
        f1[v.name] = mat
    return DitMorphism(FM, FN, f0, f1)


def _assert_same_module(got, want):
    """The same dims, and every matrix with the same field, shape and
    entries of the same exact types (`_exact_mat`)."""
    assert got.dims == want.dims
    assert sorted(got.arr) == sorted(want.arr) and sorted(got.xact) == sorted(want.xact)
    for mats_got, mats_want in ((got.arr, want.arr), (got.xact, want.xact)):
        for k, m in mats_want.items():
            assert _exact_mat(mats_got[k]) == _exact_mat(m), k


def _assert_same_morphism(got, want):
    for maps_got, maps_want in ((got.f0, want.f0), (got.f1, want.f1)):
        assert sorted(maps_got) == sorted(maps_want)
        for k, m in maps_want.items():
            assert _exact_mat(maps_got[k]) == _exact_mat(m), k


def _layer_simples(dit):
    """The one-dimensional modules of a layer, an eigenvalue from the grid
    at each rational point; points the ideal kills have none."""
    out = []
    for i in dit.points():
        try:
            lam = _spectrum_value(dit, i) if dit.is_rational(i) else None
            out.append(DitModule.simple(dit, i, lam=lam))
        except InvalidModule:
            pass
    return out


def _random_maps(dit, M, N, rng):
    """A pair (f0, f1) from M to N with random entries, a morphism or not:
    both transports are formulas in f0 and f1."""
    def rand(m, n):
        out = Mat.zeros(M.coef, m, n)
        for row in out.rows:
            row[:] = [M.emb(dit.field.of(rng.randint(-2, 2))) for _ in range(n)]
        return out

    return DitMorphism(M, N, {i: rand(N.dims[i], M.dims[i]) for i in dit.points()},
                       {v.name: rand(N.dims[v.t], M.dims[v.s]) for v in dit.dashed})


def _assert_transport_matches_reference(step, mods, ref_module=_reference_apply_module_X,
                                        ref_morph=_reference_apply_morph_X, rng=None):
    """Every module of `mods` (over the step's target) and the hom-space
    basis of a few pairs of them go through the step as the reference
    (by default the X-step one) sends them; with `rng`, so do random maps
    (`_random_maps`) between those pairs and eight random pairs more."""
    images = []
    for M in mods:
        FM = step.apply_module(M)
        _assert_same_module(FM, ref_module(step, M))
        images.append(FM)
    few = sorted(range(len(mods)), key=lambda n: mods[n].total_dim)[:2] + list(range(len(mods)))[-2:]
    pairs = {pair: hom_space(step.tgt, mods[pair[0]], mods[pair[1]])
             for pair in itertools.product(dict.fromkeys(few), repeat=2)}
    if rng is not None:
        for _ in range(8):
            pairs.setdefault((rng.randrange(len(mods)), rng.randrange(len(mods))), [])
        for (a, b), maps in pairs.items():
            maps.append(_random_maps(step.tgt, mods[a], mods[b], rng))
    homs = 0
    for (a, b), maps in pairs.items():
        for h in maps:
            got = step.apply_morphism(h, images[a], images[b])
            _assert_same_morphism(got, ref_morph(step, h, images[a], images[b]))
            homs += 1
    return homs


# the DRIVER_FIXTURES layers whose reduce_to_minimal traces hold X steps
X_STEP_FIXTURES = ["a2", "a3", "a3_rel", "d4", "killed_loop", "kron", "square"]


class TestTransportReference:
    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    @pytest.mark.parametrize("name", X_STEP_FIXTURES)
    def test_driver_x_steps_match_reference(self, name, field):
        build, d, kw = DRIVER_FIXTURES[name]
        trace = reduce_to_minimal(build(field), d, **kw)
        mods = list(terminal_module_candidates(trace, kw.get("dim_cap", 2 * d)))
        steps = homs = 0
        for step in reversed(trace.steps):
            mods += _layer_simples(step.tgt)
            if step.kind in ("X", "unravel"):
                homs += _assert_transport_matches_reference(step, mods)
                steps += 1
            mods = [step.apply_module(M) for M in mods]
        assert steps and homs

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_unravel_steps_match_reference(self, field):
        dit = reduce_to_minimal(make_kron(field), 2, dim_cap=4).terminal
        point = next(i for i in dit.points() if dit.is_rational(i))
        x = Poly.x(field)
        for depth in (1, 2):
            step = step_unravel(dit, [point], {point: x - Poly.const(field, field.one)}, depth,
                                require_stellar=False)
            mods = _layer_simples(step.tgt) + list(enumerate_modules(step.tgt, 2))
            assert _assert_transport_matches_reference(step, mods)


# ---------------------------------------------------------------------------
# the pullback of a rewriting step against the per-kind transports it replaced
# ---------------------------------------------------------------------------

def _reference_apply_module_delete(step, M):
    dit = step.src
    pm = step.data["point_map"]
    dims = [0] * dit.n
    for old, new in pm.items():
        dims[old] = M.dims[new]
    arr = {}
    for a in dit.full:
        if a.s in pm and a.t in pm:
            arr[a.name] = M.arr[a.name]
        else:
            arr[a.name] = Mat.zeros(M.coef, dims[a.t], dims[a.s])
    xact = {i: M.xact[pm[i]] if i in pm else Mat.zeros(M.coef, 0, 0) for i in dit.rational_points}
    return DitModule(dit, dims, arr, xact, M.coef, check=False)


def _reference_apply_morph_delete(step, f, FM, FN):
    dit = step.src
    pm = step.data["point_map"]
    f0 = {}
    for i in dit.points():
        f0[i] = f.f0[pm[i]] if i in pm else Mat.zeros(FM.coef, FN.dims[i], FM.dims[i])
    f1 = {}
    for v in dit.dashed:
        if v.s in pm and v.t in pm:
            f1[v.name] = f.f1[v.name]
        else:
            f1[v.name] = Mat.zeros(FM.coef, FN.dims[v.t], FM.dims[v.s])
    return DitMorphism(FM, FN, f0, f1)


def _reference_apply_module_reg(step, M):
    dit = step.src
    arr = dict(M.arr)
    a = dit.arrow(step.data["arrow"])
    arr[a.name] = Mat.zeros(M.coef, M.dims[a.t], M.dims[a.s])
    return DitModule(dit, M.dims, arr, M.xact, M.coef, check=False)


def _reference_apply_morph_reg(step, f, FM, FN):
    dit = step.src
    f1 = dict(f.f1)
    sub = step.data["subst"]
    varr = dit.arrow(step.data["dashed"])
    zero = Mat.zeros(FM.coef, FN.dims[varr.t], FM.dims[varr.s])
    f1[varr.name] = zero if sub.is_zero() else f.f1_eval(sub).get((varr.s, varr.t), zero)
    return DitMorphism(FM, FN, dict(f.f0), f1)


def _reference_apply_module_q(step, M):
    dit = step.src
    arr = dict(M.arr)
    for nm in step.data["arrows"]:
        a = dit.arrow(nm)
        arr[nm] = Mat.zeros(M.coef, M.dims[a.t], M.dims[a.s])
    return DitModule(dit, M.dims, arr, M.xact, M.coef, check=False)


def _reference_apply_module_a(step, M):
    dit = step.src
    if "arrows" in step.data:
        return DitModule(dit, M.dims, M.arr, M.xact, M.coef, check=False)
    loop, pt = step.data["loop"], step.data["point"]
    arr = dict(M.arr)
    arr[loop] = M.xact[pt]
    xact = {i: m for i, m in M.xact.items() if i != pt}
    return DitModule(dit, M.dims, arr, xact, M.coef, check=False)


def _reference_apply_morph_same_maps(step, f, FM, FN):
    return DitMorphism(FM, FN, dict(f.f0), dict(f.f1))


# the per-kind transports of the rewriting steps, (module, morphism)
REWRITE_REFERENCES = {
    "d": (_reference_apply_module_delete, _reference_apply_morph_delete),
    "r": (_reference_apply_module_reg, _reference_apply_morph_reg),
    "q": (_reference_apply_module_q, _reference_apply_morph_same_maps),
    "a": (_reference_apply_module_a, _reference_apply_morph_same_maps),
}


def _rewrite_case(step):
    """The kind of rewriting a step does, as the reference test counts it:
    "r0" is a regularization whose substituted generator is 0."""
    if step.kind == "r":
        return "r0" if step.data["subst"].is_zero() else "r"
    if step.kind == "a":
        return "loop" if "loop" in step.data else "a"
    return step.kind


def _assert_rewrite_matches_reference(step):
    """The simples and the modules of total dimension <= 2 over the step's
    target, and Hom bases and random maps between a few of them, against
    the reference; and apart from those, the k(x)-modules of its rational
    points, as the transfer bimodule sends them, and their maps."""
    from ditred.generic import q_module

    refs = REWRITE_REFERENCES[step.kind]
    rng = random.Random(26)
    mods = _layer_simples(step.tgt) + list(enumerate_modules(step.tgt, 2))
    homs = _assert_transport_matches_reference(step, mods, *refs, rng=rng)
    for i in step.tgt.rational_points:
        homs += _assert_transport_matches_reference(step, [q_module(step.tgt, i)], *refs, rng=rng)
    return homs



class TestRewriteTransportReference:
    """The pullback along a rewriting step's substitution against the
    per-kind transports it replaced: the same dims, matrices and entry
    types on modules, the same f0 and f1 on Hom bases."""

    @pytest.mark.parametrize("field,fld", [(F2, "fp:2"), (F3, "fp:3"), (QQ, "q")], ids=["F2", "F3", "Q"])
    def test_driver_and_benchmark_steps(self, field, fld):
        traces = list(_driver_traces(field).values()) + _benchmark_traces(fld)
        cases = {}
        homs = 0
        for trace in traces:
            for step in trace.steps:
                if step.kind in REWRITE_REFERENCES:
                    homs += _assert_rewrite_matches_reference(step)
                    case = _rewrite_case(step)
                    cases[case] = cases.get(case, 0) + 1
        # arrow absorption is reached only through ADDITIVITY_STEPS
        assert set(cases) == {"d", "r", "r0", "q", "loop"} and homs, cases

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    @pytest.mark.parametrize("kind", sorted(k for k in ADDITIVITY_STEPS if k not in ("X", "unravel")))
    def test_additivity_steps(self, kind, field):
        step = ADDITIVITY_STEPS[kind](field)
        assert _assert_rewrite_matches_reference(step)

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_deletion_moving_a_rational_point(self, field):
        """No deletion of the traces moves a rational point; this one
        moves it from 1 to 0 and keeps a loop and arrows at it."""
        dit = Ditalgebra(field, [None, Poly.x(field), None],
                         [Arrow("w", 0, 1, 0), Arrow("u", 1, 2, 0), Arrow("c", 1, 1, 0)], [Arrow("v", 1, 2, 1)], {})
        assert _assert_rewrite_matches_reference(step_delete(dit, [1, 2]))


# ---------------------------------------------------------------------------
# the reduced layer's derivation against the per-pair construction it replaced
# ---------------------------------------------------------------------------

class _reference_builder:
    """The per-pair construction of the reduced layer's derivation table
    and ideal that `_XBuilder` replaced: every entry (alpha, beta) on its
    own, sigma walked again for each pair.  It reads the new generator
    names and the path algebra off a finished builder `b`."""

    def __init__(self, b):
        self.b = b
        self.dit, self.adm, self.alg, self.rf = b.dit, b.adm, b.alg, b.rf
        self.delta = self._build_delta()
        self.ideal = self._build_ideal()

    def _stationary(self, q, value):
        if value.is_zero():
            return self.alg.zero()
        if not value.is_poly():
            raise UnsupportedDecoration("non-polynomial stationary coefficient")
        out = self.alg.zero()
        for e in range(value.num.degree + 1):
            c = value.num.coeff(e)
            if c == self.dit.field.zero:
                continue
            term = self.alg.e(q) if e == 0 else self.alg.x(q, e)
            out = out + term.scale(c)
        return out

    def gen(self, w, alpha, beta):
        names = self.b.full_map if self.dit.arrow(w).deg == 0 else self.b.dashed_map
        return self.alg.gen(names[(w, alpha, beta)])

    def gen_pstar(self, j):
        return self.alg.gen(self.b.pstar_names[j])

    def lam(self, alpha):
        out = []
        i_a, q_a, t_a = alpha
        for j, (qs, qd, blocks) in enumerate(self.adm.p_elems):
            blk = blocks.get(i_a)
            if qd != q_a or blk is None:
                continue
            for beta in self.adm.ids_at(i_a, qs):
                c = blk.rows[t_a][beta[2]]
                if c != self.rf.zero:
                    out.append((j, beta, c))
        return out

    def rho(self, beta):
        out = []
        i_b, q_b, t_b = beta
        for j, (qs, qd, blocks) in enumerate(self.adm.p_elems):
            blk = blocks.get(i_b)
            if qs != q_b or blk is None:
                continue
            for alpha in self.adm.ids_at(i_b, qd):
                c = blk.rows[alpha[2]][t_b]
                if c != self.rf.zero:
                    out.append((alpha, j, c))
        return out

    def sigma(self, alpha, beta, el):
        out = self.alg.zero()
        for key, c in el.terms.items():
            out = out + self.sigma_key(alpha, beta, key).scale(c)
        return out

    def sigma_key(self, alpha, beta, key):
        start, arrows, exps = key
        if beta[0] != start:
            return self.alg.zero()
        units = [("x", start, exps[0])] if exps[0] else []
        for j, nm in enumerate(arrows):
            units.append(("g", nm))
            if exps[j + 1]:
                units.append(("x", self.dit.arrow(nm).t, exps[j + 1]))
        return self._sigma_walk(alpha, {beta: self.rf.one}, units, 0)

    def _apply_b_unit(self, vec, unit):
        adm = self.adm
        out = {}
        if unit[0] == "x":
            _, i, e = unit
            for (ii, q, t), c in vec.items():
                if ii != i:
                    continue
                m = adm.xact[(i, q)].pow(e)
                for r in range(m.m):
                    v = m.rows[r][t]
                    if v != self.rf.zero:
                        out[(i, q, r)] = out.get((i, q, r), self.rf.zero) + v * c
        else:
            a = self.dit.arrow(unit[1])
            for (ii, q, t), c in vec.items():
                m = adm.aact.get((unit[1], q))
                if ii != a.s or m is None:
                    continue
                for r in range(m.m):
                    v = m.rows[r][t]
                    if v != self.rf.zero:
                        out[(a.t, q, r)] = out.get((a.t, q, r), self.rf.zero) + v * c
        return out

    def _sigma_walk(self, alpha, vec, units, idx):
        while idx < len(units):
            unit = units[idx]
            if unit[0] == "x" or unit[1] in self.b.w0prime:
                vec = self._apply_b_unit(vec, unit)
                if not vec:
                    return self.alg.zero()
                idx += 1
                continue
            arr = self.dit.arrow(unit[1])
            total = self.alg.zero()
            for bid, coeff in vec.items():
                right = self._stationary(bid[1], coeff)
                if right.is_zero():
                    continue
                for gid in self.adm.ids_at_point(arr.t):
                    rest = self._sigma_walk(alpha, {gid: self.rf.one}, units, idx + 1)
                    if not rest.is_zero():
                        total = total + rest * self.gen(unit[1], gid, bid) * right
            return total
        return self._stationary(alpha[1], vec.get(alpha, self.rf.zero))

    def _build_delta(self):
        adm = self.adm
        delta = {}
        for w in self.b.w0second + list(self.dit.dashed):
            dw = self.dit.delta_of(w.name)
            sign = self.dit.field.of(-1) if w.deg == 0 else self.dit.field.one
            names = self.b.full_map if w.deg == 0 else self.b.dashed_map
            for beta in adm.ids_at_point(w.s):
                for alpha in adm.ids_at_point(w.t):
                    acc = self.alg.zero()
                    for (j, beta2, c) in self.lam(alpha):
                        acc = acc + self._stationary(alpha[1], c) * self.gen_pstar(j) * self.gen(w.name, beta2, beta)
                    if not dw.is_zero():
                        acc = acc + self.sigma(alpha, beta, dw)
                    for (alpha2, j, c) in self.rho(beta):
                        term = self.gen(w.name, alpha, alpha2) * self._stationary(alpha2[1], c) * self.gen_pstar(j)
                        acc = acc + term.scale(sign)
                    if not acc.is_zero():
                        delta[names[(w.name, alpha, beta)]] = acc
        for jg, name in enumerate(self.b.pstar_names):
            acc = self.alg.zero()
            for i1 in range(len(adm.p_elems)):
                for i2 in range(len(adm.p_elems)):
                    prod = adm.p_compose(i1, i2)
                    if prod is None:
                        continue
                    for (idx, c) in adm.p_coords(prod):
                        if idx == jg:
                            mid = self._stationary(adm.p_elems[i2][0], c)
                            acc = acc + self.gen_pstar(i2) * mid * self.gen_pstar(i1)
            if not acc.is_zero():
                delta[name] = acc
        return delta

    def _build_ideal(self):
        gens = []
        for h in self.dit.ideal:
            if h.is_zero():
                continue
            for beta in self.adm.ids:
                for alpha in self.adm.ids:
                    img = self.sigma(alpha, beta, h)
                    if not img.is_zero():
                        gens.append(img)
        return gens


@pytest.fixture
def built_layers(monkeypatch):
    """Every `_XBuilder` that the test builds, in order, each with the
    layer its `target` built (None when it built none)."""
    from ditred import reduction

    seen = []

    class Recording(reduction._XBuilder):
        tgt = None  # the target, once `target` has built it

        def __init__(self, dit, adm):
            super().__init__(dit, adm)
            seen.append(self)

        def target(self):
            self.tgt = super().target()
            return self.tgt

    monkeypatch.setattr(reduction, "_XBuilder", Recording)
    return seen


def _assert_matches_reference(builders):
    assert builders
    for b in builders:
        ref = _reference_builder(b)
        assert sorted(b.delta) == sorted(ref.delta)
        for name, value in ref.delta.items():
            assert b.delta[name] == value, name
        assert b.ideal == ref.ideal
        _assert_same_layer_terms(b)


def make_pencil(field=F2):
    return Ditalgebra(field, [None, None],
                      [Arrow("a", 0, 1, 0), Arrow("b", 0, 1, 0), Arrow("c", 0, 1, 0)], [], {})


def make_rational_edge(field=F2):
    return Ditalgebra(field, [None, Poly.one(field)], [Arrow("w", 0, 1, 0)], [], {})


# the driver runs of TestDriverBreadth and the Kronecker layer; make_reg
# reduces by regularization alone and builds no reduced layer
REFERENCE_DRIVER_RUNS = {
    "a3": (make_a3, 3, {"budget": 80, "dim_cap": 4}),
    "a3_rel": (make_a3_rel, 3, {"budget": 80, "dim_cap": 4}),
    "d4": (make_d4, 3, {"budget": 120, "dim_cap": 4}),
    "square": (make_square, 2, {"budget": 200, "dim_cap": 4}),
    "pencil": (make_pencil, 2, {"budget": 60, "dim_cap": 4}),
    "rational_edge": (make_rational_edge, 1, {"budget": 25, "dim_cap": 2}),
    "kron": (make_kron, 2, {"dim_cap": 4}),
}


class TestReducedLayerReference:
    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    @pytest.mark.parametrize("name", sorted(REFERENCE_DRIVER_RUNS))
    def test_driver_steps_match_reference(self, name, field, built_layers):
        build, d, kw = REFERENCE_DRIVER_RUNS[name]
        try:
            reduce_to_minimal(build(field), d, **kw)
        except (BudgetExceeded, WildnessEncountered):
            assert name in ("pencil", "rational_edge")
        _assert_matches_reference(built_layers)

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    @pytest.mark.parametrize("layer", ["edge", "path", "kron_terminal"])
    def test_unravel_steps_match_reference(self, layer, field, built_layers):
        if layer == "edge":
            dit, point = make_rational_edge(field), 1
        elif layer == "path":
            dit = Ditalgebra(field, [None, Poly.one(field), None],
                             [Arrow("w", 0, 1, 0), Arrow("u", 1, 2, 0)], [], {})
            point = 1
        else:
            dit = reduce_to_minimal(make_kron(field), 2, dim_cap=4).terminal
            point = next(i for i in dit.points() if dit.is_rational(i))
            built_layers.clear()
        x = Poly.x(field)
        for lam in (0, 1):
            for depth in (1, 2, 3):
                step_unravel(dit, [point], {point: x - Poly.const(field, field.of(lam))}, depth,
                             require_stellar=False)
        assert len(built_layers) == 6
        _assert_matches_reference(built_layers)

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_runs_of_reduced_span_letters_match_reference(self, field):
        # the run b*a of the reduced span sums two products that cancel:
        # (1 -1).(1 1)^T = 0 at the ideal generators b*a and c*b*a
        from ditred.reduction import _XBuilder

        arrows = [Arrow("a", 0, 1, 0), Arrow("b", 1, 2, 0), Arrow("c", 2, 3, 0)]
        path = Ditalgebra(field, [None] * 4, arrows, [], {}).alg
        ba = path.gen("b") * path.gen("a")
        dit = Ditalgebra(field, [None] * 4, arrows, [], {}, ideal=[ba, path.gen("c") * ba])
        B = b_subalgebra(dit, ("a", "b"))
        M = DitModule(B, (1, 2, 1, 0), {"a": mk(field, [1], [1]), "b": mk(field, [1, -1])})
        adm = build_admissible_case1(dit, ("a", "b"), [M, DitModule.simple(B, 3)])
        built = _XBuilder(dit, adm)
        assert built.ideal == []
        _assert_matches_reference([built])



# ---------------------------------------------------------------------------
# the key-level matrices against the PathElement matrices they replaced
# ---------------------------------------------------------------------------

def _matmul(A, B):
    """Product of two matrices with PathElement entries, each a dict
    (row id, column id) -> entry; zero entries are dropped."""
    rows_of_b = {}
    for (m, c), b in B.items():
        rows_of_b.setdefault(m, []).append((c, b))
    out = {}
    for (r, m), a in A.items():
        for c, b in rows_of_b.get(m, ()):
            ab = a * b
            out[(r, c)] = out[(r, c)] + ab if (r, c) in out else ab
    return {k: v for k, v in out.items() if v.terms}


def _matsum(mats):
    """Sum of matrices in the form `_matmul` takes; zero entries are dropped."""
    out = {}
    for M in mats:
        for k, v in M.items():
            out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if v.terms}


def _ref_stationary(b, q, value):
    """A scalar of the q-th component as a stationary PathElement."""
    if not value.is_poly():
        raise UnsupportedDecoration("non-polynomial stationary coefficient")
    terms = {}
    for e, c in enumerate(value.num.coeffs):
        if c:
            if e and b.base[q] is None:
                raise UnsupportedDecoration(f"point {q} is trivial")
            terms[(q, (), (e,))] = c
    return PathElement._own(b.alg, terms)


def _ref_gens(b, name):
    """The matrix W of new generators of the old generator `name`."""
    names = b.full_map if b.dit.arrow(name).deg == 0 else b.dashed_map
    return {(alpha, beta): b.alg.gen(nm) for (w, alpha, beta), nm in names.items() if w == name}


def _ref_duals(b, i):
    """D_i with PathElement entries, summed j by j."""
    adm = b.adm
    D = {}
    for j, (qs, qd, blocks) in enumerate(adm.p_elems):
        blk = blocks.get(i)
        if blk is None:
            continue
        pj = b.alg.gen(b.pstar_names[j])
        for gamma in adm.ids_at(i, qd):
            for eta in adm.ids_at(i, qs):
                c = blk.rows[gamma[2]][eta[2]]
                if c:
                    term = _ref_stationary(b, qd, c) * pj
                    D[(gamma, eta)] = D[(gamma, eta)] + term if (gamma, eta) in D else term
    return D


def _reference_sigma_path(b, key):
    """`_XBuilder._sigma_path` as it multiplied every run into the product,
    the unit runs of the stationary units e_q too."""
    start, arrows, exps = key
    letters = [(start, exps[0])] if exps[0] else []
    for nm, e in zip(arrows, exps[1:]):
        letters.append(nm)
        if e:
            letters.append((b.dit.arrow(nm).t, e))

    def unit_run(i):
        return {(g, g): b.rf.one for g in b.adm.ids_at_point(i)}

    def stationaries(run):
        return {(r, col): _ref_stationary(b, r[1], v) for (r, col), v in run.items()}

    run, prod = unit_run(start), None
    for letter in letters:
        if not run:
            return {}
        if isinstance(letter, tuple) or letter in b.w0prime:
            run = b._act(run, letter)
            continue
        step = _matmul(_ref_gens(b, letter), stationaries(run))
        prod = step if prod is None else _matmul(step, prod)
        run = unit_run(b.dit.arrow(letter).t)
    last = stationaries(run)
    return last if prod is None else _matmul(last, prod)


def _reference_sigma(b, el):
    return _matsum({pos: v.scale(c) for pos, v in _reference_sigma_path(b, key).items()}
                   for key, c in el.terms.items())


def _reference_layer(b):
    """The derivation table and the ideal of the reduced layer as
    `_XBuilder` built them from PathElement matrices, `_matmul` for each
    product and `_matsum` for each sum."""
    adm, alg = b.adm, b.alg
    delta = {}
    for w in b.w0second + list(b.dit.dashed):
        W = _ref_gens(b, w.name)
        if not W:
            continue
        sign = b.dit.field.of(-1) if w.deg == 0 else b.dit.field.one
        right = _matmul(W, _ref_duals(b, w.s))
        new = _matsum([_matmul(_ref_duals(b, w.t), W), _reference_sigma(b, b.dit.delta_of(w.name)),
                       {k: v.scale(sign) for k, v in right.items()}])
        names = b.full_map if w.deg == 0 else b.dashed_map
        for beta in adm.ids_at_point(w.s):
            for alpha in adm.ids_at_point(w.t):
                if (alpha, beta) in new:
                    delta[names[(w.name, alpha, beta)]] = new[(alpha, beta)]
    pstar = [alg.gen(nm) for nm in b.pstar_names]
    co = [alg.zero() for _ in pstar]
    for i1 in range(len(pstar)):
        for i2 in range(len(pstar)):
            prod = adm.p_compose(i1, i2)
            if prod is None:
                continue
            mid = adm.p_elems[i2][0]
            for idx, c in adm.p_coords(prod):
                co[idx] = co[idx] + pstar[i2] * _ref_stationary(b, mid, c) * pstar[i1]
    for name, value in zip(b.pstar_names, co):
        if not value.is_zero():
            delta[name] = value
    ideal = []
    for h in b.dit.ideal:
        if h.is_zero():
            continue
        img = _reference_sigma(b, h)
        for beta in adm.ids:
            for alpha in adm.ids:
                if (alpha, beta) in img:
                    ideal.append(img[(alpha, beta)])
    return delta, ideal


def _typed_entries(mat):
    """A matrix's entries by position, each its `typed_terms`; an entry is
    a term dict or a PathElement."""
    return sorted((pos, typed_terms(v)) for pos, v in mat.items())


def _assert_same_layer_terms(b):
    """The builder's derivation table and ideal equal the PathElement-matrix
    reference term by term: the same names in the same order, the same
    generators in the same order, and in each value the same keys with
    the same coefficients and coefficient types (`typed_terms`)."""
    delta, ideal = _reference_layer(b)
    assert list(b.delta) == list(delta)
    for name, value in delta.items():
        assert typed_terms(b.delta[name]) == typed_terms(value), name
    assert [typed_terms(g) for g in b.ideal] == [typed_terms(g) for g in ideal]
    return delta, ideal


def _assert_sigma_matches_reference(builders):
    elements = 0
    for b in builders:
        els = [b.dit.delta_of(w.name) for w in b.w0second + list(b.dit.dashed)] + list(b.dit.ideal)
        for el in els:
            for key in el.terms:
                assert _typed_entries(b._sigma_path(key)) == _typed_entries(_reference_sigma_path(b, key))
            assert _typed_entries(b.sigma(el)) == _typed_entries(_reference_sigma(b, el))
            elements += 1
    return elements


class TestSigmaReference:
    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_driver_and_unravel_steps(self, field, built_layers):
        traces = _driver_traces(field)
        assert any(s.kind == "unravel" for t in traces.values() for s in t.steps)
        assert _assert_sigma_matches_reference(built_layers)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_layers(self, seed, built_layers):
        for graph, fld, d, _ in ORACLE_JOBS:
            text, _ = _load_jobs().layer_text(graph, fld, random.Random(seed))
            reduce_to_minimal(ditalgebra_from_text(text), d)
        assert _assert_sigma_matches_reference(built_layers)


def _random_admissible_layer(field, rng):
    """A layer reduced at hand-made admissible data that the driver never
    builds: reduced-span blocks and x-actions with zeros and polynomial
    entries (so a run's stationaries have several x-powers and a row
    reaches one middle id from several columns), two reduced letters a, a2 with
    the same ends (so the images of twin paths share keys and cancel),
    dual blocks with x at the rational component, and derivation values
    and ideal generators drawn from every short path."""
    x, one = Poly.x(field), Poly.one(field)
    consts = [field.zero, field.one, field.of(-1), field.of(2)]

    def scalar(rational):
        c = Poly.const(field, rng.choice(consts))
        if rational and rng.random() < 0.6:
            c = c + x * Poly.const(field, rng.choice(consts[1:]))
        return RatFunc(c)

    def block(m, n, rational):
        return Mat(FracField(field), [[scalar(rational) for _ in range(n)] for _ in range(m)])

    base = [None, one, one]
    reduced = [Arrow("a", 0, 1, 0), Arrow("a2", 0, 1, 0), Arrow("b", 1, 2, 0), Arrow("c", 1, 1, 0)]
    full = reduced + [Arrow("u", 1, 2, 0), Arrow("w", 0, 2, 0)]
    dashed = [Arrow("v", 0, 1, 1), Arrow("y", 1, 2, 1), Arrow("z", 0, 2, 1), Arrow("t", 1, 1, 1)]
    alg = PathAlgebra(field, base, full + dashed)
    keys = random_keys(alg, rng, 3)

    def element(deg, s=None, t=None):
        picked = [k for k in keys if k[1] and alg.key_degree(k) == deg
                  and (s is None or (k[0], alg.key_end(k)) == (s, t))]
        terms = {k: rng.choice(consts[1:]) for k in rng.sample(picked, min(len(picked), rng.randint(2, 9)))}
        for (start, arrows, exps), c in list(terms.items()):
            if "a" in arrows:
                terms[(start, tuple("a2" if nm == "a" else nm for nm in arrows), exps)] = rng.choice(consts[1:])
        return PathElement(alg, terms)

    # only w has a derivation; every letter of its value has none, so
    # delta^2 = 0 holds term by term
    delta = {"w": element(1, 0, 2)}
    ideal = [element(0) for _ in range(2)]
    dit = Ditalgebra(field, base, full, dashed, delta, ideal)
    rf = FracField(field)
    s_points = [SPoint("[0]", None), SPoint("[1]", one), SPoint("[2]", None)]
    ranks = {(0, 0): 2, (0, 2): 1, (1, 0): 1, (1, 1): 2, (2, 1): 2, (2, 2): 1}
    xact = {(1, 0): block(1, 1, False), (1, 1): block(2, 2, True),
            (2, 1): block(2, 2, True), (2, 2): block(1, 1, False)}
    aact = {("a", 0): block(1, 2, False), ("a2", 0): block(1, 2, False),
            ("b", 1): block(2, 2, True), ("c", 0): block(1, 1, False), ("c", 1): block(2, 2, True)}
    # no two p-elements share a base point, so every product p_i p_j is 0
    p_elems = [(0, 1, {1: block(2, 1, True)}), (1, 2, {2: block(1, 2, False)}), (2, 0, {0: block(2, 1, False)})]
    adm = AdmissibleData(dit, ("a", "a2", "b", "c"), s_points, ranks, xact, aact, p_elems, "test")
    assert all(adm.p_compose(i, j) is None for i in range(3) for j in range(3))
    return dit, adm, keys


class TestKeyLevelMatricesOnRandomLayers:
    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_against_path_element_matrices(self, field):
        from ditred.reduction import _XBuilder

        rng = random.Random(2701)
        paths = cancelled = 0
        for _ in range(12):
            dit, adm, keys = _random_admissible_layer(field, rng)
            b = _XBuilder(dit, adm)
            _assert_same_layer_terms(b)
            assert _assert_sigma_matches_reference([b])
            for key in keys:
                assert _typed_entries(b._sigma_path(key)) == _typed_entries(_reference_sigma_path(b, key))
            alg = dit.alg
            for _ in range(20):
                picked = rng.sample(keys, rng.randint(2, 10))
                el = PathElement(alg, {k: field.of(rng.choice([1, -1, 2])) for k in picked})
                want = _reference_sigma(b, el)
                assert _typed_entries(b.sigma(el)) == _typed_entries(want)
                parts = [_reference_sigma(b, PathElement(alg, {k: c})) for k, c in el.terms.items()]
                paths += len(picked)
                cancelled += sum(len(v.terms) for p in parts for v in p.values()) > \
                    sum(len(v.terms) for v in want.values())
        assert paths > 1000 and cancelled > 20


_SEEDED_LAYERS = []


def _seeded_layers(fld):
    """The seeded driver inputs over one field: the benchmark generator's
    layers over K, A3, A4 and D4, over Q, F2 and F3, six for each
    endolength d = 1, 2, 3, all 216 drawn from one rng seeded 25."""
    if not _SEEDED_LAYERS:
        rng = random.Random(25)
        _SEEDED_LAYERS.extend((f, _load_jobs().layer_text(graph, f, rng)[0], d)
                              for graph in ("K", "A3", "A4", "D4") for f in ("q", "fp:2", "fp:3")
                              for d in (1, 2, 3) for _ in range(6))
    return [(text, d) for f, text, d in _SEEDED_LAYERS if f == fld]


class TestSeededTraceLayers:
    """Every reduced layer of the seeded driver traces against the layer
    the PathElement-matrix reference builds from the same generators: the
    same text, and the same terms and types of the derivation and the
    ideal and of `apply_delta` on every generator and on its value."""

    @pytest.mark.parametrize("field,fld", [(F2, "fp:2"), (F3, "fp:3"), (QQ, "q")], ids=["F2", "F3", "Q"])
    def test_every_reduced_layer(self, field, fld, built_layers):
        from ditred.errors import DitredError

        layers = _seeded_layers(fld)
        assert len(layers) == 72
        for text, d in layers:
            try:
                reduce_to_minimal(ditalgebra_from_text(text), d)
            except DitredError:
                pass  # the layers built before the refusal are still checked
        targets = 0
        for b in built_layers:
            delta, ideal = _assert_same_layer_terms(b)
            if b.tgt is None:
                continue
            ref = Ditalgebra(field, b.base, b.full_arrows, b.dashed_arrows, delta, ideal,
                             labels=[sp.label for sp in b.adm.s_points])
            assert ditalgebra_to_text(b.tgt) == ditalgebra_to_text(ref)
            for name in ref.alg.arrows:
                got, want = b.tgt.alg.gen(name), ref.alg.gen(name)
                assert typed_terms(b.tgt.apply_delta(got)) == typed_terms(ref.apply_delta(want))
                got, want = b.tgt.delta_of(name), ref.delta_of(name)
                assert typed_terms(b.tgt.apply_delta(got)) == typed_terms(ref.apply_delta(want))
            targets += 1
        assert targets > 100


def _zero_free(el):
    return all(c for c in el.terms.values())


class TestTrustedConstructors:
    """The constructors that build their elements with `PathElement._own`
    never hand it a zero coefficient."""

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_no_zero_coefficients(self, field, built_layers):
        traces = _driver_traces(field)
        layers = [t.source for t in traces.values()] + [s.tgt for t in traces.values() for s in t.steps]
        cancelled = 0
        for dit in layers:
            alg = dit.alg
            els = [alg.zero()] + [alg.e(i) for i in dit.points()] + [alg.gen(nm) for nm in alg.arrows]
            for d in list(dit.delta.values()) + list(dit.ideal):
                dd = alg.delta(d)
                cancelled += bool(d.terms) and not dd.terms
                els += [dd] + [alg.delta_of_key(k) for k in d.terms]
            assert all(map(_zero_free, els))
        assert cancelled  # delta^2 = 0 drops every cancelled key
        assert built_layers
        x = Poly.x(field)
        for b in built_layers:
            values = [b.rf.zero, b.rf.one, b.rf.of(-1)]
            values += [c for _, _, blocks in b.adm.p_elems for m in blocks.values() for r in m.rows for c in r]
            for q, g in enumerate(b.base):
                vals = values + [RatFunc(x * x + Poly.one(field))] if g is not None else values
                for v in vals:
                    if v.is_poly() and (g is not None or v.num.degree <= 0):
                        assert all(c for _, c in b._stationary(q, v))


# ---------------------------------------------------------------------------
# the spliced substitution and δ against the kernels through `mul_key`
# ---------------------------------------------------------------------------

def _ref_substitute(el, target, arrow_map, point_map=None):
    """`substitute` before letters were renamed at key level: every path
    multiplied out letter by letter (by the product through `mul_key`),
    and the images added one path at a time."""
    if point_map is None:
        point_map = {i: i for i in range(target.n)}
    out = target.zero()
    for key, c in el.terms.items():
        start, arrows, exps = key
        p0 = point_map.get(start)
        if p0 is None:
            continue
        acc = target.x(p0, exps[0]) if exps[0] else target.e(p0)
        dead = False
        for j, name in enumerate(arrows):
            img = arrow_map.get(name)
            if img is None or (isinstance(img, PathElement) and img.is_zero()):
                dead = True
                break
            acc = ref_path_mul(img, acc)
            e = exps[j + 1]
            if e:
                p = point_map.get(el.alg.arrows[name].t)
                if p is None:
                    dead = True
                    break
                acc = ref_path_mul(target.x(p, e), acc)
        if dead or acc.is_zero():
            continue
        out = out + acc.scale(c)
    return out


@pytest.fixture
def substitutions(monkeypatch):
    """Every call of `substitute` that the test makes, with its result."""
    from ditred import reduction

    seen = []
    real = reduction.substitute

    def recording(el, target, arrow_map, point_map=None, renamed=None):
        out = real(el, target, arrow_map, point_map, renamed)
        seen.append((el, target, dict(arrow_map), point_map, out))
        return out

    monkeypatch.setattr(reduction, "substitute", recording)
    return seen


def _benchmark_traces(fld):
    """Driver traces of seeded benchmark layers over one field."""
    out = []
    for seed in (0, 1):
        for graph, d in (("K", 2), ("A3", 2), ("A4", 2), ("D4", 3)):
            text, _ = _load_jobs().layer_text(graph, fld, random.Random(seed))
            out.append(reduce_to_minimal(ditalgebra_from_text(text), d))
    return out


class TestSplicedKernelsOnTraces:
    """On every layer and step of the driver's traces, the substitution
    images and the δ of every generator and derivation value equal the
    kernels through `mul_key` they replaced, with the same coefficient
    types."""

    @pytest.mark.parametrize("field,fld", [(F2, "fp:2"), (F3, "fp:3"), (QQ, "q")], ids=["F2", "F3", "Q"])
    def test_substitution_images(self, field, fld, substitutions):
        traces = list(_driver_traces(field).values()) + _benchmark_traces(fld)
        assert len(substitutions) > 100
        kinds = {"renamed": 0, "multiplied": 0}
        for el, target, amap, pm, got in substitutions:
            assert typed_terms(got) == typed_terms(_ref_substitute(el, target, amap, pm))
            own = {nm for nm, img in amap.items()
                   if img is not None and nm in target.arrows and img == target.gen(nm)}
            for key in el.terms:
                kinds["renamed" if own.issuperset(key[1]) else "multiplied"] += 1
        assert kinds["renamed"] > kinds["multiplied"] > 100
        for trace in traces:
            for dit in [trace.source] + [s.tgt for s in trace.steps]:
                alg = dit.alg
                for name in alg.arrows:
                    gen, value = alg.gen(name), dit.delta_of(name)
                    assert typed_terms(alg.delta(gen)) == typed_terms(ref_delta(alg, gen))
                    assert typed_terms(alg.delta(value)) == typed_terms(ref_delta(alg, value))
                    for key in value.terms:
                        want = ref_delta(alg, PathElement(alg, {key: field.one}))
                        assert typed_terms(alg.delta_of_key(key)) == typed_terms(want)

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    def test_random_substitutions(self, field):
        """Letters kept, renamed onto moved points, sent to a scaled or a
        foreign generator, to a sum of paths, killed, or through a killed
        point, on random elements whose images cancel."""
        rng = random.Random(2503)
        one = field.one
        two = one + one if field.p != 2 else one  # a unit in every field
        g = Poly.x(field) + Poly.one(field)
        src = PathAlgebra(field, [None, g, None, None], [
            Arrow("a", 0, 1, 0), Arrow("b", 1, 2, 0), Arrow("c", 1, 1, 0), Arrow("d", 2, 3, 0),
            Arrow("e", 0, 1, 0), Arrow("v", 0, 1, 1), Arrow("w", 1, 2, 1), Arrow("u", 1, 1, 1),
            Arrow("z", 2, 3, 1)])
        # points 0, 1, 2 move to 2, 0, 1; point 3 dies
        pm = {0: 2, 1: 0, 2: 1}
        tgt = PathAlgebra(field, [g, None, None], [
            Arrow("a", 2, 0, 0), Arrow("b", 0, 1, 0), Arrow("c", 0, 0, 0), Arrow("e", 2, 0, 0),
            Arrow("v", 2, 0, 1), Arrow("w", 0, 1, 1), Arrow("u", 0, 0, 1)])
        t = {nm: tgt.gen(nm) for nm in tgt.arrows}
        amap = {"a": t["a"], "b": t["b"], "w": t["w"], "d": None, "z": None,
                "c": t["c"].scale(two) + tgt.x(0),
                "e": t["a"],  # a foreign generator with the same ends
                "v": t["v"] + t["u"] * t["e"],
                "u": t["u"].scale(-one) if field.p != 2 else t["u"] * t["c"]}
        keys = random_keys(src, rng, 3)
        kept = [k for k in keys if k[1] and {"a", "b", "w"}.issuperset(k[1])]
        pool = [one, -one, two]
        renamed = multiplied = cancelled = 0
        for _ in range(300):
            picked = rng.sample(kept, rng.randint(1, len(kept))) + rng.sample(keys, rng.randint(1, 8))
            terms = {k: rng.choice(pool) for k in picked}
            for (start, arrows, exps), c in list(terms.items()):
                if "a" in arrows and rng.random() < 0.5:
                    # the same path through e: its image cancels this one's a-part
                    twin = (start, tuple("e" if nm == "a" else nm for nm in arrows), exps)
                    terms[twin] = -c
            el = PathElement(src, terms)
            got, want = substitute(el, tgt, amap, pm), _ref_substitute(el, tgt, amap, pm)
            assert typed_terms(got) == typed_terms(want)
            for key in el.terms:
                if {"a", "b", "w"}.issuperset(key[1]) and pm.get(key[0]) is not None:
                    renamed += 1
                else:
                    multiplied += 1
            images = [_ref_substitute(PathElement(src, {k: c}), tgt, amap, pm) for k, c in el.terms.items()]
            cancelled += sum(len(i.terms) for i in images) > len(want.terms)
        assert renamed > 600 and multiplied > 600 and cancelled > 100

    def test_a_point_that_turns_trivial_still_refuses_its_x_power(self):
        g = Poly.x(QQ)
        src = PathAlgebra(QQ, [None, g], [Arrow("a", 0, 1, 0)])
        tgt = PathAlgebra(QQ, [None, None], [Arrow("a", 0, 1, 0)])
        amap = {"a": tgt.gen("a")}
        plain = PathElement(src, {(0, ("a",), (0, 0)): QQ.one})
        assert substitute(plain, tgt, amap) == _ref_substitute(plain, tgt, amap)
        for key in ((0, ("a",), (0, 2)), (1, (), (1,))):
            el = PathElement(src, {key: QQ.one})
            for subst in (substitute, _ref_substitute):
                with pytest.raises(UnsupportedDecoration):
                    subst(el, tgt, amap)


# ---------------------------------------------------------------------------
# the edge's admissible data in closed form against the construction it replaced
# ---------------------------------------------------------------------------

def _reference_edge_admissible(dit, arrow):
    """`_edge_admissible` before the closed form: the summands S_s, S_t,
    P = (k -> k) and the other trivial simples are built as modules over
    the edge subalgebra and handed to `build_admissible_case1`, which finds
    Ends, radicals and Homs by linear algebra."""
    a = dit.arrow(arrow)
    fld = dit.field
    B = b_subalgebra(dit, [arrow])
    P = DitModule(
        B,
        [1 if i in (a.s, a.t) else 0 for i in B.points()],
        {arrow: Mat(fld, [[fld.one]])},
        {j: Mat.zeros(fld, 0, 0) for j in B.points() if B.is_rational(j)},
        fld,
        check=False,
    )
    summands = [DitModule.simple(B, a.s), DitModule.simple(B, a.t), P]
    summands += [DitModule.simple(B, i) for i in dit.points()
                 if i not in (a.s, a.t) and not dit.is_rational(i)]
    parts = [build_admissible_case1(dit, (arrow,), summands)]
    for i in dit.points():
        if dit.is_rational(i):
            loc = build_admissible_case2(dit, i, Poly.one(fld))
            parts.append(AdmissibleData(dit, (arrow,), loc.s_points, loc.ranks, loc.xact, {}, [], "2"))
    return parts[0] if len(parts) == 1 else build_admissible_case3(dit, parts)


def _exact(x):
    """A scalar with the exact types of everything it is made of."""
    if isinstance(x, RatFunc):
        return (RatFunc, _exact(x.num), _exact(x.den))
    if isinstance(x, Poly):
        return (Poly, tuple(_exact(c) for c in x.coeffs))
    return (type(x), x)


def _exact_mat(m):
    return (m.field, m.m, m.n, [[_exact(x) for x in r] for r in m.rows])


def _exact_admissible(adm):
    return {
        "case": adm.case,
        "w0prime": adm.w0prime,
        "s_points": [(sp.label, None if sp.g is None else _exact(sp.g)) for sp in adm.s_points],
        "ranks": list(adm.ranks.items()),
        "xact": [(k, _exact_mat(m)) for k, m in adm.xact.items()],
        "aact": [(k, _exact_mat(m)) for k, m in adm.aact.items()],
        "p_elems": [(qs, qd, [(i, _exact_mat(m)) for i, m in blocks.items()])
                    for qs, qd, blocks in adm.p_elems],
        "ids": adm.ids,
    }


def _driver_edges(build, field, d, kw, monkeypatch):
    """The (layer, arrow) of every edge `reduce_to_minimal` reduces."""
    from ditred import reduction

    edges = []
    closed = reduction._edge_admissible
    monkeypatch.setattr(reduction, "_edge_admissible",
                        lambda dit, arrow: edges.append((dit, arrow)) or closed(dit, arrow))
    try:
        reduce_to_minimal(build(field), d, **kw)
    except (BudgetExceeded, WildnessEncountered):
        pass
    monkeypatch.setattr(reduction, "_edge_admissible", closed)
    return edges


EDGE_FIXTURES = {
    **DRIVER_FIXTURES,
    "pencil": (make_pencil, 2, {"budget": 60, "dim_cap": 4}),
    "rational_edge": (make_rational_edge, 1, {"budget": 25, "dim_cap": 2}),
}


class _Counted:
    """Counts the calls of the general module calculus while in force."""

    def __init__(self, monkeypatch):
        from ditred import algebras, ditmod, reduction

        self.calls = {}
        for owner, name in ((reduction, "hom_space"), (reduction, "end_algebra"),
                            (reduction, "are_isomorphic"), (ditmod, "hom_space"),
                            (ditmod, "end_algebra"), (algebras.FDAlgebra, "radical")):
            monkeypatch.setattr(owner, name, self._wrap(name, getattr(owner, name)))

    def _wrap(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted


class TestEdgeAdmissibleClosedForm:
    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
    @pytest.mark.parametrize("name", sorted(EDGE_FIXTURES))
    def test_driver_edges_match_reference(self, name, field, monkeypatch):
        from ditred.reduction import _edge_admissible

        build, d, kw = EDGE_FIXTURES[name]
        edges = _driver_edges(build, field, d, kw, monkeypatch)
        cases = set()
        for dit, arrow in edges:
            got = _edge_admissible(dit, arrow)
            assert _exact_admissible(got) == _exact_admissible(_reference_edge_admissible(dit, arrow))
            cases.add(got.case)
        if name in X_STEP_FIXTURES:
            assert edges
        if name in ("pencil", "rational_edge"):
            assert "3" in cases  # layers with rational points take the case-3 path

    @pytest.mark.parametrize("field", [F2, QQ], ids=repr)
    def test_calls_no_module_calculus(self, field, monkeypatch):
        from ditred.reduction import _edge_admissible

        edges = []
        for name in ("d4", "rational_edge"):
            build, d, kw = EDGE_FIXTURES[name]
            edges += _driver_edges(build, field, d, kw, monkeypatch)
        assert any(dit.rational_points for dit, _ in edges)
        counted = _Counted(monkeypatch)
        for dit, arrow in edges:
            _edge_admissible(dit, arrow)
        assert counted.calls == {}
        # the counters see the reference's calls
        _reference_edge_admissible(*edges[0])
        assert counted.calls["end_algebra"] and counted.calls["hom_space"] and counted.calls["radical"]

    @pytest.mark.parametrize("edge", ["reference", "closed"])
    def test_refusals(self, edge):
        from ditred.reduction import _edge_admissible

        build = _reference_edge_admissible if edge == "reference" else _edge_admissible
        loop = Ditalgebra(F2, [None, None], [Arrow("l", 0, 0, 0), Arrow("a", 0, 1, 0)], [], {})
        with pytest.raises(HypothesisFailed):
            build(loop, "l")
        for s, t in ((0, 1), (1, 0)):
            rat = Ditalgebra(F2, [None, Poly.one(F2)], [Arrow("w", s, t, 0)], [], {})
            with pytest.raises(InvalidModule):
                build(rat, "w")
        rat_loop = Ditalgebra(F2, [Poly.one(F2)], [Arrow("l", 0, 0, 0)], [], {})
        with pytest.raises(InvalidModule):
            build(rat_loop, "l")

    def test_refuses_arrows_outside_the_full_layer(self):
        from ditred.reduction import _edge_admissible

        dit = make_reg(F2)
        for name in ("v", "zz"):  # a dashed arrow, no arrow
            with pytest.raises(HypothesisFailed):
                _edge_admissible(dit, name)

    @pytest.mark.parametrize("arrow", ["l", "v"])
    def test_crafted_trace_step_is_refused(self, arrow):
        import json

        from ditred.errors import DitredError
        from ditred.reduction import trace_from_json

        alg = PathAlgebra(F2, [None, None], [Arrow("l", 0, 0, 0), Arrow("a", 0, 1, 0), Arrow("v", 0, 1, 1)])
        dit = Ditalgebra(F2, [None, None], [Arrow("l", 0, 0, 0), Arrow("a", 0, 1, 0)],
                         [Arrow("v", 0, 1, 1)], {"a": alg.gen("v")})
        step = {"kind": "X", "src_hash": dit.content_hash(), "tgt_hash": "", "w0prime": [arrow]}
        blob = json.dumps({"source": ditalgebra_to_text(dit), "steps": [step]})
        with pytest.raises(DitredError):
            trace_from_json(blob)
