"""Deeper functor-level laws: morphism transport respects composition,
hom-space maps are bijective where full faithfulness is claimed, the
bridge embedding is exact on conflations, and the induced class is closed
under summands and extensions."""

import itertools
import random

import pytest

from conftest import F2, make_a2, make_kron, make_reg
from ditred.algebras import AlgMod, enumerate_algmods
from ditred.bigraph import Arrow, Ditalgebra, PathAlgebra
from ditred.ditmod import (
    DitModule,
    DitMorphism,
    are_isomorphic,
    enumerate_modules,
    hom_space,
    _flatten_morphism,
)
from ditred.linalg import Mat, span_basis
from ditred.qhbridge import functor_H, induce, right_algebra
from ditred.reduction import _edge_admissible, step_delete, step_reduce_X, step_regularize
from ditred.scalars import QQ, Poly, PrimeField


def mk(field, *rows):
    return Mat(field, [[field.of(c) for c in r] for r in rows])


def edge_X(dit, arrow):
    return step_reduce_X(dit, (arrow,), _edge_admissible(dit, arrow))


class TestMorphismFunctoriality:
    def _composable_triple(self, dit, dmax=2):
        mods = [M for M in enumerate_modules(dit, dmax) if M.total_dim]
        rng = random.Random(7)
        out = []
        for _ in range(200):
            M, N, L = (rng.choice(mods) for _ in range(3))
            fs = hom_space(dit, M, N)
            gs = hom_space(dit, N, L)
            if fs and gs:
                out.append((rng.choice(fs), rng.choice(gs)))
            if len(out) >= 12:
                break
        return out

    @pytest.mark.parametrize("fixture,arrow", [("a2", "a"), ("kron", "a")])
    def test_X_respects_composition(self, fixture, arrow):
        dit = make_a2(F2) if fixture == "a2" else make_kron(F2)
        step = edge_X(dit, arrow)
        for f, g in self._composable_triple(step.tgt):
            lhs = step.apply_morphism(g.compose(f))
            Ff = step.apply_morphism(f)
            Fg = step.apply_morphism(g)
            rhs = Fg.compose(Ff)
            assert lhs.f0 == rhs.f0 and lhs.f1 == rhs.f1
            assert lhs.check()

    def test_regularization_respects_composition(self):
        reg = make_reg(F2)
        step = step_regularize(reg, "a", "v")
        for f, g in self._composable_triple(step.tgt, dmax=3):
            lhs = step.apply_morphism(g.compose(f))
            rhs = step.apply_morphism(g).compose(step.apply_morphism(f))
            assert lhs.f0 == rhs.f0 and lhs.f1 == rhs.f1

    def test_delete_respects_composition(self):
        a2 = make_a2(F2)
        step = step_delete(a2, [1])
        for f, g in self._composable_triple(step.tgt, dmax=3):
            lhs = step.apply_morphism(g.compose(f))
            rhs = step.apply_morphism(g).compose(step.apply_morphism(f))
            assert lhs.f0 == rhs.f0 and lhs.f1 == rhs.f1

    def test_identity_goes_to_identity(self):
        kron = make_kron(F2)
        step = edge_X(kron, "a")
        for M in enumerate_modules(step.tgt, 2):
            if M.total_dim == 0:
                continue
            FM = step.apply_module(M)
            Fid = step.apply_morphism(DitMorphism.identity(M))
            assert Fid.f0 == DitMorphism.identity(FM).f0
            assert Fid.f1 == DitMorphism.identity(FM).f1


class TestHomBijectivity:
    """Full faithfulness at the morphism level: the transport is a linear
    bijection between hom spaces, not merely dimension-preserving."""

    @pytest.mark.parametrize("fixture,arrow", [("a2", "a"), ("kron", "a")])
    def test_X_hom_map_is_bijective(self, fixture, arrow):
        dit = make_a2(F2) if fixture == "a2" else make_kron(F2)
        step = edge_X(dit, arrow)
        mods = [M for M in enumerate_modules(step.tgt, 2) if M.total_dim]
        pairs = list(itertools.product(mods[:8], repeat=2))
        for M, N in pairs:
            homs = hom_space(step.tgt, M, N)
            if not homs:
                continue
            FM, FN = step.apply_module(M), step.apply_module(N)
            images = [step.apply_morphism(f, FM, FN) for f in homs]
            vecs = [_flatten_morphism(g) for g in images]
            assert len(span_basis(step.src.field, vecs)) == len(homs)
            assert len(hom_space(step.src, FM, FN)) == len(homs)


class TestBridgeExactness:
    def _check_exact(self, br, M, E, N, f, g):
        """f: M -> E, g: E -> N a conflation; the embedded sequence is
        exact as plain linear algebra over the right algebra."""
        dit = br.dit
        HM, HE, HN = functor_H(br, M), functor_H(br, E), functor_H(br, N)
        homs_M = hom_space(dit, br.regular, M)
        homs_E = hom_space(dit, br.regular, E)
        homs_N = hom_space(dit, br.regular, N)
        # the number of rows: the length of a flattened morphism
        BE = Mat.from_cols(dit.field, [_flatten_morphism(h) for h in homs_E],
                           len(_flatten_morphism(DitMorphism.zero(br.regular, E))))
        BN = Mat.from_cols(dit.field, [_flatten_morphism(h) for h in homs_N],
                           len(_flatten_morphism(DitMorphism.zero(br.regular, N))))
        Hf_cols = [BE.solve(_flatten_morphism(f.compose(h))) for h in homs_M]
        Hg_cols = [BN.solve(_flatten_morphism(g.compose(h))) for h in homs_E]
        assert all(c is not None for c in Hf_cols + Hg_cols)
        Hf = Mat.from_cols(dit.field, Hf_cols, len(homs_E)) if Hf_cols else Mat.zeros(dit.field, len(homs_E), 0)
        Hg = Mat.from_cols(dit.field, Hg_cols, len(homs_N)) if Hg_cols else Mat.zeros(dit.field, len(homs_N), 0)
        # injective, composite zero, exact in the middle, surjective
        assert Hf.rank() == len(homs_M)
        if Hf_cols and Hg_cols:
            assert (Hg * Hf).is_zero()
        assert Hf.rank() + Hg.rank() == len(homs_E)
        assert Hg.rank() == len(homs_N)

    def test_split_and_nonsplit_conflations(self):
        for make in (make_a2, make_reg):
            dit = make(F2)
            br = right_algebra(dit)
            S1 = DitModule.simple(dit, 0)
            S2 = DitModule.simple(dit, 1)
            # split conflation S2 -> S2 + S1 -> S1
            E = S2.direct_sum(S1)
            f = DitMorphism.zero(S2, E)
            f.f0[1] = mk(F2, [1])
            g = DitMorphism.zero(E, S1)
            g.f0[0] = mk(F2, [1])
            assert f.check() and g.check()
            self._check_exact(br, S2, E, S1, f, g)
            # non-split conflation S2 -> P -> S1 through the two-dimensional module
            P = DitModule(dit, (1, 1), {"a": mk(F2, [1])})
            f2 = DitMorphism.zero(S2, P)
            f2.f0[1] = mk(F2, [1])
            g2 = DitMorphism.zero(P, S1)
            g2.f0[0] = mk(F2, [1])
            assert f2.check() and g2.check()
            self._check_exact(br, S2, P, S1, f2, g2)


class TestInducedClosure:
    def test_closed_under_summands_and_sums(self):
        a2 = make_a2(F2)
        br = right_algebra(a2)
        induced = []
        for M in enumerate_modules(a2, 3):
            if M.total_dim:
                induced.append(induce(br, M))

        def is_induced(G):
            return any(G.dim == I.dim and G.is_isomorphic(I) is not None for I in induced)

        for G in induced[:20]:
            for part in G.indecomposable_summands():
                assert is_induced(part)
        for A, B in itertools.product(induced[:6], repeat=2):
            assert is_induced(AlgMod.direct_sum(A, B)) or A.dim + B.dim > 3

    def test_closed_under_extensions_small(self):
        # every module with an induced submodule and induced quotient is
        # itself induced, exhaustively at dimension <= 3
        from ditred.reduction import step_reduce_X

        a2 = make_a2(F2)
        step = edge_X(a2, "a")
        layer = step.tgt
        br = right_algebra(layer)
        induced = []
        for M in enumerate_modules(layer, 3):
            if M.total_dim:
                induced.append(induce(br, M))

        def is_induced(G):
            return any(G.dim == I.dim and G.is_isomorphic(I) is not None for I in induced)

        for E in enumerate_algmods(br.alg, 3):
            if E.dim < 2:
                continue
            has_conflation = False
            for M in induced:
                if not (0 < M.dim < E.dim):
                    continue
                for emb in M.hom(E):
                    if emb.rank() != M.dim:
                        continue
                    quo, _ = E.quotient([emb.col(j) for j in range(M.dim)])
                    if is_induced(quo):
                        has_conflation = True
                        break
                if has_conflation:
                    break
            if has_conflation:
                assert is_induced(E)


class TestDecoratedPaths:
    def test_associativity_with_decorations(self):
        x = Poly.x(QQ)
        a = Arrow("a", 0, 1, 0)
        b = Arrow("b", 1, 1, 0)
        dit = Ditalgebra(QQ, [None, x - Poly.one(QQ)], [a, b], [], {})
        alg = dit.alg
        rng = random.Random(19)
        gens = [alg.gen("a"), alg.gen("b"), alg.e(0), alg.e(1), alg.x(1, 1), alg.x(1, 2)]
        for _ in range(60):
            s, t, u = (rng.choice(gens).scale(QQ.of(rng.randint(-2, 2))) for _ in range(3))
            assert (s * t) * u == s * (t * u)

    def test_module_action_respects_products(self):
        x = Poly.x(QQ)
        a = Arrow("a", 0, 1, 0)
        dit = Ditalgebra(QQ, [None, x - Poly.one(QQ)], [a], [], {})
        M = DitModule(dit, (1, 2), {"a": mk(QQ, [1], [0])}, {1: mk(QQ, [0, 1], [-1, 0])})
        el = dit.alg.x(1, 2) * dit.alg.gen("a")
        acted = M.act_map(el)[(0, 1)]
        assert acted == M.xact[1] * M.xact[1] * M.arr["a"]


class TestCompositionWithDashedDerivations:
    """The degree-2 term of the composition rule matters exactly when a
    dashed generator has a nonzero derivation; the reduced pencil layers
    provide those."""

    def test_associativity_on_terminal_layer(self):
        from ditred.reduction import reduce_to_minimal

        kron = make_kron(F2)
        trace = reduce_to_minimal(kron, 2, dim_cap=4)
        term = trace.terminal
        assert any(not term.delta_of(v.name).is_zero() for v in term.dashed)
        rng = random.Random(3)
        mods = [M for M in enumerate_modules(term, 2) if M.total_dim][:14]
        checked = 0
        for _ in range(250):
            M, N, L, K = (rng.choice(mods) for _ in range(4))
            fs = hom_space(term, M, N)
            gs = hom_space(term, N, L)
            hs = hom_space(term, L, K)
            if not (fs and gs and hs):
                continue
            f, g, h = rng.choice(fs), rng.choice(gs), rng.choice(hs)
            lhs = h.compose(g).compose(f)
            rhs = h.compose(g.compose(f))
            assert lhs.f0 == rhs.f0 and lhs.f1 == rhs.f1
            assert lhs.check()
            checked += 1
        assert checked >= 10

    def test_unravel_functoriality(self):
        from ditred.reduction import step_unravel

        x = Poly.x(QQ)
        dit = Ditalgebra(QQ, [None, Poly.one(QQ)], [Arrow("w", 0, 1, 0)], [], {})
        step = step_unravel(dit, [1], {1: x}, 2)
        tgt = step.tgt
        mods = [M for M in enumerate_modules(tgt, 2) if M.total_dim]
        done = 0
        for M, N, L in itertools.product(mods[:8], repeat=3):
            fs = hom_space(tgt, M, N)
            gs = hom_space(tgt, N, L)
            if not (fs and gs):
                continue
            f, g = fs[-1], gs[-1]
            lhs = step.apply_morphism(g.compose(f))
            rhs = step.apply_morphism(g).compose(step.apply_morphism(f))
            assert lhs.f0 == rhs.f0 and lhs.f1 == rhs.f1
            assert lhs.check()
            done += 1
            if done >= 40:
                break
        assert done >= 5
