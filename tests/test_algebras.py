import itertools
from fractions import Fraction

import pytest

from conftest import mat2
from ditred.algebras import (
    AlgMod,
    FDAlgebra,
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
from ditred.errors import BudgetExceeded
from ditred.linalg import Mat
from ditred.scalars import QQ, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)


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
            assert reg._length_by_enumeration() == reg._length_by_layers() == 3

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

    def test_enumeration_over_budget(self):
        A = path_a2(F2)
        assert len(enumerate_algmods(A, 2)) > 1
        with pytest.raises(BudgetExceeded) as err:
            enumerate_algmods(A, 2, budget=1)
        assert isinstance(err.value, RuntimeError)


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
