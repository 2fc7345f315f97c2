import itertools

import pytest

from conftest import F2, make_a2, make_kron, make_reg, make_ss
from ditred.bigraph import Arrow, Ditalgebra
from ditred.ditmod import DitModule, are_isomorphic, endolength, is_indecomposable
from ditred.generic import (
    GenericRealization,
    NotInSpectrum,
    NotRationalPoint,
    end_splitting_certificate,
    endolength_kx,
    generic_census,
    q_module,
    realize_generic,
    realize_presentation,
    smith_normal_form,
    specialize,
    transfer_bimodule,
)
from ditred.linalg import Mat
from ditred.reduction import ReductionTrace, reduce_to_minimal
from ditred.scalars import QQ, FracField, Poly, RatFunc


def mk(field, *rows):
    return Mat(field, [[field.of(c) for c in r] for r in rows])


def minimal_with_rational(g=None):
    g = g or Poly.one(QQ)
    return Ditalgebra(QQ, [None, g], [], [], {})


class TestQModule:
    def test_fraction_field_point(self):
        B = minimal_with_rational()
        Q = q_module(B, 1)
        rf = FracField(QQ)
        assert Q.dims == (0, 1)
        assert Q.xact[1] == Mat(rf, [[rf.x]])
        assert endolength_kx(B, Q) == 1

    def test_trivial_point_rejected(self):
        B = minimal_with_rational()
        with pytest.raises(NotRationalPoint):
            q_module(B, 0)

    def test_localized_denominators_allowed(self):
        x = Poly.x(QQ)
        B = minimal_with_rational(x - Poly.one(QQ))
        Q = q_module(B, 1)
        ok, dim, rad = end_splitting_certificate(B, Q)
        assert ok and dim == 1


class TestTransfer:
    def test_empty_trace_regular_columns(self, ss):
        trace = reduce_to_minimal(ss, 2)
        T = transfer_bimodule(trace)
        for i in range(2):
            col = T.column(i)
            assert col.dims == tuple(1 if j == i else 0 for j in range(2))

    def test_reg_columns(self, reg):
        trace = reduce_to_minimal(reg, 2)
        T = transfer_bimodule(trace)
        assert T.column(0).dims == (1, 0)
        assert T.column(1).dims == (0, 1)

    def test_a2_column_dims(self, a2):
        trace = reduce_to_minimal(a2, 2)
        T = transfer_bimodule(trace)
        dims = sorted(T.column(i).total_dim for i in trace.terminal.points())
        assert dims == [1, 1, 2]

    def test_naturality_on_specializations(self, kron):
        # the rational column evaluated at a point agrees with the image
        # of the corresponding one-dimensional terminal module
        trace = reduce_to_minimal(kron, 2, dim_cap=4)
        T = transfer_bimodule(trace)
        term = trace.terminal
        i = next(j for j in term.points() if term.is_rational(j))
        R = realize_generic(T, i)
        for lam in (0, 1, 2):
            direct = trace.apply_module(DitModule.simple(term, i, lam=QQ.of(lam)))
            via_column = R.specialize(lam)
            assert via_column.dims == direct.dims
            assert are_isomorphic(kron, via_column, direct) is not None


class TestRealize:
    def test_kron_generic(self, kron):
        trace = reduce_to_minimal(kron, 2, dim_cap=4)
        T = transfer_bimodule(trace)
        i = next(j for j in trace.terminal.points() if trace.terminal.is_rational(j))
        R = realize_generic(T, i)
        assert R.rank == 2 == R.endol
        G = R.column
        ok, dim, rad = end_splitting_certificate(kron, G)
        assert ok and dim == 2 and rad == 0
        assert endolength_kx(kron, G) == 2

    def test_presentation_free(self):
        g, rank = realize_presentation(QQ, 1, [], Poly.one(QQ))
        assert g == Poly.one(QQ) and rank == 1

    def test_presentation_torsion(self):
        x = Poly.x(QQ)
        g, rank = realize_presentation(QQ, 2, [[Poly.zero(QQ), x]], Poly.one(QQ))
        assert g == x and rank == 1

    def test_smith_normal_form(self):
        x = Poly.x(QQ)
        one = Poly.one(QQ)
        diag = smith_normal_form(QQ, [[x, one], [Poly.zero(QQ), x * x]])
        assert len(diag) == 2
        assert diag[0] == one
        assert diag[1] == x**3
        # divisibility chain
        assert (diag[1] % diag[0]).is_zero()

    def test_smith_random_rank(self):
        import random

        rng = random.Random(9)
        x = Poly.x(QQ)
        for _ in range(10):
            rows = [[Poly(QQ, [QQ.of(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))])
                     for _ in range(3)] for _ in range(2)]
            diag = smith_normal_form(QQ, rows)
            # rank over k(x) equals the number of nonzero invariant factors
            rf = FracField(QQ)
            M = Mat(rf, [[RatFunc(p) for p in r] for r in rows])
            assert len([d for d in diag if not d.is_zero()]) == M.rank()


class TestSpecialize:
    def make_R(self, kron):
        trace = reduce_to_minimal(kron, 2, dim_cap=4)
        T = transfer_bimodule(trace)
        i = next(j for j in trace.terminal.points() if trace.terminal.is_rational(j))
        return realize_generic(T, i)

    def test_three_values_pairwise_noniso(self, kron):
        R = self.make_R(kron)
        mods = [R.specialize(lam) for lam in (0, 1, 2)]
        for M in mods:
            assert M.total_dim == R.rank
            assert is_indecomposable(kron, M)
        for A, B in itertools.combinations(mods, 2):
            assert are_isomorphic(kron, A, B) is None

    def test_out_of_spectrum(self):
        x = Poly.x(QQ)
        B = minimal_with_rational(x)
        trace = ReductionTrace(B)
        T = transfer_bimodule(trace)
        R = realize_generic(T, 1)
        with pytest.raises(NotInSpectrum):
            R.specialize(0)
        S = R.specialize(1)
        assert S.total_dim == R.rank == 1

    def test_dimension_is_rank(self, kron):
        R = self.make_R(kron)
        for lam in (0, 3):
            assert R.specialize(lam).total_dim == R.rank


class TestCensus:
    def test_ss_empty(self, ss):
        census, _ = generic_census(ss, 2)
        assert census == []

    def test_a2_empty(self, a2):
        census, _ = generic_census(a2, 2)
        assert census == []

    def test_kron_exactly_one(self, kron):
        census, trace = generic_census(kron, 2)
        assert len(census) == 1
        assert census[0].endol == 2

    def test_bounded_by_rational_points(self):
        for make in (make_ss, make_a2, make_kron):
            dit = make()
            for d in (1, 2, 3):
                census, trace = generic_census(dit, d, budget=80)
                nrat = sum(1 for i in trace.terminal.points() if trace.terminal.is_rational(i))
                assert len(census) <= nrat

    def test_endolength_filter(self, kron):
        census, _ = generic_census(kron, 1)
        assert census == []  # the realized endolength 2 exceeds the bound


class TestBridgeCompatibility:
    def test_kx_multiplicity_formula(self, kron):
        # push the fraction-field module through induction: its length
        # decomposition reproduces endolength as a weighted sum of the
        # induced simple dimensions
        from ditred.qhbridge import right_algebra

        br = right_algebra(kron)
        trace = reduce_to_minimal(kron, 2, dim_cap=4)
        T = transfer_bimodule(trace)
        i = next(j for j in trace.terminal.points() if trace.terminal.is_rational(j))
        G = T.column(i)
        fam = br.standard_family()
        # the weighted sum of induced-simple dimensions over the k(x)-
        # multiplicities reproduces the endolength of the pushed module
        mult = [G.dims[p] for p in kron.points()]
        endol_bridge = sum(m * D.dim for m, D in zip(mult, fam))
        assert endol_bridge == endolength_kx(kron, G) == 2

    def test_induce_refuses_fraction_field_column(self, kron):
        # the census realization's column has coefficients in Q(x); induction
        # over the right algebra of the Q-layer is refused before any relation
        from ditred.errors import DitredError
        from ditred.qhbridge import CoefficientMismatch, right_algebra

        (R,) = generic_census(kron, 2)[0]
        assert R.column.coef == FracField(QQ)
        br = right_algebra(kron)
        br.embed = lambda el: pytest.fail("a relation was built")
        with pytest.raises(CoefficientMismatch, match=r"^module coefficients in Q\(x\), but the right algebra is over Q$"):
            br.induce(R.column)
        assert issubclass(CoefficientMismatch, DitredError)


class TestRealizationFormat:
    def test_serialization_exact(self, kron):
        from ditred.generic import realization_to_text

        census, _ = generic_census(kron, 2)
        text = realization_to_text(census[0])
        assert "rank 2" in text and "localizer 1" in text
        assert "arrow b" in text and "x" in text
        # specializations emit in the module format
        from ditred.ditmod import module_from_text, module_to_text

        S = census[0].specialize(3)
        assert module_from_text(kron, module_to_text(S)).arr == S.arr
