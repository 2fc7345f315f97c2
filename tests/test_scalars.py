import inspect
import random
from fractions import Fraction

import pytest

import ditred.scalars
from conftest import DENSITIES, KERNEL_FIELDS, fresh_zeros, rand_scalar
from ditred.linalg import Mat
from ditred.scalars import (
    QQ,
    FpElt,
    FracField,
    IrreducibleFactorizationUnavailable,
    Poly,
    PrimeField,
    RatFunc,
    RationalAlgebra,
    Rationals,
    factor_squarefree,
    localize_membership,
    parse_poly,
    parse_ratfunc,
    poly_gcd,
    poly_str,
)

F5 = PrimeField(5)


def P(field, *coeffs):
    return Poly(field, list(coeffs))


def x_minus(field, c):
    return Poly(field, [field.of(-c), field.one])


class TestPolyGcd:
    def test_common_factor(self):
        x = Poly.x(QQ)
        one = Poly.one(QQ)
        assert poly_gcd(x * x - one, x - one) == x - one

    def test_coprime(self):
        assert poly_gcd(Poly.x(QQ), Poly.one(QQ)) == Poly.one(QQ)

    def test_trial_division_oracle(self):
        # (x-2)^2 (x-3) vs (x-2)(x-5): check against trial division by x-c
        a = x_minus(QQ, 2) ** 2 * x_minus(QQ, 3)
        b = x_minus(QQ, 2) * x_minus(QQ, 5)
        g = poly_gcd(a, b)
        # oracle: divide both by every linear candidate over a small grid
        expected = Poly.one(QQ)
        for c in range(-6, 7):
            lin = x_minus(QQ, c)
            while (a % lin).is_zero() and (b % lin).is_zero():
                expected = expected * lin
                a, b = a // lin, b // lin
        assert g == expected.monic()
        assert g == x_minus(QQ, 2)

    def test_divides_both(self):
        random.seed(7)
        for _ in range(25):
            a = Poly(QQ, [Fraction(random.randint(-4, 4)) for _ in range(random.randint(1, 5))])
            b = Poly(QQ, [Fraction(random.randint(-4, 4)) for _ in range(random.randint(1, 5))])
            if a.is_zero() or b.is_zero():
                continue
            g = poly_gcd(a, b)
            assert (a % g).is_zero() and (b % g).is_zero()
            assert g.lc() == QQ.one


class TestFactorSquarefree:
    def test_expand_product_oracle(self):
        x = Poly.x(QQ)
        one = Poly.one(QQ)
        h = (x - one) ** 2 * x
        fac = factor_squarefree(h)
        assert sorted((poly_str(f), m) for f, m in fac) == [("x", 1), ("x - 1", 2)]
        prod = Poly.one(QQ)
        for f, m in fac:
            prod = prod * f**m
        assert prod == h.monic()

    def test_single_x(self):
        x = Poly.x(QQ)
        assert factor_squarefree(x) == [(x, 1)]

    def test_f5_exhaustive_roots(self):
        x = Poly.x(F5)
        h = x * x + Poly.one(F5)
        fac = factor_squarefree(h)
        # oracle: exhaustive root search in F_5
        roots = [v for v in F5.elements() if h.eval(v) == F5.zero]
        assert sorted(r.v for r in roots) == [2, 3]
        assert sorted(poly_str(f) for f, m in fac) == ["x + 2", "x + 3"]
        assert all(m == 1 for _, m in fac)

    def test_multiplicity_reconstruction_random(self):
        random.seed(3)
        for _ in range(10):
            h = Poly.one(QQ)
            for c in random.sample(range(-3, 4), 3):
                h = h * x_minus(QQ, c) ** random.randint(1, 3)
            prod = Poly.one(QQ)
            for f, m in factor_squarefree(h):
                prod = prod * f**m
            assert prod == h.monic()

    def test_irreducibility_unavailable(self):
        # (x^4 + x + 1)(x^4 + 2x + 1)-style rootless degree > 3 remainder
        x = Poly.x(QQ)
        h = x**4 + x + Poly.one(QQ)
        with pytest.raises(IrreducibleFactorizationUnavailable):
            factor_squarefree(h, require_irreducible=True)

    def test_quadratic_certified(self):
        x = Poly.x(QQ)
        h = x * x + Poly.one(QQ)
        assert factor_squarefree(h, require_irreducible=True) == [(h, 1)]

    def test_char_p_power(self):
        x = Poly.x(PrimeField(2))
        h = (x + Poly.one(PrimeField(2))) ** 4
        assert factor_squarefree(h) == [(x + Poly.one(PrimeField(2)), 4)]


class TestLocalization:
    def test_pole_inside(self):
        x = Poly.x(QQ)
        one = Poly.one(QQ)
        A = RationalAlgebra(x - one)
        assert localize_membership(RatFunc(one, x - one), A)

    def test_pole_outside(self):
        x = Poly.x(QQ)
        one = Poly.one(QQ)
        A = RationalAlgebra(x - one)
        assert not localize_membership(RatFunc(one, x_minus(QQ, 2)), A)

    def test_factored_denominator(self):
        x = Poly.x(QQ)
        one = Poly.one(QQ)
        A = RationalAlgebra((x - one) * x_minus(QQ, 4))
        f = RatFunc(x + one, (x - one) ** 3)
        assert localize_membership(f, A)
        # oracle: factor the denominator and test divisibility
        for factor, _ in factor_squarefree(f.den):
            assert (A.g % factor).is_zero()


class TestFieldAxioms:
    def test_ratfunc_field_axioms_randomized(self):
        random.seed(11)
        rf = FracField(QQ)

        def rand_rf():
            num = Poly(QQ, [Fraction(random.randint(-3, 3)) for _ in range(random.randint(1, 3))])
            den = Poly(QQ, [Fraction(random.randint(-3, 3)) for _ in range(random.randint(1, 3))])
            if den.is_zero():
                den = Poly.one(QQ)
            return RatFunc(num, den)

        for _ in range(60):
            f, g, h = rand_rf(), rand_rf(), rand_rf()
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h
            assert (f * g) * h == f * (g * h)
            assert f + g == g + f
            if not f.is_zero():
                assert f * (rf.one / f) == rf.one

    def test_normalization_invariants(self):
        random.seed(5)
        for _ in range(40):
            num = Poly(QQ, [Fraction(random.randint(-3, 3)) for _ in range(random.randint(1, 4))])
            den = Poly(QQ, [Fraction(random.randint(-3, 3)) for _ in range(random.randint(1, 4))])
            if den.is_zero():
                continue
            f = RatFunc(num, den)
            g = RatFunc(den, num) if not num.is_zero() else f
            prod = f * g
            assert prod.den.lc() == QQ.one or prod.den.is_zero()
            assert poly_gcd(prod.num, prod.den).degree <= 0

    def test_fp_arithmetic(self):
        F7 = PrimeField(7)
        a, b = F7.of(3), F7.of(5)
        assert a + b == F7.of(1)
        assert a * b == F7.of(1)
        assert a / b == a * (F7.one / b)
        assert (F7.one / b) * b == F7.one


class TestTextForms:
    def test_poly_roundtrip(self):
        random.seed(2)
        for _ in range(30):
            p = Poly(QQ, [Fraction(random.randint(-5, 5), random.randint(1, 3)) for _ in range(random.randint(0, 5))])
            assert parse_poly(QQ, poly_str(p)) == p

    def test_ratfunc_roundtrip(self):
        x = Poly.x(QQ)
        one = Poly.one(QQ)
        cases = [
            RatFunc(x + one, (x - one) ** 2),
            RatFunc(Poly.const(QQ, Fraction(3, 2))),
            RatFunc(x),
            RatFunc(one, x),
        ]
        for f in cases:
            assert parse_ratfunc(QQ, repr(f)) == f

    def test_fp_poly_roundtrip(self):
        p = parse_poly(F5, "x^2 + 3*x + 4")
        assert poly_str(p) == "x^2 + 3*x + 4"


# -- interned constants and the constant-denominator fast path --------------

FIELDS = [QQ, Rationals(), PrimeField(2), PrimeField(3), FracField(QQ), FracField(PrimeField(2))]


def _fresh(field, n):
    """n (0 or 1) built anew, as the per-read property builders did."""
    if isinstance(field, Rationals):
        return Fraction(n)
    if isinstance(field, PrimeField):
        return FpElt(n, field.p)
    return RatFunc(Poly.one(field.base) if n else Poly.zero(field.base))


def _gcd_path(num, den):
    """RatFunc normalization as it was before constant denominators skipped
    the gcd: divide by the monic gcd, then make the denominator monic."""
    if num.is_zero():
        return num, Poly.one(num.field)
    g = poly_gcd(num, den)
    if g.degree > 0:
        num, den = num // g, den // g
    c = den.lc()
    return num.scale(num.field.one / c), den.scale(den.field.one / c)


class TestInternedConstants:
    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_constants_are_shared_and_equal_fresh_ones(self, field):
        assert field.zero is field.zero and field.one is field.one
        for n, c in ((0, field.zero), (1, field.one)):
            fresh = _fresh(field, n)
            assert type(c) is type(fresh) and c == fresh and hash(c) == hash(fresh)
            assert bool(c) == bool(n)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_zeros_entries_update_independently(self, field):
        m = Mat.zeros(field, 3, 2)
        m.rows[1][0] = m.rows[1][0] + field.one
        m.rows[2][1] = m.rows[2][1] - field.one
        assert [[bool(a) for a in r] for r in m.rows] == [[False, False], [True, False], [False, True]]
        e = Mat.eye(field, 2)
        e.rows[0][0] = e.rows[0][0] + field.one
        assert e.rows[1][1] == field.one and field.one == _fresh(field, 1)
        assert field.zero == _fresh(field, 0)

    def test_no_constant_property_on_field_classes(self):
        """Field constants are built once; a property would build one per read."""
        hits = [f"{name}.{attr}" for name, cls in inspect.getmembers(ditred.scalars, inspect.isclass)
                if cls.__module__ == ditred.scalars.__name__
                for attr in ("zero", "one") if isinstance(vars(cls).get(attr), property)]
        assert hits == []


class TestConstantDenominator:
    @pytest.mark.parametrize("base", [PrimeField(2), PrimeField(3), QQ], ids=repr)
    def test_matches_gcd_path(self, base):
        rng = random.Random(23)
        units = [c for c in base.grid() if c]
        for _ in range(80):
            num = Poly(base, [base.of(rng.randint(-4, 4)) for _ in range(rng.randint(0, 5))])
            if isinstance(base, Rationals):
                num = num.scale(Fraction(1, rng.randint(1, 3)))
            den = Poly.const(base, rng.choice(units))
            f = RatFunc(num, den)
            assert (f.num, f.den) == _gcd_path(num, den)
            assert f.den.coeffs == (base.one,)
        # non-constant denominators keep the gcd path
        for _ in range(40):
            num = Poly(base, [base.of(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))])
            den = Poly(base, [base.of(rng.randint(-3, 3)) for _ in range(rng.randint(2, 4))])
            if den.degree < 1:
                continue
            f = RatFunc(num, den)
            assert (f.num, f.den) == _gcd_path(num, den)


# -- the truth-value contract and the in-place long division ------------------

@pytest.mark.parametrize("field", KERNEL_FIELDS + [FracField(PrimeField(3))], ids=repr)
def test_truth_value_means_nonzero(field):
    """`bool(x)` is "x is nonzero", which the sparse kernels rely on."""
    rng = random.Random(41)
    samples = [field.zero, field.one, -field.one] + fresh_zeros(field)
    samples += [rand_scalar(field, rng, d) for d in DENSITIES for _ in range(25)]
    for x in samples:
        assert bool(x) == (x != field.zero)
    for z in fresh_zeros(field):
        assert not z and z == field.zero


def test_fresh_zeros_of_each_type():
    assert not FpElt(7, 7) and not Fraction(0, 7)
    f = RatFunc(Poly.zero(QQ), Poly.x(QQ) + Poly.one(QQ))
    assert not f and f == FracField(QQ).zero


def _ref_divmod(a, b):
    """Long division one quotient term at a time, through Poly sums and products."""
    q = Poly.zero(a.field)
    r = a
    dlc = b.lc()
    while not r.is_zero() and r.degree >= b.degree:
        t = Poly.monomial(a.field, r.lc() / dlc, r.degree - b.degree)
        q = q + t
        r = r - t * b
    return q, r


def _typed_coeffs(p):
    return [(type(c), c) for c in p.coeffs]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_divmod_matches_reference(field):
    rng = random.Random(43)
    top = 4 if isinstance(field, FracField) else 8
    for density in DENSITIES:
        for _ in range(25):
            a = Poly(field, [rand_scalar(field, rng, density) for _ in range(rng.randint(0, top))])
            b = Poly(field, [rand_scalar(field, rng, density) for _ in range(rng.randint(0, top // 2))]
                     + [rand_scalar(field, rng, 1.0)])
            q, r = a.divmod(b)
            q_ref, r_ref = _ref_divmod(a, b)
            assert _typed_coeffs(q) == _typed_coeffs(q_ref) and _typed_coeffs(r) == _typed_coeffs(r_ref)
            assert r.degree < b.degree and q * b + r == a
    with pytest.raises(ZeroDivisionError):
        Poly.one(QQ).divmod(Poly.zero(QQ))
