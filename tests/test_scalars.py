import ast
import copy
import inspect
import pickle
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import ditred.scalars
from conftest import DENSITIES, KERNEL_FIELDS, field_built, fresh_zeros, make_kron, make_reg, rand_scalar, typed
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
    """n (0 or 1) built anew, as the per-read property builders did (over
    Q a `Fraction`, which the `int` constants must equal and hash like)."""
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
    c, div = den.lc(), num.field.div
    return Poly(num.field, [div(a, c) for a in num.coeffs]), Poly(num.field, [div(a, c) for a in den.coeffs])


class TestInternedConstants:
    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_constants_are_shared_and_equal_fresh_ones(self, field):
        assert field.zero is field.zero and field.one is field.one
        for n, c in ((0, field.zero), (1, field.one)):
            fresh = _fresh(field, n)
            want = int if isinstance(field, Rationals) else type(fresh)
            assert type(c) is want and c == fresh and hash(c) == hash(fresh)
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
                num = num.scale(base.inv(rng.randint(1, 3)))
            den = Poly.const(base, rng.choice(units))
            f = RatFunc(num, den)
            assert typed([f.num.coeffs, f.den.coeffs]) == typed(p.coeffs for p in _gcd_path(num, den))
            assert f.den.coeffs == (base.one,) and type(f.den.coeffs[0]) is type(base.one)
            if den.lc() != base.one:  # divided through `base.div`
                assert field_built(f.num.coeffs)
        # non-constant denominators keep the gcd path
        for _ in range(40):
            num = Poly(base, [base.of(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))])
            den = Poly(base, [base.of(rng.randint(-3, 3)) for _ in range(rng.randint(2, 4))])
            if den.degree < 1:
                continue
            f = RatFunc(num, den)
            assert typed([f.num.coeffs, f.den.coeffs]) == typed(p.coeffs for p in _gcd_path(num, den))
            assert field_built(f.den.coeffs)


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
    assert FpElt(7, 7) is PrimeField(7).zero and not FpElt(7, 7) and not Fraction(0, 7)
    f = RatFunc(Poly.zero(QQ), Poly.x(QQ) + Poly.one(QQ))
    assert not f and f == FracField(QQ).zero


def _ref_divmod(a, b):
    """Long division one quotient term at a time, through Poly sums and products."""
    q = Poly.zero(a.field)
    r = a
    dlc = b.lc()
    while not r.is_zero() and r.degree >= b.degree:
        t = Poly.monomial(a.field, a.field.div(r.lc(), dlc), r.degree - b.degree)
        q = q + t
        r = r - t * b
    return q, r


def _typed_coeffs(p):
    return typed([p.coeffs])


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
            assert field_built(q.coeffs)  # each quotient coefficient is a `div`
            assert r.degree < b.degree and q * b + r == a
    with pytest.raises(ZeroDivisionError):
        Poly.one(QQ).divmod(Poly.zero(QQ))


# -- integral rationals are ints; division goes through the field ---------------

def test_integral_rationals_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.parse("4/2")) is int and QQ.parse("4/2") == 2
    assert QQ.div(1, 2) == Fraction(1, 2) and type(QQ.div(1, 2)) is Fraction
    assert all(type(c) is int for c in QQ.grid())
    assert QQ.of(True) == 1 and type(QQ.of(True)) is int and type(QQ.of(False)) is int
    assert type(QQ.of(Fraction(6, 3))) is int and type(QQ.of(Fraction(1, 3))) is Fraction
    assert [type(c) for c in parse_poly(QQ, "4/2*x^2 - 1/2").coeffs] == [Fraction, int, int]


def test_rational_parse_matches_the_fraction_path():
    """`Rationals.parse` tries `int` first; value, type and error agree with
    parsing every entry through `Fraction`."""
    def outcome(parse, s):
        try:
            x = parse(s)
        except (ValueError, ZeroDivisionError) as e:
            return type(e), str(e)
        return x, type(x)

    corpus = ["1_000", "\u0663", " +3 ", "-0", "00012", "1e3", "3/4", "\u00b2", "0x10", "7", "-12", "4/2",
              "-6/3", "1/0", "3.5", "2.0", "", "  ", "1__0", "_1", "+-3", "\uff11\uff12", "\t5\n"]
    for s in corpus:
        assert outcome(QQ.parse, s) == outcome(lambda t: QQ.of(t.strip()), s), s


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_inv_and_div_of_every_field(field):
    rng = random.Random(47)
    xs = [field.one, -field.one] + [rand_scalar(field, rng, 1.0) for _ in range(40)]
    if field is QQ:
        xs += [2, -3, Fraction(1, 2), Fraction(-1, 3), Fraction(4, 6), Fraction(6, 3)]
    for x in xs:
        assert field.inv(x) * x == field.one and field_built([field.inv(x)])
        for y in xs[:12]:
            q = field.div(y, x)
            assert q * x == y and field_built([q])
            assert type(q) is not float and type(q) is not bool
    for z in [field.zero] + fresh_zeros(field):
        with pytest.raises(ZeroDivisionError):
            field.inv(z)
        with pytest.raises(ZeroDivisionError):
            field.div(field.one, z)
    if field is QQ:
        assert type(QQ.div(6, 3)) is int and type(QQ.div(Fraction(3, 2), Fraction(3, 4))) is int
        assert type(QQ.inv(Fraction(-1, 5))) is int and QQ.inv(Fraction(-1, 5)) == -5


def _float_hazards(tree):
    """(line, scope) of every `/` and every `**` with a negative exponent,
    where scope is the enclosing class and function names."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        op = getattr(node, "op", None)
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            right = node.right if isinstance(node, ast.BinOp) else node.value
            negative = isinstance(right, ast.UnaryOp) and isinstance(right.op, ast.USub)
            if isinstance(op, ast.Div) or (isinstance(op, ast.Pow) and negative):
                out.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def test_no_scalar_division_outside_the_fields():
    """`int / int` is a float, and so is `int ** -k`: outside the fields'
    `inv`/`div` and the `FpElt`/`RatFunc` operators, no code divides
    scalars with `/` or raises them to a negative power.  Strings (doc
    strings, regexes, `split("/")`) are not operators and never match."""
    src = Path(ditred.scalars.__file__).resolve().parent
    allowed = {("Rationals", "div"), ("Rationals", "inv"), ("PrimeField", "div"), ("PrimeField", "inv"),
               ("FracField", "div"), ("FracField", "inv")}
    hits = []
    for p in sorted(src.glob("*.py")):
        for line, scope in _float_hazards(ast.parse(p.read_text())):
            if scope[:1] in (("FpElt",), ("RatFunc",)) or scope[:2] in allowed:
                continue
            hits.append(f"{p.name}:{line} in {'.'.join(scope) or 'module'}")
    assert hits == []


def test_float_guard_sees_division_and_negative_powers():
    tree = ast.parse("def f(a, b):\n    c = a / b\n    c /= b\n    return a ** -2 + a ** 2 + a // b\n")
    assert [line for line, _ in _float_hazards(tree)] == [2, 3, 4]


def _no_float_or_bool(xs, where):
    bad = [x for x in xs if type(x) is float or type(x) is bool]
    assert not bad, f"{where} got {bad[:3]!r}"


def test_q_drivers_build_no_float_or_bool(monkeypatch):
    """Run the Q drivers (reduce with the coverage oracle, generics, qh and
    filtration on a right algebra) with every matrix, path element and
    polynomial checked as it is built."""
    from ditred.algebras import AlgMod
    from ditred.bigraph import PathElement
    from ditred.generic import generic_census, realization_to_text
    from ditred.qhbridge import check_quasi_hereditary, delta_filtration, oracle_standard_modules, right_algebra
    from ditred.reduction import reduce_to_minimal, trace_to_json, verify_coverage
    from test_algebras import a_n_layer

    own, mat_init = Mat._own, Mat.__init__
    pe_own, pe_init, poly_init = PathElement._own, PathElement.__init__, Poly.__init__
    seen = {"Mat": 0, "PathElement": 0, "Poly": 0}

    def mat_own(field, rows, n):
        seen["Mat"] += 1
        _no_float_or_bool((a for r in rows for a in r), "Mat._own")
        return own(field, rows, n)

    def mat_new(self, field, rows, ncols=None):
        mat_init(self, field, rows, ncols)
        _no_float_or_bool((a for r in self.rows for a in r), "Mat")

    def path_own(alg, terms):
        seen["PathElement"] += 1
        _no_float_or_bool(terms.values(), "PathElement._own")
        return pe_own(alg, terms)

    def path_new(self, alg, terms):
        pe_init(self, alg, terms)
        _no_float_or_bool(self.terms.values(), "PathElement")

    def poly_new(self, field, coeffs):
        poly_init(self, field, coeffs)
        seen["Poly"] += 1
        _no_float_or_bool(self.coeffs, "Poly")

    monkeypatch.setattr(Mat, "_own", staticmethod(mat_own))
    monkeypatch.setattr(Mat, "__init__", mat_new)
    monkeypatch.setattr(PathElement, "_own", staticmethod(path_own))
    monkeypatch.setattr(PathElement, "__init__", path_new)
    monkeypatch.setattr(Poly, "__init__", poly_new)

    for dit in (make_kron(QQ), make_reg(QQ)):
        trace = reduce_to_minimal(dit, 2)
        verify_coverage(trace, 2, dim_cap=2)
        trace_to_json(trace)
        census, _ = generic_census(dit, 2)
        for R in census:
            realization_to_text(R)
    for arrows in ([(0, 1), (1, 2)], [(0, 1), (0, 2)]):
        alg = right_algebra(a_n_layer(QQ, arrows)).alg
        deltas = oracle_standard_modules(alg)
        assert check_quasi_hereditary(alg, deltas).passed
        assert delta_filtration(alg, deltas, AlgMod.regular(alg)) is not None
    assert all(seen.values()), seen


# -- one shared, immutable FpElt per residue ------------------------------------

class _RefFpElt:
    """The F_p element as it was before elements were shared: a new object
    per result, hashed as the tuple (v, p).  The reference for the shared
    `FpElt`."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, _RefFpElt):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return _RefFpElt(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _RefFpElt(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _RefFpElt(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _RefFpElt(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _RefFpElt(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return _RefFpElt(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return _RefFpElt(-self.v, self.p)

    def __pow__(self, e: int):
        if e < 0:
            return _RefFpElt(1, self.p) / self ** (-e)
        return _RefFpElt(pow(self.v, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, _RefFpElt):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0


def _ref_inv(x):
    if not x.v:
        raise ZeroDivisionError("division by zero in F_p")
    return _RefFpElt(pow(x.v, x.p - 2, x.p), x.p)


def _ref_div(a, b):
    if not b.v:
        raise ZeroDivisionError("division by zero in F_p")
    return _RefFpElt(a.v * pow(b.v, b.p - 2, b.p), b.p)


def _outcome(f, *args):
    """f(*args) as (v, p, hash) for an element, the value itself for a
    bool or an int, or the exception's type."""
    try:
        r = f(*args)
    except (ZeroDivisionError, ValueError, TypeError) as exc:
        return type(exc)
    if isinstance(r, (FpElt, _RefFpElt)):
        return r.v, r.p, hash(r)
    assert type(r) in (bool, int), r
    return r


_BINARY = [
    ("+", lambda a, b: a + b), ("-", lambda a, b: a - b), ("*", lambda a, b: a * b),
    ("/", lambda a, b: a / b), ("==", lambda a, b: a == b), ("!=", lambda a, b: a != b),
]


class TestSharedFpElt:
    PRIMES = [2, 3, 5, 7, 1000003]

    @pytest.mark.parametrize("p", PRIMES)
    def test_operators_match_the_reference(self, p):
        rng = random.Random(53 + p)
        F = PrimeField(p)
        residues = [0, 1, p - 1] + [rng.randrange(p) for _ in range(60)]
        ints = [0, 1, -1, p, -p, 2 * p + 1] + [rng.randint(-3 * p, 3 * p) for _ in range(20)]
        for _ in range(150):
            a, b = rng.choice(residues), rng.choice(residues)
            new, ref = (FpElt(a, p), FpElt(b, p)), (_RefFpElt(a, p), _RefFpElt(b, p))
            for name, op in _BINARY:
                assert _outcome(op, *new) == _outcome(op, *ref), (name, a, b, p)
            n = rng.choice(ints)
            for name, op in _BINARY:
                assert _outcome(op, new[0], n) == _outcome(op, ref[0], n), (name, a, n, p)
                assert _outcome(op, n, new[0]) == _outcome(op, n, ref[0]), (name, n, a, p)
            e = rng.randint(-3, 5)
            assert _outcome(pow, new[0], e) == _outcome(pow, ref[0], e)
            for f, g in ((lambda x: -x, lambda x: -x), (hash, hash), (bool, bool), (F.inv, _ref_inv)):
                assert _outcome(f, new[0]) == _outcome(g, ref[0])
            assert _outcome(F.div, *new) == _outcome(_ref_div, *ref)

    @pytest.mark.parametrize("p", PRIMES)
    def test_one_object_per_residue(self, p):
        F = PrimeField(p)
        assert F.zero is FpElt(0, p) is FpElt(p, p) is FpElt(-p, p) and F.one is FpElt(1, p)
        for a in (0, 1, p - 1, 12345, -7):
            x = FpElt(a, p)
            assert x is FpElt(a + p, p) is F.of(a) is F.parse(str(a))
            assert x + F.zero is x and x * F.one is x and -(-x) is x
        assert PrimeField(p).zero is F.zero
        if p < 100:  # listing F_p builds every entry of its table
            assert all(e is FpElt(i, p) for i, e in enumerate(F.elements())) and F.grid() == F.elements()

    def test_copies_are_the_shared_object(self):
        for x in (FpElt(0, 2), FpElt(2, 3), FpElt(999999, 1000003)):
            assert copy.copy(x) is x and copy.deepcopy(x) is x
            assert pickle.loads(pickle.dumps(x)) is x
            assert copy.deepcopy([x, {x: x}]) == [x, {x: x}]

    def test_elements_are_immutable(self):
        x = FpElt(2, 5)
        for name in ("v", "p", "_hash", "_table", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
        for name in ("v", "p"):
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert (x.v, x.p, hash(x)) == (2, 5, hash((2, 5))) and FpElt(7, 5) is x

    def test_mixed_characteristics_raise(self):
        a, b = FpElt(1, 3), FpElt(1, 5)
        ops = [lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b,
               lambda: b + a, lambda: b - a, lambda: b * a, lambda: b / a,
               lambda: PrimeField(3).of(a) + b]
        for op in ops:
            with pytest.raises(ValueError):
                op()
        assert a != b and not a == b

    def test_tables_hold_only_the_residues_used(self):
        p = 1000003
        before = set(ditred.scalars._RESIDUES.get(p, ()))
        F = PrimeField(p)
        a, b = F.of(123456), F.of(-2)
        results = [a, b, a + b, a * b, a - b, -a, a ** 3, F.inv(b), F.div(a, b), a / 4, 5 - a]
        used = {F.zero.v, F.one.v, 4, 5} | {x.v for x in results}  # int operands are coerced
        with pytest.raises(TypeError):  # a float key would stay in the table
            FpElt(0.5, p)
        assert set(ditred.scalars._RESIDUES[p]) == before | used
        assert len(ditred.scalars._RESIDUES[p]) < 10**4 < p

    def test_threads_racing_for_a_residue_get_one_element(self):
        """Tables are filled on first use from any thread; threads that
        build the same residues at once must all get the same element."""
        p, n, results = 1000033, 5000, []
        start = threading.Barrier(4)

        def build():
            start.wait(timeout=60)
            results.append([FpElt(v, p) for v in range(n)])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads) and len(results) == 4
        assert all(r[v] is results[0][v] is FpElt(v, p) for r in results for v in range(n))

    def test_reflected_operators_refuse_foreign_operands(self):
        """`Fraction / FpElt`, `float / FpElt`, `float / RatFunc` and
        `None - RatFunc` have no meaning: each is a TypeError."""
        x = FracField(QQ).x
        cases = [lambda: Fraction(1, 2) / FpElt(1, 3), lambda: 1.5 / FpElt(1, 3), lambda: 1.5 / x,
                 lambda: None - x, lambda: None - FpElt(1, 3), lambda: 1.5 - x, lambda: None / x]
        for case in cases:
            with pytest.raises(TypeError):
                case()
