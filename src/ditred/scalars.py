"""Exact scalar arithmetic.

Ground fields (rationals and prime fields), univariate polynomials over
them, the rational function field k(x) as fractions in lowest terms, and
localized polynomial algebras k[x]_g.  Everything is exact: no floats
appear anywhere in this package.

A rational scalar is an `int` or a `Fraction`.  Whatever a field builds
(`zero`, `one`, `of`, `parse`, `grid`, `inv`, `div`) is an `int` when its
value is integral, because `int` arithmetic is two orders of magnitude
cheaper than `Fraction` arithmetic; `str`, `==` and `hash` agree between
the two, so printed output and hashes do not depend on which one a value
is.  A `bool` is never a scalar (`QQ.of(True)` is the `int` 1).  Python's
`/` on two `int`s, and `**` with a negative exponent on an `int`, give a
float, so every scalar division goes through the field's `inv(x)` or
`div(a, b)`, which all three fields provide.

Every field builds its `zero` and `one` once; each read returns the same
shared object, which matrices and polynomials then hold in many places.
Scalars are therefore immutable: no code may assign to their fields
after construction.

An F_p scalar is an `FpElt`, and there is exactly one per (p, residue):
`FpElt(a, p) is FpElt(a + p, p)`, `PrimeField(p).zero is FpElt(0, p)`,
and every operator returns the shared element, so equal elements are
the same object.  Copies and pickles give back the shared element too.
An `FpElt` refuses attribute assignment and deletion, and its hash is
`hash((v, p))`, stored when the element is built.  The elements of F_p
live in a table per prime that is filled lazily, one residue at a time
on first use, so a large prime costs nothing up front.

Every scalar type's `__bool__` means "nonzero": `FpElt`, `int`,
`Fraction` and `RatFunc` are false exactly when they equal their field's
zero, however they were built.  The kernels in `linalg`, `Poly`,
`algebras` and `bigraph` rely on this: they test an entry for zero by its
truth value and skip the terms with a zero factor.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, lcm

from .errors import DitredError


class IrreducibleFactorizationUnavailable(DitredError, ArithmeticError):
    """Full irreducible factorization was requested but is out of reach
    for the implemented methods (rational coefficients, degree > 3 factor
    with no rational root)."""


class NotPrime(DitredError, ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class _Residues(dict):
    """The shared elements of F_p, keyed by residue; an element is built the
    first time its residue is looked up (`__missing__`), so a table holds
    only the residues that were used."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def __missing__(self, v):
        if type(v) is not int:  # a float key would stay in the table for good
            raise TypeError(f"{v!r} is not an integer residue")
        e = object.__new__(FpElt)  # FpElt refuses assignment: its fields are set here, once
        object.__setattr__(e, "v", v)
        object.__setattr__(e, "p", self.p)
        object.__setattr__(e, "_hash", hash((v, self.p)))
        object.__setattr__(e, "_table", self)
        return self.setdefault(v, e)  # atomic: a thread racing for v gets the same element


_RESIDUES: dict[int, _Residues] = {}  # p -> the table of F_p


class FpElt:
    """Element of a prime field, normalized to 0 <= v < p.

    There is one shared, immutable object per (p, residue): `FpElt(v, p)`
    returns the entry of the per-p table, so `FpElt(a, p) is FpElt(a + p, p)`.
    The operators look their results up in the same table, and skip
    `_coerce` when both operands are elements of the same field."""

    __slots__ = ("v", "p", "_hash", "_table")

    def __new__(cls, v: int, p: int):
        table = _RESIDUES.get(p)
        if table is None:
            table = _RESIDUES.setdefault(p, _Residues(p))
        return table[v % p]

    def __setattr__(self, name, value):
        raise AttributeError(f"FpElt is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FpElt is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return FpElt, (self.v, self.p)

    def _coerce(self, other):
        if isinstance(other, FpElt):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return self._table[other % self.p]
        return NotImplemented

    def __add__(self, other):
        t = self._table
        if type(other) is not FpElt or other._table is not t:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return t[(self.v + other.v) % t.p]

    __radd__ = __add__

    def __sub__(self, other):
        t = self._table
        if type(other) is not FpElt or other._table is not t:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return t[(self.v - other.v) % t.p]

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._table[(o.v - self.v) % self.p]

    def __mul__(self, other):
        t = self._table
        if type(other) is not FpElt or other._table is not t:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return t[self.v * other.v % t.p]

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return self._table[self.v * pow(o.v, self.p - 2, self.p) % self.p]

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return self._table[-self.v % self.p]

    def __pow__(self, e: int):
        if e < 0:
            return self._table[1] / self ** (-e)
        return self._table[pow(self.v, e, self.p)]

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, FpElt):
            return False  # one object per (p, residue)
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return str(self.v)


def _integral(q: Fraction):
    """q as an `int` when it is integral."""
    return q.numerator if q.denominator == 1 else q


def _int_row(row):
    """A row of rationals times the lcm of its denominators, divided by
    the gcd of the products: the primitive integer row on the same line."""
    d = 1
    for a in row:
        if type(a) is not int:
            d = lcm(d, a.denominator)
    r = [a * d if type(a) is int else a.numerator * (d // a.denominator) for a in row]
    g = gcd(*r)
    return [x // g for x in r] if g > 1 else r


class Rationals:
    """The field of rational numbers.  An element is an `int` or a
    `Fraction`; every element the field builds is an `int` when its value
    is integral (see the module docstring).

    The field owns its elimination kernel (`rref`, which `linalg.Mat.rref`
    dispatches to): Gauss-Jordan on integer rows, so no `Fraction`
    arithmetic happens until the pivots are divided out at the end."""

    kind = "rationals"
    char = 0
    p = None
    zero = 0
    one = 1

    def of(self, n):
        if type(n) is int:
            return n
        return _integral(Fraction(n))

    def inv(self, x):
        return self.div(1, x)

    def div(self, a, b):
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _integral(Fraction(a) / b)

    def rref(self, rows, n: int):
        """Reduced row echelon form of rows of length n, as (fresh rows,
        pivot columns).  Each row is cleared of denominators and made
        primitive (`_int_row`); Gauss-Jordan then runs on Python ints
        (fraction-free, after Bareiss, Math. Comp. 22, 1968; Cohen, A Course
        in Computational Algebraic Number Theory, 2.2).  A row r with entry
        f in the pivot column, against the pivot row p with positive pivot
        a, becomes (a/g)*r - (f/g)*p for g = gcd(a, f), and then is divided
        by the gcd of its entries, which keeps the integers small.  At the
        end each pivot row is zero at the other pivots, so it is a multiple
        of its row in the reduced form and is divided by its pivot: an entry
        is an `int` when the division is exact and a `Fraction` otherwise.
        The reduced form is unique, so this is the matrix the loop that
        divides by each pivot as it goes gives."""
        R = [_int_row(r) for r in rows]
        m = len(R)
        pivots = []
        pr = 0
        for c in range(n):
            if pr >= m:
                break
            pivot = next((r for r in range(pr, m) if R[r][c]), None)
            if pivot is None:
                continue
            prow = R[pivot]
            if prow[c] < 0:
                prow = [-x for x in prow]
            R[pivot], R[pr] = R[pr], prow
            a = prow[c]
            pairs = None
            for r in range(m):
                row = R[r]
                f = row[c]
                if f and r != pr:
                    g = gcd(a, f)
                    s, t = a // g, f // g
                    if s == 1:
                        # a divides f: subtract t*p along p's nonzero entries
                        if pairs is None:
                            pairs = [(j, b) for j, b in enumerate(prow) if b]
                        for j, b in pairs:
                            row[j] -= t * b
                    else:
                        row = [s * x - t * y for x, y in zip(row, prow)]
                    h = gcd(*row)
                    R[r] = [x // h for x in row] if h > 1 else row
            pivots.append(c)
            pr += 1
        for i, c in enumerate(pivots):
            a = R[i][c]
            if a != 1:
                R[i] = [x // a if not x % a else Fraction(x, a) for x in R[i]]
        return R, pivots

    def is_finite(self) -> bool:
        return False

    def elements(self):
        raise ValueError("rationals are not enumerable")

    def grid(self):
        """Default deterministic parameter grid for enumeration over Q."""
        return [0, 1, -1, 2]

    def parse(self, s: str):
        """An integer literal as an `int` directly; anything else `int`
        rejects goes through `Fraction`, which also gives the error."""
        s = s.strip()
        try:
            return int(s)
        except ValueError:
            return self.of(s)

    def fmt(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The prime field F_p; elements are FpElt."""

    kind = "prime-field"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = FpElt(0, p)
        self.one = FpElt(1, p)
        self._table = self.zero._table

    def of(self, n) -> FpElt:
        if isinstance(n, FpElt):
            return n
        if isinstance(n, Fraction):
            return self.div(FpElt(n.numerator, self.p), FpElt(n.denominator, self.p))
        return FpElt(int(n), self.p)

    def inv(self, x: FpElt) -> FpElt:
        if not x.v:
            raise ZeroDivisionError("division by zero in F_p")
        return self._table[pow(x.v, self.p - 2, self.p)]

    def div(self, a: FpElt, b: FpElt) -> FpElt:
        if not b.v:
            raise ZeroDivisionError("division by zero in F_p")
        return self._table[a.v * pow(b.v, self.p - 2, self.p) % self.p]

    def is_finite(self) -> bool:
        return True

    def elements(self):
        return [self._table[i] for i in range(self.p)]

    def grid(self):
        return self.elements()

    def parse(self, s: str) -> FpElt:
        s = s.strip()
        if "/" in s:
            a, b = s.split("/")
            return self.div(FpElt(int(a), self.p), FpElt(int(b), self.p))
        return FpElt(int(s), self.p)

    def fmt(self, x) -> str:
        return str(x.v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = Rationals()


def field_from_name(name: str):
    name = name.strip().lower()
    if name in ("q", "qq", "rationals"):
        return QQ
    m = re.fullmatch(r"fp?[:_]?(\d+)", name)
    if m:
        return PrimeField(int(m.group(1)))
    raise ValueError(f"unknown field {name!r}")


def field_name(field) -> str:
    return "q" if field.char == 0 and isinstance(field, Rationals) else f"fp:{field.p}"


class Poly:
    """Univariate polynomial with coefficients in a base field.

    Coefficients are stored dense, low degree first, with no trailing
    zeros; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.of(c) if isinstance(c, int) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(field) -> "Poly":
        return Poly(field, [])

    @staticmethod
    def one(field) -> "Poly":
        return Poly(field, [field.one])

    @staticmethod
    def x(field) -> "Poly":
        return Poly(field, [field.zero, field.one])

    @staticmethod
    def const(field, c) -> "Poly":
        return Poly(field, [field.of(c) if isinstance(c, int) else c])

    @staticmethod
    def monomial(field, c, e: int) -> "Poly":
        return Poly(field, [field.zero] * e + [field.of(c) if isinstance(c, int) else c])

    # -- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial gets -1."""
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def coeff(self, e: int):
        if 0 <= e < len(self.coeffs):
            return self.coeffs[e]
        return self.field.zero

    def monic(self) -> "Poly":
        return self.divide(self.lc()) if self.coeffs else self

    def divide(self, c) -> "Poly":
        """The polynomial divided by the nonzero scalar c."""
        div = self.field.div
        return Poly(self.field, [div(a, c) for a in self.coeffs])

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        z = self.field.zero
        return Poly(self.field, [(a[i] if i < len(a) else z) + (b[i] if i < len(b) else z) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        pairs = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in pairs:
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Poly":
        c = self.field.of(c) if isinstance(c, int) else c
        return Poly(self.field, [a * c for a in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        out = Poly.one(self.field)
        b = self
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dn = other.degree
        if self.degree < dn:
            return Poly.zero(self.field), self
        # long division in place; step e zeroes r[e + dn], and r[dn:] is dropped at the end
        dlc, div = other.coeffs[-1], self.field.div
        pairs = [(j, b) for j, b in enumerate(other.coeffs[:-1]) if b]
        r = list(self.coeffs)
        q = [self.field.zero] * (len(r) - dn)
        for e in range(len(q) - 1, -1, -1):
            c = r[e + dn]
            if c:
                t = q[e] = div(c, dlc)
                for j, b in pairs:
                    r[e + j] = r[e + j] - t * b
        return Poly(self.field, q), Poly(self.field, r[:dn])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def derivative(self) -> "Poly":
        return Poly(self.field, [self.coeffs[i] * self.field.of(i) for i in range(1, len(self.coeffs))])

    def eval(self, v):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def eval_matrix(self, mat):
        """Evaluate at a square matrix (Horner over the matrix ring)."""
        from .linalg import Mat

        n = mat.m
        acc = Mat.zeros(mat.field, n, n)
        for c in reversed(self.coeffs):
            acc = acc * mat + Mat.eye(mat.field, n).scale(c)
        return acc

    # -- comparisons ----------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return poly_str(self)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def _rational_roots(h: Poly):
    """All roots of h in the base field: exhaustive for F_p, by the
    rational root test over Q."""
    field = h.field
    roots = []
    if field.is_finite():
        for v in field.elements():
            if h.eval(v) == field.zero:
                roots.append(v)
        return roots
    if h.eval(0) == field.zero:
        roots.append(0)
    # rational root test on integer-cleared coefficients
    den = 1
    for c in h.coeffs:
        den = den * c.denominator // _gcd_int(den, c.denominator)
    ints = [int(c * den) for c in h.coeffs]
    low = 0
    while low < len(ints) and ints[low] == 0:
        low += 1
    if low >= len(ints):
        return roots
    a0, an = abs(ints[low]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(an):
            for sgn in (1, -1):
                cand = field.div(sgn * p, q)
                if h.eval(cand) == field.zero and cand not in roots:
                    roots.append(cand)
    return roots


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _fp_irreducible_factors(h: Poly):
    """Factor a squarefree polynomial over F_p by trial division against
    all monic polynomials of increasing degree (p and deg are small)."""
    field = h.field
    p = field.p
    factors = []
    h = h.monic()
    d = 1
    while h.degree >= 2 * d:
        for tail in itertools.product(range(p), repeat=d):
            cand = Poly(field, [field.of(c) for c in tail] + [field.one])
            if cand.degree != d:
                continue
            while (h % cand).is_zero():
                factors.append(cand)
                h = h // cand
            if h.degree < 2 * d:
                break
        d += 1
    if h.degree >= 1:
        factors.append(h.monic())
    return factors


def _q_split_factors(h: Poly, require_irreducible: bool):
    """Split a squarefree rational polynomial into linear factors (by root
    search) plus a rootless remainder.  Degree 2 and 3 rootless remainders
    are certified irreducible; larger ones raise when irreducibility is
    demanded."""
    field = h.field
    h = h.monic()
    factors = []
    for r in _rational_roots(h):
        lin = Poly(field, [-r, field.one])
        if (h % lin).is_zero():
            factors.append(lin)
            h = h // lin
    if h.degree >= 1:
        if h.degree > 3 and require_irreducible:
            raise IrreducibleFactorizationUnavailable(
                f"cannot certify irreducibility of degree-{h.degree} factor over Q"
            )
        factors.append(h.monic())
    return factors


def factor_squarefree(h: Poly, require_irreducible: bool = False):
    """Factor h into pairwise coprime monic factors with multiplicities.

    The product of factors^multiplicities recovers h up to its leading
    coefficient.  Over F_p the factors are irreducible; over Q linear
    factors are extracted exactly and rootless remainders of degree <= 3
    are certified irreducible.
    """
    if h.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = h.field
    h = h.monic()
    out = []
    while h.degree > 0:
        dh = h.derivative()
        if dh.is_zero():
            # char p: h = g(x^p); the p-th root is coefficientwise in F_p
            p = field.char
            root = Poly(field, [h.coeff(i * p) for i in range(h.degree // p + 1)])
            for f, m in factor_squarefree(root, require_irreducible):
                out.append((f, m * p))
            h = Poly.one(field)
            break
        g = poly_gcd(h, dh)
        square_free_part = h // g
        if field.is_finite():
            irr = _fp_irreducible_factors(square_free_part)
        else:
            irr = _q_split_factors(square_free_part, require_irreducible)
        for f in irr:
            m = 0
            while (h % f).is_zero():
                h = h // f
                m += 1
            out.append((f, m))
    merged = {}
    for f, m in out:
        merged[f] = merged.get(f, 0) + m
    items = sorted(merged.items(), key=lambda fm: (fm[0].degree, [str(c) for c in fm[0].coeffs]))
    return [(f, m) for f, m in items]


class RatFunc:
    """Rational function num/den in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.field)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.one(num.field)
        else:
            if den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, den = num // g, den // g
            c = den.lc()
            if c != num.field.one:
                num, den = num.divide(c), den.divide(c)
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    @staticmethod
    def const(field, c) -> "RatFunc":
        return RatFunc(Poly.const(field, c))

    @staticmethod
    def x(field) -> "RatFunc":
        return RatFunc(Poly.x(field))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __pow__(self, e: int):
        if e < 0:
            return RatFunc(Poly.one(self.field)) / self ** (-e)
        return RatFunc(self.num**e, self.den**e)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, int):
            return RatFunc(Poly.const(self.field, other))
        if isinstance(other, (Fraction, FpElt)):
            return RatFunc(Poly.const(self.field, other))
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num.coeffs)

    def eval(self, v):
        d = self.den.eval(v)
        if d == self.field.zero:
            raise ZeroDivisionError("pole at evaluation point")
        return self.field.div(self.num.eval(v), d)

    def __repr__(self):
        if self.den.degree == 0:
            return poly_str(self.num)
        return f"({poly_str(self.num)}) / ({poly_str(self.den)})"


class FracField:
    """The rational function field k(x) over a base field; elements RatFunc."""

    kind = "ratfunc"

    def __init__(self, base):
        self.base = base
        self.char = base.char
        self.p = getattr(base, "p", None)
        self.zero = RatFunc(Poly.zero(base))
        self.one = RatFunc(Poly.one(base))

    def inv(self, f: RatFunc) -> RatFunc:
        return RatFunc(f.den, f.num)

    def div(self, a, b) -> RatFunc:
        return self.of(a) / b

    def of(self, n) -> RatFunc:
        if isinstance(n, RatFunc):
            return n
        if isinstance(n, Poly):
            return RatFunc(n)
        return RatFunc(Poly.const(self.base, self.base.of(n) if isinstance(n, int) else n))

    @property
    def x(self) -> RatFunc:
        return RatFunc(Poly.x(self.base))

    def is_finite(self) -> bool:
        return False

    def elements(self):
        raise ValueError("k(x) is not enumerable")

    def grid(self):
        x = self.x
        return [self.zero, self.one, x, x + self.one]

    def parse(self, s: str) -> RatFunc:
        return parse_ratfunc(self.base, s)

    def fmt(self, f) -> str:
        return repr(f)

    def __eq__(self, other):
        return isinstance(other, FracField) and other.base == self.base

    def __hash__(self):
        return hash(("FracField", self.base))

    def __repr__(self):
        return f"{self.base!r}(x)"


class RationalAlgebra:
    """The localization k[x]_g: rational functions whose denominator's
    irreducible factors all divide g."""

    def __init__(self, g: Poly):
        if g.is_zero():
            raise ValueError("localizer must be nonzero")
        self.g = g.monic()
        self.field = g.field

    def fractions(self) -> FracField:
        return FracField(self.field)

    def __eq__(self, other):
        return isinstance(other, RationalAlgebra) and self.g == other.g

    def __hash__(self):
        return hash(("RationalAlgebra", self.g))

    def __repr__(self):
        return f"k[x]_({poly_str(self.g)})"


def localize_membership(f: RatFunc, alg: RationalAlgebra) -> bool:
    """Decide f in k[x]_g by saturation: strip common factors of the
    denominator with g until nothing is left."""
    den = f.den
    g = alg.g
    while den.degree > 0:
        c = poly_gcd(den, g)
        if c.degree == 0:
            return False
        den = den // c
    return True


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

def poly_str(p: Poly) -> str:
    """Sparse `c*x^e` sum, highest degree first."""
    if p.is_zero():
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coeff(e)
        if c == p.field.zero:
            continue
        cs = str(c)
        if e == 0:
            parts.append(cs)
        else:
            xe = "x" if e == 1 else f"x^{e}"
            if cs == "1":
                parts.append(xe)
            elif cs == "-1":
                parts.append(f"-{xe}")
            else:
                parts.append(f"{cs}*{xe}")
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


_TERM_RE = re.compile(r"^\s*(?P<coef>[+-]?\s*\d+(?:/\d+)?)?\s*(?:\*?\s*x(?:\^(?P<exp>\d+))?)?\s*$")


def parse_poly(field, s: str) -> Poly:
    """Parse sparse `c*x^e` sums; inverse of poly_str."""
    s = s.strip()
    if s in ("0", ""):
        return Poly.zero(field)
    s = s.replace("-", "+-")
    terms = [t for t in s.split("+") if t.strip()]
    acc = Poly.zero(field)
    for t in terms:
        t = t.strip()
        neg = t.startswith("-")
        if neg:
            t = t[1:].strip()
        m = _TERM_RE.match(t)
        if not m or (m.group("coef") is None and "x" not in t):
            raise ValueError(f"cannot parse polynomial term {t!r}")
        coef_s = (m.group("coef") or "1").replace(" ", "")
        if coef_s == "":
            coef_s = "1"
        if "/" in coef_s:
            a, b = coef_s.split("/")
            coef = field.div(field.of(int(a)), field.of(int(b)))
        else:
            coef = field.of(int(coef_s))
        if neg:
            coef = -coef
        if "x" in t:
            exp = int(m.group("exp") or 1)
        else:
            exp = 0
        acc = acc + Poly.monomial(field, coef, exp)
    return acc


def parse_ratfunc(field, s: str) -> RatFunc:
    """Parse `num / den`; the fraction bar is a top-level '/' preceded by
    a space or ')'.  Scalar fractions like 1/2 sit between digits and are
    left to the polynomial parser.  Inverse of repr."""
    s = s.strip()
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0 and i > 0 and s[i - 1] in " )":
            num = parse_poly(field, _strip_parens(s[:i]))
            den = parse_poly(field, _strip_parens(s[i + 1:]))
            return RatFunc(num, den)
    return RatFunc(parse_poly(field, _strip_parens(s)))


def _strip_parens(s: str) -> str:
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        ok = True
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    ok = False
                    break
        if ok:
            s = s[1:-1].strip()
        else:
            break
    return s
