import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import ditred
from conftest import DENSITIES, KERNEL_FIELDS, field_built, rand_rows, rand_scalar, typed
from ditred.linalg import Mat, Span, span_basis
from ditred.scalars import QQ, FracField, Poly, PrimeField, RatFunc

F2 = PrimeField(2)


def rand_mat(field, m, n, rng, pool):
    return Mat(field, [[field.of(rng.choice(pool)) for _ in range(n)] for _ in range(m)])


def test_rref_and_rank():
    A = Mat(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]]).map(Fraction)
    R, pivots = A.rref()
    assert len(pivots) == A.rank() == 2


def test_kernel_exact():
    A = Mat(QQ, [[1, 2, 3], [2, 4, 6]]).map(Fraction)
    for v in A.kernel():
        assert all(x == QQ.zero for x in A.apply(v))
    assert len(A.kernel()) == 2


def test_solve_and_inverse():
    rng = random.Random(13)
    for _ in range(20):
        A = rand_mat(QQ, 4, 4, rng, [Fraction(i) for i in range(-3, 4)])
        if not A.is_invertible():
            continue
        I = A * A.inv()
        assert I == Mat.eye(QQ, 4)
        b = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        x = A.solve(b)
        assert A.apply(x) == b


def test_f2_linear_algebra():
    rng = random.Random(3)
    for _ in range(20):
        A = rand_mat(F2, 3, 5, rng, [0, 1])
        for v in A.kernel():
            assert all(x == F2.zero for x in A.apply(v))
        assert A.rank() + len(A.kernel()) == 5


def test_ratfunc_matrices():
    rf = FracField(QQ)
    x = rf.x
    A = Mat(rf, [[x, rf.one], [rf.zero, x]])
    Ai = A.inv()
    assert A * Ai == Mat.eye(rf, 2)


def test_charpoly_minpoly():
    A = Mat(QQ, [[0, 1], [1, 0]]).map(Fraction)
    cp = A.charpoly()
    x = Poly.x(QQ)
    assert cp == x * x - Poly.one(QQ)
    assert A.minpoly() == cp


def test_charpoly_matches_det_eval():
    rng = random.Random(17)
    for _ in range(10):
        A = rand_mat(QQ, 3, 3, rng, [Fraction(i) for i in range(-2, 3)])
        cp = A.charpoly()
        for lam in (Fraction(0), Fraction(1), Fraction(2), Fraction(-1)):
            # det(lam I - A) via direct determinant
            lamIA = Mat.eye(QQ, 3).scale(lam) - A
            assert cp.eval(lam) == lamIA.det()


def test_span_utilities():
    basis = span_basis(QQ, [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert len(basis) == 2
    assert Span(QQ, basis).contains([Fraction(5), Fraction(7)])


def _rand_vecs(field, rng, n, k):
    """k vectors of length n: random ones, zeros, and combinations of
    earlier ones, so that dependent inputs are common."""
    pool = [field.of(i) for i in range(-2, 3)]
    out = []
    for _ in range(k):
        kind = rng.random()
        if kind < 0.15:
            out.append([field.zero] * n)
        elif kind < 0.45 and out:
            a, b = rng.choice(out), rng.choice(out)
            c = rng.choice(pool)
            out.append([x + c * y for x, y in zip(a, b)])
        else:
            out.append([rng.choice(pool) for _ in range(n)])
    return out


def test_span_against_rref_and_solve():
    rng = random.Random(2024)
    for field in (F2, PrimeField(3), QQ):
        for _ in range(150):
            n = rng.randint(0, 5)
            vecs = _rand_vecs(field, rng, n, rng.randint(0, 7))
            span = Span(field)
            ref = []
            for v in vecs:
                independent = Mat(field, ref + [v], ncols=n).rank() > len(ref)
                assert span.add(v) == independent
                if independent:
                    ref.append(v)
            assert span.basis == ref == span_basis(field, vecs)
            B = Mat.from_cols(field, ref, n)
            for w in _rand_vecs(field, rng, n, 4) + vecs:
                sol = B.solve(w)
                assert span.coords(w) == sol
                assert span.contains(w) == (sol is not None)


def test_minpoly_is_least_monic_relation():
    rng = random.Random(7)
    for field in (F2, PrimeField(3), QQ):
        for _ in range(25):
            n = rng.randint(1, 4)
            A = rand_mat(field, n, n, rng, [0, 0, 1, -1])
            if rng.random() < 0.3:  # a repeated eigenvalue lowers the degree
                A = Mat.block_diag(field, [A, A])
                n *= 2
            m = A.minpoly()
            assert m.lc() == field.one
            value = Mat.zeros(field, n, n)
            for c in reversed(m.coeffs):
                value = value * A + Mat.eye(field, n).scale(c)
            assert value.is_zero()
            powers = [Mat.eye(field, n)]
            for _ in range(m.degree - 1):
                powers.append(powers[-1] * A)
            flat = [[a for r in P.rows for a in r] for P in powers]
            assert Mat(field, flat).rank() == m.degree


def test_no_solve_call_outside_linalg():
    """Coordinate queries go through Span; Mat.solve stays public API only."""
    src = Path(ditred.__file__).resolve().parent
    hits = [f"{p.name}:{n}" for p in sorted(src.glob("*.py")) if p.name != "linalg.py"
            for n, line in enumerate(p.read_text().splitlines(), start=1) if ".solve(" in line]
    assert hits == []


def test_block_diag():
    A = Mat(QQ, [[1]]).map(Fraction)
    B = Mat(QQ, [[2, 0], [0, 3]]).map(Fraction)
    D = Mat.block_diag(QQ, [A, B])
    assert (D.m, D.n) == (3, 3)


def test_public_mat_copies_and_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged matrix"):
        Mat(QQ, [[1], [1, 2]])
    rows = [[QQ.one, QQ.zero]]
    A = Mat(QQ, rows)
    rows[0][0] = QQ.zero
    assert A.rows == [[QQ.one, QQ.zero]] and A.rows[0] is not rows[0]


def test_built_matrices_own_fresh_rows():
    """Results of the trusted constructor share no row list with their
    inputs or with each other, so callers may write into them."""
    rng = random.Random(5)
    A = Mat(QQ, rand_rows(QQ, rng, 3, 3, 0.7))
    B = Mat(QQ, rand_rows(QQ, rng, 3, 3, 0.7)) + Mat.eye(QQ, 3)
    inputs = {id(r) for M in (A, B) for r in M.rows}
    built = [Mat.zeros(QQ, 3, 3), Mat.eye(QQ, 3), A + B, A - B, -A, A.scale(QQ.of(2)), A * B, A.T(),
             A.rref()[0], B.inv(), Mat.hstack(QQ, [A, B]), Mat.from_cols(QQ, A.rows), A.map(lambda a: a), A.cast(QQ, lambda a: a)]
    for M in built:
        ids = [id(r) for r in M.rows]
        assert len(set(ids)) == len(ids) and not inputs & set(ids)


# -- the dense kernels these replaced, kept as references ------------------

def _ref_mul(A, B):
    z = A.field.zero
    out = []
    for r in A.rows:
        row = [z] * B.n
        for k, a in enumerate(r):
            if a == z:
                continue
            for j in range(B.n):
                row[j] = row[j] + a * B.rows[k][j]
        out.append(row)
    return out


def _ref_apply(A, v):
    z = A.field.zero
    out = []
    for r in A.rows:
        acc = z
        for a, x in zip(r, v):
            if a != z and x != z:
                acc = acc + a * x
        out.append(acc)
    return out


def _ref_rref(A):
    R = [list(r) for r in A.rows]
    z = A.field.zero
    pivots = []
    pr = 0
    for c in range(A.n):
        if pr >= A.m:
            break
        pivot = None
        for r in range(pr, A.m):
            if R[r][c] != z:
                pivot = r
                break
        if pivot is None:
            continue
        R[pr], R[pivot] = R[pivot], R[pr]
        piv = R[pr][c]
        R[pr] = [A.field.div(a, piv) for a in R[pr]]
        for r in range(A.m):
            if r != pr and R[r][c] != z:
                f = R[r][c]
                R[r] = [a - f * b for a, b in zip(R[r], R[pr])]
        pivots.append(c)
        pr += 1
    return R, pivots


def _ref_kernel(A):
    R, pivots = _ref_rref(A)
    z, o = A.field.zero, A.field.one
    basis = []
    for fc in (c for c in range(A.n) if c not in pivots):
        v = [z] * A.n
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def _ref_inv(A):
    R, pivots = _ref_rref(Mat.hstack(A.field, [A, Mat.eye(A.field, A.n)]))
    if pivots != list(range(A.n)):
        return None
    return [r[A.n:] for r in R]


def _ref_solve(A, b):
    R, pivots = _ref_rref(Mat(A.field, [r + [x] for r, x in zip(A.rows, b)], ncols=A.n + 1))
    if A.n in pivots:
        return None
    x = [A.field.zero] * A.n
    for r, pc in enumerate(pivots):
        x[pc] = R[r][A.n]
    return x


def _ref_charpoly(A):
    """Berkowitz's division-free method: the coefficient vectors of the
    leading principal minors, each from the last by a Toeplitz product."""
    n, fld, rows = A.n, A.field, A.rows
    if A.m != n:
        raise ValueError("charpoly of non-square matrix")
    if n == 0:
        return Poly.one(fld)
    c = [fld.one, -rows[0][0]]  # highest degree first
    for k in range(1, n):
        Ak = Mat(fld, [r[:k] for r in rows[:k]])
        R = Mat(fld, [rows[k][:k]])
        S = Mat(fld, [[rows[i][k]] for i in range(k)])
        # t_0 = 1, t_1 = -a_kk, t_(i+2) = -(R Ak^i S)
        ts = [fld.one, -rows[k][k]]
        P = S
        for _ in range(k):
            ts.append(-(R * P).rows[0][0])
            P = Ak * P
        newc = [fld.zero] * (k + 2)
        for i in range(len(c)):
            for j in range(len(ts)):
                if i + j <= k + 1:
                    newc[i + j] = newc[i + j] + c[i] * ts[j]
        c = newc
    return Poly(fld, list(reversed(c)))


class _RefSpan:
    def __init__(self, field):
        self.field = field
        self.basis, self.pivots, self.rows, self.combos = [], [], [], []

    def reduce(self, v):
        z = self.field.zero
        r = list(v)
        cs = []
        for row, p in zip(self.rows, self.pivots):
            c = r[p]
            cs.append(c)
            if c != z:
                r = [a - c * b for a, b in zip(r, row)]
        return r, cs

    def add(self, v):
        z = self.field.zero
        r, cs = self.reduce(v)
        p = next((j for j, a in enumerate(r) if a != z), None)
        if p is None:
            return False
        inv = self.field.div(self.field.one, r[p])
        combo = [z] * len(self.basis) + [inv]
        for c, comb in zip(cs, self.combos):
            if c != z:
                f = c * inv
                for j, a in enumerate(comb):
                    combo[j] = combo[j] - f * a
        self.rows.append([self.field.div(a, r[p]) for a in r])
        self.pivots.append(p)
        self.combos.append(combo)
        self.basis.append(list(v))
        return True

    def contains(self, v):
        return all(a == self.field.zero for a in self.reduce(v)[0])

    def coords(self, v):
        z = self.field.zero
        r, cs = self.reduce(v)
        if any(a != z for a in r):
            return None
        out = [z] * len(self.basis)
        for c, comb in zip(cs, self.combos):
            if c != z:
                for j, a in enumerate(comb):
                    out[j] = out[j] + c * a
        return out


def _kernel_shapes(field, rng):
    """Empty and zero-size shapes, then random (m, k, n) for A (m x k) and B (k x n)."""
    top = 4 if isinstance(field, FracField) else 7
    yield from [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1)]
    for _ in range(8):
        yield rng.randint(1, top), rng.randint(1, top), rng.randint(1, top)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_mat_kernels_match_dense_reference(field):
    rng = random.Random(1009)
    for density in DENSITIES:
        for m, k, n in _kernel_shapes(field, rng):
            A = Mat(field, rand_rows(field, rng, m, k, density), ncols=k)
            B = Mat(field, rand_rows(field, rng, k, n, density), ncols=n)
            before = typed(A.rows)
            AB = A * B
            assert (AB.m, AB.n) == (m, n) and typed(AB.rows) == typed(_ref_mul(A, B))
            v = [rand_scalar(field, rng, density) for _ in range(k)]
            assert typed([A.apply(v)]) == typed([_ref_apply(A, v)])
            R, pivots = A.rref()
            R_ref, pivots_ref = _ref_rref(A)
            assert pivots == pivots_ref and (R.m, R.n) == (m, k) and typed(R.rows) == typed(R_ref)
            kernel = A.kernel()
            assert typed(kernel) == typed(_ref_kernel(A))
            free = [c for c in range(k) if c not in pivots]
            assert all(v[c] is field.one for v, c in zip(kernel, free))  # a field-built int over Q
            assert typed(A.rows) == before  # elimination works on a private copy
            S = Mat(field, rand_rows(field, rng, k, k, density), ncols=k) + Mat.eye(field, k).scale(
                rand_scalar(field, rng, density))
            inv_ref = _ref_inv(S)
            if inv_ref is None:
                with pytest.raises(ZeroDivisionError):
                    S.inv()
            else:
                assert typed(S.inv().rows) == typed(inv_ref)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_span_matches_dense_reference(field):
    rng = random.Random(2039)
    top = 4 if isinstance(field, FracField) else 7
    for density in DENSITIES:
        for _ in range(6):
            n = rng.randint(0, top)
            vecs = []
            for _ in range(rng.randint(0, top + 2)):
                if vecs and rng.random() < 0.3:  # dependent on earlier vectors
                    a, b = rng.choice(vecs), rng.choice(vecs)
                    c = rand_scalar(field, rng, 1.0)
                    vecs.append([x + c * y for x, y in zip(a, b)])
                else:
                    vecs.append([rand_scalar(field, rng, density) for _ in range(n)])
            span, ref = Span(field), _RefSpan(field)
            for v in vecs:
                assert span.add(v) == ref.add(v)
            # each echelon row's own coefficient is `field.inv` of its pivot
            assert field_built(comb[-1] for comb in span._combos)
            assert typed(span.basis) == typed(ref.basis) and span.pivots == ref.pivots
            probes = vecs + [[rand_scalar(field, rng, density) for _ in range(n)] for _ in range(3)]
            for w in probes:
                assert span.contains(w) == ref.contains(w)
                got, want = span.coords(w), ref.coords(w)
                assert (got is None) == (want is None)
                if got is not None:
                    assert typed([got]) == typed([want])


def _qq_entry(rng, kind):
    """A seeded rational: an `int`, a small `Fraction`, or one with large
    numerator and denominator; a third of them zero."""
    if rng.random() < 0.35:
        return rng.choice([0, Fraction(0, 7)])
    if kind == "int":
        return rng.choice([1, -1, 2, -3, 5, 12])
    if kind == "small":
        return Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 4))
    return Fraction(rng.randint(-10 ** 15, 10 ** 15) or 1, rng.randint(1, 10 ** 12))


def _qq_corpus(rng):
    """Seeded matrices over Q for the integer-row kernel: 0 x n, m x 0,
    all-zero and repeated rows, wide, tall and square shapes, rank-deficient
    products, each with all-`int`, small-`Fraction`, large-`Fraction` and
    mixed rows (integral `Fraction`s, not field-built, included)."""
    yield Mat(QQ, [], ncols=5)
    yield Mat(QQ, [], ncols=0)
    yield Mat(QQ, [[], [], []])
    yield Mat.zeros(QQ, 3, 4)
    yield Mat(QQ, [[Fraction(0, 7)] * 4, [0] * 4])
    yield Mat(QQ, [[Fraction(4, 2), 2, Fraction(6, 3)], [Fraction(3), 1, 0]])
    for kind in ("int", "small", "big", "mixed"):
        def entry():
            return _qq_entry(rng, rng.choice(["int", "small", "big"]) if kind == "mixed" else kind)
        for m, n in ((1, 1), (2, 5), (3, 12), (12, 3), (5, 5), (8, 8), (6, 9)):
            rows = [[entry() for _ in range(n)] for _ in range(m)]
            yield Mat(QQ, rows)
            # repeated rows and multiples of them, shuffled in
            extra = [list(r) for r in rng.sample(rows, min(2, m))]
            extra += [[QQ.div(a, 3) if a else a for a in r] for r in rng.sample(rows, min(2, m))]
            mixed = rows + extra
            rng.shuffle(mixed)
            yield Mat(QQ, mixed)
            k = rng.randint(1, min(m, n))
            L = Mat(QQ, [[entry() for _ in range(k)] for _ in range(m)])
            R = Mat(QQ, [[entry() for _ in range(n)] for _ in range(k)])
            yield L * R


def _qq_rhs(A, rng):
    """A right-hand side in the column space of A, then one that is
    most likely outside it."""
    x = [_qq_entry(rng, rng.choice(["int", "small", "big"])) for _ in range(A.n)]
    yield A.apply(x)
    yield [_qq_entry(rng, "small") for _ in range(A.m)]


def test_qq_rref_on_integer_rows_matches_reference():
    """Over Q, `Mat.rref` runs on integer rows (`Rationals.rref`) and gives
    the reference loop's reduced form and pivots; `rank`, `kernel`, `solve`
    and `inv` give the reference values, every entry field-built (an `int`
    when integral)."""
    rng = random.Random(4243)
    count = 0
    for A in _qq_corpus(rng):
        before = typed(A.rows)
        R, pivots = A.rref()
        R_ref, pivots_ref = _ref_rref(A)
        assert pivots == pivots_ref and (R.m, R.n) == (A.m, A.n) and typed(R.rows) == typed(R_ref)
        assert field_built(a for r in R.rows for a in r)
        assert A.rank() == len(pivots_ref)
        kernel = A.kernel()
        assert typed(kernel) == typed(_ref_kernel(A)) and field_built(a for v in kernel for a in v)
        for b in _qq_rhs(A, rng):
            x, x_ref = A.solve(b), _ref_solve(A, b)
            assert (x is None) == (x_ref is None)
            if x is not None:
                assert typed([x]) == typed([x_ref]) and field_built(x)
        if A.m == A.n:
            inv_ref = _ref_inv(A)
            if inv_ref is None:
                with pytest.raises(ZeroDivisionError):
                    A.inv()
            else:
                Ai = A.inv()
                assert typed(Ai.rows) == typed(inv_ref) and field_built(a for r in Ai.rows for a in r)
        assert typed(A.rows) == before  # elimination works on a private copy
        count += 1
    assert count > 80


def test_only_rationals_own_an_elimination_kernel():
    """`Mat.rref` dispatches to `field.rref` where the field has one: over
    Q only.  F_p and k(x) keep the Gauss-Jordan loop of `Mat.rref`."""
    assert callable(QQ.rref)
    assert not any(hasattr(f, "rref") for f in (F2, PrimeField(3), FracField(QQ), FracField(F2)))


def test_no_zero_comparison_left_in_linalg():
    """The kernels test zero by truth value (the `scalars` contract), never
    by comparing with the field's zero."""
    pattern = re.compile(r"[!=]=\s*(z|(self\.)?field\.zero)\b")
    src = Path(ditred.__file__).resolve().parent / "linalg.py"
    hits = [n for n, line in enumerate(src.read_text().splitlines(), start=1) if pattern.search(line)]
    assert hits == []


CHARPOLY_FIELDS = [F2, PrimeField(3), PrimeField(7), QQ, FracField(QQ)]


def _charpoly_densities(field, n):
    """Over Q(x) the reduction's divisions raise the degrees of the entries
    with n, so past n = 4 only sparse matrices stay at desk-scale cost."""
    return (0.1,) if isinstance(field, FracField) and n > 4 else DENSITIES


@pytest.mark.parametrize("field", CHARPOLY_FIELDS, ids=repr)
def test_charpoly_matches_berkowitz_reference(field):
    rng = random.Random(4099)
    for n in range(10):
        for density in _charpoly_densities(field, n):
            A = Mat(field, rand_rows(field, rng, n, n, density), ncols=n)
            assert typed([A.charpoly().coeffs]) == typed([_ref_charpoly(A).coeffs])


def _permuted(A, perm):
    """P.A.P^-1 for the permutation matrix P of `perm`: the same charpoly."""
    return Mat(A.field, [[A.rows[i][j] for j in perm] for i in perm])


@pytest.mark.parametrize("field", CHARPOLY_FIELDS, ids=repr)
def test_charpoly_on_zero_subdiagonals(field):
    """Upper Hessenberg matrices with zeros on the subdiagonal, where the
    product in the minor recurrence stops early, and their conjugates by a
    permutation, where the reduction searches lower rows for a pivot or
    finds a column with none."""
    rng = random.Random(8191)
    z = field.zero
    for n in range(2, 10):
        for density in _charpoly_densities(field, n)[-2:]:
            rows = rand_rows(field, rng, n, n, density)
            for i in range(n):
                for j in range(i - 1):
                    rows[i][j] = z
            for i in rng.sample(range(1, n), rng.randint(1, n - 1)):
                rows[i][i - 1] = z
            H = Mat(field, rows)
            perm = list(range(n))
            rng.shuffle(perm)
            want = typed([_ref_charpoly(H).coeffs])
            assert typed([H.charpoly().coeffs]) == want
            assert typed([_permuted(H, perm).charpoly().coeffs]) == want


def test_charpoly_of_non_square_matrix_raises():
    for rows in ([[QQ.one, QQ.zero]], [[QQ.one], [QQ.zero]]):
        with pytest.raises(ValueError, match="non-square"):
            Mat(QQ, rows).charpoly()
    with pytest.raises(ValueError, match="non-square"):
        Mat.zeros(F2, 0, 3).charpoly()
