import random
from fractions import Fraction
from pathlib import Path

import ditred
from ditred.linalg import Mat, Span, intersect_spans, span_basis, span_contains
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
    J = Mat(QQ, [[0, 1], [0, 0]]).map(Fraction)
    assert J.is_nilpotent()
    assert not A.is_nilpotent()


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
    assert span_contains(QQ, basis, [Fraction(5), Fraction(7)])
    inter = intersect_spans(QQ, [[Fraction(1), Fraction(0)]], [[Fraction(1), Fraction(1)]])
    assert inter == []


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
                assert span.contains(w) == span_contains(field, vecs, w) == (sol is not None)


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
