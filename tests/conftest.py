import pytest

from ditred.algebras import AlgMod, FDAlgebra
from ditred.bigraph import Arrow, Ditalgebra, PathAlgebra
from ditred.linalg import Mat
from ditred.scalars import QQ, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def make_ss(field=QQ):
    """Two trivial points, no arrows."""
    return Ditalgebra(field, [None, None], [], [], {})


def make_a2(field=QQ, ideal_a=False):
    """Two points, one full arrow."""
    dit = Ditalgebra(field, [None, None], [Arrow("a", 0, 1, 0)], [], {})
    if ideal_a:
        return Ditalgebra(field, [None, None], [Arrow("a", 0, 1, 0)], [], {},
                          ideal=[dit.alg.gen("a")])
    return dit


def make_reg(field=QQ):
    """Full arrow with its derivation hitting a dashed arrow."""
    a, v = Arrow("a", 0, 1, 0), Arrow("v", 0, 1, 1)
    alg = PathAlgebra(field, [None, None], [a, v])
    return Ditalgebra(field, [None, None], [a], [v], {"a": alg.gen("v")})


def make_kron(field=QQ):
    """Two parallel full arrows."""
    return Ditalgebra(field, [None, None], [Arrow("a", 0, 1, 0), Arrow("b", 0, 1, 0)], [], {})


def mat2(field):
    """The matrix algebra M_2 on the matrix units e11, e12, e21, e22."""
    z, o = field.zero, field.one
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    t = [[[z] * 4 for _ in range(4)] for _ in range(4)]
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                t[i][j][idx[(a, d)]] = o
    return FDAlgebra(field, t, [o, z, z, o])


def truncated(field, n):
    """k[t]/(t^n) on the basis 1, t, ..., t^(n-1)."""
    z, o = field.zero, field.one
    table = [[[o if i + j == k else z for k in range(n)] for j in range(n)] for i in range(n)]
    return FDAlgebra(field, table, [o] + [z] * (n - 1))


def jordan(alg, parts):
    """The k[t]/(t^n)-module with nilpotent Jordan blocks of the given sizes."""
    fld = alg.field
    d = sum(parts)
    N = Mat.zeros(fld, d, d)
    o = 0
    for p in parts:
        for r in range(1, p):
            N.rows[o + r][o + r - 1] = fld.one
        o += p
    mats = [Mat.eye(fld, d)]
    for _ in range(1, alg.dim):
        mats.append(mats[-1] * N)
    M = AlgMod(alg, d, mats)
    M.check()
    return M


@pytest.fixture
def ss():
    return make_ss()


@pytest.fixture
def a2():
    return make_a2()


@pytest.fixture
def reg():
    return make_reg()


@pytest.fixture
def kron():
    return make_kron()
