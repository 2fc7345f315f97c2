from fractions import Fraction

import pytest

from ditred.algebras import AlgMod, FDAlgebra
from ditred.bigraph import Arrow, Ditalgebra, PathAlgebra, PathElement
from ditred.linalg import Mat
from ditred.scalars import QQ, FpElt, FracField, Poly, PrimeField, RatFunc

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

# the fields the sparse kernels are checked over, and the share of nonzero entries
KERNEL_FIELDS = [F2, F3, F5, QQ, FracField(QQ)]
DENSITIES = [0.1, 0.3, 0.6, 1.0]


def fresh_zeros(field):
    """Zeros of the field built anew.  Over Q and k(x) they are new
    objects, not the shared `field.zero`.  An F_p element is shared per
    residue (the `scalars` contract), so over F_p a zero built anew is
    `field.zero` itself."""
    if isinstance(field, PrimeField):
        zs = [FpElt(field.p, field.p), field.one - field.one]
        assert all(z is field.zero for z in zs)
        return zs
    if isinstance(field, FracField):
        x = Poly.x(field.base)
        zs = [RatFunc(Poly.zero(field.base), x + Poly.one(field.base)), field.x - field.x]
    else:
        zs = [Fraction(0, 7), Fraction(3) - Fraction(3)]
    assert all(z is not field.zero for z in zs)
    return zs


def rand_scalar(field, rng, density):
    """A random element that is nonzero with probability `density`; its
    zeros are the shared zero or a fresh one."""
    if rng.random() >= density:
        return rng.choice([field.zero] + fresh_zeros(field))
    if isinstance(field, PrimeField):
        return FpElt(rng.randint(1, field.p - 1), field.p)
    if isinstance(field, FracField):
        base = field.base
        num = Poly(base, [base.of(rng.randint(-2, 2)), base.of(rng.randint(1, 2))][:rng.randint(1, 2)])
        if num.is_zero():
            num = Poly.one(base)
        den = rng.choice([Poly.one(base), Poly.x(base), Poly(base, [base.of(rng.randint(1, 2)), base.one])])
        return RatFunc(num, den)
    return field.div(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def rand_rows(field, rng, m, n, density):
    return [[rand_scalar(field, rng, density) for _ in range(n)] for _ in range(m)]


def scalar_type(a):
    """The type of a scalar.  A rational is an `int` or a `Fraction` (the
    `scalars` contract) and a kernel and its reference may reach the same
    integral value by different arithmetic, so both count as `Fraction`
    here; a float or a bool is never a scalar."""
    t = type(a)
    assert t is not float and t is not bool, f"{a!r} is not a scalar"
    return Fraction if t is int else t


def typed(rows):
    """Entries of a list of rows with their scalar types, for exact comparison."""
    return [[(scalar_type(a), a) for a in r] for r in rows]


def field_built(xs):
    """True when every integral rational among xs is an `int`, as it is
    for every value a field builds (`of`, `parse`, `grid`, `inv`, `div`)."""
    return not any(type(x) is Fraction and x.denominator == 1 for x in xs)


def mul_key(alg, kp, kq):
    """Product key for p∘q (apply q first); None when non-composable."""
    if kp[0] != alg.key_end(kq):
        return None
    arrows = kq[1] + kp[1]
    exps = kq[2][:-1] + (kq[2][-1] + kp[2][0],) + kp[2][1:]
    return (kq[0], arrows, exps)


def ref_path_mul(p, q):
    """p∘q as `PathElement.__mul__` formed it before it spliced keys: one
    `mul_key` per pair of terms, and the cancelled keys dropped by one
    filter at the end."""
    alg = p.alg
    out = {}
    z = alg.field.zero
    for kp, cp in p.terms.items():
        for kq, cq in q.terms.items():
            k = mul_key(alg, kp, kq)
            if k is not None:
                out[k] = out.get(k, z) + cp * cq
    return PathElement(alg, {k: c for k, c in out.items() if c})


def typed_terms(el):
    """The terms of a path element, or of a term dict, sorted by key, with
    the exact type of each coefficient.  Term order is not output, so
    keys, values and types are what two elements must share."""
    terms = getattr(el, "terms", el)
    return [(k, type(terms[k]), terms[k]) for k in sorted(terms)]


def random_keys(alg, rng, max_len):
    """Every path of up to max_len arrows, with random x-powers at the
    rational points it passes."""
    by_end = {i: [] for i in range(alg.n)}
    for a in alg.arrows.values():
        by_end[a.s].append(a)
    keys = []
    frontier = [(i, (), (0,)) for i in range(alg.n)]
    for _ in range(max_len + 1):
        keys.extend(frontier)
        frontier = [(k[0], k[1] + (a.name,), k[2] + (0,)) for k in frontier for a in by_end[alg.key_end(k)]]

    def decorate(k):
        start, arrows, exps = k
        pts = [start] + [alg.arrows[nm].t for nm in arrows]
        return (start, arrows, tuple(rng.randint(0, 1) if alg.is_rational(p) else 0 for p in pts))

    return [decorate(k) for k in keys]


def _accumulate_counted(terms, key, c, zero, events):
    """Add c to terms[key] as the kernels through `mul_key` did: a sum
    that vanishes drops its key.  `events`, when given, counts the keys
    that come back after they were dropped."""
    v = terms.get(key, zero) + c
    if v:
        if events is not None and key not in terms and key in events["dropped"]:
            events["returned"] += 1
        terms[key] = v
    else:
        terms.pop(key, None)
        if events is not None:
            events["dropped"].add(key)


def ref_delta_of_key(alg, key, events=None):
    """`PathAlgebra.delta_of_key` as it was before keys were spliced: the
    head and tail of the path composed with each δ term by two `mul_key`
    calls, the sign summed over the tail per arrow."""
    start, arrows, exps = key
    out = {}
    for i, name in enumerate(arrows):
        d = alg.delta_table.get(name)
        if d is None or not d.terms:
            continue
        negate = sum(alg.arrows[a].deg for a in arrows[i + 1:]) % 2
        left = (alg.arrows[name].t, arrows[i + 1:], exps[i + 1:])
        right = (start, arrows[:i], exps[: i + 1])
        for kd, c in d.terms.items():
            k = mul_key(alg, left, kd)
            k = k and mul_key(alg, k, right)
            if k is not None:
                _accumulate_counted(out, k, -c if negate else c, alg.field.zero, events)
    return PathElement._own(alg, out)


def ref_delta(alg, el, events=None):
    """`PathAlgebra.delta` as it was before keys were spliced: the
    `delta_of_key` value of each key, scaled, added one key at a time."""
    out = {}
    for key, c in el.terms.items():
        for k, v in ref_delta_of_key(alg, key, events).terms.items():
            _accumulate_counted(out, k, v * c, alg.field.zero, events)
    return PathElement._own(alg, out)


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
