import copy
import dataclasses
import pickle
import random

import pytest

from conftest import (
    make_a2,
    make_kron,
    make_reg,
    make_ss,
    random_keys,
    ref_delta,
    ref_delta_of_key,
    ref_path_mul,
    typed_terms,
)
from ditred.bigraph import (
    Arrow,
    Ditalgebra,
    PathAlgebra,
    PathElement,
    UndecidableForCyclic,
    UnsupportedDecoration,
    ditalgebra_from_text,
    ditalgebra_to_text,
    parse_path_element,
    path_element_str,
)
from ditred.errors import ParseError
from ditred.scalars import QQ, FpElt, FracField, Poly, PrimeField, RatFunc


def _degrees(el):
    return sorted({el.alg.key_degree(k) for k in el.terms})


def _degree_part(el, d):
    """The homogeneous part of degree d of a path element."""
    return PathElement(el.alg, {k: c for k, c in el.terms.items() if el.alg.key_degree(k) == d})


@dataclasses.dataclass(frozen=True)
class _FrozenArrow:
    """The frozen dataclass `Arrow` was, kept as the reference for its
    equality, hash and repr."""
    name: str
    s: int
    t: int
    deg: int


ARROW_FIELDS = [("a", 0, 1, 0), ("v", 1, 0, 1), ("loop_2", 3, 3, 0), ("b", 0, 1, 0), ("a", 0, 1, 1)]


class TestArrow:
    def test_equality_hash_and_repr_of_the_frozen_dataclass(self):
        for f in ARROW_FIELDS:
            a, ref = Arrow(*f), _FrozenArrow(*f)
            assert hash(a) == hash(ref) == hash(f)
            assert repr(a) == repr(ref).replace("_FrozenArrow", "Arrow")
            for g in ARROW_FIELDS:
                assert (a == Arrow(*g)) == (ref == _FrozenArrow(*g)) == (f == g)
                assert (a != Arrow(*g)) == (f != g)
            # equal only to an Arrow, as a dataclass is to its own class
            assert a != f and a != ref
        assert Arrow(name="a", s=0, t=1, deg=0) == Arrow("a", 0, 1, 0)

    def test_set_order_of_the_frozen_dataclass(self):
        # a set iterates in hash order, so equal hashes keep every output
        rng = random.Random(21)
        fields = [(f"a{i}", rng.randrange(4), rng.randrange(4), rng.randrange(2)) for i in range(60)]
        astuple = lambda a: (a.name, a.s, a.t, a.deg)
        assert [astuple(a) for a in {Arrow(*f) for f in fields}] == \
            [astuple(a) for a in {_FrozenArrow(*f) for f in fields}]

    def test_immutable(self):
        a = Arrow("a", 0, 1, 0)
        for name in ("name", "s", "t", "deg", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, 1)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert (a.name, a.s, a.t, a.deg) == ("a", 0, 1, 0)
        assert not hasattr(a, "__dict__")

    def test_copy_and_pickle_round_trip(self):
        for f in ARROW_FIELDS:
            a = Arrow(*f)
            for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
                assert type(b) is Arrow and b == a and hash(b) == hash(a)
                assert (b.name, b.s, b.t, b.deg) == f

    def test_ditalgebra_deepcopies_and_pickles(self):
        for dit in (make_kron(QQ), make_reg(QQ)):
            for other in (copy.deepcopy(dit), pickle.loads(pickle.dumps(dit))):
                assert other.full == dit.full and other.dashed == dit.dashed
                assert other.content_hash() == dit.content_hash()

    @pytest.mark.parametrize("bad", ["1a", "e1", "x0", "a-b", ""])
    def test_bad_names_refused(self, bad):
        with pytest.raises(ValueError, match="bad arrow name"):
            Arrow(bad, 0, 1, 0)


class TestPathAlgebra:
    def test_projection_rule_a2(self, a2):
        alg = a2.alg
        assert alg.e(1) * alg.gen("a") * alg.e(0) == alg.gen("a")
        assert (alg.e(0) * alg.gen("a")).is_zero()
        assert alg.key_degree(next(iter(alg.gen("a").terms))) == 0

    def test_reg_degrees(self, reg):
        alg = reg.alg
        v = alg.gen("v")
        assert v.is_homogeneous(1)
        assert alg.gen("a") * alg.e(0) == alg.gen("a")

    def test_kron_non_composable(self, kron):
        alg = kron.alg
        assert (alg.gen("a") * alg.gen("b")).is_zero()

    def test_rational_decorations(self):
        x = Poly.x(QQ)
        dit = Ditalgebra(QQ, [None, x], [Arrow("a", 0, 1, 0)], [], {})
        alg = dit.alg
        el = alg.x(1, 2) * alg.gen("a")
        assert not el.is_zero()
        assert path_element_str(el) == "x2^2*a"
        with pytest.raises(UnsupportedDecoration):
            alg.x(0, 1)  # trivial point takes no decoration

    def test_unit_and_associativity(self, a2):
        alg = a2.alg
        one = alg.unit()
        a = alg.gen("a")
        assert one * a == a and a * one == a


class TestSplitAtDashed:
    """Full a: 0 -> 1 and b: 2 -> 3, dashed u: 1 -> 2 and y: 2 -> 3, at
    rational points, so every junction can carry an x-exponent."""

    @staticmethod
    def _alg():
        x = Poly.x(QQ)
        arrows = [Arrow("a", 0, 1, 0), Arrow("u", 1, 2, 1), Arrow("b", 2, 3, 0), Arrow("y", 2, 3, 1)]
        return PathAlgebra(QQ, [x] * 4, arrows)

    @pytest.mark.parametrize("key,segments,letters", [
        # no dashed letter: the key itself
        ((0, ("a",), (2, 1)), [(0, ("a",), (2, 1))], []),
        ((3, (), (4,)), [(3, (), (4,))], []),
        # one dashed letter, inside, first and last
        ((0, ("a", "u", "b"), (1, 2, 3, 4)), [(0, ("a",), (1, 2)), (2, ("b",), (3, 4))], ["u"]),
        ((1, ("u", "b"), (5, 6, 7)), [(1, (), (5,)), (2, ("b",), (6, 7))], ["u"]),
        ((0, ("a", "u"), (1, 0, 3)), [(0, ("a",), (1, 0)), (2, (), (3,))], ["u"]),
        # two dashed letters, adjacent: the middle segment is a bare point
        ((1, ("u", "y"), (1, 2, 3)), [(1, (), (1,)), (2, (), (2,)), (3, (), (3,))], ["u", "y"]),
        ((0, ("a", "u", "y"), (0, 1, 0, 2)), [(0, ("a",), (0, 1)), (2, (), (0,)), (3, (), (2,))], ["u", "y"]),
    ])
    def test_segments_and_letters(self, key, segments, letters):
        alg = self._alg()
        assert alg.split_at_dashed(key) == (segments, letters)
        assert [alg.key_degree(s) for s in segments] == [0] * (len(letters) + 1)
        # the segments and letters compose back to the key
        out = segments[0]
        for name, seg in zip(letters, segments[1:]):
            out = alg.mul_key(seg, alg.mul_key((alg.arrows[name].s, (name,), (0, 0)), out))
        assert out == key

    def test_reg_derivation(self, reg):
        (key,) = reg.delta_of("a").terms
        assert reg.alg.split_at_dashed(key) == ([(0, (), (0,)), (1, (), (0,))], ["v"])


class TestDerivation:
    def test_reg_table(self, reg):
        assert reg.delta_of("a") == reg.alg.gen("v")
        assert reg.delta_of("v").is_zero()

    def test_a2_zero(self, a2):
        assert a2.delta_of("a").is_zero()

    def test_idempotents_killed(self, reg):
        for i in reg.points():
            assert reg.apply_delta(reg.alg.e(i)).is_zero()

    def test_graded_leibniz_random(self):
        # delta(st) = delta(s) t + (-1)^{deg s} s delta(t), checked on 100
        # random pairs in a layer with nonzero derivation values
        a = Arrow("a", 0, 1, 0)
        b = Arrow("b", 1, 2, 0)
        v = Arrow("v", 0, 1, 1)
        w = Arrow("w", 1, 2, 1)
        alg = PathAlgebra(QQ, [None, None, None], [a, b, v, w])
        dit = Ditalgebra(QQ, [None, None, None], [a, b], [v, w],
                         {"a": alg.gen("v"), "b": alg.gen("w")})
        gens = [dit.alg.gen(n) for n in ("a", "b", "v", "w")] + [dit.alg.e(i) for i in range(3)]
        rng = random.Random(23)
        pool = []
        for _ in range(20):
            el = dit.alg.zero()
            for g in rng.sample(gens, 3):
                el = el + g.scale(QQ.of(rng.randint(-2, 2)))
            prod = gens[rng.randrange(len(gens))] * el
            pool.append(el)
            pool.append(prod)
        homogeneous = [_degree_part(p, d) for p in pool for d in _degrees(p)]
        homogeneous = [h for h in homogeneous if not h.is_zero()]
        checked = 0
        for _ in range(100):
            s = rng.choice(homogeneous)
            t = rng.choice(homogeneous)
            ds = _degrees(s)[0]
            lhs = dit.apply_delta(s * t)
            rhs = dit.apply_delta(s) * t + (s * dit.apply_delta(t)).scale(QQ.of((-1) ** ds))
            assert lhs == rhs
            checked += 1
        assert checked == 100



def _reference_delta_of_key(alg, key):
    """δ of one key as `PathAlgebra.delta_of_key` computed it before the
    key-level kernel: a left * δ(arrow) * right product of PathElements
    per arrow, summed one PathElement at a time."""
    start, arrows, exps = key
    out = alg.zero()
    for i, name in enumerate(arrows):
        d = alg.delta_table.get(name)
        if d is None or d.is_zero():
            continue
        sign_deg = sum(alg.arrows[a].deg for a in arrows[i + 1:])
        a = alg.arrows[name]
        left = PathElement(alg, {(a.t, arrows[i + 1:], exps[i + 1:]): alg.field.one})
        right = PathElement(alg, {(start, arrows[:i], exps[: i + 1]): alg.field.one})
        term = left * d * right
        if sign_deg % 2:
            term = -term
        out = out + term
    return out


def _reference_delta(alg, el):
    out = alg.zero()
    for key, c in el.terms.items():
        out = out + _reference_delta_of_key(alg, key).scale(c)
    return out


class TestDeltaKernel:
    """`PathAlgebra.delta` and `delta_of_key` against the product of
    PathElements they replaced: equal elements with equal term order."""

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), QQ, FracField(QQ)], ids=repr)
    def test_matches_reference_product(self, field):
        rng = random.Random(41)
        one = field.one
        if isinstance(field, FracField):
            x = field.x
            pool = [one, -one, x, -x, (x + one) / x]
        elif isinstance(field, PrimeField):
            pool = [one, -one]
        else:
            pool = [one, -one, QQ.of(2), QQ.of(-1) / 2]
        arrows = [Arrow("a", 0, 1, 0), Arrow("b", 1, 2, 0), Arrow("c", 1, 1, 0),
                  Arrow("v", 0, 1, 1), Arrow("w", 1, 2, 1), Arrow("u", 1, 1, 1)]
        alg = PathAlgebra(field, [None, Poly.x(field) + Poly.one(field), None], arrows)
        keys = random_keys(alg, rng, 2)
        checked = 0
        for _ in range(20):
            alg.delta_table = {}
            for a in arrows:
                cands = [k for k in keys if k[0] == a.s and alg.key_end(k) == a.t
                         and alg.key_degree(k) == a.deg + 1]
                picked = rng.sample(cands, min(len(cands), rng.randint(0, 4)))
                alg.delta_table[a.name] = PathElement(alg, {k: rng.choice(pool) for k in picked})
            for k in keys:
                got, want = alg.delta_of_key(k), _reference_delta_of_key(alg, k)
                assert list(got.terms.items()) == list(want.terms.items())
            for _ in range(10):
                el = PathElement(alg, {k: rng.choice(pool) for k in rng.sample(keys, rng.randint(1, 12))})
                got, want = alg.delta(el), _reference_delta(alg, el)
                assert list(got.terms.items()) == list(want.terms.items())
                checked += not got.is_zero()
        assert checked > 50

    def test_cancelled_term_returns_at_the_end(self):
        # u∘v comes from c∘v, cancels against u∘a and comes back from v:
        # summing PathElements one by one puts it last
        arrows = [Arrow("a", 0, 1, 0), Arrow("c", 1, 1, 0), Arrow("v", 0, 1, 1), Arrow("u", 1, 1, 1)]
        alg = PathAlgebra(QQ, [None, None], arrows)
        g = {a.name: alg.gen(a.name) for a in arrows}
        alg.delta_table = {"a": g["v"], "c": g["u"], "v": g["u"] * g["v"]}
        el = g["c"] * g["v"] + g["c"] * g["a"] + g["u"] * g["a"] + g["v"]
        got = alg.delta(el)
        assert list(got.terms.items()) == list(_reference_delta(alg, el).terms.items())
        assert got == g["c"] * g["u"] * g["v"] + g["c"] * g["v"] + g["u"] * g["a"] + g["u"] * g["v"]
        assert list(got.terms)[-1] == next(iter((g["u"] * g["v"]).terms))


def _pools(field):
    one = field.one
    if isinstance(field, FracField):
        x = field.x
        return [one, -one, x, -x, (x + one) / x]
    if isinstance(field, PrimeField):
        return [one, -one]
    return [one, -one, QQ.of(2), QQ.of(-1) / 2]


def _splice_algebra(field):
    """Three points, the middle one rational with a loop of either degree,
    so that keys carry x-powers on both sides of a splice."""
    arrows = [Arrow("a", 0, 1, 0), Arrow("b", 1, 2, 0), Arrow("c", 1, 1, 0),
              Arrow("v", 0, 1, 1), Arrow("w", 1, 2, 1), Arrow("u", 1, 1, 1)]
    return PathAlgebra(field, [None, Poly.x(field) + Poly.one(field), None], arrows)


def _random_table(alg, rng, keys, pool):
    """A derivation table with random values of the right degree and
    endpoints (δ² need not vanish)."""
    table = {}
    for a in alg.arrows.values():
        cands = [k for k in keys if k[0] == a.s and alg.key_end(k) == a.t and alg.key_degree(k) == a.deg + 1]
        picked = rng.sample(cands, min(len(cands), rng.randint(0, 4)))
        table[a.name] = PathElement(alg, {k: rng.choice(pool) for k in picked})
    return table


class TestKeySplicing:
    """The spliced kernels (`delta_of_key`, `delta`, the δ² check and the
    product) against the kernels through `mul_key` they replaced: the same
    terms, the same coefficient types and the same order."""

    FIELDS = [PrimeField(2), PrimeField(3), QQ, FracField(QQ)]

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_delta_matches_mul_key_kernel(self, field):
        rng = random.Random(2501)
        pool = _pools(field)
        alg = _splice_algebra(field)
        keys = random_keys(alg, rng, 3)
        events = {"dropped": set(), "returned": 0}
        merged = 0
        for _ in range(25):
            alg.delta_table = _random_table(alg, rng, keys, pool)
            for k in keys:
                got, want = alg.delta_of_key(k), ref_delta_of_key(alg, k, events)
                assert typed_terms(got) == typed_terms(want), k
                merged += any(k[2][i] for i, nm in enumerate(k[1]) if alg.delta_table[nm].terms)
            for _ in range(15):
                el = PathElement(alg, {k: rng.choice(pool) for k in rng.sample(keys, rng.randint(1, 12))})
                want = ref_delta(alg, el, events)
                assert typed_terms(alg.delta(el)) == typed_terms(want)
                assert alg._delta_vanishes(el) == want.is_zero()
        assert merged > 300  # x-powers on the left of a spliced letter
        assert events["returned"] > 200  # keys that cancelled and came back

    def test_delta_vanishes_on_a_layer(self):
        dit = make_reg(QQ)
        for name in dit.alg.arrows:
            assert dit.alg._delta_vanishes(dit.delta_of(name))
            assert dit.alg._delta_vanishes(dit.alg.gen(name)) == dit.delta_of(name).is_zero()

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_product_matches_mul_key(self, field):
        rng = random.Random(2502)
        pool = _pools(field)
        alg = _splice_algebra(field)
        keys = random_keys(alg, rng, 2)
        joined = 0
        for _ in range(300):
            p = PathElement(alg, {k: rng.choice(pool) for k in rng.sample(keys, rng.randint(0, 8))})
            q = PathElement(alg, {k: rng.choice(pool) for k in rng.sample(keys, rng.randint(0, 8))})
            if rng.random() < 0.3:
                q = q + p.scale(rng.choice(pool))
            assert typed_terms(p * q) == typed_terms(ref_path_mul(p, q))
            joined += sum(1 for kp in p.terms for kq in q.terms
                          if kp[0] == alg.key_end(kq) and kp[2][0] and kq[2][-1])
        assert joined > 200  # x-powers on both sides of a junction


class TestPredicates:
    def test_directed(self, kron):
        assert kron.check_directed()

    def test_full_loop_not_directed(self):
        dit = Ditalgebra(QQ, [None], [Arrow("l", 0, 0, 0)], [], {})
        assert not dit.check_directed()

    def test_mixed_cycle_not_directed(self):
        f = Arrow("a", 0, 1, 0)
        d = Arrow("v", 1, 0, 1)
        dit = Ditalgebra(QQ, [None, None], [f], [d], {})
        assert not dit.check_directed()

    def test_source_a2(self, a2):
        assert a2.check_source(0)
        assert not a2.check_source(1)

    def test_source_ss(self, ss):
        assert ss.check_source(0) and ss.check_source(1)

    def test_source_excluded_by_ideal(self):
        dit = make_a2(ideal_a=True)
        assert dit.check_source(0)  # e1 itself is not in <a>
        dit2 = Ditalgebra(QQ, [None, None], [Arrow("a", 0, 1, 0)], [], {})
        dit3 = Ditalgebra(QQ, [None, None], [Arrow("a", 0, 1, 0)], [], {},
                          ideal=[dit2.alg.e(0)])
        assert not dit3.check_source(0)

    def test_stellar(self, kron, ss):
        assert kron.check_stellar() == 0
        assert ss.check_stellar() == 0  # vacuous; smallest index wins
        two = Ditalgebra(QQ, [None, None, None],
                         [Arrow("a", 0, 1, 0), Arrow("b", 1, 2, 0)], [], {})
        assert two.check_stellar() is None


class TestIdeal:
    def test_membership_basic(self):
        with_ideal = make_a2(ideal_a=True)
        without = make_a2()
        assert with_ideal.ideal_membership(with_ideal.alg.gen("a"))
        assert not without.ideal_membership(without.alg.gen("a"))

    def test_kron_span_exact(self, kron):
        dit = Ditalgebra(QQ, [None, None], list(kron.full), [], {},
                         ideal=[kron.alg.gen("a")])
        assert dit.ideal_membership(dit.alg.gen("a"))
        assert not dit.ideal_membership(dit.alg.gen("b"))
        # oracle: the degree-0 span of <a> inside the 4-dim path space
        assert not dit.ideal_membership(dit.alg.e(0))

    def test_undecidable_for_cyclic(self):
        dit = Ditalgebra(QQ, [None], [Arrow("l", 0, 0, 0)], [], {},
                         ideal=[])
        dit2 = Ditalgebra(QQ, [None], [Arrow("l", 0, 0, 0)], [], {},
                          ideal=[dit.alg.gen("l")])
        with pytest.raises(UndecidableForCyclic):
            dit2.ideal_membership(dit2.alg.gen("l"))


class TestTriangularity:
    def test_witness_verified(self, reg):
        filt = reg.find_filtration()
        assert filt is not None
        assert reg.verify_filtration(filt)

    def test_layered_dependency(self):
        # b's derivation uses a, so a must come first
        a = Arrow("a", 0, 1, 0)
        b = Arrow("b", 0, 1, 0)
        v = Arrow("v", 1, 1, 1)
        alg = PathAlgebra(QQ, [None, None], [a, b, v])
        dit = Ditalgebra(QQ, [None, None], [a, b], [v], {"b": alg.gen("v") * alg.gen("a")})
        filt = dit.find_filtration()
        assert filt is not None
        order = [x for grp in filt[0] for x in grp]
        assert order.index("a") < order.index("b")
        bad = ((("b",), ("a",)), filt[1])
        assert not dit.verify_filtration(bad)


class TestFileFormat:
    def test_roundtrip_all_fixtures(self):
        for make in (make_ss, make_a2, make_reg, make_kron):
            dit = make()
            text = ditalgebra_to_text(dit)
            again = ditalgebra_from_text(text)
            assert ditalgebra_to_text(again) == text

    def test_roundtrip_rational_and_ideal(self):
        x = Poly.x(QQ)
        dit = Ditalgebra(QQ, [None, x * (x - Poly.one(QQ))],
                         [Arrow("a", 0, 1, 0)], [Arrow("v", 0, 1, 1)],
                         {}, ideal=[])
        dit2 = Ditalgebra(QQ, dit.base, dit.full, dit.dashed, {},
                          ideal=[dit.alg.x(1, 1) * dit.alg.gen("a")])
        text = ditalgebra_to_text(dit2)
        again = ditalgebra_from_text(text)
        assert ditalgebra_to_text(again) == text

    def test_path_element_roundtrip(self, reg):
        el = reg.alg.gen("v").scale(QQ.of(-3)) + reg.alg.e(0)
        s = path_element_str(el)
        assert parse_path_element(reg.alg, s) == el

    def test_parse_error(self):
        with pytest.raises(ParseError):
            ditalgebra_from_text("ditalgebra\nfield q\npoints 2\ndelta a = ???\n")


class TestStrictness:
    def test_nonzero_delta_square_is_refused(self):
        # delta(v) is nonzero of degree 2, so delta^2(a) != 0
        a = Arrow("a", 0, 1, 0)
        v = Arrow("v", 0, 1, 1)
        loopish = Arrow("u", 1, 1, 1)
        alg2 = PathAlgebra(QQ, [None, None], [a, v, loopish])
        delta2 = {"a": alg2.gen("v"), "v": alg2.gen("u") * alg2.gen("v")}
        with pytest.raises(ValueError):
            Ditalgebra(QQ, [None, None], [a], [v, loopish], delta2)


class TestZeroTerms:
    """PathElement drops zero coefficients by truth value; the reference is
    the comparison with the field's zero that it replaced."""

    @pytest.mark.parametrize("field", [PrimeField(2), QQ, FracField(QQ)], ids=repr)
    def test_drops_exactly_the_zero_terms(self, field):
        rng = random.Random(31)
        alg = PathAlgebra(field, [None, None], [Arrow("a", 0, 1, 0), Arrow("v", 0, 1, 1)])
        keys = [(0, (), (0,)), (1, (), (0,)), (0, ("a",), (0, 0)), (0, ("v",), (0, 0))]
        if isinstance(field, FracField):
            x = field.x
            pool = [field.zero, field.one, x, x - x, (x + field.one) / x, RatFunc(Poly.zero(QQ), Poly.x(QQ))]
        elif isinstance(field, PrimeField):
            pool = [field.zero, field.one, FpElt(0, 2), FpElt(1, 2) + FpElt(1, 2), FpElt(3, 2)]
            # an F_p element is shared per residue: the zeros and ones built anew are the field's own
            assert pool[2] is pool[3] is field.zero and pool[4] is field.one
        else:
            pool = [field.zero, field.one, QQ.of(0), QQ.of(3) - QQ.of(3), QQ.of(-2) / 3]
        for _ in range(50):
            terms = {k: rng.choice(pool) for k in rng.sample(keys, rng.randint(0, len(keys)))}
            expected = {k: c for k, c in terms.items() if c != field.zero}
            assert PathElement(alg, terms).terms == expected
        assert PathElement(alg, {k: field.zero for k in keys}).is_zero()

    @pytest.mark.parametrize("field", [PrimeField(3), QQ, FracField(QQ)], ids=repr)
    def test_results_keep_the_terms_and_order_of_the_filtering_constructor(self, field):
        """Sums, products, negatives and multiples are built without a second
        filter; each must equal, term by term and in order, the element the
        filtering constructor makes from the unfiltered result.  A key that
        cancels inside a product keeps its first position."""
        rng = random.Random(37)
        arrows = [Arrow("a", 0, 1, 0), Arrow("b", 1, 2, 0), Arrow("v", 0, 1, 1), Arrow("w", 1, 2, 1)]
        alg = PathAlgebra(field, [None, None, None], arrows)
        keys = random_keys(alg, rng, 2)
        z, one = field.zero, field.one
        pool = [one, -one, one + one, -(one + one)]
        if isinstance(field, FracField):
            pool += [field.x, -field.x]

        def rand_el():
            return PathElement(alg, {k: rng.choice(pool) for k in rng.sample(keys, rng.randint(0, 8))})

        def old_add(p, q):
            out = dict(p.terms)
            for k, c in q.terms.items():
                out[k] = out.get(k, z) + c
            return out

        def old_mul(p, q):
            out = {}
            for kp, cp in p.terms.items():
                for kq, cq in q.terms.items():
                    k = alg.mul_key(kp, kq)
                    if k is not None:
                        out[k] = out.get(k, z) + cp * cq
            return out

        def same(got, unfiltered):
            want = PathElement(alg, unfiltered)
            assert [(k, type(c), c) for k, c in got.terms.items()] == [(k, type(c), c) for k, c in want.terms.items()]

        cancelled = {"add": 0, "mul": 0}
        for _ in range(300):
            p, q = rand_el(), rand_el()
            if rng.random() < 0.3:  # share keys with p, so that sums and products cancel
                q = q + p.scale(rng.choice(pool))
            raw_add, raw_mul = old_add(p, q), old_mul(p, q)
            cancelled["add"] += any(not c for c in raw_add.values())
            cancelled["mul"] += any(not c for c in raw_mul.values())
            same(p + q, raw_add)
            same(p - q, old_add(p, PathElement(alg, {k: -c for k, c in q.terms.items()})))
            same(p * q, raw_mul)
            same(-p, {k: -c for k, c in p.terms.items()})
            c = rng.choice(pool + [z, 0, 3])
            cc = field.of(c) if isinstance(c, int) else c
            same(p.scale(c), {k: v * cc for k, v in p.terms.items()})
        assert cancelled["add"] > 20 and cancelled["mul"] > 5

    def test_product_key_that_cancels_keeps_its_first_position(self):
        # b.a gives b∘a, b∘a.e0 cancels it, e1.a adds a, e2.(b∘a) brings b∘a back
        alg = PathAlgebra(QQ, [None, None, None], [Arrow("a", 0, 1, 0), Arrow("b", 1, 2, 0)])
        e = [(i, (), (0,)) for i in range(3)]
        a, b, ba = (0, ("a",), (0, 0)), (1, ("b",), (0, 0)), (0, ("a", "b"), (0, 0, 0))
        one = QQ.one
        p = PathElement(alg, {b: one, ba: one, e[1]: one, e[2]: one})
        q = PathElement(alg, {a: one, e[0]: -one, ba: one})
        assert list((p * q).terms.items()) == [(ba, one), (a, one)]
