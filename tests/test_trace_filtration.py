"""The trace filtration against the bounded filtration search it replaced.

`_search_filtration` and `_search_standard_modules` below are the earlier
implementations, kept as references: over F_2 and F_3 at these sizes the
search tries every combination of embeddings, so its answer is complete.
"""

import itertools
import random

import pytest

from conftest import F2, F3, jordan, make_a2, mat2, truncated
from ditred.algebras import (
    AlgMod,
    FDAlgebra,
    NotStandardFamily,
    enumerate_algmods,
    has_filtration_by,
    projective_module,
    simple_modules,
    standard_modules,
)
from ditred.errors import DitredError
from ditred.linalg import Mat, Span
from ditred.qhbridge import check_quasi_hereditary, right_algebra
from ditred.scalars import QQ


def _search_filtration(alg, M, family, budget=4000):
    """Bottom-up search over injective combinations of embeddings; each
    witness entry is (family index, image of that factor in the current
    quotient)."""
    fld = alg.field
    if M.dim == 0:
        return []
    for idx, D in enumerate(family):
        if D.dim > M.dim:
            continue
        embeddings = D.hom(M)
        if not embeddings:
            continue
        for emb in _injective_combos(fld, embeddings, D.dim, budget):
            sub = [emb.col(j) for j in range(D.dim)]
            quo, _ = M.quotient(sub)
            rest = _search_filtration(alg, quo, family, budget)
            if rest is not None:
                return [(idx, sub)] + rest
    return None


def _injective_combos(fld, homs, src_dim, budget):
    out = []
    seen = 0
    if fld.is_finite() and fld.char ** len(homs) <= budget:
        iterator = itertools.product(fld.elements(), repeat=len(homs))
    else:
        iterator = itertools.product(fld.grid(), repeat=min(len(homs), 3))
    for coeffs in iterator:
        M = None
        for c, h in zip(coeffs, homs):
            t = h.scale(c)
            M = t if M is None else M + t
        if M is None:
            continue
        if M.rank() == src_dim:
            out.append(M)
        seen += 1
        if seen > budget:
            break
    return out


def _search_standard_modules(alg, order=None):
    """Delta(i) as P(i) modulo the images of every hom from a later P(j)."""
    prims = alg.primitive_idempotents()
    if order is not None:
        prims = [prims[i] for i in order]
    projs = [projective_module(alg, e)[0] for e in prims]
    out = []
    for i, P in enumerate(projs):
        traces = []
        for j in range(i + 1, len(projs)):
            for h in projs[j].hom(P):
                traces.extend(h.cols())
        U = P.submodule_closure(traces) if traces else []
        out.append(P.quotient(U)[0])
    return out


def _reduced_a2_layer(field):
    from ditred.reduction import _edge_admissible, step_reduce_X

    a2 = make_a2(field)
    return step_reduce_X(a2, ("a",), _edge_admissible(a2, "a")).tgt


def _check_witness(M, family, wit):
    """The entries span a chain of submodules ending at M, each one family
    factor above the last."""
    fld = M.alg.field
    below = []
    for idx, basis in wit:
        assert len(M.submodule_closure(basis)) == len(basis)
        assert len(basis) - len(below) == family[idx].dim
        assert all(Span(fld, basis).contains(v) for v in below)
        below = basis
    assert len(below) == M.dim


def _bridge_cases(field):
    a2 = make_a2(field)
    yield right_algebra(a2), 3
    yield right_algebra(_reduced_a2_layer(field)), 2


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_agrees_with_search_on_right_algebras(field):
    compared = members = 0
    for br, dmax in _bridge_cases(field):
        for fam in (standard_modules(br.alg), br.standard_family()):
            for G in enumerate_algmods(br.alg, dmax):
                ref = _search_filtration(br.alg, G, fam)
                wit = has_filtration_by(br.alg, G, fam)
                assert (wit is None) == (ref is None)
                if wit is not None:
                    # the multiplicities (G : Delta(j)) agree
                    assert sorted(i for i, _ in wit) == sorted(i for i, _ in ref)
                    _check_witness(G, fam, wit)
                    members += 1
                compared += 1
    assert compared > members > 0


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
@pytest.mark.parametrize("n", [2, 3])
def test_jordan_modules_filtered_iff_free(field, n):
    alg = truncated(field, n)
    fam = standard_modules(alg)
    assert [D.dim for D in fam] == [n]
    for total in range(1, 2 * n + 1):
        for parts in _partitions(total, n):
            M = jordan(alg, parts)
            wit = has_filtration_by(alg, M, fam)
            free = all(p == n for p in parts)
            assert (wit is not None) == free
            if field.is_finite():
                assert (_search_filtration(alg, M, fam) is not None) == free
            if free:
                assert len(wit) == len(parts)
                _check_witness(M, fam, wit)


def _partitions(total, largest):
    if total == 0:
        yield []
        return
    for p in range(min(total, largest), 0, -1):
        for rest in _partitions(total - p, p):
            yield [p] + rest


def test_large_free_module_decided():
    # dimension 25, beyond the size the search accepted
    alg = truncated(F2, 5)
    fam = standard_modules(alg)
    wit = has_filtration_by(alg, jordan(alg, [5] * 5), fam)
    assert [len(b) for _, b in wit] == [5, 10, 15, 20, 25]
    assert has_filtration_by(alg, jordan(alg, [5] * 4 + [4, 1]), fam) is None


@pytest.mark.parametrize("seed", range(4))
def test_shuffled_family_same_answer(seed):
    br = right_algebra(make_a2(F2))
    fam = standard_modules(br.alg)
    perm = list(range(len(fam)))
    random.Random(seed).shuffle(perm)
    shuffled = [fam[i] for i in perm]
    for G in enumerate_algmods(br.alg, 3):
        wit = has_filtration_by(br.alg, G, fam)
        wit2 = has_filtration_by(br.alg, G, shuffled)
        assert (wit is None) == (wit2 is None)
        if wit is not None:
            assert sorted(i for i, _ in wit) == sorted(perm[i] for i, _ in wit2)
            _check_witness(G, shuffled, wit2)


def test_simples_of_dual_numbers_not_standard():
    z, o = QQ.zero, QQ.one
    kt = FDAlgebra(QQ, [[[o, z], [z, o]], [[z, o], [z, z]]], [o, z])
    simples = simple_modules(kt)
    with pytest.raises(NotStandardFamily) as err:
        has_filtration_by(kt, AlgMod.regular(kt), simples)
    assert isinstance(err.value, DitredError) and isinstance(err.value, ValueError)
    # a family that is not standard judges nothing: every verdict is undecided
    cert = check_quasi_hereditary(kt, simples)
    assert cert.verdicts == dict.fromkeys(("local_end", "hom_order", "ext_order", "regular_filtered"))
    assert not cert.passed and not cert.failed
    assert cert.undecided == str(err.value) and cert.filtration is None
    lines = cert.report().splitlines()
    assert all(f"undecided ({err.value})" in line for line in lines[:4])
    assert lines[-1] == "overall: undecided"


@pytest.mark.parametrize("field", [F2, QQ], ids=["F2", "Q"])
def test_matrix_algebra_oracle_family_undecided(field):
    """M_2(k) is semisimple, so quasi-hereditary, but its two primitive
    idempotents give isomorphic projectives: the oracle family is 0 and
    P(2), which is not standard, so no verdict may be FAIL."""
    M2 = mat2(field)
    family = standard_modules(M2)
    assert [D.dim for D in family] == [0, 2]
    cert = check_quasi_hereditary(M2, family)
    assert all(v is None for v in cert.verdicts.values())
    assert not cert.failed and not cert.passed
    assert cert.undecided == "module 1 of the family is not cyclic with a simple top"
    assert cert.report().endswith("overall: undecided")


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_any_basis_of_a_jordan_module(field):
    # a seeded change of basis puts radical vectors among the first basis
    # vectors, so a generator must be taken modulo J.U_j, not in basis order
    alg = truncated(field, 2)
    fam = standard_modules(alg)
    rng = random.Random(7)
    for parts in ([2, 2], [2, 2, 2], [2, 1, 2], [1, 1, 2]):
        M = jordan(alg, parts)
        for _ in range(4):
            B = _random_invertible(field, M.dim, rng)
            Binv = B.inv()
            N = AlgMod(alg, M.dim, [B * m * Binv for m in M.mats])
            wit = has_filtration_by(alg, N, fam)
            assert (wit is not None) == all(p == 2 for p in parts)
            if wit is not None:
                _check_witness(N, fam, wit)


def _random_invertible(field, n, rng):
    while True:
        B = Mat(field, [[field.of(rng.randrange(field.char)) for _ in range(n)] for _ in range(n)])
        if B.is_invertible():
            return B


def test_family_with_two_generators_not_standard():
    z, o = QQ.zero, QQ.one
    kt = FDAlgebra(QQ, [[[o, z], [z, o]], [[z, o], [z, z]]], [o, z])
    (L,) = simple_modules(kt)
    with pytest.raises(NotStandardFamily, match="module 1 of the family is not cyclic"):
        has_filtration_by(kt, AlgMod.regular(kt), [AlgMod.direct_sum(L, L)])
    br = right_algebra(make_a2(F2))
    S = simple_modules(br.alg)
    P = sorted((projective_module(br.alg, e)[0] for e in br.alg.primitive_idempotents()), key=lambda P: P.dim)
    with pytest.raises(NotStandardFamily, match="module 2 of the family is not cyclic"):
        has_filtration_by(br.alg, AlgMod.regular(br.alg), [P[0], AlgMod.direct_sum(S[0], S[1])])


def test_family_of_wrong_size_not_standard():
    br = right_algebra(make_a2(F2))
    fam = standard_modules(br.alg)
    with pytest.raises(NotStandardFamily):
        has_filtration_by(br.alg, AlgMod.regular(br.alg), fam[:1])


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_standard_modules_equal_hom_trace(field):
    algs = [right_algebra(make_a2(field)).alg, right_algebra(_reduced_a2_layer(field)).alg,
            truncated(field, 3)]
    for alg in algs:
        n = len(alg.primitive_idempotents())
        for order in itertools.permutations(range(n)):
            new = standard_modules(alg, order)
            old = _search_standard_modules(alg, order)
            assert [D.mats for D in new] == [D.mats for D in old]


def test_primitive_idempotents_cached_and_immutable():
    alg = right_algebra(make_a2(F2)).alg
    prims = alg.primitive_idempotents()
    assert alg.primitive_idempotents() is prims
    assert isinstance(prims, tuple) and all(isinstance(e, tuple) for e in prims)
