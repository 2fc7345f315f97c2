"""Seeded job mixes for the ditred benchmark, with answers known from theory.

Nothing here imports ditred.  Every expected answer comes from
representation theory:

* Gabriel's theorem: a Dynkin quiver has one indecomposable per positive
  root, for every orientation and field.  Each root of A_n and D_4 has
  endomorphism ring k, so its endolength equals its total dimension.
* The Kronecker quiver (Kronecker 1890): over F_q the indecomposables of
  total dimension at most 4 are the two simples, the regular modules of
  dimension (1,1) (one per point of P^1, q + 1 of them), the preprojective
  and preinjective (1,2) and (2,1), and in dimension (2,2) the q + 1
  non-split self-extensions of the (1,1) modules (endolength 4) and one
  module per degree-2 point of P^1, (q*q - q)/2 of them, whose
  endomorphism field F_{q^2} gives them endolength 2.
* Crawley-Boevey: a tame hereditary algebra has exactly one generic
  module; for the Kronecker quiver its endolength is 2.  A Dynkin quiver
  has none.
* Dlab-Ringel: an algebra is hereditary iff it is quasi-hereditary for
  every order of its simples, so the right algebra of a layer with full
  arrows only (the path algebra) passes `qh` and its regular module is
  filtered by the standard modules.  A local non-semisimple algebra such
  as k[t]/(t^n), n >= 2, is never quasi-hereditary; its only standard
  module is the regular one, which is injective, so a module is filtered
  by it iff the module is free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

WORKLOADS = ("verify_fp", "rational_q", "bridge_qh")

# Name alphabet for seeded arrow names: letters only, so a name can never
# collide with the generated names of the reduction steps (which carry
# digits) or with the reserved stationary names e1, x2, ...
_NAME_LETTERS = "abcdfghijklmnopqrstuvwyz"

# Failure classes.  A job fails when its exit code is unexpected, when it
# raises, or when its output contradicts the known answer.  The one
# known defect of the program is the rational coverage oracle, which
# samples a finite grid and reports modules outside the grid as missing.
KNOWN_DEFECT = "q-oracle-false-missing"


@dataclass
class Job:
    family: str
    argv: list
    files: dict
    expect_rc: int
    check: Callable[[str], str | None]
    known_defect_possible: bool = False
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# exact scalars for input generation
# ---------------------------------------------------------------------------

class Scalars:
    """Q (p = 0) or F_p, with the text forms the ditred parsers accept."""

    def __init__(self, name: str):
        self.name = name
        self.p = 0 if name == "q" else int(name.split(":")[1])

    def norm(self, x):
        return Fraction(x) if self.p == 0 else int(x) % self.p

    def fmt(self, x) -> str:
        return str(self.norm(x))

    def small(self, rng) -> int:
        """A small seeded scalar, zero included."""
        return rng.randrange(self.p) if self.p else rng.choice((0, 0, 1, -1, 2))


def _mat_mul(F, A, B):
    n, m, k = len(A), len(B), len(B[0]) if B else 0
    return [[F.norm(sum(A[i][t] * B[t][j] for t in range(m))) for j in range(k)] for i in range(n)]


def _unitriangular(F, n, rng):
    """A seeded upper unitriangular matrix and its inverse."""
    P = [[1 if i == j else (F.small(rng) if j > i else 0) for j in range(n)] for i in range(n)]
    inv = [[0] * n for _ in range(n)]
    for col in range(n):
        # back substitution for P x = e_col
        x = [0] * n
        for i in range(n - 1, -1, -1):
            x[i] = F.norm((1 if i == col else 0) - sum(P[i][j] * x[j] for j in range(i + 1, n)))
        for i in range(n):
            inv[i][col] = x[i]
    return [[F.norm(v) for v in row] for row in P], inv


# ---------------------------------------------------------------------------
# layers (.dit)
# ---------------------------------------------------------------------------

# Underlying graphs, vertices numbered from 1; D4 has its centre at 2.
GRAPHS = {
    "A3": (3, [(1, 2), (2, 3)]),
    "A4": (4, [(1, 2), (2, 3), (3, 4)]),
    "D4": (4, [(1, 2), (2, 3), (2, 4)]),
    "K": (2, [(1, 2), (1, 2)]),
}

# Number of positive roots, and the roots of total dimension t (as counts).
POSITIVE_ROOTS = {"A3": 6, "A4": 10, "D4": 12}
ROOTS_BY_TOTAL = {
    "A3": {1: 3, 2: 2, 3: 1},
    "A4": {1: 4, 2: 3, 3: 2, 4: 1},
    "D4": {1: 4, 2: 3, 3: 3, 4: 1, 5: 1},
}


def seeded_names(rng, k):
    names = set()
    while len(names) < k:
        names.add("".join(rng.choice(_NAME_LETTERS) for _ in range(rng.randint(1, 3))))
    out = sorted(names)
    rng.shuffle(out)
    return out


def layer_text(graph: str, field_name: str, rng, turns=None):
    """A layer with full arrows only over the graph, with seeded arrow names
    and a seeded orientation of each edge.  For A_n, `turns` fixes how often
    the direction changes along the line, which fixes the number of paths.
    Returns the text and the arrows as (source, target) pairs."""
    n, edges = GRAPHS[graph]
    names = seeded_names(rng, len(edges))
    if graph == "K":
        orientation = [True, True]  # both arrows 1 -> 2
    elif turns is not None:
        flips = set(rng.sample(range(1, len(edges)), turns))
        orientation = [rng.random() < 0.5]
        for i in range(1, len(edges)):
            orientation.append(orientation[-1] != (i in flips))
    else:
        orientation = [rng.random() < 0.5 for _ in edges]
    arrows = [(s, t) if fwd else (t, s) for (s, t), fwd in zip(edges, orientation)]
    lines = ["ditalgebra", f"field {field_name}", f"points {n}"]
    lines += [f"full {nm} : {s} -> {t}" for nm, (s, t) in zip(names, arrows)]
    return "\n".join(lines) + "\n", arrows


def path_count(n, arrows):
    """Number of paths, trivial ones included, in an acyclic quiver."""
    total = 0
    for v in range(1, n + 1):
        # paths starting at v, by depth-first search (the quiver is acyclic)
        stack = [v]
        while stack:
            u = stack.pop()
            total += 1
            stack.extend(t for (s, t) in arrows if s == u)
    return total


# ---------------------------------------------------------------------------
# algebras (.alg) and modules (.mod)
# ---------------------------------------------------------------------------

def truncated_poly_algebra(F: Scalars, n: int, rng):
    """k[t]/(t^n) in a seeded basis b_i = t^i + (lower powers).  Returns the
    algebra text and the change of basis (columns: b_i in powers of t)."""
    P, Pinv = _unitriangular(F, n, rng)

    def coords_in_b(poly):  # poly: coefficients in powers of t
        return [F.norm(sum(Pinv[i][j] * poly[j] for j in range(n))) for i in range(n)]

    def mul_powers(u, v):
        w = [0] * n
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                if a and b and i + j < n:
                    w[i + j] += a * b
        return w

    basis = [[P[r][c] for r in range(n)] for c in range(n)]
    lines = ["algebra", f"field {F.name}", f"dim {n}", "basis " + " ".join(f"b{i}" for i in range(n))]
    lines.append("unit " + " ".join(F.fmt(c) for c in coords_in_b([1] + [0] * (n - 1))))
    for i in range(n):
        for j in range(n):
            c = coords_in_b(mul_powers(basis[i], basis[j]))
            if any(c):
                lines.append(f"mul {i + 1} {j + 1} = " + " ".join(F.fmt(x) for x in c))
    return "\n".join(lines) + "\n", basis


def jordan_module(F: Scalars, n: int, basis, parts, rng):
    """The k[t]/(t^n)-module on which t acts by nilpotent Jordan blocks of
    the given sizes, in a seeded basis.  `basis` gives each algebra basis
    element as a polynomial in t."""
    m = sum(parts)
    N = [[0] * m for _ in range(m)]
    off = 0
    for size in parts:
        for r in range(size - 1):
            N[off + r + 1][off + r] = 1
        off += size
    powers = [[[1 if i == j else 0 for j in range(m)] for i in range(m)]]
    for _ in range(1, n):
        powers.append(_mat_mul(F, N, powers[-1]))
    acts = [[[F.norm(sum(poly[e] * powers[e][i][j] for e in range(n))) for j in range(m)] for i in range(m)]
            for poly in basis]
    return _module_text(F, acts, rng)


def parse_algebra(text: str):
    """(scalars, dim, table) from algebra text; table[i][j] is b_i * b_j."""
    F = dim = table = None
    for line in text.splitlines():
        if line.startswith("field "):
            F = Scalars(line[6:].strip())
        elif line.startswith("dim "):
            dim = int(line[4:])
            table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        elif line.startswith("mul "):
            head, _, rest = line[4:].partition("=")
            i, j = (int(t) - 1 for t in head.split())
            table[i][j] = [F.norm(Fraction(t)) for t in rest.split()]
    return F, dim, table


def regular_module(text: str, rng):
    """The left regular module of an algebra given as text, in a seeded
    basis: b_k acts on b_j by the structure constants b_k * b_j."""
    F, dim, table = parse_algebra(text)
    return _module_text(F, [[[table[k][j][i] for j in range(dim)] for i in range(dim)] for k in range(dim)], rng)


def _module_text(F, acts, rng):
    """Module text for the action matrices of the algebra basis, after a
    seeded change of the module's basis."""
    m = len(acts[0])
    P, Pinv = _unitriangular(F, m, rng)
    lines = ["algmod", f"dim {m}"]
    for k, act in enumerate(acts):
        act = _mat_mul(F, Pinv, _mat_mul(F, act, P))
        if any(any(row) for row in act):
            lines.append(f"act {k + 1} = " + " ".join("[" + " ".join(F.fmt(x) for x in row) + "]" for row in act))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# known-answer checks on stdout
# ---------------------------------------------------------------------------

def _grab(pattern, out):
    m = re.search(pattern, out, re.M)
    return m.groups() if m else None


def expect_count(pattern, want, what):
    def check(out):
        got = _grab(pattern, out)
        if got is None:
            return f"no '{what}' line"
        if int(got[0]) != want:
            return f"{what}: {got[0]}, theory says {want}"
        return None
    return check


def expect_coverage(covered):
    """`covered` is the theory count, or None where only '0 missing' is known
    (the rational oracle samples a grid, so its covered count is not fixed
    by theory)."""
    def check(out):
        got = _grab(r"^coverage at .*: (\d+) covered, (\d+) missing$", out)
        if got is None:
            return "no coverage line"
        if int(got[1]) != 0:
            return f"{KNOWN_DEFECT}: {got[1]} missing, theory says 0"
        if covered is not None and int(got[0]) != covered:
            return f"covered {got[0]}, theory says {covered}"
        return None
    return check


def expect_terminal_rational(graph, fld, d):
    """Rational points of the minimal layer.  The composite functor is full
    and faithful, so a rational point would give indecomposables of
    unbounded dimension: a Dynkin quiver has none.  Over Q, the Kronecker
    (1,1) modules form an infinite family of endolength 2, which for d >= 2
    a layer with trivial points only cannot cover.  Other cases are not
    fixed by theory and are not checked."""
    if graph != "K":
        lo, hi = 0, 0
    elif fld == "q" and d >= 2:
        lo, hi = 1, None
    else:
        return lambda out: None

    def check(out):
        if "\n\nditalgebra\n" not in out:
            return "no terminal layer"
        block = out.split("\n\nditalgebra\n", 1)[1].split("\n\n", 1)[0]
        got = len(re.findall(r"^point \d+ = rat ", block, re.M))
        if got < lo or (hi is not None and got > hi):
            return f"terminal rational points {got}, theory says {lo}..{'' if hi is None else hi}"
        return None
    return check


def expect_generics(count, rank):
    def check(out):
        got = _grab(r"^census at endolength <= \d+: (\d+) generic realization", out)
        if got is None:
            return "no census line"
        if int(got[0]) != count:
            return f"generic realizations {got[0]}, theory says {count}"
        ranks = re.findall(r"^  point \S+: rank (\d+)", out, re.M)
        if count and ranks != [str(rank)] * count:
            return f"generic ranks {ranks}, theory says {rank}"
        return None
    return check


def expect_line(text):
    def check(out):
        return None if re.search(text, out, re.M) else f"missing line {text!r}"
    return check


def _all(*checks):
    def check(out):
        for c in checks:
            why = c(out)
            if why:
                return why
        return None
    return check


# ---------------------------------------------------------------------------
# job kinds
# ---------------------------------------------------------------------------

def kron_covered(q, d, max_dim):
    """Kronecker indecomposables over F_q with endolength <= d and total
    dimension <= max_dim (max_dim <= 4)."""
    # (endolength, total dimension, number of modules)
    by_endo_dim = [(1, 1, 2), (2, 2, q + 1), (3, 3, 2), (2, 4, (q * q - q) // 2), (4, 4, q + 1)]
    return sum(c for endo, dim, c in by_endo_dim if endo <= d and dim <= max_dim)


def dynkin_covered(graph, d, max_dim):
    return sum(c for t, c in ROOTS_BY_TOTAL[graph].items() if t <= min(d, max_dim))


def generic_answer(graph, d):
    """(number of generic modules with endolength <= d, their rank)."""
    return (1, 2) if graph == "K" and d >= 2 else (0, 0)


def job_reduce(rng, graph, fld, d, oracle=False, max_dim=4):
    text, _ = layer_text(graph, fld, rng)
    argv = ["reduce", "L.dit", "-d", str(d)]
    checks = [expect_terminal_rational(graph, fld, d)]
    defect = False
    if oracle:
        argv += ["--oracle", "--max-dim", str(max_dim)]
        if fld == "q":
            covered, defect = None, True
        elif graph == "K":
            covered = kron_covered(int(fld.split(":")[1]), d, max_dim)
        else:
            covered = dynkin_covered(graph, d, max_dim)
        checks.append(expect_coverage(covered))
    fam = f"reduce{'-oracle' if oracle else ''} {graph} {fld} d={d}" + (f" m={max_dim}" if oracle else "")
    return Job(fam, argv, {"L.dit": text}, 0, _all(*checks), known_defect_possible=defect)


def job_enumerate(rng, graph, fld, max_dim):
    text, _ = layer_text(graph, fld, rng)
    if graph == "K":
        want = kron_covered(int(fld.split(":")[1]), 99, max_dim)
    else:
        want = sum(c for t, c in ROOTS_BY_TOTAL[graph].items() if t <= max_dim)
        if max_dim >= max(ROOTS_BY_TOTAL[graph]):
            assert want == POSITIVE_ROOTS[graph]
    return Job(f"enumerate {graph} {fld} m={max_dim}", ["enumerate", "L.dit", "--max-dim", str(max_dim)],
               {"L.dit": text}, 0,
               expect_count(r"^indecomposables with total dimension <= \d+: (\d+)$", want, "indecomposables"))


def job_generics(rng, graph, d):
    text, _ = layer_text(graph, "q", rng)
    count, rank = generic_answer(graph, d)
    return Job(f"generics {graph} q d={d}", ["generics", "L.dit", "-d", str(d)], {"L.dit": text}, 0,
               expect_generics(count, rank))


def _right_algebra_meta(rng, graph, fld, turns):
    """The right algebra needs the program, so the benchmark makes its file
    from the layer when it prepares the job; the job carries the layer and
    the dimension theory gives (the path count of the quiver)."""
    text, arrows = layer_text(graph, fld, rng, turns)
    return {"layer": text, "alg_dim": path_count(GRAPHS[graph][0], arrows)}


def job_qh_layer(rng, graph, fld, turns):
    """`qh` on the right algebra of a seeded layer: always passes."""
    return Job(f"qh right-algebra {graph} {fld} turns={turns}", ["qh", "R.alg"], {"R.alg": None}, 0,
               expect_line(r"^overall: quasi-hereditary$"), meta=_right_algebra_meta(rng, graph, fld, turns))


def job_filtration_layer(rng, graph, fld, turns):
    """`filtration` of the regular module, in a seeded basis, of the right
    algebra of a seeded layer: always filtered."""
    meta = _right_algebra_meta(rng, graph, fld, turns)
    meta["module_seed"] = rng.randrange(1 << 30)
    return Job(f"filtration regular {graph} {fld} turns={turns}", ["filtration", "R.alg", "M.mod"],
               {"R.alg": None, "M.mod": None}, 0, expect_line(r"^filtration with \d+ layer"), meta=meta)


def job_qh_truncated(rng, fld, n):
    F = Scalars(fld)
    text, _ = truncated_poly_algebra(F, n, rng)
    return Job(f"qh k[t]/(t^{n}) {fld}", ["qh", "T.alg"], {"T.alg": text}, 1,
               expect_line(r"^overall: NOT quasi-hereditary for this order$"))


def job_filtration_truncated(rng, fld, n, parts):
    F = Scalars(fld)
    text, basis = truncated_poly_algebra(F, n, rng)
    free = all(p == n for p in parts)
    mod = jordan_module(F, n, basis, parts, rng)
    return Job(f"filtration k[t]/(t^{n}) {fld} {'+'.join(map(str, parts))}", ["filtration", "T.alg", "M.mod"],
               {"T.alg": text, "M.mod": mod}, 0 if free else 1,
               expect_line(r"^filtration with \d+ layer" if free else r"^no filtration by the standard family"))


# One round of each workload: every kind once, in a seeded order.  A run
# repeats rounds with fresh seeded instances until its time is up, so
# every run sees the same families and sizes in the same proportions.
# Each mix puts a band of kinds of similar cost around the median and
# another around the 75th percentile of job time, so that the noise of a
# single job cannot move either percentile far.
def round_kinds(workload):
    K = lambda f, *a, **kw: (lambda rng: f(rng, *a, **kw))  # noqa: E731
    if workload == "verify_fp":
        return [
            K(job_reduce, "K", "fp:2", 2, oracle=True, max_dim=4),
            K(job_reduce, "D4", "fp:2", 2, oracle=True, max_dim=3),
            K(job_reduce, "D4", "fp:2", 3, oracle=True, max_dim=3),
            K(job_reduce, "K", "fp:3", 2, oracle=True, max_dim=2),
            K(job_reduce, "K", "fp:3", 1, oracle=True, max_dim=3),
            K(job_reduce, "A3", "fp:3", 2, oracle=True, max_dim=3),
            K(job_reduce, "A4", "fp:2", 2, oracle=True, max_dim=3),
            K(job_reduce, "A4", "fp:3", 2, oracle=True, max_dim=3),
            K(job_reduce, "D4", "fp:3", 1, oracle=True, max_dim=3),
            K(job_reduce, "A3", "fp:2", 3, oracle=True, max_dim=3),
            K(job_enumerate, "A3", "fp:3", 3),
            K(job_enumerate, "K", "fp:2", 3),
            K(job_enumerate, "K", "fp:3", 3),
        ]
    if workload == "rational_q":
        return [
            K(job_reduce, "K", "q", 1, oracle=True, max_dim=3),
            K(job_reduce, "A4", "q", 1, oracle=True, max_dim=3),
            K(job_reduce, "K", "q", 2, oracle=True, max_dim=2),
            K(job_reduce, "A3", "q", 2, oracle=True, max_dim=3),
            K(job_generics, "K", 2),
            K(job_reduce, "K", "q", 2),
            K(job_generics, "D4", 3),
            K(job_reduce, "D4", "q", 3),
            K(job_reduce, "D4", "q", 2, oracle=True, max_dim=2),
            K(job_generics, "D4", 2),
            K(job_reduce, "D4", "q", 2),
            K(job_reduce, "A4", "q", 2, oracle=True, max_dim=2),
            K(job_generics, "A4", 2),
            K(job_reduce, "A4", "q", 3),
            K(job_reduce, "K", "q", 1, oracle=True, max_dim=2),
            K(job_reduce, "K", "q", 1),
        ]
    if workload == "bridge_qh":
        return [
            K(job_qh_layer, "A4", "fp:2", 2),
            K(job_qh_layer, "A4", "q", 1),
            K(job_filtration_layer, "A4", "q", 1),
            K(job_qh_truncated, "q", 4),
            K(job_qh_layer, "A3", "q", 0),
            K(job_qh_layer, "A3", "fp:2", 1),
            K(job_filtration_truncated, "fp:2", 3, (3, 2, 1)),
            K(job_filtration_layer, "A3", "fp:2", 0),
            K(job_qh_truncated, "fp:2", 4),
            K(job_qh_truncated, "q", 3),
            K(job_filtration_truncated, "q", 3, (3, 3)),
            K(job_filtration_truncated, "q", 2, (2, 1)),
            K(job_filtration_truncated, "fp:2", 3, (3, 3)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def make_round(workload, rng):
    jobs = [kind(rng) for kind in round_kinds(workload)]
    rng.shuffle(jobs)
    return jobs
