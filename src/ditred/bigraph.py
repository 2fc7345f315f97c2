"""Bigraphs with two arrow sorts and their layered graded tensor algebras.

Points carry components of a minimal algebra (the ground field k, or a
localized polynomial algebra k[x]_g).  Full arrows generate the degree-0
part, dashed arrows raise the degree by one.  Elements of the tensor
algebra are k-linear combinations of decorated paths: a path may carry a
power of x at every rational point it passes through.  A derivation is
stored on generators and extended by the graded Leibniz rule with sign
(-1)^(deg) on the left factor.
"""

from __future__ import annotations

import re
from operator import attrgetter

from .errors import DitredError, ParseError, line_context
from .linalg import Span
from .scalars import field_from_name, field_name, parse_poly, poly_str


class UndecidableForCyclic(DitredError, ValueError):
    """Ideal membership needs a finite path basis, so a directed bigraph."""


class UnsupportedDecoration(DitredError, ValueError):
    """A construction required a non-polynomial coefficient inside a path."""


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RESERVED_RE = re.compile(r"^[ex]\d+$")


class _Record:
    """Base of small immutable records whose fields are the subclass's
    `__slots__`, set once in `__init__` with `object.__setattr__`.  Records
    are equal when of the same class with equal fields, hash as the tuple
    of their fields, and copy and pickle by calling the class on them."""

    __slots__ = ()

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        # the tuple of a record's fields (records have two or more)
        cls._values = staticmethod(attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({body})"

    def __reduce__(self):
        return self.__class__, self._values(self)


class Arrow(_Record):
    """An arrow `name`: s -> t of degree `deg` (0 full, 1 dashed)."""

    __slots__ = ("name", "s", "t", "deg")

    def __init__(self, name: str, s: int, t: int, deg: int):
        if not _NAME_RE.match(name) or _RESERVED_RE.match(name):
            raise ValueError(f"bad arrow name {name!r}")
        init = object.__setattr__
        init(self, "name", name)
        init(self, "s", s)
        init(self, "t", t)
        init(self, "deg", deg)


class PathAlgebra:
    """Multiplication context for decorated paths over a minimal base."""

    def __init__(self, field, base, arrows):
        self.field = field
        self.base = tuple(base)  # per point: None (k) or Poly g (k[x]_g)
        self.n = len(self.base)
        self.arrows = {}
        for a in arrows:
            if a.name in self.arrows:
                raise ValueError(f"duplicate arrow name {a.name}")
            if not (0 <= a.s < self.n and 0 <= a.t < self.n):
                raise ValueError(f"arrow {a.name} endpoint out of range")
            self.arrows[a.name] = a
        self.delta_table = {}  # arrow name -> PathElement (absent = 0)

    def is_rational(self, i: int) -> bool:
        return self.base[i] is not None

    # -- keys -----------------------------------------------------------
    # key = (start, arrows_tuple, exps_tuple); exps has len(arrows)+1 ints,
    # exps[j] the x-power at the point between arrow j and arrow j+1.
    def key_end(self, key):
        arrows = key[1]
        return self.arrows[arrows[-1]].t if arrows else key[0]

    def key_degree(self, key):
        return sum(self.arrows[a].deg for a in key[1])

    def split_at_dashed(self, key):
        """Cut a key at its dashed (degree-1) letters: returns (segments,
        letters), the degree-0 keys between the dashed letters in the order
        they are applied, one more than the letters, and those letters.
        Each segment starts at the end of the letter before it and carries
        the x-exponents of its own junctions."""
        start, arrows, exps = key
        segments, letters = [], []
        k0 = 0
        for k, name in enumerate(arrows):
            a = self.arrows[name]
            if a.deg:
                segments.append((start, arrows[k0:k], exps[k0:k + 1]))
                letters.append(name)
                start, k0 = a.t, k + 1
        segments.append((start, arrows[k0:], exps[k0:]))
        return segments, letters

    def mul_key(self, kp, kq):
        """Product key for p∘q (apply q first); None when non-composable."""
        if kp[0] != self.key_end(kq):
            return None
        arrows = kq[1] + kp[1]
        exps = kq[2][:-1] + (kq[2][-1] + kp[2][0],) + kp[2][1:]
        return (kq[0], arrows, exps)

    # -- elements ---------------------------------------------------------
    def zero(self) -> "PathElement":
        return PathElement._own(self, {})

    def unit(self) -> "PathElement":
        return sum((self.e(i) for i in range(self.n)), self.zero())

    def e(self, i: int) -> "PathElement":
        return PathElement._own(self, {(i, (), (0,)): self.field.one})

    def x(self, i: int, e: int = 1) -> "PathElement":
        if not self.is_rational(i):
            raise UnsupportedDecoration(f"point {i} is trivial")
        return PathElement(self, {(i, (), (e,)): self.field.one})

    def gen(self, name: str) -> "PathElement":
        a = self.arrows[name]
        return PathElement._own(self, {(a.s, (name,), (0, 0)): self.field.one})

    def path(self, names, coeff=None) -> "PathElement":
        """Path from a composition-order list (leftmost applied last)."""
        el = None
        for nm in reversed(names):
            el = self.gen(nm) if el is None else self.gen(nm) * el
        if el is None:
            raise ValueError("empty path")
        return el if coeff is None else el.scale(coeff)

    def delta_of_key(self, key) -> "PathElement":
        """δ of one decorated path by the Leibniz rule: the i-th arrow's
        derivation spliced between the path's head and tail, negated when
        the head has odd degree."""
        out = {}
        self._delta_into(out, key)
        return PathElement._own(self, out)

    def _delta_into(self, out: dict, key, c=None):
        """Add δ(key), times c when c is given, to the term dict `out`,
        term by term in the order of `delta_of_key`; a sum that vanishes
        drops its key.  Each term of δ(arrow) is spliced into the key as
        tuples, with no composability test: every derivation value runs
        between the endpoints of its arrow (`Ditalgebra.validate` checks
        that before it applies δ), so every splice composes.  The sign is
        the parity of the degrees after the i-th arrow, kept as a running
        suffix parity."""
        start, arrows, exps = key
        table = self.delta_table
        defs = self.arrows
        zero = self.field.zero
        odd = 0
        for name in arrows:
            odd ^= defs[name].deg
        for i, name in enumerate(arrows):
            odd ^= defs[name].deg  # now the parity of arrows[i + 1:]
            d = table.get(name)
            if d is None or not d.terms:
                continue
            sign = None if c is None else -c if odd else c
            head, tail = arrows[:i], arrows[i + 1:]
            ehead, etail = exps[:i], exps[i + 2:]
            el, er = exps[i], exps[i + 1]
            for (_, darrows, dexps), dc in d.terms.items():
                if el or er:
                    if len(dexps) > 1:
                        mid = (el + dexps[0],) + dexps[1:-1] + (dexps[-1] + er,)
                    else:
                        mid = (el + dexps[0] + er,)
                else:
                    mid = dexps
                k = (start, head + darrows + tail, ehead + mid + etail)
                v = out.get(k, zero) + ((-dc if odd else dc) if sign is None else dc * sign)
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)

    def delta(self, el: "PathElement") -> "PathElement":
        """δ of an element: the δ of each of its keys, scaled by the key's
        coefficient and added one key at a time, so a key that cancels and
        comes back lands where a sum of `delta_of_key` values puts it."""
        out = {}
        z = self.field.zero
        part = {}
        for key, c in el.terms.items():
            self._delta_into(part, key)
            for k, v in part.items():
                v = out.get(k, z) + v * c
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
            part.clear()
        return PathElement._own(self, out)

    def _delta_vanishes(self, el: "PathElement") -> bool:
        """Whether δ(el) = 0, without its term order: every term of every
        key, times the key's coefficient, goes into one dict."""
        out = {}
        for key, c in el.terms.items():
            self._delta_into(out, key, c)
        return not out


class PathElement:
    """k-linear combination of decorated paths in a fixed path algebra.

    Zero coefficients are dropped by truth value, so every coefficient
    type must define `__bool__` as "nonzero" (`int`, `Fraction`, `FpElt`
    and `RatFunc` do).
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: PathAlgebra, terms: dict):
        self.alg = alg
        self.terms = {k: c for k, c in terms.items() if c}

    @staticmethod
    def _own(alg: PathAlgebra, terms: dict) -> "PathElement":
        """Trusted constructor: `terms` is a fresh dict with no zero
        coefficient, which the new element takes over as it is."""
        el = object.__new__(PathElement)
        el.alg = alg
        el.terms = terms
        return el

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PathElement") -> "PathElement":
        out = dict(self.terms)
        cancelled = False
        for k, c in other.terms.items():
            if k in out:
                c = out[k] + c
                cancelled = cancelled or not c
            out[k] = c
        if cancelled:
            out = {k: c for k, c in out.items() if c}
        return PathElement._own(self.alg, out)

    def __radd__(self, other):
        if other == 0:
            return self
        return self + other

    def __sub__(self, other: "PathElement") -> "PathElement":
        return self + (-other)

    def __neg__(self) -> "PathElement":
        return PathElement._own(self.alg, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "PathElement":
        c = self.alg.field.of(c) if isinstance(c, int) else c
        if not c:
            return PathElement._own(self.alg, {})
        return PathElement._own(self.alg, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "PathElement") -> "PathElement":
        """self∘other, the keys spliced as `PathAlgebra.mul_key` composes
        them: each right key is taken apart once, with the x-power at its
        end kept apart, which a left key's first x-power joins."""
        out = {}
        z = self.alg.field.zero
        end = self.alg.key_end
        right = [(end(kq), kq[0], kq[1], kq[2][:-1], kq[2][-1], cq) for kq, cq in other.terms.items()]
        for (p0, pa, pe), cp in self.terms.items():
            pe_rest = pe[1:]
            for q_end, q0, qa, qe_head, qe_last, cq in right:
                if p0 != q_end:
                    continue
                k = (q0, qa + pa, qe_head + (qe_last + pe[0],) + pe_rest if qe_last else qe_head + pe)
                out[k] = out.get(k, z) + cp * cq
        # a key that cancels keeps its first position until this one filter
        return PathElement._own(self.alg, {k: c for k, c in out.items() if c})

    def is_homogeneous(self, d: int) -> bool:
        return all(self.alg.key_degree(k) == d for k in self.terms)

    def arrow_names(self):
        return {a for k in self.terms for a in k[1]}

    def __eq__(self, other):
        return isinstance(other, PathElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return path_element_str(self)


# ---------------------------------------------------------------------------
# the layered structure
# ---------------------------------------------------------------------------

class Ditalgebra:
    """A layered graded tensor algebra with derivation and ideal.

    `base[i]` is None for a trivial point (component k e_i) and a monic
    polynomial g for a rational point (component k[x]_g).  `delta` maps
    generator names to elements one degree higher.  `ideal` holds degree-0
    generators of a two-sided ideal.  `absorbed` marks full arrows that
    have been moved into the degree-0 base subalgebra by absorption; their
    derivation must vanish and modules treat them like ordinary arrows.
    """

    def __init__(
        self,
        field,
        base,
        full,
        dashed,
        delta=None,
        ideal=(),
        filtration=None,
        absorbed=frozenset(),
        labels=None,
    ):
        self.field = field
        self.base = tuple(base)
        self.full = tuple(full)
        self.dashed = tuple(dashed)
        self.alg = PathAlgebra(field, self.base, list(self.full) + list(self.dashed))
        self.delta = dict(delta or {})
        self.alg.delta_table = self.delta
        self.ideal = tuple(ideal)
        self.filtration = filtration
        self.absorbed = frozenset(absorbed)
        self.labels = tuple(labels) if labels else tuple(str(i + 1) for i in range(len(self.base)))
        # read by every module construction over this layer
        self.rational_points = tuple(i for i, g in enumerate(self.base) if g is not None)
        self.full_names_set = frozenset(a.name for a in self.full)
        self.validate()

    # -- structure ------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.base)

    def points(self):
        return range(self.n)

    def is_rational(self, i: int) -> bool:
        return self.base[i] is not None

    def arrow(self, name: str) -> Arrow:
        return self.alg.arrows[name]

    def delta_of(self, name: str) -> PathElement:
        d = self.delta.get(name)
        return self.alg.zero() if d is None else d

    def apply_delta(self, el: PathElement) -> PathElement:
        return self.alg.delta(el)

    def full_names(self):
        return [a.name for a in self.full]

    def dashed_names(self):
        return [a.name for a in self.dashed]

    def validate(self):
        for a in self.full:
            if a.deg != 0:
                raise ValueError("full arrow with nonzero degree")
        for a in self.dashed:
            if a.deg != 1:
                raise ValueError("dashed arrow with degree != 1")
        for name, d in self.delta.items():
            if d.is_zero():
                continue
            a = self.alg.arrows[name]
            want = a.deg + 1
            if not d.is_homogeneous(want):
                raise ValueError(f"delta({name}) must be homogeneous of degree {want}")
            for key in d.terms:
                if key[0] != a.s or d.alg.key_end(key) != a.t:
                    raise ValueError(f"delta({name}) leaves the ({a.s},{a.t}) component")
        for name in self.absorbed:
            if not self.delta_of(name).is_zero():
                raise ValueError(f"absorbed arrow {name} must have zero derivation")
        for g in self.ideal:
            if not g.is_homogeneous(0) and not g.is_zero():
                raise ValueError("ideal generators must have degree 0")
        for a in list(self.full) + list(self.dashed):
            d = self.delta.get(a.name)
            if d is not None and not self.alg._delta_vanishes(d):
                raise ValueError(f"delta^2 != 0 on {a.name}")

    # -- predicates -------------------------------------------------------
    def check_directed(self) -> bool:
        """No oriented cycle through arrows of either sort, and no
        rational points (their components already carry a loop x)."""
        if any(self.is_rational(i) for i in self.points()):
            return False
        adj = {i: set() for i in self.points()}
        for a in list(self.full) + list(self.dashed):
            if a.s == a.t:
                return False
            adj[a.s].add(a.t)
        seen, stack = {}, []

        def visit(v):
            seen[v] = 1
            for w in adj[v]:
                if seen.get(w) == 1:
                    return False
                if seen.get(w) is None and not visit(w):
                    return False
            seen[v] = 2
            return True

        return all(visit(v) for v in self.points() if seen.get(v) is None)

    def check_source(self, i0: int) -> bool:
        """No arrow of either sort ends at i0, the component there is
        trivial, and e_{i0} is not in the ideal."""
        if self.is_rational(i0):
            return False
        if any(a.t == i0 for a in list(self.full) + list(self.dashed)):
            return False
        try:
            if self.ideal_membership(self.alg.e(i0)):
                return False
        except UndecidableForCyclic:
            if any(not g.is_zero() for g in self.ideal):
                raise
        return True

    def sources(self):
        return [i for i in self.points() if self.check_source(i)]

    def check_stellar(self):
        """Smallest source point from which every full arrow starts, or
        None when no such star center exists."""
        for i0 in self.points():
            if not self.check_source(i0):
                continue
            if all(a.s == i0 for a in self.full):
                return i0
        return None

    def is_minimal(self) -> bool:
        return not self.full and not self.absorbed and all(g.is_zero() for g in self.ideal)

    # -- ideal ------------------------------------------------------------
    def degree0_path_basis(self):
        """All degree-0 paths (full arrows only, no decorations); finite
        exactly when the full-arrow graph is acyclic and points trivial."""
        if any(self.is_rational(i) for i in self.points()):
            raise UndecidableForCyclic("rational components give unbounded degree-0 paths")
        adj = {i: [] for i in self.points()}
        for a in self.full:
            adj[a.s].append(a)
            if a.s == a.t:
                raise UndecidableForCyclic("loop gives unbounded paths")
        keys = [(i, (), (0,)) for i in self.points()]
        frontier = list(keys)
        while frontier:
            new = []
            for key in frontier:
                end = self.alg.key_end(key)
                for a in adj[end]:
                    k2 = (key[0], key[1] + (a.name,), key[2] + (0,))
                    new.append(k2)
            keys.extend(new)
            frontier = new
            if frontier and len(frontier[0][1]) > self.n:
                raise UndecidableForCyclic("unbounded path length")
        return keys

    def ideal_membership(self, el: PathElement) -> bool:
        """Exact membership of a degree-0 element in the two-sided ideal
        generated by the recorded generators."""
        if not el.is_homogeneous(0):
            raise ValueError("membership is defined for degree-0 elements")
        gens = [g for g in self.ideal if not g.is_zero()]
        if el.is_zero():
            return True
        if not gens:
            return False
        keys = self.degree0_path_basis()
        index = {k: i for i, k in enumerate(keys)}
        paths = [PathElement(self.alg, {k: self.field.one}) for k in keys]

        def vec(x: PathElement):
            v = [self.field.zero] * len(keys)
            for k, c in x.terms.items():
                v[index[k]] = c
            return v

        spanning = []
        for g in gens:
            for p in paths:
                for q in paths:
                    w = p * g * q
                    if not w.is_zero():
                        spanning.append(vec(w))
        return Span(self.field, spanning).contains(vec(el))

    # -- triangularity ------------------------------------------------------
    def verify_filtration(self, filt) -> bool:
        """Check a two-sided triangularity witness: an ordered partition of
        the full arrows whose derivations only use earlier full arrows, and
        one of the dashed arrows whose derivations only use earlier dashed
        arrows."""
        filt_full, filt_dashed = filt
        listed_f = [x for grp in filt_full for x in grp]
        listed_d = [x for grp in filt_dashed for x in grp]
        if sorted(listed_f) != sorted(self.full_names()) or sorted(listed_d) != sorted(self.dashed_names()):
            return False
        avail = set()
        for grp in filt_full:
            for a in grp:
                used = self.delta_of(a).arrow_names()
                if any(self.alg.arrows[u].deg == 0 and u not in avail for u in used):
                    return False
            avail.update(grp)
        avail = set()
        for grp in filt_dashed:
            for v in grp:
                used = self.delta_of(v).arrow_names()
                if any(self.alg.arrows[u].deg == 1 and u not in avail for u in used):
                    return False
            avail.update(grp)
        return True

    def find_filtration(self):
        """Greedy triangularity witness, or None: each group holds, in the
        layer's arrow order, every arrow not yet placed whose derivation
        uses only arrows of its own degree in earlier groups."""

        def order(names, deg):
            arrows = self.alg.arrows
            used = {a: {u for u in self.delta_of(a).arrow_names() if arrows[u].deg == deg} for a in names}
            remaining = list(names)
            chosen = []
            avail = set()
            while remaining:
                layer, rest = [], []
                for a in remaining:
                    (layer if used[a] <= avail else rest).append(a)
                if not layer:
                    return None
                chosen.append(tuple(layer))
                avail.update(layer)
                remaining = rest
            return tuple(chosen)

        of = order(self.full_names(), 0)
        od = order(self.dashed_names(), 1)
        if of is None or od is None:
            return None
        return (of, od)

    # -- misc ---------------------------------------------------------------
    def content_hash(self) -> str:
        import hashlib  # here, not at the top: `import ditred` needs no hashing

        return hashlib.sha256(ditalgebra_to_text(self).encode()).hexdigest()[:16]

    def __repr__(self):
        kinds = ",".join("k" if g is None else f"k[x]_({poly_str(g)})" for g in self.base)
        return (
            f"Ditalgebra({self.field!r}; points={self.n} [{kinds}]; "
            f"full={len(self.full)}, dashed={len(self.dashed)}, ideal={len([g for g in self.ideal if not g.is_zero()])})"
        )


# ---------------------------------------------------------------------------
# operations named in the public surface
# ---------------------------------------------------------------------------

def build_path_algebra(field, base, arrows) -> PathAlgebra:
    """Standalone multiplication handle for a bigraph over a base."""
    return PathAlgebra(field, base, arrows)


def apply_derivation(dit: Ditalgebra, el: PathElement) -> PathElement:
    return dit.apply_delta(el)


def check_directed(dit: Ditalgebra) -> bool:
    return dit.check_directed()


def check_source(dit: Ditalgebra, i0: int) -> bool:
    return dit.check_source(i0)


def check_stellar(dit: Ditalgebra):
    return dit.check_stellar()


def ideal_membership(dit: Ditalgebra, el: PathElement) -> bool:
    return dit.ideal_membership(el)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def path_element_str(el: PathElement) -> str:
    if el.is_zero():
        return "0"
    parts = []
    for key in sorted(el.terms, key=lambda k: (len(k[1]), k)):
        c = el.terms[key]
        start, arrows, exps = key
        factors = []
        pt = start
        if exps[0]:
            factors.append(f"x{pt + 1}^{exps[0]}" if exps[0] != 1 else f"x{pt + 1}")
        for j, name in enumerate(arrows):
            factors.append(name)
            pt = el.alg.arrows[name].t
            e = exps[j + 1]
            if e:
                factors.append(f"x{pt + 1}^{e}" if e != 1 else f"x{pt + 1}")
        if not factors:
            factors.append(f"e{start + 1}")
        body = "*".join(reversed(factors))
        cs = str(c)
        if cs == "1":
            parts.append(body)
        elif cs == "-1":
            parts.append(f"-{body}")
        else:
            parts.append(f"{cs}*{body}")
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


_STATIONARY_RE = re.compile(r"^e(\d+)$")
_XPOW_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_SCALAR_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_path_element(alg: PathAlgebra, s: str) -> PathElement:
    s = s.strip()
    if s in ("0", ""):
        return alg.zero()
    s = s.replace(" - ", " + -")
    acc = alg.zero()
    for term in s.split(" + "):
        term = term.strip()
        neg = term.startswith("-")
        if neg:
            term = term[1:].strip()
        coeff = alg.field.one
        el = None
        factors = term.split("*")
        # factors are written composition-order (leftmost applied last)
        for f in reversed(factors):
            f = f.strip()
            if _SCALAR_RE.match(f):
                coeff = coeff * alg.field.parse(f)
                continue
            m = _STATIONARY_RE.match(f) or _XPOW_RE.match(f)
            if m:
                i = int(m.group(1)) - 1
                if not 0 <= i < alg.n:
                    raise ParseError(f"unknown point in factor {f!r}")
                nxt = alg.e(i) if f[0] == "e" else alg.x(i, int(m.group(2) or 1))
            elif f in alg.arrows:
                nxt = alg.gen(f)
            else:
                raise ParseError(f"unknown factor {f!r} in path element")
            el = nxt if el is None else nxt * el
        if el is None:
            raise ParseError(f"term {term!r} has no path part")
        el = el.scale(coeff)
        acc = acc + (-el if neg else el)
    return acc


def ditalgebra_to_text(dit: Ditalgebra) -> str:
    lines = ["ditalgebra", f"field {field_name(dit.field)}", f"points {dit.n}"]
    for i, g in enumerate(dit.base):
        comp = "k" if g is None else f"rat {poly_str(g)}"
        lines.append(f"point {i + 1} = {comp}")
        if dit.labels[i] != str(i + 1):
            lines.append(f"label {i + 1} = {dit.labels[i]}")
    for a in dit.full:
        lines.append(f"full {a.name} : {a.s + 1} -> {a.t + 1}")
    for a in dit.dashed:
        lines.append(f"dashed {a.name} : {a.s + 1} -> {a.t + 1}")
    for a in list(dit.full) + list(dit.dashed):
        d = dit.delta_of(a.name)
        if not d.is_zero():
            lines.append(f"delta {a.name} = {path_element_str(d)}")
    gens = [g for g in dit.ideal if not g.is_zero()]
    if gens:
        lines.append("ideal = [" + " ; ".join(path_element_str(g) for g in gens) + "]")
    if dit.absorbed:
        lines.append("absorbed = [" + " ".join(sorted(dit.absorbed)) + "]")
    if dit.filtration:
        ff, fd = dit.filtration
        lines.append("filtration full = [" + " | ".join(" ".join(g) for g in ff) + "]")
        lines.append("filtration dashed = [" + " | ".join(" ".join(g) for g in fd) + "]")
    return "\n".join(lines) + "\n"


def _match(pattern, line, ln):
    m = re.match(pattern, line)
    if not m:
        raise ParseError(f"bad line {line!r}", ln)
    return m


def ditalgebra_from_text(text: str) -> Ditalgebra:
    field = None
    npoints = None
    base = []
    labels = {}
    full, dashed = [], []
    delta_lines = []
    ideal_line = None
    absorbed = frozenset()
    filt_full = filt_dashed = None
    header_seen = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != "ditalgebra":
                raise ParseError("expected 'ditalgebra' header", ln)
            header_seen = True
            continue
        with line_context(ln):
            if line.startswith("field "):
                field = field_from_name(line[6:])
            elif line.startswith("points "):
                npoints = int(line[7:])
                base = [None] * npoints
            elif line.startswith("point "):
                m = _match(r"^point\s+(\d+)\s*=\s*(.+)$", line, ln)
                i = int(m.group(1)) - 1
                if npoints is None or not 0 <= i < npoints:
                    raise ParseError(f"point {i + 1} out of range", ln)
                comp = m.group(2).strip()
                if comp == "k":
                    base[i] = None
                elif comp.startswith("rat"):
                    base[i] = parse_poly(field, comp[3:]).monic()
                else:
                    raise ParseError(f"unknown component {comp!r}", ln)
            elif line.startswith("label "):
                m = _match(r"^label\s+(\d+)\s*=\s*(.+)$", line, ln)
                labels[int(m.group(1)) - 1] = m.group(2).strip()
            elif line.startswith("full ") or line.startswith("dashed "):
                kind, rest = line.split(" ", 1)
                m = _match(r"^(\S+)\s*:\s*(\d+)\s*->\s*(\d+)$", rest.strip(), ln)
                s, t = int(m.group(2)), int(m.group(3))
                if npoints is None or not (1 <= s <= npoints and 1 <= t <= npoints):
                    raise ParseError(f"arrow {m.group(1)} endpoint out of range", ln)
                arr = Arrow(m.group(1), s - 1, t - 1, 0 if kind == "full" else 1)
                (full if kind == "full" else dashed).append(arr)
            elif line.startswith("delta "):
                m = _match(r"^delta\s+(\S+)\s*=\s*(.+)$", line, ln)
                delta_lines.append((ln, m.group(1), m.group(2)))
            elif line.startswith("ideal"):
                ideal_line = ln, _match(r"^ideal\s*=\s*\[(.*)\]$", line, ln).group(1)
            elif line.startswith("absorbed"):
                m = _match(r"^absorbed\s*=\s*\[(.*)\]$", line, ln)
                absorbed = frozenset(m.group(1).split())
            elif line.startswith("filtration full"):
                m = _match(r"^filtration full\s*=\s*\[(.*)\]$", line, ln)
                filt_full = tuple(tuple(grp.split()) for grp in m.group(1).split("|") if grp.strip())
            elif line.startswith("filtration dashed"):
                m = _match(r"^filtration dashed\s*=\s*\[(.*)\]$", line, ln)
                filt_dashed = tuple(tuple(grp.split()) for grp in m.group(1).split("|") if grp.strip())
            else:
                raise ParseError(f"unrecognized line {line!r}", ln)
    if field is None or npoints is None:
        raise ParseError("missing field or points declaration")
    alg = PathAlgebra(field, base, full + dashed)
    delta = {}
    for ln, name, src in delta_lines:
        if name not in alg.arrows:
            raise ParseError(f"delta for unknown arrow {name!r}", ln)
        with line_context(ln):
            delta[name] = parse_path_element(alg, src)
    ideal = []
    if ideal_line is not None and ideal_line[1].strip():
        ln, src = ideal_line
        with line_context(ln):
            ideal = [parse_path_element(alg, part.strip()) for part in src.split(";")]
    filtration = (filt_full, filt_dashed) if filt_full is not None and filt_dashed is not None else None
    label_list = [labels.get(i, str(i + 1)) for i in range(npoints)]
    with line_context(None):
        return Ditalgebra(field, base, full, dashed, delta, ideal, filtration, absorbed, label_list)
