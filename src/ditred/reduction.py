"""The reduction calculus.

Each step consumes a layered tensor algebra with derivation and produces a
smaller one together with the action of the induced functor on modules and
morphisms: deletion of idempotents, regularization (with an adapted choice
of degree-1 generators when the derivation value is not itself a
generator), factoring out ideal summands of the degree-0 layer, absorption
(including the conversion of a derivation-free loop into a rational
point), reduction at an admissible module, detachment of a source point,
and unravelling of rational points.  A driver chains steps toward a
minimal layer (no full arrows, zero ideal) while keeping every module of
bounded endolength covered by the composite functor.
"""

from __future__ import annotations

from .bigraph import (
    Arrow,
    _Record,
    Ditalgebra,
    PathAlgebra,
    PathElement,
    UndecidableForCyclic,
    UnsupportedDecoration,
    ditalgebra_from_text,
    ditalgebra_to_text,
)
from .ditmod import (
    DitModule,
    DitMorphism,
    InvalidModule,
    _poly_at,
    are_isomorphic,
    end_algebra,
    endolength,
    enumerate_indecomposables,
    enumerate_modules_dims,
    hom_space,
)
from .errors import BudgetExceeded, DitredError, NotRationalPoint
from .linalg import Mat, Span, span_basis
from .scalars import FracField, Poly, RatFunc, factor_squarefree, parse_poly, poly_gcd, poly_str


class HypothesisFailed(DitredError, ValueError):
    pass


class NotIdempotent(DitredError, ValueError):
    pass


class DecompositionInvalid(DitredError, ValueError):
    pass


class NotASource(DitredError, ValueError):
    pass


class NonTriangular(DitredError, ValueError):
    pass


class WildnessEncountered(DitredError, RuntimeError):
    def __init__(self, msg, dit=None):
        super().__init__(msg)
        self.dit = dit


class FactorizationUnavailable(DitredError, ValueError):
    pass


class HomNotZero(DitredError, ValueError):
    pass


class NotEpimorphism(DitredError, ValueError):
    pass


# ---------------------------------------------------------------------------
# generic path-element substitution
# ---------------------------------------------------------------------------

def _renamed_letters(src: PathAlgebra, target: PathAlgebra, arrow_map, point_map):
    """The letters of `src` that a substitution only renames: the image is
    the letter's own generator of `target`, whose endpoints are the images
    of the letter's endpoints under `point_map`, and at neither endpoint
    does a rational point of `src` land on a trivial point of `target`.
    A path of such letters keeps its arrows and x-powers, and only its
    start moves through `point_map`."""
    out = set()
    for name, a in src.arrows.items():
        img = arrow_map.get(name)
        b = target.arrows.get(name)
        if not isinstance(img, PathElement) or b is None:
            continue
        if img.terms != {(b.s, (name,), (0, 0)): target.field.one}:
            continue
        if (point_map.get(a.s), point_map.get(a.t)) != (b.s, b.t):
            continue
        if any(src.is_rational(i) and not target.is_rational(j) for i, j in ((a.s, b.s), (a.t, b.t))):
            continue
        out.add(name)
    return frozenset(out)


def _identity_map(n: int) -> dict:
    return {i: i for i in range(n)}


def substitute(el: PathElement, target: PathAlgebra, arrow_map, point_map=None, renamed=None):
    """Push an element through a generator substitution.

    arrow_map: name -> PathElement of the target (or None to kill the
    generator); point_map: old point -> new point (None kills the point).
    `renamed` is `_renamed_letters` of the same substitution (computed here
    when not given): a path of renamed letters is moved at key level, and
    only a path that holds another letter is multiplied out.  The images
    of the paths are added one path at a time.
    """
    if point_map is None:
        point_map = _identity_map(target.n)
    if renamed is None:
        renamed = _renamed_letters(el.alg, target, arrow_map, point_map)
    field = target.field
    out = {}
    for key, c in el.terms.items():
        start, arrows, exps = key
        p0 = point_map.get(start)
        if p0 is None:
            continue
        if isinstance(c, int):
            c = field.of(c)
        # a lone point with an x-power goes through `target.x`, which
        # refuses a trivial point
        if renamed.issuperset(arrows) and (arrows or not exps[0]):
            image = {(p0, arrows, exps): c}
        else:
            acc = _multiply_out(el.alg, target, arrow_map, point_map, p0, arrows, exps)
            if acc is None:
                continue
            image = {k: v * c for k, v in acc.terms.items()}
        for k, v in image.items():
            if k in out:
                v = out[k] + v
                if not v:
                    del out[k]
                    continue
            out[k] = v
    return PathElement._own(target, out)


def _multiply_out(src, target, arrow_map, point_map, p0, arrows, exps):
    """The image of one path as the product of its letters' images and
    x-powers, or None when a letter or a decorated point is killed."""
    acc = target.x(p0, exps[0]) if exps[0] else target.e(p0)
    for name, e in zip(arrows, exps[1:]):
        img = arrow_map.get(name)
        if img is None or (isinstance(img, PathElement) and img.is_zero()):
            return None
        acc = img * acc
        if e:
            p = point_map.get(src.arrows[name].t)
            if p is None:
                return None
            acc = target.x(p, e) * acc
    return acc if acc.terms else None


def _rewrite_layer(dit: Ditalgebra, tgt_alg: PathAlgebra, arrows, amap, point_map, drop_point=None,
                   _renamed=None):
    """The derivation values of `arrows` and the ideal generators of `dit`
    pushed through a substitution into `tgt_alg`, zeros dropped, and the
    substitution's `_renamed_letters` (`_renamed` when the caller has
    them).  Ideal terms that start or end at `drop_point` are dropped
    too."""
    renamed = _renamed_letters(dit.alg, tgt_alg, amap, point_map) if _renamed is None else _renamed
    delta = {}
    for a in arrows:
        img = substitute(dit.delta_of(a.name), tgt_alg, amap, point_map, renamed)
        if not img.is_zero():
            delta[a.name] = img
    ideal = []
    for g in dit.ideal:
        img = substitute(g, tgt_alg, amap, point_map, renamed)
        if drop_point is not None:
            img = PathElement(tgt_alg, {k: c for k, c in img.terms.items()
                                        if drop_point not in (k[0], tgt_alg.key_end(k))})
        if not img.is_zero():
            ideal.append(img)
    return delta, ideal, renamed


# ---------------------------------------------------------------------------
# reduction steps
# ---------------------------------------------------------------------------

class ReductionStep:
    """One step from `src` to `tgt`; `kind` names the step ("d", "r", "q",
    "a", "detach", "X", "unravel") and `data` holds what its functor needs.

    A rewriting step (deletion, regularization, factoring out, absorption)
    records the substitution it rewrote its layer with (`point_map`,
    `amap`, and the letters it only renames, `renamed`), and its functor
    is the pullback along it; an X or unravel step carries modules through
    the ids of its admissible module."""

    __slots__ = ("kind", "src", "tgt", "data")

    def __init__(self, kind: str, src: Ditalgebra, tgt: Ditalgebra, data: dict):
        self.kind = kind
        self.src = src
        self.tgt = tgt
        self.data = data

    def __repr__(self):
        return f"ReductionStep(kind={self.kind!r}, src={self.src!r}, tgt={self.tgt!r}, data={self.data!r})"

    @property
    def endolength_factor(self) -> int:
        if self.kind in ("X", "unravel"):
            return self.data["mu"]
        return 1

    # -- module/morphism transport (target -> source) ----------------------
    def apply_module(self, M: DitModule) -> DitModule:
        if self.kind in ("X", "unravel"):
            return _apply_module_X(self, M)
        return _apply_module_rewrite(self, M)

    def apply_morphism(self, f: DitMorphism, FM=None, FN=None) -> DitMorphism:
        if self.kind in ("X", "unravel"):
            return _apply_morph_X(self, f, FM, FN)
        return _apply_morph_rewrite(self, f, FM, FN)

    def describe(self) -> str:
        extra = ""
        if self.kind == "d":
            extra = f" kept={self.data['keep']}"
        elif self.kind == "r":
            extra = f" pair=({self.data['arrow']},{self.data['dashed']})"
        elif self.kind == "q":
            extra = f" arrows={self.data['arrows']}"
        elif self.kind == "a":
            extra = f" arrows={self.data.get('arrows')}" if "arrows" in self.data else f" loop={self.data.get('loop')}"
        elif self.kind in ("X", "unravel"):
            extra = f" mu={self.data['mu']} new_points={self.tgt.n}"
        return f"step[{self.kind}]{extra}: {self.src.n}pts -> {self.tgt.n}pts"


class ReductionTrace:
    """Composable chain of steps from a source to a terminal layer."""

    def __init__(self, source: Ditalgebra, steps=None):
        self.source = source
        self.steps = list(steps or [])

    @property
    def terminal(self) -> Ditalgebra:
        return self.steps[-1].tgt if self.steps else self.source

    def push(self, step: ReductionStep):
        if self.steps and step.src is not self.steps[-1].tgt:
            raise ValueError("steps do not chain")
        self.steps.append(step)

    def apply_module(self, N: DitModule) -> DitModule:
        for step in reversed(self.steps):
            N = step.apply_module(N)
        return N

    def apply_morphism(self, f: DitMorphism) -> DitMorphism:
        for step in reversed(self.steps):
            f = step.apply_morphism(f)
        return f

    def endolength_factor(self) -> int:
        out = 1
        for s in self.steps:
            out *= s.endolength_factor
        return out

    def describe(self) -> str:
        lines = [f"trace with {len(self.steps)} step(s); source {self.source!r}"]
        for s in self.steps:
            lines.append("  " + s.describe())
        lines.append(f"terminal {self.terminal!r}")
        return "\n".join(lines)


# -- deletion -----------------------------------------------------------------

def step_delete(dit: Ditalgebra, keep) -> ReductionStep:
    """Delete the idempotent complementary to the kept points."""
    keep = sorted(set(keep))
    if any(i < 0 or i >= dit.n for i in keep):
        raise NotIdempotent("kept points out of range")
    point_map = {old: new for new, old in enumerate(keep)}
    base = [dit.base[i] for i in keep]
    full = [Arrow(a.name, point_map[a.s], point_map[a.t], 0) for a in dit.full if a.s in point_map and a.t in point_map]
    dashed = [Arrow(a.name, point_map[a.s], point_map[a.t], 1) for a in dit.dashed if a.s in point_map and a.t in point_map]
    alive = {a.name for a in full} | {a.name for a in dashed}
    tgt_alg = PathAlgebra(dit.field, base, full + dashed)
    amap = {nm: (tgt_alg.gen(nm) if nm in alive else None) for nm in dit.alg.arrows}
    delta, ideal, renamed = _rewrite_layer(dit, tgt_alg, full + dashed, amap, point_map)
    labels = [dit.labels[i] for i in keep]
    tgt = Ditalgebra(dit.field, base, full, dashed, delta, ideal,
                     absorbed=frozenset(n for n in dit.absorbed if n in alive),
                     labels=labels)
    return ReductionStep("d", dit, tgt, {"keep": keep, "point_map": point_map, "amap": amap,
                                         "renamed": renamed})


# -- regularization ------------------------------------------------------------

def step_regularize(dit: Ditalgebra, arrow: str, dashed: str | None = None) -> ReductionStep:
    """Regularize one full arrow whose derivation value, after an adapted
    choice of degree-1 generator, is a generator: the derivation must
    contain some dashed generator with an invertible scalar coefficient,
    and that generator may not occur inside the longer terms."""
    a = dit.arrow(arrow)
    if a.deg != 0:
        raise DecompositionInvalid(f"{arrow} is not a full arrow")
    d = dit.delta_of(arrow)
    if d.is_zero():
        raise DecompositionInvalid(f"delta({arrow}) = 0 is not a free degree-1 summand")
    # find the linear generator term
    lin = {}
    rest_terms = {}
    for key, c in d.terms.items():
        start, arrows, exps = key
        if len(arrows) == 1 and not any(exps):
            lin[arrows[0]] = c
        else:
            rest_terms[key] = c
    candidates = [v for v in (([dashed] if dashed else []) or sorted(lin)) if v in lin]
    chosen = None
    for v in candidates:
        used_in_rest = {u for key in rest_terms for u in key[1]}
        if v in used_in_rest:
            continue
        chosen = v
        break
    if chosen is None:
        raise DecompositionInvalid(f"delta({arrow}) has no admissible linear dashed term")
    c = lin[chosen]
    varr = dit.arrow(chosen)
    if (varr.s, varr.t) != (a.s, a.t):
        raise DecompositionInvalid("dashed generator endpoints do not match")
    # xi := delta(a) - c*v ; substitution v -> -(xi with a killed)/c
    full = [x for x in dit.full if x.name != arrow]
    dashed_arrows = [x for x in dit.dashed if x.name != chosen]
    tgt_alg = PathAlgebra(dit.field, dit.base, full + dashed_arrows)
    kill = {arrow, chosen}
    amap = {nm: (tgt_alg.gen(nm) if nm not in kill else None) for nm in dit.alg.arrows}
    point_map = _identity_map(dit.n)
    xi = PathElement(dit.alg, rest_terms) + PathElement(dit.alg, {k: cc for k, cc in d.terms.items() if len(k[1]) == 1 and not any(k[2]) and k[1][0] != chosen})
    # the killed dashed letter has no generator in the target, so it is
    # renamed neither before nor after its image is set
    renamed = _renamed_letters(dit.alg, tgt_alg, amap, point_map)
    sub_v = substitute(xi, tgt_alg, amap, point_map, renamed).scale(dit.field.inv(c)).__neg__()
    amap[chosen] = sub_v
    delta, ideal, renamed = _rewrite_layer(dit, tgt_alg, full + dashed_arrows, amap, point_map, _renamed=renamed)
    tgt = Ditalgebra(dit.field, dit.base, full, dashed_arrows, delta, ideal,
                     absorbed=dit.absorbed, labels=dit.labels)
    return ReductionStep("r", dit, tgt, {"arrow": arrow, "dashed": chosen, "coef": c, "subst": sub_v,
                                         "point_map": point_map, "amap": amap, "renamed": renamed})


# -- factoring out ---------------------------------------------------------------

def step_factor_out(dit: Ditalgebra, arrows) -> ReductionStep:
    """Factor out a span of full arrows lying in the ideal, whose
    derivations stay inside the ideal generated by that span."""
    arrows = list(arrows)
    for nm in arrows:
        a = dit.arrow(nm)
        if a.deg != 0:
            raise HypothesisFailed(f"{nm} is not a full arrow")
        if not dit.ideal_membership(dit.alg.gen(nm)):
            raise HypothesisFailed(f"{nm} is not in the ideal")
        d = dit.delta_of(nm)
        for key in d.terms:
            if not any(u in arrows for u in key[1]):
                raise HypothesisFailed(f"delta({nm}) leaves the span of the factored arrows")
    full = [x for x in dit.full if x.name not in arrows]
    tgt_alg = PathAlgebra(dit.field, dit.base, full + list(dit.dashed))
    amap = {nm: (None if nm in arrows else tgt_alg.gen(nm)) for nm in dit.alg.arrows}
    point_map = _identity_map(dit.n)
    delta, ideal, renamed = _rewrite_layer(dit, tgt_alg, full + list(dit.dashed), amap, point_map)
    tgt = Ditalgebra(dit.field, dit.base, full, dit.dashed, delta, ideal,
                     absorbed=dit.absorbed, labels=dit.labels)
    return ReductionStep("q", dit, tgt, {"arrows": arrows, "point_map": point_map, "amap": amap,
                                         "renamed": renamed})


# -- absorption -------------------------------------------------------------------

def step_absorb(dit: Ditalgebra, arrows) -> ReductionStep:
    """Move derivation-free full arrows into the degree-0 base
    subalgebra.  The weak structure and module category are unchanged;
    only the layer bookkeeping moves."""
    arrows = list(arrows)
    for nm in arrows:
        if not dit.delta_of(nm).is_zero():
            raise HypothesisFailed(f"delta({nm}) != 0")
    tgt = Ditalgebra(dit.field, dit.base, dit.full, dit.dashed, dit.delta, dit.ideal,
                     absorbed=dit.absorbed | set(arrows), labels=dit.labels)
    amap = {nm: tgt.alg.gen(nm) for nm in dit.alg.arrows}
    point_map = _identity_map(dit.n)
    renamed = _renamed_letters(dit.alg, tgt.alg, amap, point_map)
    return ReductionStep("a", dit, tgt, {"arrows": arrows, "point_map": point_map, "amap": amap,
                                         "renamed": renamed})


def step_absorb_loop(dit: Ditalgebra, loop: str) -> ReductionStep:
    """Absorb a derivation-free loop at a trivial point by turning the
    point rational: the loop becomes the action of x on k[x]."""
    a = dit.arrow(loop)
    if a.deg != 0 or a.s != a.t:
        raise HypothesisFailed(f"{loop} is not a full loop")
    if dit.is_rational(a.s):
        raise HypothesisFailed("loop point is already rational")
    if not dit.delta_of(loop).is_zero():
        raise HypothesisFailed(f"delta({loop}) != 0")
    for g in dit.ideal:
        if loop in g.arrow_names():
            raise HypothesisFailed("loop appears in an ideal generator")
    base = list(dit.base)
    base[a.s] = Poly.one(dit.field)  # k[x]_1 = k[x]
    full = [x for x in dit.full if x.name != loop]
    tgt_alg = PathAlgebra(dit.field, base, full + list(dit.dashed))
    amap = {nm: (tgt_alg.gen(nm) if nm != loop else tgt_alg.x(a.s)) for nm in dit.alg.arrows}
    point_map = _identity_map(dit.n)
    delta, ideal, renamed = _rewrite_layer(dit, tgt_alg, full + list(dit.dashed), amap, point_map)
    tgt = Ditalgebra(dit.field, base, full, dit.dashed, delta, ideal,
                     absorbed=dit.absorbed, labels=dit.labels)
    return ReductionStep("a", dit, tgt, {"loop": loop, "point": a.s, "point_map": point_map,
                                         "amap": amap, "renamed": renamed})


# -- detachment of a source --------------------------------------------------------

def step_detach(dit: Ditalgebra, e0: int) -> ReductionStep:
    """Split off a source point: arrows through it are dropped, the point
    survives isolated.  The associated restriction goes from source
    modules to target modules."""
    if not dit.check_source(e0):
        raise NotASource(f"point {e0} is not a source")
    full = [a for a in dit.full if a.s != e0 and a.t != e0]
    dashed = [a for a in dit.dashed if a.s != e0 and a.t != e0]
    alive = {a.name for a in full} | {a.name for a in dashed}
    tgt_alg = PathAlgebra(dit.field, dit.base, full + dashed)
    amap = {nm: (tgt_alg.gen(nm) if nm in alive else None) for nm in dit.alg.arrows}
    delta, ideal, _ = _rewrite_layer(dit, tgt_alg, full + dashed, amap, _identity_map(dit.n), drop_point=e0)
    tgt = Ditalgebra(dit.field, dit.base, full, dashed, delta, ideal,
                     absorbed=frozenset(n for n in dit.absorbed if n in alive),
                     labels=dit.labels)
    return ReductionStep("detach", dit, tgt, {"e0": e0})


def detach_restrict_module(step: ReductionStep, M: DitModule) -> DitModule:
    """Res(M): kill the source-point component."""
    dit, tgt = step.src, step.tgt
    e0 = step.data["e0"]
    dims = list(M.dims)
    dims[e0] = 0
    arr = {}
    for a in tgt.full:
        arr[a.name] = M.arr[a.name]
    xact = {i: M.xact[i] for i in tgt.points() if tgt.is_rational(i)}
    return DitModule(tgt, dims, arr, xact, M.coef, check=False)


def detach_restrict_morphism(step: ReductionStep, f: DitMorphism, FM=None, FN=None) -> DitMorphism:
    tgt = step.tgt
    e0 = step.data["e0"]
    FM = FM or detach_restrict_module(step, f.src)
    FN = FN or detach_restrict_module(step, f.dst)
    f0 = {i: (f.f0[i] if i != e0 else Mat.zeros(FM.coef, 0, 0)) for i in tgt.points()}
    f1 = {v.name: f.f1[v.name] for v in tgt.dashed}
    return DitMorphism(FM, FN, f0, f1)


# -- functor of a rewriting step ----------------------------------------------------

def _apply_module_rewrite(step: ReductionStep, M: DitModule) -> DitModule:
    """M pulled back through the substitution of a rewriting step: point i
    carries M's space at point_map[i], 0 off the map, and a full arrow acts
    as M acts on its image: by M's own matrix when the substitution only
    renames it, by 0 when it kills it."""
    dit = step.src
    dims = _source_dims(step, M.dims)
    pm, amap, renamed = step.data["point_map"], step.data["amap"], step.data["renamed"]
    arr = {}
    for a in dit.full:
        if a.name in renamed:
            arr[a.name] = M.arr[a.name]
            continue
        blk = None if amap[a.name] is None else M.act_map(amap[a.name]).get((pm[a.s], pm[a.t]))
        arr[a.name] = Mat.zeros(M.coef, dims[a.t], dims[a.s]) if blk is None else blk
    xact = {i: M.xact[pm[i]] for i in dit.rational_points if i in pm}
    return DitModule(dit, dims, arr, xact, M.coef, check=False)


def _apply_morph_rewrite(step: ReductionStep, f: DitMorphism, FM=None, FN=None) -> DitMorphism:
    """f pulled back through the substitution of a rewriting step: f0 is
    read through the point map, 0 off it, and f1 of a dashed arrow is f1
    evaluated on its image: f's own map when the substitution only renames
    the arrow, 0 when it kills it."""
    dit = step.src
    pm = dict(_point_pairs(step))  # detachment raises here
    amap, renamed = step.data["amap"], step.data["renamed"]
    FM = FM or step.apply_module(f.src)
    FN = FN or step.apply_module(f.dst)
    f0 = {i: f.f0[pm[i]] if i in pm else Mat.zeros(FM.coef, FN.dims[i], FM.dims[i]) for i in dit.points()}
    f1 = {}
    for v in dit.dashed:
        if v.name in renamed:
            f1[v.name] = f.f1[v.name]
            continue
        blk = None if amap[v.name] is None else f.f1_eval(amap[v.name]).get((pm[v.s], pm[v.t]))
        f1[v.name] = Mat.zeros(FM.coef, FN.dims[v.t], FM.dims[v.s]) if blk is None else blk
    return DitMorphism(FM, FN, f0, f1)


# ---------------------------------------------------------------------------
# admissible-module data and the X-reduction
# ---------------------------------------------------------------------------

class SPoint(_Record):
    """A point of the splitting subalgebra: `g` is None for a trivial
    component k, else the localizer of k[x]_g."""

    __slots__ = ("label", "g")

    def __init__(self, label: str, g: Poly | None):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "g", g)


class AdmissibleData:
    """An admissible module over the degree-0 subalgebra generated by the
    base and a derivation-free span of full arrows, presented by free
    bases over the components of the splitting subalgebra.

    ranks[(i, q)]: rank of the (base point i, new point q) block as a free
    module over the q-th component; xact[(i, q)]: left action of x at a
    rational base point; aact[(arrow, q)]: left action of a reduced arrow;
    p_elems: basis of the complement ideal as block maps between new
    points (entries over the scalar fractions of the ground field).

    The ids (i, q, t), t < ranks[(i, q)], are the free generators.  The
    image of a module M over the reduced layer has at base point i one
    copy of M's q-th space per id (i, q, t) of `ids_at_point(i)`, in that
    order (q, then t); `_offsets` gives each copy's first position.
    """

    def __init__(self, dit: Ditalgebra, w0prime, s_points, ranks, xact, aact, p_elems, case):
        self.dit = dit
        self.w0prime = tuple(w0prime)
        self.s_points = list(s_points)
        self.ranks = dict(ranks)
        self.xact = dict(xact)
        self.aact = dict(aact)
        self.p_elems = list(p_elems)  # (q_src, q_dst, {i: Mat over RF})
        self.case = case
        self.rf = FracField(dit.field)
        self.ids = []
        for q in range(len(self.s_points)):
            for i in dit.points():
                for t in range(self.ranks.get((i, q), 0)):
                    self.ids.append((i, q, t))
        self.id_index = {x: n for n, x in enumerate(self.ids)}
        self._ids_at_point = {i: tuple(x for x in self.ids if x[0] == i) for i in dit.points()}
        self._p_spans = {}  # (q_src, q_dst) -> (p-element indices, their Span)

    def ids_at_point(self, i):
        return self._ids_at_point[i]

    def ids_at(self, i, q):
        return [(i, q, t) for t in range(self.ranks.get((i, q), 0))]

    def mu(self) -> int:
        """Minimal generator count over the splitting subalgebra: the
        largest column rank among the new points."""
        best = 0
        for q in range(len(self.s_points)):
            best = max(best, sum(self.ranks.get((i, q), 0) for i in self.dit.points()))
        return best

    def p_compose(self, i_idx: int, j_idx: int):
        """The product p_i p_j in the opposite endomorphism algebra,
        i.e. the composite (p_j after p_i) as block maps; None if zero."""
        qs1, qd1, b1 = self.p_elems[i_idx]
        qs2, qd2, b2 = self.p_elems[j_idx]
        if qd1 != qs2:
            return None
        blocks = {}
        for i in self.dit.points():
            m1 = b1.get(i)
            m2 = b2.get(i)
            if m1 is None or m2 is None:
                continue
            m = m2 * m1
            if not m.is_zero():
                blocks[i] = m
        if not blocks:
            return None
        return (qs1, qd2, blocks)

    def p_coords(self, trip):
        """Coordinates of a block map in the p-basis, as (index, coefficient)
        pairs over the p-elements between the same two new points."""
        qs, qd, blocks = trip
        if (qs, qd) not in self._p_spans:
            span = Span(self.rf)
            idxs = [n for n, (qs2, qd2, b2) in enumerate(self.p_elems)
                    if (qs2, qd2) == (qs, qd) and span.add(self._flatten_blocks(qs, qd, b2))]
            self._p_spans[(qs, qd)] = (idxs, span)
        idxs, span = self._p_spans[(qs, qd)]
        sol = span.coords(self._flatten_blocks(qs, qd, blocks))
        if sol is None:
            raise AssertionError("complement ideal is not closed under products")
        return list(zip(idxs, sol))

    def _flatten_blocks(self, qs, qd, blocks):
        out = []
        for i in self.dit.points():
            r_src = self.ranks.get((i, qs), 0)
            r_dst = self.ranks.get((i, qd), 0)
            m = blocks.get(i, Mat.zeros(self.rf, r_dst, r_src))
            out.extend([m.rows[r][c] for r in range(r_dst) for c in range(r_src)])
        return out


def b_subalgebra(dit: Ditalgebra, w0prime) -> Ditalgebra:
    """The degree-0 layer generated by the base and the chosen arrows, as
    a plain (derivation-free) layered algebra."""
    full = [a for a in dit.full if a.name in set(w0prime)]
    return Ditalgebra(dit.field, dit.base, full, [], {}, labels=dit.labels)


def build_admissible_case1(dit: Ditalgebra, w0prime, summands) -> AdmissibleData:
    """Case 1: a direct sum of pairwise non-isomorphic finite-dimensional
    indecomposables of the degree-0 subalgebra."""
    B = b_subalgebra(dit, w0prime)
    mods = list(summands)
    for M in mods:
        if M.coef != dit.field:
            raise HypothesisFailed("summands must be over the ground field")
    for i, M in enumerate(mods):
        for N in mods[i + 1:]:
            if M.dims == N.dims and are_isomorphic(B, M, N) is not None:
                raise HypothesisFailed("summands must be pairwise non-isomorphic")
    rf = FracField(dit.field)
    s_points = [SPoint(f"[{n}]", None) for n in range(len(mods))]
    ranks = {}
    xact = {}
    aact = {}
    for q, M in enumerate(mods):
        for i in dit.points():
            if M.dims[i]:
                ranks[(i, q)] = M.dims[i]
            if dit.is_rational(i) and M.dims[i]:
                xact[(i, q)] = M.xact[i].cast(rf, rf.of)
        for nm in w0prime:
            a = dit.arrow(nm)
            if M.dims[a.s] and M.dims[a.t]:
                aact[(nm, q)] = M.arr[nm].cast(rf, rf.of)
    # complement ideal: all morphisms between distinct summands plus the
    # radical endomorphisms of each
    p_elems = []
    for qs, Msrc in enumerate(mods):
        for qd, Mdst in enumerate(mods):
            if qs == qd:
                E, basis = end_algebra(B, Msrc)
                for rv in E.radical():
                    acc = {i: Mat.zeros(dit.field, Msrc.dims[i], Msrc.dims[i]) for i in dit.points()}
                    for c, bmor in zip(rv, basis):
                        for i in dit.points():
                            acc[i] = acc[i] + bmor.f0[i].scale(c)
                    blocks = {i: m.cast(rf, rf.of) for i, m in acc.items() if not m.is_zero()}
                    if blocks:
                        p_elems.append((qs, qd, blocks))
            else:
                for h in hom_space(B, Msrc, Mdst):
                    blocks = {i: h.f0[i].cast(rf, rf.of) for i in dit.points() if not h.f0[i].is_zero()}
                    if blocks:
                        p_elems.append((qs, qd, blocks))
    return AdmissibleData(dit, w0prime, s_points, ranks, xact, aact, p_elems, "1")


def build_admissible_case2(dit: Ditalgebra, point: int, extra: Poly) -> AdmissibleData:
    """Case 2 for a localization epimorphism at a rational point: the new
    component is k[x]_{g*extra} restricted along k[x]_g -> k[x]_{g*extra}."""
    if not dit.is_rational(point):
        raise NotEpimorphism("case 2 here localizes a rational point")
    if extra.is_zero():
        raise NotEpimorphism("localizer must be nonzero")
    g = dit.base[point]
    rf = FracField(dit.field)
    gnew = (g * extra).monic()
    s_points = [SPoint(f"loc[{dit.labels[point]}]", gnew)]
    ranks = {(point, 0): 1}
    xact = {(point, 0): Mat(rf, [[rf.x]])}
    return AdmissibleData(dit, (), s_points, ranks, xact, {}, [], "2")


def build_admissible_case3(dit: Ditalgebra, parts) -> AdmissibleData:
    """Case 3: orthogonal direct sum of admissible data.  Verifies that
    the parts cannot map to one another over the degree-0 subalgebra."""
    w0 = parts[0].w0prime
    for p in parts:
        if p.w0prime != w0:
            # allow merging data over the same subalgebra only
            if set(p.w0prime) != set(w0):
                raise HypothesisFailed("parts reduce different subalgebras")
    _check_orthogonality(dit, w0, parts)
    s_points = []
    ranks = {}
    xact = {}
    aact = {}
    p_elems = []
    qoff = 0
    for p in parts:
        for q, sp in enumerate(p.s_points):
            s_points.append(sp)
        for (i, q), r in p.ranks.items():
            ranks[(i, q + qoff)] = r
        for (i, q), m in p.xact.items():
            xact[(i, q + qoff)] = m
        for (nm, q), m in p.aact.items():
            aact[(nm, q + qoff)] = m
        for (qs, qd, blocks) in p.p_elems:
            p_elems.append((qs + qoff, qd + qoff, blocks))
        qoff += len(p.s_points)
    return AdmissibleData(dit, w0, s_points, ranks, xact, aact, p_elems, "3")


def _check_orthogonality(dit, w0, parts):
    """Trivial-component parts are checked via Hom over the degree-0
    subalgebra; localized parts are orthogonal to torsion-free/torsion
    reasons and are checked by support: a shared base point with a shared
    rational component would break orthogonality."""
    B = b_subalgebra(dit, w0)
    for a, pa in enumerate(parts):
        for b, pb in enumerate(parts):
            if a == b:
                continue
            if all(sp.g is None for sp in pa.s_points) and all(sp.g is None for sp in pb.s_points):
                Ma = _total_module(B, pa)
                Mb = _total_module(B, pb)
                if Ma is not None and Mb is not None:
                    homs = hom_space(B, Ma, Mb)
                    if homs:
                        raise HomNotZero("parts admit nonzero morphisms")
            else:
                shared = {
                    i
                    for (i, q) in pa.ranks
                    if any((i, q2) in pb.ranks for q2 in range(len(pb.s_points)))
                }
                for i in shared:
                    a_loc = any(pa.s_points[q].g is not None for (j, q) in pa.ranks if j == i)
                    b_loc = any(pb.s_points[q].g is not None for (j, q) in pb.ranks if j == i)
                    if a_loc and b_loc:
                        raise HomNotZero("two localized parts share a base point")


def _offsets(adm: AdmissibleData, dims, i: int):
    """The image basis at base point i for a module with component dims:
    ({id: first position of its copy of the q-th space}, total dimension)."""
    offs, n = {}, 0
    for x in adm.ids_at_point(i):
        offs[x] = n
        n += dims[x[1]]
    return offs, n


def _place(coef, rows, cols, blocks):
    """The sum of (row id, column id, Mat) blocks, each placed at the
    offsets of its ids, in a fresh matrix; rows and cols are `_offsets`
    pairs."""
    (roffs, m), (coffs, n) = rows, cols
    z = coef.zero
    out = [[z] * n for _ in range(m)]
    for rid, cid, blk in blocks:
        ro, co = roffs[rid], coffs[cid]
        for r, brow in enumerate(blk.rows):
            row = out[ro + r]
            for c, v in enumerate(brow, co):
                if v:
                    row[c] = row[c] + v
    return Mat._own(coef, out, n)


def _total_module(B: Ditalgebra, part: AdmissibleData):
    """The module over B that the trivial components of `part` add up to:
    one basis vector per id."""
    ones = [1] * len(part.s_points)
    lay = {i: _offsets(part, ones, i) for i in B.points()}
    dims = [lay[i][1] for i in B.points()]
    if sum(dims) == 0:
        return None

    def blocks(acts, key, t, s):
        for q in range(len(part.s_points)):
            blk = acts.get((key, q))
            if blk is not None:
                yield (t, q, 0), (s, q, 0), blk.map(_rf_const)

    fld = B.field
    arr = {a.name: _place(fld, lay[a.t], lay[a.s], blocks(part.aact, a.name, a.t, a.s)) for a in B.full}
    xact = {i: _place(fld, lay[i], lay[i], blocks(part.xact, i, i, i)) for i in B.points() if B.is_rational(i)}
    return DitModule(B, dims, arr, xact, fld, check=False)


def _rf_const(x: RatFunc):
    if not x.is_poly() or x.num.degree > 0:
        raise UnsupportedDecoration("expected a constant entry")
    return x.num.coeff(0)


def build_admissible(dit: Ditalgebra, case, payload, w0prime=()) -> AdmissibleData:
    """Complete admissible-module constructors, by case."""
    if case == 1:
        return build_admissible_case1(dit, w0prime, payload)
    if case == 2:
        point, extra = payload
        return build_admissible_case2(dit, point, extra)
    if case == 3:
        return build_admissible_case3(dit, payload)
    raise ValueError(f"unknown admissibility case {case!r}")


def _tadd(out: dict, terms: dict):
    """Add a term dict into `out` in place, as `PathElement.__add__` adds
    two elements: a key already in `out` keeps its place, a new key goes
    at the end, and the keys that cancel are dropped once all of `terms`
    is in."""
    cancelled = False
    for k, c in terms.items():
        if k in out:
            c = out[k] + c
            cancelled = cancelled or not c
        out[k] = c
    if cancelled:
        for k in [k for k, c in out.items() if not c]:
            del out[k]


def _add_entries(out: dict, mat: dict):
    """Add a matrix of term dicts into `out` entry by entry with `_tadd`;
    an entry new to `out` is taken over as it is."""
    if not out:
        out.update(mat)
        return
    for pos, terms in mat.items():
        if pos in out:
            _tadd(out[pos], terms)
        else:
            out[pos] = terms


class _XBuilder:
    """Constructs the reduced layer at an admissible module.

    Matrices here are dicts (row id, column id) -> entry, and an entry is
    a term dict {path key: coefficient} of the new path algebra, with no
    zero coefficient; products are built by splicing keys, and only the
    finished values of the derivation and the ideal become PathElements.
    An old generator w: s -> t becomes the matrix W of its new generators
    w_{alpha beta}, alpha over the ids at t and beta over the ids at s,
    kept as rows {alpha: [(beta, name), ...]} (`_gens`).  sigma sends a
    path of the source layer to the product of its letters' matrices
    (`sigma`), and D_i carries the duals p*_j of the complement ideal at
    base point i (`_duals`).  The new derivation is one matrix identity per
    old arrow outside the reduced span (Bautista-Salmeron-Zuazua,
    *Differential Tensor Algebras and their Module Categories*, LMS
    Lecture Notes 362, 2009):

        delta'(W) = D_t W + sigma(delta w) + (-1)^(deg w + 1) W D_s,

    and each p*_j gets the comultiplication dual to the products of the
    p-basis.  The ideal is generated by the entries of sigma(h).

    Term order is part of the output: `ditalgebra_to_text` prints the
    terms in order and the trace digests hash them.  Every entry holds
    its terms in the order of the products of PathElement matrices this
    layer was first built from: a product entry (r, c) runs over the
    middle ids m in the order of the left factor's row r, the left
    entry's terms outer and the right entry's inner, and sums add one
    matrix at a time, as `PathElement.__add__` adds (`_tadd`)."""

    def __init__(self, dit: Ditalgebra, adm: AdmissibleData):
        self.dit = dit
        self.adm = adm
        self.rf = adm.rf
        self.w0prime = set(adm.w0prime)
        self.w0second = [a for a in dit.full if a.name not in self.w0prime]
        self.base = [sp.g for sp in adm.s_points]
        self.full_map = {}
        self.dashed_map = {}
        self.pstar_names = []
        self._gens = {}
        self._build_arrows()
        self.alg = PathAlgebra(dit.field, self.base, self.full_arrows + self.dashed_arrows)
        self._dual_rows = {}
        self._unit_acts = {}
        self._build_delta()
        self._build_ideal()

    # -- arrows ------------------------------------------------------------
    def _build_arrows(self):
        """The new generators, and with them the rows of each old
        generator's matrix W in `_gens`: beta in the order of the ids at
        w.s within each row alpha."""
        adm = self.adm
        self.full_arrows = []
        self.dashed_arrows = []
        used = set(self.dit.alg.arrows)
        for old, names, new in ((self.w0second, self.full_map, self.full_arrows),
                                (self.dit.dashed, self.dashed_map, self.dashed_arrows)):
            for w in old:
                rows = self._gens[w.name] = {}
                for beta in adm.ids_at_point(w.s):
                    for alpha in adm.ids_at_point(w.t):
                        nm = f"{w.name}_{adm.id_index[alpha]}_{adm.id_index[beta]}"
                        while nm in used:
                            nm += "_"
                        used.add(nm)
                        names[(w.name, alpha, beta)] = nm
                        new.append(Arrow(nm, beta[1], alpha[1], w.deg))
                        rows.setdefault(alpha, []).append((beta, nm))
        for j, (qs, qd, _) in enumerate(adm.p_elems):
            nm = f"pd{j}"
            while nm in used:
                nm = "_" + nm
            used.add(nm)
            self.pstar_names.append(nm)
            self.dashed_arrows.append(Arrow(nm, qs, qd, 1))

    # -- the matrices ----------------------------------------------------------
    def _stationary(self, q: int, value: RatFunc):
        """A scalar of the q-th component as a stationary element: its
        (x-power, coefficient) pairs, the powers rising."""
        if not value.is_poly():
            raise UnsupportedDecoration("non-polynomial stationary coefficient")
        out = []
        for e, c in enumerate(value.num.coeffs):
            if c:
                if e and self.base[q] is None:
                    raise UnsupportedDecoration(f"point {q} is trivial")
                out.append((e, c))
        return out

    def _stationary_rows(self, run):
        """A run of scalar fractions as stationary elements, by rows:
        {row id: [(column id, stationary pairs), ...]} in the run's order."""
        rows = {}
        for (r, col), v in run.items():
            rows.setdefault(r, []).append((col, self._stationary(r[1], v)))
        return rows

    def _duals(self, i: int):
        """D_i by rows: {gamma: [(eta, [(p*_j, x-power, coefficient), ...]),
        ...]}.  Entry (gamma, eta) is the sum of c p*_j over the p-basis,
        c the entry of the block of p_j at base point i from eta to gamma,
        placed as a stationary element at gamma; the etas of a row come in
        the order they first occur, j by j."""
        D = self._dual_rows.get(i)
        if D is None:
            adm = self.adm
            entries = {}
            for j, (qs, qd, blocks) in enumerate(adm.p_elems):
                blk = blocks.get(i)
                if blk is None:
                    continue
                pd = self.pstar_names[j]
                for gamma in adm.ids_at(i, qd):
                    row = blk.rows[gamma[2]]
                    for eta in adm.ids_at(i, qs):
                        c = row[eta[2]]
                        if c:
                            terms = entries.setdefault((gamma, eta), [])
                            terms.extend((pd, e, v) for e, v in self._stationary(qd, c))
            D = self._dual_rows[i] = {}
            for (gamma, eta), terms in entries.items():
                D.setdefault(gamma, []).append((eta, terms))
        return D

    def _act(self, run, letter):
        """Apply a letter of the degree-0 subalgebra to a matrix of scalar
        fractions (dict (id, column id) -> coefficient) whose row ids sit
        at the letter's start: `letter` is (i, e) for x^e at base point i,
        or the name of an arrow of the reduced span.  Ids stay within their
        new point."""
        adm = self.adm
        if isinstance(letter, str):
            t = self.dit.arrow(letter).t
            block = lambda q: adm.aact.get((letter, q))
        else:
            t, e = letter
            block = lambda q: adm.xact[(t, q)].pow(e)
        blocks = {}
        out = {}
        for ((_, q, c), col), v in run.items():
            if q not in blocks:
                blocks[q] = block(q)
            m = blocks[q]
            if m is None:
                continue
            for r in range(m.m):
                a = m.rows[r][c]
                if a:
                    k = ((t, q, r), col)
                    out[k] = out[k] + a * v if k in out else a * v
        return {k: v for k, v in out.items() if v}

    def _unit_run(self, i: int):
        return {(g, g): self.rf.one for g in self.adm.ids_at_point(i)}

    def _act_on_unit(self, i: int, letter):
        """`_act` of a letter starting at base point i on the identity run
        there; kept per letter, as no caller changes a run."""
        run = self._unit_acts.get(letter)
        if run is None:
            run = self._unit_acts[letter] = self._act(self._unit_run(i), letter)
        return run

    def _sigma_path(self, key, c=None):
        """sigma of one decorated path, the product of its letters, times
        c (default 1), walked chain by chain.  A run of letters of the
        degree-0 subalgebra acts on the free bases with scalar-fraction
        coefficients (`_act`) and becomes stationary elements only at the
        next reduced letter or at the end of the path; a run that no letter
        has acted on is the identity (None here) and enters no product.  A
        chain is a path of ids through the factors and gives one term: the
        reduced letters' generators with the x-powers of the stationary
        terms between them.  No two chains of an entry have the same key,
        since each generator names its two ids, so an entry's terms are its
        chains in the order of `_extend`."""
        start, arrows, exps = key
        if c is None:
            c = self.dit.field.one
        defs = self.dit.alg.arrows
        run = self._act_on_unit(start, (start, exps[0])) if exps[0] else None
        at, chains = start, None
        for nm, e in zip(arrows, exps[1:]):
            if nm in self.w0prime:
                run = self._act_on_unit(at, nm) if run is None else self._act(run, nm)
            else:
                chains = self._extend(chains, self._gens[nm], run, c)
                run = None
            at = defs[nm].t
            if e:
                run = self._act_on_unit(at, (at, e)) if run is None else self._act(run, (at, e))
        out = {}
        if chains is None:
            for (r, col), v in (self._unit_run(at) if run is None else run).items():
                out[(r, col)] = {(r[1], (), (e,)): cf * c for e, cf in self._stationary(r[1], v)}
        elif run is None:
            for r, row in chains.items():
                for col, ar, ex, co in row:
                    ent = out.get((r, col))
                    if ent is None:
                        ent = out[(r, col)] = {}
                    ent[(col[1], ar, ex + (0,))] = co
        else:
            for r, row in self._stationary_rows(run).items():
                for m, st in row:
                    tails = chains.get(m, ())
                    for e, cf in st:
                        for col, ar, ex, co in tails:
                            ent = out.get((r, col))
                            if ent is None:
                                ent = out[(r, col)] = {}
                            ent[(col[1], ar, ex + (e,))] = co * cf
        return out

    def _extend(self, chains, W, run, c):
        """The chains of the product so far by rows, each (column id,
        arrows, x-powers but the last, coefficient), continued through the
        run `run` (None for the identity) and then the reduced letter with
        generator rows W; before the first reduced letter `chains` is None
        and a chain starts with coefficient c.  The chains of a row come in
        the order of the product's terms: its middle ids m in the order of
        the left factor's row, that entry's terms, then the right factor's
        chains at m.  W times the run's stationaries takes the ms of a row
        in the order they first occur, beta by beta, and an entry's terms
        beta by beta."""
        if run is None:
            if chains is None:
                return {alpha: [(beta, (nm,), (0,), c) for beta, nm in row] for alpha, row in W.items()}
            return {alpha: [(col, ar + (nm,), ex + (0,), co)
                            for beta, nm in row for col, ar, ex, co in chains.get(beta, ())]
                    for alpha, row in W.items()}
        srows = self._stationary_rows(run)
        out = {}
        for alpha, row in W.items():
            mids = {}
            for beta, nm in row:
                for m, st in srows.get(beta, ()):
                    if m not in mids:
                        mids[m] = []
                    mids[m].extend((nm, e, cf) for e, cf in st)
            if chains is None:
                out[alpha] = [(m, (nm,), (e,), c * cf) for m, frags in mids.items() for nm, e, cf in frags]
            else:
                out[alpha] = [(col, ar + (nm,), ex + (e,), co * cf)
                              for m, frags in mids.items() for nm, e, cf in frags
                              for col, ar, ex, co in chains.get(m, ())]
        return out

    def sigma(self, el: PathElement):
        """sigma(el) as a matrix from the ids at the start of its paths to
        the ids at their end: each path's matrix times its coefficient,
        added in one path at a time."""
        out = {}
        field = self.dit.field
        for key, c in el.terms.items():
            _add_entries(out, self._sigma_path(key, field.of(c) if isinstance(c, int) else c))
        return {pos: terms for pos, terms in out.items() if terms}

    # -- derivation table --------------------------------------------------------
    def _build_delta(self):
        adm = self.adm
        alg = self.alg
        delta = {}
        for w in self.w0second + list(self.dit.dashed):
            W = self._gens[w.name]
            if not W:
                continue
            sign = self.dit.field.of(-1) if w.deg == 0 else self.dit.field.one
            # D_t W: (gamma, beta) sums p*_j after w_{eta beta} over the etas of row gamma
            new = {}
            for gamma, row in self._duals(w.t).items():
                for eta, terms in row:
                    for beta, nm in W[eta]:
                        pos = (gamma, beta)
                        if pos not in new:
                            new[pos] = {}
                        ent, q = new[pos], beta[1]
                        for pd, e, c in terms:
                            ent[(q, (nm, pd), (0, 0, e))] = c
            dw = self.dit.delta.get(w.name)
            if dw is not None:
                _add_entries(new, self.sigma(dw))
            # W D_s, times the sign: (alpha, col) sums w_{alpha beta} after p*_j over beta
            Ds = self._duals(w.s)
            right = {}
            for alpha, row in W.items():
                for beta, nm in row:
                    for col, terms in Ds.get(beta, ()):
                        pos = (alpha, col)
                        if pos not in right:
                            right[pos] = {}
                        ent, q = right[pos], col[1]
                        for pd, e, c in terms:
                            ent[(q, (pd, nm), (0, e, 0))] = c * sign
            _add_entries(new, right)
            names = self.full_map if w.deg == 0 else self.dashed_map
            for beta in adm.ids_at_point(w.s):
                for alpha in adm.ids_at_point(w.t):
                    terms = new.get((alpha, beta))
                    if terms:
                        delta[names[(w.name, alpha, beta)]] = PathElement._own(alg, terms)
        # comultiplication on the complement duals, one term per nonzero
        # product p_i1 p_i2, coordinate and x-power
        co = [{} for _ in self.pstar_names]
        for i1, (qs1, _, _) in enumerate(adm.p_elems):
            for i2, (mid, _, _) in enumerate(adm.p_elems):
                prod = adm.p_compose(i1, i2)
                if prod is None:
                    continue
                path = (self.pstar_names[i1], self.pstar_names[i2])
                for idx, c in adm.p_coords(prod):
                    _tadd(co[idx], {(qs1, path, (0, e, 0)): v for e, v in self._stationary(mid, c)})
        for name, terms in zip(self.pstar_names, co):
            if terms:
                delta[name] = PathElement._own(alg, terms)
        self.delta = delta

    def _build_ideal(self):
        adm = self.adm
        gens = []
        for h in self.dit.ideal:
            if h.is_zero():
                continue
            img = self.sigma(h)
            for beta in adm.ids:
                for alpha in adm.ids:
                    terms = img.get((alpha, beta))
                    if terms:
                        gens.append(PathElement._own(self.alg, terms))
        self.ideal = gens

    def target(self) -> Ditalgebra:
        labels = [sp.label for sp in self.adm.s_points]
        tgt = Ditalgebra(
            self.dit.field, self.base, self.full_arrows, self.dashed_arrows,
            self.delta, self.ideal, labels=labels,
        )
        if tgt.find_filtration() is None:
            raise NonTriangular("reduced layer admits no triangular order")
        return tgt


def step_reduce_X(dit: Ditalgebra, w0prime, adm: AdmissibleData, kind: str = "X") -> ReductionStep:
    """Reduction at an admissible module over the span of the chosen
    derivation-free full arrows."""
    w0prime = tuple(w0prime)
    for nm in w0prime:
        if not dit.delta_of(nm).is_zero():
            raise HypothesisFailed(f"delta({nm}) != 0 on the reduced span")
    if set(adm.w0prime) != set(w0prime):
        raise HypothesisFailed("admissible data reduces a different span")
    builder = _XBuilder(dit, adm)
    tgt = builder.target()
    data = {
        "w0prime": list(w0prime),
        "adm": adm,
        "full_map": builder.full_map,
        "dashed_map": builder.dashed_map,
        "pstar_names": builder.pstar_names,
        "mu": adm.mu(),
    }
    return ReductionStep(kind, dit, tgt, data)


# -- functor for X-steps -------------------------------------------------------

def _eval_entry(entry: RatFunc, M: DitModule, q: int) -> Mat:
    """Evaluate a component scalar on the q-th coefficient space of M:
    constants scale the identity, x acts by the recorded matrix."""
    n = M.dims[q]
    if entry.is_poly() and entry.num.degree <= 0:
        return Mat.eye(M.coef, n).scale(M.emb(entry.num.coeff(0)))
    X = M.xact[q]
    num = _poly_at(entry.num, X, M)
    if entry.den.degree <= 0:
        return num.scale(M.emb(M.dit.field.inv(entry.den.coeff(0))))
    den = _poly_at(entry.den, X, M)
    return num * den.inv()


def _evaluated(adm: AdmissibleData, M: DitModule, acts, key, t: int, s: int):
    """The blocks of the admissible action `acts` (`adm.aact` or `adm.xact`)
    at key, from ids at s to ids at t: one block per nonzero entry, the
    entry evaluated on M by `_eval_entry`."""
    for q in range(len(adm.s_points)):
        blk = acts.get((key, q))
        if blk is None:
            continue
        for r, row in enumerate(blk.rows):
            for c, entry in enumerate(row):
                if entry:
                    yield (t, q, r), (s, q, c), _eval_entry(entry, M, q)


def _id_pairs(adm: AdmissibleData, w: Arrow, names, mats):
    """The blocks of an old generator w, from ids at w.s to ids at w.t: the
    matrix in `mats` of the new generator `names` gives each id pair."""
    for beta in adm.ids_at_point(w.s):
        for alpha in adm.ids_at_point(w.t):
            yield alpha, beta, mats[names[(w.name, alpha, beta)]]


def _apply_module_X(step: ReductionStep, M: DitModule) -> DitModule:
    dit = step.src
    adm: AdmissibleData = step.data["adm"]
    coef = M.coef
    lay = {i: _offsets(adm, M.dims, i) for i in dit.points()}
    arr = {}
    for w in dit.full:
        if w.name in adm.w0prime:
            # action through the admissible module's own arrow action
            blocks = _evaluated(adm, M, adm.aact, w.name, w.t, w.s)
        else:
            blocks = _id_pairs(adm, w, step.data["full_map"], M.arr)
        arr[w.name] = _place(coef, lay[w.t], lay[w.s], blocks)
    xact = {i: _place(coef, lay[i], lay[i], _evaluated(adm, M, adm.xact, i, i, i))
            for i in dit.rational_points}
    return DitModule(dit, [lay[i][1] for i in dit.points()], arr, xact, coef, check=False)


def _apply_morph_X(step: ReductionStep, f: DitMorphism, FM=None, FN=None) -> DitMorphism:
    dit = step.src
    adm: AdmissibleData = step.data["adm"]
    pstar = step.data["pstar_names"]
    FM = FM or step.apply_module(f.src)
    FN = FN or step.apply_module(f.dst)
    coef = FM.coef
    src = {i: _offsets(adm, f.src.dims, i) for i in dit.points()}
    dst = {i: _offsets(adm, f.dst.dims, i) for i in dit.points()}

    def f0_blocks(i):
        # identity (x) f0 part
        for x in adm.ids_at_point(i):
            yield x, x, f.f0[x[1]]
        # x_beta p_j (x) f1(gamma_j) part
        for j, (qs, qd, blocks) in enumerate(adm.p_elems):
            blk = blocks.get(i)
            if blk is None:
                continue
            g = f.f1[pstar[j]]
            for r, row in enumerate(blk.rows):
                for c, entry in enumerate(row):
                    if not entry:
                        continue
                    if not (entry.is_poly() and entry.num.degree <= 0):
                        raise UnsupportedDecoration("non-scalar complement entry")
                    yield (i, qd, r), (i, qs, c), g.scale(FM.emb(entry.num.coeff(0)))

    f0 = {i: _place(coef, dst[i], src[i], f0_blocks(i)) for i in dit.points()}
    f1 = {v.name: _place(coef, dst[v.t], src[v.s], _id_pairs(adm, v, step.data["dashed_map"], f.f1))
          for v in dit.dashed}
    return DitMorphism(FM, FN, f0, f1)


# -- unravelling ------------------------------------------------------------------

def fitting_split(x_action: Mat, h: Poly, d: int):
    """Stabilized kernel/image split of h(x)^d: returns complementary
    projections (onto the h-invertible part, onto the h-nilpotent part)."""
    field = x_action.field
    n = x_action.m
    hA = h.eval_matrix(x_action)
    N = max(d, 1)
    while True:
        P = hA.pow(N)
        P2 = hA.pow(2 * N)
        ker1 = P.kernel()
        ker2 = P2.kernel()
        if len(ker1) == len(ker2):
            break
        N *= 2
    im = span_basis(field, [P.col(j) for j in range(n)])
    basis = im + ker1
    if len(basis) != n:
        raise AssertionError("kernel and image do not split the space")
    B = Mat.from_cols(field, basis, n)
    Binv = B.inv()
    # projection onto image part (first block), kernel part (second)
    proj_im = Mat.zeros(field, n, n)
    proj_ker = Mat.zeros(field, n, n)
    for j in range(n):
        col = [Binv.rows[r][j] for r in range(n)]
        for r in range(len(im)):
            for t in range(n):
                proj_im.rows[t][j] = proj_im.rows[t][j] + basis[r][t] * col[r]
        for r in range(len(im), n):
            for t in range(n):
                proj_ker.rows[t][j] = proj_ker.rows[t][j] + basis[r][t] * col[r]
    return proj_im, proj_ker


def build_unravel_data(dit: Ditalgebra, points, polys, depth: int) -> AdmissibleData:
    """The admissible module over the bare base that unravels the given
    rational points: nilpotent-part summands per prime power together with
    a localized component, plus identity components elsewhere."""
    rf = FracField(dit.field)
    polys = dict(polys)
    s_points = []
    ranks = {}
    xact = {}
    p_elems = []
    zparts = []  # (j, pi, a, q_index)
    for i in dit.points():
        if dit.is_rational(i):
            if i in points and i not in polys:
                raise FactorizationUnavailable(f"no polynomial supplied for point {i}")
            g = dit.base[i]
            if i in points:
                h = polys[i]
                if h.is_zero():
                    raise FactorizationUnavailable("zero unravelling polynomial")
                if poly_gcd(h, g).degree > 0:
                    raise FactorizationUnavailable("polynomial shares factors with the localizer")
                for (pi, mult) in factor_squarefree(h, require_irreducible=True):
                    if pi.degree != 1:
                        raise FactorizationUnavailable("non-linear prime factor; the ground field does not split it")
                    for a in range(1, depth + 1):
                        q = len(s_points)
                        lam = -pi.coeff(0)
                        s_points.append(SPoint(f"Z[{dit.labels[i]},{pi!r},{a}]", None))
                        ranks[(i, q)] = a
                        # x acts on k[x]/(pi^a) in the basis (x-lam)^t
                        m = Mat.zeros(rf, a, a)
                        for t in range(a):
                            m.rows[t][t] = rf.of(Poly.const(dit.field, lam))
                            if t + 1 < a:
                                m.rows[t + 1][t] = rf.one
                        xact[(i, q)] = m
                        zparts.append((i, pi, a, q))
                gq = len(s_points)
                s_points.append(SPoint(f"loc[{dit.labels[i]}]", (g * h).monic()))
                ranks[(i, gq)] = 1
                xact[(i, gq)] = Mat(rf, [[rf.x]])
            else:
                q = len(s_points)
                s_points.append(SPoint(dit.labels[i], g))
                ranks[(i, q)] = 1
                xact[(i, q)] = Mat(rf, [[rf.x]])
        else:
            q = len(s_points)
            s_points.append(SPoint(dit.labels[i], None))
            ranks[(i, q)] = 1
    # radical maps between nilpotent summands over the same prime
    for (i1, pi1, a1, q1) in zparts:
        for (i2, pi2, a2, q2) in zparts:
            if i1 != i2 or pi1 != pi2:
                continue
            # maps k[x]/(pi^a1) -> k[x]/(pi^a2): 1 |-> (x-lam)^(max(a2-a1,0)+c)
            lo = max(a2 - a1, 0)
            for c in range(min(a1, a2)):
                if q1 == q2 and c == 0:
                    continue  # the identity is in the splitting subalgebra
                shift = lo + c
                m = Mat.zeros(rf, a2, a1)
                for t in range(a1):
                    if t + shift < a2:
                        m.rows[t + shift][t] = rf.one
                if m.is_zero():
                    continue
                p_elems.append((q1, q2, {i1: m}))
    return AdmissibleData(dit, (), s_points, ranks, xact, {}, p_elems, "unravel")


def step_unravel(dit: Ditalgebra, points, polys, depth: int, require_stellar: bool = True) -> ReductionStep:
    """Unravel rational points: split off the prime-power torsion of the
    supplied polynomial up to the given depth and localize the rest."""
    for i in points:
        if not dit.is_rational(i):
            raise NotRationalPoint(f"point {i} carries no rational component")
    if require_stellar and dit.check_stellar() is None:
        raise HypothesisFailed("unravelling requires a stellar layer")
    adm = build_unravel_data(dit, points, polys, depth)
    step = step_reduce_X(dit, (), adm, kind="unravel")
    step.data["points"] = list(points)
    step.data["depth"] = depth
    step.data["polys"] = dict(polys)
    return step


def _point_pairs(step: ReductionStep):
    """The (source point, target point) pairs along which a step carries
    spaces: the point map of a rewriting step, and (i, q) for each id
    (i, q, t) of an X or unravel step.  Detachment induces a restriction,
    not an image functor, and has none."""
    if step.kind in ("X", "unravel"):
        return [(i, q) for i, q, _ in step.data["adm"].ids]
    if step.kind == "detach":
        raise ValueError("detachment induces a restriction, not an image functor")
    return step.data["point_map"].items()


def _source_dims(step: ReductionStep, dims) -> tuple:
    """The dimension vector of `step.apply_module(M)` for any module M
    with dimension vector dims: every step maps dimension vectors
    linearly, whatever the matrices, adding dims[j] to i for each pair
    (i, j) of `_point_pairs`."""
    out = [0] * step.src.n
    for i, j in _point_pairs(step):
        out[i] += dims[j]
    return tuple(out)


def _pull_back(step: ReductionStep, w) -> list:
    """The transpose of `_source_dims` over the same pairs: the linear
    functional w on the dimension vectors of the step's source, read on
    those of its target."""
    out = [0] * step.tgt.n
    for i, j in _point_pairs(step):
        out[j] += w[i]
    return out


def _image_dims(trace: ReductionTrace) -> tuple:
    """Per terminal point i, the total dimension of the image under the
    whole trace of any module of dimension one at i, no module built.
    The total dimension of the image is a linear functional of the
    terminal dimension vector: the all-ones functional on the source
    pulled back through each step (`_pull_back`)."""
    w = [1] * trace.source.n
    for step in trace.steps:
        w = _pull_back(step, w)
    return tuple(w)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _edge_admissible(dit: Ditalgebra, arrow: str) -> AdmissibleData:
    """Admissible data for reducing one derivation-free edge a: s -> t
    between distinct trivial points, in closed form, with identity
    localizations at the rational points.

    The module is the direct sum, over the edge subalgebra B (the base
    and a), of S_s, S_t, P = (k --1--> k) and the simple S_i at every
    other trivial point i, one new point per summand in that order.  So
    the ranks are 1 at (s, 0), (t, 1), (s, 2), (t, 2) and at (i, q) for
    the q-th summand S_i; there is no x-action; a acts by [[1]] on P
    alone.  The complement ideal is spanned by two maps:

    * End(S) = k for every simple S, and End(P) = k, since a morphism
      P -> P is a pair (f_s, f_t) with f_t * 1 = 1 * f_s.  Each is k, so
      every radical is 0 and no endomorphism enters the ideal.
    * Hom(S_t, P) = k, the socle inclusion (f_s = 0, f_t free), and
      Hom(P, S_s) = k, the top projection (f_t = 0, f_s free).
    * Every other Hom between distinct summands is 0: S_s -> P needs
      1 * f_s = 0, P -> S_t needs f_t * 1 = 0, and the remaining pairs
      have disjoint supports.

    Each nonzero Hom is one free unknown, so `hom_space`'s kernel basis
    holds the single map with entry 1, and `build_admissible_case1` on
    these summands gives the p-elements (S_t -> P, then P -> S_s) with
    [[1]] blocks at t and at s.  That function stays the reference.

    Refusals: an arrow that is not a full arrow of the layer, or a loop
    (S_s and S_t would be isomorphic summands), raises HypothesisFailed;
    an endpoint at a rational point raises InvalidModule, as no simple
    module lives there without an eigenvalue."""
    if arrow not in dit.full_names_set:
        raise HypothesisFailed(f"{arrow!r} is not a full arrow of the layer")
    a = dit.arrow(arrow)
    s, t = a.s, a.t
    if dit.is_rational(s) or dit.is_rational(t):
        raise InvalidModule(f"edge {arrow!r} ends at a rational point")
    if s == t:
        raise HypothesisFailed("summands must be pairwise non-isomorphic")
    rf = FracField(dit.field)
    others = [i for i in dit.points() if i not in (s, t) and not dit.is_rational(i)]
    ranks = {(s, 0): 1, (t, 1): 1}
    ranks.update({(i, 2): 1 for i in sorted((s, t))})
    ranks.update({(i, q): 1 for q, i in enumerate(others, 3)})
    s_points = [SPoint(f"[{n}]", None) for n in range(3 + len(others))]
    aact = {(arrow, 2): Mat(rf, [[rf.one]])}
    p_elems = [(1, 2, {t: Mat(rf, [[rf.one]])}), (2, 0, {s: Mat(rf, [[rf.one]])})]
    parts = [AdmissibleData(dit, (arrow,), s_points, ranks, {}, aact, p_elems, "1")]
    for i in dit.rational_points:
        loc = build_admissible_case2(dit, i, Poly.one(dit.field))
        parts.append(AdmissibleData(dit, (arrow,), loc.s_points, loc.ranks, loc.xact, {}, [], "2"))
    if len(parts) == 1:
        return parts[0]
    return build_admissible_case3(dit, parts)


def _find_regularizable(dit: Ditalgebra):
    for a in dit.full:
        d = dit.delta_of(a.name)
        if d.is_zero():
            continue
        lin = [key[1][0] for key in d.terms if len(key[1]) == 1 and not any(key[2])]
        longer = {u for key in d.terms if len(key[1]) != 1 for u in key[1]}
        for v in sorted(lin):
            if v not in longer:
                c = d.terms.get((dit.arrow(a.name).s, (v,), (0, 0)))
                if c:
                    return a.name, v
    return None


def _point_in_ideal(dit: Ditalgebra, i: int) -> bool:
    try:
        return dit.ideal_membership(dit.alg.e(i))
    except UndecidableForCyclic:
        return False


def _kills_simple(dit: Ditalgebra, i: int) -> bool:
    """Whether the simple at the trivial point i is not a module: some
    ideal generator has a nonzero coefficient at the unit key e_i."""
    unit = (i, (), (0,))
    return any(g.terms.get(unit) for g in dit.ideal)


def reduce_to_minimal(dit: Ditalgebra, d: int, budget: int = 64, dim_cap: int | None = None) -> ReductionTrace:
    """Chain reductions toward a minimal layer whose composite functor
    covers every module of endolength <= d (verified per fixture via the
    coverage oracle).

    Every step maps dimension vectors linearly (`_source_dims`), so the
    total dimension of the image under the whole trace is one linear
    functional of the terminal dimension vector: the all-ones functional
    on the source pulled back through each step (`_image_dims`), once per
    iteration for every point.  Its value at a trivial point is the
    weight of that point, the dimension of the image of its simple.  A
    point whose weight exceeds `dim_cap` (default 2d) cannot support any
    covered module of dimension within the cap and is deleted; so is a
    point whose simple is not a module, as the transported ideal kills
    it.  The simple S_i at a trivial point i is a module exactly when no
    ideal generator has a nonzero coefficient at the unit key
    (i, (), (0,)): a path of length >= 1 acts by zero on S_i, there is no
    x at a trivial point, and e_i acts by the identity.  Rational points
    are never deleted; their bounded-length modules realize the remaining
    coverage and the census filters them by endolength.

    The pass order: delete points lying in the ideal, delete trivial
    points beyond the dimension cap, factor out ideal arrows, regularize,
    absorb derivation-free loops into rational points, reduce
    derivation-free edges at admissible modules, unravel rational points
    blocking an edge.  Raises when no progress is possible within the
    budget.
    """
    if dim_cap is None:
        dim_cap = 2 * d
    trace = ReductionTrace(dit)
    for _ in range(budget):
        cur = trace.terminal
        # 0. done?
        if not cur.full:
            gens = [g for g in cur.ideal if not g.is_zero()]
            if gens:
                raise WildnessEncountered("no full arrows left but the ideal does not vanish", cur)
            return trace
        # 1. idempotents inside the ideal
        dead = [i for i in cur.points() if _point_in_ideal(cur, i)]
        if dead:
            trace.push(step_delete(cur, [i for i in cur.points() if i not in dead]))
            continue
        # 2. dimension cutoff for trivial points
        weights = _image_dims(trace)
        heavy = [i for i in cur.points()
                 if not cur.is_rational(i) and (weights[i] > dim_cap or _kills_simple(cur, i))]
        if heavy:
            trace.push(step_delete(cur, [i for i in cur.points() if i not in heavy]))
            continue
        # 3. factor out full arrows inside the ideal
        ideal_arrows = []
        for a in cur.full:
            try:
                if cur.ideal_membership(cur.alg.gen(a.name)):
                    dd = cur.delta_of(a.name)
                    if all(any(u in cur.full_names_set and cur.ideal_membership(cur.alg.gen(u)) for u in key[1]) for key in dd.terms):
                        ideal_arrows.append(a.name)
            except UndecidableForCyclic:
                pass
        if ideal_arrows:
            try:
                trace.push(step_factor_out(cur, ideal_arrows))
                continue
            except HypothesisFailed:
                pass
        # 4. regularization
        pair = _find_regularizable(cur)
        if pair:
            trace.push(step_regularize(cur, pair[0], pair[1]))
            continue
        # 5. absorb a derivation-free loop at a trivial point
        loop = next(
            (a.name for a in cur.full
             if a.s == a.t and not cur.is_rational(a.s)
             and cur.delta_of(a.name).is_zero()
             and not any(a.name in g.arrow_names() for g in cur.ideal)),
            None,
        )
        if loop:
            trace.push(step_absorb_loop(cur, loop))
            continue
        # 6. reduce a derivation-free edge between trivial points
        edge = next(
            (a.name for a in cur.full
             if a.s != a.t and cur.delta_of(a.name).is_zero()
             and not cur.is_rational(a.s) and not cur.is_rational(a.t)),
            None,
        )
        if edge:
            adm = _edge_admissible(cur, edge)
            trace.push(step_reduce_X(cur, (edge,), adm))
            continue
        # 7. unravel a rational point touching a derivation-free arrow,
        # splitting torsion at a spectrum value of its localizer
        rat = next(
            (i for a in cur.full
             if cur.delta_of(a.name).is_zero()
             for i in (a.s, a.t) if cur.is_rational(i)),
            None,
        )
        if rat is not None:
            h = Poly(cur.field, [-_spectrum_value(cur, rat), cur.field.one])
            trace.push(step_unravel(cur, [rat], {rat: h}, max(d, 1), require_stellar=False))
            continue
        raise WildnessEncountered("no applicable reduction move", cur)
    raise BudgetExceeded(f"no minimal layer within {budget} steps")


def _spectrum_value(dit: Ditalgebra, i: int):
    """The first value of the field's grid (every element over F_p) at
    which the localizer of the rational point i does not vanish."""
    g = dit.base[i]
    for c in dit.field.grid() if not dit.field.is_finite() else dit.field.elements():
        if g.eval(c) != dit.field.zero:
            return c
    raise WildnessEncountered("no spectrum value available for unravelling", dit)


# ---------------------------------------------------------------------------
# coverage verification (the oracle used by the acceptance suite)
# ---------------------------------------------------------------------------

def terminal_module_candidates(trace: ReductionTrace, dim_cap: int):
    """The modules over a minimal terminal layer, each supported at one
    point, whose images have total dimension <= dim_cap: the simple at
    each trivial point of weight <= dim_cap, and at each rational point
    of weight w (the image dimension per unit of dimension there) every
    x-action of dimension n <= dim_cap // w over the enumeration grid.

    These are all the candidates an indecomposable image needs.  A layer
    without full arrows has no maps between its points, so every module
    over it is the direct sum of its restrictions to single points, and
    n copies of a simple are n summands.  The composite functor is
    additive, so the image of any other module is a direct sum of the
    images of these, and by Krull-Schmidt it is indecomposable only when
    one of them is and the rest vanish.  A layer that still has full
    arrows raises HypothesisFailed."""
    cur = trace.terminal
    if cur.full:
        raise HypothesisFailed("the terminal layer still has full arrows")
    vectors = []
    weights = _image_dims(trace)
    for i in cur.points():
        top = dim_cap // max(1, weights[i])
        if not cur.is_rational(i):
            top = min(top, 1)
        for n in range(1, top + 1):
            dims = [0] * cur.n
            dims[i] = n
            vectors.append(dims)
    return enumerate_modules_dims(cur, vectors)


def verify_coverage(trace: ReductionTrace, d: int, dim_cap: int = 4):
    """Check that every indecomposable of the source with endolength <= d
    and total dimension <= dim_cap is isomorphic to the image of some
    terminal module.  Returns (covered, missing).

    The images are those of `terminal_module_candidates`, the modules
    supported at one point of the minimal terminal layer: the functor is
    additive, so an indecomposable image is the image of one of them.
    Over a prime field the candidates are every such module and the check
    is complete; over Q the x-actions at rational points come from a
    sampled grid, and a target whose image needs an eigenvalue outside
    it is reported missing."""
    src = trace.source
    targets = []
    for M in enumerate_indecomposables(src, dim_cap):
        if endolength(src, M) <= d:
            targets.append(M)
    images = []
    for N in terminal_module_candidates(trace, dim_cap):
        img = trace.apply_module(N)
        if 0 < img.total_dim <= dim_cap:
            images.append(img)
    covered = []
    missing = []
    for T in targets:
        hit = any(
            img.dims == T.dims and are_isomorphic(src, T, img) is not None for img in images
        )
        (covered if hit else missing).append(T)
    return covered, missing


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def trace_to_json(trace: ReductionTrace) -> str:
    import json  # here, not at the top: only trace serialization needs it

    steps = []
    for s in trace.steps:
        entry = {
            "kind": s.kind,
            "src_hash": s.src.content_hash(),
            "tgt_hash": s.tgt.content_hash(),
            "tgt": ditalgebra_to_text(s.tgt),
            "summary": s.describe(),
        }
        if s.kind == "d":
            entry["keep"] = s.data["keep"]
        elif s.kind == "r":
            entry["arrow"] = s.data["arrow"]
            entry["dashed"] = s.data["dashed"]
        elif s.kind == "q":
            entry["arrows"] = s.data["arrows"]
        elif s.kind == "a":
            entry.update({k: v for k, v in s.data.items() if k in ("arrows", "loop", "point")})
        elif s.kind in ("X", "unravel"):
            entry["w0prime"] = s.data["w0prime"]
            entry["mu"] = s.data["mu"]
            entry["adm_case"] = s.data["adm"].case
            if s.kind == "unravel":
                entry["points"] = s.data["points"]
                entry["depth"] = s.data["depth"]
                entry["polys"] = {str(i): poly_str(p) for i, p in s.data.get("polys", {}).items()}
        steps.append(entry)
    return json.dumps(
        {"source": ditalgebra_to_text(trace.source), "steps": steps},
        indent=1,
    )


def trace_from_json(blob: str) -> ReductionTrace:
    """Replay a serialized trace against its recorded hashes.  Steps at
    admissible modules replay when they came from the driver's canonical
    constructions (a single reduced edge, or an unravelling); custom
    admissible payloads are refused."""
    import json  # here, not at the top: only trace serialization needs it

    data = json.loads(blob)
    src = ditalgebra_from_text(data["source"])
    trace = ReductionTrace(src)
    for e in data["steps"]:
        cur = trace.terminal
        if cur.content_hash() != e["src_hash"]:
            raise ValueError("trace does not chain onto the recorded source")
        kind = e["kind"]
        if kind == "d":
            step = step_delete(cur, e["keep"])
        elif kind == "r":
            step = step_regularize(cur, e["arrow"], e["dashed"])
        elif kind == "q":
            step = step_factor_out(cur, e["arrows"])
        elif kind == "a":
            if "loop" in e:
                step = step_absorb_loop(cur, e["loop"])
            else:
                step = step_absorb(cur, e["arrows"])
        elif kind == "X":
            w0 = e["w0prime"]
            if len(w0) != 1:
                raise ValueError("cannot replay a custom admissible payload")
            step = step_reduce_X(cur, tuple(w0), _edge_admissible(cur, w0[0]))
        elif kind == "unravel":
            polys = {int(i): parse_poly(cur.field, p) for i, p in e["polys"].items()}
            step = step_unravel(cur, e["points"], polys, e["depth"], require_stellar=False)
        else:
            raise ValueError(f"unknown step kind {kind!r}")
        if step.tgt.content_hash() != e["tgt_hash"]:
            raise ValueError(f"replayed {kind}-step does not reproduce the recorded layer")
        trace.push(step)
    return trace
