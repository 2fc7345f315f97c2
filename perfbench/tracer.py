"""Out-of-program tracing of ditred's layers.

`Tracer.install()` replaces every public function of each library module,
and every public method of each public class defined there, by a wrapper
that records a span: function, start, end, parent span and job id.  Names
that other modules imported (`from .ditmod import end_algebra`) are
rebound as well, so no call escapes through an old reference.  Spans stay
in memory, in flat arrays, until `write()`.

Properties are not wrapped, and of the special methods only the two the
per-layer metrics name: construction (`__init__`, reported as `new`) and
the product (`__mul__`, reported as `mul`) of `RatFunc`, `Ditalgebra`,
`Mat` and `PathElement`.  Element arithmetic (`FpElt`, `Fraction`,
`Poly` operators) runs millions of times per job and stays unwrapped; its
time is self time of the wrapped function that called it.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("scalars", "linalg", "bigraph", "ditmod", "algebras", "reduction", "qhbridge", "generic")

SPECIAL = {
    ("scalars", "RatFunc"): {"__init__": "new"},
    ("bigraph", "Ditalgebra"): {"__init__": "new"},
    ("linalg", "Mat"): {"__mul__": "mul"},
    ("bigraph", "PathElement"): {"__mul__": "mul"},
}

# Functions whose per-function metrics are reported (besides the layers).
REPORTED = (
    "scalars.poly_gcd", "scalars.factor_squarefree", "scalars.RatFunc.new",
    "linalg.Mat.rref", "linalg.Mat.solve", "linalg.Mat.kernel", "linalg.Mat.mul",
    "linalg.Mat.charpoly", "linalg.Mat.minpoly",
    "bigraph.Ditalgebra.new", "bigraph.Ditalgebra.validate", "bigraph.PathAlgebra.delta_of_key",
    "bigraph.PathElement.mul",
    "ditmod.hom_space", "ditmod.end_algebra", "ditmod.is_indecomposable", "ditmod.are_isomorphic",
    "ditmod.DitMorphism.compose", "ditmod.DitModule.eval_path", "ditmod.enumerate_modules_dims",
    "algebras.FDAlgebra.radical", "algebras.FDAlgebra.find_nontrivial_idempotent",
    "algebras.AlgMod.hom", "algebras.AlgMod.length", "algebras.has_filtration_by", "algebras.ext1_dim",
    "reduction.reduce_to_minimal", "reduction.step_reduce_X", "reduction.step_regularize",
    "reduction.step_delete", "reduction.step_absorb", "reduction.step_unravel",
    "reduction.verify_coverage", "reduction.ReductionStep.apply_module",
    "qhbridge.right_algebra", "qhbridge.oracle_standard_modules", "qhbridge.check_quasi_hereditary",
    "qhbridge.delta_filtration",
    "generic.generic_census", "generic.realize_generic", "generic.endolength_kx",
    "generic.smith_normal_form",
)

JOB_SPAN = "cli.job"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = [JOB_SPAN]          # function id -> qualified name
        self.originals = [None]          # function id -> wrapped function
        self.fn = array("i")             # per span: function id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")         # span index, -1 for a root
        self.job = array("i")
        self._stack = [-1]
        self._job = -1
        self._undo = []
        self._probes = {
            "linalg.Mat.rref": self._probe_rref,
            "ditmod.DitModule.eval_path": self._probe_eval_path,
            "ditmod.is_indecomposable": self._probe_indecomposable,
            "algebras.FDAlgebra.find_nontrivial_idempotent": self._probe_idempotent,
            "reduction.reduce_to_minimal": self._probe_trace,
        }
        self.counts = {k: 0 for k in (
            "rref.repeat", "eval_path.repeat", "indecomposable.yes", "idempotent.found",
            "trace.steps", "trace.max_dashed", "trace.max_delta_terms")}
        self._seen_rref = set()
        self._seen_eval = set()
        self._keep_alive = []

    # -- spans ---------------------------------------------------------------
    def _open(self, fid):
        idx = len(self.fn)
        self.fn.append(fid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self._stack.append(idx)
        return idx

    def _wrap(self, qualname, orig):
        fid = len(self.names)
        self.names.append(qualname)
        self.originals.append(orig)
        probe = self._probes.get(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(fid)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", qualname)
        wrapper.__qualname__ = getattr(orig, "__qualname__", qualname)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def run_job(self, job_id, fn, *args):
        """Call fn(*args) as job `job_id`, inside a root span."""
        self._job = job_id
        self._seen_rref.clear()
        self._seen_eval.clear()
        self._keep_alive.clear()
        idx = self._open(0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()
            self._job = -1

    # -- probes: waste ratios and sizes, measured where the work happens -----
    def _probe_rref(self, args, result):
        m = args[0]
        key = (m.field, m.n, tuple(tuple(r) for r in m.rows))
        if key in self._seen_rref:
            self.counts["rref.repeat"] += 1
        else:
            self._seen_rref.add(key)

    def _probe_eval_path(self, args, result):
        module, key = args[0], args[1]
        pair = (id(module), key)
        if pair in self._seen_eval:
            self.counts["eval_path.repeat"] += 1
        else:
            self._seen_eval.add(pair)
            self._keep_alive.append(module)  # ids stay unique within the job

    def _probe_indecomposable(self, args, result):
        self.counts["indecomposable.yes"] += bool(result)

    def _probe_idempotent(self, args, result):
        self.counts["idempotent.found"] += result is not None

    def _probe_trace(self, args, trace):
        c = self.counts
        c["trace.steps"] += len(trace.steps)
        for layer in [trace.source] + [s.tgt for s in trace.steps]:
            c["trace.max_dashed"] = max(c["trace.max_dashed"], len(layer.dashed))
            terms = sum(len(el.terms) for el in layer.delta.values())
            c["trace.max_delta_terms"] = max(c["trace.max_delta_terms"], terms)

    # -- installation --------------------------------------------------------
    def install(self):
        pkg = self.package.__name__
        replaced = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    w = self._wrap(f"{layer}.{name}", obj)
                    replaced[id(obj)] = (obj, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        # rebind every reference to a wrapped function in the package
        for modname, mod in list(sys.modules.items()):
            if modname != pkg and not modname.startswith(pkg + "."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        return self

    def _wrap_class(self, layer, cls):
        special = SPECIAL.get((layer, cls.__name__), {})
        for name, raw in list(vars(cls).items()):
            if name in special:
                label = special[name]
            elif name.startswith("_"):
                continue
            else:
                label = name
            qual = f"{layer}.{cls.__name__}.{label}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(qual, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(qual, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(qual, raw)
            else:
                continue  # properties and data
            self._undo.append((cls, name, raw))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------
    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        n = len(self.fn)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def metrics(self):
        """Per-layer and per-function calls and self time, and the probes."""
        selfs = self.self_times()
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for i, fid in enumerate(self.fn):
            calls[fid] += 1
            busy[fid] += selfs[i]
        out = {}
        for layer in LAYERS:
            ids = [f for f, nm in enumerate(self.names) if nm.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = (sum(calls[f] for f in ids), "count")
            out[f"{layer}.self_s"] = (sum(busy[f] for f in ids), "s")
        index = {nm: f for f, nm in enumerate(self.names)}
        for nm in REPORTED:
            f = index[nm]
            out[f"{nm}.calls"] = (calls[f], "count")
            out[f"{nm}.self_s"] = (busy[f], "s")
        c = self.counts

        def ratio(num, base_name):
            base = calls[index[base_name]]
            return (num / base if base else 0.0, "ratio")

        out["linalg.Mat.rref.repeat_ratio"] = ratio(c["rref.repeat"], "linalg.Mat.rref")
        out["ditmod.DitModule.eval_path.repeat_ratio"] = ratio(c["eval_path.repeat"], "ditmod.DitModule.eval_path")
        out["ditmod.is_indecomposable.yes_ratio"] = ratio(c["indecomposable.yes"], "ditmod.is_indecomposable")
        out["algebras.FDAlgebra.find_nontrivial_idempotent.found_ratio"] = ratio(
            c["idempotent.found"], "algebras.FDAlgebra.find_nontrivial_idempotent")
        for k in ("steps", "max_dashed", "max_delta_terms"):
            out[f"reduction.trace.{k}"] = (c[f"trace.{k}"], "count")
        return out

    def calls_by_function(self):
        calls = {nm: 0 for nm in self.names}
        for fid in self.fn:
            calls[self.names[fid]] += 1
        return calls

    def write(self, path):
        """All spans as tab-separated text: job, span, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job\tspan\tparent\tname\tstart_s\tend_s\n")
            names, fn, job, parent, start, end = self.names, self.fn, self.job, self.parent, self.start, self.end
            for i in range(len(fn)):
                fh.write(f"{job[i]}\t{i}\t{parent[i]}\t{names[fn[i]]}\t{start[i]:.9f}\t{end[i]:.9f}\n")
