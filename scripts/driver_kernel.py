"""Layer timings of the reduction driver, two checkouts interleaved.

    python3 scripts/driver_kernel.py --parent DIR --change DIR > report.json

Each DIR is the root of a checkout with its sources under `src/`.  The
inputs are made once, by the benchmark's own generator
(`perfbench/jobs.py` of this checkout): seeded layers with full arrows
only over the graphs K, A3, A4 and D4, over Q, F2 and F3, each reduced at
endolength d = 1, 2 and 3, INSTANCES layers per (graph, field, d).  One
pass runs `reduce_to_minimal` on every input and totals the time spent
inside the outermost calls of

    reduce_to_minimal   the whole driver
    validate            Ditalgebra.validate, the delta^2 = 0 check of every layer
    step_regularize     regularization steps
    step_delete         deletion steps
    step_reduce_X       reductions at an admissible module
    _build_delta        the reduced layer's derivation table, inside
                        step_reduce_X (`_XBuilder._build_delta`)

and, after each `reduce_to_minimal` with those clocks stopped, the time of

    transport           `trace.apply_module` of the single-point modules of
                        the terminal layer: the simple at every trivial
                        point, and at every rational point the module of
                        dimension one with x acting by `_spectrum_value`

Every pass parses its layers afresh, with the clocks stopped, so nothing
one trace keeps on a layer helps the next pass.  One round launches a
fresh interpreter per checkout that warms up with one pass and then times
REPS passes, with the checkout that goes first alternating between
rounds, so a drift of the host's speed falls on both sides alike.  The
report gives the median and quartiles of every (checkout, call) in ms per
pass over all rounds, and the parent's median over the change's.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 8     # fresh interpreters per checkout
REPS = 3       # timed passes per interpreter
SEED = 25
INSTANCES = 2  # seeded layers per (graph, field, d)
GRAPHS = ("K", "A3", "A4", "D4")
FIELDS = ("q", "fp:2", "fp:3")
DEPTHS = (1, 2, 3)
CALLS = ("reduce_to_minimal", "validate", "step_regularize", "step_delete", "step_reduce_X", "_build_delta",
         "transport")


def make_inputs(path: Path):
    """Write the seeded layer texts and their endolength bounds as JSON."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import jobs

    rng = random.Random(SEED)
    cases = [(jobs.layer_text(graph, fld, rng)[0], d)
             for graph in GRAPHS for fld in FIELDS for d in DEPTHS for _ in range(INSTANCES)]
    path.write_text(json.dumps(cases))


def child(src: Path, inputs: Path):
    """Time REPS passes after a warm-up; print {call: [seconds per pass]}."""
    sys.path.insert(0, str(src.resolve()))
    from ditred import bigraph, reduction
    from ditred.ditmod import DitModule
    from ditred.errors import DitredError

    cases = json.loads(inputs.read_text())
    totals = dict.fromkeys(CALLS, 0.0)
    depth = dict.fromkeys(CALLS, 0)
    clock = [False]

    def timed(call, fn):
        def wrapper(*args, **kwargs):
            if not clock[0] or depth[call]:
                return fn(*args, **kwargs)
            depth[call] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[call] += perf_counter() - t0
                depth[call] -= 1
        return wrapper

    bigraph.Ditalgebra.validate = timed("validate", bigraph.Ditalgebra.validate)
    reduction._XBuilder._build_delta = timed("_build_delta", reduction._XBuilder._build_delta)
    for call in CALLS:
        if call not in ("validate", "_build_delta", "transport"):
            setattr(reduction, call, timed(call, getattr(reduction, call)))

    def probes(dit):
        """The single-point modules of a terminal layer that it admits."""
        out = []
        for i in dit.points():
            try:
                lam = reduction._spectrum_value(dit, i) if dit.is_rational(i) else None
                out.append(DitModule.simple(dit, i, lam=lam))
            except DitredError:
                pass  # the ideal kills the point, or no spectrum value
        return out

    def one_pass():
        layers = [(bigraph.ditalgebra_from_text(text), d) for text, d in cases]
        for call in CALLS:
            totals[call] = 0.0
        for dit, d in layers:
            clock[0] = True
            try:
                trace = reduction.reduce_to_minimal(dit, d)
            except DitredError:
                continue  # a refused reduction costs what it cost on both sides
            finally:
                clock[0] = False
            for M in probes(trace.terminal):
                t0 = perf_counter()
                trace.apply_module(M)
                totals["transport"] += perf_counter() - t0
        return dict(totals)

    one_pass()
    passes = [one_pass() for _ in range(REPS)]
    print(json.dumps({call: [p[call] for p in passes] for call in CALLS}))


def launch(root: Path, inputs: Path):
    proc = subprocess.run([sys.executable, "-E", __file__, "--child", str(root / "src"), str(inputs)],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"timing run failed in {root}:\n{proc.stderr[-500:]}")
    return json.loads(proc.stdout)


def summary(times):
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_ms": round(1000 * med, 3), "q1_ms": round(1000 * q1, 3), "q3_ms": round(1000 * q3, 3)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        child(Path(argv[1]), Path(argv[2]))
        return 0
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    times = {(side, call): [] for side in sides for call in CALLS}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs.json"
        make_inputs(inputs)
        for r in range(ROUNDS):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                for call, ts in launch(sides[side], inputs).items():
                    times[(side, call)].extend(ts)
    report = {"rounds": ROUNDS, "reps": REPS, "seed": SEED, "traces": len(GRAPHS) * len(FIELDS) * len(DEPTHS) * INSTANCES,
              "python": sys.version.split()[0]}
    for side in sides:
        report[side] = {call: summary(times[(side, call)]) for call in CALLS}
    report["parent_over_change"] = {
        call: round(report["parent"][call]["median_ms"] / report["change"][call]["median_ms"], 2) for call in CALLS}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
