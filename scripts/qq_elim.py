"""Layer timings of the module calculus over Q, two checkouts interleaved.

    python3 scripts/qq_elim.py --parent DIR --change DIR > report.json

Each DIR is the root of a checkout with its sources under `src/`.  The
inputs are made once, by the benchmark's own generators
(`perfbench/jobs.py` of this checkout), in seeded bases:

    hom      M.hom(M) for M = J3+J1+J1+J3 over k[t]/(t^3) over Q
    end      M.end_algebra() for the same M
    radical  the radical of that End algebra
    qh_end   D.hom(D) for the standard module D of k[t]/(t^4) over Q:
             the End(Delta) Hom system of a `qh k[t]/(t^4) q` job

Every timing starts from objects parsed afresh from text, so nothing one
computation keeps on an algebra or a module (radical, generators, End)
helps the next.  One round launches a fresh interpreter per checkout that
warms up on each case once and then times it REPS times, with the
checkout that goes first alternating between rounds, so a drift of the
host's speed falls on both sides alike.  The report gives the median and
quartiles of every (checkout, case) in ms over all rounds, and the parent's
median over the change's.
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
ROUNDS = 8  # fresh interpreters per checkout
REPS = 5    # timings of each case per interpreter
SEED = 24
CASES = ("hom", "end", "radical", "qh_end")


def make_inputs(path: Path):
    """Write the seeded algebra and module texts as JSON."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import jobs

    F = jobs.Scalars("q")
    rng = random.Random(SEED)
    t3, basis = jobs.truncated_poly_algebra(F, 3, rng)
    mod = jobs.jordan_module(F, 3, basis, (3, 1, 1, 3), rng)
    t4, _ = jobs.truncated_poly_algebra(F, 4, rng)
    path.write_text(json.dumps({"t3": t3, "mod": mod, "t4": t4}))


def child(src: Path, inputs: Path):
    """Time every case REPS times after a warm-up; print {case: [seconds]}."""
    sys.path.insert(0, str(src.resolve()))
    from ditred.algebras import algebra_from_text, algmod_from_text, standard_modules

    texts = json.loads(inputs.read_text())

    def module():
        return algmod_from_text(algebra_from_text(texts["t3"]), texts["mod"])

    def standard():
        return standard_modules(algebra_from_text(texts["t4"]))[0]

    # case -> (setup, timed call on what setup made)
    cases = {
        "hom": (module, lambda M: M.hom(M)),
        "end": (module, lambda M: M.end_algebra()),
        "radical": (lambda: module().end_algebra()[0], lambda E: E.radical()),
        "qh_end": (standard, lambda D: D.hom(D)),
    }
    out = {}
    for case in CASES:
        setup, call = cases[case]
        call(setup())
        times = []
        for _ in range(REPS):
            x = setup()
            t0 = perf_counter()
            call(x)
            times.append(perf_counter() - t0)
        out[case] = times
    print(json.dumps(out))


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
    times = {(side, case): [] for side in sides for case in CASES}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs.json"
        make_inputs(inputs)
        for r in range(ROUNDS):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                for case, ts in launch(sides[side], inputs).items():
                    times[(side, case)].extend(ts)
    report = {"rounds": ROUNDS, "reps": REPS, "seed": SEED, "python": sys.version.split()[0]}
    for side in sides:
        report[side] = {case: summary(times[(side, case)]) for case in CASES}
    report["parent_over_change"] = {
        case: round(report["parent"][case]["median_ms"] / report["change"][case]["median_ms"], 2) for case in CASES}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
