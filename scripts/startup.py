"""Start-up cost of ditred in fresh interpreters, two checkouts interleaved.

    python3 scripts/startup.py --parent DIR --change DIR > report.json

Each DIR is the root of a checkout with its sources under `src/`.  Three
kinds of launch are timed, wall clock around the whole process:

    bare    python -E -c pass
    import  python -E -c "import sys; sys.path.insert(0, SRC); import ditred"
    qh      the same interpreter running `ditred qh` on k[t]/(t^3) over Q

One round runs a bare launch, then the import and qh launches of both
checkouts, with the checkout that goes first alternating between rounds,
so a drift of the host's speed falls on both sides alike.  Each checkout
is launched once before timing, so its bytecode is compiled.  The report
gives the median and quartiles of every (checkout, kind) in ms, and the
import median minus the bare median: ditred's own share of start-up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

LAUNCHES = 60  # timed launches of each kind per checkout

# k[t]/(t^3) over Q on the basis 1, t, t^2.  Its one standard module is the
# algebra itself, whose endomorphisms are not scalars: `qh` exits 1
QH_EXIT = 1
TRUNCATED_3 = """algebra
field q
dim 3
basis one t t2
unit 1 0 0
mul 1 1 = 1 0 0
mul 1 2 = 0 1 0
mul 1 3 = 0 0 1
mul 2 1 = 0 1 0
mul 2 2 = 0 0 1
mul 3 1 = 0 0 1
"""


def commands(root: Path, alg: Path):
    """kind -> (code, expected exit code) for the checkout at root."""
    src = str(root.resolve() / "src")
    head = f"import sys; sys.path.insert(0, {src!r}); "
    return {
        "import": (head + "import ditred", 0),
        "qh": (head + f"from ditred.cli import main; raise SystemExit(main(['qh', {str(alg)!r}]))", QH_EXIT),
    }


def launch(code: str, expect: int = 0) -> float:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-E", "-c", code],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    wall = perf_counter() - t0
    if proc.returncode != expect:
        raise SystemExit(f"launch failed ({proc.returncode}): {code}\n{proc.stderr.decode()[-500:]}")
    return wall


def summary(times):
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_ms": round(1000 * med, 2), "q1_ms": round(1000 * q1, 2), "q3_ms": round(1000 * q3, 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        alg = Path(tmp) / "truncated3.alg"
        alg.write_text(TRUNCATED_3)
        sides = {name: commands(root, alg) for name, root in (("parent", args.parent), ("change", args.change))}
        for cmds in sides.values():
            for code, expect in cmds.values():
                launch(code, expect)
        times = {"bare": []}
        times.update({(side, kind): [] for side in sides for kind in ("import", "qh")})
        for r in range(LAUNCHES):
            times["bare"].append(launch("pass"))
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for kind in ("import", "qh"):
                for side in order:
                    times[(side, kind)].append(launch(*sides[side][kind]))
    bare = summary(times["bare"])
    report = {"launches": LAUNCHES, "python": sys.version.split()[0], "bare": bare}
    for side in sides:
        report[side] = {kind: summary(times[(side, kind)]) for kind in ("import", "qh")}
        report[side]["import_minus_bare_ms"] = round(report[side]["import"]["median_ms"] - bare["median_ms"], 2)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
