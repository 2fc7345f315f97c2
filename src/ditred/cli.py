"""Batch command-line front end.

Subcommands operate on the text formats of the library (layer files,
module files, algebra files) and print exact scalars only: fractions and
polynomials, never decimals.

Exit codes: 0 ok; 1 negative verdict (not quasi-hereditary, no
filtration); 2 bad input (unreadable or malformed file, undirected layer
for reduce, empty standard family); 3 the computation gave up, was
refused or is undecided (budget exceeded, wildness, unsupported
hypotheses, a family that is not standard for any order).
"""

from __future__ import annotations

import argparse
import sys

from .algebras import algebra_from_text, algmod_from_text
from .bigraph import ditalgebra_from_text, ditalgebra_to_text
from .ditmod import endolength, enumerate_indecomposables, module_to_text
from .errors import DitredError, ParseError
from .generic import generic_census
from .qhbridge import check_quasi_hereditary, delta_filtration, oracle_standard_modules
from .reduction import reduce_to_minimal, trace_to_json, verify_coverage
from .scalars import poly_str


def _read(path) -> str:
    """The text of an input file, which the text formats keep in UTF-8."""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_dit(path, field=None):
    text = _read(path)
    if field:
        # override the declared ground field, keeping the structure
        lines = [f"field {field}" if ln.strip().startswith("field ") else ln
                 for ln in text.splitlines()]
        text = "\n".join(lines)
    return ditalgebra_from_text(text)


def _load_algebra(path):
    return algebra_from_text(_read(path))


def cmd_check(args) -> int:
    dit = _load_dit(args.path, args.field)
    print(f"points: {dit.n}  full arrows: {len(dit.full)}  dashed arrows: {len(dit.dashed)}")
    kinds = ", ".join(
        f"{dit.labels[i]}:{'k' if g is None else 'k[x]_(' + poly_str(g) + ')'}"
        for i, g in enumerate(dit.base)
    )
    print(f"components: {kinds}")
    print(f"directed: {'yes' if dit.check_directed() else 'no'}")
    filt = dit.filtration
    if filt is not None:
        print(f"triangular witness verified: {'yes' if dit.verify_filtration(filt) else 'NO'}")
    else:
        found = dit.find_filtration()
        print(f"triangular order found: {'yes' if found is not None else 'no'}")
    sources = [dit.labels[i] for i in dit.sources()]
    print(f"sources: [{', '.join(sources)}]")
    stellar = dit.check_stellar()
    print(f"stellar: {'center ' + dit.labels[stellar] if stellar is not None else 'no'}")
    gens = [g for g in dit.ideal if not g.is_zero()]
    print(f"ideal generators: {len(gens)}")
    for g in gens:
        ok = g.is_homogeneous(0)
        print(f"  {g!r}  degree-0: {'yes' if ok else 'NO'}")
    return 0


def cmd_reduce(args) -> int:
    dit = _load_dit(args.path, args.field)
    if not dit.check_directed():
        print("input is not directed; refusing to reduce", file=sys.stderr)
        return 2
    trace = reduce_to_minimal(dit, args.endolength, budget=args.budget)
    print(trace.describe())
    print(f"per-step endolength factors: {[s.endolength_factor for s in trace.steps]}")
    print(f"composite endolength factor: {trace.endolength_factor()}")
    print()
    print(ditalgebra_to_text(trace.terminal))
    if args.oracle:
        covered, missing = verify_coverage(trace, args.endolength, dim_cap=args.max_dim)
        print(f"coverage at endolength <= {args.endolength}, dimension <= {args.max_dim}: "
              f"{len(covered)} covered, {len(missing)} missing")
        for m in missing:
            print(f"  missing: dims {m.dims}")
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(trace_to_json(trace))
        print(f"trace written to {args.trace_out}")
    return 0


def _family_chunks(text: str):
    """The module texts of a family file.  A module starts at each line
    that reads `algmod` once its comment is stripped; a chunk with nothing
    else in it is skipped.  Each chunk is padded with blank lines, so a
    parse error names the line of the family file."""
    raw = text.splitlines()
    lines = [r.split("#", 1)[0].strip() for r in raw]
    starts = [n for n, line in enumerate(lines) if line == "algmod"]
    bounds = [0] + starts + [len(lines)]
    return ["\n" * a + "\n".join(raw[a:b]) for a, b in zip(bounds, bounds[1:])
            if any(line not in ("", "algmod") for line in lines[a:b])]


def cmd_qh(args) -> int:
    alg = _load_algebra(args.algebra)
    if args.delta:
        deltas = [algmod_from_text(alg, chunk) for chunk in _family_chunks(_read(args.delta))]
        if not deltas:
            print("empty standard family", file=sys.stderr)
            return 2
    else:
        deltas = oracle_standard_modules(alg)
        print(f"using the oracle family of quotients; dims {[D.dim for D in deltas]}")
    cert = check_quasi_hereditary(alg, deltas)
    print(cert.report())
    return 0 if cert.passed else 1 if cert.failed else 3


def cmd_filtration(args) -> int:
    alg = _load_algebra(args.algebra)
    deltas = oracle_standard_modules(alg)
    M = algmod_from_text(alg, _read(args.module))
    wit = delta_filtration(alg, deltas, M)
    if wit is None:
        print("no filtration by the standard family (trace filtration)")
        return 1
    print(f"filtration with {len(wit)} layer(s); chain members (bottom to top):")
    for idx, sub in wit:
        print(f"  factor index {idx + 1}, submodule dimension {len(sub)}")
    return 0


def cmd_generics(args) -> int:
    dit = _load_dit(args.path, args.field)
    census, trace = generic_census(dit, args.endolength, budget=args.budget)
    term = trace.terminal
    rational = [i for i in term.points() if term.is_rational(i)]
    print(f"terminal layer: {term.n} point(s), {len(rational)} rational")
    print(f"census at endolength <= {args.endolength}: {len(census)} generic realization(s)")
    for R in census:
        print(f"  point {term.labels[R.point]}: rank {R.rank} = endolength {R.endol}, "
              f"localizer {poly_str(R.g)}")
        shown = 0
        for lam in dit.field.grid() if not dit.field.is_finite() else dit.field.elements():
            if shown >= 3:
                break
            if not R.spectrum_contains(lam):
                continue
            S = R.specialize(lam)
            print(f"    x = {lam}: dims {S.dims}, endolength {endolength(dit, S)}")
            shown += 1
    return 0


def cmd_enumerate(args) -> int:
    dit = _load_dit(args.path, args.field)
    mods = enumerate_indecomposables(dit, args.max_dim)
    print(f"indecomposables with total dimension <= {args.max_dim}: {len(mods)}")
    for M in mods:
        print(f"-- dims {M.dims}, endolength {endolength(dit, M)}")
        sys.stdout.write(module_to_text(M))
    return 0


def _size(text: str) -> int:
    """A non-negative integer option (endolength, dimension cap, budget)."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return n


# what a failing subcommand reports as having failed, where its name differs
_TASK = {"reduce": "reduction", "generics": "census"}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ditred", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="structural predicates of a layer file")
    p.add_argument("path")
    p.add_argument("--field", default=None, help="override the ground field: q or fp:<p>")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("reduce", help="chain reductions to a minimal layer")
    p.add_argument("path")
    p.add_argument("--endolength", "-d", type=_size, default=2)
    p.add_argument("--budget", type=_size, default=64)
    p.add_argument("--max-dim", type=_size, default=4)
    p.add_argument("--oracle", action="store_true", help="verify coverage, complete over prime fields, a sampled grid over Q (the grid grows quickly with --max-dim)")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--field", default=None, help="override the ground field: q or fp:<p>")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("qh", help="quasi-heredity certificate for an algebra")
    p.add_argument("algebra")
    p.add_argument("--delta", default=None, help="file with the ordered standard family")
    p.set_defaults(fn=cmd_qh)

    p = sub.add_parser("filtration", help="filtration witness by the standard family")
    p.add_argument("algebra")
    p.add_argument("module")
    p.set_defaults(fn=cmd_filtration)

    p = sub.add_parser("generics", help="census of generic realizations")
    p.add_argument("path")
    p.add_argument("--endolength", "-d", type=_size, default=2)
    p.add_argument("--budget", type=_size, default=64)
    p.add_argument("--field", default=None, help="override the ground field: q or fp:<p>")
    p.set_defaults(fn=cmd_generics)

    p = sub.add_parser("enumerate", help="enumerate indecomposables of bounded dimension")
    p.add_argument("path")
    p.add_argument("--max-dim", type=_size, default=3)
    p.add_argument("--field", default=None, help="override the ground field: q or fp:<p>")
    p.set_defaults(fn=cmd_enumerate)
    return ap


# built once per process: parsing keeps no state in the parser
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as e:
        # a missing, unreadable or non-UTF-8 input file (or --trace-out path)
        print(str(e), file=sys.stderr)
        return 2
    except DitredError as e:
        print(f"{_TASK.get(args.command, args.command)} failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
