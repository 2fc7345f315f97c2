"""The ditred benchmark: seeded mixes of CLI jobs with answers known from theory.

    python3 perfbench/run.py --workload verify_fp --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
One client runs jobs in a closed loop, in this process and without
threads: each job is `ditred.cli.main(argv)` on seeded input files, and
its stdout is checked against an answer from representation theory (see
`jobs.py`).  Jobs come in rounds, one job of every kind of the workload
per round.  The first CHECK_ROUNDS rounds are the check rounds: their
stdout is hashed (the digest a later change of output shows in) and
they warm the process up.  Timed rounds follow until `--seconds` have
passed and at least MIN_JOBS jobs were timed.

The host's speed drifts by half or more within a minute, so every timed
interval is also taken at a fixed nominal speed: `hostspeed` samples the
speed every 50 ms all through the run, and each wall time is scaled by
the mean speed of the samples around it.  The end-to-end times are these
scaled seconds; the raw wall times are printed beside them.

A job fails when its exit code is unexpected, when it raises, or when
its output contradicts the known answer; `failed` counts all of them.
The rational coverage oracle samples a finite grid and reports modules
outside it as missing (jobmod.KNOWN_DEFECT).  Those jobs stay in the mix
and count as failed; `correct` is false when any other failure occurs.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` the check rounds run twice, untraced and then under the
tracer, and the last line reports the per-layer metrics and the tracing
overhead; both passes must print the same stdout.  The spans are written
to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import jobs as jobmod  # noqa: E402

MIN_JOBS = 40          # p75 needs ten samples beyond it
CHECK_ROUNDS = 1       # the fixed rounds behind the stdout digest and the traced run
SETUP_REPEATS = 3      # interpreter launches for setup_s, at the start and after each round
MAX_RUN_S = 150        # a run must end within 180 s, even if the program gets much slower
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_ditred():
    if not (SRC / "ditred" / "__init__.py").is_file():
        raise BenchError(f"no ditred sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ditred
    import ditred.cli

    if Path(ditred.__file__).resolve().parent != SRC / "ditred":
        raise BenchError(f"imported ditred from {ditred.__file__}, not from {SRC}")
    return ditred


def measure_setup(times, repeats):
    """Append (start, wall) of fresh interpreters that import ditred."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ditred"
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-E", "-c", code], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        times.append((t0, perf_counter() - t0))
        if proc.returncode != 0:
            raise BenchError("fresh interpreter cannot import ditred: " + proc.stderr.decode()[-500:])


def round_rng(workload, seed):
    return random.Random(f"ditred-bench/{workload}/{seed}")


class Runner:
    """Prepares and runs jobs in the work directory, one at a time."""

    def __init__(self, ditred, workdir):
        self.ditred = ditred
        self.workdir = workdir

    def prepare(self, job):
        """Write the job's files.  Right algebras are made here by the
        program from the job's layer; their dimension is checked against
        the path count of the quiver."""
        files = dict(job.files)
        if "R.alg" in files:
            from ditred.algebras import algebra_to_text
            from ditred.bigraph import ditalgebra_from_text
            from ditred.qhbridge import right_algebra

            R = right_algebra(ditalgebra_from_text(job.meta["layer"]))
            if R.alg.dim != job.meta["alg_dim"]:
                return f"right algebra dimension {R.alg.dim}, path count {job.meta['alg_dim']}"
            files["R.alg"] = algebra_to_text(R.alg)
            if "M.mod" in files:
                files["M.mod"] = jobmod.regular_module(files["R.alg"], random.Random(job.meta["module_seed"]))
        for name, text in files.items():
            (self.workdir / name).write_text(text)
        return None

    def execute(self, job):
        """Prepare and run one job; returns (seconds, stdout, failure or None)."""
        why = self.prepare(job)
        if why:
            return 0.0, "", why
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.ditred.cli.main(job.argv)
        except SystemExit as e:
            rc = e.code
        except Exception:  # a traceback is a failed job, recorded with its text
            dt = perf_counter() - t0
            return dt, out.getvalue(), "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        dt = perf_counter() - t0
        text = out.getvalue()
        if rc != job.expect_rc:
            return dt, text, f"exit code {rc}, expected {job.expect_rc}: {err.getvalue().strip()[-200:]}"
        return dt, text, job.check(text)


def classify(job, why):
    """'ok', 'known' (the documented defect) or 'bad'."""
    if why is None:
        return "ok"
    if job.known_defect_possible and why.startswith(jobmod.KNOWN_DEFECT):
        return "known"
    return "bad"


class Tally:
    def __init__(self):
        # (round, family, job seconds, outcome, reason, start and wall of prepare and job)
        self.records = []
        self.round_walls = []
        self.digest = hashlib.sha256()

    def add(self, job, start, wall, dt, text, why):
        rnd = len(self.round_walls)
        self.records.append((rnd, job.family, dt, classify(job, why), why, start, wall))
        if rnd < CHECK_ROUNDS:
            self.digest.update(text.encode())

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if r[3] != "ok")

    @property
    def unexplained(self):
        return [r for r in self.records if r[3] == "bad"]

    def timed(self, sampler=None):
        """(prepare-and-run wall, job seconds, verified) of each job after
        the check rounds, at the nominal speed if a sampler is given."""
        out = []
        for rnd, _, dt, outcome, _, start, wall in self.records:
            if rnd >= CHECK_ROUNDS:
                f = sampler.scale(start, start + wall) if sampler else 1.0
                out.append((wall * f, dt * f, outcome == "ok"))
        return out

    def report(self, label):
        fams = {}
        for _, fam, dt, outcome, *_ in self.records:
            fams.setdefault(fam, []).append((dt, outcome))
        print(f"[{label}] {self.attempted} jobs in {len(self.round_walls)} rounds, {self.failed} failed, "
              f"stdout sha256 of the first {CHECK_ROUNDS} round(s) {self.digest.hexdigest()}")
        for fam in sorted(fams):
            rows = fams[fam]
            bad = sum(1 for _, o in rows if o != "ok")
            print(f"  {fam:44s} n={len(rows):3d} median={statistics.median(d for d, _ in rows):8.4f}s failed={bad}")
        for _, fam, _, outcome, why, *_ in self.records:
            if outcome != "ok":
                print(f"  FAILED ({outcome}) {fam}: {why}")


def run_rounds(runner, workload, seed, more, tracer=None, between=None):
    """Run seeded rounds of the workload while more(tally) holds, calling
    between() after each round."""
    rng = round_rng(workload, seed)
    tally = Tally()
    while more(tally):
        t0 = perf_counter()
        for job in jobmod.make_round(workload, rng):
            t1 = perf_counter()
            if tracer is None:
                result = runner.execute(job)
            else:
                result = tracer.run_job(len(tally.records), runner.execute, job)
            tally.add(job, t1, perf_counter() - t1, *result)
        tally.round_walls.append(perf_counter() - t0)
        if between is not None:
            between()
    return tally


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, args):
    """The check rounds come first and also warm the process up; the rounds
    after them are timed until `--seconds` have passed, and the metrics pool
    all timed jobs.  The interpreter launches for setup_s are spread over
    the run, between rounds, and setup_s is their median.  All times are
    taken at the nominal host speed (see `hostspeed`); the raw wall-time
    figures are printed beside them."""
    setup_times = []

    def more(t):
        if sum(t.round_walls) >= MAX_RUN_S:
            return False
        return (len(t.round_walls) < CHECK_ROUNDS or sum(t.round_walls[CHECK_ROUNDS:]) < args.seconds
                or sum(1 for r in t.records if r[0] >= CHECK_ROUNDS) < MIN_JOBS)

    with hostspeed.Sampler() as sampler:
        measure_setup(setup_times, SETUP_REPEATS)
        tally = run_rounds(runner, args.workload, args.seed, more,
                           between=lambda: measure_setup(setup_times, SETUP_REPEATS))
    tally.report(f"{args.workload} seed {args.seed}")

    def summary(speed):
        """(jobs_per_s, job_p50_s, job_p75_s, setup_s), scaled by `speed` if given."""
        timed = tally.timed(speed)
        q = statistics.quantiles([dt for _, dt, _ in timed], n=4, method="inclusive")
        return (sum(ok for _, _, ok in timed) / sum(w for w, _, _ in timed), q[1], q[2],
                statistics.median(w * (speed.scale(t, t + w) if speed else 1.0) for t, w in setup_times))

    rate, p50, p75, setup_s = summary(sampler)
    raw = summary(None)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"  timed {len(tally.timed())} jobs in {len(tally.round_walls) - CHECK_ROUNDS} rounds; "
          f"setup over {len(setup_times)} launches")
    print(f"  host speed: {len(sampler.speed)} samples, median {statistics.median(sampler.speed):.3f}, "
          f"range {min(sampler.speed):.3f}..{max(sampler.speed):.3f} of nominal")
    print(f"  raw wall: jobs_per_s {raw[0]:.4f}, job_p50_s {raw[1]:.4f}, job_p75_s {raw[2]:.4f}, "
          f"setup_s {raw[3]:.4f}")
    verified = tally.attempted - tally.failed
    metrics = {
        "jobs_per_s": metric(rate, "1/s"),
        "job_p50_s": metric(p50, "s"),
        "job_p75_s": metric(p75, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "verified_ratio": metric(verified / tally.attempted, "ratio"),
    }
    return tally, not tally.unexplained, metrics


def per_layer(runner, args, ditred):
    """The check rounds, untraced and then traced, in one process."""
    from tracer import Tracer

    def more(t):
        return len(t.round_walls) < CHECK_ROUNDS

    plain = run_rounds(runner, args.workload, args.seed, more)
    tracer = Tracer(ditred).install()
    try:
        traced = run_rounds(runner, args.workload, args.seed, more, tracer)
    finally:
        tracer.uninstall()
    plain.report(f"{args.workload} seed {args.seed} untraced")
    traced.report(f"{args.workload} seed {args.seed} traced")
    plain_wall, traced_wall = sum(plain.round_walls), sum(traced.round_walls)
    same = plain.digest.hexdigest() == traced.digest.hexdigest()
    print(f"  traced stdout {'equals' if same else 'DIFFERS FROM'} untraced stdout; "
          f"untraced {plain_wall:.3f}s, traced {traced_wall:.3f}s, {len(tracer.fn)} spans")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.tsv.gz")
    metrics = {name: metric(v, unit) for name, (v, unit) in tracer.metrics().items()}
    metrics["fail_ratio"] = metric(traced.failed / traced.attempted, "ratio")
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    outcomes_match = [r[3:5] for r in plain.records] == [r[3:5] for r in traced.records]
    correct = same and outcomes_match and not traced.unexplained
    return traced, correct, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=jobmod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        ditred = load_ditred()
    except (BenchError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)  # jobs name their files relative to the work directory
    try:
        runner = Runner(ditred, workdir)
        if args.trace:
            tally, correct, metrics = per_layer(runner, args, ditred)
        else:
            tally, correct, metrics = end_to_end(runner, args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
