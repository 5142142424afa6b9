#!/usr/bin/env python3
"""Seeded end-to-end benchmark of pointideals, with a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload affine-bm --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --write-references 0

Workloads (see BENCHMARK.json for why each exists):

    affine-bm      buchberger_moeller on affine sets, lex and deglex
    projective-gb  projective_gb (chart recursion plus certificate)
    cli-mixed      one `pointideals` process at a time, cycling commands

Load is a closed loop: one client, one operation in flight, no threads or
worker pool.  The loop runs whole rounds (see instances.py) for as long as
another round still fits in --seconds.  Every operation's output is hashed and compared with the
reference digests kept in reference_digests.json, and the paper's
invariants are checked outside the timed region.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the benchmark instead alternates untraced and traced passes over
round 0 and reports the per-layer metrics of spans.py.  The line before the
last is a report with the run's context, the tail percentile, failed_frac
and the output digests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

import instances
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "reference_digests.json")
WORKLOADS = ("affine-bm", "projective-gb", "cli-mixed")
SETUP_REPEATS = 7
CLI_TIMEOUT_S = 120
CLI_ENTRY = "from pointideals.cli import console_main; console_main()"
END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MiB",
}


def import_program():
    """Import pointideals afresh from the checkout's src."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "pointideals" or m.startswith("pointideals.")]:
        del sys.modules[name]
    program = importlib.import_module("pointideals")
    importlib.import_module("pointideals.io")
    return program


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def chart_sizes(coords):
    """Points per chart, from the index of the first nonzero coordinate."""
    sizes = [0] * len(coords[0])
    for p in coords:
        sizes[next(i for i, x in enumerate(p) if x)] += 1
    return sizes


def points_doc(space, n, coords):
    return {"space": space, "dim": n, "points": [[str(x) for x in p] for p in coords]}


# ---------------------------------------------------------------------------
# library workloads


@dataclass
class LibraryOp:
    points: object  # PointSet
    size: int
    order: str | None  # affine order, None for projective
    charts: list | None  # expected chart sizes, projective only


class LibraryWorkload:
    """affine-bm and projective-gb: one operation solves one instance."""

    def __init__(self, name, seed, tiny=False):
        self.program = import_program()
        affine = name == "affine-bm"
        if tiny:
            layout = instances.TINY[name]
            nrounds = 1
        else:
            layout = instances.AFFINE_SHAPES if affine else instances.PROJECTIVE_SHAPES
            nrounds = instances.ROUNDS
        self.rounds = []
        for r in range(nrounds):
            rng = instances.rng_for(name, seed, r)
            ops = []
            for shape in layout:
                if affine:
                    n, s = shape
                    ps = self.program.affine_points(n, instances.affine_coords(rng, n, s))
                    ops.extend(LibraryOp(ps, s, order, None) for order in ("lex", "deglex"))
                else:
                    n, s, sizes = shape
                    coords = instances.input_coords(rng, "projective", n, s, sizes)
                    ps = self.program.projective_points(n, coords)
                    ops.append(LibraryOp(ps, s, None, chart_sizes(coords)))
            self.rounds.append(ops)

    def run(self, op, tracer=None):
        """Solve one instance; returns (seconds, output)."""
        p = self.program
        start = perf_counter()
        if op.order is not None:
            gb, _, std = p.buchberger_moeller(op.points, op.order)
        else:
            gb, std = p.projective_gb(op.points), None
        return perf_counter() - start, (gb, std)

    def check(self, op, out):
        """(digest, problems) of one output: the bytes `pointideals gb`
        would print, and the count law or the axis census."""
        p = self.program
        gb, std = out
        ps = op.points
        first_var = 2 if op.order is not None else 1
        doc = p.io.basis_doc(gb, first_var=first_var, extra={"space": ps.mode, "dim": ps.dimension})
        problems = []
        if op.order is not None:
            if len(std) != op.size:
                problems.append("count law: %d standard monomials for %d points" % (len(std), op.size))
        else:
            census = p.axis_census(p.staircase_of(gb))
            if list(census.per_direction) != op.charts or census.total != op.size:
                problems.append("axis census %s != chart sizes %s" % (list(census.per_direction), op.charts))
        return digest(p.io.dumps(doc).encode()), problems

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# CLI workload


@dataclass
class CliOp:
    argv: list
    size: int
    expect: int
    saves: str | None  # basis file stem this op's stdout is saved as
    round: int


class CliWorkload:
    """cli-mixed: one operation is one CLI process, spawn to exit."""

    def __init__(self, name, seed, tiny=False, workdir=None):
        self.seed = seed
        self.program = import_program()
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=SRC)
        inputs = instances.TINY[name] if tiny else instances.CLI_INPUTS
        self.rounds = []
        for r in range(1 if tiny else instances.ROUNDS):
            rng = instances.rng_for(name, seed, r)
            sizes = {}
            for key, (space, n, s, charts) in inputs.items():
                coords = instances.input_coords(rng, space, n, s, charts)
                self._write("r%d-%s.json" % (r, key), json.dumps(points_doc(space, n, coords)))
                sizes[key] = s
            ops = []
            for key, args, expect, basis_in, saves in instances.CLI_STEPS:
                argv = [args[0], "r%d-%s.json" % (r, key)]
                if basis_in:
                    argv.append("r%d-%s.json" % (r, basis_in))
                argv.extend(args[1:])
                ops.append(CliOp(argv, sizes[key], expect, saves and "r%d-%s" % (r, saves), r))
            self.rounds.append(ops)

    def _write(self, name, text):
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def run(self, op, tracer=None):
        """Run one CLI process; returns (seconds, output).  With a tracer the
        process starts from launcher.py, which sends its raw per-layer sums
        back through a pipe."""
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY] + op.argv
            fds = ()
        else:
            rfd, wfd = os.pipe()
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), str(wfd)] + op.argv
            fds = (wfd,)
        start = perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.workdir, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S, pass_fds=fds
            )
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                os.close(wfd)
                with os.fdopen(rfd) as fh:
                    text = fh.read()
        raw = json.loads(text) if tracer is not None and text else None
        return elapsed, (proc.returncode, proc.stdout, raw)

    def check(self, op, out):
        code, stdout, _ = out
        problems = []
        if code != op.expect:
            problems.append("exit code %d, expected %d: %s" % (code, op.expect, " ".join(op.argv)))
        elif op.argv[0] == "hilbert":
            values = json.loads(stdout)["values"]
            if values[-1] != op.size:
                problems.append("Hilbert function ends at %d for %d points" % (values[-1], op.size))
        if op.saves and code == 0:
            # inputs of this round's `verify` steps: the basis and a mutant
            self._write(op.saves + ".gb.json", stdout.decode())
            rng = instances.rng_for("mutation", self.seed, op.round)
            self._write(op.saves + ".bad.json", json.dumps(instances.mutate_basis(json.loads(stdout), rng)))
        return digest(stdout + b"exit=%d" % code), problems

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def make_workload(name, seed, tiny=False, workdir=None):
    if name == "cli-mixed":
        return CliWorkload(name, seed, tiny, workdir)
    return LibraryWorkload(name, seed, tiny)


def setup(name, seed, workdir, repeats, tiny=False):
    """Set the workload up `repeats` times; returns (median seconds,
    workload).  Set-up imports the program, generates the instances and
    loads the reference digests."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        workload = make_workload(name, seed, tiny, workdir)
        refs = load_references()
        times.append(perf_counter() - start)
    return statistics.median(times), workload, refs


# ---------------------------------------------------------------------------
# measuring


def run_op(workload, op, tracer=None):
    """(seconds, output, error) of one operation; an exception is a failure."""
    start = perf_counter()
    try:
        elapsed, out = workload.run(op, tracer)
    except Exception as e:  # any exception is a failed operation
        return perf_counter() - start, None, "%s: %s" % (type(e).__name__, e)
    return elapsed, out, None


class Oracle:
    """Checks each output and counts failures: a digest that differs from
    the reference, a broken invariant, an unexpected exit code or an
    exception."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = [[None] * len(r) for r in workload.rounds]

    def judge(self, r, i, op, out, error):
        self.attempted += 1
        problems = [error] if error else []
        if out is not None:
            try:
                d, problems = self.workload.check(op, out)
            except Exception as e:  # an output the checks cannot read is a failure
                d, problems = None, ["check raised %s: %s" % (type(e).__name__, e)]
            self.digests[r][i] = d
            if self.refs is not None and d != self.refs[r][i]:
                problems.append("digest mismatch in round %d operation %d" % (r, i))
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile).  Falls back to the maximum below 11 samples."""
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def stop(elapsed, done, seconds):
    """True when one more round of average length would end past `seconds`."""
    return elapsed + elapsed / done > seconds


def measure(workload, oracle, seconds):
    """Closed loop over whole rounds for about `seconds`."""
    run_op(workload, workload.rounds[0][0])  # warm-up, not counted
    samples = []
    points = 0
    timed = 0.0
    rounds = 0
    start = perf_counter()
    while True:
        r = rounds % len(workload.rounds)
        for i, op in enumerate(workload.rounds[r]):
            elapsed, out, error = run_op(workload, op)
            samples.append(elapsed)
            timed += elapsed
            if oracle.judge(r, i, op, out, error):
                points += op.size
        rounds += 1
        if stop(perf_counter() - start, rounds, seconds):
            break
    value, pct = tail(samples)
    metrics = {
        "op_s.p50": statistics.median(samples),
        "op_s.tail": value,
        "points_per_s": points / timed,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    extra = {"rounds": rounds, "samples": len(samples), "op_s.tail_percentile": pct}
    return metrics, extra


def trace(workload, oracle, seconds):
    """Alternate an untraced and a traced pass over round 0 for about
    `seconds`.  The metrics come from the traced pass with the median wall
    time, so that sums such as the certify split hold exactly; counts must
    repeat exactly in every pass."""
    tracer = spans.Tracer()
    library = not isinstance(workload, CliWorkload)
    run_op(workload, workload.rounds[0][0])  # warm-up, not counted
    passes = []
    overheads = []
    start = perf_counter()
    while True:
        walls = []
        for traced in (False, True):
            raw = {}
            wall = 0.0
            startup = 0.0
            tracer.reset()
            if traced and library:
                tracer.install()
            for i, op in enumerate(workload.rounds[0]):
                tracer.op = i
                tracer.recording = traced and library
                elapsed, out, error = run_op(workload, op, tracer if traced and not library else None)
                tracer.recording = False
                wall += elapsed
                oracle.judge(0, i, op, out, error)
                if traced and not library and out is not None and out[2] is not None:
                    spans.merge_raw(raw, out[2])
                    startup += elapsed - out[2].get("cli.main.total_s", 0.0)
            if traced and library:
                tracer.uninstall()
                raw = tracer.raw()
            walls.append(wall)
        values = spans.finish(raw)
        values["cli.startup_s"] = startup
        passes.append((walls[1], values))
        overheads.append(walls[1] - walls[0])
        if stop(perf_counter() - start, len(passes), seconds):
            break
    counts = [n for n, u in spans.METRICS.items() if u != "s"]
    repeat = all(v[n] == passes[0][1][n] for _, v in passes for n in counts)
    metrics = dict(sorted(passes, key=lambda p: p[0])[(len(passes) - 1) // 2][1])
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics, {"passes": len(passes), "counts_repeat": repeat}


# ---------------------------------------------------------------------------
# entry point


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name, seed, seconds, traced, tiny=False, refs_override=None):
    """One benchmark run; returns (report, result) documents."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        setup_s, workload, refs = setup(name, seed, workdir, 1 if tiny else SETUP_REPEATS, tiny)
        if refs_override is not None:
            expected = refs_override
        elif tiny:
            expected = refs["self-check"].get(name)
        else:
            expected = refs.get(name, {}).get(str(seed))
        oracle = Oracle(workload, expected)
        if traced:
            values, extra = trace(workload, oracle, seconds)
            units = spans.METRICS
        else:
            values, extra = measure(workload, oracle, seconds)
            values["setup_s"] = setup_s
            units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "failed_frac": {"value": oracle.failed / oracle.attempted, "unit": "ratio"},
        "reference_digests": expected is not None,
        "problems": oracle.problems[:20],
        **extra,
        "digests": oracle.digests,
    }
    result = {
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": metrics,
    }
    return report, result


def write_references(seeds):
    """Run every round of every workload once for each seed, and the tiny
    self-check rounds, and store the output digests.  Refuses to write if an
    invariant fails."""
    data = {"self-check": {}}
    for name in WORKLOADS:
        for tiny, keys in ((True, ["tiny"]), (False, seeds)):
            for seed in keys:
                with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
                    workload = make_workload(name, 0 if tiny else int(seed), tiny, workdir)
                    oracle = Oracle(workload, None)
                    for r, ops in enumerate(workload.rounds):
                        for i, op in enumerate(ops):
                            _, out, error = run_op(workload, op)
                            oracle.judge(r, i, op, out, error)
                if oracle.failed:
                    raise SystemExit("invariant failures, references not written: %s" % oracle.problems[:5])
                if tiny:
                    data["self-check"][name] = oracle.digests
                else:
                    data.setdefault(name, {})[str(seed)] = oracle.digests
                print("%s %s: %d operations" % (name, seed, oracle.attempted), flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def self_check():
    """Tiny round per workload: every metric of BENCHMARK.json is reported,
    failed_frac is 0, and a corrupted reference digest is caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for name in WORKLOADS:
        for traced in (0, 1):
            report, result = run_workload(name, 0, 0, traced, tiny=True)
            if set(result["metrics"]) != want[traced]:
                failures.append("%s trace %d: metrics differ from BENCHMARK.json: %s"
                                % (name, traced, sorted(set(result["metrics"]) ^ want[traced])))
            if report["failed_frac"]["value"] != 0:
                failures.append("%s trace %d: failed_frac %s: %s"
                                % (name, traced, report["failed_frac"]["value"], report["problems"]))
        corrupt = [list(r) for r in load_references()["self-check"][name]]
        corrupt[0][0] = "0" * 64
        _, result = run_workload(name, 0, 0, 0, tiny=True, refs_override=corrupt)
        if result["failed"] == 0:
            failures.append("%s: corrupted digest not counted as a failure" % name)
        print("%s  %s" % ("FAIL" if failures else "ok", name), flush=True)
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="tiny run of every workload, then exit")
    parser.add_argument("--write-references", nargs="+", metavar="SEED", help="store reference digests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "pointideals")):
        print("pointideals sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.write_references:
        write_references(args.write_references)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
