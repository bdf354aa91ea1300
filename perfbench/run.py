"""pmcsurf benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload certify|correspond|battery|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of the
same checkout.  The workload's batch of operations runs in a closed loop (one
caller, each operation waits for the previous one) until ``--seconds`` have
passed, at least once.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics from one traced batch, and the
spans are written to ``perfbench/.out/``.  Lines before the last one give the
same figures for a reader: every metric with its unit, fail_ratio, the worst
gated check and its tolerance source, and the machine record.
"""

import argparse
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
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

THREAD_CAP = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("certify", "correspond", "battery")
IMPORT_REPEATS = 3
SETUP_REPEATS = 3

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import pmcsurf, pmcsurf.cli\n"
    "dt = time.perf_counter() - t\n"
    "if not pmcsurf.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('pmcsurf imported from ' + pmcsurf.__file__)\n"
    "print(dt)\n"
)


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs each workload in its own process, one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-artifacts", action="store_true",
                        help="battery, seed 0: store the CLI output digests as the new baseline")
    return parser.parse_args(argv)


def import_seconds():
    """Median wall time of importing the package in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"cannot import pmcsurf from {SRC}:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def machine_record():
    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def caches():
        out = {}
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                level = (idx / "level").read_text().strip()
                kind = (idx / "type").read_text().strip()
                out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (idx / "size").read_text().strip()
            except OSError:
                continue
        return out

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "caches": caches(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class Tally:
    """Attempted and failed operations, the worst gated margin, layer figures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.worst = None  # (margin, op, check)
        self.figures = {}
        self.cpu = []  # process seconds per batch

    def run(self, ops, tracer=None):
        for opid, (name, fn) in enumerate(ops):
            self.attempted += 1
            if tracer is not None:
                tracer.op = opid
            try:
                checks, figures = fn()
            except Exception:  # one failed operation must not end the run
                self.failed += 1
                self.failures.append(f"{name}: raised\n{traceback.format_exc()}")
                continue
            bad = [c for c in checks if not c.ok]
            if bad:
                self.failed += 1
                self.failures.append(f"{name}: " + ", ".join(f"{c.label}={c.value} (tol {c.tol}, {c.source})" for c in bad))
            for c in checks:
                if c.tol is not None and (self.worst is None or c.margin > self.worst[0]):
                    self.worst = (c.margin, name, c)
            for key, value in figures.items():
                self.figures[key] = max(value, self.figures.get(key, value))


def median_setup(workload, members, repeats):
    times = []
    for _ in range(repeats):
        t = perf_counter()
        ctx = workload.setup(members)
        times.append(perf_counter() - t)
    return ctx, statistics.median(times)


def timed_batch(workload, ctx, rng, tally, tracer=None):
    ops = workload.operations(ctx, rng, tracer)
    t, c = perf_counter(), process_time()
    tally.run(ops, tracer)
    tally.cpu.append(process_time() - c)
    return perf_counter() - t


def end_to_end(args, workload, members, rng, import_s, tally):
    ctx, build_s = median_setup(workload, members, SETUP_REPEATS)
    walls = []
    start = perf_counter()
    while not walls or perf_counter() - start < args.seconds:
        walls.append(timed_batch(workload, ctx, rng, tally))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"batches: {len(walls)}  wall s: {', '.join(f'{w:.3f}' for w in walls)}"
          f"  cpu s: {', '.join(f'{c:.3f}' for c in tally.cpu)}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": import_s + build_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer(args, workload, members, rng, import_s, tally):
    from tracing import INTEGRATE_PMC, Tracer

    # one untraced batch, then the same batch in the same order traced, for the overhead
    order = rng.getstate()
    ctx = workload.setup(members)
    untraced = timed_batch(workload, ctx, rng, tally)
    rng.setstate(order)
    tracer = Tracer()
    tracer.install()
    try:
        ctx = workload.setup(members)
        traced = timed_batch(workload, ctx, rng, tally, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    metrics = {"import.s": import_s, "trace.wall_s": traced, "trace.overhead_s": traced - untraced}
    names = {s[1] for s in tracer.spans}
    for name in names:
        metrics[f"{name}.s"] = tracer.inclusive(name)
    for name in ("families.jet", "correspondence.fields"):
        metrics[f"{name}.calls"] = tracer.calls(name)
        metrics[f"{name}.points"] = tracer.points(name)
    for integrator in ("correspondence.integrate_cmc_frenet", INTEGRATE_PMC):
        total = tracer.inclusive(integrator)
        metrics[f"{integrator}.fields_share"] = (
            tracer.inside("correspondence.fields", integrator) / total if total else 0.0)
    total = tracer.inclusive("diffgeo.surface_invariants")
    metrics["diffgeo.surface_invariants.identity_residuals_share"] = (
        tracer.inside("diffgeo.identity_residuals", "diffgeo.surface_invariants") / total if total else 0.0)
    metrics.update(tally.figures)
    if tally.worst is not None:
        metrics["worst_margin"] = tally.worst[0]

    print("span name                                              calls   incl s    self s")
    for name, calls, incl, own in tracer.table():
        print(f"{name:52s} {calls:7d} {incl:9.3f} {own:9.3f}")
    return metrics


def run_all(args):
    """Every workload in its own child process, so peak RSS belongs to one workload."""
    results, code = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = THREAD_CAP
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import_s = import_seconds()
    sys.path.insert(0, str(SRC))
    import pmcsurf  # noqa: F401  (the probe above timed this import)

    if not pmcsurf.__file__.startswith(str(SRC)):
        raise BenchError(f"pmcsurf imported from {pmcsurf.__file__}, not from {SRC}")
    import workloads

    cli_out = OUT / f"{args.workload}-{os.getpid()}"
    rng = random.Random(args.seed)
    members = workloads.draw_members(rng, args.seed)
    workload = workloads.make(args.workload, cli_out, args.seed)
    tally = Tally()
    try:
        if args.trace:
            values = per_layer(args, workload, members, rng, import_s, tally)
        else:
            values = end_to_end(args, workload, members, rng, import_s, tally)
        if args.workload == "battery":
            if args.record_artifacts:
                if args.seed != 0:
                    raise BenchError("record artifacts from seed 0")
                workload.record_artifacts()
            values["cli.artifacts_changed"] = workload.artifacts_changed()
    finally:
        shutil.rmtree(cli_out, ignore_errors=True)

    for failure in tally.failures:
        print("FAILED " + failure, file=sys.stderr)
    if tally.worst is None:
        raise BenchError("every operation failed before a gated check ran")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        print(f"{m['name']:60s} {metrics[m['name']]['value']:.6g} {m['unit']}")
    margin, op, check = tally.worst
    print(f"fail_ratio: {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} operations)")
    print(f"members: a_sinh={members.a_sinh!r} a_sn={members.a_sn!r}")
    print(f"worst_margin: {margin:.6g} ratio ({op}: {check.label} = {check.value:.3e}, tol {check.tol:.1e} from {check.source})")
    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
