#!/usr/bin/env python3
"""Closed-loop benchmark of xlbp: one client, one thread, one process.

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from the `src` directory next to
this one.  One operation starts only after the previous one has returned.
After a few untimed warm-up operations the run measures a fixed number of
whole rounds of the workload, as many as `--seconds` allows at the nominal
round length in workloads.py.
With `--trace 0` the run prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run and the tracing overhead.  Every output is
checked; the last line of standard output is a JSON summary, and the exit
code is 1 when a check failed.  Details go to `.bench_out/` at the root.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9  # fresh interpreters timed for setup_s; the median is reported
SETUP_ROUNDS = 2  # rounds whose inputs a setup probe generates
SHA_OPS = 16  # output_sha256 covers the outputs of this many leading operations
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples above
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

LAYER_SPANS = (
    "exact_core.poly_mul",
    "exact_core.poly_divmod",
    "exact_core.solve_exact",
    "darboux.backward_apply",
    "hr_classical.expand_in_hr_basis",
    "hr_classical.hr_poly",
    "hr_classical.verify_identity",
    "hr_classical.inner_product",
    "xhr.x_poly",
    "recurrence.certify",
    "recurrence.a_coeffs_solver",
    "quadrature.classical_quad",
    "quadrature.exceptional_quad",
    "cli.main",
)

PER_LAYER_EXTRA = (
    ("exact_core.poly_mul.coeff_products", "count"),
    ("exact_core.poly_mul.max_bits", "bits"),
    ("exact_core.solve_exact.cells", "count"),
    ("exact_core.solve_exact.nullity", "count"),
    ("recurrence.a_coeffs_solver.calls_per_cert", "count"),
    ("recurrence.c_vector.hit_ratio", "ratio"),
    ("recurrence.c_vector.entries", "count"),
    ("quadrature.integrand_evals_per_integral", "count"),
    ("quadrature.levels_per_integral", "count"),
    ("quadrature.converged_ratio", "ratio"),
    ("quadrature.estimate_bounds_error_ratio", "ratio"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

PER_LAYER = tuple(
    (f"{span}.{kind}", unit) for span in LAYER_SPANS for kind, unit in (("calls", "count"), ("self_s", "s"))
) + PER_LAYER_EXTRA


def require_sources():
    if not (SRC / "xlbp" / "__init__.py").is_file():
        sys.exit(f"error: no xlbp sources at {SRC}; run from a full checkout")


def import_xlbp():
    """Import xlbp from this checkout's sources, never from anywhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import xlbp

    if Path(xlbp.__file__).resolve().parent != SRC / "xlbp":
        sys.exit(f"error: imported xlbp from {xlbp.__file__}, expected {SRC / 'xlbp'}")
    return xlbp


def machine_info() -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": "present" if importlib.util.find_spec("gmpy2") else "absent",
        "platform": platform.platform(),
        "xlbp_threads": "unset",
    }


def make_stream(workload: str, seed: int):
    import workloads

    OUT.mkdir(exist_ok=True)
    rounds = workloads.stream(workload, seed, str(OUT))
    # start the generator now, so its imports are not inside the measured loop
    return itertools.chain([next(rounds)], rounds)


def setup_probe(workload: str, seed: int) -> float:
    """Import plus input generation, timed inside a fresh interpreter."""
    t0 = time.perf_counter()
    import_xlbp()
    rounds = make_stream(workload, seed)
    for _ in range(SETUP_ROUNDS):
        next(rounds)
    return time.perf_counter() - t0


def run_child(args: list) -> str:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"error: child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


class Loop:
    """The closed loop: run operations back to back and check each output."""

    def __init__(self, rounds, tracer=None):
        self.rounds = rounds
        self.rounds_done = 0
        self.tracer = tracer
        self.latencies: list = []
        self.labels: list = []
        self.passed = 0
        self.problems: list = []
        self.failed_ops: list = []
        self.infos: list = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.elapsed = 0.0

    def warm_up(self, ops):
        """Run untimed operations; only their output checks count."""
        for op in ops:
            try:
                raw = op.run()
            except Exception as exc:
                self.problems.append(f"warm-up {op.label}: raised {type(exc).__name__}: {exc}")
                continue
            self.problems += [f"warm-up {op.label}: {p}" for p in op.check(raw).problems]

    def run(self, rounds: int):
        clock = time.perf_counter
        begin = end = clock()
        while self.rounds_done < rounds:
            for op in next(self.rounds):
                index = len(self.latencies)
                t0 = clock()
                try:
                    raw = op.run() if self.tracer is None else self.tracer.run_op(index, op.run)
                    error = None
                except Exception as exc:  # a raising operation fails the run's checks
                    raw, error = None, exc
                end = clock()
                self.latencies.append(end - t0)
                self.labels.append(op.label)
                self._record(op, raw, error)
            self.rounds_done += 1
        self.elapsed = end - begin

    def _record(self, op, raw, error):
        if error is not None:
            self.problems.append(f"{op.label}: raised {type(error).__name__}: {error}")
            self.failed_ops.append(op.label)
            return
        verdict = op.check(raw)
        self.infos.append(verdict.info)
        self.problems += [f"{op.label}: {p}" for p in verdict.problems]
        if verdict.passed:
            self.passed += 1
        else:
            self.failed_ops.append(op.label)
        if verdict.output is not None and self.digest_ops < SHA_OPS:
            self.digest.update(verdict.output)
            self.digest_ops += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(loop: Loop, setup_samples: list) -> tuple:
    tail_value, tail_pct = tail(loop.latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "throughput_ops_s": loop.attempted / loop.elapsed,
        "op_p50_ms": 1000 * statistics.median(loop.latencies),
        "op_tail_ms": 1000 * tail_value,
        "pass_ratio": loop.passed / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters: "
        + ", ".join(f"{s:.4f}" for s in setup_samples),
        "throughput_ops_s": f"{loop.attempted} ops in {loop.rounds_done} rounds, {loop.elapsed:.3f} s",
        "op_tail_ms": f"p{tail_pct:.2f} of {loop.attempted} samples, {min(TAIL_BEYOND, loop.attempted - 1)} beyond",
        "pass_ratio": f"fail_ratio = {1 - metrics['pass_ratio']:.4f} "
        f"({loop.attempted - loop.passed} of {loop.attempted} ops not passing)",
    }
    return metrics, notes


def per_layer(loop: Loop, tracer, cache_before, cache_after, overhead_s: float, untraced_s: float) -> tuple:
    stats = tracer.layer_stats()
    metrics, notes = {}, {}
    for span in LAYER_SPANS:
        calls, self_s = stats.get(span, (0, 0.0))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = self_s
        if span in tracer.absent:
            notes[f"{span}.calls"] = "absent: no such entry point"
    for name in ("exact_core.poly_mul.coeff_products", "exact_core.poly_mul.max_bits",
                 "exact_core.solve_exact.cells", "exact_core.solve_exact.nullity"):
        metrics[name] = tracer.counters[name]

    certs = metrics["recurrence.certify.calls"]
    metrics["recurrence.a_coeffs_solver.calls_per_cert"] = (
        metrics["recurrence.a_coeffs_solver.calls"] / certs if certs else 0.0
    )
    if cache_before is None or cache_after is None:
        metrics["recurrence.c_vector.hit_ratio"] = 0.0
        metrics["recurrence.c_vector.entries"] = 0
        for key in ("recurrence.c_vector.hit_ratio", "recurrence.c_vector.entries"):
            notes[key] = "absent: recurrence._c_vector has no cache_info()"
    else:
        hits = cache_after.hits - cache_before.hits
        lookups = hits + cache_after.misses - cache_before.misses
        metrics["recurrence.c_vector.hit_ratio"] = hits / lookups if lookups else 0.0
        metrics["recurrence.c_vector.entries"] = cache_after.currsize
        notes["recurrence.c_vector.hit_ratio"] = f"{hits} hits of {lookups} lookups"

    integrals = [i for i in loop.infos if "converged" in i]
    converged = [i for i in integrals if i["converged"]]
    count = len(integrals)
    metrics["quadrature.integrand_evals_per_integral"] = (
        tracer.counters["quadrature.integrand_evals"] / count if count else 0.0
    )
    metrics["quadrature.levels_per_integral"] = sum(i["levels"] for i in integrals) / count if count else 0.0
    metrics["quadrature.converged_ratio"] = len(converged) / count if count else 0.0
    metrics["quadrature.estimate_bounds_error_ratio"] = (
        sum(i["estimate_bounds_error"] for i in converged) / len(converged) if converged else 0.0
    )
    notes["quadrature.converged_ratio"] = f"{len(converged)} of {count} integrals"
    if "quadrature.integrand_evals" in tracer.absent:
        notes["quadrature.integrand_evals_per_integral"] = "absent: no _integrate_levels to count through"
    metrics["cli.report_bytes"] = sum(i.get("report_bytes", 0) for i in loop.infos)

    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.overhead_ratio"] = overhead_s / untraced_s
    notes["trace.overhead_s"] = (
        f"traced {loop.elapsed:.3f} s vs untraced {untraced_s:.3f} s for the same {loop.rounds_done} rounds"
    )
    return metrics, notes


def c_vector_info():
    fn = getattr(sys.modules["xlbp.recurrence"], "_c_vector", None)
    info = getattr(fn, "cache_info", None)
    return info() if info is not None else None


def report(args, loop: Loop, metrics: dict, units: tuple, notes: dict, info: dict) -> int:
    correct = not loop.problems and loop.attempted > 0
    print(f"xlbp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} (closed loop, 1 client)")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, unit in units:
        note = notes.get(name)
        print(f"{name} = {metrics[name]:.6g} {unit}" + (f"  [{note}]" if note else ""))
    sha = None
    if args.workload != "quad-circle":
        sha = loop.digest.hexdigest()
        print(f"output_sha256 = {sha} (outputs of the first {loop.digest_ops} ops)")
    print(f"ops: {loop.attempted} attempted, {loop.passed} passed, "
          f"{loop.attempted - loop.passed} not passing")
    for label in loop.failed_ops[:10]:
        print(f"  not passing: {label}")
    for problem in loop.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"correct = {correct}")

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": info, "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units},
        "notes": notes, "output_sha256": sha, "sha_ops": loop.digest_ops,
        "attempted": loop.attempted, "rounds": loop.rounds_done, "passed": loop.passed, "not_passing": loop.failed_ops,
        "problems": loop.problems, "ops": list(zip(loop.labels, loop.latencies)),
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1, default=str)

    summary = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.attempted - loop.passed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # one thread: the CLI's optional check pool stays off in this process and its children
    os.environ.pop("XLBP_THREADS", None)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    rounds = workloads.rounds_for(args.workload, args.seconds)
    if args.replay:
        # untraced reference for the tracing overhead: the same operations
        import_xlbp()
        loop = Loop(make_stream(args.workload, args.seed))
        loop.warm_up(workloads.warmup(args.workload, str(OUT)))
        loop.run(rounds)
        print(json.dumps({"elapsed": loop.elapsed, "attempted": loop.attempted}))
        return 0

    require_sources()
    if args.trace == 0:
        probe = ["--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
        setup_samples = [float(run_child(probe)) for _ in range(SETUP_PROBES)]
        import_xlbp()
        loop = Loop(make_stream(args.workload, args.seed))
        loop.warm_up(workloads.warmup(args.workload, str(OUT)))
        loop.run(rounds)
        metrics, notes = end_to_end(loop, setup_samples)
        info = machine_info()  # after peak_rss_mb: it imports mpmath
        return report(args, loop, metrics, END_TO_END, notes, info)

    import tracing

    import_xlbp()
    info = machine_info()
    tracer = tracing.Tracer()
    loop = Loop(make_stream(args.workload, args.seed), tracer)
    loop.warm_up(workloads.warmup(args.workload, str(OUT)))
    tracer.install()
    cache_before = c_vector_info()
    try:
        loop.run(rounds)
    finally:
        tracer.uninstall()
    cache_after = c_vector_info()
    replay = json.loads(run_child(["--replay", "--workload", args.workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds)]))
    overhead_s = loop.elapsed - replay["elapsed"]
    metrics, notes = per_layer(loop, tracer, cache_before, cache_after, overhead_s, replay["elapsed"])
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    return report(args, loop, metrics, PER_LAYER, notes, info)


if __name__ == "__main__":
    sys.exit(main())
