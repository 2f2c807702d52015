"""lipcut benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one thread: BLAS/OpenMP are
pinned to one thread before numpy loads.  The library is imported from
``src/`` and driven only through its public API.

``--trace 0`` measures the end-to-end metrics with no spans recorded.
Its times are reported at a reference host speed (gauge.py): a reference
kernel that does not touch lipcut runs between units and between oracle
calls, its own time is taken out of every interval, and each interval is
scaled by how fast the kernel ran around it.
``--trace 1`` first runs the closed loop untraced for half the time, then
replays exactly the same units with spans on (the difference is
``trace.overhead_pct``, both halves scaled by the gauge, which takes no
samples inside traced units), then replays the cut kernel and the Lipschitz
estimator on the run's inputs, and reports the per-layer metrics.  Spans
are written to ``perfbench/out/``.

Every invocation first runs the untimed builtin smoke.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Any failed check makes the exit code 1.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "lipcut" / "__init__.py").is_file():
    sys.exit(f"perfbench: no lipcut sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gauge  # noqa: E402
import lipcut  # noqa: E402
from lipcut import jacobian_sup_bound, region_membership  # noqa: E402
from spans import Tracer, spanned  # noqa: E402
from workloads import WORKLOADS, UnitResult, smoke  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload]
    failures = smoke()
    report(f"env {json.dumps(environment(args))}")

    if args.trace:
        metrics, loop, checks = traced(workload, args)
        failures += checks
    else:
        host = gauge.Gauge()
        host.sample(gauge.WINDOW)  # warm-up, and samples before the first interval
        setup_s, pool = timed_setup(workload, args.seed, host)
        loop = closed_loop(workload, pool, args.seconds, host=host)
        host.sample(gauge.WINDOW // 2 + 1)  # samples after the last interval
        metrics = end_to_end(workload, loop, setup_s, len(pool), host)
    failures += loop.failures
    failures += loop.fingerprint_mismatches()

    for message in failures:
        report(f"FAIL {message}")
    for name, (value, unit) in metrics.items():
        report(f"{args.workload} {name} = {value!r} {unit}")
    report(f"{args.workload} failed_frac = {loop.failed / loop.attempted!r} "
           f"({loop.failed} of {loop.attempted} ops)")
    report(f"{args.workload} fingerprint {loop.fingerprint()}")

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def report(line: str) -> None:
    print(line, flush=True)


def environment(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lipcut").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lipcut": lipcut.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD read from .git without starting git; "unknown" outside a
    checkout that has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------------------
# the closed loop


class Loop:
    """Results of the units run back to back, in order."""

    def __init__(self):
        self.units = []  # (pool index, UnitResult)
        self.elapsed = 0.0

    @property
    def ops(self) -> int:
        return sum(u.ops for _, u in self.units)

    def ops_per_s(self, pool_size: int, seconds) -> float:
        """Median over whole passes of the pool of ops per second, with
        each unit's time measured by ``seconds(start, end)``."""
        rates = []
        for first in range(0, len(self.units), pool_size):
            units = [u for _, u in self.units[first:first + pool_size]]
            rates.append(sum(u.ops for u in units) / sum(seconds(*u.interval) for u in units))
        return statistics.median(rates)

    @property
    def attempted(self) -> int:
        return max(1, self.ops)

    @property
    def failed(self) -> int:
        return sum(u.ops for _, u in self.units if u.failures)

    @property
    def failures(self) -> list:
        return [f for _, u in self.units for f in u.failures]

    def fingerprint_mismatches(self) -> list:
        first = {}
        out = []
        for index, unit in self.units:
            if first.setdefault(index, unit.fingerprint) != unit.fingerprint:
                out.append(f"unit {index}: trace fingerprint changed between repeats")
        return out

    def fingerprint(self) -> str:
        """SHA-256 over the distinct units' trace fingerprints, in pool order."""
        first = {}
        for index, unit in self.units:
            first.setdefault(index, unit.fingerprint)
        return hashlib.sha256("".join(first[i] for i in sorted(first)).encode()).hexdigest()


def timed_setup(workload, seed: int, host: gauge.Gauge):
    """Generate and build the pool several times; the median of the
    scaled set-up times is setup_s."""
    times = []
    for _ in range(workload.setup_repeats):
        host.tick()
        start = perf_counter()
        pool = workload.setup(seed)
        times.append(host.scaled(start, perf_counter()))
    return statistics.median(times), pool


def closed_loop(workload, pool, seconds: float, units=None, tracer=None, host=None) -> Loop:
    """Run units back to back in whole passes over the pool, until
    ``seconds`` have passed and the tail percentile has ten samples beyond
    it; or run exactly the given sequence of pool indices.  Whole passes
    keep the mix of inputs the same in every run."""
    loop = Loop()
    start = perf_counter()
    i = 0
    while True:
        if units is not None:
            if i == len(units):
                break
            index = units[i]
        else:
            index = i % len(pool)
            if index == 0 and perf_counter() - start >= seconds and loop.ops >= workload.min_ops:
                break
        if host is not None:
            host.tick()
        loop.units.append((index, guarded_unit(workload, pool[index], tracer, host, i)))
        i += 1
    loop.elapsed = perf_counter() - start
    return loop


def guarded_unit(workload, item, tracer, host, op: int):
    """One unit, timed; an exception fails the unit's ops instead of the
    run."""
    start = perf_counter()
    if tracer is not None:
        tracer.op = op
    try:
        # a traced unit takes no gauge samples, so that none lands in a span
        unit = spanned(tracer, "op", workload.unit, item, tracer, host if tracer is None else None)
    except Exception:  # the loop must go on and count the failure
        interval = (start, perf_counter())
        unit = UnitResult(ops=workload.ops_per_unit, latencies=[interval], to_gap=[interval],
                          fingerprint="error",
                          failures=[f"{workload.name}: " + traceback.format_exc(limit=3)])
    finally:
        if tracer is not None:
            tracer.op = -1
    unit.interval = (start, perf_counter())
    return unit


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))


def end_to_end(workload, loop: Loop, setup_s: float, pool_size: int, host: gauge.Gauge) -> dict:
    seconds = host.scaled
    latencies = [seconds(*x) for _, u in loop.units for x in u.latencies]
    tail = workload.tail_pct
    tail_s = percentile(latencies, tail)
    beyond = sum(1 for x in latencies if x > tail_s)
    to_gap = {}
    for index, u in loop.units:
        to_gap.setdefault(index, []).append(sum(seconds(*x) for x in u.to_gap))
    kernel = np.asarray(host.ends) - np.asarray(host.starts)
    report(f"{workload.name} samples: {loop.ops} ops, {len(latencies)} latencies over {loop.elapsed:.3f} s; "
           f"latency_tail_ms is p{tail:g} with {beyond} samples beyond it; "
           f"time_to_gap_s is the median over {len(to_gap)} inputs of their median over {len(loop.units)} units")
    report(f"{workload.name} gauge: {len(kernel)} samples, {1e3 * kernel.sum():.1f} ms in all, kernel "
           f"p10/p50/p90 {1e3 * percentile(kernel, 10):.3f}/{1e3 * percentile(kernel, 50):.3f}/"
           f"{1e3 * percentile(kernel, 90):.3f} ms against {1e3 * gauge.NOMINAL_S:.3f} ms nominal; "
           f"unscaled ops_per_s = {loop.ops_per_s(pool_size, lambda a, b: b - a)!r}")
    gaps = [u.gap_pct for _, u in loop.units if u.gap_pct is not None]
    if gaps:
        report(f"{workload.name} gap_pct = {statistics.median(gaps)!r} % (final gap to the published optimum)")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops_per_s(pool_size, seconds), "1/s"),
        "latency_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "time_to_gap_s": (statistics.median(statistics.median(v) for v in to_gap.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# --------------------------------------------------------------------------
# the traced run


REPLAY_POINTS = 2048
SCALAR_REPLAY_POINTS = 128


def traced(workload, args):
    tracer = Tracer()
    with tracer.span("setup"):
        pool = workload.setup(args.seed, tracer)
    host = gauge.Gauge()
    host.sample(gauge.WINDOW)
    plain = closed_loop(workload, pool, args.seconds / 2, host=host)
    loop = closed_loop(workload, pool, 0, units=[index for index, _ in plain.units], tracer=tracer, host=host)
    host.sample(gauge.WINDOW // 2 + 1)
    checks = plain.failures + plain.fingerprint_mismatches()
    checks += [f"unit {index}: traced and untraced traces differ"
               for (index, a), (_, b) in zip(plain.units, loop.units) if a.fingerprint != b.fingerprint]
    solves = [s for _, u in loop.units for s in u.solves]

    replay_cut_kernel(tracer, solves, args.seed)
    replay_lipschitz(tracer, workload, pool)

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_csv(OUT / f"spans-{workload.name}-{args.seed}.csv")
    checks += self_checks(tracer, solves)
    overhead = sum(host.scaled(*u.interval) for _, u in loop.units) / \
        sum(host.scaled(*u.interval) for _, u in plain.units) - 1.0
    return per_layer(tracer, solves, overhead), loop, checks


def replay_cut_kernel(tracer: Tracer, solves, seed: int) -> None:
    """Point x cut tests of RelaxedRegion.membership_mask (batch) and
    region_membership (scalar) on seeded points against each distinct
    solve's final region."""
    rng = np.random.default_rng(seed)
    seen = set()
    for solve in solves:
        if solve.outcome is None or id(solve.outcome.final_region) in seen:
            continue
        region = solve.outcome.final_region
        seen.add(id(region))
        cuts = len(region.cuts)
        if cuts == 0:
            continue
        box = region.domain
        points = box.lower + rng.random((REPLAY_POINTS, box.dimension)) * box.widths
        points[:, box.integral] = np.round(points[:, box.integral])
        with tracer.span("core.membership_mask"):
            region.membership_mask(points)
        tracer.counts["core.tests"] += REPLAY_POINTS * cuts
        with tracer.span("core.region_membership"):
            for x in points[:SCALAR_REPLAY_POINTS]:
                region_membership(region, x)
        tracer.counts["core.scalar_tests"] += SCALAR_REPLAY_POINTS * cuts


def replay_lipschitz(tracer: Tracer, workload, pool) -> None:
    """Repeat every jacobian_sup_bound call build() made for the pool, with
    the same arguments (build's defaults: grid 64 per dimension, safety
    1.05)."""
    for item in pool:
        for built in workload.built(item):
            problem = built.problem
            exprs = built.exprs
            for key in built.estimated:
                if key == "objective_L":
                    group = [exprs["objective"]]
                elif key == "global_L":
                    group = exprs["constraints"]
                else:
                    group = [exprs["constraints"][int(key.split("_")[1]) - 1]]
                with tracer.span("lipschitz.jacobian_sup_bound"):
                    estimate = jacobian_sup_bound(group, problem.domain, problem.domain_norm,
                                                  problem.constraint.image_norm, grid_per_dim=64, safety=1.05)
                tracer.counts["lipschitz.grid_points"] += estimate.samples_used


def self_checks(tracer: Tracer, solves) -> list:
    """The proxy's counts against the traces: every Solved oracle result is
    one trace row carrying its node count (an Infeasible result certifies
    and adds no row); children never exceed their parent span."""
    failures = list(tracer.violations())
    calls = [(n, ok) for s in solves for n, ok in zip(s.clock.nodes, s.clock.solved)]
    iterations = sum(ok for _, ok in calls)
    row_nodes = sum(n for n, ok in calls if ok)
    rows = sum(len(s.trace) for s in solves)
    trace_nodes = sum(rec.oracle_nodes for s in solves for rec in s.trace)
    if iterations != rows:
        failures.append(f"self-check: driver.iterations {iterations} != trace length {rows}")
    if row_nodes != trace_nodes:
        failures.append(f"self-check: oracle.nodes {row_nodes} != trace oracle_nodes {trace_nodes}")
    return failures


def per_layer(tracer: Tracer, solves, overhead: float) -> dict:
    oracle = tracer.named("oracle.solve")
    drivers = tracer.named("driver.run")
    solve_s = sum(s.duration for s in oracle)
    nodes = sum(sum(s.clock.nodes) for s in solves)
    spans = tracer.spans
    batch_s = sum(s.batch_s for s in spans)
    batch_points = sum(s.batch_points for s in spans)
    mask_s = tracer.total("core.membership_mask")
    scalar_mask_s = tracer.total("core.region_membership")
    counts = tracer.counts
    finals = [s for s in solves if s.outcome is not None]
    return {
        "oracle.calls": (len(oracle), "count"),
        "oracle.nodes": (nodes, "count"),
        "oracle.nodes_per_s": (nodes / solve_s if solve_s else 0.0, "1/s"),
        "oracle.solve_s": (solve_s, "s"),
        "oracle.self_s": (sum(s.self_s for s in oracle), "s"),
        "oracle.nodes_per_call_max": (max((n for s in solves for n in s.clock.nodes), default=0), "count"),
        "oracle.infeasible_start": (sum(s.clock.infeasible_start for s in solves), "count"),
        "core.cuts_final": (sum(len(s.outcome.final_region.cuts) for s in finals), "count"),
        "core.tests": (counts["core.tests"], "count"),
        "core.tests_per_s": (counts["core.tests"] / mask_s if mask_s else 0.0, "1/s"),
        "core.scalar_tests_per_s": (counts["core.scalar_tests"] / scalar_mask_s if scalar_mask_s else 0.0, "1/s"),
        "expr.batch_calls": (sum(s.batch_calls for s in spans), "count"),
        "expr.batch_points": (batch_points, "count"),
        "expr.batch_s": (batch_s, "s"),
        "expr.points_per_s": (batch_points / batch_s if batch_s else 0.0, "1/s"),
        "expr.scalar_calls": (sum(s.scalar_calls for s in spans), "count"),
        "expr.scalar_s": (sum(s.scalar_s for s in spans), "s"),
        "lipschitz.calls": (len(tracer.named("lipschitz.jacobian_sup_bound")), "count"),
        "lipschitz.grid_points": (counts["lipschitz.grid_points"], "count"),
        "lipschitz.estimate_s": (tracer.total("lipschitz.jacobian_sup_bound"), "s"),
        "problems.build_s": (tracer.total("problems.build"), "s"),
        "driver.iterations": (sum(sum(s.clock.solved) for s in solves), "count"),
        "driver.cuts": (sum(1 for s in solves for rec in s.trace if rec.radius > 0), "count"),
        "driver.self_s": (sum(s.self_s for s in drivers), "s"),
        "reform.systems": (counts["reform.systems"], "count"),
        "reform.rows": (counts["reform.rows"], "count"),
        "reform.verify_calls": (len(tracer.named("reform.verify")), "count"),
        "reform.verify_s": (tracer.total("reform.verify"), "s"),
        "reform.export_s": (tracer.total("reform.export"), "s"),
        "reform.lp_bytes": (counts["reform.lp_bytes"], "B"),
        "trace.overhead_pct": (100.0 * overhead, "%"),
    }


if __name__ == "__main__":
    sys.exit(main())
