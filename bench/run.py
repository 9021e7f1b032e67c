"""srmlab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Each run is one fresh process and one caller in a closed loop: the next op
starts only after the previous one returns. Ops are run in whole cycles, and
each op's latency is its fastest repeat in the run, since contention from
other work on the machine only ever adds time. With ``--trace 0`` it
measures the end-to-end metrics; with ``--trace 1`` it measures the
per-layer metrics from traced cycles. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON ``detail`` record (environment, failures per op class,
the tail percentile used and sample counts). ``--workload all`` runs every
workload both ways in fresh processes, prints every metric with its unit,
and writes the collected results under ``bench/out/``.

The program is imported from ``src/`` of the checkout that holds this file;
without it the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is first imported, here and in every
# child process, so timings do not depend on the machine's core count
BLAS_THREADS = 1
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gzip
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_SAMPLES = 7
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import srmlab.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(srmlab.cli.__file__)\n"
    "print(repr(elapsed))\n"
)
TAIL_BEYOND = 10

FUNCTIONS = (
    "constellations.make_gus_from_base",
    "constellations.weighted_gram",
    "linalg.principal_sqrt",
    "linalg.circulant_eigenvalues",
    "gus.block_diagonalize",
    "gus.block_sqrt",
    "gus.spectrum_to_matrix",
    "gus.fast_srm",
    "srm.srm",
    "srm.channel_stats",
    "srm.check_theorem2",
    "srm.check_theorem3",
    "srm.verify_theorem1",
    "analysis.evaluate_scheme",
    "analysis.optimize_prior_4pam",
    "cli.load_gram_file",
    "cli.render_csv",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> list[float]:
    """Seconds from before ``import srmlab.cli`` until it returns, per fresh process.

    A first, discarded process compiles the bytecode, so every sample sees
    the same warm state.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        where, elapsed = proc.stdout.split()
        if not os.path.abspath(where).startswith(SRC + os.sep):
            raise RuntimeError(f"srmlab was imported from {where}, not from {SRC}")
        if i:
            samples.append(float(elapsed))
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu_model(),
        "seed": seed,
    }


class Tally:
    """Best latency per op, failures and reference mismatches of a series of cycles.

    Only each op's fastest repeat is kept, so memory does not grow with the
    number of cycles a run completes.
    """

    def __init__(self):
        self.best: dict[tuple, float] = {}
        self.attempted = 0
        self.busy = 0.0
        self.raised: Counter = Counter()
        self.mismatched: Counter = Counter()
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.raised.values()) + sum(self.mismatched.values())

    def record(self, key: tuple, elapsed: float) -> None:
        self.attempted += 1
        self.busy += elapsed
        if elapsed < self.best.get(key, float("inf")):
            self.best[key] = elapsed

    def note(self, counter: Counter, kind: str, message: str) -> None:
        counter[kind] += 1
        if len(self.messages) < 10:
            self.messages.append(f"{kind}: {message}")


def run_ops(workload, ops, tally: Tally, tracer=None) -> float:
    """Run ops one after another; return the seconds spent inside them."""
    import numpy as np
    from srmlab.errors import SrmLabError

    expected = (SrmLabError, ArithmeticError, ValueError, np.linalg.LinAlgError)
    busy = 0.0
    for number, op in enumerate(ops):
        args = op.prepare() if op.prepare else ()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.call(*args)
            else:
                result = tracer.run_op(number, op.call, *args)
        except expected as exc:
            elapsed = time.perf_counter() - start
            tally.note(tally.raised, op.kind, f"{type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            problem = workload.check(op, workload.collect(op, result))
            if problem:
                tally.note(tally.mismatched, op.kind, problem)
        tally.record(op.key, elapsed)
        busy += elapsed
    return busy


def warm_up(workload, tally: Tally) -> None:
    """Run the first op of every class once, so lazy set-up is paid before timing."""
    ops, kinds = [], set()
    for op in workload.cycle():
        if op.kind not in kinds:
            kinds.add(op.kind)
            ops.append(op)
    run_ops(workload, ops, tally)


def repeat_within(seconds: float, step) -> int:
    """Call ``step`` until ``seconds`` are used; return how many times it ran.

    A further step starts only when the median step so far still fits, so a
    run takes about ``seconds`` and every op of a cycle gets the same number
    of repeats. At least one step always runs.
    """
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        begin = time.perf_counter()
        step()
        walls.append(time.perf_counter() - begin)
    return len(walls)


def tail(best: list[float]) -> tuple[float, float]:
    """The slowest latency that still has ten ops beyond it, and its percentile."""
    ordered = sorted(best)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, 0)
    return 100.0 * (index + 1) / n, ordered[index]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float, setup: list[float], warm: Tally, timed: Tally):
    warm_up(workload, warm)
    start = time.perf_counter()
    cycles = repeat_within(seconds, lambda: run_ops(workload, workload.cycle(), timed))
    best = list(timed.best.values())
    p, tail_s = tail(best)
    metrics = {
        "ops_per_s": metric(len(best) / sum(best), "1/s"),
        "op_ms_p50": metric(statistics.median(best) * 1e3, "ms"),
        "op_ms_tail": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    detail = {
        "cycles": cycles,
        "ops_per_cycle": len(best),
        "op_ms_tail_percentile": p,
        "op_ms_tail_beyond": min(TAIL_BEYOND, len(best) - 1),
        "setup_samples": len(setup),
        "timed_phase_s": time.perf_counter() - start,
        "ops_failed_frac": timed.failed / timed.attempted,
        # every repeat, not only each op's fastest
        "all_repeats_ops_per_s": timed.attempted / timed.busy,
    }
    return metrics, detail


def traced(workload, seconds: float, spans_path: str, warm: Tally, timed: Tally):
    from spans import LAYERS, Tracer

    warm_up(workload, warm)
    tracer = Tracer()
    plain_busy, traced_busy, summaries = [], [], []
    first_spans = []

    def pair():
        plain_busy.append(run_ops(workload, workload.cycle(), timed))
        tracer.reset()
        tracer.install()
        try:
            traced_busy.append(run_ops(workload, workload.cycle(), timed, tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        if not first_spans:
            first_spans.extend(tracer.spans)

    repeat_within(seconds, pair)
    write_spans(first_spans, spans_path)

    def counts(summary):
        functions = {k: (v["calls"], v["failed"]) for k, v in summary["functions"].items()}
        return functions, summary["eig_calls"], summary["eig_n3"], summary["eig_inside"]

    first = summaries[0]
    repeat = all(counts(s) == counts(first) for s in summaries[1:])

    def median_ms(pick):
        return statistics.median(pick(s) for s in summaries) * 1e3

    def calls(name):
        entry = first["functions"].get(name)
        return entry["calls"] if entry else 0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = metric(median_ms(lambda s: s["layers"][layer]["self_s"]), "ms")
        metrics[f"{layer}.failed"] = metric(first["layers"][layer]["failed"], "count")
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = metric(calls(name), "count")
        metrics[f"{name}.self_ms"] = metric(
            median_ms(lambda s: s["functions"].get(name, {}).get("self_s", 0.0)), "ms"
        )
    fast = first["functions"].get("gus.fast_srm")
    metrics["gus.fast_srm.failed"] = metric(fast["failed"] if fast else 0, "count")
    metrics["numpy.eig.calls"] = metric(first["eig_calls"], "count")
    metrics["numpy.eig.n3"] = metric(first["eig_n3"], "count")
    metrics["numpy.eig.ms"] = metric(median_ms(lambda s: s["eig_seconds"]), "ms")
    roots = calls("analysis.optimize_prior_4pam")
    metrics["analysis.gap_evals_per_root"] = metric(
        calls("analysis.pam4_block_traces") / roots if roots else 0.0, "ratio"
    )
    oracles = calls("srm.verify_theorem1")
    metrics["srm.verify_theorem1.eig_per_call"] = metric(
        first["eig_inside"].get("srm.verify_theorem1", 0) / oracles if oracles else 0.0, "ratio"
    )
    metrics["trace.overhead_ms"] = metric(
        (statistics.median(traced_busy) - statistics.median(plain_busy)) * 1e3, "ms"
    )
    detail = {
        "pairs": len(summaries),
        "ops_per_cycle": len(timed.best),
        "untraced_cycle_ms": statistics.median(plain_busy) * 1e3,
        "traced_cycle_ms": statistics.median(traced_busy) * 1e3,
        "counts_repeat": repeat,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans": len(first_spans),
        "ops_failed_frac": timed.failed / timed.attempted,
    }
    return metrics, detail


def write_spans(spans, path: str) -> None:
    """Write one traced cycle's spans as JSON lines, times in microseconds from its start."""
    origin = min((s[4] for s in spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        for sid, parent, op, name, start, end, failed in spans:
            record = {
                "id": sid,
                "parent": parent,
                "op": op,
                "name": name,
                "start_us": round((start - origin) * 1e6, 3),
                "end_us": round((end - origin) * 1e6, 3),
                "failed": failed,
            }
            handle.write(json.dumps(record) + "\n")


def run_workload(workload_class, seed: int, seconds: float, trace: bool) -> int:
    setup = [] if trace else measure_setup()
    import srmlab

    if not os.path.abspath(srmlab.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"srmlab was imported from {srmlab.__file__}, not from {SRC}")

    name = workload_class.name
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    # warm-up ops are checked like every other, but only timed ops count
    warm, timed = Tally(), Tally()
    try:
        workload = workload_class(seed, workdir)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if trace:
                spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl.gz")
                metrics, detail = traced(workload, seconds, spans_path, warm, timed)
            else:
                metrics, detail = end_to_end(workload, seconds, setup, warm, timed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(
        workload=name,
        trace=int(trace),
        env=environment(seed),
        raised_by_kind=dict(sorted(timed.raised.items())),
        mismatched_by_kind=dict(sorted(timed.mismatched.items())),
        warmup_mismatches=sum(warm.mismatched.values()),
        messages=(warm.messages + timed.messages)[:10],
    )
    correct = not warm.mismatched and not timed.mismatched
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": timed.attempted,
                "failed": timed.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(workloads, seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, each in a fresh process, and print every metric."""
    os.makedirs(OUT, exist_ok=True)
    report = {}
    status = 0
    for name in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable,
                    os.path.abspath(__file__),
                    "--workload", name,
                    "--seed", str(seed),
                    "--seconds", str(seconds),
                    "--trace", str(trace),
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: failed with exit code {proc.returncode}")
                status = 1
                continue
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            report[f"{name}.trace{trace}"] = {"detail": detail, "result": result}
            print(
                f"{name} trace={trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            if not result["correct"]:
                status = 1
            rows = list(result["metrics"].items())
            if not trace:
                rows.append(("ops_failed_frac", metric(detail["ops_failed_frac"], "ratio")))
            for key, m in rows:
                value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
                print(f"  {name:<12} {key:<42} {value:>16} {m['unit']}")
            if not trace:
                print(
                    f"  {name:<12} op_ms_tail is p{detail['op_ms_tail_percentile']:.4g} "
                    f"of {detail['ops_per_cycle']} ops ({detail['op_ms_tail_beyond']} beyond), "
                    f"each op's best of {detail['cycles']} cycles; "
                    f"failures by op class: {detail['raised_by_kind'] or 'none'}"
                )
    path = os.path.join(OUT, f"report-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "srmlab", "__init__.py")):
        print(f"error: no srmlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {list(WORKLOADS)}", file=sys.stderr)
        return 2
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
