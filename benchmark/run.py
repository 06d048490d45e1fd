"""tautchern benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload generic_chern --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --record

Requests go to tautchern.cli.main(argv) in this process with stdout
captured: one client, one thread, a closed loop in which each request
waits for the one before.  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes over the workload's first pass and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --record rewrites expected_sha256.json
from the current sources; run it only on a commit whose outputs are
known to be right.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import importlib.util
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from gate import EXPECTED_FILE, Gate, argv_key, load_expected, output_hash, request_spec
from spans import Tracer, layer_metrics, layer_unit
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
SPANS_DIR = BENCH_DIR / "out"

# A request still running after this long is stopped and counted as a
# timeout; the heaviest pool request takes about two seconds.
REQUEST_TIMEOUT_S = 60.0
# Fresh interpreters started to measure setup_s; the median is reported.
SETUP_REPEATS = 11
# Kernel time of the reference machine that scaled times refer to; about
# the median on the 2-CPU virtual machine the benchmark was written on.
CAL_REF_S = 0.008
# CPU time between kernel samples inside a request.
SAMPLE_EVERY_S = 0.25
# Run by a fresh interpreter: the time from its first statement to
# tautchern.cli imported and its parser built, then the calibration kernel
# on the same CPU.  argv: src directory, benchmark directory.
SETUP_CODE = """
import time
start = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import tautchern.cli
tautchern.cli.build_parser()
took = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from run import calibration_s
print(took, sorted(calibration_s() for _ in range(3))[1])
"""

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "req_p50_s": "s",
    "req_tail_s": "s", "peak_rss_mb": "MB",
}


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request that ran too long."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


@dataclass
class Result:
    out: str
    wall: float
    cpu: float
    error: str | None


def load_package():
    """Import tautchern from this checkout's src/ and the test oracles."""
    if not (SRC / "tautchern" / "__init__.py").is_file():
        sys.exit(f"error: no tautchern sources in {SRC}")
    oracle_file = ROOT / "tests" / "oracles.py"
    if not oracle_file.is_file():
        sys.exit(f"error: {oracle_file} is missing")
    sys.path.insert(0, str(SRC))
    import tautchern
    import tautchern.cli
    if Path(tautchern.__file__).resolve().parent != (SRC / "tautchern").resolve():
        sys.exit(f"error: imported tautchern from {tautchern.__file__}, not {SRC}")
    spec = importlib.util.spec_from_file_location("tautchern_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return tautchern, oracles


def run_request(cli, argv) -> Result:
    """Run one CLI request in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except RequestTimeout:
        error = "timeout"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a result to count, not to stop on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    return Result(out.getvalue(), wall, cpu, error)


def calibration_s() -> float:
    """Time of a fixed stdlib kernel: Fraction arithmetic, dict updates
    and a sort, the kind of work tautchern does.  The collector is off so
    the program's heap cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        for i in range(1, 1200):
            key = (i % 23, i % 7)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
        sorted(acc.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedGauge:
    """Scales times to a machine on which calibration_s() takes CAL_REF_S.

    On a shared virtual machine co-tenant load moves the speed of the
    whole CPU by up to half, in phases that can outlast a run; CPU time
    moves with it.  The kernel runs just before and just after each
    measured request, and every SAMPLE_EVERY_S of CPU time inside it (from
    SIGVTALRM).  The request's time, less what the samples took, is scaled
    by CAL_REF_S over the mean of those kernel times.
    """

    def __init__(self):
        self.last = calibration_s()
        self.kernel_s: list[float] = []
        self._inside: list[float] = []
        self._inside_cost = 0.0
        signal.signal(signal.SIGVTALRM, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self._inside.append(calibration_s())
        self._inside_cost += time.perf_counter() - start

    def restart(self) -> None:
        """Start the next interval now, leaving out what ran since the last."""
        self.last = calibration_s()

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel while the body runs."""
        self._inside, self._inside_cost = [], 0.0
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def scaled(self, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU time of the request just sampled, scaled."""
        now = calibration_s()
        kernels = [self.last, *self._inside, now]
        factor = CAL_REF_S / (sum(kernels) / len(kernels))
        self.last = now
        self.kernel_s.extend(kernels[1:])
        return ((wall - self._inside_cost) * factor,
                (cpu - self._inside_cost) * factor)


def measure_setup() -> tuple[list[float], list[float]]:
    """Scaled and unscaled set-up times of fresh interpreters; see SETUP_CODE.

    Each child scales by its own kernel run, as it may run on another CPU
    than this process.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
            cwd=ROOT, check=True, capture_output=True, text=True)
        took, kernel = map(float, proc.stdout.split())
        raw.append(took)
        scaled.append(took * CAL_REF_S / kernel)
    return scaled, raw


def percentile(values, p: int) -> float:
    """Percentile p of values, interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.notes: list[str] = []

    def note(self, subject: str, what: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(f"{subject}: {what}")


def _checked(cli, gate, counts: Counts, argv,
             gauge: SpeedGauge | None = None) -> tuple[Result, float, float]:
    """Run one request and gate its output.  Also returns its wall and
    CPU time, scaled when a gauge is given."""
    with gauge.sampling() if gauge is not None else contextlib.nullcontext():
        res = run_request(cli, argv)
    wall, cpu = gauge.scaled(res.wall, res.cpu) if gauge is not None \
        else (res.wall, res.cpu)
    counts.attempted += 1
    if res.error is not None:
        counts.failed += 1
        counts.note(argv_key(argv), res.error)
    else:
        problems = gate.check(argv, res.out)
        if problems:
            counts.mismatched += 1
            counts.note(argv_key(argv), "; ".join(problems))
    return res, wall, cpu


def end_to_end(pkg, gate, workload, seed: int, seconds: float):
    """Closed-loop passes until `seconds` of request time is measured.

    The first pass always completes.  A pass cut short by the deadline
    adds its requests to the latency samples but not to wall_s / cpu_s.
    Every time is scaled by SpeedGauge; the unscaled medians are printed
    beside the metrics.
    """
    setup, setup_raw = measure_setup()
    gauge = SpeedGauge()
    counts = Counts()
    latencies, raw_latencies, pass_wall, pass_cpu, raw_wall = [], [], [], [], []
    measured = 0.0
    stream = workload.passes(seed)
    while not pass_wall or measured < seconds:
        batch = next(stream)
        gc.collect()
        gauge.restart()
        wall = cpu = raw = 0.0
        for argv in batch:
            if pass_wall and measured >= seconds:
                break
            res, scaled_wall, scaled_cpu = _checked(pkg.cli, gate, counts, argv, gauge)
            measured += res.wall
            raw += res.wall
            raw_latencies.append(res.wall)
            latencies.append(scaled_wall)
            wall += scaled_wall
            cpu += scaled_cpu
        else:
            pass_wall.append(wall)
            pass_cpu.append(cpu)
            raw_wall.append(raw)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail = workload.tail_percentile
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_wall),
        "cpu_s": statistics.median(pass_cpu),
        "req_p50_s": percentile(latencies, 50),
        "req_tail_s": percentile(latencies, tail),
        "peak_rss_mb": peak_kb / 1024,
    }
    beyond = sum(1 for t in latencies if t > metrics["req_tail_s"])
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, start-up to "
                   f"parser built; "
                   f"unscaled {statistics.median(setup_raw):.4g} s",
        "wall_s": f"median of {len(pass_wall)} passes of {len(workload.slots)} "
                  f"requests; unscaled {statistics.median(raw_wall):.4g} s",
        "cpu_s": "process CPU time, same passes",
        "req_p50_s": f"median of {len(latencies)} requests; "
                     f"unscaled {percentile(raw_latencies, 50):.4g} s",
        "req_tail_s": f"p{tail} of {len(latencies)} requests, {beyond} beyond it; "
                      f"unscaled {percentile(raw_latencies, tail):.4g} s",
        "peak_rss_mb": "ru_maxrss of this process",
        "speed": f"calibration kernel median {statistics.median(gauge.kernel_s) * 1e3:.3f} ms "
                 f"over {len(gauge.kernel_s)} runs; times are scaled to "
                 f"{CAL_REF_S * 1e3:g} ms",
    }
    return counts, metrics, {k: END_TO_END_UNITS[k] for k in metrics}, notes


def per_layer(pkg, gate, oracles, workload, seed: int, seconds: float):
    """Alternate untraced and traced passes over the workload's first pass.

    Counts come from the first traced pass and must repeat exactly in
    every later one; times are medians over the traced passes.  Every
    traced request must print the same stdout as its untraced twin.
    """
    batch = next(workload.passes(seed))
    classes = 0
    for argv in batch:
        g, n, concrete = request_spec(argv)
        if concrete:
            classes += oracles.boundary_class_count(g, n) - (1 if g >= 1 else 0)
    counts = Counts()
    tracer = Tracer()
    plain_wall, traced_wall, layers = [], [], []
    first_spans = None
    measured = 0.0
    while not traced_wall or measured < seconds:
        gc.collect()
        hashes, wall = {}, 0.0
        for argv in batch:
            res, _wall, _cpu = _checked(pkg.cli, gate, counts, argv)
            hashes[argv] = output_hash(res.out) if res.error is None else None
            wall += res.wall
        plain_wall.append(wall)
        gc.collect()
        tracer.reset()
        tracer.install()
        wall = 0.0
        try:
            for k, argv in enumerate(batch, start=1):
                tracer.request = k
                res = run_request(pkg.cli, argv)
                counts.attempted += 1
                wall += res.wall
                if res.error is not None:
                    counts.failed += 1
                    counts.note(argv_key(argv), "traced: " + res.error)
                elif output_hash(res.out) != hashes[argv]:
                    counts.mismatched += 1
                    counts.note(argv_key(argv), "traced stdout differs from untraced stdout")
        finally:
            tracer.uninstall()
        traced_wall.append(wall)
        layers.append(layer_metrics(tracer.spans, tracer.counts, classes))
        if first_spans is None:
            first_spans = tracer.spans
        measured += plain_wall[-1] + traced_wall[-1]

    metrics = {}
    for name, value in layers[0].items():
        if name.endswith("_s"):
            metrics[name] = statistics.median(m[name] for m in layers)
        else:
            metrics[name] = value
            if any(m[name] != value for m in layers[1:]):
                counts.mismatched += 1
                counts.note(name, "count differs between traced passes")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_wall)
                                       / statistics.median(plain_wall))
    units = {name: layer_unit(name) for name in metrics}
    notes = {"trace.overhead_ratio":
             f"median of {len(traced_wall)} traced / {len(plain_wall)} untraced passes"}
    write_spans(first_spans, workload.name, seed)
    return counts, metrics, units, notes


def write_spans(spans, workload: str, seed: int) -> None:
    """One JSON array per span: id, parent id, request id, name, start, end."""
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record(pkg, oracles) -> None:
    """Run every pool request once and write its stdout hash."""
    gate = Gate(pkg, oracles, {})
    table = {}
    for workload in WORKLOADS.values():
        for argv in workload.pool():
            res = run_request(pkg.cli, argv)
            problems = [res.error] if res.error else gate.independent(argv, res.out)
            if problems:
                sys.exit(f"error: {argv_key(argv)}: {'; '.join(problems)}")
            table[argv_key(argv)] = output_hash(res.out)
            print(f"{res.wall:8.3f} s  {len(res.out):9d} chars  {argv_key(argv)}",
                  file=sys.stderr)
    EXPECTED_FILE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected_sha256.json from the current sources")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("give --workload or --record")
    if args.workload == "all":
        return run_all(args)

    pkg, oracles = load_package()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.record:
        record(pkg, oracles)
        return 0
    workload = WORKLOADS[args.workload]
    gate = Gate(pkg, oracles, load_expected())
    if args.trace:
        counts, metrics, units, notes = per_layer(
            pkg, gate, oracles, workload, args.seed, args.seconds)
    else:
        counts, metrics, units, notes = end_to_end(
            pkg, gate, workload, args.seed, args.seconds)

    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} commit={git_commit()}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"{'error_ratio':36s} {counts.failed / counts.attempted:14.6g} {'ratio':6s} "
          f"{counts.failed} of {counts.attempted} requests raised, exited nonzero "
          "or timed out")
    print(f"{'output_mismatch':36s} {counts.mismatched:14d} {'count':6s} "
          "requests failing the correctness gate")
    if "speed" in notes:
        print(f"# speed: {notes['speed']}")
    for line in counts.notes:
        print(f"# problem: {line}")
    print(json.dumps({
        "correct": counts.mismatched == 0 and counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
