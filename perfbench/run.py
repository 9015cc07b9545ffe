"""Benchmark for wavectl: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload steer --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all                # every workload, both modes
    python3 perfbench/run.py --self-check                  # quick test of the benchmark

One client in one process sends each request through
``wavectl.cli.main(argv)`` only after the previous one has finished and
been checked.  Artifacts go to a temporary directory inside the
checkout, into a directory emptied before each request; stdout and
stderr are captured.  Checks run outside the timed interval, and a
request counts as failed on a nonzero exit, an exception, a failed
check, or artifacts that differ from an earlier identical request.  A
run sends whole cycles of its workload's requests, as many as take
about ``--seconds`` at the workload's nominal pace, so the sample count
does not depend on the machine's speed.  Each cycle's inputs are drawn
fresh from the seed and the cycle's index; only one or two fixed
requests recur in every cycle, for the byte-identity check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced cycles with cycles traced by ``tracer.py`` and prints the
per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is nonzero when any check failed.
"""

from __future__ import annotations

import os

# One thread per numeric library, set before numpy loads, so the
# benchmark measures the program and not a BLAS thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "wavectl"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
E2E_MIN_CYCLES = 2  # the repeated requests recur in the second cycle


class Runner:
    """Sends requests through ``wavectl.cli.main`` and verifies each one."""

    def __init__(self, work):
        self.out = Path(work) / "out"
        self.digests = {}  # key of a repeated request -> digests of its first verified run
        self.tamper = None  # self-check hook: corrupts artifacts before verification

    def send(self, request, key=None):
        """Run one request; returns (seconds, failure reason or None).

        A request with a ``key`` is one that recurs: after its first
        verified run, its artifacts must match that run's byte for byte.
        """
        # every request writes into an empty directory, so no artifact
        # of an earlier request can stand in for one of this request
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [*request.argv, "--out", str(self.out)]
        cli = sys.modules[f"{PACKAGE}.cli"]
        stderr = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed request, not a crashed run
            return time.perf_counter() - started, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if self.tamper is not None:
            self.tamper(self.out)
        if code != 0:
            return elapsed, f"exit {code}: {stderr.getvalue().strip()}"
        return elapsed, self._verify(request, key)

    def _verify(self, request, key):
        out = self.out
        try:
            report = json.loads((out / f"{request.argv[0]}-report.json").read_text("utf-8"))
            digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                       for name in report["outputs"]}
        except (OSError, ValueError, KeyError, TypeError) as err:
            return f"unreadable report or artifact: {err}"
        previous = self.digests.get(key)
        if previous is not None:
            # the earlier bytes passed the check; identical bytes pass it too
            return None if digests == previous else "artifacts differ from an identical request"
        try:
            request.check(out)
        except workloads.CheckError as err:
            return str(err)
        except (KeyError, TypeError, ValueError, IndexError) as err:
            return f"malformed artifact: {type(err).__name__}: {err}"
        if key is not None:
            self.digests[key] = digests
        return None


class Phase:
    """Closed-loop measurement of whole cycles of requests."""

    def __init__(self):
        self.latencies = []
        self.failures = []

    @property
    def busy(self):
        return sum(self.latencies)

    @property
    def completed(self):
        return len(self.latencies) - len(self.failures)


def measure(runner, workload, indices, inputs, phase=None):
    """Send the cycles ``indices`` of ``workload``, each with inputs made just before it."""
    phase = Phase() if phase is None else phase
    for index in indices:
        directory = Path(inputs) / f"cycle{index:04d}"
        for key, request in workload.cycle(index, directory):
            elapsed, reason = runner.send(request, key)
            phase.latencies.append(elapsed)
            if reason:
                phase.failures.append(f"{request.label} {' '.join(request.argv)}: {reason}")
        shutil.rmtree(directory, ignore_errors=True)
    return phase


def cycle_count(workload, seconds, min_cycles):
    """Whole cycles that take about ``seconds`` at the workload's nominal pace."""
    return max(min_cycles, math.ceil(seconds / workload.cycle_s))


def purge_package():
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def set_up(runner, warmups, repeats):
    """Import wavectl, load the bundled config, warm each request kind; per-repeat seconds."""
    times, failures = [], []
    for _ in range(repeats):
        purge_package()
        started = time.perf_counter()
        importlib.import_module(f"{PACKAGE}.cli")
        sys.modules[f"{PACKAGE}.config"].load_bundled_config()
        elapsed = time.perf_counter() - started
        for i, request in enumerate(warmups):
            seconds, reason = runner.send(request, f"warmup{i}")
            elapsed += seconds  # the output check stays outside the set-up time
            if reason:
                failures.append(f"warm-up {request.label}: {reason}")
        times.append(elapsed)
    return times, failures


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(workload, runner, inputs, seconds, trace, setup_repeats=SETUP_REPEATS):
    """Set up, measure and check one workload; returns a result dict."""
    setup_times, failures = set_up(runner, workload.warmups, setup_repeats)
    notes = []
    if not trace:
        phase = measure(runner, workload,
                        range(cycle_count(workload, seconds, E2E_MIN_CYCLES)), inputs)
        lat = phase.latencies
        tail_s, tail_p = tail(lat)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_rps": (phase.completed / phase.busy, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_tail_ms": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes.append(f"latency_tail_ms is p{tail_p:.1f} of n={len(lat)} "
                     f"({min(TAIL_BEYOND, len(lat) - 1)} samples beyond it)")
        phases = [phase]
    else:
        # traced and untraced cycles alternate, so drift in the machine's
        # speed during the run cancels out of trace.overhead_ratio
        plain, traced, tracer = Phase(), Phase(), Tracer()
        for pair in range(cycle_count(workload, seconds / 2.0, 1)):
            measure(runner, workload, [2 * pair], inputs, phase=plain)
            tracer.install()
            bindings = tracer.bindings()
            try:
                measure(runner, workload, [2 * pair + 1], inputs, phase=traced)
            finally:
                tracer.restore()
        notes.append("trace wrappers bound at " + ", ".join(bindings))
        metrics = tracer.layer_metrics(len(traced.latencies),
                                       traced.completed / traced.busy,
                                       plain.completed / plain.busy)
        missing = sorted(set(workload.spans) - tracer.fired())
        if missing:
            failures.append(f"spans never fired on {workload.name}: {', '.join(missing)}")
        phases = [plain, traced]
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    failures += [f for p in phases for f in p.failures]
    notes.append(f"error_rate {failed / attempted:.6g} ({failed}/{attempted}); "
                 f"setup repeats {[round(t, 4) for t in setup_times]}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes, "failures": failures}


def machine_info(seed):
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": f"{os.uname().sysname} {os.uname().release} {os.uname().machine}",
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        info["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    info["caches"] = caches
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        info["blas"] = None
    return info


def load_program():
    """Import wavectl from this checkout's src/, never from anywhere else."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no {PACKAGE} sources under {SRC}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    purge_package()
    module = importlib.import_module(PACKAGE)
    if Path(module.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SystemExit(f"perfbench: imported {PACKAGE} from {module.__file__}, not {SRC}")
    return module


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@contextlib.contextmanager
def workspace():
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_result(label, result):
    print(f"== {label}")
    width = max(len(name) for name in result["metrics"])
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<{width}}  {value:>16.6g} {unit}")
    for note in result["notes"]:
        print(f"  {note}")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")


def final_line(results):
    """The machine-readable last line, from one result or several labelled ones."""
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{label}/{name}": item for label, r in results.items()
                   for name, item in r["metrics"].items()}
    return json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def bench(names, seed, seconds, modes):
    wv = load_program()
    print("machine " + json.dumps(machine_info(seed), sort_keys=True))
    why = {w["name"]: w["why"] for w in declared()["workloads"]}
    results = {}
    for name in names:
        for trace in modes:
            with workspace() as work:
                workload = workloads.build(name, seed, wv, work / "inputs")
                print(f"workload {name}: {why[name]}")
                result = run_workload(workload, Runner(work), work / "inputs", seconds, trace)
            wv = sys.modules[PACKAGE]
            label = f"{name}/trace{trace}"
            if len(names) > 1 and not trace:
                result["notes"].append("one process runs every workload, so peak_rss_mb "
                                       "is the running maximum")
            print_result(label, result)
            results[label] = result
    print(final_line(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def _truncate(out):
    for path in out.iterdir():
        if not path.name.endswith("-report.json"):
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _nudge_digit(out):
    for path in out.iterdir():
        if not path.name.endswith("-report.json"):
            data = bytearray(path.read_bytes())
            i = max(i for i, b in enumerate(data) if chr(b).isdigit() and b != ord("9"))
            data[i] += 1
            path.write_bytes(bytes(data))


@contextlib.contextmanager
def _noop_main():
    """Swap in a ``cli.main`` that writes nothing and reports success."""
    cli = sys.modules[f"{PACKAGE}.cli"]
    original = cli.main
    cli.main = lambda argv=None: 0
    try:
        yield
    finally:
        cli.main = original


def _one_per_label(workload):
    """``workload`` cut to the first fresh request of each label, as few cycles as allowed."""
    def fresh(rng, work, index):
        firsts = {}
        for request in workload.fresh(rng, work, index):
            firsts.setdefault(request.label, request)
        return list(firsts.values())

    return replace(workload, fresh=fresh, cycle_s=math.inf)


def self_check():
    """A few requests per workload: metric names and units, traces, corruption."""
    wv = load_program()
    problems = []
    for name in workloads.GENERATORS:
        with workspace() as work:
            inputs = work / "inputs"
            workload = _one_per_label(workloads.build(name, 0, wv, inputs))
            runner = Runner(work)
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                result = run_workload(workload, runner, inputs, 0.0, trace, setup_repeats=1)
                wanted = {m["name"]: m["unit"] for m in declared()[key]}
                got = {n: u for n, (_, u) in result["metrics"].items()}
                if got != wanted:
                    problems.append(f"{name} trace {trace}: metrics {sorted(got.items())} "
                                    f"differ from BENCHMARK.json {sorted(wanted.items())}")
                problems += [f"{name}: {f}" for f in result["failures"]]
                if trace:
                    bound = result["notes"][0]
                    for binding in ("wavectl.cli.rectified_bias", "wavectl.btl.rectified_bias",
                                    "wavectl.steering.golden_section_maximize",
                                    "wavectl.numutil.golden_section_maximize"):
                        if binding not in bound:
                            problems.append(f"trace wrapper not bound at {binding}")
                    for target in TARGETS:
                        module_name, attr = target.rsplit(".", 1)
                        fn = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
                        if fn.__module__ != f"{PACKAGE}.{module_name}":
                            problems.append(f"trace wrapper left at {target}")
            # a request whose artifacts are corrupted, or never written,
            # counts as failed: both where an identical earlier request
            # passed and where the artifacts' content is checked
            pairs = workload.cycle(10_000, inputs / "corrupt")
            fresh = next(pair for pair in pairs if pair[0] is None)
            repeated = next(pair for pair in pairs if pair[0] is not None)
            if repeated[0] not in runner.digests:
                problems.append(f"{name}: repeated request never verified")
            for tamper, (key, request) in ((_nudge_digit, repeated), (_truncate, fresh),
                                           (None, repeated), (None, fresh)):
                runner.tamper = tamper
                with _noop_main() if tamper is None else contextlib.nullcontext():
                    _, reason = runner.send(request, key)
                runner.tamper = None
                what = f"{'no-op main' if tamper is None else tamper.__name__[1:]}, " \
                       f"{'repeated' if key else 'fresh'} {request.label}"
                if reason is None:
                    problems.append(f"{name}: {what} passed")
                else:
                    print(f"  {name} {what} detected: {reason[-80:]}")
            wv = sys.modules[PACKAGE]
        print(f"self-check {name}: {'ok' if not problems else 'problems so far'}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps({"self_check": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="nominal measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: both when --workload all, else 0)")
    parser.add_argument("--self-check", action="store_true",
                        help="run a few requests per workload and test the benchmark itself")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    if args.trace is None:
        modes = (0, 1) if args.workload == "all" else (0,)
    else:
        modes = (args.trace,)
    seconds = declared()["run_seconds"] if args.seconds is None else args.seconds
    return bench(names, args.seed, seconds, modes)


if __name__ == "__main__":
    sys.exit(main())
