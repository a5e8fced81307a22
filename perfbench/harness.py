"""Runs a workload: set-up, warm-up, the timed or traced pass, and the report.

Imported by run.py once the aeal package has been found under ``src/``.
"""

import ctypes
import gc
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER, install, layer_metrics
from tracer import Tracer
from workloads import (OUT_DIR, WORKLOADS, bytes_per_double, reported_failure,
                       wire_by_type)

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_UNITS = 3
PEAK_INPUTS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import aeal; print(time.perf_counter() - t)")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}


def _blas_threads():
    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": _blas_threads(),
            "thread_env": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def import_seconds(src):
    """Time to import the package in a fresh interpreter, as each command pays it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def peak_mem_mb(name, seed):
    """Peak-RSS growth of a unit: the median over the first PEAK_INPUTS
    inputs, each run cold in a child process of its own."""
    peaks = []
    for k in range(PEAK_INPUTS):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                              "--seed", str(seed), "--peak-unit", str(k)], check=True,
                             capture_output=True, text=True, timeout=150)
        peaks.append(json.loads(out.stdout.splitlines()[-1])["peak_mb"])
    return statistics.median(peaks)


def _status_kib(field):
    """VmRSS or VmHWM of this process in KiB. VmHWM belongs to the process
    image, so unlike ru_maxrss it does not start at the parent's peak."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def peak_unit(name, seed, k):
    """Child side of peak_mem_mb: one unit on input k, as RSS growth over the
    level after set-up. The first unit of a process is measured because later
    ones reuse the memory it freed."""
    wl = WORKLOADS[name]
    inp = wl.setup(seed, keys=[k])[0]  # set up alone: no freed memory to reuse
    gc.collect()
    base = _status_kib("VmRSS")
    try:
        wl.unit(inp)
    except Exception:  # counted as a failed unit by the timed pass
        pass
    print(json.dumps({"peak_mb": (_status_kib("VmHWM") - base) / 1024.0}))


class Runner:
    """Runs and checks units, counting attempts and failures.

    Every unit that raises or returns an output failing a check counts in
    ``failed``. It also counts in ``wrong`` unless it raised a failure the
    program reports itself (``reported_failure``). A wrong unit makes the
    run incorrect; a reported failure only counts against the units
    attempted."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.fingerprints = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.costs = []
        self.wire = None

    def _fail(self, problem, wrong):
        self.failed += 1
        self.wrong += wrong
        if len(self.problems) < 20:
            self.problems.append(problem)

    def run(self, k, tracer=None, unit_id=None):
        """One unit on input k; returns its wall seconds, or None if it failed."""
        inp = self.inputs[k]
        self.attempted += 1
        if tracer is not None:
            install(tracer)
            tracer.unit = unit_id
        start = time.perf_counter()
        try:
            out = self.wl.unit(inp)
        except Exception as exc:  # a failed unit is counted, the run goes on
            self._fail(f"unit on input {k} raised {type(exc).__name__}: {exc}",
                       not reported_failure(exc))
            return None
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        problems, costs = self.wl.check(inp, out)
        fingerprint = self.wl.fingerprint(out)
        if self.fingerprints.setdefault(k, fingerprint) != fingerprint:
            problems.append(f"output on input {k} differs from an earlier unit's")
        if tracer is not None:
            for key, value in self.wl.counters(out).items():
                tracer.add(key, value)
            wire = tracer.counter("wire.bytes", {unit_id})
            reported = tracer.counter("reported.bytes", {unit_id})
            if wire != reported:
                problems.append(f"encoded {wire:.0f} bytes but the program counted "
                                f"{reported:.0f}")
        if self.wire is None and self.wl.transcript(out) is not None:
            self.wire = self._account(out, problems)
        if problems:
            self._fail(f"output on input {k}: " + "; ".join(problems), True)
            return None
        self.costs.append(costs)
        return seconds

    def _account(self, out, problems):
        """Wire accounting by decoded message type, cross-checked with the program."""
        lines, reported_bytes, reported_offsets, rounds = self.wl.transcript(out)
        acc = wire_by_type(lines)
        total = sum(row[1] for row in acc.values())
        if total != reported_bytes:
            problems.append(f"transcript holds {total} bytes, program counted "
                            f"{reported_bytes}")
        offsets = acc.get("Offset", [0])[0]
        if not offsets == reported_offsets == 2 * rounds + 1:
            problems.append(f"{offsets} offsets in the transcript, program counted "
                            f"{reported_offsets}, {rounds} rounds")
        return {"by_type": {k: {"sends": v[0], "bytes": v[1], "doubles": v[2]}
                            for k, v in sorted(acc.items())},
                "bytes_per_double": bytes_per_double(acc)}

    def repeat(self, seconds, body):
        """Call body(i, input index) for at least MIN_UNITS rounds and `seconds`."""
        deadline = time.perf_counter() + seconds
        i = 0
        while i < MIN_UNITS or time.perf_counter() < deadline:
            body(i, i % len(self.inputs))
            i += 1


def run_untraced(wl, seed, seconds, src):
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(src)
        start = time.perf_counter()
        inputs = wl.setup(seed)
        setups.append(imported + time.perf_counter() - start)
    runner = Runner(wl, inputs)
    runner.run(0)  # warm-up: lazy initialization and caches, not timed
    walls = []

    def body(i, k):
        took = runner.run(k)
        if took is not None:
            walls.append(took)

    runner.repeat(seconds, body)
    metrics = {"wall_s": statistics.median(walls) if walls else float("nan"),
               "setup_s": statistics.median(setups),
               "peak_mem_mb": peak_mem_mb(wl.name, seed)}
    return runner, metrics, {"units timed": len(walls), "set-ups": len(setups)}


def run_traced(wl, seed, seconds):
    tracer = Tracer()
    install(tracer)
    tracer.unit = "setup"
    try:
        inputs = wl.setup(seed)
    finally:
        tracer.uninstall()
    runner = Runner(wl, inputs)
    runner.run(0)
    plain, traced, traced_ids = [], [], []

    def body(i, k):
        # the same input untraced and traced; which runs first alternates
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            took = runner.run(k, tracer if is_traced else None, unit_id=i)
            if took is not None:
                (traced if is_traced else plain).append(took)
                if is_traced:
                    traced_ids.append(i)

    runner.repeat(seconds, body)
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if traced and plain else float("nan"))
    metrics = (layer_metrics(tracer, traced_ids, "setup", overhead) if traced_ids
               else {})
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}.jsonl"))
    return runner, metrics, {"units traced": len(traced), "units untraced": len(plain),
                             "spans": len(tracer.spans)}


def _costs_report(runner):
    lines = []
    for key in ("rounds", "vector_sends", "wire_bytes"):
        values = [c[key] for c in runner.costs if key in c]
        if values:
            lines.append(f"  {key} = {statistics.median(values):g} "
                         f"{'B' if key == 'wire_bytes' else 'count'} "
                         f"(median of {len(values)} units)")
        else:
            lines.append(f"  {key} = n/a untraced (protocol.rounds, "
                         f"transport.vector_sends, transport.wire_bytes when traced)")
    for key in ("fit_gap", "auc_gap"):
        values = [c[key] for c in runner.costs if key in c]
        if values:
            lines.append(f"  {key} = {max(values):.3e} (worst of {len(values)} units)")
    return lines


def run_one(name, seed, seconds, trace, src):
    wl = WORKLOADS[name]
    if trace:
        runner, values, counts = run_traced(wl, seed, seconds)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        runner, values, counts = run_untraced(wl, seed, seconds, src)
        units = END_TO_END
    print(f"== {wl.name} seed={seed} seconds={seconds} trace={trace} "
          + " ".join(f"{k}={v}" for k, v in counts.items()))
    for key, value in values.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    if not trace:
        print(*_costs_report(runner), sep="\n")
    ratio = runner.failed / runner.attempted if runner.attempted else float("nan")
    print(f"  failed_ratio = {ratio:g} ({runner.failed} of {runner.attempted} units, "
          f"{runner.wrong} with a wrong output)")
    if runner.wire is not None:
        print(f"  wire by decoded message type: {json.dumps(runner.wire)}")
    for problem in runner.problems:
        print(f"  FAILED: {problem}")
    return {"correct": runner.wrong == 0 and runner.failed < runner.attempted,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main(args, src):
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} "
              "or all", file=sys.stderr)
        return 2
    if args.peak_unit is not None:
        peak_unit(args.workload, args.seed, args.peak_unit)
        return 0
    print(json.dumps({"env": environment()}))
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace, src)
    else:
        results = [(name, run_one(name, args.seed, args.seconds, trace, src))
                   for name in WORKLOADS for trace in (0, 1)]
        result = {"correct": all(r["correct"] for _, r in results),
                  "attempted": sum(r["attempted"] for _, r in results),
                  "failed": sum(r["failed"] for _, r in results),
                  "metrics": {f"{name}.{k}": v for name, r in results
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0
