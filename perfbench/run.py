"""opucz benchmark: one workload, timed (--trace 0) or traced (--trace 1).

    python3 perfbench/run.py --workload ensemble-annulus --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing needs installing.  Every BLAS thread variable is pinned to 1
before numpy loads (see README.md beside this file), and OPUCZ_THREADS is
cleared so that the command line's --threads decides its worker count.

Standard output carries the environment record, any failed checks, the
layer table (traced runs) and a readable metric list; its last line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The same record,
plus the spans file of a traced run, is written under perfbench/.out/.
A failed check prints the failure, reports no metrics and exits 1.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / ".out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
# Times are scaled to a reference speed.  A fixed loop that runs no opucz
# code (refloop.py) is timed before the first pass, then every REF_EVERY_S
# and around each set-up probe: the median of REF_REPEATS timings in each
# process of the Reference.  A pass or probe time is multiplied by
# REF_NOMINAL_S over the mean of the two loop times around it.  On a shared
# machine the CPU speed swings by up to 2x within minutes (other tenants),
# and the loop slows with it; the ratio does not.  REF_NOMINAL_S is the
# loop's time on a quiet core of the 2-core machine the benchmark was
# written on, so scaled seconds read as seconds there.
REF_NOMINAL_S = 0.020
REF_EVERY_S = 1.0
REF_REPEATS = 3
TRACED_SETUPS = 5
PROBE_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small sizes, for the benchmark's own smoke test")
    return p.parse_args(argv)


def _pin_environment() -> None:
    src = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("OPUCZ_THREADS", None)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    sys.path[:0] = [src, str(HERE)]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def reference_s() -> float:
    """Median of REF_REPEATS timings of the reference loop in this process."""
    import refloop

    return statistics.median(refloop.timings(REF_REPEATS))


class Reference:
    """The reference loop timed at once in `processes` processes: this one
    and processes - 1 helpers (refloop.py run as a script).  Calling it
    gives the median of all their timings.  A pass that runs on every core,
    as the CLI's pool does, meets the speed of all of them, and each core's
    speed changes on its own; the loop on one core tracks such a pass
    poorly."""

    def __init__(self, processes: int):
        self.processes = processes
        self.helpers = []

    def __enter__(self):
        for _ in range(self.processes - 1):
            self.helpers.append(subprocess.Popen(
                [sys.executable, str(HERE / "refloop.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        for helper in self.helpers:
            if helper.stdout.readline().strip() != "ready":
                raise RuntimeError("a reference loop helper did not start")
        return self

    def __call__(self) -> float:
        import refloop

        for helper in self.helpers:
            helper.stdin.write(f"{REF_REPEATS}\n")
            helper.stdin.flush()
        times = refloop.timings(REF_REPEATS)
        for helper in self.helpers:
            times += json.loads(helper.stdout.readline())
        return statistics.median(times)

    def __exit__(self, *exc):
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "reference_loop_s_start": reference_s(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def measure_setup(code: str) -> tuple:
    """(scaled, raw) median wall time of fresh interpreters that import the
    package and build a basis."""
    refs = [reference_s()]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       capture_output=True, timeout=PROBE_TIMEOUT_S)
        raw.append(perf_counter() - t0)
        refs.append(reference_s())
        scaled.append(raw[-1] * REF_NOMINAL_S / statistics.mean(refs[-2:]))
    return statistics.median(scaled), statistics.median(raw)


def run_passes(step, seconds: float, processes: int = 1) -> list:
    """Call step(k) for k = 0, 1, ... until the next call would end after
    `seconds`; at least once.  Each call returns a list of PassResults, and
    each result gets the mean reference loop time around it as `ref_s`,
    timed in as many processes as a pass runs on."""
    results, block = [], []
    t0 = perf_counter()
    with Reference(processes) as reference:
        ref_before, ref_at = reference(), perf_counter()
        for k in itertools.count():
            batch = step(k)
            results.extend(batch)
            block.extend(batch)
            last = perf_counter() - t0 + sum(r.wall_s for r in batch) > seconds
            if last or perf_counter() - ref_at >= REF_EVERY_S:
                ref_after, ref_at = reference(), perf_counter()
                for r in block:
                    r.ref_s = (ref_before + ref_after) / 2
                ref_before, block = ref_after, []
            if last:
                return results


@dataclass
class Run:
    results: list  # every pass made
    checked: list  # the passes whose outputs the workload's checks read
    failures: list  # failed checks
    checks: int  # checks attempted
    metrics: dict  # {name: (value, unit)}
    report: Optional[dict] = None  # layer table and spans file (traced)
    raw: Optional[dict] = None  # unscaled medians of the timed metrics


def timed_run(wl, seconds: float) -> Run:
    """End-to-end metrics with no wrappers installed."""
    setup_s, raw_setup_s = measure_setup(wl.setup_code)
    wl.prepare()
    failures = wl.preflight()
    results = run_passes(lambda k: [wl.run_pass(k, False)], seconds,
                         wl.processes)
    done = [r for r in results if not r.error] or results[:1]
    walls = [r.wall_s * REF_NOMINAL_S / r.ref_s for r in done]
    metrics = {
        "ops_per_s": (statistics.median(r.ops / w for r, w in zip(done, walls)),
                      "1/s"),
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (wl.peak_rss_mb(results), "MB"),
    }
    raw = {"ops_per_s": statistics.median(r.ops / r.wall_s for r in done),
           "wall_s": statistics.median(r.wall_s for r in done),
           "setup_s": raw_setup_s}
    return Run(results, results, failures, 1, metrics, raw=raw)


def traced_run(wl, seconds: float) -> Run:
    """Every pass twice, untraced then traced: per-layer metrics."""
    from tracing import SpanIndex, Tracer, format_table, layer_table
    from workloads import per_layer_metrics, trace_targets

    wl.prepare()
    failures = wl.preflight()
    tracer = Tracer()
    targets = trace_targets()
    with tracer.installed(targets):
        for _ in range(TRACED_SETUPS):
            with tracer.span("bench.setup"):
                wl.traced_setup()

    def pair(k):
        # back to back, so both copies meet the machine in the same state
        plain = wl.run_pass(k, True)
        with tracer.installed(targets), tracer.span("bench.pass"):
            return [plain, wl.run_pass(k, True)]

    results = run_passes(pair, seconds)
    plain, traced = results[0::2], results[1::2]
    if any(a.output is None or b.output is None
           or not wl.same_output(a.output, b.output)
           for a, b in zip(plain, traced)):
        failures.append("traced passes gave other results than untraced ones")
    overhead = statistics.median(b.wall_s / a.wall_s
                                 for a, b in zip(plain, traced)) - 1.0
    index = SpanIndex(tracer.spans)
    table = layer_table(index, len(traced), overhead)
    spans_path = OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    report = {"table": table, "text": format_table(table),
              "spans_file": spans_path.relative_to(ROOT).as_posix()}
    metrics = per_layer_metrics(index, len(traced), overhead)
    return Run(results, plain, failures, 2, metrics, report)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "opucz" / "mc.py").is_file():
        print(f"error: no opucz sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    _pin_environment()
    from procs import become_subreaper, reap_children, stop_resource_tracker

    become_subreaper()
    try:
        return _run(args)
    finally:
        # no process the run started, nor any it orphaned, outlives it
        stop_resource_tracker()
        reap_children()


def _run(args) -> int:
    import workloads  # numpy loads here, after the thread variables are set

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, OUT)
    run = (traced_run if args.trace else timed_run)(wl, args.seconds)

    failures, checks = run.failures, run.checks
    outputs = [r.output for r in run.checked if r.output is not None]
    if outputs:
        n_checks, check_failures = wl.check(outputs)
        checks += n_checks
        failures += check_failures
    else:
        checks += 1
        failures.append("no pass completed")
    errors = [r.error for r in run.results if r.error]
    attempted = sum(r.attempted for r in run.results) + checks
    failed = sum(r.failed for r in run.results) + len(failures)
    env["loadavg_end"] = list(os.getloadavg())
    env["reference_loop_s_end"] = reference_s()
    correct = not (failures or errors)

    print(f"# workload {wl.name} seed {args.seed} trace {args.trace} "
          f"passes {len(run.results)}")
    print("# environment " + json.dumps(env))
    if run.report:
        print(run.report["text"])
        print(f"# spans {run.report['spans_file']}")
    for f in errors + failures:
        print(f"CHECK FAILED: {f}")
    print(f"# failed_ratio {failed}/{attempted} = {failed / attempted:.6g}"
          " (failed operations and checks / attempted)")
    metrics = run.metrics if correct else {}
    unscaled = (run.raw or {}) if correct else {}
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value!r} {unit}")
    for name, value in unscaled.items():
        print(f"# unscaled {name} {value!r}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"workload": wl.name, "trace": args.trace, "tiny": args.tiny,
              "environment": env, "failures": errors + failures,
              "pass_walls_s": [r.wall_s for r in run.results],
              "pass_reference_s": [r.ref_s for r in run.results],
              "unscaled": unscaled,
              "result": result}
    if run.report:
        record["layer_table"] = run.report["table"]
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
