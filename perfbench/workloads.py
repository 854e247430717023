"""The three opucz workloads: inputs made from a seed, one timed pass, checks.

Each workload runs as repeated passes of identical size.  A pass is the unit
that `wall_s` times; its operations are what `ops_per_s` counts.  The
package is driven only through its public functions and the `opucz` command
line.  See README.md beside this file for why each workload is here.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import numpy as np

from opucz import cli, intensity, kernel, mc, opuc, varlim
from opucz.errors import OpuczError
from opucz.zerocount import Region

from procs import processes, reap_group
from tracing import SpanIndex, quantile

NPROC = len(os.sched_getaffinity(0))
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20
CLI_TIMEOUT_S = 120
DETERMINISM_KEY = 1 << 20  # sub-seed key of the determinism slice
BOOTSTRAP_KEY = DETERMINISM_KEY + 1  # sub-seed key of the pooled bootstrap
BOOTSTRAP_RESAMPLES = 1000
ANNULUS = (0.3, 0.6)
# The annuli of formulas-grid's variance limits: fixed, not drawn from the
# seed.  var_limit_quadrature refines adaptively, and for some annuli near
# the unit circle its time grows sixfold and its memory to 17 MB (at
# (1.15, 2.5)), so drawn annuli made a run's cost and peak memory depend on
# its seed.  The set holds such an annulus, so that every run pays for it.
VARLIM_ANNULI = ((0.3, 0.6), (0.05, 0.85), (1.3, 2.0), (1.15, 2.5))


def sub_seed(seed: int, key: int) -> int:
    """An independent 63-bit seed for pass `key` of a run seeded `seed`."""
    ss = np.random.SeedSequence(seed & (2**64 - 1), spawn_key=(key,))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def expected_variance() -> float:
    """Limiting count variance of ANNULUS, the ensemble's expected value."""
    return varlim.var_limit_closed(*ANNULUS).value


@dataclass
class PassResult:
    wall_s: float
    ops: int  # operations completed
    attempted: int  # operations attempted
    failed: int  # excluded trials, audit mismatches, raised errors
    output: Any = None  # what the checks read
    peak_rss_mb: float = 0.0  # child process tree, for command-line passes
    error: Optional[str] = None
    ref_s: float = 0.0  # reference loop time around the pass (run.py)


def _self_peak_rss_mb() -> float:
    import resource  # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# ensemble-annulus: run_ensemble in-process, one worker
# ---------------------------------------------------------------------------


class EnsembleAnnulus:
    name = "ensemble-annulus"
    processes = 1  # a timed pass runs in this process
    family = "zero"

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.n = 30 if tiny else 100
        self.trials = 10 if tiny else 20
        self.slice_trials = 8

    @property
    def setup_code(self) -> str:
        return ("from opucz.mc import coeff_model, run_ensemble\n"
                "from opucz.opuc import alpha_family\n"
                "from opucz.zerocount import Region\n"
                f"alpha_family({self.family!r}).build({self.n})\n")

    def traced_setup(self) -> None:
        opuc.alpha_family(self.family).build(self.n)

    def prepare(self) -> None:
        self.basis = opuc.alpha_family(self.family).build(self.n)
        self.model = mc.coeff_model("gaussian")
        self.region = Region.annulus(*ANNULUS)

    def preflight(self) -> list:
        """Determinism contract of mc.py on a short slice; also warms up."""
        s = sub_seed(self.seed, DETERMINISM_KEY)
        args = (self.basis, self.model, self.region, self.slice_trials, s)
        one = mc.run_ensemble(*args, workers=1)
        many = mc.run_ensemble(*args, workers=NPROC)
        if not (np.array_equal(one.counts, many.counts)
                and np.array_equal(one.trial_indices, many.trial_indices)):
            return [f"determinism: counts or trial_indices differ between "
                    f"workers=1 and workers={NPROC}"]
        return []

    def run_pass(self, k: int, in_process: bool) -> PassResult:
        t0 = perf_counter()
        try:
            st = mc.run_ensemble(self.basis, self.model, self.region,
                                 self.trials, sub_seed(self.seed, k), workers=1)
        except OpuczError as exc:
            return PassResult(perf_counter() - t0, 0, self.trials, self.trials,
                              error=f"pass {k}: {type(exc).__name__}: {exc}")
        wall = perf_counter() - t0
        return PassResult(wall, int(st.counts.size), self.trials,
                          st.excluded + st.audit_mismatches, output=st)

    def check(self, outputs: list) -> tuple:
        """(checks attempted, failure messages) over a run's passes."""
        fails = []
        mism = sum(st.audit_mismatches for st in outputs)
        if mism:
            fails.append(f"audit: {mism} argument-principle audits disagree")
        excl = sum(st.excluded for st in outputs)
        tried = sum(st.trials for st in outputs)
        if excl > mc.EXCLUSION_BUDGET * tried:
            fails.append(f"exclusions: {excl} of {tried} trials")
        counts = np.concatenate([st.counts for st in outputs])
        var = float(counts.var(ddof=1))
        rng = np.random.default_rng(sub_seed(self.seed, BOOTSTRAP_KEY))
        idx = rng.integers(0, counts.size, (BOOTSTRAP_RESAMPLES, counts.size))
        se_var = float(counts[idx].var(axis=1, ddof=1).std(ddof=1))
        want = expected_variance()
        if not abs(var - want) <= 4 * se_var:
            fails.append(f"variance: {var:.6g} over {counts.size} trials is "
                         f"not within 4 * {se_var:.3g} of the limit {want:.6g}")
        return 3, fails

    def same_output(self, a, b) -> bool:
        return (np.array_equal(a.counts, b.counts)
                and np.array_equal(a.trial_indices, b.trial_indices))

    def peak_rss_mb(self, results: list) -> float:
        return _self_peak_rss_mb()


# ---------------------------------------------------------------------------
# convergence-sector: the `opucz convergence` command in a subprocess
# ---------------------------------------------------------------------------


def _process_tree(root_pid: int) -> list:
    """root_pid and all its descendants."""
    parent = {pid: ppid for pid, (ppid, _, _) in processes().items()}
    tree = [root_pid]
    for pid in tree:  # grows while it is walked: breadth-first descent
        tree.extend(c for c, p in parent.items() if p == pid)
    return tree


def _tree_rss_mb(root_pid: int) -> float:
    total = 0
    for pid in _process_tree(root_pid):
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1])
        except OSError:
            continue
    return total * _PAGE_MB


def run_command(cmd: list, timeout: float = CLI_TIMEOUT_S):
    """(exit code, wall s, peak summed RSS MB of the tree, stdout, stderr).

    RSS is sampled every 0.1 s over the process and its descendants (the
    spawn pool's workers); the wall time is taken from the blocking wait,
    not from the sampler.
    """
    stop = threading.Event()
    peak = [0.0]
    t0 = perf_counter()
    # a session of its own, so that the command's whole tree, orphans such
    # as its pool's resource tracker included, can be found and waited for
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)

    def sample():
        while True:
            peak[0] = max(peak[0], _tree_rss_mb(proc.pid))
            if stop.wait(0.1):
                return

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        wall = perf_counter() - t0
        stop.set()
        sampler.join()
        reap_group(proc.pid)
    return proc.returncode, wall, peak[0], out, err


class ConvergenceSector:
    name = "convergence-sector"
    processes = NPROC  # a timed pass runs a pool of nproc workers
    family = "weight:jacobi:pi:1"
    region = "sector:0.5:0:pi/2"

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.ns = (10, 40, 160) if tiny else (25, 50, 100, 200)
        self.trials = 16 if tiny else 35
        self.out_dir = out_dir

    @property
    def setup_code(self) -> str:
        return ("import opucz.cli\n"
                "from opucz.opuc import alpha_family\n"
                f"alpha_family({self.family!r}).build({max(self.ns)})\n")

    def traced_setup(self) -> None:
        opuc.alpha_family(self.family).build(max(self.ns))

    def prepare(self) -> None:
        pass

    def preflight(self) -> list:
        return []

    def _argv(self, k: int, threads: int, prefix: Path) -> list:
        return ["convergence", "--alphas", self.family, "--region", self.region,
                "--ns", ",".join(map(str, self.ns)),
                "--trials", str(self.trials),
                "--seed", str(sub_seed(self.seed, k)),
                "--threads", str(threads), "--out", str(prefix)]

    def run_pass(self, k: int, in_process: bool) -> PassResult:
        """One whole command.  In-process means one worker and no subprocess,
        which is how the traced run sees inside it."""
        prefix = self.out_dir / f"conv-{k}"
        artifacts = [Path(f"{prefix}{suffix}")
                     for suffix in (".csv", ".svg", ".summary.json")]
        for path in artifacts:
            path.unlink(missing_ok=True)
        ops = self.trials * len(self.ns)
        peak = 0.0
        if in_process:
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self._argv(k, 1, prefix))
            wall = perf_counter() - t0
            out, err = buf.getvalue(), ""
        else:
            cmd = [sys.executable, "-m", "opucz.cli",
                   *self._argv(k, NPROC, prefix)]
            code, wall, peak, out, err = run_command(cmd)
        if code != 0:
            return PassResult(wall, 0, ops, ops, error=f"command {k} exited "
                              f"{code}: {err.strip()[-300:]}")
        csv_text = artifacts[0].read_text(encoding="utf-8")
        rows = [(int(r["n"]), float(r["mean_abs_dev"]), float(r["var_over_n2"]))
                for r in csv.DictReader(io.StringIO(csv_text))]
        problems = []
        if out != csv_text:
            problems.append("stdout differs from the CSV artifact")
        problems += [f"missing {path.name}" for path in artifacts[1:]
                     if not path.is_file()]
        if [r[0] for r in rows] != list(self.ns):
            problems.append(f"CSV degrees {[r[0] for r in rows]}")
        if problems:
            return PassResult(wall, 0, ops, ops,
                              error=f"command {k}: " + "; ".join(problems))
        return PassResult(wall, ops, ops, 0, output=rows, peak_rss_mb=peak)

    def check(self, outputs: list) -> tuple:
        """Pooled over the run's commands, which all use the same trials."""
        fails = []
        table = np.array(outputs)  # commands x degrees x (n, dev, var/n^2)
        dev = table[:, :, 1].mean(axis=0)
        var_top = float(table[:, -1, 2].mean())
        if not np.all(np.diff(dev) < 0):
            fails.append(f"mean_abs_dev does not strictly decrease over "
                         f"n = {list(self.ns)}: {dev.tolist()}")
        if not var_top < 0.01:
            fails.append(f"var_over_n2 = {var_top:.4g} at n = {self.ns[-1]} "
                         "is not below 0.01")
        return 2, fails

    def same_output(self, a, b) -> bool:
        return a == b

    def peak_rss_mb(self, results: list) -> float:
        return float(np.median([r.peak_rss_mb for r in results]))


# ---------------------------------------------------------------------------
# formulas-grid: kernels, intensities and variance limits, in-process
# ---------------------------------------------------------------------------


class FormulasGrid:
    name = "formulas-grid"
    processes = 1  # a timed pass runs in this process
    family = "decay:1:1"
    KERNEL_RTOL = 1e-9  # criterion 6
    VARIANCE_ATOL = 1e-8  # criterion 7

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.rho_n = 40 if tiny else 160
        self.kernel_n = 20 if tiny else 100

    @property
    def setup_code(self) -> str:
        return ("from opucz import intensity, kernel, varlim\n"
                "from opucz.opuc import alpha_family\n"
                f"alpha_family({self.family!r}).build({self.rho_n + 1})\n")

    def traced_setup(self) -> None:
        opuc.alpha_family(self.family).build(self.rho_n + 1)

    def prepare(self) -> None:
        self.basis = opuc.alpha_family(self.family).build(self.rho_n + 1)
        rng = np.random.default_rng(self.seed & (2**64 - 1))

        def polar(lo, hi):
            return rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random())

        self.points = ([polar(0.05, 0.9) for _ in range(8)]
                       + [polar(1.1, 1.6) for _ in range(8)])
        pairs = []
        while len(pairs) < 4:  # same side, away from z conj(w) = 1
            z, w = polar(0.05, 0.9), polar(0.05, 0.9)
            if abs(1 - z * np.conj(w)) > 0.1:
                pairs.append((z, w))
        for _ in range(4):  # within 0.1 of the curve: rho2_n falls back
            z = polar(0.6, 0.9)
            d = polar(0.02, 0.09)
            pairs.append((z, (1 - d) / np.conj(z)))  # 1 - z conj(w) = conj(d)
        self.pairs = pairs
        self.annuli = VARLIM_ANNULI

    def preflight(self) -> list:
        warm = self.run_pass(-1, True)
        return [warm.error] if warm.error else self._problems(warm.output)

    def run_pass(self, k: int, in_process: bool) -> PassResult:
        b, n, kn = self.basis, self.rho_n, self.kernel_n
        ops = len(self.points) + 3 * len(self.pairs) + 3 * len(self.annuli)
        t0 = perf_counter()
        try:
            out = {
                "rho1": [intensity.rho1_n(b, z, n=n).value for z in self.points],
                "rho2": [intensity.rho2_n(b, z, w, n=n).value
                         for z, w in self.pairs],
                "kernel": [(kernel.kernel_cd(b, z, w, n=kn),
                            kernel.kernel_direct(b, z, w, n=kn))
                           for z, w in self.pairs],
                "variance": [(varlim.var_limit_closed(s, t).value,
                              varlim.var_limit_series(s, t).value,
                              varlim.var_limit_quadrature(s, t).value)
                             for s, t in self.annuli],
            }
        except OpuczError as exc:
            return PassResult(perf_counter() - t0, 0, ops, ops,
                              error=f"pass {k}: {type(exc).__name__}: {exc}")
        return PassResult(perf_counter() - t0, ops, ops, 0, output=out)

    def _problems(self, out: dict) -> list:
        bad = []
        if not np.all(np.isfinite(out["rho1"] + out["rho2"])):
            bad.append("non-finite intensity")
        for (z, w), (cd, direct) in zip(self.pairs, out["kernel"]):
            for name in ("K", "K01", "K11"):
                a, e = getattr(direct, name), getattr(cd, name)
                if not abs(a - e) <= self.KERNEL_RTOL * max(1.0, abs(a)):
                    bad.append(f"kernel routes disagree on {name} at "
                               f"z={z:.6g}, w={w:.6g}: {a} vs {e}")
        for (s, t), vals in zip(self.annuli, out["variance"]):
            if not max(vals) - min(vals) <= self.VARIANCE_ATOL:
                bad.append(f"variance routes disagree on ({s:.6g}, {t:.6g}): "
                           f"{vals}")
        return bad

    def check(self, outputs: list) -> tuple:
        fails = []
        for out in outputs:
            fails.extend(f for f in self._problems(out) if f not in fails)
        return 3, fails

    def same_output(self, a, b) -> bool:
        return (a["rho1"] == b["rho1"] and a["rho2"] == b["rho2"]
                and a["variance"] == b["variance"]
                and all((x.K, x.K01, x.K11) == (y.K, y.K01, y.K11)
                        for pa, pb in zip(a["kernel"], b["kernel"])
                        for x, y in zip(pa, pb)))

    def peak_rss_mb(self, results: list) -> float:
        return _self_peak_rss_mb()


WORKLOADS = {w.name: w for w in (EnsembleAnnulus, ConvergenceSector,
                                 FormulasGrid)}


# ---------------------------------------------------------------------------
# tracing: what is wrapped, and the per-layer metrics read off the spans
# ---------------------------------------------------------------------------


def _ensemble_info(st) -> dict:
    return {"audited": st.audited, "mismatches": st.audit_mismatches,
            "flagged": st.audit_flagged, "excluded": st.excluded}


def trace_targets() -> list:
    """(owner, attribute, span name, result hook) for every wrapped call.

    The owner is the namespace the caller reads the name from; the span is
    named after the module that defines the function.
    """
    return [
        (cli, "main", "cli.main", None),
        (cli, "convergence_study", "mc.convergence_study", None),
        (mc, "run_ensemble", "mc.run_ensemble", _ensemble_info),
        (mc, "sample_poly", "mc.sample_poly", None),
        (mc, "roots", "zerocount.roots", None),
        (mc, "count_in_region", "zerocount.count_in_region", None),
        (mc, "count_by_argument_principle",
         "zerocount.count_by_argument_principle", None),
        (mc, "regularity_report", "opuc.regularity_report", None),
        (opuc, "eval_poly", "cpoly.eval_poly", None),
        (opuc.AlphaFamily, "alphas", "opuc.alphas", None),
        (opuc.AlphaFamily, "build", "opuc.build", None),
        (opuc.OpucBasis, "values_at", "opuc.values_at", None),
        (intensity, "rho1_n", "intensity.rho1_n", None),
        (intensity, "rho2_n", "intensity.rho2_n", None),
        (intensity, "kernel_cd", "kernel.kernel_cd", None),
        (intensity, "kernel_direct", "kernel.kernel_direct", None),
        (kernel, "kernel_cd", "kernel.kernel_cd", None),
        (kernel, "kernel_direct", "kernel.kernel_direct", None),
        (varlim, "var_limit_closed", "varlim.var_limit_closed", None),
        (varlim, "var_limit_series", "varlim.var_limit_series", None),
        (varlim, "var_limit_quadrature", "varlim.var_limit_quadrature", None),
    ]


def per_layer_metrics(ix: SpanIndex, passes: int, overhead: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, as {name: (value, unit)}.

    Durations and counts come from spans below the traced passes; `calls`
    and error tallies are per pass.  A layer that never ran reports 0.
    """
    m = {}
    pass_wall = float(ix.dur[ix.roots("bench.pass")].sum())

    def dur(name, **kw):
        return ix.dur[ix.select(name, **kw)]

    def per_pass(ids):
        return len(ids) / passes

    def errors(name, kind):
        return [i for i in ix.select(name) if ix.spans[i].error == kind]

    def median_self(name):
        return quantile(ix.self_time[ix.select(name)], 0.5)

    roots = dur("zerocount.roots")
    m["zerocount.roots.ms_p50"] = (quantile(roots, 0.5) * 1e3, "ms")
    m["zerocount.roots.ms_p99"] = (quantile(roots, 0.99) * 1e3, "ms")
    m["zerocount.roots.calls"] = (per_pass(roots), "count")
    m["zerocount.roots.refused"] = (per_pass(errors("zerocount.roots", "NoConvergence")),
                                    "count")
    m["zerocount.roots.busy_share"] = (float(roots.sum()) / pass_wall, "ratio")

    ap = "zerocount.count_by_argument_principle"
    aud = dur(ap)
    m[f"{ap}.ms_p50"] = (quantile(aud, 0.5) * 1e3, "ms")
    m[f"{ap}.ms_max"] = (float(aud.max()) * 1e3 if aud.size else 0.0, "ms")
    m[f"{ap}.calls"] = (per_pass(aud), "count")
    m[f"{ap}.flagged"] = (per_pass(errors(ap, "BoundaryProximity")), "count")
    infos = [ix.spans[i].info for i in ix.select("mc.run_ensemble")
             if ix.spans[i].info]
    tried = sum(x["audited"] + x["flagged"] for x in infos)
    agreed = sum(x["audited"] - x["mismatches"] for x in infos)
    m["zerocount.audit_agree_ratio"] = (agreed / tried if tried else 0.0,
                                        "ratio")

    for name, unit, scale in (("zerocount.count_in_region", "us", 1e6),
                              ("mc.sample_poly", "us", 1e6),
                              ("opuc.values_at", "us", 1e6),
                              ("kernel.kernel_cd", "us", 1e6),
                              ("kernel.kernel_direct", "us", 1e6)):
        d = dur(name)
        m[f"{name}.{unit}_p50"] = (quantile(d, 0.5) * scale, unit)
        m[f"{name}.calls"] = (per_pass(d), "count")

    m["mc.run_ensemble.self_s"] = (median_self("mc.run_ensemble"), "s")
    m["mc.convergence_study.self_s"] = (median_self("mc.convergence_study"),
                                        "s")
    setups = ix.roots("bench.setup")
    for name in ("opuc.alphas", "opuc.build"):
        per_setup = [ix.total_under(name, r) for r in setups]
        m[f"{name}.ms"] = (quantile(per_setup, 0.5) * 1e3, "ms")
    m["opuc.regularity_report.ms"] = (
        quantile(dur("opuc.regularity_report"), 0.5) * 1e3, "ms")
    m["cpoly.eval_poly.calls"] = (per_pass(dur("cpoly.eval_poly")), "count")

    m["intensity.rho1_n.us_p50"] = (
        quantile(dur("intensity.rho1_n"), 0.5) * 1e6, "us")
    m["intensity.rho2_n.us_p50"] = (
        quantile(dur("intensity.rho2_n"), 0.5) * 1e6, "us")
    m["intensity.rho2_n.self_us"] = (median_self("intensity.rho2_n") * 1e6,
                                     "us")
    direct = len(ix.select("kernel.kernel_direct", parent="intensity.rho2_n"))
    closed = len(ix.select("kernel.kernel_cd", parent="intensity.rho2_n"))
    m["intensity.direct_fallback_ratio"] = (
        direct / (direct + closed) if direct + closed else 0.0, "ratio")
    for route in ("closed", "series", "quadrature"):
        name = f"varlim.var_limit_{route}"
        m[f"{name}.us_p50"] = (quantile(dur(name), 0.5) * 1e6, "us")

    m["cli.main.self_s"] = (median_self("cli.main"), "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m
