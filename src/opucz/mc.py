"""Reproducible Monte Carlo ensembles of zero counts.

Determinism contract: trial t draws its coefficients from a counter-based
generator keyed by seed XOR splitmix64(t), so the counts sequence depends
only on (seed, configuration) and never on scheduling or worker count.
The trials are cut into consecutive blocks of at most BLOCK indices, as
equal in size as can be, whose edges depend on the trial count alone; the
roots of a block are found together (zerocount.roots on its coefficient
rows), and a row's roots never depend on the other rows.  The blocks form
one queue of jobs.  The calling process drains it itself, next to
min(workers, CPUs this process may use) - 1 helpers, forked on Linux and
spawned elsewhere: each process claims the next job from one shared index
until none is left, so `workers` counts the calling process, and one
worker drains the queue alone with a plain local index.  Results are
merged by job index, so the counts are identical for any worker count by
construction.  A convergence study builds every degree's basis first and
queues the blocks of all its degrees at once, largest degree first, so no
process waits at a per-degree barrier.

The rootfinder is the count of record; on a 1% subsample of trials (the
indices divisible by AUDIT_STRIDE) the argument-principle count audits it,
inside the block that holds the trial and on the coefficients the block
drew.  An audit that disagrees fails the ensemble (AuditMismatch, naming
the trials); one that cannot settle (BoundaryProximity) is counted as
flagged.  Trials whose roots cannot be certified (NoConvergence,
degenerate leading coefficient) are recorded as exclusions, each with the
class name of the error that refused it; more than 0.1% of them aborts the
ensemble rather than biasing it quietly.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import multiprocessing as _mp

import numpy as np

from .errors import (AuditMismatch, BoundaryProximity,
                     ExclusionBudgetExceeded, UsageError)
# regularity_report is not called here; perfbench traces it under this name
from .opuc import AlphaFamily, OpucBasis, regularity_report
from .zerocount import (
    Region,
    ZeroSet,
    count_by_argument_principle,
    count_in_region,
    roots,
)

_M64 = (1 << 64) - 1
_BOOT_SALT = 0x0B00757261700000  # distinct stream for the bootstrap resampler
BOOTSTRAP_RESAMPLES = 1000
AUDIT_STRIDE = 100
EXCLUSION_BUDGET = 1e-3
BLOCK = 32  # most trials whose roots are found together


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer; a bijective 64-bit mix."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def trial_seed(seed: int, t: int) -> int:
    return (seed & _M64) ^ splitmix64(t)


@dataclass
class CoeffModel:
    """Coefficient law with mean 0 and E|eta|^2 = 1."""

    kind: str

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "complex_gaussian":
            re = rng.standard_normal(count)
            im = rng.standard_normal(count)
            return (re + 1j * im) / math.sqrt(2)
        if self.kind == "uniform_disk":
            # uniform on the disk of radius sqrt(2): E|eta|^2 = R^2/2 = 1
            r = np.sqrt(2.0 * rng.random(count))
            th = 2 * np.pi * rng.random(count)
            return r * np.exp(1j * th)
        if self.kind == "quaternary":
            table = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2)
            return table[rng.integers(0, 4, count)]
        raise UsageError(f"unknown coefficient model {self.kind!r}")


def coeff_model(name: str) -> CoeffModel:
    canon = {
        "gaussian": "complex_gaussian",
        "complex_gaussian": "complex_gaussian",
        "uniform_disk": "uniform_disk",
        "uniform-disk": "uniform_disk",
        "quaternary": "quaternary",
    }.get(name.strip().lower())
    if canon is None:
        raise UsageError(f"unknown coefficient model {name!r}")
    return CoeffModel(canon)


def sample_poly(basis: OpucBasis, model: CoeffModel, trial_seed: int) -> np.ndarray:
    """The coefficients eta_0..eta_n of one random combination sum eta_k phi_k."""
    rng = np.random.Generator(np.random.Philox(key=trial_seed & _M64))
    return model.draw(rng, basis.order + 1)


@dataclass
class EnsembleStats:
    counts: np.ndarray
    mean: float
    variance: float
    se_mean: float
    se_var: float
    seed: int
    n: int
    trials: int
    region: Region
    trial_indices: np.ndarray = None  # original trial index of each count
    excluded: int = 0
    excluded_trials: Tuple[int, ...] = ()
    # the class name of the error that refused each excluded trial
    exclusion_reasons: Tuple[str, ...] = ()
    audited: int = 0
    audit_mismatches: int = 0  # a mismatch raises AuditMismatch instead
    audit_flagged: int = 0
    # the largest ZeroSet residual of a counted trial's roots; above 4(n+1)
    # eps only for a root certified by its Newton correction (see ZeroSet)
    worst_residual: float = 0.0
    # the blocks that each process drained from the queue this ensemble was
    # solved in (a convergence study queues every degree in one), this
    # process first, and how its helpers were started: "fork", "spawn", or
    # None when no helper ran
    blocks_claimed: Tuple[int, ...] = ()
    start_method: str = None
    # each of those processes' peak resident set size in MB when its drain
    # ended, in the same order; None where the platform has no `resource`
    peak_rss_mb: Tuple[Optional[float], ...] = ()

    @property
    def processes(self) -> int:
        """This process plus the helpers it started."""
        return len(self.blocks_claimed)


def _block_counts(job) -> tuple:
    """Counts of trials lo..hi-1, with the class name of the refusing error
    in place of the count where a trial's roots were refused, and the
    (audited, mismatched trial ids, flagged, worst residual) tally: the
    block's audits and the largest residual of its counted roots."""
    basis, model, region, seed, lo, hi = job
    etas = np.array([sample_poly(basis, model, trial_seed(seed, t))
                     for t in range(lo, hi)])
    found = roots(basis, etas)
    counts = [count_in_region(zs, region) if isinstance(zs, ZeroSet)
              else type(zs).__name__ for zs in found]
    worst = max((float(np.max(zs.residuals, initial=0.0)) for zs in found
                 if isinstance(zs, ZeroSet)), default=0.0)
    audited = flagged = 0
    mismatched = []
    for eta, count, t in zip(etas, counts, range(lo, hi)):
        if t % AUDIT_STRIDE or isinstance(count, str):
            continue
        try:
            check = count_by_argument_principle(basis, eta, region)
        except BoundaryProximity:
            flagged += 1
            continue
        audited += 1
        if check != count:
            mismatched.append(t)
    return counts, (audited, mismatched, flagged, worst)


def _blocks(trials: int) -> list:
    """Consecutive blocks of at most BLOCK trial indices, as equal as can be;
    the edges depend on `trials` alone."""
    edges = np.linspace(0, trials, -(-trials // BLOCK) + 1).astype(int)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _claim(index) -> int:
    """The next job of a shared index, which it then moves on by one."""
    with index.get_lock():
        i = index.value
        index.value = i + 1
    return i


def _drain(jobs: list, next_job) -> dict:
    """{job index: _block_counts(job)} for each index next_job() hands out,
    until it hands out one past the last job."""
    done = {}
    i = next_job()
    while i < len(jobs):
        done[i] = _block_counts(jobs[i])
        i = next_job()
    return done


def _peak_rss_mb() -> Optional[float]:
    """This process's peak resident set size so far, in MB (2**20 bytes),
    or None without the `resource` module (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB on Linux
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


_shared_index = None  # a helper process's handle on the parent's job index


def _helper_init(index) -> None:
    global _shared_index
    _shared_index = index


def _helper_drain(jobs: list) -> tuple:
    """(_drain from the shared index, _peak_rss_mb at its end)."""
    return _drain(jobs, functools.partial(_claim, _shared_index)), _peak_rss_mb()


def _solve(jobs: list, workers: int) -> tuple:
    """(_block_counts of every job in job order, the number of jobs each
    process that ran drained, this one first, each one's _peak_rss_mb when
    its drain ended, in the same order, and the helpers' start method or
    None).

    This process drains the queue next to min(workers, CPUs) - 1 helpers,
    all claiming from one shared index; alone, it drains it with a local
    one.  The jobs are fixed beforehand, so the bound changes no count.
    The shared index lives only as long as the pool.

    The helpers are forked on Linux and spawned elsewhere.  A forked
    helper starts with this process's imported modules and claims its
    first job within milliseconds, where a spawned one first spends a few
    tenths of a second importing numpy and this package again.  The pool
    forks all its helpers before it starts its manager thread, and
    multiprocessing flushes stdout and stderr before each fork, so no
    buffered output is written twice.  Windows has no fork, and on macOS a
    forked child of a process that has used the system frameworks may
    crash, so there the helpers are spawned."""
    helpers = min(workers, _cpus()) - 1
    method = None
    if helpers == 0:
        drained = [_drain(jobs, itertools.count().__next__)]
        peaks = [_peak_rss_mb()]
    else:
        method = "fork" if sys.platform.startswith("linux") else "spawn"
        ctx = _mp.get_context(method)
        index = ctx.Value("q", 0)
        with ProcessPoolExecutor(max_workers=helpers, mp_context=ctx,
                                 initializer=_helper_init,
                                 initargs=(index,)) as pool:
            futures = [pool.submit(_helper_drain, jobs)
                       for _ in range(helpers)]
            drained = [_drain(jobs, functools.partial(_claim, index))]
            peaks = [_peak_rss_mb()]
            for future in futures:
                part, peak = future.result()
                drained.append(part)
                peaks.append(peak)
    done = {i: result for part in drained for i, result in part.items()}
    return ([done[i] for i in range(len(jobs))],
            [len(part) for part in drained], peaks, method)


def run_ensemble(basis: OpucBasis, model: CoeffModel, region: Region,
                 trials: int, seed: int, workers: int = 1) -> EnsembleStats:
    """Count zeros in `region` over `trials` independent samples.

    Identical (seed, config) give bit-identical counts for any `workers`.
    The seed must lie in [0, 2^64).
    """
    _check_run(trials, workers, seed)
    done, claimed, peaks, method = _solve(
        [(basis, model, region, seed, lo, hi) for lo, hi in _blocks(trials)],
        workers)
    return _stats(basis, region, trials, seed, done, claimed, peaks, method)


def _check_run(trials: int, workers: int, seed: int) -> None:
    if trials < 2:
        raise UsageError("need at least 2 trials")
    if workers < 1:
        raise UsageError("workers must be >= 1")
    if not 0 <= seed <= _M64:
        raise UsageError(f"seed must be in [0, 2^64), got {seed}")


def _stats(basis, region, trials, seed, done, blocks_claimed, peak_rss_mb,
           start_method) -> EnsembleStats:
    """The ensemble of one basis from its blocks' results, in trial order."""
    raw = [c for counts, _ in done for c in counts]
    audited = sum(tally[0] for _, tally in done)
    mismatched = [t for _, tally in done for t in tally[1]]
    flagged = sum(tally[2] for _, tally in done)
    worst = max(tally[3] for _, tally in done)

    excluded = [(t, c) for t, c in enumerate(raw) if isinstance(c, str)]
    excluded_trials = tuple(t for t, _ in excluded)
    if len(excluded_trials) > EXCLUSION_BUDGET * trials:
        raise ExclusionBudgetExceeded(
            f"{len(excluded_trials)} of {trials} trials excluded")
    if mismatched:
        raise AuditMismatch(
            f"n = {basis.order}: the argument-principle count differs from "
            f"the root count on trials {', '.join(map(str, mismatched))}")
    counts = np.array([c for c in raw if not isinstance(c, str)],
                      dtype=np.int64)
    kept = np.array([t for t, c in enumerate(raw) if not isinstance(c, str)],
                    dtype=np.int64)

    m = counts.size
    mean = float(counts.mean())
    variance = float(counts.var(ddof=1))
    se_mean = float(counts.std(ddof=1) / math.sqrt(m))
    boot_rng = np.random.Generator(
        np.random.Philox(key=splitmix64(seed ^ _BOOT_SALT)))
    # resample indices in chunks of about 2**16, not GBs at once: the draws
    # continue one stream, so they are those of one (resamples, m) draw
    step = max(1, 2 ** 16 // m)
    boot_vars = np.concatenate([counts[boot_rng.integers(0, m, size=(
        min(step, BOOTSTRAP_RESAMPLES - lo), m))].var(axis=1, ddof=1)
        for lo in range(0, BOOTSTRAP_RESAMPLES, step)])
    se_var = float(boot_vars.std(ddof=1))

    return EnsembleStats(
        counts=counts, mean=mean, variance=variance, se_mean=se_mean,
        se_var=se_var, seed=seed, n=basis.order, trials=trials, region=region,
        trial_indices=kept, excluded=len(excluded_trials),
        excluded_trials=excluded_trials,
        exclusion_reasons=tuple(c for _, c in excluded), audited=audited,
        audit_flagged=flagged, worst_residual=worst,
        blocks_claimed=tuple(blocks_claimed), start_method=start_method,
        peak_rss_mb=tuple(peak_rss_mb))


@dataclass
class ConvergenceRow:
    n: int
    mean_abs_dev: float
    var_over_n2: float
    envelope_sqrtlogn: float
    envelope_eps14: float
    stats: EnsembleStats = field(repr=False, default=None)


def convergence_study(basis_family: AlphaFamily, model: CoeffModel,
                      region: Region, ns: Sequence[int], trials: int,
                      seed: int, workers: int = 1) -> list:
    """Sector-count deviations against the angular fraction, one row per n.

    Rows report E|N_n/n - (beta-alpha)/(2 pi)| and Var[N_n]/n^2 next to the
    reference envelopes sqrt(log n / n) and max(sqrt(log n / n), eps_n^(1/4)).
    The same master seed drives every row (common random numbers), which
    sharpens trend comparisons across n without touching per-row validity.
    """
    ns = list(ns)
    if any(b <= a for a, b in zip(ns, ns[1:])) or not ns:
        raise UsageError("ns must be strictly increasing and non-empty")
    if ns[0] < 1:
        raise UsageError("degrees must be >= 1")
    if region.kind != "sector":
        raise UsageError("convergence study needs a sector region")
    frac = region.angular_fraction()
    _check_run(trials, workers, seed)
    bases = [basis_family.build(n) for n in ns]
    blocks = _blocks(trials)
    # one queue for every degree, largest first: its blocks take longest
    done, claimed, peaks, method = _solve(
        [(basis, model, region, seed, lo, hi) for basis in reversed(bases)
         for lo, hi in blocks], workers)
    per_degree = [done[at:at + len(blocks)]
                  for at in range(0, len(done), len(blocks))][::-1]
    rows = []
    for n, basis, blocks_done in zip(ns, bases, per_degree):
        stats = _stats(basis, region, trials, seed, blocks_done, claimed,
                       peaks, method)
        dev = float(np.mean(np.abs(stats.counts / n - frac)))
        eps_n = math.log(basis.kappas[n]) / n
        env1 = math.sqrt(math.log(n) / n) if n > 1 else 1.0
        env2 = max(env1, eps_n ** 0.25 if eps_n > 0 else 0.0)
        rows.append(ConvergenceRow(
            n=n, mean_abs_dev=dev, var_over_n2=stats.variance / n**2,
            envelope_sqrtlogn=env1, envelope_eps14=env2, stats=stats))
    return rows
