import math
import multiprocessing
import os
import sys
import tracemalloc
import types
from concurrent.futures import Future

import numpy as np
import pytest

import opucz.mc as mc
from opucz.errors import (AuditMismatch, BoundaryProximity,
                          DegenerateLeadingCoefficient,
                          ExclusionBudgetExceeded, NoConvergence, UsageError)
from opucz.intensity import rho1_n
from opucz.mc import (
    CoeffModel,
    coeff_model,
    convergence_study,
    run_ensemble,
    sample_poly,
    trial_seed,
)
from opucz.opuc import alpha_family, eval_poly, regularity_report
from opucz.varlim import var_limit_closed
from opucz.zerocount import Region, count_in_region, roots

QUARTER = Region.sector(0.5, 0.0, np.pi / 2)


def test_same_trial_seed_identical_coeffs():
    basis = alpha_family("zero").build(12)
    model = coeff_model("gaussian")
    a = sample_poly(basis, model, trial_seed(42, 7))
    b = sample_poly(basis, model, trial_seed(42, 7))
    assert np.array_equal(a, b)


def test_free_basis_coeffs_equal_draws():
    # phi_k = z^k, so the combination's coefficients are the raw draws
    basis = alpha_family("zero").build(9)
    model = coeff_model("gaussian")
    ts = trial_seed(5, 3)
    rng = np.random.Generator(np.random.Philox(key=ts))
    eta = model.draw(rng, 10)
    got = sample_poly(basis, model, ts)
    assert np.array_equal(got, eta)
    z = np.array([0.3 - 0.1j, -0.8j, 1.2 + 0.5j])
    p, _ = eval_poly(basis, got, z)
    plain = np.polyval(eta[::-1], z)
    assert np.allclose(np.where(np.abs(z) > 1, p * z**9, p), plain, rtol=1e-13)


@pytest.mark.parametrize("name", ["gaussian", "uniform_disk", "quaternary"])
def test_model_moments(name):
    model = coeff_model(name)
    rng = np.random.Generator(np.random.Philox(key=2024))
    eta = model.draw(rng, 100_000)
    n = eta.size
    for comp in (eta.real, eta.imag):
        se = comp.std(ddof=1) / math.sqrt(n)
        assert abs(comp.mean()) <= 3 * max(se, 1.0 / math.sqrt(2 * n))
    sq = np.abs(eta) ** 2
    se2 = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - 1.0) <= 3 * max(se2, 1e-12)


def test_coeff_model_names():
    assert coeff_model("gaussian").kind == "complex_gaussian"
    assert coeff_model("uniform-disk").kind == "uniform_disk"
    with pytest.raises(UsageError):
        coeff_model("cauchy")
    with pytest.raises(UsageError):
        CoeffModel("nope").draw(np.random.default_rng(0), 3)


def test_counts_bounds_and_rerun_determinism():
    basis = alpha_family("zero").build(20)
    stats = run_ensemble(basis, coeff_model("gaussian"),
                         Region.annulus(0.0, 0.5), trials=100, seed=7)
    assert np.all(stats.counts >= 0) and np.all(stats.counts <= 20)
    again = run_ensemble(basis, coeff_model("gaussian"),
                         Region.annulus(0.0, 0.5), trials=100, seed=7)
    assert np.array_equal(stats.counts, again.counts)
    assert stats.variance >= 0
    assert stats.excluded == 0
    assert np.array_equal(stats.trial_indices, np.arange(100))


def test_worker_count_does_not_change_counts():
    basis = alpha_family("constant:0.3").build(15)
    reg = Region.annulus(0.0, 0.7)
    one = run_ensemble(basis, coeff_model("gaussian"), reg, trials=30, seed=9,
                       workers=1)
    two = run_ensemble(basis, coeff_model("gaussian"), reg, trials=30, seed=9,
                       workers=2)
    assert np.array_equal(one.counts, two.counts)


def test_smallest_legal_ensemble():
    basis = alpha_family("zero").build(10)
    stats = run_ensemble(basis, coeff_model("gaussian"),
                         Region.annulus(0.0, 0.5), trials=2, seed=1)
    for x in (stats.mean, stats.variance, stats.se_mean, stats.se_var):
        assert np.isfinite(x)
    with pytest.raises(UsageError):
        run_ensemble(basis, coeff_model("gaussian"),
                     Region.annulus(0.0, 0.5), trials=1, seed=1)


@pytest.mark.parametrize("c", [2.0, 1j])
def test_scale_invariance_of_counts(c):
    # c = 2 and c = 1j are exact in floating point, so counts match per trial
    basis = alpha_family("zero").build(15)
    model = coeff_model("gaussian")
    reg = Region.annulus(0.0, 0.7)
    for t in range(25):
        eta = sample_poly(basis, model, trial_seed(31, t))
        assert count_in_region(roots(basis, eta), reg) == \
            count_in_region(roots(basis, c * eta), reg)


def test_rotation_symmetry_of_sector_means():
    basis = alpha_family("zero").build(40)
    model = coeff_model("gaussian")
    gamma = 0.7
    a = run_ensemble(basis, model, Region.sector(0.5, 0.2, 0.2 + np.pi / 2),
                     trials=300, seed=11)
    b = run_ensemble(basis, model,
                     Region.sector(0.5, 0.2 + gamma, 0.2 + gamma + np.pi / 2),
                     trials=300, seed=12)
    se = math.hypot(a.se_mean, b.se_mean)
    assert abs(a.mean - b.mean) <= 3 * se


def test_variance_estimator_identity():
    basis = alpha_family("zero").build(18)
    stats = run_ensemble(basis, coeff_model("gaussian"),
                         Region.annulus(0.0, 0.6), trials=12, seed=3)
    c = stats.counts.astype(float)
    T = c.size
    plug_in = np.mean(c**2) - np.mean(c) ** 2
    assert stats.variance == pytest.approx(T / (T - 1) * plug_in, rel=1e-12)


def test_exclusion_budget(monkeypatch):
    basis = alpha_family("zero").build(5)
    model = coeff_model("gaussian")
    reg = Region.annulus(0.0, 0.5)

    orig = mc.roots
    monkeypatch.setattr(mc, "roots",
                        lambda b, etas: [NoConvergence("refused")] * len(etas))
    with pytest.raises(ExclusionBudgetExceeded):
        run_ensemble(basis, model, reg, trials=50, seed=0)

    # two exclusions in 2000 trials are inside the 0.1% budget, each kept
    # with the class name of the error that refused it
    refused = {sample_poly(basis, model, trial_seed(0, t)).tobytes(): err
               for t, err in ((1, NoConvergence("refused")),
                              (3, DegenerateLeadingCoefficient("lead")))}

    def refuse_trials(b, etas):
        return [refused.get(eta.tobytes(), zs)
                for eta, zs in zip(etas, orig(b, etas))]

    monkeypatch.setattr(mc, "roots", refuse_trials)
    stats = run_ensemble(basis, model, reg, trials=2000, seed=0)
    assert stats.excluded == 2
    assert stats.excluded_trials == (1, 3)
    assert stats.exclusion_reasons == ("NoConvergence",
                                       "DegenerateLeadingCoefficient")
    assert stats.counts.size == 1998
    assert list(stats.trial_indices[:3]) == [0, 2, 4]


def test_audit_runs_on_subsample():
    basis = alpha_family("zero").build(12)
    stats = run_ensemble(basis, coeff_model("gaussian"),
                         Region.annulus(0.0, 0.6), trials=250, seed=21)
    assert stats.audited + stats.audit_flagged == 3  # trials 0, 100, 200
    assert stats.audit_mismatches == 0


@pytest.mark.parametrize("fam,newton", [("decay:1:1", False),
                                        ("constant:0.5", True)])
def test_worst_residual_over_counted_trials(fam, newton):
    # the largest residual of any counted root; above 1e-8 only where a
    # root was certified by its Newton correction, as at the mass point
    # z = 1 of constant:0.5
    basis = alpha_family(fam).build(40)
    model = coeff_model("gaussian")
    stats = run_ensemble(basis, model, Region.annulus(0.0, 0.6), trials=40,
                         seed=3)
    want = max(float(np.max(roots(basis, sample_poly(
        basis, model, trial_seed(3, int(t)))).residuals))
        for t in stats.trial_indices)
    assert stats.worst_residual == want
    assert (stats.worst_residual > 1e-8) == newton


def test_mean_matches_intensity_integral():
    # E[N_n(A(0,0.5))] vs quadrature of the one-point intensity
    basis = alpha_family("zero").build(50)
    reg = Region.annulus(0.0, 0.5)
    x, w = np.polynomial.legendre.leggauss(24)
    r = 0.25 * x + 0.25
    wr = 0.25 * w
    thetas = 2 * np.pi * np.arange(16) / 16
    integral = 0.0
    for ri, wi in zip(r, wr):
        ring = sum(rho1_n(basis, ri * np.exp(1j * th)).value for th in thetas)
        integral += wi * ri * ring * (2 * np.pi / 16)
    stats = run_ensemble(basis, coeff_model("gaussian"), reg,
                         trials=400, seed=17)
    assert abs(stats.mean - integral) <= 3 * stats.se_mean


def test_convergence_rows_shape():
    rows = convergence_study(alpha_family("zero"), coeff_model("gaussian"),
                             QUARTER, [10, 20, 40], trials=120, seed=5)
    assert [r.n for r in rows] == [10, 20, 40]
    for r in rows:
        assert np.isfinite(r.mean_abs_dev) and r.mean_abs_dev >= 0
        assert np.isfinite(r.var_over_n2) and r.var_over_n2 >= 0
        assert r.envelope_sqrtlogn > 0
        assert r.envelope_eps14 >= r.envelope_sqrtlogn
    assert QUARTER.angular_fraction() == pytest.approx(0.25)


def test_convergence_validations():
    fam = alpha_family("zero")
    model = coeff_model("gaussian")
    with pytest.raises(UsageError):
        convergence_study(fam, model, QUARTER, [20, 10], 10, 0)
    with pytest.raises(UsageError):
        convergence_study(fam, model, QUARTER, [], 10, 0)
    with pytest.raises(UsageError):
        convergence_study(fam, model, Region.annulus(0, 0.5), [10, 20], 10, 0)


def test_seeds_outside_64_bits_are_refused():
    # a seed is a Philox key of 64 bits: 2^64 + 5 would run seed 5's
    # ensemble and -5 seed 2^64 - 5's under another name.  Both ends of
    # [0, 2^64) run
    fam, model = alpha_family("zero"), coeff_model("gaussian")
    basis = fam.build(5)
    for seed in (-5, -1, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(UsageError, match="seed"):
            run_ensemble(basis, model, Region.annulus(0.0, 0.5), 2, seed)
        with pytest.raises(UsageError, match="seed"):
            convergence_study(fam, model, QUARTER, [5], 2, seed)
    for seed in (0, 2 ** 64 - 1):
        assert run_ensemble(basis, model, Region.annulus(0.0, 0.5), 2,
                            seed).seed == seed
        assert convergence_study(fam, model, QUARTER, [5], 2,
                                 seed)[0].stats.seed == seed


def test_convergence_builds_each_degree_as_simulate_does(monkeypatch):
    # weight:cosine's alphas(n) is not a bit-exact prefix of alphas(m), so
    # every degree is built on its own, the basis `simulate --n` runs
    fam = alpha_family("weight:cosine")
    queued = []
    solve = mc._solve

    def spy(jobs, workers):
        queued.extend(job[0] for job in jobs)
        return solve(jobs, workers)

    monkeypatch.setattr(mc, "_solve", spy)
    convergence_study(fam, coeff_model("gaussian"), QUARTER, [10, 40, 80],
                      trials=2, seed=1)
    for n in (10, 40, 80):
        want = fam.build(n).alphas
        got = [b.alphas for b in queued if b.order == n]
        assert got and all(a.dtype == want.dtype and a.tobytes() == want.tobytes()
                           for a in got)


def test_slow_decay_uses_eps_envelope():
    # decay:1:0.25 keeps eps_n large, so the second envelope must switch;
    # eps_n is the regularity report's last epsilon, to the bit
    fam = alpha_family("decay:1:0.25")
    rows = convergence_study(fam, coeff_model("gaussian"), QUARTER,
                             [25, 50], trials=2, seed=1)
    for r in rows:
        eps_n = regularity_report(fam.build(r.n)).epsilons[-1]
        assert r.envelope_eps14 == eps_n ** 0.25 > r.envelope_sqrtlogn


def test_quaternary_and_disk_models_run():
    basis = alpha_family("zero").build(25)
    for name in ("quaternary", "uniform_disk"):
        stats = run_ensemble(basis, coeff_model(name),
                             Region.annulus(0.0, 0.5), trials=60, seed=13)
        assert np.all(stats.counts >= 0) and np.all(stats.counts <= 25)
        rerun = run_ensemble(basis, coeff_model(name),
                             Region.annulus(0.0, 0.5), trials=60, seed=13)
        assert np.array_equal(stats.counts, rerun.counts)


def test_quaternary_zero_family_has_no_zero_in_half_disk():
    # phi_k = z^k and |eta_k| = 1: on |z| = 1/2, |eta_0| = 1 exceeds
    # sum_{k >= 1} |eta_k z^k| = 1 - 2^-n, so by Rouche no zero lies in
    # |z| <= 1/2 -- an exact count for every trial, roots and audit alike
    stats = run_ensemble(alpha_family("zero").build(100),
                         coeff_model("quaternary"), Region.annulus(0.0, 0.5),
                         trials=300, seed=42)
    assert stats.excluded == 0 and stats.counts.size == 300
    assert not stats.counts.any()
    assert stats.audited > 0 and stats.audit_flagged == 0


def _sector_rate_gates(rows):
    """Criterion 5's gates: E|N_n/n - 1/4| falls strictly with n, Var[N_n]/n^2
    ends below 0.01, and no trial is excluded."""
    devs = [r.mean_abs_dev for r in rows]
    assert all(b < a for a, b in zip(devs, devs[1:])), devs
    assert rows[-1].var_over_n2 < 0.01
    assert not any(r.stats.excluded for r in rows)


@pytest.mark.parametrize("law", ["uniform_disk", "quaternary"])
@pytest.mark.parametrize("fam", ["zero", "weight:jacobi:pi:1"])
def test_sector_rates_hold_for_non_gaussian_coefficients(fam, law):
    # the sector estimate asks of eta only uniform fractional and
    # logarithmic moment bounds, which both laws meet
    rows = convergence_study(alpha_family(fam), coeff_model(law), QUARTER,
                             [25, 50, 100], trials=200, seed=42)
    _sector_rate_gates(rows)


def test_blocks_depend_on_trials_alone():
    for trials in (2, mc.BLOCK, mc.BLOCK + 1, 5 * mc.BLOCK - 3):
        blocks = mc._blocks(trials)
        assert blocks[0][0] == 0 and blocks[-1][1] == trials
        assert all(b[1] == c[0] for b, c in zip(blocks, blocks[1:]))
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) <= mc.BLOCK and max(sizes) - min(sizes) <= 1


def test_worker_counts_agree_over_uneven_blocks(monkeypatch):
    # 2 BLOCK + 5 trials: three blocks, which the pool maps over two workers
    monkeypatch.setattr(mc, "_cpus", lambda: 2)  # a pool even on one CPU
    basis = alpha_family("decay:1:1").build(12)
    reg = Region.sector(0.5, 0.0, np.pi / 2)
    trials = 2 * mc.BLOCK + 5
    one = run_ensemble(basis, coeff_model("gaussian"), reg, trials=trials,
                       seed=4, workers=1)
    two = run_ensemble(basis, coeff_model("gaussian"), reg, trials=trials,
                       seed=4, workers=2)
    assert np.array_equal(one.counts, two.counts)
    assert np.array_equal(one.trial_indices, two.trial_indices)
    for t in (0, mc.BLOCK, trials - 1):  # a block's counts are its trials'
        eta = sample_poly(basis, coeff_model("gaussian"), trial_seed(4, t))
        assert one.counts[t] == count_in_region(roots(basis, eta), reg)


def test_audit_tallies_agree_over_uneven_blocks(monkeypatch):
    # 7 BLOCK + 3 trials: eight blocks of 28 or 29, audits at trials 0, 100
    # and 200 in three of them, each block audited by the process that
    # solves it
    monkeypatch.setattr(mc, "_cpus", lambda: 2)
    basis = alpha_family("zero").build(12)
    trials = 7 * mc.BLOCK + 3
    sizes = {hi - lo for lo, hi in mc._blocks(trials)}
    assert len(sizes) == 2
    args = (basis, coeff_model("gaussian"), Region.annulus(0.0, 0.6), trials, 21)
    one = run_ensemble(*args, workers=1)
    two = run_ensemble(*args, workers=2)
    tally = (one.audited, one.audit_mismatches, one.audit_flagged,
             one.worst_residual)
    assert tally == (two.audited, two.audit_mismatches, two.audit_flagged,
                     two.worst_residual)
    assert one.audited + one.audit_flagged == 3
    assert np.array_equal(one.counts, two.counts)


def test_convergence_study_opens_one_pool(monkeypatch):
    opened = []

    class Counted(mc.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", Counted)
    monkeypatch.setattr(mc, "_cpus", lambda: 2)
    args = (alpha_family("zero"), coeff_model("gaussian"), QUARTER, [10, 20, 40])
    pooled = convergence_study(*args, trials=40, seed=5, workers=2)
    assert len(opened) == 1
    assert all(not p._processes for p in opened)  # shut down on return
    alone = convergence_study(*args, trials=40, seed=5, workers=1)
    for a, b in zip(pooled, alone):
        assert np.array_equal(a.stats.counts, b.stats.counts)


def _fake_pool(monkeypatch, helpers_work: bool) -> dict:
    """Replace the helper pool by a fake that starts no process and records
    its size and every submitted call.  If `helpers_work`, a submitted drain
    runs at once in this process, after the pool's initializer, so the
    helpers claim every job before the parent does; otherwise they claim
    nothing, as helpers that start after the queue is empty."""
    record = {"sizes": [], "submitted": []}

    class Fake:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            record["sizes"].append(max_workers)
            self.init = (initializer, initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            record["submitted"].append((fn, args))
            future = Future()
            if helpers_work:
                initializer, initargs = self.init
                initializer(*initargs)
                future.set_result(fn(*args))
            else:
                future.set_result(({}, None))  # no job, and no peak read
            return future

    monkeypatch.setattr(mc, "ProcessPoolExecutor", Fake)
    monkeypatch.setattr(mc, "_shared_index", None)  # the initializer sets it
    return record


def _same_ensemble(a, b) -> bool:
    return (np.array_equal(a.counts, b.counts)
            and np.array_equal(a.trial_indices, b.trial_indices)
            and (a.audited, a.audit_mismatches, a.audit_flagged,
                 a.worst_residual)
            == (b.audited, b.audit_mismatches, b.audit_flagged,
                b.worst_residual))


def test_pool_bounded_by_usable_cpus(monkeypatch):
    # helpers = min(workers, usable CPUs) - 1, next to this process
    record = _fake_pool(monkeypatch, helpers_work=True)
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    args = (alpha_family("zero").build(10), coeff_model("gaussian"),
            Region.annulus(0.0, 0.6), 2 * mc.BLOCK + 5, 3)
    alone = run_ensemble(*args, workers=1)
    assert record["sizes"] == [] and alone.processes == 1
    for workers in (5000, 3, 2):
        got = run_ensemble(*args, workers=workers)
        assert _same_ensemble(got, alone)
        assert got.processes == min(workers, 3)
        # the fake's first helper drains all three blocks at submission
        assert got.blocks_claimed == (0, 3) + (0,) * (got.processes - 2)
    assert record["sizes"] == [2, 2, 1]

    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0})
    assert run_ensemble(*args, workers=5000).processes == 1  # in-process
    assert record["sizes"] == [2, 2, 1]

    monkeypatch.delattr(mc.os, "sched_getaffinity")  # no affinity call
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    convergence_study(alpha_family("zero"), coeff_model("gaussian"), QUARTER,
                      [10, 20], trials=8, seed=5, workers=5000)
    assert record["sizes"] == [2, 2, 1, 3]


def test_idle_helpers_change_nothing(monkeypatch):
    # helpers that start after the queue is empty claim no job: this
    # process solves every block, and the ensemble is the one-worker one
    monkeypatch.setattr(mc, "_cpus", lambda: 3)
    record = _fake_pool(monkeypatch, helpers_work=False)
    args = (alpha_family("zero").build(12), coeff_model("gaussian"),
            Region.annulus(0.0, 0.6), 7 * mc.BLOCK + 3, 21)
    alone = run_ensemble(*args, workers=1)
    idle = run_ensemble(*args, workers=3)
    assert record["sizes"] == [2] and len(record["submitted"]) == 2
    assert idle.processes == 3 and idle.blocks_claimed == (8, 0, 0)
    assert _same_ensemble(idle, alone)
    assert alone.audited + alone.audit_flagged == 3


def test_convergence_study_queues_every_degree_at_once(monkeypatch):
    # one drain per helper for the whole study, over every degree's blocks,
    # largest degree first; not one map per degree
    monkeypatch.setattr(mc, "_cpus", lambda: 3)
    record = _fake_pool(monkeypatch, helpers_work=True)
    args = (alpha_family("zero"), coeff_model("gaussian"), QUARTER, [10, 20, 40])
    trials = 2 * mc.BLOCK + 5
    pooled = convergence_study(*args, trials=trials, seed=5, workers=3)
    assert record["sizes"] == [2]
    assert [fn for fn, _ in record["submitted"]] == [mc._helper_drain] * 2
    (jobs,) = record["submitted"][0][1]
    assert [job[0].order for job in jobs] == [40] * 3 + [20] * 3 + [10] * 3
    assert [job[4:] for job in jobs[:3]] == mc._blocks(trials)
    alone = convergence_study(*args, trials=trials, seed=5, workers=1)
    for a, b in zip(pooled, alone):
        assert a.n == b.n and _same_ensemble(a.stats, b.stats)


def test_one_worker_builds_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("one worker built a pool or a shared object")

    monkeypatch.setattr(mc._mp, "get_context", refuse)
    monkeypatch.setattr(mc, "ProcessPoolExecutor", refuse)
    args = (alpha_family("zero").build(10), coeff_model("gaussian"),
            Region.annulus(0.0, 0.6), 2 * mc.BLOCK + 5, 3)
    alone = run_ensemble(*args, workers=1)
    assert (alone.blocks_claimed, alone.start_method) == ((3,), None)
    monkeypatch.setattr(mc, "_cpus", lambda: 1)
    assert run_ensemble(*args, workers=4).processes == 1  # one usable CPU
    rows = convergence_study(alpha_family("zero"), coeff_model("gaussian"),
                             QUARTER, [10, 20], trials=8, seed=5, workers=1)
    assert [r.stats.blocks_claimed for r in rows] == [(2,), (2,)]  # one queue


def test_every_block_claimed_once_by_more_processes_than_cores(monkeypatch):
    # four processes share one index on a machine of two cores or fewer; a
    # lost update of the index would let two of them solve the same block
    monkeypatch.setattr(mc, "_cpus", lambda: 4)
    solved, futures = [], []
    drain = mc._drain

    def recorded(jobs, next_job):  # this process's own claims
        done = drain(jobs, next_job)
        solved.append(list(done))
        return done

    monkeypatch.setattr(mc, "_drain", recorded)

    class Recorded(mc.ProcessPoolExecutor):
        def submit(self, *args):
            futures.append(super().submit(*args))
            return futures[-1]

    monkeypatch.setattr(mc, "ProcessPoolExecutor", Recorded)
    args = (alpha_family("zero").build(40), coeff_model("gaussian"),
            Region.annulus(0.0, 0.6), 24 * mc.BLOCK, 2)
    four = run_ensemble(*args, workers=4)
    claimed = [i for done in solved + [f.result(timeout=60)[0] for f in futures]
               for i in done]
    assert sorted(claimed) == list(range(24))
    assert four.processes == 4 and len(futures) == 3
    assert sum(four.blocks_claimed) == 24
    assert _same_ensemble(four, run_ensemble(*args, workers=1))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="helpers are forked on Linux only")
def test_helpers_are_forked_from_this_process(monkeypatch):
    # a forked helper runs this process's patched _block_counts, where a
    # spawned one would import the module afresh and fail on these jobs;
    # this process holds its first job until a helper has finished one, so
    # a helper claims a job whatever the timing
    monkeypatch.setattr(mc, "_cpus", lambda: 2)
    parent = os.getpid()
    helper_ran = multiprocessing.get_context("fork").Event()

    def tagged(job):
        if os.getpid() != parent:
            helper_ran.set()
        else:
            helper_ran.wait(timeout=60)
        return os.getpid()

    monkeypatch.setattr(mc, "_block_counts", tagged)
    pids, claimed, _, method = mc._solve([None, None], workers=2)
    assert method == "fork" and len(claimed) == 2 and sum(claimed) == 2
    assert helper_ran.is_set()
    assert all(isinstance(pid, int) for pid in pids)
    assert any(pid != parent for pid in pids)
    assert claimed[1] == sum(pid != parent for pid in pids)


def test_buffered_output_is_written_once(capfd, monkeypatch):
    # text printed but not yet flushed when the helpers start reaches the
    # terminal once: from this process, not again from a forked copy of its
    # buffer
    monkeypatch.setattr(mc, "_cpus", lambda: 2)
    out = open(1, "w", closefd=False)  # block-buffered: fd 1 is captured
    monkeypatch.setattr(sys, "stdout", out)
    print("before the pool")
    stats = run_ensemble(alpha_family("zero").build(10),
                         coeff_model("gaussian"), Region.annulus(0.0, 0.6),
                         2 * mc.BLOCK + 5, 3, workers=2)
    out.flush()
    assert stats.processes == 2
    assert capfd.readouterr().out.count("before the pool") == 1


def test_peak_rss_in_mb_or_none(monkeypatch):
    # ru_maxrss is in bytes on macOS and in KiB on Linux; without the
    # resource module (Windows) the peak is not known
    class Usage:
        ru_maxrss = 3 * 2 ** 20

    fake = types.SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: Usage)
    monkeypatch.setitem(sys.modules, "resource", fake)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert mc._peak_rss_mb() == 3.0
    monkeypatch.setattr(sys, "platform", "linux")
    assert mc._peak_rss_mb() == 3.0 * 2 ** 10
    monkeypatch.setitem(sys.modules, "resource", None)
    assert mc._peak_rss_mb() is None
    stats = run_ensemble(alpha_family("zero").build(10),
                         coeff_model("gaussian"), Region.annulus(0.0, 0.6),
                         8, 3, workers=1)
    assert stats.peak_rss_mb == (None,)


def test_audit_mismatch_fails_the_ensemble(monkeypatch):
    def off_by_one(basis, eta, region):
        return count_in_region(roots(basis, eta), region) + 1

    monkeypatch.setattr(mc, "count_by_argument_principle", off_by_one)
    monkeypatch.setattr(mc, "_cpus", lambda: 2)
    args = (alpha_family("zero").build(12), coeff_model("gaussian"),
            Region.annulus(0.0, 0.6), 250, 21)  # audits at 0, 100 and 200
    # a helper forked from this process audits with the patched count too,
    # so every audited trial fails, whichever process solved its block
    for workers in (1, 2):
        with pytest.raises(AuditMismatch, match=r"trials 0, 100, 200$"):
            run_ensemble(*args, workers=workers)
    with pytest.raises(AuditMismatch, match=r"^n = 10: .* trials 0$"):
        convergence_study(alpha_family("zero"), coeff_model("gaussian"),
                          QUARTER, [10, 20], trials=40, seed=5, workers=1)

    def unsettled(basis, eta, region):
        raise BoundaryProximity("a zero sits near the boundary")

    monkeypatch.setattr(mc, "count_by_argument_principle", unsettled)
    stats = run_ensemble(*args, workers=1)  # flagged audits are not raised
    assert (stats.audited, stats.audit_flagged) == (0, 3)


def _stats_of(counts, seed):
    """mc._stats on one block of the given counts."""
    return mc._stats(alpha_family("zero").build(4), Region.annulus(0, 0.5),
                     len(counts), seed, [(list(counts), (0, [], 0, 0.0))],
                     (1,), (None,), None)


def _se_var_one_shot(counts, seed):
    """Oracle: the bootstrap from one (BOOTSTRAP_RESAMPLES, m) index draw."""
    rng = np.random.Generator(np.random.Philox(
        key=mc.splitmix64((seed & mc._M64) ^ mc._BOOT_SALT)))
    idx = rng.integers(0, counts.size,
                       size=(mc.BOOTSTRAP_RESAMPLES, counts.size))
    return float(counts[idx].var(axis=1, ddof=1).std(ddof=1))


@pytest.mark.parametrize("m", [11, 101, 1000, 1999])
def test_bootstrap_in_chunks_is_the_one_shot_draw(m):
    # odd and even m, in one chunk (m = 11) or many, the last one short
    # (m = 1999); the stream continues across the chunks' draws
    counts = np.random.default_rng(m).integers(0, 40, m)
    for seed in (0, 42):
        assert _stats_of(counts, seed).se_var == \
            _se_var_one_shot(counts, seed)


def test_bootstrap_memory_bounded():
    # 12,000 counts: one draw of every resample index would hold 96 MB
    counts = np.random.default_rng(5).integers(0, 40, 12_000)
    tracemalloc.start()
    try:
        stats = _stats_of(counts, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.se_var > 0
    assert peak < 8 * 2 ** 20


def _squares_family(tmp_path):
    """alpha_j = 0.9 at j = k^2 - 1 and 0 elsewhere, j < 130, as a file."""
    path = tmp_path / "squares.txt"
    squares = {k * k - 1 for k in range(1, 12)}
    path.write_text("".join(f"{0.9 if j in squares else 0.0} 0\n"
                            for j in range(130)))
    return alpha_family(f"file:{path}")


def test_regular_but_not_nevai_family(tmp_path):
    # alpha_j = 0.9 at j = k^2 - 1 and 0 elsewhere: regular, since spikes of
    # density 1/sqrt(n) leave (1/n) sum log rho_j -> 0, but not Nevai, since
    # alpha_j does not tend to 0.  When the top coefficient alpha_{n-1} is a
    # spike (n = 100, 121) the ratio phi_n / phi_n* stays large inside the
    # disk, and at n = 100 the annulus variance sits far below the paper's
    # limit; off the spikes (n = 120) it is back at the limit
    family = _squares_family(tmp_path)
    for n in (100, 121):
        assert regularity_report(family.build(n)).nevai_proxy[-1] > 0.5
    region = Region.annulus(0.3, 0.6)
    limit = var_limit_closed(0.3, 0.6).value
    spike, off = (run_ensemble(family.build(n), coeff_model("gaussian"),
                               region, trials=1000, seed=42)
                  for n in (100, 120))
    assert spike.variance < limit - 4 * spike.se_var
    assert abs(off.variance - limit) <= 4 * off.se_var


@pytest.mark.parametrize("ns", [(25, 49, 100), (30, 60, 110)],
                         ids=["spikes", "off-spikes"])
def test_sector_rates_hold_on_regular_but_not_nevai_family(tmp_path, ns):
    # the sector estimate needs regularity alone: its rates hold at the
    # spike degrees n = k^2, where the annulus variance misses the limit
    # that needs the Nevai class, as well as off them
    rows = convergence_study(_squares_family(tmp_path),
                             coeff_model("gaussian"), QUARTER, ns,
                             trials=200, seed=42)
    _sector_rate_gates(rows)
