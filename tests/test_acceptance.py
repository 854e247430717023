"""End-to-end acceptance checks, one test per numbered criterion.

Run with -v to get one pass/fail line per criterion.  These are the
slowest tests in the suite (three 4000-trial ensembles and two 1000-trial
convergence studies); expect a few minutes wall clock in total.
"""
import json
import math
import time

import numpy as np
import pytest

from opucz.cli import main as cli_main
from opucz.intensity import rho1_n, rho2_limit, rho2_n
from opucz.kernel import kernel_cd, kernel_direct
from opucz.mc import coeff_model, convergence_study, run_ensemble, \
    sample_poly, trial_seed
from opucz.opuc import alpha_family, levinson_verblunsky, \
    moments_from_weight, szego_build, WeightSpec
from opucz.errors import BoundaryProximity
from opucz.varlim import var_limit_closed, var_limit_quadrature, \
    var_limit_series
from opucz.zerocount import Region, count_by_argument_principle, \
    count_in_region, roots

GAUSS = coeff_model("gaussian")


@pytest.fixture(scope="module")
def free100():
    return alpha_family("zero").build(100)


def _variance_gate(stats, target):
    tol = max(3 * stats.se_var, 0.03)
    assert abs(stats.variance - target) <= tol, (
        f"variance {stats.variance:.5f} vs {target:.5f}, tol {tol:.5f}")


def test_criterion_01_interior_disk_variance(free100):
    # A(0, 0.5), 4000 trials, seed 42: sample variance within
    # max(3 se_var, 0.03) of t^2/(1-t^4) = 0.2666667; single-threaded
    # runtime under five minutes
    t0 = time.perf_counter()
    stats = run_ensemble(free100, GAUSS, Region.annulus(0.0, 0.5),
                         trials=4000, seed=42, workers=1)
    elapsed = time.perf_counter() - t0
    _variance_gate(stats, 0.2666667)
    assert elapsed < 300, f"took {elapsed:.0f}s"


def test_criterion_02_two_radius_and_exterior_variance(free100):
    stats = run_ensemble(free100, GAUSS, Region.annulus(0.3, 0.6),
                         trials=4000, seed=42, workers=1)
    _variance_gate(stats, var_limit_closed(0.3, 0.6).value)
    stats = run_ensemble(free100, GAUSS, Region.annulus(1.5, 2.0),
                         trials=4000, seed=42, workers=1)
    _variance_gate(stats, 0.4038462)


def test_criterion_03_pair_intensity_trend_and_coincidence():
    basis = alpha_family("decay:1:1").build(161)
    z, w = 0.2, -0.3
    lim = rho2_limit(z, w).value
    err40 = abs(rho2_n(basis, z, w, n=40).value - lim)
    err160 = abs(rho2_n(basis, z, w, n=160).value - lim)
    assert err160 < err40
    rng = np.random.default_rng(3)
    for _ in range(100):
        zz = rng.uniform(0, 1.5) * np.exp(2j * np.pi * rng.random())
        assert rho2_n(basis, zz, zz, n=40).value == 0.0


def test_criterion_04_one_point_intensity_limits():
    free = alpha_family("zero").build(50)
    for n in range(1, 51):
        assert abs(rho1_n(free, 0.0, n=n).value - 1 / math.pi) <= 1e-12
    basis = alpha_family("decay:1:1").build(160)
    diffs = [abs(rho1_n(basis, 0.5, n=n).value - 0.565884)
             for n in (20, 40, 80, 160)]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_criterion_05_sector_count_rates():
    region = Region.sector(0.5, 0.0, math.pi / 2)
    for fam in ("zero", "weight:jacobi:pi:1"):
        rows = convergence_study(alpha_family(fam), GAUSS, region,
                                 [25, 50, 100, 200], trials=1000, seed=42)
        devs = [r.mean_abs_dev for r in rows]
        assert all(b < a for a, b in zip(devs, devs[1:])), (fam, devs)
        assert rows[-1].var_over_n2 < 0.01, fam
        for r in rows:
            assert np.isfinite(r.envelope_sqrtlogn) and r.envelope_sqrtlogn > 0
            assert np.isfinite(r.envelope_eps14) and r.envelope_eps14 > 0


def test_criterion_06_kernel_identities():
    rng = np.random.default_rng(123)
    families = ("zero", "constant:0.5", "decay:1:1")
    checked = 0
    for fi, fam in enumerate(families):
        basis = alpha_family(fam).build(101)
        quota = 167 if fi < 2 else 166
        done = 0
        while done < quota:
            z = 2 * rng.random() * np.exp(2j * np.pi * rng.random())
            w = 2 * rng.random() * np.exp(2j * np.pi * rng.random())
            if abs(1 - z * np.conj(w)) <= 0.1:
                continue
            d = kernel_direct(basis, z, w, n=100)
            c = kernel_cd(basis, z, w, n=100)
            for name in ("K", "K01", "K11"):
                a, e = getattr(d, name), getattr(c, name)
                assert abs(a - e) <= 1e-9 * max(1.0, abs(a)), (fam, name)
            done += 1
        checked += done
    assert checked == 500

    h = 1e-5
    basis = alpha_family("decay:1:1").build(21)
    done = 0
    while done < 10:
        z = 2 * rng.random() * np.exp(2j * np.pi * rng.random())
        w = 2 * rng.random() * np.exp(2j * np.pi * rng.random())
        if abs(1 - z * np.conj(w)) <= 0.1:
            continue
        k = kernel_direct(basis, z, w, n=20)
        fd01 = (kernel_direct(basis, z, w + h, n=20).K
                - kernel_direct(basis, z, w - h, n=20).K) / (2 * h)
        fd11 = (kernel_direct(basis, z + h, w, n=20).K01
                - kernel_direct(basis, z - h, w, n=20).K01) / (2 * h)
        assert abs(k.K01 - fd01) <= 1e-6 * max(1.0, abs(k.K01))
        assert abs(k.K11 - fd11) <= 1e-6 * max(1.0, abs(k.K11))
        done += 1


def test_criterion_07_variance_triple_agreement():
    grid = [(0.0, 0.3), (0.0, 0.5), (0.0, 0.7), (0.0, 0.9),
            (0.1, 0.4), (0.2, 0.5), (0.3, 0.6), (0.4, 0.7),
            (0.25, 0.85), (0.5, 0.9), (0.6, 0.8), (0.15, 0.75),
            (1.1, 1.4), (1.2, 1.6), (1.5, 2.0), (1.25, 1.75),
            (1.9, 2.4), (1.05, 1.3), (2.0, 3.0), (1.3, 2.2)]
    assert len(grid) == 20
    for s, t in grid:
        closed = var_limit_closed(s, t).value
        series = var_limit_series(s, t, tol=1e-12).value
        quad = var_limit_quadrature(s, t, target=1e-8).value
        assert abs(closed - series) <= 1e-6
        assert abs(series - quad) <= 1e-6
        assert abs(quad - closed) <= 1e-6
    rng = np.random.default_rng(77)
    for _ in range(10):
        s = rng.uniform(0.05, 0.7)
        t = rng.uniform(s + 0.05, 0.95)
        assert abs(var_limit_closed(s, t).value
                   - var_limit_closed(1 / t, 1 / s).value) <= 1e-12


def test_criterion_08_zero_count_oracles():
    basis = alpha_family("zero").build(40)
    reg = Region.annulus(0.0, 0.6)
    parts = [Region.annulus(0.0, 0.9), Region.annulus(0.9, 1.1),
             Region.annulus(1.1, 1e9)]
    agree = flagged = 0
    trials = 1000
    for t in range(trials):
        eta = sample_poly(basis, GAUSS, trial_seed(7, t))
        zs = roots(basis, eta)
        assert sum(count_in_region(zs, q) for q in parts) == 40
        want = count_in_region(zs, reg)
        try:
            got = count_by_argument_principle(basis, eta, reg)
        except BoundaryProximity:
            flagged += 1
            continue
        assert got == want, f"trial {t}: contour {got} vs rootfinder {want}"
        agree += 1
    assert agree + flagged == trials
    assert agree >= 0.99 * trials, (agree, flagged)


def test_criterion_09_cli_determinism(tmp_path):
    base = ["simulate", "--alphas", "zero", "--n", "20", "--model",
            "gaussian", "--region", "annulus:0:0.5", "--trials", "100",
            "--seed", "11"]
    runs = [("one", ["--threads", "1"]), ("again", ["--threads", "1"]),
            ("three", ["--threads", "3"])]
    blobs = []
    for tag, extra in runs:
        assert cli_main(base + extra + ["--out", str(tmp_path / tag)]) == 0
        blobs.append((tmp_path / f"{tag}.counts.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]


def test_criterion_10_basis_correctness():
    # free Gram over 512 circle nodes
    b = szego_build(np.zeros(20), 20)
    theta = 2 * np.pi * np.arange(512) / 512
    nodes = np.exp(1j * theta)
    vals = np.array([b.values_at(z)[0] for z in nodes]).T
    gram = vals @ vals.conj().T / 512
    assert np.max(np.abs(gram - np.eye(21))) < 1e-10

    # weight-derived Gram against its own converged moments; the coefficient
    # rows come from an FFT of the values on 16 roots of unity
    w = WeightSpec.generalized_jacobi([math.pi], [1.0])
    c = moments_from_weight(w, 24)
    a = levinson_verblunsky(c)
    bw = szego_build(a, 10)
    mu = np.concatenate([c[::-1], np.conj(c[1:])])
    M = np.array([[mu[24 + i - j] for j in range(11)] for i in range(11)])
    roots16 = np.exp(2j * np.pi * np.arange(16) / 16)
    vals16 = np.array([bw.values_at(z)[0] for z in roots16])
    P = (np.fft.fft(vals16, axis=0) / 16).T[:, :11]
    assert np.max(np.abs(P @ M @ P.conj().T - np.eye(11))) < 1e-6

    # kappa consistency with the product formula
    fam = alpha_family("decay:1:1")
    basis = fam.build(50)
    al = fam.alphas(50)
    for k in range(51):
        want = float(np.prod(1.0 / np.sqrt(1.0 - np.abs(al[:k]) ** 2)))
        assert abs(basis.kappas[k] - want) <= 1e-12 * want

    # Levinson round trip on the flat moment sequence
    flat = np.zeros(26, dtype=np.complex128)
    flat[0] = 1.0
    assert np.max(np.abs(levinson_verblunsky(flat))) <= 1e-14
