import functools
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

import opucz.mc as mc
import opucz.opuc as opuc
import opucz.zerocount as zerocount
from opucz.errors import (
    BoundaryProximity,
    DegenerateLeadingCoefficient,
    NoConvergence,
    UsageError,
)
from opucz.mc import coeff_model, sample_poly, trial_seed
from opucz.opuc import alpha_family, eval_poly, szego_build
from opucz.zerocount import (
    Region,
    count_by_argument_principle,
    count_in_region,
    roots,
)


def _plain(coeffs):
    """c_0 + c_1 z + ... + c_n z^n as (monomial basis, coefficients)."""
    c = np.asarray(coeffs, dtype=np.complex128)
    return szego_build(np.zeros(c.size - 1), c.size - 1), c


def _free_sample(rng, deg):
    c = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
    return _plain(c / math.sqrt(2))


def test_cube_roots_of_eight():
    zs = roots(*_plain([-8, 0, 0, 1]))
    w = 2 * np.exp(2j * np.pi / 3)
    want = sorted([2 + 0j, w, np.conj(w)], key=lambda z: (round(z.real, 9), z.imag))
    got = sorted(zs.roots, key=lambda z: (round(z.real, 9), z.imag))
    for a, b in zip(got, want):
        assert abs(a - b) < 1e-10
    assert np.all(np.abs(np.abs(zs.roots) - 2) < 1e-10)


def test_plus_minus_i():
    zs = roots(*_plain([1, 0, 1]))
    got = sorted(zs.roots, key=lambda z: z.imag)
    assert abs(got[0] + 1j) < 1e-12 and abs(got[1] - 1j) < 1e-12


def test_random_degree_fifty_residuals():
    rng = np.random.default_rng(77)
    for _ in range(5):
        zs = roots(*_free_sample(rng, 50))
        assert len(zs.roots) == 50
        assert np.max(zs.residuals) <= 1e-8


def test_roots_at_origin_kept():
    # z^2 (z - 1): trailing zero coefficients mean roots at 0
    zs = roots(*_plain([0, 0, -1, 1]))
    assert len(zs.roots) == 3
    assert np.sum(np.abs(zs.roots) < 1e-12) == 2


def test_degenerate_leading_coefficient():
    with pytest.raises(DegenerateLeadingCoefficient):
        roots(*_plain([1, 2, 1e-310]))


def test_degree_zero_checks_the_leading_coefficient():
    # at degree 0 the leading coefficient is eta_0: P = 0 is refused as at
    # any degree, as the contour count refuses it; a constant has no roots
    basis = alpha_family("zero").build(0)
    with pytest.raises(DegenerateLeadingCoefficient):
        roots(basis, [0.0])
    with pytest.raises(DegenerateLeadingCoefficient):
        count_by_argument_principle(basis, [0.0], Region.annulus(0.0, 0.5))
    ok, zero = roots(basis, [[1.0], [0.0]])
    assert ok.roots.size == ok.residuals.size == ok.radii.size == 0
    assert isinstance(zero, DegenerateLeadingCoefficient)


def test_conjugation_symmetry_real_coefficients():
    rng = np.random.default_rng(31)
    for _ in range(10):
        zs = roots(*_plain(rng.standard_normal(21)))
        rts = list(zs.roots)
        for z in rts:
            dist = min(abs(np.conj(z) - y) for y in rts)
            assert dist <= 1e-8


def test_region_constructors_validate():
    with pytest.raises(UsageError):
        Region.annulus(0.5, 0.5)
    with pytest.raises(UsageError):
        Region.annulus(-0.1, 0.5)
    for s, t in ((0.2, math.inf), (math.inf, math.inf), (0.2, math.nan),
                 (math.nan, 0.5)):
        with pytest.raises(UsageError):
            Region.annulus(s, t)
    with pytest.raises(UsageError):
        Region.sector(1.2, 0, 1)
    with pytest.raises(UsageError):
        Region.sector(0.5, 2.0, 1.0)
    with pytest.raises(UsageError):
        Region.sector(0.5, 0.0, 7.0)


def test_count_in_region_cube_roots():
    zs = roots(*_plain([-8, 0, 0, 1]))
    assert count_in_region(zs, Region.annulus(1.5, 2.5)) == 3
    assert count_in_region(zs, Region.annulus(0, 1)) == 0
    # half-open angular bound: the root at arg exactly 2pi/3 is excluded
    assert count_in_region(zs, Region.sector(0.4, 0.0, 2 * math.pi / 3)) == 1


def test_disk_includes_origin_root():
    zs = roots(*_plain([0, 1.0]))
    assert count_in_region(zs, Region.annulus(0, 0.5)) == 1
    assert count_in_region(zs, Region.annulus(0.1, 0.5)) == 0


def test_sector_partition_adds_up():
    rng = np.random.default_rng(5)
    edges = [0, 1.1, 2.2, 4.0, 2 * math.pi]
    for _ in range(10):
        zs = roots(*_free_sample(rng, 30))
        full = count_in_region(zs, Region.sector(0.5, 0, 2 * math.pi))
        parts = sum(
            count_in_region(zs, Region.sector(0.5, a, b))
            for a, b in zip(edges[:-1], edges[1:]))
        assert parts == full


def test_annulus_partition_completeness():
    rng = np.random.default_rng(6)
    regions = [Region.annulus(0, 0.9), Region.annulus(0.9, 1.1),
               Region.annulus(1.1, 1e9)]
    for _ in range(20):
        zs = roots(*_free_sample(rng, 40))
        assert sum(count_in_region(zs, r) for r in regions) == 40


def test_argument_principle_known_counts():
    p = _plain([-8, 0, 0, 1])
    assert count_by_argument_principle(*p, Region.annulus(1.5, 2.5)) == 3
    assert count_by_argument_principle(*p, Region.annulus(0, 1)) == 0
    assert count_by_argument_principle(*p, Region.annulus(0, 2.5)) == 3
    p5 = _plain([0, 0, 0, 0, 0, 1.0])
    assert count_by_argument_principle(*p5, Region.annulus(0, 0.5)) == 5


def test_argument_principle_sector():
    p = _plain([-8, 0, 0, 1])
    # keep the boundary rays away from the roots' arguments
    assert count_by_argument_principle(*p, Region.sector(0.4, 0.5, 1.5)) == 0
    assert count_by_argument_principle(*p, Region.sector(0.4, 1.0, 3.0)) == 1
    assert count_by_argument_principle(*p, Region.sector(0.4, 0.5, 6.0)) == 2


def test_argument_principle_flags_root_on_contour():
    # a root exactly on the circle |z| = 1: (z - 1)(z - 3)
    with pytest.raises(BoundaryProximity):
        count_by_argument_principle(*_plain([3, -4, 1]), Region.annulus(0, 1.0))


def test_dual_oracle_agreement_free_samples():
    rng = np.random.default_rng(11)
    reg = Region.annulus(0, 0.6)
    agree = 0
    flagged = 0
    trials = 100
    for _ in range(trials):
        p = _free_sample(rng, 40)
        zs = roots(*p)
        want = count_in_region(zs, reg)
        try:
            got = count_by_argument_principle(*p, reg)
        except BoundaryProximity:
            flagged += 1
            continue
        assert got == want
        agree += 1
    assert agree + flagged == trials
    assert agree >= 0.99 * trials


def test_far_root_from_small_leading_coefficient():
    # |c_n| << |c_{n-1}| parks one root near -1/c_n; naive evaluation of a
    # degree-200 polynomial there overflows, the residual gate must not
    c = np.ones(201, dtype=np.complex128)
    c[-1] = 1e-3
    with np.errstate(over="raise", invalid="raise"):
        zs = roots(*_plain(c))
    assert zs.roots.size == 200
    assert np.all(np.isfinite(zs.residuals))
    far = np.max(np.abs(zs.roots))
    assert far > 100  # the outlier root is really out there
    assert count_in_region(zs, Region.annulus(0, 1.5)) == 199


def _sample(fam, n, t=0):
    basis = alpha_family(fam).build(n)
    return basis, sample_poly(basis, coeff_model("gaussian"), trial_seed(7, t))


def test_certified_by_backward_error():
    # an ordinary sample: every root is exact for a relative change of eta
    # of at most 1e-8, and its residual is that backward error
    basis, eta = _sample("decay:1:1", 60)
    zs = roots(basis, eta)
    assert np.all(zs.residuals <= 1e-8)
    for z, r in zip(zs.roots, zs.residuals):
        phi, _ = basis.values_at(z)
        assert abs(r - abs(eta @ phi) / (np.abs(eta) @ np.abs(phi))) <= 1e-13


def test_certified_by_newton_correction(monkeypatch):
    # constant:0.5 has a mass point at z = 1: every sample has a root within
    # a few ulps of 1 whose backward error no double brings below 1e-8, so
    # it is certified by its Newton correction of at most 8 ulps instead
    basis, eta = _sample("constant:0.5", 100)
    zs = roots(basis, eta)
    far = zs.residuals > 1e-8
    assert np.count_nonzero(far) >= 1
    assert np.all(np.abs(zs.roots[far] - 1.0) <= 1e-13)
    p, dp, _ = eval_poly(basis, eta, zs.roots[far], derivs=True)
    assert np.all(np.abs(p / dp) <= 8 * np.spacing(1.0))
    monkeypatch.setattr(zerocount, "STEP_ULPS", 0)
    with pytest.raises(NoConvergence):
        roots(basis, eta)


@pytest.mark.parametrize("fam,n,restarts", [
    ("zero", 100, False), ("decay:1:1", 100, False),
    ("weight:jacobi:pi:1", 100, False),
    ("constant:0.5", 100, False),  # every row starts on the circle
    ("constant:0.5", 300, True)])  # rows restart from comrade eigenvalues
def test_returned_roots_meet_the_stop_test(monkeypatch, fam, n, restarts):
    # the test that stops the iteration is the whole certificate: at each
    # returned root, evaluated again, |P| is within the rounding bound or
    # the Newton correction is at most STEP_ULPS ulps of max(1, |z|)
    basis = alpha_family(fam).build(n)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(42, t)) for t in range(8)])
    comrade, eigen = zerocount._comrade, []
    monkeypatch.setattr(zerocount, "_comrade",
                        lambda basis, eta: eigen.append(eta) or comrade(basis, eta))
    for eta, zs in zip(etas, roots(basis, etas)):
        p, dp, scale = eval_poly(basis, eta, zs.roots, derivs=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = p / dp
        assert np.all((np.abs(p) <= zerocount._roundoff(n, scale))
                      | zerocount._tiny(newton, zs.roots))
    assert bool(eigen) == restarts


def _mp_poly(alphas, eta, z):
    """(P, P', sum_k |eta_k| |phi_k|) at z by the recursion, in mpmath."""
    z = mpmath.mpc(z)
    phi = ps = mpmath.mpc(1)
    dphi = dps = mpmath.mpc(0)
    p, dp, scale = mpmath.mpc(eta[0]), mpmath.mpc(0), abs(mpmath.mpc(eta[0]))
    for a, e in zip(alphas, eta[1:]):
        a, e = mpmath.mpc(a), mpmath.mpc(e)
        rho = mpmath.sqrt(1 - abs(a) ** 2)
        d = phi + z * dphi
        dphi, dps = (d - mpmath.conj(a) * dps) / rho, (dps - a * d) / rho
        phi, ps = (z * phi - mpmath.conj(a) * ps) / rho, (ps - a * z * phi) / rho
        p += e * phi
        dp += e * dphi
        scale += abs(e) * abs(phi)
    return p, dp, scale


@pytest.mark.parametrize("fam", ["constant:0.5", "weight:jacobi:pi:1"])
def test_roots_agree_with_mpmath_oracle(fam):
    # at 50 digits, every root is exact for a relative change of eta of at
    # most 1e-8, or lies within 1e-14 max(1, |z|) of a refined root (the
    # mass point z = 1 of constant:0.5); findroot raises when no root is near
    basis, eta = _sample(fam, 100)
    zs = roots(basis, eta)
    assert zs.roots.size == 100
    with mpmath.workdps(50):
        for z in zs.roots:
            p, _, scale = _mp_poly(basis.alphas, eta, z)
            if abs(p) <= 1e-8 * scale:
                continue
            exact = mpmath.findroot(
                lambda x: _mp_poly(basis.alphas, eta, x)[0], mpmath.mpc(z),
                solver="newton", df=lambda x: _mp_poly(basis.alphas, eta, x)[1])
            assert abs(exact - z) <= 1e-14 * max(1.0, abs(z)), (fam, z)


@pytest.mark.parametrize("fam, n", [("constant:0.5", 60), ("zero", 50)])
@pytest.mark.parametrize("power", [996, 1019, -830])
def test_roots_are_scale_invariant(fam, n, power):
    # the roots of 2^k P are those of P: a block scaled by a power of two
    # near the ends of the double range gives the unscaled block's bits,
    # with no overflow on the way, and the audit counts the same row
    basis = alpha_family(fam).build(n)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"), trial_seed(3, t))
                     for t in range(3)])
    want = roots(basis, etas)
    for got, w in zip(roots(basis, etas * 2.0 ** power), want):
        assert isinstance(w, zerocount.ZeroSet) and (w.radii > 0).all()
        for x, y in zip((got.roots, got.residuals, got.radii),
                        (w.roots, w.residuals, w.radii)):
            assert np.array_equal(x, y)
    region = Region.annulus(0.3, 0.9)
    for eta in etas:
        assert count_by_argument_principle(basis, eta * 2.0 ** power, region) \
            == count_by_argument_principle(basis, eta, region)


def test_block_rows_match_rows_alone():
    # a row's roots never depend on the rest of its block, whichever route
    # answered it: the comrade matrix for z^2 (z - 1), none for the last row
    basis = alpha_family("decay:1:1").build(30)
    model = coeff_model("gaussian")
    etas = [sample_poly(basis, model, trial_seed(3, t)) for t in range(6)]
    plain, _ = _plain(np.zeros(4))
    for b, block in ((basis, etas), (plain, [[-8, 0, 0, 1], [0, 0, -1, 1],
                                             [1, 0, 1, 1], [1, 2, 3, 0]])):
        block = np.array(block, dtype=np.complex128)
        found = roots(b, block)
        assert len(found) == len(block)
        for eta, zs in zip(block, found):
            try:
                alone = roots(b, eta)
            except DegenerateLeadingCoefficient as exc:
                assert isinstance(zs, DegenerateLeadingCoefficient)
                assert str(zs) == str(exc)
                continue
            for got, want in zip((zs.roots, zs.residuals, zs.radii),
                                 (alone.roots, alone.residuals, alone.radii)):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("fam", ["zero", "decay:1:1", "weight:jacobi:pi:1"])
@pytest.mark.parametrize("n", [1, 2, 3, 37])
def test_row_alone_matches_its_block_bit_for_bit(fam, n):
    # a row solved alone gets the roots, residuals and radii it gets inside
    # a 6-row block, at n = 1 too, where every live set and every model
    # product of a row alone has one element
    basis = alpha_family(fam).build(n)
    for seed in range(5):
        etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                     trial_seed(seed, t)) for t in range(6)])
        for eta, zs in zip(etas, roots(basis, etas)):
            alone = roots(basis, eta)
            for got, want in zip((zs.roots, zs.residuals, zs.radii),
                                 (alone.roots, alone.residuals, alone.radii)):
                assert _bits(got) == _bits(want), seed


@pytest.mark.parametrize("fam,n,model", [
    *[(f, n, "gaussian") for f in ("zero", "decay:1:1", "weight:jacobi:pi:1")
      for n in (25, 100, 200)],
    ("zero", 100, "uniform_disk"), ("zero", 100, "quaternary")])
def test_block_roots_match_comrade_eigenvalues(fam, n, model):
    # every block-route root is within 1e-12 max(1, |z|) of its own comrade
    # eigenvalue, one to one
    basis = alpha_family(fam).build(n)
    etas = np.array([sample_poly(basis, coeff_model(model), trial_seed(42, t))
                     for t in range(4)])
    for eta, zs in zip(etas, roots(basis, etas)):
        assert np.all(zs.radii > 0)  # proven by disjoint disks, no fallback
        eig = np.linalg.eigvals(zerocount._comrade(basis, eta))
        dist = np.abs(zs.roots[:, None] - eig[None, :])
        near = np.argmin(dist, axis=1)
        assert np.unique(near).size == n
        assert np.all(dist[np.arange(n), near]
                      <= 1e-12 * np.maximum(1.0, np.abs(zs.roots)))
        assert np.all(zs.radii < 0.5 * np.min(
            dist + np.diag(np.full(n, np.inf))[near], axis=1))


def test_double_root_refused_by_disjoint_disks():
    # z^2 (z - 1): the iteration settles every approximation, but the two
    # near 0 share one double zero, so their inclusion disks overlap and the
    # comrade matrix answers instead (radii 0, both roots exactly 0)
    basis, eta = _plain([0, 0, -1, 1])
    z, p, scale, settled = zerocount._aberth(
        functools.partial(eval_poly, basis, eta[None], derivs=True),
        zerocount._starts(basis, eta[None]))
    assert settled.all()
    rad, gap = zerocount._inclusion_radii(basis, eta[None], z, p, scale)
    pairs = np.abs(z[0][:, None] - z[0][None, :]) <= rad[0][:, None] + rad[0][None, :]
    assert np.count_nonzero(pairs & ~np.eye(3, dtype=bool)) == 2
    zs = roots(basis, eta)
    assert np.array_equal(zs.radii, np.zeros(3))
    assert np.count_nonzero(zs.roots == 0) == 2


def test_edge_ties_decided_by_inclusion_radius():
    # a point just below the ray arg 0 lies on it when its disk reaches it:
    # then it belongs to the sector that starts there, not the one that ends
    z = np.array([2 - 1e-10j])
    first, last = Region.sector(0.4, 0, 1.0), Region.sector(0.4, 5.0, 2 * math.pi)
    assert not first.contains(z)[0] and last.contains(z)[0]
    assert first.contains(z, 1e-9)[0] and not last.contains(z, 1e-9)[0]
    # an argument that rounds to 2 pi is argument 0
    assert first.contains([2 - 1e-30j])[0] and not last.contains([2 - 1e-30j])[0]
    # at degree 100 the zero next to the mass point z = 1 of constant:0.5 is
    # within 1e-20 of the real axis: it is counted in the sector that starts
    # at arg 0 on every sample, whatever the sign of its roundoff
    basis = alpha_family("constant:0.5").build(100)
    model = coeff_model("gaussian")
    edges = [0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]
    quarters = [Region.sector(0.5, a, b) for a, b in zip(edges[:-1], edges[1:])]
    etas = np.array([sample_poly(basis, model, trial_seed(42, t)) for t in range(12)])
    for zs in roots(basis, etas):
        mass = np.abs(zs.roots - 1.0) <= 1e-13
        assert np.count_nonzero(mass) == 1 and zs.radii[mass][0] > 0
        assert quarters[0].contains(zs.roots[mass], zs.radii[mass])[0]
        assert sum(count_in_region(zs, q) for q in quarters) == \
            count_in_region(zs, Region.sector(0.5, 0, 2 * math.pi))


def test_panel_budget_flags_mass_point_quickly():
    # the mass point sits on the sector's edge ray: the contour count must
    # give up on its panel budget, well inside a second of CPU time
    basis = alpha_family("constant:0.5").build(100)
    eta = sample_poly(basis, coeff_model("gaussian"), trial_seed(42, 0))
    t0 = time.process_time()
    with pytest.raises(BoundaryProximity):
        count_by_argument_principle(basis, eta, Region.sector(0.5, 0, math.pi / 2))
    assert time.process_time() - t0 < 1.0


def _aberth_oracle(evaluate, z0, finish=False):
    """zerocount._aberth with its repulsion summed one column j at a time,
    masked at j = i."""
    z = np.array(z0, dtype=np.complex128)
    n = z.shape[1]
    p, dp = np.zeros_like(z), np.zeros_like(z)
    scale = np.zeros(z.shape)
    settled = np.zeros(z.shape, dtype=bool)
    flat = z.reshape(-1)
    live = np.arange(z.size)
    for _ in range(zerocount.ABERTH_STEPS):
        if not live.size:
            break
        rows, pos = np.divmod(live, n)
        zl = flat[live]
        pl, dpl, sl = evaluate(zl, rows=rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = pl / dpl
        done = (np.abs(pl) <= zerocount._roundoff(n, sl)) | zerocount._tiny(newton, zl)
        if finish:  # the model stage: settle at 1e-8 and take the last step
            done |= np.abs(newton) <= 1e-8 * np.maximum(1.0, np.abs(zl))
            for i in np.flatnonzero(done):
                flat[live[i]] = zl[i] - newton[i]
        at = live[done]
        p.flat[at], dp.flat[at], scale.flat[at] = pl[done], dpl[done], sl[done]
        settled.flat[at] = True
        move = ~done
        live, rows, pos, zl, newton = (x[move] for x in (live, rows, pos, zl, newton))
        pull = np.zeros_like(zl)
        for j in range(n):
            d = zl - z[rows, j]
            pull += np.divide(1.0, d, out=np.zeros_like(d), where=pos != j)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            znew = zl - newton / (1.0 - newton * pull)
        flat[live] = znew
        failed = np.unique(rows[~np.isfinite(znew)])
        if failed.size:
            settled[failed] = False
            live = live[~np.isin(rows, failed)]
    return z, p, dp, scale, settled


def _radii(basis, etas, n, p, scale, prod, w):
    """n (|P| + rounding bound) / (|lead| prod w), infinite where that
    denominator is not finite and positive."""
    den = np.abs(etas[:, -1:] * basis.kappas[-1]) * prod * w
    ok = np.isfinite(den) & (den > 0)
    num = n * (np.abs(p) + zerocount._roundoff(n, scale))
    return np.where(ok, num / np.where(ok, den, 1.0), np.inf)


def _inclusion_radii_oracle(basis, etas, z, p, scale):
    """zerocount._inclusion_radii with the distance moduli, their product
    and their minimum taken one column j at a time."""
    n = z.shape[1]
    az = np.abs(z)
    w = np.divide(1.0, az, out=np.ones(z.shape), where=az > 1.0)
    prod = np.ones(z.shape)
    gap = np.full(z.shape, np.inf)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for j in range(n):
            d = np.abs(z - z[:, j:j + 1])
            d[:, j] = np.inf
            np.minimum(gap, d, out=gap)
            d *= w
            d[:, j] = 1.0
            prod *= d
        rad = _radii(basis, etas, n, p, scale, prod, w)
    return rad, gap


def _complex_product_radii(basis, etas, z, p, scale):
    """The inclusion radii by the complex Weierstrass product itself:
    prod_{j != i} (z_i - z_j), or z_i^-(n-1) prod_{j != i} (z_i - z_j) =
    prod_{j != i} (1 - z_j / z_i) where |z_i| > 1, one column at a time."""
    n = z.shape[1]
    out = np.abs(z) > 1.0
    w = np.divide(1.0, z, out=np.ones_like(z), where=out)
    zw = np.where(out, 1.0, z)
    prod = np.ones_like(z)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for j in range(n):
            f = zw - z[:, j:j + 1] * w
            f[:, j] = 1.0
            prod *= f
        return _radii(basis, etas, n, p, scale, np.abs(prod), np.abs(w))


def _bits(x):
    return x.dtype, x.shape, x.tobytes()


def test_repulsion_of_one_point_in_j_order():
    # a chunk of one live point is summed in j order too: numpy's reduction
    # of a single column is pairwise, and differs in the last bits
    rng = np.random.default_rng(3)
    z = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
    rows, pos = np.array([1]), np.array([7])
    want = np.zeros(1, dtype=np.complex128)
    for j in range(200):
        if j != 7:
            want += 1.0 / (z[1, 7] - z[1, j])
    got = zerocount._repulsion(z, z[rows, pos], rows, pos)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("fam,n,block", [
    *[(f, n, 4) for f in ("zero", "constant:0.5", "decay:1:1",
                          "weight:jacobi:pi:1") for n in (1, 2, 37, 200)],
    ("weight:jacobi:pi:1", 200, 32)])
def test_aberth_bit_for_bit_against_per_column_oracle(fam, n, block):
    # the chunked repulsion sum and radii products add and multiply the
    # terms in j order, as the column loops do.  At n = 200 a chunk holds
    # 327 points: 4 rows start with 800 live points (three chunks, the
    # last one ragged), a 32-row block with 6,400 (twenty chunks).  The
    # loop is checked on the monomial model from the circle, and in the
    # basis from the circle and from the model's roots, the start roots()
    # uses.
    basis = alpha_family(fam).build(n)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(5, t)) for t in range(block)])
    coefs, _ = zerocount._monomial_coefficients(basis, etas)
    in_basis = functools.partial(eval_poly, basis, etas, derivs=True)
    circle = zerocount._circle(block, n)
    model = functools.partial(zerocount._horner, coefs,
                              table=zerocount._horner_table(coefs))
    for evaluate, z0, finish in ((model, circle, False),
                                 (model, circle, True),
                                 (in_basis, circle, False),
                                 (in_basis, zerocount._starts(basis, etas), False)):
        got = zerocount._aberth(evaluate, z0, finish=finish)
        z, p, _, scale, settled = _aberth_oracle(evaluate, z0, finish)
        for g, w in zip(got, (z, p, scale, settled)):
            assert _bits(g) == _bits(w)
    rad, gap = _inclusion_radii_oracle(basis, etas, z, p, scale)
    for g, w in zip(zerocount._inclusion_radii(basis, etas, z, p, scale),
                    (rad, gap)):
        assert _bits(g) == _bits(w)
    for zs, r in zip(roots(basis, etas), rad):
        if zs.radii.any():  # proven by disjoint disks, not the comrade matrix
            assert _bits(zs.radii) == _bits(r)


@pytest.mark.parametrize("fam", ["zero", "decay:1:1", "weight:jacobi:pi:1",
                                 "constant:0.5"])
@pytest.mark.parametrize("n", [37, 200, 800])
def test_inclusion_radii_match_complex_product(fam, n):
    # the radii from the real distance table are the radii of the complex
    # Weierstrass product up to rounding, on proven rows whose roots lie on
    # both sides of the unit circle (a single row of constant:0.5 at
    # n = 800, which only a dense comrade eigensolve proves)
    basis = alpha_family(fam).build(n)
    block = 1 if (fam, n) == ("constant:0.5", 800) else 2
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(9, t)) for t in range(block)])
    z = np.array([zs.roots for zs in roots(basis, etas)])
    assert ((np.abs(z) < 1).any(axis=1) & (np.abs(z) > 1).any(axis=1)).all()
    p, scale = (x.reshape(z.shape) for x in eval_poly(
        basis, etas, z.reshape(-1), rows=np.repeat(np.arange(block), n)))
    got, _ = zerocount._inclusion_radii(basis, etas, z, p, scale)
    want = _complex_product_radii(basis, etas, z, p, scale)
    assert np.isfinite(got).all() and np.all(got > 0)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("z", [[0.5, 1e200, 2e200j, -3e200],  # overflows
                               [1e-120, 2e-120, 3e-120j, -4e-120]])  # underflows
def test_inclusion_radius_infinite_where_product_leaves_range(z):
    # |0.5 - 1e200| |0.5 - 2e200 i| |0.5 + 3e200| overflows; every product of
    # three distances of about 1e-120 underflows to 0
    basis, eta = _plain([1, 2, 3, 4, 1])
    z = np.array([z], dtype=np.complex128)
    p, scale = np.zeros(z.shape, dtype=np.complex128), np.ones(z.shape)
    rad, _ = zerocount._inclusion_radii(basis, eta[None], z, p, scale)
    want = _complex_product_radii(basis, eta[None], z, p, scale)
    assert rad[0, 0] == np.inf
    assert np.array_equal(np.isinf(rad), np.isinf(want))
    assert np.allclose(rad[np.isfinite(rad)], want[np.isfinite(want)],
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, 2, 37, 200])
def test_monomial_coefficients_of_zero_family_are_eta(n):
    # phi_k = z^k when every alpha is 0: the FFT of the circle samples gives
    # eta back, each coefficient off by about eps max |P| on the circle
    basis = alpha_family("zero").build(n)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(12, t)) for t in range(4)])
    coefs, _ = zerocount._monomial_coefficients(basis, etas)
    assert np.max(np.abs(coefs - etas)) <= 1e-13 * np.max(np.abs(etas))


@pytest.mark.parametrize("fam", ["decay:1:1", "weight:jacobi:pi:1"])
@pytest.mark.parametrize("n", [1, 2, 37, 200])
def test_horner_matches_eval_poly(fam, n):
    # the model agrees with the value recursion, both scaled by z^-n where
    # |z| > 1, within their rounding: each monomial coefficient is off by
    # about eps max |P| on the circle, and each route rounds by about eps
    # times its scale (sum |c_k| for Horner), over at most n + 1 terms
    # (n times as much for P')
    basis = alpha_family(fam).build(n)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(9, t)) for t in range(3)])
    rng = np.random.default_rng(n)
    z = 1.5 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
    rows = rng.integers(0, 3, 50)
    assert np.any(np.abs(z) > 1.0) and np.any(np.abs(z) < 1.0)
    coefs, _ = zerocount._monomial_coefficients(basis, etas)
    hp, hdp, hscale = zerocount._horner(coefs, z, rows,
                                        zerocount._horner_table(coefs))
    p, dp, scale = eval_poly(basis, etas, z, derivs=True, rows=rows)
    circle = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    top = np.array([np.max(np.abs(eval_poly(basis, eta, circle)[0]))
                    for eta in etas])
    tol = zerocount._roundoff(n, top[rows] + hscale + scale)
    assert np.all(np.abs(hp - p) <= tol)
    assert np.all(np.abs(hdp - dp) <= n * tol)


def test_block_coefficients_match_rows_alone():
    # at n = 37 two of the 38 roots of unity round to |z| > 1, where
    # eval_poly returns P / z^n: a row's coefficients and sample spread are
    # the same bits in a block as alone
    basis = alpha_family("decay:1:1").build(37)
    circle = np.exp(2j * np.pi * np.arange(38) / 38)
    assert np.count_nonzero(np.abs(circle) > 1.0) == 2
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(4, t)) for t in range(7)])
    coefs, spread = zerocount._monomial_coefficients(basis, etas)
    for k, eta in enumerate(etas):
        alone, alone_spread = zerocount._monomial_coefficients(basis, eta[None])
        assert _bits(alone[0]) == _bits(coefs[k])
        assert _bits(alone_spread) == _bits(spread[k:k + 1])


@pytest.mark.parametrize("fam,modelled", [("constant:0.5", False),
                                          ("zero", True),
                                          ("weight:jacobi:pi:1", True)])
def test_sample_spread_decides_the_start(monkeypatch, fam, modelled):
    # constant:0.5 samples spread by far more than 1/sqrt(eps) around its
    # mass point z = 1, so its rows start on the circle and the model's
    # Horner steps never run; zero and jacobi rows all go through the model
    basis = alpha_family(fam).build(100)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(42, t)) for t in range(8)])
    rows_seen = []
    horner = zerocount._horner

    def counting(coefs, z, rows, **kw):
        rows_seen.append(coefs.shape[0])
        return horner(coefs, z, rows, **kw)

    monkeypatch.setattr(zerocount, "_horner", counting)
    assert all(zs.radii.all() for zs in roots(basis, etas))
    assert rows_seen == ([8] * len(rows_seen) if modelled else [])
    assert bool(rows_seen) == modelled


_REGIONS = [Region.annulus(0.3, 0.6), Region.annulus(0.8, 0.95),
            Region.annulus(0, 0.5), Region.annulus(1.5, 2),
            Region.sector(0.5, 0, math.pi / 2)]


@pytest.mark.parametrize("fam", ["zero", "decay:1:1", "weight:jacobi:pi:1",
                                 "weight:cosine"])
@pytest.mark.parametrize("n", [25, 100, 200])
def test_roots_independent_of_start(monkeypatch, fam, n):
    # the model's roots are only starts: from them or from the circle, the
    # iteration in the basis gives the same roots within 1e-12 max(1, |z|),
    # one to one, and the same count in every region
    basis = alpha_family(fam).build(n)
    model = coeff_model("gaussian")
    blocks = [np.array([sample_poly(basis, model, trial_seed(61, t))
                        for t in range(lo, lo + 8)]) for lo in (0, 8)]
    from_model = [zs for etas in blocks for zs in roots(basis, etas)]
    monkeypatch.setattr(zerocount, "_starts", lambda basis, etas:
                        zerocount._circle(etas.shape[0], basis.order))
    from_circle = [zs for etas in blocks for zs in roots(basis, etas)]
    for got, want in zip(from_model, from_circle):
        dist = np.abs(got.roots[:, None] - want.roots[None, :])
        near = np.argmin(dist, axis=1)
        assert np.unique(near).size == n
        assert np.all(dist[np.arange(n), near]
                      <= 1e-12 * np.maximum(1.0, np.abs(got.roots)))
        assert [count_in_region(got, r) for r in _REGIONS] == \
            [count_in_region(want, r) for r in _REGIONS]


def test_roots_memory_bounded():
    # a 32-row block at n = 200 holds no (n x live) pairwise array: chunks
    # of pairwise terms hold at most 1 MB, where the whole 6,400 x 200
    # repulsion matrix alone would take 20 MB
    basis = alpha_family("weight:jacobi:pi:1").build(200)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(8, t)) for t in range(32)])
    tracemalloc.start()
    try:
        found = roots(basis, etas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(zs.radii.all() for zs in found)
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("n", [37, 200])
def test_bits_independent_of_gather_and_chunk_sizes(monkeypatch, n):
    # how many degrees one take gathers and how many points one pairwise
    # chunk holds change no bit.  _GATHER_TERMS = 1 gathers one degree at
    # a time, 7 two degrees at a time for the 3-row reads of the value
    # check and the circle samples; _CHUNK_POINTS = 2**6 makes chunks of
    # one point at both n, and 2**16 is the size before 2**15
    basis = alpha_family("weight:jacobi:pi:1").build(n)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(23, t)) for t in range(3)])
    coefs, _ = zerocount._monomial_coefficients(basis, etas)
    table = zerocount._horner_table(coefs)
    rng = np.random.default_rng(n)
    z = 1.5 * np.sqrt(rng.random((3, n))) * np.exp(2j * np.pi * rng.random((3, n)))
    assert (np.abs(z) > 1).any() and (np.abs(z) < 1).any()
    rows, pos = np.divmod(np.arange(z.size), n)
    p, scale = (x.reshape(z.shape) for x in eval_poly(basis, etas, z.reshape(-1),
                                                      rows=rows))

    def outcome():
        got = [*zerocount._horner(coefs, z.reshape(-1), rows, table),
               zerocount._repulsion(z, z.reshape(-1), rows, pos),
               *zerocount._inclusion_radii(basis, etas, z, p, scale)]
        for zs in roots(basis, etas):
            got += [zs.roots, zs.residuals, zs.radii]
        return [_bits(x) for x in got]

    want = outcome()
    for gather in (1, 7, 2 ** 15):
        for chunk in (2 ** 6, 2 ** 10, 2 ** 15, 2 ** 16):
            monkeypatch.setattr(opuc, "_GATHER_TERMS", gather)
            monkeypatch.setattr(zerocount, "_CHUNK_POINTS", chunk)
            assert outcome() == want, (gather, chunk)


def test_block_evaluations_memory_bounded():
    # on a 32-row block at n = 400 (12,800 points), _horner, _repulsion and
    # _inclusion_radii each allocate at most 2 MB beyond their inputs and
    # outputs: a gathered block of degrees and a pairwise chunk hold at
    # most 512 KB each, where one gather of every degree would take 82 MB
    n, t = 400, 32
    basis = alpha_family("decay:1:1").build(n)
    rng = np.random.default_rng(40)
    coefs = rng.standard_normal((t, n + 1)) + 1j * rng.standard_normal((t, n + 1))
    table = zerocount._horner_table(coefs)
    z = 1.5 * np.sqrt(rng.random((t, n))) * np.exp(2j * np.pi * rng.random((t, n)))
    rows, pos = np.divmod(np.arange(z.size), n)
    p, scale = z * 1e-14, np.ones(z.shape)
    calls = {"_horner": lambda: zerocount._horner(coefs, z.reshape(-1), rows, table),
             "_repulsion": lambda: (zerocount._repulsion(z, z.reshape(-1), rows, pos),),
             "_inclusion_radii": lambda: zerocount._inclusion_radii(
                 basis, coefs, z, p, scale)}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - sum(x.nbytes for x in got)
        assert extra <= 2 * 2 ** 20, (name, extra)


def _nan_starts(basis, etas):
    """NaN starts: their values are checked first, like every start's."""
    return np.full((etas.shape[0], basis.order), np.nan + 0j)


def test_eigenvalue_start_settles_and_proves_every_row(monkeypatch):
    # NaN starts fail every row of the first pass, so each row starts again
    # from its comrade eigenvalues: the same iteration and certificate prove
    # it by disjoint disks, with the counts of the unforced call
    blocks = []
    for fam in ("zero", "decay:1:1", "weight:jacobi:pi:1"):
        basis = alpha_family(fam).build(100)
        etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                     trial_seed(42, t)) for t in range(8)])
        blocks.append((basis, etas, roots(basis, etas)))
    monkeypatch.setattr(zerocount, "_starts", _nan_starts)
    for basis, etas, want in blocks:
        for got, zs in zip(roots(basis, etas), want):
            assert np.all(got.radii > 0)
            assert [count_in_region(got, r) for r in _REGIONS] == \
                [count_in_region(zs, r) for r in _REGIONS]


def test_constant_half_rows_proven_from_eigenvalue_start():
    # constant:0.5 at n = 300: trials 3 and 23 of seed 42 do not settle
    # within ABERTH_STEPS from their start; from their comrade eigenvalues
    # they are proven, and the mass-point root on the ray arg 0 counts in
    # the sector that starts there
    basis = alpha_family("constant:0.5").build(300)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(42, t)) for t in (3, 23)])
    for zs in roots(basis, etas):
        assert np.all(zs.radii > 0)
        assert count_in_region(zs, Region.sector(0.5, 0, math.pi / 2)) == 59


def test_failed_eigensolve_refuses_only_its_row(monkeypatch):
    # a row whose comrade eigenvalues cannot be computed is refused; every
    # other row of the block is the same as when solved alone
    basis = alpha_family("decay:1:1").build(30)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(11, t)) for t in range(4)])
    bad = zerocount._comrade(basis, etas[1])
    eigvals = np.linalg.eigvals

    def failing(m):
        if np.array_equal(m, bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(m)

    monkeypatch.setattr(zerocount, "_starts", _nan_starts)
    monkeypatch.setattr(np.linalg, "eigvals", failing)
    found = roots(basis, etas)
    assert isinstance(found[1], NoConvergence)
    assert "comrade eigenvalues failed" in str(found[1])
    with pytest.raises(NoConvergence):
        roots(basis, etas[1])
    for k in (0, 2, 3):
        alone = roots(basis, etas[k])
        assert np.all(found[k].radii > 0)
        for got, want in zip((found[k].roots, found[k].residuals, found[k].radii),
                             (alone.roots, alone.residuals, alone.radii)):
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_coefficients_refused_before_any_work(monkeypatch, bad):
    # a NaN or infinite coefficient, leading or not, is a usage error for
    # one vector, for a whole block and for the contour count, raised
    # before anything is evaluated
    basis, _ = _plain(np.zeros(4))

    def no_work(*args, **kw):
        raise AssertionError("evaluated non-finite coefficients")

    monkeypatch.setattr(zerocount, "eval_poly", no_work)
    for eta in ([1, 2, 3, bad], [1, bad, 3, 4]):
        with pytest.raises(UsageError):
            roots(basis, eta)
        with pytest.raises(UsageError):
            roots(basis, [[-8, 0, 0, 1], eta])
        for region in (Region.annulus(0.3, 0.6), Region.sector(0.5, 0, 1.0)):
            with pytest.raises(UsageError):
                count_by_argument_principle(basis, eta, region)


def test_contour_count_refuses_malformed_coefficients():
    # the contour count takes one vector of n + 1 coefficients: a scalar,
    # a block or a vector of the wrong length is a usage error
    basis, _ = _plain(np.zeros(4))
    for eta in (5.0, [[-8, 0, 0, 1], [1, 2, 3, 4]], [1, 2, 3]):
        with pytest.raises(UsageError):
            count_by_argument_principle(basis, eta, Region.annulus(0.3, 0.6))


def _monomial_coefficients_oracle(basis, etas):
    """zerocount._monomial_coefficients by the tiled route: the n+1 roots of
    unity repeated for every row, each point naming its row."""
    n = basis.order
    zs = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    rows = np.repeat(np.arange(etas.shape[0]), n + 1).reshape(-1, n + 1)
    p, _ = eval_poly(basis, etas, np.tile(zs, (etas.shape[0], 1)), rows=rows)
    p *= np.where(np.abs(zs) > 1.0, zs ** n, 1.0)
    mag = np.abs(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = mag.max(axis=1, initial=0.0) / mag.min(axis=1, initial=np.inf)
    return np.fft.fft(p, axis=1) / (n + 1), spread


@pytest.mark.parametrize("fam", ["zero", "decay:1:1", "weight:jacobi:pi:1",
                                 "constant:0.5"])
@pytest.mark.parametrize("n", [1, 2, 37, 200])
def test_monomial_coefficients_bit_for_bit_against_tiled_oracle(fam, n):
    # one recursion over the n+1 shared points gives every row the bits of
    # the tiled route, whose recursion ran once per row
    basis = alpha_family(fam).build(n)
    for t in (1, 7, 32):
        etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                     trial_seed(13, k)) for k in range(t)])
        got = zerocount._monomial_coefficients(basis, etas)
        want = _monomial_coefficients_oracle(basis, etas)
        for g, w in zip(got, want):
            assert _bits(g) == _bits(w), t


def test_block_samples_recurse_once_on_the_circle(monkeypatch):
    # a 20-row block at n = 100 samples its rows through one recursion on
    # the 101 roots of unity: no eval_poly call inside roots() evaluates
    # the 2,020 circle points of 20 tiled copies
    basis = alpha_family("zero").build(100)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(42, t)) for t in range(20)])
    on_circle = []
    inner = zerocount.eval_poly

    def counting(basis, eta, z, **kw):
        z = np.asarray(z)
        on_circle.append(np.count_nonzero(np.abs(np.abs(z) - 1.0) <= 4 * zerocount._EPS))
        return inner(basis, eta, z, **kw)

    monkeypatch.setattr(zerocount, "eval_poly", counting)
    assert all(zs.radii.all() for zs in roots(basis, etas))
    assert max(on_circle) == 101


def _closure_arcs(region):
    """region's positively oriented boundary as smooth arcs (gamma, dgamma)
    over [0, 1], one pair of closures per arc: circles with a ccw flag and
    segments.  The oracle of Region.boundary_arcs' rows and the one
    expression that _panel_integrals evaluates them by."""

    def circle(rad, ccw=True, a0=0.0, a1=2 * math.pi):
        lo, hi = (a0, a1) if ccw else (a1, a0)

        def g(t):
            return rad * np.exp(1j * (lo + (hi - lo) * t))

        def dg(t):
            return rad * 1j * (hi - lo) * np.exp(1j * (lo + (hi - lo) * t))

        return g, dg

    def segment(z0, z1):
        return (lambda t: z0 + (z1 - z0) * t,
                lambda t: np.full_like(np.asarray(t, dtype=float),
                                       z1 - z0, dtype=np.complex128))

    if region.kind == "annulus":
        s, t = region.params
        arcs = [circle(t, ccw=True)]
        if s > 0:
            arcs.append(circle(s, ccw=False))
        return arcs
    r, alpha, beta = region.params
    ro = 1.0 / r
    ea, eb = np.exp(1j * alpha), np.exp(1j * beta)
    return [
        circle(ro, ccw=True, a0=alpha, a1=beta),
        segment(ro * eb, r * eb),
        circle(r, ccw=False, a0=alpha, a1=beta),
        segment(r * ea, ro * ea),
    ]


def _panel_integrals_oracle(basis, eta, arcs, arc, a, b):
    """zerocount._panel_integrals on the closures of _closure_arcs, one arc
    at a time, with eval_poly's scale computed, as it was before the audit
    skipped it."""
    h = (b - a)[:, None]
    t = a[:, None] + h * (0.5 * (zerocount._GL_NODES[None, :] + 1.0))
    z = np.empty(t.shape, dtype=np.complex128)
    dz = np.empty(t.shape, dtype=np.complex128)
    for k, (g, dg) in enumerate(arcs):
        on = arc == k
        z[on], dz[on] = g(t[on]), dg(t[on])
    val, dval, _ = zerocount.eval_poly(basis, eta, z, derivs=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = dval / val * dz * (0.5 * h) * zerocount._GL_WEIGHTS[None, :]
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def _contour_integral_oracle(basis, eta, arcs, spent_log):
    """zerocount._contour_integral with the initial panels and their halves
    in two eval_poly calls; spent_log collects the panels of each call."""
    def panels(arc, a, b):
        spent_log.append(a.size)
        return _panel_integrals_oracle(basis, eta, arcs, arc, a, b)

    arc = np.repeat(np.arange(len(arcs)), 8)
    a = np.tile(np.linspace(0.0, 1.0, 9)[:-1], len(arcs))
    b = a + 0.125
    whole, _ = panels(arc, a, b)
    total = 0.0 + 0.0j
    spent = a.size
    for _ in range(zerocount._MAX_DEPTH):
        m = a.size
        spent += 2 * m
        if spent > zerocount._PANEL_BUDGET:
            raise BoundaryProximity(
                f"contour count spent its budget of {zerocount._PANEL_BUDGET} panels")
        mid = 0.5 * (a + b)
        halves, scales = panels(np.concatenate([arc, arc]),
                                np.concatenate([a, mid]), np.concatenate([mid, b]))
        left, right = halves[:m], halves[m:]
        err = np.abs(whole - (left + right))
        done = err < np.maximum(zerocount._PANEL_TOL,
                                1e-13 * (scales[:m] + scales[m:]))
        total += np.sum(left[done]) + np.sum(right[done])
        if np.all(done):
            return complex(total), True
        keep = ~done
        arc = np.concatenate([arc[keep], arc[keep]])
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    return complex(total + np.sum(whole)), False


def _contour_outcome(basis, eta, region, oracle):
    """The integral's total bits and settled flag, or the refusal, with the
    panels evaluated on the way."""
    spent = []
    with pytest.MonkeyPatch.context() as mp:
        if oracle:
            def run():
                return _contour_integral_oracle(
                    basis, eta, _closure_arcs(region), spent)
        else:
            inner = zerocount._panel_integrals

            def counting(basis, eta, arcs, arc, a, b):
                spent.append(a.size)
                return inner(basis, eta, arcs, arc, a, b)

            mp.setattr(zerocount, "_panel_integrals", counting)

            def run():
                return zerocount._contour_integral(
                    basis, eta, region.boundary_arcs())
        try:
            total, settled = run()
            outcome = (np.complex128(total).tobytes(), settled)
        except BoundaryProximity as exc:
            outcome = str(exc)
    return outcome, sum(spent)


_CONTOURS = [Region.annulus(0.3, 0.6), Region.annulus(0.8, 0.95),
             Region.annulus(0, 0.5), Region.annulus(1.5, 2),
             Region.annulus(0.2, 3.0), Region.sector(0.5, 0, math.pi / 2),
             Region.sector(0.7, 1.0, 3.0), Region.sector(0.9, 4.0, 2 * math.pi)]


def test_boundary_rows_trace_a_closed_contour():
    # each region's rows: a sector's four arcs meet end to start, the last
    # back at the first, each annulus rim closes on itself, and dz is the
    # derivative of z (a central difference agrees to 1e-7 relative)
    t = np.linspace(0.0, 1.0, 41)
    for region in _CONTOURS:
        arcs = region.boundary_arcs()
        assert not arcs[:, 2:].imag.any()  # rad, a0 and a1 are real
        k = np.arange(len(arcs))
        ends = zerocount._arc_points(arcs, k, np.array([0.0, 1.0]))[0]
        starts = ends[:, 0] if region.kind == "annulus" else np.roll(ends[:, 0], -1)
        assert np.all(np.abs(ends[:, 1] - starts) <= 1e-15 * np.abs(starts)), region
        dz = zerocount._arc_points(arcs, k, t)[1]
        h = 1e-6
        diff = (zerocount._arc_points(arcs, k, t + h)[0]
                - zerocount._arc_points(arcs, k, t - h)[0]) / (2 * h)
        assert np.all(np.abs(dz - diff) <= 1e-7 * np.abs(dz)), region


@pytest.mark.parametrize("fam", ["zero", "decay:1:1", "weight:jacobi:pi:1"])
@pytest.mark.parametrize("n", [100, 200])
def test_contour_integral_bit_for_bit_against_two_call_oracle(fam, n):
    # evaluating the initial panels together with their halves, and the
    # boundary rows by one expression, changes no total, no settled flag
    # and no panel count against the per-arc closures
    basis = alpha_family(fam).build(n)
    for seed in (1, 2, 3):
        eta = sample_poly(basis, coeff_model("gaussian"), trial_seed(seed, 0))
        for region in _CONTOURS:
            got = _contour_outcome(basis, eta, region, False)
            want = _contour_outcome(basis, eta, region, True)
            assert got == want, (seed, region)
            assert isinstance(got[0], tuple) and got[0][1]


def test_contour_refusal_spends_the_oracle_panels(monkeypatch):
    # a zero on the contour is refused after the same panel spend as the
    # oracle: the mass point of constant:0.5 on the ray arg 0, and the root
    # of z - 0.6 on the circle |z| = 0.6, each spend the panel budget.
    # Smaller budgets, from 100 (above the 96 panels of a sector's first
    # level) up, are met at the same level too.
    basis = alpha_family("constant:0.5").build(100)
    eta = sample_poly(basis, coeff_model("gaussian"), trial_seed(42, 0))
    for budget in (*range(100, 1000, 30), zerocount._PANEL_BUDGET):
        monkeypatch.setattr(zerocount, "_PANEL_BUDGET", budget)
        for b, e, region in ((basis, eta, Region.sector(0.5, 0, math.pi / 2)),
                             (*_plain([-0.6, 1.0]), Region.annulus(0.3, 0.6))):
            got = _contour_outcome(b, e, region, False)
            assert got == _contour_outcome(b, e, region, True), budget
            assert f"budget of {budget} panels" in got[0]


def test_audit_saves_one_evaluation(monkeypatch):
    # the audit of annulus(0.3, 0.6) evaluates its initial panels with
    # their halves: one eval_poly call fewer than the two-call oracle
    basis = alpha_family("zero").build(100)
    eta = sample_poly(basis, coeff_model("gaussian"), trial_seed(42, 0))
    calls = []
    inner = zerocount.eval_poly

    def counting(*args, **kw):
        calls.append(1)
        return inner(*args, **kw)

    region = Region.annulus(0.3, 0.6)
    monkeypatch.setattr(zerocount, "eval_poly", counting)
    count_by_argument_principle(basis, eta, region)
    got = len(calls)
    calls.clear()
    _contour_integral_oracle(basis, eta, _closure_arcs(region), [])
    assert got == len(calls) - 1


_SWEEP_REGIONS = [Region.annulus(0.3, 0.6), Region.annulus(0.8, 0.95),
                  Region.annulus(1.5, 2), Region.sector(0.5, 0, math.pi / 2),
                  Region.sector(0.7, 1.0, 3.0)]


def _audit_outcome(basis, eta, region, near):
    try:
        return count_by_argument_principle(basis, eta, region, near)
    except BoundaryProximity as exc:
        return type(exc).__name__


@pytest.mark.parametrize("fam", ["zero", "decay:1:1", "weight:jacobi:pi:1",
                                 "weight:cosine", "constant:0.2", "constant:0.5"])
def test_graded_audit_keeps_every_outcome(fam):
    # the roots only grade the audit's first panels: no count or refusal
    # moves, and neither does it for a wrong hint -- the roots shifted by
    # 0.05, another row's roots, no points, or every root twice.  The
    # refusals are the mass points of constant:0.2 and 0.5 on the ray arg 0
    for n in (25, 100, 200):
        basis = alpha_family(fam).build(n)
        etas = np.array([sample_poly(basis, coeff_model("gaussian"), trial_seed(7, t))
                         for t in range(2)])
        (z0, z1) = (zs.roots for zs in roots(basis, etas))
        for region in _SWEEP_REGIONS:
            want = _audit_outcome(basis, etas[1], region, None)
            assert _audit_outcome(basis, etas[1], region, z1) == want, (n, region)
            want = _audit_outcome(basis, etas[0], region, None)
            for near in (z0, z0 + 0.05, z1, np.zeros(0), np.repeat(z0, 2)):
                assert _audit_outcome(basis, etas[0], region, near) == want, (n, region)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_hint_is_refused_before_evaluation(monkeypatch, bad):
    def no_evaluation(*args, **kw):
        raise AssertionError("evaluated before refusing the hint")

    monkeypatch.setattr(zerocount, "eval_poly", no_evaluation)
    with pytest.raises(UsageError, match="hint points must be finite"):
        count_by_argument_principle(*_plain([-0.5, 1.0]), Region.annulus(0.3, 0.6),
                                    [0.5, bad])


def test_graded_first_panels_refine_the_uniform_ones():
    # every arc's first panels tile [0, 1], hold every breakpoint k/8 of
    # the eight equal panels, are at most 2^_GRADE_HALVINGS times as many,
    # and none is shorter than _GRADE_FLOOR unless it is one of the eight.
    # A hint on the contour spends every halving there; no hint, or none
    # at all, leaves the eight equal panels bit for bit
    basis = alpha_family("zero").build(100)
    z = roots(basis, sample_poly(basis, coeff_model("gaussian"), trial_seed(42, 0))).roots
    for region in [*_CONTOURS, Region.annulus(0.004, 0.5)]:
        arcs = region.boundary_arcs()
        k = np.arange(len(arcs))
        speed = np.abs(zerocount._arc_points(arcs, k, np.zeros(1))[1][:, 0])
        on_contour = zerocount._arc_points(arcs, k, np.array([0.3]))[0][:, 0]
        uniform = zerocount._first_panels(arcs, None)
        assert uniform[0].size == 8 * len(arcs)
        for same in zerocount._first_panels(arcs, np.zeros(0)), uniform:
            assert all(np.array_equal(x, y) for x, y in zip(same, uniform))
        for near in (z, z + 0.05, on_contour):
            arc, a, b = zerocount._first_panels(arcs, near)
            for j in k:
                lo, hi = np.sort(a[arc == j]), np.sort(b[arc == j])
                assert lo[0] == 0.0 and hi[-1] == 1.0 and np.array_equal(lo[1:], hi[:-1])
                assert set((np.arange(8) / 8).tolist()) <= set(lo.tolist())
                assert lo.size <= 8 * 2 ** zerocount._GRADE_HALVINGS
                length = speed[j] * (hi - lo)
                assert np.all((length >= zerocount._GRADE_FLOOR)
                              | (hi - lo == 0.125)), region
                if near is on_contour:  # halved as often as the cap and floor allow
                    halvings = min(zerocount._GRADE_HALVINGS,
                                   int(math.log2(speed[j] / 8 / zerocount._GRADE_FLOOR)))
                    assert np.min(hi - lo) == 0.125 / 2 ** max(halvings, 0), region


def test_graded_audit_takes_fewer_evaluations(monkeypatch):
    # timing-free cost guard on the benchmark's audit: zero at n = 100 over
    # A(0.3, 0.6), trial 0 of seeds 0..19, audited by mc as it audits a
    # block (graded by the certified roots) against the audit without a
    # hint.  The median number of panel evaluations must fall, and no
    # trial may spend more panels than the uniform audit plus the most the
    # grading can add to the first level (each new panel with its halves)
    basis = alpha_family("zero").build(100)
    model, region = coeff_model("gaussian"), Region.annulus(0.3, 0.6)
    log = []
    inner = zerocount._panel_integrals

    def counting(basis, eta, arcs, arc, a, b):
        log.append(a.size)
        return inner(basis, eta, arcs, arc, a, b)

    monkeypatch.setattr(zerocount, "_panel_integrals", counting)
    cap = 3 * 8 * (2 ** zerocount._GRADE_HALVINGS - 1) * len(region.boundary_arcs())
    graded, uniform = [], []
    for seed in range(20):
        log.clear()
        mc._block_counts((basis, model, region, seed, 0, 1))
        graded.append((len(log), sum(log)))
        log.clear()
        count_by_argument_principle(
            basis, sample_poly(basis, model, trial_seed(seed, 0)), region)
        uniform.append((len(log), sum(log)))
    assert np.median([c for c, _ in graded]) < np.median([c for c, _ in uniform])
    assert all(g <= u + cap for (_, g), (_, u) in zip(graded, uniform))


@pytest.mark.parametrize("fam", ["zero", "decay:1:1", "weight:jacobi:pi:1",
                                 "weight:cosine"])
@pytest.mark.parametrize("n", [1, 2, 3, 37, 200])
def test_circle_step_matches_one_horner_step(monkeypatch, fam, n):
    # the closed-form first step is one Aberth step of _horner from
    # _circle, to 1e-12 relative.  The Horner step starts from the circle
    # points as rounded to doubles, the closed form from the roots of
    # z^n = i themselves; the step moves its start's error by about
    # 1 / |1 - N pull|, so the tolerance grows where that is below 1
    basis = alpha_family(fam).build(n)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(17, t)) for t in range(8)])
    coefs, _ = zerocount._monomial_coefficients(basis, etas)
    circle = zerocount._circle(8, n)
    monkeypatch.setattr(zerocount, "ABERTH_STEPS", 1)
    table = zerocount._horner_table(coefs)
    want = zerocount._aberth(functools.partial(zerocount._horner, coefs,
                                               table=table), circle)[0]
    got = zerocount._circle_step(coefs)
    rows, pos = np.divmod(np.arange(circle.size), n)
    p, dp, _ = zerocount._horner(coefs, circle.reshape(-1), rows, table)
    pull = zerocount._repulsion(circle, circle.reshape(-1), rows, pos)
    cond = np.minimum(1.0, np.abs(1.0 - p / dp * pull)).reshape(circle.shape)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) * cond <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("n", [1, 2, 3, 37, 200])
def test_row_with_vanishing_model_derivative_keeps_the_circle(monkeypatch, n):
    # a model whose P' vanishes at a circle point has no finite first step:
    # its row keeps the circle start, and every other row of the block is
    # started as when it is alone.  Row 1's model is a constant (P' = 0
    # everywhere); at n = 2 row 2's model is z^2 - 2 tau z + 1/2, whose P'
    # is exactly 0 at the circle point z_0 = tau = e^{i pi / 4}
    basis = alpha_family("decay:1:1").build(n)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(19, t)) for t in range(4)])
    sample = zerocount._monomial_coefficients
    coefs, spread = sample(basis, etas)
    bad = [1]
    coefs[1] = 0.0
    coefs[1, 0] = 1.0
    if n == 2:
        coefs[2] = [0.5, -2.0 * np.exp(0.5j * np.pi / 2), 1.0]
        bad.append(2)
    spread[:] = 1.0
    assert not np.isfinite(zerocount._circle_step(coefs)[bad]).all(axis=1).any()
    monkeypatch.setattr(zerocount, "_monomial_coefficients",
                        lambda basis, etas: (coefs, spread))
    got = zerocount._starts(basis, etas)
    assert _bits(got[bad]) == _bits(zerocount._circle(len(bad), n))
    monkeypatch.setattr(zerocount, "_monomial_coefficients", sample)
    for k in sorted({0, 1, 2, 3} - set(bad)):
        alone = zerocount._starts(basis, etas[k:k + 1])
        assert _bits(got[k]) == _bits(alone[0])


def _settle_oracle(basis, etas, z0):
    """zerocount._settle without the value-only check: every start enters
    the Aberth steps that carry P'.  Each settled root is tested once more,
    for a residual of at most 1e-8 or a Newton correction of at most 8 ulps:
    every root the stop test settles passes it, so the verdicts agree."""
    with np.errstate(invalid="ignore"):  # NaN starts
        z, p, dp, scale, settled = _aberth_oracle(
            functools.partial(eval_poly, basis, etas, derivs=True), z0)
    res = zerocount._residual(p, scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = p / dp
    rad, gap = _inclusion_radii_oracle(basis, etas, z, p, scale)
    certified = settled & ((res <= 1e-8) | zerocount._tiny(newton, z))
    proven = (certified & (gap > rad + rad.max(axis=1, keepdims=True))).all(axis=1)
    return z, res, rad, certified, proven


def _checked_settle(monkeypatch, starts):
    """Patch zerocount._settle to assert, on every call, the bits of the
    oracle; each call's starts are appended to `starts`."""
    settle = zerocount._settle

    def checked(basis, etas, z0):
        starts.append(np.array(z0))
        got = settle(basis, etas, z0)
        for g, w in zip(got, _settle_oracle(basis, etas, z0)):
            assert _bits(g) == _bits(w)
        return got

    monkeypatch.setattr(zerocount, "_settle", checked)


@pytest.mark.parametrize("fam,n", [("zero", 25), ("zero", 100),
                                   ("decay:1:1", 100), ("weight:jacobi:pi:1", 200)])
def test_settle_from_model_starts_bit_for_bit(monkeypatch, fam, n):
    # rows that start from their model's roots: the value-only check gives
    # the roots, residuals, radii and verdicts of the settle without it
    basis = alpha_family(fam).build(n)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(23, t)) for t in range(8)])
    starts = []
    _checked_settle(monkeypatch, starts)
    assert all(zs.radii.all() for zs in roots(basis, etas))
    assert len(starts) == 1


def test_settle_from_circle_starts_bit_for_bit(monkeypatch):
    # constant:0.5 rows start on the circle, whose values are checked like
    # any start's; the settle is the same bits as the oracle's
    basis = alpha_family("constant:0.5").build(100)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(42, t)) for t in range(8)])
    starts = []
    _checked_settle(monkeypatch, starts)
    roots(basis, etas)
    assert _bits(starts[0]) == _bits(zerocount._circle(8, 100))


def test_settle_from_eigenvalue_starts_bit_for_bit(monkeypatch):
    # NaN starts send every row on to its comrade eigenvalues (as in
    # test_eigenvalue_start_settles_and_proves_every_row): both settles,
    # the failed one and the one from the eigenvalues, are the oracle's bits
    monkeypatch.setattr(zerocount, "_starts", _nan_starts)
    for fam in ("zero", "decay:1:1", "weight:jacobi:pi:1"):
        basis = alpha_family(fam).build(100)
        etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                     trial_seed(42, t)) for t in range(8)])
        starts = []
        _checked_settle(monkeypatch, starts)
        assert all(zs.radii.all() for zs in roots(basis, etas))
        assert len(starts) == 2 and np.isnan(starts[0]).all()
        for z0, eta in zip(starts[1], etas):
            assert _bits(z0) == _bits(np.linalg.eigvals(zerocount._comrade(basis, eta)))


@pytest.mark.parametrize("fam", ["zero", "decay:1:1", "weight:jacobi:pi:1",
                                 "constant:0.5"])
def test_settle_checks_values_before_derivatives(monkeypatch, fam):
    # the first basis call of a block's settle computes no derivatives and
    # sees every start, as the (T, n) block itself with one row index per
    # row; the first call with derivatives sees exactly the ones that
    # missed the rounding bound, and no later call sees a start that met
    # it.  On the first three families every row starts from its model's
    # roots, each finished by its own Newton step, and under 0.5% of the
    # starts miss, so most blocks take no derivative pass; every
    # constant:0.5 row starts on the circle, and every circle start misses
    n = 100
    basis = alpha_family(fam).build(n)
    etas = np.array([sample_poly(basis, coeff_model("gaussian"),
                                 trial_seed(42, t)) for t in range(20)])
    z0 = zerocount._starts(basis, etas)
    circle = zerocount._circle(20, n)
    on_circle = (z0 == circle).all(axis=1)
    assert on_circle.all() if fam == "constant:0.5" else not on_circle.any()
    calls = []
    inner = zerocount.eval_poly

    def recording(basis, eta, z, **kw):
        got = inner(basis, eta, z, **kw)
        if kw.get("scale", True):  # not the model's circle samples
            calls.append((kw.get("derivs", False), np.array(z), got))
        return got

    monkeypatch.setattr(zerocount, "eval_poly", recording)
    assert all(zs.radii.all() for zs in roots(basis, etas))
    (first, z, (p, scale)), *rest = calls
    assert not first and _bits(z) == _bits(z0)
    missed = np.abs(p) > zerocount._roundoff(n, scale)
    if fam == "constant:0.5":
        assert missed.all()
    else:
        assert np.count_nonzero(missed) < 0.005 * z.size
    met = set(z[~missed].tolist())
    assert not any(met & set(zz.tolist()) for _, zz, _ in rest)
    assert all(derivs for derivs, _, _ in rest)
    assert _bits(rest[0][1]) == _bits(z[missed]) if missed.any() else not rest
