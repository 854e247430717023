import functools
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from opucz import intensity, kernel, opuc, zerocount
from opucz.errors import (
    InsufficientCoefficients,
    InvalidVerblunsky,
    NotPositiveDefinite,
    OpuczError,
    UsageError,
)
from opucz.opuc import (
    AlphaFamily,
    OpucBasis,
    WeightSpec,
    alpha_family,
    eval_poly,
    gauss_jacobi,
    levinson_verblunsky,
    moments_from_weight,
    parse_scalar,
    read_alpha_file,
    regularity_report,
    szego_build,
)

SQRT3 = math.sqrt(3.0)
POINTS = [0.3, -0.7 + 0.2j, 0.5j, 1.0, 1.8 - 0.9j]


def _coeff_rows(basis, m):
    """Monomial coefficients of phi_0..phi_n (row k holds phi_k), read off
    an FFT of values_at on m roots of unity; exact up to roundoff for n < m."""
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    vals = np.array([basis.values_at(z)[0] for z in nodes])
    return np.fft.fft(vals, axis=0).T / m


def _kappa_product(alphas, k):
    """Oracle: kappa_k from the product formula."""
    return float(np.prod(1.0 / np.sqrt(1.0 - np.abs(np.asarray(alphas[:k])) ** 2)))


def test_zero_coefficients_give_monomials():
    b = szego_build(np.zeros(12), 12)
    for z in POINTS:
        phi, ps = b.values_at(z)
        assert np.array_equal(phi, np.cumprod(np.r_[1.0, np.full(12, z)]))
        assert np.array_equal(ps, np.ones(13))
    assert np.all(b.kappas == 1.0)


def test_single_step_by_hand():
    # one recursion step with alpha_0 = 1/2 gives (2z-1)/sqrt(3)
    b = szego_build([0.5], 1)
    for z in POINTS:
        phi, ps = b.values_at(z)
        assert phi[1] == pytest.approx((2 * z - 1) / SQRT3, abs=1e-15)
        assert ps[1] == pytest.approx((2 - z) / SQRT3, abs=1e-15)
    assert b.kappas[1] == pytest.approx(2 / SQRT3, abs=1e-15)


def test_leading_coefficient_matches_product_formula():
    rng = np.random.default_rng(5)
    a = 0.8 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
    a /= np.maximum(1.0, np.abs(a) / 0.95)
    b = szego_build(a, 30)
    rows = _coeff_rows(b, 32)
    for k in range(31):
        lead = rows[k, k]
        kp = _kappa_product(a, k)
        assert abs(lead - kp) <= 1e-12 * kp
        assert abs(b.kappas[k] - kp) <= 1e-12 * kp
        assert np.max(np.abs(rows[k, k + 1:])) <= 1e-12 * kp  # degree k


def test_kappa_product_frozen_values():
    # product formula by hand: (1 - 1/4)^(-5) = 1024/243
    assert szego_build(np.full(10, 0.5), 10).kappas[10] == \
        pytest.approx(1024 / 243, rel=1e-15)
    assert szego_build([0.9], 1).kappas[1] == pytest.approx(1 / math.sqrt(0.19), rel=1e-15)
    assert np.array_equal(szego_build([0.5], 0).kappas, [1.0])


def test_eval_poly_matches_values_at():
    rng = np.random.default_rng(8)
    eta = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    z = np.array([0.0, 0.4 - 0.3j, 1.0, -1.0000001j, 1.7 + 0.2j, 40.0])
    for fam in ("zero", "constant:0.5", "decay:1:1"):
        b = alpha_family(fam).build(40)
        p, dp, scale = eval_poly(b, eta, z, derivs=True)
        assert np.array_equal(eval_poly(b, eta, z), (p, scale))
        for k, zk in enumerate(z):
            phi, _, dphi, _ = b.values_at(zk, derivs=True)
            unscale = zk ** 40 if abs(zk) > 1 else 1.0  # |z| > 1 comes back / z^n
            want = (eta @ phi, eta @ dphi, np.abs(eta) @ np.abs(phi))
            mass = (want[2], np.abs(eta) @ np.abs(dphi), want[2])
            got = (p[k] * unscale, dp[k] * unscale, scale[k] * abs(unscale))
            for g, w, m in zip(got, want, mass):
                assert abs(g - w) <= 1e-12 * m


def test_values_at_and_eval_poly_read_one_step_factor():
    # Python's abs(a) ** 2 and numpy's np.abs(a) ** 2 round this alpha_0
    # differently; at degree 1 both evaluators run the same operations, so
    # they agree bit for bit only if they read the same 1 / rho_0
    b = szego_build([0.7341595062814762 + 0.012633565310518792j], 1)
    z = 0.3 + 0.2j
    assert b.values_at(z)[0][1] == eval_poly(b, [0, 1], [z], scale=False)[0][0]


def test_evaluators_take_no_square_root(monkeypatch):
    # the step factors are computed once, when the basis is built: an
    # evaluation takes no square root and returns the same bits
    b = alpha_family("decay:1:0.25").build(160)
    rng = np.random.default_rng(12)
    eta = rng.standard_normal(161) + 1j * rng.standard_normal(161)
    z = np.array([0.3 + 0.2j, -0.9j, 1.0, 1.4 - 0.3j])
    calls = (lambda: b.values_at(0.3 + 0.2j),
             lambda: b.values_at(1.4 - 0.3j, derivs=True),
             lambda: b.values_at(-0.9j, upto=40, derivs=True),
             lambda: b.derivs_at(1.4 - 0.3j, 160, columns=True),
             lambda: b.derivs_at(-0.9j, 40),
             lambda: eval_poly(b, eta, z),
             lambda: eval_poly(b, eta, z, derivs=True),
             lambda: (zerocount._comrade(b, eta),))
    want = [f() for f in calls]
    taken = []
    for mod in (math, np):
        def counted(*args, real=mod.sqrt, **kw):
            taken.append(args)
            return real(*args, **kw)
        monkeypatch.setattr(mod, "sqrt", counted)
    got = [f() for f in calls]
    assert taken == []
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for x, y in zip(g, w):
            assert np.array_equal(x, y)


def test_eval_poly_block_rows_match_single_vectors():
    # a block of coefficient rows, each point naming its row, gives every
    # point the same bits as its row evaluated alone
    rng = np.random.default_rng(9)
    etas = rng.standard_normal((5, 31)) + 1j * rng.standard_normal((5, 31))
    z = np.array([0.2 + 0.1j, -0.9j, 1.0, 1.3 - 0.4j, 25.0, 0.7, -1.1])
    rows = np.array([4, 0, 2, 2, 1, 3, 0])
    b = alpha_family("decay:1:1").build(30)
    block = eval_poly(b, etas, z, derivs=True, rows=rows)
    for k, r in enumerate(rows):
        alone = eval_poly(b, etas[r], z[k:k + 1], derivs=True)
        for got, want in zip(block, alone):
            assert got[k] == want[0]
    with pytest.raises(UsageError):
        eval_poly(b, etas, z)  # a block needs rows


@pytest.mark.parametrize("fam", ["zero", "decay:1:1", "weight:jacobi:pi:1"])
def test_eval_poly_one_point_bits_match_array(fam):
    # a point alone, as a 0-d or one-element array, gets the bits it gets
    # inside an array: numpy multiplies a one-element complex array in
    # place, or against an operand of other ndim, with other bits
    rng = np.random.default_rng(11)
    b = alpha_family(fam).build(20)
    etas = rng.standard_normal((3, 21)) + 1j * rng.standard_normal((3, 21))
    z = 1.4 * rng.random(50) * np.exp(2j * np.pi * rng.random(50))
    rows = rng.integers(0, 3, z.size)
    for derivs in (False, True):
        full = eval_poly(b, etas[1], z, derivs=derivs)
        block = eval_poly(b, etas, z, derivs=derivs, rows=rows)
        for k in range(z.size):
            for got, want in (
                    (eval_poly(b, etas[1], z[k], derivs=derivs), full),
                    (eval_poly(b, etas[1], z[k:k + 1], derivs=derivs), full),
                    (eval_poly(b, etas, z[k:k + 1], derivs=derivs,
                               rows=rows[k:k + 1]), block),
                    (eval_poly(b, etas, z[k:k + 1, None], derivs=derivs,
                               rows=rows[k:k + 1, None]), block)):
                for g, w in zip(got, want):
                    assert g.tobytes() == w[k].tobytes(), (k, derivs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_values_at_refuses_non_finite_point(bad):
    # a usage error, not phi_0 = 1 followed by NaN at every other degree.
    # eval_poly checks no point, and gives NaN at a NaN point: _aberth
    # reads that as a failed row
    b = alpha_family("zero").build(5)
    for derivs in (False, True):
        with pytest.raises(UsageError, match="point must be finite"):
            b.values_at(bad, derivs=derivs)
    if np.isnan(bad):
        assert all(np.isnan(x).all()
                   for x in eval_poly(b, np.ones(6), [bad], derivs=True))


def _values_at_oracle(basis, z, upto=None, derivs=False):
    """The recursion of values_at as a loop over numpy scalars that divides
    by each norm."""
    m = basis.order if upto is None else upto
    a = basis.alphas
    phi = np.empty(m + 1, dtype=np.complex128)
    ps = np.empty(m + 1, dtype=np.complex128)
    phi[0] = ps[0] = 1.0
    dphi = np.zeros(m + 1, dtype=np.complex128)
    dps = np.zeros(m + 1, dtype=np.complex128)
    norms = np.sqrt(1.0 - np.abs(a) ** 2)
    for j in range(m):
        norm = norms[j]
        if derivs:
            dphi[j + 1] = (phi[j] + z * dphi[j] - np.conj(a[j]) * dps[j]) / norm
            dps[j + 1] = (dps[j] - a[j] * (phi[j] + z * dphi[j])) / norm
        phi[j + 1] = (z * phi[j] - np.conj(a[j]) * ps[j]) / norm
        ps[j + 1] = (ps[j] - a[j] * z * phi[j]) / norm
    return (phi, ps, dphi, dps) if derivs else (phi, ps)


def _eval_poly_oracle(basis, eta, z, derivs=False, rows=None):
    """eval_poly as separate value and derivative arrays, each step divided
    by its norm."""
    eta = np.asarray(eta, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    mods = np.abs(eta)
    if rows is None:
        coefs, sizes = iter(eta.tolist()), iter(mods.tolist())
    else:
        coefs = (c[rows] for c in np.ascontiguousarray(eta.T))
        sizes = (c[rows] for c in np.ascontiguousarray(mods.T))
    e0, m0 = next(coefs), next(sizes)
    out = np.abs(z) > 1.0
    w = np.divide(1.0, z, out=np.ones_like(z), where=out)
    zw = np.where(out, 1.0, z)
    aw = np.abs(w)
    f, g = np.ones_like(z), np.ones_like(z)
    df, dg, dp = np.zeros_like(z), np.zeros_like(z), np.zeros_like(z)
    p = np.full_like(z, e0)
    scale = np.full(z.shape, m0)
    a = basis.alphas
    norms = np.sqrt(1.0 - np.abs(a) ** 2)
    for aj, norm, ej, mj in zip(a.tolist(), norms.tolist(), coefs, sizes):
        caj = aj.conjugate()
        zf = zw * f
        if derivs:
            d = w * f + zw * df
            wdg = w * dg
            df, dg = (d - caj * wdg) / norm, (wdg - aj * d) / norm
            dp = w * dp + ej * df
        wg = w * g
        f, g = (zf - caj * wg) / norm, (wg - aj * zf) / norm
        p = w * p + ej * f
        scale = aw * scale + mj * np.abs(f)
    return (p, dp, scale) if derivs else (p, scale)


ORACLE_FAMILIES = ["zero", "constant:0.5", "decay:1:1", "decay:1:0.25",
                   "weight:jacobi:pi:1"]
# inside, on and outside the unit circle, on the axes and off them
ORACLE_POINTS = [0.0, 0.3, -0.7 + 0.2j, 0.5j, -1j, 1.0, 0.6 - 0.8j,
                 1.8 - 0.9j, -2.5, 40.0j]


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_values_at_bit_for_bit_against_numpy_scalar_oracle(fam):
    b = alpha_family(fam).build(60)
    for z in ORACLE_POINTS:
        for derivs in (False, True):
            for upto in (None, 0, 1, 23):
                got = b.values_at(z, upto=upto, derivs=derivs)
                want = _values_at_oracle(b, z, upto=upto, derivs=derivs)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.dtype == np.complex128
                    assert np.array_equal(g, w), (z, derivs, upto)
        # derivs_at: the same recursion, keeping the columns phi and phi',
        # or only the values at the top degree
        for upto in (0, 1, 23, 60):
            phi, ps, dphi, dps = _values_at_oracle(b, z, upto=upto, derivs=True)
            cols = b.derivs_at(z, upto, columns=True)
            assert all(np.array_equal(np.array(g, dtype=np.complex128), w)
                       for g, w in zip(cols, (phi, dphi))), (z, upto)
            top = np.array(b.derivs_at(z, upto), dtype=np.complex128)
            assert np.array_equal(top, [phi[upto], ps[upto], dphi[upto], dps[upto]])


def _derivs_at_from_values_at(basis, z, upto, columns=False):
    """derivs_at read off values_at: phi and phi' are its rows 0 and 2, the
    top values its entries at upto."""
    phi, ps, dphi, dps = basis.values_at(z, upto=upto, derivs=True)
    return (phi, dphi) if columns else (phi[upto], ps[upto], dphi[upto], dps[upto])


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_intensities_and_kernel_cd_bit_for_bit_against_values_at_route(
        fam, monkeypatch):
    # rho1_n, rho2_n and kernel_cd on their own pass give every value,
    # refusal and coincident-pair zero of the same calls reading values_at;
    # n = 0 and 61 are refused, and phi overflows at z = 1e7 by n = 60
    b = alpha_family(fam).build(60)
    pairs = [(z, w) for z in ORACLE_POINTS for w in ORACLE_POINTS]

    def outputs():
        out = []
        for n in (0, 1, 2, 23, None, 61):
            calls = [functools.partial(intensity.rho1_n, b, z, n)
                     for z in ORACLE_POINTS + [1e7]]
            calls += [functools.partial(f, b, z, w, n) for z, w in pairs
                      for f in (intensity.rho2_n, kernel.kernel_cd)]
            for call in calls:
                try:
                    out.append(repr(call()))
                except OpuczError as exc:
                    out.append(repr(exc))
        return out

    got = outputs()
    monkeypatch.setattr(OpucBasis, "derivs_at", _derivs_at_from_values_at)
    assert got == outputs()
    assert any("ComputationError" in g for g in got)
    assert any("NearDiagonalSingularity" in g for g in got)


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_eval_poly_bit_for_bit_against_unstacked_oracle(fam):
    rng = np.random.default_rng(10)
    b = alpha_family(fam).build(50)
    etas = rng.standard_normal((4, 51)) + 1j * rng.standard_normal((4, 51))
    z = np.r_[ORACLE_POINTS, 1.3 * rng.random(40) * np.exp(2j * np.pi * rng.random(40))]
    rows = rng.integers(0, 4, z.size)
    for derivs in (False, True):
        for args in ((etas[2], z), (etas, z.reshape(5, 10), derivs, rows.reshape(5, 10))):
            kw = {} if len(args) > 2 else {"derivs": derivs}
            got = eval_poly(b, *args, **kw)
            want = _eval_poly_oracle(b, *args, **kw)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert np.array_equal(g, w), (derivs, len(args))


SHARED_FAMILIES = ["zero", "decay:1:1", "weight:jacobi:pi:1", "constant:0.5"]


@pytest.mark.parametrize("fam", SHARED_FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 37, 200])
def test_eval_poly_shared_points_bit_for_bit_against_rows(fam, n):
    # rows of shape (T, 1) against m shared points recurse phi once on the
    # m points; every row and point gets the bits of the same points tiled
    # per row, each naming its row.  The roots of unity at n = 37 include
    # two that round to |z| > 1; the ring at 1.3 lies outside throughout.
    # The same rows against (T, m) points of their own, inside and outside
    # the disk (the shape of _aberth's value-only check), give the bits of
    # per-point rows too.  Skipping the scale leaves P and P' as they were.
    b = alpha_family(fam).build(n)
    rng = np.random.default_rng(n)
    roots_of_unity = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    ring = 1.3 * np.exp(2j * np.pi * (np.arange(n + 1) + 0.1) / (n + 1))
    for t in (1, 7, 32):
        etas = rng.standard_normal((t, n + 1)) + 1j * rng.standard_normal((t, n + 1))
        # every row's own points alternate between |z| = 0.6 and 1.4
        own = np.where(np.arange(n + 1) % 2, 1.4, 0.6) * np.exp(
            2j * np.pi * rng.random((t, n + 1)))
        for zs, tiled in ((roots_of_unity, np.tile(roots_of_unity, (t, 1))),
                          (ring, np.tile(ring, (t, 1))), (own, own)):
            rows = np.repeat(np.arange(t), n + 1).reshape(t, n + 1)
            for derivs in (False, True):
                want = eval_poly(b, etas, tiled, derivs=derivs, rows=rows)
                got = eval_poly(b, etas, zs, derivs=derivs,
                                rows=np.arange(t)[:, None])
                lean = eval_poly(b, etas, zs, derivs=derivs,
                                 rows=np.arange(t)[:, None], scale=False)
                assert len(got) == len(want) == len(lean)
                assert lean[-1] is None
                for g, w in zip(got, want):
                    assert g.shape == w.shape == (t, n + 1)
                    assert g.dtype == w.dtype
                    assert g.tobytes() == w.tobytes(), (t, derivs)
                for g, w in zip(lean[:-1], want[:-1]):
                    assert g.tobytes() == w.tobytes(), (t, derivs)


def test_kappas_nondecreasing():
    fam = alpha_family("decay:0.9:0.5")
    b = fam.build(40)
    assert np.all(np.diff(b.kappas) >= 0)


def test_orthonormality_on_circle_free_case():
    # Lebesgue measure: Gram matrix over 512 circle nodes is the identity
    b = szego_build(np.zeros(20), 20)
    th = 2 * np.pi * np.arange(512) / 512
    z = np.exp(1j * th)
    vals = np.array([b.values_at(zk)[0] for zk in z]).T
    gram = vals @ vals.conj().T / 512
    assert np.max(np.abs(gram - np.eye(21))) < 1e-10


def test_invalid_alpha_rejected():
    with pytest.raises(InvalidVerblunsky):
        szego_build([0.2, 1.0], 2)
    with pytest.raises(InvalidVerblunsky):
        szego_build([1.2], 1)
    # a basis built directly checks its coefficients as szego_build does
    for bad in ([1.2], [0.1, np.nan]):
        with pytest.raises(InvalidVerblunsky):
            OpucBasis(np.array(bad))
    direct, built = OpucBasis([0.1, 0.2]), szego_build([0.1, 0.2], 2)
    assert direct.alphas.dtype == np.complex128
    for name in ("alphas", "rho", "alpha_bar", "kappas"):
        assert np.array_equal(getattr(direct, name), getattr(built, name))
    assert direct.steps == built.steps


@pytest.mark.parametrize("bad", [np.nan, complex(0.1, np.nan), np.inf])
def test_non_finite_alpha_rejected(bad):
    # NaN has no modulus below 1: it is refused like |alpha| >= 1
    with pytest.raises(InvalidVerblunsky, match="alpha_1"):
        szego_build([0.2, bad, 0.1], 3)


@pytest.mark.parametrize("spec", ["constant:nan", "constant:-inf",
                                  "decay:nan:1", "decay:1:nan", "decay:inf:1",
                                  "weight:jacobi:nan:1", "weight:jacobi:pi:nan",
                                  "weight:jacobi:pi/0:1"])
def test_non_finite_family_parameters_rejected(spec):
    with pytest.raises(UsageError, match="not a"):
        alpha_family(spec)


def test_too_few_alphas_rejected():
    with pytest.raises(InsufficientCoefficients):
        szego_build([0.1, 0.2], 5)


def test_regularity_constant_family_flat():
    # kappa_k = (4/3)^(k/2) so log(kappa_k)/k is log(4/3)/2 for every k
    b = szego_build(np.full(24, 0.5), 24)
    rep = regularity_report(b)
    assert rep.epsilons == pytest.approx(np.full(24, math.log(4 / 3) / 2), abs=1e-13)


def test_regularity_decay_family_trends():
    b = alpha_family("decay:1:1").build(60)
    rep = regularity_report(b)
    assert rep.epsilons[-1] < rep.epsilons[4]
    assert rep.nevai_proxy[-1] < rep.nevai_proxy[4]
    assert rep.nevai_proxy[-1] < 0.05


def test_nevai_proxy_free_case():
    # monomials: |z^k / 1| = 2^-k on the probe ring
    b = szego_build(np.zeros(8), 8)
    rep = regularity_report(b)
    assert rep.nevai_proxy == pytest.approx(0.5 ** np.arange(1, 9), rel=1e-12)


# ---------------------------------------------------------------------------
# weights and moments
# ---------------------------------------------------------------------------


def test_lebesgue_moments():
    c = moments_from_weight(WeightSpec.lebesgue(), 6)
    want = np.zeros(7)
    want[0] = 1
    assert np.max(np.abs(c - want)) < 1e-13


def test_cosine_bump_moments_by_hand():
    # int exp(-ik th)(1+cos th) dth/(2pi): 1, 1/2, then 0
    c = moments_from_weight(WeightSpec.cosine_bump(), 5)
    assert c[0] == pytest.approx(1.0, abs=1e-12)
    assert c[1] == pytest.approx(0.5, abs=1e-10)
    assert np.max(np.abs(c[2:])) < 1e-10


def test_jacobi_weight_moments_against_slow_quadrature():
    w = WeightSpec.generalized_jacobi([math.pi], [1.0])
    c = moments_from_weight(w, 4)
    # oracle: int |th - pi| exp(-ik th) dth on a dense midpoint grid
    m = 2_000_000
    th = (np.arange(m) + 0.5) * (2 * np.pi / m)
    vals = np.abs(th - np.pi)
    raw0 = np.sum(vals) * (2 * np.pi / m)
    for k in range(5):
        raw = np.sum(vals * np.exp(-1j * k * th)) * (2 * np.pi / m)
        assert abs(c[k] - raw / raw0) < 1e-8


def _moments_oracle(w, count, m=400):
    """moments_from_weight by Gauss-Legendre on each smooth piece of
    [0, 2 pi), split at the weight's angles, where |theta - theta_j|^e
    has its kink and the weight's seam at 0 = 2 pi its jump."""
    x, g = leggauss(m)
    edges = np.unique(np.concatenate(([0.0, 2 * np.pi], w.thetas)))
    th = np.concatenate([lo + (hi - lo) * (x + 1) / 2
                         for lo, hi in zip(edges[:-1], edges[1:])])
    wt = np.concatenate([g * (hi - lo) / 2 for lo, hi in zip(edges[:-1], edges[1:])])
    c = (np.exp(-1j * np.arange(count + 1)[:, None] * th)
         * (w.evaluate(th) * wt)).sum(axis=1)
    return c / c[0].real


@pytest.mark.parametrize("theta,e", [(1.0, 1.0), (0.5, 2.0), (4.0, 1.5),
                                     (1.0, 3.0), (math.pi, 1.0), (math.pi, 2.0)])
def test_jacobi_moments_against_piecewise_gauss_oracle(theta, e):
    # the power is singular only at a piece's end, where 400 Gauss-Legendre
    # points a piece reach roundoff for these exponents, all >= 1
    w = WeightSpec.generalized_jacobi([theta], [e])
    got = moments_from_weight(w, 12)
    assert np.max(np.abs(got - _moments_oracle(w, 12))) < 1e-13


def test_jacobi_pi_moments_match_closed_form():
    # |theta - pi|: int |theta - pi| exp(-ik theta) = 2 (1 - (-1)^k) / k^2,
    # and c_0 = pi^2
    c = moments_from_weight(WeightSpec.generalized_jacobi([math.pi], [1.0]), 1600)
    k = np.arange(1, 1601)
    want = 2 * (1 - (-1.0) ** k) / (math.pi ** 2 * k ** 2)
    assert abs(c[0] - 1) < 1e-15
    assert np.max(np.abs(c[1:] - want)) < 1e-13


def _mp_moment(thetas, es, k):
    """int_0^2pi prod_j |t - theta_j|^e_j exp(-ik t) dt in mpmath, tanh-sinh
    on pieces that end at the angles, where the powers are singular, and
    are short enough for the oscillation."""
    thetas = [mpmath.mpf(theta) for theta in thetas]
    edges = sorted({mpmath.mpf(0), *thetas, 2 * mpmath.pi})
    pts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = int(max(1, mpmath.ceil((hi - lo) * (k + 1) / 2)))
        pts += [lo + (hi - lo) * j / m for j in range(m)]
    pts.append(2 * mpmath.pi)
    return mpmath.quad(lambda t: mpmath.fprod(abs(t - theta) ** e for theta, e
                                              in zip(thetas, es))
                       * mpmath.expj(-k * t), pts)


@pytest.mark.parametrize("theta,e", [(math.pi, 0.5), (math.pi, 0.25),
                                     (1.0, 1.0), (1.0, 2.0), (4.0, 1.5)])
def test_jacobi_moments_against_mpmath(theta, e):
    # exponents below 1 too: each panel at the angle takes the Gauss-Jacobi
    # rule with that exponent
    c = moments_from_weight(WeightSpec.generalized_jacobi([theta], [e]), 40)
    with mpmath.workdps(30):
        c0 = _mp_moment([theta], [e], 0)
        for k in (1, 2, 7, 40):
            want = complex(_mp_moment([theta], [e], k) / c0)
            assert abs(c[k] - want) < 1e-13, k


@pytest.mark.parametrize("spec", [f"weight:jacobi:{theta}:{e}"
                                  for theta in ("pi", "1", "4")
                                  for e in ("0.5", "0.25")])
def test_jacobi_exponent_below_one_builds(spec):
    fam = alpha_family(spec)
    for n in (12, 200, 800):
        a = fam.alphas(n)
        assert a.shape == (n,) and np.all(np.abs(a) < 1)


@pytest.mark.parametrize("gap,count", [(1e-6, 12), (0.01, 25)])
def test_moments_grade_panels_toward_a_close_angle(gap, count):
    # a second angle just past the first puts |theta - 1|^0.5 just outside
    # the next piece's first panel, and |theta - 1 - gap|^0.5 just outside
    # the previous piece's last: those end panels are split toward their
    # angles, and the moments match mpmath's
    w = WeightSpec.generalized_jacobi([1.0, 1.0 + gap], [0.5, 0.5])
    c = moments_from_weight(w, count)
    with mpmath.workdps(30):
        c0 = _mp_moment(w.thetas, w.exponents, 0)
        for k in (1, 2, 7, count):
            want = complex(_mp_moment(w.thetas, w.exponents, k) / c0)
            assert abs(c[k] - want) < 1e-14, k


def test_close_angles_build_at_every_degree():
    # angles (1, 1.01) with exponents 0.5 were refused at n = 25, where the
    # neighbouring pieces' end panels carried the other angle's singularity
    # 0.01 beyond them, and built at n = 200 and 800
    fam = alpha_family("weight:jacobi:1:0.5:1.01:0.5")
    for n in (12, 25, 200, 800):
        a = fam.alphas(n)
        assert a.shape == (n,) and np.all(np.abs(a) < 1)


def _uniform_panel_moments(w, count):
    """moments_from_weight with every piece cut into equal panels whatever
    its neighbouring angles: the rule before end panels were graded."""
    cuts = sorted({0.0, 2 * np.pi, *w.thetas.tolist()})
    ends = [float(w.exponents[w.thetas == c].sum()) for c in cuts]
    c = np.zeros((2, count + 1), dtype=np.complex128)
    for lo, hi, b, a in zip(cuts[:-1], cuts[1:], ends[:-1], ends[1:]):
        n = math.ceil((hi - lo) * (count + 1) / 16.0)
        half = (hi - lo) / (2 * n)
        centres = lo + half * np.arange(1, 2 * n, 2)
        groups = ([(centres, a, b)] if n == 1 else [(centres[:1], 0.0, b),
                  (centres[1:-1], 0.0, 0.0), (centres[-1:], a, 0.0)])
        for cs, ea, eb in groups:
            outer = opuc._phases(cs, count)
            for r, q in enumerate((16, 24)):
                x, g = gauss_jacobi(q, ea, eb)
                th = cs[:, None] + half * x
                f = w.evaluate(th) / ((hi - th) ** ea * (th - lo) ** eb)
                local = opuc._phases(half * x, count).view(np.float64)
                inner = np.einsum("pm,mk->pk", f * (g * half ** (1.0 + ea + eb)),
                                  local).view(np.complex128)
                c[r] += np.sum(outer * inner, axis=0)
    return (c / c[:, :1].real)[1]


@pytest.mark.parametrize("thetas,exponents", [([math.pi], [1.0]), ([1.0], [0.5]),
                                              ([0.0], [2.0]), ([1.0, 4.0], [0.5, 1.5])])
def test_weights_without_close_angles_keep_their_panels(thetas, exponents):
    # no other angle within one panel length of a piece: its equal panels
    # and its bits stay, and a one-pair family spec gives the same alphas
    w = WeightSpec.generalized_jacobi(thetas, exponents)
    for count in (1, 12, 200):
        assert np.array_equal(moments_from_weight(w, count),
                              _uniform_panel_moments(w, count)), count
    if len(thetas) == 1:
        spec = f"weight:jacobi:{thetas[0]!r}:{exponents[0]!r}"
        assert np.array_equal(alpha_family(spec).alphas(40), levinson_verblunsky(
            _uniform_panel_moments(w, 40)))


def _beta_moment(j, a, b):
    """int_{-1}^{1} x^j (1 - x)^a (1 + x)^b dx, exactly enough, in mpmath."""
    with mpmath.workdps(50):
        return float(mpmath.quad(lambda x: x ** j * (1 - x) ** a * (1 + x) ** b,
                                 [-1, 0, 1]))


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.25, 0.0), (0.0, 0.5), (1.5, 2.0)])
def test_gauss_jacobi_is_exact_to_degree_2q_minus_1(a, b):
    for q in (1, 2, 5, 12):
        x, w = gauss_jacobi(q, a, b)
        assert x.shape == w.shape == (q,) and np.all(np.diff(x) > 0)
        assert not (x.flags.writeable or w.flags.writeable)  # cached
        for j in range(2 * q):
            want = _beta_moment(j, a, b)
            scale = float(np.sum(w * np.abs(x) ** j))
            assert abs(np.sum(w * x ** j) - want) <= 4e-15 * scale, (q, j)


def test_gauss_legendre_nodes_match_leggauss():
    for q in (1, 2, 3, 12, 16, 31, 64, 100, 128, 256, 384):
        x, w = gauss_jacobi(q)
        want_x, want_w = leggauss(q)
        assert np.max(np.abs(x - want_x)) <= 2.3e-16, q
        if q <= 16:  # beyond, leggauss's own weights lose digits; see below
            assert np.max(np.abs(w / want_w - 1)) < 1e-13, q


@pytest.mark.parametrize("q", [31, 64, 384])
def test_gauss_legendre_weights_against_mpmath(q):
    # each weight is the Christoffel number 1 / sum_{k<q} p_k(x)^2 of the
    # orthonormal Legendre polynomials at its node, and each node is within
    # an ulp of a root of P_q.  leggauss's end weights are further off:
    # 2.8e-13 (q = 31), 1.3e-12 (q = 64) and 3.9e-10 (q = 384) relative to
    # the weight at the exact node, where these are within 7e-15, 7e-14 and
    # 2e-12, the last being what an ulp of node moves an end weight by.
    # Against the Christoffel number at the returned node they are within
    # 5e-15, 2e-14 and 1.5e-13: the recursion's rounding, growing with q.
    x, w = gauss_jacobi(q)
    with mpmath.workdps(30):
        for i in (0, 1, 2, 3, 5, q // 4, q // 2 - 1):
            t = mpmath.mpf(x[i])
            p0, p1, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0.5)
            for k in range(1, q + 1):  # Legendre P_k
                p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
                if k < q:
                    total += (k + mpmath.mpf(0.5)) * p1 * p1
            assert abs(w[i] * total - 1) < 2e-13, i
            # P_q(x) / P_q'(x), with P_q' = q (x P_q - P_{q-1}) / (x^2 - 1)
            step = p1 * (t * t - 1) / (q * (t * p1 - p0))
            assert abs(step) <= 2.3e-16, i


def test_gauss_jacobi_rejects_bad_arguments():
    # an infinite exponent is refused here, not by numpy's eigensolver
    for q, a, b in ((0, 0.0, 0.0), (4, -1.0, 0.0), (4, 0.0, -2.0),
                    (5, math.inf, 0.0), (5, 0.0, math.inf)):
        with pytest.raises(UsageError):
            gauss_jacobi(q, a, b)


def test_levinson_lebesgue_roundtrip_exact():
    c = np.zeros(13, dtype=complex)
    c[0] = 1
    a = levinson_verblunsky(c)
    assert a.shape == (12,)
    assert np.max(np.abs(a)) <= 1e-14


def test_levinson_matches_gram_schmidt_oracle():
    # cosine bump has moments (1, 1/2, 0, ...); orthogonalize the monomials
    # against the 9x9 moment matrix by hand and read alphas off the monic
    # values at zero
    c = np.zeros(9, dtype=complex)
    c[0], c[1] = 1.0, 0.5
    mu = {m: (np.conj(c[m]) if m >= 0 else c[-m]) for m in range(-8, 9)}
    G = np.array([[mu[j - k] for k in range(9)] for j in range(9)])
    oracle = []
    for k in range(8):
        x = np.linalg.solve(G[: k + 1, : k + 1].T, G[k + 1, : k + 1])
        oracle.append(np.conj(x[0]))  # alpha_k = -conj(Phi_{k+1}(0)) = conj(x_0)
    got = levinson_verblunsky(moments_from_weight(WeightSpec.cosine_bump(), 8))
    assert got == pytest.approx(np.asarray(oracle), abs=1e-8)
    # the pattern that falls out: alpha_k = (-1)^k / (k+2)
    assert got == pytest.approx([(-1) ** k / (k + 2) for k in range(8)], abs=1e-8)


def test_levinson_szego_roundtrip_gram_identity():
    # weight -> moments -> alphas -> basis: Gram matrix under the weight
    # (assembled from the converged moments) must be the identity
    w = WeightSpec.generalized_jacobi([math.pi], [1.0])
    c = moments_from_weight(w, 24)
    a = levinson_verblunsky(c)
    b = szego_build(a, 10)
    mu = np.concatenate([c[::-1], np.conj(c[1:])])  # mu_m for m = -24..24
    off = 24
    M = np.array([[mu[off + i - j] for j in range(11)] for i in range(11)])
    P = _coeff_rows(b, 16)[:, :11]
    gram = P @ M @ P.conj().T
    assert np.max(np.abs(gram - np.eye(11))) < 1e-6


def test_levinson_rejects_non_positive_definite():
    # |c_1| > c_0 cannot come from a nonnegative measure
    with pytest.raises(NotPositiveDefinite):
        levinson_verblunsky(np.array([1.0, 1.5, 0.0], dtype=complex))


@pytest.mark.parametrize("moments", [[np.inf, 0.1], [1.0, np.nan, 0.1],
                                     [1.0, complex(0.1, np.inf)]])
def test_levinson_rejects_non_finite_moments(moments):
    with pytest.raises(UsageError, match="finite"):
        levinson_verblunsky(moments)


@pytest.mark.parametrize("thetas,exponents", [([np.nan], [1.0]),
                                              ([1.0], [np.nan]),
                                              ([1.0], [np.inf])])
def test_jacobi_weight_rejects_non_finite(thetas, exponents):
    with pytest.raises(UsageError):
        WeightSpec.generalized_jacobi(thetas, exponents)


# ---------------------------------------------------------------------------
# families and files
# ---------------------------------------------------------------------------


def test_family_grammar():
    assert np.all(alpha_family("zero").alphas(5) == 0)
    assert alpha_family("constant:0.3").alphas(4) == pytest.approx(np.full(4, 0.3))
    d = alpha_family("decay:1:1").alphas(4)
    assert d == pytest.approx([1 / 2, 1 / 3, 1 / 4, 1 / 5])
    d2 = alpha_family("decay:0.5:2").alphas(3)
    assert d2 == pytest.approx([0.5 / 4, 0.5 / 9, 0.5 / 16])
    # the annulus limit asks for phi_k real on the real line, that is real
    # alpha: these families give it, the weights up to their moments' rounding
    for spec in ("zero", "constant:0.5", "decay:1:1", "weight:lebesgue",
                 "weight:cosine", "weight:jacobi:pi:1", "weight:jacobi:pi:0.5"):
        for n in (25, 100, 200):
            assert np.abs(alpha_family(spec).alphas(n).imag).max() <= 1e-12, (spec, n)


def test_family_grammar_rejects_junk():
    for bad in ("", "nope", "constant", "constant:1.0", "decay:1", "weight:box",
                "decay:1:0", "weight:jacobi:1", "weight:jacobi:1:0.5:4",
                "weight:jacobi:1:0.5:4:1.5:2"):
        with pytest.raises(UsageError):
            alpha_family(bad)


def test_weight_family_matches_direct_pipeline():
    fam = alpha_family("weight:cosine")
    direct = levinson_verblunsky(moments_from_weight(WeightSpec.cosine_bump(), 6))
    assert fam.alphas(6) == pytest.approx(direct, abs=1e-12)
    # one weight:jacobi angle-exponent pair per singular angle
    w = WeightSpec.generalized_jacobi([1.0, 4.0], [0.5, 1.5])
    assert np.array_equal(alpha_family("weight:jacobi:1:0.5:4:1.5").alphas(30),
                          levinson_verblunsky(moments_from_weight(w, 30)))


def test_alpha_file_roundtrip(tmp_path):
    path = tmp_path / "alphas.txt"
    path.write_text(
        "# comment line\n"
        "0.5 0.0\n"
        "-0.25 0.125   # trailing comment\n"
        "\n"
        "0.0 -0.75\n"
    )
    a = read_alpha_file(str(path))
    assert np.array_equal(a, np.array([0.5, -0.25 + 0.125j, -0.75j]))
    fam = alpha_family(f"file:{path}")
    assert np.array_equal(fam.alphas(3), a)
    with pytest.raises(InsufficientCoefficients):
        fam.alphas(4)


def test_alpha_file_bad_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\n")
    with pytest.raises(UsageError):
        read_alpha_file(str(path))
    path.write_text("0.5 zebra\n")
    with pytest.raises(UsageError):
        read_alpha_file(str(path))
    path.write_text("1.5 0.0\n")
    with pytest.raises(InvalidVerblunsky):
        read_alpha_file(str(path))
    for line in ("nan 0\n", "0 nan\n", "inf 0\n"):
        path.write_text("0.5 0.0\n" + line)
        with pytest.raises(InvalidVerblunsky, match="alpha_1"):
            read_alpha_file(str(path))


def test_pi_literals_in_grammar():
    fam = alpha_family("weight:jacobi:pi:1")
    assert isinstance(fam, AlphaFamily)
    assert fam.name == "weight:jacobi:pi:1"
    # every pi form takes a leading sign
    for token, want in [("pi", math.pi), ("+pi", math.pi), ("-pi", -math.pi),
                        ("π", math.pi), ("-π", -math.pi), ("2pi", 2 * math.pi),
                        ("-0.5pi", -0.5 * math.pi), ("pi/2", math.pi / 2),
                        ("-pi/2", -math.pi / 2), ("+pi/4", math.pi / 4)]:
        assert parse_scalar(token, "x") == want, token
    for bad in ("--pi", "+-pi", "- pi", "2pi/3", "pipi", "pi/", "-pi/0", "p"):
        with pytest.raises(UsageError, match="not a number"):
            parse_scalar(bad, "x")
    assert alpha_family("constant:-pi/4").alphas(3).tolist() == [-math.pi / 4] * 3
    assert alpha_family("decay:-pi:2").alphas(2) == \
        pytest.approx([-math.pi / 4, -math.pi / 9], rel=1e-15)
