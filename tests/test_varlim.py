import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from opucz import varlim
from opucz.errors import (
    ComputationError,
    QuadratureNotConverged,
    RegionTouchesCircle,
    SeriesNotConverged,
    UsageError,
)
from opucz.varlim import (
    VarianceResult,
    var_limit_closed,
    var_limit_quadrature,
    var_limit_series,
)

# covers both branches; radii kept clear of |z| = 1
GRID = [
    (0.0, 0.3), (0.0, 0.5), (0.0, 0.7), (0.0, 0.9),
    (0.1, 0.4), (0.2, 0.5), (0.3, 0.6), (0.4, 0.7),
    (0.25, 0.85), (0.5, 0.9), (0.6, 0.8), (0.15, 0.75),
    (1.1, 1.4), (1.2, 1.6), (1.5, 2.0), (1.25, 1.75),
    (1.9, 2.4), (1.05, 1.3), (2.0, 3.0), (1.3, 2.2),
]
# the variance-limit annuli of the benchmark's formula grid
BENCH_ANNULI = [(0.3, 0.6), (0.05, 0.85), (1.3, 2.0), (1.15, 2.5)]


def test_closed_frozen_values():
    assert var_limit_closed(0.0, 0.5).value == pytest.approx(
        0.25 / 0.9375, abs=1e-15)
    assert var_limit_closed(1.5, 2.0).value == pytest.approx(
        0.40384615384615385, abs=1e-15)


def test_closed_result_fields():
    res = var_limit_closed(0.3, 0.6)
    assert isinstance(res, VarianceResult)
    assert res.method == "closed"
    assert res.region.kind == "annulus"
    assert res.region.params == (0.3, 0.6)


def test_degenerate_annulus_is_zero():
    for s in (0.4, 1.7):
        assert var_limit_closed(s, s).value == 0.0
        assert var_limit_series(s, s).value == 0.0
        assert var_limit_quadrature(s, s).value == 0.0


def test_disk_reduction_exact_in_float():
    for k in range(1, 10):
        t = 0.1 * k
        assert var_limit_closed(0.0, t).value == t * t / (1.0 - (t * t) * (t * t))


@pytest.mark.parametrize("s,t", [(0.5, 1.0), (1.0, 2.0), (0.9, 1.1),
                                 (0.5, 1.5), (1.0, 1.0)])
def test_touching_circle_raises(s, t):
    for fn in (var_limit_closed, var_limit_series, var_limit_quadrature):
        with pytest.raises(RegionTouchesCircle):
            fn(s, t)


def test_bad_radii_raise():
    with pytest.raises(UsageError):
        var_limit_closed(0.6, 0.4)
    with pytest.raises(UsageError):
        var_limit_closed(-0.1, 0.5)
    with pytest.raises(UsageError):
        var_limit_series(0.2, 0.5, tol=0.0)
    with pytest.raises(UsageError):
        var_limit_quadrature(0.2, 0.5, target=-1e-8)
    # NaN > 0 is False: refused up front, not after the whole series
    with pytest.raises(UsageError, match="tol"):
        var_limit_series(0.3, 0.6, tol=np.nan)
    with pytest.raises(UsageError, match="target"):
        var_limit_quadrature(0.3, 0.6, target=np.nan)


@pytest.mark.parametrize("s,t", [(2.0, np.inf), (np.inf, np.inf),
                                 (0.3, np.nan), (np.nan, 0.5)])
def test_non_finite_radii_raise(s, t):
    for fn in (var_limit_closed, var_limit_series, var_limit_quadrature):
        with pytest.raises(UsageError):
            fn(s, t)


@pytest.mark.parametrize("s,t", GRID)
def test_series_matches_closed(s, t):
    got = var_limit_series(s, t, tol=1e-12).value
    want = var_limit_closed(s, t).value
    assert abs(got - want) <= 1e-12


def test_series_interior_termwise():
    # sum (t^{2k+2}-s^{2k+2})^2 = t^4/(1-t^4) - 2(st)^2/(1-(st)^2) + s^4/(1-s^4)
    s, t = 0.3, 0.6
    s2, t2 = s * s, t * t
    termwise = (t2 * t2 / (1 - t2 * t2)
                - 2 * (s * t) ** 2 / (1 - (s * t) ** 2)
                + s2 * s2 / (1 - s2 * s2))
    first = (t2 - s2) / ((1 - t2) * (1 - s2))
    got = var_limit_series(s, t, tol=1e-14).value
    assert got == pytest.approx(first - termwise, abs=1e-12)


def test_series_exterior_example():
    res = var_limit_series(1.5, 2.0, tol=1e-10)
    first = (4.0 - 2.25) / ((1 - 4.0) * (1 - 2.25))
    assert first == pytest.approx(0.4666666666666667, abs=1e-15)
    assert res.value == pytest.approx(0.4038461538461539, abs=1e-9)
    assert first - res.value == pytest.approx(0.0628205, abs=1e-7)


def test_quadrature_anchors():
    assert var_limit_quadrature(0.0, 0.5, 1e-8).value == pytest.approx(
        var_limit_closed(0.0, 0.5).value, abs=1e-7)
    assert var_limit_quadrature(0.3, 0.6, 1e-8).value == pytest.approx(
        var_limit_closed(0.3, 0.6).value, abs=1e-7)


@pytest.mark.parametrize("s,t", GRID)
def test_quadrature_within_ten_targets(s, t):
    got = var_limit_quadrature(s, t, target=1e-8).value
    assert abs(got - var_limit_closed(s, t).value) < 10 * 1e-8


@pytest.mark.parametrize("s,t", GRID)
def test_triple_agreement(s, t):
    closed = var_limit_closed(s, t).value
    series = var_limit_series(s, t, tol=1e-12).value
    quad = var_limit_quadrature(s, t, target=1e-8).value
    assert abs(closed - series) <= 1e-6
    assert abs(series - quad) <= 1e-6
    assert abs(quad - closed) <= 1e-6


def test_interior_exterior_inversion():
    rng = np.random.default_rng(77)
    for _ in range(10):
        s = rng.uniform(0.05, 0.7)
        t = rng.uniform(s + 0.05, 0.95)
        inner = var_limit_closed(s, t).value
        outer = var_limit_closed(1.0 / t, 1.0 / s).value
        assert abs(inner - outer) <= 1e-12


@pytest.mark.parametrize("s,t", GRID)
def test_positivity(s, t):
    assert var_limit_closed(s, t).value > 0


def test_trapezoid_kills_cross_harmonics():
    # building block of the angular factorization: distinct harmonics cancel
    for k, m in [(3, 7), (0, 5), (2, 9)]:
        nodes = 2 * max(k, m) + 2
        theta = 2 * np.pi * np.arange(nodes) / nodes
        val = np.mean(np.exp(1j * (k - m) * theta))
        assert abs(val) < 1e-14
    theta = 2 * np.pi * np.arange(10) / 10
    assert np.mean(np.exp(1j * 0 * theta)) == pytest.approx(1.0)


def test_quadrature_bits_do_not_depend_on_pair_blocks(monkeypatch):
    # each angular sum is one row's, so blocking the radial pairs (to bound
    # the temporaries) leaves every bit of the result as it is
    from opucz import varlim

    annuli = [(0.3, 0.6), (1.15, 2.5), (0.0, 0.9)]
    blocked = [var_limit_quadrature(s, t).value for s, t in annuli]
    monkeypatch.setattr(varlim, "_PAIR_BLOCK", 1 << 30)  # one block
    assert blocked == [var_limit_quadrature(s, t).value for s, t in annuli]


def test_series_refuses_at_its_term_cap():
    # t^2 = 1 - 2e-7 needs about 1e8 terms for a 1e-12 tail: the capped sum
    # was 3.62e6 against the closed 2.5e6
    with pytest.raises(SeriesNotConverged) as info:
        var_limit_series(0.5, 0.9999999)
    assert isinstance(info.value, ComputationError)
    got = var_limit_series(0.5, 0.99999).value  # about 1e6 terms
    assert abs(got - var_limit_closed(0.5, 0.99999).value) < 1e-7


def test_quadrature_temporaries_bounded():
    # 16,384 angular nodes: a block of 1,024 node pairs held 128 MiB
    tracemalloc.start()
    try:
        var_limit_quadrature(0.5, 0.995)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _quad_value_oracle(s, t, radial, na):
    # the full tensor rule: every ordered radial pair, the whole circle
    x, w = radial
    r = 0.5 * (t - s) * x + 0.5 * (t + s)
    wr = 0.5 * (t - s) * w
    dth = 2.0 * np.pi / na
    psi = dth * np.arange(na)
    rho1 = 1.0 / (np.pi * (1.0 - r * r) ** 2)
    term1 = float(np.sum(wr * r * rho1) * dth * na)
    xprod = np.outer(r, r).ravel()
    wprod = np.outer(wr * r, wr * r).ravel()
    angsum = np.zeros_like(xprod)
    cos_psi = np.cos(psi)
    for lo in range(0, xprod.size, 1024):
        xs = xprod[lo : lo + 1024, None]
        angsum[lo : lo + 1024] = np.sum(
            (1.0 - 2.0 * xs * cos_psi + xs * xs) ** -2.0, axis=1)
    term2 = float(np.sum(wprod * angsum) * dth * dth * na / np.pi**2)
    return term1 - term2


def _quadrature_oracle(s, t, target=1e-8):
    """(value, nr, na) of the refinement loop, each rule summed afresh."""
    def stable_in_angle(nr):
        radial = leggauss(nr)
        na = 64
        val = _quad_value_oracle(s, t, radial, na)
        while na <= varlim._ANGULAR_CAP // 2:
            na *= 2
            nxt = _quad_value_oracle(s, t, radial, na)
            if abs(nxt - val) < 0.25 * target:
                return nxt, na
            val = nxt
        raise QuadratureNotConverged("angular")

    nr = 16
    val, _ = stable_in_angle(nr)
    while nr <= varlim._RADIAL_CAP // 2:
        nr *= 2
        nxt, na = stable_in_angle(nr)
        if abs(nxt - val) < target:
            return nxt, nr, na
        val = nxt
    raise QuadratureNotConverged("radial")


@pytest.mark.parametrize("s,t", GRID + BENCH_ANNULI)
def test_quadrature_matches_full_rule_oracle(s, t, monkeypatch):
    # the pair-symmetric, half-circle, nested sums reorder the full rule's
    # sum: same value to roundoff, refinement stops at the same orders
    calls = []
    row_sums = varlim._row_sums

    def recorded(x, cos):
        calls.append((x.size, cos.size))
        return row_sums(x, cos)

    monkeypatch.setattr(varlim, "_row_sums", recorded)
    got = var_limit_quadrature(s, t).value
    want, nr, na = _quadrature_oracle(s, t)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
    pairs, odd_nodes = calls[-1]  # the last level adds na/4 odd nodes
    assert (pairs, 4 * odd_nodes) == (nr * (nr + 1) // 2, na)


def test_nested_half_range_sum_equals_full_circle():
    x = np.array([0.0, 0.09, 0.5, 0.81, 0.97, 1.3 * 1.5, 2.0 * 2.5])
    ends = varlim._row_sums(x, np.array([1.0, -1.0]))
    inner = varlim._row_sums(x, np.cos(2.0 * np.pi / 64 * np.arange(1, 32)))
    for na in (128, 256):
        odd = 2.0 * np.pi / na * np.arange(1, na // 2, 2)
        inner += varlim._row_sums(x, np.cos(odd))
    psi = 2.0 * np.pi / 256 * np.arange(256)
    full = np.sum((1.0 - 2.0 * x[:, None] * np.cos(psi) + x[:, None] ** 2)
                  ** -2.0, axis=1)
    assert np.allclose(ends + 2.0 * inner, full, rtol=1e-13, atol=0.0)
