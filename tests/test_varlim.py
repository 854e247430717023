import numpy as np
import pytest

from opucz.errors import RegionTouchesCircle, UsageError
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
