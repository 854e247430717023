import numpy as np
import pytest

from opucz.errors import NearDiagonalSingularity, UsageError
from opucz.kernel import kernel_cd, kernel_direct
from opucz.opuc import alpha_family, szego_build

FAMILIES = ["zero", "constant:0.5", "decay:1:1"]


def _random_pairs(rng, count):
    # |z|, |w| <= 2, kept away from the singular curve of the closed form
    out = []
    while len(out) < count:
        z = 2 * (rng.random() * np.exp(2j * np.pi * rng.random()))
        w = 2 * (rng.random() * np.exp(2j * np.pi * rng.random()))
        if abs(1 - z * np.conj(w)) > 0.1:
            out.append((z, w))
    return out


def test_free_kernel_geometric_sum_by_hand():
    # monomials: K(z, w) = sum (z conj(w))^j; at z=w=0.5, n=1: 1 + 0.25
    b = szego_build(np.zeros(3), 3)
    k = kernel_direct(b, 0.5, 0.5, n=1)
    assert k.K == pytest.approx(1.25, abs=1e-15)
    # n=3, z=0.4, w=0.2: geometric sum (1 - 0.08^4)/(1 - 0.08)
    k = kernel_direct(b, 0.4, 0.2, n=3)
    assert k.K == pytest.approx((1 - 0.08**4) / (1 - 0.08), rel=1e-14)
    assert k.K == pytest.approx(1.0869120, abs=1e-7)


def test_free_kernel_at_origin():
    b = szego_build(np.zeros(2), 2)
    k = kernel_direct(b, 0.0, 0.0, n=1)
    assert (k.K, k.K01, k.K11) == (1.0, 0.0, 1.0)


def test_diagonal_positivity_and_hermitian_symmetry():
    rng = np.random.default_rng(42)
    for fam in FAMILIES:
        b = alpha_family(fam).build(13)
        for _ in range(20):
            z, w = _random_pairs(rng, 1)[0]
            kzz = kernel_direct(b, z, z, n=12)
            assert kzz.K.imag == pytest.approx(0.0, abs=1e-12 * abs(kzz.K))
            assert kzz.K.real > 0
            assert kzz.K11.imag == pytest.approx(0.0, abs=1e-12 * abs(kzz.K11))
            kzw = kernel_direct(b, z, w, n=12)
            kwz = kernel_direct(b, w, z, n=12)
            for a, c in ((kzw.K, kwz.K), (kzw.K11, kwz.K11)):
                assert abs(a - np.conj(c)) <= 1e-11 * max(1.0, abs(a))


def test_routes_agree_on_random_pairs():
    rng = np.random.default_rng(0)
    for fam in FAMILIES:
        for n in (5, 40, 100):
            b = alpha_family(fam).build(n + 1)
            for z, w in _random_pairs(rng, 12):
                d = kernel_direct(b, z, w, n=n)
                c = kernel_cd(b, z, w, n=n)
                for name in ("K", "K01", "K11"):
                    a, e = getattr(d, name), getattr(c, name)
                    assert abs(a - e) <= 1e-9 * max(1.0, abs(a)), (fam, n, name)


def test_cd_refuses_near_singular_curve():
    b = szego_build(np.zeros(6), 6)
    th = 0.3
    z = np.exp(1j * th)
    w = np.exp(1j * th) * (1 + 1e-10)  # z conj(w) within 1e-8 of 1
    with pytest.raises(NearDiagonalSingularity):
        kernel_cd(b, z, w, n=5)
    # direct route stays available at the same pair
    k = kernel_direct(b, z, w, n=5)
    assert np.isfinite(k.K)


def test_k01_matches_finite_difference():
    # K is a polynomial in conj(w); K01 is its derivative in that variable
    rng = np.random.default_rng(9)
    b = alpha_family("decay:1:1").build(21)
    h = 1e-5
    for z, w in _random_pairs(rng, 8):
        k = kernel_direct(b, z, w, n=20)
        kp = kernel_direct(b, z, w + h, n=20)
        km = kernel_direct(b, z, w - h, n=20)
        fd = (kp.K - km.K) / (2 * h)
        assert abs(k.K01 - fd) <= 1e-6 * max(1.0, abs(k.K01))


def test_k11_matches_finite_difference_of_k01():
    rng = np.random.default_rng(10)
    b = alpha_family("constant:0.5").build(16)
    h = 1e-5
    for z, w in _random_pairs(rng, 8):
        k = kernel_direct(b, z, w, n=15)
        kp = kernel_direct(b, z + h, w, n=15)
        km = kernel_direct(b, z - h, w, n=15)
        fd = (kp.K01 - km.K01) / (2 * h)
        assert abs(k.K11 - fd) <= 1e-6 * max(1.0, abs(k.K11))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, -np.inf),
                                 complex(np.nan, 0.5)])
def test_non_finite_point_refused(bad):
    # refused by one check before any arithmetic on the point: no nan kernel
    # and no RuntimeWarning, at either argument of either route
    b = alpha_family("zero").build(10)
    for route in (kernel_direct, kernel_cd):
        for z, w in ((bad, 0.2), (0.2, bad)):
            with pytest.raises(UsageError, match="point must be finite"):
                route(b, z, w)


def test_order_bounds_enforced():
    b = szego_build(np.zeros(5), 5)
    with pytest.raises(UsageError):
        kernel_direct(b, 0.1, 0.2, n=6)
    with pytest.raises(UsageError):
        kernel_cd(b, 0.1, 0.2, n=5)  # closed form needs degree n+1
    assert kernel_cd(b, 0.1, 0.2, n=4).order == 4
    assert kernel_cd(b, 0.1, 0.2).order == 4  # default: highest order with S, R
