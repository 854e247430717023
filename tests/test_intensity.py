import math

import mpmath
import numpy as np
import pytest

from opucz.cli import main
from opucz.errors import ComputationError, MixedSides, OnUnitCircle, UsageError
from opucz.intensity import (
    PAIR_COINCIDENCE,
    rho1_limit,
    rho1_n,
    rho2_limit,
    rho2_n,
)
from opucz.kernel import kernel_cd, kernel_direct
from opucz.opuc import alpha_family, szego_build

FAMILIES = ["zero", "constant:0.5", "decay:1:1"]


def _pair_kernels(basis, z, w, n, route=kernel_direct):
    """K at (z,z), (w,w), (z,w) and (w,z) from a public kernel route."""
    return tuple(route(basis, a, b, n=n)
                 for a, b in ((z, z), (w, w), (z, w), (w, z)))


def _fg(kzz, kww, kzw, kwz, D):
    """Oracle: f(z,w) and g(z,w) of the hand-expanded form
    pi^2 rho2(z, w) = f(z, w) f(w, z) + g(z, w) g(w, z), with
    D = K(z,z) K(w,w) - |K(z,w)|^2, given the four kernel evaluations."""
    rD = math.sqrt(D)
    rD3 = rD * D
    f = (kzz.K11.real / rD
         + 2.0 * (kzw.K * np.conj(kzz.K01) * kwz.K01).real / rD3
         - (kww.K.real * abs(kzz.K01) ** 2 + kzz.K.real * abs(kwz.K01) ** 2) / rD3)
    g = (kzw.K11 / rD
         + (kzw.K * np.conj(kzz.K01) * kww.K01
            + np.conj(kzw.K * kwz.K01) * kzw.K01) / rD3
         - (kww.K * np.conj(kzz.K01) * kzw.K01
            + kzz.K * np.conj(kwz.K01) * kww.K01) / rD3)
    return f, g


def test_rho1_free_origin_is_inverse_pi():
    b = szego_build(np.zeros(50), 50)
    for n in (1, 2, 7, 25, 50):
        assert rho1_n(b, 0.0, n=n).value == pytest.approx(1 / math.pi, abs=1e-14)


def test_rho1_free_case_geometric_oracle():
    # monomials at z=0.4, n=3: K, K01, K11 are tiny power sums done by hand
    rho = 0.16
    K = sum(rho**j for j in range(4))
    s1 = sum(j * rho ** (j - 1) for j in range(1, 4))
    s2 = sum(j * j * rho ** (j - 1) for j in range(1, 4))
    want = (s2 / rho * rho * K - abs(0.4 * s1) ** 2) / (math.pi * K * K)
    b = szego_build(np.zeros(3), 3)
    got = rho1_n(b, 0.4, n=3).value
    assert got == pytest.approx(want, rel=1e-12)


def test_rho1_positive_everywhere_sampled():
    rng = np.random.default_rng(2)
    for fam in FAMILIES:
        b = alpha_family(fam).build(30)
        for _ in range(25):
            z = 1.8 * rng.random() * np.exp(2j * np.pi * rng.random())
            assert rho1_n(b, z, n=30).value > 0


def test_rho1_limit_frozen_values():
    assert rho1_limit(0.0).value == pytest.approx(1 / math.pi, rel=1e-15)
    assert rho1_limit(0.5).value == pytest.approx(0.565884242104516749, rel=1e-15)
    assert rho1_limit(2.0).value == pytest.approx(0.035367765131532297, rel=1e-15)
    assert rho1_limit(0.5j).value == rho1_limit(0.5).value  # radial only


def test_rho1_limit_circle_guard():
    for z in (1.0, -1.0, 1j, np.exp(0.7j), 1.0 + 1e-13):
        with pytest.raises(OnUnitCircle):
            rho1_limit(z)
    assert rho1_limit(1.0 + 1e-11).order == "limit"


def test_rho1_trend_toward_limit_decay_family():
    b = alpha_family("decay:1:1").build(160)
    lim = rho1_limit(0.5).value
    devs = [abs(rho1_n(b, 0.5, n=n).value - lim) for n in (20, 40, 80, 160)]
    assert devs[-1] < devs[0]
    assert devs[-1] < 2e-3


def test_rho2_limit_frozen_values():
    assert rho2_limit(0.3, -0.3).value == pytest.approx(0.075973967165411631, rel=1e-14)
    assert rho2_limit(0.0, 0.5).value == pytest.approx(0.078805365055151600, rel=1e-14)


def test_rho2_limit_guards():
    with pytest.raises(MixedSides):
        rho2_limit(0.5, 2.0)
    with pytest.raises(OnUnitCircle):
        rho2_limit(1.0, 0.5)
    with pytest.raises(OnUnitCircle):
        rho2_limit(0.5, np.exp(1j))
    assert rho2_limit(1.5, 2.5).value > 0
    assert rho2_limit(0.4, 0.4).value == 0.0


def test_rho2_limit_symmetry_and_positivity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        r1, r2 = 0.9 * rng.random(2)
        z = r1 * np.exp(2j * np.pi * rng.random())
        w = r2 * np.exp(2j * np.pi * rng.random())
        a = rho2_limit(z, w).value
        assert a == rho2_limit(w, z).value
        assert a >= 0


def test_rho2_coincident_pair_exact_zero():
    b = szego_build(np.zeros(12), 12)
    rng = np.random.default_rng(4)
    for _ in range(30):
        z = 2 * rng.random() * np.exp(2j * np.pi * rng.random())
        assert rho2_n(b, z, z, n=10).value == 0.0
        assert rho2_n(b, z, z + 4e-10, n=10).value == 0.0


def _rho2_permanental(basis, z, w, n):
    """Oracle: Perm(C - B^H A^{-1} B) / (pi^2 det A) on the 2x2 kernel blocks."""
    if abs(z - w) < PAIR_COINCIDENCE:
        return 0.0
    kzz, kww, kzw, kwz = _pair_kernels(basis, z, w, n)
    if kzz.K.real * kww.K.real - abs(kzw.K) ** 2 <= 0.0:
        return 0.0
    A = np.array([[kzz.K, kzw.K], [kwz.K, kww.K]])
    B = np.array([[kzz.K01, kzw.K01], [kwz.K01, kww.K01]])
    C = np.array([[kzz.K11, kzw.K11], [kwz.K11, kww.K11]])
    M = C - B.conj().T @ np.linalg.solve(A, B)
    perm = M[0, 0] * M[1, 1] + M[0, 1] * M[1, 0]
    return perm.real / (math.pi**2 * np.linalg.det(A).real)


def test_rho2_dual_path_agreement():
    # the QR of the values and the permanental form on the kernel sums are
    # two routes to the same conditioning formula; they must agree far
    # beyond statistical doubt
    rng = np.random.default_rng(12)
    for fam in FAMILIES:
        b = alpha_family(fam).build(25)
        for _ in range(70):
            z = 1.6 * rng.random() * np.exp(2j * np.pi * rng.random())
            w = 1.6 * rng.random() * np.exp(2j * np.pi * rng.random())
            if abs(z - w) < 1e-3:
                continue
            a = rho2_n(b, z, w, n=24).value
            m = _rho2_permanental(b, complex(z), complex(w), 24)
            assert abs(a - m) <= 1e-9 * max(1.0, abs(a)), (fam, z, w)


def test_rho2_symmetry_finite_n():
    b = alpha_family("decay:1:1").build(20)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
        w = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
        a = rho2_n(b, z, w, n=19).value
        c = rho2_n(b, w, z, n=19).value
        assert a == pytest.approx(c, rel=1e-10, abs=1e-12)


def test_rho2_free_case_approaches_limit():
    b = szego_build(np.zeros(61), 61)
    got = rho2_n(b, 0.2, -0.3, n=60).value
    want = rho2_limit(0.2, -0.3).value
    assert abs(got - want) <= 0.05 * want


def test_rho2_trend_toward_limit_decay_family():
    b = alpha_family("decay:1:1").build(161)
    lim = rho2_limit(0.2, -0.3).value
    d40 = abs(rho2_n(b, 0.2, -0.3, n=40).value - lim)
    d160 = abs(rho2_n(b, 0.2, -0.3, n=160).value - lim)
    assert d160 < d40


def test_rho2_uses_direct_route_near_singular_curve():
    # a pair with |1 - z conj(w)| < 0.1, where the closed form loses digits
    # and the QR of the values, the one route, stays finite
    b = szego_build(np.zeros(31), 31)
    z = 0.999
    w = 0.999
    got = rho2_n(b, z, w + 0.0005, n=30)
    assert np.isfinite(got.value)
    assert got.value >= 0


def _rho1_public(basis, z, n):
    """Oracle: rho1_n from the public kernel_direct at (z, z)."""
    k = kernel_direct(basis, z, z, n=n)
    K = k.K.real
    return (k.K11.real * K - abs(k.K01) ** 2) / (math.pi * K * K)


def _rho2_public(basis, z, w, n, route=kernel_direct):
    """Oracle: rho2_n by the f/g form from a public kernel route."""
    if abs(z - w) < PAIR_COINCIDENCE:
        return 0.0
    kzz, kww, kzw, kwz = _pair_kernels(basis, z, w, n, route=route)
    D = kzz.K.real * kww.K.real - abs(kzw.K) ** 2
    if D <= 0.0:
        return 0.0
    fzw, gzw = _fg(kzz, kww, kzw, kwz, D)
    fwz, gwz = _fg(kww, kzz, kwz, kzw, D)
    return float((fzw * fwz + (gzw * gwz).real) / math.pi**2)


@pytest.mark.parametrize("fam", FAMILIES + ["weight:jacobi:pi:1"])
def test_intensities_agree_with_public_kernel_routes(fam):
    # the kernel sums of the public direct route, recombined by the closed
    # expressions for rho1 and the f/g form for rho2, give the QR route's
    # intensities to rounding on points and pairs where those expressions
    # cancel little
    rng = np.random.default_rng(21)
    b = alpha_family(fam).build(31)
    for _ in range(25):
        z = complex(1.6 * rng.random() * np.exp(2j * np.pi * rng.random()))
        w = complex(1.6 * rng.random() * np.exp(2j * np.pi * rng.random()))
        near = (1 - 0.08 * rng.random() * np.exp(2j * np.pi * rng.random())) / np.conj(z)
        for n in (5, 30, 31):  # n = 31: the basis holds no degree n+1
            want = _rho1_public(b, z, n)
            got = rho1_n(b, z, n=n).value
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (z, n)
            for v in (w, complex(near)):  # |1 - z conj(v)| < 0.1 for near
                want = _rho2_public(b, z, v, n)
                got = rho2_n(b, z, v, n=n).value
                assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (z, v, n)


@pytest.mark.parametrize("fam", FAMILIES + ["weight:jacobi:pi:1"])
def test_rho2_against_closed_form_kernels(fam):
    # the closed-form kernel_cd is an independent route to the same kernels:
    # away from z conj(w) = 1, rho2_n built from it agrees with the direct
    # sums to rounding
    rng = np.random.default_rng(34)
    b = alpha_family(fam).build(41)
    checked = 0
    while checked < 30:
        z = complex(1.6 * rng.random() * np.exp(2j * np.pi * rng.random()))
        w = complex(1.6 * rng.random() * np.exp(2j * np.pi * rng.random()))
        if min(abs(1 - a * np.conj(c)) for a in (z, w) for c in (z, w)) < 0.1:
            continue
        a = rho2_n(b, z, w, n=40).value
        want = _rho2_public(b, z, w, 40, route=kernel_cd)
        assert abs(a - want) <= 1e-8 * max(1.0, abs(want)), (z, w)
        checked += 1


@pytest.mark.parametrize("z,w,rel", [(1.6, None, 1e-10), (1.6j, -1.5, 1e-9),
                                     (1.6, 1.5, 1e-11), (1.6, 1.59, 1e-11),
                                     (0.5, None, 1e-14), (0.5, -0.3, 1e-14)])
def test_intensities_at_high_degree_reach_the_limit(z, w, rel):
    # at n = 400, |phi_j(1.6)| reaches 1e81; the QR of the values squares
    # none of them, and on zero the intensities sit at their limits (to
    # about 1e-160 outside the disk, where reversal maps z to 1/z).  On the
    # close pair (1.6, 1.59) the f/g form over kernel sums cancels down to
    # two digits at this degree
    b = alpha_family("zero").build(401)
    if w is None:
        got, want = rho1_n(b, z, n=400).value, rho1_limit(z).value
    else:
        got, want = rho2_n(b, z, w, n=400).value, rho2_limit(z, w).value
    assert got == pytest.approx(want, rel=rel)


def test_close_exterior_pair_prints_the_limit(capsys):
    # 12 significant digits of the finite-degree value are those of the limit
    outs = []
    for extra in (["--alphas", "zero", "--n", "400"], ["--limit"]):
        assert main(["intensity", *extra, "--z", "1.6", "--w", "1.59"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs == ["1.4958009381e-06\n"] * 2


def test_rho2_at_lowest_degrees():
    # a degree-1 combination has one zero, so no pair of them: rho2 is 0;
    # at degree 2 the 3 x 4 value matrix is padded to square
    b = alpha_family("decay:1:1").build(2)
    rng = np.random.default_rng(17)
    for _ in range(10):
        z = complex(1.6 * rng.random() * np.exp(2j * np.pi * rng.random()))
        w = complex(1.6 * rng.random() * np.exp(2j * np.pi * rng.random()))
        assert rho2_n(b, z, w, n=1).value == 0.0
        want = _rho2_permanental(b, z, w, 2)
        assert abs(rho2_n(b, z, w, n=2).value - want) <= 1e-11 * max(1.0, want)


def test_default_degree_is_the_basis_order():
    # without n, both intensities read phi_0..phi_n of a degree-n basis
    b = alpha_family("decay:1:1").build(12)
    z, w = 0.3 + 0.2j, -0.4 + 0.1j
    assert rho1_n(b, z) == rho1_n(b, z, n=12)
    assert rho2_n(b, z, w) == rho2_n(b, z, w, n=12)


def _mp_rho(basis, points, n):
    """Oracle: the conditioning formula per(C - B^H A^-1 B) / det(pi A) on
    the kernels of phi_0..phi_n, in 50-digit arithmetic from the basis's own
    recurrence coefficients."""
    with mpmath.workdps(50):
        cols = [], []
        for z in points:
            z = mpmath.mpc(z)
            f = g = mpmath.mpc(1)
            df = dg = mpmath.mpc(0)
            phi, dphi = [f], [df]
            for a in basis.alphas[:n].tolist():
                a = mpmath.mpc(a)
                s = 1 / mpmath.sqrt(1 - abs(a) ** 2)
                d = f + z * df
                df, dg = (d - mpmath.conj(a) * dg) * s, (dg - a * d) * s
                f, g = (z * f - mpmath.conj(a) * g) * s, (g - a * z * f) * s
                phi.append(f)
                dphi.append(df)
            cols[0].append(phi)
            cols[1].append(dphi)
        k = len(points)
        m = cols[0] + cols[1]
        gram = mpmath.matrix(2 * k, 2 * k)
        for i in range(2 * k):
            for j in range(2 * k):
                gram[i, j] = mpmath.fsum(mpmath.conj(x) * y
                                         for x, y in zip(m[i], m[j]))
        A, B, C = gram[:k, :k], gram[:k, k:], gram[k:, k:]
        S = C - B.H * mpmath.inverse(A) * B
        per = S[0, 0] if k == 1 else S[0, 0] * S[1, 1] + S[0, 1] * S[1, 0]
        return float(mpmath.re(per / (mpmath.pi ** k * mpmath.det(A))))


def _polar(rng, lo, hi):
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random()))


def _pair_classes(rng):
    """Three pairs each: interior, exterior, near the curve z conj(w) = 1,
    and close (1e-3 <= |z - w| <= 1e-2) inside and outside the disk."""
    def apart(lo, hi):
        return _polar(rng, lo, hi), _polar(rng, lo, hi)

    def close(lo, hi):
        z = _polar(rng, lo, hi)
        return z, z + rng.uniform(1e-3, 1e-2) * np.exp(2j * np.pi * rng.random())

    def near():  # 1 - z conj(w) = conj(d), 0.02 <= |d| <= 0.09
        z = _polar(rng, 0.6, 0.9)
        return z, (1 - _polar(rng, 0.02, 0.09)) / np.conj(z)

    return {"interior": [apart(0.05, 0.9) for _ in range(3)],
            "exterior": [apart(1.1, 1.6) for _ in range(3)],
            "near-curve": [near() for _ in range(3)],
            "close interior": [close(0.05, 0.9) for _ in range(3)],
            "close exterior": [close(1.1, 1.6) for _ in range(3)]}


@pytest.mark.parametrize("fam", FAMILIES)
def test_intensities_against_50_digit_oracle(fam):
    # every class of pair, close ones outside the disk included, to 1e-10
    # relative at n = 40
    rng = np.random.default_rng(40)
    b = alpha_family(fam).build(40)
    for z in [_polar(rng, 0.05, 0.9) for _ in range(3)] + \
             [_polar(rng, 1.1, 1.6) for _ in range(3)]:
        want = _mp_rho(b, [z], 40)
        assert rho1_n(b, z, n=40).value == pytest.approx(want, rel=1e-10), z
    for name, pairs in _pair_classes(rng).items():
        for z, w in pairs:
            want = _mp_rho(b, [z, w], 40)
            got = rho2_n(b, z, w, n=40).value
            assert got == pytest.approx(want, rel=1e-10), (name, z, w)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, -np.inf),
                                 complex(np.nan, 0.5)])
def test_non_finite_point_refused(bad):
    # a usage error, not an overflow (ComputationError) or a silent nan limit
    b = alpha_family("zero").build(10)
    for call in (lambda: rho1_n(b, bad), lambda: rho1_limit(bad),
                 lambda: rho2_n(b, bad, 0.2), lambda: rho2_n(b, 0.2, bad),
                 lambda: rho2_limit(bad, 0.2), lambda: rho2_limit(0.2, bad)):
        with pytest.raises(UsageError, match="point must be finite"):
            call()


def test_intensity_past_overflow_is_refused(capsys):
    # at n = 1600, phi_j(1.6) overflows a double: a computation error with
    # a message, never a printed nan
    b = alpha_family("zero").build(1601)
    with pytest.raises(ComputationError):
        rho1_n(b, 1.6, n=1600)
    with pytest.raises(ComputationError):
        rho2_n(b, 1.6, 1.5, n=1600)
    for extra in ([], ["--w", "1.5"]):
        code = main(["intensity", "--alphas", "zero", "--n", "1600",
                     "--z", "1.6", *extra])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("computation error (ComputationError)")
