"""Limiting variance of the zero count of a circle-free annulus.

Three independent routes to the same number: a closed rational form, a
series (one exactly-integrated first term minus a squared-difference sum),
and polar quadrature of the limiting one- and two-point intensities.  The
series keeps the structure

    Var = (t^2 - s^2)/((1 - t^2)(1 - s^2)) - sum_{k>=0} (a^{k+1} - b^{k+1})^2

with (a, b) = (t^2, s^2) inside the unit disk and the reciprocal squares
outside; the branch sign is never hard-coded twice — it emerges from the
reciprocal substitution.

The quadrature is a tensor rule, Gauss-Legendre radial nodes times
equispaced angular nodes, refined by doubling.  Its two-point sum uses the
symmetry in the radial pair and in the angle (pairs i <= j, half the
circle), and each angular doubling adds only the new nodes to the running
sums, so every distinct value of the integrand is computed once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    QuadratureNotConverged,
    RegionTouchesCircle,
    SeriesNotConverged,
    UsageError,
)
from .opuc import gauss_jacobi
from .zerocount import Region

_SERIES_CAP = 2_000_000
_RADIAL_CAP = 384
_ANGULAR_CAP = 1 << 14
# doubles per temporary of the two-point sum (2 MB): a block holds
# _PAIR_BLOCK // (angular nodes) radial node pairs, at least one
_PAIR_BLOCK = 1 << 18


@dataclass(frozen=True)
class VarianceResult:
    value: float
    method: str  # closed | series | quadrature
    region: Optional[Region]  # None for the degenerate s == t annulus


def _check_annulus(s: float, t: float) -> Optional[Region]:
    if not 0.0 <= s <= t < np.inf:
        raise UsageError(f"need 0 <= s <= t < inf, got s={s}, t={t}")
    if s <= 1.0 <= t:
        raise RegionTouchesCircle(f"annulus ({s}, {t}) touches |z| = 1")
    return Region.annulus(s, t) if s < t else None


def var_limit_closed(s: float, t: float) -> VarianceResult:
    """Closed rational form; interior (t < 1) or exterior (s > 1) branch."""
    region = _check_annulus(s, t)
    s2 = s * s
    t2 = t * t
    s4 = s2 * s2
    t4 = t2 * t2
    st2 = (s * t) * (s * t)
    if t < 1.0:
        bracket = 1.0 - s2 * (t4 * (2.0 + s2) - 2.0)
    else:
        bracket = 1.0 - t2 * (s4 * (2.0 + t2) - 2.0)
    den = (1.0 - t4) * (1.0 - s4) * (1.0 - st2)
    value = (t2 - s2) * bracket / den
    return VarianceResult(value=value, method="closed", region=region)


def var_limit_series(s: float, t: float, tol: float = 1e-12) -> VarianceResult:
    """Single-integral term minus the squared-difference series.

    The sum stops once the geometric tail bound (ratio max(t^4, (st)^2, s^4),
    reciprocal radii outside) drops below tol, and refuses if that takes
    more than _SERIES_CAP terms.
    """
    region = _check_annulus(s, t)
    if not tol > 0:
        raise UsageError("tol must be positive")
    s2 = s * s
    t2 = t * t
    first = (t2 - s2) / ((1.0 - t2) * (1.0 - s2))
    if t < 1.0:
        a, b = t2, s2
    else:
        a, b = 1.0 / s2, 1.0 / t2
    total = 0.0
    pa, pb = a, b
    for _ in range(_SERIES_CAP):
        total += (pa - pb) ** 2
        pa *= a
        pb *= b
        # remaining terms are bounded by sum of pa^2 * a^(2j), j >= 0
        if pa * pa / (1.0 - a * a) < tol:
            break
    else:
        raise SeriesNotConverged(
            f"series tail above {tol} after {_SERIES_CAP} terms")
    return VarianceResult(value=first - total, method="series", region=region)


def _row_sums(x: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """sum_k (1 - 2 x_i cos_k + x_i^2)^-2 for each x_i, in blocks of rows
    whose temporary holds at most _PAIR_BLOCK doubles."""
    out = np.empty_like(x)
    rows = max(1, _PAIR_BLOCK // cos.size)
    for lo in range(0, x.size, rows):
        xs = x[lo : lo + rows, None]
        y = (2.0 * xs) * cos
        np.subtract(1.0, y, out=y)
        y += xs * xs  # y >= (1 - x)^2 > 0: x = r_i r_j != 1
        y *= y
        np.divide(1.0, y, out=y)
        out[lo : lo + rows] = np.sum(y, axis=1)
    return out


def var_limit_quadrature(s: float, t: float,
                         target: float = 1e-8) -> VarianceResult:
    """Quadrature of the limiting intensities, refined to `target`."""
    region = _check_annulus(s, t)
    if not target > 0:
        raise UsageError("target must be positive")
    if s == t:
        return VarianceResult(value=0.0, method="quadrature", region=region)

    def stable_in_angle(nr: int) -> float:
        # tensor polar rule: Gauss-Legendre radial x na equispaced angular
        x, w = gauss_jacobi(nr)
        r = 0.5 * (t - s) * x + 0.5 * (t + s)
        wr = 0.5 * (t - s) * w

        # one-point term: integral of the limiting intensity over the
        # annulus; the angular sum is dth * na = 2 pi at every na
        rho1 = 1.0 / (np.pi * (1.0 - r * r) ** 2)
        term1 = float(np.sum(wr * r * rho1) * (2.0 * np.pi))

        # two-point term: 1/pi^2 * double integral of |1 - z conj(w)|^(-4).
        # The integrand depends on the angles only through psi = theta - phi,
        # so the double trapezoid sum collapses exactly to na * (single sum
        # over psi).  It is symmetric in the radial pair (x = r_i r_j) and
        # even in psi, so it runs over pairs i <= j (doubled off the
        # diagonal) and sums f(0) + f(pi) + 2 sum_{0 < k < na/2} f(psi_k).
        # Doubling na keeps the old nodes as the even ones: each refinement
        # adds only the new odd nodes to the running sums.
        i, j = np.triu_indices(nr)
        xprod = r[i] * r[j]
        wrr = wr * r
        wprod = np.where(i == j, 1.0, 2.0) * (wrr[i] * wrr[j])
        ends = _row_sums(xprod, np.array([1.0, -1.0]))  # psi = 0 and pi

        def value(na: int, inner: np.ndarray) -> float:
            dth = 2.0 * np.pi / na
            angsum = ends + 2.0 * inner
            return term1 - float(
                np.sum(wprod * angsum) * dth * dth * na / np.pi**2)

        na = 64
        psi = 2.0 * np.pi / na * np.arange(1, na // 2)  # 0 < psi < pi
        inner = _row_sums(xprod, np.cos(psi))
        val = value(na, inner)
        while na <= _ANGULAR_CAP // 2:
            na *= 2
            psi = 2.0 * np.pi / na * np.arange(1, na // 2, 2)  # the odd nodes
            inner += _row_sums(xprod, np.cos(psi))
            nxt = value(na, inner)
            if abs(nxt - val) < 0.25 * target:
                return nxt
            val = nxt
        raise QuadratureNotConverged(
            f"angular rule not stable at {_ANGULAR_CAP} nodes")

    nr = 16
    val = stable_in_angle(nr)
    while nr <= _RADIAL_CAP // 2:
        nr *= 2
        nxt = stable_in_angle(nr)
        if abs(nxt - val) < target:
            return VarianceResult(value=nxt, method="quadrature",
                                  region=region)
        val = nxt
    raise QuadratureNotConverged(
        f"radial rule not converged at {_RADIAL_CAP} nodes")
