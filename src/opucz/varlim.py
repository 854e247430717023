"""Limiting variance of the zero count of a circle-free annulus.

Three independent routes to the same number: a closed rational form, a
series (one exactly-integrated first term minus a squared-difference sum),
and polar quadrature of the limiting one- and two-point intensities.  The
series keeps the structure

    Var = (t^2 - s^2)/((1 - t^2)(1 - s^2)) - sum_{k>=0} (a^{k+1} - b^{k+1})^2

with (a, b) = (t^2, s^2) inside the unit disk and the reciprocal squares
outside; the branch sign is never hard-coded twice — it emerges from the
reciprocal substitution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureNotConverged, RegionTouchesCircle, UsageError
from .zerocount import Region

_SERIES_CAP = 2_000_000
_RADIAL_CAP = 384
_ANGULAR_CAP = 1 << 14
# radial node pairs per block of the two-point sum: each block's
# temporaries are _PAIR_BLOCK x (angular nodes) doubles, 2 MB at 256 nodes
_PAIR_BLOCK = 1024


@dataclass(frozen=True)
class VarianceResult:
    value: float
    method: str  # closed | series | quadrature
    region: Optional[Region]  # None for the degenerate s == t annulus


def _check_annulus(s: float, t: float) -> Optional[Region]:
    if not (0.0 <= s <= t):
        raise UsageError(f"need 0 <= s <= t, got s={s}, t={t}")
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
    reciprocal radii outside) drops below tol.
    """
    region = _check_annulus(s, t)
    if tol <= 0:
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
    return VarianceResult(value=first - total, method="series", region=region)


def _quad_value(s: float, t: float, radial, na: int) -> float:
    # tensor polar rule: Gauss-Legendre radial (the leggauss nodes and
    # weights in `radial`) x equispaced angular
    x, w = radial
    r = 0.5 * (t - s) * x + 0.5 * (t + s)
    wr = 0.5 * (t - s) * w
    dth = 2.0 * np.pi / na
    psi = dth * np.arange(na)

    # one-point term: integral of the limiting intensity over the annulus
    rho1 = 1.0 / (np.pi * (1.0 - r * r) ** 2)
    term1 = float(np.sum(wr * r * rho1) * dth * na)

    # two-point term: 1/pi^2 * double integral of |1 - z conj(w)|^(-4).
    # The integrand depends on the angles only through theta - phi, so the
    # double trapezoid sum collapses exactly to na * (single sum over psi).
    xprod = np.outer(r, r).ravel()
    wprod = np.outer(wr * r, wr * r).ravel()
    angsum = np.zeros_like(xprod)
    cos_psi = np.cos(psi)
    for lo in range(0, xprod.size, _PAIR_BLOCK):
        xs = xprod[lo : lo + _PAIR_BLOCK, None]
        angsum[lo : lo + _PAIR_BLOCK] = np.sum(
            (1.0 - 2.0 * xs * cos_psi + xs * xs) ** -2.0, axis=1)
    term2 = float(np.sum(wprod * angsum) * dth * dth * na / np.pi**2)
    return term1 - term2


def var_limit_quadrature(s: float, t: float,
                         target: float = 1e-8) -> VarianceResult:
    """Quadrature of the limiting intensities, refined to `target`."""
    region = _check_annulus(s, t)
    if target <= 0:
        raise UsageError("target must be positive")
    if s == t:
        return VarianceResult(value=0.0, method="quadrature", region=region)

    def stable_in_angle(nr: int) -> float:
        radial = leggauss(nr)  # one rule for every angular refinement
        na = 64
        val = _quad_value(s, t, radial, na)
        while na <= _ANGULAR_CAP // 2:
            na *= 2
            nxt = _quad_value(s, t, radial, na)
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
