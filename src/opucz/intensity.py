"""Zero intensities of Gaussian random combinations of the basis.

For P(z) = sum_{k<=n} eta_k phi_k(z) with i.i.d. standard complex Gaussian
coefficients, the k-point zero intensity at z_1..z_k is the Gaussian
conditioning formula (Hough, Krishnapur, Peres & Virag, Zeros of Gaussian
Analytic Functions, section 3.4)

    rho_k = per(C - B^H A^{-1} B) / det(pi A),

where A, B and C are the k x k blocks of kernels K, K01 and K11 at the
points.  Stack the columns phi(z_1)..phi(z_k), phi'(z_1)..phi'(z_k) of
phi_0..phi_n into one matrix M; its Gram matrix M^H M holds A, B and C.
With M = QR, det A = |r_00 ... r_{k-1,k-1}|^2 and the Schur complement is
R_22^H R_22 for the trailing k x k block R_22 of R, so

    rho1 = (|r_11| / |r_00|)^2 / pi
    rho2 = q_22 (2 q_23 + q_33) / pi^2,  q_ij = (|r_ij|/|r_00|)(|r_ij|/|r_11|).

The Gram matrix is never formed, so nothing cancels in it, and every
ratio stays finite where |phi_j(z)| is large outside the disk.  The tests
keep the hand-expanded f/g form of rho2 and the permanental form on the
kernel sums as oracles.

As n grows (for coefficient families in the ratio-asymptotics regime) the
intensities approach basis-independent limits off the unit circle:

    rho1 -> 1 / (pi (1 - |z|^2)^2)
    rho2 -> (1/pi^2) [ 1/((1-|z|^2)^2 (1-|w|^2)^2) - 1/|1 - z conj(w)|^4 ]

the latter for z, w strictly on the same side of the circle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ComputationError, MixedSides, OnUnitCircle, UsageError
# the public routes stay importable from here: perfbench/workloads.py traces
# intensity.kernel_cd and intensity.kernel_direct by attribute
from .kernel import kernel_cd, kernel_direct  # noqa: F401
from .opuc import OpucBasis

PAIR_COINCIDENCE = 1e-9
CIRCLE_GUARD = 1e-12


@dataclass
class IntensityValue:
    value: float
    order: Union[int, str]  # truncation degree, or "limit"


def _finite(val: float, n: int) -> IntensityValue:
    if not math.isfinite(val):  # as where a ratio of entries of R overflows
        raise ComputationError(f"intensity at degree {n} is not finite")
    return IntensityValue(float(val), n)


def _abs_r(basis: OpucBasis, points, n: int):
    """|R| of M = QR, M the columns phi(z_i) then phi'(z_i) over phi_0..phi_n,
    padded with zero rows to at least as many rows as columns."""
    k = len(points)
    vals = [basis.values_at(z, upto=n, derivs=True) for z in points]
    m = np.zeros((max(n + 1, 2 * k), 2 * k), dtype=np.complex128)
    for i, v in enumerate(vals):
        m[:n + 1, i], m[:n + 1, k + i] = v[0], v[2]
    if not np.all(np.isfinite(m)):
        raise ComputationError(
            f"phi_j or phi_j' overflows for some j <= {n} at {points}")
    return np.abs(np.linalg.qr(m, mode="r"))


def rho1_n(basis: OpucBasis, z, n: int = None) -> IntensityValue:
    """One-point intensity at finite truncation degree n (default: basis order)."""
    n = basis.order if n is None else n
    if n < 1:
        raise UsageError("intensity needs degree >= 1")
    r = _abs_r(basis, [complex(z)], n)
    return _finite((r[1, 1] / r[0, 0]) ** 2 / math.pi, n)


def rho2_n(basis: OpucBasis, z, w, n: int = None) -> IntensityValue:
    """Two-point intensity at finite degree n (default: basis order).

    Coincident pairs (|z - w| < 1e-9) return exactly 0: the intensity
    vanishes there and the formula would form 0/0.
    """
    n = basis.order if n is None else n
    if n < 1:
        raise UsageError("intensity needs degree >= 1")
    z = complex(z)
    w = complex(w)
    if abs(z - w) < PAIR_COINCIDENCE:
        return IntensityValue(0.0, n)
    r = _abs_r(basis, [z, w], n)
    if r[0, 0] == 0.0 or r[1, 1] == 0.0:
        # phi(w) on the line of phi(z) to the last bit: numerically coincident
        return IntensityValue(0.0, n)
    q22, q23, q33 = ((r[i, j] / r[0, 0]) * (r[i, j] / r[1, 1])
                     for i, j in ((2, 2), (2, 3), (3, 3)))
    return _finite(q22 * (2.0 * q23 + q33) / math.pi**2, n)


def _check_off_circle(z: complex) -> float:
    d = abs(z) - 1.0
    if abs(d) < CIRCLE_GUARD:
        raise OnUnitCircle(f"|z| = {abs(z):.17g} is on the unit circle")
    return d


def rho1_limit(z) -> IntensityValue:
    """Limiting one-point intensity 1/(pi (1 - |z|^2)^2), off the circle."""
    z = complex(z)
    _check_off_circle(z)
    val = 1.0 / (math.pi * (1.0 - abs(z) ** 2) ** 2)
    return IntensityValue(float(val), "limit")


def rho2_limit(z, w) -> IntensityValue:
    """Limiting two-point intensity for z, w on the same side of the circle."""
    z = complex(z)
    w = complex(w)
    dz = _check_off_circle(z)
    dw = _check_off_circle(w)
    if (dz > 0) != (dw > 0):
        raise MixedSides("points must be both inside or both outside the circle")
    if abs(z - w) < PAIR_COINCIDENCE:
        return IntensityValue(0.0, "limit")
    term1 = 1.0 / ((1.0 - abs(z) ** 2) ** 2 * (1.0 - abs(w) ** 2) ** 2)
    term2 = 1.0 / abs(1.0 - z * np.conj(w)) ** 4
    return IntensityValue(float((term1 - term2) / math.pi**2), "limit")
