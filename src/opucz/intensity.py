"""Zero intensities of Gaussian random combinations of the basis.

For P(z) = sum_{k<=n} eta_k phi_k(z) with i.i.d. standard complex Gaussian
coefficients, the one-point zero intensity is

    rho1 = (K11 K - |K01|^2) / (pi K^2)        (all kernels at (z, z))

and the two-point intensity factors as

    pi^2 rho2(z, w) = f(z, w) f(w, z) + g(z, w) g(w, z)

with, writing D = K(z,z) K(w,w) - |K(z,w)|^2,

    f(z,w) = K11(z,z)/sqrt(D)
             + 2 Re[K(z,w) conj(K01(z,z)) K01(w,z)] / D^(3/2)
             - [K(w,w)|K01(z,z)|^2 + K(z,z)|K01(w,z)|^2] / D^(3/2)

    g(z,w) = K11(z,w)/sqrt(D)
             + [K(z,w) conj(K01(z,z)) K01(w,w)
                + conj(K(z,w) K01(w,z)) K01(z,w)] / D^(3/2)
             - [K(w,w) conj(K01(z,z)) K01(z,w)
                + K(z,z) conj(K01(w,z)) K01(w,w)] / D^(3/2).

The same quantity is also the permanental form Perm(C - B^H A^{-1} B) /
(pi^2 det A) on the 2x2 kernel blocks A = [K], B = [K01], C = [K11]; the
tests keep it, and the closed-form kernel_cd, as cross-checks.  Every
kernel here is a direct sum over phi_0..phi_n, from one values_at per point
scaled by a power of two: that changes no bit of either intensity, and
keeps the sums finite outside the disk, where phi_j grows like |z|^j.

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
from .kernel import _direct, _resolve_order
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


def _values(basis: OpucBasis, z: complex, n: int):
    """values_at(z) to degree n with derivatives, times the power of two
    2^-e for which 2^(e-1) <= max_j |phi_j(z)| < 2^e."""
    v = basis.values_at(z, upto=n, derivs=True)
    top = float(np.max(np.abs(v[0])))
    if not math.isfinite(top):
        raise ComputationError(f"|phi_j({z})| overflows for some j <= {n}")
    s = math.ldexp(1.0, -math.frexp(top)[1])
    return [x * s for x in v]


def _finite(val: float, n: int) -> IntensityValue:
    if not math.isfinite(val):  # as where phi_j' overflows but phi_j does not
        raise ComputationError(f"intensity at degree {n} is not finite")
    return IntensityValue(float(val), n)


def rho1_n(basis: OpucBasis, z, n: int = None) -> IntensityValue:
    """One-point intensity at finite truncation degree n (default: basis order)."""
    if n is None:
        n = basis.order
    if n < 1:
        raise UsageError("intensity needs degree >= 1")
    n = _resolve_order(basis, n, need_next=False)
    v = _values(basis, complex(z), n)
    k = _direct(v, v, n)
    K = k.K.real
    return _finite((k.K11.real * K - abs(k.K01) ** 2) / (math.pi * K * K), n)


def _pair_kernels(basis: OpucBasis, z, w, n: int):
    """K at (z,z), (w,w), (z,w) and (w,z), from _values once per point."""
    n = _resolve_order(basis, n, need_next=False)
    vz, vw = _values(basis, z, n), _values(basis, w, n)
    return (_direct(vz, vz, n), _direct(vw, vw, n),
            _direct(vz, vw, n), _direct(vw, vz, n))


def _fg(kzz, kww, kzw, kwz, D):
    """f(z,w) and g(z,w) given the four kernel evaluations."""
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


def rho2_n(basis: OpucBasis, z, w, n: int = None) -> IntensityValue:
    """Two-point intensity at finite truncation degree n.

    Coincident pairs (|z - w| < 1e-9) return exactly 0: the intensity
    vanishes there and the raw formula would form 0/0.
    """
    if n is None:
        n = max(1, basis.order - 1)
    if n < 1:
        raise UsageError("intensity needs degree >= 1")
    z = complex(z)
    w = complex(w)
    if abs(z - w) < PAIR_COINCIDENCE:
        return IntensityValue(0.0, n)
    kzz, kww, kzw, kwz = _pair_kernels(basis, z, w, n)
    D = kzz.K.real * kww.K.real - abs(kzw.K) ** 2
    if D <= 0.0:
        # Cauchy-Schwarz defect at roundoff level: numerically coincident
        return IntensityValue(0.0, n)
    fzw, gzw = _fg(kzz, kww, kzw, kwz, D)
    fwz, gwz = _fg(kww, kzz, kwz, kzw, D)
    return _finite((fzw * fwz + (gzw * gwz).real) / math.pi**2, n)


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
