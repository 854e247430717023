"""Reproducing kernels of the basis truncations and their derivative kernels.

For a basis phi_0..phi_n the three kernels are

    K(z, w)   = sum_j phi_j(z) conj(phi_j(w))
    K01(z, w) = sum_j phi_j(z) conj(phi_j'(w))
    K11(z, w) = sum_j phi_j'(z) conj(phi_j'(w))

Two interchangeable routes are provided.  kernel_direct sums the series term
by term.  kernel_cd uses the closed forms built from phi_{n+1} and its
reversal: with u = 1 - z conj(w),

    K   = (conj(phi*(w)) phi*(z) - conj(phi(w)) phi(z)) / u
    K01 = S / u + z K / u
    K11 = (R u + z conj(S(w,z)) + conj(w) S(z,w) + (1 + z conj(w)) K) / u^2

where phi = phi_{n+1}, phi* its reversal, and

    S(z, w) = conj(phi*'(w)) phi*(z) - conj(phi'(w)) phi(z)
    R(z, w) = conj(phi*'(w)) phi*'(z) - conj(phi'(w)) phi'(z).

Both routes run the recursion in value space.  kernel_direct reads its
columns from OpucBasis.values_at and stays there, the reference route
kernel_cd is checked against; kernel_cd reads only the values at degree
n+1, from OpucBasis.derivs_at, which keeps no column.  The intensities do
not go through these sums: they condition on the same values by one QR
factorisation (see intensity).

The closed forms break down on the curve z conj(w) = 1; within 1e-8 of it
kernel_cd refuses and callers use kernel_direct instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearDiagonalSingularity, UsageError
from .opuc import OpucBasis, finite_point

CD_GUARD = 1e-8


@dataclass
class KernelEval:
    """One evaluation of the three kernels at a point pair, at order n."""

    K: complex
    K01: complex
    K11: complex
    order: int


def _resolve_order(basis: OpucBasis, n, need_next: bool) -> int:
    top = basis.order - 1 if need_next else basis.order
    if n is None:
        n = top
    if n < 0 or n > top:
        raise UsageError(f"order {n} not available from a degree-{basis.order} basis")
    return n


def kernel_direct(basis: OpucBasis, z, w, n: int = None) -> KernelEval:
    """Term-by-term sums over phi_0..phi_n.  Valid everywhere."""
    z, w = finite_point(z), finite_point(w)
    n = _resolve_order(basis, n, need_next=False)
    pz, _, dpz, _ = basis.values_at(z, upto=n, derivs=True)
    pw, _, dpw, _ = basis.values_at(w, upto=n, derivs=True)
    K = np.dot(pz, np.conj(pw))
    K01 = np.dot(pz, np.conj(dpw))
    K11 = np.dot(dpz, np.conj(dpw))
    return KernelEval(complex(K), complex(K01), complex(K11), n)


def kernel_cd(basis: OpucBasis, z, w, n: int = None) -> KernelEval:
    """Closed-form route from degree n+1 alone.

    Needs the basis to hold degree n+1 and the pair to sit away from the
    singular curve: |1 - z conj(w)| > 1e-8.
    """
    z, w = finite_point(z), finite_point(w)
    n = _resolve_order(basis, n, need_next=True)
    u = 1.0 - z * np.conj(w)
    if abs(u) <= CD_GUARD:
        raise NearDiagonalSingularity(
            f"|1 - z conj(w)| = {abs(u):.3e} <= {CD_GUARD}; use kernel_direct")
    m = n + 1
    pz, psz, dpz, dpsz = basis.derivs_at(z, m)
    pw, psw, dpw, dpsw = basis.derivs_at(w, m)
    S = np.conj(dpsw) * psz - np.conj(dpw) * pz
    R = np.conj(dpsw) * dpsz - np.conj(dpw) * dpz
    Swz = np.conj(dpsz) * psw - np.conj(dpz) * pw
    K = (np.conj(psw) * psz - np.conj(pw) * pz) / u
    K01 = (S + z * K) / u
    K11 = (R * u + z * np.conj(Swz) + np.conj(w) * S + (1.0 + z * np.conj(w)) * K) / u**2
    return KernelEval(complex(K), complex(K01), complex(K11), n)
