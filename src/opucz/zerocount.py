"""Zeros of a combination P = sum_k eta_k phi_k and how many land in a region.

Two independent counting routes, both working in the basis itself:

  * roots + count_in_region: eigenvalues of the comrade matrix of P (the
    GGT matrix of multiplication by z, changed by rank one), certified
    against eta and polished by a few Newton steps where needed, then a
    point-in-region test on each root.
  * count_by_argument_principle: (1/2 pi i) times the contour integral of
    P'/P around the region boundary, by adaptive composite Gauss-Legendre
    panels on each smooth arc.  The result must land within 0.1 of an
    integer; drifting further means a zero sits too close to the boundary
    and the count is refused rather than guessed.

Regions are annuli s < |z| < t (s = 0 means the full disk |z| < t) and
sectors r < |z| < 1/r with alpha <= arg z < beta, arguments taken in
[0, 2 pi).  The sector's radial window is symmetric about the unit circle;
the half-open angular window makes sector counts over a partition of
[0, 2 pi) add up exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    BoundaryProximity,
    DegenerateLeadingCoefficient,
    NoConvergence,
    UsageError,
)
from .opuc import OpucBasis, eval_poly

DEGENERATE_LEAD = 1e-300
RESIDUAL_SCALE = 1e-8
NEWTON_STEPS = 5
STEP_ULPS = 8
INTEGER_SLACK = 0.1

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_PANEL_TOL = 1e-11
_MAX_DEPTH = 44  # panel width floor 0.125 * 2^-44, still above parameter eps


@dataclass(frozen=True)
class Region:
    """annulus(s, t) or sector(r, alpha, beta); see the module docstring."""

    kind: str
    params: Tuple[float, ...]

    @staticmethod
    def annulus(s: float, t: float) -> "Region":
        if not (0 <= s < t):
            raise UsageError(f"annulus needs 0 <= s < t, got s={s}, t={t}")
        return Region("annulus", (float(s), float(t)))

    @staticmethod
    def sector(r: float, alpha: float, beta: float) -> "Region":
        # radial window r < |z| < 1/r: the annulus around the unit circle
        # (the two radii are reciprocal, written with the small one first)
        if not (0 < r < 1):
            raise UsageError(f"sector needs 0 < r < 1, got r={r}")
        if not (0 <= alpha < beta <= 2 * math.pi):
            raise UsageError(
                f"sector needs 0 <= alpha < beta <= 2 pi, got {alpha}, {beta}")
        return Region("sector", (float(r), float(alpha), float(beta)))

    def contains(self, z) -> np.ndarray:
        """Membership of every point of z (an array of the same shape)."""
        z = np.asarray(z, dtype=np.complex128)
        az = np.abs(z)
        if self.kind == "annulus":
            s, t = self.params
            return (s < az) & (az < t) if s > 0 else az < t
        r, alpha, beta = self.params
        ang = np.arctan2(z.imag, z.real) % (2 * math.pi)
        return (r < az) & (az < 1.0 / r) & (alpha <= ang) & (ang < beta)

    def angular_fraction(self) -> Optional[float]:
        if self.kind != "sector":
            return None
        _, alpha, beta = self.params
        return (beta - alpha) / (2 * math.pi)

    def boundary_arcs(self):
        """Positively oriented smooth arcs (gamma, dgamma) over [0, 1]."""

        def circle(rad, ccw=True, a0=0.0, a1=2 * math.pi):
            lo, hi = (a0, a1) if ccw else (a1, a0)

            def g(t):
                return rad * np.exp(1j * (lo + (hi - lo) * t))

            def dg(t):
                return rad * 1j * (hi - lo) * np.exp(1j * (lo + (hi - lo) * t))

            return g, dg

        def segment(z0, z1):
            return (lambda t: z0 + (z1 - z0) * t,
                    lambda t: np.full_like(np.asarray(t, dtype=float),
                                           z1 - z0, dtype=np.complex128))

        if self.kind == "annulus":
            s, t = self.params
            arcs = [circle(t, ccw=True)]
            if s > 0:
                arcs.append(circle(s, ccw=False))
            return arcs
        r, alpha, beta = self.params
        ro = 1.0 / r
        ea, eb = np.exp(1j * alpha), np.exp(1j * beta)
        return [
            circle(ro, ccw=True, a0=alpha, a1=beta),
            segment(ro * eb, r * eb),
            circle(r, ccw=False, a0=alpha, a1=beta),
            segment(r * ea, ro * ea),
        ]


@dataclass
class ZeroSet:
    """Roots of one combination with their backward errors.

    Each residual is the backward error of the root relative to eta:
    |P(z)| / sum_k |eta_k| |phi_k(z)|, the smallest relative change of the
    coefficients that makes z an exact root.  A root is certified on one
    of two grounds:

      * its residual is at most 1e-8 (RESIDUAL_SCALE); or
      * its last Newton correction |P(z)/P'(z)| is at most 8 ulps of
        max(1, |z|) (STEP_ULPS): z is the double nearest a root that no
        double reaches.  This happens where P changes by a large relative
        amount within one ulp, as at the mass point z = 1 of constant
        families with |alpha + 1/2| > 1/2, whose residuals there stay
        between 1e-3 and 1.
    """

    roots: np.ndarray
    residuals: np.ndarray


def _residual(p, scale) -> np.ndarray:
    return np.divide(np.abs(p), scale, out=np.zeros(scale.shape), where=scale > 0)


def _newton_step(p, dp) -> np.ndarray:
    return np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)


def _comrade(basis: OpucBasis, eta: np.ndarray) -> np.ndarray:
    """The n x n matrix whose eigenvalues are the zeros of sum eta_k phi_k.

    Column l of the GGT matrix G holds z phi_l in the basis phi_0..phi_n:
    G[k, l] = -conj(alpha_l) alpha_{k-1} rho_k ... rho_{l-1} for k <= l
    (alpha_{-1} = -1) and G[l+1, l] = rho_l = sqrt(1 - |alpha_l|^2)
    (Simon, OPUC Vol. 1, 4.1).  Modulo P, phi_n = -sum_{k<n} eta_k phi_k /
    eta_n, which changes the last column by -rho_{n-1} eta[:n] / eta[n].
    The matrix is returned index-reversed and transposed, the layout of
    np.roots' companion matrix, which it equals for alpha = 0.
    """
    a = basis.alphas
    n = a.size
    rho = np.sqrt(1.0 - np.abs(a) ** 2)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    runs = np.cumprod(np.where(upper, np.concatenate(([1.0], rho[:-1])), 1.0), axis=1)
    prev = np.concatenate(([-1.0], a[:-1]))
    m = np.triu(-np.outer(prev, np.conj(a)) * runs)
    m[np.arange(1, n), np.arange(n - 1)] = rho[:-1]
    m[:, -1] -= rho[-1] * eta[:-1] / eta[-1]
    return m[::-1, ::-1].T


def roots(basis: OpucBasis, eta) -> ZeroSet:
    """All basis.order roots of sum eta_k phi_k, certified against eta.

    Every eigenvalue is certified first; only those above the residual
    bound get Newton steps, at most NEWTON_STEPS, each kept only if it
    lowers the residual.  A root that meets neither ground of ZeroSet is
    refused (NoConvergence) instead of returned doubtful.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    if eta.size != basis.order + 1:
        raise UsageError(f"{eta.size} coefficients for a degree-{basis.order} basis")
    if basis.order == 0:
        return ZeroSet(np.zeros(0, dtype=np.complex128), np.zeros(0))
    if abs(eta[-1]) <= DEGENERATE_LEAD:
        raise DegenerateLeadingCoefficient(
            f"|leading coefficient| = {abs(eta[-1]):.3e}")
    try:
        rts = np.linalg.eigvals(_comrade(basis, eta))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"comrade eigenvalues failed: {exc}") from None
    res = _residual(*eval_poly(basis, eta, rts))
    bad = ~(res <= RESIDUAL_SCALE)  # a non-finite residual is bad too
    if np.any(bad):
        z = rts[bad]
        p, dp, scale = eval_poly(basis, eta, z, derivs=True)
        r, step = _residual(p, scale), _newton_step(p, dp)
        for _ in range(NEWTON_STEPS):
            cand = z - step
            p, dp, scale = eval_poly(basis, eta, cand, derivs=True)
            cres = _residual(p, scale)
            better = cres < r  # a non-finite candidate never wins
            z = np.where(better, cand, z)
            r = np.where(better, cres, r)
            step = np.where(better, _newton_step(p, dp), step)
        tiny = np.abs(step) <= STEP_ULPS * np.spacing(np.maximum(1.0, np.abs(z)))
        if not np.all((r <= RESIDUAL_SCALE) | tiny):
            worst = float(np.max(np.where(tiny, 0.0, r)))
            raise NoConvergence(f"residual {worst:.3e} above {RESIDUAL_SCALE:.0e}"
                                " and Newton correction above "
                                f"{STEP_ULPS} ulps")
        rts[bad] = z
        res[bad] = r
    return ZeroSet(rts, res)


def count_in_region(zs: ZeroSet, region: Region) -> int:
    return int(np.count_nonzero(region.contains(zs.roots)))


def _panel_integrals(basis: OpucBasis, eta: np.ndarray, g, dg, a, b):
    h = (b - a)[:, None]
    t = a[:, None] + h * (0.5 * (_GL_NODES[None, :] + 1.0))
    val, dval, _ = eval_poly(basis, eta, g(t), derivs=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = dval / val * dg(t) * (0.5 * h) * _GL_WEIGHTS[None, :]
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def _arc_integral(basis: OpucBasis, eta: np.ndarray, g, dg):
    # breadth-first local refinement: a panel is accepted once splitting it
    # stops moving its estimate, so a pole at distance d from the arc costs
    # log(1/d) subdivisions instead of the 1/d a uniform grid would need.
    # The acceptance floor scales with the panel's absolute-value mass;
    # without it, roundoff in high-degree integrands (|terms| >> |sum|)
    # would keep panels churning forever.
    a = np.linspace(0.0, 1.0, 9)[:-1]
    b = a + 0.125
    whole, _ = _panel_integrals(basis, eta, g, dg, a, b)
    total = 0.0 + 0.0j
    for _ in range(_MAX_DEPTH):
        mid = 0.5 * (a + b)
        left, scale_l = _panel_integrals(basis, eta, g, dg, a, mid)
        right, scale_r = _panel_integrals(basis, eta, g, dg, mid, b)
        err = np.abs(whole - (left + right))
        done = err < np.maximum(_PANEL_TOL, 1e-13 * (scale_l + scale_r))
        total += np.sum(left[done]) + np.sum(right[done])
        if np.all(done):
            return complex(total), True
        keep = ~done
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    # leftover panels never stabilized: a zero sits on (or within roundoff
    # reach of) the contour
    return complex(total + np.sum(whole)), False


def count_by_argument_principle(basis: OpucBasis, eta, region: Region) -> int:
    """Winding of sum eta_k phi_k around the region boundary; refuses
    non-integer results.

    Each smooth arc is integrated by locally adaptive composite
    Gauss-Legendre panels.  A result farther than 0.1 from an integer, or
    panels that never stabilize, raise BoundaryProximity -- the signal that
    a zero sits essentially on the boundary.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    if abs(eta[-1]) <= DEGENERATE_LEAD:
        raise DegenerateLeadingCoefficient(
            f"|leading coefficient| = {abs(eta[-1]):.3e}")
    total = 0.0 + 0.0j
    settled = True
    for g, dg in region.boundary_arcs():
        part, ok = _arc_integral(basis, eta, g, dg)
        total += part
        settled = settled and ok
    w = total / (2j * math.pi)
    if not settled or not np.isfinite(w) \
            or abs(w - round(w.real)) > INTEGER_SLACK:
        raise BoundaryProximity(
            f"contour count {w} did not settle near an integer")
    return int(round(w.real))
