"""Orthonormal polynomials on the unit circle.

A basis is generated from its recurrence coefficients (alpha_0, alpha_1, ...),
each of modulus < 1, by the forward recursion

    phi_{j+1}(z) = (z phi_j(z) - conj(alpha_j) phi_j*(z)) / sqrt(1 - |alpha_j|^2)
    phi_{j+1}*(z) = (phi_j*(z) - alpha_j z phi_j(z)) / sqrt(1 - |alpha_j|^2)

starting from phi_0 = phi_0* = 1, where phi_j* is the degree-j reversal of
phi_j.  The leading coefficient of phi_k is

    kappa_k = prod_{j<k} (1 - |alpha_j|^2)^(-1/2),

a nondecreasing sequence with kappa_0 = 1.  A basis is held only as its
coefficients: the recursion is run on values at the points where they are
needed, never on monomial coefficients, which for constant families reach
1e21 by degree 100 and lose every digit to cancellation.  Bases can also be
produced from a weight on [0, 2pi): trigonometric moments are computed by
Gauss-Jacobi panel quadrature and the coefficients are read off a
Levinson-style recursion on the monic polynomials.  alpha identically zero
reproduces the monomials z^k.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InsufficientCoefficients,
    InvalidVerblunsky,
    NotPositiveDefinite,
    QuadratureNotConverged,
    UsageError,
)

LEVINSON_PIVOT_FLOOR = 1e-13
MOMENT_TOL = 1e-10
MOMENT_PANEL_PHASE = 16.0
MOMENT_RULES = (16, 24)  # Gauss points a panel: the moments, then their check

# fixed probe ring |z| = 1/2 used by the regularity report
_PROBES = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
_GATHER_TERMS = 2 ** 15  # entries per gathered block of degrees: 512 KB complex


def finite_point(z) -> complex:
    """z as a complex number; a NaN or infinite part raises UsageError."""
    if not cmath.isfinite(z := complex(z)):
        raise UsageError(f"point must be finite, got {z}")
    return z


def gather_degrees(table: np.ndarray, at: np.ndarray):
    """table[j].take(at) for each degree j = 0, 1, ... in turn.

    table holds one row per degree; the rows are gathered a block of
    degrees at a time, by one take per block of at most _GATHER_TERMS
    entries (512 KB complex), not by one take per degree.  The values are
    the entries of table themselves, so the block size changes no bit.
    """
    step = max(1, _GATHER_TERMS // max(1, at.size))
    for lo in range(0, table.shape[0], step):
        yield from table[lo:lo + step].take(at, axis=1)


def _check_alphas(alphas) -> np.ndarray:
    """alphas as complex, refused unless each has modulus < 1 (NaN has no
    modulus, and is refused too)."""
    a = np.atleast_1d(np.asarray(alphas, dtype=np.complex128))
    bad = ~(np.abs(a) < 1.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise InvalidVerblunsky(f"|alpha_{j}| = {abs(a[j]):.6g} is not < 1")
    return a


@dataclass
class OpucBasis:
    """Orthonormal basis phi_0..phi_n, held as its recurrence coefficients
    alpha_0..alpha_{n-1}, refused (InvalidVerblunsky) unless each has
    modulus < 1, however the basis is built.

    The step factors depend on the coefficients alone, so they are computed
    once, here, with one rounding, and every evaluator reads them:
    rho_j = sqrt(1 - |alpha_j|^2) (rho), conj(alpha_j) (alpha_bar), and
    the Python triples (alpha_j, conj(alpha_j), 1 / rho_j) (steps) that
    values_at, derivs_at and eval_poly walk.  The leading coefficients come
    from them too: kappa_0 = 1 and kappa_{j+1} = kappa_j / rho_j.
    """

    alphas: np.ndarray
    rho: np.ndarray = field(init=False, repr=False, compare=False)
    alpha_bar: np.ndarray = field(init=False, repr=False, compare=False)
    steps: list = field(init=False, repr=False, compare=False)
    kappas: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        a = self.alphas = _check_alphas(self.alphas)
        self.rho = np.sqrt(1.0 - np.abs(a) ** 2)
        self.alpha_bar = a.conj()
        self.steps = list(zip(a.tolist(), self.alpha_bar.tolist(),
                              (1.0 / self.rho).tolist()))
        self.kappas = np.divide.accumulate(np.concatenate(([1.0], self.rho)))

    @property
    def order(self) -> int:
        return self.alphas.size

    def values_at(self, z: complex, upto: int = None, derivs: bool = False):
        """phi_j(z) and phi_j*(z) for j = 0..upto, by recursion in value space.

        O(upto) and stable; each step multiplies by the basis's 1 / rho_j.
        Returns (phi, phi*) or, with derivs, (phi, phi*, phi', phi*').  A
        point with a NaN or infinite part raises UsageError.
        """
        m = self.order if upto is None else upto
        if m < 0 or m > self.order:
            raise UsageError(f"degree {m} not held by a degree-{self.order} basis")
        z = finite_point(z)
        # Python scalars: numpy scalar arithmetic would dominate the loop
        f = g = 1 + 0j
        df = dg = 0j
        phi, ps, dphi, dps = [f], [g], [df], [dg]
        for aj, caj, s in self.steps[:m]:
            if derivs:
                d = f + z * df
                df, dg = (d - caj * dg) * s, (dg - aj * d) * s
                dphi.append(df)
                dps.append(dg)
            f, g = (z * f - caj * g) * s, (g - aj * z * f) * s
            phi.append(f)
            ps.append(g)
        vals = (phi, ps, dphi, dps) if derivs else (phi, ps)
        return tuple(np.array(v, dtype=np.complex128) for v in vals)

    def derivs_at(self, z: complex, upto: int, columns: bool = False):
        """phi, phi*, phi' and phi*' at degree upto alone, at a finite z.

        values_at's recursion with its expressions in the same order, so
        every value has its bits, but only the running values are kept.
        With columns, returns instead the lists phi_j(z) and phi_j'(z) for
        j = 0..upto: the columns the intensities read.
        """
        if upto < 0 or upto > self.order:
            raise UsageError(f"degree {upto} not held by a degree-{self.order} basis")
        f = g = 1 + 0j
        df = dg = 0j
        phi, dphi = [f], [df]
        for aj, caj, s in self.steps[:upto]:
            d = f + z * df
            df, dg = (d - caj * dg) * s, (dg - aj * d) * s
            f, g = (z * f - caj * g) * s, (g - aj * z * f) * s
            if columns:
                phi.append(f)
                dphi.append(df)
        return (phi, dphi) if columns else (f, g, df, dg)


def szego_build(alphas, n: int) -> OpucBasis:
    """Run the forward recursion up to degree n.

    Needs at least n coefficients; extras are ignored.  With all-zero
    coefficients the result is exactly the monomial basis.
    """
    a = _check_alphas(alphas)
    if n < 0:
        raise UsageError("degree must be >= 0")
    if a.size < n:
        raise InsufficientCoefficients(f"need {n} coefficients, got {a.size}")
    return OpucBasis(a[:n])


def eval_poly(basis: OpucBasis, eta, z, derivs: bool = False, rows=None,
              scale: bool = True):
    """P = sum_k eta_k phi_k at every point of z, by the value recursion.

    Returns (P, scale) or, with derivs, (P, P', scale), where
    scale = sum_k |eta_k| |phi_k(z)|, so |P| / scale is the backward error
    of z as a root relative to eta; with scale=False it is not computed and
    comes back as None.  Where |z| > 1 the recursion carries phi_j / z^j and
    phi_j* / z^j instead, and all three results come back divided by z^n
    (the scale by |z|^n): the ratios P/P' and |P|/scale are unchanged, and
    nothing overflows however large |z| is.  Points are not checked, as
    values_at's are: a NaN point gives NaN results, which _aberth reads as
    a failed row.

    eta is one coefficient vector for every point, or a block of them,
    shape (T, n+1), with rows an integer array naming the row of each
    point.  rows broadcasts against z, and the results take the broadcast
    shape.  Shaped like z, rows gathers each point's coefficients from its
    own row.  Shaped (T, 1) against points z of shape (m,), it evaluates
    every row at the same m points, shape (T, m), and phi_j, phi_j* are
    recursed once on the m points, not once per row; against z of shape
    (T, m), each row's own m points, each degree reading T coefficients
    rather than T m.  A point's arithmetic is the same whichever way it is
    asked for.

    phi and phi*, each with its derivative, step together in one stacked
    array, flat over the points: a degree step is a fixed handful of ufunc
    calls on same-shape buffers bound once per call, with the multipliers
    (zw, w) of the state and the w of (P, P') laid out once at the shapes
    they multiply.  A block's coefficients and their moduli are gathered a
    block of degrees at a time (gather_degrees), each gathered block at
    most 512 KB.  Each step reads the basis's conj(alpha_j) and 1 / rho_j,
    and multiplies the float view by 1 / rho_j, which gives the bits of
    numpy's division by rho_j.  Every point still gets the operations of
    the plain two-array recursion, in the same order and with the same
    operand order, so the values are bit-identical to it.  No complex
    product is taken in place, or against an operand of fewer dimensions:
    numpy 2.x gives either other bits where the product has one element,
    so a point alone would differ from the same point in an array.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    if eta.shape[-1] != basis.order + 1 or eta.ndim != (1 if rows is None else 2):
        raise UsageError(f"coefficients of shape {eta.shape} for a "
                         f"degree-{basis.order} basis")
    if rows is None:
        shape = z.shape
        coefs = iter(eta.tolist())
        sizes = iter(np.abs(eta).tolist()) if scale else None
    else:
        rows = np.asarray(rows)
        shape = np.broadcast_shapes(z.shape, rows.shape)
        z = z.reshape((1,) * (len(shape) - z.ndim) + z.shape)
        # gathered at the ndim of the state they multiply: a one-element
        # product against fewer dimensions gets other bits (see above)
        coefs = gather_degrees(np.ascontiguousarray(eta.T), rows.reshape(
            (1,) * (len(shape) + 1 - rows.ndim) + rows.shape))
        if scale:
            sizes = gather_degrees(np.ascontiguousarray(np.abs(eta).T), rows)
    out = np.abs(z) > 1.0
    w = np.divide(1.0, z, out=np.ones_like(z), where=out)  # 1 inside, 1/z outside
    zw = np.where(out, 1.0, z)
    # fg[0] = (phi_j, phi_j') w^j and fg[1] = (phi_j*, phi_j*') w^j, each a
    # stacked (value, derivative) pair, flat over the points of z, and mul
    # their multipliers (zw, w); p = (P, P') so far and q the step's new
    # term, at every point of the result, and wp the w that steps p
    k = 2 if derivs else 1
    fg = np.zeros((2, k, z.size), dtype=np.complex128)
    fg[:, 0] = 1.0
    fv, f0 = fg.view(np.float64), fg[0, 0]
    f = fg[0].reshape((k,) + z.shape)
    mul = np.broadcast_to(np.stack((zw, w)).reshape(2, 1, -1), fg.shape).copy()
    x, y = np.empty_like(fg), np.empty_like(fg)
    xr = x[::-1]
    if derivs:
        wf, x01, y00 = w.reshape(-1), x[0, 1], y[0, 0]
    p = np.zeros((k,) + shape, dtype=np.complex128)
    q, r = np.empty_like(p), np.empty_like(p)
    wp = np.broadcast_to(w, p.shape).copy()
    p[:1] = next(coefs)
    total = None
    if scale:
        aw = np.broadcast_to(np.abs(w), shape).copy()
        total = np.full(shape, next(sizes))
        size, term = np.empty(z.shape), np.empty(shape)
        fsize = size.reshape(-1)
    a = basis.alphas
    # each step's (conj alpha_j, alpha_j), shaped to broadcast against fg
    pairs = np.stack((basis.alpha_bar, a), axis=1).reshape(a.shape + (2, 1, 1))
    for pair, (_, _, s), ej in zip(pairs, basis.steps, coefs):
        np.multiply(mul, fg, out=x)  # (zw f, w g)
        if derivs:
            np.multiply(wf, f0, out=y00)
            np.add(x01, y00, out=x01)  # zw phi' + w phi
        np.multiply(pair, xr, out=y)  # (conj(alpha) w g, alpha zw f)
        np.subtract(x, y, out=fg)
        fv *= s
        np.multiply(ej, f, out=q)
        np.multiply(wp, p, out=r)
        np.add(r, q, out=p)
        if scale:
            np.abs(f0, out=fsize)
            np.multiply(size, next(sizes), out=term)
            np.multiply(aw, total, out=total)
            total += term
    if derivs:
        return p[0], p[1], total
    return p[0], total


@dataclass
class RegularityReport:
    """Per-degree diagnostics for k = 1..n.

    epsilons[k-1] = log(kappa_k)/k; the sequence tending to 0 is the
    regularity proxy.  nevai_proxy[k-1] = max |phi_k/phi_k*| over a fixed
    probe ring at |z| = 1/2; tending to 0 signals the ratio-asymptotics
    regime that the limiting intensity formulas rely on.
    """

    epsilons: np.ndarray
    nevai_proxy: np.ndarray


def regularity_report(basis: OpucBasis) -> RegularityReport:
    n = basis.order
    if n < 1:
        raise UsageError("report needs a basis of degree >= 1")
    eps = np.array([math.log(basis.kappas[k]) / k for k in range(1, n + 1)])
    phi, ps = np.array([basis.values_at(z) for z in _PROBES]).transpose(1, 0, 2)
    prox = np.max(np.abs(phi[:, 1:] / ps[:, 1:]), axis=0)
    return RegularityReport(eps, prox)


# ---------------------------------------------------------------------------
# weights, moments, and the inverse problem
# ---------------------------------------------------------------------------


@dataclass
class WeightSpec:
    """A nonnegative weight on [0, 2pi), known up to normalization.

    kinds: "lebesgue" (constant), "cosine_bump" ((1 + cos theta)/(2 pi)),
    "generalized_jacobi" (prod |theta - theta_j|^e_j, with the angle
    difference taken literally on [0, 2pi)).  A constant factor would
    cancel in the normalization c_0 = 1 of the moments.
    """

    kind: str
    thetas: np.ndarray = field(default_factory=lambda: np.zeros(0))
    exponents: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @staticmethod
    def lebesgue() -> "WeightSpec":
        return WeightSpec("lebesgue")

    @staticmethod
    def cosine_bump() -> "WeightSpec":
        return WeightSpec("cosine_bump")

    @staticmethod
    def generalized_jacobi(thetas, exponents) -> "WeightSpec":
        t = np.atleast_1d(np.asarray(thetas, dtype=float))
        e = np.atleast_1d(np.asarray(exponents, dtype=float))
        if t.shape != e.shape:
            raise UsageError("thetas and exponents must pair up")
        if not np.all((e > 0) & (e < np.inf)):
            raise UsageError("jacobi exponents must be positive and finite")
        if not np.all((t >= 0) & (t < 2 * np.pi)):
            raise UsageError("jacobi angles must lie in [0, 2pi)")
        return WeightSpec("generalized_jacobi", t, e)

    def evaluate(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        if self.kind == "lebesgue":
            return np.full(th.shape, 1.0 / (2 * np.pi))
        if self.kind == "cosine_bump":
            return (1.0 + np.cos(th)) / (2 * np.pi)
        if self.kind == "generalized_jacobi":
            w = np.ones(th.shape)
            for t0, e0 in zip(self.thetas, self.exponents):
                w = w * np.abs(th - t0) ** e0
            return w
        raise UsageError(f"unknown weight kind {self.kind!r}")


@functools.lru_cache(maxsize=64)
def gauss_jacobi(q: int, a: float = 0.0, b: float = 0.0):
    """Nodes and weights, read-only and cached, of the q-point Gauss rule
    for (1 - x)^a (1 + x)^b on [-1, 1]: exact to degree 2q - 1.

    Golub & Welsch: the nodes are the eigenvalues of the weight's Jacobi
    matrix, taken one Newton step further (p_q' by Christoffel-Darboux);
    each weight is the Christoffel number 1 / sum_{k<q} p_k(x)^2 of the
    orthonormal p_k at its node, scaled to the mass 2^(a+b+1) B(a+1, b+1).
    """
    if q < 1 or not (-1.0 < a < math.inf and -1.0 < b < math.inf):
        raise UsageError(f"no {q}-point Gauss-Jacobi rule for a={a}, b={b}")
    if a > b:  # the mirror image of the rule for (b, a)
        x, w = gauss_jacobi(q, b, a)
        return _read_only(-x[::-1], w[::-1])
    s, m = 2.0 * np.arange(q) + a + b, np.arange(1.0, q + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at k = 0
        diag = (b * b - a * a) / (s * (s + 2.0))
        off = np.sqrt(4.0 * m * (m + a) * (m + b) * (m + a + b)
                      / ((s + 2.0) ** 2 * (s + 3.0) * (s + 1.0)))
    diag[0] = (b - a) / (a + b + 2.0)
    off[0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b)
                       / ((a + b + 2.0) ** 2 * (a + b + 3.0)))
    steps = list(zip(diag.tolist(), off.tolist(), [0.0] + off[:-1].tolist()))

    def recur(x):  # p_{q-1}(x), p_q(x) and sum_{k<q} p_k(x)^2, with p_0 = 1
        prev, cur, total = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
        for d, o, o_prev in steps:
            total += cur * cur
            prev, cur = cur, ((x - d) * cur - o_prev * prev) / o
        return prev, cur, total

    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1), UPLO="U")
    prev, cur, total = recur(x)
    x = x - cur * off[-1] * prev / total
    if a == b:
        x = 0.5 * (x - x[::-1])
    w = 1.0 / recur(x)[2]
    if a == b:
        w = 0.5 * (w + w[::-1])
    mass = 2.0 ** (a + b + 1.0) * math.exp(
        math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    return _read_only(x, w * (mass / w.sum()))


def _read_only(*arrays) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def moments_from_weight(w: WeightSpec, count: int) -> np.ndarray:
    """Trigonometric moments c_k = int exp(-ik theta) w(theta) dtheta, k=0..count.

    Normalized so c_0 = 1.  [0, 2 pi) is cut at the weight's angles into
    pieces, and each piece into equal panels on which exp(-ik theta),
    k <= count, turns by at most MOMENT_PANEL_PHASE radians.  A panel that
    ends at an angle theta_j takes the Gauss-Jacobi rule for the power
    |theta - theta_j|^e_j there, so any e_j > 0 is integrated exactly; the
    others take Gauss-Legendre.  An end panel longer than its distance to
    the next angle beyond its end (angles closer than a panel) is split
    geometrically toward that end until no piece of it is; pieces with no
    such angle keep their equal panels.  The moments of the two rule sizes
    in MOMENT_RULES must agree within MOMENT_TOL, or QuadratureNotConverged
    is raised.
    """
    if count < 0:
        raise UsageError("count must be >= 0")
    # sorted(set()): np.unique would import numpy.ma
    cuts = sorted({0.0, 2 * np.pi, *w.thetas.tolist()})
    ends = [float(w.exponents[w.thetas == c].sum()) for c in cuts]

    def panels(centres, half, lo, hi, a, b):
        # each rule's sum over the panels centres +- half, the power
        # (hi - theta)^a (theta - lo)^b taken into the rule
        outer = _phases(centres, count)
        for q in MOMENT_RULES:
            x, g = gauss_jacobi(q, a, b)
            th = centres[:, None] + half * x
            f = w.evaluate(th) / ((hi - th) ** a * (th - lo) ** b)
            # a real matrix times the complex one's interleaved float view,
            # by einsum's loops: a BLAS product of this size, left at its
            # default thread count, costs more than it saves
            local = _phases(half * x, count).view(np.float64)
            inner = np.einsum("pm,mk->pk", f * (g * half ** (1.0 + a + b)),
                              local).view(np.complex128)
            yield np.sum(outer * inner, axis=0)

    def toward(end, sign, centre, half, gap, e):
        # the end panel about centre, split geometrically toward `end` until
        # no piece is longer than gap, its distance to the next angle beyond
        # end; the piece at end takes end's exponent e: (centres, half, a, b)
        while 2.0 * half > gap:
            half *= 0.5
            yield np.array([end + sign * 3.0 * half]), half, 0.0, 0.0
            centre = np.array([end + sign * half])
        yield (centre, half, 0.0, e) if sign > 0 else (centre, half, e, 0.0)

    c = np.zeros((len(MOMENT_RULES), count + 1), dtype=np.complex128)
    for i, (lo, hi, b, a) in enumerate(zip(cuts[:-1], cuts[1:], ends[:-1], ends[1:])):
        n = math.ceil((hi - lo) * (count + 1) / MOMENT_PANEL_PHASE)
        below = lo - cuts[i - 1] if i > 0 and ends[i - 1] > 0 else math.inf
        above = cuts[i + 2] - hi if i + 2 < len(cuts) and ends[i + 2] > 0 else math.inf
        # a lone panel with a close angle beyond an end becomes two, so
        # that each end panel is split toward its own end
        n = max(n, 2) if hi - lo > min(below, above) else n
        half = (hi - lo) / (2 * n)
        centres = lo + half * np.arange(1, 2 * n, 2)
        groups = [(centres, half, a, b)] if n == 1 else [
            *toward(lo, 1.0, centres[:1], half, below, b),
            (centres[1:-1], half, 0.0, 0.0),
            *toward(hi, -1.0, centres[-1:], half, above, a)]
        for cs, hf, ea, eb in groups:
            c += list(panels(cs, hf, lo, hi, ea, eb))
    coarse, fine = c / c[:, :1].real
    if not np.max(np.abs(fine - coarse)) < MOMENT_TOL:
        raise QuadratureNotConverged(
            f"{MOMENT_RULES[0]}- and {MOMENT_RULES[1]}-point panel rules "
            f"differ by {np.max(np.abs(fine - coarse)):.3g} in the moments")
    return fine


def _phases(t, count: int) -> np.ndarray:
    """exp(-i k t), k = 0..count, one row per t: products of two of about
    sqrt(count) exponentials a row, each within a few ulps."""
    big = math.isqrt(count) + 1
    hi = np.exp(-1j * np.outer(t, big * np.arange(count // big + 1)))
    lo = np.exp(-1j * np.outer(t, np.arange(big)))
    prod = hi[:, :, None] * lo[:, None, :]
    return prod.reshape(t.size, hi.shape[1] * big)[:, :count + 1]


def levinson_verblunsky(moments) -> np.ndarray:
    """Recurrence coefficients from trigonometric moments c_0..c_m.

    Runs the monic recursion Phi_{k+1} = z Phi_k - conj(alpha_k) Phi_k*,
    reading each alpha_k off the orthogonality condition
    conj(alpha_k) = <z Phi_k, 1> / ||Phi_k||^2 and each squared norm off the
    pivot update E_{k+1} = (1 - |alpha_k|^2) E_k.  A pivot at or below 1e-13
    means the moment matrix is numerically not positive definite.
    """
    c = np.atleast_1d(np.asarray(moments, dtype=np.complex128))
    if not np.all(np.isfinite(c)):
        raise UsageError("moments must be finite")
    if c.size < 2:
        return np.zeros(0, dtype=np.complex128)
    if abs(c[0].imag) > 1e-12 or c[0].real <= 0:
        raise NotPositiveDefinite("zeroth moment must be real positive")
    mu = np.conj(c)  # mu_m = int exp(+im theta) dmu
    nalpha = c.size - 1
    phi = np.ones(1, dtype=np.complex128)      # monic Phi_k, ascending
    phistar = np.ones(1, dtype=np.complex128)
    energy = c[0].real
    alphas = np.empty(nalpha, dtype=np.complex128)
    for k in range(nalpha):
        # <z Phi_k, 1> = sum_j Phi_k[j] mu_{j+1}
        num = np.dot(phi, mu[1 : k + 2])
        alphas[k] = np.conj(num) / energy
        nxt = np.zeros(k + 2, dtype=np.complex128)
        nxt[1:] = phi
        nxt[: k + 1] -= np.conj(alphas[k]) * phistar
        phi = nxt
        phistar = np.conj(phi[::-1])
        energy *= 1.0 - abs(alphas[k]) ** 2
        if energy <= LEVINSON_PIVOT_FLOOR:
            raise NotPositiveDefinite(
                f"pivot {energy:.3e} at step {k} is at or below {LEVINSON_PIVOT_FLOOR}")
    return alphas


# ---------------------------------------------------------------------------
# named coefficient families
# ---------------------------------------------------------------------------


def read_alpha_file(path: str) -> np.ndarray:
    """Read coefficients from text: one "re im" pair per line, '#' comments."""
    out = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read coefficient file {path}: "
                         f"{exc.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 2:
                raise UsageError(f"{path}:{lineno}: expected 're im', got {text!r}")
            try:
                out.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise UsageError(f"{path}:{lineno}: not numeric: {text!r}") from None
    return _check_alphas(np.asarray(out, dtype=np.complex128))


@dataclass
class AlphaFamily:
    """A named generator of recurrence coefficients.

    alphas(count) returns the first `count` coefficients, generated anew on
    each call; a weight family's alphas(n) is not a prefix of alphas(m).
    """

    name: str
    _gen: Callable[[int], np.ndarray]

    def alphas(self, count: int) -> np.ndarray:
        if count < 0:
            raise UsageError("count must be >= 0")
        return np.asarray(self._gen(count), dtype=np.complex128)[:count]

    def build(self, n: int) -> OpucBasis:
        return szego_build(self.alphas(n), n)


def parse_scalar(token: str, what: str) -> float:
    """Finite float literal, or a multiple of pi (or π) written <c>pi or
    [+-]pi/<d>: pi, -pi, 2pi, -0.5pi, pi/2, -pi/2; nan and inf are
    refused."""
    head, pi, tail = token.strip().lower().replace("π", "pi").partition("pi")
    bare = head in ("", "+", "-")  # no number before pi, at most a sign
    try:
        if not pi:
            x = float(head)
        elif bare and tail.startswith("/"):
            x = float(head + "1") * math.pi / float(tail[1:])
        elif not tail:
            x = float(head + "1" if bare else head) * math.pi
        else:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what}: not a number: {token!r}") from None
    if not math.isfinite(x):
        raise UsageError(f"{what}: not a finite number: {token!r}")
    return x


def alpha_family(spec: str) -> AlphaFamily:
    """Parse a coefficient family name.

    Grammar: zero | constant:<a> | decay:<c>:<p> | file:<path> |
    weight:lebesgue | weight:cosine |
    weight:jacobi:<theta1>:<exponent1>[:<theta2>:<exponent2>...].
    decay:c:p generates alpha_j = c / (j + 2)^p; weight:jacobi takes the
    weight prod_j |theta - theta_j|^exponent_j, one pair per angle.
    """
    parts = spec.strip().split(":")
    head = parts[0]
    if head == "zero" and len(parts) == 1:
        return AlphaFamily("zero", lambda n: np.zeros(n, dtype=np.complex128))
    if head == "constant" and len(parts) == 2:
        a = parse_scalar(parts[1], "constant level")
        if abs(a) >= 1:
            raise InvalidVerblunsky(f"constant level {a} has modulus >= 1")
        return AlphaFamily(f"constant:{parts[1]}",
                           lambda n: np.full(n, a, dtype=np.complex128))
    if head == "decay" and len(parts) == 3:
        cc = parse_scalar(parts[1], "decay scale")
        pp = parse_scalar(parts[2], "decay power")
        if pp <= 0:
            raise UsageError("decay power must be positive")

        def gen(n, cc=cc, pp=pp):
            j = np.arange(n, dtype=float)
            a = cc / (j + 2.0) ** pp
            return _check_alphas(a)

        return AlphaFamily(f"decay:{parts[1]}:{parts[2]}", gen)
    if head == "file" and len(parts) >= 2:
        path = spec.split(":", 1)[1]

        def gen(n, path=path):
            a = read_alpha_file(path)
            if a.size < n:
                raise InsufficientCoefficients(
                    f"{path} holds {a.size} coefficients, need {n}")
            return a

        return AlphaFamily(f"file:{path}", gen)
    if head == "weight" and len(parts) >= 2:
        wkind = parts[1]
        if wkind == "lebesgue" and len(parts) == 2:
            w = WeightSpec.lebesgue()
        elif wkind == "cosine" and len(parts) == 2:
            w = WeightSpec.cosine_bump()
        elif wkind == "jacobi" and len(parts) >= 4 and len(parts) % 2 == 0:
            th = [parse_scalar(x, "jacobi angle") for x in parts[2::2]]
            ex = [parse_scalar(x, "jacobi exponent") for x in parts[3::2]]
            w = WeightSpec.generalized_jacobi(th, ex)
        else:
            raise UsageError(f"unknown weight family: {spec!r}")

        def gen(n, w=w):
            return levinson_verblunsky(moments_from_weight(w, n))

        return AlphaFamily(spec.strip(), gen)
    raise UsageError(f"unknown coefficient family: {spec!r}")
