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
    alpha_0..alpha_{n-1} and the leading coefficients kappa_0..kappa_n."""

    kappas: np.ndarray
    alphas: np.ndarray

    @property
    def order(self) -> int:
        return self.alphas.size

    def values_at(self, z: complex, upto: int = None, derivs: bool = False):
        """phi_j(z) and phi_j*(z) for j = 0..upto, by recursion in value space.

        O(upto) and stable.  Returns (phi, phi*) or, with derivs,
        (phi, phi*, phi', phi*').
        """
        m = self.order if upto is None else upto
        if m < 0 or m > self.order:
            raise UsageError(f"degree {m} not held by a degree-{self.order} basis")
        z = complex(z)
        # Python scalars: numpy scalar arithmetic would dominate the loop.
        # numpy divides by a real norm as x * (1/norm), so multiplying by
        # s = 1/norm gives its values; Python's x / norm rounds differently.
        f = g = 1 + 0j
        df = dg = 0j
        phi, ps, dphi, dps = [f], [g], [df], [dg]
        for aj in self.alphas[:m].tolist():
            s = 1.0 / math.sqrt(1.0 - abs(aj) ** 2)
            caj = aj.conjugate()
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
    a = a[:n]
    kappas = [1.0]
    for aj in a:
        kappas.append(kappas[-1] / math.sqrt(1.0 - abs(aj) ** 2))
    return OpucBasis(np.asarray(kappas), a)


def eval_poly(basis: OpucBasis, eta, z, derivs: bool = False, rows=None,
              scale: bool = True):
    """P = sum_k eta_k phi_k at every point of z, by the value recursion.

    Returns (P, scale) or, with derivs, (P, P', scale), where
    scale = sum_k |eta_k| |phi_k(z)|, so |P| / scale is the backward error
    of z as a root relative to eta; with scale=False it is not computed and
    comes back as None.  Where |z| > 1 the recursion carries phi_j / z^j and
    phi_j* / z^j instead, and all three results come back divided by z^n
    (the scale by |z|^n): the ratios P/P' and |P|/scale are unchanged, and
    nothing overflows however large |z| is.

    eta is one coefficient vector for every point, or a block of them,
    shape (T, n+1), with rows an integer array naming the row of each
    point.  rows broadcasts against z, and the results take the broadcast
    shape.  Shaped like z, rows gathers each point's coefficients from its
    own row.  Shaped (T, 1) against points z of shape (m,), it evaluates
    every row at the same m points, shape (T, m), and phi_j, phi_j* are
    recursed once on the m points, not once per row.  A point's arithmetic
    is the same whichever way it is asked for.

    phi and phi*, each with its derivative, step together in one stacked
    array: a degree step is a fixed handful of ufunc calls into buffers and
    views bound once per call, and a block's coefficient columns are
    gathered into one buffer each.  Every point still gets the operations
    of the plain two-array recursion, in the same order and with the same
    operand order, so the values are bit-identical to it.
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
        ebuf = np.empty(rows.shape, dtype=np.complex128)
        coefs = (c.take(rows, out=ebuf) for c in np.ascontiguousarray(eta.T))
        if scale:
            mbuf = np.empty(rows.shape)
            sizes = (c.take(rows, out=mbuf)
                     for c in np.ascontiguousarray(np.abs(eta).T))
    out = np.abs(z) > 1.0
    w = np.divide(1.0, z, out=np.ones_like(z), where=out)  # 1 inside, 1/z outside
    zw = np.where(out, 1.0, z)
    # fg[0] = (phi_j, phi_j') w^j and fg[1] = (phi_j*, phi_j*') w^j, each a
    # stacked (value, derivative) pair, at the points of z; p = (P, P') so
    # far and q the step's new term, at every point of the result
    fg = np.zeros((2, 2 if derivs else 1) + z.shape, dtype=np.complex128)
    fg[:, 0] = 1.0
    fv, f, f0 = fg.view(np.float64), fg[0], fg[0, 0]
    x, y = np.empty_like(fg), np.empty_like(fg)
    xr = x[::-1]
    if derivs:
        x01, y00 = x[0, 1], y[0, 0]
    p = np.zeros(fg.shape[1:2] + shape, dtype=np.complex128)
    q = np.empty_like(p)
    p[0] = next(coefs)
    zw_w = np.stack((zw, w))[:, None]
    total = None
    if scale:
        aw = np.abs(w)
        total = np.full(shape, next(sizes))
        size, term = np.empty(z.shape), np.empty(shape)
    a = basis.alphas
    # each step's (conj alpha_j, alpha_j), shaped to broadcast against fg
    pairs = np.stack((a.conj(), a), axis=1).reshape(
        a.shape + (2,) + (1,) * (fg.ndim - 1))
    # x * (1/norm) on the float view: the values of numpy's x / norm, cheaper
    inv = 1.0 / np.sqrt(1.0 - np.abs(a) ** 2)
    for pair, s, ej in zip(pairs, inv.tolist(), coefs):
        np.multiply(zw_w, fg, out=x)  # (zw f, w g)
        if derivs:
            np.multiply(w, f0, out=y00)
            np.add(x01, y00, out=x01)  # zw phi' + w phi
        np.multiply(pair, xr, out=y)  # (conj(alpha) w g, alpha zw f)
        np.subtract(x, y, out=fg)
        fv *= s
        np.multiply(ej, f, out=q)
        np.multiply(w, p, out=p)
        p += q
        if scale:
            np.abs(f0, out=size)
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
        if np.any(e <= 0):
            raise UsageError("jacobi exponents must be positive")
        if np.any((t < 0) | (t >= 2 * np.pi)):
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
    if q < 1 or not (a > -1.0 and b > -1.0):
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
    others take Gauss-Legendre.  The moments of the two rule sizes in
    MOMENT_RULES must agree within MOMENT_TOL, or QuadratureNotConverged is
    raised: two angles closer than a panel, say, leave a kink inside one.
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

    c = np.zeros((len(MOMENT_RULES), count + 1), dtype=np.complex128)
    for lo, hi, b, a in zip(cuts[:-1], cuts[1:], ends[:-1], ends[1:]):
        n = math.ceil((hi - lo) * (count + 1) / MOMENT_PANEL_PHASE)
        half = (hi - lo) / (2 * n)
        centres = lo + half * np.arange(1, 2 * n, 2)
        groups = ([(centres, a, b)] if n == 1 else [(centres[:1], 0.0, b),
                  (centres[1:-1], 0.0, 0.0), (centres[-1:], a, 0.0)])
        for cs, ea, eb in groups:
            c += list(panels(cs, half, lo, hi, ea, eb))
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
    """Finite float literal, optionally using 'pi' (pi, 2pi, pi/2, 0.5pi...);
    nan and inf are refused."""
    t = token.strip().lower()
    try:
        if t in ("pi", "π"):
            x = math.pi
        elif t.endswith("pi"):
            x = float(t[:-2] or "1") * math.pi
        elif t.startswith("pi/"):
            x = math.pi / float(t[3:])
        else:
            x = float(t)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what}: not a number: {token!r}") from None
    if not math.isfinite(x):
        raise UsageError(f"{what}: not a finite number: {token!r}")
    return x


def alpha_family(spec: str) -> AlphaFamily:
    """Parse a coefficient family name.

    Grammar: zero | constant:<a> | decay:<c>:<p> | file:<path> |
    weight:lebesgue | weight:cosine | weight:jacobi:<theta>:<exponent>.
    decay:c:p generates alpha_j = c / (j + 2)^p.
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
        elif wkind == "jacobi" and len(parts) == 4:
            th = parse_scalar(parts[2], "jacobi angle")
            ex = parse_scalar(parts[3], "jacobi exponent")
            w = WeightSpec.generalized_jacobi([th], [ex])
        else:
            raise UsageError(f"unknown weight family: {spec!r}")

        def gen(n, w=w):
            return levinson_verblunsky(moments_from_weight(w, n))

        return AlphaFamily(spec.strip(), gen)
    raise UsageError(f"unknown coefficient family: {spec!r}")
