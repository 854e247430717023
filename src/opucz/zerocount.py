"""Zeros of a combination P = sum_k eta_k phi_k and how many land in a region.

Two independent counting routes, both working in the basis itself:

  * roots + count_in_region: the zeros of a whole block of combinations at
    once, by one simultaneous Aberth-Ehrlich iteration through the value
    recursion, certified by one test: each root against eta, and each row's
    root set by disjoint inclusion disks.  A row starts from the roots of
    its monomial model (FFT of circle samples, a closed-form first step
    from the circle, then Horner steps of the same iteration, each root
    leaving the model once its Newton correction is under 1e-8 and taking
    that correction as its last step), or on the unit circle where the
    model is not to be trusted; a row that this does not prove starts
    again from the eigenvalues of its comrade matrix (the GGT matrix of
    multiplication by z, changed by rank one).  Each start is first
    checked by P alone, so a start that is already a root costs no
    derivatives: most model starts are, and most blocks evaluate P' in the
    basis nowhere.  Then a point-in-region test on each root.
  * count_by_argument_principle: (1/2 pi i) times the contour integral of
    P'/P around the region boundary, by adaptive composite Gauss-Legendre
    panels on its smooth arcs: one array row per circle arc or segment,
    all evaluated by one expression, the first panels graded toward the
    points of an optional hint (mc passes the row's certified roots) that
    changes no rule, test or limit.  The result must land within 0.1 of
    an integer; drifting further, or spending the panel budget, means a
    zero sits too close to the boundary and the count is refused rather
    than guessed.

Regions are annuli s < |z| < t (s = 0 means the full disk |z| < t) and
sectors r < |z| < 1/r with alpha <= arg z < beta, arguments taken in
[0, 2 pi).  The sector's radial window is symmetric about the unit circle;
the half-open angular window makes sector counts over a partition of
[0, 2 pi) add up exactly.  A root whose inclusion disk reaches the start
ray counts as lying on it, and otherwise one whose disk reaches the end ray
counts as lying on that: an edge tie is decided by the half-open rule, not
by the sign of a roundoff.  Circular rims test the computed |z|.

Importing the module, and every trial it solves, loads numpy's core alone:
the audit's Gauss-Legendre rule is opuc.gauss_jacobi's, not
numpy.polynomial's, and the iteration marks failed rows in a boolean mask
rather than calling np.unique, which in numpy 2.x imports numpy.ma on its
first call.  No complex product that can have one element is taken in
place or against an operand of fewer dimensions: numpy 2.x gives such a
product other bits than the same product inside a longer array, and a row
alone would differ from the row in a block.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    BoundaryProximity,
    ComputationError,
    DegenerateLeadingCoefficient,
    NoConvergence,
    UsageError,
)
from .opuc import OpucBasis, eval_poly, gather_degrees, gauss_jacobi

DEGENERATE_LEAD = 1e-300
STEP_ULPS = 8
ABERTH_STEPS = 60
INTEGER_SLACK = 0.1

_EPS = np.finfo(float).eps
_GL_NODES, _GL_WEIGHTS = gauss_jacobi(12)  # the audit's panel rule on [-1, 1]
_PANEL_TOL = 1e-11
_MAX_DEPTH = 44  # panel width floor 0.125 * 2^-47 when graded, above parameter eps
# panels per contour count: settled counts of 25 <= n <= 200 spend up to
# about 950 (A(0.8, 0.95), n = 200), refusals the whole budget
_PANEL_BUDGET = 5_000
# how the contour count's first panels are graded toward a hint (see _first_panels)
_GRADE_HALVINGS = 3
_GRADE_FLOOR = 1e-3
_CHUNK_POINTS = 2 ** 15  # pairwise terms per chunk: 512 KB complex, 256 KB real
_MODEL_SPREAD = 1.0 / math.sqrt(_EPS)  # sample spread a monomial model may have
# a model root leaves the model stage once its Newton correction is at most
# this much of max(1, |z|), about half its digits, and takes that correction
# as its last step: Newton's quadratic convergence then brings it within
# about 1e-16 of the model's root, where the basis check meets most starts
_MODEL_STEP = 1e-8


@dataclass(frozen=True)
class Region:
    """annulus(s, t) or sector(r, alpha, beta); see the module docstring."""

    kind: str
    params: Tuple[float, ...]

    @staticmethod
    def annulus(s: float, t: float) -> "Region":
        if not (0 <= s < t < math.inf):
            raise UsageError(f"annulus needs 0 <= s < t < inf, got s={s}, t={t}")
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

    def contains(self, z, radius=0.0) -> np.ndarray:
        """Membership of every point of z (an array of the same shape).

        radius is the inclusion radius of each point: a sector edge ray
        within it counts as the point's argument (see the module docstring).
        """
        z = np.asarray(z, dtype=np.complex128)
        az = np.abs(z)
        if self.kind == "annulus":
            s, t = self.params
            return (s < az) & (az < t) if s > 0 else az < t
        r, alpha, beta = self.params
        ang = np.arctan2(z.imag, z.real) % (2 * math.pi)
        ang = np.where(ang < 2 * math.pi, ang, 0.0)  # a -tiny arg rounds up to 2 pi
        ang = np.where(_ray_distance(z, alpha) <= radius, alpha,
                       np.where(_ray_distance(z, beta) <= radius, beta, ang))
        return (r < az) & (az < 1.0 / r) & (alpha <= ang) & (ang < beta)

    def angular_fraction(self) -> Optional[float]:
        if self.kind != "sector":
            return None
        _, alpha, beta = self.params
        return (beta - alpha) / (2 * math.pi)

    def boundary_arcs(self) -> np.ndarray:
        """The positively oriented boundary, one row (c, d, rad, a0, a1) per
        smooth arc, z(t) = c + d t + rad e^{i (a0 + (a1 - a0) t)} on [0, 1]:
        c = d = 0 on a circle arc, and rad = a0 = a1 = 0 on a segment from
        c to c + d.  The rows are complex; rad, a0 and a1 are real."""
        if self.kind == "annulus":
            s, t = self.params
            rims = [(0, 0, t, 0.0, 2 * math.pi), (0, 0, s, 2 * math.pi, 0.0)]
            return np.array(rims[:1 + (s > 0)], dtype=np.complex128)
        r, alpha, beta = self.params
        ro = 1.0 / r
        ea, eb = np.exp(1j * alpha), np.exp(1j * beta)
        return np.array([(0, 0, ro, alpha, beta), (ro * eb, r * eb - ro * eb, 0, 0, 0),
                         (0, 0, r, beta, alpha), (r * ea, ro * ea - r * ea, 0, 0, 0)],
                        dtype=np.complex128)


def _ray_distance(z: np.ndarray, theta: float) -> np.ndarray:
    """Distance from every point of z to the ray arg = theta from 0."""
    u = z * np.exp(-1j * theta)
    return np.where(u.real >= 0, np.abs(u.imag), np.abs(u))


@dataclass
class ZeroSet:
    """Roots of one combination with their backward errors and radii.

    Each residual is the backward error of the root relative to eta:
    |P(z)| / sum_k |eta_k| |phi_k(z)|, the smallest relative change of the
    coefficients that makes z an exact root.  A root is certified by the
    test that stops the Aberth iteration, on one of two grounds:

      * its residual is at most 4 (n+1) eps (_roundoff), 9e-14 at n = 100; or
      * its last Newton correction |P(z)/P'(z)| is at most 8 ulps of
        max(1, |z|) (STEP_ULPS): z is the double nearest a root that no
        double reaches.  This happens where P changes by a large relative
        amount within one ulp, as at the mass point z = 1 of constant:0.5
        and every constant family with |alpha + 1/2| > 1/2.

    radii[i] is the radius of the Weierstrass inclusion disk about roots[i],
    from one real table of the distances |z_i - z_j|: the disks of the set
    are pairwise disjoint, so each holds exactly one zero.  It is 0 for a
    set whose disks overlap even from the comrade eigenvalues, as at an
    exact multiple zero: every root is certified, but no disk is proven.
    """

    roots: np.ndarray
    residuals: np.ndarray
    radii: np.ndarray


def _residual(p, scale) -> np.ndarray:
    return np.divide(np.abs(p), scale, out=np.zeros(scale.shape), where=scale > 0)


def _tiny(step, z) -> np.ndarray:
    """Whether a correction is at most STEP_ULPS ulps of max(1, |z|)."""
    return np.abs(step) <= STEP_ULPS * np.spacing(np.maximum(1.0, np.abs(z)))


def _roundoff(n: int, scale) -> np.ndarray:
    """First-order bound on the rounding error of P as eval_poly computes it:
    about four roundings per recursion step, each of size eps * scale."""
    return 4 * (n + 1) * _EPS * scale


def _comrade(basis: OpucBasis, eta: np.ndarray) -> np.ndarray:
    """The n x n matrix whose eigenvalues are the zeros of sum eta_k phi_k.

    Column l of the GGT matrix G holds z phi_l in the basis phi_0..phi_n:
    G[k, l] = -conj(alpha_l) alpha_{k-1} rho_k ... rho_{l-1} for k <= l
    (alpha_{-1} = -1) and G[l+1, l] = rho_l, the basis's step factor
    (Simon, OPUC Vol. 1, 4.1).  Modulo P, phi_n = -sum_{k<n} eta_k phi_k /
    eta_n, which changes the last column by -rho_{n-1} eta[:n] / eta[n].
    The matrix is returned index-reversed and transposed, the layout of
    np.roots' companion matrix, which it equals for alpha = 0.
    """
    a, rho = basis.alphas, basis.rho
    n = a.size
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    runs = np.cumprod(np.where(upper, np.concatenate(([1.0], rho[:-1])), 1.0), axis=1)
    prev = np.concatenate(([-1.0], a[:-1]))
    m = np.triu(-np.outer(prev, basis.alpha_bar) * runs)
    m[np.arange(1, n), np.arange(n - 1)] = rho[:-1]
    m[:, -1] -= rho[-1] * eta[:-1] / eta[-1]
    return m[::-1, ::-1].T


def _circle(rows_n: int, n: int) -> np.ndarray:
    """Starts on the unit circle at angles 2 pi (k + 1/4) / n for each of
    rows_n rows: none real, none conjugate to another."""
    return np.tile(np.exp(2j * np.pi * (np.arange(n) + 0.25) / n), (rows_n, 1))


def _monomial_coefficients(basis: OpucBasis, etas: np.ndarray):
    """Each row's monomial coefficients c, P(z) = sum_k c_k z^k, and the
    spread max |P| / min |P| of the samples they came from.

    P is sampled at the n+1 roots of unity by one eval_poly call for the
    whole block, which runs the recursion for phi_k once on those n+1
    points and combines it with every row's eta, and turned into c by one
    FFT, so each c_k is off by about eps max |P| on the circle.  eval_poly
    returns P / z^n where a sample's |z| rounds above 1; the factor z^n
    that undoes it is computed on the n+1 points alone, since a power taken
    over a block-sized array can round differently by position.
    """
    n = basis.order
    zs = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    p, _ = eval_poly(basis, etas, zs, rows=np.arange(etas.shape[0])[:, None],
                     scale=False)
    p *= np.where(np.abs(zs) > 1.0, zs ** n, 1.0)
    mag = np.abs(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = mag.max(axis=1, initial=0.0) / mag.min(axis=1, initial=np.inf)
    return np.fft.fft(p, axis=1) / (n + 1), spread


def _horner_table(coefs: np.ndarray):
    """_horner's coefficient table and each row's sum_k |c_k|, built once
    for the model stage that evaluates the same coefficients every step.

    Row r of the table holds c_n..c_0 and row t + r holds c_0..c_n: the
    coefficients of row r's polynomial in u, highest power first.
    """
    return (np.ascontiguousarray(np.concatenate((coefs[:, ::-1], coefs)).T),
            np.abs(coefs).sum(axis=1))


def _horner(coefs: np.ndarray, z: np.ndarray, rows: np.ndarray, table):
    """P and P' of the monomial model at each point z of row `rows`, by
    Horner's rule, scaled as eval_poly scales them, and the scale
    sum_k |c_k| of the rounding bound.  table is _horner_table(coefs).

    Where |z| > 1 the rule runs on the reversed polynomial Q(w) = P(z) w^n
    in w = 1/z, and returns P / z^n = Q and P' / z^n = w (n Q - w Q'):
    nothing overflows however large |z| is.  The rule thus only ever runs
    at |u| <= 1, where sum_k |c_k| bounds the scale sum_k |c_k| |u|^k of
    its rounding; the looser bound costs no work per degree, and lets an
    approximation settle about where the model, whose coefficients are off
    by about eps max |P|, stops being more accurate anyway.

    Each point reads its coefficients from table column rows (or t + rows
    where |z| > 1), gathered a block of degrees at a time (gather_degrees):
    one take per block of at most 512 KB, not one per degree.  Each
    product goes to a second buffer, swapped in, never in place: a single
    live point would get other bits in place (see the module docstring).
    """
    t, n = coefs.shape[0], coefs.shape[1] - 1
    table, sums = table
    out = np.abs(z) > 1.0
    u = np.divide(1.0, z, out=z.copy(), where=out)  # z inside, 1/z outside
    column = gather_degrees(table, rows + t * out)
    p, dp = next(column).copy(), np.zeros_like(z)
    q = np.empty_like(z)  # each product's own buffer, swapped in
    for cj in column:
        np.multiply(dp, u, out=q)
        np.add(q, p, out=q)
        dp, q = q, dp
        np.multiply(p, u, out=q)
        np.add(q, cj, out=q)
        p, q = q, p
    return p, np.where(out, u * (n * p - u * dp), dp), sums.take(rows)


def _circle_step(coefs: np.ndarray) -> np.ndarray:
    """The first Aberth step on each row's monomial model from the circle
    start, in closed form.

    The n starts z_k = e^{2 pi i (k + 1/4) / n} are the roots of z^n - i,
    so z_k^j = tau^j e^{2 pi i jk/n} with tau = e^{i pi / (2n)}: P(z_k) is
    an inverse DFT of c_j tau^j (j < n) plus i c_n, P'(z_k) one of
    (j + 1) c_{j+1} tau^j, and the repulsion sum_{j != k} 1 / (z_k - z_j)
    is (n - 1) / (2 z_k), the value of f'' / (2 f') for f = z^n - i.  Two
    FFTs per row replace a Horner pass and a pairwise pass.  An
    approximation that the iteration would settle at the circle, by
    _horner's rounding bound, stays there; a row with a non-finite step
    comes back non-finite.
    """
    n = coefs.shape[1] - 1
    sums = np.abs(coefs).sum(axis=1, keepdims=True)
    z = _circle(1, n)[0]
    tau = np.exp(0.5j * np.pi * np.arange(n) / n)
    p = np.fft.ifft(coefs[:, :n] * tau, axis=1, norm="forward") + 1j * coefs[:, n:]
    dp = np.fft.ifft(coefs[:, 1:] * (np.arange(1, n + 1) * tau), axis=1,
                     norm="forward")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        newton = p / dp
        step = newton / (1.0 - newton * ((n - 1) / (2.0 * z)))
    stay = (np.abs(p) <= _roundoff(n, sums)) | _tiny(newton, z)
    return np.where(stay, z, z - step)


def _starts(basis: OpucBasis, etas: np.ndarray) -> np.ndarray:
    """Starting points for the Aberth iteration in the basis, one row each:
    the roots of the row's monomial model, or the unit circle.

    A row's start is the result of the same iteration run on its monomial
    model (_monomial_coefficients, evaluated by _horner) from the circle,
    whose first step is taken in closed form (_circle_step).  The block's
    samples cost one recursion for phi_k over the n+1 roots of unity, and
    the model stage builds its Horner table once for all its steps.  The
    model only proposes starts: the roots are settled and certified through
    eval_poly on eta.  A row keeps the circle start where the model is not
    to be trusted: its samples spread by more than 1/sqrt(eps), so the
    coefficients hold fewer than half their digits, or the iteration on
    the model, first step included, ended with a non-finite point.

    The model stage lets a root go once its Newton correction N on the
    model is at most _MODEL_STEP = 1e-8 of max(1, |z|), and moves it by
    that N, already computed, as its last step.  Newton's quadratic
    convergence takes such a root to within about 1e-16 of the model's
    root, the accuracy the basis check needs, at no extra evaluation: most
    starts meet the rounding bound in the basis, and most blocks take no
    step with derivatives there.  The basis stage's grounds, proof and
    rule that a settled root never moves are its own.
    """
    z = _circle(etas.shape[0], basis.order)
    coefs, spread = _monomial_coefficients(basis, etas)
    model = np.flatnonzero(spread <= _MODEL_SPREAD)  # a NaN spread fails
    cm = coefs[model]
    zm = _aberth(functools.partial(_horner, cm, table=_horner_table(cm)),
                 _circle_step(cm), finish=True)[0]
    fine = np.isfinite(zm).all(axis=1)
    z[model[fine]] = zm[fine]
    return z


def _aberth(evaluate, z0: np.ndarray, check=None, finish=False):
    """Simultaneous Aberth-Ehrlich iteration from the starts z0, one row of
    n approximations per polynomial.

    evaluate(z, rows=rows) gives P, P' and the scale of the rounding bound
    at points z of rows `rows`: eval_poly in the basis, or _horner on a
    monomial model.  Each approximation moves by
    z_i -= N_i / (1 - N_i sum_{j != i} 1 / (z_i - z_j)), N_i = P(z_i)/P'(z_i)
    (Bini, Numer. Algorithms 13, 1996).  An approximation settles, and stops
    moving, on a ground of ZeroSet: |P| within the rounding bound, or a
    Newton correction of at most STEP_ULPS ulps of max(1, |z|).  A row with
    a non-finite approximation fails and leaves the iteration: with an
    infinite start before its first evaluation, which would warn there
    (1 / inf, inf - inf), and with a NaN start at its first step.  Returns
    z, and P and the scale at each settled approximation, and which settled.

    finish=True, for the model stage of _starts alone, adds a third way to
    settle, a Newton correction N of at most _MODEL_STEP of max(1, |z|),
    and moves every settling approximation by its N as a last step; P and
    the scale returned are those before it, and an N that is not finite
    leaves the point non-finite, so _starts keeps the row's circle start.
    Without finish a settled approximation never moves, the rule the
    certificate in the basis needs.

    check(z, rows=rows), when given, gives P and the scale alone, with the
    bits evaluate gives them: every start is tested once against the
    rounding bound by it, and only the starts that fail reach evaluate, so
    starts that are already roots cost no derivatives.  It is asked for
    every row without an infinite start at once, with rows of shape
    (T, 1), so each degree reads T coefficients rather than one per start.
    The result is the same as without check.

    The repulsion sums run over chunks of the live approximations (see
    _repulsion), never over an (n x live) array: each chunk's temporaries
    hold at most 512 KB, and each sum adds its terms in j order.
    """
    z = np.array(z0, dtype=np.complex128)
    n = z.shape[1]
    p = np.zeros_like(z)
    scale = np.zeros(z.shape)
    settled = np.zeros(z.shape, dtype=bool)
    flat = z.reshape(-1)
    failed = np.isinf(z).any(axis=1)
    live = np.flatnonzero(np.repeat(~failed, n))  # flat indices of moving points
    if check is not None and live.size:
        each_row = np.flatnonzero(~failed)[:, None]
        pl, sl = (x.reshape(-1) for x in check(z[~failed], rows=each_row))
        done = np.abs(pl) <= _roundoff(n, sl)
        at = live[done]
        p.flat[at], scale.flat[at] = pl[done], sl[done]
        settled.flat[at] = True
        live = live[~done]
    for _ in range(ABERTH_STEPS):
        if not live.size:
            break
        rows, pos = np.divmod(live, n)
        zl = flat[live]
        pl, dpl, sl = evaluate(zl, rows=rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = pl / dpl
        done = (np.abs(pl) <= _roundoff(n, sl)) | _tiny(newton, zl)
        if finish:
            done |= np.abs(newton) <= _MODEL_STEP * np.maximum(1.0, np.abs(zl))
            flat[live[done]] = zl[done] - newton[done]
        at = live[done]
        p.flat[at], scale.flat[at] = pl[done], sl[done]
        settled.flat[at] = True
        move = ~done
        live, rows, pos, zl, newton = (x[move] for x in (live, rows, pos, zl, newton))
        pull = _repulsion(z, zl, rows, pos)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            znew = zl - newton / (1.0 - newton * pull)
        flat[live] = znew
        failed[rows[~np.isfinite(znew)]] = True
        live = live[~failed[rows]]
    settled[failed] = False
    return z, p, scale, settled


def _chunks(z: np.ndarray, count: int):
    """Slices of at most _CHUNK_POINTS // n = 2**15 // n consecutive points
    out of `count`, with z.T in C order: each chunk's (n, width) tables
    hold at most 512 KB complex (256 KB real), whatever n and count are."""
    width = max(1, _CHUNK_POINTS // z.shape[1])
    return np.ascontiguousarray(z.T), [slice(lo, lo + width)
                                       for lo in range(0, count, width)]


def _repulsion(z, zl, rows, pos) -> np.ndarray:
    """sum_{j != i} 1 / (z_i - z_j) for each point zl = z[rows, pos].

    A chunk of points is gathered as a C-ordered (n, width) array of its
    rows' approximations, so the reduction over axis 0 adds the terms in
    j order, as a loop over the columns j would.  A chunk of one point is
    accumulated instead, from 0 as the loop starts: numpy sums a single
    column pairwise."""
    zt, chunks = _chunks(z, zl.size)
    pull = np.empty_like(zl)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in chunks:
            d = zt.take(rows[c], axis=1)
            np.subtract(zl[c], d, out=d)
            np.divide(1.0, d, out=d)
            d[pos[c], np.arange(d.shape[1])] = 0.0  # the term j = i
            if d.shape[1] > 1:
                np.add.reduce(d, axis=0, out=pull[c], initial=0.0)
            else:
                d[0] += 0.0
                pull[c] = np.add.accumulate(d, axis=0, out=d)[-1]
            del d  # freed before the next chunk is gathered
    return pull


def _inclusion_radii(basis: OpucBasis, etas: np.ndarray, z, p, scale):
    """Weierstrass inclusion radii n |W_i| and each root's nearest neighbour.

    W_i = P(z_i) / (lead prod_{j != i} (z_i - z_j)), lead = eta_n kappa_n,
    with |P| raised by its rounding bound.  The disks D(z_i, n |W_i|) hold
    every zero, and a connected union of k of them holds k zeros, so
    pairwise disjoint disks hold one zero each.  Only moduli are read, so
    the gap and the product both come from one real table of |z_i - z_j|.
    Where |z_i| > 1, P comes scaled by z_i^-n, and so does the denominator:
    each of its n factors, lead and the distances, by w_i = 1 / |z_i|.  A
    product that over- or underflows gives an infinite radius.
    """
    n = z.shape[1]
    az = np.abs(z)
    w = np.divide(1.0, az, out=np.ones(z.shape), where=az > 1.0)
    prod = np.empty(z.shape)
    gap = np.empty(z.shape)
    rows, pos = np.divmod(np.arange(z.size), n)
    # the distances over j of a chunk of roots at a time, their product
    # taken in j order from 1 as a loop over the columns j would
    zt, chunks = _chunks(z, z.size)
    flat = [x.reshape(-1) for x in (z, w, prod, gap)]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for c in chunks:
            zi, wi, prodi, gapi = (x[c] for x in flat)
            zj = zt.take(rows[c], axis=1)
            own = pos[c], np.arange(zj.shape[1])  # the terms j = i
            d = np.abs(np.subtract(zi, zj, out=zj))
            del zj  # the real table is all that stays live
            d[own] = np.inf
            np.minimum.reduce(d, axis=0, out=gapi)
            d *= wi
            d[own] = 1.0
            np.multiply.reduce(d, axis=0, out=prodi, initial=1.0)
        den = np.abs(etas[:, -1:] * basis.kappas[-1]) * prod * w
        ok = np.isfinite(den) & (den > 0)
        num = n * (np.abs(p) + _roundoff(n, scale))
        rad = np.where(ok, num / np.where(ok, den, 1.0), np.inf)
    return rad, gap


def _settle(basis: OpucBasis, etas: np.ndarray, z0: np.ndarray):
    """The Aberth iteration through eval_poly on eta from the starts z0, and
    its certificate.

    Every start is first checked by one eval_poly call without derivatives
    (the check of _aberth): most roots of a monomial model already meet the
    rounding bound in the basis, and only the starts that do not enter the
    steps that carry P'.  Returns the roots with their residuals and
    inclusion radii, whether each root settled, which certifies it on a
    ground of ZeroSet, and whether each row is proven: every root settled
    and the row's disks pairwise disjoint.
    """
    z, p, scale, settled = _aberth(
        functools.partial(eval_poly, basis, etas, derivs=True), z0,
        check=functools.partial(eval_poly, basis, etas))
    rad, gap = _inclusion_radii(basis, etas, z, p, scale)
    # |z_i - z_j| >= gap_i > rad_i + max_k rad_k: the disks are disjoint
    proven = (settled & (gap > rad + rad.max(axis=1, keepdims=True))).all(axis=1)
    return z, _residual(p, scale), rad, settled, proven


def _coefficients(basis: OpucBasis, eta, ndims):
    """The one intake of roots and count_by_argument_principle.

    eta is refused (UsageError) unless it has one of the dimensions ndims,
    rows of basis.order + 1 entries, and only finite entries.  Returns its
    rows, each times the power of two that brings its largest real or
    imaginary part into [1/2, 1) -- exact, so the roots, residuals, radii
    and P'/P are the row's own, and no evaluation overflows -- and per row
    None or the DegenerateLeadingCoefficient that refuses it, read as given.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    if eta.ndim not in ndims or eta.shape[-1] != basis.order + 1:
        raise UsageError(f"coefficients of shape {eta.shape} for a "
                         f"degree-{basis.order} basis")
    if not np.isfinite(eta).all():
        raise UsageError("coefficients must be finite, got NaN or infinity")
    rows = eta.reshape(-1, basis.order + 1)
    refused = [DegenerateLeadingCoefficient(f"|leading coefficient| = {x:.3e}")
               if x <= DEGENERATE_LEAD else None
               for x in np.abs(rows[:, -1]).tolist()]
    v = np.ascontiguousarray(rows).view(np.float64)
    e = np.frexp(np.abs(v).max(axis=1, keepdims=True))[1]
    return np.ldexp(v, -e).view(np.complex128), refused


def _block_roots(basis: OpucBasis, etas: np.ndarray, found: list) -> list:
    """found with a ZeroSet or the error that refused it in place of each
    None, for the rows of etas that _coefficients returned."""
    n = basis.order
    todo = np.flatnonzero([f is None for f in found])
    if n == 0:  # a nonzero constant has no roots
        return [f or ZeroSet(np.zeros(0, dtype=np.complex128), np.zeros(0),
                             np.zeros(0)) for f in found]
    z, res, rad, _, proven = _settle(basis, etas[todo], _starts(basis, etas[todo]))
    for k in np.flatnonzero(proven):
        found[todo[k]] = ZeroSet(z[k], res[k], rad[k])
    # every other row starts again from its comrade eigenvalues
    redo, starts = [], []
    for t in todo[~proven]:
        try:
            starts.append(np.linalg.eigvals(_comrade(basis, etas[t])))
            redo.append(t)
        except np.linalg.LinAlgError as exc:
            found[t] = NoConvergence(f"comrade eigenvalues failed: {exc}")
    if not redo:
        return found
    z, res, rad, settled, proven = _settle(basis, etas[redo], np.array(starts))
    for k, t in enumerate(redo):
        if settled[k].all():  # radii 0 where disks overlap, as at a multiple zero
            found[t] = ZeroSet(z[k], res[k], rad[k] if proven[k] else np.zeros(n))
        else:
            found[t] = NoConvergence(
                f"{np.count_nonzero(~settled[k])} of {n} roots not certified "
                f"after {ABERTH_STEPS} Aberth steps from the comrade eigenvalues")
    return found


def roots(basis: OpucBasis, eta):
    """All basis.order roots of sum eta_k phi_k, certified against eta.

    eta is one coefficient vector, shape (n+1,), or a block of them,
    shape (T, n+1).  The block's rows go through the Aberth iteration
    together, and their roots are settled and certified through eval_poly
    on eta from one of three starts: the roots of each row's monomial model
    (see _starts), each finished by its own Newton step on the model, the
    unit circle where a row's samples spread by more than 1/sqrt(eps),
    and, for the rows that this does not prove, their comrade eigenvalues.
    Every start is checked by P alone first, and only the ones that miss
    the rounding bound take steps that evaluate P' in the basis: few model
    starts, and in practice every circle start.  A root is certified by
    the test that stops the iteration: a residual of at most 4 (n+1) eps,
    or a last Newton correction of at most 8 ulps of max(1, |z|) (see
    ZeroSet).  A row is proven when its roots are certified and its
    inclusion disks pairwise disjoint; one not proven from its eigenvalues
    is refused, unless only its disks overlap (radii 0).  No row depends
    on the others in its block, down to the bits, even as the block's one
    row, and a row times a power of two that rounds none of its entries
    gives the same bits.

    One vector gives a ZeroSet, or raises NoConvergence /
    DegenerateLeadingCoefficient.  A block gives a list with one entry per
    row: its ZeroSet, or the ComputationError that refused it.
    Coefficients that are not all finite raise UsageError, for one vector
    or a whole block, before any work.
    """
    found = _block_roots(basis, *_coefficients(basis, eta, (1, 2)))
    if np.ndim(eta) == 2:
        return found
    if isinstance(found[0], ComputationError):
        raise found[0]
    return found[0]


def count_in_region(zs: ZeroSet, region: Region) -> int:
    return int(np.count_nonzero(region.contains(zs.roots, zs.radii)))


def _arc_points(arcs: np.ndarray, arc: np.ndarray, t: np.ndarray):
    """z and dz/dt at parameters t of boundary rows arcs[arc], in one expression."""
    c, d = arcs[arc, :2].T[..., None]
    rad, a0, a1 = arcs[arc, 2:].real.T[..., None]
    e = np.exp(1j * (a0 + (a1 - a0) * t))
    return c + d * t + rad * e, d + rad * 1j * (a1 - a0) * e


def _panel_integrals(basis: OpucBasis, eta: np.ndarray, arcs, arc, a, b):
    """Gauss-Legendre estimate and absolute mass of P'/P dz on each panel
    [a, b] of boundary row arcs[arc], all panels in one evaluation."""
    h = (b - a)[:, None]
    z, dz = _arc_points(arcs, arc, a[:, None] + h * (0.5 * (_GL_NODES[None, :] + 1.0)))
    val, dval, _ = eval_poly(basis, eta, z, derivs=True, scale=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = dval / val * dz * (0.5 * h) * _GL_WEIGHTS[None, :]
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def _first_panels(arcs: np.ndarray, near):
    """The first level's panels (arc, a, b): eight equal ones per boundary
    row, each halved while it is longer than the distance from its
    midpoint to the nearest point of near, at most _GRADE_HALVINGS times
    and never below _GRADE_FLOOR in length.  Halving only adds
    breakpoints: those of the eight equal panels all stay."""
    arc = np.repeat(np.arange(len(arcs)), 8)
    a = np.tile(np.linspace(0.0, 1.0, 9)[:-1], len(arcs))
    b = a + 0.125
    if near is None or near.size == 0:
        return arc, a, b
    # |dz/dt| is constant along each row: a panel's length is it times b - a
    speed = np.abs(_arc_points(arcs, np.arange(len(arcs)), np.zeros(1))[1][:, 0])
    for _ in range(_GRADE_HALVINGS):
        mid = 0.5 * (a + b)
        length = speed[arc] * (b - a)
        dist = np.abs(_arc_points(arcs, arc, mid[:, None])[0] - near).min(axis=1)
        split = (length > dist) & (0.5 * length >= _GRADE_FLOOR)
        if not split.any():
            break
        keep = ~split
        arc = np.concatenate([arc[keep], arc[split], arc[split]])
        a, b = (np.concatenate([a[keep], a[split], mid[split]]),
                np.concatenate([b[keep], mid[split], b[split]]))
    return arc, a, b


def _contour_integral(basis: OpucBasis, eta: np.ndarray, arcs, near=None):
    # breadth-first local refinement: a panel is accepted once splitting it
    # stops moving its estimate, so a pole at distance d from the arc costs
    # log(1/d) subdivisions instead of the 1/d a uniform grid would need.
    # The acceptance floor scales with the panel's absolute-value mass;
    # without it, roundoff in high-degree integrands (|terms| >> |sum|)
    # would keep panels churning forever.  Each level evaluates both halves
    # of every open panel of every arc in one eval_poly call; the first
    # level evaluates the initial panels (see _first_panels: near, the
    # roots if known, only grades them) in that call too.
    arc, a, b = _first_panels(arcs, near)
    whole = None
    total = 0.0 + 0.0j
    spent = 0
    for _ in range(_MAX_DEPTH):
        m = a.size
        mid = 0.5 * (a + b)
        lo, hi = [a, mid], [mid, b]
        if whole is None:
            lo, hi = [a] + lo, [b] + hi
        spent += len(lo) * m
        if spent > _PANEL_BUDGET:
            raise BoundaryProximity(
                f"contour count spent its budget of {_PANEL_BUDGET} panels")
        halves, scales = _panel_integrals(
            basis, eta, arcs, np.tile(arc, len(lo)),
            np.concatenate(lo), np.concatenate(hi))
        if whole is None:
            whole, halves, scales = halves[:m], halves[m:], scales[m:]
        left, right = halves[:m], halves[m:]
        err = np.abs(whole - (left + right))
        done = err < np.maximum(_PANEL_TOL, 1e-13 * (scales[:m] + scales[m:]))
        total += np.sum(left[done]) + np.sum(right[done])
        if np.all(done):
            return complex(total), True
        keep = ~done
        arc = np.concatenate([arc[keep], arc[keep]])
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    # leftover panels never stabilized: a zero sits on (or within roundoff
    # reach of) the contour
    return complex(total + np.sum(whole)), False


def count_by_argument_principle(basis: OpucBasis, eta, region: Region,
                                near=None) -> int:
    """Winding of sum eta_k phi_k around the region boundary; refuses
    non-integer results.

    The boundary arcs are integrated by locally adaptive composite
    Gauss-Legendre panels, on the row that roots solves (see _coefficients).
    near, points where the zeros are thought to be (the roots of the row,
    say), only grades the first panels toward them (see _first_panels):
    the rule, the acceptance test and the limits stay, so a wrong hint
    costs only time.  A result farther than 0.1 from an integer, panels
    that never stabilize, or more than _PANEL_BUDGET panels raise
    BoundaryProximity -- the signal that a zero sits essentially on the
    boundary.  Coefficients that are not one finite vector of
    basis.order + 1 entries, or a hint that is not all finite, raise
    UsageError.
    """
    if near is not None:
        near = np.asarray(near, dtype=np.complex128).ravel()
        if not np.isfinite(near).all():
            raise UsageError("hint points must be finite, got NaN or infinity")
    (eta,), (refused,) = _coefficients(basis, eta, (1,))
    if refused:
        raise refused
    total, settled = _contour_integral(basis, eta, region.boundary_arcs(), near)
    w = total / (2j * math.pi)
    if not settled or not np.isfinite(w) \
            or abs(w - round(w.real)) > INTEGER_SLACK:
        raise BoundaryProximity(
            f"contour count {w} did not settle near an integer")
    return int(round(w.real))
