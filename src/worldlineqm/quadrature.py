"""The package's one quadrature layer.

Both rules read one table, QUADPACK's qk21: the 21-point Gauss-Kronrod rule
with the 10-point Gauss-Legendre rule (G10) embedded at its odd nodes.
``adaptive`` is an adaptive Gauss-Kronrod quadrature of a (possibly complex)
integrand on a finite interval or a half-line, evaluating the integrand once
per round on the nodes of every interval it refines, as one array; every
proper-time integral runs on it, within one interval budget, ``LIMIT``.
``panels`` is the G10 rule on a sequence of panels for integrands evaluated
on a shared node array.
"""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError, ContractViolation

LIMIT = 400  # the intervals adaptive may use

# QUADPACK's qk21: the Kronrod abscissae on [0, 1] from the outside in, with
# the 10-point Gauss abscissae at the odd indices, and the weights of both
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745317765, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# the 21 nodes on [-1, 1] in increasing order; the rows that give the
# Kronrod value and its gap to the Gauss value
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]
_RULES = np.stack((_KRONROD, _KRONROD - _GAUSS))
_EPS = np.finfo(float).eps


def _kronrod(func, lo, hi, infinite_from):
    """qk21 on each interval [lo_i, hi_i]: (value, error), each of shape
    (n, parts), with one part for a real integrand and (real, imag) for a
    complex one.  With infinite_from = a the intervals are in u and the
    integrand is func(a + (1 - u)/u) / u^2."""
    half = 0.5 * (hi - lo)[:, None]
    x = (lo[:, None] + half) + half * _NODES
    if infinite_from is None:
        f = func(x) * half
    else:
        f = func(infinite_from + (1.0 - x) / x) * (half / (x * x))
    f = np.stack((f.real, f.imag), axis=-1) if np.iscomplexobj(f) else f[..., None]
    rules = _RULES @ f
    resk, gap = rules[:, 0], np.abs(rules[:, 1])
    resabs = _KRONROD @ np.abs(f)
    resasc = _KRONROD @ np.abs(f - 0.5 * resk[:, None])
    # QUADPACK's scaling of |K21 - G10|, floored at the rounding of K21
    ratio = np.divide(gap, resasc, out=np.zeros_like(gap), where=resasc > 0)
    return resk, np.maximum(resasc * np.minimum(1.0, 200.0 * ratio) ** 1.5, 50 * _EPS * resabs)


def adaptive(func, a: float, b: float, points=None, *,
             epsabs: float = 1.49e-8, epsrel: float = 1.49e-8) -> tuple[complex, float]:
    """Int_a^b func with at most LIMIT subintervals, the module's one
    budget (or as many as `points` starts with); returns (value, error).

    func takes an array of nodes and returns an array of the same shape.  b
    may be +inf: the half-line maps to u in (0, 1] by T = a + (1 - u)/u.
    `points` inside (a, b) are the starting breakpoints.  Each round applies
    the 21-point Gauss-Kronrod rule to every new interval in one call of
    func, with its gap to the embedded G10 value as the error, and bisects each interval whose error is above its share (by
    width) of max(epsabs, epsrel |I|), until the summed error meets that
    tolerance.  The real and imaginary parts are integrated separately, each
    against its own tolerance, so a real integrand gives a zero imaginary
    part; the error is the modulus of the two parts' summed error estimates.
    Raises AccuracyError, with that error as `achieved`, when LIMIT
    intervals are not enough.  epsabs/epsrel default to QUADPACK's.
    """
    if not (np.isfinite(a) and a <= b):
        raise ContractViolation("adaptive integrates over [a, b] with a finite and a <= b")
    inner = sorted({float(p) for p in points or () if a < p < b})
    infinite_from = a if b == np.inf else None
    if infinite_from is None:
        edges = np.array([a, *inner, b], dtype=float)
    else:
        edges = np.concatenate(([0.0], np.sort(1.0 / (1.0 + np.subtract([a, *inner], a)))))
    n = edges.size - 1
    span = edges[-1] - edges[0]
    # the intervals so far: the first n slots; a bisection keeps the left
    # half in its slot and appends the right half
    size = max(LIMIT, n)
    lo, hi = np.empty(size), np.empty(size)
    lo[:n], hi[:n] = edges[:-1], edges[1:]
    v, e = _kronrod(func, lo[:n], hi[:n], infinite_from)
    value, err = np.empty((size, v.shape[1])), np.empty((size, v.shape[1]))
    value[:n], err[:n] = v, e
    while True:
        total, summed = value[:n].sum(axis=0), err[:n].sum(axis=0)
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        failing = ~(summed <= tol)  # a nan error fails too
        if not failing.any():
            break
        above = err[:n] * span > tol * (hi[:n] - lo[:n])[:, None]
        split = np.flatnonzero((above & failing).any(axis=1))
        room = size - n
        if room == 0:
            achieved = float(np.hypot.reduce(summed))
            raise AccuracyError(
                f"adaptive quadrature on [{a}, {b}] reached its limit of {LIMIT} "
                f"intervals at error {achieved:.3g}", achieved=achieved)
        if not 0 < split.size <= room:
            # too many to bisect, or none by the shares' rounding or a nan:
            # bisect the worst
            worst = (err[:n] * failing).max(axis=1)
            split = np.argsort(-worst)[:max(1, min(split.size, room))]
        k = split.size
        left, right = lo[split], hi[split]
        mid = 0.5 * (left + right)
        v, e = _kronrod(func, np.concatenate((left, mid)), np.concatenate((mid, right)),
                        infinite_from)
        hi[split], lo[n:n + k], hi[n:n + k] = mid, mid, right
        value[split], value[n:n + k] = v[:k], v[k:]
        err[split], err[n:n + k] = e[:k], e[k:]
        n += k
    if total.size == 1:
        return complex(total[0]), float(summed[0])
    return complex(total[0], total[1]), float(np.hypot(summed[0], summed[1]))


def panels(edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the table's G10 rule on each panel
    [edges[i], edges[i+1]], flattened panel by panel."""
    x, w = _NODES[1:20:2], _GAUSS[1:20:2]
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
