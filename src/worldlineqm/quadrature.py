"""The package's one quadrature layer.

``adaptive`` is adaptive QUADPACK quadrature of a (possibly complex)
integrand on a finite or infinite interval; ``fourier_tail`` is QUADPACK's
Fourier-weighted rule (QAWF) for an oscillatory factor exp(-i omega T) on a
half-line; ``panels`` is a fixed Gauss-Legendre rule on a sequence of panels
for integrands evaluated on a shared node array.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import integrate

ORDER = 10  # Gauss-Legendre points per panel


def adaptive(func, a: float, b: float, limit: int, points=None, *,
             epsabs: float = 1.49e-8, epsrel: float = 1.49e-8) -> tuple[complex, float]:
    """Int_a^b func with at most `limit` subdivisions; returns (value, error).

    The real and imaginary parts are integrated separately, so a real
    integrand gives a zero imaginary part.  The error is the modulus of the
    two parts' error estimates.  epsabs/epsrel default to scipy's.
    """
    # the two passes share every node of the subintervals both refine (all of
    # them for a real integrand), so each node is evaluated once
    value, err = integrate.quad(functools.cache(func), a, b, limit=limit, points=points,
                                complex_func=True, epsabs=epsabs, epsrel=epsrel)
    return complex(value), float(abs(err))


def fourier_tail(func, a: float, omega: float) -> tuple[complex, float]:
    """Int_a^inf func(T) exp(-i omega T) dT for omega > 0; returns (value, error).

    func should vary slowly on the scale 1/omega and decay at infinity.  Its
    real and imaginary parts are integrated against cos and sin weights,
    four QAWF passes sharing one cache of func.  QAWF is unreliable as omega
    approaches 0 (at omega = 0 it integrates from 0, not from a), so callers
    keep omega bounded away from it.  The error is the modulus of the four
    error estimates.
    """
    func = functools.cache(func)
    (rc, e1), (rs, e2), (ic, e3), (is_, e4) = (
        integrate.quad(part, a, np.inf, weight=weight, wvar=omega)
        for part in (lambda t: func(t).real, lambda t: func(t).imag)
        for weight in ("cos", "sin"))
    # (re + i im)(cos - i sin) = re cos + im sin + i (im cos - re sin)
    value = complex(rc + is_, ic - rs)
    err = float(np.hypot(np.hypot(e1, e2), np.hypot(e3, e4)))
    return value, err


def panels(edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ORDER-point Gauss-Legendre rule on each
    panel [edges[i], edges[i+1]], flattened panel by panel."""
    x, w = np.polynomial.legendre.leggauss(ORDER)
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
