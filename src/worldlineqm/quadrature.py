"""The package's one quadrature layer.

``adaptive`` is adaptive QUADPACK quadrature of a (possibly complex)
integrand on a finite or infinite interval; ``panels`` is a fixed
Gauss-Legendre rule on a sequence of panels for integrands evaluated on a
shared node array.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import integrate

ORDER = 10  # Gauss-Legendre points per panel


def adaptive(func, a: float, b: float, limit: int, points=None) -> tuple[complex, float]:
    """Int_a^b func with at most `limit` subdivisions; returns (value, error).

    The real and imaginary parts are integrated separately, so a real
    integrand gives a zero imaginary part.  The error is the modulus of the
    two parts' error estimates.
    """
    # the two passes share every node of the subintervals both refine (all of
    # them for a real integrand), so each node is evaluated once
    value, err = integrate.quad(functools.cache(func), a, b, limit=limit, points=points,
                                complex_func=True)
    return complex(value), float(abs(err))


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
