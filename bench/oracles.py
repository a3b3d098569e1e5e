"""Reference values computed without the library's own routes.

Each function evaluates a closed form or an independent quadrature with
numpy/scipy only, so an oracle neither shares code with the route it checks
nor warms a cache that the timed pass would then reuse.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
from scipy import integrate, special


def heat_kernel(dx, tau: float, mass: float) -> float:
    """Euclidean kernel (4 pi tau)^(-D/2) exp(-|dx|^2 / 4 tau - tau m^2)."""
    dx = np.asarray(dx, dtype=float)
    return float((4 * np.pi * tau) ** (-dx.size / 2)
                 * np.exp(-dx @ dx / (4 * tau) - tau * mass * mass))


def euclidean_propagator_d2(r: float, mass: float) -> float:
    """D=2 euclidean propagator K0(m r) / 2 pi."""
    return float(special.k0(mass * r) / (2 * np.pi))


def momentum_route_d2(r: float, mass: float) -> float:
    """D=2 euclidean propagator as a radial momentum integral: Bessel-zero
    panels, then repeated averaging of the alternating partial sums."""
    f = lambda p: p * special.j0(p * r) / (p * p + mass * mass)
    zeros = special.jn_zeros(0, 120) / r
    head, _ = integrate.quad(f, 0.0, zeros[0], limit=200)
    panels = np.array([integrate.quad(f, zeros[k], zeros[k + 1], limit=200)[0]
                       for k in range(len(zeros) - 1)])
    s = np.cumsum(panels)
    for _ in range(min(40, len(s) - 1)):
        s = 0.5 * (s[:-1] + s[1:])
    return float((head + s[-1]) / (2 * np.pi))


def onshell_part_d2(dt: float, r: float, mass: float, sign: int, damping: float) -> complex:
    """(2 pi)^-1 Int dp exp(i(-sign E dt + p r) - damping p^2) / 2E by the
    trapezoid rule on a dense grid (spectrally accurate for this integrand)."""
    top = np.sqrt(40.0 / damping)
    p = np.linspace(-top, top, 400001)
    e = np.sqrt(p * p + mass * mass)
    f = np.exp(1j * (-sign * e * dt + p * r) - damping * p * p) / (2 * e)
    return complex(np.trapezoid(f, p) / (2 * np.pi))


def bubble_d2(p_sq: float, mass: float) -> float:
    """Equal-mass D=2 euclidean bubble by Feynman parameters:
    pi Int_0^1 dx / (m^2 + x (1 - x) p^2)."""
    value, _ = integrate.quad(lambda x: 1.0 / (mass * mass + x * (1 - x) * p_sq),
                              0.0, 1.0, epsabs=0.0, epsrel=1e-13)
    return float(np.pi * value)


def feynman_momentum(p, mass: float, epsilon: float) -> complex:
    """-i / (p.p + m^2 - i eps) with the signed square."""
    p = np.asarray(p, dtype=float)
    return complex(-1j / (p[1:] @ p[1:] - p[0] * p[0] + mass * mass - 1j * epsilon))


def tree_2to2(p_in, p_out, coupling: float, mass_a: float, mass_b: float,
              epsilon: float) -> complex:
    """Hand-assembled A A -> A A tree amplitude by B exchange (both crossings)."""
    p_in = [np.asarray(p, dtype=float) for p in p_in]
    p_out = [np.asarray(p, dtype=float) for p in p_out]
    d = p_in[0].size
    e = lambda p: np.sqrt(p @ p + mass_a * mass_a)
    prop = lambda pa, pb: feynman_momentum(np.concatenate(([e(pa) - e(pb)], pa - pb)),
                                           mass_b, epsilon)
    ext = np.prod([(2 * np.pi) ** (-d / 2) * (2 * e(p)) ** (-0.5) for p in p_in + p_out])
    return complex(coupling ** 2 * (prop(p_in[0], p_out[0]) + prop(p_in[0], p_out[1])) * ext)


class LatticePairing:
    """Two-point pairings on a periodic lattice by direct momentum sums.

    plain:  (1 / prod L) sum_p exp(i p.u) (-i) / (p.p + m^2 - i eps)
    normal: (1 / prod L_i) sum_p exp(i(-E dt + p.dx)) / 2E over spatial p
    anti:   the normal sum with sign -1 at the reversed separation.
    """

    def __init__(self, shape, extents, masses: dict, kinds: dict, epsilon: float):
        self.shape = tuple(shape)
        self.extents = np.asarray(extents, dtype=float)
        self.spacings = self.extents / np.asarray(self.shape)
        self.masses, self.kinds, self.epsilon = masses, kinds, epsilon
        self.axes = [2 * np.pi * np.fft.fftfreq(n, d=a)
                     for n, a in zip(self.shape, self.spacings)]

    def __call__(self, label: str, bra_site, ket_site) -> complex:
        m, kind = self.masses[label], self.kinds[label]
        u = (np.asarray(bra_site) - np.asarray(ket_site)) * self.spacings
        if kind == "plain":
            mesh = np.meshgrid(*self.axes, indexing="ij")
            psq = sum(p * p for p in mesh[1:]) - mesh[0] ** 2
            pu = sum(p * x for p, x in zip(mesh[1:], u[1:])) - mesh[0] * u[0]
            total = np.sum(np.exp(1j * pu) * -1j / (psq + m * m - 1j * self.epsilon))
            return complex(total / np.prod(self.extents))
        sign = 1 if kind == "normal" else -1
        if sign < 0:
            u = -u
        mesh = np.meshgrid(*self.axes[1:], indexing="ij")
        e = np.sqrt(sum(p * p for p in mesh) + m * m)
        phase = -sign * e * u[0] + sum(p * x for p, x in zip(mesh, u[1:]))
        return complex(np.sum(np.exp(1j * phase) / (2 * e)) / np.prod(self.extents[1:]))

    def brute_inner(self, bra, ket) -> complex:
        """Sum over all pairings of bra entries (site, label) with ket entries."""
        if len(bra) != len(ket):
            return 0j
        total = 0j
        for perm in permutations(range(len(bra))):
            term = 1.0 + 0j
            for i, j in enumerate(perm):
                (bs, bl), (ks, kl) = bra[j], ket[i]
                if bl != kl:
                    term = 0j
                    break
                term *= self(bl, bs, ks)
            total += term
        return total


def first_order_vertex(shape, extents, coupling: float, epsilon: float,
                       x0, xa, xb) -> complex:
    """<xa:A, xb:B| -i V |x0:A> of the cubic model with unit masses, as a
    momentum convolution of three lattice propagators."""
    n0, n1 = shape
    a = np.asarray(extents, dtype=float) / np.asarray(shape)
    coords = [a[mu] * np.arange(shape[mu]) for mu in range(2)]
    paxes = [2 * np.pi * np.fft.fftfreq(shape[mu], d=a[mu]) for mu in range(2)]
    vol = float(np.prod(extents))

    def dprop(idx):
        psq = -paxes[0][idx[0]] ** 2 + paxes[1][idx[1]] ** 2
        return -1j / (psq + 1.0 - 1j * epsilon)

    def phase(idx, site, sgn):
        val = -paxes[0][idx[0]] * coords[0][site[0]] + paxes[1][idx[1]] * coords[1][site[1]]
        return np.exp(1j * sgn * val)

    total = 0j
    for pp in np.ndindex(n0, n1):
        for q in np.ndindex(n0, n1):
            r = ((pp[0] + q[0]) % n0, (pp[1] + q[1]) % n1)
            total += (dprop(pp) * dprop(q) * dprop(r)
                      * phase(pp, xa, +1) * phase(q, xb, +1) * phase(r, x0, -1))
    return complex(-1j * coupling * total * (n0 * n1) / vol ** 3 * float(np.prod(a)))
