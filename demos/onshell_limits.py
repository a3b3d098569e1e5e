"""On-shell states as the large-time limit, and localization conventions.

A fixed-momentum state at finite time has a Lorentzian frequency profile of
width epsilon around +-E_p; as epsilon -> 0 the state concentrates on the
mass shell.  The induced pairing makes localized states plain waves in
momentum, while the symmetric dual convention restores the conventional
localized profile with its (2E)^(-1/2) factor.  In position space, the
positive-frequency part with its rest phase removed reduces to the damped
Schroedinger kernel as the mass grows.
"""

import numpy as np

from worldlineqm.geometry import FourVector, onshell_energy
from worldlineqm.kernel import propagator_onshell_part
from worldlineqm.onshell import (
    INDUCED_2E,
    SYMMETRIC_SQRT2E,
    concentration,
    localized_wavefunction,
    momentum_state_profile,
)

p, mass = 0.3, 1.0
e = onshell_energy((p,), mass)
window = 0.5
print(f"spatial momentum {p}, energy E = {e:.4f}, window +-{window}")
print("epsilon   concentration   (2/pi) atan(window/eps)")
for eps in (1e-1, 1e-2, 1e-3):
    grid = e + np.arange(-300.0, 300.0, eps / 4)
    prof = momentum_state_profile((p,), mass, +1, 0.0, eps, grid)
    c = concentration(prof, window)
    oracle = (2 / np.pi) * np.arctan(window / eps)
    print(f"{eps:7.0e}   {c:.6f}        {oracle:.6f}")

print("\nantiparticle profile peaks at -E:")
grid = -e + np.linspace(-1, 1, 4001)
prof = momentum_state_profile((p,), mass, -1, 0.0, 1e-2, grid)
print(f"  peak at {prof.p0[np.argmax(np.abs(prof.amplitude))]:+.4f} (expect {-e:+.4f})")

print("\nlocalization conventions at t = 0:")
for pp in (0.0, 0.4, 1.5):
    a = localized_wavefunction((0.0,), 0.0, (pp,), mass, +1, INDUCED_2E)
    b = localized_wavefunction((0.0,), 0.0, (pp,), mass, +1, SYMMETRIC_SQRT2E)
    ee = np.sqrt(pp * pp + 1.0)
    print(f"  p = {pp:3.1f}: plane-wave |amp| {abs(a):.6f},"
          f" conventional |amp| {abs(b):.6f} = plane/(2E)^0.5 with E = {ee:.3f}")

print("\nnon-relativistic reduction in D=2 (t = 1, x = 0.3, damping eta = 1e-2):")
print("  2m e^(imt) times the positive-frequency part against the Schroedinger kernel")
print("  (4 pi a)^(-1/2) exp(-x^2/4a), a = eta + it/2m")
t, x, eta = 1.0, 0.3, 1e-2
masses = np.array([160.0, 320.0, 640.0, 1280.0])
gaps = []
for m in masses:
    a = eta + 1j * t / (2 * m)
    schroedinger = (4 * np.pi * a) ** -0.5 * np.exp(-x * x / (4 * a))
    part = 2 * m * np.exp(1j * m * t) * propagator_onshell_part(FourVector((t, x)), m, +1, eta, 2)
    gaps.append(abs(part - schroedinger) / abs(schroedinger))
    print(f"  m = {m:6.0f}: relative gap {gaps[-1]:.2e}")
slope = np.polyfit(np.log(masses), np.log(gaps), 1)[0]
print(f"  log-log slope of the gap in m: {slope:+.2f} (expect about -2)")
