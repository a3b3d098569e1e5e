"""On-shell states as the large-time limit, and localization conventions.

A fixed-momentum state at finite time has a Lorentzian frequency profile of
width epsilon around +-E_p; as epsilon -> 0 the state concentrates on the
mass shell.  The induced pairing makes localized states plain waves in
momentum, while the symmetric dual convention restores the conventional
localized profile with its (2E)^(-1/2) factor.
"""

import numpy as np

from worldlineqm.geometry import onshell_energy
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
