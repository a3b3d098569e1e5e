"""Oracle checks of one benchmark pass.

Every case of a workload records its checks here.  A check passes or
fails; a case that raises records one failed check named after the case.
Checks named in KNOWN_DEFECTS are defects of the library that are known and
not yet fixed: they are run and reported by name like any other check, but
counted apart from the unexpected failures, so that the benchmark can still
tell a new failure from the known one.  When a known defect stops
reproducing, the report says so.
"""

from __future__ import annotations

import math
import traceback

# records.decode_value turns every two-number list into a complex number, so
# a D=3 scatter leg "p": [1.0, 0.5] comes back from load_record as (1+0.5j).
KNOWN_DEFECTS = {
    "cli.scatter_d3.roundtrip":
        "records.decode_value reads the 2-component leg momentum p as a complex number",
}


class Checks:
    """Ordered list of (name, passed, detail) plus the Monte Carlo z-scores of a pass."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self.zscores: dict[str, float] = {}

    def record(self, name: str, passed: bool, detail: str = "") -> bool:
        self.results.append((name, bool(passed), detail))
        return bool(passed)

    def close(self, name: str, value, oracle, rtol: float) -> bool:
        """|value - oracle| <= rtol * |oracle|."""
        err = abs(complex(value) - complex(oracle))
        scale = abs(complex(oracle))
        rel = err / scale if scale else err
        return self.record(name, rel <= rtol, f"rel err {rel:.2e} (tol {rtol:.0e})")

    def below(self, name: str, value: float, limit: float) -> bool:
        value = float(value)
        return self.record(name, math.isfinite(value) and value <= limit,
                           f"{value:.3e} (limit {limit:.0e})")

    def zscore(self, name: str, estimate, oracle, stderr: float, zmax: float = 5.0) -> bool:
        """Monte Carlo estimate within zmax standard errors of the oracle.

        A correct estimator misses |z| < 5 with probability below 1e-6.
        """
        z = (complex(estimate).real - complex(oracle).real) / stderr if stderr > 0 else math.inf
        if abs(z) >= abs(self.zscores.get(name, 0.0)):  # largest |z| per check name
            self.zscores[name] = z
        return self.record(name, abs(z) < zmax, f"z {z:+.2f} (|z| < {zmax:g})")

    def run_case(self, name: str, fn, *args) -> None:
        """Run one case; an exception counts as one failed check."""
        try:
            fn(self, *args)
        except Exception as exc:  # noqa: BLE001 - a raising case is a failed check
            last = traceback.extract_tb(exc.__traceback__)[-1]
            self.record(name, False, f"raised {type(exc).__name__}: {exc} "
                                     f"({last.filename.rsplit('/', 1)[-1]}:{last.lineno})")

    def summary(self) -> dict:
        failed = [r for r in self.results if not r[1] and r[0] not in KNOWN_DEFECTS]
        known = [r for r in self.results if not r[1] and r[0] in KNOWN_DEFECTS]
        fixed = sorted({r[0] for r in self.results if r[1] and r[0] in KNOWN_DEFECTS})
        return {
            "attempted": len(self.results),
            "failed": len(failed),
            "known_defects": len(known),
            "failures": [f"{n}: {d}" for n, _, d in failed],
            "known": sorted({f"{n}: {KNOWN_DEFECTS[n]} ({d})" for n, _, d in known}),
            "no_longer_reproducing": fixed,
            "zscores": self.zscores,
        }
