"""Golden records: one CLI config per subcommand route and the records it gives.

Each case is a config file `<case>.config.json` in this folder.  The part of
<case> before the first "-" names the subcommand, and each file
`<case>.record.<format>` next to it is the record that config gives in that
format (json or csv).  Paths inside a config, such as the fock states file,
are relative to the repository root, where the cases are run.

    PYTHONPATH=src python tests/golden/regenerate.py

reruns every case and rewrites each record that fails the golden comparison
tests/test_golden.py makes (numbers to the tolerances in TOLERANCES), printing
every value that failed (its path, the new and the old value, and the move
relative to the old).  A record whose values moved only inside the tolerance
is kept as it is.  A config with no record yet gets a JSON record.

A record's quadrature `error` output is an estimate at rounding level: any
last-bit change of a rule's nodes or weights moves it by far more than the
value it bounds (a weight moved by 1.2e-14 relative moved one `error` by
2.4e-4 and its value by 3.1e-16), so a rule change regenerates the records
whose `error` it moves.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from worldlineqm import cli

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
# cases whose oracle tolerance is looser than 1e-12 relative: (rtol, atol)
TOLERANCES = {
    "evolve": (1e-12, 1e-12),  # norm conservation, an absolute 1e-12
    "propagator-position-euclidean": (1e-9, 0.0),  # K_0(m r) / 2 pi at 1e-9
    "propagator-position-minkowski": (1e-8, 0.0),  # reference values at 1e-8
    "selfenergy-mass-spectrum": (1e-10, 0.0),  # per-node bubbles at 1e-10
}


def cases() -> list[str]:
    return sorted(p.name[:-len(".config.json")] for p in GOLDEN.glob("*.config.json"))


def records(case: str) -> list[Path]:
    return sorted(GOLDEN.glob(f"{case}.record.*")) or [GOLDEN / f"{case}.record.json"]


@contextlib.contextmanager
def _at_root():
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(here)


def run(case: str, fmt: str) -> str:
    """The record text the case's config gives in one format."""
    with tempfile.TemporaryDirectory() as tmp, _at_root():
        out = Path(tmp) / f"record.{fmt}"
        argv = [case.split("-")[0], "--config", str(GOLDEN / f"{case}.config.json"),
                "--format", fmt, "--output", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        return out.read_text(encoding="utf-8")


def parse(text: str, fmt: str):
    """A JSON record as loaded, or a CSV record as rows of cells, each cell a
    float where it reads as one."""
    if fmt == "json":
        return json.loads(text)

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    return [[cell(c) for c in line.split(",")] for line in text.splitlines()]


def _floats(value, keys):
    """The items of a float, or of a list or object that holds only floats."""
    items = [value[k] for k in keys] if keys is not None else (
        value if isinstance(value, list) else [value])
    return items if items and all(type(v) is float for v in items) else None


def differences(got, want, rtol: float = 0.0, atol: float = 0.0, path: str = "record"):
    """Yield (path, got, want, move) wherever two parsed records differ.

    Keys, structure, types, strings and whole numbers must be equal, and so
    must the inputs, which a record echoes as given.  A group of floats (one
    float, or a list or object of floats only, such as a complex value)
    passes when every item is within atol + rtol * scale, with scale the
    largest finite magnitude in the wanted group; move is the largest change
    over that scale, or None where the difference is not a number.
    """
    keys = list(want) if isinstance(want, dict) else None
    if type(got) is not type(want) or (
            keys is not None and sorted(got) != sorted(keys)) or (
            isinstance(want, list) and len(got) != len(want)):
        yield path, got, want, None
        return
    wanted, found = _floats(want, keys), _floats(got, keys)
    if path == "record.inputs" or wanted is None and not isinstance(want, (dict, list)):
        if got != want:
            yield path, got, want, None
    elif wanted is not None and found is None:
        yield path, got, want, None
    elif wanted is not None:
        scale = max((abs(w) for w in wanted if math.isfinite(w)), default=0.0)
        gaps = [0.0 if g == w else abs(g - w) for g, w in zip(found, wanted)]
        if any(not gap <= atol + rtol * scale for gap in gaps):
            yield path, got, want, max(gaps) / scale if scale else max(gaps)
    else:
        steps = ((f".{k}", got[k], want[k]) for k in keys) if keys is not None else (
            (f"[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want)))
        for step, g, w in steps:
            yield from differences(g, w, rtol, atol, path + step)


def failures(case: str, text: str, path: Path) -> list:
    """The differences of the record text from the record at path that fail
    the case's golden comparison: keys, structure, inputs and strings
    exactly, numbers to 1e-12 relative or to the case's TOLERANCES entry."""
    fmt = path.suffix[1:]
    rtol, atol = TOLERANCES.get(case, (1e-12, 0.0))
    return list(differences(parse(text, fmt), parse(path.read_text(encoding="utf-8"), fmt),
                            rtol, atol))


def refresh(case: str, path: Path, text: str) -> list:
    """Write the record text to path where there is no record yet or the one
    there fails the golden comparison; the failing differences."""
    failed = failures(case, text, path) if path.exists() else []
    if failed or not path.exists():
        path.write_text(text, encoding="utf-8")
    return failed


def main() -> int:
    for case in cases():
        for path in records(case):
            for where, got, want, move in refresh(case, path, run(case, path.suffix[1:])):
                print(f"{path.name}: {where}: {got!r}, was {want!r}"
                      + ("" if move is None else f" (moved {move:.1e})"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
