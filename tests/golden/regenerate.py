"""Golden records: one CLI config per subcommand route and the records it gives.

Each case is a config file `<case>.config.json` in this folder.  The part of
<case> before the first "-" names the subcommand, and each file
`<case>.record.<format>` next to it is the record that config gives in that
format (json or csv).  Paths inside a config, such as the fock states file,
are relative to the repository root, where the cases are run.

    PYTHONPATH=src python tests/golden/regenerate.py

reruns every case, prints each value that moved (its path, the new and the old
value, and the move relative to the old) and rewrites the records.  A config with no record yet gets a JSON
record.  tests/test_golden.py checks that the records still hold.

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


def main() -> int:
    for case in cases():
        for path in records(case):
            fmt = path.suffix[1:]
            text = run(case, fmt)
            if path.exists():
                old = path.read_text(encoding="utf-8")
                for where, got, want, move in differences(parse(text, fmt), parse(old, fmt)):
                    print(f"{path.name}: {where}: {got!r}, was {want!r}"
                          + ("" if move is None else f" (moved {move:.1e})"))
            path.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
