"""Result records for the batch front end.

Records serialize deterministically: keys are sorted, and the wall time is
kept out of the emitted bytes unless requested.  This module owns the one
complex-value format: the object {"re": x, "im": y} in JSON (exactly that
object decodes to a complex; a list of two numbers stays a list) and the
columns <name>_re, <name>_im in CSV.  A non-finite float is the JSON string
"inf", "-inf" or "nan", so records are standard JSON, and exactly those
strings decode to floats.  Inputs are read back as written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ContractViolation

COMPLEX_KEYS = ("re", "im")  # the JSON object of a complex value, real part first
NONFINITE = ("inf", "-inf", "nan")  # the JSON strings of the non-finite floats


def encode_value(value):
    if isinstance(value, complex):
        return dict(zip(COMPLEX_KEYS, (encode_value(value.real), encode_value(value.imag))))
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalars
        return encode_value(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def decode_value(value):
    if isinstance(value, dict):
        if value.keys() == set(COMPLEX_KEYS):
            return complex(*(decode_value(value[k]) for k in COMPLEX_KEYS))
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return float(value) if isinstance(value, str) and value in NONFINITE else value


@dataclass
class ResultRecord:
    """Inputs echo, named outputs, provenance, and reproducibility fields."""

    subcommand: str
    inputs: dict
    outputs: dict
    provenance: dict = field(default_factory=dict)
    table: list | None = None  # rows of dicts for CSV-style results
    seed: int | None = None
    wall_time_s: float | None = None

    def to_json_dict(self, include_timing: bool = False) -> dict:
        record = {
            "subcommand": self.subcommand,
            "inputs": encode_value(self.inputs),
            "outputs": encode_value(self.outputs),
            "provenance": encode_value(self.provenance),
            "seed": self.seed,
            "wall_time_s": self.wall_time_s if include_timing else None,
        }
        if self.table is not None:
            record["table"] = encode_value(self.table)
        return record

    @classmethod
    def from_json_dict(cls, data: dict) -> "ResultRecord":
        return cls(subcommand=data["subcommand"],
                   inputs=data["inputs"],
                   outputs=decode_value(data["outputs"]),
                   provenance=decode_value(data.get("provenance", {})),
                   table=decode_value(data["table"]) if "table" in data else None,
                   seed=data.get("seed"),
                   wall_time_s=data.get("wall_time_s"))


def _flatten(row: dict) -> dict:
    """One CSV row: each complex cell split into <name>_re and <name>_im."""
    flat = {}
    for name, value in row.items():
        flat.update({name + "_re": value.real, name + "_im": value.imag}
                    if isinstance(value, complex) else {name: value})
    return flat


def emit(record: ResultRecord, path, fmt: str = "json",
         include_timing: bool = False) -> None:
    """Write the record; byte-stable for fixed inputs and seed.

    JSON carries the full record.  CSV writes the table rows, or else one row
    of the scalar outputs in name order, each flattened by _flatten, under a
    header from the first row; an empty table writes an empty file.
    """
    if fmt == "json":
        text = json.dumps(record.to_json_dict(include_timing), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    elif fmt == "csv":
        rows = record.table if record.table is not None else [dict(sorted(record.outputs.items()))]
        flat = [_flatten(row) for row in rows]
        cells = [[repr(v) if isinstance(v, float) else str(v) for v in row.values()] for row in flat]
        text = "".join(",".join(line) + "\n" for line in flat[:1] + cells)  # header: row 0's keys
    else:
        raise ContractViolation(f"unknown format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")


def load_record(path) -> ResultRecord:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return ResultRecord.from_json_dict(data)
