"""Result records for the batch front end.

Records serialize deterministically: keys are sorted, complex outputs are
stored as [re, im] pairs, and the volatile wall time is kept out of the
emitted bytes unless explicitly requested, so identical inputs and seed
produce byte-identical outputs.  Inputs come from JSON and flags and hold no
complex values, so they are read back exactly as written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ContractViolation


def encode_value(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalars
        return encode_value(value.item())
    return value


def decode_value(value):
    if isinstance(value, list) and len(value) == 2 and all(
            isinstance(v, (int, float)) for v in value):
        return complex(value[0], value[1])
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: decode_value(v) for k, v in value.items()}
    return value


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


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(record: ResultRecord, path, fmt: str = "json",
         include_timing: bool = False) -> None:
    """Write the record; byte-stable for fixed inputs and seed.

    JSON carries the full record.  CSV writes the table rows when present
    (header + one row per scan point; empty tables emit the header only),
    else a single header/value row of the scalar outputs.
    """
    path = Path(path)
    if fmt == "json":
        payload = json.dumps(record.to_json_dict(include_timing), sort_keys=True,
                             indent=2) + "\n"
        path.write_text(payload, encoding="utf-8")
        return
    if fmt == "csv":
        if record.table is not None:
            columns = ["parameter", "value_re", "value_im", "error", "route"]
            lines = [",".join(columns)]
            for row in record.table:
                lines.append(",".join(_csv_cell(row[c]) for c in columns))
        else:
            flat = {}
            for name, value in sorted(record.outputs.items()):
                if isinstance(value, complex):
                    flat[name + "_re"] = value.real
                    flat[name + "_im"] = value.imag
                else:
                    flat[name] = value
            lines = [",".join(flat), ",".join(_csv_cell(v) for v in flat.values())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    raise ContractViolation(f"unknown format {fmt!r}")


def load_record(path) -> ResultRecord:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return ResultRecord.from_json_dict(data)
