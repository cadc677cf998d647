"""Problem instances and their serialization.

An instance bundles the machine park, the parts to print with their due
times, the earliness/tardiness penalty rates, and the number of batch
slots (jobs) available per machine.  Instances round-trip through a JSON
document; a CSV pair (machines.csv plus parts.csv) is accepted as an
alternative input format for data lifted from printed tables.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import geometry


class InstanceError(ValueError):
    """Raised for malformed or internally inconsistent instance documents."""


@dataclass(frozen=True)
class Part:
    id: str
    width_mm: float
    length_mm: float
    height_mm: float
    due_h: float

    def __post_init__(self) -> None:
        for name in ("width_mm", "length_mm", "height_mm", "due_h"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InstanceError(f"part {self.id!r}: {name} must be finite and strictly positive, got {value!r}")


@dataclass(frozen=True)
class MachineSpec:
    id: str
    width_mm: float
    length_mm: float
    height_mm: float
    layer_time_h_per_mm: float
    volumetric_time_h_per_mm3: float

    def __post_init__(self) -> None:
        for name in ("width_mm", "length_mm", "height_mm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InstanceError(f"machine {self.id!r}: {name} must be finite and strictly positive, got {value!r}")
        for name in ("layer_time_h_per_mm", "volumetric_time_h_per_mm3"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InstanceError(f"machine {self.id!r}: {name} must be finite and nonnegative, got {value!r}")

    @property
    def base_area_mm2(self) -> float:
        """Usable plate area: machine width times machine length."""
        return self.width_mm * self.length_mm


@dataclass(frozen=True)
class PenaltyCoefficients:
    """Cost rates per hour of earliness and tardiness."""

    earliness: float = 1.0
    tardiness: float = 1.0

    def __post_init__(self) -> None:
        for name in ("earliness", "tardiness"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InstanceError(f"penalties: {name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class ProblemInstance:
    machines: tuple[MachineSpec, ...]
    parts: tuple[Part, ...]
    penalties: PenaltyCoefficients = PenaltyCoefficients()
    jobs_per_machine: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.jobs_per_machine is None:
            object.__setattr__(self, "jobs_per_machine", max(1, len(self.parts)))
        if not self.machines:
            raise InstanceError("instance needs at least one machine")
        if self.jobs_per_machine < 1:
            raise InstanceError("jobs_per_machine must be at least 1")
        seen: set[str] = set()
        for m in self.machines:
            if m.id in seen:
                raise InstanceError(f"duplicate machine id {m.id!r}")
            seen.add(m.id)
        seen.clear()
        for p in self.parts:
            if p.id in seen:
                raise InstanceError(f"duplicate part id {p.id!r}")
            seen.add(p.id)

    def part_index(self, part_id: str) -> int:
        for i, p in enumerate(self.parts):
            if p.id == part_id:
                return i
        raise KeyError(part_id)

    def machine_index(self, machine_id: str) -> int:
        for i, m in enumerate(self.machines):
            if m.id == machine_id:
                return i
        raise KeyError(machine_id)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[ValidationIssue, ...] = ()
    warnings: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------------------
# JSON format


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise InstanceError(f"{where}: missing field {key!r}")
    return mapping[key]


def _number(mapping: Mapping, key: str, where: str) -> float:
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{where}: field {key!r} must be a number, got {value!r}")
    return float(value)


def _from_json_doc(doc) -> ProblemInstance:
    if not isinstance(doc, Mapping):
        raise InstanceError("instance document must be a JSON object")
    machines_raw = _require(doc, "machines", "instance")
    parts_raw = _require(doc, "parts", "instance")
    if not isinstance(machines_raw, Sequence) or isinstance(machines_raw, (str, bytes)):
        raise InstanceError("machines must be an array")
    if not isinstance(parts_raw, Sequence) or isinstance(parts_raw, (str, bytes)):
        raise InstanceError("parts must be an array")
    if not parts_raw:
        raise InstanceError("empty part set")
    if not machines_raw:
        raise InstanceError("instance needs at least one machine")

    machines = []
    for k, m in enumerate(machines_raw):
        where = f"machines[{k}]"
        machines.append(
            MachineSpec(
                id=str(_require(m, "id", where)),
                width_mm=_number(m, "width_mm", where),
                length_mm=_number(m, "length_mm", where),
                height_mm=_number(m, "height_mm", where),
                layer_time_h_per_mm=_number(m, "layer_time_h_per_mm", where),
                volumetric_time_h_per_mm3=_number(m, "volumetric_time_h_per_mm3", where),
            )
        )
    parts = []
    for k, p in enumerate(parts_raw):
        where = f"parts[{k}]"
        parts.append(
            Part(
                id=str(_require(p, "id", where)),
                width_mm=_number(p, "width_mm", where),
                length_mm=_number(p, "length_mm", where),
                height_mm=_number(p, "height_mm", where),
                due_h=_number(p, "due_h", where),
            )
        )

    pen_raw = doc.get("penalties")
    if pen_raw is None:
        penalties = PenaltyCoefficients()
    else:
        penalties = PenaltyCoefficients(
            earliness=_number(pen_raw, "earliness", "penalties"),
            tardiness=_number(pen_raw, "tardiness", "penalties"),
        )

    jobs = doc.get("jobs_per_machine")
    if jobs is not None:
        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise InstanceError("jobs_per_machine must be an integer")

    return ProblemInstance(
        machines=tuple(machines),
        parts=tuple(parts),
        penalties=penalties,
        jobs_per_machine=jobs,
    )


# ---------------------------------------------------------------------------
# CSV pair format
#
# The CSV headers follow the printed data tables the instances come from:
# machines carry a single "dimensions (h x w x l)" column while parts list
# width, length, height and delivery deadline separately.


def _norm_header(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "", name.lower())


def _find_column(fieldnames: Iterable[str], *needles: str) -> str:
    for raw in fieldnames:
        normed = _norm_header(raw)
        if any(needle in normed for needle in needles):
            return raw
    raise InstanceError(f"CSV is missing a column matching {needles!r}")


def _parse_dimension_triple(cell: str, where: str) -> tuple[float, float, float]:
    pieces = re.split(r"[x×]", cell.lower())
    if len(pieces) != 3:
        raise InstanceError(f"{where}: dimensions cell {cell!r} is not an 'h x w x l' triple")
    try:
        h, w, l = (float(piece.strip()) for piece in pieces)
    except ValueError as exc:
        raise InstanceError(f"{where}: bad dimensions cell {cell!r}") from exc
    return h, w, l


def _machines_from_csv(text: str) -> list[MachineSpec]:
    reader = csv.DictReader(io.StringIO(text))
    if not reader.fieldnames:
        raise InstanceError("machines CSV has no header row")
    col_id = _find_column(reader.fieldnames, "machine")
    col_layer = _find_column(reader.fieldnames, "layer")
    col_vol = _find_column(reader.fieldnames, "volumetric")
    col_dims = _find_column(reader.fieldnames, "dimension")
    machines = []
    for row in reader:
        ident = row[col_id].strip()
        h, w, l = _parse_dimension_triple(row[col_dims], f"machine {ident!r}")
        machines.append(
            MachineSpec(
                id=ident,
                width_mm=w,
                length_mm=l,
                height_mm=h,
                layer_time_h_per_mm=float(row[col_layer]),
                volumetric_time_h_per_mm3=float(row[col_vol]),
            )
        )
    return machines


def _parts_from_csv(text: str) -> list[Part]:
    reader = csv.DictReader(io.StringIO(text))
    if not reader.fieldnames:
        raise InstanceError("parts CSV has no header row")
    col_id = _find_column(reader.fieldnames, "part")
    col_w = _find_column(reader.fieldnames, "width")
    col_l = _find_column(reader.fieldnames, "length")
    col_h = _find_column(reader.fieldnames, "height")
    col_d = _find_column(reader.fieldnames, "deadline", "due")
    parts = []
    for row in reader:
        parts.append(
            Part(
                id=row[col_id].strip(),
                width_mm=float(row[col_w]),
                length_mm=float(row[col_l]),
                height_mm=float(row[col_h]),
                due_h=float(row[col_d]),
            )
        )
    return parts


# ---------------------------------------------------------------------------
# Public entry points


def parse_instance(source, format: str = "json") -> ProblemInstance:
    """Parse an instance document.

    For ``format="json"`` the source is a JSON string (or an already
    decoded mapping).  For ``format="csv-pair"`` the source is a mapping
    with the machines CSV text under ``"machines"`` and the parts CSV
    text under ``"parts"``; penalty rates and the job count per machine
    then take their defaults (1.0/1.0 and one job slot per part).
    """
    if format == "json":
        if isinstance(source, (str, bytes)):
            try:
                doc = json.loads(source)
            except json.JSONDecodeError as exc:
                raise InstanceError(f"malformed JSON: {exc}") from exc
        else:
            doc = source
        return _from_json_doc(doc)
    if format == "csv-pair":
        if not isinstance(source, Mapping) or "machines" not in source or "parts" not in source:
            raise InstanceError("csv-pair source must map 'machines' and 'parts' to CSV text")
        machines = _machines_from_csv(source["machines"])
        parts = _parts_from_csv(source["parts"])
        if not parts:
            raise InstanceError("empty part set")
        if not machines:
            raise InstanceError("instance needs at least one machine")
        return ProblemInstance(machines=tuple(machines), parts=tuple(parts))
    raise InstanceError(f"unknown instance format {format!r}")


def instance_to_doc(instance: ProblemInstance) -> dict:
    return {
        "machines": [
            {
                "id": m.id,
                "width_mm": m.width_mm,
                "length_mm": m.length_mm,
                "height_mm": m.height_mm,
                "layer_time_h_per_mm": m.layer_time_h_per_mm,
                "volumetric_time_h_per_mm3": m.volumetric_time_h_per_mm3,
            }
            for m in instance.machines
        ],
        "parts": [
            {
                "id": p.id,
                "width_mm": p.width_mm,
                "length_mm": p.length_mm,
                "height_mm": p.height_mm,
                "due_h": p.due_h,
            }
            for p in instance.parts
        ],
        "penalties": {
            "earliness": instance.penalties.earliness,
            "tardiness": instance.penalties.tardiness,
        },
        "jobs_per_machine": instance.jobs_per_machine,
    }


def serialize_instance(instance: ProblemInstance) -> str:
    """Render an instance as a JSON document that parse_instance accepts."""
    return json.dumps(instance_to_doc(instance), indent=2, sort_keys=True) + "\n"


def instance_hash(instance: ProblemInstance) -> str:
    """Stable short content hash used to stamp output files."""
    canonical = json.dumps(instance_to_doc(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def load_instance(path) -> ProblemInstance:
    """Load an instance from a .json file or a directory holding a CSV pair."""
    from pathlib import Path

    p = Path(path)
    if p.is_dir():
        return parse_instance(
            {
                "machines": (p / "machines.csv").read_text(),
                "parts": (p / "parts.csv").read_text(),
            },
            format="csv-pair",
        )
    return parse_instance(p.read_text(), format="json")


def validate(instance: ProblemInstance) -> ValidationReport:
    """Check an instance for problems the model cannot recover from.

    Errors make the instance unsolvable (a part that fits no machine in
    any orientation).  Warnings flag suspicious but legal data: zero
    penalty rates (the time objective degenerates) and a total minimum
    footprint that provably exceeds the plate area available across all
    job slots.
    """
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []

    for part in instance.parts:
        if not any(geometry.feasible_orientations(part, m) for m in instance.machines):
            errors.append(
                ValidationIssue(
                    code="no_feasible_orientation",
                    subject=part.id,
                    message=(
                        f"part {part.id!r} has no feasible orientation on any machine"
                    ),
                )
            )

    if instance.penalties.earliness == 0 and instance.penalties.tardiness == 0:
        warnings.append(
            ValidationIssue(
                code="degenerate_time_objective",
                subject="penalties",
                message="both penalty rates are zero; the time objective is constant",
            )
        )

    total_area = instance.jobs_per_machine * sum(m.base_area_mm2 for m in instance.machines)
    need = geometry.total_min_footprint(instance.parts)
    if need > total_area:
        warnings.append(
            ValidationIssue(
                code="capacity_insufficient",
                subject="machines",
                message=(
                    f"minimum footprints total {need:.2f} mm2 but all job slots "
                    f"together offer only {total_area:.2f} mm2"
                ),
            )
        )

    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))
