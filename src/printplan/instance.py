"""Problem instances and their serialization.

An instance bundles the machine park, the parts to print with their due
times, the earliness/tardiness penalty rates, and the number of batch
slots (jobs) available per machine.  The dataclasses are the schema: a
JSON document holds one object per record with the dataclass's field
names, and ``serialize_instance`` writes ``dataclasses.asdict`` of the
instance.  ``load_instance`` also reads a directory holding a CSV pair
(machines.csv plus parts.csv) for data lifted from printed tables.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from . import geometry


class InstanceError(ValueError):
    """Raised for malformed or internally inconsistent instance documents."""


def _check(record, where: str, positive=(), nonnegative=()) -> None:
    """Require the named fields of ``record`` to be finite and in range."""
    for name in positive + nonnegative:
        value = getattr(record, name)
        if name in positive:
            ok, rule = value > 0, "strictly positive"
        else:
            ok, rule = value >= 0, "nonnegative"
        if not (math.isfinite(value) and ok):
            raise InstanceError(f"{where}: {name} must be finite and {rule}, got {value!r}")


@dataclass(frozen=True)
class Part:
    id: str
    width_mm: float
    length_mm: float
    height_mm: float
    due_h: float

    def __post_init__(self) -> None:
        _check(self, f"part {self.id!r}", positive=("width_mm", "length_mm", "height_mm", "due_h"))


@dataclass(frozen=True)
class MachineSpec:
    id: str
    width_mm: float
    length_mm: float
    height_mm: float
    layer_time_h_per_mm: float
    volumetric_time_h_per_mm3: float

    def __post_init__(self) -> None:
        _check(
            self,
            f"machine {self.id!r}",
            positive=("width_mm", "length_mm", "height_mm"),
            nonnegative=("layer_time_h_per_mm", "volumetric_time_h_per_mm3"),
        )

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
        _check(self, "penalties", nonnegative=("earliness", "tardiness"))


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
    try:
        return float(value)
    except OverflowError:
        raise InstanceError(f"{where}: field {key!r} is too large for a float") from None


def _record(cls, raw, where: str):
    """Build one ``cls`` record from its JSON object, field by field."""
    if not isinstance(raw, Mapping):
        raise InstanceError(f"{where} must be a JSON object")
    return cls(**{
        f.name: str(_require(raw, "id", where)) if f.name == "id" else _number(raw, f.name, where)
        for f in fields(cls)
    })


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

    machines = tuple(_record(MachineSpec, m, f"machines[{k}]") for k, m in enumerate(machines_raw))
    parts = tuple(_record(Part, p, f"parts[{k}]") for k, p in enumerate(parts_raw))
    pen_raw = doc.get("penalties")
    penalties = PenaltyCoefficients() if pen_raw is None else _record(PenaltyCoefficients, pen_raw, "penalties")

    jobs = doc.get("jobs_per_machine")
    if jobs is not None:
        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise InstanceError("jobs_per_machine must be an integer")

    return ProblemInstance(machines=machines, parts=parts, penalties=penalties, jobs_per_machine=jobs)


# ---------------------------------------------------------------------------
# CSV pair format
#
# The CSV headers follow the printed data tables the instances come from:
# machines carry a single "dimensions (h x w x l)" column while parts list
# width, length, height and delivery deadline separately.


def _norm_header(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "", name.lower())


def _find_column(path: Path, fieldnames: Sequence[str], *needles: str) -> str:
    for raw in fieldnames:
        normed = _norm_header(raw)
        if any(needle in normed for needle in needles):
            return raw
    raise InstanceError(
        f"{path.name}: no column matching {needles!r} in header {','.join(fieldnames)!r}"
    )


def _csv_rows(path: Path, columns: Mapping[str, tuple[str, ...]]) -> Iterator[tuple[str, dict[str, str]]]:
    """Yield ``(where, cells)`` for each data row of a CSV file.

    ``columns`` maps a key to the header needles that find its column;
    ``cells`` maps the same keys to the row's stripped text, and ``where``
    names the file and the line.  A row without one of the cells raises.
    """
    reader = csv.DictReader(io.StringIO(path.read_text(encoding="utf-8")))
    if not reader.fieldnames:
        raise InstanceError(f"{path.name} has no header row")
    found = {key: _find_column(path, reader.fieldnames, *needles) for key, needles in columns.items()}
    for row in reader:
        where = f"{path.name} line {reader.line_num}"
        cells = {}
        for key, column in found.items():
            if row[column] is None:
                raise InstanceError(f"{where}: missing {column!r} cell")
            cells[key] = row[column].strip()
        yield where, cells


def _csv_number(cells: Mapping[str, str], key: str, where: str) -> float:
    try:
        return float(cells[key])
    except ValueError:
        raise InstanceError(f"{where}: {key} cell {cells[key]!r} is not a number") from None


def _parse_dimension_triple(cell: str, where: str) -> tuple[float, float, float]:
    pieces = re.split(r"[x×]", cell.lower())
    if len(pieces) != 3:
        raise InstanceError(f"{where}: dimensions cell {cell!r} is not an 'h x w x l' triple")
    try:
        h, w, l = (float(piece.strip()) for piece in pieces)
    except ValueError as exc:
        raise InstanceError(f"{where}: bad dimensions cell {cell!r}") from exc
    return h, w, l


def _machines_from_csv(path: Path) -> list[MachineSpec]:
    columns = {
        "id": ("machine",), "layer": ("layer",), "volumetric": ("volumetric",), "dimensions": ("dimension",),
    }
    machines = []
    for where, cells in _csv_rows(path, columns):
        h, w, l = _parse_dimension_triple(cells["dimensions"], where)
        machines.append(
            MachineSpec(
                id=cells["id"],
                width_mm=w,
                length_mm=l,
                height_mm=h,
                layer_time_h_per_mm=_csv_number(cells, "layer", where),
                volumetric_time_h_per_mm3=_csv_number(cells, "volumetric", where),
            )
        )
    return machines


def _parts_from_csv(path: Path) -> list[Part]:
    columns = {
        "id": ("part",), "width": ("width",), "length": ("length",), "height": ("height",),
        "due": ("deadline", "due"),
    }
    return [
        Part(
            id=cells["id"],
            width_mm=_csv_number(cells, "width", where),
            length_mm=_csv_number(cells, "length", where),
            height_mm=_csv_number(cells, "height", where),
            due_h=_csv_number(cells, "due", where),
        )
        for where, cells in _csv_rows(path, columns)
    ]


def _from_csv_pair(directory: Path) -> ProblemInstance:
    """Read machines.csv and parts.csv; penalties and job slots take their defaults."""
    machines = _machines_from_csv(directory / "machines.csv")
    parts = _parts_from_csv(directory / "parts.csv")
    if not parts:
        raise InstanceError("empty part set")
    return ProblemInstance(machines=machines, parts=parts)


# ---------------------------------------------------------------------------
# Public entry points


def parse_instance(source) -> ProblemInstance:
    """Parse a JSON instance document: text, bytes or an already decoded mapping."""
    if isinstance(source, (str, bytes)):
        try:
            source = json.loads(source)
        except ValueError as exc:
            raise InstanceError(f"malformed JSON: {exc}") from exc
    return _from_json_doc(source)


def serialize_instance(instance: ProblemInstance) -> str:
    """Render an instance as a JSON document that parse_instance accepts."""
    return json.dumps(asdict(instance), indent=2, sort_keys=True) + "\n"


def instance_hash(instance: ProblemInstance) -> str:
    """Stable short content hash used to stamp output files."""
    canonical = json.dumps(asdict(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def load_instance(path) -> ProblemInstance:
    """Load an instance from a .json file or a directory holding a CSV pair."""
    p = Path(path)
    if p.is_dir():
        return _from_csv_pair(p)
    return parse_instance(p.read_bytes())


def scheduling_horizon(instance: ProblemInstance) -> float:
    """Hours that bound any job completion an optimal schedule needs (the model's big-M)."""
    height = max(m.height_mm for m in instance.machines)
    max_due = max((p.due_h for p in instance.parts), default=0.0)
    total_volume = sum(geometry.volume_mm3(p) for p in instance.parts)
    horizon = 0.0
    for m in instance.machines:
        horizon = max(
            horizon,
            max_due
            + m.volumetric_time_h_per_mm3 * total_volume
            + instance.jobs_per_machine * m.layer_time_h_per_mm * height,
        )
    return horizon


def validate(instance: ProblemInstance) -> ValidationReport:
    """Check an instance for problems the model cannot recover from.

    Errors make the instance unsolvable (a part that fits no machine in
    any orientation, or a scheduling horizon too large for a float).
    Warnings flag suspicious but legal data: zero penalty rates (the time
    objective degenerates) and a total minimum footprint that provably
    exceeds the plate area available across all job slots.
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

    horizon = scheduling_horizon(instance)
    if not math.isfinite(horizon):
        errors.append(
            ValidationIssue(
                code="horizon_overflow",
                subject="machines",
                message=f"scheduling horizon is {horizon!r}: due plus print times overflow a float",
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
