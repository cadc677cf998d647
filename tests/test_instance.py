from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from printplan import datasets
from printplan.instance import (
    InstanceError,
    MachineSpec,
    Part,
    PenaltyCoefficients,
    ProblemInstance,
    instance_hash,
    load_instance,
    parse_instance,
    serialize_instance,
    validate,
)

MINIMAL_DOC = {
    "machines": [
        {
            "id": "m1",
            "width_mm": 250.0,
            "length_mm": 250.0,
            "height_mm": 200.0,
            "layer_time_h_per_mm": 0.00006,
            "volumetric_time_h_per_mm3": 0.000003,
        }
    ],
    "parts": [
        {"id": "p1", "width_mm": 10.0, "length_mm": 10.0, "height_mm": 10.0, "due_h": 1.0}
    ],
    "penalties": {"earliness": 1.0, "tardiness": 1.0},
    "jobs_per_machine": 1,
}


def test_parse_minimal_json():
    inst = parse_instance(json.dumps(MINIMAL_DOC))
    assert inst.machines[0].base_area_mm2 == 62500
    assert inst.parts[0].due_h == 1.0
    assert inst.jobs_per_machine == 1


def test_parse_defaults():
    doc = {k: v for k, v in MINIMAL_DOC.items() if k in ("machines", "parts")}
    doc["parts"] = doc["parts"] + [dict(doc["parts"][0], id="p2"), dict(doc["parts"][0], id="p3")]
    inst = parse_instance(json.dumps(doc))
    assert inst.penalties == PenaltyCoefficients(1.0, 1.0)
    # one job slot per part when unspecified
    assert inst.jobs_per_machine == 3


def test_parse_rejects_empty_parts():
    doc = dict(MINIMAL_DOC, parts=[])
    with pytest.raises(InstanceError, match="empty part set"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_missing_field():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    del doc["parts"][0]["due_h"]
    with pytest.raises(InstanceError, match="due_h"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_nonpositive_dimension():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["parts"][0]["height_mm"] = 0
    with pytest.raises(InstanceError, match="strictly positive"):
        parse_instance(json.dumps(doc))


_NUMBER_FIELDS = (
    [("machines", name) for name in ("width_mm", "length_mm", "height_mm",
                                     "layer_time_h_per_mm", "volumetric_time_h_per_mm3")]
    + [("parts", name) for name in ("width_mm", "length_mm", "height_mm", "due_h")]
    + [("penalties", name) for name in ("earliness", "tardiness")]
)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("section,name", _NUMBER_FIELDS, ids=[f"{s}.{n}" for s, n in _NUMBER_FIELDS])
def test_parse_rejects_non_finite_number(section, name, value):
    # Python's json reads Infinity and NaN, so the documents carry them
    doc = json.loads(json.dumps(MINIMAL_DOC))
    target = doc[section] if section == "penalties" else doc[section][0]
    target[name] = value
    text = json.dumps(doc)
    assert "Infinity" in text or "NaN" in text
    with pytest.raises(InstanceError, match=f"{name} must be finite"):
        parse_instance(text)


def test_parse_rejects_duplicate_part_ids():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["parts"].append(dict(doc["parts"][0]))
    with pytest.raises(InstanceError, match="duplicate part id"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_bad_json():
    with pytest.raises(InstanceError, match="malformed JSON"):
        parse_instance("{not json")


def test_csv_pair_round_trip(tmp_path):
    machines_csv = (
        "Machine,Layer Production Time (h/mm),Volumetric Production Time (h/mm3),Dimensions (h x w x l)\n"
        "m1,0.00006,0.000003,200 x 250 x 250\n"
        "m2,0.00006,0.000003,200 x 250 x 250\n"
    )
    parts_csv = (
        "Part,Width (mm),Length (mm),Height (mm),Delivery Deadline (h)\n"
        "p1,5,100,14,24\n"
        "p2,19,19,8,26\n"
    )
    (tmp_path / "machines.csv").write_text(machines_csv, encoding="utf-8")
    (tmp_path / "parts.csv").write_text(parts_csv, encoding="utf-8")
    inst = load_instance(tmp_path)
    assert len(inst.machines) == 2
    assert inst.machines[0].height_mm == 200
    assert inst.machines[0].width_mm == 250
    assert inst.parts[1].width_mm == 19
    assert inst.parts[1].due_h == 26
    # CSV input carries no penalties or job-count row, so defaults apply
    assert inst.penalties == PenaltyCoefficients(1.0, 1.0)
    assert inst.jobs_per_machine == 2


def test_csv_pair_accepts_multiplication_sign(tmp_path):
    machines_csv = (
        "Machine,Layer Production Time (h/mm),Volumetric Production Time (h/mm3),Dimensions (h × w × l)\n"
        "m1,0.00006,0.000003,200 × 250 × 250\n"
    )
    parts_csv = "Part,Width (mm),Length (mm),Height (mm),Delivery Deadline (h)\np1,1,2,3,4\n"
    (tmp_path / "machines.csv").write_text(machines_csv, encoding="utf-8")
    (tmp_path / "parts.csv").write_text(parts_csv, encoding="utf-8")
    inst = load_instance(tmp_path)
    assert inst.machines[0].length_mm == 250


def test_serialize_then_parse_is_identity(nine_parts):
    again = parse_instance(serialize_instance(nine_parts))
    assert again == nine_parts


# Every output CSV's provenance line carries instance_hash, so these values
# pin the instance schema's bytes across changes to the reader and writer.
PINNED_HASHES = {
    "nine_parts": "1a6a90add8ae",
    "twenty_parts": "8796fdf42ea4",
    "fifteen_parts_time_study": "64910a7aedc1",
    "fifteen_parts_area_study": "f50356814dcd",
}


def test_instance_hash_pinned(nine_parts, twenty_parts):
    assert {name: instance_hash(datasets.load_builtin(name)) for name in PINNED_HASHES} == PINNED_HASHES
    reshaped = {
        "5a5b9ed67051": datasets.with_machine_count(nine_parts, 3),
        "b2b5bf3d06ce": datasets.part_prefix(twenty_parts, 6),
    }
    for digest, inst in reshaped.items():
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text
        assert instance_hash(again) == instance_hash(inst) == digest


def test_instance_hash_stable(nine_parts):
    h1 = instance_hash(nine_parts)
    h2 = instance_hash(parse_instance(serialize_instance(nine_parts)))
    assert h1 == h2
    assert len(h1) == 12


def test_load_instance_json(tmp_path, nine_parts):
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(nine_parts))
    assert load_instance(path) == nine_parts


def test_validate_benchmark_instance_clean(nine_parts):
    report = validate(nine_parts)
    assert report.ok
    assert report.errors == ()
    assert report.warnings == ()


def test_validate_flags_unprintable_part():
    inst = ProblemInstance(
        machines=(
            MachineSpec(
                id="m1",
                width_mm=50.0,
                length_mm=80.0,
                height_mm=200.0,
                layer_time_h_per_mm=0.00006,
                volumetric_time_h_per_mm3=0.000003,
            ),
        ),
        parts=(Part(id="big", width_mm=190, length_mm=190, height_mm=180, due_h=16),),
    )
    report = validate(inst)
    assert not report.ok
    assert report.errors[0].code == "no_feasible_orientation"
    assert report.errors[0].subject == "big"


def test_validate_flags_horizon_overflow():
    # every number is finite, but one job slot's layer time at full height is not
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["machines"][0]["layer_time_h_per_mm"] = 1e308
    report = validate(parse_instance(json.dumps(doc).encode()))
    assert not report.ok
    assert [e.code for e in report.errors] == ["horizon_overflow"]
    assert "scheduling horizon is inf" in report.errors[0].message


def test_validate_warns_on_zero_penalties(nine_parts):
    inst = ProblemInstance(
        machines=nine_parts.machines,
        parts=nine_parts.parts,
        penalties=PenaltyCoefficients(0.0, 0.0),
        jobs_per_machine=2,
    )
    report = validate(inst)
    assert report.ok
    assert any(w.code == "degenerate_time_objective" for w in report.warnings)


def test_validate_warns_when_plates_cannot_hold_parts():
    machine = MachineSpec(
        id="m1",
        width_mm=10.0,
        length_mm=10.0,
        height_mm=200.0,
        layer_time_h_per_mm=0.0,
        volumetric_time_h_per_mm3=0.0,
    )
    parts = tuple(
        Part(id=f"p{i}", width_mm=9.0, length_mm=9.0, height_mm=9.0, due_h=1.0) for i in range(4)
    )
    inst = ProblemInstance(machines=(machine,), parts=parts, jobs_per_machine=2)
    report = validate(inst)
    # each 81 mm2 footprint fits a 100 mm2 plate, but four of them cannot
    # share two job slots
    assert report.ok
    assert any(w.code == "capacity_insufficient" for w in report.warnings)


def test_builtin_datasets_load_and_validate():
    for name in datasets.BUILTIN_NAMES:
        inst = datasets.load_builtin(name)
        assert validate(inst).ok, name


def test_builtin_sizes():
    assert len(datasets.load_builtin("nine_parts").parts) == 9
    assert len(datasets.load_builtin("twenty_parts").parts) == 20
    assert len(datasets.load_builtin("fifteen_parts_time_study").parts) == 15
    assert len(datasets.load_builtin("fifteen_parts_area_study").parts) == 15


def test_part_prefix(twenty_parts, nine_parts):
    sub = datasets.part_prefix(twenty_parts, 6)
    assert [p.id for p in sub.parts] == ["p1", "p2", "p3", "p4", "p5", "p6"]
    # a prefix keeps the declared slots, capped at its part count
    assert nine_parts.jobs_per_machine == 2
    assert datasets.part_prefix(nine_parts, 5).jobs_per_machine == 2
    assert datasets.part_prefix(nine_parts, 1).jobs_per_machine == 1
    assert datasets.part_prefix(twenty_parts, 6).jobs_per_machine == 6


def test_with_machine_count(nine_parts):
    solo = datasets.with_machine_count(nine_parts, 1)
    assert len(solo.machines) == 1
    trio = datasets.with_machine_count(nine_parts, 3)
    assert len(trio.machines) == 3
    assert trio.machines[2].base_area_mm2 == nine_parts.machines[0].base_area_mm2


def test_random_instances_are_deterministic_and_valid():
    a = datasets.random_instance(7)
    b = datasets.random_instance(7)
    assert a == b
    assert validate(a).ok


ids = st.integers(min_value=0, max_value=10_000)


@given(ids)
def test_random_instance_round_trips(seed):
    inst = datasets.random_instance(seed)
    assert parse_instance(serialize_instance(inst)) == inst


# JSON-like documents: arbitrary nesting, and documents shaped like an
# instance whose records are valid, partly junk, or not objects at all
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400), st.floats(), st.text(max_size=4)
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)


def _record_like(example):
    plausible = {
        name: st.sampled_from(["a", "b"]) if name == "id" else st.floats(min_value=1e-3, max_value=1e3)
        for name in example
    }
    mixed = {name: value | json_values for name, value in plausible.items()}
    return st.fixed_dictionaries(plausible) | st.fixed_dictionaries({}, optional=mixed) | json_values


instance_like = st.fixed_dictionaries(
    {
        "machines": st.lists(_record_like(MINIMAL_DOC["machines"][0]), min_size=1, max_size=2),
        "parts": st.lists(_record_like(MINIMAL_DOC["parts"][0]), min_size=1, max_size=3),
    },
    optional={
        "penalties": _record_like(MINIMAL_DOC["penalties"]),
        "jobs_per_machine": st.integers(min_value=-1, max_value=3) | json_values,
    },
)


@given(json_values | instance_like)
def test_parse_instance_raises_only_instance_error(doc):
    for source in (doc, json.dumps(doc)):
        try:
            inst = parse_instance(source)
        except InstanceError:
            continue
        assert isinstance(inst, ProblemInstance)
