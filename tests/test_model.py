"""Model structure: column layout, row census, big-M bounds, LP text."""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from printplan.datasets import BUILTIN_NAMES, load_builtin, random_instance
from printplan.instance import MachineSpec, Part, PenaltyCoefficients, ProblemInstance
from printplan.model import (
    _LAYOUT,
    Objective,
    build_model,
    build_registry,
    cap_objective,
    compute_big_m,
    inject_epsilon,
    write_lp,
)
from printplan.solver import SolveStatus, solve_milp


@pytest.fixture(scope="module")
def nine():
    return load_builtin("nine_parts")


@pytest.fixture(scope="module")
def nine_model(nine):
    return build_model(nine, Objective.Z)


def expected_columns(n, j, m):
    return 3 * n * j * m + 4 * j * m + 7 * n


def expected_rows(n, j, m):
    return 7 * n * j * m + n * m + 7 * n + 3 * j * m + 2 * (j - 1) * m + m


def expected_binaries(n, j, m):
    return n * j * m + j * m + 2 * n


def row_of(model, name):
    """The named row as ({column: coefficient}, sense, rhs)."""
    r = model.row_names.index(name)
    row, col, val = model.coords
    return dict(zip(col[row == r].tolist(), val[row == r].tolist())), model.senses[r], model.rhs[r]


def assert_same_rows(model, other):
    assert model.row_names == other.row_names
    assert np.array_equal(model.senses, other.senses)
    assert np.array_equal(model.rhs, other.rhs)
    for mine, theirs in zip(model.coords, other.coords):
        assert np.array_equal(mine, theirs)


# size census


def test_nine_part_model_is_exactly_the_frozen_size(nine_model):
    assert nine_model.registry.n_columns == 187
    assert len(nine_model.row_names) == 351
    assert nine_model.registry.n_binaries == 58


@pytest.mark.parametrize("n_parts,n_machines,jobs", [(2, 1, 1), (3, 2, 2), (4, 2, 3)])
def test_size_formulas_hold(n_parts, n_machines, jobs):
    inst = random_instance(11, n_parts=n_parts, n_machines=n_machines, jobs_per_machine=jobs)
    model = build_model(inst, Objective.Z)
    assert model.registry.n_columns == expected_columns(n_parts, jobs, n_machines)
    assert len(model.row_names) == expected_rows(n_parts, jobs, n_machines)
    assert model.registry.n_binaries == expected_binaries(n_parts, jobs, n_machines)


def test_nine_part_row_family_census(nine_model):
    census = Counter(name.split("_")[0] for name in nine_model.row_names)
    assert census == {
        "asg": 9, "lnk": 4, "ori": 9, "hdef": 9, "adef": 9, "hcap": 18,
        "acap": 4, "lau": 36, "lap": 36, "lal": 36, "jmax": 36, "ptime": 4,
        "seq": 2, "first": 2, "cdef": 9, "lcu": 36, "lcc": 36, "lcl": 36,
        "tar": 9, "ear": 9, "ord": 2,
    }


def test_rows_reference_valid_columns_and_senses(nine_model):
    n_cols = nine_model.registry.n_columns
    for sense in nine_model.senses:
        assert sense in "<=>"
    for col in nine_model.coords[1]:
        assert 0 <= col < n_cols


# coordinate form


def coordinate_model(case):
    nine = load_builtin("nine_parts")
    if case == "zero_parts":
        return build_model(ProblemInstance(machines=nine.machines, parts=()))
    model = build_model(nine)
    if case == "nine_parts":
        return model
    capped = inject_epsilon(cap_objective(model, Objective.Z, 30.0), 70000.0)
    # re-capping z drops its row from the middle of the cap rows
    return capped if case == "capped" else cap_objective(inject_epsilon(capped, 65000.0), Objective.Z, 20.0)


@pytest.mark.parametrize("case", ["nine_parts", "zero_parts", "capped", "recapped"])
def test_coordinates_are_sorted_zero_free_and_scatter_to_dense_rows(case):
    model = coordinate_model(case)
    row, col, val = model.coords
    n_rows, n_cols = len(model.row_names), model.registry.n_columns
    assert model.senses.shape == model.rhs.shape == (n_rows,)
    assert row.shape == col.shape == val.shape
    assert np.all((0 <= row) & (row < n_rows)) and np.all((0 <= col) & (col < n_cols))
    # row-major with ascending columns, so no (row, col) repeats
    assert np.all(np.diff(row * n_cols + col) > 0)
    assert np.all(val != 0.0)
    dense = np.zeros((n_rows, n_cols))
    np.add.at(dense, (row, col), val)
    assert np.array_equal(model.dense_rows(), dense)
    if case == "recapped":
        assert model.row_names[-2:] == ("cap_zz", "cap_z")
        assert model.rhs[-2:].tolist() == [65000.0, 20.0]


def test_zero_part_model_keeps_its_empty_rows():
    model = coordinate_model("zero_parts")
    n_machines = len(model.instance.machines)
    assert len(model.row_names) == expected_rows(0, 1, n_machines)
    for m in range(n_machines):
        coeffs, sense, rhs = row_of(model, f"acap_j1_m{m + 1}")
        assert coeffs == {} and sense == "<" and rhs == model.instance.machines[m].base_area_mm2


# registry layout


def test_registry_column_order_and_names(nine):
    reg = build_registry(nine)
    assert reg.name(0) == "x_i1_j1_m1"
    assert reg.name(1) == "x_i1_j1_m2"   # machine index varies fastest
    assert reg.name(2) == "x_i1_j2_m1"
    assert reg.col("x", 0, 0, 0) == 0
    assert reg.col("y", 0, 0) == 36      # y block follows the 9*2*2 x block
    assert reg.name(reg.col("b", 0)) == "b_i1"
    assert reg.by_name("jc_j2_m2") == reg.col("jc", 1, 1)
    with pytest.raises(KeyError, match="unknown variable"):
        reg.by_name("q_i1")


def test_registry_builds_names_on_first_lookup(nine):
    # decode reads blocks only, so a fresh registry holds no names until
    # one is asked for; the first lookup builds them all
    reg = build_registry(nine)
    assert reg.n_columns == 187
    assert reg.block("x").shape == (9, 2, 2)
    assert "_names" not in vars(reg) and "_by_name" not in vars(reg)
    assert reg.by_name("lc_i9_j2_m2") == reg.n_columns - 1
    assert len(vars(reg)["_names"]) == reg.n_columns


def test_registry_layout_ignores_orientation_mode(nine):
    free = build_model(nine)
    fixed = build_model(nine, fixed_orientation=True)
    reg = free.registry
    assert [reg.name(c) for c in range(reg.n_columns)] == [
        fixed.registry.name(c) for c in range(fixed.registry.n_columns)
    ]
    for fam in ("b", "f"):
        for i in range(len(nine.parts)):
            assert free.upper[reg.col(fam, i)] == 1.0
            assert fixed.upper[fixed.registry.col(fam, i)] == 0.0
    others = np.concatenate([reg.block(fam).ravel() for fam, _, _ in _LAYOUT if fam not in ("b", "f")])
    assert np.array_equal(free.upper[others], fixed.upper[others])


@pytest.mark.parametrize("n_parts,jobs,n_machines", [(1, 1, 1), (2, 3, 1), (3, 2, 2), (4, 1, 3)])
def test_registry_blocks_tile_the_columns(n_parts, jobs, n_machines):
    inst = random_instance(5, n_parts=n_parts, n_machines=n_machines, jobs_per_machine=jobs)
    reg = build_registry(inst)
    sizes = {"i": n_parts, "j": jobs, "m": n_machines}
    start = 0
    for fam, shape, _ in _LAYOUT:
        block = reg.block(fam)
        assert block.shape == tuple(sizes[t] for t in shape)
        assert block.ravel().tolist() == list(range(start, start + block.size))
        start += block.size
    assert start == reg.n_columns
    assert reg.n_binaries == expected_binaries(n_parts, jobs, n_machines)
    binaries = [reg.block(fam).ravel() for fam, _, binary in _LAYOUT if binary]
    assert np.concatenate(binaries).tolist() == list(range(reg.n_binaries))
    for c in range(reg.n_columns):
        assert reg.by_name(reg.name(c)) == c


def test_registry_bounds(nine):
    model = build_model(nine)
    reg, up = model.registry, model.upper
    assert up.shape == (reg.n_columns,)
    bundle = compute_big_m(nine)
    for j in range(2):
        for m in range(2):
            assert up[reg.col("jc", j, m)] == bundle.horizon
    assert math.isinf(up[reg.col("ph", 0)])
    assert up[reg.col("x", 0, 0, 0)] == 1.0


# big-M bundle


def test_nine_part_big_m_values(nine):
    bundle = compute_big_m(nine)
    assert bundle.count == 9.0
    assert bundle.height == 200.0
    assert bundle.area[0] == 1400.0  # part one: 5 x 100 x 14, tipped onto 100 x 14
    assert bundle.horizon == pytest.approx(28.05920911, abs=1e-6)


def test_big_m_horizon_covers_any_reasonable_schedule(nine):
    # one job holding everything, started as late as the largest due date
    bundle = compute_big_m(nine)
    machine = nine.machines[0]
    from printplan.geometry import volume_mm3

    total_volume = sum(volume_mm3(p) for p in nine.parts)
    worst = max(p.due_h for p in nine.parts) + machine.volumetric_time_h_per_mm3 * total_volume
    assert bundle.horizon >= worst


# orientation coefficients


def make_single_part_instance(width=3.0, length=7.0, height=11.0):
    machine = MachineSpec(
        id="m1", width_mm=50.0, length_mm=50.0, height_mm=50.0,
        layer_time_h_per_mm=0.01, volumetric_time_h_per_mm3=1e-5,
    )
    part = Part(id="p1", width_mm=width, length_mm=length, height_mm=height, due_h=5.0)
    return ProblemInstance(
        machines=(machine,), parts=(part,),
        penalties=PenaltyCoefficients(earliness=1.0, tardiness=1.0),
        jobs_per_machine=1,
    )


def test_height_definition_row_coefficients():
    inst = make_single_part_instance()
    model = build_model(inst, Objective.Z)
    reg = model.registry
    coeffs, sense, rhs = row_of(model, "hdef_i1")
    assert sense == "="
    assert rhs == 11.0
    assert coeffs[reg.col("ph", 0)] == 1.0
    assert coeffs[reg.col("b", 0)] == 11.0 - 7.0   # length-up swaps in the length
    assert coeffs[reg.col("f", 0)] == 11.0 - 3.0   # width-up swaps in the width


def test_area_definition_row_coefficients():
    inst = make_single_part_instance()
    model = build_model(inst, Objective.Z)
    reg = model.registry
    coeffs, _, rhs = row_of(model, "adef_i1")
    assert rhs == 21.0                                  # flat footprint 7 x 3
    assert coeffs[reg.col("b", 0)] == 21.0 - 3.0 * 11.0
    assert coeffs[reg.col("f", 0)] == 21.0 - 11.0 * 7.0


def test_objective_vectors(nine_model):
    reg = nine_model.registry
    z = nine_model.objective_z
    zz = nine_model.objective_zz
    assert z[reg.col("e", 0)] == 1.0 and z[reg.col("t", 0)] == 1.0
    assert np.count_nonzero(z) == 18
    assert zz[reg.col("y", 0, 0)] == 62500.0
    assert zz[reg.col("la", 0, 0, 0)] == -1.0
    assert np.count_nonzero(zz) == 4 + 36
    assert nine_model.objective is z
    values = np.zeros(reg.n_columns)
    values[reg.col("t", 3)] = 2.5
    assert float(z @ values) == 2.5


def test_build_model_rejects_invalid_instance():
    inst = make_single_part_instance(width=80.0, length=80.0, height=80.0)
    with pytest.raises(ValueError, match="instance failed validation"):
        build_model(inst, Objective.Z)


# epsilon and refinement caps


def test_inject_epsilon_adds_then_replaces_the_cap(nine_model):
    capped = inject_epsilon(nine_model, 70000.0)
    n_before = len(nine_model.row_names)
    assert len(capped.row_names) == n_before + 1
    coeffs, sense, rhs = row_of(capped, "cap_zz")
    assert capped.row_names[-1] == "cap_zz" and sense == "<" and rhs == 70000.0
    assert coeffs == {
        c: float(v) for c, v in enumerate(nine_model.objective_zz) if v != 0.0
    }

    recapped = inject_epsilon(capped, 65000.0)
    assert len(recapped.row_names) == n_before + 1
    assert recapped.rhs[-1] == 65000.0
    assert recapped.row_names[-1] == "cap_zz"


def test_infinite_cap_adds_no_row(nine_model):
    assert_same_rows(inject_epsilon(nine_model, math.inf), nine_model)
    assert_same_rows(cap_objective(nine_model, Objective.Z, math.inf), nine_model)
    # and it lifts an earlier cap on the same objective
    capped = inject_epsilon(nine_model, 70000.0)
    assert_same_rows(inject_epsilon(capped, math.inf), nine_model)


@pytest.mark.parametrize("bound", [-math.inf, math.nan], ids=["-inf", "nan"])
def test_minus_infinity_or_nan_cap_is_refused(bound):
    # only +inf lifts a cap; neither of these may silently drop it
    model_z = build_model(random_instance(0), Objective.Z)
    with pytest.raises(ValueError, match=r"cap on zz must be finite or \+inf"):
        inject_epsilon(model_z, bound)
    with pytest.raises(ValueError, match=r"cap on z must be finite or \+inf"):
        cap_objective(model_z, Objective.Z, bound)
    assert solve_milp(inject_epsilon(model_z, -1.0)).status is SolveStatus.Infeasible


def test_infinite_cap_solves_like_no_cap():
    zz_model = build_model(random_instance(3), Objective.ZZ)
    free = solve_milp(zz_model)
    capped = solve_milp(cap_objective(zz_model, Objective.Z, math.inf))
    assert capped.status is SolveStatus.Optimal
    assert capped.objective == free.objective


def test_inject_epsilon_requires_time_objective(nine):
    zz_model = build_model(nine, Objective.ZZ)
    with pytest.raises(ValueError, match="time objective"):
        inject_epsilon(zz_model, 70000.0)


def test_cap_objective_keeps_active_objective(nine):
    zz_model = build_model(nine, Objective.ZZ)
    capped = cap_objective(zz_model, Objective.Z, 3.0)
    assert capped.active_objective is Objective.ZZ
    assert capped.row_names[-1] == "cap_z"
    assert capped.rhs[-1] == 3.0
    tighter = cap_objective(capped, Objective.Z, 1.0)
    assert sum(1 for name in tighter.row_names if name == "cap_z") == 1
    assert tighter.rhs[-1] == 1.0


# LP text


def test_lp_text_sections_and_orientation_pinning(nine):
    model = inject_epsilon(build_model(nine, Objective.Z, fixed_orientation=True), 70000.0)
    text = write_lp(model)
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert f"\n{section}\n" in text or text.startswith(section)
    assert " b_i1 = 0" in text          # pinned pose shows up as a fixed binary
    assert " cap_zz:" in text
    assert "asg_i1:" in text
    assert "x_i1_j1_m1" in text


def test_lp_text_writes_an_empty_cap_row_with_one_zero_term():
    # zero penalties leave the time objective, and so its cap, without terms
    inst = random_instance(0)
    inst = replace(inst, penalties=PenaltyCoefficients(earliness=0.0, tardiness=0.0))
    model = cap_objective(build_model(inst, Objective.ZZ), Objective.Z, 5.0)
    text = write_lp(model)
    assert " cap_z: 0 x_i1_j1_m1 <= 5\n" in text


def test_lp_text_objective_line(nine):
    model = build_model(nine, Objective.ZZ)
    first = write_lp(model).splitlines()
    assert first[0] == "Minimize"
    assert first[1].startswith(" obj: 62500 y_j1_m1")


# sha256 of write_lp for every builtin, objective and orientation mode:
# any change to column order, row order, names, coefficients or bounds
# changes the LP bytes an external solver reads
PINNED_LP_SHA256 = {
    ("nine_parts", "z", False): "1ce9c5e26c5ec0c704187dc5c008bfea888bd6421bf1e9e4d67fe7a02d89cd2a",
    ("nine_parts", "z", True): "a13e18e8d3aa8231b7aeb9b2b3b4961e2afac5b2631a1afeed4b93567c28d1f2",
    ("nine_parts", "zz", False): "07b6683622518d9f346d1de9da059f913191db15298758a6536f8cd5cee27c48",
    ("nine_parts", "zz", True): "934ff38a4f5609e063b70a0eaec739340b15e2cb87cd807ece21c5fe26630a00",
    ("twenty_parts", "z", False): "0338fd810cd440b0aed859aa4a1cb9229d520108b224dd32205f60afc0710dce",
    ("twenty_parts", "z", True): "6a8cf4c3dce15f528b592aad507046d671f780ad79828fe3133f84322f6f8ad5",
    ("twenty_parts", "zz", False): "fe8a798f0089ecf91734f7d0bb3444bf0053996276c309d093b04c6cfa263ea7",
    ("twenty_parts", "zz", True): "f17284369b17689afd04942e7a244a35aa6fd4c27b154c24c8299dbe030f1978",
    ("fifteen_parts_time_study", "z", False): "4e045eefa730335dbe56eee9974b75fc4e275e45218a970b117f6b45138c15c0",
    ("fifteen_parts_time_study", "z", True): "8b58a2c77ee11e665e4d1de14274e342afa8af3fab2cdd9ec652acc3668b2ef3",
    ("fifteen_parts_time_study", "zz", False): "0b8e454e891153b868f6e8a56603e71b5e22bee887ab05cc8fe47815ce09cdb3",
    ("fifteen_parts_time_study", "zz", True): "17391776e061b088f9989eade661c85807bf978d43ea0a486e84c9d406f3acb4",
    ("fifteen_parts_area_study", "z", False): "06ef562d9da51a9a55b4964a8e6d5c5e85f1787033fb61a60e9b530c6d782512",
    ("fifteen_parts_area_study", "z", True): "692633507501fed440cee5e999d0e5f5bb8d768e3c552a2b6d230ca45a358d3c",
    ("fifteen_parts_area_study", "zz", False): "3779d423ddd41b0677ac2d4c177b76ad2824e98f117442829428b91c001136bf",
    ("fifteen_parts_area_study", "zz", True): "35cd69eb563048635d17f9abd8aeaeaac855fd3f15653003645f0fe28f3a9e10",
}
PINNED_EPSILON_LP_SHA256 = "7c27e2b1b422254dc4f59b9e55316b5c1e85ea53500997e4d570ff2a27718ff8"


def _lp_sha256(model) -> str:
    return hashlib.sha256(write_lp(model).encode()).hexdigest()


def test_lp_text_pinned():
    digests = {}
    for name in BUILTIN_NAMES:
        inst = load_builtin(name)
        for objective in Objective:
            for fixed in (False, True):
                model = build_model(inst, objective, fixed_orientation=fixed)
                digests[(name, objective.value, fixed)] = _lp_sha256(model)
    assert digests == PINNED_LP_SHA256
    capped = inject_epsilon(build_model(load_builtin("nine_parts"), Objective.Z), 70000.0)
    assert _lp_sha256(capped) == PINNED_EPSILON_LP_SHA256
