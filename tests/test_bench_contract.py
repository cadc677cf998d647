"""The benchmark's tracer and workloads find every name they use.

``perfbench/spans.py`` patches package entry points by name and
``perfbench/workloads.py`` imports others; if one of those names goes
away, or a signature stops accepting the way the workloads call it,
every traced operation of the benchmark fails.  These tests load both
files by path and change nothing under ``perfbench/``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import printplan.cli  # noqa: F401  (the tracer patches the CLI too)
import printplan.solver
from printplan.datasets import random_instance
from printplan.model import Objective, build_model

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_every_traced_target_resolves(spans):
    assert spans.TARGETS
    for span_name, module_name, attr, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            # patched in the class body, so it must be defined there
            assert attr in vars(getattr(owner, cls_name)), span_name
        else:
            assert callable(getattr(owner, attr, None)), span_name


def test_tracer_installs_and_restores(spans):
    originals = {
        (module_name, attr): getattr(sys.modules[module_name], attr)
        for _, module_name, attr, _ in spans.TARGETS
        if "." not in attr
    }
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for (module_name, attr), original in originals.items():
        assert getattr(sys.modules[module_name], attr) is original


def test_tracer_annotations_read_a_real_solve(spans):
    # the spans must carry what the solve did: its node count, and warm
    # node LPs after the cold root
    model = build_model(random_instance(0), Objective.Z)
    tracer = spans.Tracer()
    tracer.install()
    try:
        sol = printplan.solver.solve_milp(model)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["solver.nodes"] == sol.node_count
    assert 0 < metrics["simplex.cold_share"] < 1


def test_workloads_import_cleanly():
    workloads = _load("workloads")
    assert workloads.FrontNine.name == "front_nine"


def test_workload_calls_bind_to_package_signatures():
    # read, not run: each call to a name imported from printplan (or an
    # attribute of one) must bind its positional count and keyword names
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "printplan":
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module, alias.name)

    def resolve(func):
        if isinstance(func, ast.Name):
            return imported.get(func.id)
        if isinstance(func, ast.Attribute):
            owner = resolve(func.value)
            return None if owner is None else getattr(owner, func.attr)
        return None

    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve(node.func)
        if target is None:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), node.lineno
        assert all(k.arg is not None for k in node.keywords), node.lineno
        try:
            inspect.signature(target).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            pytest.fail(f"workloads.py:{node.lineno} {ast.unparse(node.func)}: {exc}")
        checked += 1
    assert checked
