"""The package namespace covers every name the demos, the benchmark
scripts and the README import from ``kquad``."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kquad
import kquad.controller
import kquad.quadrature
import kquad.smc

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/*.py"))
SOURCES = DEMOS + sorted(ROOT.glob("perfbench/*.py"))


def readme_blocks():
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


CODE = {p.relative_to(ROOT).as_posix(): p.read_text() for p in SOURCES}
CODE.update((f"README.md block {i}", block)
            for i, block in enumerate(readme_blocks()))


def imported_from_kquad(source):
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "kquad"
            for alias in node.names}


def test_sources_found():
    assert len(SOURCES) >= 5
    assert readme_blocks()


@pytest.mark.parametrize("label", sorted(CODE))
def test_package_imports_are_exported(label):
    for name in sorted(imported_from_kquad(CODE[label])):
        assert name in kquad.__all__, f"{label}: {name} not in kquad.__all__"
        assert getattr(kquad, name) is not None


def test_all_resolves_without_duplicates():
    assert len(set(kquad.__all__)) == len(kquad.__all__) <= 40
    for name in kquad.__all__:
        getattr(kquad, name)


def test_no_nugget_knob_above_the_factor():
    # the jitter ladder is fixed below chol_factor_with_nugget, the
    # ladder and refit loops have fixed bounds and tolerances, and the
    # kernel-learning ladder refits at every rung
    assert "NuggetPolicy" not in kquad.__all__
    for module in (kquad, kquad.controller, kquad.quadrature):
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isfunction(obj):
                continue
            params = set(inspect.signature(obj).parameters)
            loop_knobs = {"max_steps", "cycles", "tol", "refit_every"}
            assert not loop_knobs & params, \
                f"{module.__name__}.{name} takes a loop knob"
            if name != "chol_factor_with_nugget":
                assert not {"nugget", "policy"} & params, \
                    f"{module.__name__}.{name} takes a nugget knob"


def test_particle_systems_carry_their_target():
    # a system is reweighted and moved with the target it was drawn for,
    # so only the function that draws it is handed one
    for name in kquad.smc.__all__:
        obj = getattr(kquad.smc, name)
        if inspect.isfunction(obj) and name != "init_particles":
            assert "target" not in inspect.signature(obj).parameters, \
                f"kquad.smc.{name} takes a target"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # an API change that breaks a demo fails here, not only on import
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
