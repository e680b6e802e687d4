"""The demos are scripts that no other test runs, so an API change could
break one silently.  Every name a demo imports from latscale must
resolve, and the simulator demo and the library-level scaling demo
must run to the end."""
import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latscale

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def latscale_imports(path):
    """(module, name) for each ``from latscale... import name`` in the
    file, and (module, None) for each ``import latscale...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latscale":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "latscale")


def resolves(module_name, name):
    module = importlib.import_module(module_name)
    return name is None or hasattr(module, name) or (
        importlib.util.find_spec(f"{module_name}.{name}") is not None)


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_every_latscale_import_resolves(demo):
    imports = list(latscale_imports(demo))
    assert imports, f"{demo.name} imports nothing from latscale"
    missing = [f"{module}.{name}" for module, name in imports if not resolves(module, name)]
    assert not missing, f"{demo.name} imports what latscale does not define: {missing}"


def run_demo(name, cwd):
    """Run the demo ``name`` to its end in ``cwd``; returns its stdout."""
    src = str(Path(latscale.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_simulator_demo_runs(tmp_path):
    assert "Dataset:" in run_demo("01_simulate_robotshop.py", tmp_path)


def test_scaling_demo_runs(tmp_path):
    """The library-level loop reads theta, beta and the plan as the
    library returns them, and prints one line per planned action."""
    out = run_demo("03_importance_to_scaling.py", tmp_path)
    plan = out.split("plan actions:\n")[1].split("\n\n")[0].splitlines()
    assert plan and all(re.fullmatch(r"  \S+: pods \d+ -> \d+ \(factor \d+\.\d\d\)", line)
                        for line in plan), plan
    assert "closed loop: p95" in out
