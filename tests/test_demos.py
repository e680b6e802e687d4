"""The demos are scripts that no other test runs, so an API change could
break one silently.  Every name a demo imports from latscale must
resolve, and the simulator demo, the quickest, must run to the end."""
import ast
import importlib
import importlib.util
import os
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


def test_simulator_demo_runs(tmp_path):
    src = str(Path(latscale.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(DEMOS / "01_simulate_robotshop.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Dataset:" in done.stdout
