import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists():
    """A renamed or moved entry point must fail here, not only under --trace 1."""
    tracing = load_tracing()
    missing = []
    for module_name, path, _ in tracing.TRACED:
        module = importlib.import_module(f"latscale.{module_name}")
        try:
            owner, attr = tracing._resolve(module, path)
        except AttributeError:
            missing.append(f"latscale.{module_name}.{path}")
            continue
        if not callable(vars(owner).get(attr)):
            missing.append(f"latscale.{module_name}.{path}")
    assert not missing, f"traced entry points not found: {', '.join(missing)}"
