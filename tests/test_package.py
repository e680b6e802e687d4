import importlib

import pytest


@pytest.mark.parametrize("module_name", ["latscale", "latscale.nn"])
def test_every_exported_name_resolves(module_name):
    """A stale ``__all__`` entry fails only under ``import *``, so check it here."""
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names what it does not define: {missing}"
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
