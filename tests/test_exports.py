"""Every module's public names resolve, and the package re-exports only them."""

import importlib
import pkgutil

import pytest

import guidance_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(guidance_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_public_name(name):
    # a name left in __all__ after its definition is gone breaks `import *`
    exec(f"from guidance_lab.{name} import *", {})


def test_package_names_are_their_modules_public_names():
    exec("from guidance_lab import *", {})
    for name, value in vars(guidance_lab).items():
        module = getattr(value, "__module__", None)
        if name.startswith("_") or not (module or "").startswith("guidance_lab."):
            continue
        assert name in importlib.import_module(module).__all__, (name, module)
