"""Every module's public names resolve and are run by the package or the bench;
the package root binds none of them."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import types

import pytest

import guidance_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(guidance_lab.__path__))
SRC = os.path.dirname(os.path.abspath(guidance_lab.__file__))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_public_name(name):
    # a name left in __all__ after its definition is gone breaks `import *`
    exec(f"from guidance_lab.{name} import *", {})


def test_package_root_binds_no_module_name():
    # each name is imported from its module; the root holds only submodules
    bound = [name for name, value in vars(guidance_lab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert bound == []


def _references(path, own=None):
    """(module, name) pairs a file reaches: what it imports from a package
    module, the attributes it reads off one, and, for a package module
    ``own``, the names it loads from its own globals.  In a bench file a
    variable named after a module, such as the tracer's ``parallel``, is
    that module."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {} if own else {m.lstrip("_"): m for m in MODULES}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level and module.partition(".")[0] != "guidance_lab":
                continue
            source = module.removeprefix("guidance_lab").lstrip(".")
            for alias in node.names:
                if source:
                    refs.add((source, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("guidance_lab.") and alias.asname:
                    modules[alias.asname] = alias.name.partition(".")[2]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                refs.add((modules[node.value.id], node.attr))
        elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add((own, node.id))
    return refs


def _tracer_groups():
    """(module, name) of every function the bench's tracer wraps by name."""
    spec = importlib.util.spec_from_file_location("_tracer", os.path.join(PERFBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(m, fn) for m, functions in tracer.GROUPS.items() for fn in functions}


def test_every_public_name_is_reached_outside_the_tests():
    # a command, a certifier, another package function or the bench runs
    # each public name; a test-only reference form belongs in tests/oracles.py
    reached = _tracer_groups()
    for name in MODULES:
        reached |= _references(os.path.join(SRC, f"{name}.py"), own=name)
    for entry in sorted(os.listdir(PERFBENCH)):
        if entry.endswith(".py"):
            reached |= _references(os.path.join(PERFBENCH, entry))
    unreached = [(name, public) for name in MODULES
                 for public in getattr(importlib.import_module(f"guidance_lab.{name}"),
                                       "__all__", ())
                 if (name, public) not in reached]
    assert unreached == []
