"""The names the benchmark in ``perfbench/`` reads from freeprob still resolve.

perfbench's tracer wraps functions by module and attribute name, and its
scripts call a few library functions.  Tier-1 never runs a traced benchmark,
so a rename or a move that breaks one of these names shows only here.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import freeprob
from freeprob import oracles

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The oracles that moved to freeprob.oracles but still resolve from their old
# modules, because perfbench/tracer.py wraps them there (and perfbench/baseline.py
# calls circular_shift_cumulants there).
FORWARDED = {
    "noncrossing": ("enumerate_nc", "enumerate_alternating"),
    "cumulants": ("rdiag_moment", "circular_shift_cumulants"),
    "psd": ("enumerate_psd",),
    "series": ("lagrange_invert",),
    "circular": ("cauchy_transform",),
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, path: str):
    owner = getattr(freeprob, module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _tracer_rows():
    tracer = _tracer()
    return [(module, path) for _, module, path, _ in tracer.SPANNED] + [
        (module, path) for _, module, path in tracer.COUNTED
    ]


@pytest.mark.parametrize("module, path", _tracer_rows())
def test_tracer_rows_resolve(module, path):
    assert callable(_resolve(module, path))


def test_perfbench_scripts_read_only_names_that_resolve():
    # every `module.attr` on a module that a perfbench script imports by
    # `from freeprob import ...`, read from its source
    read = set()
    for script in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(script.read_text())
        modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "freeprob"
                   for alias in node.names}
        read |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules}
    assert ("cumulants", "circular_shift_cumulants") in read
    assert [(m, a) for m, a in sorted(read) if not hasattr(getattr(freeprob, m), a)] == []


def test_forwarded_names_are_the_oracles():
    moved = {name for name in vars(oracles) if not name.startswith("__")}
    for module_name, names in FORWARDED.items():
        module = getattr(freeprob, module_name)
        for name in names:
            assert getattr(module, name) is getattr(oracles, name)
        # nothing else that moved resolves from the old module
        others = moved - set(names) - set(vars(module))
        assert [name for name in sorted(others) if hasattr(module, name)] == []
