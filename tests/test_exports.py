"""The package's ``__all__`` lists exactly its public names.

Each exporting module declares its own public names in ``__all__``,
and the package's list is those lists joined.  Every listed name has a
caller outside the tests: the library itself or the benchmark.
"""

import ast
import importlib
import types
from pathlib import Path

import cyclefree

from test_bench_contract import spans

MODULES = [
    importlib.import_module(f"cyclefree.{name}")
    for name in (
        "boards",
        "complexes",
        "homology",
        "builders",
        "facetfile",
        "generators",
        "verify",
    )
]


def test_every_listed_name_resolves_once():
    assert len(set(cyclefree.__all__)) == len(cyclefree.__all__)
    for name in cyclefree.__all__:
        assert hasattr(cyclefree, name), name


def test_every_public_attribute_is_listed():
    public = {
        name
        for name, value in vars(cyclefree).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(cyclefree.__all__)


def test_each_exporting_module_binds_every_name_it_lists():
    for module in MODULES:
        assert "__all__" in vars(module), module.__name__
        for name in module.__all__:
            assert name in vars(module), f"{module.__name__}.{name}"


def test_package_list_is_the_module_lists_joined():
    assert cyclefree.__all__ == [name for m in MODULES for name in m.__all__]


def test_every_export_has_a_caller_outside_tests():
    # A use is a name or an attribute in code; strings, ``__all__``
    # entries and definitions do not count.  The one exception is a
    # function the benchmark's tracer wraps by its dotted path
    # (``rank_z``, which nothing calls since ranks over Q read the
    # integer maps).
    root = Path(__file__).resolve().parent.parent
    used = {path.rsplit(".", 1)[1] for paths in spans.LAYERS.values() for path in paths}
    for path in [*(root / "src" / "cyclefree").glob("*.py"), *(root / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(cyclefree.__all__) - used) == []
