"""Every docstring example, and the README quick start, must execute as written."""

import doctest
import importlib
from pathlib import Path

import pytest

MODULES = [
    importlib.import_module(f"cyclefree.{name}")
    for name in (
        "boards",
        "builders",
        "cli",
        "complexes",
        "facetfile",
        "generators",
        "homology",
        "verify",
    )
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.split(".")[-1])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0


def test_examples_exist_somewhere():
    attempted = sum(doctest.testmod(m).attempted for m in MODULES)
    assert attempted > 10


def test_readme_quick_start():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
