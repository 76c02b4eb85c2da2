"""Doc drift: every backticked dotted reference to a package module, such as
`linalg.spmv` or ``solvers.chunks``, in the README and in the package's
docstrings and comments names an attribute of that module. API drift: every
``mod.attr`` the benchmark's scripts read from a package module exists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "probmatch"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
REFERENCE = re.compile(r"`+((?:%s)(?:\.\w+)+)`+" % "|".join(MODULES))
SOURCES = [ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))]
BENCH_SCRIPTS = [ROOT / "perfbench" / name
                 for name in ("workload.py", "checks.py", "sweep.py", "run.py")]


def _resolves(reference: str) -> bool:
    module, *names = reference.split(".")
    obj = importlib.import_module(f"probmatch.{module}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_module_references_resolve(path):
    references = REFERENCE.findall(path.read_text())
    assert [ref for ref in references if not _resolves(ref)] == []


def test_the_readme_and_the_package_hold_module_references():
    counts = [len(REFERENCE.findall(path.read_text())) for path in SOURCES]
    assert counts[0] > 0 and sum(counts[1:]) > 0


def _package_attributes(path):
    """Each ``mod.attr`` in the script whose ``mod`` it imports by
    ``from probmatch import mod``."""
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "probmatch"
               for alias in node.names}
    return {f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_the_benchmark_reads_only_names_the_package_has():
    names = set().union(*map(_package_attributes, BENCH_SCRIPTS))
    assert names, "the benchmark's scripts read no package attribute"
    assert sorted(name for name in names if not _resolves(name)) == []
