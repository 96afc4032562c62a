"""API quality gates: exports resolve, everything public is documented.

A downstream user navigates through ``__all__`` and docstrings; these
tests fail the build if an export dangles or a public callable ships
without documentation.
"""

import ast
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.graphs",
    "repro.adversary",
    "repro.core",
    "repro.baselines",
    "repro.lowerbound",
    "repro.analysis",
    "repro.extensions",
]

MODULES = PACKAGES + [
    "repro.sim.message",
    "repro.sim.network",
    "repro.sim.flooding",
    "repro.sim.trace",
    "repro.sim.validation",
    "repro.graphs.topology",
    "repro.graphs.generators",
    "repro.graphs.properties",
    "repro.graphs.io",
    "repro.adversary.schedule",
    "repro.adversary.budget",
    "repro.adversary.adversaries",
    "repro.adversary.search",
    "repro.core.caaf",
    "repro.core.correctness",
    "repro.core.params",
    "repro.core.wire",
    "repro.core.agg",
    "repro.core.veri",
    "repro.core.algorithm1",
    "repro.core.unknown_f",
    "repro.core.fragments",
    "repro.core.codec",
    "repro.baselines.bruteforce",
    "repro.baselines.folklore",
    "repro.lowerbound.twoparty",
    "repro.lowerbound.unionsizecp",
    "repro.lowerbound.equalitycp",
    "repro.lowerbound.sperner",
    "repro.lowerbound.rectangles",
    "repro.lowerbound.bounds",
    "repro.lowerbound.cut_simulation",
    "repro.lowerbound.timing_encoding",
    "repro.analysis.runner",
    "repro.analysis.sweep",
    "repro.analysis.tables",
    "repro.analysis.figure1",
    "repro.analysis.fitting",
    "repro.analysis.statistics",
    "repro.analysis.asciiplot",
    "repro.analysis.cost_model",
    "repro.analysis.report",
    "repro.analysis.registry",
    "repro.extensions.quantiles",
    "repro.extensions.topk",
    "repro.extensions.monitoring",
    "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), name


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} has no __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} dangles"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_are_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(symbol)
    assert not undocumented, f"{name}: undocumented exports {undocumented}"


def test_public_classes_have_documented_public_methods():
    import repro.core as core
    import repro.sim as sim

    targets = [sim.Network, sim.Tracer, core.ProtocolParams, core.CAAF]
    holes = []
    for cls in targets:
        for attr, member in vars(cls).items():
            if attr.startswith("_"):
                continue
            if (
                inspect.isfunction(member)
                and member.__name__ != "<lambda>"  # dataclass field defaults
                and not (member.__doc__ and member.__doc__.strip())
            ):
                holes.append(f"{cls.__name__}.{attr}")
    assert not holes, holes


def test_version_is_exposed():
    import repro

    assert repro.__version__.count(".") == 2


def test_every_definition_is_used_somewhere():
    """A function or class under ``src/repro`` that no code names outside
    its own definition is dead weight: delete it (dunders excepted)."""
    definitions = Counter()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not re.fullmatch(r"__\w+__", node.name):
                definitions[node.name] += 1
    mentions = Counter()
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            for word in re.findall(r"\w+", path.read_text()):
                if word in definitions:
                    mentions[word] += 1
    unused = sorted(
        name for name, count in definitions.items() if mentions[name] <= count
    )
    assert not unused, f"defined but never named elsewhere: {unused}"
