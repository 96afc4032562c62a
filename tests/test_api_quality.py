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
    "repro.analysis.asciiplot",
    "repro.analysis.cost_model",
    "repro.analysis.report",
    "repro.analysis.registry",
    "repro.extensions.quantiles",
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


#: Top-level ``src/repro`` definitions that only tests name, and why each
#: stays.  Everything else that only tests reach is dead weight: delete
#: it, or move it into ``tests/``.
TEST_ONLY_ALLOWED = {
    # Reference oracles the tests compare src/ against.
    "decode_part": "the wire decoder every encoder is round-tripped through",
    "encoding_fits_declared_size": "checks each encoding against its charged bits",
    "build_fragment_model": "oracle fragment structure AGG is checked against",
    "oracle_representative_set_is_valid": "oracle for AGG's selected psums",
    "theorem1_cc_envelope": "Theorem 1's CC envelope, for a run-path monitor",
    "exact_aggregate": "the failure-free ground truth results are checked on",
    "predict_agg_costs": "analytic AGG model measured traffic is held to",
    "predict_veri_costs": "analytic VERI model measured traffic is held to",
    "agg_abort": "AGG builds it by name: getattr(wire, self.ABORT)",
    "veri_overflow": "VERI builds it by name: getattr(wire, self.ABORT)",
    # Graphs, schedules and aggregates that tests use as inputs.
    "barbell_graph": "test topology",
    "caterpillar_graph": "test topology",
    "complete_graph": "test topology",
    "random_tree": "test topology",
    "standard_suite": "test topology catalogue",
    "concentrated_failures": "failure schedule tests use as a scenario",
    "bounded_min": "CAAF whose laws the CAAF tests check",
    "bounded_lcm": "CAAF whose laws the CAAF tests check",
    # Checks of the paper's lower-bound lemmas and bounds.
    "NewmanSimulation": "Newman's theorem, checked on small instances",
    "find_seed_set": "Newman's theorem, checked on small instances",
    "TrivialEquality": "EQUALITYCP baseline protocol of the lower bound",
    "equal_instance": "UNIONSIZECP promise instance of the lower bound",
    "wrap_count": "UNIONSIZECP protocol cost driver",
    "build_matrix": "EQUALITYCP matrix for the rectangle lemma",
    "diagonal_set_is_valid_rectangle": "the rectangle lemma's check",
    "transmitted_bits": "the timing-encoding lemma's bit count",
    "agg_veri_budget": "the paper's per-node AGG + VERI ceiling",
    "equality_lower_bound": "Lemma 11",
    "crossover_b": "Theorem 1's knee, b ~ f",
    "sample_curve": "samples the paper's bound curves",
    # Lost their last src reader when its caller was deleted as test-only;
    # next in line for deletion unless a bench or report takes them up.
    "fit_power_law": "was reached only through the deleted shape_report",
}


#: Methods of ``src/repro`` classes that only tests call, and why each
#: stays.
TEST_ONLY_METHODS = {
    # The fragment oracle AGG is checked against (build_fragment_model).
    "local_descendants": "oracle: a node's descendants in its fragment",
    "representatives_of": "oracle: Section 4.1's representative set",
    # Queries the tests read a run's or a schedule's state through.
    "failures_in_window": "schedule query: crashes inside a round window",
    "edge_failures_in_window": "schedule query: Table 2's edge failures",
    "pair_rounds": "the paper's AGG + VERI length, 12cd + 7",
    "has_seen": "flood query: what a node has deduplicated",
    "alive_nodes": "network query: who is up in a round",
    "relative_error": "the gossip baseline's convergence measure",
    "suspected_peers": "detector query: who was ever suspected",
    "top_senders": "stats query: the nodes that sent the most bits",
    # Tracer queries: the conformance suite reads a run through them.
    "deliveries_to": "Tracer query",
    "first_delivery": "Tracer query",
    "sends_by": "Tracer query",
    "first_send_of_kind": "Tracer query",
}


def _reached_names(tree, skip=frozenset(), strings=False):
    """The names a module's code uses (``Name`` ids and ``Attribute``
    attributes), outside imports and the ``skip`` nodes.  Strings, such
    as ``__all__`` entries and lazy export tables, are not uses, unless
    ``strings`` counts identifier strings (``getattr(obj, "hook")``)."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node in skip or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _words(directory):
    return {
        word
        for path in directory.rglob("*.py")
        for word in re.findall(r"\w+", path.read_text())
    }


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _top_level(tree):
    return [
        node for node in tree.body
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,))
    ]


def _methods(tree):
    return [
        item
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, _FUNCTIONS)
    ]


def _test_only(select, strings=False):
    """The ``select``-ed ``src/repro`` definitions (dunders excepted) that
    ``tests/`` name but nothing else reaches: no bench or example names
    them, and no ``src`` code uses them outside their own definition
    (imports, package re-exports and ``__all__`` do not count; see
    :func:`_reached_names` for ``strings``)."""
    defined, reached = set(), set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text())
        chosen = [
            node for node in select(tree)
            if not re.fullmatch(r"__\w+__", node.name)
        ]
        defined.update(node.name for node in chosen)
        reached |= _reached_names(tree, set(chosen), strings)
        for node in chosen:
            reached |= _reached_names(node, strings=strings) - {node.name}
    outside = _words(ROOT / "benchmarks") | _words(ROOT / "examples")
    return (defined & _words(ROOT / "tests")) - outside - reached


def test_every_definition_is_used_somewhere():
    """A function or class under ``src/repro`` that no code names outside
    its own definition is dead weight: delete it (dunders excepted).  Nor
    may a top-level one be reached only from tests, unless
    :data:`TEST_ONLY_ALLOWED` says why it stays."""
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
    test_only = _test_only(_top_level)
    assert test_only <= set(TEST_ONLY_ALLOWED), (
        "reached only from tests: "
        f"{sorted(test_only - set(TEST_ONLY_ALLOWED))}"
    )
    stale = sorted(set(TEST_ONLY_ALLOWED) - test_only)
    assert not stale, f"TEST_ONLY_ALLOWED names src/ uses or lost: {stale}"


def test_every_method_is_used_outside_tests():
    """Nor may a method of a ``src/repro`` class be reached only from
    tests, unless :data:`TEST_ONLY_METHODS` says why it stays."""
    test_only = _test_only(_methods, strings=True)
    assert test_only <= set(TEST_ONLY_METHODS), (
        "methods reached only from tests: "
        f"{sorted(test_only - set(TEST_ONLY_METHODS))}"
    )
    stale = sorted(set(TEST_ONLY_METHODS) - test_only)
    assert not stale, f"TEST_ONLY_METHODS names src/ uses or lost: {stale}"
