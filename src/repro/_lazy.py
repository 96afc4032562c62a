"""Lazy package facades (PEP 562).

``repro``, ``repro.analysis``, ``repro.adversary``, ``repro.resilience``,
``repro.sim``, ``repro.exec`` and ``repro.baselines`` re-export names
from their submodules.  Importing those eagerly would make every
protocol run load code it never calls: :mod:`repro.lowerbound` and
numpy, the adversary search and shrinker, the epoch runtimes, the bundle
recorder and replay, the process pool and :mod:`multiprocessing`, and
the baselines it does not run.  A facade instead declares one table and
imports a submodule the first time one of its names is read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, MutableMapping, Tuple


def export_table(names_by_module: Mapping[str, str]) -> Dict[str, str]:
    """Name -> submodule, from submodule -> its space-separated names.

    Each submodule also maps to itself, so it stays an attribute of the
    package as it was when the package imported it eagerly.
    """
    table = {module: module for module in names_by_module}
    for module, names in names_by_module.items():
        table.update(dict.fromkeys(names.split(), module))
    return table


def facade(
    package: str, table: Mapping[str, str], namespace: MutableMapping[str, Any]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The package's module ``__getattr__`` and ``__dir__`` over ``table``.

    A name is read from its submodule on every access and never stored in
    ``namespace`` (the package's globals), so the package always shows
    what the submodule binds now: a function a tool or a test rebinds in
    its submodule, and later restores, reads the same through the
    package.  A submodule binds itself on the package when it is
    imported, so ``__getattr__`` does not run for it again.
    """
    modules = {name: f"{package}.{module}" for name, module in table.items()}

    def __getattr__(name: str) -> Any:
        qualified = modules.get(name)
        if qualified is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = sys.modules.get(qualified) or importlib.import_module(qualified)
        return module if name == table[name] else getattr(module, name)

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
