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

    A resolved name is stored in ``namespace`` (the package's globals), so
    ``__getattr__`` runs once per name.
    """

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{table[name]}")
        value = module if name == table[name] else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
