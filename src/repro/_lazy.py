"""Package roots that import their re-exports on first use (PEP 562).

A root lists its re-exports as one table, ``{module: names}``, and binds
the pair :func:`exports` returns as its ``__getattr__`` and ``__dir__``.
Importing the root then imports nothing else; the first access to a name
imports the module that defines it and binds the name in the root, so
later accesses are plain attribute reads.  An unknown name raises
``AttributeError``, which also lets ``from package import submodule``
fall through to the import system.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``, resolving each
    name in ``table`` from the module it is listed under."""
    where = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
