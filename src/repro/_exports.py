"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every one of them on first import, and ``import repro.x.y``
imports each package on the way. :func:`lazy_exports` keeps one
name→module table instead and imports a module when one of its names
is first read, so a run loads only the modules it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``'s ``__init__``.

    ``exports`` maps each public name to the module that defines it; a
    name that is the module's own last component (``"table1"`` →
    ``"repro.experiments.table1"``) stands for the submodule itself.
    A resolved name is stored on the package, so it is looked up once.
    """

    def __getattr__(name: str) -> Any:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
