"""PEP 562 lazy exports for package ``__init__`` modules.

A package lists its public names with their home modules; each name imports
its module on first access, so importing the package (or one of its leaf
modules) loads nothing else.  A name whose home module is the package's own
submodule of that name exports the submodule itself.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``."""

    def __getattr__(name: str) -> object:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(module_name)
        if module_name == f"{package}.{name}":
            return module
        return getattr(module, name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
