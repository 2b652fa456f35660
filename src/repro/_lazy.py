"""Lazy package exports (PEP 562).

A package ``__init__`` imports eagerly the names a study runs and exports
the rest through :func:`lazy_exports`, so a study process never compiles
the modules behind them (the per-cycle controller, the TAM, the transient
simulator, the functional specification, ...).
"""

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, modules: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``modules`` maps a module path, relative to ``package``, to the names
    it exports; a name equal to the module's last component (``analysis``
    of ``".analysis"``) exports the module itself.  The first access of a
    name imports its module and binds the name in the package, so later
    accesses are plain attribute reads.
    """
    lazy = {name: module_name for module_name, names in modules.items()
            for name in names}

    def __getattr__(name: str) -> object:
        try:
            module_name = lazy[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(module_name, package)
        value = module if module_name == f".{name}" \
            else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(lazy))

    return __getattr__, __dir__
