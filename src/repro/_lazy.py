"""Lazy package exports (PEP 562), shared by the package ``__init__`` files.

A package that re-exports names from its submodules imports a submodule
when one of its names is first read, not when the package is imported:
a process that serves :mod:`repro.store` does not load the simulator
because both live under ``repro``.  Importing this module loads nothing
beyond :mod:`importlib`.
"""

from importlib import import_module


def lazy_exports(namespace: dict, exports: dict):
    """Make a package's public names resolve on first access.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    defining module to the names the package re-exports from it.
    Returns ``(__all__, __getattr__, __dir__)`` for the package to bind.
    ``__getattr__`` stores each name it resolves in ``namespace``, so a
    name is looked up at most once and then read like any global.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home[name]), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | home.keys())

    return list(home), __getattr__, __dir__
