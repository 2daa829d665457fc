"""Float64 amplitude lab for 1D lattice automata and coined quantum walks.

Each module's ``__all__`` is its export list; the package re-exports the
union of the six lists.  ``import qcawalk`` loads none of the modules (and
so no numpy): the first lookup of a name the package does not yet hold
imports them all and binds their exports, the modules and ``__all__``, after
which every lookup is a plain attribute read.
"""

__version__ = "0.1.0"

_MODULES = ("amplitudes", "asymptotics", "coined_walks", "correspondence", "params", "qca_core")


def __getattr__(name: str):
    from importlib import import_module

    namespace = globals()
    modules = [import_module(f"{__name__}.{module}") for module in _MODULES]
    for module in modules:
        namespace.update((export, getattr(module, export)) for export in module.__all__)
    namespace["__all__"] = sorted({export for module in modules for export in module.__all__})
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
