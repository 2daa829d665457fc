"""Float64 amplitude lab for 1D lattice automata and coined quantum walks.

Each module's ``__all__`` is its export list; the package re-exports the
union of the seven lists.  ``import qcawalk`` loads none of the modules (and
so no numpy).  A lookup of a module's name (``cli`` too) imports that
module alone, so ``from qcawalk import params`` loads no numpy either.  The
first lookup of any other name the package does not yet hold imports every
module and binds their exports, the modules and ``__all__``, after which
every lookup is a plain attribute read.
"""

__version__ = "0.1.0"

_MODULES = (
    "algebra", "amplitudes", "asymptotics", "coined_walks", "correspondence", "params",
    "qca_core",
)


def __getattr__(name: str):
    from importlib import import_module

    # a from-import looks the name up on the package before it imports the submodule
    if name in _MODULES or name == "cli":
        return import_module(f"{__name__}.{name}")
    namespace = globals()
    modules = [import_module(f"{__name__}.{module}") for module in _MODULES]
    for module in modules:
        namespace.update((export, getattr(module, export)) for export in module.__all__)
    namespace["__all__"] = sorted({export for module in modules for export in module.__all__})
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
