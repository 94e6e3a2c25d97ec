"""Exact structural analysis of leading-order profiles for singularly
perturbed mass-transfer systems.

The package builds, over exact rational arithmetic, the symmetric matrix
that governs the limiting parabolic profile of a hyperbolic relaxation
system with a simple conserved mode, determines its exact rank and
spectrum, checks the rank law ``rank = min(n - 1, K)`` on randomized
instance families, reproduces the closed forms of the two-state family
symbolically, and evaluates the limiting Gaussian profile numerically.

Importing the package loads none of its modules.  A submodule, or a
name in a library module's ``__all__``, is imported on first access (PEP
562): a name loads its own module and those listed before it in
``_MODULES``, so a script pays only for the modules it uses.
"""

import importlib

# the library modules, in import order; each one's __all__ is what it
# exports, and the package serves a name from the first that lists it
_MODULES = ("exact_linalg", "model", "asymptotics", "formats", "search", "multipoly", "symbolic")

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        # importing a submodule binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [*_MODULES, *(n for m in _MODULES for n in __getattr__(m).__all__)]
    else:
        # a dunder probe, such as pytest's __test__, imports no module
        dunder = name.startswith("__") and name.endswith("__")
        for module in map(__getattr__, () if dunder else _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), "cli", *__getattr__("__all__")})
