"""Verification toolkit for finitely presented algebraic theories in one and
two dimensions: word-problem semi-decision, finite model search, coherence
checking for exchange-cell tables, internal (co)algebra constructions, and
the comonad of internal algebras."""

import importlib.util
import sys

__version__ = "0.1.0"

# The 2-dimensional layers.  Each is registered in ``sys.modules`` at once,
# but compiled and executed only on its first attribute access, so a
# 1-dimensional command or a file the tokenizer rejects never pays for them.
# Each is also bound on this package: ``from . import cells`` then takes it
# from there, where a lookup through the import system would read its
# ``__spec__`` and so load it.
_ON_FIRST_USE = ("fincat", "cells", "catmodels", "multimaps")

for _name in _ON_FIRST_USE:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module
