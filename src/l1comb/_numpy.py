"""numpy, imported when a routine first reads one of its attributes.

groups and bicombing never use numpy, so ``import l1comb``, ``ball`` and
``bicombing-stats`` run without it; kernel, espace, actions and cli take
``np`` from here.  If numpy is already loaded, ``np`` is that module.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
