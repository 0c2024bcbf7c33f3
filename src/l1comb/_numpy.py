"""numpy, imported when a routine first reads one of its attributes.

Only ``DisplacementKernel.values`` and eigenvalues (``cnd_min_eigenvalue``,
``action --quasitree``) use it; every other command, ``verify`` and ``norms``
included, runs without it.  If numpy is already loaded, ``np`` is that module.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
