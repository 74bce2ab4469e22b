"""plab — a desk-scale laboratory for max-estimation learning.

Finitely supported distributions and quantile learning (plab.emx), finite
precision interfaces (plab.coarse), monotone sample compression
(plab.compression), quantum d-copy discrimination (plab.quantum), and an
exact LP decider and a certified-bracket SDP decider (plab.feasibility),
with a seeded, report-writing CLI (plab.cli).
"""

import importlib.util
import sys

__version__ = "0.1.0"


class ResourceCapError(RuntimeError):
    """Raised when a tensor power would exceed the dimension cap (``plab.quantum.DIM_CAP``).  It lives
    here so that ``plab.cli`` can catch it without executing ``plab.quantum``."""


def _lazy(name: str):
    """Module ``name`` as ``sys.modules`` holds it (None where it is blocked), else a module
    executed on its first attribute access: the ``importlib.util.LazyLoader`` recipe.  A new
    submodule is also bound on its package, as an import statement binds it, so that
    ``plab.quantum.tensor_power`` and ``from plab import quantum`` find it unexecuted."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:  # a missing module still fails at import time
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


# The exact LP and the 2->1 demo never touch numpy, so they never load it.  plab modules take
# ``np`` from here: an ``import numpy`` statement reads the module's __spec__ and loads it at once.
_np = _lazy("numpy")
