"""The compiled scipy routines the package calls, loaded without importing
the scipy subpackages that hold them.

``dpbsv``/``dpbtrf`` (banded Cholesky), ``dgbsv`` (banded LU) and ``dgtsv``
(tridiagonal) live in scipy's f2py extension ``scipy.linalg._flapack``, and
the assignment solver ``linear_sum_assignment`` in ``scipy.optimize._lsap``.
Importing them through ``scipy.linalg`` or ``scipy.optimize`` first runs
that package's ``__init__``: ``scipy.linalg``'s builds scipy's array-API
layer and with it loads ``numpy.f2py``, ``numpy.testing``, ``unittest`` and
~300 modules in all, and ``scipy.optimize``'s costs about 0.16 s.  Here each
extension is found on scipy's own path and created directly, so none of that
runs.  The routines are the objects the subpackages export, so every call is
the same call.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import scipy

__all__ = ["dgbsv", "dgtsv", "dpbsv", "dpbtrf", "linear_sum_assignment"]


def _load_extension(subpackage: str, name: str):
    """The extension module ``scipy.<subpackage>.<name>``, created without
    importing ``scipy.<subpackage>``."""
    where = os.path.join(scipy.__path__[0], subpackage)
    spec = importlib.machinery.PathFinder.find_spec(f"scipy.{subpackage}.{name}", [where])
    if spec is None:
        raise ImportError(f"scipy's extension {name} not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_extension("linalg", "_flapack")
dgbsv = _flapack.dgbsv
dgtsv = _flapack.dgtsv
dpbsv = _flapack.dpbsv
dpbtrf = _flapack.dpbtrf
linear_sum_assignment = _load_extension("optimize", "_lsap").linear_sum_assignment
