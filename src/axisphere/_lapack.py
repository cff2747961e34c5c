"""The four LAPACK routines the package calls, loaded without ``scipy.linalg``.

``dpbsv``/``dpbtrf`` (banded Cholesky), ``dgbsv`` (banded LU) and ``dgtsv``
(tridiagonal) live in scipy's f2py extension ``scipy.linalg._flapack``.
Importing them through ``scipy.linalg`` first runs that package's
``__init__``, which builds scipy's array-API layer and with it loads
``numpy.f2py``, ``numpy.testing``, ``unittest`` and ~300 modules in all.
Here the extension is found on scipy's own path and created directly, so
none of that runs.  The routines are the objects ``scipy.linalg.lapack``
exports, so every solve is the same call.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import scipy

__all__ = ["dgbsv", "dgtsv", "dpbsv", "dpbtrf"]


def _load_flapack():
    where = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgbsv = _flapack.dgbsv
dgtsv = _flapack.dgtsv
dpbsv = _flapack.dpbsv
dpbtrf = _flapack.dpbtrf
