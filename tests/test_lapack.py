"""The package's LAPACK routines are scipy's own objects, loaded from scipy's
f2py extension without ``scipy.linalg``'s package import.  ``scipy.linalg``
is the oracle here."""

import importlib.machinery

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import get_lapack_funcs, lapack

from axisphere import _lapack, energy, variational


@pytest.mark.parametrize("name", ["dgbsv", "dgtsv", "dpbsv", "dpbtrf"])
def test_routine_is_scipys_own(name):
    assert getattr(_lapack, name) is getattr(lapack, name)


def test_tridiagonal_solve_is_get_lapack_funcs_choice():
    assert variational._gtsv is get_lapack_funcs(("gtsv",), (np.empty(0),))[0]


def test_linalg_error_is_scipys():
    assert energy.LinAlgError is scipy.linalg.LinAlgError


def test_missing_extension_names_the_directory(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda name, path: None)
    with pytest.raises(ImportError, match="linalg"):
        _lapack._load_flapack()
