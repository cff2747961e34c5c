"""The package's LAPACK routines and assignment solver are scipy's own
objects, loaded from scipy's extensions without ``scipy.linalg``'s or
``scipy.optimize``'s package import.  Those packages are the oracle here."""

import importlib.machinery

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from scipy.linalg import get_lapack_funcs, lapack

from axisphere import _lapack, connection, energy, variational


@pytest.mark.parametrize("name", ["dgbsv", "dgtsv", "dpbsv", "dpbtrf"])
def test_routine_is_scipys_own(name):
    assert getattr(_lapack, name) is getattr(lapack, name)


def test_tridiagonal_solve_is_get_lapack_funcs_choice():
    assert variational._gtsv is get_lapack_funcs(("gtsv",), (np.empty(0),))[0]


def test_linalg_error_is_scipys():
    assert energy.LinAlgError is scipy.linalg.LinAlgError


def test_assignment_solver_is_scipys_own():
    assert _lapack.linear_sum_assignment is scipy.optimize.linear_sum_assignment
    assert connection.linear_sum_assignment is _lapack.linear_sum_assignment


def test_missing_extension_names_the_directory(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda name, path: None)
    for subpackage, name in [("linalg", "_flapack"), ("optimize", "_lsap")]:
        with pytest.raises(ImportError, match=rf"{name} not found in .*{subpackage}$"):
            _lapack._load_extension(subpackage, name)
