import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from axisphere import cli, energy
from axisphere.cli import main
from axisphere.connection import SingularityConfig
from axisphere.geometry import NumericalError, geometric_grid, u0_profile, u_eps_profile


def run(args):
    return main(args)


class TestT0Energy:
    def test_closed_form_agreement(self, tmp_path, capsys):
        out = tmp_path / "t0.csv"
        code = run(["t0-energy", "--n", "2", "--alpha", "0.25",
                    "--r-nodes", "4097", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        total_closed = 2.0 * (4 * math.pi * 2 * 0.0625 / 1.0625 + 8 * math.pi)
        assert float(cols["total_closed"]) == pytest.approx(total_closed, rel=1e-12)
        assert float(cols["rel_err"]) < 1e-4

    def test_alpha_zero_pure_mass(self, tmp_path):
        out = tmp_path / "t0.json"
        code = run(["t0-energy", "--n", "3", "--alpha", "0",
                    "--r-nodes", "257", "--format", "json", "--out", str(out)])
        assert code == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["E"] == pytest.approx(0.0, abs=1e-12)
        assert row["total"] == pytest.approx(8 * math.pi * 3, rel=1e-12)

    def test_bit_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["t0-energy", "--n", "1,2", "--alpha", "0.1,0.25",
                "--r-nodes", "1025"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_bad_alpha_exit_2(self):
        assert run(["t0-energy", "--alpha", "0.3"]) == 2

    @pytest.mark.parametrize("option,value", [
        ("--n", "inf"), ("--n", "nan"), ("--n", "1.5"), ("--alpha", "abc"),
    ])
    def test_bad_number_exit_2(self, option, value, capsys):
        assert run(["t0-energy", option, value]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_spec_file_overrides(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"alpha": [0.1], "r-nodes": 257}))
        out = tmp_path / "out.csv"
        code = run(["t0-energy", "--spec", str(spec), "--out", str(out)])
        assert code == 0
        assert ",0.1," in out.read_text().splitlines()[1]


class TestRelaxationCheck:
    def test_exponent_fit(self, tmp_path):
        out = tmp_path / "relax.json"
        code = run(["relaxation-check", "--n", "2", "--alpha", "0.25",
                    "--eps", "0.2,0.1,0.05,0.025", "--nodes", "2049",
                    "--format", "json", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["fitted_exponents"]["2"] == pytest.approx(4.0, abs=0.2)
        assert data["summary"]["deficits_positive_decreasing"] == {"2": True}
        limit = 8 * math.pi + 8 * math.pi * 0.0625 / 1.0625
        rows = data["rows"]
        assert [(r["n"], r["eps"]) for r in rows] == [(2, 0.2), (2, 0.1), (2, 0.05), (2, 0.025)]
        assert all(list(r) == ["n", "alpha", "eps", "slice_energy", "slice_energy_quadrature",
                               "quad_rel_err", "limit", "deficit"] for r in rows)
        assert rows[0]["limit"] == pytest.approx(limit, rel=1e-12)
        deficits = [r["deficit"] for r in rows]
        assert all(d > 0 for d in deficits)
        assert all(a > b for a, b in zip(deficits, deficits[1:]))

    def test_eps_out_of_range_exit_2(self):
        assert run(["relaxation-check", "--eps", "0.2,1.5"]) == 2

    @pytest.mark.parametrize("eps", [None, "0.2,0.001", "0.2,0.0005"])
    def test_eps_at_or_below_r_min_exit_2(self, tmp_path, capsys, eps):
        # eps <= r_min would be the grid's first node, its inner branch empty
        out = tmp_path / "relax.csv"
        args = ["relaxation-check", "--r-min", "0.5" if eps is None else "0.001",
                "--out", str(out)]
        assert run(args + ([] if eps is None else ["--eps", eps])) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: eps values must exceed r_min")
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["0.2", "0.1,0.1", "0.2,0.2,0.1"])
    def test_single_or_repeated_eps_exit_2(self, capsys, eps):
        # one distinct eps leaves the exponent fit underdetermined, and a
        # repeated one fails the strict decrease of the deficits
        assert run(["relaxation-check", "--eps", eps]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestSliceColumns:
    """The slice columns come from one cell pass per profile and agree with
    the public radial functionals."""

    def test_t0_slice_energy(self, tmp_path):
        out = tmp_path / "t0.json"
        assert run(["t0-energy", "--n", "1,3", "--alpha", "0.1,0.25", "--r-nodes", "32769",
                    "--format", "json", "--out", str(out)]) == 0
        for row in json.loads(out.read_text())["rows"]:
            profile = u0_profile(row["alpha"], row["n"], geometric_grid(1e-4, 1.0, 32769))
            assert row["slice_energy"] == pytest.approx(
                energy.dirichlet_energy_radial(profile), rel=1e-14, abs=0.0)

    def test_relaxation_slice_columns(self, tmp_path):
        out = tmp_path / "relax.json"
        assert run(["relaxation-check", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 12
        for row in rows:
            profile = u_eps_profile(row["alpha"], row["n"], row["eps"],
                                    geometric_grid(1e-6, 1.0, 16385))
            assert row["slice_energy"] == pytest.approx(
                energy.area_radial(profile), rel=1e-14, abs=0.0)
            assert row["slice_energy_quadrature"] == pytest.approx(
                energy.dirichlet_energy_radial(profile), rel=1e-14, abs=0.0)


class TestPropositionSweep:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "prop.json"
        code = run(["proposition-sweep", "--n", "2", "--alpha", "0.05",
                    "--a-frac", "1,0.5", "--c0", "1", "--s-tilde", "2s,1",
                    "--nodes", "128", "--format", "json", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        feasible = [r for r in data["rows"] if r["feasible"]]
        assert feasible
        for row in feasible:
            assert row["converged"]
            assert row["agreement"] < 1e-3
            assert row["gap"] >= math.pi * row["I_numeric"] - 1e-8
            if row["holds_fast"]:
                assert row["holds"]
        assert data["summary"]["fast_path_consistent"]
        assert data["summary"]["empirical_alpha0_by_C0"]["1"] == 0.05

    def test_threshold_stops_at_first_failing_alpha(self, tmp_path):
        # alpha 0.25 holds on its one feasible row, but the row at alpha 0.1,
        # a_frac 0.5 fails, so no swept alpha has every smaller one holding
        out = tmp_path / "prop.json"
        code = run(["proposition-sweep", "--n", "2", "--alpha", "0.25,0.1",
                    "--a-frac", "0.5,0.1", "--c0", "5", "--s-tilde", "mid",
                    "--nodes", "128", "--format", "json", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        failing = [r for r in data["rows"] if r["feasible"] and not r["holds"]]
        assert [(r["alpha"], r["a"]) for r in failing] == [(0.1, 0.05)]
        assert any(r["alpha"] == 0.25 and r["feasible"] and r["holds"] for r in data["rows"])
        assert data["summary"]["empirical_alpha0_by_C0"]["5"] == 0.0

    @pytest.mark.parametrize("c0", ["nan", "inf", "nan,5"])
    def test_non_finite_c0_exit_2(self, tmp_path, capsys, c0):
        out = tmp_path / "prop.csv"
        assert run(["proposition-sweep", "--c0", c0, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: C0 values must be finite and positive"]
        assert not out.exists()

    def test_infeasible_rows_marked(self, tmp_path):
        out = tmp_path / "prop.csv"
        # C0 = 20 with a = 0.25 puts the crossing radius past the annulus
        code = run(["proposition-sweep", "--n", "2", "--alpha", "0.25",
                    "--a-frac", "1", "--c0", "20", "--s-tilde", "2s",
                    "--nodes", "128", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        cols = lines[0].split(",")
        row = dict(zip(cols, lines[1].split(",")))
        assert row["feasible"] == "false"

    def test_converged_is_a_bool(self, tmp_path):
        # a = alpha leaves the outer segment flat; a = alpha/2 does not
        args = ["proposition-sweep", "--alpha", "0.05", "--a-frac", "1,0.5", "--c0", "1",
                "--s-tilde", "2s", "--nodes", "128"]
        json_out, csv_out = tmp_path / "prop.json", tmp_path / "prop.csv"
        assert run(args + ["--format", "json", "--out", str(json_out)]) == 0
        assert run(args + ["--out", str(csv_out)]) == 0
        rows = json.loads(json_out.read_text())["rows"]
        assert [(r["a"], r["converged"]) for r in rows] == [(0.05, True), (0.025, True)]
        header, *lines = csv_out.read_text().splitlines()
        column = header.split(",").index("converged")
        assert [line.split(",")[column] for line in lines] == ["true", "true"]

    def test_required_columns_present(self, tmp_path):
        out = tmp_path / "prop.csv"
        run(["proposition-sweep", "--n", "2", "--alpha", "0.05", "--a-frac", "1",
             "--c0", "1", "--s-tilde", "2s", "--nodes", "128", "--out", str(out)])
        header = out.read_text().splitlines()[0].split(",")
        for col in ["n", "alpha", "a", "s", "s_tilde", "t0", "tau0",
                    "I_closed", "I_numeric", "bound"]:
            assert col in header


class TestDipole:
    def test_tiny_run_converges(self, tmp_path):
        # a thin n = 2 box at 33 x 33, and both winding numbers at the
        # default alpha at 17 x 17
        for n, alpha, nodes in [(2, "0.05", "33"), (1, "0.25", "17"), (2, "0.25", "17")]:
            out = tmp_path / f"dip-{n}-{alpha}.json"
            code = run(["dipole-tradeoff", "--n", str(n), "--alpha", alpha,
                        "--delta", "0.3", "--rbox-factors", "1",
                        "--nodes-r", nodes, "--nodes-z", nodes,
                        "--format", "json", "--out", str(out)])
            assert code == 0
            (row,) = strict_load(out)["rows"]
            assert row["converged"] is True and row["stable"] is True
            assert row["verdict"] in ("positive", "negative", "inconclusive")
            assert row["mass_saving"] == pytest.approx(8 * math.pi * n * 0.3, rel=1e-12)

    def test_bad_delta_exit_2(self):
        assert run(["dipole-tradeoff", "--delta", "0.7"]) == 2

    @pytest.mark.parametrize("factor", ["-1", "0", "nan"])
    def test_non_positive_rbox_factor_exit_2(self, capsys, factor):
        assert run(["dipole-tradeoff", "--rbox-factors", factor, "--nodes-r", "5",
                    "--nodes-z", "5", "--delta", "0.2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_clamped_boxes_solved_once(self, tmp_path, monkeypatch):
        calls = []
        inner = cli.minimize_meridian_energy

        def counted(*args, **kwargs):
            calls.append(args[0].size)
            return inner(*args, **kwargs)

        monkeypatch.setattr(cli, "minimize_meridian_energy", counted)
        args = ["dipole-tradeoff", "--n", "2", "--alpha", "0.05", "--delta", "0.5",
                "--nodes-r", "17", "--nodes-z", "17", "--format", "json"]
        assert run(args + ["--rbox-factors", "2"]) in (0, 3)
        ladder = list(calls)
        calls.clear()
        out = tmp_path / "dip.json"
        # both factors clamp r_box to 1: one ladder, two rows
        assert run(args + ["--rbox-factors", "2,4", "--out", str(out)]) in (0, 3)
        assert calls == ladder
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 2 and rows[0] == rows[1] and rows[0]["r_box"] == 1.0


class TestHalfBox:
    """Each rung relaxes the upper half of the full box it stood for."""

    @staticmethod
    def full_ladder(nodes_r, nodes_z):
        """The rungs (r nodes, z nodes) of the full-box ladder."""
        ladder = [(nodes_r, nodes_z)]
        while ladder[-1][0] > 40:
            nr, nz = ladder[-1]
            ladder.append((nr // 2 + 1, nz // 2 + 1))
        return ladder[::-1] + [(2 * nodes_r - 1, 2 * nodes_z - 1)]

    @staticmethod
    def full_box(n, alpha, delta, r_box, nodes_r, nodes_z):
        """Grids, background field and fixed edge nodes of the full box
        [r_box 1e-3, r_box] x [-delta, delta]."""
        r = np.geomspace(r_box * 1e-3, r_box, nodes_r)
        z = np.linspace(-delta, delta, nodes_z)
        phi = np.tile(2.0 * np.arctan(alpha * r ** n)[:, None], (1, nodes_z))
        fixed = np.zeros(phi.shape, dtype=bool)
        fixed[[0, -1], :] = True
        fixed[:, [0, -1]] = True
        return r, z, phi, fixed

    @staticmethod
    def unrelaxed(calls, flags):
        """A relaxation that returns its start unchanged, with the next of
        ``flags`` as its ``stable``."""
        flags = iter(flags)

        def fake(r, z, phi_init, fixed, n, **kwargs):
            calls.append((r, z, phi_init, fixed))
            return energy.MeridianRelaxResult(
                phi=phi_init, energy=energy.meridian_cell_energy(r, z, phi_init, n),
                converged=True, iterations=0, grad_norm=0.0, message="",
                stable=next(flags))

        return fake

    @pytest.mark.parametrize("nodes_z", [17, 33, 49, 65])
    def test_rungs_are_upper_halves(self, nodes_z, monkeypatch):
        n, alpha, delta, r_box = 2, 0.05, 0.3, 0.3
        calls = []
        monkeypatch.setattr(cli, "minimize_meridian_energy",
                            self.unrelaxed(calls, [True, False, True]))
        row = cli._dipole_point(n, alpha, delta, r_box, 65, nodes_z)
        rungs = self.full_ladder(65, nodes_z)
        assert len(calls) == len(rungs) == 3
        for (r, z, phi_init, fixed), (nr, nz) in zip(calls, rungs):
            r_full, z_full, phi_full, fixed_full = self.full_box(n, alpha, delta, r_box, nr, nz)
            upper = np.s_[:, nz // 2:]
            assert z_full[nz // 2] == pytest.approx(0.0, abs=1e-15)
            assert np.array_equal(r, r_full) and np.array_equal(z, z_full[nz // 2:])
            # the z = 0 row is free inside the box, as it is in the full box
            assert np.array_equal(fixed, fixed_full[upper]) and not fixed[1:-1, 0].any()
            # the boundary data: the background, with the axis flipped to pi
            boundary = phi_full[upper].copy()
            boundary[0, :-1] = math.pi
            assert np.array_equal(phi_init[fixed], boundary[fixed])
        # the row is stable only if both levels are, and the coarse one is not
        assert row["stable"] is False
        # the row reports the fine level's full-box energies of the even field
        even = np.concatenate([phi_init[:, :0:-1], phi_init], axis=1)
        assert row["E_new"] == pytest.approx(
            energy.meridian_cell_energy(r_full, z_full, even, n), rel=1e-12)
        assert row["E_base"] == energy.meridian_cell_energy(r_full, z_full, phi_full, n)

    @pytest.mark.parametrize("coarse, fine", itertools.product((False, True), repeat=2))
    def test_row_stable_is_both_levels(self, coarse, fine, monkeypatch):
        calls = []
        # two boxes of two rungs each, solved in order
        monkeypatch.setattr(cli, "minimize_meridian_energy",
                            self.unrelaxed(calls, [coarse, fine] * 2))
        spec = cli.ExperimentSpec(command="dipole-tradeoff", params={
            "n": 2, "alpha": 0.05, "delta": [0.2, 0.3], "rbox_factors": [1.0],
            "nodes_r": 5, "nodes_z": 5})
        rows, _, _ = cli.run_dipole_tradeoff(spec)
        assert len(calls) == 4 and len(rows) == 2
        assert all(row["stable"] is (coarse and fine) for row in rows)


def uniform_charges(seed, k):
    """A charge configuration of k positives, then k negatives, drawn
    uniformly from [-1, 1]^3 with ``seed``."""
    rng = np.random.default_rng(seed)
    return {"positives": rng.uniform(-1, 1, (k, 3)).tolist(),
            "negatives": rng.uniform(-1, 1, (k, 3)).tolist()}


def assignment_length(config):
    """The minimal length by scipy's assignment solver, an external oracle
    that shares no code with the package's search."""
    dist = SingularityConfig.from_json(json.dumps(config)).distance_matrix()
    return float(dist[linear_sum_assignment(dist)].sum())


class TestSigma:
    @pytest.mark.parametrize("config, length", [
        ({"multiplicity": 2, "positives": [[0.0, 0.0, -1.0]], "negatives": [[0.0, 0.0, 1.0]]},
         2.0),
        # the largest k the brute force takes
        (uniform_charges(9, 9), assignment_length(uniform_charges(9, 9))),
    ], ids=["axis-pair", "nine-charges"])
    def test_routes_agree(self, tmp_path, config, length):
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "sigma.json"
        code = run(["sigma", "--spec", str(cfg), "--format", "json", "--out", str(out)])
        assert code == 0
        (row,) = strict_load(out)["rows"]
        assert row["k"] == len(config["positives"])
        assert row["length"] == pytest.approx(length, abs=1e-12)
        assert row["mass"] == pytest.approx(config.get("multiplicity", 1) * length, abs=1e-12)
        assert row["primal_dual_gap"] < 1e-9
        assert row["bruteforce"] == pytest.approx(length, abs=1e-12)

    @pytest.mark.parametrize("multiplicity", [2.7, True, "2", pytest.param(10 ** 400, id="10**400")])
    def test_non_integer_multiplicity_exit_2(self, tmp_path, capsys, multiplicity):
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps({"multiplicity": multiplicity, "positives": [[0, 0, -1]],
                                   "negatives": [[0, 0, 1]]}))
        assert run(["sigma", "--spec", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_square_example(self, tmp_path):
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps({
            "multiplicity": 1,
            "positives": [[0, 0, 0], [1, 0, 0]],
            "negatives": [[0, 1, 0], [1, 1, 0]],
        }))
        out = tmp_path / "sigma.csv"
        code = run(["sigma", "--spec", str(cfg), "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["length"]) == pytest.approx(2.0, abs=1e-12)
        assert cols["matching"] == "0|1"

    def test_empty_config(self, tmp_path):
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps({"multiplicity": 1, "positives": [], "negatives": []}))
        out = tmp_path / "sigma.csv"
        code = run(["sigma", "--spec", str(cfg), "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        for column in ("length", "primal", "dual", "bruteforce"):
            assert cols[column] == "0", column

    def test_unbalanced_exit_2(self, tmp_path):
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps({"positives": [[0, 0, 0]], "negatives": []}))
        assert run(["sigma", "--spec", str(cfg)]) == 2

    def test_malformed_exit_2(self, tmp_path):
        cfg = tmp_path / "charges.json"
        cfg.write_text("{not json")
        assert run(["sigma", "--spec", str(cfg)]) == 2

    def test_malformed_rows_exit_2(self, tmp_path):
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps({"positives": [[0, 0, 0, 1, 1, 1]],
                                   "negatives": [[0, 0, 1], [1, 0, 0]]}))
        assert run(["sigma", "--spec", str(cfg)]) == 2

    @pytest.mark.parametrize("config", [
        {"Positives": [[0, 0, 1]], "Negatives": [[0, 0, -1]]},
        {"multiplicty": 2, "positives": [[0, 0, 1]], "negatives": [[0, 0, -1]]},
        {"Positives": [[0, 0, 1]], "multiplicty": 2, "Negatives": [[0, 0, -1]]},
    ])
    def test_misspelled_key_exit_2(self, tmp_path, capsys, config):
        cfg, out = tmp_path / "charges.json", tmp_path / "sigma.csv"
        cfg.write_text(json.dumps(config))
        assert run(["sigma", "--spec", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: cannot load charge configuration: unknown keys")
        assert not out.exists()

    def test_missing_spec_exit_2(self):
        assert run(["sigma"]) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_exit_2(self, tmp_path, capsys, bad):
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps({"positives": [[0, 0, bad]], "negatives": [[0, 0, 1]]}))
        assert run(["sigma", "--spec", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: cannot load charge configuration: "
                       "non-finite coordinate in positives"]

    @pytest.mark.parametrize("x", [1e160, 1.7e308])
    def test_overflowing_distance_exit_2(self, tmp_path, capsys, x):
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps({"positives": [[x, 0, 0]], "negatives": [[-x, 0, 0]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would end in a traceback
            assert run(["sigma", "--spec", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: cannot load charge configuration: "
                       "a positive-negative distance overflows to inf"]


def resolve(argv):
    return cli._spec_from_args(cli.build_parser().parse_args(argv))


def spec_file(tmp_path, overrides):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(overrides))
    return str(path)


class TestParameters:
    """Flags and spec-file keys resolve through one table and one conversion."""

    @pytest.mark.parametrize("command, params", [
        ("t0-energy", {"n": [2], "alpha": [0.25], "r_nodes": 16385, "r_min": 1e-4}),
        ("relaxation-check", {"n": [1, 2, 3], "alpha": 0.25, "eps": [0.2, 0.1, 0.05, 0.025],
                              "nodes": 16385, "r_min": 1e-6}),
        ("proposition-sweep", {"n": 2, "alpha": [0.25, 0.1, 0.05, 0.02],
                               "a_frac": [1.0, 0.5, 0.1], "c0": [1.0, 5.0, 20.0],
                               "s_tilde": ["2s", "mid", "1"], "nodes": 256}),
        ("dipole-tradeoff", {"n": 2, "alpha": 0.25, "delta": [0.1, 0.2, 0.3, 0.4, 0.5],
                             "rbox_factors": [1.0, 2.0, 4.0], "nodes_r": 65, "nodes_z": 65}),
        ("sigma", {"config": None}),
    ])
    def test_defaults(self, command, params):
        # repr compares types and key order too: [2] is not [2.0]
        expected = cli.ExperimentSpec(command=command, params=params, out=None, fmt="csv",
                                      workers=1)
        assert repr(resolve([command])) == repr(expected)

    @pytest.mark.parametrize("command, flag, text, key, value, expected", [
        ("t0-energy", "--n", "1,3", "n", [1, 3], [1, 3]),
        ("dipole-tradeoff", "--delta", "0.2,0.4", "delta", [0.2, 0.4], [0.2, 0.4]),
        ("proposition-sweep", "--s-tilde", "mid,1", "s-tilde", ["mid", "1"], ["mid", "1"]),
        ("t0-energy", "--r-nodes", "17", "r_nodes", 17, 17),
        ("relaxation-check", "--alpha", "0.1", "alpha", 0.1, 0.1),
    ])
    def test_spec_matches_flag(self, tmp_path, command, flag, text, key, value, expected):
        from_flag = resolve([command, flag, text])
        from_spec = resolve([command, "--spec", spec_file(tmp_path, {key: value})])
        assert repr(from_flag) == repr(from_spec)
        assert repr(from_flag.params[key.replace("-", "_")]) == repr(expected)

    def test_spec_overrides_flag(self, tmp_path):
        spec = resolve(["t0-energy", "--alpha", "0.1", "--r-nodes", "9",
                        "--spec", spec_file(tmp_path, {"alpha": [0.2]})])
        assert spec.params["alpha"] == [0.2] and spec.params["r_nodes"] == 9

    def test_spec_workers_only_one(self):
        spec = cli.ExperimentSpec(command="t0-energy", params={}, workers=1)
        assert spec.workers == 1
        with pytest.raises(cli.InputError, match="workers must be 1"):
            cli.ExperimentSpec(command="dipole-tradeoff", params={}, workers=2)

    @pytest.mark.parametrize("args", [
        ["t0-energy", "--workers", "2"], ["relaxation-check", "--workers", "2"],
        ["proposition-sweep", "--workers", "2"], ["sigma", "--workers", "2"],
        ["proposition-sweep", "--b", "0.5"], ["dipole-tradeoff", "--maxiter", "10"],
        ["dipole-tradeoff", "--workers", "2"],
    ])
    def test_removed_flags_exit_2(self, args):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [
        ["t0-energy", "--workers", "2"], ["sigma", "--r-nodes", "9"],
        ["t0-energy", "--r-nodes"], ["no-such-command"], [], ["t0-energy", "--z-nodes", "9"],
        ["dipole-tradeoff", "--workers", "2"],
    ], ids=["removed-flag", "foreign-flag", "missing-value", "unknown-command", "no-command",
            "removed-z-nodes", "removed-dipole-workers"])
    def test_usage_error_is_one_line(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("args, overrides", [
        (["dipole-tradeoff"], {"workers": "x"}),
        (["dipole-tradeoff"], {"seed": "x"}),
        (["t0-energy"], {"command": "sigma"}),
        (["t0-energy"], {"spec": "other.json"}),
        (["t0-energy"], {"r-nodes": 9.7}),
        (["t0-energy"], {"r-nodes": float("inf")}),
        (["t0-energy"], [0.1]),
        (["t0-energy", "--r-nodes", "abc"], None),
        (["t0-energy", "--r-nodes", "9.7"], None),
        (["dipole-tradeoff", "--rbox-factors", ""], None),
        (["proposition-sweep", "--s-tilde", ""], None),
        # every point infeasible (s >= 1/2), so no point reaches the choice
        (["proposition-sweep", "--s-tilde", "foo", "--alpha", "0.25", "--c0", "20"], None),
        (["t0-energy", "--format", "xml"], None),
        # a box with no interior node relaxes nothing
        (["dipole-tradeoff", "--nodes-r", "2", "--delta", "0.3", "--rbox-factors", "1"], None),
        (["dipole-tradeoff", "--nodes-z", "2", "--delta", "0.3", "--rbox-factors", "1"], None),
        # the half box needs a z = 0 row
        (["dipole-tradeoff", "--nodes-z", "16", "--delta", "0.3", "--rbox-factors", "1"], None),
        # removed parameters are unknown keys
        (["dipole-tradeoff"], {"jitter": 0.0}),
        (["t0-energy"], {"seed": 0}),
        (["dipole-tradeoff"], {"maxiter": 3000}),
        (["proposition-sweep"], {"b": 0.5}),
        (["t0-energy"], {"workers": 1}),
        (["dipole-tradeoff"], {"workers": 2}),
        (["t0-energy"], {"z-nodes": 9}),
        # too few cone nodes, with a feasible point and with none
        (["proposition-sweep", "--nodes", "10"], None),
        (["proposition-sweep", "--nodes", "10", "--c0", "20", "--alpha", "0.25",
          "--a-frac", "1", "--s-tilde", "2s"], None),
    ], ids=["spec-workers-x", "spec-seed-x", "spec-command", "spec-spec", "spec-int-9.7",
            "spec-int-inf", "spec-not-object", "flag-int-abc", "flag-int-9.7",
            "flag-empty-float-list", "flag-empty-word-list", "flag-unknown-word",
            "flag-format-xml", "flag-nodes-r-2", "flag-nodes-z-2", "flag-nodes-z-even",
            "spec-jitter", "spec-seed", "spec-maxiter", "spec-b", "spec-workers-t0",
            "spec-workers-dipole", "spec-z-nodes", "flag-cone-nodes-10",
            "flag-cone-nodes-10-infeasible"])
    def test_bad_value_exit_2(self, tmp_path, capsys, monkeypatch, args, overrides):
        # a bad value is rejected before the first point is computed
        bounds = []
        monkeypatch.setattr(cli, "gap_lower_bound", lambda *a: bounds.append(a))
        if overrides is not None:
            args = args + ["--spec", spec_file(tmp_path, overrides)]
        assert run(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert bounds == []


def strict_load(path):
    """Parse a JSON file, rejecting the non-standard NaN/Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestOutputPath:
    """An output file that cannot be written exits 2 with one line, before
    any computation starts."""

    @pytest.fixture(autouse=True)
    def no_computation(self, monkeypatch):
        def never(spec):
            raise AssertionError("computation started")
        for name, command in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, name, command._replace(run=never))

    def assert_exit_2(self, args, capsys):
        assert run(args) == cli.EXIT_INPUT == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_missing_directory_exit_2(self, tmp_path, capsys, command, fmt):
        out = tmp_path / "missing" / f"x.{fmt}"
        self.assert_exit_2([command, "--format", fmt, "--out", str(out)], capsys)

    def test_directory_exit_2(self, tmp_path, capsys):
        self.assert_exit_2(["t0-energy", "--out", str(tmp_path)], capsys)


class TestStrictJson:
    # each command with a row column that holds a non-finite value, if any
    @pytest.mark.parametrize("args, null_column", [
        (["t0-energy", "--n", "2", "--r-nodes", "257"], None),
        (["relaxation-check", "--n", "2", "--eps", "0.2,0.1", "--nodes", "2049"], None),
        (["proposition-sweep", "--alpha", "0.25", "--a-frac", "1", "--c0", "20",
          "--s-tilde", "2s", "--nodes", "128"], "t0"),
        (["dipole-tradeoff", "--n", "2", "--alpha", "0.05", "--delta", "0.3",
          "--rbox-factors", "1", "--nodes-r", "17", "--nodes-z", "17"], None),
        (["sigma"], "bruteforce"),
    ])
    def test_output_parses_strictly(self, tmp_path, args, null_column):
        out = tmp_path / "out.json"
        if args == ["sigma"]:
            cfg = tmp_path / "charges.json"
            cfg.write_text(json.dumps(uniform_charges(5, 10)))
            args = ["sigma", "--spec", str(cfg)]
        assert run(args + ["--format", "json", "--out", str(out)]) in (0, 3)
        data = strict_load(out)
        assert data["rows"] and "summary" in data
        if null_column is not None:
            assert any(row[null_column] is None for row in data["rows"])

    def test_csv_keeps_nan(self, tmp_path):
        out = tmp_path / "prop.csv"
        assert run(["proposition-sweep", "--alpha", "0.25", "--a-frac", "1", "--c0", "20",
                    "--s-tilde", "2s", "--nodes", "128", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["t0"] == "nan"


class TestTinyInnerRadius:
    """An inner radius whose square underflows still gives finite rows, and
    no numpy warning (u_eps's r^-n overflows to inf there, which is exact)."""

    @pytest.mark.parametrize("args", [
        ["t0-energy", "--r-nodes", "257"],
        ["relaxation-check", "--n", "2", "--eps", "0.2,0.1", "--nodes", "2049"],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_finite(self, tmp_path, args):
        out = tmp_path / "out.json"
        assert run(args + ["--r-min", "1e-300", "--format", "json", "--out", str(out)]) == 0
        rows = strict_load(out)["rows"]
        assert rows
        for row in rows:
            assert all(value is not None for value in row.values()), row


class TestNumericalExit:
    """Numerical failures end with exit code 4 and a one-line message."""

    def assert_exit_4(self, args, capsys):
        assert run(args) == cli.EXIT_NUMERICAL == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error:")

    def test_bound_chain_violation(self, monkeypatch, capsys):
        monkeypatch.setattr("axisphere.variational._I_and_gap", lambda r, g, n: (1.0, 0.0))
        self.assert_exit_4(["proposition-sweep", "--alpha", "0.05", "--a-frac", "1",
                            "--c0", "1", "--s-tilde", "2s", "--nodes", "64"], capsys)

    def test_kantorovich_lp_failure(self, tmp_path, monkeypatch, capsys):
        def failed(dist):
            raise NumericalError("Kantorovich search found no finite augmenting path")
        monkeypatch.setattr("axisphere.connection._shortest_augmenting_paths", failed)
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps({"positives": [[0, 0, -1]], "negatives": [[0, 0, 1]]}))
        self.assert_exit_4(["sigma", "--spec", str(cfg)], capsys)

    def test_kantorovich_row_dual_violation(self, tmp_path, monkeypatch, capsys):
        # the pair is 2 apart; u + v = 2 + 1e-6 breaks its constraint by 1e-6
        optimal = (np.array([0]), np.array([0.0]), np.array([2.0 + 1e-6]))
        monkeypatch.setattr("axisphere.connection._shortest_augmenting_paths",
                            lambda dist: optimal)
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps({"positives": [[0, 0, -1]], "negatives": [[0, 0, 1]]}))
        self.assert_exit_4(["sigma", "--spec", str(cfg)], capsys)

    def test_overflowing_mass(self, tmp_path, capsys):
        # a multiplicity a float holds, times a length of 2e9, exceeds 1.8e308
        cfg = tmp_path / "charges.json"
        cfg.write_text(json.dumps({"multiplicity": 10 ** 300, "positives": [[0, 0, -1e9]],
                                   "negatives": [[0, 0, 1e9]]}))
        self.assert_exit_4(["sigma", "--spec", str(cfg)], capsys)

    def test_singular_segment_subproblem(self, monkeypatch, capsys):
        def singular(dl, d, du, b):
            return dl, d, du, b, 1
        monkeypatch.setattr("axisphere.variational._gtsv", singular)
        self.assert_exit_4(["proposition-sweep", "--alpha", "0.05", "--a-frac", "1",
                            "--c0", "1", "--s-tilde", "2s", "--nodes", "64"], capsys)

    @pytest.mark.parametrize("alpha", ["1e-100", "1e-300"])
    def test_underflowing_arc(self, alpha, capsys):
        # on the s_tilde = 2s arc, t^2n - s^2n underflows to 0
        self.assert_exit_4(["proposition-sweep", "--nodes", "64", "--alpha", alpha], capsys)

    def test_under_resolved_quadrature(self, monkeypatch, capsys):
        def under_resolved(*args, **kwargs):
            raise NumericalError("quadrature residual 0.3")
        monkeypatch.setattr(cli, "energy_3d", under_resolved)
        self.assert_exit_4(["t0-energy", "--r-nodes", "257"], capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args", [
        # the cells' dr^2 underflows to 0
        ["--nodes-r", "5", "--nodes-z", "5", "--delta", "0.3", "--rbox-factors", "1e-160"],
        # the plug's rho^2n underflows where r^-n overflows: 0 * inf
        ["--n", "200", "--rbox-factors", "1"],
    ], ids=["underflowing-cells", "nan-plug"])
    def test_non_finite_dipole_box(self, tmp_path, capsys, args):
        out = tmp_path / "dip.json"
        self.assert_exit_4(["dipole-tradeoff", *args, "--format", "json", "--out", str(out)],
                           capsys)
        assert not out.exists()


def run_python(*args):
    """A fresh interpreter's run of ``python args``, with this package first
    on its path; exits 0 or raises."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_cli_import_leaves_heavy_scipy_modules_out():
    """Every command pays for what ``import axisphere.cli`` loads; scipy's
    optimize, sparse, integrate and linalg packages are not among it, nor
    numpy's f2py and testing, which ``scipy.linalg``'s import brings."""
    heavy = ("scipy.optimize", "scipy.sparse", "scipy.integrate", "scipy.linalg",
             "numpy.f2py", "numpy.testing")
    code = f"import sys, axisphere.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert run_python("-c", code).stdout.strip() == "[]"


def test_module_entry_point():
    done = run_python("-m", "axisphere", "t0-energy", "--r-nodes", "257")
    assert done.stdout.splitlines()[0] == "t0-energy: 1 rows"


def closed_form_agrees(data):
    return all(row["rel_err"] <= 1e-6 for row in data["rows"])


def quadrature_agrees_and_deficits_decrease(data):
    monotone = data["summary"]["deficits_positive_decreasing"]
    return (all(row["quad_rel_err"] <= 1e-5 for row in data["rows"])
            and all(value is True for value in monotone.values()))


def feasible_rows_converge_and_agree(data):
    feasible = [row for row in data["rows"] if row["feasible"]]
    return bool(feasible) and all(row["converged"] is True and row["agreement"] <= 1e-4
                                  for row in feasible)


def relaxed_and_stable(data):
    return all(row["converged"] is True and row["stable"] is True for row in data["rows"])


# each command at its defaults (proposition-sweep at 4096 cone nodes), and
# the check its output must pass
@pytest.mark.parametrize("args, check", [
    (["t0-energy"], closed_form_agrees),
    (["relaxation-check"], quadrature_agrees_and_deficits_decrease),
    (["proposition-sweep", "--nodes", "4096"], feasible_rows_converge_and_agree),
    (["dipole-tradeoff", "--n", "1"], relaxed_and_stable),
    (["dipole-tradeoff", "--n", "2"], relaxed_and_stable),
], ids=["t0-energy", "relaxation-check", "proposition-sweep-4096", "dipole-tradeoff-n1",
        "dipole-tradeoff-n2"])
def test_command_at_defaults(tmp_path, args, check):
    out = tmp_path / "out.json"
    assert run(args + ["--format", "json", "--out", str(out)]) == 0
    data = strict_load(out)
    assert data["rows"] and check(data)
