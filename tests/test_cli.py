import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablekern
from stablekern import cli
from stablekern import (
    NOISE_ALGORITHM,
    SS1,
    WIENER,
    EstimationProblem,
    KernelSpec,
    SearchConfig,
    TridiagonalMatrix,
    band_extend,
    closed_form_inverse,
    fit,
    gram,
    log_det,
    make_grid,
    oracle,
    precision_factor,
    sample_ss1,
    sample_wiener,
    sqrt_factor,
    toeplitz_regressor,
    uniform_grid,
)
from stablekern.cli import run
from stablekern.errors import InvalidParameter
from stablekern.grid import _data_lines, _parse_rows, _read_table
from stablekern.kernels import _Chain

LN2 = math.log(2.0)


def parse_csv(text):
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        rows.append([float(x) for x in line.split(",")])
    return rows


def meta_lines(text):
    return [line for line in text.splitlines() if line.startswith("#")]


def source_env():
    """Environment for a subprocess that imports stablekern from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stablekern.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def ss1_kernel(tmp_path):
    path = tmp_path / "ss1.json"
    path.write_text(json.dumps({"family": SS1, "c": 1.0, "beta": LN2}))
    return str(path)


@pytest.fixture
def wiener_kernel(tmp_path):
    path = tmp_path / "wiener.json"
    path.write_text(json.dumps({"family": WIENER, "c": 1.0}))
    return str(path)


class TestGram:
    def test_worked_example(self, tmp_path, ss1_kernel, capsys):
        out = tmp_path / "p.csv"
        code = run(["gram", "--kernel", ss1_kernel, "--uniform", "3,1,1", "--out", str(out)])
        assert code == 0
        rows = parse_csv(out.read_text())
        expected = [[0.5, 0.25, 0.125], [0.25, 0.25, 0.125], [0.125, 0.125, 0.125]]
        np.testing.assert_allclose(rows, expected, rtol=1e-12)

    def test_stdout_and_metadata(self, ss1_kernel, capsys):
        assert run(["gram", "--kernel", ss1_kernel, "--uniform", "3,1,1"]) == 0
        text = capsys.readouterr().out
        header = meta_lines(text)
        assert header[0] == "# stablekern gram"
        assert any(line.startswith("# kernel:") for line in header)
        assert any(line.startswith("# grid: n=3") for line in header)

    def test_grid_file_source(self, tmp_path, ss1_kernel, capsys):
        grid_file = tmp_path / "g.txt"
        grid_file.write_text("# times\n1.0\n2.0\n3.0\n")
        assert run(["gram", "--kernel", ss1_kernel, "--grid", str(grid_file)]) == 0
        rows = parse_csv(capsys.readouterr().out)
        target = gram(KernelSpec(family=SS1, c=1.0, beta=LN2), make_grid([1.0, 2.0, 3.0])).values
        np.testing.assert_array_equal(rows, target)

    def test_byte_stable(self, tmp_path, ss1_kernel):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["gram", "--kernel", ss1_kernel, "--uniform", "5,0.5,0.5", "--out", str(a)])
        run(["gram", "--kernel", ss1_kernel, "--uniform", "5,0.5,0.5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestStructureCommands:
    def test_inverse_matches_library(self, ss1_kernel, capsys):
        assert run(["inverse", "--kernel", ss1_kernel, "--uniform", "3,1,1"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        np.testing.assert_allclose(rows[0], [4.0, 12.0, 16.0], rtol=1e-12)
        np.testing.assert_allclose(rows[1], [-4.0, -8.0], rtol=1e-12)
        tri = closed_form_inverse(KernelSpec(family=SS1, c=1.0, beta=LN2), uniform_grid(3, 1.0, 1.0))
        np.testing.assert_array_equal(rows[0], tri.diag)
        np.testing.assert_array_equal(rows[1], tri.offdiag)

    def test_singular_gram_error_line(self, tmp_path, wiener_kernel, capsys):
        grid_file = tmp_path / "g.txt"
        grid_file.write_text("0.0\n1.0\n2.0\n")
        code = run(["inverse", "--kernel", wiener_kernel, "--grid", str(grid_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR SingularGram:")
        assert len(err.strip().splitlines()) == 1

    def test_logdet(self, ss1_kernel, capsys):
        assert run(["logdet", "--kernel", ss1_kernel, "--uniform", "3,1,1"]) == 0
        text = capsys.readouterr().out
        value = float(text.splitlines()[-1])
        assert value == pytest.approx(-8.0 * LN2, rel=1e-12)

    def test_factor_precision(self, wiener_kernel, capsys):
        assert run(["factor", "--kernel", wiener_kernel, "--uniform", "4,0.5,0.5"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        f = precision_factor(KernelSpec(family=WIENER, c=1.0), uniform_grid(4, 0.5, 0.5))
        np.testing.assert_array_equal(rows[0], f.diag)
        np.testing.assert_array_equal(rows[1], f.super)

    def test_factor_sqrt(self, ss1_kernel, capsys):
        assert run(["factor", "--kernel", ss1_kernel, "--uniform", "4,1,1", "--which", "sqrt"]) == 0
        via_factor = parse_csv(capsys.readouterr().out)
        u = sqrt_factor(KernelSpec(family=SS1, c=1.0, beta=LN2), uniform_grid(4, 1.0, 1.0))
        np.testing.assert_array_equal(via_factor, u.to_dense())

    @pytest.mark.filterwarnings("error")
    def test_factor_sqrt_where_wiener_ratios_overflow_below_the_diagonal(self, tmp_path, wiener_kernel, capsys):
        grid_file = tmp_path / "g.txt"
        grid_file.write_text("1e-300\n1.0\n1e300\n")
        assert run(["factor", "--kernel", wiener_kernel, "--grid", str(grid_file), "--which", "sqrt"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        np.testing.assert_array_equal(rows, sqrt_factor(KernelSpec(family=WIENER, c=1.0),
                                                        make_grid([1e-300, 1.0, 1e300])).to_dense())

    @pytest.mark.filterwarnings("error")
    def test_logdet_beyond_the_float_range_is_one_error_line(self, tmp_path, capsys):
        kernel = tmp_path / "big.json"
        kernel.write_text(json.dumps({"family": WIENER, "c": 1e300}))
        assert run(["logdet", "--kernel", str(kernel), "--uniform", "2,1e10,1e10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR SingularGram:")
        assert captured.err.count("\n") == 1


class TestSample:
    def test_deterministic_and_documented(self, tmp_path, wiener_kernel):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--kernel", wiener_kernel, "--uniform", "4,0.5,0.5", "--paths", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = meta_lines(a.read_text())
        assert "# seed: 0" in header
        assert f"# noise-algorithm: {NOISE_ALGORITHM}" in header

    def test_matches_library_sampler(self, wiener_kernel, capsys):
        assert run(
            ["sample", "--kernel", wiener_kernel, "--uniform", "4,0.5,0.5",
             "--paths", "3", "--seed", "7"]
        ) == 0
        rows = np.asarray(parse_csv(capsys.readouterr().out))
        ps = sample_wiener(uniform_grid(4, 0.5, 0.5), c=1.0, seed=7, p=3)
        np.testing.assert_array_equal(rows, ps.paths)

    def test_seed_changes_output(self, wiener_kernel, capsys):
        run(["sample", "--kernel", wiener_kernel, "--uniform", "3,1,1", "--paths", "2", "--seed", "1"])
        first = capsys.readouterr().out
        run(["sample", "--kernel", wiener_kernel, "--uniform", "3,1,1", "--paths", "2", "--seed", "2"])
        assert first != capsys.readouterr().out

    @pytest.mark.parametrize("family", ["wiener", "ss1"])
    def test_negative_seed_is_a_domain_error(self, family, wiener_kernel, ss1_kernel, capsys):
        kernel = wiener_kernel if family == "wiener" else ss1_kernel
        code = run(["sample", "--kernel", kernel, "--uniform", "3,1,1", "--paths", "2", "--seed", "-5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR InvalidParameter:")
        assert captured.err.count("\n") == 1


class TestAudit:
    def test_matched_paths_pass(self, tmp_path, wiener_kernel, capsys):
        paths_file = tmp_path / "paths.csv"
        run(["sample", "--kernel", wiener_kernel, "--uniform", "4,0.5,0.5",
             "--paths", "500", "--out", str(paths_file)])
        code = run(["audit", "--paths", str(paths_file), "--kernel", wiener_kernel,
                    "--uniform", "4,0.5,0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["n_paths"] == 500
        assert report["meta"]["command"] == "audit"

    def test_mismatched_paths_flagged_but_exit_zero(self, tmp_path, wiener_kernel, capsys):
        paths_file = tmp_path / "paths.csv"
        run(["sample", "--kernel", wiener_kernel, "--uniform", "4,0.5,0.5",
             "--paths", "500", "--out", str(paths_file)])
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"family": WIENER, "c": 9.0}))
        code = run(["audit", "--paths", str(paths_file), "--kernel", str(wrong),
                    "--uniform", "4,0.5,0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any(c["flagged"] for c in report["checks"])

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_paths(self, tmp_path, wiener_kernel, capsys, bad):
        paths_file = tmp_path / "paths.csv"
        run(["sample", "--kernel", wiener_kernel, "--uniform", "4,0.5,0.5",
             "--paths", "200", "--out", str(paths_file)])
        lines = paths_file.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[row] = ",".join([bad] + lines[row].split(",")[1:])
        paths_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["audit", "--paths", str(paths_file), "--kernel", wiener_kernel,
                    "--uniform", "4,0.5,0.5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("ERROR InvalidParameter: paths must be finite, "
                                "with increment variances in the float range\n")

    def test_paths_file_without_numeric_rows(self, tmp_path, wiener_kernel, capsys):
        paths_file = tmp_path / "paths.csv"
        paths_file.write_text("# stablekern sample\n\n")
        assert run(["audit", "--paths", str(paths_file), "--kernel", wiener_kernel, "--uniform", "4,0.5,0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ERROR InvalidParameter: {paths_file}: no numeric rows\n"


class TestExtend:
    def test_fill_in_value(self, tmp_path, capsys):
        band = tmp_path / "band.csv"
        band.write_text("0.5,0.25,0.125\n0.25,0.125\n")
        assert run(["extend", "--band", str(band)]) == 0
        rows = np.asarray(parse_csv(capsys.readouterr().out))
        assert rows[0, 2] == pytest.approx(0.125, rel=1e-12)
        skel = TridiagonalMatrix(diag=np.array([0.5, 0.25, 0.125]), offdiag=np.array([0.25, 0.125]))
        np.testing.assert_array_equal(rows, band_extend(skel))

    def test_not_completable(self, tmp_path, capsys):
        band = tmp_path / "band.csv"
        band.write_text("1,1,1\n1.5,0.5\n")
        assert run(["extend", "--band", str(band)]) == 1
        assert capsys.readouterr().err.startswith("ERROR NotCompletable:")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_band_entry(self, tmp_path, capsys, bad):
        band = tmp_path / "band.csv"
        band.write_text(f"1,{bad},1\n0.1,0.1\n")
        assert run(["extend", "--band", str(band)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ERROR InvalidParameter: band entries must be finite\n"

    def test_malformed_band_file(self, tmp_path, capsys):
        band = tmp_path / "band.csv"
        band.write_text("1,1,1\n0.1,0.1\n0.0\n")
        assert run(["extend", "--band", str(band)]) == 1
        assert capsys.readouterr().err.startswith("ERROR InvalidParameter:")


class TestMaxentAudit:
    def test_report_structure(self, ss1_kernel, capsys):
        code = run(["maxent-audit", "--kernel", ss1_kernel, "--uniform", "4,1,1",
                    "--trials", "50", "--seed", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["completion"]["dominance"] is True
        assert report["increments"]["dominance"] is True
        assert len(report["completion"]["candidate_entropies"]) == 50
        assert report["meta"]["trials"] == 50
        assert report["meta"]["seed"] == 3

    def test_negative_seed_is_a_domain_error(self, ss1_kernel, capsys):
        code = run(["maxent-audit", "--kernel", ss1_kernel, "--uniform", "4,1,1",
                    "--trials", "5", "--seed", "-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR InvalidParameter:")
        assert captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_wiener_grid_spanning_the_float_range(self, tmp_path, wiener_kernel, capsys):
        grid_file = tmp_path / "g.txt"
        grid_file.write_text("1e-300\n1.0\n1e300\n")
        assert run(["maxent-audit", "--kernel", wiener_kernel, "--grid", str(grid_file), "--trials", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["increments"]["dominance"] is True

    @pytest.mark.parametrize("uniform", ["1,1,1", "2,1,1"])
    def test_one_and_two_point_grids(self, ss1_kernel, wiener_kernel, uniform, capsys):
        for kernel in (ss1_kernel, wiener_kernel):
            assert run(["maxent-audit", "--kernel", kernel, "--uniform", uniform, "--trials", "20"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["completion"]["dominance"] is True
            assert report["completion"]["identity_residual"] == 0.0
            assert report["increments"]["dominance"] is True


class TestFit:
    def write_problem(self, tmp_path, n_data=40, order=5, seed=0):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(n_data)
        h0 = np.exp(-0.5 * np.arange(1, order + 1))
        y = toeplitz_regressor(u, order) @ h0 + 0.05 * rng.standard_normal(n_data)
        data = tmp_path / "io.csv"
        lines = ["u,y"] + [f"{format(a, '.17g')},{format(b, '.17g')}" for a, b in zip(u, y)]
        data.write_text("\n".join(lines) + "\n")
        search = {
            "c": {"min": 0.5, "max": 2.0, "num": 2},
            "beta": {"min": 0.3, "max": 0.6, "num": 2},
            "sigma2": {"min": 0.001, "max": 0.01, "num": 2},
            "refine": False,
        }
        search_file = tmp_path / "search.json"
        search_file.write_text(json.dumps(search))
        return data, search_file, search, u, y, order

    def test_matches_library_fit(self, tmp_path, capsys):
        data, search_file, search, u, y, order = self.write_problem(tmp_path)
        code = run(["fit", "--data", str(data), "--order", str(order),
                    "--kernel-family", SS1, "--search", str(search_file)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        u_rt = np.array([float(format(x, ".17g")) for x in u])
        y_rt = np.array([float(format(x, ".17g")) for x in y])
        est = fit(
            EstimationProblem(u=u_rt, y=y_rt, order=order),
            uniform_grid(order, 1.0, 1.0),
            SearchConfig.from_dict(search, SS1),
        )
        np.testing.assert_array_equal(payload["coefficients"], est.coefficients)
        assert payload["kernel"] == est.spec.to_dict()
        assert payload["sigma2"] == est.sigma2
        assert payload["log_ml"] == est.log_ml
        assert payload["meta"]["order"] == order

    def test_fixed_sigma2(self, tmp_path, capsys):
        data, search_file, *_ , order = self.write_problem(tmp_path)
        code = run(["fit", "--data", str(data), "--order", str(order),
                    "--kernel-family", SS1, "--search", str(search_file),
                    "--sigma2", "0.0025"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma2"] == 0.0025
        assert payload["diagnostics"]["sigma2_tuned"] is False

    @pytest.mark.filterwarnings("error")
    def test_all_underflow_search_is_a_domain_error(self, tmp_path, capsys):
        # On the default grid 1..40, beta >= 40 underflows exp(-beta * t_n / 2).
        data, *_ = self.write_problem(tmp_path, n_data=80, order=40)
        search_file = tmp_path / "underflow.json"
        search_file.write_text(json.dumps({"c": {"min": 1, "max": 1, "num": 1},
                                           "beta": {"min": 40, "max": 50, "num": 2},
                                           "sigma2": {"min": 0.01, "max": 0.01, "num": 1}}))
        code = run(["fit", "--data", str(data), "--order", "40",
                    "--kernel-family", SS1, "--search", str(search_file)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR SingularGram:")
        assert captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_zero_output_with_free_noise_is_a_domain_error(self, tmp_path, capsys):
        data, search_file, *_ , order = self.write_problem(tmp_path)
        lines = data.read_text().splitlines()
        data.write_text("\n".join([lines[0]] + [f"{line.split(',')[0]},0.0" for line in lines[1:]]) + "\n")
        code = run(["fit", "--data", str(data), "--order", str(order),
                    "--kernel-family", SS1, "--search", str(search_file)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR InvalidParameter:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample(self, tmp_path, capsys, bad):
        data, search_file, *_ , order = self.write_problem(tmp_path)
        lines = data.read_text().splitlines()
        lines[4] = f"{lines[4].split(',')[0]},{bad}"
        data.write_text("\n".join(lines) + "\n")
        code = run(["fit", "--data", str(data), "--order", str(order),
                    "--kernel-family", SS1, "--search", str(search_file)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ERROR InvalidParameter: u and y must be finite\n"

    @pytest.mark.filterwarnings("error")
    def test_fixed_sigma2_beyond_the_exp_range_keeps_the_grid_optimum(self, tmp_path, capsys):
        # lam = 1 / 1e-305 has |ln lam| > 700: refinement cannot start, and the grid optimum stands.
        rng = np.random.default_rng(0)
        u, y = 1e-5 * rng.standard_normal(20), 1e-5 * rng.standard_normal(20)
        data = tmp_path / "uy.csv"
        data.write_text("u,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(u.tolist(), y.tolist())))
        search_file = tmp_path / "search.json"
        search_file.write_text(json.dumps({"c": {"min": 1.0, "max": 1.0, "num": 1}}))
        code = run(["fit", "--data", str(data), "--order", "2", "--kernel-family", WIENER,
                    "--search", str(search_file), "--sigma2", "1e-305"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        grid_only = fit(EstimationProblem(u=u, y=y, order=2, sigma2=1e-305), uniform_grid(2, 1.0, 1.0),
                        SearchConfig(family=WIENER, c_grid=(1.0,), refine=False))
        assert payload["log_ml"] == grid_only.log_ml
        np.testing.assert_array_equal(payload["coefficients"], grid_only.coefficients)

    def test_bad_header(self, tmp_path, capsys):
        data, search_file, *_ , order = self.write_problem(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run(["fit", "--data", str(bad), "--order", "1",
                    "--kernel-family", WIENER, "--search", str(search_file)]) == 1
        assert capsys.readouterr().err.startswith("ERROR InvalidParameter:")

    @pytest.mark.parametrize("text, message", [("u,y\n1,2\n3,4,5\n", "line 3 is 3 wide, not 2"),
                                               ("u,y\n1,2\n# note\n3,x\n", "line 4 is not numeric CSV"),
                                               ("# u,y to come\n\n", "empty data file")],
                             ids=["three_columns", "not_numeric", "empty"])
    def test_malformed_data_file(self, tmp_path, text, message, capsys):
        # The data file is read first: the search file named here does not exist.
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert run(["fit", "--data", str(bad), "--order", "1",
                    "--kernel-family", WIENER, "--search", str(tmp_path / "absent.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ERROR InvalidParameter: {bad}: {message}\n"

    @pytest.mark.parametrize("bad", [{"c": {"min": "x", "max": 1, "num": 3}},
                                     {"refine_maxiter": "many"},
                                     {"refine": "no"},
                                     {"c": {"min": "0.1", "max": 1, "num": 3}},
                                     {"c": {"min": 0.1, "max": 1, "num": 2.7}},
                                     {"c": {"min": 0.1, "max": 1, "num": True}},
                                     {"refine_maxiter": -5},
                                     {"refine_maxiter": 0}],
                             ids=["axis_bound", "refine_maxiter", "refine", "string_bound", "fractional_num",
                                  "boolean_num", "negative_refine_maxiter", "zero_refine_maxiter"])
    def test_malformed_search_config(self, tmp_path, bad, capsys):
        data, search_file, search, *_ , order = self.write_problem(tmp_path)
        search_file.write_text(json.dumps(dict(search, **bad)))
        assert run(["fit", "--data", str(data), "--order", str(order),
                    "--kernel-family", SS1, "--search", str(search_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR InvalidParameter:")
        assert captured.err.count("\n") == 1

    def test_bad_search_json(self, tmp_path, capsys):
        data, *_ = self.write_problem(tmp_path)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert run(["fit", "--data", str(data), "--order", "3",
                    "--kernel-family", WIENER, "--search", str(broken)]) == 1
        assert capsys.readouterr().err.startswith("ERROR InvalidParameter:")


class TestCheck:
    # For n <= 2 the band is the matrix, and band_roundtrip is reported too.
    @pytest.mark.parametrize("uniform", ["10,0.5,0.5", "7,1,2", "1,1,1", "2,1,1"])
    def test_passes_for_both_kernels(self, ss1_kernel, wiener_kernel, uniform, capsys):
        for kernel in (ss1_kernel, wiener_kernel):
            code = run(["check", "--kernel", kernel, "--uniform", uniform])
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            assert report["pass"] is True
            names = {c["name"] for c in report["checks"]}
            assert {"inverse_identity", "log_det_vs_dense", "precision_factor",
                    "sqrt_factor", "band_roundtrip"} <= names
            assert all(c["pass"] for c in report["checks"])

    # SS-1 c = 1, beta = 1: every Gram entry lies near 1e-300 and every closed form exists.
    @pytest.mark.parametrize("times", [[1.0, 300.0, 700.0], np.linspace(1.0, 705.0, 50).tolist()],
                             ids=["1-300-700", "linspace-1-705-50"])
    def test_passes_where_the_gram_nears_the_pivot_floor(self, tmp_path, times, capsys):
        kernel = tmp_path / "ss1.json"
        kernel.write_text(json.dumps({"family": SS1, "c": 1.0, "beta": 1.0}))
        grid = tmp_path / "grid.txt"
        grid.write_text("".join(f"{t!r}\n" for t in times))
        code = run(["check", "--kernel", str(kernel), "--grid", str(grid)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["pass"] is True


class TestErrorsAndUsage:
    def test_missing_kernel_file_is_io_error(self, tmp_path, capsys):
        code = run(["gram", "--kernel", str(tmp_path / "nope.json"), "--uniform", "3,1,1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR IO:")

    def test_invalid_kernel_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = run(["gram", "--kernel", str(bad), "--uniform", "3,1,1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR InvalidParameter:")

    def test_unknown_kernel_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": WIENER, "c": 1.0, "gamma": 2.0}))
        code = run(["gram", "--kernel", str(bad), "--uniform", "3,1,1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR InvalidParameter:")

    @pytest.mark.parametrize("payload", [{"family": SS1, "c": 1.0, "beta": "0.5"},
                                         {"family": WIENER, "c": True},
                                         {"family": SS1, "c": 1.0, "beta": True}],
                             ids=["string_beta", "bool_c", "bool_beta"])
    def test_non_numeric_hyperparameter(self, tmp_path, payload, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["logdet", "--kernel", str(bad), "--uniform", "3,1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR InvalidParameter:")
        assert captured.err.count("\n") == 1

    def test_usage_errors_exit_two(self, ss1_kernel, tmp_path, capsys):
        grid_file = tmp_path / "g.txt"
        grid_file.write_text("1.0\n")
        assert run([]) == 2
        assert run(["frobnicate"]) == 2
        assert run(["gram", "--kernel", ss1_kernel]) == 2
        assert run(["gram", "--kernel", ss1_kernel, "--uniform", "3,1"]) == 2
        assert run(["gram", "--kernel", ss1_kernel, "--uniform", "3,1,1",
                    "--grid", str(grid_file)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("uniform", ["3,x,1", "2.5,1,1"])
    def test_unparsable_uniform_grid_exits_two(self, ss1_kernel, uniform, capsys):
        assert run(["gram", "--kernel", ss1_kernel, "--uniform", uniform]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot parse {uniform!r} as N,DELTA,T_START" in captured.err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_quiet_accepted_before_and_after_subcommand(self, ss1_kernel, capsys):
        assert run(["--quiet", "logdet", "--kernel", ss1_kernel, "--uniform", "3,1,1"]) == 0
        before = capsys.readouterr().out
        assert run(["logdet", "--kernel", ss1_kernel, "--uniform", "3,1,1", "--quiet"]) == 0
        assert capsys.readouterr().out == before

    @pytest.mark.parametrize("uniform", ["10,1e308,1e308", "3,inf,1"])
    def test_non_finite_uniform_grid_warns_nothing(self, ss1_kernel, uniform, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["logdet", "--kernel", ss1_kernel, "--uniform", uniform]) == 1
        err = capsys.readouterr().err
        assert err == "ERROR InvalidParameter: grid times must be finite\n"

    def test_nonincreasing_grid_file(self, tmp_path, ss1_kernel, capsys):
        grid_file = tmp_path / "g.txt"
        grid_file.write_text("2.0\n1.0\n")
        assert run(["gram", "--kernel", ss1_kernel, "--grid", str(grid_file)]) == 1
        assert capsys.readouterr().err.startswith("ERROR NonIncreasing:")

    def test_negative_time_in_grid_file(self, tmp_path, ss1_kernel, capsys):
        grid_file = tmp_path / "g.txt"
        grid_file.write_text("1.0\n-1.0\n")
        assert run(["logdet", "--kernel", ss1_kernel, "--grid", str(grid_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ERROR NegativeTime: grid times must be nonnegative, got t2=-1.0\n"

    # 10^17 float64 values are 8e17 bytes, far above 2^48: numpy refuses them
    # before touching memory, whatever the host's overcommit setting.
    @pytest.mark.parametrize("argv", [["logdet", "--uniform", "100000000000000000,1,1"],
                                      ["sample", "--uniform", "3,1,1", "--paths", "100000000000000000"],
                                      ["fit", "--data", "uy.csv", "--order", "2", "--kernel-family", WIENER,
                                       "--search", "search.json"]],
                             ids=["logdet_grid", "sample_paths", "fit_search_axis"])
    def test_request_beyond_memory_is_one_error_line(self, tmp_path, monkeypatch, ss1_kernel, argv, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "uy.csv").write_text("u,y\n1,2\n0.5,1\n0.25,0.5\n")
        (tmp_path / "search.json").write_text(json.dumps({"c": {"min": 0.1, "max": 10, "num": 10 ** 17}}))
        if argv[0] != "fit":
            argv = argv + ["--kernel", ss1_kernel]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR Memory: Unable to allocate")
        assert captured.err.count("\n") == 1


class TestInstalledEntryPoint:
    def test_console_script(self, tmp_path):
        # Build the launcher that installers generate from this checkout's
        # [project.scripts] entry (entry-points specification: a shebang for
        # the interpreter, then import the object and sys.exit its result),
        # instead of trusting whatever `stablekern` happens to be on PATH.
        tomllib = pytest.importorskip("tomllib")
        pyproject = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "stablekern" in scripts
        module, _, attr = scripts["stablekern"].partition(":")
        assert module and attr
        launcher = tmp_path / "stablekern"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
        kernel = tmp_path / "ss1.json"
        kernel.write_text(json.dumps({"family": SS1, "c": 1.0, "beta": LN2}))
        env = source_env()

        result = subprocess.run(
            [str(launcher), "logdet", "--kernel", str(kernel), "--uniform", "3,1,1"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        value = float(result.stdout.strip().splitlines()[-1])
        assert value == pytest.approx(-8.0 * LN2, rel=1e-12)

        # The exit code of run() must pass through main() to the process.
        result = subprocess.run(
            [str(launcher), "logdet", "--kernel", str(kernel), "--uniform", "3,-1,1"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("ERROR InvalidParameter:")
        assert "Traceback" not in result.stderr

    def test_python_m_stablekern(self, tmp_path):
        kernel = tmp_path / "ss1.json"
        kernel.write_text(json.dumps({"family": SS1, "c": 1.0, "beta": LN2}))
        env = source_env()
        result = subprocess.run(
            [sys.executable, "-m", "stablekern", "logdet", "--kernel", str(kernel), "--uniform", "3,1,1"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        value = float(result.stdout.strip().splitlines()[-1])
        assert value == pytest.approx(-8.0 * LN2, rel=1e-12)

    def test_python_m_stablekern_cli(self, tmp_path):
        kernel = tmp_path / "ss1.json"
        kernel.write_text(json.dumps({"family": SS1, "c": 1.0, "beta": LN2}))
        env = source_env()
        result = subprocess.run(
            [sys.executable, "-m", "stablekern.cli", "logdet", "--kernel", str(kernel), "--uniform", "3,1,1"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        value = float(result.stdout.strip().splitlines()[-1])
        assert value == pytest.approx(-8.0 * LN2, rel=1e-12)

        result = subprocess.run(
            [sys.executable, "-m", "stablekern.cli", "logdet", "--kernel", str(kernel), "--uniform", "3,-1,1"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("ERROR InvalidParameter:")
        assert "Traceback" not in result.stderr


# Runs in a fresh interpreter: argv[1] is a JSON list of CLI argument lists,
# and argv[2] is "blocked" where importing scipy must fail.  Prints one JSON
# line: per command, its exit code and the scipy modules loaded once it has
# run; "import" holds those loaded by the imports alone.
_IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    if sys.argv[2] == "blocked":
        sys.modules["scipy"] = None
    import stablekern, stablekern.cli

    def loaded():
        return sorted(m for m, module in sys.modules.items()
                      if module is not None and (m == "scipy" or m.startswith("scipy.")))

    steps = [{"argv": ["import"], "code": 0, "scipy": loaded()}]
    for argv in json.loads(sys.argv[1]):
        steps.append({"argv": argv, "code": stablekern.cli.run(argv), "scipy": loaded()})
    print(json.dumps(steps))
""")


def _probe(commands, scipy="importable"):
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands), scipy],
        capture_output=True, text=True, timeout=120, env=source_env(),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestScipyImportedOnUse:
    def test_structured_commands_load_no_scipy(self, tmp_path, ss1_kernel):
        # Every command, sample included, exits 0 in a fresh interpreter and
        # loads no scipy, both where scipy is installed and where it cannot be
        # imported at all.
        band = tmp_path / "band.csv"
        band.write_text("0.5,0.25,0.125\n0.25,0.125\n")
        paths_file = tmp_path / "paths.csv"
        fit_file = tmp_path / "fit.json"
        data, search_file, search, u, y, order = TestFit().write_problem(tmp_path, n_data=60, order=6)
        search["refine"] = True
        search_file.write_text(json.dumps(search))
        common = ["--kernel", ss1_kernel, "--uniform", "4,1,1", "--quiet"]
        commands = [
            ["gram", *common, "--out", str(tmp_path / "gram.csv")],
            ["inverse", *common, "--out", str(tmp_path / "inverse.csv")],
            ["logdet", *common, "--out", str(tmp_path / "logdet.csv")],
            ["factor", *common, "--out", str(tmp_path / "factor.csv")],
            ["factor", *common, "--which", "sqrt", "--out", str(tmp_path / "sqrt.csv")],
            ["extend", "--band", str(band), "--out", str(tmp_path / "extend.csv")],
            ["sample", *common, "--paths", "200", "--seed", "7", "--out", str(paths_file)],
            ["audit", "--paths", str(paths_file), *common, "--out", str(tmp_path / "audit.json")],
            ["check", *common, "--out", str(tmp_path / "check.json")],
            ["maxent-audit", *common, "--trials", "20", "--out", str(tmp_path / "maxent.json")],
            ["fit", "--data", str(data), "--order", str(order), "--kernel-family", SS1,
             "--search", str(search_file), "--quiet", "--out", str(fit_file)],
        ]
        assert sorted({argv[0] for argv in commands}) == sorted(c[0] for c in cli._COMMANDS)
        ps = sample_ss1(uniform_grid(4, 1.0, 1.0), c=1.0, beta=LN2, seed=7, p=200)
        est = fit(EstimationProblem(u=u, y=y, order=order), uniform_grid(order, 1.0, 1.0),
                  SearchConfig.from_dict(search, SS1))
        assert est.diagnostics["n_evaluations"] > 8  # the BFGS refinement ran

        for scipy in ("importable", "blocked"):
            steps = _probe(commands, scipy)
            for step in steps:
                assert step["code"] == 0, (scipy, step["argv"])
                assert step["scipy"] == [], (scipy, step["argv"])
            np.testing.assert_array_equal(parse_csv(paths_file.read_text()), ps.paths)
            assert json.loads((tmp_path / "audit.json").read_text())["n_paths"] == 200
            payload = json.loads(fit_file.read_text())
            np.testing.assert_array_equal(payload["coefficients"], est.coefficients)
            assert payload["log_ml"] == est.log_ml


class TestGoldenBytes:
    """stdout of fixed commands, pinned by its sha256.

    The digests were recorded before the kernels were rewritten over one
    Markov-chain core, so they lock the outputs that rewrite keeps
    bit-identical: seed-reproducible samples, Gram matrices, inverses,
    audits, the band completion, the Wiener log-determinant and the SS-1
    precision factor.  The square roots, the SS-1 log-determinant, the
    Wiener precision factor, the entropy audits, the oracle check and
    three full error lines were pinned later, before the CLI was rebuilt
    around one command table.
    The ``fit`` outputs (grid scan plus simplex, both families, free and
    fixed noise variance) were pinned before the tuner became one code
    path.  The two ``maxent-audit`` digests were re-recorded when the
    completion candidates became D-vine completions and both reports
    gained ``identity_residual``; the increment entropies kept their
    bytes.  They were re-recorded again, with ``extend`` and the SS-1
    ``check``, when the increment candidates became D-vine correlations
    and the fill-in took the ratio M[j-1, j] / M[j-1, j-1] before the
    product.  The increment section holds new candidates.  The completion
    numbers, the extended band and the SS-1 ``band_roundtrip`` residual
    moved in the last bits, by about the old values' own error against
    60-digit arithmetic.
    The four ``fit`` digests were re-recorded when the tuner moved to the
    prior's whitened coordinates: trace values moved in the last bits,
    and one fixed-sigma2 Wiener optimum moved to a near-tie whose value is
    higher in 50-digit arithmetic.
    The square roots, both ``maxent-audit`` digests, both ``check``
    digests and the four ``fit`` digests were re-recorded when the square
    root's column scales became products of square roots instead of
    reciprocals of the precision factor, and the posterior mean moved to
    the tuner's whitened system.  The square-root entries, the increment
    entropies, the ``sqrt_factor`` residuals, the fit coefficients and the
    trace values moved in the last bits, with the same hyperparameters,
    trace points and evaluation counts, and stay within a few units of
    roundoff of 60-digit arithmetic.
    The two precision-factor digests and both ``check`` digests were
    re-recorded when the precision factor became the exact inverse of the
    square root, its diagonal the reciprocals of the column scales: its
    entries and the ``precision_factor`` residuals moved in the last bits,
    and stay within 3.4 units of roundoff of 60-digit arithmetic.
    The two free-sigma2 ``fit`` digests were re-recorded when the tuner
    profiled sigma2 out, scanning lam = c / sigma2 at each sigma2's best
    value: both optima rose (Wiener by 2.5e-7, SS-1 by 1.34), and each new
    log_ml and mean agree with the dense oracle's within 1e-13.
    The two fixed-sigma2 ``fit`` digests were re-recorded when a fixed
    sigma2 joined that lam scan, pinned instead of profiled, with its
    simplex over (log lam, log beta) instead of (log c, log beta), and
    each entry's c = lam sigma2: both optima rose (Wiener by 1.3e-13,
    SS-1 by 5.8e-4), and each new log_ml and mean agree with the dense
    oracle's within 1e-13.
    The ``sample`` and ``audit`` digests of both families were re-recorded
    when the samplers' normals moved from the inverse normal CDF of PCG64
    uniforms (``pcg64-inverse-cdf``, scipy's ``ndtri``) to numpy's ziggurat
    ``standard_normal`` (``pcg64-ziggurat``): the paths and the noise-algorithm
    line changed, and ``test_sample_and_audit_recomputed`` checks the new
    bytes from outside the library.
    The four ``fit`` digests were re-recorded when refinement moved from a
    Nelder-Mead simplex to BFGS steps on the likelihood's closed-form
    gradient: the optima moved by the simplex's tolerance or less (Wiener
    by -2.2e-11 and -3.6e-14, the last bits of the evaluation), or rose
    where the 30-iteration simplex had stopped short (SS-1 by 2.9e-6 and
    6.6e-5), and the traces are shorter.  ``test_fit_recomputed`` checks
    the new bytes against the dense N x N oracle.
    Commands run from the working directory with relative file names, so
    the meta lines are fixed too.
    """

    GRID = "0.3\n0.75\n1.2\n2.05\n2.5\n3.9\n4.0\n5.25\n"
    KERNELS = {"wiener": {"family": WIENER, "c": 2.2}, "ss1": {"family": SS1, "c": 1.3, "beta": 0.45}}
    DIGESTS = {
        "wiener": {
            "gram": "ad1360c22bd305d2264a64e615576786be6ec9f6ed579d1a0414176e0b747086",
            "inverse": "a99c41291efd873ec240716b2bc2ba38e7a0f3eeeb781ae142d7ac1d5d585244",
            "sample": "73b87efa5f287839e25f7779ab03024a07c286ad15cdb4e73c284d1440718926",
            "audit": "78ef6356a48bdd9bff289fd34f16613d19eb66323a11c7e38245baf701d0d0a4",
            "logdet": "4e43e2af8577612f226e6aa986cddc3d1f4821b8d525ec1cdb4a9b67d18ba9ba",
            "factor": "76fff846e05cfa3f3f114295d59f198f2354e0cbe0fac1978dc4d1842410e598",
            "sqrt": "bbaf1ad8c962917670f1a0d5724d74e2bbde1b1fa404b3ed2e30c85982ecb0f6",
            "maxent-audit": "ed7545d1d12e6a7cbb24f4c64d34d3a5c2e9fec40e42f92af65225c29f50bbdf",
            "check": "e89eba4d24d8ba66c3aef7c34e01f1da464ef2f2b45f40ebb00eaae7ce0fd7c1",
        },
        "ss1": {
            "gram": "78d6f5a0dd24e59fa7c8368314a9d8eaee6b945a031e3528dc600f37aff57183",
            "inverse": "8c029880fb6fd450e9ad46638ff3005eaacd1a98fd626c417af550ffa5cf3588",
            "sample": "46908414e00ac6de08c22c11495c92f8b79dcbc70ef2604d5c097cf66bff0b30",
            "audit": "39fbe48bc427416aab85e5536d68a72eba520b37f0eef43d5f65fd175043c2ac",
            "factor": "c04e907bed012ab8c0f8d70169dba475a09b864ff56dffcf4603a7db99cafc4c",
            "logdet": "281944b0f909055661b03c59090ca23665ceaa3dd7eb7850e35f4d834b4db524",
            "sqrt": "5c3ede193b6222fa5dcca29ff94cbcd3960e5f41e10a7bec13b1f3c5d82bd5fb",
            "maxent-audit": "c6aa0fa6b8835bc5d14ed87dd8e9d1409f1b3c9d2bfe87ccc7b607d5db468f00",
            "check": "f9c71283cdce2835f3b2cce4f9decedc8538cf8b40343c16467d06f9a4d698db",
        },
        "extend": "1ff7757c2c3cd9264e1a334667696881715193989076c07c016bb69250f833ed",
        "fit": {
            "wiener": {"free": "f9ba2567feb4290b45b790643dafb279ad8902a274cacda2e22fbdc99379bc15",
                       "fixed": "ccd870149d5e5d59de75dfb36aa8619c6cf16e5a82c49a16eb67f43fe08ed9ed"},
            "ss1": {"free": "fbaf3a98b694e039885801f25ce54752bc9817cf59055e5b4af566e3c0ad6b1d",
                    "fixed": "c068e9e8b3921a5514c394d6d48ffaa0c135d4f6404955a100531bc5d0d09d71"},
        },
    }
    # u in {-5/4, ..., 5/4}, y = sum_j 2^-j u[k-j] plus a dyadic disturbance:
    # every value is exact in binary, so the file is the same on every platform.
    UY = "u,y\n" + "".join(
        f"{u!r},{y!r}\n"
        for u, y in (
            (((7 * k) % 11 - 5) / 4,
             sum((((7 * (k - j)) % 11 - 5) / 4) / 2 ** j for j in range(min(k, 7) + 1))
             + ((5 * k) % 7 - 3) / 64)
            for k in range(60)
        )
    )
    SEARCH = {"c": {"min": 0.5, "max": 4.0, "num": 3}, "beta": {"min": 0.2, "max": 0.8, "num": 3},
              "sigma2": {"min": 0.01, "max": 0.1, "num": 2}, "refine": True, "refine_maxiter": 30}

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text(self.GRID)
        (tmp_path / "band.csv").write_text("2.0,1.5,1.2,0.9,0.7\n1.1,0.8,0.6,0.5\n")
        for name, payload in self.KERNELS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        return tmp_path

    def stdout_digest(self, argv, capsys):
        assert run(argv) == 0
        out = capsys.readouterr().out
        return out, hashlib.sha256(out.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("family", ["wiener", "ss1"])
    def test_family_commands(self, workdir, family, capsys):
        base = ["--kernel", f"{family}.json", "--grid", "g.txt"]
        got = {}
        for name, argv in (("gram", ["gram"]), ("inverse", ["inverse"]),
                           ("sample", ["sample", "--paths", "120", "--seed", "7"])):
            out, got[name] = self.stdout_digest(argv + base, capsys)
        (workdir / "paths.csv").write_text(out)
        _, got["audit"] = self.stdout_digest(["audit", "--paths", "paths.csv"] + base, capsys)
        for name, argv in (("logdet", ["logdet"]), ("factor", ["factor", "--which", "precision"]),
                           ("sqrt", ["factor", "--which", "sqrt"]),
                           ("maxent-audit", ["maxent-audit", "--trials", "7", "--seed", "2"]),
                           ("check", ["check"])):
            _, got[name] = self.stdout_digest(argv + base, capsys)
        assert got == self.DIGESTS[family]

    @pytest.mark.parametrize("family", ["wiener", "ss1"])
    def test_sample_and_audit_recomputed(self, workdir, family, capsys):
        # The paths are sqrt(c) times default_rng(seed).standard_normal, scaled
        # by the chain's steps and summed from the end where its clock vanishes;
        # the audit's max |z| is the benchmark judge's formula on those paths.
        base = ["--kernel", f"{family}.json", "--grid", "g.txt"]
        out, _ = self.stdout_digest(["sample", "--paths", "120", "--seed", "7"] + base, capsys)
        paths = np.array(parse_csv(out))
        spec = KernelSpec.from_dict(self.KERNELS[family])
        times = np.array([float(t) for t in self.GRID.split()])
        chain = _Chain(spec, times)
        w = math.sqrt(spec.c) * np.random.default_rng(7).standard_normal((120, times.size))
        w *= np.sqrt(chain.steps())
        np.testing.assert_array_equal(paths, np.cumsum(w[:, chain.order], axis=1)[:, chain.order])

        (workdir / "paths.csv").write_text(out)
        report = json.loads(self.stdout_digest(["audit", "--paths", "paths.csv"] + base, capsys)[0])
        if family == SS1:
            e = np.exp(-spec.beta * times)
            target = spec.c * np.append(e[:-1] - e[1:], e[-1])
            inc = np.append(paths[:, :-1] - paths[:, 1:], paths[:, -1:], axis=1)
        else:
            target = spec.c * np.diff(times, prepend=0.0)
            inc = np.diff(paths, axis=1, prepend=0.0)
        p = paths.shape[0]
        mean_z = inc.mean(axis=0) / np.sqrt(target / p)
        var_z = (inc.var(axis=0, ddof=1) - target) / (target * math.sqrt(2.0 / (p - 1)))
        max_z = float(max(np.max(np.abs(mean_z)), np.max(np.abs(var_z))))
        assert abs(report["max_abs_z"] - max_z) <= 1e-9 * max_z
        assert report["ok"] is (max_z <= 5.0)

    def test_extend(self, workdir, capsys):
        _, digest = self.stdout_digest(["extend", "--band", "band.csv"], capsys)
        assert digest == self.DIGESTS["extend"]

    @pytest.mark.parametrize("family", ["wiener", "ss1"])
    def test_fit(self, workdir, family, capsys):
        got = {name: digest for name, (_, digest) in self.fit_outputs(workdir, family, capsys).items()}
        assert got == self.DIGESTS["fit"][family]

    FIT_ARGS = {"free": [], "fixed": ["--sigma2", "0.02"]}

    def fit_outputs(self, workdir, family, capsys):
        """stdout and its digest of the free- and fixed-sigma2 ``fit``."""
        (workdir / "uy.csv").write_text(self.UY)
        (workdir / "search.json").write_text(json.dumps(self.SEARCH))
        base = ["fit", "--data", "uy.csv", "--order", "8", "--kernel-family", family,
                "--search", "search.json", "--grid", "g.txt"]
        return {name: self.stdout_digest(base + extra, capsys) for name, extra in self.FIT_ARGS.items()}

    # log_ml of each fit, printed by the tuner whose refinement was a Nelder-Mead simplex.
    SIMPLEX_LOG_ML = {"wiener": {"free": 86.16577450631684, "fixed": 34.1040256374411},
                      "ss1": {"free": 101.58942970679229, "fixed": 49.22666125330617}}

    @pytest.mark.parametrize("family", ["wiener", "ss1"])
    def test_fit_recomputed(self, workdir, family, capsys):
        # Each fit's coefficients and log_ml are the dense N x N posterior mean and
        # likelihood at its printed (c, beta, sigma2), and its log_ml is within the
        # simplex's fatol (1e-9) of the simplex's optimum, or above it.
        data = np.array(parse_csv(self.UY.split("\n", 1)[1]))
        u, y = data[:, 0], data[:, 1]
        phi = toeplitz_regressor(u, 8)
        grid = make_grid([float(t) for t in self.GRID.split()])
        for name, (out, _) in self.fit_outputs(workdir, family, capsys).items():
            report = json.loads(out)
            sigma2 = report["sigma2"]
            if name == "fixed":
                assert sigma2 == 0.02
            p = gram(KernelSpec.from_dict(report["kernel"]), grid).values
            cov_inv = oracle.dense_inverse(phi @ p @ phi.T + sigma2 * np.eye(y.size))
            h = p @ phi.T @ cov_inv @ y
            coefficients = np.array(report["coefficients"])
            assert np.max(np.abs(coefficients - h)) <= 1e-8 * np.max(np.abs(h)), name
            log_ml = -0.5 * (y.size * math.log(2.0 * math.pi) - oracle.dense_logdet(cov_inv) + y @ cov_inv @ y)
            assert report["log_ml"] == pytest.approx(log_ml, rel=1e-12), name
            assert report["log_ml"] >= self.SIMPLEX_LOG_ML[family][name] - 1e-9, name

    # Runs in a fresh interpreter in which importing scipy fails: argv[1] is a
    # JSON list of (CLI arguments, file to copy stdout to or null); prints the
    # sha256 of each command's stdout.
    NO_SCIPY = textwrap.dedent("""
        import contextlib, hashlib, io, json, sys
        sys.modules["scipy"] = None
        import stablekern.cli

        digests = []
        for argv, copy in json.loads(sys.argv[1]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert stablekern.cli.run(argv) == 0, argv
            if copy:
                with open(copy, "w", encoding="utf-8") as fh:
                    fh.write(out.getvalue())
            digests.append(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
        print(json.dumps(digests))
    """)

    def test_fit_runs_without_scipy(self, workdir):
        # sample, the audit of its paths and fit with refinement on print the
        # pinned bytes where scipy cannot be imported.
        (workdir / "uy.csv").write_text(self.UY)
        (workdir / "search.json").write_text(json.dumps(self.SEARCH))
        base = ["--kernel", "ss1.json", "--grid", "g.txt"]
        commands = [
            (["sample", "--paths", "120", "--seed", "7", *base], "paths.csv"),
            (["audit", "--paths", "paths.csv", *base], None),
            (["fit", "--data", "uy.csv", "--order", "8", "--kernel-family", "ss1",
              "--search", "search.json", "--grid", "g.txt"], None),
        ]
        result = subprocess.run([sys.executable, "-c", self.NO_SCIPY, json.dumps(commands)],
                                capture_output=True, text=True, timeout=120, env=source_env(), cwd=workdir)
        assert result.returncode == 0, result.stderr
        want = [self.DIGESTS["ss1"]["sample"], self.DIGESTS["ss1"]["audit"], self.DIGESTS["fit"]["ss1"]["free"]]
        assert json.loads(result.stdout.strip().splitlines()[-1]) == want

    ERROR_LINES = {
        "malformed band": (["extend", "--band", "bad_band.csv"],
                           "ERROR InvalidParameter: bad_band.csv: band CSV needs two lines (diag, offdiag)\n"),
        "bad u,y header": (["fit", "--data", "bad_uy.csv", "--order", "1", "--kernel-family", WIENER,
                            "--search", "search.json"],
                           "ERROR InvalidParameter: bad_uy.csv: expected header 'u,y', got 'a,b'\n"),
        "invalid kernel JSON": (["gram", "--kernel", "bad.json", "--grid", "g.txt"],
                                "ERROR InvalidParameter: kernel spec file is not valid JSON: "
                                "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"),
    }

    @pytest.mark.parametrize("case", sorted(ERROR_LINES))
    def test_error_lines(self, workdir, case, capsys):
        (workdir / "bad_band.csv").write_text("1,1,1\n0.1,0.1\n0.0\n")
        (workdir / "bad_uy.csv").write_text("a,b\n1,2\n")
        (workdir / "bad.json").write_text("{oops")
        (workdir / "search.json").write_text(json.dumps({"c": {"min": 1, "max": 1, "num": 1}}))
        argv, line = self.ERROR_LINES[case]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line)


# The per-value CSV writer and reader the CLI used before it formatted and
# parsed one row at a time, kept verbatim as reference oracles.
def _fmt_per_value(x):
    return format(float(x), ".17g")


def rows_csv_per_value(rows, meta):
    body = [",".join(_fmt_per_value(x) for x in row) for row in rows]
    return "\n".join(meta + body) + "\n"


def read_numeric_rows_per_value(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, text in _data_lines(fh):
            try:
                rows.append([float(x) for x in text.split(",") if x.strip() != ""])
            except ValueError:
                raise InvalidParameter(f"{path}: line {lineno} is not numeric CSV") from None
    return rows


# Any float64 bit pattern, and half the time a subnormal one of either sign.
BITS = st.one_of(st.integers(0, 2**64 - 1),
                 st.builds(lambda sign, mantissa: sign << 63 | mantissa, st.integers(0, 1), st.integers(1, 2**52 - 1)))


def float_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestCsvRows:
    """The row-at-a-time writer and reader against the per-value oracles."""

    SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 1e16, 1e17, 1e-4, 1e-5, 123456789012345678.0]
    META = ["# stablekern test", "# layout: one row per line"]

    def outcome(self, read, path):
        try:
            return "rows", read(path)
        except InvalidParameter as exc:
            return type(exc), str(exc)

    def test_special_values(self):
        specials = np.array(self.SPECIALS)
        rows = [specials, -specials, specials[::-1]]
        text = cli._rows_csv(rows, self.META)
        assert text == rows_csv_per_value(rows, self.META)
        assert text.splitlines()[2].split(",")[:6] == ["nan", "inf", "-inf", "0", "-0", "4.9406564584124654e-324"]
        for x in self.SPECIALS + [-x for x in self.SPECIALS]:
            assert "%.17g" % x == format(x, ".17g")

    def test_row_shapes(self):
        for rows in ([[1.0, 2.0, 3.0], [0.5, 0.25]],
                     [[0.5], []],
                     [[], [], [1.5]],
                     [[1, 2], [3]],
                     np.arange(12.0).reshape(3, 4),
                     np.empty((2, 0)),
                     []):
            assert cli._rows_csv(rows, self.META) == rows_csv_per_value(rows, self.META)
            assert cli._rows_csv(rows, []) == rows_csv_per_value(rows, [])

    def test_inverse_with_one_point_writes_an_empty_row(self, ss1_kernel, capsys):
        assert run(["inverse", "--kernel", ss1_kernel, "--uniform", "1,1,1"]) == 0
        out = capsys.readouterr().out
        tri = closed_form_inverse(KernelSpec(SS1, 1.0, LN2), uniform_grid(1, 1, 1))
        meta = meta_lines(out)
        assert out == rows_csv_per_value([tri.diag, tri.offdiag], meta)
        assert out.endswith("\n\n")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.lists(BITS, max_size=12), max_size=5))
    def test_any_float64_bits(self, bit_rows):
        rows = [float_bits(bits) for bits in bit_rows]
        assert cli._rows_csv(rows, self.META) == rows_csv_per_value(rows, self.META)

    @pytest.mark.parametrize("text", [
        "1,2,3\n4,5,6\n",
        "1,,2\n,3,\n",
        "1, ,2\n\t,4\n",
        " 1 ,\t2 , 3\n4 ,5, 6 \n",
        "1_0,2\n",
        "nan,inf,-inf,+inf,NaN,Infinity,-0,1e400\n",
        "# header\n1,2\n\n3,4 # trailing comment\n",
        ",,\n1\n",
        "1,2,\n",
        "1,abc,3\n",
        "# one\n1,2\n# two\n3,4 5\n",
        "1,2\n0x10,1\n",
        "1,2,3\n4,5\n",
        "",
    ], ids=["plain", "empty cells", "blank cells", "padded cells", "underscore", "nan and inf literals",
            "comments", "all-blank row", "trailing comma", "non-numeric cell", "line number after comments",
            "hex literal", "ragged rows", "empty file"])
    def test_reader_inputs(self, tmp_path, text):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        new = self.outcome(read_ragged_rows, str(path))
        old = self.outcome(read_numeric_rows_per_value, str(path))
        assert repr(new) == repr(old)  # repr: NaN cells compare equal as text

    def test_reader_error_names_the_line(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("# one\n1,2\n# two\n3, x\n")
        for read in (read_ragged_rows, _read_table):
            with pytest.raises(InvalidParameter, match=r"rows\.csv: line 4 is not numeric CSV$"):
                read(str(path))

    def test_ragged_rows_are_not_rectangular(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("1,2,3\n4,,5\n6,7\n")
        assert read_ragged_rows(str(path)) == [[1.0, 2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]
        with pytest.raises(InvalidParameter, match=r"rows\.csv: line 2 is 2 wide, not 3$"):
            _read_table(str(path))

    CELLS = ["", " ", "\t", "1", " 2 ", "-0", "1e5", "1_0", "nan", "-inf", "x", "1 2", "0x1", ".5", "5."]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(CELLS), min_size=1, max_size=6), max_size=4))
    def test_reader_agrees_on_any_cells(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("cells") / "rows.csv"
        path.write_text("".join(",".join(cells) + "\n" for cells in lines))
        new = self.outcome(read_ragged_rows, str(path))
        old = self.outcome(read_numeric_rows_per_value, str(path))
        assert repr(new) == repr(old)

    def test_round_trip_of_sampled_paths(self, tmp_path):
        paths = sample_ss1(uniform_grid(50, 0.5, 0.5), 1.3, 0.2, 11, 40).paths
        path = tmp_path / "paths.csv"
        path.write_text(cli._rows_csv(paths, self.META))
        assert bitwise_equal(_read_table(str(path)), paths)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda width: st.lists(st.lists(BITS, min_size=width, max_size=width), min_size=1, max_size=6)))
    def test_round_trip_of_any_non_nan_bits(self, tmp_path_factory, bit_rows):
        values = float_bits(bit_rows)
        values[np.isnan(values)] = 0.0  # a NaN reads back as the one NaN float() makes
        path = tmp_path_factory.mktemp("bits") / "rows.csv"
        path.write_text(cli._rows_csv(values, self.META))
        assert bitwise_equal(_read_table(str(path)), values)


def read_ragged_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_rows(fh, path, ragged=True)


def numpy_table(path):
    """The table numpy's C parser reads from ``path``, or None where it refuses the file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(path, delimiter=",", comments="#", ndmin=2, encoding="utf-8")
    except (ValueError, Warning):
        return None


# Table cells: a literal between two blanks.  numpy's parser refuses some
# literals ("", "1_0", non-ASCII digits, a blank inside a number) and
# accepts every blank here, the separators \x1c-\x1f included, which
# float() accepts only once str.strip() has cut them.
BLANK = st.sampled_from(["", " ", "\t", "\xa0", "\u2003", "\u3000", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028"])
LITERAL = st.one_of(BITS.map(lambda bits: repr(float(float_bits(bits)))),
                    st.sampled_from(["+7e-3", ".5", "-0", "1_0", "\u0661", "\u0663.\u0665", "1\x1c2", "1 2", ""]))
TABLE_CELL = st.builds(lambda left, literal, right: left + literal + right, BLANK, LITERAL, BLANK)
NON_DATA_LINE = st.sampled_from(["", "   ", "\t", "# comment", "  # indented comment", "\xa0"])
TABLE_TEXT = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.tuples(st.one_of(st.lists(TABLE_CELL, min_size=width, max_size=width).map(",".join), NON_DATA_LINE),
              st.sampled_from(["\n", "\r\n"])),
    max_size=6).map(lambda lines: "".join(line + end for line, end in lines)))


class TestTableReader:
    """numpy's parser and the line parser read one grammar to the same bits."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(TABLE_TEXT)
    def test_numpy_and_the_line_parser_agree(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        fast = numpy_table(str(path))
        try:
            slow = _read_table(str(path))
        except InvalidParameter:
            slow = None
        if fast is not None:
            with open(path, "r", encoding="utf-8") as fh:
                lines = np.array(_parse_rows(fh, str(path)), dtype=float)
            assert bitwise_equal(lines, fast)
            assert bitwise_equal(slow, fast)
        elif slow is not None:
            with open(path, "r", encoding="utf-8") as fh:
                assert bitwise_equal(slow, np.array(_parse_rows(fh, str(path)), dtype=float))

    def test_the_fallback_covers_what_numpy_refuses(self, tmp_path):
        path = tmp_path / "t.csv"
        for text in ("1,,2\n", "1,2\n   \n3,4\n", "1,2\n  # note\n3,4\n", "1_0,2\n", "\u0661,2\n"):
            path.write_text(text)
            assert numpy_table(str(path)) is None, text
            with open(path, "r", encoding="utf-8") as fh:
                assert bitwise_equal(_read_table(str(path)), np.array(_parse_rows(fh, str(path))))


class TestOneGrammar:
    """audit, extend, fit and --grid read tables through one reader, with one message per fault."""

    def run_readers(self, tmp_path, ss1_kernel, body, capsys, fit_body=None):
        search = tmp_path / "search.json"
        search.write_text(json.dumps({"c": {"min": 1, "max": 1, "num": 1}}))
        results = {}
        for name in ("audit", "extend", "fit", "grid"):
            path = tmp_path / f"{name}.csv"
            path.write_text(fit_body if name == "fit" else body)
            argv = {
                "audit": ["audit", "--paths", str(path), "--kernel", ss1_kernel, "--uniform", "1,1,1"],
                "extend": ["extend", "--band", str(path)],
                "fit": ["fit", "--data", str(path), "--order", "1", "--kernel-family", SS1, "--search", str(search)],
                "grid": ["logdet", "--kernel", ss1_kernel, "--grid", str(path)],
            }[name]
            code = run(argv)
            captured = capsys.readouterr()
            results[name] = (code, captured.out, captured.err.replace(str(path), "FILE"))
        return results

    def test_same_bad_line_same_error(self, tmp_path, ss1_kernel, capsys):
        results = self.run_readers(tmp_path, ss1_kernel, "1\n# note\n2, x\n", capsys, fit_body="u,y\n# note\n2, x\n")
        want = (1, "", "ERROR InvalidParameter: FILE: line 3 is not numeric CSV\n")
        assert results == {name: want for name in ("audit", "extend", "fit", "grid")}

    def test_same_wide_line_same_error(self, tmp_path, ss1_kernel, capsys):
        results = self.run_readers(tmp_path, ss1_kernel, "1\n# note\n2, 3\n", capsys, fit_body="u,y\n1,2\n7\n")
        assert results["audit"] == results["grid"] == (1, "", "ERROR InvalidParameter: FILE: line 3 is 2 wide, not 1\n")
        assert results["fit"] == (1, "", "ERROR InvalidParameter: FILE: line 3 is 1 wide, not 2\n")
        assert "wide" not in results["extend"][2]  # a band is ragged by design

    def test_blank_cells_and_lines_are_skipped_by_every_reader(self, tmp_path, ss1_kernel, capsys):
        # Each command prints the same bytes for a table and for that table with
        # blank cells, blank lines and indented comments added.
        def messy(text):
            lines = [line if line.startswith("#") else f" ,{line}, \t" if i % 2 else f"{line},,\n  # note"
                     for i, line in enumerate(text.splitlines())]
            return "\n \t\n".join(lines) + "\n"

        rng = np.random.default_rng(3)
        uy = "".join(f"{a!r},{b!r}\n" for a, b in rng.standard_normal((30, 2)).tolist())
        (tmp_path / "search.json").write_text(json.dumps({"c": {"min": 0.5, "max": 2.0, "num": 2},
                                                          "beta": {"min": 0.3, "max": 0.6, "num": 2},
                                                          "sigma2": {"min": 0.1, "max": 1.0, "num": 2}}))
        assert run(["sample", "--kernel", ss1_kernel, "--uniform", "3,1,1", "--paths", "120",
                    "--out", str(tmp_path / "paths.csv")]) == 0
        tables = {
            "paths": (tmp_path / "paths.csv").read_text(),
            "band": "0.5,0.25,0.125\n0.25,0.125\n",
            "uy": uy,
            "grid": "1\n2.5\n4\n",
        }
        commands = {
            "paths": ["audit", "--kernel", ss1_kernel, "--uniform", "3,1,1", "--paths"],
            "band": ["extend", "--band"],
            "uy": ["fit", "--order", "3", "--kernel-family", SS1, "--search", str(tmp_path / "search.json"), "--data"],
            "grid": ["gram", "--kernel", ss1_kernel, "--grid"],
        }
        for name, text in tables.items():
            outputs = []
            for kind, body in (("clean", text), ("messy", messy(text))):
                path = tmp_path / f"{kind}-{name}.csv"
                path.write_text(("u,y\n" if kind == "clean" else " U , y \n") * (name == "uy") + body)
                assert run(commands[name] + [str(path)]) == 0, (name, kind)
                outputs.append(capsys.readouterr().out.replace(str(path), "FILE"))
            assert outputs[0] == outputs[1], name

    def test_empty_tables_print_only_the_error_line(self, tmp_path, ss1_kernel):
        # numpy warns "input contained no data" on these files; no warning may reach
        # stderr.  A header-only fit file keeps its OrderTooLarge.
        (tmp_path / "comments.csv").write_text("# nothing\n\n")
        (tmp_path / "header.csv").write_text("u,y\n# nothing\n")
        (tmp_path / "search.json").write_text(json.dumps({"c": {"min": 1, "max": 1, "num": 1}}))
        fit = ["fit", "--order", "1", "--kernel-family", SS1, "--search", "search.json", "--data"]
        commands = [["audit", "--paths", "comments.csv", "--kernel", ss1_kernel, "--uniform", "1,1,1"],
                    fit + ["comments.csv"], fit + ["header.csv"],
                    ["logdet", "--kernel", ss1_kernel, "--grid", "comments.csv"],
                    ["extend", "--band", "comments.csv"]]
        script = "import json, sys\nfrom stablekern.cli import run\nfor argv in json.loads(sys.argv[1]):\n    run(argv)\n"
        result = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], capture_output=True, text=True,
                                timeout=120, env=source_env(), cwd=tmp_path)
        assert result.returncode == 0
        assert (result.stdout, result.stderr) == ("", "".join([
            "ERROR InvalidParameter: comments.csv: no numeric rows\n",
            "ERROR InvalidParameter: comments.csv: empty data file\n",
            "ERROR OrderTooLarge: FIR order 1 exceeds the 0 data samples\n",
            "ERROR Empty: grid contains no time instants\n",
            "ERROR InvalidParameter: comments.csv: band CSV needs two lines (diag, offdiag)\n",
        ]))


class TestLogHandler:
    def test_logs_to_the_current_stderr(self, tmp_path, ss1_kernel):
        # The first run's stderr is closed before the second run logs.
        script = textwrap.dedent(f"""
            import io, sys
            from stablekern.cli import run
            saved, sys.stderr = sys.stderr, io.StringIO()
            assert run(["logdet", "--kernel", {ss1_kernel!r}, "--uniform", "3,1,1"]) == 0
            sys.stderr.close()
            sys.stderr = saved
            sys.exit(run(["maxent-audit", "--kernel", {ss1_kernel!r}, "--uniform", "4,1,1",
                          "--trials", "5", "--seed", "3"]))
        """)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                                env=source_env(), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Logging error" not in result.stderr
        assert "completion audit: 5 candidates" in result.stderr


class TestParserReuse:
    def test_reused_parser_matches_a_fresh_one(self, tmp_path, ss1_kernel, wiener_kernel, capsys):
        band = tmp_path / "band.csv"
        band.write_text("0.5,0.25,0.125\n0.25,0.125\n")
        calls = [
            ["--quiet", "logdet", "--kernel", ss1_kernel, "--uniform", "3,1,1"],
            ["gram", "--kernel", wiener_kernel, "--uniform", "2,1,1"],
            ["inverse", "--kernel", ss1_kernel, "--uniform", "3,1,1", "--quiet"],
            ["gram", "--kernel", ss1_kernel],
            ["factor", "--which", "sqrt", "--kernel", wiener_kernel, "--uniform", "3,0.5,0.5"],
            ["--quiet", "frobnicate"],
            ["logdet", "--kernel", wiener_kernel, "--uniform", "3,1,1"],
            ["--quiet", "extend", "--band", str(band)],
            ["extend", "--band", str(band)],
            ["--help"],
            ["sample", "--kernel", ss1_kernel, "--uniform", "3,1,1", "--paths", "2", "--seed", "3", "--quiet"],
        ]
        logger = logging.getLogger("stablekern")

        def outcomes(fresh):
            got = []
            for argv in calls:
                if fresh:
                    cli._parser.cache_clear()
                code = run(argv)
                captured = capsys.readouterr()
                got.append((code, captured.out, captured.err, logger.level))
            return got

        fresh = outcomes(fresh=True)
        parser = cli._parser()
        reused = outcomes(fresh=False)
        assert cli._parser() is parser
        assert reused == fresh
        assert [code for code, *_ in fresh] == [0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0]
        # A usage error sets no level; every parsed call sets its own.
        quiet, loud = logging.ERROR, logging.INFO
        assert [level for *_, level in fresh] == [quiet, loud, quiet, quiet, loud, loud, loud, quiet, loud,
                                                  loud, quiet]
