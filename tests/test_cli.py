import json

import numpy as np
import pytest

import qteig as q
from qteig.cli import _build_parser, _config, main, parse_problem, serialize_problem


@pytest.fixture
def fix_a_file(tmp_path):
    path = tmp_path / "fix_a.json"
    path.write_text(json.dumps({
        "am": [5, -2],
        "ap": [5, -2],
        "E": [{"i": 1, "j": 1, "re": -4, "im": 0}],
    }))
    return str(path)


@pytest.fixture
def shift2_file(tmp_path):
    path = tmp_path / "shift2.json"
    path.write_text(json.dumps({"am": [0, 1], "ap": [0, 2]}))
    return str(path)


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps({
        "am": [0, 1, -2, 3],
        "ap": [0, -1, -4, -3],
    }))
    return str(path)


class TestEigAllCommand:
    def test_fix_a(self, fix_a_file, capsys):
        assert main(["eig-all", fix_a_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["section_size"] == 6
        assert out["continuous_components_detected"] is False
        (entry,) = out["eigenvalues"]
        assert abs(complex(entry["re"], entry["im"])) <= 1e-10
        assert entry["status"] == "isolated_pq"
        assert entry["residual"] <= 1e-12

    def test_no_flags_build_default_config(self, fix_a_file):
        # the flags take their defaults from SolverConfig itself
        args = _build_parser().parse_args(["eig-all", fix_a_file])
        assert _config(args) == q.SolverConfig()

    def test_byte_identical_reruns(self, fix_a_file, capsys):
        main(["eig-all", fix_a_file])
        first = capsys.readouterr().out
        main(["eig-all", fix_a_file])
        assert capsys.readouterr().out == first

    def test_inconsistent_constant(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"am": [5, -2], "ap": [6, -2]}))
        assert main(["eig-all", str(path)]) == 2
        assert "am[0]/ap[0]" in capsys.readouterr().err

    def test_non_finite_coefficient(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        nan, inf = float("nan"), float("inf")
        for problem, field in (
            ({"am": [0, nan], "ap": [0, 1]}, "am[1]"),
            ({"am": [inf, 1], "ap": [0, 1]}, "am[0]"),
            ({"am": [5, -2], "ap": [5, -2], "E": [{"i": 1, "j": 1, "re": nan}]}, "E[0]"),
            # JSON integers are exact: one of 330 digits has no float
            ({"am": [0, 1], "ap": [0, 10**330]}, "ap[1]"),
            ({"am": [5, [-2, 10**330]], "ap": [5, -2]}, "am[1]"),
            ({"am": [5, -2], "ap": [5, -2], "E": [{"i": 1, "j": 1, "re": -10**330}]}, "E[0]"),
        ):
            path.write_text(json.dumps(problem))
            assert main(["eig-all", str(path)]) == 2
            assert f"{field}: must be finite" in capsys.readouterr().err

    def test_non_numeric_triplet_value(self, tmp_path, capsys):
        path = tmp_path / "str.json"
        path.write_text(json.dumps(
            {"am": [5, -2], "ap": [5, -2], "E": [{"i": 1, "j": 1, "re": "x"}]}
        ))
        assert main(["eig-all", str(path)]) == 2
        assert "E[0]" in capsys.readouterr().err

    def test_non_integer_triplet_position(self, fix_a, tmp_path, capsys):
        path = tmp_path / "pos.json"
        for field, value in (
            ("i", 1.5), ("j", 1.5), ("i", "1"), ("j", True), ("i", 0), ("j", -2),
        ):
            item = {"i": 1, "j": 1, "re": -4}
            item[field] = value
            path.write_text(json.dumps({"am": [5, -2], "ap": [5, -2], "E": [item]}))
            assert main(["eig-all", str(path)]) == 2, (field, value)
            assert f"E[0].{field}: must be a positive integer" in capsys.readouterr().err
        # an integral float is still a position
        problem = {"am": [5, -2], "ap": [5, -2], "E": [{"i": 1.0, "j": 1, "re": -4}]}
        assert parse_problem(problem) == fix_a

    def test_non_finite_solver_settings(self, fix_a_file, capsys):
        for flag, value in (("--gamma", "nan"), ("--gamma", "inf"), ("--tol", "nan")):
            assert main(["eig-all", fix_a_file, flag, value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "must be positive and finite" in captured.err

    def test_boolean_numbers_rejected(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        for problem, where in (
            ({"am": [True, -2], "ap": [True, -2]}, "am[0]"),
            ({"am": [5, [-2, False]], "ap": [5, -2]}, "am[1]"),
            ({"am": [5, -2], "ap": [5, -2], "E": [{"i": 1, "j": 1, "re": True}]}, "E[0]"),
            ({"am": [5, -2], "ap": [5, -2], "E": {"rows": 1, "cols": 1, "values": [[True]]}},
             "E.values[0][0]"),
        ):
            path.write_text(json.dumps(problem))
            assert main(["eig-all", str(path)]) == 2, problem
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{where}: expected a real or an [re, im] pair" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["eig-all", str(tmp_path / "nope.json")]) == 2

    def test_oversized_section(self, tmp_path, fix_a_file, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "am": [5, -2], "ap": [5, -2], "E": [{"i": 1, "j": 1e300, "re": 1, "im": 0}],
        }))
        # a far correction column; gamma 1e308 is finite, its section size not
        for args in ([str(path)], [fix_a_file, "--gamma", "1e308"]):
            assert main(["eig-all", *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "exceeds the cap" in captured.err

    def test_dense_block_encoding(self, tmp_path, capsys):
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({
            "am": [5, -2],
            "ap": [5, -2],
            "E": {"rows": 1, "cols": 1, "values": [[[-4, 0]]]},
        }))
        assert main(["eig-all", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["eigenvalues"]) == 1

    def test_non_integer_block_size(self, fix_a, tmp_path, capsys):
        path = tmp_path / "dense.json"
        for field, value in (
            ("rows", True), ("cols", True), ("rows", "1"), ("cols", 1.5), ("rows", -1),
            ("cols", None),
        ):
            block = {"rows": 1, "cols": 1, "values": [[-4]]}
            block[field] = value
            path.write_text(json.dumps({"am": [5, -2], "ap": [5, -2], "E": block}))
            assert main(["eig-all", str(path)]) == 2, (field, value)
            assert f"E.{field}: must be a nonnegative integer" in capsys.readouterr().err
        # an integral float is still a size, as for triplet positions
        problem = {"am": [5, -2], "ap": [5, -2], "E": {"rows": 1.0, "cols": 1, "values": [[-4]]}}
        assert parse_problem(problem) == fix_a

    def test_seven_band_fixture_has_eight_entries(self, tmp_path, capsys):
        # slow: seeds from a 3200 x 3200 section (about a minute)
        path = tmp_path / "seven_band.json"
        path.write_text(json.dumps({
            "am": [0, -1, 1, -1, 0, 0, 0, 1],
            "ap": [0, -1, -1],
            "E": [{"i": i, "j": 100, "re": i, "im": 0} for i in range(1, 21)],
        }))
        assert main(["eig-all", str(path), "--gamma", "32"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["eigenvalues"]) == 8
        reals = sorted(e["re"] for e in out["eigenvalues"] if abs(e["im"]) <= 1e-8)
        assert len(reals) == 6


class TestEigSingleCommand:
    def test_eigenvector_output(self, fix_a_file, capsys):
        assert main([
            "eig-single", fix_a_file, "--lambda0", "0.05,0", "--vec-len", "5",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "isolated_pq"
        vec = np.array([complex(re, im) for re, im in out["eigenvector"]])
        vec = vec / vec[0] * 0.5
        assert np.allclose(vec, [0.5, 0.25, 0.125, 0.0625, 0.03125], atol=1e-10)
        assert out["tail_abs"] > 0

    def test_continuous_status(self, shift2_file, capsys):
        assert main(["eig-single", shift2_file, "--lambda0", "0,0"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "continuous_set"

    def test_on_curve_is_classified(self, fix_a_file, capsys):
        assert main(["eig-single", fix_a_file, "--lambda0", "5,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "on_curve"
        assert out["residual"] is None

    @pytest.mark.parametrize("method", q.SolverConfig.METHODS)
    def test_far_correction_column(self, tmp_path, capsys, method):
        # fix_a plus an entry at (1, 10**300), whose eigenvector entry
        # underflows: the eigenvalue 0 stays isolated
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "am": [5, -2],
            "ap": [5, -2],
            "E": [{"i": 1, "j": 1, "re": -4, "im": 0}, {"i": 1, "j": 10**300, "re": 0.5, "im": 0}],
        }))
        assert main(["eig-single", str(path), "--lambda0", "0.05,0", "--method", method]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "isolated_pq"
        assert abs(complex(out["re"], out["im"])) <= 1e-12

    def test_shift_of_overflowing_modulus_diverges(self, fix_a_file, capsys):
        assert main(["eig-single", fix_a_file, "--lambda0=-1.7e308,1.7e308"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "diverged"

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # a_0 - lam = 1.7e308 + 1.7e308 overflows z (a(z) - lam)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"am": [1.7e308, 1], "ap": [1.7e308, 1]}))
        assert main(["eig-single", str(path), "--lambda0=-1.7e308"]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: non-finite coefficient\n"

    def test_bad_lambda0(self, fix_a_file, capsys):
        assert main(["eig-single", fix_a_file, "--lambda0", "nan,0"]) == 2
        capsys.readouterr()
        assert main(["eig-single", fix_a_file, "--lambda0", "1,2,3"]) == 2


class TestMapCommand:
    def test_winding_csv(self, fig2_file, tmp_path, capsys):
        out = tmp_path / "w.csv"
        rc = main([
            "map", fig2_file, "--box=-10,10,-10,10", "--res", "40",
            "--kind", "winding", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "re,im,value"
        values = {int(line.split(",")[2]) for line in lines[1:]}
        assert {0, 1, 2} <= values
        curve = (tmp_path / "w.csv.curve.csv").read_text().splitlines()
        assert curve[0] == "re,im"
        assert len(curve) == 1 + 1024

    def test_each_map_names_its_own_curve(self, fix_a_file, tmp_path, capsys):
        # two maps in one directory: neither overwrites the other's curve
        for name, samples in (("one.csv", "8"), ("two.csv", "16")):
            rc = main([
                "map", fix_a_file, "--box=-1,1,-1,1", "--res", "2",
                "--curve-samples", samples, "--out", str(tmp_path / name),
            ])
            assert rc == 0
        for name, samples in (("one.csv", 8), ("two.csv", 16)):
            curve = (tmp_path / f"{name}.curve.csv").read_text().splitlines()
            assert len(curve) == 1 + samples
        assert not (tmp_path / "curve.csv").exists()

    def test_basins_csv_and_sidecar(self, fix_a_file, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc = main([
            "map", fix_a_file, "--box=-0.5,0.5,-0.5,0.5", "--res", "10",
            "--kind", "basins", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        labels = {int(line.split(",")[2]) for line in lines[1:]}
        assert 0 in labels
        sidecar = json.loads((tmp_path / "b.csv.labels.json").read_text())
        z = sidecar["eigenvalues"]["0"]
        assert abs(complex(z["re"], z["im"])) <= 1e-8

    def test_basins_of_overflowing_modulus(self, fix_a_file, tmp_path, capsys):
        # shifts whose modulus overflows: every run diverges
        out = tmp_path / "b.csv"
        rc = main([
            "map", fix_a_file, "--box=1e308,1.7e308,1e308,1.7e308", "--res", "2",
            "--kind", "basins", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert [int(line.split(",")[2]) for line in lines[1:]] == [q.solver.BASIN_NONCONV] * 4

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"am": [1.7e308, 1], "ap": [1.7e308, 1]}))
        argv = ["map", str(path), "--box=-1.7e308,-1.6e308,-1,1", "--res", "4",
                "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err == "numerical failure: non-finite coefficient\n"

    def test_input_guards(self, fix_a_file, tmp_path, capsys):
        assert main(["map", fix_a_file, "--box=1,-1,-1,1", "--res", "4"]) == 2
        capsys.readouterr()
        assert main(["map", fix_a_file, "--box=-1,1,-1,1", "--res", "1"]) == 2
        capsys.readouterr()
        out = tmp_path / "m.csv"
        for box in ("--box=nan,1,-1,1", "--box=-1,inf,-1,1", "--box=-1,1,-inf,1"):
            assert main(["map", fix_a_file, box, "--res", "3", "--out", str(out)]) == 2
            assert "--box: must be finite" in capsys.readouterr().err
        # every flag is checked before the grid or the curve is written
        for flags in (["--curve-samples", "1"], ["--kind", "winding", "--maxit", "0"]):
            argv = ["map", fix_a_file, "--box=-1,1,-1,1", "--res", "3", "--out", str(out)]
            assert main(argv + flags) == 2
            capsys.readouterr()
        assert not out.exists()
        assert not (tmp_path / "m.csv.curve.csv").exists()

    def test_box_width_overflow(self, fix_a_file, tmp_path, capsys):
        # a finite box whose cell width overflows is an input error, not a
        # numerical failure
        out = tmp_path / "m.csv"
        for kind in ("winding", "basins"):
            argv = ["map", fix_a_file, "--box=-1e308,1e308,-1,1", "--res", "3",
                    "--kind", kind, "--out", str(out)]
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: cell widths must be finite")
        assert not out.exists()

    def test_out_into_missing_directory(self, fix_a_file, tmp_path, capsys, monkeypatch):
        # an unwritable --out is an input error, not a traceback, and is
        # found before the raster is computed
        def never(*args, **kwargs):
            raise AssertionError("raster computed before --out was checked")

        monkeypatch.setattr("qteig.cli.winding_map", never)
        monkeypatch.setattr("qteig.cli.basins", never)
        out = tmp_path / "nodir" / "x.csv"
        for kind in ("winding", "basins"):
            argv = ["map", fix_a_file, "--box=-1,1,-1,1", "--res", "3", "--kind", kind,
                    "--out", str(out)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --out: ") and "nodir" in err


class TestInputErrors:
    FIX_A = {"am": [5, -2], "ap": [5, -2]}

    @pytest.mark.parametrize("text, message", [
        (json.dumps({"am": [1], "ap": [1, 2]}), "am: expected a list of at least 2 coefficients"),
        (json.dumps({**FIX_A, "E": {"rows": 1, "cols": 1}}), "E.values: missing"),
        (json.dumps({**FIX_A, "E": {"rows": 2, "cols": 1, "values": [[1]]}}),
         "E.values: expected one list per row"),
        (json.dumps({**FIX_A, "E": {"rows": 1, "cols": 2, "values": [[1]]}}),
         "E.values[0]: expected 2 entries"),
        (json.dumps({**FIX_A, "E": [5]}), "E[0]: expected an object with i, j, re, im"),
        (json.dumps({**FIX_A, "E": 5}), "E: expected a dense block or a triplet list"),
        (json.dumps([1, 2]), "problem: expected a JSON object"),
        (json.dumps({"ap": [5, -2]}), "am: missing"),
        (json.dumps({"am": [5, 0], "ap": [5, -2]}), "am/ap: trailing coefficient a_-m must be nonzero"),
        ('{"am": [5, -2],', "invalid JSON"),
    ], ids=["short_am", "dense_no_values", "dense_rows", "dense_row_length", "triplet_not_object",
            "E_number", "not_object", "no_am", "zero_trailing", "bad_json"])
    def test_malformed_problem(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["eig-all", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("flags, prefix", [
        (["--box=1,2,3"], "error: --box: not enough values to unpack"),
        (["--box=-1,1,-1,1", "--out", "."], "error: --out: "),
    ], ids=["box_3_values", "out_is_directory"])
    def test_map_flags(self, fix_a_file, tmp_path, capsys, monkeypatch, flags, prefix):
        monkeypatch.chdir(tmp_path)  # "." names a directory
        assert main(["map", fix_a_file, "--res", "2", *flags]) == 2
        assert capsys.readouterr().err.startswith(prefix)

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "eig-all" in capsys.readouterr().out


class TestProblemRoundTrip:
    def test_fixture_files(self, fix_a_file, shift2_file, fig2_file):
        import pathlib

        for path in (fix_a_file, shift2_file, fig2_file):
            first = parse_problem(json.loads(pathlib.Path(path).read_text()))
            again = parse_problem(serialize_problem(first))
            assert first == again
