"""tools/outcome_digest.py: its comparison on small synthetic digests, and
the observation of the Newton driver.  No real digest is made here."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import qteig as q

_PATH = Path(__file__).resolve().parent.parent / "tools" / "outcome_digest.py"
_SPEC = importlib.util.spec_from_file_location("outcome_digest", _PATH)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)


def _digest(statuses, lam=0.25, residuals=None, split=None):
    residuals = residuals or [1e-14] * len(statuses)
    starts = [[status, 4, repr(complex(0.5, k)), repr(res), f"{k:064x}", repr(complex(0.4, k))]
              for k, (status, res) in enumerate(zip(statuses, residuals))]
    stdout = json.dumps({"eigenvalues": [{"re": lam, "im": 0.0, "iterations": 4}]})
    fixture = {"starts": starts, "accepted": [repr(complex(lam))],
               "split": split or {"warm": 3, "eigvals": 1, "closed_form": 0}}
    return {
        "sets": {"fixture": fixture},
        "outputs": {"eig-all fixture": f"exit 0\n{stdout}\n", "winding_map": "ab12\n"},
    }


def _compare(tmp_path, da, db) -> int:
    paths = []
    for name, doc in (("a.json", da), ("b.json", db)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    return tool.compare(*paths)


def test_equal_digests(tmp_path, capsys):
    doc = _digest(["isolated_pq", "diverged"])
    assert _compare(tmp_path, doc, doc) == 0
    out = capsys.readouterr().out
    assert "status differences: 0" in out
    assert "output differences: 0" in out
    assert "eig-all fixture: identical" in out


def test_status_change(tmp_path, capsys):
    da = _digest(["isolated_pq", "diverged"])
    db = _digest(["isolated_pq", "max_iterations"])
    assert _compare(tmp_path, da, db) == 1
    out = capsys.readouterr().out
    assert "  [1]: diverged in 4 steps -> max_iterations in 4 steps" in out
    assert "status differences: 1" in out


def test_classification_change(tmp_path, capsys):
    # same statuses, steps and shifts; one residual and one eigenvector
    # differ
    da = _digest(["isolated_pq", "isolated_pq", "diverged"])
    db = _digest(["isolated_pq", "isolated_pq", "diverged"], residuals=[1e-14, 2e-14, 1e-14])
    db["sets"]["fixture"]["starts"][0][4] = "ff" * 32
    assert _compare(tmp_path, da, db) == 0
    out = capsys.readouterr().out
    assert "0 iteration counts changed, 0 final shifts differ in some bit" in out
    assert "1 residuals and 1 eigenvector hashes differ" in out
    # the diverged run's residual is not an accepted run's
    assert ("  accepted residuals: A median 1.00e-14, largest 1.00e-14; "
            "B median 1.50e-14, largest 2.00e-14") in out


def test_output_change(tmp_path, capsys):
    da = _digest(["isolated_pq"], lam=0.25)
    db = _digest(["isolated_pq"], lam=0.3)
    assert _compare(tmp_path, da, db) == 1
    out = capsys.readouterr().out
    assert "eig-all fixture: differs at line 2" in out
    assert (
        "largest relative difference per numeric field: "
        "eigenvalues.lam 1.67e-01, eigenvalues.iterations 0.00e+00"
    ) in out
    assert "winding_map: identical" in out


def test_output_change_of_an_eigenvalue_is_complex(tmp_path, capsys):
    # -0.0085 + 0.0495i moved by 1e-12 in its real part: relative to the
    # real part alone that is 1.2e-10, relative to the eigenvalue 2.0e-11
    da, db = _digest(["isolated_pq"]), _digest(["isolated_pq"])
    for doc, re in ((da, -0.0085), (db, -0.0085 + 1e-12)):
        stdout = json.dumps({"eigenvalues": [{"re": re, "im": 0.0495, "iterations": 4}]})
        doc["outputs"]["eig-all fixture"] = f"exit 0\n{stdout}\n"
    assert _compare(tmp_path, da, db) == 1
    out = capsys.readouterr().out
    assert "per numeric field: eigenvalues.lam 1.99e-11, eigenvalues.iterations 0.00e+00" in out
    assert "eigenvalues.re" not in out


def test_runs_paired_by_start(tmp_path, capsys):
    # B runs a subset of A's starts, in another order, and one start of
    # its own: the pairs compare equal, and the unpaired starts are
    # counted on their own, not as status differences
    da = _digest(["isolated_pq", "diverged", "isolated_pq", "out_of_component"])
    db = _digest(["isolated_pq", "diverged", "isolated_pq", "out_of_component", "diverged"])
    runs = db["sets"]["fixture"]["starts"]
    runs[4][5] = repr(complex(9.0, 9.0))
    db["sets"]["fixture"]["starts"] = [runs[2], runs[4], runs[0]]
    assert _compare(tmp_path, da, db) == 0
    out = capsys.readouterr().out
    assert "fixture: 2 starts paired, 2 run on A only, 1 on B only" in out
    assert "0 iteration counts changed, 0 final shifts differ in some bit" in out
    assert "status differences: 0" in out


def test_repeated_starts_pair_in_order(tmp_path, capsys):
    # two runs from one start pair first with first, second with second
    da = _digest(["isolated_pq", "diverged"])
    db = _digest(["isolated_pq", "max_iterations"])
    for doc in (da, db):
        doc["sets"]["fixture"]["starts"][1][5] = doc["sets"]["fixture"]["starts"][0][5]
    assert _compare(tmp_path, da, db) == 1
    out = capsys.readouterr().out
    assert "fixture: 2 starts paired, 0 run on A only, 0 on B only" in out
    assert "  [1]: diverged in 4 steps -> max_iterations in 4 steps" in out


def test_observed_records_each_run(fix_a):
    with tool._observing(q) as seen:
        rec = q.eig_single(fix_a, 0.05)
    vec = np.array(rec.vec_prefix, dtype=np.complex128).tobytes()
    assert seen["starts"] == [[rec.status.value, rec.iterations, repr(rec.lam), repr(rec.residual),
                     hashlib.sha256(vec).hexdigest(), repr(0.05 + 0j)]]


def test_observed_records_generator_starts(fix_a):
    # basins hands the driver an array of its cells: each run is
    # recorded with its own cell, in order
    with tool._observing(q) as seen:
        labels, _ = q.basins(fix_a, (-0.5, 0.5), (-0.5, 0.5), 3)
    runs = seen["starts"]
    xs, ys = q.solver._grid_axes((-0.5, 0.5), (-0.5, 0.5), 3)
    cells = [complex(x, y) for y in ys for x in xs]
    assert [complex(run[5]) for run in runs] == cells
    assert labels.size == len(runs)


def test_observed_restores_driver(fix_a):
    runs, split, eigensolve = q.solver._runs, q.solver._split_rows, q.poly._companion_roots
    with pytest.raises(RuntimeError, match="run failed"):
        with tool._observing(q) as seen:
            q.eig_single(fix_a, 0.05)
            raise RuntimeError("run failed")
    assert len(seen["starts"]) == 1
    assert q.solver._runs is runs
    assert q.solver._split_rows is split and q.poly._companion_roots is eigensolve


def test_fallback_ratio(tmp_path, capsys):
    da = _digest(["isolated_pq"], split={"warm": 0, "eigvals": 0, "closed_form": 0})
    db = _digest(["isolated_pq"], split={"warm": 87, "eigvals": 29, "closed_form": 0})
    assert _compare(tmp_path, da, db) == 0
    out = capsys.readouterr().out
    assert "  sent to eigvals: A 0 of 0 rows, B 29 of 116 rows (25.0%)" in out
    # neither side solved a row in closed form: no line for it
    assert "closed form" not in out


def test_closed_form_share(tmp_path, capsys):
    # B solves 12 of its 29 companion rows in closed form: they leave
    # the eigvals share and make a line of their own
    da = _digest(["isolated_pq"], split={"warm": 87, "eigvals": 29, "closed_form": 0})
    db = _digest(["isolated_pq"], split={"warm": 87, "eigvals": 29, "closed_form": 12})
    assert _compare(tmp_path, da, db) == 0
    out = capsys.readouterr().out
    assert "  sent to eigvals: A 29 of 116 rows (25.0%), B 17 of 116 rows (14.7%)" in out
    assert ("  solved in closed form: A 0 of 116 rows (0.0%), "
            "B 12 of 116 rows (10.3%)") in out


def test_split_counts_observe_warm_rows(test3):
    # the clustered roots' start 5.45+4.79i: its first pass is
    # eigensolved, its 8 later passes are polished from warm roots
    cfg = q.SolverConfig(gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4)
    original = q.solver._split_rows
    with tool._observing(q) as seen:
        rec = q.eig_single(test3, 5.451698039869334 + 4.789268474737197j, cfg)
    assert rec.iterations == 8
    assert seen["split"] == {"warm": 8, "eigvals": 1, "closed_form": 0}
    assert q.solver._split_rows is original


def test_split_counts_restore_on_error(fix_a):
    split, eigensolve = q.solver._split_rows, q.poly._companion_roots
    with pytest.raises(RuntimeError, match="run failed"):
        with tool._observing(q) as seen:
            q.eig_single(fix_a, 0.05)  # degree 2: every pass is eigensolved
            raise RuntimeError("run failed")
    assert seen["split"] == {"warm": 0, "eigvals": 5, "closed_form": 5}
    assert q.solver._split_rows is split and q.poly._companion_roots is eigensolve
