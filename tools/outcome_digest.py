"""Per-start Newton outcomes of qteig, written as JSON, and a comparison
of two such files.

    python3 tools/outcome_digest.py [--src DIR] --out FILE
    python3 tools/outcome_digest.py --compare A B

The first form imports qteig from ``DIR/src`` (default: this checkout)
and makes five runs, one per set:

- seven_band: ``eig_all`` on the seven-band fixture at default settings;
- cluster: ``eig_all`` on the clustered-root fixture with the
  criterion-4 Frobenius configuration;
- seven_band_vandermonde and cluster_vandermonde: the same two runs with
  ``method="vandermonde"``;
- basins: ``basins`` on the 50 x 50 cell centers of [-0.5, 0.5]^2 of the
  rank-one fixture.

For each Newton run it records (status, iterations, repr(lam),
repr(residual), SHA-256 of the eigenvector prefix's complex128 bytes,
repr(start)), so the classification's output is compared too, not only
the shift it classified (``basins`` keeps no eigenvectors and runs with
a one-entry prefix, so its runs hash that one entry); for each set the
accepted eigenvalues (the ``eig_all`` records, or the basin limits);
and for each set the rows of the Newton driver's root splits that the
previous pass's roots settled, the rows sent to the companion solve,
and how many of those it solved in closed form: those of degree 2,
which it takes by the quadratic formula, not ``np.linalg.eigvals``.
``eig_all`` keeps only the accepted runs, so each set is run inside one
observer (``_observing``), which wraps the private driver
``qteig.solver._runs`` and root split ``qteig.solver._split_rows`` for
the call.  The starts are whatever the tree's ``eig_all`` and
``basins`` choose, and each set is run once: on a real operator
``eig_all`` runs only the section starts with Im >= 0.

It also records output bytes: the stdout of ``qteig eig-all`` on the
seven-band fixture (defaults) and on the clustered-root fixture
(``--gamma 12.5 --tol 1e-8``), each with both methods; the stdout of
``qteig eig-single`` on the rank-one fixture from ``--lambda0 0.05
--vec-len 20`` (Frobenius) and from ``--lambda0 0.3,0.1 --method
vandermonde``; SHA-256s of seven ``winding_map`` grids: the fig-2 grid
over [-10, 10]^2 at 200 x 200 cells and at 101 x 101 (whose centre row
Im = 0 holds the real sample a(1) = -6), the 200 x 200 grids of the
seven-band symbol over [-4, 4]^2 and of the clustered-root symbol over
[-12, 12]^2, the rank-one fixture's 10 x 10 grid over
[0.5, 9.5] x [-3e-9, 3e-9], where root squaring cannot certify the 80
cells next to the curve, so the explicit-root split decides them, the
31 x 31 grid over [-2, 2]^2 of a symbol with roots 1e6, 0.5 and +-1 at
shift 0, whose curve takes the most samples the raster allows, and the
fig-2 grid at 64 x 64 cells over the box of half-width 1e-6 about the
curve point a(e^{i pi / 3}), where every cell lies near the curve; and
SHA-256s of the files ``qteig map`` writes (the grid, the labels
sidecar and the curve) for that winding map and for the 50 x 50 basins
of the rank-one fixture over [-0.5, 0.5]^2.

For the seven-band, clustered-root and rank-one fixtures, and for one
operator whose rows below m hold entries on scattered columns with a
repeated (rank-deficient) row, it records the reduction: repr of
``norm_inf``, the row count q of ``build_w``, and the SHA-256s of W's
nonzero columns (``NEPContext.cols``, as int64) and of W's bytes on
them.

``--compare`` pairs the runs of a set by their start: the k-th run from
a start on one side with the k-th run from the same start (the same
repr) on the other.  It prints, per set, the number of paired starts and
of the starts only one side ran, the status histogram of each side, the
share of each side's split rows sent to ``np.linalg.eigvals`` (the
fallback ratio) and, when either side has any, the share solved in
closed form, the median and the largest residual of each side's accepted
runs, then over the pairs the number of starts whose iteration count
changed, the number of final shifts that differ in any bit, the number
of runs whose residual and whose eigenvector hash differ, and the
largest relative difference of the final shifts; then that of the
accepted eigenvalues, and one line for each paired start whose status
differs, numbered by its position on side A.  A start only one side ran
is counted, not taken for a status difference.  For each recorded output
it prints "identical" or the first differing line; when the stdout of a
differing output is JSON with the same keys in the same order on both
sides (the ``eig-all`` and ``eig-single`` outputs), it also prints the
largest relative difference of each numeric field, an eigenvalue's
"re" and "im" taken together as one complex number ("lam").  It exits 1
when a status or an output differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _import_qteig(src: Path):
    sys.path.insert(0, str(src / "src"))
    import qteig

    if src.resolve() / "src" not in Path(qteig.__file__).resolve().parents:
        raise ImportError(f"qteig imported from {qteig.__file__}, not from {src}")
    return qteig


def _problems(q):
    seven_band = q.qt_new(
        [0, -1, 1, -1, 0, 0, 0, 1], [0, -1, -1], [(i, 100, i) for i in range(1, 21)]
    )
    cluster = q.qt_new(
        [0, 0, 0, 0, 0, 0, 0, 1.0, 0.3, 0.03, 0.001],
        [0, 0, 10.0],
        [(i, 12 + i, 1e-5) for i in range(1, 13)],
    )
    cluster_cfg = q.SolverConfig(
        method="frobenius", gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4
    )
    fix_a = q.qt_new([5, -2], [5, -2], [(1, 1, -4)])
    return seven_band, cluster, cluster_cfg, fix_a


def _record(rec, start) -> list:
    """What the digest keeps of one Newton run's EigRecord and its start."""
    vec = np.array(rec.vec_prefix, dtype=np.complex128)
    return [rec.status.value, rec.iterations, repr(rec.lam), repr(rec.residual),
            _sha256(vec.tobytes()), repr(complex(start))]


@contextlib.contextmanager
def _observing(q):
    """What the Newton driver does while the block runs: {"starts": the
    ``_record`` of every run, in order, "split": {"warm": split rows
    settled from the previous pass's roots, "eigvals": rows sent to the
    companion solve, "closed_form": those of degree 2}}.

    ``qteig.solver._runs``, through which ``eig_all`` and ``basins`` run
    every start, is replaced by a wrapper that records each row of the
    outcomes it returns, with its start; ``qteig.solver._split_rows`` by
    one that, for each call, replaces ``qteig.poly._companion_roots`` by
    one that counts its rows (the degree alone decides whether the
    companion solve takes the quadratic formula).  Every wrapper is
    restored on exit, also when the block raises."""
    runs, split, eigensolve = q.solver._runs, q.solver._split_rows, q.poly._companion_roots
    seen = {"starts": [], "split": {"warm": 0, "eigvals": 0, "closed_form": 0}}
    counts = seen["split"]

    def recording(a, starts, cfg):
        out = runs(a, starts, cfg)
        seen["starts"].extend(_record(out.record(k), start) for k, start in enumerate(starts))
        return out

    def counting_eigensolve(c):
        counts["eigvals"] += c.shape[0]
        if c.shape[1] == 3:
            counts["closed_form"] += c.shape[0]
        return eigensolve(c)

    def counting_split(c, *args):
        before = counts["eigvals"]
        q.poly._companion_roots = counting_eigensolve
        try:
            out = split(c, *args)
        finally:
            q.poly._companion_roots = eigensolve
        counts["warm"] += c.shape[0] - (counts["eigvals"] - before)
        return out

    q.solver._runs, q.solver._split_rows = recording, counting_split
    try:
        yield seen
    finally:
        q.solver._runs, q.solver._split_rows = runs, split


def _section_set(q, a, cfg) -> dict:
    with _observing(q) as seen:
        report = q.eig_all(a, cfg)
    return {"starts": seen["starts"], "accepted": [repr(r.lam) for r in report.records],
            "split": seen["split"]}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(q, seven_band, cluster, fix_a) -> dict:
    """Output bytes of the CLI and of the winding raster, as text."""
    from qteig.cli import main, serialize_problem

    fig2 = q.QTMatrix(
        symbol=q.LaurentSymbol(neg=(0, 1, -2, 3), pos=(0, -1, -4, -3)),
        correction=q.Correction.zero(),
    )
    # roots 1e6, 0.5 and +-1 at shift 0: its curve asks for more samples
    # than the raster takes
    c = np.convolve(np.convolve([-1e6, 1], [-0.5, 1]), [-1, 0, 1])
    far = q.QTMatrix(
        symbol=q.LaurentSymbol(neg=(c[2], c[1], c[0]), pos=(c[2], c[3], c[4])),
        correction=q.Correction.zero(),
    )
    z = q.symbol_curve(fig2, 6)[1]
    out = {}
    for key, a, box, res in (
        ("winding_map fig2 200", fig2, ((-10, 10), (-10, 10)), 200),
        ("winding_map fig2 101", fig2, ((-10, 10), (-10, 10)), 101),
        ("winding_map seven_band 200", seven_band, ((-4, 4), (-4, 4)), 200),
        ("winding_map cluster 200", cluster, ((-12, 12), (-12, 12)), 200),
        ("winding_map fix_a unsettled 10", fix_a, ((0.5, 9.5), (-3e-9, 3e-9)), 10),
        ("winding_map far 31", far, ((-2, 2), (-2, 2)), 31),
        ("winding_map fig2 zoom 64", fig2,
         ((z.real - 1e-6, z.real + 1e-6), (z.imag - 1e-6, z.imag + 1e-6)), 64),
    ):
        grid = q.winding_map(a, *box, res)
        out[key] = _sha256(np.ascontiguousarray(grid, dtype=np.int64).tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for name, a in (("seven_band", seven_band), ("cluster", cluster),
                        ("fig2", fig2), ("fix_a", fix_a)):
            files[name] = tmp / f"{name}.json"
            files[name].write_text(json.dumps(serialize_problem(a)))

        def run(argv) -> str:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            return f"exit {code}\n{buf.getvalue()}"

        for name, flags in (("seven_band", []), ("cluster", ["--gamma", "12.5", "--tol", "1e-8"])):
            for method in ("frobenius", "vandermonde"):
                out[f"eig-all {name} {method}"] = run(
                    ["eig-all", str(files[name]), "--method", method] + flags
                )
        for key, flags in (
            ("eig-single fix_a frobenius", ["--lambda0", "0.05", "--vec-len", "20"]),
            ("eig-single fix_a vandermonde", ["--lambda0", "0.3,0.1", "--method", "vandermonde"]),
        ):
            out[key] = run(["eig-single", str(files["fix_a"])] + flags)
        for key, name, box, res, kind in (
            ("map fig2 winding 200", "fig2", "-10,10,-10,10", "200", "winding"),
            ("map fix_a basins 50", "fix_a", "-0.5,0.5,-0.5,0.5", "50", "basins"),
        ):
            grid_csv = tmp / f"{name}_{kind}.csv"
            text = run(["map", str(files[name]), f"--box={box}", "--res", res,
                        "--kind", kind, "--out", str(grid_csv)])
            for ext in ("", ".labels.json", ".curve.csv"):
                path = grid_csv.with_suffix(".csv" + ext)
                if path.exists():
                    text += f"{path.name} {_sha256(path.read_bytes())}\n"
            out[key] = text
    return out


def _reductions(q, ops) -> dict:
    """norm_inf, q, W's nonzero columns and W's bytes on them, of each
    named operator, as text."""
    from qteig.nep import build_w

    out = {}
    for name, a in ops.items():
        ctx = build_w(a)
        out[f"reduction {name}"] = (
            f"norm_inf {q.norm_inf(a)!r}\nq {ctx.q}\n"
            f"cols {_sha256(np.array(ctx.cols, dtype=np.int64).tobytes())}\n"
            f"W {_sha256(ctx.w.tobytes())}\n"
        )
    return out


def digest(src: Path) -> dict:
    q = _import_qteig(src)
    seven_band, cluster, cluster_cfg, fix_a = _problems(q)
    with _observing(q) as basin:
        _, limits = q.basins(fix_a, (-0.5, 0.5), (-0.5, 0.5), 50)
    vandermonde = dataclasses.replace(cluster_cfg, method="vandermonde")
    sets = {
        "seven_band": _section_set(q, seven_band, q.SolverConfig()),
        "cluster": _section_set(q, cluster, cluster_cfg),
        "seven_band_vandermonde": _section_set(
            q, seven_band, q.SolverConfig(method="vandermonde")
        ),
        "cluster_vandermonde": _section_set(q, cluster, vandermonde),
        "basins": {"starts": basin["starts"], "accepted": [repr(z) for z in limits],
                   "split": basin["split"]},
    }
    scattered = q.qt_new(
        [0, -1, 1, -1],
        [0, -1, -1],
        [(2, 7, 0.5), (4, 5, 1), (5, 40, 2), (6, 5, 2), (6, 40, 4), (7, 90, -1)],
    )
    outputs = _outputs(q, seven_band, cluster, fix_a)
    outputs.update(_reductions(q, {"seven_band": seven_band, "cluster": cluster,
                                   "fix_a": fix_a, "scattered": scattered}))
    return {"sets": sets, "outputs": outputs}


def _rel(za: complex, zb: complex) -> float:
    return abs(za - zb) / max(abs(za), abs(zb), 1e-300) if za != zb else 0.0


class _ShapeMismatch(Exception):
    """Two JSON documents differ in more than their numbers."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(a, b, path: str, worst: dict) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise _ShapeMismatch
        pair = ("re", "im")
        joined = all(_is_number(d.get(key)) for d in (a, b) for key in pair)
        if joined:
            # one complex number: a small real part must not inflate "re"
            lam = f"{path}.lam" if path else "lam"
            rel = _rel(complex(a["re"], a["im"]), complex(b["re"], b["im"]))
            worst[lam] = max(worst.get(lam, 0.0), rel)
        for key in a:
            if not (joined and key in pair):
                _walk(a[key], b[key], f"{path}.{key}" if path else key, worst)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise _ShapeMismatch
        for x, y in zip(a, b):
            _walk(x, y, path, worst)
    elif _is_number(a) and _is_number(b):
        worst[path] = max(worst.get(path, 0.0), _rel(a, b))
    elif a != b:
        raise _ShapeMismatch


def _field_differences(text_a: str, text_b: str) -> dict | None:
    """For two recorded CLI outputs whose stdout is JSON with the same keys
    in the same order (and lists of the same lengths), the largest
    relative difference of each numeric field, keyed by its path without
    list indices; None when either is not JSON or their shapes differ."""
    try:
        docs = [json.loads(text.partition("\n")[2]) for text in (text_a, text_b)]
        worst: dict = {}
        _walk(*docs, "", worst)
    except (ValueError, _ShapeMismatch):
        return None
    return worst


def _fallback(split: dict, key: str = "eigvals") -> str:
    """The share of a set's split rows sent to ``np.linalg.eigvals``, or
    with ``key="closed_form"`` solved in closed form."""
    closed = split["closed_form"]
    rows = split["warm"] + split["eigvals"]
    count = closed if key == "closed_form" else split["eigvals"] - closed
    share = f" ({count / rows:.1%})" if rows else ""
    return f"{count} of {rows} rows{share}"


def _residuals(starts) -> str:
    """The median and the largest residual of a set's accepted runs."""
    res = [float(r[3]) for r in starts if r[0] in ("isolated_pq", "isolated_pltq")]
    if not res:
        return "no accepted runs"
    return f"median {np.median(res):.2e}, largest {max(res):.2e}"


def _histogram(starts) -> str:
    counts = Counter(r[0] for r in starts)
    return ", ".join(f"{status} {n}" for status, n in sorted(counts.items()))


def _first_difference(text_a: str, text_b: str) -> str:
    """The first differing line, shown from 40 characters before its
    first differing character (the eig-all output is one long line)."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    for k, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la != lb:
            col = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
            lo = max(col - 40, 0)
            return (f"line {k + 1}, column {col + 1}:\n"
                    f"    A: ...{la[lo : col + 40]}\n    B: ...{lb[lo : col + 40]}")
    k = min(len(lines_a), len(lines_b))
    return f"line {k + 1}: only one side has it ({len(lines_a)} against {len(lines_b)} lines)"


def _compare_outputs(oa: dict, ob: dict) -> int:
    diffs = 0
    for key in sorted(oa.keys() | ob.keys()):
        if key not in oa or key not in ob:
            print(f"{key}: recorded on one side only")
            diffs += 1
        elif oa[key] == ob[key]:
            print(f"{key}: identical")
        else:
            print(f"{key}: differs at {_first_difference(oa[key], ob[key])}")
            worst = _field_differences(oa[key], ob[key])
            if worst is not None:
                fields = ", ".join(f"{path} {rel:.2e}" for path, rel in worst.items())
                print(f"    largest relative difference per numeric field: {fields}")
            diffs += 1
    print(f"output differences: {diffs}")
    return diffs


def _by_start(runs) -> dict:
    """Each run's index, keyed by (repr of its start, how many runs from
    that start came before it)."""
    seen: Counter = Counter()
    keyed = {}
    for k, run in enumerate(runs):
        keyed[run[5], seen[run[5]]] = k
        seen[run[5]] += 1
    return keyed


def _compare_sets(da: dict, db: dict) -> int:
    status_diffs = 0
    for name in da:
        sa, sb = da[name]["starts"], db[name]["starts"]
        ka, kb = _by_start(sa), _by_start(sb)
        paired = [(k, sa[k], sb[kb[key]]) for key, k in ka.items() if key in kb]
        only_a, only_b = len(ka.keys() - kb.keys()), len(kb.keys() - ka.keys())
        changed = [(k, ra, rb) for k, ra, rb in paired if ra[0] != rb[0]]
        iters = sum(ra[1] != rb[1] for _, ra, rb in paired)
        bits = sum(ra[2] != rb[2] for _, ra, rb in paired)
        residuals = sum(ra[3] != rb[3] for _, ra, rb in paired)
        vectors = sum(ra[4] != rb[4] for _, ra, rb in paired)
        worst = max((_rel(complex(ra[2]), complex(rb[2])) for _, ra, rb in paired),
                    default=0.0)
        acc_a, acc_b = da[name]["accepted"], db[name]["accepted"]
        if len(acc_a) != len(acc_b):
            acc_worst = "count differs"
        else:
            rels = (_rel(complex(x), complex(y)) for x, y in zip(acc_a, acc_b))
            acc_worst = f"{max(rels, default=0.0):.2e}"
        print(f"{name}: {len(paired)} starts paired, {only_a} run on A only, "
              f"{only_b} on B only")
        print(f"  A: {_histogram(sa)}")
        print(f"  B: {_histogram(sb)}")
        split_a, split_b = da[name]["split"], db[name]["split"]
        print(f"  sent to eigvals: A {_fallback(split_a)}, B {_fallback(split_b)}")
        if split_a["closed_form"] or split_b["closed_form"]:
            print(f"  solved in closed form: A {_fallback(split_a, 'closed_form')}, "
                  f"B {_fallback(split_b, 'closed_form')}")
        print(f"  accepted residuals: A {_residuals(sa)}; B {_residuals(sb)}")
        print(f"  {iters} iteration counts changed, {bits} final shifts differ in "
              f"some bit, max relative shift difference {worst:.2e}; "
              f"{residuals} residuals and {vectors} eigenvector hashes differ; "
              f"{len(acc_a)} -> {len(acc_b)} accepted, max relative difference {acc_worst}")
        for k, ra, rb in changed:
            print(f"  [{k}]: {ra[0]} in {ra[1]} steps -> {rb[0]} in {rb[1]} steps")
        status_diffs += len(changed)
    print(f"status differences: {status_diffs}")
    return status_diffs


def compare(path_a: Path, path_b: Path) -> int:
    da = json.loads(path_a.read_text())
    db = json.loads(path_b.read_text())
    status_diffs = _compare_sets(da["sets"], db["sets"])
    out_diffs = _compare_outputs(da["outputs"], db["outputs"])
    return 1 if status_diffs or out_diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ provides qteig (default: this one)")
    parser.add_argument("--out", type=Path, help="write the digest here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    args.out.write_text(json.dumps(digest(args.src), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
