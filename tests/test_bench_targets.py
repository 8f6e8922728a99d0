"""The benchmark's traced run wraps qteig functions by name
(``perfbench/run.py``'s ``layer_targets``): every name it wraps must
resolve, so that deleting or renaming one fails here rather than only in
a traced bench run."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(_BENCH))  # run.py imports its tracer as a top-level module
    spec = importlib.util.spec_from_file_location("perfbench_run", _BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run.layer_targets(Counter())
    assert targets
    for t in targets:
        fn = getattr(importlib.import_module(t.module), t.attr, None)
        assert callable(fn), f"{t.name}: {t.module}.{t.attr} does not resolve"
        if t.binding is not None:
            bound = getattr(importlib.import_module(t.binding), t.attr, None)
            assert bound is fn, f"{t.name}: {t.binding} does not bind {t.module}.{t.attr}"
