"""Tests of the benchmark's tracer: binding coverage, restoration and
self-time arithmetic, on a throwaway package with a scripted clock."""

import sys
import types

import pytest

from tracer import NO_PARENT, Target, Tracer


class StepClock:
    """Each reading advances the time by the next scripted step (ns)."""

    def __init__(self, steps):
        self.steps = iter(steps)
        self.now = 0

    def __call__(self):
        self.now += next(self.steps)
        return self.now


@pytest.fixture
def pkg():
    """fakepkg.low defines leaf/boom; fakepkg.mid copies leaf by
    ``from .low import leaf``; fakepkg.top calls both from outer."""
    low = types.ModuleType("fakepkg.low")
    exec("def leaf(x):\n    return x + 1\n"
         "def boom():\n    raise KeyError('x')\n", low.__dict__)
    mid = types.ModuleType("fakepkg.mid")
    mid.leaf = low.leaf
    top = types.ModuleType("fakepkg.top")
    top.mid = mid
    top.low = low
    exec("def outer(x):\n    return mid.leaf(x) + low.leaf(x)\n", top.__dict__)
    root = types.ModuleType("fakepkg")
    root.outer = top.outer
    mods = {"fakepkg": root, "fakepkg.low": low, "fakepkg.mid": mid, "fakepkg.top": top}
    sys.modules.update(mods)
    yield mods
    for name in mods:
        del sys.modules[name]


def _targets():
    return [Target("fakepkg.low", "leaf", "low.leaf"),
            Target("fakepkg.low", "leaf", "mid.leaf", binding="fakepkg.mid"),
            Target("fakepkg.low", "boom", "low.boom"),
            Target("fakepkg.top", "outer", "top.outer")]


def test_self_time_is_duration_minus_children(pkg):
    # clock readings: outer starts at 1; mid.leaf runs 3 -> 7 (4 ns);
    # low.leaf runs 9 -> 14 (5 ns); outer ends at 20 (19 ns)
    tr = Tracer(_targets(), clock=StepClock([1, 2, 4, 2, 5, 6]))
    with tr.installed("fakepkg"):
        assert pkg["fakepkg"].outer(1) == 4
    st = tr.stats()
    assert (st["top.outer"].calls, st["top.outer"].incl_ns, st["top.outer"].self_ns) == (1, 19, 10)
    assert (st["mid.leaf"].incl_ns, st["mid.leaf"].self_ns) == (4, 4)
    assert (st["low.leaf"].incl_ns, st["low.leaf"].self_ns) == (5, 5)
    assert list(tr.parent) == [NO_PARENT, 0, 0]
    assert tr.durations_ns("low.leaf") == [5]


def test_every_binding_is_patched_and_restored(pkg):
    originals = {(m, a): getattr(pkg[m], a) for m, a in
                 (("fakepkg", "outer"), ("fakepkg.top", "outer"), ("fakepkg.low", "leaf"),
                  ("fakepkg.mid", "leaf"), ("fakepkg.low", "boom"))}
    tr = Tracer(_targets())
    with pytest.raises(KeyError):
        with tr.installed("fakepkg"):
            for (m, a), fn in originals.items():
                assert getattr(pkg[m], a) is not fn
            pkg["fakepkg"].outer(1)
            pkg["fakepkg.low"].boom()
    for (m, a), fn in originals.items():
        assert getattr(pkg[m], a) is fn
    st = tr.stats()
    assert st["top.outer"].calls == 1
    assert st["mid.leaf"].calls == st["low.leaf"].calls == 1
    assert tr.errors[("low.boom", "KeyError")] == 1


def test_result_hook_sees_result_and_arguments_of_its_binding(pkg):
    seen = []
    tr = Tracer([Target("fakepkg.low", "leaf", "low.leaf"),
                 Target("fakepkg.low", "leaf", "mid.leaf", binding="fakepkg.mid",
                        on_result=lambda out, args: seen.append((out, args)))])
    with tr.installed("fakepkg"):
        pkg["fakepkg.mid"].leaf(5)
        pkg["fakepkg.low"].leaf(7)
    assert seen == [(6, (5,))]
    assert tr.stats()["low.leaf"].calls == 1
