"""tools/warm_ab.py: warm in-process op times of two source trees."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("warm_ab", ROOT / "tools" / "warm_ab.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_quartiles_are_inclusive_of_the_extremes():
    tool = load_tool()
    assert tool.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert tool.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr():
    tool = load_tool()
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    faster = [p - 0.2 for p in parent]
    v = tool.verdict(parent, faster)
    assert (v["pairs"], v["wins"], v["losses"], v["gain"]) == (10, 10, 0, True)
    assert v["parent"] == pytest.approx((1.0225, 1.045, 1.0675))
    # eight wins of ten are not enough, however large the gap
    two_lost = faster[:8] + [2.0, 2.0]
    assert tool.verdict(parent, two_lost)["gain"] is False
    # a tie counts for neither side
    one_tie = faster[:9] + [parent[9]]
    assert tool.verdict(parent, one_tie)["wins"] == 9
    assert tool.verdict(parent, one_tie)["gain"] is True
    # every pair won, but by less than the parent's own spread
    slightly = [p - 0.01 for p in parent]
    assert tool.verdict(parent, slightly)["wins"] == 10
    assert tool.verdict(parent, slightly)["gain"] is False


def test_rounds_pair_the_children_and_sum_op_medians(monkeypatch):
    tool = load_tool()
    calls = []

    def fake_measure(src, workload, seed):
        calls.append(src)
        return ([0.1, 0.2], True) if src == tool.SRC else ([0.2, 0.3], True)

    monkeypatch.setattr(tool, "measure", fake_measure)
    monkeypatch.setattr(tool.workloads, "build_ops",
                        lambda workload, seed: [type("Op", (), {"argv": ("analyze", "a.json")}),
                                                type("Op", (), {"argv": ("verify", "b.json")})])
    parent = Path("/parent/src")
    rows, passes_s = tool.compare(parent, 3, "symbolic", 1)
    # the tree that goes first alternates from round to round
    assert calls == [parent, tool.SRC, tool.SRC, parent, parent, tool.SRC]
    assert [(op, a, b, ok) for op, a, b, ok in rows] == [
        ("analyze a", [0.2] * 3, [0.1] * 3, True), ("verify b", [0.3] * 3, [0.2] * 3, True)]
    assert passes_s == [pytest.approx((0.5, 0.3))] * 3


def test_a_child_times_every_op_of_its_tree():
    tool = load_tool()
    medians, ok = tool.measure(tool.SRC, "symbolic", 1)
    assert ok and len(medians) == len(tool.workloads.build_ops("symbolic", 1))
    assert all(t > 0.0 for t in medians)
