"""tools/op_rss.py: per-op peak RSS of two source trees."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("op_rss", ROOT / "tools" / "op_rss.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_labels_name_files_by_stem_and_drop_flag_values():
    tool = load_tool()
    argv = ("frame", "/a/specs/s4_template.json", "point", "--at", "x1=0.5", "--field", "e1",
            "--probe-seed", "42", "--out", "s4_point.json")
    assert tool.label(argv) == "frame s4_template point --field e1"


def test_measure_reports_each_op_with_its_outcome():
    tool = load_tool()
    ops = [op for op in tool.workloads.build_ops("symbolic", 1) if "lie_plane" in op.argv[1]]
    (rss_mb, ok), = tool.measure(tool.SRC, ops)
    assert ok and rss_mb > 0.0
