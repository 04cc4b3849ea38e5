"""Module boundaries of the package source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "normframes").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_export_is_used_by_the_package_or_a_demo():
    # a name the package exports serves a command or a demo; one that only tests
    # reach is an oracle and belongs in tests/reference.py.  A reference is a name
    # or an attribute anywhere in a module or demo, except inside the top-level
    # definition of that same name.
    init = ast.parse((SOURCES[0].parent / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for path in SOURCES + DEMOS:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(stmt, "name", None)
            used.update(ref for node in ast.walk(stmt)
                        for ref in (getattr(node, "id", None), getattr(node, "attr", None))
                        if ref is not None and ref != own)
    unused = [name for name in exported if name not in used]
    assert exported and DEMOS and not unused, unused


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    # dunder names such as __version__ are public
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert SOURCES and not offenders, offenders


def test_cli_parses_expressions_only_in_its_one_reader():
    # every expression entry of spec and frame files goes through cli._expressions
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text())
    readers = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_expressions"]
    inside = {id(node) for reader in readers for node in ast.walk(reader)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "parse_expr"]
    offenders = [f"cli.py:{node.lineno}" for node in calls if id(node) not in inside]
    assert len(readers) == 1 and calls and not offenders, offenders


def test_no_module_runs_generated_source():
    # numeric evaluation runs on compile_exprs' tape, never on generated Python
    offenders = [
        f"{path.name}:{node.lineno} calls {node.func.id}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval", "compile")
    ]
    assert SOURCES and not offenders, offenders


def test_no_module_calls_expr_evaluate():
    # one-point work compiles each array once through matops.evaluate_array or
    # evaluate_points; expr.evaluate, one expression per call, is for callers
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {"evaluate"} | {
            alias.asname for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "expr"
            for alias in node.names if alias.name == "evaluate" and alias.asname
        }
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
        ]
    assert SOURCES and not offenders, offenders


def test_only_geometry_derives_vector_field_components():
    # E_k(X^i) is VectorField.component_derivatives, derived once per field;
    # elsewhere a frame_derivatives call on `.components` would derive it again
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name != "geometry.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "frame_derivatives"
        and any(isinstance(sub, ast.Attribute) and sub.attr == "components"
                for arg in node.args for sub in ast.walk(arg))
    ]
    assert SOURCES and not offenders, offenders


def test_only_geometry_takes_a_symbolic_inverse():
    # the adjugate inverse is capped at n <= 4; the transformation law at points
    # and the holonomicity verdict solve numerically, so only a non-coordinate
    # frame's own inverse (FrameField.inverse_exprs) takes it
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name != "geometry.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "inverse")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "inverse" for alias in node.names))
    ]
    assert SOURCES and not offenders, offenders
