"""The tolerance table in signalgame.geometry is the only place tolerances are written."""

import ast
import re
import tokenize
from pathlib import Path

from signalgame import geometry

PACKAGE = Path(geometry.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
TOLERANCE_VALUES = {1e-7, 1e-9, 1e-10, 1e-12}


def _table_lines() -> dict[str, int]:
    """Line of each module-level EPS_* = <number> assignment in geometry.py."""
    tree = ast.parse((PACKAGE / "geometry.py").read_text())
    lines = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith("EPS_")
            and isinstance(node.value, ast.Constant)
        ):
            lines[node.targets[0].id] = node.lineno
    return lines


def test_no_tolerance_literal_outside_the_table():
    table = set(_table_lines().values())
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type != tokenize.NUMBER or float(tok.string) not in TOLERANCE_VALUES:
                    continue
                if path.name == "geometry.py" and tok.start[0] in table:
                    continue
                stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not stray


def test_no_tolerance_parameters():
    # A tolerance is a table constant, not a knob; the oracle's tol is the
    # one parameter, so a test can tighten or loosen what it checks.
    allowed = {("geometry.py", "validate_triangulation", "tol")}
    knobs = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            name = getattr(node, "name", "<lambda>")
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and "tol" in arg.arg and (path.name, name, arg.arg) not in allowed:
                    knobs.append(f"{path.name}:{node.lineno}: {name}({arg.arg}=)")
    assert not knobs


def test_readme_lists_the_table():
    documented = {
        name: float(value)
        for name, value in re.findall(
            r"^\|[^|]+\| `(EPS_\w+)` \| ([0-9.e-]+) \|$", README.read_text(), re.MULTILINE
        )
    }
    table = {name: getattr(geometry, name) for name in _table_lines()}
    assert documented == table


def test_rows_are_clipped_only_in_renormalize():
    # Every clip-and-renormalize of simplex rows is geometry._renormalize.
    sites = []

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Attribute, ast.Name)) and "clip" in (
                getattr(child, "attr", None),
                getattr(child, "id", None),
            ):
                sites.append((path.name, owner))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, inner, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path)
    assert sites == [("geometry.py", "_renormalize")]


def _decimals_argument(call: ast.Call):
    """The decimals argument of a round(x, d), np.round(x, d) or x.round(d) call, or None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "round":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr in ("round", "around"):
        on_module = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
        position = 1 if on_module else 0
    else:
        return None
    for kw in call.keywords:
        if kw.arg in ("decimals", "ndigits"):
            return kw.value
    return call.args[position] if len(call.args) > position else None


def test_no_literal_rounding_decimals():
    # Rounding to d decimals merges values within 10**-d: a tolerance, so
    # d must come from the table (as dedup_functionals derives it).
    literals = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            arg = _decimals_argument(node)
            if isinstance(arg, ast.UnaryOp):
                arg = arg.operand
            if isinstance(arg, ast.Constant) and isinstance(arg.value, (int, float)):
                literals.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not literals
