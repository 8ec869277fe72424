"""The envelope step's array kernels add in a fixed order.

Point location and candidate enumeration compute their sums one
elementwise product and sum at a time, in index order, so their bits do
not depend on the kernel NumPy or BLAS picks.  The helpers that replace
NumPy reductions or itertools on those paths are checked here bit for bit
against the calls they replace, on both sides of the size at which they
switch to column passes.
"""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from signalgame import geometry, solver
from signalgame.geometry import EPS_GEOM, EPS_TIE, CellArrangement, candidate_vertices, dedup_functionals

PACKAGE = Path(geometry.__file__).resolve().parent
# Products whose summation order NumPy or BLAS chooses (and may fuse into multiply-adds).
KERNEL_PRODUCTS = {"einsum", "matmul", "dot", "tensordot"}


def _bits(a):
    return np.asarray(a).view(np.int64)


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Module-level functions and methods of a module, by name (methods as Class.name)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out[f"{node.name}.{item.name}"] = item
    return out


def _reached(functions: dict[str, ast.FunctionDef], roots: list[str]) -> list[str]:
    """roots and every module-level function they call by name, transitively."""
    seen, todo = [], list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.append(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions:
                todo.append(node.func.id)
    return sorted(seen)


def test_no_kernel_chosen_products_in_location_and_enumeration():
    # Location and enumeration, with every geometry function they call.
    tree = ast.parse((PACKAGE / "geometry.py").read_text())
    functions = _functions(tree)
    scope = _reached(functions, ["Triangulation.locate_many", "candidate_vertices"])
    assert {"_renormalize", "_row_sums", "_subset_blocks", "_lex_order"} <= set(scope)
    found = []
    for name in scope:
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in KERNEL_PRODUCTS:
                found.append(f"{name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in KERNEL_PRODUCTS:
                found.append(f"{name}:{node.lineno}: {node.func.id}")
    assert not found


@pytest.mark.parametrize("r", [2, 3])
def test_subset_blocks_cut_itertools_combinations(r):
    for m in range(41):
        want = np.array(list(itertools.combinations(range(m), r)), dtype=np.intp).reshape(-1, r)
        sizes = (1, 5, 64, geometry._CANDIDATE_BLOCK) if len(want) <= 1000 else (97, geometry._CANDIDATE_BLOCK)
        for size in sizes:
            blocks = list(geometry._subset_blocks(m, r, size))
            assert all(0 < len(block) <= size and block.dtype == np.intp for block in blocks)
            assert len(blocks) == math.ceil(len(want) / size)
            got = np.vstack(blocks) if blocks else np.empty((0, r), dtype=np.intp)
            assert np.array_equal(got, want), (m, size)


@pytest.mark.parametrize("n", [3, 4])
def test_candidate_vertices_enumerates_the_pool_in_blocks_of_the_set_size(monkeypatch, n):
    rng = np.random.default_rng(n)
    arrangement = CellArrangement(n, dedup_functionals(rng.normal(size=(12, n + 1))))
    want = candidate_vertices(arrangement)
    blocks, subset_blocks = [], geometry._subset_blocks

    def recorded(m, r, size):
        for block in subset_blocks(m, r, size):
            blocks.append((m, r, size, block))
            yield block

    monkeypatch.setattr(geometry, "_subset_blocks", recorded)
    monkeypatch.setattr(geometry, "_CANDIDATE_BLOCK", 7)
    got = candidate_vertices(arrangement)
    assert np.array_equal(_bits(got), _bits(want))
    (m, r, size), = {b[:3] for b in blocks}
    assert r == n - 1 and size == 7 and all(len(b[3]) <= 7 for b in blocks)
    enumerated = np.vstack([b[3] for b in blocks])
    assert np.array_equal(enumerated, np.array(list(itertools.combinations(range(m), r))))


def _lex_inputs(rng):
    """Rows with first-column ties, exact duplicates, signed zeros and NaNs."""
    for rows, cols in ((1, 1), (1, 3), (2, 1), (700, 1), (2, 2), (5, 3), (700, 3), (1300, 4)):
        coarse = rng.integers(-2, 3, size=(rows, cols)) * 0.5
        coarse[rng.random((rows, cols)) < 0.2] = -0.0
        yield coarse
        fine = rng.random((rows, cols))
        fine[: rows // 3, 0] = fine[rows // 3 : 2 * (rows // 3), 0]  # tied first coordinates
        fine[rows // 2 : rows // 2 + rows // 10] = fine[: rows // 10]  # exact duplicates
        yield fine
        with_nan = fine.copy()
        with_nan[rng.random((rows, cols)) < 0.1] = np.nan
        yield with_nan
    yield np.array([[0.0, 1.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, 1.0]] * 200)


@pytest.mark.parametrize("split_rows", [2, geometry._LEX_SPLIT_ROWS])
def test_lex_order_is_np_lexsort(monkeypatch, split_rows):
    monkeypatch.setattr(geometry, "_LEX_SPLIT_ROWS", split_rows)
    for points in _lex_inputs(np.random.default_rng(7)):
        assert np.array_equal(geometry._lex_order(points), np.lexsort(points.T[::-1])), points.shape


@pytest.mark.parametrize("pass_rows", [1, geometry._COLUMN_PASS_ROWS])
def test_row_sums_are_numpy_sums(monkeypatch, pass_rows):
    monkeypatch.setattr(geometry, "_COLUMN_PASS_ROWS", pass_rows)
    rng = np.random.default_rng(11)
    for width in range(1, 11):
        for rows in (1, 3, 300, 3000):
            values = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-12, 12, size=(rows, width))
            values[rng.random((rows, width)) < 0.1] = -0.0
            values[: max(1, rows // 10)] = -0.0  # rows of signed zeros sum to 0.0
            assert np.array_equal(_bits(geometry._row_sums(values)), _bits(values.sum(axis=-1))), (rows, width)
            stacked = values.reshape(1, rows, width)
            assert np.array_equal(_bits(geometry._row_sums(stacked)), _bits(stacked.sum(axis=-1)))


def _receiver_best_reference(q_a, q_b):
    top_b = q_b.max(axis=1) + 0.0
    tied = np.where(q_b >= top_b[:, None] - EPS_TIE, q_a, -np.inf)
    action = tied.argmax(axis=1)
    return action, tied[np.arange(len(action)), action], top_b


@pytest.mark.parametrize("pass_rows", [1, geometry._COLUMN_PASS_ROWS])
def test_receiver_best_matches_the_row_reductions(monkeypatch, pass_rows):
    monkeypatch.setattr(geometry, "_COLUMN_PASS_ROWS", pass_rows)
    rng = np.random.default_rng(13)
    for trial in range(60):
        rows, actions = int(rng.integers(1, 700)), int(rng.integers(1, 11))
        steps = rng.choice([1.0, EPS_TIE / 10, EPS_TIE, 0.0, -0.0], size=(2, rows, actions))
        q_a, q_b = rng.integers(-2, 3, size=(2, rows, actions)) * steps
        if trial % 4 == 0:
            q_a[rng.random(q_a.shape) < 0.05] = np.nan
            q_b[rng.random(q_b.shape) < 0.05] = np.nan
        got = solver.receiver_best(q_a, q_b)
        for part, want in zip(got, _receiver_best_reference(q_a, q_b)):
            assert np.array_equal(_bits(part), _bits(want)), (rows, actions)


