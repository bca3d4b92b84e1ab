"""The compiled problem's CSR record against scipy's ``csr_matrix``.

:class:`repro.solver.problem.CsrMatrix` replaces ``scipy.sparse`` on the
allocation path, so every operation it offers is checked here against a
scipy matrix built from the same arrays: the product (bit for bit: both sum
each row in column order from zero), densification and dense row selection,
on empty rows and on shapes without rows or columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.solver.problem import AffineRows, ConeProgram, CsrMatrix

scipy_sparse = pytest.importorskip("scipy.sparse")


def random_pair(rows: int, columns: int, density: float, seed: int):
    """A random sorted ``CsrMatrix`` and the scipy matrix of the same arrays."""
    reference = scipy_sparse.random(
        rows, columns, density=density, format="csr", random_state=seed
    )
    reference.sort_indices()
    matrix = CsrMatrix(reference.data, reference.indices, reference.indptr, reference.shape)
    return matrix, reference


SHAPES = [(7, 5, 0.4, 0), (30, 12, 0.2, 1), (5, 40, 0.5, 2), (12, 9, 0.0, 3)]


@pytest.mark.parametrize("rows,columns,density,seed", SHAPES)
def test_product_is_bit_equal_to_scipy(rows, columns, density, seed):
    matrix, reference = random_pair(rows, columns, density, seed)
    x = np.random.default_rng(seed).standard_normal(columns)
    product = matrix @ x
    assert product.dtype == np.float64 and product.shape == (rows,)
    assert product.tobytes() == (reference @ x).tobytes()


@pytest.mark.parametrize("rows,columns,density,seed", SHAPES)
def test_toarray_matches_scipy(rows, columns, density, seed):
    matrix, reference = random_pair(rows, columns, density, seed)
    np.testing.assert_array_equal(matrix.toarray(), reference.toarray())
    assert matrix.nnz == reference.nnz


@pytest.mark.parametrize("rows,columns,density,seed", SHAPES)
def test_dense_rows_match_scipy_row_selection(rows, columns, density, seed):
    matrix, reference = random_pair(rows, columns, density, seed)
    selection = np.random.default_rng(seed).permutation(rows)[: rows // 2 + 1]
    np.testing.assert_array_equal(
        matrix.dense_rows(selection), reference[selection].toarray()
    )
    assert matrix.dense_rows(np.zeros(0, dtype=int)).shape == (0, columns)


def test_empty_rows():
    """Rows without entries multiply to zero and densify to zero rows."""
    data = np.array([2.0, -1.0, 3.0])
    indices = np.array([0, 2, 1], dtype=np.int32)
    indptr = np.array([0, 0, 2, 2, 3], dtype=np.int32)
    matrix = CsrMatrix(data, indices, indptr, (4, 3))
    reference = scipy_sparse.csr_matrix((data, indices, indptr), shape=(4, 3))
    x = np.array([0.5, -2.0, 4.0])
    assert (matrix @ x).tobytes() == (reference @ x).tobytes()
    np.testing.assert_array_equal(matrix.toarray(), reference.toarray())
    np.testing.assert_array_equal(
        matrix.dense_rows([3, 0, 2]), reference[[3, 0, 2]].toarray()
    )
    rows, columns, values = matrix.entries()
    assert rows.tolist() == [1, 1, 3]


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
def test_shapes_without_rows_or_columns(shape):
    matrix = CsrMatrix(
        np.zeros(0), np.zeros(0, dtype=np.int32), np.zeros(shape[0] + 1, dtype=np.int32), shape
    )
    reference = scipy_sparse.csr_matrix(shape)
    x = np.ones(shape[1])
    product = matrix @ x
    assert product.dtype == np.float64
    np.testing.assert_array_equal(product, reference @ x)
    np.testing.assert_array_equal(matrix.toarray(), reference.toarray())
    assert matrix.toarray().shape == shape and matrix.nnz == 0
    assert matrix.dense_rows(np.arange(shape[0])).shape == shape


def test_product_rejects_a_vector_of_the_wrong_length():
    matrix, _ = random_pair(4, 3, 0.5, 0)
    with pytest.raises(ValueError, match="cannot multiply"):
        matrix @ np.ones(4)


def test_compile_sorts_each_row_as_scipy_does():
    """Rows written with descending columns (and a fixed variable folded
    out) compile to the arrays of scipy's ``csr_matrix`` after
    ``sort_indices()``."""
    program = ConeProgram("unsorted")
    for index in range(5):
        program.add_variable(f"x{index}", lower=0.0, upper=None if index != 2 else 0.0)
    lengths = [3, 0, 2, 4]
    columns = [4, 1, 0, 3, 2, 4, 3, 1, 0]
    values = [1.0, -2.0, 3.0, 0.5, 7.0, -1.5, 2.5, 4.0, 9.0]
    program.add_rows(
        AffineRows(
            np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp),
            np.array(columns, dtype=np.intp),
            np.array(values),
            np.zeros(len(lengths)),
        ),
        ["a", "b", "c", "d"],
    )
    compiled = program.compile()
    G = compiled.G_sparse
    # x2 is fixed, so its entries fold out and the free columns renumber.
    free = {0: 0, 1: 1, 3: 2, 4: 3}
    bounds = [(free[p], -1.0) for p in (0, 1, 3, 4)]
    entry_rows, entry_columns, entry_values = [], [], []
    for row, (column, value) in enumerate(bounds):
        entry_rows.append(row)
        entry_columns.append(column)
        entry_values.append(value)
    start = 0
    for offset, length in enumerate(lengths):
        for column, value in zip(columns[start:start + length], values[start:start + length]):
            if column in free:
                entry_rows.append(len(bounds) + offset)
                entry_columns.append(free[column])
                entry_values.append(value)
        start += length
    counts = np.bincount(entry_rows, minlength=G.shape[0])
    reference = scipy_sparse.csr_matrix(
        (np.array(entry_values), np.array(entry_columns), np.concatenate([[0], np.cumsum(counts)])),
        shape=G.shape,
    )
    assert not reference.has_sorted_indices
    reference.sort_indices()
    for field in ("data", "indices", "indptr"):
        mine, theirs = getattr(G, field), getattr(reference, field)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), field
