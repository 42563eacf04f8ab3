"""Exact dense linear algebra over Fraction and Gaussian rationals.

One Gauss-Jordan routine serves inversion and rank. One
congruence routine, symmetric_diagonalize, serves both quadratic forms
of the structure: the Hermitian Levi form, whose inertia
hermitian_signature counts, and the real t-Hessian that Morse
normalization diagonalizes. Entries are exact field elements, pivots
are chosen by position (lowest index), never by size, so results are
deterministic across runs. Matrices are lists of row lists and are
never mutated in place by public functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar

from .errors import PreconditionError, SingularJacobianError
from .rationals import GaussianRational, I

F = TypeVar("F", Fraction, GaussianRational)
Matrix = list[list[F]]


def _copy(m: Sequence[Sequence[F]]) -> list[list[F]]:
    return [list(row) for row in m]


def _check_rect(m: Sequence[Sequence[F]]) -> tuple[int, int]:
    rows = len(m)
    if rows == 0:
        return 0, 0
    cols = len(m[0])
    if any(len(r) != cols for r in m):
        raise PreconditionError("ragged matrix")
    return rows, cols


def identity_matrix(n: int, one: F) -> list[list[F]]:
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _gauss_jordan(m: list[list[F]], cols: int) -> list[int]:
    """Reduce the first ``cols`` columns of m in place to reduced row
    echelon form and return the pivot columns.

    Each pivot is the first nonzero entry at or below the current row, and
    its row is scaled to a leading one before clearing the column.
    """
    rows = len(m)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def invert_matrix(a: Sequence[Sequence[F]]) -> list[list[F]]:
    """Exact inverse; raises SingularJacobianError when singular."""
    n, cols = _check_rect(a)
    if n != cols:
        raise PreconditionError("only square matrices invert")
    if n == 0:
        return []
    ident = identity_matrix(n, _field_one(a))
    m = [list(row) + ident[i] for i, row in enumerate(a)]
    pivots = _gauss_jordan(m, n)
    if len(pivots) < n:
        k = next((i for i, c in enumerate(pivots) if i != c), len(pivots))
        raise SingularJacobianError(f"singular matrix, no pivot in column {k}")
    return [row[n:] for row in m]


def _field_one(a: Sequence[Sequence[F]]) -> F:
    for row in a:
        for x in row:
            if isinstance(x, GaussianRational):
                return GaussianRational(1)
            return Fraction(1)
    return Fraction(1)


def rank(a: Sequence[Sequence[F]]) -> int:
    rows, cols = _check_rect(a)
    if rows == 0 or cols == 0:
        return 0
    return len(_gauss_jordan(_copy(a), cols))


def symmetric_diagonalize(h: Sequence[Sequence[F]]) -> tuple[list[list[F]], list[F]]:
    """Congruence diagonalization of a conjugate-symmetric matrix.

    Serves real symmetric matrices over Fraction and Hermitian ones over
    GaussianRational alike. Returns (p, d) with p invertible and
    p^H h p = diag(d), where p^H is the conjugate transpose; d is real.
    Pivots are chosen at the lowest available index: take the current
    diagonal entry if nonzero, else swap in the first later nonzero
    diagonal entry, else shear (add c times the first column l with a
    nonzero entry in the pivot row, plus conj(c) times the matching row).
    The trailing diagonal is all zero at that point, so the new pivot is
    2 Re(c h_kl): c is 1, or i when h_kl is purely imaginary. Column
    operations skip zero source entries, so sparse matrices stay cheap.
    """
    n, cols = _check_rect(h)
    if n != cols:
        raise PreconditionError("congruence needs a square matrix")
    for i in range(n):
        for j in range(i, n):
            if h[i][j] != h[j][i].conjugate():
                raise PreconditionError(f"matrix is not Hermitian at ({i},{j})")
    m = _copy(h)
    one = _field_one(h)
    p = identity_matrix(n, one)

    def col_op(dst: int, src: int, factor: F) -> None:
        # column dst += factor * column src on m and p, then
        # row dst += conj(factor) * row src on m
        for rows in (m, p):
            for row in rows:
                if row[src]:
                    row[dst] += factor * row[src]
        conj = factor.conjugate()
        m_dst, m_src = m[dst], m[src]
        for j in range(n):
            if m_src[j]:
                m_dst[j] += conj * m_src[j]

    def col_swap(i: int, j: int) -> None:
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(n):
        if not m[k][k]:
            swap = next((l for l in range(k + 1, n) if m[l][l]), None)
            if swap is not None:
                col_swap(k, swap)
            else:
                shear = next((l for l in range(k + 1, n) if m[k][l]), None)
                if shear is None:
                    continue  # row and column k are zero on the trailing block
                col_op(k, shear, one if m[k][shear].real else I)
        d = m[k][k]
        for j in range(k + 1, n):
            if m[k][j]:
                col_op(j, k, -m[k][j] / d)
    return p, [m[i][i] for i in range(n)]


def hermitian_signature(m: Sequence[Sequence[F]]) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a Hermitian matrix: by
    Sylvester's law, the signs of the congruence diagonal."""
    _, diag = symmetric_diagonalize(m)
    pos = sum(1 for x in diag if x.real > 0)
    neg = sum(1 for x in diag if x.real < 0)
    return pos, neg, len(diag) - pos - neg
