"""Exact linear algebra: congruence reduction and Hermitian signatures."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from crjets import GaussianRational, I
from crjets.errors import PreconditionError, SingularJacobianError
from crjets.linalg import (
    hermitian_signature,
    identity_matrix,
    invert_matrix,
    rank,
    symmetric_diagonalize,
)

from oracles import ZERO, cmatmul, hermitian_inertia


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def herm(rows):
    return [[GaussianRational(*x) if isinstance(x, tuple) else GaussianRational(x) for x in row] for row in rows]


def conj_transpose(a):
    return [[x.conjugate() for x in column] for column in zip(*a)]


def coef(x):
    """A Fraction or GaussianRational as the oracle's (re, im) pair."""
    return (Fraction(x.real), Fraction(x.imag))


def coefs(m):
    return [[coef(x) for x in row] for row in m]


def assert_congruence(h, p, d):
    """p^H h p == diag(d) with d real, and p invertible."""
    n = len(h)
    left = cmatmul(cmatmul(coefs(conj_transpose(p)), coefs(h)), coefs(p))
    for i in range(n):
        for j in range(n):
            assert left[i][j] == (coef(d[i]) if i == j else ZERO)
        assert d[i] == d[i].conjugate()
    assert rank(p) == n


def test_congruence_reduces_random_symmetric_matrices():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        h = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                h[i][j] = h[j][i] = v
        p, d = symmetric_diagonalize(h)
        assert_congruence(h, p, d)


def test_congruence_needs_the_shear():
    # zero diagonal forces the column-addition fallback
    h = frac_matrix([[0, 1], [1, 0]])
    p, d = symmetric_diagonalize(h)
    signs = sorted(1 if v > 0 else -1 if v < 0 else 0 for v in d)
    assert signs == [-1, 1]
    # Morse normalization prints p as its congruence, so a real matrix
    # must keep these exact values on the shear path.
    assert p == [[1, Fraction(-1, 2)], [1, Fraction(1, 2)]]
    assert d == [2, Fraction(-1, 2)]
    assert all(type(x) is Fraction for row in p for x in row + d)


@st.composite
def hermitian_matrices(draw):
    """Sparse Hermitian matrices up to 8 x 8 with zero or real diagonals,
    purely imaginary off-diagonal entries, and repeated rows that make
    them singular."""
    n = draw(st.integers(0, 8))
    denominator = draw(st.integers(1, 3))
    # off-diagonal kinds: 0 zero, 1 purely imaginary, 2 complex
    kinds = st.integers(0 if draw(st.booleans()) else 1, 2)
    zero_diagonal = draw(st.booleans())
    parts = st.integers(-4, 4)

    def part(nonzero=False):
        return Fraction(draw(parts.filter(bool) if nonzero else parts), denominator)

    h = [[GaussianRational(0)] * n for _ in range(n)]
    for i in range(n):
        if not zero_diagonal:
            h[i][i] = GaussianRational(part())
        for j in range(i + 1, n):
            kind = draw(kinds)
            if kind:
                h[i][j] = GaussianRational(part() if kind == 2 else 0, part(nonzero=True))
                h[j][i] = h[i][j].conjugate()
    if n >= 2 and draw(st.booleans()):
        # index dst repeats index src as row and column: h stays Hermitian and turns singular
        src, dst = draw(st.permutations(range(n)))[:2]
        for k in range(n):
            h[dst][k] = h[src][k]
        for k in range(n):
            h[k][dst] = h[k][src]
    return h


@given(hermitian_matrices())
# purely imaginary h_01 on a zero diagonal: only the shear by i gives a pivot
@example(herm([[0, (0, 1), 0], [(0, -1), 0, (2, 3)], [0, (2, -3), 0]]))
@example(herm([[1, 1, 0], [1, 1, 0], [0, 0, 0]]))
@settings(max_examples=150, deadline=None)
def test_hermitian_signature_matches_characteristic_polynomial(h):
    expected = hermitian_inertia([[(x.real, x.imag) for x in row] for row in h])
    assert hermitian_signature(h) == expected
    p, d = symmetric_diagonalize(h)
    assert_congruence(h, p, d)


def test_hermitian_signature_cases():
    assert hermitian_signature(herm([[2]])) == (1, 0, 0)
    assert hermitian_signature(herm([[1, 0], [0, -1]])) == (1, 1, 0)
    assert hermitian_signature(herm([[0, 0], [0, 0]])) == (0, 0, 2)
    assert hermitian_signature(herm([[1, 1], [1, 1]])) == (1, 0, 1)
    # [[0, i], [-i, 0]] has eigenvalues +-1
    m = [[GaussianRational(0), I], [-I, GaussianRational(0)]]
    assert hermitian_signature(m) == (1, 1, 0)


def test_hermitian_signature_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        hermitian_signature(herm([[0, 1], [0, 0]]))
    with pytest.raises(PreconditionError):
        hermitian_signature(herm([[(1, 1)]]))  # a Hermitian diagonal is real
    with pytest.raises(PreconditionError):
        symmetric_diagonalize(frac_matrix([[1, 2], [3, 1]]))


def test_solve_and_invert():
    m = herm([[2, 1], [1, 1]])
    inv = invert_matrix(m)
    assert cmatmul(coefs(m), coefs(inv)) == coefs(identity_matrix(2, GaussianRational(1)))
    with pytest.raises(SingularJacobianError):
        invert_matrix(herm([[1, 1], [1, 1]]))


def test_shape_refusals():
    one, zero = Fraction(1), Fraction(0)
    with pytest.raises(PreconditionError, match="^ragged matrix$"):
        invert_matrix([[one, zero], [one]])
    with pytest.raises(PreconditionError, match="^only square matrices invert$"):
        invert_matrix([[one, zero]])
    with pytest.raises(PreconditionError, match="^congruence needs a square matrix$"):
        symmetric_diagonalize([[one, zero]])


def test_rank():
    assert rank(herm([[1, 2], [2, 4]])) == 1
    assert rank(herm([[1, 0], [0, 1]])) == 2
    assert rank(herm([[0]])) == 0
