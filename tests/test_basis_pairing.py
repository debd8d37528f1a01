"""Reading a coefficient as a pairing with the dual basis, against the
matrix inversion it replaced (`basis_by_inversion`): every conversion
must give the same coefficients, exactly."""

import pytest

from hilbeuler.hall_littlewood import expand_in_P, hl_P
from hilbeuler.partitions import partitions_of, partitions_up_to, zee
from hilbeuler.symfunc import (BASES, DEGREE_BOUND, DegreeBoundError,
                               SymFunc, _p_in_basis_matrix, convert,
                               hl_inner, m_in_p, s_in_p, to_p)
from hilbeuler.xlaurent import add_terms
import basis_by_inversion as oracle
from symfunc_helpers import parse_symfunc

CLASSICAL = ("p", "m", "h", "e", "s")


def _assert_same(f, targets):
    """convert(f, t) has the coefficients the inversion path gives."""
    fp = oracle.to_p_by_inversion(f)
    assert to_p(f).c == fp.c, f
    for target in targets:
        got = convert(f, target)
        want = oracle.from_p(fp, target)
        assert (got.basis, got.c) == (want.basis, want.c), (f, target)


def test_classical_elements_in_every_basis():
    # P and Q only up to degree 4, as below: Q_lam of degree 7 take seconds
    for d in range(8):
        for lam in partitions_of(d):
            for basis in CLASSICAL:
                _assert_same(SymFunc.element(basis, lam),
                             BASES if d <= 4 else CLASSICAL)


def test_hall_littlewood_elements_in_every_basis():
    for lam in partitions_up_to(4):
        for basis in ("P", "Q"):
            _assert_same(SymFunc.element(basis, lam), BASES)


def test_parameter_dependent_sums_in_every_basis():
    # the theorem reads f in e; these carry z in their p-coefficients
    for text in ("P[2,1]+s[1]", "Q[2]-3*P[1,1]*h[1]", "P[3]*Q[1]+e[2,2]",
                 "(P[1]+m[1])*(Q[2,1]-p[3])", "Q[4]+P[2,2]+Q[1]+2"):
        f = parse_symfunc(text)
        _assert_same(f, BASES)
        assert expand_in_P(f) == oracle.expand_in_P(f), text


def test_m_in_p_is_the_inverse_of_p_in_m_matrix():
    for d in range(9):
        keys = tuple(partitions_of(d))
        inverse = oracle._invert_matrix(oracle.p_in_m_matrix(d), keys)
        for lam in keys:
            assert m_in_p(lam) == inverse[lam], lam


def test_m_in_p_equals_the_triangular_solve_up_to_the_degree_bound():
    lams = partitions_up_to(DEGREE_BOUND)
    assert len(lams) == 272
    for lam in lams:
        assert m_in_p(lam) == oracle.m_in_p_by_solve(lam), lam


def test_m_in_p_past_the_degree_bound_raises():
    with pytest.raises(DegreeBoundError):
        m_in_p((DEGREE_BOUND + 1,))


def test_s_in_p_equals_the_jacobi_trudi_determinant_up_to_the_degree_bound():
    lams = partitions_up_to(DEGREE_BOUND)
    assert len(lams) == 272
    for lam in lams:
        assert s_in_p(lam) == oracle.s_in_p_by_jacobi_trudi(lam), lam


def test_s_rows_hold_orthogonal_integer_characters():
    # the coefficient of s_lam in p_k is the character chi^lam(k), and the
    # column orthogonality sum_lam chi^lam(k)^2 = zee(k) holds
    for d in range(9):
        mat = _p_in_basis_matrix("s", d)
        for k, row in mat.items():
            assert all(v.denominator == 1 for v in row.values()), k
            assert sum(v * v for v in row.values()) == zee(k), k


def test_s_past_the_degree_bound_raises():
    with pytest.raises(DegreeBoundError):
        to_p(SymFunc.element("s", (7, 6)))
    with pytest.raises(DegreeBoundError):
        _p_in_basis_matrix("s", DEGREE_BOUND + 1)


def q_coefficients_by_P_pairing(f):
    """The Q-coefficients of f as `from_p` read them before it divided by
    b_lam: the pairing of f with the dual basis element P_lam."""
    fp = to_p(f)
    out = SymFunc("Q")
    for d in fp.degrees():
        add_terms(out.c, ((lam, hl_inner(fp, hl_P(lam)))
                          for lam in partitions_of(d)))
    return out


def test_q_coefficients_equal_the_P_pairing():
    fs = [SymFunc.element("s", lam) for lam in partitions_up_to(5)]
    fs.append(parse_symfunc("P[2,1]+Q[1]"))
    for f in fs:
        got, want = convert(f, "Q"), q_coefficients_by_P_pairing(f)
        assert (got.basis, got.c) == (want.basis, want.c), f
