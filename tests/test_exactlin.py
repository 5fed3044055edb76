"""Exact linear algebra: normal forms, elimination, lattice points."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackycoh.exactlin import (
    EQ,
    GE,
    GT,
    IntegerPoints,
    LinearSystem,
    PointsStatus,
    SingularMatrixError,
    affine_dim,
    feasible,
    fm_eliminate,
    has_integer_point,
    int_adjugate,
    int_matrix,
    integer_points,
    mat_mul_int,
    rat_rank,
    rational_kernel,
    rref,
    smith_normal_form,
    system,
)

from oracles import fm_feasible, invert, solve_square

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402


def _row_holds(row, x):
    lhs = sum(c * v for c, v in zip(row.coeffs, x))
    if row.rel == EQ:
        return lhs == row.rhs
    if row.rel == GE:
        return lhs >= row.rhs
    return lhs > row.rhs


def _satisfies(sys, x):
    return all(_row_holds(r, x) for r in sys.rows)


class TestSmithNormalForm:
    def test_identity(self):
        a = int_matrix([[1, 0], [0, 1]])
        s, u, v = smith_normal_form(a)
        assert s == a

    def test_diagonal_divisibility_chain(self):
        a = int_matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        s, u, v = smith_normal_form(a)
        diag = [s[i][i] for i in range(3)]
        assert diag == [2, 2, 156]
        for i in range(2):
            assert diag[i + 1] % diag[i] == 0

    def test_decomposition_identity(self):
        a = int_matrix([[6, 4], [2, 8], [0, 10]])
        s, u, v = smith_normal_form(a)
        assert mat_mul_int(mat_mul_int(u, a), v) == s

    def test_rectangular_wide(self):
        a = int_matrix([[1, 2, 3], [4, 5, 6]])
        s, u, v = smith_normal_form(a)
        assert s[0][0] == 1 and s[1][1] == 3
        assert all(s[i][j] == 0 for i in range(2) for j in range(3) if i != j)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_invariant_factors_match_sympy(self, nrows, ncols, data):
        entries = data.draw(
            st.lists(
                st.integers(-30, 30),
                min_size=nrows * ncols,
                max_size=nrows * ncols,
            )
        )
        a = int_matrix(
            [entries[i * ncols : (i + 1) * ncols] for i in range(nrows)]
        )
        s, u, v = smith_normal_form(a)
        ours = [s[i][i] for i in range(min(nrows, ncols)) if s[i][i] != 0]
        ref = sympy_snf(sympy.Matrix(nrows, ncols, entries), domain=sympy.ZZ)
        theirs = [
            abs(int(ref[i, i]))
            for i in range(min(nrows, ncols))
            if ref[i, i] != 0
        ]
        assert ours == theirs


class TestRationalLinearAlgebra:
    def test_rref_pivots(self):
        work, pivots = rref([[2, 4], [1, 2]], 2)
        assert pivots == (0,)
        assert work[0] == [Fraction(1), Fraction(2)]

    def test_rank(self):
        assert rat_rank([[1, 2], [2, 4]]) == 1
        assert rat_rank([[1, 0], [0, 1]]) == 2
        assert rat_rank([]) == 0

    def test_rank_of_fractions_and_zero_rows(self):
        assert rat_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
        assert rat_rank([[0, 0, 0], [0, 0, 0]]) == 0
        assert rat_rank([[0, 0, 5], [0, 1, 0], [0, 2, 7]]) == 2

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 5), st.data())
    def test_rank_equals_sympy(self, nrows, ncols, data):
        entry = st.fractions(-6, 6, max_denominator=4) | st.integers(-3, 3)
        rows = data.draw(st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows,
        ))
        expected = sympy.Matrix(rows).rank() if rows else 0
        assert rat_rank(rows) == expected == len(rref(rows, ncols)[1])

    def test_kernel_of_projection(self):
        basis = rational_kernel([[1, 0, 0]], 3)
        assert basis == (
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )

    def test_kernel_empty_matrix_is_full_space(self):
        assert len(rational_kernel([], 2)) == 2

    def test_solve_and_invert(self):
        a = [[2, 1], [1, 1]]
        x = solve_square(a, [3, 2])
        assert x == (Fraction(1), Fraction(1))
        inv = invert(a)
        assert inv == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))

    def test_adjugate(self):
        assert int_adjugate([[2, 1], [1, 1]]) == (1, ((1, -1), (-1, 2)))
        assert int_adjugate([[0, 3], [2, 0]]) == (-6, ((0, -3), (-2, 0)))
        assert int_adjugate([[-5]]) == (-5, ((1,),))
        with pytest.raises(SingularMatrixError):
            int_adjugate([[1, 2], [2, 4]])
        with pytest.raises(ValueError):
            int_adjugate([[1, 2]])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_adjugate_equals_sympy(self, n, data):
        rows = data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=n, max_size=n,
        ))
        ref = sympy.Matrix(rows)
        if ref.det() == 0:
            with pytest.raises(SingularMatrixError):
                int_adjugate(rows)
            return
        det, adj = int_adjugate(rows)
        assert det == ref.det()
        assert adj == tuple(tuple(row) for row in ref.adjugate().tolist())
        assert mat_mul_int(adj, rows) == tuple(
            tuple(det * (i == j) for j in range(n)) for i in range(n)
        )
        assert all(type(x) is int for row in adj for x in row)

    def test_affine_dim(self):
        assert affine_dim([]) == -1
        assert affine_dim([(1, 2)]) == 0
        assert affine_dim([(0, 0), (1, 1), (2, 2)]) == 1
        assert affine_dim([(0, 0), (1, 0), (0, 1)]) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            min_size=1,
            max_size=6,
        ),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    def test_affine_dim_translation_invariant(self, pts, shift):
        moved = [(p[0] + shift[0], p[1] + shift[1]) for p in pts]
        assert affine_dim(moved) == affine_dim(pts)
        assert affine_dim(list(reversed(pts))) == affine_dim(pts)


def _random_system(data, nvars, with_eq=True):
    nrows = data.draw(st.integers(1, 4))
    rows = []
    rels = [GE, GT] + ([EQ] if with_eq else [])
    for _ in range(nrows):
        coeffs = data.draw(
            st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars)
        )
        rel = data.draw(st.sampled_from(rels))
        rhs = data.draw(st.integers(-4, 4))
        rows.append((coeffs, rel, rhs))
    return system(nvars, rows)


class TestFourierMotzkin:
    def test_eliminate_simple_band(self):
        sys = system(2, [((1, 1), GE, 0), ((-1, -1), GE, -3), ((0, 1), GE, 1)])
        proj = fm_eliminate(sys, 1)
        ok, w = feasible(proj)
        assert ok

    def test_equality_substitution(self):
        sys = system(2, [((1, -1), EQ, 0), ((1, 0), GE, 2)])
        proj = fm_eliminate(sys, 0)
        ok, w = feasible(proj)
        assert ok and w[0] >= 2

    def test_infeasible_strict_pair(self):
        sys = system(1, [((1,), GT, 0), ((-1,), GE, 0)])
        ok, w = feasible(sys)
        assert not ok and w is None

    def test_feasible_open_interval_needs_strictness(self):
        # 0 < x < 1 has rational but no integer solutions
        sys = system(1, [((1,), GT, 0), ((-1,), GT, -1)])
        ok, w = feasible(sys)
        assert ok and 0 < w[0] < 1

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_witness_satisfies_system(self, nvars, data):
        sys = _random_system(data, nvars)
        ok, w = feasible(sys)
        if ok:
            assert _satisfies(sys, w)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_tower_matches_unpruned_projection(self, nvars, data):
        # two systems stacked, so that Chernikov's rule has rows to prune
        a = _random_system(data, nvars)
        b = _random_system(data, nvars)
        sys = LinearSystem(nvars, a.rows + b.rows)
        assert feasible(sys)[0] == fm_feasible(sys)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 3), st.data())
    def test_projection_contains_projected_points(self, nvars, data):
        sys = _random_system(data, nvars)
        var = data.draw(st.integers(0, nvars - 1))
        proj = fm_eliminate(sys, var)
        point = data.draw(
            st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars)
        )
        if _satisfies(sys, point):
            shadow = point[:var] + point[var + 1 :]
            assert _satisfies(proj, shadow)


class TestIntegerPoints:
    def test_rejects_strict_rows(self):
        sys = system(1, [((1,), GT, 0)])
        with pytest.raises(ValueError):
            integer_points(sys)

    def test_segment(self):
        sys = system(1, [((1,), GE, 0), ((-1,), GE, -2)])
        res = integer_points(sys)
        assert res.status is PointsStatus.POINTS
        assert res.points == ((0,), (1,), (2,))

    def test_empty_integer_nonempty_rational(self):
        # 2y = 1 has rational solutions only
        sys = system(1, [((2,), EQ, 1)])
        res = integer_points(sys)
        assert res.status is PointsStatus.INFEASIBLE

    def test_unbounded_line_with_lattice_points(self):
        # 2y = x + 1, x >= 0: points (1,1), (3,2), ...
        sys = system(2, [((-1, 2), EQ, 1), ((1, 0), GE, 0)])
        res = integer_points(sys)
        assert res.status is PointsStatus.UNBOUNDED_WITH_LATTICE_POINT
        assert res.recession is not None

    def test_unbounded_strip_without_lattice_points(self):
        # 3y = 3x + 1 has no integer solutions at all
        sys = system(2, [((-3, 3), EQ, 1)])
        res = integer_points(sys)
        assert res.status is PointsStatus.INFEASIBLE

    def test_cap_exhausted(self):
        sys = system(1, [((1,), GE, 0), ((-1,), GE, -10**4)])
        res = integer_points(sys, cap=10)
        assert res.status is PointsStatus.CAP_EXCEEDED

    def test_lex_order(self):
        sys = system(
            2,
            [
                ((1, 0), GE, 0),
                ((0, 1), GE, 0),
                ((-1, -1), GE, -1),
            ],
        )
        res = integer_points(sys)
        assert res.points == ((0, 0), (0, 1), (1, 0))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_matches_naive_box_enumeration(self, nvars, data):
        bound = 3
        sys = _random_system(data, nvars, with_eq=True)
        boxed = system(
            nvars,
            [(r.coeffs, r.rel, r.rhs) for r in sys.rows if r.rel != GT]
            + [
                (tuple(1 if j == i else 0 for j in range(nvars)), GE, -bound)
                for i in range(nvars)
            ]
            + [
                (tuple(-1 if j == i else 0 for j in range(nvars)), GE, -bound)
                for i in range(nvars)
            ],
        )
        res = integer_points(boxed)
        naive = [
            pt
            for pt in product(range(-bound, bound + 1), repeat=nvars)
            if _satisfies(boxed, pt)
        ]
        if naive:
            assert res.status is PointsStatus.POINTS
            assert list(res.points) == naive
        else:
            assert res.status is PointsStatus.INFEASIBLE
        assert has_integer_point(boxed) is bool(naive)
