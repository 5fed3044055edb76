"""Exact linear algebra: normal forms, elimination, lattice points."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackycoh.exactlin import (
    DEFAULT_CAP,
    SingularMatrixError,
    _eliminate,
    _gauss_jordan,
    build_tower,
    int_kernel,
    int_solve,
    int_tuple,
    mat_mul_int,
    rat_rank,
    smith_normal_form,
    tower_points,
)

from oracles import (
    EQ,
    GE,
    GT,
    LinearSystem,
    affine_dim,
    constant_rows_hold,
    dense_rank,
    fm_bounded,
    fm_feasible,
    gauss_jordan_unskipped,
    invert,
    rational_kernel,
    rref,
    solve_square,
    sparse_rows,
    system,
    system_tower,
    tower_bounded,
    tower_feasible,
)

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402


def _nonzero(sys):
    """The system without its zero rows, which no tower takes."""
    return LinearSystem(sys.nvars, tuple(r for r in sys.rows if any(r.coeffs)))


def feasible(sys):
    """Rational feasibility of a system: its zero rows directly, the rest off its tower."""
    zero = LinearSystem(sys.nvars, tuple(r for r in sys.rows if not any(r.coeffs)))
    tower, b, strict = system_tower(_nonzero(sys))
    return constant_rows_hold(zero) and tower_feasible(tower, b, strict)


def integer_points(sys, cap=DEFAULT_CAP, first_only=False):
    """Lattice points of a non-strict system, through its tower."""
    tower, b, _ = system_tower(sys)
    return tower_points(tower, b, cap, first_only)


def _level_holds(sys, k, prefix):
    """Whether the prefix satisfies every row of the projection onto x_0..x_{k-1}.

    That is level k - 1 of the tower of the nonzero rows, or for k = 0 the
    constant rows that one more elimination of x_0 gives.
    """
    tower, b, strict = system_tower(_nonzero(sys))
    rows = tower[k - 1] if k else _eliminate(tower[0], 0, len(tower) + 1)
    for coeffs, mult in rows:
        lhs = sum(c * x for c, x in zip(coeffs, prefix))
        rhs = sum(m * y for m, y in zip(mult, b))
        if lhs < rhs or (lhs == rhs and any(s for m, s in zip(mult, strict) if m)):
            return False
    return True


def _row_holds(row, x):
    lhs = sum(c * v for c, v in zip(row.coeffs, x))
    if row.rel == EQ:
        return lhs == row.rhs
    if row.rel == GE:
        return lhs >= row.rhs
    return lhs > row.rhs


def _satisfies(sys, x):
    return all(_row_holds(r, x) for r in sys.rows)


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


class TestSmithNormalForm:
    def test_identity(self):
        a = ((1, 0), (0, 1))
        s, u, v = smith_normal_form(a)
        assert s == a

    def test_diagonal_divisibility_chain(self):
        a = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
        s, u, v = smith_normal_form(a)
        diag = [s[i][i] for i in range(3)]
        assert diag == [2, 2, 156]
        for i in range(2):
            assert diag[i + 1] % diag[i] == 0

    def test_decomposition_identity(self):
        a = ((6, 4), (2, 8), (0, 10))
        s, u, v = smith_normal_form(a)
        assert mat_mul_int(mat_mul_int(u, a), v) == s

    def test_rectangular_wide(self):
        a = ((1, 2, 3), (4, 5, 6))
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
        a = tuple(tuple(entries[i * ncols : (i + 1) * ncols]) for i in range(nrows))
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
        # the reduced echelon form of tests/oracles.py
        work, pivots = rref([[2, 4], [1, 2]], 2)
        assert pivots == (0,)
        assert work[0] == [Fraction(1), Fraction(2)]

    def test_rank(self):
        assert rat_rank(sparse_rows([[1, 2], [2, 4]])) == 1
        assert rat_rank(sparse_rows([[1, 0], [0, 1]])) == 2
        assert rat_rank([]) == 0

    def test_rank_of_zero_rows(self):
        assert rat_rank(sparse_rows([[0, 0, 0], [0, 0, 0]])) == 0
        assert rat_rank(sparse_rows([[0, 0, 5], [0, 1, 0], [0, 2, 7]])) == 2
        assert rat_rank([{}, {3: 0}, {1: 0, 2: -4}]) == 1

    def test_columns_are_any_int_keys(self):
        # the columns need not be 0..n-1: Delta keys them by face bitmasks
        assert rat_rank([{0b11: 1, 0b101: -1}, {0b101: 1, 0b110: -1}, {0b11: 1, 0b110: -1}]) == 2
        assert rat_rank([{-7: 2, 10**20: 3}, {-7: 4, 10**20: 6}]) == 1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 5), st.data())
    def test_rank_equals_sympy(self, nrows, ncols, data):
        rows = data.draw(st.lists(
            st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows,
        ))
        expected = sympy.Matrix(rows).rank() if rows else 0
        assert rat_rank(sparse_rows(rows)) == expected == len(rref(rows, ncols)[1])
        assert dense_rank(rows) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 8), st.integers(0, 8), st.data())
    def test_sparse_rank_equals_dense_oracle(self, nrows, ncols, inner, data):
        # rows = A B with A nrows x inner and B inner x ncols has rank at
        # most inner, so rows cancel through non-unit pivots; the entries
        # mix zeros, units and large values, and the columns get random
        # distinct keys, so the pivot order differs from the dense one
        entry = st.one_of(st.just(0), st.sampled_from([1, -1]), st.integers(-9, 9),
                          st.integers(-10**12, 10**12))
        a = data.draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                               min_size=nrows, max_size=nrows))
        b = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                               min_size=inner, max_size=inner))
        rows = [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] if b else [0] * ncols
                for r in a]
        keys = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=ncols,
                                  max_size=ncols, unique=True))
        relabeled = [{keys[j]: x for j, x in row.items()} for row in sparse_rows(rows)]
        assert rat_rank(relabeled) == rat_rank(sparse_rows(rows)) == dense_rank(rows)
        assert dense_rank(rows) <= min(inner, nrows, ncols)

    def test_kernel_of_projection(self):
        assert int_kernel([[1, 0, 0]], 3) == ((0, 1, 0), (0, 0, 1))
        assert int_kernel([[2, 4], [1, 2]], 2) == ((-2, 1),)
        assert int_kernel([[0, 3, -6]], 3) == ((1, 0, 0), (0, 2, 1))

    def test_kernel_empty_matrix_is_full_space(self):
        assert int_kernel([], 2) == ((1, 0), (0, 1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 6), st.data())
    def test_kernel_is_primitive_positive_multiple_of_echelon_kernel(self, nrows, ncols, data):
        rows = data.draw(st.lists(
            st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows,
        ))
        ours = int_kernel(rows, ncols)
        ref = rational_kernel(rows, ncols)
        assert len(ours) == len(ref)
        for vec, r in zip(ours, ref):
            assert all(type(x) is int for x in vec) and math.gcd(*vec) == 1
            j = next(j for j, x in enumerate(r) if x)
            t = Fraction(vec[j]) / r[j]
            assert t > 0 and all(x == t * y for x, y in zip(vec, r))

    def test_solve_and_invert(self):
        a = [[2, 1], [1, 1]]
        x = solve_square(a, [3, 2])
        assert x == (Fraction(1), Fraction(1))
        inv = invert(a)
        assert inv == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))

    def test_adjugate(self):
        # the solve against I is the adjugate
        assert int_solve([[2, 1], [1, 1]], eye(2)) == (1, ((1, -1), (-1, 2)))
        assert int_solve([[0, 3], [2, 0]], eye(2)) == (-6, ((0, -3), (-2, 0)))
        assert int_solve([[-5]], eye(1)) == (-5, ((1,),))
        with pytest.raises(SingularMatrixError):
            int_solve([[1, 2], [2, 4]], eye(2))
        with pytest.raises(ValueError):
            int_solve([[1, 2]], eye(1))

    def test_rational_entries_refused(self):
        # exact division floors a Fraction: this matrix has rank 2 and
        # det 5/36, but the elimination would read rank 1 and det 0
        half_third = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]]
        with pytest.raises(TypeError, match="integer matrix"):
            rat_rank(sparse_rows(half_third))
        with pytest.raises(TypeError, match="integer matrix"):
            rat_rank([{0: 1, 1: 1.0}])
        with pytest.raises(TypeError, match="integer matrix"):
            int_solve(half_third, eye(2))
        with pytest.raises(TypeError, match="integer matrix"):
            int_kernel(half_third[:1], 2)

    def test_int_tuple_converts_int_subclasses(self):
        # exact ints come back as they are, a bool as the int it equals
        assert int_tuple([3, -2], "x") == (3, -2)
        out = int_tuple((True, 0, False), "x")
        assert out == (1, 0, 0) and all(type(x) is int for x in out)
        with pytest.raises(TypeError, match=r"^x expected, got the entry 2\.0$"):
            int_tuple((True, 2.0), "x")

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
                int_solve(rows, eye(n))
            return
        det, adj = int_solve(rows, eye(n))
        assert det == ref.det()
        assert adj == tuple(tuple(row) for row in ref.adjugate().tolist())
        assert mat_mul_int(adj, rows) == tuple(
            tuple(det * (i == j) for j in range(n)) for i in range(n)
        )
        assert all(type(x) is int for row in adj for x in row)

    def test_solve(self):
        # a right-hand side of one column is Cramer's rule
        assert int_solve([[2, 1], [1, 1]], [[3], [2]]) == (1, ((1,), (1,)))
        assert int_solve([[0, 3], [2, 0]], [[1], [1]]) == (-6, ((-3,), (-2,)))
        with pytest.raises(SingularMatrixError):
            int_solve([[1, 2], [2, 4]], [[1], [1]])
        with pytest.raises(ValueError):
            int_solve([[1, 2]], [[1]])
        with pytest.raises(ValueError):
            int_solve([[1, 0], [0, 1]], [[1, 2], [3]])
        with pytest.raises(TypeError, match="integer matrix"):
            int_solve([[1, 0], [0, 1]], [[Fraction(1, 2)], [1]])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_solve_equals_sympy(self, n, data):
        entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
        rows = data.draw(st.lists(entries, min_size=n, max_size=n))
        b = data.draw(entries)
        ref = sympy.Matrix(rows)
        if ref.det() == 0:
            with pytest.raises(SingularMatrixError):
                int_solve(rows, [[y] for y in b])
            return
        det, x = int_solve(rows, [[y] for y in b])
        assert det == ref.det()
        assert x == tuple((y,) for y in ref.adjugate() * sympy.Matrix(b))
        assert all(type(y) is int for (y,) in x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 3), st.data())
    def test_matrix_solve_equals_sympy(self, n, k, data):
        # k columns at once give the k one-column solves side by side
        rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n))
        b = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=n, max_size=n))
        ref = sympy.Matrix(rows)
        if ref.det() == 0:
            with pytest.raises(SingularMatrixError):
                int_solve(rows, b)
            return
        det, x = int_solve(rows, b)
        assert det == ref.det()
        assert x == tuple(map(tuple, (ref.adjugate() * sympy.Matrix(n, k, sum(b, []))).tolist()))
        assert all(type(y) is int for row in x for y in row)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.data())
    def test_idle_rows_left_alone_as_if_combined(self, nrows, ncols, data):
        # mostly zeros and unit pivots, where rows are left alone most often
        entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])
        rows = data.draw(st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows,
        ))
        pivot_cols = data.draw(st.integers(0, ncols))
        skipped, combined = [list(r) for r in rows], [list(r) for r in rows]
        assert _gauss_jordan(skipped, pivot_cols) == gauss_jordan_unskipped(combined, pivot_cols)
        assert skipped == combined

    def test_affine_dim(self):
        # the affine dimension of tests/oracles.py, which checks lambda_polytope
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
    """Towers of LinearSystem values from tests/oracles.py."""

    def test_eliminate_simple_band(self):
        # 0 <= x + y <= 3, y >= 1 projects onto x <= 2
        sys = system(2, [((1, 1), GE, 0), ((-1, -1), GE, -3), ((0, 1), GE, 1)])
        assert feasible(sys)
        assert [x for x in range(-5, 6) if _level_holds(sys, 1, (x,))] == list(range(-5, 3))

    def test_equality_substitution(self):
        # x_1 = x_0 and x_1 >= 2 project onto x_0 >= 2
        sys = system(2, [((-1, 1), EQ, 0), ((0, 1), GE, 2)])
        assert feasible(sys)
        assert [x for x in range(-5, 6) if _level_holds(sys, 1, (x,))] == list(range(2, 6))

    def test_infeasible_strict_pair(self):
        sys = system(1, [((1,), GT, 0), ((-1,), GE, 0)])
        assert not feasible(sys)

    def test_feasible_open_interval_needs_strictness(self):
        # 0 < x < 1 has rational but no integer solutions; 0 < x < 0 has none,
        # although 0 <= x <= 0 has one
        assert feasible(system(1, [((1,), GT, 0), ((-1,), GT, -1)]))
        assert integer_points(system(1, [((1,), GE, 1), ((-1,), GE, 0)])) == ()
        assert not feasible(system(1, [((1,), GT, 0), ((-1,), GT, 0)]))
        assert feasible(system(1, [((1,), GE, 0), ((-1,), GE, 0)]))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_tower_matches_unpruned_projection(self, nvars, data):
        # two systems stacked, so that Chernikov's rule has rows to prune
        a = _random_system(data, nvars)
        b = _random_system(data, nvars)
        sys = LinearSystem(nvars, a.rows + b.rows)
        assert feasible(sys) == fm_feasible(sys)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 3), st.data())
    def test_projection_contains_projected_points(self, nvars, data):
        sys = _random_system(data, nvars)
        k = data.draw(st.integers(0, nvars - 1))
        point = data.draw(
            st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars)
        )
        if _satisfies(sys, point):
            assert _level_holds(sys, k, point[:k])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_bounded_levels_match_oracle(self, nvars, data):
        # boundedness reads the rows R alone, {z : R z >= 0}, so the oracle
        # sees the system with every strict row made non-strict; a zero row
        # holds on every z
        rows = _random_system(data, nvars).rows + _random_system(data, nvars).rows
        sys = system(nvars, [(r.coeffs, EQ if r.rel == EQ else GE, r.rhs) for r in rows])
        tower, _, _ = system_tower(_nonzero(sys))
        assert len(tower) == nvars
        assert tower_bounded(tower) == fm_bounded(sys)


class TestIntegerPoints:
    """Lattice points of LinearSystem values from tests/oracles.py, through their towers."""

    def test_segment(self):
        sys = system(1, [((1,), GE, 0), ((-1,), GE, -2)])
        assert integer_points(sys) == ((0,), (1,), (2,))

    def test_empty_integer_nonempty_rational(self):
        # 2y = 1 has rational solutions only
        sys = system(1, [((2,), EQ, 1)])
        assert integer_points(sys) == ()

    def test_unbounded_line_with_lattice_points(self):
        # 2y = x + 1, x >= 0: points (1,1), (3,2), ...
        sys = system(2, [((-1, 2), EQ, 1), ((1, 0), GE, 0)])
        with pytest.raises(ValueError, match="unbounded"):
            integer_points(sys)

    def test_unbounded_strip_without_lattice_points(self):
        # 3y = 3x + 1 has no integer solutions, but an unbounded system is
        # refused, whatever its right-hand side, and never enumerated
        sys = system(2, [((-3, 3), EQ, 1)])
        with pytest.raises(ValueError, match="unbounded"):
            integer_points(sys, first_only=True)
        tower, _, _ = system_tower(sys)
        with pytest.raises(ValueError, match="unbounded"):
            tower_points(tower, (1, -1), cap=0)

    def test_cap_exhausted(self):
        sys = system(1, [((1,), GE, 0), ((-1,), GE, -10**4)])
        assert integer_points(sys, cap=10) is None
        assert integer_points(sys, cap=10, first_only=True) == ((0,),)

    def test_cap_spent_once_per_candidate(self):
        tower = build_tower(((1,), (-1,)), 1)
        assert tower_points(tower, (0, -2), cap=3) == ((0,), (1,), (2,))
        assert tower_points(tower, (0, -2), cap=2) is None
        assert tower_points(tower, (0, -2), cap=0) is None
        assert tower_points(tower, (0, -2), cap=1, first_only=True) == ((0,),)

    @pytest.mark.parametrize("rows,nvars", [
        (((0,), (1,), (-1,)), 1),
        (((1, 0), (0, 0), (-1, 0), (0, 1), (0, -1)), 2),
    ])
    def test_zero_row_refused(self, rows, nvars):
        # the row 0 . x >= b_i bounds no variable, so no level of the walk would read it
        with pytest.raises(ValueError, match="zero row"):
            build_tower(rows, nvars)

    @pytest.mark.parametrize("first_only", [False, True])
    def test_unbounded_level_refused_before_any_cap_is_spent(self, first_only):
        # x_0 >= 0 has no upper row: refused before the cap 0 runs out
        tower = build_tower(((1, 0), (0, 1), (0, -1)), 2)
        with pytest.raises(ValueError, match="unbounded"):
            tower_points(tower, (0, 0, -5), 0, first_only)
        # x_0 lies in [0, 5] but x_1 >= 0 has no upper row: the one candidate
        # for x_0 reaches x_1, which is refused before it spends any
        tower = build_tower(((1, 0), (-1, 0), (0, 1)), 2)
        with pytest.raises(ValueError, match="unbounded"):
            tower_points(tower, (0, -5, 0), 1, first_only)
        # x_0 >= 1 and x_0 <= 0 leave no candidate, so the walk never reaches x_1
        assert tower_points(tower, (1, 0, 0), 0, first_only) == ()

    def test_infeasible_system_spends_cap_on_empty_fibers(self):
        # x_1 >= 1 and x_1 <= 0 share no point, but nothing tells x_0 in
        # [0, 5] so: the caller decides feasibility, and the walk spends a
        # candidate on each x_0 before it finds the fiber empty
        tower = build_tower(((1, 0), (-1, 0), (0, 1), (0, -1)), 2)
        b = (0, -5, 1, 0)
        assert not tower_feasible(tower, b)
        assert tower_points(tower, b, cap=6) == ()
        assert tower_points(tower, b, cap=5) is None

    def test_lex_order(self):
        sys = system(
            2,
            [
                ((1, 0), GE, 0),
                ((0, 1), GE, 0),
                ((-1, -1), GE, -1),
            ],
        )
        assert integer_points(sys) == ((0, 0), (0, 1), (1, 0))

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
        if not all(any(r.coeffs) for r in boxed.rows):
            with pytest.raises(ValueError, match="zero row"):
                integer_points(boxed)
            return
        naive = [
            pt
            for pt in product(range(-bound, bound + 1), repeat=nvars)
            if _satisfies(boxed, pt)
        ]
        assert integer_points(boxed) == tuple(naive)
        assert integer_points(boxed, first_only=True) == tuple(naive[:1])
