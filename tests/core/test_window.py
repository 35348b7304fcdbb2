"""Unit tests for Window construction and feasibility."""

import math

import pytest

from repro.core.path import WarpingPath, diagonal_path
from repro.core.window import Window, band_from_fraction


class TestFull:
    def test_covers_everything(self):
        w = Window.full(3, 4)
        assert w.cell_count() == 12
        assert w.coverage() == 1.0

    def test_contains_all_cells(self):
        w = Window.full(2, 2)
        assert all((i, j) in w for i in range(2) for j in range(2))


class TestBand:
    def test_zero_band_square_is_diagonal(self):
        w = Window.band(5, 5, 0)
        assert w.cell_count() == 5
        assert all(w.row(i) == (i, i) for i in range(5))

    def test_band_one(self):
        w = Window.band(4, 4, 1)
        assert w.row(0) == (0, 1)
        assert w.row(1) == (0, 2)
        assert w.row(3) == (2, 3)

    def test_band_covers_lattice_when_wide(self):
        w = Window.band(4, 4, 10)
        assert w.cell_count() == 16

    def test_unequal_lengths_feasible(self):
        # band narrower than the length difference must still admit a path
        w = Window.band(3, 10, 0)
        assert w.ranges[0][0] == 0
        assert w.ranges[-1][1] == 9

    def test_band_zero_square_contains_diagonal(self):
        w = Window.band(5, 5, 0)
        for i, j in diagonal_path(5, 5):
            assert w.contains(i, j)

    def test_band_zero_unequal_admits_a_path(self):
        # for unequal lengths the band-0 window is a staircase along
        # the slope-corrected diagonal; it must still admit some valid
        # warping path (a finite DP result proves it)
        import math

        from repro.core.engine import dp_over_window

        for n, m in ((4, 9), (9, 4), (2, 13)):
            w = Window.band(n, m, 0)
            r = dp_over_window([0.0] * n, [0.0] * m, w)
            assert math.isfinite(r.distance)

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            Window.band(3, 3, -1)

    def test_cell_count_grows_with_band(self):
        counts = [Window.band(20, 20, b).cell_count() for b in range(0, 10)]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]


class TestFromFraction:
    def test_zero_fraction(self):
        w = Window.from_fraction(10, 10, 0.0)
        assert w.cell_count() == 10

    def test_full_fraction(self):
        w = Window.from_fraction(10, 10, 1.0)
        assert w.cell_count() == 100

    def test_rounding_up(self):
        # 0.05 * 10 = 0.5 -> band 1
        w = Window.from_fraction(10, 10, 0.05)
        assert w.row(0) == (0, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Window.from_fraction(10, 10, 1.5)

    @pytest.mark.parametrize("window,n,band", [(0.07, 100, 7), (0.14, 50, 7)])
    def test_reads_the_fraction_as_written(self, window, n, band):
        # 0.07 * 100 == 7.000000000000001 in binary floating point; a
        # plain ceil() of that product admitted band 8
        assert window * n > band
        assert band_from_fraction(window, n) == band
        assert Window.from_fraction(n, n, window) is Window.band(n, n, band)

    def test_band_from_fraction_is_exact_over_percent_grid(self):
        # the ceiling of the decimal fraction, in exact arithmetic
        for percent in range(0, 101):
            window = percent / 100
            for n in range(1, 1001):
                assert band_from_fraction(window, n) == -(-percent * n // 100)

    def test_band_from_fraction_matches_ceil_off_the_grid(self):
        # away from exact products the decimal reading is plain ceil()
        for window in (0.033, 0.1234, 0.5, 0.999):
            for n in (7, 96, 128, 945):
                assert band_from_fraction(window, n) == math.ceil(window * n)


class TestWindowMemoisation:
    """``full`` and ``band`` (and so ``from_fraction``) share one
    immutable instance per argument tuple."""

    # unequal lengths, band 0, and bands at or past the longer length
    GRID = [
        (n, m, b)
        for n in (1, 2, 7, 16, 33)
        for m in (1, 3, 16, 23)
        for b in (0, 1, 3, 16, 40)
    ]

    def test_full_window_cached(self):
        assert Window.full(7, 9) is Window.full(7, 9)
        assert Window.full(7, 9).ranges == ((0, 8),) * 7

    def test_banded_window_cached(self):
        assert Window.band(8, 8, 2) is Window.band(8, 8, 2)

    def test_fraction_window_cached(self):
        assert Window.from_fraction(10, 10, 0.1) is Window.from_fraction(
            10, 10, 0.1
        )
        assert Window.from_fraction(10, 10, 0.1) is Window.band(10, 10, 1)

    def test_band_grid_shared_and_equal_to_uncached_build(self):
        uncached = Window.band.__wrapped__
        for n, m, b in self.GRID:
            w = Window.band(n, m, b)
            assert Window.band(n, m, b) is w
            fresh = uncached(Window, n, m, b)
            assert fresh is not w
            assert (fresh.n, fresh.m, fresh.ranges) == (n, m, w.ranges)

    def test_full_grid_equal_to_uncached_build(self):
        for n, m, _ in self.GRID:
            assert Window.full(n, m) == Window.full.__wrapped__(Window, n, m)

    def test_negative_band_raises_every_time(self):
        # a failed build is not memoised
        for _ in range(2):
            with pytest.raises(ValueError, match="non-negative"):
                Window.band(3, 3, -1)

    def test_memo_is_bounded(self):
        assert 0 < Window.band.cache_info().maxsize <= 512
        assert 0 < Window.full.cache_info().maxsize <= 512

    def test_windows_are_immutable(self):
        w = Window.band(8, 8, 2)
        with pytest.raises(AttributeError):
            w.ranges = ()
        assert isinstance(w.ranges, tuple)
        assert all(isinstance(r, tuple) for r in w.ranges)


class TestFromCells:
    def test_exact_cover(self):
        cells = [(0, 0), (0, 1), (1, 1), (2, 2)]
        w = Window.from_cells(3, 3, cells)
        for c in cells:
            assert c in w

    def test_missing_rows_interpolated(self):
        w = Window.from_cells(4, 4, [(0, 0), (3, 3)])
        # all rows must be present and connected
        assert w.cell_count() >= 4

    def test_out_of_bounds_cells_ignored(self):
        w = Window.from_cells(3, 3, [(0, 0), (5, 5), (2, 2)])
        assert w.n == 3

    def test_always_feasible(self):
        w = Window.from_cells(5, 5, [(0, 4), (4, 0)])  # incoherent input
        # constructing a Window validates feasibility in __post_init__
        assert w.ranges[0][0] == 0
        assert w.ranges[-1][1] == 4


class TestExpandPath:
    def test_radius_zero_is_projection(self):
        p = WarpingPath([(0, 0), (1, 1)])
        w = Window.expand_path(p, 4, 4, 0)
        assert (0, 0) in w and (3, 3) in w
        assert w.cell_count() <= 16

    def test_radius_widens(self):
        p = diagonal_path(8, 8)
        small = Window.expand_path(p, 16, 16, 1)
        large = Window.expand_path(p, 16, 16, 4)
        assert small.cell_count() < large.cell_count()

    def test_radius_contains_projection(self):
        p = diagonal_path(8, 8)
        base = Window.expand_path(p, 16, 16, 0)
        wide = Window.expand_path(p, 16, 16, 3)
        for i in range(16):
            blo, bhi = base.row(i)
            wlo, whi = wide.row(i)
            assert wlo <= blo and whi >= bhi

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Window.expand_path(diagonal_path(4, 4), 8, 8, -1)

    def test_odd_target_lengths(self):
        p = diagonal_path(4, 4)
        w = Window.expand_path(p, 9, 9, 2)
        assert w.n == 9 and w.m == 9
        assert (8, 8) in w


class TestValidation:
    def test_requires_corner_start(self):
        with pytest.raises(ValueError):
            Window(2, 2, ((1, 1), (1, 1)))

    def test_requires_corner_end(self):
        with pytest.raises(ValueError):
            Window(2, 2, ((0, 0), (0, 0)))

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            Window(3, 3, ((0, 2), (0, 1), (0, 2)))

    def test_rejects_unreachable_rows(self):
        with pytest.raises(ValueError):
            Window(3, 4, ((0, 0), (2, 3), (2, 3)))

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            Window(3, 3, ((0, 2), (0, 2)))


class TestQueries:
    def test_union(self):
        a = Window.band(6, 6, 0)
        b = Window.band(6, 6, 2)
        u = a.union(b)
        assert u.cell_count() == b.cell_count()

    def test_union_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Window.full(3, 3).union(Window.full(4, 4))

    def test_cells_iterates_in_order(self):
        w = Window.band(3, 3, 1)
        cells = list(w.cells())
        assert cells == sorted(cells)
        assert len(cells) == w.cell_count()

    def test_contains_rejects_out_of_lattice(self):
        w = Window.full(3, 3)
        assert not w.contains(-1, 0)
        assert not w.contains(3, 0)
