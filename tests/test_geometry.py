import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blobvid import blobs
from blobvid.blobs import (
    BinaryMask,
    BlobParams,
    FrameGeometry,
    _cell_centers,
    _ellipse_window,
    canonicalize,
    mask_iou,
    rasterize,
)
from blobvid.errors import InvalidBlob, RangeError, ShapeError
from blobvid.geometry import _ellipse_rows

from conftest import (
    ellipse_form_full_grid,
    iou_reference,
    random_canonical_blob,
    rasterize_full_grid,
    rasterize_reference,
)

finite_theta = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
axis = st.floats(min_value=0.25, max_value=40.0, allow_nan=False)
center = st.floats(min_value=-10.0, max_value=80.0, allow_nan=False)


def blob_strategy():
    return st.builds(BlobParams, cx=center, cy=center, a=axis, b=axis, theta=finite_theta)


class TestBlobParams:
    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidBlob):
            BlobParams.from_sequence([1.0, 2.0, 3.0, 4.0])

    def test_rejects_nonpositive_axes(self):
        with pytest.raises(InvalidBlob):
            BlobParams(0, 0, 0.0, 1.0, 0.0)
        with pytest.raises(InvalidBlob):
            BlobParams(0, 0, 1.0, -2.0, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidBlob):
            BlobParams(math.nan, 0, 1, 1, 0)
        with pytest.raises(InvalidBlob):
            BlobParams(0, 0, math.inf, 1, 0)

    def test_as_array_roundtrip(self):
        p = BlobParams(1.5, 2.5, 3.0, 2.0, 0.25)
        assert BlobParams.from_sequence(p.as_array()) == p


class TestCanonicalize:
    @given(blob_strategy())
    def test_output_in_canonical_range(self, p):
        q = canonicalize(p)
        assert q.a >= q.b
        assert -math.pi / 2 < q.theta <= math.pi / 2
        assert q.is_canonical()

    @given(blob_strategy())
    def test_idempotent(self, p):
        q = canonicalize(p)
        assert canonicalize(q) == q

    @given(blob_strategy())
    @example(BlobParams(0.0, 2.0, 2.0, 2.0, 50.0))
    def test_same_point_set(self, p):
        # The canonical form must describe the same ellipse: the same raster
        # on every cell that is not on its edge. A cell centre on the edge
        # (u*u + v*v within rounding of 1) may fall either way once the
        # angle changes: canonicalize sets a circle's theta to 0, and the
        # pinned example's cell (0, 0), centre (2, 2), lies on the circle.
        q = canonicalize(p)
        geom = FrameGeometry(64, 64)
        m1 = rasterize(p, geom, 16, 16)
        m2 = rasterize(q, geom, 16, 16)
        clear = np.ones((16, 16), dtype=bool)
        for params in (p, q):
            clear &= np.abs(ellipse_form_full_grid(params, geom, 16, 16) - 1.0) > 1e-12
        assert np.array_equal(m1.bits[clear], m2.bits[clear])

    @given(blob_strategy())
    def test_axis_swap_symmetry(self, p):
        swapped = BlobParams(p.cx, p.cy, p.b, p.a, p.theta + math.pi / 2)
        q1 = canonicalize(p)
        q2 = canonicalize(swapped)
        assert (q1.cx, q1.cy, q1.a, q1.b) == (q2.cx, q2.cy, q2.a, q2.b)
        dt = abs(q1.theta - q2.theta)
        assert dt < 1e-9 or abs(dt - math.pi) < 1e-9

    @given(blob_strategy())
    def test_pi_periodicity(self, p):
        shifted = BlobParams(p.cx, p.cy, p.a, p.b, p.theta + math.pi)
        q1 = canonicalize(p)
        q2 = canonicalize(shifted)
        assert q1.a == q2.a and q1.b == q2.b
        assert abs(q1.theta - q2.theta) < 1e-9 or abs(abs(q1.theta - q2.theta) - math.pi) < 1e-9

    def test_circle_gets_zero_angle(self):
        q = canonicalize(BlobParams(5, 5, 3.0, 3.0, 1.1))
        assert q.theta == 0.0

    def test_boundary_angle_kept(self):
        q = canonicalize(BlobParams(0, 0, 2, 1, math.pi / 2))
        assert q.theta == math.pi / 2
        q = canonicalize(BlobParams(0, 0, 2, 1, -math.pi / 2))
        assert q.theta == math.pi / 2


class TestRasterize:
    def test_frozen_centered_circle_pattern(self):
        # Cell centers sit at odd multiples of 4; squared offsets from 32 are
        # {16, 144, 400, 784}, so a cell is inside iff the two offsets are
        # 4 and 4, 4 and 12, or 12 and 4.
        m = rasterize(BlobParams(32, 32, 16, 16, 0.0), FrameGeometry(64, 64), 8, 8)
        expected = np.zeros((8, 8), dtype=bool)
        expected[2, 3:5] = True
        expected[3, 2:6] = True
        expected[4, 2:6] = True
        expected[5, 3:5] = True
        assert np.array_equal(m.bits, expected)
        assert int(m.bits.sum()) == 12

    def test_matches_per_pixel_reference(self, rng):
        geom = FrameGeometry(48, 36)
        for _ in range(25):
            p = random_canonical_blob(rng, geom, min_axis=1.0)
            h = int(rng.integers(4, 13))
            w = int(rng.integers(4, 13))
            got = rasterize(p, geom, h, w)
            want = rasterize_reference(p, geom, h, w)
            assert np.array_equal(got.bits, want)

    def test_rescale_matches_reference(self, rng):
        geom = FrameGeometry(40, 40)
        for rho in (0.5, 1.25, 2.0):
            p = random_canonical_blob(rng, geom, min_axis=2.0)
            got = rasterize(p, geom, 10, 10, rho=rho)
            want = rasterize_reference(p, geom, 10, 10, rho=rho)
            assert np.array_equal(got.bits, want)

    def test_rescale_equals_scaled_axes(self, rng):
        geom = FrameGeometry(40, 40)
        p = random_canonical_blob(rng, geom, min_axis=2.0)
        doubled = BlobParams(p.cx, p.cy, 2 * p.a, 2 * p.b, p.theta)
        m1 = rasterize(p, geom, 12, 12, rho=2.0)
        m2 = rasterize(doubled, geom, 12, 12)
        assert np.array_equal(m1.bits, m2.bits)

    def test_rejects_bad_rescale(self):
        with pytest.raises(RangeError):
            rasterize(BlobParams(1, 1, 1, 1, 0), FrameGeometry(4, 4), 4, 4, rho=0.0)

    def test_rejects_bad_grid(self):
        with pytest.raises(ShapeError):
            rasterize(BlobParams(1, 1, 1, 1, 0), FrameGeometry(4, 4), 0, 4)


def assert_window_matches_full_grid(p, geom, h, w, rho=1.0):
    with np.errstate(over="ignore", invalid="ignore"):
        got = rasterize(p, geom, h, w, rho)
    want = rasterize_full_grid(p, geom, h, w, rho)
    assert got.bits.shape == want.shape
    assert got.bits.tobytes() == want.tobytes(), (p, geom, h, w, rho)
    assert not got.bits.flags.writeable


class TestRasterizeWindow:
    """rasterize evaluates the cell-in-ellipse test on the blob's window only;
    every cell outside it must be one that the full-grid test leaves unset."""

    @pytest.mark.parametrize("cx, cy", [
        (-30.0, 20.0), (90.0, 20.0), (20.0, -25.0), (20.0, 70.0), (-3.0, -3.0),
        (1e300, 20.0), (-1e300, 20.0), (20.0, 1e300), (-1e300, -1e300), (1e300, 1e300),
        (1.7e308, -1.7e308),
    ])
    def test_centers_off_the_grid(self, cx, cy):
        geom = FrameGeometry(64, 48)
        for a, b in ((6.0, 3.0), (40.0, 40.0), (1e6, 2.0), (1e300, 1e300), (1.7e308, 1.7e308)):
            for theta in (0.0, 0.7, -math.pi / 2, math.pi / 2):
                assert_window_matches_full_grid(BlobParams(cx, cy, a, b, theta), geom, 16, 24)

    def test_axes_from_a_thousandth_to_a_million_cells(self, rng):
        geom = FrameGeometry(40, 30)
        for _ in range(300):
            a, b = 10.0 ** rng.uniform(-3, 6, size=2)
            p = BlobParams(rng.uniform(-10, 50), rng.uniform(-10, 40), a, b,
                           rng.uniform(-4, 4))
            assert_window_matches_full_grid(p, geom, 30, 40)

    def test_rescaled_axes_and_unequal_cells(self, rng):
        # W/w != H/h: the window's rows and columns have different cell sizes.
        for _ in range(300):
            geom = FrameGeometry(int(rng.integers(1, 150)), int(rng.integers(1, 150)))
            h, w = (int(n) for n in rng.integers(1, 40, size=2))
            p = BlobParams(rng.uniform(-0.3, 1.3) * geom.width, rng.uniform(-0.3, 1.3) * geom.height,
                           *rng.uniform(0.2, 0.6, size=2) * max(geom.width, geom.height),
                           rng.uniform(-2, 2))
            rho = float(rng.choice([0.5, 1.37, 3.0]))
            assert_window_matches_full_grid(p, geom, h, w, rho)

    @pytest.mark.parametrize("cells", [1, 24, 24 * 5 + 7], ids=["row", "grid-row", "band"])
    def test_bands_of_rows(self, rng, monkeypatch, cells):
        # A window of more than _WINDOW_CELLS cells is tested a band of rows
        # at a time: one row, or five grid rows and part of a sixth.
        monkeypatch.setattr(blobs, "_WINDOW_CELLS", cells)
        geom = FrameGeometry(64, 48)
        for _ in range(100):
            p = BlobParams(rng.uniform(-10, 74), rng.uniform(-10, 58),
                           *(10.0 ** rng.uniform(-1, 2, size=2)), rng.uniform(-2, 2))
            assert_window_matches_full_grid(p, geom, 30, 24, float(rng.choice([1.0, 1.37, 9.0])))

    def test_large_window_holds_few_floats(self):
        # A window of the whole 1500 x 1500 grid: the traced peak is the mask
        # and the window's byte per cell each, and one band's float64
        # temporaries, not 8 bytes per cell for each of them.
        h = w = 1500
        tracemalloc.start()
        try:
            bits = rasterize(BlobParams(32, 24, 30, 20, 0.3), FrameGeometry(64, 48), h, w, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits.bits.all()
        assert peak < 2 * h * w + 8 * 8 * blobs._WINDOW_CELLS

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 9), (9, 1), (1, 64)])
    def test_one_cell_and_one_row_grids(self, rng, h, w):
        geom = FrameGeometry(32, 20)
        for _ in range(100):
            p = BlobParams(rng.uniform(-8, 40), rng.uniform(-8, 28),
                           *(10.0 ** rng.uniform(-2, 2, size=2)), rng.uniform(-2, 2))
            assert_window_matches_full_grid(p, geom, h, w, float(rng.choice([1.0, 1.37])))

    @pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2, math.nextafter(math.pi / 2, 0)])
    def test_theta_at_half_pi(self, rng, theta):
        geom = FrameGeometry(64, 64)
        for _ in range(50):
            p = BlobParams(rng.uniform(0, 64), rng.uniform(0, 64),
                           rng.uniform(0.3, 30), rng.uniform(0.3, 30), theta)
            assert_window_matches_full_grid(p, geom, 64, 64)

    def test_huge_disc_whose_edge_crosses_the_grid(self, rng):
        # The center lies R + k away for R up to 1e20 cells, so the edge of
        # the disc passes through the grid and rounding decides the cells
        # next to it.
        geom = FrameGeometry(32, 24)
        crossed = 0
        for _ in range(400):
            r = 10.0 ** rng.uniform(0, 20)
            k = rng.uniform(-1.5, 2.5) * 32
            cx = k + r if rng.random() < 0.5 else k - r
            p = BlobParams(cx, rng.uniform(0, 24), r, r * rng.uniform(0.5, 1.0),
                           float(rng.choice([0.0, math.pi / 2, rng.uniform(-2, 2)])))
            assert_window_matches_full_grid(p, geom, 24, 32)
            bits = rasterize_full_grid(p, geom, 24, 32)
            crossed += bits.any() and not bits.all()
        assert crossed >= 20


@st.composite
def window_cases(draw):
    # Canonical blobs, circles and b << a among them, on frames of 1-2000 px
    # and grids of 1-64 cells a side; centers reach two frame sizes outside
    # the frame, where the window is empty.
    geom = FrameGeometry(draw(st.integers(1, 2000)), draw(st.integers(1, 2000)))
    size = max(geom.width, geom.height)
    cx = draw(st.floats(-2.0 * size, geom.width + 2.0 * size))
    cy = draw(st.floats(-2.0 * size, geom.height + 2.0 * size))
    a = draw(st.floats(1e-3, 2.0 * size))
    b = a * draw(st.one_of(st.just(1.0), st.just(1e-4), st.floats(1e-6, 1.0)))
    theta = draw(st.one_of(st.just(math.pi / 2), st.just(0.0),
                           st.floats(-math.pi / 2, math.pi / 2, exclude_min=True)))
    p = canonicalize(BlobParams(cx, cy, a, b, theta))
    return p, geom, draw(st.integers(1, 64)), draw(st.integers(1, 64)), draw(st.floats(0.25, 2.0))


@st.composite
def edge_cases(draw):
    # A window case whose semi-axis a is then set, to within a few ulps, so
    # that one drawn cell center lies on the ellipse's edge: there the
    # rounding of each operation decides the cell.
    p, geom, h, w, rho = draw(window_cases())
    r, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    dx = (c + 0.5) * (geom.width / w) - p.cx
    dy = (r + 0.5) * (geom.height / h) - p.cy
    along = dx * math.cos(p.theta) + dy * math.sin(p.theta)
    across = -dx * math.sin(p.theta) + dy * math.cos(p.theta)
    b = max(p.b, 2.0 * abs(across) / rho)
    a = abs(along) / (rho * math.sqrt(1.0 - (across / (rho * b)) ** 2))
    for _ in range(draw(st.integers(0, 3))):
        a = math.nextafter(a, draw(st.sampled_from([0.0, math.inf])))
    assume(0.0 < a < math.inf)
    return BlobParams(p.cx, p.cy, a, b, p.theta), geom, h, w, rho


def assert_rows_equal_array_window(p, geom, h, w, rho):
    xs, ys = _cell_centers(geom, h, w)
    with np.errstate(all="ignore"):
        r0, c0, block = _ellipse_window(p.cx, p.cy, p.a, p.b, p.theta, geom, xs, ys, rho)
    got_r0, got_c0, rows = _ellipse_rows(p, geom, h, w, rho)
    assert (got_r0, got_c0) == (r0, c0)
    assert len(rows) == block.shape[0] and all(len(row) == block.shape[1] for row in rows)
    assert rows == block.tolist()


class TestEllipseRows:
    """geometry._ellipse_rows, the plain-float cell test that mask draws
    small grids with, equals blobs._ellipse_window bit for bit."""

    @given(window_cases())
    def test_equals_the_array_window(self, case):
        assert_rows_equal_array_window(*case)

    @settings(max_examples=500)
    @given(edge_cases())
    def test_equals_the_array_window_on_the_edge(self, case):
        assert_rows_equal_array_window(*case)

    @pytest.mark.parametrize("a, b, rho", [(5e-324, 5e-324, 0.25), (3.0, 5e-324, 0.3),
                                           (1e-320, 1e-320, 1.0)])
    def test_axes_that_vanish_when_rescaled(self, a, b, rho):
        # rho * b rounds to zero: the array test divides by zero and sets no
        # cell; the plain one must neither raise nor set a cell.
        geom = FrameGeometry(40, 30)
        for cx in (0.0, 10.25, 20.0):
            assert_rows_equal_array_window(BlobParams(cx, 15.0, a, b, 0.3), geom, 30, 40, rho)


class TestMaskIou:
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_matches_counting_reference(self, bits1, bits2):
        m1 = np.array([(bits1 >> i) & 1 for i in range(16)], dtype=bool).reshape(4, 4)
        m2 = np.array([(bits2 >> i) & 1 for i in range(16)], dtype=bool).reshape(4, 4)
        got = mask_iou(BinaryMask(m1), BinaryMask(m2))
        assert got == pytest.approx(iou_reference(m1, m2), abs=1e-12)

    def test_both_empty_is_one(self):
        z = BinaryMask(np.zeros((3, 3), dtype=bool))
        assert mask_iou(z, z) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mask_iou(BinaryMask(np.zeros((2, 2), dtype=bool)),
                     BinaryMask(np.zeros((2, 3), dtype=bool)))


class TestBinaryMask:
    def test_immutable(self):
        m = BinaryMask(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            m.bits[0, 0] = True

    def test_owns_its_buffer(self):
        src = np.zeros((2, 2), dtype=bool)
        m = BinaryMask(src)
        src[0, 0] = True
        assert not m.bits[0, 0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            BinaryMask(np.zeros(4, dtype=bool))


class TestFrameGeometry:
    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            FrameGeometry(0, 4)

    def test_rejects_fractional(self):
        with pytest.raises(ShapeError):
            FrameGeometry(4.5, 4)
