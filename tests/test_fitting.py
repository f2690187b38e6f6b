import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from blobvid import fitting
from blobvid.blobs import BinaryMask, BlobParams, FrameGeometry, mask_iou, rasterize
from blobvid.errors import EmptyMask, InvalidBlob, RangeError
from blobvid.fitting import fit_ellipse, moments_init
from blobvid.geometry import interpolate_blob_params

from conftest import angle_mean_reference, random_canonical_blob


class TestMomentsInit:
    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyMask):
            moments_init(BinaryMask(np.zeros((4, 4), dtype=bool)), FrameGeometry(4, 4))

    def test_centered_disk_gives_exact_circle(self):
        geom = FrameGeometry(64, 64)
        m = rasterize(BlobParams(32, 32, 16, 16, 0.0), geom, 64, 64)
        init = moments_init(m, geom)
        # A 4-fold symmetric mask has an exactly diagonal covariance with equal
        # diagonal entries, so the estimate is a circle and theta collapses to 0.
        assert init.theta == 0.0
        assert init.a == init.b
        assert init.cx == pytest.approx(32.0, abs=1e-9)
        assert init.cy == pytest.approx(32.0, abs=1e-9)

    def test_single_cell_uses_radius_floor(self):
        geom = FrameGeometry(64, 64)
        bits = np.zeros((8, 8), dtype=bool)
        bits[3, 4] = True
        init = moments_init(BinaryMask(bits), geom)
        # Cells are 8x8 source units; the floor keeps the ellipse rasterizable.
        assert init.a >= 4.0 and init.b >= 4.0

    def test_centroid_matches_hand_average(self):
        geom = FrameGeometry(60, 40)
        bits = np.zeros((4, 6), dtype=bool)
        bits[1, 2] = True
        bits[2, 3] = True
        init = moments_init(BinaryMask(bits), geom)
        # Cell centers: x = (c + 0.5) * 10, y = (r + 0.5) * 10.
        assert init.cx == pytest.approx((25.0 + 35.0) / 2)
        assert init.cy == pytest.approx((15.0 + 25.0) / 2)


class TestFitEllipse:
    def test_recovers_random_blobs(self, rng):
        geom = FrameGeometry(64, 64)
        for _ in range(10):
            p = random_canonical_blob(rng, geom, min_axis=4.0)
            target = rasterize(p, geom, 64, 64)
            res = fit_ellipse(target, geom)
            assert res.iou >= 0.9
            assert res.params.is_canonical()

    def test_never_below_init(self, rng):
        geom = FrameGeometry(48, 48)
        for _ in range(10):
            p = random_canonical_blob(rng, geom, min_axis=2.0)
            target = rasterize(p, geom, 48, 48)
            init = moments_init(target, geom)
            init_iou = mask_iou(rasterize(init, geom, 48, 48), target)
            res = fit_ellipse(target, geom)
            assert res.iou >= init_iou

    def test_reported_iou_matches_final_params(self, rng):
        geom = FrameGeometry(48, 48)
        p = random_canonical_blob(rng, geom, min_axis=4.0)
        target = rasterize(p, geom, 48, 48)
        res = fit_ellipse(target, geom)
        recomputed = mask_iou(rasterize(res.params, geom, 48, 48), target)
        assert res.iou == pytest.approx(recomputed, abs=1e-12)

    def test_irregular_blob_fits_above_half(self):
        # Union of two overlapping disks: not an ellipse, but an ellipse
        # should still cover it reasonably.
        geom = FrameGeometry(64, 64)
        m1 = rasterize(BlobParams(24, 32, 10, 10, 0), geom, 64, 64)
        m2 = rasterize(BlobParams(40, 32, 10, 10, 0), geom, 64, 64)
        target = BinaryMask(m1.bits | m2.bits)
        res = fit_ellipse(target, geom)
        assert res.iou > 0.5

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyMask):
            fit_ellipse(BinaryMask(np.zeros((8, 8), dtype=bool)), FrameGeometry(8, 8))

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_rejects_max_iter_below_one(self, max_iter):
        mask = rasterize(BlobParams(8, 8, 5, 3, 0.3), FrameGeometry(16, 16), 16, 16)
        with pytest.raises(RangeError, match="max_iter must be at least 1"):
            fit_ellipse(mask, FrameGeometry(16, 16), max_iter=max_iter)


class TestWindowedObjective:
    """The objective scores each vertex on the candidate's window; every value
    must be the full-grid -mask_iou(rasterize(...)) of the clamped vertex."""

    @staticmethod
    def check_every_vertex(monkeypatch, mask, geom):
        seen = []
        port = fitting._nelder_mead

        def spy(func, simplex, *args, **kw):
            def recorded(vec):
                value = func(vec)
                seen.append((np.array(vec, dtype=np.float64), value))
                return value
            return port(recorded, simplex, *args, **kw)

        monkeypatch.setattr(fitting, "_nelder_mead", spy)
        fit_ellipse(mask, geom)
        monkeypatch.undo()
        floor = 0.5 * max(geom.width / mask.w, geom.height / mask.h)
        assert len(seen) > 6
        for vec, value in seen:
            cand = fitting._clamped(vec, floor)
            assert value == -mask_iou(rasterize(cand, geom, mask.h, mask.w), mask), vec

    def test_seeded_masks(self, monkeypatch, rng):
        geom = FrameGeometry(64, 64)
        for _ in range(8):
            p = random_canonical_blob(rng, geom, min_axis=2.0)
            self.check_every_vertex(monkeypatch, rasterize(p, geom, 64, 64), geom)

    def test_single_cell_mask(self, monkeypatch):
        bits = np.zeros((64, 64), dtype=bool)
        bits[40, 17] = True
        self.check_every_vertex(monkeypatch, BinaryMask(bits), FrameGeometry(64, 64))

    def test_full_mask(self, monkeypatch):
        self.check_every_vertex(monkeypatch, BinaryMask(np.ones((64, 64), dtype=bool)),
                                FrameGeometry(64, 64))

    @pytest.mark.parametrize("blob", [
        BlobParams(2, 30, 14, 6, 0.3), BlobParams(62, 61, 20, 9, -1.1),
        BlobParams(30, -4, 25, 12, 1.5), BlobParams(-6, 70, 18, 15, 0.0),
    ], ids=["left", "corner", "top", "off-corner"])
    def test_masks_clipped_by_the_border(self, monkeypatch, blob):
        geom = FrameGeometry(64, 64)
        self.check_every_vertex(monkeypatch, rasterize(blob, geom, 64, 64), geom)

    def test_unequal_cells(self, monkeypatch):
        geom = FrameGeometry(96, 40)
        self.check_every_vertex(monkeypatch, rasterize(BlobParams(50, 18, 20, 7, 0.6), geom, 20, 32),
                                geom)

    def test_fits_pinned(self):
        # sha256 over params bytes, IOU and iteration count of 32 seeded fits,
        # recorded with the full-grid objective this one replaced.
        rng = np.random.default_rng(2026)
        geom = FrameGeometry(64, 64)
        digest = hashlib.sha256()
        for _ in range(32):
            p = random_canonical_blob(rng, geom, min_axis=2.0, margin=0.0)
            res = fit_ellipse(rasterize(p, geom, 64, 64), geom)
            digest.update(res.params.as_array().tobytes())
            digest.update(np.float64(res.iou).tobytes())
            digest.update(np.int64(res.iterations).tobytes())
        assert digest.hexdigest() == (
            "33ea727be30a303cc402bbd8570e1070b3feb6a4fe6ee0a1b0f3dc4b77a6f323")

    def test_nonfinite_vertex_is_invalid_blob(self, monkeypatch):
        # The objective keeps BlobParams' rule: a non-finite value raises, after
        # the radius floor has replaced a -inf axis.
        funcs = []
        monkeypatch.setattr(fitting, "_nelder_mead",
                            lambda func, simplex, *a, **k: funcs.append(func) or (simplex[0], 1))
        geom = FrameGeometry(16, 16)
        fit_ellipse(rasterize(BlobParams(8, 8, 5, 3, 0.3), geom, 16, 16), geom)
        [func] = funcs
        assert func(np.array([8.0, 8.0, -np.inf, 3.0, 0.3])) == func(np.array([8.0, 8.0, 0.5, 3.0, 0.3]))
        for bad in ([np.nan, 8, 5, 3, 0.3], [8, np.inf, 5, 3, 0.3], [8, 8, np.inf, 3, 0.3],
                    [8, 8, 5, 3, -np.inf]):
            with pytest.raises(InvalidBlob, match="must be finite"):
                func(np.array(bad, dtype=np.float64))


def scipy_nelder_mead(func, simplex, max_iter, xatol, fatol):
    return optimize.minimize(func, simplex[0], method="Nelder-Mead", options={
        "initial_simplex": simplex, "maxiter": max_iter, "xatol": xatol, "fatol": fatol})


class TestNelderMeadMatchesScipy:
    """scipy's Nelder-Mead is the oracle: same x bytes, same nit."""

    def fit_against_scipy(self, monkeypatch, mask, geom, **kwargs):
        # Run the fit, keep what it handed the optimizer, and rerun that in scipy.
        calls = []
        port = fitting._nelder_mead

        def spy(func, simplex, *args, **kw):
            out = port(func, simplex, *args, **kw)
            calls.append((func, simplex.copy(), args, kw, out))
            return out

        monkeypatch.setattr(fitting, "_nelder_mead", spy)
        res = fit_ellipse(mask, geom, **kwargs)
        monkeypatch.undo()
        [(func, simplex, args, kw, (x, nit))] = calls
        ref = scipy_nelder_mead(func, simplex, *args, **kw)
        assert x.tobytes() == ref.x.tobytes()
        assert nit == ref.nit == res.iterations
        return ref

    def test_seeded_masks(self, monkeypatch, rng):
        geom = FrameGeometry(64, 64)
        for _ in range(12):
            p = random_canonical_blob(rng, geom, min_axis=2.0)
            self.fit_against_scipy(monkeypatch, rasterize(p, geom, 64, 64), geom)

    def test_single_cell_mask(self, monkeypatch):
        bits = np.zeros((8, 8), dtype=bool)
        bits[3, 4] = True
        self.fit_against_scipy(monkeypatch, BinaryMask(bits), FrameGeometry(64, 64))

    @pytest.mark.parametrize("max_iter", [1, 2, 7])
    def test_cut_off_by_max_iter(self, monkeypatch, max_iter):
        geom = FrameGeometry(48, 48)
        mask = rasterize(BlobParams(20, 26, 12, 5, 0.7), geom, 48, 48)
        ref = self.fit_against_scipy(monkeypatch, mask, geom, max_iter=max_iter)
        assert ref.nit == max_iter

    def test_tied_staircase_objective(self):
        # Every vertex ties with its neighbours, so only scipy's reordering of
        # equal values reproduces its path.
        def func(x):
            return float(np.floor(np.sum((x - np.array([0.3, -1.2, 2.0])) ** 2)))

        simplex = np.vstack([np.zeros(3), np.eye(3) * 0.5])
        x, nit = fitting._nelder_mead(func, simplex, 100, xatol=1e-3, fatol=1e-4)
        ref = scipy_nelder_mead(func, simplex, 100, 1e-3, 1e-4)
        assert x.tobytes() == ref.x.tobytes()
        assert nit == ref.nit


class TestInterpolateBlobParams:
    p1 = BlobParams(10.0, 20.0, 8.0, 4.0, 0.5)
    p2 = BlobParams(30.0, 10.0, 6.0, 5.0, -0.25)

    def test_endpoints_bitwise(self):
        assert interpolate_blob_params(self.p1, self.p2, 0.0) is self.p1
        assert interpolate_blob_params(self.p1, self.p2, 1.0) is self.p2

    def test_midpoint_linear_fields(self):
        mid = interpolate_blob_params(self.p1, self.p2, 0.5)
        assert mid.cx == pytest.approx(20.0)
        assert mid.cy == pytest.approx(15.0)
        assert mid.a == pytest.approx(7.0)
        assert mid.b == pytest.approx(4.5)

    @given(
        st.floats(-math.pi / 2 + 1e-6, math.pi / 2),
        st.floats(-math.pi / 2 + 1e-6, math.pi / 2),
    )
    @example(1e-6, -math.pi / 2 + 1e-6)  # exactly perpendicular anchors
    @settings(max_examples=200)
    def test_theta_midpoint_matches_complex_mean(self, t1, t2):
        def dist(x, y):  # angular distance between orientations, mod pi
            d = abs(x - y) % math.pi
            return min(d, math.pi - d)

        q1 = BlobParams(0, 0, 2, 1, t1)
        q2 = BlobParams(0, 0, 2, 1, t2)
        mid = interpolate_blob_params(q1, q2, 0.5)
        resultant = math.hypot(math.cos(2 * t1) + math.cos(2 * t2),
                               math.sin(2 * t1) + math.sin(2 * t2))
        if resultant >= 1e-6:
            assert dist(mid.theta, angle_mean_reference(t1, t2)) < 1e-9
        else:
            # Near-perpendicular anchors: the oracle's atan2 sees rounding
            # noise, so check instead that mid is half-way from each anchor.
            half = dist(t1, t2) / 2
            assert abs(dist(mid.theta, t1) - half) < 1e-9
            assert abs(dist(mid.theta, t2) - half) < 1e-9
        if abs(t2 - t1) == math.pi / 2:
            # Exact tie: both diagonals are midpoints; the documented rule
            # rotates the way the raw difference t2 - t1 points.
            assert dist(mid.theta, t1 + (t2 - t1) / 2) < 1e-9

    def test_theta_takes_shortest_arc_through_boundary(self):
        q1 = BlobParams(0, 0, 2, 1, 1.4)
        q2 = BlobParams(0, 0, 2, 1, -1.4)
        mid = interpolate_blob_params(q1, q2, 0.5)
        # 1.4 -> -1.4 going up through pi/2 is 0.34 of arc; the midpoint is
        # the boundary angle itself, kept as +pi/2 by canonicalization.
        assert mid.theta == pytest.approx(math.pi / 2, abs=1e-12)

    @given(st.floats(0.0, 1.0))
    def test_swap_symmetry(self, alpha):
        m1 = interpolate_blob_params(self.p1, self.p2, alpha)
        m2 = interpolate_blob_params(self.p2, self.p1, 1.0 - alpha)
        assert m1.cx == pytest.approx(m2.cx, abs=1e-9)
        assert m1.a == pytest.approx(m2.a, abs=1e-9)
        d = abs(m1.theta - m2.theta) % math.pi
        assert min(d, math.pi - d) < 1e-9

    def test_result_canonical(self, rng):
        geom = FrameGeometry(32, 32)
        for _ in range(20):
            q1 = random_canonical_blob(rng, geom)
            q2 = random_canonical_blob(rng, geom)
            mid = interpolate_blob_params(q1, q2, float(rng.uniform(0, 1)))
            assert mid.is_canonical()

    def test_rejects_noncanonical_input(self):
        bad = BlobParams(0, 0, 1.0, 2.0, 0.0)  # a < b
        with pytest.raises(InvalidBlob):
            interpolate_blob_params(bad, self.p2, 0.5)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(RangeError):
            interpolate_blob_params(self.p1, self.p2, 1.5)
        with pytest.raises(RangeError):
            interpolate_blob_params(self.p1, self.p2, math.nan)
