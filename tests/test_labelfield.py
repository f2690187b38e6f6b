import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blobvid.blobs import BlobParams, FrameGeometry, rasterize
from blobvid.errors import RangeError, ShapeError, TooLarge
from blobvid.labelfield import (
    NEG_INF,
    AttnMask3D,
    LabelField,
    build_label_field,
    per_frame_masks,
)
from blobvid.video import BlobTrack, BlobVideo, densify

from conftest import materialize_dense, random_canonical_blob

GEOM = FrameGeometry(64, 64)


def random_video(rng, num_frames=3, num_tracks=2) -> BlobVideo:
    tracks = []
    for n in range(num_tracks):
        params = {
            0: random_canonical_blob(rng, GEOM, min_axis=6.0),
            num_frames - 1: random_canonical_blob(rng, GEOM, min_axis=6.0),
        }
        tracks.append(BlobTrack(n, params, {}))
    return densify(BlobVideo(num_frames, GEOM, 8, tuple(tracks)))


def label_sets_reference(v: BlobVideo, h: int, w: int, rho: float = 1.0):
    """Independent route: rasterize per track, collect Python sets."""
    bg = v.num_tracks
    sets = []
    for t in range(v.num_frames):
        grids = [rasterize(tr.params[t], v.geom, h, w, rho).bits for tr in v.tracks]
        for r in range(h):
            for c in range(w):
                labs = {n for n, gbits in enumerate(grids) if gbits[r, c]}
                if not labs:
                    labs = {bg}
                sets.append(labs)
    return sets


class TestNegInf:
    def test_is_most_negative_finite(self):
        assert NEG_INF == float(np.finfo(np.float64).min)
        assert np.isfinite(NEG_INF)

    def test_exp_underflows_to_zero(self):
        assert np.exp(NEG_INF) == 0.0


class TestLabelField:
    def test_from_label_sets_roundtrip(self):
        sets = [{0}, {1}, {0, 1}, {2}, {0, 2}, {1, 2}, {0, 1, 2}, {2}]
        field = LabelField.from_label_sets(2, 2, 2, 3, sets)
        for i, labs in enumerate(sets):
            assert field.label_set(i) == labs

    def test_rejects_out_of_range_label(self):
        with pytest.raises(RangeError):
            LabelField.from_label_sets(1, 1, 2, 2, [{0}, {5}])

    def test_rejects_wrong_count(self):
        with pytest.raises(ShapeError):
            LabelField.from_label_sets(1, 2, 2, 2, [{0}, {1}])

    def test_nine_labels_need_two_bytes(self):
        sets = [{8}] * 4
        field = LabelField.from_label_sets(1, 2, 2, 9, sets)
        assert field.bits.shape == (4, 2)
        assert field.label_set(0) == {8}

    def test_bitset_memory_bound(self):
        # 10 objects + background at T=16, h=w=32: two bytes per position.
        T, h, w, n_objects = 16, 32, 32, 10
        sets = [{n_objects} for _ in range(T * h * w)]
        field = LabelField.from_label_sets(T, h, w, n_objects + 1, sets)
        assert field.bits.nbytes == T * h * w * 2
        assert field.bits.nbytes < 40 * 1024

    def test_position_indexing(self):
        sets = [{i % 3} for i in range(2 * 2 * 3)]
        field = LabelField.from_label_sets(2, 2, 3, 3, sets)
        assert field.position(1, 1, 2) == 2 * 2 * 3 - 1
        assert field.label_set(field.position(0, 1, 0)) == {3 % 3}


class TestBuildLabelField:
    def test_matches_per_position_reference(self, rng):
        v = random_video(rng)
        field = build_label_field(v, 6, 6)
        want = label_sets_reference(v, 6, 6)
        for i in range(field.size):
            assert field.label_set(i) == want[i]

    def test_background_exactly_complement(self, rng):
        v = random_video(rng, num_frames=2)
        h = w = 8
        field = build_label_field(v, h, w)
        bg = field.background_label
        for t in range(v.num_frames):
            union = np.zeros((h, w), dtype=bool)
            for tr in v.tracks:
                union |= rasterize(tr.params[t], v.geom, h, w).bits
            for r in range(h):
                for c in range(w):
                    labs = field.label_set(field.position(t, r, c))
                    assert (bg in labs) == (not union[r, c])
                    assert labs, "label sets are never empty"

    def test_respects_rescale(self, rng):
        v = random_video(rng, num_frames=1)
        f1 = build_label_field(v, 8, 8, rho=1.0)
        f2 = build_label_field(v, 8, 8, rho=1.5)
        grown = sum(len(f2.label_set(i) - {f2.background_label}) for i in range(f2.size))
        base = sum(len(f1.label_set(i) - {f1.background_label}) for i in range(f1.size))
        assert grown >= base

    def test_rejects_sparse_video(self):
        track = BlobTrack(0, {0: BlobParams(32, 32, 8, 4, 0)}, {})
        v = BlobVideo(4, GEOM, 8, (track,))
        with pytest.raises(ShapeError):
            build_label_field(v, 4, 4)


class TestAttnMask3D:
    def build(self, sets, T=1, h=1, n_labels=3):
        w = len(sets) // (T * h)
        return AttnMask3D(LabelField.from_label_sets(T, h, w, n_labels, sets))

    def test_query_matches_set_intersection_oracle(self, rng):
        v = random_video(rng, num_frames=2)
        field = build_label_field(v, 5, 5)
        m = AttnMask3D(field)
        sets = [field.label_set(i) for i in range(field.size)]
        idx = rng.integers(0, field.size, size=200)
        for i, j in zip(idx[::2].tolist(), idx[1::2].tolist()):
            want = 0.0 if (sets[i] & sets[j]) else NEG_INF
            assert m.query(i, j) == want

    def test_intersection_not_transitive(self):
        m = self.build([{0}, {0, 1}, {1}])
        assert m.allowed(0, 1)
        assert m.allowed(1, 2)
        assert not m.allowed(0, 2)

    def test_diagonal_always_allowed(self, rng):
        v = random_video(rng, num_frames=2)
        m = AttnMask3D(build_label_field(v, 4, 4))
        for i in range(m.size):
            assert m.query(i, i) == 0.0

    def test_symmetric(self, rng):
        v = random_video(rng, num_frames=2)
        m = AttnMask3D(build_label_field(v, 4, 4))
        dense = materialize_dense(m)
        assert np.array_equal(dense, dense.T)

    def test_materialize_matches_query(self, rng):
        v = random_video(rng, num_frames=2)
        m = AttnMask3D(build_label_field(v, 4, 4))
        dense = materialize_dense(m)
        for i in range(m.size):
            for j in range(m.size):
                assert dense[i, j] == m.query(i, j)

    def test_materialize_cap(self):
        sets = [{0}] * 8
        m = self.build(sets, T=2, h=2, n_labels=1)
        with pytest.raises(TooLarge):
            materialize_dense(m, cap=4)

    def test_query_out_of_range(self):
        m = self.build([{0}, {1}])
        with pytest.raises(RangeError):
            m.query(0, 2)
        with pytest.raises(RangeError):
            m.query(-1, 0)

    def test_allowed_rows_blocks(self, rng):
        v = random_video(rng, num_frames=2)
        m = AttnMask3D(build_label_field(v, 4, 4))
        block = m.allowed_rows(3, 9)
        assert block.shape == (6, m.size)
        for i in range(3, 9):
            for j in range(m.size):
                assert block[i - 3, j] == m.allowed(i, j)


class TestPerFrameMasks:
    def test_objects_and_background_partition(self, rng):
        v = random_video(rng, num_frames=2)
        masks, bg = per_frame_masks(v, 1, 8, 8)
        union = np.zeros((8, 8), dtype=bool)
        for m in masks:
            union |= m.bits
        assert np.array_equal(bg.bits, ~union)
        assert np.all(union | bg.bits)

    def test_object_masks_match_rasterize(self, rng):
        v = random_video(rng, num_frames=1)
        masks, _ = per_frame_masks(v, 0, 8, 8)
        for tr, m in zip(v.tracks, masks):
            assert np.array_equal(m.bits, rasterize(tr.params[0], v.geom, 8, 8).bits)

    def test_frame_out_of_range(self, rng):
        v = random_video(rng, num_frames=2)
        with pytest.raises(RangeError):
            per_frame_masks(v, 2, 8, 8)
