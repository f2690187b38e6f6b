from collections import Counter

import numpy as np
import pytest

from blobvid.blobs import BinaryMask, BlobParams, FrameGeometry, rasterize
from blobvid.exemplars import EXEMPLAR_2_LAYOUT
from blobvid.errors import RangeError, ShapeError
from blobvid.labelfield import (
    NEG_INF,
    AttnMask3D,
    LabelField,
    build_label_field,
    per_frame_masks,
)
from blobvid.layout import densify_layout, parse_layout
from blobvid.video import BlobTrack, BlobVideo, densify

from conftest import decode, label_set, random_canonical_blob

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
            assert label_set(field, i) == labs

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
        assert label_set(field, 0) == {8}

    def test_bitset_memory_bound(self):
        # 10 objects + background at T=16, h=w=32: two bytes per position.
        T, h, w, n_objects = 16, 32, 32, 10
        sets = [{n_objects} for _ in range(T * h * w)]
        field = LabelField.from_label_sets(T, h, w, n_objects + 1, sets)
        assert field.bits.nbytes == T * h * w * 2
        assert field.bits.nbytes < 40 * 1024

    @pytest.mark.parametrize("n_labels", [0, -3])
    def test_rejects_fewer_than_one_label(self, n_labels):
        with pytest.raises(RangeError):
            LabelField(1, 1, 2, n_labels, np.zeros((2, 0), dtype=np.uint8))
        with pytest.raises(RangeError):
            LabelField.from_label_sets(1, 1, 2, n_labels, [set(), set()])

    @pytest.mark.parametrize("n_labels, last_byte", [(3, 0xF8), (3, 0x08), (5, 0x20),
                                                     (9, 0x02), (15, 0x80)])
    def test_rejects_bits_at_or_above_n_labels(self, n_labels, last_byte):
        bits = np.zeros((4, (n_labels + 7) // 8), dtype=np.uint8)
        bits[1, -1] = last_byte
        with pytest.raises(RangeError):
            LabelField(1, 2, 2, n_labels, bits)

    @pytest.mark.parametrize("n_labels", [3, 8, 9, 16])
    def test_accepts_the_top_label(self, n_labels):
        bits = np.zeros((4, (n_labels + 7) // 8), dtype=np.uint8)
        bits[:, -1] = 1 << (n_labels - 1) % 8
        field = LabelField(1, 2, 2, n_labels, bits)
        assert label_set(field, 3) == {n_labels - 1}


class TestBuildLabelField:
    def test_matches_per_position_reference(self, rng):
        v = random_video(rng)
        field = build_label_field(v, 6, 6)
        want = label_sets_reference(v, 6, 6)
        for i in range(field.size):
            assert label_set(field, i) == want[i]

    def test_background_exactly_complement(self, rng):
        v = random_video(rng, num_frames=2)
        h = w = 8
        field = build_label_field(v, h, w)
        bg = field.n_labels - 1
        for t in range(v.num_frames):
            union = np.zeros((h, w), dtype=bool)
            for tr in v.tracks:
                union |= rasterize(tr.params[t], v.geom, h, w).bits
            for r in range(h):
                for c in range(w):
                    labs = label_set(field, (t * h + r) * w + c)
                    assert (bg in labs) == (not union[r, c])
                    assert labs, "label sets are never empty"

    def test_respects_rescale(self, rng):
        v = random_video(rng, num_frames=1)
        f1 = build_label_field(v, 8, 8, rho=1.0)
        f2 = build_label_field(v, 8, 8, rho=1.5)
        grown = sum(len(label_set(f2, i) - {f2.n_labels - 1}) for i in range(f2.size))
        base = sum(len(label_set(f1, i) - {f1.n_labels - 1}) for i in range(f1.size))
        assert grown >= base

    def test_rejects_sparse_video(self):
        track = BlobTrack(0, {0: BlobParams(32, 32, 8, 4, 0)}, {})
        v = BlobVideo(4, GEOM, 8, (track,))
        with pytest.raises(ShapeError):
            build_label_field(v, 4, 4)

    @pytest.mark.parametrize("h, w", [(-2, 5), (5, -2), (0, 5), (5, 0)])
    def test_rejects_an_empty_grid(self, rng, h, w):
        with pytest.raises(ShapeError, match="at least 1x1"):
            build_label_field(random_video(rng), h, w)

    @pytest.mark.parametrize("which", ["exemplar", "ten-tracks"])
    def test_given_frames_pack_to_the_same_field(self, rng, which):
        if which == "exemplar":
            v = densify_layout(parse_layout(EXEMPLAR_2_LAYOUT), 13, FrameGeometry(720, 480))
            h, w, rho = 12, 18, 1.0
        else:
            v = random_video(rng, num_frames=4, num_tracks=10)
            h, w, rho = 16, 16, 1.3
        frames = [per_frame_masks(v, t, h, w, rho) for t in range(v.num_frames)]
        given = build_label_field(v, h, w, frames=frames)
        drawn = build_label_field(v, h, w, rho)
        assert given.n_labels == drawn.n_labels == v.num_tracks + 1
        assert given.bits.shape == drawn.bits.shape
        assert np.array_equal(given.bits, drawn.bits)

    def test_given_frames_must_cover_the_video_and_grid(self, rng):
        v = random_video(rng, num_frames=3, num_tracks=2)
        frames = [per_frame_masks(v, t, 6, 6) for t in range(3)]
        with pytest.raises(ShapeError, match="3 frames"):
            build_label_field(v, 6, 6, frames=frames[:2])
        with pytest.raises(ShapeError, match="3 frames"):
            build_label_field(v, 6, 6, frames=frames + frames[:1])
        with pytest.raises(ShapeError, match="6x7"):
            build_label_field(v, 6, 7, frames=frames)
        masks, background = frames[1]
        wrong = frames[:1] + [(masks, BinaryMask(np.ones((6, 5), dtype=bool)))] + frames[2:]
        with pytest.raises(ShapeError, match="frame 1"):
            build_label_field(v, 6, 6, frames=wrong)
        with pytest.raises(ShapeError, match="frame 1"):
            build_label_field(v, 6, 6, frames=frames[:1] + [(masks[:1], background)] + frames[2:])


class TestClasses:
    @pytest.mark.parametrize("n_labels, n", [(1, 1), (3, 1), (3, 40), (9, 60), (65, 1),
                                             (65, 200), (70, 300)])
    def test_matches_label_set_oracle(self, rng, n_labels, n):
        # Sets drawn from a small pool, so classes repeat; about one in five
        # positions has an empty set.
        pool = [frozenset(rng.choice(n_labels, size=int(rng.integers(1, min(n_labels, 5) + 1)),
                                     replace=False).tolist()) for _ in range(12)] + [frozenset()] * 3
        sets = [pool[i] for i in rng.integers(0, len(pool), size=n)]
        field = LabelField.from_label_sets(1, 1, n, n_labels, sets)
        codes, inverse, counts = field.classes
        assert codes.shape == (len(set(sets)), (n_labels + 7) // 8)
        assert len({bytes(c) for c in codes}) == len(codes)
        assert [bytes(c) for c in codes] == sorted(bytes(c) for c in codes)
        assert inverse.shape == (n,)
        for i in range(n):
            assert decode(codes[inverse[i]], n_labels) == label_set(field, i) == sets[i]
        assert counts.sum() == n
        by_set = Counter(sets)
        assert [by_set[decode(c, n_labels)] for c in codes] == counts.tolist()

    @pytest.mark.parametrize("n_labels", [5, 16, 20])
    def test_equals_the_row_wise_unique(self, rng, n_labels):
        # 1-, 2- and 3-byte bitsets, a quarter of them empty: the grouping
        # of each bitset as one byte string gives np.unique(axis=0)'s codes,
        # classes and counts, in its order.
        for _ in range(5):
            sets = [set() if rng.random() < 0.25 else
                    {lab for lab in range(n_labels) if rng.random() < 0.3} for _ in range(400)]
            field = LabelField.from_label_sets(2, 10, 20, n_labels, sets)
            codes, inverse, counts = np.unique(field.bits, axis=0, return_inverse=True,
                                               return_counts=True)
            got = field.classes
            assert got[0].dtype == np.uint8 and got[0].shape == codes.shape
            for a, b in zip(got, (codes, inverse.reshape(-1), counts)):
                assert np.array_equal(a, b)

    def test_is_computed_once_per_field(self):
        field = LabelField.from_label_sets(1, 1, 4, 3, [{0}, {1}, {0}, {2}])
        assert field.classes is field.classes
        assert not any(arr.flags.writeable for arr in field.classes)
        again = LabelField(1, 1, 4, 3, field.bits)
        assert again.classes is not field.classes
        for a, b in zip(again.classes, field.classes):
            assert np.array_equal(a, b)


class TestAttnMask3D:
    def build(self, sets, T=1, h=1, n_labels=3):
        w = len(sets) // (T * h)
        return AttnMask3D(LabelField.from_label_sets(T, h, w, n_labels, sets))

    def test_query_matches_set_intersection_oracle(self, rng):
        v = random_video(rng, num_frames=2)
        field = build_label_field(v, 5, 5)
        m = AttnMask3D(field)
        sets = [label_set(field, i) for i in range(field.size)]
        want = [[bool(a & b) for b in sets] for a in sets]
        assert m.allowed_rows(0, m.size).tolist() == want

    def test_intersection_not_transitive(self):
        m = self.build([{0}, {0, 1}, {1}])
        assert m.allowed_rows(0, 3).tolist() == [[True, True, False],
                                                  [True, True, True],
                                                  [False, True, True]]

    def test_empty_label_set_allows_nothing(self):
        m = self.build([set(), {0}, set()])
        assert m.allowed_rows(0, 3).tolist() == [[False, False, False],
                                                  [False, True, False],
                                                  [False, False, False]]

    def test_diagonal_always_allowed(self, rng):
        v = random_video(rng, num_frames=2)
        m = AttnMask3D(build_label_field(v, 4, 4))
        assert np.diag(m.allowed_rows(0, m.size)).all()

    def test_symmetric(self, rng):
        v = random_video(rng, num_frames=2)
        m = AttnMask3D(build_label_field(v, 4, 4))
        dense = m.allowed_rows(0, m.size)
        assert np.array_equal(dense, dense.T)

    def test_query_out_of_range(self):
        m = self.build([{0}, {1}])
        for start, stop in ((0, 3), (-1, 1), (2, 1)):
            with pytest.raises(RangeError):
                m.allowed_rows(start, stop)
        assert m.allowed_rows(2, 2).shape == (0, 2)

    def test_allowed_rows_blocks(self, rng):
        v = random_video(rng, num_frames=2)
        field = build_label_field(v, 4, 4)
        m = AttnMask3D(field)
        sets = [label_set(field, i) for i in range(field.size)]
        block = m.allowed_rows(3, 9)
        assert block.shape == (6, m.size)
        for i in range(3, 9):
            assert block[i - 3].tolist() == [bool(sets[i] & b) for b in sets]


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
