import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blobvid.blobs import BlobParams, FrameGeometry
from blobvid import video
from blobvid.errors import EmptyTrack, RangeError, SchemaError, TooLarge
from blobvid.video import (
    BlobTrack,
    BlobVideo,
    densify,
    fill_frames,
    validate,
    video_from_json,
    video_to_json,
)

GEOM = FrameGeometry(64, 48)


def two_anchor_video(p0: BlobParams, p8: BlobParams, num_frames: int = 9) -> BlobVideo:
    track = BlobTrack(0, {0: p0, 8: p8}, {0: "thing"})
    return BlobVideo(num_frames, GEOM, 8, (track,))


class TestDensify:
    def test_interior_frames_follow_linear_formula(self):
        p0 = BlobParams(10.0, 12.0, 8.0, 4.0, 0.4)
        p8 = BlobParams(42.0, 36.0, 12.0, 6.0, -0.4)
        dense = densify(two_anchor_video(p0, p8))
        track = dense.tracks[0]
        for t in range(1, 8):
            alpha = t / 8.0
            q = track.params[t]
            assert q.cx == pytest.approx((1 - alpha) * 10.0 + alpha * 42.0, abs=1e-12)
            assert q.cy == pytest.approx((1 - alpha) * 12.0 + alpha * 36.0, abs=1e-12)
            assert q.a == pytest.approx((1 - alpha) * 8.0 + alpha * 12.0, abs=1e-12)
            assert q.b == pytest.approx((1 - alpha) * 4.0 + alpha * 6.0, abs=1e-12)
            # No wrap here: plain linear angle.
            assert q.theta == pytest.approx(0.4 - 0.8 * alpha, abs=1e-12)

    def test_anchor_frames_shared_bitwise(self):
        p0 = BlobParams(10.0, 12.0, 8.0, 4.0, 0.4)
        p8 = BlobParams(42.0, 36.0, 12.0, 6.0, -0.4)
        dense = densify(two_anchor_video(p0, p8))
        assert dense.tracks[0].params[0] is p0
        assert dense.tracks[0].params[8] is p8

    def test_ends_copy_nearest(self):
        track = BlobTrack(0, {3: BlobParams(5, 5, 3, 2, 0.1)}, {})
        v = BlobVideo(7, GEOM, 8, (track,))
        dense = densify(v)
        for t in range(7):
            assert dense.tracks[0].params[t] is track.params[3]

    def test_idempotent(self):
        p0 = BlobParams(10.0, 12.0, 8.0, 4.0, 0.4)
        p8 = BlobParams(42.0, 36.0, 12.0, 6.0, -0.4)
        once = densify(two_anchor_video(p0, p8))
        twice = densify(once)
        assert video_to_json(once) == video_to_json(twice)

    def test_is_dense_flag(self):
        v = two_anchor_video(BlobParams(1, 1, 2, 1, 0), BlobParams(2, 2, 2, 1, 0))
        assert not v.is_dense()
        assert densify(v).is_dense()

    def test_empty_track_rejected(self):
        v = BlobVideo(4, GEOM, 8, (BlobTrack(0, {}, {}),))
        with pytest.raises(EmptyTrack):
            densify(v)

    def test_out_of_range_annotation_rejected(self):
        v = BlobVideo(4, GEOM, 8, (BlobTrack(0, {9: BlobParams(1, 1, 2, 1, 0)}, {}),))
        with pytest.raises(RangeError):
            densify(v)

    def test_refuses_more_entries_than_its_cap(self, monkeypatch):
        # Three tracks over five frames fill 15 entries: at the cap they run,
        # one above it they are refused before any frame is filled.
        tracks = tuple(BlobTrack(i, {0: BlobParams(5, 5, 3, 2, 0.1)}, {}) for i in range(3))
        v = BlobVideo(5, GEOM, 8, tracks)
        monkeypatch.setattr(video, "_MAX_DENSE_ENTRIES", 15)
        assert densify(v).is_dense()
        monkeypatch.setattr(video, "_MAX_DENSE_ENTRIES", 14)
        monkeypatch.setattr(video, "fill_frames", None)
        with pytest.raises(TooLarge, match="5 frames x 3 tracks = 15 blob entries"):
            densify(v)

    def test_ragged_final_interval(self):
        # Anchors 0 and 5 in an 8-frame video with k=4: the bracketing pair
        # drives interpolation, not the nominal interval.
        p0 = BlobParams(0.0, 0.0, 4.0, 2.0, 0.0)
        p5 = BlobParams(10.0, 0.0, 4.0, 2.0, 0.0)
        track = BlobTrack(0, {0: p0, 5: p5}, {})
        dense = densify(BlobVideo(8, GEOM, 4, (track,)))
        assert dense.tracks[0].params[2].cx == pytest.approx(4.0)
        assert dense.tracks[0].params[7] is p5


class TestFillFrames:
    def test_anchors_nearest_copies_and_one_blend_per_interior_frame(self):
        anchors = {2: object(), 5: object(), 6: object()}
        calls = []

        def blend(t0, t1, t):
            calls.append((t0, t1, t))
            return ("blend", t)

        out = fill_frames(anchors, 9, blend)
        assert list(out) == list(range(9))
        for t, value in anchors.items():
            assert out[t] is value
        assert out[0] is anchors[2] and out[1] is anchors[2]
        assert out[7] is anchors[6] and out[8] is anchors[6]
        assert calls == [(2, 5, 3), (2, 5, 4)]
        assert out[3] == ("blend", 3) and out[4] == ("blend", 4)

    def test_single_anchor_is_copied_everywhere(self):
        anchor = object()
        out = fill_frames({3: anchor}, 5, lambda t0, t1, t: pytest.fail("no interior frame"))
        assert all(out[t] is anchor for t in range(5))


class TestValidate:
    def test_clean_video(self):
        v = two_anchor_video(BlobParams(1, 1, 2, 1, 0), BlobParams(2, 2, 2, 1, 0))
        assert validate(v) == []

    def test_duplicate_id(self):
        t1 = BlobTrack(3, {0: BlobParams(1, 1, 2, 1, 0)}, {})
        t2 = BlobTrack(3, {0: BlobParams(2, 2, 2, 1, 0)}, {})
        v = BlobVideo(2, GEOM, 8, (t1, t2))
        fields = [x.field for x in validate(v)]
        assert "id" in fields

    def test_empty_params(self):
        v = BlobVideo(2, GEOM, 8, (BlobTrack(0, {}, {}),))
        assert [x.field for x in validate(v)] == ["params"]

    def test_frame_out_of_range(self):
        v = BlobVideo(2, GEOM, 8, (BlobTrack(0, {5: BlobParams(1, 1, 2, 1, 0)}, {}),))
        assert [x.field for x in validate(v)] == ["frame"]

    def test_noncanonical_radii(self):
        v = BlobVideo(2, GEOM, 8, (BlobTrack(0, {0: BlobParams(1, 1, 1.0, 2.0, 0)}, {}),))
        assert [x.field for x in validate(v)] == ["radii"]

    def test_noncanonical_theta(self):
        v = BlobVideo(2, GEOM, 8, (BlobTrack(0, {0: BlobParams(1, 1, 2, 1, 2.0)}, {}),))
        assert [x.field for x in validate(v)] == ["theta"]

    def test_caption_without_params(self):
        v = BlobVideo(2, GEOM, 8,
                      (BlobTrack(0, {0: BlobParams(1, 1, 2, 1, 0)}, {1: "late"}),))
        out = validate(v)
        assert [x.field for x in out] == ["caption"]
        assert "frame 1" in str(out[0])

    def test_multiple_violations_all_reported(self):
        bad = BlobParams(1, 1, 1.0, 2.0, 2.5)
        v = BlobVideo(2, GEOM, 8, (BlobTrack(0, {0: bad}, {1: "x"}),))
        fields = sorted(x.field for x in validate(v))
        assert fields == ["caption", "radii", "theta"]


class TestJsonRoundtrip:
    def test_schema_shape(self):
        v = two_anchor_video(BlobParams(1.5, 1.0, 2.0, 1.0, 0.25),
                             BlobParams(2.0, 2.0, 2.0, 1.0, 0.0))
        doc = json.loads(video_to_json(v))
        assert doc["version"] == 1
        assert doc["width"] == 64 and doc["height"] == 48
        assert doc["num_frames"] == 9 and doc["anchor_interval"] == 8
        assert doc["tracks"][0]["id"] == 0
        assert doc["tracks"][0]["params"]["0"] == [1.5, 1.0, 2.0, 1.0, 0.25]
        assert doc["tracks"][0]["captions"]["0"] == "thing"

    def test_roundtrip_bitwise(self):
        v = two_anchor_video(BlobParams(1.5, 1.0, 2.0, 1.0, 0.1234567890123),
                             BlobParams(2.0, 2.0, 2.0, 1.0, -0.987654321))
        s = video_to_json(v)
        assert video_to_json(video_from_json(s)) == s

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 64, allow_nan=False),
                st.floats(0, 48, allow_nan=False),
                st.floats(0.5, 20, allow_nan=False),
                st.floats(0.5, 20, allow_nan=False),
                st.floats(-1.5, 1.5, allow_nan=False),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=50)
    def test_roundtrip_preserves_params(self, raw):
        tracks = tuple(
            BlobTrack(i, {0: BlobParams(*vals)}, {0: f"object {i}"})
            for i, vals in enumerate(raw)
        )
        v = BlobVideo(1, GEOM, 8, tracks)
        back = video_from_json(video_to_json(v))
        for t_in, t_out in zip(v.tracks, back.tracks):
            assert t_out.params[0] == t_in.params[0]
            assert t_out.captions == t_in.captions

    def test_rejects_wrong_version(self):
        v = two_anchor_video(BlobParams(1, 1, 2, 1, 0), BlobParams(2, 2, 2, 1, 0))
        doc = json.loads(video_to_json(v))
        doc["version"] = 2
        with pytest.raises(SchemaError):
            video_from_json(json.dumps(doc))

    def test_rejects_missing_tracks(self):
        with pytest.raises(SchemaError):
            video_from_json('{"version": 1, "width": 4, "height": 4, "num_frames": 1, "anchor_interval": 8}')

    @pytest.mark.parametrize("kind, first, second", [
        ("params", "1", "01"), ("captions", "0", "+0"),
    ], ids=["params", "captions"])
    def test_rejects_two_keys_naming_one_frame(self, kind, first, second):
        track = BlobTrack(7, {0: BlobParams(1, 1, 2, 1, 0), 1: BlobParams(2, 2, 2, 1, 0)},
                          {0: "thing"})
        doc = json.loads(video_to_json(BlobVideo(2, GEOM, 8, (track,))))
        entries = doc["tracks"][0][kind]
        entries[second] = entries[first]
        with pytest.raises(SchemaError) as exc:
            video_from_json(json.dumps(doc))
        assert str(exc.value) == (f"track 7 {kind}: frame keys {first!r} and {second!r} "
                                  f"both name frame {int(first)}")

    def test_caption_unicode_preserved(self):
        track = BlobTrack(0, {0: BlobParams(1, 1, 2, 1, 0)}, {0: "zürich — tram"})
        v = BlobVideo(1, GEOM, 8, (track,))
        back = video_from_json(video_to_json(v))
        assert back.tracks[0].captions[0] == "zürich — tram"


class TestBlobVideoConstruction:
    def test_rejects_bad_frame_count(self):
        with pytest.raises(RangeError):
            BlobVideo(0, GEOM, 8, ())

    def test_rejects_bad_anchor_interval(self):
        with pytest.raises(RangeError):
            BlobVideo(4, GEOM, 0, ())
