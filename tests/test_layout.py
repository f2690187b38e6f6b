import json
import math

import pytest

from blobvid.blobs import FrameGeometry
from blobvid.errors import ParseError, RangeError, SchemaError, parse_json
from blobvid.exemplars import EXEMPLAR_1_LAYOUT, EXEMPLAR_2_LAYOUT
from blobvid.layout import (
    densify_layout,
    parse_layout,
    serialize_layout_doc,
)

GEOM = FrameGeometry(720, 480)

SIMPLE = json.dumps({
    "Frame0": {"Object1": {"blob": [100, 100, 40, 20, 0.5], "caption": "a dog"}},
    "Frame4": {"Object1": {"blob": [200, 150, 40, 20, -0.5]}},
})


class TestParseLayout:
    def test_plain_json(self):
        doc = parse_layout(SIMPLE)
        assert sorted(doc.frames) == [0, 4]
        assert doc.frames[0]["1"].blob == (100, 100, 40, 20, 0.5)
        assert doc.frames[0]["1"].caption == "a dog"
        assert doc.frames[4]["1"].caption is None

    def test_fenced_json(self):
        doc = parse_layout(f"```json\n{SIMPLE}\n```")
        assert sorted(doc.frames) == [0, 4]
        doc = parse_layout(f"```\n{SIMPLE}\n```\n")
        assert sorted(doc.frames) == [0, 4]

    def test_parse_error_carries_byte_offset(self):
        text = '{"Frame0": }'
        with pytest.raises(ParseError) as exc:
            parse_layout(text)
        assert exc.value.byte_offset == text.index("}")

    def test_byte_offset_counts_utf8_bytes(self):
        # Two-byte character before the syntax error shifts the byte offset
        # past the character offset.
        text = '{"Frame0": {"Objecté": }}'
        with pytest.raises(ParseError) as exc:
            parse_layout(text)
        assert exc.value.byte_offset == len(text[: text.index("}")].encode("utf-8"))

    def test_parse_json_rejects_a_repeated_key(self):
        # Nested objects are checked too, and unique keys still parse.
        assert parse_json('{"a": {"0": 1, "1": 2}, "b": 3}') == {"a": {"0": 1, "1": 2}, "b": 3}
        with pytest.raises(SchemaError) as exc:
            parse_json('{"a": {"1": 1, "0": 2, "1": 3}}', "doc.json")
        assert str(exc.value) == "doc.json: key '1' repeated in one object"

    def test_rejects_non_object_top(self):
        with pytest.raises(SchemaError):
            parse_layout("[1, 2]")

    def test_rejects_unknown_top_key(self):
        with pytest.raises(SchemaError, match="Background"):
            parse_layout('{"Background": {}}')

    def test_rejects_non_increasing_frames(self):
        doc = {"Frame4": {}, "Frame0": {}}
        with pytest.raises(SchemaError, match="increasing"):
            parse_layout(json.dumps(doc))

    def test_rejects_bad_object_key(self):
        with pytest.raises(SchemaError, match="Frame0"):
            parse_layout('{"Frame0": {"Thing1": {"blob": [1, 1, 1, 1, 0]}}}')

    def test_rejects_unknown_entry_key(self):
        with pytest.raises(SchemaError, match="color"):
            parse_layout('{"Frame0": {"Object1": {"blob": [1, 1, 1, 1, 0], "color": "red"}}}')

    def test_rejects_missing_blob(self):
        with pytest.raises(SchemaError, match="blob"):
            parse_layout('{"Frame0": {"Object1": {"caption": "x"}}}')

    def test_rejects_malformed_blob(self):
        for bad in ('[1, 2, 3]', '[1, 2, 3, 4, true]', '"wide"', '[1, 2, 3, 4, "x"]'):
            with pytest.raises(SchemaError):
                parse_layout('{"Frame0": {"Object1": {"blob": %s}}}' % bad)

    def test_rejects_nan_blob(self):
        with pytest.raises(SchemaError):
            parse_layout('{"Frame0": {"Object1": {"blob": [1, 2, 3, 4, NaN]}}}')

    def test_rejects_bad_caption_type(self):
        with pytest.raises(SchemaError, match="caption"):
            parse_layout('{"Frame0": {"Object1": {"blob": [1, 1, 1, 1, 0], "caption": 7}}}')

    def test_object_ids_first_appearance_order(self):
        doc = parse_layout(json.dumps({
            "Frame0": {"Object3": {"blob": [1, 1, 1, 1, 0]}},
            "Frame2": {"Object1": {"blob": [2, 2, 1, 1, 0]},
                       "Object3": {"blob": [1, 1, 1, 1, 0]}},
        }))
        assert doc.object_ids() == ["3", "1"]

    def test_caption_whitespace_verbatim(self):
        doc = parse_layout('{"Frame0": {"Object1": {"blob": [1, 1, 1, 1, 0], "caption": " padded "}}}')
        assert doc.frames[0]["1"].caption == " padded "


class TestExemplars:
    def test_both_parse(self):
        d1 = parse_layout(EXEMPLAR_1_LAYOUT)
        d2 = parse_layout(EXEMPLAR_2_LAYOUT)
        assert sorted(d1.frames) == [0, 2, 12]
        assert sorted(d2.frames) == [0, 12]
        assert d2.object_ids() == ["2", "3", "4"]

    def test_printed_params_read_back(self):
        d1 = parse_layout(EXEMPLAR_1_LAYOUT)
        assert d1.frames[0]["2"].blob == (443, 252, 102, 72, -2.353)
        d2 = parse_layout(EXEMPLAR_2_LAYOUT)
        assert d2.frames[12]["4"].blob == (670, 242, 151, 64, 1.598)

    def test_caption_spacing_quirks_kept(self):
        d1 = parse_layout(EXEMPLAR_1_LAYOUT)
        cap0 = d1.frames[0]["2"].caption
        cap2 = d1.frames[2]["2"].caption
        assert cap0.endswith(" ")
        assert cap2.startswith(" ")
        assert "bird's" in cap0


class TestDensifyLayout:
    def test_basic(self):
        v = densify_layout(parse_layout(SIMPLE), num_frames=5, geom=GEOM)
        assert v.num_frames == 5
        assert v.num_tracks == 1
        assert v.tracks[0].object_id == 1
        assert v.is_dense()
        # Midpoint of the two anchors.
        assert v.tracks[0].params[2].cx == pytest.approx(150.0)

    def test_anchor_interval_from_min_gap(self):
        v = densify_layout(parse_layout(EXEMPLAR_1_LAYOUT), num_frames=13, geom=GEOM)
        assert v.anchor_interval == 2

    def test_theta_canonicalized_in_video(self):
        v = densify_layout(parse_layout(EXEMPLAR_1_LAYOUT), num_frames=13, geom=GEOM)
        p = v.tracks[0].params[0]
        assert p.is_canonical()
        assert p.theta == pytest.approx(-2.353 + math.pi)

    def test_nonnumeric_ids_enumerate(self):
        doc = parse_layout(json.dumps({
            "Frame0": {"Objectcat": {"blob": [1, 1, 1, 1, 0]},
                       "Objectdog": {"blob": [2, 2, 1, 1, 0]}},
        }))
        v = densify_layout(doc, num_frames=1, geom=GEOM)
        assert [t.object_id for t in v.tracks] == [0, 1]

    def test_out_of_frame_center_clamped_with_warning(self):
        doc = parse_layout('{"Frame0": {"Object1": {"blob": [900, 100, 40, 20, 0.0]}}}')
        with pytest.warns(UserWarning, match="cx"):
            v = densify_layout(doc, num_frames=1, geom=GEOM)
        assert v.tracks[0].params[0].cx == 720.0

    def test_too_few_frames(self):
        with pytest.raises(RangeError):
            densify_layout(parse_layout(SIMPLE), num_frames=3, geom=GEOM)

    def test_empty_doc(self):
        with pytest.raises(SchemaError):
            densify_layout(parse_layout("{}"), num_frames=4, geom=GEOM)

    def test_object_missing_from_middle_frame(self):
        doc = parse_layout(json.dumps({
            "Frame0": {"Object1": {"blob": [10, 10, 4, 2, 0]},
                       "Object2": {"blob": [50, 50, 4, 2, 0]}},
            "Frame2": {"Object1": {"blob": [20, 10, 4, 2, 0]}},
            "Frame4": {"Object1": {"blob": [30, 10, 4, 2, 0]},
                       "Object2": {"blob": [70, 50, 4, 2, 0]}},
        }))
        v = densify_layout(doc, num_frames=5, geom=GEOM)
        tr2 = next(t for t in v.tracks if t.object_id == 2)
        # Missing middle annotation interpolates across the whole gap.
        assert tr2.params[2].cx == pytest.approx(60.0)


class TestSerializeLayout:
    def test_roundtrip_params_bitwise(self):
        doc = parse_layout(SIMPLE)
        again = parse_layout(serialize_layout_doc(doc))
        for t in doc.frames:
            assert again.frames[t]["1"].blob == doc.frames[t]["1"].blob

    def test_captions_only_where_present(self):
        doc = json.loads(serialize_layout_doc(parse_layout(SIMPLE)))
        assert doc["Frame0"]["Object1"]["caption"] == "a dog"
        assert "caption" not in doc["Frame4"]["Object1"]

    def test_doc_serializer_stable(self):
        once = serialize_layout_doc(parse_layout(EXEMPLAR_2_LAYOUT))
        twice = serialize_layout_doc(parse_layout(once))
        assert once == twice
