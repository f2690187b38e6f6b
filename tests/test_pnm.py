import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blobvid.blobs import BinaryMask
from blobvid.errors import ParseError, ShapeError
from blobvid.pnm import (
    mask_filename,
    read_mask_pgm,
    read_pgm,
    write_mask_pgm,
    write_ppm,
)

from conftest import parse_mask_filename, read_ppm


class TestPgm:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n9 5\n255\n" + img.tobytes())
        assert np.array_equal(read_pgm(p), img)

    def test_header_bytes(self, tmp_path):
        p = write_mask_pgm(tmp_path, 0, "1", BinaryMask(np.zeros((2, 3), dtype=bool)))
        assert p.read_bytes() == b"P5\n3 2\n255\n" + b"\x00" * 6

    def test_reads_commented_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n# made elsewhere\n2 2\n# another\n255\n\x01\x02\x03\x04")
        assert np.array_equal(read_pgm(p), [[1, 2], [3, 4]])

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ParseError):
            read_pgm(p)

    def test_rejects_other_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ParseError, match="maxval"):
            read_pgm(p)

    def test_rejects_truncated_body(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n\x01\x02")
        with pytest.raises(ParseError, match="data bytes"):
            read_pgm(p)

    def test_rejects_truncated_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 ")
        with pytest.raises(ParseError):
            read_pgm(p)

    @pytest.mark.parametrize("data, offset", [
        (b"P5\nab 3\n255\n\x00", 3),
        (b"P5\n3 3x\n255\n\x00", 5),
        (b"P5\n2 2\n25.5\n\x00", 7),
        (b"P5\n-3 -3\n255\n\x00", 3),
        (b"P5\n0 3\n255\n\x00", 3),
        (b"P5\n3 0\n255\n\x00", 5),
    ], ids=["letters", "trailing-letter", "fraction", "negative", "zero-width", "zero-height"])
    def test_rejects_bad_header_field_at_its_offset(self, tmp_path, data, offset):
        p = tmp_path / "a.pgm"
        p.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            read_pgm(p)
        assert exc.value.byte_offset == offset


class TestPpm:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
        p = tmp_path / "a.ppm"
        write_ppm(p, img)
        assert np.array_equal(read_ppm(p), img)

    def test_write_rejects_wrong_channels(self, tmp_path):
        with pytest.raises(ShapeError):
            write_ppm(tmp_path / "a.ppm", np.zeros((2, 2, 4), dtype=np.uint8))

    def test_magic_mismatch_with_pgm(self, tmp_path):
        p = tmp_path / "a.ppm"
        write_ppm(p, np.zeros((1, 1, 3), dtype=np.uint8))
        with pytest.raises(ParseError):
            read_pgm(p)


class TestMaskFiles:
    def test_filename_format(self):
        assert mask_filename(7, "dog") == "f0007_odog.pgm"
        assert mask_filename(12345, 2) == "f12345_o2.pgm"

    @given(frame=st.integers(0, 99999), object_id=st.integers(0, 99))
    def test_filename_roundtrip(self, frame, object_id):
        parsed = parse_mask_filename(mask_filename(frame, object_id))
        assert parsed == (frame, str(object_id))

    def test_mask_roundtrip(self, tmp_path, rng):
        mask = BinaryMask(rng.integers(0, 2, size=(6, 6)).astype(bool))
        path = write_mask_pgm(tmp_path, 3, "1", mask)
        assert path.name == "f0003_o1.pgm"
        back = read_mask_pgm(path)
        assert np.array_equal(back.bits, mask.bits)

    def test_read_threshold(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 127, 128, 255]))
        assert read_mask_pgm(p).bits.tolist() == [[False, False, True, True]]
