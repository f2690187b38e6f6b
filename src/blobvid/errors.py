"""Exception types shared across the package, and the JSON readers that raise them."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path


class BlobvidError(Exception):
    """Base class for every error raised by this library."""


class InvalidBlob(BlobvidError, ValueError):
    """Blob parameters violate their contract (non-positive radius, non-finite value)."""


class ShapeError(BlobvidError, ValueError):
    """Array or grid shapes are inconsistent."""


class EmptyMask(BlobvidError, ValueError):
    """A binary mask with no set cells was given where content is required."""


class EmptyTrack(BlobvidError, ValueError):
    """A track has no annotated frames."""


class RangeError(BlobvidError, ValueError):
    """A scalar argument is outside its documented range."""


class TooLarge(BlobvidError, ValueError):
    """An input would need more memory than its size cap or byte budget allows."""


class DegenerateVector(BlobvidError, ValueError):
    """A vector with zero norm reached an operation that needs a direction."""


class UndefinedMetric(BlobvidError, ValueError):
    """The metric has no defined value on the given inputs (nothing to average)."""


class SchemaError(BlobvidError, ValueError):
    """A document parsed as JSON but does not match the expected structure."""


class ParseError(BlobvidError, ValueError):
    """Input text is not valid JSON. Carries the byte offset of the failure."""

    def __init__(self, message: str, byte_offset: int | None = None):
        detail = message
        if byte_offset is not None:
            detail = f"{message} (byte offset {byte_offset})"
        super().__init__(detail)
        self.byte_offset = byte_offset


def parse_json(text: str, source: str | None = None):
    """json.loads, naming source in its errors when given. Text that is not
    JSON raises ParseError with the byte offset; an object that repeats a key
    raises SchemaError naming the key, rather than keeping its last value."""
    prefix = f"{source}: " if source else ""

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise SchemaError(f"{prefix}key {key!r} repeated in one object")
        return obj

    def bounded_int(token):
        # int() refuses more digits than sys.get_int_max_str_digits().
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"{prefix}integer of {len(token)} digits is too long") from None

    try:
        return json.loads(text, object_pairs_hook=unique_keys, parse_int=bounded_int)
    except json.JSONDecodeError as e:
        offset = len(text[:e.pos].encode("utf-8"))
        message = f"{source}: not valid JSON: {e.msg}" if source else e.msg
        raise ParseError(message, byte_offset=offset) from None


def read_text(path) -> str:
    """The UTF-8 text of the file at path; other bytes raise ParseError naming the file."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text", byte_offset=e.start) from None


def read_json(path):
    """Parse the JSON file at path; text that is not JSON raises ParseError naming the file."""
    return parse_json(read_text(path), str(path))
