import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalestream import (INDOOR_CLASSES, LabelMap, PointStream,
                         StreamFormatError, StreamValidationError,
                         read_stream, write_stream)
from scalestream.stream import RECORD_SIZE, format_rows

from conftest import make_random_stream


def roundtrip(stream):
    buf = io.BytesIO()
    write_stream(stream, buf)
    return read_stream(buf.getvalue())


def test_empty_stream_is_header_only():
    s = PointStream(np.zeros((0, 3)), [], [], class_count=11)
    buf = io.BytesIO()
    n = write_stream(s, buf)
    assert n == len(buf.getvalue())
    # magic + version/C/count + empty label map + empty meta
    assert n == 4 + 8 + 2 + 2
    assert roundtrip(s) == s


def test_record_is_18_bytes():
    assert RECORD_SIZE == 18
    empty = PointStream(np.zeros((0, 3)), [], [], class_count=11)
    one = PointStream(np.zeros((1, 3)), [0], [0], class_count=11)
    b_empty, b_one = io.BytesIO(), io.BytesIO()
    write_stream(empty, b_empty)
    write_stream(one, b_one)
    assert len(b_one.getvalue()) - len(b_empty.getvalue()) == 18


def test_roundtrip_random_streams():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = make_random_stream(rng, int(rng.integers(0, 400)),
                               with_label_map=bool(rng.integers(2)))
        back = roundtrip(s)
        assert back == s
        # bytes are deterministic too
        b1, b2 = io.BytesIO(), io.BytesIO()
        write_stream(s, b1)
        write_stream(back, b2)
        assert b1.getvalue() == b2.getvalue()


def test_roundtrip_1000_points_exact():
    rng = np.random.default_rng(42)
    s = make_random_stream(rng, 1000, with_label_map=True)
    back = roundtrip(s)
    assert np.array_equal(back.positions, s.positions)
    assert np.array_equal(back.labels, s.labels)
    assert np.array_equal(back.timestamps, s.timestamps)
    assert back.meta == s.meta and back.label_map == s.label_map


def test_label_out_of_range_rejected():
    with pytest.raises(StreamValidationError, match="label"):
        PointStream(np.zeros((1, 3)), [11], [0], class_count=11)


def test_decreasing_timestamps_rejected_naming_index():
    with pytest.raises(StreamValidationError, match="index 1"):
        PointStream(np.zeros((2, 3)), [0, 0], [5, 3], class_count=11)


def test_bad_magic_and_version():
    s = make_random_stream(np.random.default_rng(1), 5)
    buf = io.BytesIO()
    write_stream(s, buf)
    data = bytearray(buf.getvalue())
    with pytest.raises(StreamFormatError, match="magic"):
        read_stream(bytes(b"XXXX") + bytes(data[4:]))
    bad_version = bytearray(data)
    bad_version[4] = 99
    with pytest.raises(StreamFormatError, match="version"):
        read_stream(bytes(bad_version))


def test_truncation_fuzz_never_partial():
    rng = np.random.default_rng(3)
    s = make_random_stream(rng, 10, with_label_map=True)
    buf = io.BytesIO()
    write_stream(s, buf)
    data = buf.getvalue()
    for cut in range(len(data)):
        with pytest.raises(StreamFormatError):
            read_stream(data[:cut])


def test_trailing_garbage_rejected():
    s = make_random_stream(np.random.default_rng(4), 3)
    buf = io.BytesIO()
    write_stream(s, buf)
    with pytest.raises(StreamFormatError):
        read_stream(buf.getvalue() + b"\x00")


def test_file_roundtrip(tmp_path):
    s = make_random_stream(np.random.default_rng(5), 64, with_label_map=True)
    path = tmp_path / "s.bin"
    write_stream(s, path)
    assert read_stream(path) == s


def test_equal_timestamps_are_legal():
    s = PointStream(np.zeros((3, 3)), [0, 1, 2], [7, 7, 7], class_count=3)
    assert roundtrip(s) == s


def csv_rows(stream):
    return list(format_rows("{},{},{},{},{}", stream.positions, stream.labels,
                            stream.timestamps))


def test_csv_empty_and_literal():
    empty = PointStream(np.zeros((0, 3)), [], [], class_count=11)
    assert csv_rows(empty) == []
    one = PointStream([[1.5, 0, 0]], [2], [7], class_count=11)
    assert csv_rows(one) == ["1.5,0,0,2,7"]


def test_csv_parse_back_exact():
    rng = np.random.default_rng(11)
    s = make_random_stream(rng, 200)
    lines = csv_rows(s)
    assert len(lines) == len(s)
    for i, line in enumerate(lines):
        x, y, z, lab, t = line.split(",")
        assert np.float32(x) == s.positions[i, 0]
        assert np.float32(y) == s.positions[i, 1]
        assert np.float32(z) == s.positions[i, 2]
        assert int(lab) == s.labels[i] and int(t) == s.timestamps[i]


def test_indoor_label_map():
    lm = LabelMap(INDOOR_CLASSES)
    assert len(lm) == 11
    assert lm[0] == "floor" and lm.index("clutter") == 10
    with pytest.raises(StreamValidationError):
        LabelMap(("a", "a"))
    # the writer packs each name as UTF-8 text, so another type is refused
    for names in ((1, 2), ("a", b"b"), ("a", 1.5)):
        with pytest.raises(StreamValidationError, match="class names must be strings"):
            LabelMap(names)


def _forge_file(records):
    """Handcraft stream bytes (header with no label map or meta)."""
    import struct
    blob = b"PSTR" + struct.pack("<HHI", 1, 11, len(records))
    blob += struct.pack("<H", 0) + struct.pack("<H", 0)
    for x, y, z, lab, t in records:
        blob += struct.pack("<fffHI", x, y, z, lab, t)
    return blob


def test_file_with_decreasing_timestamps_rejected():
    blob = _forge_file([(0, 0, 0, 0, 5), (0, 0, 0, 0, 3)])
    with pytest.raises(StreamValidationError, match="index 1"):
        read_stream(blob)


def test_file_with_label_outside_class_count_rejected():
    blob = _forge_file([(0, 0, 0, 11, 0)])
    with pytest.raises(StreamValidationError, match="label"):
        read_stream(blob)


def _bytes(stream):
    buf = io.BytesIO()
    write_stream(stream, buf)
    return buf.getvalue()


#: A small stream whose header (names and meta) is most of its bytes.
NAMED = PointStream([[0, 0, 0], [1, 2, 3], [4, 5, 6]], [0, 3, 1], [0, 2, 2], 4,
                    LabelMap(("floor", "wall", "c\u00e9", "door")),
                    {"scene": "room", "ticks": "3"})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_one_byte_mutation_parses_or_raises_a_stream_error(data):
    """Flip, insert or delete one byte of a stream file: it reads back as a
    stream that writes to the same bytes, or raises a stream error, never
    another exception."""
    blob = bytearray(_bytes(NAMED))
    i = data.draw(st.integers(0, len(blob)), label="at")
    op = data.draw(st.sampled_from(["flip", "insert", "delete"]), label="op")
    if op == "insert":
        blob.insert(i, data.draw(st.integers(0, 255), label="byte"))
    elif i < len(blob):
        if op == "flip":
            blob[i] ^= data.draw(st.integers(1, 255), label="mask")
        else:
            del blob[i]
    try:
        assert _bytes(read_stream(bytes(blob))) == blob
    except (StreamFormatError, StreamValidationError):
        pass


@pytest.mark.parametrize("key", [b"tzzzz", b"ticks"], ids=["out-of-order", "repeated"])
def test_meta_keys_out_of_order_or_repeated_are_a_format_error(key):
    """The writer puts each meta key once, in sorted order: a file with
    "scene" overwritten so that it follows or repeats "ticks" is refused."""
    blob = _bytes(NAMED).replace(b"scene", key)
    with pytest.raises(StreamFormatError, match="meta keys not strictly increasing"):
        read_stream(blob)


def test_name_that_is_not_utf8_is_a_format_error():
    blob = bytearray(_bytes(NAMED))
    blob[blob.index(b"wall")] = 0xFF
    with pytest.raises(StreamFormatError, match="class name is not UTF-8"):
        read_stream(bytes(blob))


def test_read_from_a_path_names_the_path(tmp_path):
    path = tmp_path / "cut.bin"
    path.write_bytes(_bytes(NAMED)[:-1])
    with pytest.raises(StreamFormatError) as exc:
        read_stream(path)
    assert str(exc.value).startswith(f"{path}: ")
    path.write_bytes(_forge_file([(0, 0, 0, 11, 0)]))
    with pytest.raises(StreamValidationError) as exc:
        read_stream(str(path))
    assert str(exc.value).startswith(f"{path}: label 11 at index 0")


@pytest.mark.parametrize("names, meta, field", [
    (("x" * 70000,), None, "class name 0"),
    (("a", "\ud800"), None, "class name 1"),
    (None, {"k" * 65536: ""}, "meta key 0"),
    (None, {f"k{i:05}": "" for i in range(65536)}, "meta entry count"),
], ids=["long-name", "surrogate", "long-meta-key", "many-meta-entries"])
def test_value_the_format_cannot_hold_is_refused_before_writing(
        tmp_path, names, meta, field):
    """A class name or meta key past its uint16 length, a string that UTF-8
    cannot encode or more meta entries than uint16 counts: write_stream
    raises StreamValidationError naming the field and creates no file."""
    label_map = LabelMap(names) if names else None
    stream = PointStream(np.zeros((1, 3)), [0], [0], len(names or "a"),
                         label_map, meta)
    path = tmp_path / "stream.bin"
    with pytest.raises(StreamValidationError, match=f"^{field} "):
        write_stream(stream, path)
    assert not path.exists()
