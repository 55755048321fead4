import io

import numpy as np
import pytest

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
