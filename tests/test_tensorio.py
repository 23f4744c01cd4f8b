"""TSR1 tensor file format and PGM export."""

import struct

import numpy as np
import pytest

from taskdenoise.errors import FormatError
from taskdenoise.tensorio import read_tensor, write_pgm, write_tensor


class TestRoundTrip:
    @pytest.mark.parametrize("shape", [(), (1,), (3, 4), (2, 3, 4), (1, 2, 3, 4)])
    def test_bit_exact(self, tmp_path, shape):
        rng = np.random.default_rng(0)
        data = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "t.tsr1"
        write_tensor(path, data)
        back = read_tensor(path)
        assert back.shape == data.shape
        assert back.tobytes() == data.tobytes()

    def test_layout(self, tmp_path):
        path = tmp_path / "t.tsr1"
        write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]], np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"TSR1"
        assert raw[4] == 2
        assert struct.unpack("<2I", raw[5:13]) == (2, 2)
        assert np.frombuffer(raw[13:], "<f4").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_write_is_deterministic(self, tmp_path):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        write_tensor(tmp_path / "a.tsr1", data)
        write_tensor(tmp_path / "b.tsr1", data)
        assert (tmp_path / "a.tsr1").read_bytes() == (tmp_path / "b.tsr1").read_bytes()


class TestErrors:
    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.tsr1"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(FormatError) as err:
            read_tensor(path)
        assert err.value.offset == 0

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.tsr1"
        write_tensor(path, np.ones((4, 4), np.float32))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError) as err:
            read_tensor(path)
        assert err.value.offset == len(raw) - 8

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_reports_its_offset(self, tmp_path, value):
        data = np.zeros((3, 4), np.float32)
        data[1, 2] = value
        data[2, 0] = value  # only the first is named
        path = tmp_path / "nan.tsr1"
        write_tensor(path, data)
        with pytest.raises(FormatError, match="non-finite value") as err:
            read_tensor(path)
        assert err.value.offset == 5 + 4 * 2 + 4 * (1 * 4 + 2)
        assert err.value.path == str(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "hdr.tsr1"
        path.write_bytes(b"TSR1\x03\x01\x00")
        with pytest.raises(FormatError):
            read_tensor(path)


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        img = np.array([[0, 128], [255, 64]], np.float32)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[-4:]) == [0, 128, 255, 64]

    def test_normalized(self, tmp_path):
        path = tmp_path / "n.pgm"
        write_pgm(path, np.array([[1.0, 2.0]]))
        assert list(path.read_bytes()[-2:]) == [128, 255]

    def test_all_zero_normalized(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_pgm(path, np.zeros((2, 2)))
        assert list(path.read_bytes()[-4:]) == [0, 0, 0, 0]
