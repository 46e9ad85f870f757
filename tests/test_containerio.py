import copy
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapefuse import containerio
from shapefuse.containerio import MAGIC, ContainerError, read_container, write_container

ARRAYS = {
    "weights": np.arange(6.0).reshape(2, 3),
    "labels": np.array([3, -1], dtype=np.int64),
    "bits": np.array([1, 2, 255], dtype=np.uint8),
    "faces": np.zeros((0, 3), dtype=np.int64),
}


def split(data: bytes):
    """(header dict, payload bytes) of a container file's contents."""
    header_len = int.from_bytes(data[4:12], "little")
    return json.loads(data[12 : 12 + header_len]), data[12 + header_len :]


def assemble(header, payload: bytes) -> bytes:
    header_bytes = json.dumps(header).encode("utf-8")
    return MAGIC + len(header_bytes).to_bytes(8, "little") + header_bytes + payload


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    path = tmp_path_factory.mktemp("container") / "valid.sfc"
    write_container(path, "test", ARRAYS, {"note": "x"})
    return path.read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.sfc"


def read_bytes_as_container(path, data: bytes):
    path.write_bytes(data)
    return read_container(path)


class TestRoundTrip:
    def test_arrays_and_meta_survive(self, tmp_path):
        path = tmp_path / "c.sfc"
        write_container(path, "test", ARRAYS, {"note": "x"})
        arrays, meta = read_container(path, expected_kind="test")
        assert meta == {"note": "x"}
        for name, arr in ARRAYS.items():
            assert arrays[name].dtype == arr.dtype
            np.testing.assert_array_equal(arrays[name], arr)

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.sfc"
        write_container(path, "test", ARRAYS, {"version": 1})
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(containerio.os, "replace", fail)
        with pytest.raises(OSError):
            write_container(path, "test", ARRAYS, {"version": 2})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.sfc"]


class TestMalformedHeaders:
    @pytest.mark.parametrize("mutate", [
        lambda h: h["arrays"][0].update(dtype="not-a-dtype"),
        lambda h: h.pop("arrays"),
        lambda h: h.pop("meta"),
        lambda h: h["arrays"][0].update(shape=[-1, -1]),
        lambda h: h["arrays"][3].update(shape=[0, 2**70]),
        lambda h: h["arrays"][0].update(shape="23"),
        lambda h: h["arrays"][0].update(name=["weights"]),
    ], ids=["bad-dtype", "no-arrays", "no-meta", "inferred-dims", "huge-empty",
            "string-shape", "list-name"])
    def test_only_container_error(self, valid, scratch, mutate):
        header, payload = split(valid)
        mutate(header)
        with pytest.raises(ContainerError):
            read_bytes_as_container(scratch, assemble(header, payload))

    @pytest.mark.parametrize("header_bytes", [b"[1, 2]", b'"text"', b"[" * 100_000])
    def test_header_not_an_object(self, scratch, header_bytes):
        data = MAGIC + len(header_bytes).to_bytes(8, "little") + header_bytes
        with pytest.raises(ContainerError):
            read_bytes_as_container(scratch, data)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated during `fn()`."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreaming:
    """Each array's bytes move once between its own buffer and the file."""

    BIG = {
        "floats": np.linspace(0.0, 1.0, 1_000_000),
        "ints": np.arange(-50_000, 50_000, dtype=np.int64).reshape(100, 1000),
        "bits": np.arange(300_000, dtype=np.int64).astype(np.uint8),
    }
    PAYLOAD = sum(a.nbytes for a in BIG.values())

    def test_read_peaks_near_payload(self, tmp_path):
        assert self.PAYLOAD >= 8_000_000
        path = tmp_path / "big.sfc"
        write_container(path, "test", self.BIG, {"note": "x"})
        assert traced_peak(lambda: read_container(path)) < 1.25 * self.PAYLOAD

    def test_write_allocates_no_payload_copy(self, tmp_path):
        path = tmp_path / "big.sfc"
        assert traced_peak(lambda: write_container(path, "test", self.BIG)) < 0.1 * self.PAYLOAD
        arrays, _ = read_container(path)
        for name, arr in self.BIG.items():
            np.testing.assert_array_equal(arrays[name], arr)

    def test_arrays_writeable_and_owned(self, tmp_path):
        # optimizers update loaded moments in place
        path = tmp_path / "c.sfc"
        write_container(path, "test", ARRAYS)
        for arr in read_container(path)[0].values():
            assert arr.flags.writeable and arr.flags.owndata and arr.flags.c_contiguous

    @pytest.mark.parametrize("header_len", [2**63 - 1, 2**40, 2**64 - 1])
    def test_header_length_beyond_file_rejected(self, valid, scratch, header_len):
        data = valid[:4] + header_len.to_bytes(8, "little") + valid[12:]
        with pytest.raises(ContainerError, match="truncated header"):
            read_bytes_as_container(scratch, data)

    @pytest.mark.parametrize("given, canonical", [
        (np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4),
         np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4).astype(np.float64)),
        (np.array([[True, False], [False, True]]), np.array([[1, 0], [0, 1]], dtype=np.int64)),
        (np.arange(-3, 3, dtype=np.int32), np.arange(-3, 3, dtype=np.int64)),
        (np.arange(5, dtype=np.uint16), np.arange(5, dtype=np.int64)),
        (np.linspace(-1, 1, 6).astype(">f8"), np.linspace(-1, 1, 6)),
        (np.arange(-3, 3).astype(">i8"), np.arange(-3, 3, dtype=np.int64)),
        (np.asfortranarray(np.arange(12.0).reshape(3, 4)), np.arange(12.0).reshape(3, 4)),
        (np.arange(24.0).reshape(4, 6)[::2, 1::2], np.array([[1.0, 3.0, 5.0], [13.0, 15.0, 17.0]])),
        (np.float64(2.5), np.array([2.5])),
    ], ids=["float32", "bool", "int32", "uint16", "big-endian-float", "big-endian-int",
            "fortran", "strided", "scalar"])
    def test_input_forms_write_canonical_bytes(self, tmp_path, given, canonical):
        write_container(tmp_path / "given.sfc", "test", {"a": given, "bits": ARRAYS["bits"]})
        write_container(tmp_path / "canon.sfc", "test", {"a": canonical, "bits": ARRAYS["bits"]})
        assert (tmp_path / "given.sfc").read_bytes() == (tmp_path / "canon.sfc").read_bytes()

    @pytest.mark.parametrize("dtype", [np.complex128, "U3", object, "M8[s]"])
    def test_unsupported_dtype_rejected_before_writing(self, tmp_path, dtype):
        with pytest.raises(ContainerError, match="unsupported array dtype"):
            write_container(tmp_path / "c.sfc", "test", {"a": np.zeros(2, dtype=dtype)})
        assert list(tmp_path.iterdir()) == []

    def test_numpy_scalars_in_meta_written_as_python_scalars(self, tmp_path):
        given = {"n": np.int64(32), "f": np.float32(40.0), "b": np.bool_(True),
                 "nested": {"xs": [np.uint8(3), np.float64(0.5)]}}
        plain = {"n": 32, "f": 40.0, "b": True, "nested": {"xs": [3, 0.5]}}
        write_container(tmp_path / "given.sfc", "test", ARRAYS, given)
        write_container(tmp_path / "plain.sfc", "test", ARRAYS, plain)
        assert (tmp_path / "given.sfc").read_bytes() == (tmp_path / "plain.sfc").read_bytes()
        meta = read_container(tmp_path / "given.sfc")[1]
        assert meta == plain and type(meta["n"]) is int and type(meta["f"]) is float

    def test_other_meta_objects_still_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_container(tmp_path / "c.sfc", "test", ARRAYS, {"x": object()})
        assert list(tmp_path.iterdir()) == []


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
field_values = {
    "shape": st.lists(st.integers(-3, 2**64) | st.sampled_from([0, 1, 2, 3, 6]), max_size=3)
    | json_values,
    "dtype": st.sampled_from(["<f8", "<i8", "|u1", ">f8", "O", "V8", "<U3", "float64"])
    | json_values,
}


@st.composite
def mutated_headers(draw, base):
    header = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        target = header
        entries = header.get("arrays") if isinstance(header, dict) else None
        if isinstance(entries, list) and entries and draw(st.booleans()):
            target = draw(st.sampled_from(entries))
        if not isinstance(target, dict):
            break
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(field_values.get(key, json_values))
    if draw(st.integers(0, 9)) == 0:
        header = draw(json_values)
    return header


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_header(self, valid, scratch, data):
        header, payload = split(valid)
        mutated = data.draw(mutated_headers(header))
        try:
            read_bytes_as_container(scratch, assemble(mutated, payload))
        except ContainerError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_bytes(self, valid, scratch, data):
        raw = bytearray(valid)
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        raw = raw[: data.draw(st.integers(0, len(raw)))]
        try:
            read_bytes_as_container(scratch, bytes(raw))
        except ContainerError:
            pass
