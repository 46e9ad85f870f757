import copy
import json
import os

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
