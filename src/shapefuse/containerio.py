"""Self-describing binary container for numeric artifacts.

Layout: 4 magic bytes, a uint64 little-endian header length, a UTF-8 JSON
header, then the raw array payload back to back. The header lists array
names/shapes/dtypes in payload order plus free-form metadata; all float
arrays are little-endian float64. A sha256 of the payload is stored so
readers can detect corruption.

Body models, datasets and network weights all use this one format
(distinguished by the header's "kind" field). Arrays stream between their
own buffers and the file, hashed on the way; the payload is never copied.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import secrets

import numpy as np

MAGIC = b"SFC1"
FORMAT_VERSION = "1"

# dtypes allowed in the payload; everything is stored little-endian.
_ALLOWED_DTYPES = {"<f8", "<i8", "|u1"}
# the stored dtype of each writable array kind; uint8 is stored as it is
_STORED = {"f": "<f8", "i": "<i8", "u": "<i8", "b": "<i8"}


class ContainerError(ValueError):
    """Malformed, truncated or incompatible container file."""


def _canonical(arr) -> np.ndarray:
    """`arr` as a C-ordered float64, int64 or uint8 array; a copy only when
    its layout or dtype differs."""
    arr = np.asarray(arr)
    dtype = "|u1" if arr.dtype == np.uint8 else _STORED.get(arr.dtype.kind)
    if dtype is None:
        raise ContainerError(f"unsupported array dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=dtype)


def _json_scalar(value):
    """json's fallback: a numpy scalar in metadata is written as the Python scalar it holds."""
    return value.item() if isinstance(value, np.generic) else json.JSONEncoder().default(value)


def write_container(path, kind: str, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays plus metadata to `path`.

    Arrays are converted to float64/int64/uint8; the header JSON is
    serialized with sorted keys so identical inputs give identical bytes.
    The file is replaced atomically.
    """
    arrays = {name: _canonical(arr) for name, arr in arrays.items()}
    digest = hashlib.sha256()
    for arr in arrays.values():
        digest.update(arr)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "arrays": [{"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str}
                   for name, arr in arrays.items()],
        "meta": meta or {},
        "payload_sha256": digest.hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              default=_json_scalar).encode("utf-8")

    # write a sibling file, then rename it over `path`: readers see the old
    # file or the complete new one, never a partial write
    tmp = f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(MAGIC)
            f.write(len(header_bytes).to_bytes(8, "little"))
            f.write(header_bytes)
            for arr in arrays.values():
                f.write(arr)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _array_entries(path, header) -> list:
    """The header's array table, checked so that reading the payload can
    only fail with ContainerError."""
    entries = header.get("arrays")
    if not isinstance(entries, list) or not isinstance(header.get("meta"), dict):
        raise ContainerError(f"{path}: header lacks the array table or the metadata")
    for e in entries:
        if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in e["shape"])):
            raise ContainerError(f"{path}: malformed array entry {e!r}")
        if not isinstance(e.get("dtype"), str) or e["dtype"] not in _ALLOWED_DTYPES:
            raise ContainerError(f"{path}: disallowed dtype {e.get('dtype')!r}")
    return entries


def read_container(path, expected_kind: str | None = None):
    """Read a container; returns (arrays dict, meta dict).

    Raises ContainerError, and no other error, on wrong magic, version
    mismatch, a malformed header, truncation, checksum failure or
    unexpected kind. Sizes are checked against the file before anything is
    read, and each array is read into its own writeable buffer.
    """
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        preamble = f.read(12)
        if len(preamble) < 12:
            raise ContainerError(f"{path}: file too short to be a container")
        if preamble[:4] != MAGIC:
            raise ContainerError(f"{path}: bad magic bytes")
        header_len = int.from_bytes(preamble[4:], "little")
        if file_size < 12 + header_len:
            raise ContainerError(f"{path}: truncated header")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ContainerError(f"{path}: unreadable header ({exc!r})") from exc
        if not isinstance(header, dict):
            raise ContainerError(f"{path}: header is not a JSON object")

        if header.get("format_version") != FORMAT_VERSION:
            raise ContainerError(
                f"{path}: format version {header.get('format_version')!r} "
                f"not supported (expected {FORMAT_VERSION!r})"
            )
        if expected_kind is not None and header.get("kind") != expected_kind:
            raise ContainerError(
                f"{path}: container kind {header.get('kind')!r}, expected {expected_kind!r}"
            )
        entries = _array_entries(path, header)

        payload_size = file_size - 12 - header_len
        size = sum(math.prod(e["shape"]) * np.dtype(e["dtype"]).itemsize for e in entries)
        if payload_size != size:
            raise ContainerError(
                f"{path}: payload size {payload_size} != expected {size} (truncated?)"
            )
        digest = hashlib.sha256()
        arrays = {}
        for entry in entries:
            try:
                arr = np.empty(entry["shape"], dtype=entry["dtype"])
            except ValueError as exc:  # an empty array with dimensions numpy cannot index
                raise ContainerError(f"{path}: array {entry['name']!r}: {exc}") from exc
            f.readinto(arr)  # a file cut while it is read fails the checksum
            digest.update(arr)
            arrays[entry["name"]] = arr

    if digest.hexdigest() != header.get("payload_sha256"):
        raise ContainerError(f"{path}: payload checksum mismatch")
    return arrays, header["meta"]
