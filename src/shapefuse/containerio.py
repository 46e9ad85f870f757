"""Self-describing binary container for numeric artifacts.

Layout: 4 magic bytes, a uint64 little-endian header length, a UTF-8 JSON
header, then the raw array payload back to back. The header lists array
names/shapes/dtypes in payload order plus free-form metadata; all float
arrays are little-endian float64. A sha256 of the payload is stored so
readers can detect corruption.

Body models, datasets, network weights and prediction files all use this
one format (distinguished by the header's "kind" field).
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


class ContainerError(ValueError):
    """Malformed, truncated or incompatible container file."""


def _canonical_dtype(arr: np.ndarray) -> str:
    if arr.dtype == np.float64:
        return "<f8"
    if arr.dtype == np.int64:
        return "<i8"
    if arr.dtype == np.uint8:
        return "|u1"
    raise ContainerError(f"unsupported array dtype {arr.dtype}")


def write_container(path, kind: str, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays plus metadata to `path`.

    Arrays are converted to float64/int64/uint8; the header JSON is
    serialized with sorted keys so identical inputs give identical bytes.
    The file is replaced atomically.
    """
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.kind == "f":
            arr = arr.astype(np.float64)
        elif arr.dtype.kind in "iub" and arr.dtype != np.uint8:
            arr = arr.astype(np.int64)
        dtype = _canonical_dtype(arr)
        blob = arr.astype(np.dtype(dtype)).tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        blobs.append(blob)

    payload = b"".join(blobs)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "arrays": entries,
        "meta": meta or {},
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    # write a sibling file, then rename it over `path`: readers see the old
    # file or the complete new one, never a partial write
    tmp = f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(MAGIC)
            f.write(len(header_bytes).to_bytes(8, "little"))
            f.write(header_bytes)
            f.write(payload)
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
    unexpected kind.
    """
    with open(path, "rb") as f:
        data = f.read()

    if len(data) < 12:
        raise ContainerError(f"{path}: file too short to be a container")
    if data[:4] != MAGIC:
        raise ContainerError(f"{path}: bad magic bytes")
    header_len = int.from_bytes(data[4:12], "little")
    if len(data) < 12 + header_len:
        raise ContainerError(f"{path}: truncated header")
    try:
        header = json.loads(data[12 : 12 + header_len].decode("utf-8"))
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

    payload = data[12 + header_len :]
    expected_size = sum(math.prod(e["shape"]) * np.dtype(e["dtype"]).itemsize for e in entries)
    if len(payload) != expected_size:
        raise ContainerError(
            f"{path}: payload size {len(payload)} != expected {expected_size} (truncated?)"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise ContainerError(f"{path}: payload checksum mismatch")

    arrays = {}
    offset = 0
    for entry in entries:
        dt = np.dtype(entry["dtype"])
        count = math.prod(entry["shape"])
        raw = payload[offset : offset + count * dt.itemsize]
        try:
            arrays[entry["name"]] = np.frombuffer(raw, dtype=dt).reshape(entry["shape"]).copy()
        except ValueError as exc:  # an empty array with dimensions numpy cannot index
            raise ContainerError(f"{path}: array {entry['name']!r}: {exc}") from exc
        offset += count * dt.itemsize

    return arrays, header["meta"]
