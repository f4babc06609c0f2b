"""Versioned binary container for trained models.

Layout (all integers little-endian):

    magic            4 bytes (identifies the model family)
    format version   u32
    config block     u32 length + UTF-8 JSON
    norm-stats block u32 count + count float64 means + count float64 stds
    array blocks     u32 count, then per array:
                         u32 name length + UTF-8 name
                         u8 dtype code (0=f32, 1=f64, 2=i32, 3=i64)
                         u32 ndim + ndim u32 dims
                         raw element data
    checksum         u32 CRC-32 of every preceding byte

Learnable parameters are stored as 32-bit floats; normalization statistics
keep full float64 precision. Loading never returns a partial model: the
whole payload is parsed and the checksum verified before anything is
handed back. The arrays handed back are read-only views of the parsed
bytes, not copies.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

FORMAT_VERSION = 1

_DTYPE_CODES = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.int32): 2,
    np.dtype(np.int64): 3,
}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


class ContainerError(ValueError):
    """Base class for model-file load failures."""


class MagicError(ContainerError):
    """The file does not carry the expected magic string."""


class VersionError(ContainerError):
    """The file was written by an unsupported format version."""


class TruncationError(ContainerError):
    """The file ends before the declared content does."""


class ChecksumError(ContainerError):
    """The trailing CRC-32 does not match the file content."""


@dataclass
class Container:
    """Parsed content of a model file."""

    magic: bytes
    version: int
    config: dict
    norm_means: np.ndarray
    norm_stds: np.ndarray
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)


def write_container(
    magic: bytes,
    config: dict,
    norm_stats: Tuple[np.ndarray, np.ndarray] | None,
    arrays: List[Tuple[str, np.ndarray]],
) -> bytes:
    """Serialize config, norm stats and named arrays into one byte blob."""
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    out = bytearray()
    out += magic
    out += struct.pack("<I", FORMAT_VERSION)

    config_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    out += struct.pack("<I", len(config_bytes))
    out += config_bytes

    if norm_stats is None:
        means = np.zeros(0, dtype=np.float64)
        stds = np.zeros(0, dtype=np.float64)
    else:
        means = np.asarray(norm_stats[0], dtype=np.float64)
        stds = np.asarray(norm_stats[1], dtype=np.float64)
    out += struct.pack("<I", means.size)
    out += means.astype("<f8").tobytes()
    out += stds.astype("<f8").tobytes()

    out += struct.pack("<I", len(arrays))
    for name, array in arrays:
        array = np.ascontiguousarray(array)
        if array.dtype not in _DTYPE_CODES:
            raise ValueError(f"unsupported array dtype {array.dtype} for '{name}'")
        name_bytes = name.encode("utf-8")
        out += struct.pack("<I", len(name_bytes))
        out += name_bytes
        out += struct.pack("<B", _DTYPE_CODES[array.dtype])
        out += struct.pack("<I", array.ndim)
        out += struct.pack(f"<{array.ndim}I", *array.shape)
        out += array.astype(array.dtype.newbyteorder("<")).tobytes()

    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip(self, n: int) -> int:
        """Advance past n bytes; returns the offset they start at."""
        if n < 0 or self.pos + n > len(self.data):
            raise TruncationError(
                f"file ends at byte {len(self.data)} but {n} more bytes were "
                f"declared at offset {self.pos}"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        start = self.skip(n)
        return self.data[start : self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def array(self, dtype: np.dtype, shape: Tuple[int, ...]) -> np.ndarray:
        """The next array of this dtype and shape, a read-only view of the file.

        Only a big-endian host copies, to swap the byte order.
        """
        count = math.prod(shape)
        start = self.skip(count * dtype.itemsize)
        little = np.frombuffer(self.data, dtype.newbyteorder("<"), count, start)
        array = little.reshape(shape).astype(dtype, copy=False)
        array.flags.writeable = False
        return array


def read_container(data: bytes, expected_magic: bytes) -> Container:
    """Parse and validate a container; raises a distinct error per defect."""
    reader = _Reader(data)
    magic = reader.take(4)
    if magic != expected_magic:
        raise MagicError(
            f"expected magic {expected_magic!r}, found {magic!r}"
        )
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise VersionError(
            f"file format version {version} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )

    config_bytes = reader.take(reader.u32())
    try:
        config = json.loads(config_bytes.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer too long to read
        raise ContainerError(f"config block is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ContainerError(
            f"config block is a JSON {type(config).__name__}, not an object"
        )

    n_stats = reader.u32()
    norm_means = reader.array(np.dtype(np.float64), (n_stats,))
    norm_stds = reader.array(np.dtype(np.float64), (n_stats,))

    arrays: Dict[str, np.ndarray] = {}
    n_arrays = reader.u32()
    for _ in range(n_arrays):
        name_len = reader.u32()
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"array name is not valid UTF-8: {exc}") from exc
        code = reader.u8()
        if code not in _CODE_DTYPES:
            raise ContainerError(f"unknown dtype code {code} for array '{name}'")
        dtype = _CODE_DTYPES[code]
        ndim = reader.u32()
        if ndim > 8:
            raise ContainerError(f"implausible rank {ndim} for array '{name}'")
        shape = struct.unpack(f"<{ndim}I", reader.take(4 * ndim))
        arrays[name] = reader.array(dtype, shape)

    stored_crc = reader.u32()
    if reader.pos != len(data):
        raise ContainerError(
            f"{len(data) - reader.pos} trailing bytes after the checksum"
        )
    actual_crc = zlib.crc32(memoryview(data)[: reader.pos - 4])
    if stored_crc != actual_crc:
        raise ChecksumError(
            f"stored checksum {stored_crc:#010x} != computed {actual_crc:#010x}"
        )
    return Container(
        magic=magic,
        version=version,
        config=config,
        norm_means=norm_means,
        norm_stds=norm_stds,
        arrays=arrays,
    )


# an expected array block: (shape, dtype kind), kind "f" float or "i" integer
ArraySpec = Tuple[Tuple[int, ...], str]


def check_contents(
    parsed: Container,
    expected: Dict[str, ArraySpec],
    n_stats: int,
) -> None:
    """Reject a parsed file whose blocks do not fit the model its config declares.

    The file must hold exactly the expected arrays, each with its shape,
    dtype kind and only finite values, plus a norm-stats block of n_stats
    finite means and positive, finite stds.
    """
    means, stds = parsed.norm_means, parsed.norm_stds
    if means.size != n_stats:
        raise ContainerError(f"norm-stats block has {means.size} entries, expected {n_stats}")
    if not (np.isfinite(means).all() and np.isfinite(stds).all() and (stds > 0).all()):
        raise ContainerError(
            "norm-stats block holds a mean that is not finite or a std that is "
            "not positive and finite"
        )
    unexpected = sorted(set(parsed.arrays) - set(expected))
    if unexpected:
        raise ContainerError(
            f"unexpected array blocks {unexpected[:3]}; the model has exactly {list(expected)}"
        )
    for name, (shape, kind) in expected.items():
        array = parsed.arrays.get(name)
        if array is None:
            problem = "is missing"
        elif array.shape != shape:
            problem = f"has shape {array.shape}, expected {shape}"
        elif array.dtype.kind != kind:
            problem = f"has dtype {array.dtype}, expected dtype kind '{kind}'"
        elif kind == "f" and not np.isfinite(array).all():
            problem = "holds a value that is not finite"
        else:
            continue
        raise ContainerError(f"array '{name}' {problem}")


def peek_magic(data: bytes) -> bytes:
    """First four bytes of a model file (for format dispatch)."""
    if len(data) < 4:
        raise TruncationError("file shorter than the 4-byte magic")
    return data[:4]
