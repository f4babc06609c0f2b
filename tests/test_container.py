"""Round-trip and corruption tests for the binary model container."""

import struct
import sys
import zlib

import numpy as np
import pytest

from deepreflecs import container


def sample_blob():
    arrays = [
        ("layer.weights", np.arange(6, dtype=np.float32).reshape(2, 3)),
        ("layer.bias", np.array([1.5, -2.5], dtype=np.float32)),
        ("tree.nodes", np.array([[1, 2], [3, 4]], dtype=np.int64)),
    ]
    return container.write_container(
        b"TEST",
        {"alpha": 1, "beta": "two"},
        (np.array([0.5, 1.5]), np.array([1.0, 2.0])),
        arrays,
    )


def test_round_trip():
    blob = sample_blob()
    parsed = container.read_container(blob, b"TEST")
    assert parsed.version == container.FORMAT_VERSION
    assert parsed.config == {"alpha": 1, "beta": "two"}
    np.testing.assert_array_equal(parsed.norm_means, [0.5, 1.5])
    np.testing.assert_array_equal(parsed.norm_stds, [1.0, 2.0])
    np.testing.assert_array_equal(
        parsed.arrays["layer.weights"], np.arange(6, dtype=np.float32).reshape(2, 3)
    )
    assert parsed.arrays["tree.nodes"].dtype == np.int64


def test_wrong_magic():
    with pytest.raises(container.MagicError):
        container.read_container(sample_blob(), b"RFLN")


def test_future_version_names_both_versions():
    blob = bytearray(sample_blob())
    blob[4:8] = struct.pack("<I", 7)
    with pytest.raises(container.VersionError) as err:
        container.read_container(bytes(blob), b"TEST")
    message = str(err.value)
    assert "7" in message and str(container.FORMAT_VERSION) in message


def test_truncated_file():
    blob = sample_blob()
    with pytest.raises(container.TruncationError):
        container.read_container(blob[:-10], b"TEST")


def test_corrupted_length_field_is_truncation():
    blob = bytearray(sample_blob())
    # inflate the config-length field so the declared content overruns the file
    blob[8:12] = struct.pack("<I", 10_000_000)
    with pytest.raises(container.TruncationError):
        container.read_container(bytes(blob), b"TEST")


def test_flipped_payload_bit_is_checksum_failure():
    blob = bytearray(sample_blob())
    blob[-20] ^= 0x40  # inside the last array's data
    with pytest.raises(container.ChecksumError):
        container.read_container(bytes(blob), b"TEST")


def test_empty_norm_block():
    blob = container.write_container(b"TEST", {}, None, [])
    parsed = container.read_container(blob, b"TEST")
    assert parsed.norm_means.size == 0
    assert parsed.arrays == {}


def with_fresh_crc(blob: bytes) -> bytes:
    """Re-seal an edited payload so only the edit itself is wrong."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def test_config_that_is_not_an_object_is_container_error():
    blob = container.write_container(b"TEST", [1, 2], None, [])
    with pytest.raises(container.ContainerError, match="not an object"):
        container.read_container(blob, b"TEST")


def test_config_with_an_integer_too_long_to_read_is_container_error():
    # json.loads refuses an integer of more than 4,300 digits with a bare ValueError
    blob = container.write_container(b"TEST", {"a": 1}, None, [])
    at = blob.index(b'{"a": 1}')
    config = b'{"a": ' + b"1" * 5000 + b"}"
    blob = blob[: at - 4] + struct.pack("<I", len(config)) + config + blob[at + 8 :]
    with pytest.raises(container.ContainerError, match="not valid JSON"):
        container.read_container(with_fresh_crc(blob), b"TEST")


def test_non_utf8_array_name_is_container_error():
    blob = container.write_container(b"TEST", {}, None, [("ab", np.zeros(2))])
    at = blob.index(b"ab")
    blob = with_fresh_crc(blob[:at] + b"\xff\xfe" + blob[at + 2 :])
    with pytest.raises(container.ContainerError, match="UTF-8"):
        container.read_container(blob, b"TEST")


@pytest.mark.skipif(sys.byteorder != "little", reason="a big-endian host swaps bytes in a copy")
def test_arrays_are_read_only_bitwise_views_of_the_parsed_bytes():
    arrays = [
        ("f32", np.array([[1.5, -0.0], [np.pi, 1e-40]], dtype=np.float32)),
        ("f64", np.array([np.e, -1e300, 5e-324])),
        ("i32", np.array([-(2**31), 2**31 - 1, 0], dtype=np.int32)),
        ("i64", np.array([-(2**63)], dtype=np.int64)),
        ("empty", np.zeros((0, 3), dtype=np.float32)),
    ]
    means, stds = np.array([0.25, -3.0]), np.array([1.0, 1e-9])
    blob = container.write_container(b"TEST", {}, (means, stds), arrays)
    parsed = container.read_container(blob, b"TEST")
    file_bytes = np.frombuffer(blob, dtype=np.uint8)
    for original, read in [(means, parsed.norm_means), (stds, parsed.norm_stds)] + [
        (array, parsed.arrays[name]) for name, array in arrays
    ]:
        assert not read.flags.writeable
        assert read.size == 0 or np.shares_memory(read, file_bytes)
        assert read.dtype == original.dtype and read.shape == original.shape
        assert read.tobytes() == original.tobytes()


def test_read_copies_no_array():
    import tracemalloc

    weights = np.arange(2**20, dtype=np.float32)  # 4 MiB
    blob = container.write_container(b"TEST", {}, None, [("w", weights)])
    tracemalloc.start()
    try:
        parsed = container.read_container(blob, b"TEST")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(parsed.arrays["w"], weights)
    assert peak < 0.1 * weights.nbytes
