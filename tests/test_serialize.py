"""Tensor-file format checks: roundtrips, corruption, atomicity."""

import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings

from helpers import mutated
from texsyn import serialize
from texsyn.serialize import (
    LOSS_COLUMNS,
    LossLog,
    WeightFormatError,
    header_ints,
    load_checked,
    load_tensors,
    save_tensors,
)
from texsyn.transfer import LOG_COLUMNS


def sample_tensors():
    g = np.random.default_rng(7)
    return {
        "alpha": g.standard_normal((3, 4)).astype(np.float32),
        "beta.kernel": g.standard_normal((2, 3, 3, 3)).astype(np.float32),
        "gamma": np.float32(2.5).reshape(()),  # rank 0
        "delta": g.standard_normal(7).astype(np.float32),
    }


def test_roundtrip_bit_exact(tmp_path):
    path = str(tmp_path / "w.bin")
    tensors = sample_tensors()
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == np.asarray(tensors[name]).shape
        np.testing.assert_array_equal(loaded[name], tensors[name])


def test_file_size_is_header_plus_payload(tmp_path):
    path = str(tmp_path / "w.bin")
    tensors = sample_tensors()
    save_tensors(path, tensors)
    expected = 4 + 8  # magic + version/count
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        expected += 2 + len(name) + 1 + 4 * arr.ndim + 4 * arr.size
    assert os.path.getsize(path) == expected


def test_corrupt_magic_rejected(tmp_path):
    path = str(tmp_path / "w.bin")
    save_tensors(path, sample_tensors())
    blob = bytearray(open(path, "rb").read())
    blob[:4] = b"XXXX"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(WeightFormatError, match="magic"):
        load_tensors(path)


def test_truncated_file_reports_offset(tmp_path):
    path = str(tmp_path / "w.bin")
    save_tensors(path, sample_tensors())
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 5])
    with pytest.raises(WeightFormatError, match="offset"):
        load_tensors(path)


def test_trailing_garbage_rejected(tmp_path):
    path = str(tmp_path / "w.bin")
    save_tensors(path, sample_tensors())
    with open(path, "ab") as f:
        f.write(b"\x00\x01")
    with pytest.raises(WeightFormatError, match="trailing"):
        load_tensors(path)


def test_unsupported_version_rejected(tmp_path):
    path = str(tmp_path / "w.bin")
    save_tensors(path, {})
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = struct.pack("<I", 99)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(WeightFormatError, match="version"):
        load_tensors(path)


def test_write_is_atomic_no_partial_on_failure(tmp_path, monkeypatch):
    path = str(tmp_path / "w.bin")
    save_tensors(path, {"a": np.zeros(3, dtype=np.float32)})
    original = open(path, "rb").read()

    def boom(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(serialize.os, "replace", boom)
    with pytest.raises(OSError):
        save_tensors(path, {"b": np.ones(5, dtype=np.float32)})
    # destination untouched, no temp files left behind
    assert open(path, "rb").read() == original
    assert [p.name for p in tmp_path.iterdir()] == ["w.bin"]


def test_empty_mapping_roundtrips(tmp_path):
    path = str(tmp_path / "w.bin")
    save_tensors(path, {})
    assert load_tensors(path) == {}


def tensor_file(*entries) -> bytes:
    """A TXW1 file from (name bytes, dims, payload bytes) entries."""
    blob = serialize.MAGIC + struct.pack("<II", serialize.VERSION, len(entries))
    for name, dims, payload in entries:
        blob += struct.pack("<H", len(name)) + name
        blob += struct.pack(f"<B{len(dims)}I", len(dims), *dims) + payload
    return blob


@pytest.mark.parametrize(
    "entries, message",
    [
        # 2**31 * 2**31 * 4 wraps to 0 in int64
        ([(b"big", (2**31, 2**31, 4), b"")], "truncated file: need 73786976294838206464 bytes"),
        ([(b"\xff\xfe", (1,), b"\0" * 4)], "not UTF-8"),
        ([(b"a", (1,), b"\0" * 4), (b"a", (1,), b"\0" * 4)], "'a' stored twice"),
        # numpy holds at most 64 dims
        ([(b"deep", (1,) * 65, b"\0" * 4)], "'deep' has dims numpy cannot hold"),
        # zero elements, but the other dims overflow numpy's index type
        ([(b"wide", (2**32 - 1, 2**32 - 1, 0), b"")], "'wide' has dims numpy cannot hold"),
    ],
    ids=["wrapped-size", "non-utf8-name", "repeated-name", "rank-65", "unindexable-zero-size"],
)
def test_malformed_tensor_entries_raise_weight_format_error(tmp_path, entries, message):
    path = tmp_path / "w.bin"
    path.write_bytes(tensor_file(*entries))
    with pytest.raises(WeightFormatError, match=message):
        load_tensors(str(path))


VALID_TENSOR_FILE = tensor_file(
    (b"net.config", (3,), struct.pack("<3f", 2.0, 3.0, 4.0)),
    (b"a.kernel", (2, 1, 1, 2), struct.pack("<4f", 0.5, -1.0, 2.0, 0.25)),
    (b"", (), struct.pack("<f", 1.5)),
)


@given(mutated(VALID_TENSOR_FILE))
@example(tensor_file((b"deep", (1,) * 65, b"\0" * 4)))
@example(tensor_file((b"wide", (2**32 - 1, 2**32 - 1, 0), b"")))
@settings(max_examples=300, deadline=None)
def test_mutated_tensor_files_load_or_raise_weight_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(blob)
    try:
        tensors = load_tensors(str(path))
    except WeightFormatError:
        return
    assert all(a.dtype == np.float32 for a in tensors.values())


def test_header_ints_reads_integral_values():
    header = np.array([2.0, -1.0, 3.0, 7.0], dtype=np.float32)
    assert header_ints(header, "net", 3) == [2, -1, 3, 7]


@pytest.mark.parametrize(
    "header",
    [
        [2.0, float("inf"), 3.0],
        [2.0, float("nan"), 3.0],
        [2.0, 2.5, 3.0],
        [2.0, 3.0],  # shorter than 3
        [[2.0, 3.0, 4.0]],  # not 1-D
    ],
    ids=["inf", "nan", "fraction", "short", "2-d"],
)
def test_header_ints_rejects_other_headers(header):
    with pytest.raises(WeightFormatError, match="malformed 'net' config header"):
        header_ints(np.array(header, dtype=np.float32), "net", 3)


# ---------------------------------------------------------------------------
# checked model files and loss logs


def test_load_checked_returns_layout_order_and_config(tmp_path):
    path = str(tmp_path / "m.bin")
    tensors = sample_tensors()
    save_tensors(path, {"head": np.array([2.0, 3.0], dtype=np.float32), **tensors})
    names = ["delta", "alpha", "gamma", "beta.kernel"]

    def layout(header):
        return tuple(header.tolist()), {n: np.asarray(tensors[n]).shape for n in names}

    config, arrays = load_checked(path, layout, "head")
    assert config == (2.0, 3.0)
    assert list(arrays) == names


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda t: t.pop("delta"), "missing tensor 'delta'"),
        (lambda t: t.update(extra=np.zeros(1, np.float32)), "unexpected tensors"),
        (lambda t: t.update(alpha=np.zeros((4, 3), np.float32)), r"'alpha' has shape \(4, 3\)"),
        (lambda t: t.pop("head"), "lacks its 'head' config header"),
        (lambda t: t.update(alpha=np.full((3, 4), np.nan, np.float32)), "'alpha' holds NaN or inf"),
        (lambda t: t.update(gamma=np.array(-np.inf, np.float32)), "'gamma' holds NaN or inf"),
    ],
)
def test_load_checked_rejects_other_layouts(tmp_path, change, message):
    path = str(tmp_path / "m.bin")
    expected = {n: np.asarray(a).shape for n, a in sample_tensors().items()}
    tensors = {"head": np.zeros(1, np.float32), **sample_tensors()}
    change(tensors)
    save_tensors(path, tensors)
    with pytest.raises(WeightFormatError, match=message):
        load_checked(path, lambda header: (None, expected), "head")


def test_losslog_rejects_rows_of_other_width():
    with pytest.raises(ValueError, match="columns"):
        LossLog(LOG_COLUMNS).append(0, 1, 1.0, 0.5, 0.5)


@pytest.mark.parametrize("columns", [LOSS_COLUMNS, LOG_COLUMNS])
def test_failed_losslog_save_leaves_no_temporary_file(tmp_path, columns):
    log = LossLog(columns)
    log.append(0, 1, *[0.25] * (len(columns) - 2))
    target = tmp_path / "log.csv"
    target.mkdir()  # the rename onto a directory fails
    with pytest.raises(OSError):
        log.save(str(target))
    assert os.listdir(tmp_path) == ["log.csv"]
