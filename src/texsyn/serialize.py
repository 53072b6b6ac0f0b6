"""Tensor and model files, the parameter sets they hold, and loss logs.

Tensor-file layout (all integers little-endian):

    magic    4 bytes  b"TXW1"
    version  u32      format version, currently 1
    count    u32      number of tensors
    then per tensor:
      name_len  u16
      name      name_len bytes, UTF-8
      rank      u8
      dims      rank x u32
      data      prod(dims) x f32, C order

A model file adds one tensor holding its network config under a header
name, next to the weights.  Loss logs are CSV: the iteration, the texture
(or style) id, then one float per loss column.

Writes are atomic: data goes to a temporary file in the target directory
which is renamed over the destination only once fully written.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

MAGIC = b"TXW1"
VERSION = 1


class WeightFormatError(ValueError):
    """The file does not conform to the tensor-file layout."""


def save_tensors(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Write named float32 arrays to ``path`` atomically."""
    payload = bytearray()
    payload += MAGIC
    payload += struct.pack("<II", VERSION, len(tensors))
    for name, array in tensors.items():
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise WeightFormatError(f"tensor name too long: {len(raw)} bytes")
        arr = np.asarray(array, dtype=np.float32)
        payload += struct.pack("<H", len(raw))
        payload += raw
        payload += struct.pack("<B", arr.ndim)
        payload += struct.pack(f"<{arr.ndim}I", *arr.shape)
        payload += arr.tobytes()
    atomic_write_bytes(path, bytes(payload))


@dataclass
class ParamSet:
    """Learnable tensors keyed by stable names, plus the config that shaped them."""

    config: object
    tensors: dict = field(repr=False)  # name -> Tensor

    @classmethod
    def of(cls, config, arrays: dict, requires_grad: bool = True) -> "ParamSet":
        return cls(config, {n: Tensor(a, requires_grad=requires_grad) for n, a in arrays.items()})

    @classmethod
    def init(
        cls, config, shapes: dict, gen: np.random.Generator, stds: dict | None = None
    ) -> "ParamSet":
        """Fresh tensors of ``shapes``, drawn from ``gen`` in ``shapes`` order.

        Biases are zero.  Other tensors are Gaussian with std
        sqrt(gain / fan_in), gain 1 for ``rgb.kernel`` and 2 elsewhere,
        unless ``stds`` names the tensor's std.
        """
        arrays = {}
        for name, shape in shapes.items():
            if name.endswith("bias"):
                data = np.zeros(shape)
            else:
                gain = 1.0 if name == "rgb.kernel" else 2.0
                std = stds[name] if stds and name in stds else np.sqrt(gain / math.prod(shape[1:]))
                data = gen.standard_normal(shape) * std
            arrays[name] = data.astype(np.float32)
        return cls.of(config, arrays)

    def parameters(self) -> list:
        return list(self.tensors.values())


def save_params(path: str, params: ParamSet, header: str, config: np.ndarray) -> None:
    """Write a model file: the config array under ``header``, then the weights."""
    tensors = {header: config}
    tensors.update((name, t.data) for name, t in params.tensors.items())
    save_tensors(path, tensors)


def load_checked(path: str, layout, header: str | None = None) -> tuple:
    """Read a file that must hold exactly the tensors ``layout`` names.

    ``layout`` receives the config array stored under ``header`` (None for
    a file without one) and returns (config, {name: shape}).  Returns
    (config, {name: array}) in layout order; a missing, extra, misshapen or
    non-finite tensor raises WeightFormatError naming it.
    """
    tensors = load_tensors(path)
    if header is not None and header not in tensors:
        raise WeightFormatError(f"model file lacks its '{header}' config header")
    config, expected = layout(tensors.pop(header) if header is not None else None)
    for name, shape in expected.items():
        if name not in tensors:
            raise WeightFormatError(f"missing tensor '{name}' (expected shape {shape})")
        if tensors[name].shape != shape:
            raise WeightFormatError(
                f"tensor '{name}' has shape {tensors[name].shape}, expected {shape}"
            )
        if not np.isfinite(tensors[name]).all():
            raise WeightFormatError(f"tensor '{name}' holds NaN or inf values")
    extra = set(tensors) - set(expected)
    if extra:
        raise WeightFormatError(f"unexpected tensors {sorted(extra)}")
    return config, {name: tensors[name] for name in expected}


def header_ints(arr: np.ndarray, header: str, least: int) -> list:
    """Config-header integers; WeightFormatError unless 1-D, >= ``least`` long, finite, integral."""
    values = arr.tolist()
    if arr.ndim != 1 or len(values) < least or not all(
        math.isfinite(v) and v == int(v) for v in values
    ):
        raise WeightFormatError(f"malformed '{header}' config header {values}")
    return [int(v) for v in values]


LOSS_COLUMNS = ("iter", "texture", "l_texture", "l_diversity", "total")


@dataclass
class LossLog:
    """Append-only per-iteration loss records: iteration, id, then the losses."""

    columns: tuple = LOSS_COLUMNS
    rows: list = field(default_factory=list)

    def append(self, iteration, texture, *losses) -> None:
        if len(losses) != len(self.columns) - 2:
            raise ValueError(f"{len(losses)} losses for log columns {self.columns}")
        if self.rows and iteration <= self.rows[-1][0]:
            raise ValueError(
                f"iteration {iteration} not after {self.rows[-1][0]}; log is append-only"
            )
        self.rows.append((int(iteration), int(texture), *map(float, losses)))

    def save(self, path: str) -> None:
        lines = [",".join(self.columns)]
        for it, texture, *losses in self.rows:
            lines.append(",".join([str(it), str(texture)] + [repr(v) for v in losses]))
        atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def load_tensors(path: str) -> dict[str, np.ndarray]:
    """Read a tensor file back into {name: float32 array}."""
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise WeightFormatError(
                f"truncated file: need {n} bytes for {what} at offset {off}, "
                f"have {len(blob) - off}"
            )
        chunk = blob[off : off + n]
        off += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise WeightFormatError(f"bad magic bytes, expected {MAGIC!r}")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise WeightFormatError(f"unsupported format version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise WeightFormatError(f"tensor name before offset {off} is not UTF-8") from None
        if name in tensors:
            raise WeightFormatError(f"tensor '{name}' stored twice")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        # Python ints cannot wrap; take() bounds the size by the bytes left
        data = take(4 * math.prod(dims), f"data of '{name}'")
        try:
            tensors[name] = np.frombuffer(data, dtype="<f4").reshape(dims).copy()
        except ValueError as e:  # more than 64 dims, or a size numpy cannot index
            raise WeightFormatError(f"tensor '{name}' has dims numpy cannot hold: {e}") from None
    if off != len(blob):
        raise WeightFormatError(f"{len(blob) - off} trailing bytes at offset {off}")
    return tensors


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
