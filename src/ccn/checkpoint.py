"""Binary model checkpoints.

Layout: magic ``THM1``, one format-version byte, a UTF-8 ``key=value``
config block terminated by a blank line, then one record per parameter in
model construction order: name length (uint32 LE), name bytes, rank
(uint32 LE), each dimension (uint32 LE), raw little-endian float32 payload.
Saving and loading a float32 model is bit-exact.

Files are written through ``errors.atomic_write``: a temporary file in
the target's directory that replaces the target only once it is complete.
A load reads each payload straight into its own array, so that building
the model makes the only copy of each parameter.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, atomic_write
from .model import ModelConfig, ParamStore, Seq2SeqModel

MAGIC = b"THM1"
FORMAT_VERSION = 1

# each config field's name and its converter from text, in declaration order
_CONFIG_FIELDS = tuple((f.name, type(f.default)) for f in dataclasses.fields(ModelConfig))


def save_checkpoint(path, config: ModelConfig, step: int, params: dict[str, np.ndarray]):
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(bytes([FORMAT_VERSION]))
        lines = [f"{key}={getattr(config, key)}" for key, _ in _CONFIG_FIELDS]
        lines.append(f"step={step}")
        fh.write(("\n".join(lines) + "\n\n").encode("utf-8"))
        for name, value in params.items():
            arr = np.ascontiguousarray(np.asarray(value), dtype="<f4")
            raw_name = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, int, dict[str, np.ndarray]]:
    """Read a checkpoint; a malformed header, record or payload raises DataError
    naming the path and the byte offset."""
    path = Path(path)
    with open(path, "rb") as fh:
        return _read_checkpoint(path, fh, os.fstat(fh.fileno()).st_size)


def _read_checkpoint(path: Path, fh, size: int):
    """The config, step and parameters of the open checkpoint ``fh`` of
    ``size`` bytes. Each payload is read straight into its own array, so
    that building the model makes the only copy of it."""
    head = fh.read(5)
    if head[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic {head[:4]!r})")
    if len(head) < 5 or head[4] != FORMAT_VERSION:
        raise DataError(f"{path}: byte 4: unsupported checkpoint format version {head[4:5]!r}")
    fields: dict[str, tuple[str, int]] = {}
    pos = 5
    while (raw := fh.readline()) != b"\n":
        if not raw.endswith(b"\n"):
            raise DataError(f"{path}: byte 5: config block has no terminating blank line")
        key, _, value = raw[:-1].partition(b"=")
        try:
            fields[key.decode("utf-8")] = (value.decode("utf-8"), pos)
        except UnicodeDecodeError:
            raise DataError(f"{path}: byte {pos}: config line is not UTF-8") from None
        pos += len(raw)
    end = pos - 1  # the blank line ends the config block

    def field(key: str, conv):
        if key not in fields:
            raise DataError(f"{path}: bytes 5-{end}: config block lacks key {key!r}")
        value, at = fields[key]
        try:
            return conv(value)
        except ValueError:
            raise DataError(f"{path}: byte {at}: malformed config value {key}={value!r}") from None

    step = field("step", int)
    kwargs = {key: field(key, conv) for key, conv in _CONFIG_FIELDS}
    try:
        config = ModelConfig(**kwargs)
    except ValueError as exc:
        raise DataError(f"{path}: bytes 5-{end}: invalid model config: {exc}") from None

    def unpack(fmt: str, at: int, what: str) -> tuple:
        raw = fh.read(struct.calcsize(fmt))
        try:
            return struct.unpack(fmt, raw)
        except struct.error:
            raise DataError(f"{path}: byte {at}: {size - at} trailing bytes are not a whole {what}") from None

    params: dict[str, np.ndarray] = {}
    pos = end + 2
    while pos < size:
        record = pos
        (name_len,) = unpack("<I", pos, "record header")
        pos += 4
        raw_name = fh.read(name_len)
        if len(raw_name) != name_len:
            raise DataError(f"{path}: byte {pos}: truncated parameter name in record at byte {record}")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: byte {pos}: parameter name is not UTF-8") from None
        if not name:
            raise DataError(f"{path}: byte {record}: record has an empty parameter name")
        if name in params:
            raise DataError(f"{path}: byte {record}: duplicate record of parameter {name}")
        pos += name_len
        (rank,) = unpack("<I", pos, f"record header of {name}")
        pos += 4
        dims = unpack(f"<{rank}I", pos, f"shape of {name}")
        pos += 4 * rank
        count = math.prod(dims)
        if pos + 4 * count > size:
            raise DataError(
                f"{path}: byte {pos}: payload of {name} is truncated "
                f"({size - pos} of {4 * count} bytes present)"
            )
        params[name] = np.empty(dims, dtype="<f4")
        fh.readinto(params[name])
        pos += 4 * count
    return config, step, params


def save_model(path, model: Seq2SeqModel, step: int = 0):
    save_checkpoint(path, model.config, step, {n: p.data for n, p in model.params.items()})


def model_from_checkpoint(path) -> tuple[Seq2SeqModel, int]:
    """Rebuild a float32 model from the stored parameters, which must match
    its names and shapes."""
    config, step, params = load_checkpoint(path)
    try:
        return Seq2SeqModel(config, ParamStore(np.float32, stored=params)), step
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
