"""Bit-exact binary checkpoints.

Layout: magic "FUTH", format version u32, tensor count u32, then one record
per tensor (name length u16, utf-8 name, dtype code u8 with 0=f32 and 1=f64,
rank u8, dims as u32s, raw little-endian payload), and a trailing CRC32 of
everything before it. All integers little-endian. Saves replace the target
atomically.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"FUTH"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES_BY_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str | Path, state: dict[str, np.ndarray]):
    chunks = [MAGIC, struct.pack("<II", VERSION, len(state))]
    for name, arr in state.items():
        arr = np.asarray(arr)
        code = _CODES_BY_KIND.get(arr.dtype.newbyteorder("="))
        if code is None:
            raise CheckpointError(f"tensor {name!r}: unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:40]!r}...")
        if arr.ndim > 0xFF:
            raise CheckpointError(f"tensor {name!r}: rank {arr.ndim} too large")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", code, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())
    body = b"".join(chunks)
    # write beside the target, then rename over it: a failed write leaves the
    # earlier checkpoint intact and no partial file under the target's name
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 12:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    body, crc_stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != crc_stored:
        raise CheckpointError(f"{path}: CRC mismatch, file corrupted")
    if body[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {body[:4]!r}")
    version, count = struct.unpack_from("<II", body, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    pos = 12
    state: dict[str, np.ndarray] = {}

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(body):
            raise CheckpointError(f"{path}: truncated record at byte {pos}")
        out = body[pos : pos + n]
        pos += n
        return out

    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        code, rank = struct.unpack("<BB", take(2))
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        dtype = _DTYPE_CODES[code]
        n_items = int(np.prod(dims, dtype=np.int64)) if rank else 1
        payload = take(n_items * dtype.itemsize)
        state[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if pos != len(body):
        raise CheckpointError(f"{path}: {len(body) - pos} trailing bytes after records")
    return state
