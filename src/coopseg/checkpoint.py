"""Bit-exact binary checkpoints.

Layout: magic "FUTH", format version u32, tensor count u32, then one record
per tensor (name length u16, utf-8 name, dtype code u8 with 0=f32 and 1=f64,
rank u8, dims as u32s, raw little-endian payload), and a trailing CRC32 of
everything before it. All integers little-endian. Saves replace the target
atomically.
"""

from __future__ import annotations

import math
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
    # write beside the target, then rename over it: a failed write leaves the
    # earlier checkpoint intact and no partial file under the target's name
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            crc = 0

            def write(chunk):
                nonlocal crc
                crc = zlib.crc32(chunk, crc)
                fh.write(chunk)

            write(MAGIC + struct.pack("<II", VERSION, len(state)))
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
                write(struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I", len(encoded), encoded,
                                  code, arr.ndim, *arr.shape))
                # flat: memoryview cannot cast a view with a 0 in its shape
                write(memoryview(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).reshape(-1)).cast("B"))
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """The saved arrays, as writable views into one buffer that holds the whole file."""
    with Path(path).open("rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(blob)  # a short read leaves zeros, which the CRC check rejects
    if len(blob) < len(MAGIC) + 12:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    end = len(blob) - 4
    if zlib.crc32(memoryview(blob)[:end]) != struct.unpack_from("<I", blob, end)[0]:
        raise CheckpointError(f"{path}: CRC mismatch, file corrupted")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    pos = 12
    state: dict[str, np.ndarray] = {}

    def take(n: int) -> int:  # claim the next n bytes of the body, return their offset
        nonlocal pos
        if pos + n > end:
            raise CheckpointError(f"{path}: truncated record at byte {pos}")
        pos += n
        return pos - n

    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, take(2))
        start = take(name_len)
        try:
            name = blob[start : start + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name at byte {start} is not utf-8") from None
        if name in state:  # a dict cannot save one name twice; never let the last record win
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        code, rank = struct.unpack_from("<BB", blob, take(2))
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        dims = struct.unpack_from(f"<{rank}I", blob, take(4 * rank))
        dtype = _DTYPE_CODES[code]
        n_items = math.prod(dims)  # python ints: huge dims cannot wrap past `take`
        offset = take(n_items * dtype.itemsize)
        state[name] = np.frombuffer(blob, dtype, n_items, offset).reshape(dims)
    if pos != end:
        raise CheckpointError(f"{path}: {end - pos} trailing bytes after records")
    return state
