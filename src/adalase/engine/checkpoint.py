"""Sectioned binary weight checkpoints.

Layout: magic ``ADLW``, version u32 LE, then one record per parameter in
declaration order: name length (u32 LE), UTF-8 name, rank (u64 LE), dims
(u64 LE each), raw little-endian float64 values.
"""

import math
import os
import struct
import tempfile

import numpy as np

from ..errors import DataFormatError

MAGIC = b"ADLW"
VERSION = 1


def atomic_write(path, data):
    """Write ``data``, bytes or text (as UTF-8), to ``path`` through a temp file
    in its directory and a rename: ``path`` holds its old contents until all of
    ``data`` is written, and a failed write leaves no temp file. The file gets
    the mode ``open(path, "w")`` would give it, 0o666 less the umask, not the
    temp file's 0o600."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_weights(net, path):
    parts = [MAGIC, struct.pack("<I", VERSION)]
    for name, p in net.named_params():
        raw = name.encode("utf-8")
        parts += [struct.pack("<I", len(raw)), raw, struct.pack("<Q", p.ndim),
                  *(struct.pack("<Q", d) for d in p.shape),
                  np.ascontiguousarray(p, dtype="<f8").tobytes()]
    atomic_write(path, b"".join(parts))


def read_exact(fh, n, what):
    """The next ``n`` bytes of binary file ``fh``; DataFormatError if it ends first."""
    buf = fh.read(n)
    if len(buf) != n:
        raise DataFormatError(f"{fh.name}: truncated while reading {what}")
    return buf


def load_weights(net, path):
    """Load a checkpoint into ``net``; rejects any topology mismatch."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise DataFormatError("bad checkpoint magic, expected ADLW")
        (version,) = struct.unpack("<I", read_exact(fh, 4, "version"))
        if version != VERSION:
            raise DataFormatError(f"unsupported checkpoint version {version}")
        for name, p in net.named_params():
            (name_len,) = struct.unpack("<I", read_exact(fh, 4, "name length"))
            got_name = read_exact(fh, name_len, "name").decode("utf-8")
            if got_name != name:
                raise DataFormatError(f"parameter name mismatch: file has {got_name!r}, "
                                      f"network expects {name!r}")
            (rank,) = struct.unpack("<Q", read_exact(fh, 8, "rank"))
            dims = tuple(
                struct.unpack("<Q", read_exact(fh, 8, "dim"))[0] for _ in range(rank)
            )
            if dims != p.shape:
                raise DataFormatError(f"shape mismatch for {name}: file {dims}, network {p.shape}")
            raw = read_exact(fh, math.prod(dims) * 8, f"values of {name}")
            p[:] = np.frombuffer(raw, dtype="<f8").reshape(dims).astype(p.dtype)
        extra = fh.read(1)
        if extra:
            raise DataFormatError("checkpoint has trailing data beyond network parameters")
