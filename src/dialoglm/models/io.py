"""Checkpoint serialization.

Format (documented bit-exactly in docs/FORMATS.md): a single UTF-8 JSON
header line terminated by "\\n" carrying the format version, model kind,
dimensions, the sha256 of the bound vocabulary, and the ordered list of
(array name, shape); followed by each parameter array's raw bytes as
little-endian float64 in row-major order.
"""

import json

import numpy as np

from ..errors import DataError
from ..fileio import read_json_header, write_bytes_atomic

FORMAT_VERSION = 1


def save_checkpoint(path, model, vocab_sha256):
    arrays = [[name, list(arr.shape)] for name, arr in model.params.items()]
    header = {
        "format": FORMAT_VERSION,
        "kind": model.kind,
        "dims": model.dims(),
        "vocab_sha256": vocab_sha256,
        "arrays": arrays,
    }
    blob = bytearray(json.dumps(header).encode("utf-8") + b"\n")
    for _, arr in model.params.items():
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    write_bytes_atomic(path, bytes(blob))


def read_checkpoint_header(path):
    with open(path, "rb") as f:
        return read_json_header(f, path)


def load_checkpoint(path, expect_vocab_sha256=None, theta_provider=None):
    """Reconstruct a model from a checkpoint; verifies the vocabulary hash."""
    from . import make_model

    with open(path, "rb") as f:
        header = read_json_header(f, path)
        if header.get("format") != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint format {header.get('format')}")
        if expect_vocab_sha256 is not None and header["vocab_sha256"] != expect_vocab_sha256:
            raise DataError(
                f"{path}: checkpoint was trained against a different vocabulary "
                f"(hash {header['vocab_sha256'][:12]}.. != {expect_vocab_sha256[:12]}..)"
            )
        params = {}
        for name, shape in header["arrays"]:
            n = int(np.prod(shape)) if shape else 1
            raw = f.read(n * 8)
            if len(raw) != n * 8:
                raise DataError(f"{path}: truncated checkpoint while reading {name}")
            params[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after the declared arrays")
    dims = header["dims"]
    return make_model(
        header["kind"],
        d=dims["d"],
        d_e=dims["d_e"],
        vocab_size=dims["V"],
        n_topics=dims.get("K"),
        params=params,
        theta_provider=theta_provider,
    )
