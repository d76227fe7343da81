"""Checkpoint serialization.

Format (documented bit-exactly in docs/FORMATS.md): a single UTF-8 JSON
header line terminated by "\\n" carrying the format version, model kind,
dimensions, the sha256 of the bound vocabulary, and the ordered list of
(array name, shape); followed by each parameter array's raw bytes as
little-endian float64 in row-major order, which is the model's parameter
arena (``params.flat``) as one block.
"""

import json
import math

import numpy as np

from ..errors import DataError
from ..fileio import (check_fields, is_int, is_str, read_exact, read_json_header,
                      write_bytes_atomic)

FORMAT_VERSION = 1


def save_checkpoint(path, model, vocab_sha256):
    header = {
        "format": FORMAT_VERSION,
        "kind": model.kind,
        "dims": model.dims(),
        "vocab_sha256": vocab_sha256,
        "arrays": [[name, list(arr.shape)] for name, arr in model.params.items()],
    }
    payload = model.params.flat.astype("<f8", copy=False).tobytes()
    write_bytes_atomic(path, json.dumps(header).encode("utf-8") + b"\n" + payload)


def _is_array_entry(entry):
    """An ``arrays`` entry: [name, shape] with a non-negative int per axis."""
    return (type(entry) is list and len(entry) == 2 and is_str(entry[0])
            and type(entry[1]) is list and all(map(is_int(0), entry[1])))


def load_checkpoint(path, expect_vocab_sha256=None, theta_provider=None, expect_vocab_size=None):
    """Reconstruct a model from a checkpoint; verifies the vocabulary hash and size."""
    from . import make_model

    with open(path, "rb") as f:
        header = read_json_header(f, path)
        if header.get("format") != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint format {header.get('format')}")
        check_fields(header, path, {
            "kind": is_str,
            "dims": lambda dims: type(dims) is dict,
            "vocab_sha256": is_str,
            "arrays": lambda arrays: type(arrays) is list and all(map(_is_array_entry, arrays)),
        })
        dims = header["dims"]
        check_fields(dims, path, {"d": is_int(1), "d_e": is_int(1), "V": is_int(1)})
        if dims.get("K") is not None:
            check_fields(dims, path, {"K": is_int(1)})
        if expect_vocab_sha256 is not None and header["vocab_sha256"] != expect_vocab_sha256:
            raise DataError(
                f"{path}: checkpoint was trained against a different vocabulary "
                f"(hash {header['vocab_sha256'][:12]}.. != {expect_vocab_sha256[:12]}..)"
            )
        if expect_vocab_size not in (None, V := dims["V"]):
            raise DataError(f"{path}: checkpoint has V={V}, not {expect_vocab_size}")
        n = sum(math.prod(shape) for _, shape in header["arrays"])
        raw = read_exact(f, n * 8, path, "checkpoint parameters")
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after the declared arrays")
    try:
        model = make_model(header["kind"], d=dims["d"], d_e=dims["d_e"], vocab_size=dims["V"],
                           n_topics=dims.get("K"), flat=np.frombuffer(raw, dtype="<f8"),
                           theta_provider=theta_provider)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
    layout = [[name, list(p.shape)] for name, p in model.params.items()]
    if header["arrays"] != layout:
        raise DataError(f"{path}: header arrays are not the {model.kind} layout {layout}")
    return model
