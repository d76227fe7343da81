"""Checkpoint serialization, in fileio's binary container.

Format (documented bit-exactly in docs/FORMATS.md): the header line carries
the format version, model kind, dimensions, the sha256 of the bound
vocabulary, and the ordered list of (array name, shape); the payload is
each parameter array as little-endian float64 in row-major order, which is
the model's parameter arena (``params.flat``) as one block.
"""

import math

from ..errors import DataError
from ..fileio import check_fields, float64s, is_int, is_str, read_binary, write_binary

FORMAT_VERSION = 1


def save_checkpoint(path, model, vocab_sha256):
    header = {
        "format": FORMAT_VERSION,
        "kind": model.kind,
        "dims": model.dims(),
        "vocab_sha256": vocab_sha256,
        "arrays": [[name, list(arr.shape)] for name, arr in model.params.items()],
    }
    write_binary(path, header, model.params.flat)


def _is_array_entry(entry):
    """An ``arrays`` entry: [name, shape] with a non-negative int per axis."""
    return (type(entry) is list and len(entry) == 2 and is_str(entry[0])
            and type(entry[1]) is list and all(map(is_int(0), entry[1])))


def load_checkpoint(path, expect_vocab_sha256=None, theta_provider=None, expect_vocab_size=None):
    """Reconstruct a model from a checkpoint; verifies the vocabulary hash and size."""
    from . import make_model

    header, payload = read_binary(path, "checkpoint", FORMAT_VERSION, expect_vocab_sha256)
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
    if expect_vocab_size not in (None, V := dims["V"]):
        raise DataError(f"{path}: checkpoint has V={V}, not {expect_vocab_size}")
    n = sum(math.prod(shape) for _, shape in header["arrays"])
    flat = float64s(payload, n, path, "checkpoint parameters")
    try:
        model = make_model(header["kind"], d=dims["d"], d_e=dims["d_e"], vocab_size=dims["V"],
                           n_topics=dims.get("K"), flat=flat, theta_provider=theta_provider)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
    layout = [[name, list(p.shape)] for name, p in model.params.items()]
    if header["arrays"] != layout:
        raise DataError(f"{path}: header arrays are not the {model.kind} layout {layout}")
    return model
