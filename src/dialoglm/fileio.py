"""Atomic file writes, run manifests, and the header line of binary files.

Every artifact is written to a temporary file in the target directory and
renamed into place, so interrupted runs never leave truncated outputs.
"""

import json
import math
import os
import tempfile

from .errors import DataError
from .numeric import NUMERICS


def _atomic(path, data, mode):
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=d)
    try:
        with os.fdopen(fd, mode) as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text):
    _atomic(path, text, "w")


def write_bytes_atomic(path, blob):
    _atomic(path, blob, "wb")


def write_json_atomic(path, obj):
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json_header(f, path):
    """The JSON object on the first line of the open binary file ``f``.

    Checkpoints and topic models both start this way; anything else on that
    line is a DataError naming ``path``.
    """
    line = f.readline()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise DataError(f"{path}: unreadable header: not a JSON object")
    return header


def read_exact(f, n, path, what):
    """Exactly ``n`` bytes from the open binary file ``f``.

    A header can declare any size, so the file's length is checked before
    anything is read; a short file is a DataError naming ``path``.
    """
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise DataError(f"{path}: truncated {what}")
    return f.read(n)


def check_fields(fields, path, tests):
    """DataError naming ``path`` unless each key of ``tests`` is in the
    header dict ``fields`` with a value its test accepts."""
    for key, test in tests.items():
        if key not in fields or not test(fields[key]):
            raise DataError(f"{path}: header field {key!r} missing or malformed")


def is_str(value):
    return type(value) is str


def is_int(lo):
    """Test for an integer (a bool is not one) of at least ``lo``."""
    return lambda value: type(value) is int and value >= lo


def is_positive(value):
    """Test for a finite number above zero."""
    return type(value) in (int, float) and 0 < value < math.inf


def write_manifest(out_dir, subcommand, config, inputs, outputs, seed, started, ended):
    """One manifest per run, next to its outputs; enough to reproduce the run."""
    from . import __version__

    manifest = {
        "subcommand": subcommand,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "toolkit_version": __version__,
        "numerics": NUMERICS,
        "started": started,
        "ended": ended,
    }
    path = os.path.join(out_dir, "manifest.json")
    write_json_atomic(path, manifest)
    return path
