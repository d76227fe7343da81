"""Atomic file writes, run manifests, and the binary container of checkpoints
and topic models.

Every artifact is written to a temporary file in the target directory and
renamed into place, so interrupted runs never leave truncated outputs.
"""

import json
import math
import os
import tempfile

import numpy as np

from .errors import DataError
from .numeric import NUMERICS, lane_cpus


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


def write_json_atomic(path, obj):
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_binary(path, header, values):
    """A binary file: ``header`` as one JSON line, then ``values`` as <f8 bytes."""
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    _atomic(path, json.dumps(header).encode("utf-8") + b"\n" + payload, "wb")


def read_binary(path, what, version, expect_vocab_sha256=None):
    """The header dict and raw payload of a binary file written by write_binary.

    A header that is not a JSON object, a ``format`` that is not the integer
    ``version``, or a file bound to a vocabulary other than the one hashed
    ``expect_vocab_sha256`` is a DataError naming ``path``; ``what`` names
    the file's kind in the messages.
    """
    with open(path, "rb") as f:
        line, payload = f.readline(), f.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise DataError(f"{path}: unreadable header: not a JSON object")
    fmt = header.get("format")
    if type(fmt) is not int or fmt != version:
        raise DataError(f"{path}: unsupported {what} format {fmt!r}, expected {version}")
    bound = header.get("vocab_sha256")
    if expect_vocab_sha256 is not None and bound != expect_vocab_sha256:
        raise DataError(f"{path}: {what} is bound to another vocabulary "
                        f"(hash {str(bound)[:12]}.. != {expect_vocab_sha256[:12]}..)")
    return header, payload


def float64s(payload, n, path, what):
    """The ``n`` float64 values of ``payload``; a DataError naming ``path``
    unless it holds exactly ``n * 8`` bytes."""
    if len(payload) < n * 8:
        raise DataError(f"{path}: truncated {what}")
    if len(payload) > n * 8:
        raise DataError(f"{path}: trailing bytes after {what}")
    return np.frombuffer(payload, dtype="<f8")


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


# The environment variables that set how many threads BLAS runs on.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_build():
    """numpy's BLAS build: OpenBLAS's configuration string (version, kernel
    set, thread limit), or the library's name and version without one."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"


def write_manifest(out_dir, subcommand, config, inputs, outputs, seed, started, ended):
    """One manifest per run, next to its outputs; enough to reproduce the run,
    with the numpy, BLAS build and BLAS thread settings its bytes depend on,
    and the CPUs the lane worker ran on."""
    from . import __version__

    manifest = {
        "subcommand": subcommand,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "toolkit_version": __version__,
        "numerics": NUMERICS,
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "lane_cpus": lane_cpus(),
        "started": started,
        "ended": ended,
    }
    path = os.path.join(out_dir, "manifest.json")
    write_json_atomic(path, manifest)
    return path
