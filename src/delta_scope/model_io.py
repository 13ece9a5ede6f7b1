"""Model artifact persistence.

A trained model is stored as a small JSON document with the coefficient
vector base64-encoded as little-endian float64 bytes, so save/load
round-trips are bit-exact and the file is byte-identical across runs and
platforms. ``add_bias`` records whether the last coefficient belongs to an
appended constant-1 feature; an artifact without the key has none.
``training_data_sha256`` is the lowercase hex SHA-256 of the training file
the ``train`` command read; it is written only when known, and an artifact
without it (a library-built or older model) reads as ``None``.
``save_model`` writes the artifact whole and returns the SHA-256 of its bytes.
"""
from __future__ import annotations

import base64
import json
import math
import os
import re

import numpy as np

from .data import _read_input, _write_output
from .losses import LossKind
from .solver import TrainedModel

__all__ = ["MODEL_FORMAT", "MODEL_VERSION", "save_model", "load_model"]

MODEL_FORMAT = "delta-scope-model"
MODEL_VERSION = 1


def save_model(model: TrainedModel, path: str | os.PathLike) -> str:
    """Write the model artifact to ``path``; return the SHA-256 of its bytes."""
    beta_bytes = np.ascontiguousarray(model.beta, dtype="<f8").tobytes()
    obj = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "d": model.d,
        "n_train": model.n_train,
        "lambda": model.lam,
        "loss": model.kind.value,
        "grad_residual": model.grad_residual,
        "add_bias": model.add_bias,
        "beta_encoding": "base64-le-f8",
        "beta": base64.b64encode(beta_bytes).decode("ascii"),
    }
    if model.training_data_sha256 is not None:
        obj["training_data_sha256"] = model.training_data_sha256
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return _write_output(path, (text + "\n").encode("utf-8"))


def _json_float(path, name: str, value) -> float:
    """``value`` as a float if JSON read it as a number, not a bool or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"{path}: {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond every float
        return math.inf


def load_model(path: str | os.PathLike, *, hasher=None) -> TrainedModel:
    """The model artifact at ``path``, read by :func:`_read_input` with
    ``hasher``."""
    raw = _read_input(path, hasher)
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # a JSON or a UTF-8 decoding error
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    if obj.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported version {obj.get('version')!r}")
    try:
        d = obj["d"]
        n_train = obj["n_train"]
        lam = obj["lambda"]
        kind = LossKind.from_name(obj["loss"])
        residual = obj["grad_residual"]
        add_bias = obj.get("add_bias", False)
        digest = obj.get("training_data_sha256")
        encoding = obj["beta_encoding"]
        raw = base64.b64decode(obj["beta"], validate=True)
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from None
    for name, value in (("d", d), ("n_train", n_train)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{path}: {name} must be a positive integer, got {value!r}")
    lam, residual = _json_float(path, "lambda", lam), _json_float(path, "grad_residual", residual)
    if encoding != "base64-le-f8":
        raise ValueError(f"{path}: unknown beta encoding {encoding!r}")
    beta = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if beta.shape[0] != d:
        raise ValueError(f"{path}: beta has {beta.shape[0]} entries, header says {d}")
    # json reads NaN and Infinity; a bad residual would pass as certified
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"{path}: lambda must be finite and positive, got {lam!r}")
    if not (math.isfinite(residual) and residual >= 0):
        raise ValueError(f"{path}: grad_residual must be finite and >= 0, got {residual!r}")
    if not np.all(np.isfinite(beta)):
        raise ValueError(f"{path}: beta has non-finite entries")
    if not isinstance(add_bias, bool):
        raise ValueError(f"{path}: add_bias must be true or false, got {add_bias!r}")
    if "training_data_sha256" in obj and not (
        isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)
    ):
        raise ValueError(
            f"{path}: training_data_sha256 must be a 64-character lowercase hex "
            f"string, got {digest!r}"
        )
    return TrainedModel(beta, lam, kind, residual, n_train, add_bias, digest)
