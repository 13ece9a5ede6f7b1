"""Model artifact persistence.

A trained model is stored as a small JSON document with the coefficient
vector base64-encoded as little-endian float64 bytes, so save/load
round-trips are bit-exact and the file is byte-identical across runs and
platforms. ``add_bias`` records whether the last coefficient belongs to an
appended constant-1 feature; an artifact without the key has none.
``training_data_sha256`` is the lowercase hex SHA-256 of the training file
the ``train`` command read; it is written only when known, and an artifact
without it (a library-built or older model) reads as ``None``.
"""
from __future__ import annotations

import base64
import json
import math
import os
import re
import tempfile

import numpy as np

from .losses import LossKind
from .solver import TrainedModel

__all__ = ["MODEL_FORMAT", "MODEL_VERSION", "save_model", "load_model", "model_to_dict"]

MODEL_FORMAT = "delta-scope-model"
MODEL_VERSION = 1


def model_to_dict(model: TrainedModel) -> dict:
    beta_bytes = np.ascontiguousarray(model.beta, dtype="<f8").tobytes()
    out = {
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
        out["training_data_sha256"] = model.training_data_sha256
    return out


def _atomic_write_text(path: str | os.PathLike, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: TrainedModel, path: str | os.PathLike) -> None:
    text = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    _atomic_write_text(path, text + "\n")


def load_model(path: str | os.PathLike, *, hasher=None) -> TrainedModel:
    """The model artifact at ``path``, read once. The bytes read are also
    fed to ``hasher`` (a ``hashlib`` object), if given."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if hasher is not None:
        hasher.update(raw)
    try:
        obj = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    if obj.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported version {obj.get('version')!r}")
    try:
        d = obj["d"]
        n_train = obj["n_train"]
        lam = float(obj["lambda"])
        kind = LossKind.from_name(obj["loss"])
        residual = float(obj["grad_residual"])
        add_bias = obj.get("add_bias", False)
        digest = obj.get("training_data_sha256")
        encoding = obj["beta_encoding"]
        raw = base64.b64decode(obj["beta"], validate=True)
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from None
    for name, value in (("d", d), ("n_train", n_train)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{path}: {name} must be a positive integer, got {value!r}")
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
