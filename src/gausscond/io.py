"""JSON input and output for the command line front end.

Models are objects with "mean" and "cov" fields; transforms and observed
values are bare nested arrays; [] is an empty observation. Malformed
content raises InvalidInput with a message naming the offending field, so
the CLI can map it to its parse exit code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimError, InvalidInput, NotPositive
from .gaussian import Gaussian
from .spectral import SymOperator, _resolve_rank_tol_scale


def _load_json(path: str | Path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


def _as_array(obj, path, field: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{path}: {field} is not numeric") from exc
    if arr.ndim != ndim:
        raise InvalidInput(f"{path}: {field} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{path}: {field} contains non-finite entries")
    return arr


def load_model(path: str | Path) -> tuple[Gaussian, dict]:
    """Read a law from JSON; returns it with any extra fields (e.g. indices)."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InvalidInput(f"{path}: model must be a JSON object")
    for field in ("mean", "cov"):
        if field not in data:
            raise InvalidInput(f"{path}: model is missing {field!r}")
    mean = _as_array(data["mean"], path, "mean", 1)
    cov = _as_array(data["cov"], path, "cov", 2)
    try:
        g = Gaussian(mean, SymOperator(cov))
    except (DimError, NotPositive, InvalidInput) as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    extra = {k: v for k, v in data.items() if k not in ("mean", "cov")}
    if "rank_tol_scale" in extra:
        bad_scale = InvalidInput(f"{path}: rank_tol_scale must be a positive finite number or null")
        scale = extra["rank_tol_scale"]
        # Only a JSON number, or null for the default: true would read as 1.0, "1e3" as 1000.
        if isinstance(scale, bool) or not isinstance(scale, (int, float, type(None))):
            raise bad_scale
        try:
            extra["rank_tol_scale"] = _resolve_rank_tol_scale(scale)
        except (OverflowError, InvalidInput) as exc:
            raise bad_scale from exc
    for key in ("x_index", "y_index"):
        if key in extra:
            if not isinstance(extra[key], int) or isinstance(extra[key], bool):
                raise InvalidInput(f"{path}: {key} must be an integer")
            if not 0 <= extra[key] < g.dim:
                raise InvalidInput(f"{path}: {key} out of range for dimension {g.dim}")
    return g, extra


def load_matrix(path: str | Path) -> np.ndarray:
    """A transform matrix; [] is the empty (0-row) transform, of shape (0, 0)."""
    data = _load_json(path)
    if data == []:
        return np.zeros((0, 0))
    return _as_array(data, path, "transform", 2)


def load_vector(path: str | Path) -> np.ndarray:
    data = _load_json(path)
    return _as_array(data, path, "vector", 1)


def dump(obj) -> str:
    """Indented JSON; numpy arrays and scalars become nested lists and numbers."""
    return json.dumps(obj, indent=2, default=lambda a: a.tolist())
