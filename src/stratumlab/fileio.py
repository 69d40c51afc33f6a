"""Matrix file format and canonical JSON output.

A matrix file is JSON with four keys:

    {"schema_version": "1",
     "alg": [1, 2],
     "re": [[...], ...],
     "im": [[...], ...]}

"alg" lists the block sizes of the ambient algebra, "re" and "im" are the
real and imaginary parts as dense row-major nested lists. Structural
problems raise SchemaError; whether the matrix is actually a state is
decided later by validate_density.

All JSON this package writes goes through canonical_json, so identical
payloads produce identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import SchemaError
from .states import AlgebraDescriptor

SCHEMA_VERSION = "1"


def canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _as_float_grid(value, key: str, n: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(f'"{key}" must be a list of {n} rows')
    grid = np.empty((n, n), dtype=float)
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f'"{key}" row {r} must be a list of {n} numbers')
        for c, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise SchemaError(f'"{key}"[{r}][{c}] is not a number')
            try:
                value = float(entry)
            except OverflowError:  # an integer too large for a double
                value = math.inf
            if not math.isfinite(value):
                raise SchemaError(f'"{key}"[{r}][{c}] is not a finite number')
            grid[r, c] = value
    return grid


def parse_matrix_payload(payload) -> tuple[np.ndarray, AlgebraDescriptor]:
    if not isinstance(payload, dict):
        raise SchemaError("matrix file must be a JSON object")
    missing = {"schema_version", "alg", "re", "im"} - set(payload)
    if missing:
        raise SchemaError(f"matrix file missing keys: {sorted(missing)}")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            f'unsupported schema_version {payload["schema_version"]!r}, expected "{SCHEMA_VERSION}"'
        )
    alg_raw = payload["alg"]
    if (
        not isinstance(alg_raw, list)
        or not alg_raw
        or any(isinstance(b, bool) or not isinstance(b, int) or b < 1 for b in alg_raw)
    ):
        raise SchemaError('"alg" must be a non-empty list of positive integers')
    alg = AlgebraDescriptor(tuple(alg_raw))
    n = alg.dim
    re = _as_float_grid(payload["re"], "re", n)
    im = _as_float_grid(payload["im"], "im", n)
    diag_im = float(np.max(np.abs(np.diag(im)))) if n else 0.0
    if diag_im > 1e-12:
        raise SchemaError(
            f"diagonal imaginary parts must vanish; largest is {diag_im:.3e}"
        )
    return re + 1j * im, alg


def read_matrix(path: str) -> tuple[np.ndarray, AlgebraDescriptor]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    return parse_matrix_payload(payload)


def matrix_payload(matrix: np.ndarray, alg: AlgebraDescriptor) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        "schema_version": SCHEMA_VERSION,
        "alg": list(alg.block_sizes),
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def write_matrix(path: str, matrix: np.ndarray, alg: AlgebraDescriptor) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(matrix_payload(matrix, alg)))

