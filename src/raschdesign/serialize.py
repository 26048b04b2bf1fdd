"""JSON file formats for parameter vectors and designs.

Parameter file::

    {"k": 3, "d": 2, "beta": {"": 0.0, "1": -0.3, "1,2": -0.1}}

Subset keys are comma-separated 1-based rule indices; the empty string is
the empty set; omitted subsets default to 0.

Design file::

    {"k": 4, "weights": {"0110": 0.5, "0000": 0.5}}

Weight keys are bit strings of length k, first character = rule 1.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

from ._lattice import _BLOCK
from .exceptions import InputFormatError
from .model import Design, InteractionModel, ParameterVector, setting_string


def write_json(path, payload) -> None:
    """Write indented JSON; a non-finite number raises instead of being written."""
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputFormatError(f"{path}: top-level JSON value must be an object")
    return data


def load_parameters(path) -> ParameterVector:
    """Read a parameter file and return the parameter vector (model attached)."""
    data = _load_json(path)
    for key in ("k", "d"):
        if key not in data or not isinstance(data[key], int):
            raise InputFormatError(f"{path}: missing or non-integer field {key!r}")
    beta = data.get("beta", {})
    if not isinstance(beta, dict):
        raise InputFormatError(f"{path}: 'beta' must be an object")
    try:
        m = InteractionModel(data["k"], data["d"])
        return ParameterVector.from_dict(m, beta)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def save_parameters(theta: ParameterVector, path) -> None:
    write_json(path, {"k": theta.model.k, "d": theta.model.d, "beta": theta.as_dict()})


def load_design(path, k: int | None = None) -> Design:
    """Read a design file; ``k`` cross-checks the expected rule count."""
    data = _load_json(path)
    if "k" not in data or not isinstance(data["k"], int):
        raise InputFormatError(f"{path}: missing or non-integer field 'k'")
    if k is not None and data["k"] != k:
        raise InputFormatError(f"{path}: design has k={data['k']}, expected k={k}")
    weights = data.get("weights")
    if not isinstance(weights, dict):
        raise InputFormatError(f"{path}: 'weights' must be an object")
    try:
        return Design.from_weights(data["k"], weights)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def save_design(design: Design, path) -> None:
    """Write the design file, in the bytes of ``write_json`` on
    ``{"k": k, "weights": design.as_dict()}``, ``_BLOCK`` weights at a time.

    ``json.dumps`` with an indent has no C encoder and holds every chunk, so
    its layout is written here: for the 2^18 settings of a uniform design
    it spent most of the time.
    """
    entries = iter(design.weights.items())
    with open(path, "w") as fh:
        fh.write('{\n  "k": %d,\n  "weights": {' % design.k)
        separator = "\n"
        while block := list(islice(entries, _BLOCK)):
            fh.write(separator + ",\n".join([
                f'    "{setting_string(x, design.k)}": {w!r}' for x, w in block
            ]))
            separator = ",\n"
        fh.write("\n  }\n}\n")
