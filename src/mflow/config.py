"""JSON instance documents: custom instances for ``--instance file.json``.

An instance document looks like::

    {
      "name": "my-instance",
      "A": {"tag": "quadratic", "b": [0.0]},
      "B": {"tag": "quadratic", "b": [1.0]},
      "L": [[1.0]],
      "gamma": 0.5, "mu": 0.5,
      "w":  {"p": [0.0], "v": [0.0]},
      "x0": {"p": [0.0], "v": [0.0]},
      "z":  [0.5, -0.5],          // optional solution; must pass the residual check
      "floor_fraction": 0.25      // optional cap floor as a fraction of ||w-z||^2
    }

The ``"name"`` (default ``"custom"``) prefixes every output file name, so it
must be a single file-name component: no path separator and no NUL.
Run settings are command-line flags only; no document carries them.
"""

import json
import os

from .operators import LinearMap, operator_from_config
from .problems import (
    DEFAULT_FLOOR_FRACTION,
    NamedInstance,
    checked_instance,
    get_instance,
)
from .space import PDPoint, as_vector
from .splitting import ProblemInstance

__all__ = ["load_json", "instance_from_doc", "resolve_instance"]


def load_json(path):
    """Parse a JSON file, raising ``ValueError`` with line-precise context."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _require(doc, key, path):
    if key not in doc:
        raise ValueError(f"{path}: missing required key {key!r}")
    return doc[key]


def instance_from_doc(doc, path="<config>"):
    """Build a :class:`NamedInstance` from a parsed instance document."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: instance document must be an object")
    tag = str(doc.get("name", "custom"))
    # the name prefixes every output file, which must land inside --out
    if any(sep and sep in tag for sep in ("/", os.sep, os.altsep, "\0")):
        raise ValueError(f"{path}: 'name' must be a single file-name component, got {tag!r}")
    try:
        A = operator_from_config(_require(doc, "A", path))
        B = operator_from_config(_require(doc, "B", path))
        L = LinearMap(_require(doc, "L", path))
        w = PDPoint.from_json_dict(_require(doc, "w", path))
        x0 = PDPoint.from_json_dict(doc.get("x0", _require(doc, "w", path)))
        inst = ProblemInstance(
            A=A,
            B=B,
            L=L,
            gamma=float(_require(doc, "gamma", path)),
            mu=float(_require(doc, "mu", path)),
            w=w,
            x0=x0,
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc

    if doc.get("z") is None:
        return NamedInstance(tag=tag, instance=inst)
    try:
        z = as_vector(doc["z"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad solution 'z': {exc}") from exc
    frac = doc.get("floor_fraction", DEFAULT_FLOOR_FRACTION)
    try:
        return checked_instance(tag, inst, z, frac)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def resolve_instance(selector):
    """Resolve a built-in tag or the path of a JSON instance document."""
    selector = str(selector)
    if selector.endswith(".json"):
        return instance_from_doc(load_json(selector), selector)
    try:
        return get_instance(selector)
    except KeyError as exc:
        raise ValueError(str(exc.args[0])) from exc
