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
      "z":  [0.5, -0.5]           // optional solution; must pass the residual check
    }

Only these keys are read, and only ``"p"`` and ``"v"`` in a point; any other
key is an error.  ``"x0"`` defaults to ``"w"``, and the cap's floor is
``0.25 * ||w - z||^2``.  The ``"name"`` (default ``"custom"``) prefixes every
output file name, so it must be a single file-name component: a non-empty
string with no path separator and no NUL.
Run settings are command-line flags only; no document carries them.
"""

import json
import os

from .operators import LinearMap, operator_from_config
from .problems import NamedInstance, checked_instance, get_instance
from .space import PDPoint, as_vector
from .splitting import ProblemInstance

__all__ = ["load_json", "instance_from_doc", "resolve_instance"]

# the keys an instance document may hold
_KEYS = ("name", "A", "B", "L", "gamma", "mu", "w", "x0", "z")


def load_json(path):
    """Parse a JSON file, raising ``ValueError`` with line-precise context."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _require(doc, key):
    if key not in doc:
        raise ValueError(f"missing required key {key!r}")
    return doc[key]


def _reject_unknown_keys(doc, keys, where):
    """Reject the first key of ``doc`` outside ``keys``."""
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown key {key!r}{where}")


def _point(doc, key):
    """The :class:`PDPoint` of the point object ``doc[key]``."""
    point = _require(doc, key)
    if isinstance(point, dict):
        _reject_unknown_keys(point, ("p", "v"), f" in {key!r}")
    return PDPoint(point["p"], point["v"])


def instance_from_doc(doc, path="<config>"):
    """Build a :class:`NamedInstance` from a parsed instance document."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: instance document must be an object")
    try:
        _reject_unknown_keys(doc, _KEYS, "")
        tag = doc.get("name", "custom")
        # the name prefixes every output file, which must land inside --out
        if not (isinstance(tag, str) and tag) or any(
            sep and sep in tag for sep in ("/", os.sep, os.altsep, "\0")
        ):
            raise ValueError(f"'name' must be a single file-name component, got {tag!r}")
        inst = ProblemInstance(
            A=operator_from_config(_require(doc, "A")),
            B=operator_from_config(_require(doc, "B")),
            L=LinearMap(_require(doc, "L")),
            gamma=float(_require(doc, "gamma")),
            mu=float(_require(doc, "mu")),
            w=_point(doc, "w"),
            x0=_point(doc, "x0" if "x0" in doc else "w"),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc

    if doc.get("z") is None:
        return NamedInstance(tag=tag, instance=inst)
    try:
        z = as_vector(doc["z"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad solution 'z': {exc}") from exc
    try:
        return checked_instance(tag, inst, z)
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
