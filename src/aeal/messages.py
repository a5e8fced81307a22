"""Wire messages: newline-delimited JSON, one message per line.

Floats are written with 17 significant digits so every IEEE-754 double
round-trips exactly; unknown message types and unknown or missing fields are
rejected. The handshake pins protocol version "aeal/1".
"""

import json
from dataclasses import dataclass

from .errors import ProtocolError

PROTOCOL_VERSION = "aeal/1"


@dataclass(frozen=True)
class Handshake:
    version: str
    n: int
    family: str
    lam: float


@dataclass(frozen=True)
class SketchOffer:
    projected: tuple    # tuple of row tuples, n x t
    t: int
    noised: bool
    epsilon: float      # None when not noised
    c2: float
    rows_excluded: tuple


@dataclass(frozen=True)
class ScreenResult:
    statistic: float
    df: int
    p_value: float
    reject: bool
    alpha: float


@dataclass(frozen=True)
class ResponseShare:
    y: tuple
    masked: bool
    flip_prob: float    # None when not masked


@dataclass(frozen=True)
class Offset:
    round: int
    vector: tuple


@dataclass(frozen=True)
class PredictContribution:
    nu: float
    sigma: float


@dataclass(frozen=True)
class Stop:
    reason: str


@dataclass(frozen=True)
class GradShare:
    round: int
    vector: tuple


# field name -> wire type tag, per message type
_SCHEMAS = {
    "Handshake": {"version": "str", "n": "int", "family": "str", "lam": "float"},
    "SketchOffer": {"projected": "matrix", "t": "int", "noised": "bool",
                    "epsilon": "float?", "c2": "float?", "rows_excluded": "ints"},
    "ScreenResult": {"statistic": "float", "df": "int", "p_value": "float",
                     "reject": "bool", "alpha": "float"},
    "ResponseShare": {"y": "vector", "masked": "bool", "flip_prob": "float?"},
    "Offset": {"round": "int", "vector": "vector"},
    "PredictContribution": {"nu": "float", "sigma": "float"},
    "Stop": {"reason": "str"},
    "GradShare": {"round": "int", "vector": "vector"},
}

_CLASSES = {cls.__name__: cls for cls in (
    Handshake, SketchOffer, ScreenResult, ResponseShare, Offset, PredictContribution,
    Stop, GradShare)}

# Decimal form with 17 significant digits; float() recovers the exact bits.
# A bound method, not a def: vectors are mapped through it element by element.
format_float = "{:.17g}".format


def _emit(tag, value):
    if tag == "str":
        return json.dumps(value)
    if tag == "int":
        return str(int(value))
    if tag == "bool":
        return "true" if value else "false"
    if tag == "float":
        return format_float(value)
    if tag == "float?":
        return "null" if value is None else format_float(value)
    if tag == "vector":
        return "[" + ",".join(map(format_float, value)) + "]"
    if tag == "matrix":
        return "[" + ",".join("[" + ",".join(map(format_float, row)) + "]"
                              for row in value) + "]"
    if tag == "ints":
        return "[" + ",".join(map(str, map(int, value))) + "]"
    raise AssertionError(tag)


def encode(msg):
    """One JSON line (without the trailing newline) for a message object."""
    name = type(msg).__name__
    schema = _SCHEMAS.get(name)
    if schema is None:
        raise ProtocolError(f"unencodable message type {name!r}")
    parts = ['"type":' + json.dumps(name)]
    for fld, tag in schema.items():
        parts.append(json.dumps(fld) + ":" + _emit(tag, getattr(msg, fld)))
    return "{" + ",".join(parts) + "}"


def _take(tag, value, fld):
    def bad(expected):
        raise ProtocolError(f"field {fld!r}: expected {expected}")
    if tag == "str":
        if not isinstance(value, str):
            bad("string")
        return value
    if tag == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            bad("integer")
        return value
    if tag == "bool":
        if not isinstance(value, bool):
            bad("boolean")
        return value
    if tag == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            bad("number")
        return float(value)
    if tag == "float?":
        if value is None:
            return None
        return _take("float", value, fld)
    if tag == "vector":
        if not isinstance(value, list):
            bad("array")
        return tuple(_take("float", v, fld) for v in value)
    if tag == "matrix":
        if not isinstance(value, list):
            bad("array of arrays")
        return tuple(_take("vector", row, fld) for row in value)
    if tag == "ints":
        if not isinstance(value, list):
            bad("array")
        return tuple(_take("int", v, fld) for v in value)
    raise AssertionError(tag)


def decode(line):
    """Parse one line into a message object, rejecting anything off-schema."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("message must be a JSON object")
    name = obj.pop("type", None)
    if name not in _SCHEMAS:
        raise ProtocolError(f"unknown message type {name!r}")
    schema = _SCHEMAS[name]
    unknown = set(obj) - set(schema)
    if unknown:
        raise ProtocolError(f"unknown fields {sorted(unknown)} in {name}")
    missing = set(schema) - set(obj)
    if missing:
        raise ProtocolError(f"missing fields {sorted(missing)} in {name}")
    kwargs = {fld: _take(tag, obj[fld], fld) for fld, tag in schema.items()}
    return _CLASSES[name](**kwargs)
