"""Wire messages: newline-delimited JSON, one message per line.

Vector and matrix payloads (a matrix with its shape) are base64 of their
little-endian IEEE-754 binary64 bytes and decode to read-only float64 arrays
of exactly those bytes; scalar floats carry 17 significant digits, also
exact. Non-finite numbers (DomainError on encode), unknown message types and
unknown or missing fields are rejected. The handshake pins PROTOCOL_VERSION.
"""

import base64
import json
from dataclasses import dataclass

import numpy as np

from .errors import AealError, DomainError, ProtocolError
from .sketch import SketchOffer
from .stats import ScreenResult

PROTOCOL_VERSION = "aeal/6"


@dataclass(frozen=True)
class Handshake:
    version: str
    n: int
    family: str
    lam: float
    id_digest: str = None   # SHA-256 of the sorted row ids; None for views from arrays

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:  # NaN fails too
            raise ValueError(f"ridge must be nonnegative and finite, got {self.lam}")


@dataclass(frozen=True)
class ResponseShare:
    y: np.ndarray


@dataclass(frozen=True)
class Offset:
    round: int
    vector: np.ndarray


@dataclass(frozen=True)
class PredictContribution:
    nu: np.ndarray       # one entry per predict row
    sigma: np.ndarray

    def __post_init__(self):
        if len(self.nu) != len(self.sigma):
            raise ValueError("nu and sigma differ in length")
        if np.any(np.asarray(self.sigma) < 0):
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class Stop:
    reason: str


@dataclass(frozen=True)
class GradShare:
    round: int
    vector: np.ndarray


# field name -> wire type tag, per message type
_SCHEMAS = {
    "Handshake": {"version": "str", "n": "int", "family": "str", "lam": "float",
                  "id_digest": "str?"},
    "SketchOffer": {"projected": "matrix", "t": "int", "noised": "bool",
                    "epsilon": "float?", "c2": "float?"},
    "ScreenResult": {"statistic": "float", "df": "int", "p_value": "float",
                     "reject": "bool", "alpha": "float"},
    "ResponseShare": {"y": "vector"},
    "Offset": {"round": "int", "vector": "vector"},
    "PredictContribution": {"nu": "vector", "sigma": "vector"},
    "Stop": {"reason": "str"},
    "GradShare": {"round": "int", "vector": "vector"},
}

_CLASSES = {cls.__name__: cls for cls in (
    Handshake, SketchOffer, ScreenResult, ResponseShare, Offset, PredictContribution,
    Stop, GradShare)}

# Decimal form with 17 significant digits; float() recovers the exact bits.
format_float = "{:.17g}".format


def _check_finite(value, fld):
    if not np.isfinite(value).all():
        raise DomainError(f"field {fld!r}: non-finite values cannot be sent")


def _emit(tag, value, fld):
    if tag == "str":
        return json.dumps(value)
    if tag == "int":
        return str(int(value))
    if tag == "bool":
        return "true" if value else "false"
    if tag == "float":
        _check_finite(value, fld)
        text = format_float(value)
        return "-0.0" if text == "-0" else text  # "-0" would parse as the integer 0
    if tag in ("float?", "str?"):
        return "null" if value is None else _emit(tag[:-1], value, fld)
    if tag in ("vector", "matrix"):
        arr = np.asarray(value, "<f8")
        _check_finite(arr, fld)
        data = '"' + base64.b64encode(arr.tobytes()).decode("ascii") + '"'
        if tag == "vector":
            return data
        rows, cols = arr.shape
        return f'{{"shape":[{rows},{cols}],"data":{data}}}'
    raise AssertionError(tag)


def encode(msg):
    """One JSON line (without the trailing newline) for a message object."""
    name = type(msg).__name__
    schema = _SCHEMAS.get(name)
    if schema is None:
        raise ProtocolError(f"unencodable message type {name!r}")
    parts = ['"type":' + json.dumps(name)]
    for fld, tag in schema.items():
        parts.append(json.dumps(fld) + ":" + _emit(tag, getattr(msg, fld), fld))
    return "{" + ",".join(parts) + "}"


# JSON types each scalar tag accepts; a bool, an int subclass, only as "bool"
_SCALAR_TYPES = {"str": str, "int": int, "bool": bool, "float": (int, float)}


def _take(tag, value, fld):
    def bad(expected):
        raise ProtocolError(f"field {fld!r}: expected {expected}")
    if tag in _SCALAR_TYPES:
        if not isinstance(value, _SCALAR_TYPES[tag]) or (
                isinstance(value, bool) and tag != "bool"):
            bad(tag)
        try:  # an integer past float range overflows; a literal like 1e400 reads as inf
            if tag != "float" or np.isfinite(value := float(value)):
                return value
        except OverflowError:
            pass
        bad("a finite number")
    if tag in ("float?", "str?"):
        return None if value is None else _take(tag[:-1], value, fld)
    if tag == "vector":
        try:  # a non-string, bad base64 and a partial double all land here
            arr = np.frombuffer(base64.b64decode(value, validate=True), "<f8")
        except (TypeError, ValueError):
            bad("base64 of whole 8-byte doubles")
        if not np.isfinite(arr).all():
            bad("finite numbers")
        return arr
    if tag == "matrix":
        if not isinstance(value, dict) or set(value) != {"shape", "data"}:
            bad("object with shape and data")
        shape = _take("ints", value["shape"], fld)
        if len(shape) != 2 or min(shape) < 0:  # reshape would read -1 as "infer"
            bad("shape [rows, cols]")
        try:
            return _take("vector", value["data"], fld).reshape(shape)
        except ValueError:
            bad("data of rows x cols doubles")
    if tag == "ints":
        if not isinstance(value, list):
            bad("array")
        return tuple(_take("int", v, fld) for v in value)
    raise AssertionError(tag)


def _reject_constant(name):
    raise ProtocolError(f"non-finite number {name} on the wire")


def decode(line):
    """Parse one line into a message built by its class (sketch.SketchOffer and
    stats.ScreenResult too), rejecting anything off-schema or against its invariants."""
    try:
        obj = json.loads(line, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # e.g. an int past 4300 digits
        raise ProtocolError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("message must be a JSON object")
    name = obj.pop("type", None)
    if not isinstance(name, str) or name not in _SCHEMAS:
        raise ProtocolError(f"unknown message type {name!r}")
    schema = _SCHEMAS[name]
    unknown = set(obj) - set(schema)
    if unknown:
        raise ProtocolError(f"unknown fields {sorted(unknown)} in {name}")
    missing = set(schema) - set(obj)
    if missing:
        raise ProtocolError(f"missing fields {sorted(missing)} in {name}")
    kwargs = {fld: _take(tag, obj[fld], fld) for fld, tag in schema.items()}
    try:
        return _CLASSES[name](**kwargs)
    except (AealError, ValueError) as exc:
        raise ProtocolError(f"malformed {name}: {exc}") from None
