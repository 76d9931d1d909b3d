"""Canonical JSON instance files.

Rationals travel as "p/q" strings in lowest terms (JSON numbers are floats,
which would destroy exactness), keys are sorted, and loading then saving a
canonical file is the identity byte for byte.  The optional ``structure``
member carries an initial coalition structure, and ``meta`` is free-form
data such as the generating family and its parameters.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import Coalition, CoalitionStructure, validate_structure
from .space import (
    Agent,
    DeliberationSpace,
    Kind,
    Point,
    SpaceError,
    euclidean_point,
    grid_point,
    hypercube_point,
)

FORMAT_VERSION = 1

_KIND_TAGS = {
    "hypercube": (Kind.HYPERCUBE, False),
    "euclidean": (Kind.EUCLIDEAN, False),
    "grid": (Kind.GRID, False),
    "grid_nonneg": (Kind.GRID, True),
}


class InstanceFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Instance:
    space: DeliberationSpace
    structure: CoalitionStructure | None = None
    meta: dict | None = None


def _kind_tag(space: DeliberationSpace) -> str:
    if space.kind is Kind.GRID and space.grid_nonneg:
        return "grid_nonneg"
    return space.kind.value


def coords_document(p: Point):
    """JSON-ready coordinate list in the file schema's conventions."""
    if p.kind is Kind.HYPERCUBE:
        return list(p.coords())
    if p.kind is Kind.EUCLIDEAN:
        return [str(c) for c in p.coords()]
    return list(p.data)


_INEXACT = {bool, float}


def _exact(values, convert=int) -> list:
    """``convert`` applied to each of the list ``values``, refusing JSON
    floats and booleans: a float has already lost exactness, and ``int``
    would truncate either in silence.  Any other JSON value in place of the
    list is refused too, since a string would be read one character at a
    time."""
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {type(values).__name__}")
    if not _INEXACT.isdisjoint(map(type, values)):
        raise TypeError("JSON floats and booleans are not exact numbers")
    return [convert(v) for v in values]


def _fraction_memo():
    """``Fraction``, parsing each distinct string once: dense Euclidean
    files repeat a few coordinate strings, "0" most of all."""
    parsed: dict[str, Fraction] = {}

    def fraction(value) -> Fraction:
        if type(value) is not str:
            return Fraction(value)
        if value not in parsed:
            parsed[value] = Fraction(value)
        return parsed[value]

    return fraction


def _point_in(kind: Kind, coords, dim: int, fraction) -> Point:
    try:
        if kind is Kind.HYPERCUBE:
            return hypercube_point(_exact(coords))
        if kind is Kind.EUCLIDEAN:
            return euclidean_point(_exact(coords, fraction))
        return grid_point(*_exact(coords))
    except (ValueError, TypeError, KeyError, IndexError, OverflowError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"bad coordinates {coords!r}: {exc}") from exc


def _entries(entries, key: str, required: set[str]) -> list[dict]:
    """``entries``, the value under ``key``, as a list of objects holding ``required``."""
    if not isinstance(entries, list):
        raise InstanceFormatError(f"{key!r} must be a list")
    for entry in entries:
        if not isinstance(entry, dict) or not entry.keys() >= required:
            raise InstanceFormatError(f"each {key!r} entry must be an object with {', '.join(sorted(required))}")
    return entries


def to_document(inst: Instance) -> dict:
    space = inst.space
    doc = {
        "version": FORMAT_VERSION,
        "kind": _kind_tag(space),
        "d": space.dim,
        "agents": [
            {"coords": coords_document(a.position), "weight": str(a.weight)} for a in space.agents
        ],
    }
    if inst.structure is not None:
        doc["structure"] = [
            {"proposal": coords_document(c.proposal), "members": sorted(c.members)}
            for c in inst.structure.coalitions
        ]
    if inst.meta:
        doc["meta"] = inst.meta
    return doc


def from_document(doc: dict) -> Instance:
    try:
        kind_tag = doc["kind"]
        dim = _exact([doc["d"]])[0]
        agents_doc = doc["agents"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"missing or malformed field: {exc}") from exc
    if doc.get("version") != FORMAT_VERSION:
        raise InstanceFormatError(f"unsupported format version {doc.get('version')!r}")
    if not isinstance(kind_tag, str) or kind_tag not in _KIND_TAGS:
        raise InstanceFormatError(f"unknown kind {kind_tag!r}")
    if not isinstance(doc.get("meta", {}), (dict, type(None))):
        raise InstanceFormatError("'meta' must be an object")
    kind, nonneg = _KIND_TAGS[kind_tag]
    fraction = _fraction_memo()
    agents = []
    for a in _entries(agents_doc, "agents", {"coords"}):
        try:
            weight = _exact([a.get("weight", "1")], fraction)[0]
        except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"bad weight {a.get('weight')!r}") from exc
        pos = _point_in(kind, a["coords"], dim, fraction)
        if pos.dim != dim:
            raise InstanceFormatError("agent dimension disagrees with the header")
        try:
            agents.append(Agent(pos, weight))
        except SpaceError as exc:
            raise InstanceFormatError(str(exc)) from exc
    try:
        space = DeliberationSpace(kind, dim, tuple(agents), grid_nonneg=nonneg)
    except SpaceError as exc:
        raise InstanceFormatError(str(exc)) from exc
    structure = None
    if "structure" in doc:
        coalitions = []
        for c in _entries(doc["structure"], "structure", {"proposal", "members"}):
            proposal = _point_in(kind, c["proposal"], dim, fraction)
            try:
                coalitions.append(Coalition(frozenset(_exact(c["members"])), proposal))
            except (ValueError, TypeError, OverflowError) as exc:
                raise InstanceFormatError(f"bad members {c['members']!r}: {exc}") from exc
        structure = CoalitionStructure(tuple(coalitions))
        try:
            validate_structure(space, structure)
        except Exception as exc:
            raise InstanceFormatError(f"invalid stored structure: {exc}") from exc
    return Instance(space, structure, doc.get("meta"))


def _write(inst: Instance, fh):
    """The file format: sorted keys, two-space indent, a final newline."""
    json.dump(to_document(inst), fh, sort_keys=True, indent=2)
    fh.write("\n")


def dumps(inst: Instance) -> str:
    buf = io.StringIO()
    _write(inst, buf)
    return buf.getvalue()


def loads(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    return from_document(doc)


def save(inst: Instance, path: str):
    """Write the bytes :func:`dumps` returns, streamed to the file."""
    with open(path, "w", encoding="utf-8") as fh:
        _write(inst, fh)


def load(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceFormatError(f"not UTF-8 text: {exc}") from exc
    return loads(text)
