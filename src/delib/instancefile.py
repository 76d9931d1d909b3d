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
from math import gcd

from .dynamics import Coalition, CoalitionStructure, validate_structure
from .space import (
    Agent,
    DeliberationSpace,
    Kind,
    Point,
    SpaceError,
    _echo,
    euclidean_point,
    grid_point,
    hypercube_point,
    rational,
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
_INT = {int}


def _exact(values, convert=int) -> list:
    """``convert`` applied to each of the list ``values``, refusing JSON
    floats and booleans: a float has already lost exactness, and ``int``
    would truncate either in silence.  Any other JSON value in place of the
    list is refused too, since a string would be read one character at a
    time.  A list of ints is returned as it is when ``convert`` is ``int``."""
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {type(values).__name__}")
    types = set(map(type, values))
    if not _INEXACT.isdisjoint(types):
        raise TypeError("JSON floats and booleans are not exact numbers")
    if convert is int and types <= _INT:
        return values
    return [convert(v) for v in values]


def _fraction_memo():
    """:func:`rational` for one JSON number or string, parsing each distinct
    string once (dense Euclidean files repeat a few coordinate strings, "0"
    most of all) and refusing JSON floats and booleans as :func:`_exact` does."""
    parsed: dict[str, Fraction] = {}

    def fraction(value) -> Fraction:
        if type(value) is str:
            if value not in parsed:
                parsed[value] = rational(value)
            return parsed[value]
        if type(value) in _INEXACT:
            raise TypeError("JSON floats and booleans are not exact numbers")
        return Fraction(value)

    return fraction


def _point_in(kind: Kind, coords, dim: int, fraction) -> Point:
    try:
        if kind is Kind.HYPERCUBE:
            return hypercube_point(_exact(coords))
        if kind is Kind.EUCLIDEAN:
            return euclidean_point(_exact(coords, fraction))
        return grid_point(*_exact(coords))
    except (ValueError, TypeError, KeyError, IndexError, OverflowError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"bad coordinates {_echo(coords)}: {exc}") from exc


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
            weight = fraction(a.get("weight", "1"))
        except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"bad weight {_echo(a.get('weight'))}") from exc
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


def _list_text(items) -> str:
    """A JSON list of already encoded ``items`` inside an entry: coordinates,
    a proposal or members, all at depth 3."""
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def _coords_text(space: DeliberationSpace):
    """The encoder of a point's ``coords_document`` list."""
    if space.kind is Kind.HYPERCUBE:
        spec = f"0{space.dim}b"
        return lambda p: _list_text(format(p.data, spec))
    if space.kind is Kind.EUCLIDEAN:
        zeros = ['"0"'] * space.dim

        def euclidean(p: Point) -> str:
            q, pairs = p.data
            items = zeros.copy()
            for i, c in pairs:
                g = gcd(c, q)
                items[i] = f'"{c // g}"' if g == q else f'"{c // g}/{q // g}"'
            return _list_text(items)

        return euclidean
    return lambda p: _list_text([repr(c) for c in p.data])


def _write_entries(fh, key: str, entries):
    """Write ``"key": [...],`` at depth 1, each encoded entry as it comes."""
    first = next(entries, None)
    if first is None:
        fh.write(f'  "{key}": [],\n')
        return
    fh.write(f'  "{key}": [\n    {first}')
    fh.writelines(map(",\n    ".__add__, entries))
    fh.write("\n  ],\n")


def _write(inst: Instance, fh):
    """Write the bytes of ``json.dump(to_document(inst), fh, sort_keys=True,
    indent=2)`` and a final newline, one agent or coalition entry at a time.

    ``json.dump`` encodes in pure Python whenever it indents, and the
    document would hold every entry at once; the entries here are joined
    from strings and written as they are made.  ``meta`` is the one free-form
    value: ``json.dumps`` encodes it, and since JSON escapes every newline
    inside a string, indenting its lines by two spaces places it at depth 1.
    Rationals are "p/q" or "p" strings and tags are fixed names, so neither
    needs escaping.
    """
    space = inst.space
    coords = _coords_text(space)
    fh.write("{\n")
    _write_entries(fh, "agents", (
        f'{{\n      "coords": {coords(a.position)},\n      "weight": "{a.weight!s}"\n    }}' for a in space.agents
    ))
    fh.write(f'  "d": {space.dim!r},\n  "kind": "{_kind_tag(space)}",\n')
    if inst.meta:
        fh.write('  "meta": ' + json.dumps(inst.meta, sort_keys=True, indent=2).replace("\n", "\n  ") + ",\n")
    if inst.structure is not None:
        _write_entries(fh, "structure", (
            f'{{\n      "members": {_list_text([repr(m) for m in sorted(c.members)])},'
            f'\n      "proposal": {coords(c.proposal)}\n    }}'
            for c in inst.structure.coalitions
        ))
    fh.write(f'  "version": {FORMAT_VERSION}\n}}\n')


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
