"""JSON (de)serialization for schemas, instances, queries, constraints.

The wire format is intentionally explicit:

* schema: ``{"relations": [{"name": "R", "attributes":
  [{"name": "a"}, {"name": "b", "domain": ["x", "y"]}]}]}`` — an attribute
  without ``"domain"`` is infinite, with it a finite domain;
* instance: ``{"R": [[1, 2], [3, 4]]}``;
* query: ``{"language": "CQ" | "UCQ" | "FP", "text": "...", "goal": "T"}``
  using the textual rule syntax of :mod:`repro.queries.parser`;
* constraint: ``{"name": "φ0", "query": {...},
  "projection": {"relation": "DCust", "columns": [0]}}`` where a null
  relation means the empty target ``∅``.

Values round-trip as JSON scalars; tuples inside instances become lists on
disk and tuples again on load.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable, Sequence

from repro.constraints.containment import (ContainmentConstraint,
                                           Projection)
from repro.errors import BundleError, ReproError
from repro.queries.parser import parse_program, parse_query
from repro.relational.domain import FiniteDomain, INFINITE
from repro.relational.instance import Instance
from repro.relational.schema import (Attribute, DatabaseSchema,
                                     RelationSchema)

__all__ = [
    "schema_to_dict", "schema_from_dict",
    "instance_to_dict", "instance_from_dict",
    "query_to_dict", "query_from_dict",
    "constraint_to_dict", "constraint_from_dict",
    "incomplete_to_dict", "incomplete_from_dict",
    "dump_bundle", "load_bundle", "check_bundle_shape",
]


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


def schema_to_dict(schema: DatabaseSchema) -> dict:
    relations = []
    for relation in schema:
        attributes = []
        for attribute in relation.attributes:
            entry: dict[str, Any] = {"name": attribute.name}
            if not attribute.domain.is_infinite:
                entry["domain"] = sorted(
                    attribute.domain.values, key=repr)
            attributes.append(entry)
        relations.append({"name": relation.name, "attributes": attributes})
    return {"relations": relations}


def schema_from_dict(data: dict) -> DatabaseSchema:
    relations = []
    for relation in data["relations"]:
        attributes = []
        for attribute in relation["attributes"]:
            if "domain" in attribute:
                domain = FiniteDomain(attribute["domain"],
                                      name=f"{attribute['name']}-domain")
            else:
                domain = INFINITE
            attributes.append(Attribute(attribute["name"], domain))
        relations.append(RelationSchema(relation["name"], attributes))
    return DatabaseSchema(relations)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def instance_to_dict(instance: Instance) -> dict:
    # Rows are ordered by a type-aware key rather than plain ``sorted``:
    # a relation mixing int and str values in one column (generated
    # corpora do this) would otherwise crash the comparison.  The key is
    # deterministic, so identical instances serialize byte-identically.
    return {name: [list(row) for row in
                   sorted(rows, key=_row_sort_key)]
            for name, rows in instance if rows}


def _row_sort_key(row: tuple) -> tuple:
    # Values of one type compare natively; across types the type name
    # decides, so int/str mixtures order deterministically.
    return tuple((type(value).__name__, value) for value in row)


def instance_from_dict(data: dict, schema: DatabaseSchema, *,
                       validate: bool = True) -> Instance:
    """Build an :class:`Instance` from the wire format.

    ``validate=False`` is the bulk-load fast path: arity and domain
    checks are skipped, which is sound for bundles this module wrote
    itself (``dump_bundle`` only serializes validated instances).
    """
    contents = {name: {tuple(row) for row in rows}
                for name, rows in data.items()}
    return Instance(schema, contents, validate=validate)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def query_to_dict(query: Any) -> dict:
    language = getattr(query, "language", None)
    if language in ("CQ", "UCQ"):
        disjuncts = query.to_cq_disjuncts()
        text = "\n".join(_render_cq(d) for d in disjuncts)
        return {"language": language, "text": text}
    if language == "FP":
        rename = _variable_renaming(
            name for r in query.rules
            for atom in (r.head, *r.body)
            for name in _atom_variable_names(atom))
        text = "\n".join(_render_rule(r.head, r.body, rename)
                         for r in query.rules)
        return {"language": "FP", "text": text, "goal": query.goal}
    raise ReproError(
        f"JSON serialization supports CQ/UCQ/FP queries, not {language}")


_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def _atom_variable_names(atom: Any) -> list[str]:
    from repro.queries.atoms import RelAtom
    from repro.queries.terms import Var

    terms = (atom.terms if isinstance(atom, RelAtom)
             else (atom.left, atom.right))
    return [t.name for t in terms if isinstance(t, Var)]


def _variable_renaming(names: Iterable[str]) -> dict[str, str]:
    """Map variable names onto parser-legal identifiers.

    Queries compiled from constraint classes embed the constraint name
    in their variables (``manage⊆managem.eid1``), which the textual rule
    syntax cannot express; those are rewritten (collision-free) so the
    bundle round-trips.  Legal names pass through untouched.
    """
    distinct = sorted(set(names))
    used = {name for name in distinct if _IDENTIFIER_RE.match(name)}
    rename: dict[str, str] = {}
    for name in distinct:
        if _IDENTIFIER_RE.match(name):
            rename[name] = name
            continue
        base = re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_") or "v"
        if not re.match(r"[A-Za-z_]", base):
            base = "v_" + base
        candidate, suffix = base, 1
        while candidate in used:
            suffix += 1
            candidate = f"{base}_{suffix}"
        used.add(candidate)
        rename[name] = candidate
    return rename


def _render_term(term: Any, rename: dict[str, str] | None = None) -> str:
    from repro.queries.terms import Var

    if isinstance(term, Var):
        return rename.get(term.name, term.name) if rename else term.name
    value = term.value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ReproError(
            f"the textual wire format supports int and str constants "
            f"only, got {value!r} ({type(value).__name__})")
    if isinstance(value, int):
        return str(value)
    if "'" in value:
        raise ReproError(
            f"string constant {value!r} contains a quote; not "
            f"representable in the textual wire format")
    return "'" + value + "'"


def _render_atom(atom: Any, rename: dict[str, str] | None = None) -> str:
    from repro.queries.atoms import Eq, RelAtom

    if isinstance(atom, RelAtom):
        inner = ", ".join(_render_term(t, rename) for t in atom.terms)
        return f"{atom.relation}({inner})"
    symbol = "=" if isinstance(atom, Eq) else "!="
    return (f"{_render_term(atom.left, rename)} {symbol} "
            f"{_render_term(atom.right, rename)}")


def _render_rule(head: Any, body: Any,
                 rename: dict[str, str] | None = None) -> str:
    head_text = _render_atom(head, rename)
    if not body:
        return head_text
    return head_text + " :- " + ", ".join(_render_atom(a, rename)
                                          for a in body)


def _render_cq(query: Any) -> str:
    from repro.queries.atoms import RelAtom

    head = RelAtom("Q", query.head)
    rename = _variable_renaming(
        name for atom in (head, *query.body)
        for name in _atom_variable_names(atom))
    return _render_rule(head, query.body, rename)


def query_from_dict(data: dict) -> Any:
    language = data.get("language", "CQ")
    if language in ("CQ", "UCQ"):
        return parse_query(data["text"])
    if language == "FP":
        return parse_program(data["text"], goal=data["goal"])
    raise ReproError(f"unsupported query language {language!r}")


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


def constraint_to_dict(constraint: ContainmentConstraint) -> dict:
    projection = constraint.projection
    return {
        "name": constraint.name,
        "query": query_to_dict(constraint.query),
        "projection": {
            "relation": projection.relation,
            "columns": list(projection.columns),
        },
    }


def constraint_from_dict(data: dict) -> ContainmentConstraint:
    projection_data = data["projection"]
    if projection_data["relation"] is None:
        projection = Projection.empty()
    else:
        projection = Projection.on(projection_data["relation"],
                                   projection_data["columns"])
    return ContainmentConstraint(
        query_from_dict(data["query"]), projection,
        name=data.get("name", "φ"))


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def dump_bundle(path: str, *, schema: DatabaseSchema,
                master_schema: DatabaseSchema, database: Instance,
                master: Instance, query: Any,
                constraints: list[ContainmentConstraint],
                extra: dict | None = None) -> None:
    """Write a whole RCDP problem instance to a JSON file.

    *extra* merges additional top-level blocks into the payload —
    ``"expected"`` golden verdicts, ``"trace"`` expectations, corpus
    metadata.  :func:`load_bundle` ignores unknown keys, so the blocks
    ride along without affecting the problem instance; they may not
    shadow the six problem keys.
    """
    payload = {
        "schema": schema_to_dict(schema),
        "master_schema": schema_to_dict(master_schema),
        "database": instance_to_dict(database),
        "master": instance_to_dict(master),
        "query": query_to_dict(query),
        "constraints": [constraint_to_dict(c) for c in constraints],
    }
    for key, value in (extra or {}).items():
        if key in payload:
            raise ReproError(
                f"bundle extra block {key!r} would shadow a problem key")
        payload[key] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True,
                  ensure_ascii=False)
        handle.write("\n")


#: The top-level blocks of a bundle, as :func:`dump_bundle` writes them.
_BUNDLE_KEYS = ("schema", "master_schema", "database", "master", "query",
               "constraints")


def check_bundle_shape(payload: Any, path: str,
                       required: Sequence[str] = _BUNDLE_KEYS) -> None:
    """Raise :class:`~repro.errors.BundleError` unless *payload* is a
    JSON object with every top-level block in *required* (by default
    all that :func:`dump_bundle` writes, as :func:`load_bundle` reads
    them), a query object with its ``text`` when it has a query, and a
    list of constraint objects, each with a query and a projection,
    when it has constraints.  The message names the missing key or the
    offending constraint's index.
    """
    where = f"bundle {path!r}"
    if not isinstance(payload, dict):
        raise BundleError(f"{where}: the top level must be a JSON object, "
                          f"got {type(payload).__name__}")
    for key in required:
        if key not in payload:
            raise BundleError(f"{where}: missing required key {key!r}")
    if "query" in payload:
        _check_query_shape(payload["query"], f"{where}: query")
    constraints = payload.get("constraints", [])
    if not isinstance(constraints, list):
        raise BundleError(f"{where}: 'constraints' must be a list, got "
                          f"{type(constraints).__name__}")
    for index, entry in enumerate(constraints):
        here = f"{where}: constraint {index}"
        if not isinstance(entry, dict):
            raise BundleError(f"{here} must be a JSON object, got "
                              f"{type(entry).__name__}")
        for key in ("query", "projection"):
            if key not in entry:
                raise BundleError(f"{here}: missing required key {key!r}")
        _check_query_shape(entry["query"], f"{here}: query")
        projection = entry["projection"]
        if not isinstance(projection, dict) or "relation" not in projection:
            raise BundleError(f"{here}: the projection must be an object "
                              f"with a 'relation' key")
        if projection["relation"] is not None \
                and "columns" not in projection:
            raise BundleError(f"{here}: missing required key 'columns' "
                              f"in the projection")


def _check_query_shape(data: Any, where: str) -> None:
    if not isinstance(data, dict):
        raise BundleError(f"{where} must be a JSON object, got "
                          f"{type(data).__name__}")
    required = ("text", "goal") if data.get("language") == "FP" \
        else ("text",)
    for key in required:
        if key not in data:
            raise BundleError(f"{where}: missing required key {key!r}")


def load_bundle(path: str, *, validate: bool = True,
                backend: str | None = None) -> dict:
    """Load a bundle written by :func:`dump_bundle`; returns a dict with
    keys ``schema``, ``master_schema``, ``database``, ``master``,
    ``query``, ``constraints``.

    ``validate=False`` skips per-row arity/domain validation (the bulk
    fast path for trusted bundles).  *backend* eagerly attaches that
    storage backend (``"python"``, ``"columnar"``, ``"sqlite"``) to the
    loaded instances so the first decision doesn't pay the load cost.

    Raises :class:`~repro.errors.BundleError` when *path* cannot be
    read, is not JSON, or does not hold a bundle-shaped JSON object
    (see :func:`check_bundle_shape`).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise BundleError(f"cannot read bundle {path!r}: "
                          f"{error.strerror or error}") from error
    except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
        raise BundleError(f"bundle {path!r} is not valid JSON: "
                          f"{error}") from error
    check_bundle_shape(payload, path)
    schema = schema_from_dict(payload["schema"])
    master_schema = schema_from_dict(payload["master_schema"])
    database = instance_from_dict(payload["database"], schema,
                                  validate=validate)
    master = instance_from_dict(payload["master"], master_schema,
                                validate=validate)
    if backend is not None:
        database.storage(backend)
        master.storage(backend)
    return {
        "schema": schema,
        "master_schema": master_schema,
        "database": database,
        "master": master,
        "query": query_from_dict(payload["query"]),
        "constraints": [constraint_from_dict(c)
                        for c in payload["constraints"]],
    }


# ---------------------------------------------------------------------------
# Incomplete databases (marked nulls, c-tables)
# ---------------------------------------------------------------------------

_NULL_KEY = "⊥"


def _encode_value(value: Any) -> Any:
    from repro.incomplete.nulls import MarkedNull

    if isinstance(value, MarkedNull):
        return {_NULL_KEY: value.name}
    return value


def _decode_value(value: Any) -> Any:
    from repro.incomplete.nulls import MarkedNull

    if isinstance(value, dict) and set(value) == {_NULL_KEY}:
        return MarkedNull(value[_NULL_KEY])
    return value


def incomplete_to_dict(database: Any) -> dict:
    """Serialize an :class:`~repro.incomplete.tables.IncompleteDatabase`.

    Marked nulls become ``{"⊥": name}`` objects; row conditions become
    ``[op, left, right]`` triples with ``op ∈ {"=", "!="}``.
    """
    from repro.incomplete.conditions import EqCondition

    payload: dict[str, list] = {}
    for name in database.schema.relation_names:
        rows = []
        for conditional in database.rows(name):
            entry: dict[str, Any] = {
                "row": [_encode_value(v) for v in conditional.row]}
            if not conditional.condition.is_trivially_true:
                entry["if"] = [
                    ["=" if isinstance(atom, EqCondition) else "!=",
                     _encode_value(atom.left), _encode_value(atom.right)]
                    for atom in conditional.condition.atoms]
            rows.append(entry)
        if rows:
            payload[name] = rows
    return payload


def incomplete_from_dict(data: dict, schema: DatabaseSchema) -> Any:
    """Inverse of :func:`incomplete_to_dict`."""
    from repro.incomplete.conditions import (Condition, EqCondition,
                                             NeqCondition)
    from repro.incomplete.tables import (ConditionalRow,
                                         IncompleteDatabase)

    contents: dict[str, list] = {}
    for name, rows in data.items():
        decoded = []
        for entry in rows:
            row = tuple(_decode_value(v) for v in entry["row"])
            atoms = []
            for op, left, right in entry.get("if", []):
                kind = EqCondition if op == "=" else NeqCondition
                atoms.append(kind(_decode_value(left),
                                  _decode_value(right)))
            decoded.append(ConditionalRow(row, Condition(atoms)))
        contents[name] = decoded
    return IncompleteDatabase(schema, contents)
