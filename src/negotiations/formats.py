"""File formats: the negotiation JSON interchange format, local-word and
execution string forms, and Graphviz DOT output.

The JSON format is byte-stable: UTF-8, no extra whitespace, keys emitted in
the fixed order processes, actions, nodes, init, fin, transitions, and all
entries in declared order.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .model import DistributedAlphabet, Negotiation, local_edges


def serialize(n: Negotiation) -> str:
    edges = local_edges(n)
    obj = {
        "processes": list(n.alphabet.processes),
        "actions": {a: list(n.alphabet.dom[a]) for a in n.alphabet.actions},
        "nodes": {m: list(n.dnode[m]) for m in n.nodes},
        "init": n.init,
        "fin": n.fin,
        "transitions": [[m, a, p, t] for m in n.nodes for (a, p), t in edges.get(m, ())],
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _names(where: str, values) -> tuple:
    """`values` as a tuple of identifiers, which are JSON strings: a `1`,
    `null` or `true` could not be named in a word or written as DOT."""
    for i, v in enumerate(values):
        if not isinstance(v, str):
            raise ParseError(f"{where}[{i}] must be a string")
    return tuple(values)


def parse(text: str) -> Negotiation:
    try:
        obj = json.loads(text)
    # ValueError covers JSONDecodeError and integers past the digit limit;
    # RecursionError, documents nested too deeply
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    required = ["processes", "actions", "nodes", "init", "fin", "transitions"]
    for key in required:
        if key not in obj:
            raise ParseError(f"missing key {key!r}")
    for key in obj:
        if key not in required:
            raise ParseError(f"unknown key {key!r}")
    # a string is iterable, so tuple("pq") would silently read as ("p", "q")
    if not isinstance(obj["processes"], list):
        raise ParseError("'processes' must be a list of process names")
    _names("processes", obj["processes"])
    for key in ("actions", "nodes"):
        if not isinstance(obj[key], dict):
            raise ParseError(f"{key!r} must be an object mapping names to process lists")
        for name, ps in obj[key].items():
            if not isinstance(ps, list):
                raise ParseError(f"{key}[{name!r}] must be a list of processes")
            _names(f"{key}[{name!r}]", ps)
    for key in ("init", "fin"):
        if not isinstance(obj[key], str):
            raise ParseError(f"{key!r} must be a node name")
    try:
        alphabet = DistributedAlphabet(
            processes=tuple(obj["processes"]),
            actions=tuple(obj["actions"]),
            dom={a: tuple(ps) for a, ps in obj["actions"].items()},
        )
        delta = {}
        for i, row in enumerate(obj["transitions"]):
            if not (isinstance(row, list) and len(row) == 4):
                raise ParseError(f"transitions[{i}] must be [node, action, process, node]")
            m, a, p, t = _names(f"transitions[{i}]", row)
            if (m, a, p) in delta:
                raise ParseError(f"transitions[{i}] duplicates ({m},{a},{p})")
            delta[(m, a, p)] = t
        return Negotiation(
            alphabet=alphabet,
            nodes=tuple(obj["nodes"]),
            dnode={m: tuple(ps) for m, ps in obj["nodes"].items()},
            delta=delta,
            init=obj["init"],
            fin=obj["fin"],
        )
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def load(path: str) -> Negotiation:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from exc
    return parse(text)


def save(n: Negotiation, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(n))


# -- words ------------------------------------------------------------------


def parse_local_word(text: str, alphabet: DistributedAlphabet):
    letters = []
    for i, tok in enumerate(text.split()):
        if "@" not in tok:
            raise ParseError(f"letter {i} ({tok!r}) is not of the form action@process")
        a, _, p = tok.partition("@")
        if a not in alphabet.dom:
            raise ParseError(f"letter {i}: unknown action {a!r}")
        if p not in alphabet.dom_set(a):
            raise ParseError(f"letter {i}: {p!r} not in dom({a!r})")
        letters.append((a, p))
    return tuple(letters)


def parse_execution(text: str, alphabet: DistributedAlphabet):
    word = tuple(text.split())
    for i, a in enumerate(word):
        if a not in alphabet.dom:
            raise ParseError(f"letter {i}: unknown action {a!r}")
    return word


# -- DOT ----------------------------------------------------------------------


def _dot_text(s: str, special: str = "") -> str:
    """`s` for a quoted DOT string whose label shows `s`: a backslash before
    each backslash, each double quote and each character of `special`."""
    for c in '\\"' + special:
        s = s.replace(c, "\\" + c)
    return s


def export_dot(n: Negotiation) -> str:
    lines = ["digraph negotiation {", "  rankdir=TB;", "  node [shape=record];"]
    for m in n.nodes:
        dom = ",".join(n.dnode[m])
        shape = ""
        if m == n.init:
            shape = ' color=blue'
        elif m == n.fin:
            shape = ' color=red'
        label = " | ".join(_dot_text(x, "{}|<>") for x in (m, dom))  # record syntax
        lines.append(f'  "{_dot_text(m)}" [label="{label}"{shape}];')
    edges = local_edges(n)
    for m in n.nodes:
        for (a, p), t in edges.get(m, ()):
            lines.append(f'  "{_dot_text(m)}" -> "{_dot_text(t)}" [label="{_dot_text(a + "@" + p)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
