"""File formats: the negotiation JSON interchange format, local-word and
execution string forms, and Graphviz DOT output.

The JSON format is byte-stable: UTF-8, no extra whitespace, keys emitted in
the fixed order processes, actions, nodes, init, fin, transitions, and all
entries in declared order.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .model import DistributedAlphabet, Negotiation


def serialize(n: Negotiation) -> str:
    obj = {
        "processes": list(n.alphabet.processes),
        "actions": {a: list(n.alphabet.dom[a]) for a in n.alphabet.actions},
        "nodes": {m: list(n.dnode[m]) for m in n.nodes},
        "init": n.init,
        "fin": n.fin,
        "transitions": [
            [m, a, p, n.delta[(m, a, p)]]
            for m in n.nodes
            for a in n.alphabet.actions
            for p in n.alphabet.processes  # not dom(a): keep what `validate` rejects
            if (m, a, p) in n.delta
        ],
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def parse(text: str) -> Negotiation:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
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
    for key in ("actions", "nodes"):
        if not isinstance(obj[key], dict):
            raise ParseError(f"{key!r} must be an object mapping names to process lists")
        for name, ps in obj[key].items():
            if not isinstance(ps, list):
                raise ParseError(f"{key}[{name!r}] must be a list of processes")
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
            m, a, p, t = row
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
        return parse(fh.read())


def save(n: Negotiation, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(n))


# -- words ------------------------------------------------------------------


def format_local_word(pi) -> str:
    return " ".join(f"{a}@{p}" for a, p in pi)


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


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def export_dot(n: Negotiation) -> str:
    lines = ["digraph negotiation {", "  rankdir=TB;", "  node [shape=record];"]
    for m in n.nodes:
        dom = ",".join(n.dnode[m])
        shape = ""
        if m == n.init:
            shape = ' color=blue'
        elif m == n.fin:
            shape = ' color=red'
        lines.append(f"  {_dot_quote(m)} [label={_dot_quote(m + ' | ' + dom)}{shape}];")
    for m in n.nodes:
        for a in n.alphabet.actions:
            for p in n.alphabet.processes:
                t = n.delta.get((m, a, p))
                if t is not None:
                    lines.append(
                        f"  {_dot_quote(m)} -> {_dot_quote(t)} [label={_dot_quote(f'{a}@{p}')}];"
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"
