"""Partial DFAs over local letters a@p, minimization, and the negotiation
round-trip: Paths(N) as a DFA, dom-completeness, and rebuilding a negotiation
from a dom-complete DFA. Minimal DFAs are canonically BFS-renamed, so
isomorphism of minimal forms is plain structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AlphabetMismatch,
    FinalHasOutgoing,
    MultipleFinals,
    NotDomComplete,
)
from .model import DistributedAlphabet, Negotiation, bfs, reach


@dataclass
class PartialDfa:
    """Deterministic, possibly incomplete automaton over A_dom letters."""

    alphabet: DistributedAlphabet
    states: tuple
    delta: dict  # (state, (action, process)) -> state
    init: str
    finals: frozenset

    def __post_init__(self):
        self.states = tuple(self.states)
        self.finals = frozenset(self.finals)
        state_set = set(self.states)
        if self.init not in state_set:
            raise ValueError("initial state not declared")
        if not self.finals <= state_set:
            raise ValueError("final states not declared")
        for (s, (a, p)), t in self.delta.items():
            if s not in state_set or t not in state_set:
                raise ValueError(f"transition ({s},{a}@{p}) -> {t} references unknown state")
            if a not in self.alphabet.dom or p not in self.alphabet.dom_set(a):
                raise ValueError(f"illegal letter {a}@{p}")

    def out(self, s) -> tuple:
        """Outgoing letters of `s`, in declared letter order."""
        return tuple(l for l in self.alphabet.local_letters() if (s, l) in self.delta)

    def accepts(self, word) -> bool:
        s = self.init
        for letter in word:
            s = self.delta.get((s, tuple(letter)))
            if s is None:
                return False
        return s in self.finals


def paths_dfa(n: Negotiation) -> PartialDfa:
    """The negotiation graph read as a DFA accepting Paths(N); trimmed."""
    delta = {(m, (a, p)): t for (m, a, p), t in n.delta.items()}
    dfa = PartialDfa(
        alphabet=n.alphabet,
        states=n.nodes,
        delta=delta,
        init=n.init,
        finals=frozenset({n.fin}),
    )
    return trim(dfa)


def trim(dfa: PartialDfa) -> PartialDfa:
    """Drop states not reachable from init or not co-reachable from a final.
    The initial state is always kept (possibly as the sole, non-accepting
    state of an empty-language automaton)."""
    succ = {}
    pred = {}
    for (s, l), t in dfa.delta.items():
        succ.setdefault(s, []).append(t)
        pred.setdefault(t, []).append(s)
    fwd = reach(lambda s: succ.get(s, ()), [dfa.init])
    bwd = reach(lambda s: pred.get(s, ()), dfa.finals)
    keep = (fwd & bwd) | {dfa.init}
    return PartialDfa(
        alphabet=dfa.alphabet,
        states=tuple(s for s in dfa.states if s in keep),
        delta={
            (s, l): t for (s, l), t in dfa.delta.items() if s in keep and t in keep
        },
        init=dfa.init,
        finals=dfa.finals & keep,
    )


def minimize(dfa: PartialDfa) -> PartialDfa:
    """Trim, refine partitions Moore-style, and rename canonically by BFS
    order."""
    letters = dfa.alphabet.local_letters()
    dfa = trim(dfa)
    # the empty language: trimming kept init alone, maybe with a self-loop
    if not dfa.finals:
        return PartialDfa(dfa.alphabet, ("s0",), {}, "s0", frozenset())

    # Moore refinement: split blocks by (block of successor per letter),
    # numbering the classes in first-seen order; the canonical renaming
    # below makes the numbering irrelevant. A missing move reads as None,
    # a marker of its own: after trimming every state is live, so none is
    # equivalent to the missing moves' sink.
    block = {s: (s in dfa.finals) for s in dfa.states}
    while True:
        ids = {}
        new_block = {s: ids.setdefault((block[s], tuple(block.get(dfa.delta.get((s, l)))
                                                        for l in letters)),
                                       len(ids))
                     for s in dfa.states}
        stable = len(ids) == len(set(block.values()))
        block = new_block
        if stable:
            break

    merged = PartialDfa(
        alphabet=dfa.alphabet,
        states=tuple(sorted(set(block.values()))),
        delta={(block[s], l): block[t] for (s, l), t in dfa.delta.items()},
        init=block[dfa.init],
        finals=frozenset(block[s] for s in dfa.finals),
    )
    # every state is live, so the quotient is trim too
    return canonical_relabel(merged)


def canonical_relabel(dfa: PartialDfa) -> PartialDfa:
    """Deterministic BFS renaming s0, s1, ... expanding letters in declared
    order; minimal DFAs of the same language become structurally equal.
    Every state of `dfa` must be reachable from its initial state."""
    letters = dfa.alphabet.local_letters()

    def moves(s):
        return [(l, dfa.delta[(s, l)]) for l in letters if (s, l) in dfa.delta]

    found, _ = bfs(dfa.init, moves)
    name = {s: f"s{i}" for i, s in enumerate(found)}
    return PartialDfa(
        alphabet=dfa.alphabet,
        states=tuple(name.values()),
        delta={(name[s], l): name[t] for (s, l), t in dfa.delta.items()},
        init=name[dfa.init],
        finals=frozenset(name[s] for s in dfa.finals),
    )


def is_dom_complete(dfa: PartialDfa):
    """(ok, violations) for the dom-completeness conditions."""
    violations = []
    alpha = dfa.alphabet
    for s in dfa.states:
        letters = dfa.out(s)
        acts = {a for (a, _) in letters}
        for a in acts:
            present = {p for (b, p) in letters if b == a}
            missing = alpha.dom_set(a) - present
            first = min(present, key=alpha.proc_index)
            for p in sorted(missing, key=alpha.proc_index):
                violations.append(f"state {s!r}: {a}@{first} present but {a}@{p} missing")
        doms = {alpha.dom_set(a) for a in acts}
        if len(doms) > 1:
            violations.append(f"state {s!r}: outgoing actions {sorted(acts)} have differing domains")
    init_acts = {a for (a, _) in dfa.out(dfa.init)}
    if not any(alpha.dom_set(a) == frozenset(alpha.processes) for a in init_acts):
        violations.append("initial state has no outgoing action with full process domain")
    return (not violations, violations)


def negotiation_from_dfa(dfa: PartialDfa) -> Negotiation:
    """Rebuild a negotiation from a dom-complete DFA with a unique sink final.
    Each non-final state takes the domain of its outgoing actions, so every
    non-final state needs one, as in a trimmed minimal DFA."""
    ok, violations = is_dom_complete(dfa)
    if not ok:
        raise NotDomComplete("; ".join(violations))
    if len(dfa.finals) != 1:
        raise MultipleFinals(f"expected exactly one final state, got {sorted(dfa.finals)}")
    fin = next(iter(dfa.finals))
    if dfa.out(fin):
        raise FinalHasOutgoing(f"final state {fin!r} has outgoing letters")
    alpha = dfa.alphabet
    full = tuple(alpha.processes)
    dnode = {}
    for s in dfa.states:
        letters = dfa.out(s)
        if s == fin:
            dnode[s] = full
        elif letters:
            dnode[s] = alpha.dom[letters[0][0]]
        else:
            raise NotDomComplete(f"state {s!r} has no outgoing letters")
    delta = {(s, a, p): t for (s, (a, p)), t in dfa.delta.items()}
    return Negotiation(
        alphabet=alpha,
        nodes=dfa.states,
        dnode=dnode,
        delta=delta,
        init=dfa.init,
        fin=fin,
    )


def minimize_negotiation(n: Negotiation) -> Negotiation:
    """The canonical minimal negotiation with the same language (for sound
    deterministic input)."""
    return negotiation_from_dfa(minimize(paths_dfa(n)))


def neg_equiv(n1: Negotiation, n2: Negotiation) -> bool:
    """Language equivalence of sound deterministic negotiations: compare
    canonical minimal DFAs of their local-path languages."""
    if n1.alphabet != n2.alphabet:
        raise AlphabetMismatch("negotiations use different distributed alphabets")
    return minimize(paths_dfa(n1)) == minimize(paths_dfa(n2))
