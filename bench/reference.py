"""Reference computations for the benchmark's correctness checks.

Nothing here calls the library under test: the functions read only the
public fields of a negotiation (the alphabet's processes, actions and
domains; the nodes; `delta`; `init`; `fin`) and re-derive the semantics from
them. They are written for clarity, not speed, and run outside the timed
region.
"""

from __future__ import annotations

from collections import deque


class RefModel:
    """Configurations and steps of a negotiation, re-implemented.

    A configuration is a tuple of nodes in declared process order. An action
    fires when every process of its domain sits at the same node and that
    node has a transition on the action for each of them.
    """

    def __init__(self, n):
        self.processes = tuple(n.alphabet.processes)
        self.actions = tuple(n.alphabet.actions)
        index = {p: i for i, p in enumerate(self.processes)}
        self.dom_index = {a: tuple(index[p] for p in n.alphabet.dom[a]) for a in self.actions}
        self.delta = dict(n.delta)
        self.init = (n.init,) * len(self.processes)
        self.fin = (n.fin,) * len(self.processes)

    def step(self, conf, a):
        """Successor of `conf` under `a`, or None when `a` cannot fire."""
        idx = self.dom_index[a]
        node = conf[idx[0]]
        new = list(conf)
        for i in idx:
            if conf[i] != node:
                return None
            target = self.delta.get((node, a, self.processes[i]))
            if target is None:
                return None
            new[i] = target
        return tuple(new)

    def successors(self, conf):
        out = []
        for a in self.actions:
            nxt = self.step(conf, a)
            if nxt is not None:
                out.append((a, nxt))
        return out

    def accepts(self, word) -> bool:
        conf = self.init
        for a in word:
            if a not in self.dom_index:
                return False
            conf = self.step(conf, a)
            if conf is None:
                return False
        return conf == self.fin

    def graph(self, budget: int = 10**6) -> dict:
        """Reachable configurations -> [(action, successor)], in BFS order."""
        succ = {}
        seen = {self.init}
        queue = deque([self.init])
        while queue:
            conf = queue.popleft()
            outs = self.successors(conf)
            succ[conf] = outs
            for _, nxt in outs:
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > budget:
                        raise RuntimeError(f"reference graph exceeds {budget} configurations")
                    queue.append(nxt)
        return succ

    def distances_to_fin(self, succ: dict) -> dict:
        """Shortest number of steps from each configuration to fin (absent
        when fin is unreachable)."""
        pred = {}
        for conf, outs in succ.items():
            for _, nxt in outs:
                pred.setdefault(nxt, []).append(conf)
        dist = {}
        if self.fin in succ:
            dist[self.fin] = 0
            queue = deque([self.fin])
            while queue:
                conf = queue.popleft()
                for prev in pred.get(conf, ()):
                    if prev not in dist:
                        dist[prev] = dist[conf] + 1
                        queue.append(prev)
        return dist


def is_sound(model: RefModel, succ: dict) -> bool:
    """Every reachable configuration can still reach fin."""
    return len(model.distances_to_fin(succ)) == len(succ)


def minimal_form(n) -> tuple:
    """Canonical minimal DFA of the local-path language of `n`.

    States are numbered in BFS order from init with letters a@p taken in
    declared (action, process) order, so two negotiations with the same
    local-path language give equal tuples. Returns
    (state_count, final_state, transitions).
    """
    alpha = n.alphabet
    a_index = {a: i for i, a in enumerate(alpha.actions)}
    p_index = {p: i for i, p in enumerate(alpha.processes)}
    out = {}
    for (src, a, p), dst in n.delta.items():
        out.setdefault(src, []).append(((a, p), dst))
    for src in out:
        out[src].sort(key=lambda e: (a_index[e[0][0]], p_index[e[0][1]]))
    reach = {n.init}
    queue = deque([n.init])
    while queue:
        s = queue.popleft()
        for _, t in out.get(s, ()):
            if t not in reach:
                reach.add(t)
                queue.append(t)
    pred = {}
    for src, edges in out.items():
        for _, dst in edges:
            pred.setdefault(dst, []).append(src)
    coreach = {n.fin}
    queue = deque([n.fin])
    while queue:
        s = queue.popleft()
        for t in pred.get(s, ()):
            if t not in coreach:
                coreach.add(t)
                queue.append(t)
    live = reach & coreach
    if n.init not in live:
        return (0, None, ())
    trans = {s: {l: t for l, t in out.get(s, ()) if t in live} for s in live}
    letters = sorted({l for s in live for l in trans[s]},
                     key=lambda l: (a_index[l[0]], p_index[l[1]]))
    block = {s: int(s == n.fin) for s in live}
    count = len(set(block.values()))
    while True:
        sigs = {}
        for s in live:
            sig = (block[s],) + tuple(block.get(trans[s].get(l), -1) for l in letters)
            sigs[s] = sig
        ids = {}
        for s in sorted(live, key=lambda s: sigs[s]):
            ids.setdefault(sigs[s], len(ids))
        block = {s: ids[sigs[s]] for s in live}
        if len(ids) == count:
            break
        count = len(ids)
    rep = {}
    for s in live:
        rep.setdefault(block[s], s)
    name = {block[n.init]: 0}
    order = [block[n.init]]
    edges = []
    i = 0
    while i < len(order):
        b = order[i]
        for letter, t in sorted(trans[rep[b]].items(),
                                key=lambda e: (a_index[e[0][0]], p_index[e[0][1]])):
            tb = block[t]
            if tb not in name:
                name[tb] = len(order)
                order.append(tb)
            edges.append((name[b], letter, name[tb]))
        i += 1
    return (len(order), name[block[n.fin]], tuple(edges))


def first_difference(m1: RefModel, m2: RefModel, budget: int = 10**6):
    """(word, states): the shortest, lexicographically least word accepted
    by exactly one side, or None, and the number of product states the
    breadth-first search discovered. Sides that cannot fire a letter move to
    a dead sink (None)."""
    start = (m1.init, m2.init)

    def differs(state):
        return (state[0] == m1.fin) != (state[1] == m2.fin)

    if differs(start):
        return (), 1
    parent = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        c1, c2 = state
        for a in m1.actions:
            n1 = m1.step(c1, a) if c1 is not None else None
            n2 = m2.step(c2, a) if c2 is not None else None
            if n1 is None and n2 is None:
                continue
            nxt = (n1, n2)
            if nxt in parent:
                continue
            parent[nxt] = (state, a)
            if len(parent) > budget:
                raise RuntimeError(f"reference product exceeds {budget} states")
            if differs(nxt):
                word = []
                while parent[nxt] is not None:
                    nxt, letter = parent[nxt]
                    word.append(letter)
                return tuple(reversed(word)), len(parent)
            queue.append(nxt)
    return None, len(parent)


def trace_key(model: RefModel, word) -> tuple:
    """Per-process projections; two words are trace-equal iff these agree."""
    return tuple(
        tuple(a for a in word if i in model.dom_index[a])
        for i in range(len(model.processes))
    )
