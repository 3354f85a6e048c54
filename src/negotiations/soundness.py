"""Soundness of deterministic negotiations, decided two ways.

The configuration-graph check is the authoritative decision procedure; the
structural pattern search (F: diverging fork, C: undominated cycle, B: node
with no local way back to fin) exists to localize repairs for the
execution-only learner, and doubles as a cross-oracle in tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceeded, CycleBudgetExceeded
from .model import (
    DEFAULT_STATE_BUDGET,
    Configuration,
    Negotiation,
    bfs,
    configuration_graph,
    path,
    reach,
)

DEFAULT_CYCLE_BUDGET = 10**5
DEFAULT_PAIR_BUDGET = 10**6


@dataclass
class SemanticSoundness:
    sound: bool
    counterexample: Configuration | None = None


def is_sound_semantic(n: Negotiation, budget: int = DEFAULT_STATE_BUDGET) -> SemanticSoundness:
    """Every reachable configuration must reach C_fin; on failure returns the
    first reachable configuration (in BFS order) with no path to C_fin."""
    graph = configuration_graph(n, budget=budget)
    pred = [[] for _ in graph.order]
    for i, outs in enumerate(graph.succ):
        for _, j in outs:
            pred[j].append(i)
    fin = n.final_configuration().nodes
    coreach = reach(pred.__getitem__, [graph.order.index(fin)] if fin in graph.order else [])
    stuck = [i for i in range(len(graph)) if i not in coreach]
    if stuck:
        # prefer an outright deadlock as the counterexample when one exists
        dead = next((i for i in stuck if not graph.succ[i]), stuck[0])
        return SemanticSoundness(False, Configuration(graph.processes, graph.order[dead]))
    return SemanticSoundness(True, None)


# --------------------------------------------------------------------------
# Pattern witnesses


@dataclass
class FWitness:
    """Fork on `action` at `fork_node` from which p1 and p2 can reach, by
    node-disjoint local paths, two distinct nodes both containing them."""

    fork_node: str
    action: str
    p1: str
    p2: str
    path1: tuple  # p1-path (labels) from delta(fork, action, p1)
    path2: tuple
    access_path: tuple  # local path from init to fork_node

    kind = "F"

    def to_json(self):
        return {
            "kind": "F",
            "fork_node": self.fork_node,
            "action": self.action,
            "p1": self.p1,
            "p2": self.p2,
            "path1": [f"{a}@{p}" for a, p in self.path1],
            "path2": [f"{a}@{p}" for a, p in self.path2],
            "access_path": [f"{a}@{p}" for a, p in self.access_path],
        }


@dataclass
class CWitness:
    """Reachable local cycle with no on-cycle node dominating the processes
    occurring on it."""

    entry_path: tuple  # local path from init to the cycle's anchor node
    cycle_path: tuple  # nonempty local path anchor -> anchor

    kind = "C"

    def to_json(self):
        return {
            "kind": "C",
            "entry_path": [f"{a}@{p}" for a, p in self.entry_path],
            "cycle_path": [f"{a}@{p}" for a, p in self.cycle_path],
        }


@dataclass
class BWitness:
    """Node reachable from init by a p-path but with no p-path to fin."""

    process: str
    access_path: tuple  # p-path from init to blocked_node
    blocked_node: str

    kind = "B"

    def to_json(self):
        return {
            "kind": "B",
            "process": self.process,
            "access_path": [f"{a}@{p}" for a, p in self.access_path],
            "blocked_node": self.blocked_node,
        }


def _edges(n: Negotiation, p=None):
    """Labeled local edges (of process `p` only, when given) sorted for
    deterministic traversal."""
    order = {}
    for (src, a, q), dst in n.delta.items():
        if p is None or q == p:
            order.setdefault(src, []).append(((a, q), dst))
    for src in order:
        order[src].sort(key=lambda e: (n.alphabet.action_index(e[0][0]), n.alphabet.proc_index(e[0][1])))
    return order


def find_pattern_B(n: Negotiation):
    """Per-process forward/backward reachability along p-edges."""
    for p in n.alphabet.processes:
        edges = _edges(n, p)
        fwd, _ = bfs(n.init, lambda s: edges.get(s, ()))
        rev = {}
        for src, outs in edges.items():
            for _, dst in outs:
                rev.setdefault(dst, []).append(src)
        coreach = reach(lambda s: rev.get(s, ()), [n.fin])
        for node in fwd:
            if node not in coreach:
                return BWitness(p, path(fwd, node), node)
    return None


def _label_path(edges, node_seq):
    """Realize a node sequence as a labeled local path over the `_edges`
    index, picking the least label for every hop."""
    labels = []
    for s, t in zip(node_seq, node_seq[1:]):
        hop = next(letter for letter, dst in edges[s] if dst == t)
        labels.append(hop)
    return tuple(labels)


def _undominated(n: Negotiation, node_seq, procs):
    return not any(procs <= n.dnode_set(v) for v in node_seq[:-1])


def _sccs(nodes, succ):
    """Tarjan SCCs of the subgraph induced on `nodes`."""
    nodes = [v for v in nodes]
    node_set = set(nodes)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = [0]

    def strong(v):
        work = [(v, iter(succ.get(v, ())))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in node_set:
                    continue
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)

    for v in nodes:
        if v not in index:
            strong(v)
    return out


def _bad_scc(n: Negotiation, nodes, succ):
    """Exact check for an undominated strongly connected subgraph: remove
    nodes dominating their SCC's process union and recurse. Returns a node
    set whose induced SCC has no dominator, or None."""
    for comp in _sccs(nodes, succ):
        comp_set = set(comp)
        has_edge = any(t in comp_set for v in comp for t in succ.get(v, ()))
        if not has_edge:
            continue
        procs = set()
        for v in comp:
            for a in n.out(v):
                if any(n.delta.get((v, a, p)) in comp_set for p in n.alphabet.dom[a]):
                    procs |= n.alphabet.dom_set(a)
        dominators = {v for v in comp if procs <= n.dnode_set(v)}
        if not dominators:
            return comp_set
        found = _bad_scc(n, [v for v in comp if v not in dominators], succ)
        if found is not None:
            return found
    return None


def _closed_walk(n: Negotiation, comp, edges):
    """A closed local path visiting every node of the strongly connected set
    `comp`, anchored at its first node in declared order."""
    comp_set = set(comp)
    ordered = [v for v in n.nodes if v in comp_set]
    anchor = ordered[0]

    def moves(s):  # each hop labelled by the node it enters
        return [(t, t) for _, t in edges.get(s, ()) if t in comp_set]

    walk = [anchor]
    for a, b in zip(ordered, ordered[1:] + [anchor]):
        parent, hit = bfs(a, moves, stop=lambda t: t == b)
        if hit is None:
            raise AssertionError("strongly connected set lost connectivity")
        walk.extend(path(parent, b))
    if len(walk) == 1:  # single node; must have a self-loop
        walk = [anchor, anchor]
    return walk


def _simple_cycles(succ, nodes, budget):
    """Vertex-simple cycles, canonically anchored at their least node in
    `nodes` order. Yields node sequences v0..vk=v0; counts against budget."""
    rank = {v: i for i, v in enumerate(nodes)}
    spent = 0
    for anchor in nodes:
        stack = [(anchor, [anchor])]
        while stack:
            v, path = stack.pop()
            for t in succ.get(v, ()):
                if rank.get(t) is None or rank[t] < rank[anchor]:
                    continue
                spent += 1
                if spent > budget:
                    raise CycleBudgetExceeded(
                        f"simple-cycle enumeration exceeded {budget} steps"
                    )
                if t == anchor:
                    yield path + [anchor]
                elif t not in path:
                    stack.append((t, path + [t]))


def find_pattern_C(n: Negotiation, cycle_budget: int = DEFAULT_CYCLE_BUDGET):
    """Reachable local cycle whose process union no on-cycle node dominates.

    An exact SCC-based decision runs first; only when a bad cycle is known to
    exist does the capped simple-cycle enumeration run to produce the
    preferred (simple) witness. A compound-only bad cycle falls back to a
    closed walk over the offending strongly connected set.
    """
    edges = _edges(n)
    succ = {s: [t for _, t in outs] for s, outs in edges.items()}
    fwd, _ = bfs(n.init, lambda s: edges.get(s, ()))
    comp = _bad_scc(n, fwd, succ)
    if comp is None:
        return None
    for cyc in _simple_cycles(succ, fwd, cycle_budget):
        labels = _label_path(edges, cyc)
        procs = set()
        for a, _ in labels:
            procs |= n.alphabet.dom_set(a)
        if _undominated(n, cyc, procs):
            return CWitness(path(fwd, cyc[0]), labels)
    walk = _closed_walk(n, comp, edges)
    return CWitness(path(fwd, walk[0]), _label_path(edges, walk))


def _simple_paths(edges, start, budget, forbidden=frozenset()):
    """All vertex-simple label paths from `start` (including the empty one),
    as (node_sequence, label_sequence) pairs, avoiding `forbidden` nodes."""
    if start in forbidden:
        return
    spent = 0
    stack = [([start], [])]
    while stack:
        nodes, labels = stack.pop()
        yield nodes, labels
        for letter, t in edges.get(nodes[-1], ()):
            if t in forbidden or t in nodes:
                continue
            spent += 1
            if spent > budget:
                raise BudgetExceeded("disjoint-path search exceeded its budget")
            stack.append((nodes + [t], labels + [letter]))


def find_pattern_F(n: Negotiation):
    """Fork divergence: from some reachable node and action, two processes
    can reach two distinct nodes (both containing them) by node-disjoint
    local paths.

    A synchronized pair-BFS (components kept distinct at every step) filters
    candidates; witnesses are then reconstructed by exhaustive simple-path
    search so the emitted paths genuinely share no node.
    """
    all_edges = _edges(n)
    fwd, _ = bfs(n.init, lambda s: all_edges.get(s, ()))
    p_edges = {p: _edges(n, p) for p in n.alphabet.processes}
    for m in fwd:
        for a in n.out(m):
            dom = n.alphabet.dom[a]
            for i, p1 in enumerate(dom):
                for p2 in dom[i + 1 :]:
                    s1 = n.delta.get((m, a, p1))
                    s2 = n.delta.get((m, a, p2))
                    if s1 is None or s2 is None or s1 == s2:
                        continue
                    if not _pair_filter(n, s1, s2, p1, p2, p_edges, DEFAULT_PAIR_BUDGET):
                        continue
                    hit = _disjoint_pair(n, s1, s2, p1, p2, p_edges, DEFAULT_PAIR_BUDGET)
                    if hit is not None:
                        path1, path2 = hit
                        return FWitness(m, a, p1, p2, path1, path2, path(fwd, m))
    return None


def _pair_filter(n, s1, s2, p1, p2, p_edges, budget):
    """Complete existence filter: explore pairs, never visiting x == y."""
    # not `bfs`: the goal is tested on dequeue, not on discovery, and moving
    # it would change which over-budget searches still decide
    want = {p1, p2}
    seen = {(s1, s2)}
    queue = deque([(s1, s2)])
    spent = 0
    while queue:
        x, y = queue.popleft()
        if want <= n.dnode_set(x) and want <= n.dnode_set(y):
            return True
        nexts = [(t, y) for _, t in p_edges[p1].get(x, ()) if t != y]
        nexts += [(x, t) for _, t in p_edges[p2].get(y, ()) if t != x]
        for pair in nexts:
            if pair not in seen:
                spent += 1
                if spent > budget:
                    raise BudgetExceeded("fork pair search exceeded its budget")
                seen.add(pair)
                queue.append(pair)
    return False


def _disjoint_pair(n, s1, s2, p1, p2, p_edges, budget):
    want = {p1, p2}
    for nodes1, labels1 in _simple_paths(p_edges[p1], s1, budget):
        if not want <= n.dnode_set(nodes1[-1]):
            continue
        taken = frozenset(nodes1)
        for nodes2, labels2 in _simple_paths(p_edges[p2], s2, budget, forbidden=taken):
            if want <= n.dnode_set(nodes2[-1]):
                return tuple(labels1), tuple(labels2)
    return None


def find_any_pattern(n: Negotiation):
    """B, then C, then F."""
    w = find_pattern_B(n)
    if w is not None:
        return w
    w = find_pattern_C(n)
    if w is not None:
        return w
    return find_pattern_F(n)


# --------------------------------------------------------------------------
# Witness replay, a cross-check for the tests and the benchmark


def walk_local(n: Negotiation, start, path):
    """Node sequence of a labeled walk, or None at a hop with no transition."""
    seq = [start]
    for a, p in path:
        nxt = n.delta.get((seq[-1], a, p))
        if nxt is None:
            return None
        seq.append(nxt)
    return seq


def verify_witness(n: Negotiation, w) -> bool:
    """Does a pattern witness hold in `n`? False for a path leaving `n`."""
    if isinstance(w, BWitness):
        if any(p != w.process for _, p in w.access_path):
            return False
        seq = walk_local(n, n.init, w.access_path)
        if seq is None or seq[-1] != w.blocked_node:
            return False
        edges = _edges(n, w.process)
        return n.fin not in bfs(w.blocked_node, lambda s: edges.get(s, ()))[0]
    if isinstance(w, CWitness):
        seq = walk_local(n, n.init, w.entry_path)
        if seq is None or not w.cycle_path:
            return False
        anchor = seq[-1]
        cyc = walk_local(n, anchor, w.cycle_path)
        if cyc is None or cyc[-1] != anchor:
            return False
        procs = set()
        for a, _ in w.cycle_path:
            procs |= n.alphabet.dom_set(a)
        return _undominated(n, cyc, procs)
    if isinstance(w, FWitness):
        seq = walk_local(n, n.init, w.access_path)
        if seq is None or seq[-1] != w.fork_node:
            return False
        s1 = n.delta.get((w.fork_node, w.action, w.p1))
        s2 = n.delta.get((w.fork_node, w.action, w.p2))
        if s1 is None or s2 is None:
            return False
        if any(p != w.p1 for _, p in w.path1) or any(p != w.p2 for _, p in w.path2):
            return False
        seq1 = walk_local(n, s1, w.path1)
        seq2 = walk_local(n, s2, w.path2)
        if seq1 is None or seq2 is None or set(seq1) & set(seq2):
            return False
        n1, n2 = seq1[-1], seq2[-1]
        want = {w.p1, w.p2}
        return n1 != n2 and want <= n.dnode_set(n1) and want <= n.dnode_set(n2)
    return False
