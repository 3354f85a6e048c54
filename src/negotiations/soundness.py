"""Soundness of deterministic negotiations, decided two ways.

The configuration-graph check explores every reachable configuration and
names one that cannot reach fin. The structural pattern search (F:
diverging fork, C: undominated cycle, B: node with no local way back to
fin) is polynomial in the negotiation and never runs out of budget: on a
valid negotiation it finds a witness exactly when the negotiation is
unsound (Esparza, Kuperberg, Muscholl & Walukiewicz, "Soundness in
negotiations"). The execution-only learner decides its hypotheses'
soundness by the patterns alone and localizes its repairs from their
witnesses; each check is the other's cross-oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .model import (
    DEFAULT_STATE_BUDGET,
    Configuration,
    ConfigurationGraph,
    Negotiation,
    bfs,
    configuration_graph,
    local_edges,
    path,
    reach,
    walk,
)


@dataclass
class SemanticSoundness:
    sound: bool
    counterexample: Configuration | None = None
    # the configuration graph the verdict was read from, filled whole; the
    # teacher's product search runs over it as it is, and keeps the
    # target's for its session. Equality and repr ignore it
    graph: ConfigurationGraph | None = field(default=None, compare=False, repr=False)


def is_sound_semantic(n: Negotiation, budget: int = DEFAULT_STATE_BUDGET) -> SemanticSoundness:
    """Every reachable configuration must reach C_fin; on failure returns the
    first reachable configuration (in BFS order) with no path to C_fin.
    Either way the result carries the configuration graph it searched."""
    graph = configuration_graph(n, budget=budget)
    pred = [[] for _ in graph.order]
    for i, (_, js) in enumerate(graph.succ):
        for j in js:
            pred[j].append(i)
    fin = graph.index.get(graph.code(n.final_configuration().nodes))
    coreach = reach(pred.__getitem__, [] if fin is None else [fin])
    stuck = [i for i in range(len(graph)) if i not in coreach]
    if stuck:
        # prefer an outright deadlock as the counterexample when one exists
        dead = next((i for i in stuck if not graph.succ[i][0]), stuck[0])
        return SemanticSoundness(False, Configuration(graph.processes, graph.nodes(dead)), graph)
    return SemanticSoundness(True, None, graph)


# --------------------------------------------------------------------------
# Pattern witnesses


class _Witness:
    def to_json(self):
        """The kind, then each field in declaration order; names stay as
        they are and local paths become lists of a@p strings."""
        out = {"kind": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = v if isinstance(v, str) else [f"{a}@{p}" for a, p in v]
        return out


@dataclass
class FWitness(_Witness):
    """Fork on `action` at `fork_node` from which p1 and p2 can reach, by
    node-disjoint local paths, two distinct nodes both containing them.
    Each path ends at the first node on it that holds both processes."""

    fork_node: str
    action: str
    p1: str
    p2: str
    path1: tuple  # p1-path (labels) from delta(fork, action, p1)
    path2: tuple
    access_path: tuple  # local path from init to fork_node

    kind = "F"


@dataclass
class CWitness(_Witness):
    """Reachable closed local walk with no node on it dominating the
    processes occurring on it. `find_pattern_C` walks through every node of
    an undominated strongly connected set, so the walk need not be a simple
    cycle."""

    entry_path: tuple  # local path from init to the walk's anchor node
    cycle_path: tuple  # nonempty local path anchor -> anchor

    kind = "C"


@dataclass
class BWitness(_Witness):
    """Node reachable from init by a p-path but with no p-path to fin."""

    process: str
    access_path: tuple  # p-path from init to blocked_node
    blocked_node: str

    kind = "B"


def find_pattern_B(n: Negotiation):
    """Per-process forward/backward reachability along p-edges."""
    for p in n.alphabet.processes:
        edges = local_edges(n, p)
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


def _sccs(nodes, succ):
    """Strongly connected sets of the subgraph induced on `nodes`: a node's
    set is what it reaches there and what reaches it there. Each set is
    listed in `nodes` order, and the sets by their first node."""
    inside = set(nodes)
    fwd = {v: [t for t in succ.get(v, ()) if t in inside] for v in nodes}
    rev = {v: [] for v in nodes}
    for v in nodes:
        for t in fwd[v]:
            rev[t].append(v)
    out, done = [], set()
    for v in nodes:
        if v not in done:
            comp = reach(fwd.__getitem__, [v]) & reach(rev.__getitem__, [v])
            done |= comp
            out.append([u for u in nodes if u in comp])
    return out


def _cycle_processes(n: Negotiation, nodes: set) -> set:
    """The processes that a cycle through the node set `nodes` involves:
    dom(a) of every action a out of a member with an edge back into the set.
    On a valid negotiation this is the union of dnode over the members that
    have such an edge. The search and the witness replay both use it."""
    procs = set()
    for v in nodes:
        for a in n.out(v):
            if any(n.delta.get((v, a, p)) in nodes for p in n.alphabet.dom[a]):
                procs |= n.alphabet.dom_set(a)
    return procs


def _bad_scc(n: Negotiation, nodes, succ):
    """Exact check for an undominated strongly connected subgraph: remove
    nodes dominating their SCC's process union and recurse. Returns a node
    set whose induced SCC has no dominator, or None."""
    for comp in _sccs(nodes, succ):
        comp_set = set(comp)
        has_edge = any(t in comp_set for v in comp for t in succ.get(v, ()))
        if not has_edge:
            continue
        procs = _cycle_processes(n, comp_set)
        dominators = {v for v in comp if procs <= n.dnode_set(v)}
        if not dominators:
            return comp_set
        found = _bad_scc(n, [v for v in comp if v not in dominators], succ)
        if found is not None:
            return found
    return None


def _closed_walk(n: Negotiation, comp, edges):
    """(anchor, letters) of a closed local path through every node of the
    strongly connected set `comp`, from its first node in declared order;
    each hop takes the first, so the least, letter `edges` lists for it."""
    comp_set = set(comp)
    ordered = [v for v in n.nodes if v in comp_set]
    anchor = ordered[0]

    def moves(s):
        return [(letter, t) for letter, t in edges.get(s, ()) if t in comp_set]

    if len(ordered) == 1:  # single node; must have a self-loop
        return anchor, (moves(anchor)[0][0],)
    cycle = []
    for b in ordered[1:] + [anchor]:
        visited = walk(n, anchor, cycle)
        if b != anchor and b in visited:  # an earlier join passed it already
            continue
        parent, hit = bfs(visited[-1], moves, stop=lambda t: t == b)
        if hit is None:
            raise AssertionError("strongly connected set lost connectivity")
        cycle += path(parent, b)
    return anchor, tuple(cycle)


def find_pattern_C(n: Negotiation):
    """Reachable local cycle whose process union no node on it dominates.

    `_bad_scc` decides exactly and in polynomial time; the witness is a
    closed walk through every node of the undominated strongly connected
    set it returns. No budget applies.
    """
    edges = local_edges(n)
    succ = {s: [t for _, t in outs] for s, outs in edges.items()}
    fwd, _ = bfs(n.init, lambda s: edges.get(s, ()))
    comp = _bad_scc(n, fwd, succ)
    if comp is None:
        return None
    anchor, cycle = _closed_walk(n, comp, edges)
    return CWitness(path(fwd, anchor), cycle)


def find_pattern_F(n: Negotiation):
    """Fork divergence: from some reachable node and action, two processes
    can reach two distinct nodes (both containing them) by node-disjoint
    local paths.

    Decided per fork from first-hit reach sets, with no budget: on a valid
    negotiation every node of a p-path holds p, so cutting two such paths
    at their first node holding both processes keeps them disjoint, and two
    first-hit paths with distinct ends never meet.
    """
    return next(_diverging_forks(n), None)


def _diverging_forks(n: Negotiation):
    """A witness at every reachable fork where F holds: fork nodes in BFS
    order, then actions, then process pairs in declared order."""
    all_edges = local_edges(n)
    fwd, _ = bfs(n.init, lambda s: all_edges.get(s, ()))
    p_edges = {p: local_edges(n, p) for p in n.alphabet.processes}
    for m in fwd:
        for a in n.out(m):
            dom = n.alphabet.dom[a]
            for i, p1 in enumerate(dom):
                for p2 in dom[i + 1 :]:
                    hit = _fork_paths(n, m, a, p1, p2, p_edges)
                    if hit is not None:
                        yield FWitness(m, a, p1, p2, *hit, path(fwd, m))


def _fork_paths(n: Negotiation, m, a, p1, p2, p_edges):
    """(p1-path, p2-path) from the fork's two successors to two distinct
    nodes holding p1 and p2, each cut at its first such node, or None."""
    s1 = n.delta.get((m, a, p1))
    s2 = n.delta.get((m, a, p2))
    if s1 is None or s2 is None or s1 == s2:
        return None
    want = {p1, p2}

    def first_hits(s, p):  # stop at nodes holding both; they are the hits
        edges = p_edges[p]
        parent, _ = bfs(s, lambda x: () if want <= n.dnode_set(x) else edges.get(x, ()))
        return parent, [x for x in parent if want <= n.dnode_set(x)]

    parent1, r1 = first_hits(s1, p1)
    parent2, r2 = first_hits(s2, p2)
    if not r1 or not r2:
        return None
    n1 = r1[0]
    n2 = next((x for x in r2 if x != n1), None)
    if n2 is None:
        n2 = r2[0]
        n1 = next((x for x in r1 if x != n2), None)
        if n1 is None:
            return None
    return path(parent1, n1), path(parent2, n2)


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


def verify_witness(n: Negotiation, w) -> bool:
    """Does a pattern witness hold in `n`? False for a path leaving `n`."""
    if isinstance(w, BWitness):
        if any(p != w.process for _, p in w.access_path):
            return False
        seq = walk(n, n.init, w.access_path)
        if len(seq) <= len(w.access_path) or seq[-1] != w.blocked_node:
            return False
        edges = local_edges(n, w.process)
        return n.fin not in bfs(w.blocked_node, lambda s: edges.get(s, ()))[0]
    if isinstance(w, CWitness):
        seq = walk(n, n.init, w.entry_path)
        if len(seq) <= len(w.entry_path) or not w.cycle_path:
            return False
        anchor = seq[-1]
        cyc = walk(n, anchor, w.cycle_path)
        if len(cyc) <= len(w.cycle_path) or cyc[-1] != anchor:
            return False
        procs = _cycle_processes(n, set(cyc))
        return not any(procs <= n.dnode_set(v) for v in cyc[:-1])
    if isinstance(w, FWitness):
        seq = walk(n, n.init, w.access_path)
        if len(seq) <= len(w.access_path) or seq[-1] != w.fork_node:
            return False
        s1 = n.delta.get((w.fork_node, w.action, w.p1))
        s2 = n.delta.get((w.fork_node, w.action, w.p2))
        if s1 is None or s2 is None:
            return False
        if any(p != w.p1 for _, p in w.path1) or any(p != w.p2 for _, p in w.path2):
            return False
        seq1 = walk(n, s1, w.path1)
        seq2 = walk(n, s2, w.path2)
        if len(seq1) <= len(w.path1) or len(seq2) <= len(w.path2) or set(seq1) & set(seq2):
            return False
        n1, n2 = seq1[-1], seq2[-1]
        want = {w.p1, w.p2}
        return n1 != n2 and want <= n.dnode_set(n1) and want <= n.dnode_set(n2)
    return False
