"""Deterministic negotiations and their operational semantics.

A negotiation is a graph of nodes, each with a process domain; all processes
in a node's domain leave it jointly by choosing a common outgoing action.
This module holds the data model (alphabet, diagram, configuration), the
well-formedness check, word/local-path execution, and the configuration
graph that backs the soundness and equivalence oracles.

`enabled`, `enabled_actions` and `step` are the reference semantics. The
searches over the configuration space (`configuration_graph`, so semantic
soundness; `compute_I`; the product search through `product_moves`) run
instead on one successor kernel, `successor_function`, over plain node
tuples. Building it reads `delta` once, in O(|delta|). Expanding a
configuration then costs O(d*k + s*|P|) for its d distinct occupied nodes,
domains of at most k processes and s successors: no scan of all nodes, no
`Configuration` built per step, and tuple hashes instead of dataclass hashes
in the visited sets. The choice is made once per negotiation, when the
kernel is built: a negotiation holding a move that only an invalid one has
gets no kernel, and its searches expand every configuration by
`enabled_actions` and `step`, so it raises exactly where they raise.

Graph searches use `reach` for reachability sets and `bfs` (with `path`
reading a label path out of its parent map) where discovery order, shortest
paths or a first hit matter: `compute_I`, the product search, the pattern
witnesses' access paths, the canonical renaming of minimal DFAs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

from .errors import (
    AmbiguousConfiguration,
    ConfigurationNotFound,
    NoTransition,
    NotEnabled,
    StateBudgetExceeded,
    UnknownAction,
)

Word = tuple  # tuple[str, ...]
LocalLetter = tuple  # (action, process)
LocalWord = tuple  # tuple[LocalLetter, ...]

DEFAULT_STATE_BUDGET = 10**6

_set = object.__setattr__  # how the frozen classes normalise their fields


@dataclass(frozen=True)
class DistributedAlphabet:
    """Actions typed with nonempty process domains.

    Iteration order over `processes` and `actions` is the declared order and
    is relied upon everywhere for reproducibility (normal forms, BFS
    tie-breaking, serialization). Immutable: `dom` is a read-only copy.
    """

    processes: tuple
    actions: tuple
    dom: dict  # action -> tuple of processes, in declared process order
    __hash__ = None  # `dom` is a mapping

    def __post_init__(self):
        _set(self, "processes", tuple(self.processes))
        _set(self, "actions", tuple(self.actions))
        if len(set(self.processes)) != len(self.processes):
            raise ValueError("duplicate process identifiers")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError("duplicate action identifiers")
        if set(self.processes) & set(self.actions):
            raise ValueError("process and action namespaces overlap")
        proc_set = set(self.processes)
        norm = {}
        for a in self.actions:
            if a not in self.dom:
                raise ValueError(f"action {a!r} has no domain")
            procs = tuple(p for p in self.processes if p in set(self.dom[a]))
            if not procs:
                raise ValueError(f"action {a!r} has an empty domain")
            if not set(self.dom[a]) <= proc_set:
                raise ValueError(f"dom({a!r}) mentions unknown processes")
            norm[a] = procs
        if set(self.dom) - set(self.actions):
            raise ValueError("dom mentions unknown actions")
        _set(self, "_domains", {})  # domain tuple -> (that tuple, its frozenset)
        _set(self, "dom", MappingProxyType({a: self.domain(ps)[0] for a, ps in norm.items()}))
        _set(self, "_dom_sets", {a: self.domain(ps)[1] for a, ps in norm.items()})
        _set(self, "_action_index", {a: i for i, a in enumerate(self.actions)})
        _set(self, "_proc_index", {p: i for i, p in enumerate(self.processes)})

    def __reduce__(self):  # a mapping proxy does not pickle
        return DistributedAlphabet, (self.processes, self.actions, dict(self.dom))

    def domain(self, procs: tuple) -> tuple:
        """(procs, frozenset(procs)) for a domain given in declared process
        order; the alphabet keeps one such pair per distinct domain, so
        equal domains of actions and nodes share storage."""
        entry = self._domains.get(procs)
        if entry is None:
            entry = self._domains[procs] = (procs, frozenset(procs))
        return entry

    def dom_set(self, action) -> frozenset:
        return self._dom_sets[action]

    def action_index(self, action) -> int:
        return self._action_index[action]

    def proc_index(self, process) -> int:
        return self._proc_index[process]

    def dependent(self, a, b) -> bool:
        return bool(self._dom_sets[a] & self._dom_sets[b])

    def local_letters(self) -> tuple:
        """All a@p letters, actions in declared order, then process order."""
        return tuple((a, p) for a in self.actions for p in self.dom[a])

    def check_word(self, w):
        for a in w:
            if a not in self._dom_sets:
                raise UnknownAction(f"unknown action {a!r}")


@dataclass(frozen=True)
class Configuration:
    """Total map process -> node, stored in declared process order."""

    processes: tuple
    nodes: tuple

    def node_of(self, p) -> str:
        return self.nodes[self.processes.index(p)]

    def replace(self, updates: dict) -> "Configuration":
        new = tuple(updates.get(p, n) for p, n in zip(self.processes, self.nodes))
        return Configuration(self.processes, new)

    @classmethod
    def uniform(cls, alphabet: DistributedAlphabet, node) -> "Configuration":
        return cls(alphabet.processes, tuple(node for _ in alphabet.processes))


@dataclass(frozen=True)
class Negotiation:
    """A deterministic negotiation diagram.

    `delta` is the partial transition map on (node, action, process) triples.
    Construction only checks that identifiers resolve; the Def-style
    conditions live in `validate`, which reports violations as data.
    Immutable: `dnode` and `delta` are read-only copies.
    """

    alphabet: DistributedAlphabet
    nodes: tuple
    dnode: dict  # node -> tuple of processes
    delta: dict  # (node, action, process) -> node
    init: str
    fin: str
    __hash__ = None  # `dnode` and `delta` are mappings

    def __post_init__(self):
        _set(self, "nodes", tuple(self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node identifiers")
        node_set = set(self.nodes)
        if self.init not in node_set or self.fin not in node_set:
            raise ValueError("init/fin must be declared nodes")
        proc_set = set(self.alphabet.processes)
        norm = {}
        for n in self.nodes:
            if n not in self.dnode:
                raise ValueError(f"node {n!r} has no domain")
            ps = tuple(p for p in self.alphabet.processes if p in set(self.dnode[n]))
            if not ps:
                raise ValueError(f"node {n!r} has an empty domain")
            if not set(self.dnode[n]) <= proc_set:
                raise ValueError(f"dnode({n!r}) mentions unknown processes")
            norm[n] = self.alphabet.domain(ps)[0]
        _set(self, "dnode", MappingProxyType(norm))
        for (n, a, p), m in self.delta.items():
            if n not in node_set or m not in node_set:
                raise ValueError(f"transition ({n},{a},{p}) -> {m} references unknown node")
            if a not in self.alphabet._dom_sets:
                raise ValueError(f"transition on unknown action {a!r}")
            if p not in proc_set:
                raise ValueError(f"transition for unknown process {p!r}")
        _set(self, "delta", MappingProxyType(dict(self.delta)))
        dom = self.alphabet.dom
        _set(self, "_out", {n: tuple(a for a in self.alphabet.actions
                                     if any((n, a, p) in self.delta for p in dom[a]))
                            for n in self.nodes})

    def __reduce__(self):  # a mapping proxy does not pickle
        return Negotiation, (self.alphabet, self.nodes, dict(self.dnode), dict(self.delta),
                             self.init, self.fin)

    def dnode_set(self, n) -> frozenset:
        return self.alphabet.domain(self.dnode[n])[1]

    def out(self, n) -> tuple:
        """Actions with at least one transition leaving `n`."""
        return self._out[n]

    def initial_configuration(self) -> Configuration:
        return Configuration.uniform(self.alphabet, self.init)

    def final_configuration(self) -> Configuration:
        return Configuration.uniform(self.alphabet, self.fin)


@dataclass(frozen=True)
class ExecutionOutcome:
    status: str  # "completed" | "stuck" | "partial"
    fired: int
    end: Configuration

    COMPLETED = "completed"
    STUCK = "stuck"
    PARTIAL = "partial"

    @property
    def completed(self) -> bool:
        return self.status == self.COMPLETED


def validate(n: Negotiation) -> list:
    """Check the matching conditions on node/action domains plus the
    fin-sink condition. Returns a list of violation strings; empty means ok.
    """
    out = []
    full = tuple(n.alphabet.processes)
    if n.init == n.fin:
        out.append("init and fin must be distinct nodes")
    if n.dnode[n.init] != full:
        out.append(f"dnode(init={n.init!r}) must be the full process set")
    if n.dnode[n.fin] != full:
        out.append(f"dnode(fin={n.fin!r}) must be the full process set")
    for (m, a, p), target in sorted(n.delta.items()):
        if n.dnode_set(m) != n.alphabet.dom_set(a):
            out.append(f"delta({m},{a},{p}) defined but dnode({m}) != dom({a})")
        if p not in n.alphabet.dom_set(a):
            out.append(f"delta({m},{a},{p}) defined but {p} not in dom({a})")
        if p not in n.dnode_set(target):
            out.append(f"delta({m},{a},{p})={target} but {p} not in dnode({target})")
        for q in n.alphabet.dom[a]:
            if (m, a, q) not in n.delta:
                out.append(f"delta({m},{a},{p}) defined but delta({m},{a},{q}) missing")
        if m == n.fin:
            out.append(f"fin node {m!r} has outgoing transition on {a!r}")
    return out


def reach(succ, roots) -> set:
    """Everything reachable from `roots` (included) along `succ(x)`."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for y in succ(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def bfs(start, moves, stop=None, budget=math.inf, budget_error=""):
    """Breadth-first search from `start` along `moves(x) -> [(label, y)]`,
    drawing each state's moves lazily, in the order given. Returns
    `(parent, hit)`: `parent` maps each discovered state, in discovery
    order, to `(x, label)` (`start` to None); `hit` is the first state that
    meets `stop` (`start` included), or None. Past `budget` discovered
    states it raises StateBudgetExceeded(`budget_error`), before `stop` sees
    the state that overflowed."""
    parent = {start: None}
    if stop is not None and stop(start):
        return parent, start
    queue = [start]
    for x in queue:  # `queue` grows while it is walked
        for label, y in moves(x):
            if y in parent:
                continue
            parent[y] = (x, label)
            if len(parent) > budget:
                raise StateBudgetExceeded(budget_error)
            if stop is not None and stop(y):
                return parent, y
            queue.append(y)
    return parent, None


def path(parent, y) -> tuple:
    """The labels of the `bfs` path from its start to `y`."""
    labels = []
    while parent[y] is not None:
        y, label = parent[y]
        labels.append(label)
    return tuple(reversed(labels))


def path_coverage_warnings(n: Negotiation) -> list:
    """Nodes not on any local path init -> fin (reported as warnings only)."""
    succ = {}
    pred = {}
    for (m, a, p), t in n.delta.items():
        succ.setdefault(m, []).append(t)
        pred.setdefault(t, []).append(m)
    fwd = reach(lambda m: succ.get(m, ()), [n.init])
    bwd = reach(lambda m: pred.get(m, ()), [n.fin])
    return [
        f"node {m!r} lies on no local path from init to fin"
        for m in n.nodes
        if m not in (fwd & bwd)
    ]


def enabled_nodes(n: Negotiation, c: Configuration) -> set:
    """Nodes whose whole domain currently sits at them (so they occur in `c`)."""
    at = dict(zip(c.processes, c.nodes))
    return {m for m in set(c.nodes) if all(at[p] == m for p in n.dnode[m])}


def enabled(n: Negotiation, c: Configuration) -> set:
    """(node, action) pairs fireable in `c`."""
    return {(m, a) for m in enabled_nodes(n, c) for a in n.out(m)
            if all((m, a, p) in n.delta for p in n.alphabet.dom[a])}


def enabled_actions(n: Negotiation, c: Configuration) -> list:
    """Actions fireable in `c`, in declared action order."""
    acts = {a for _, a in enabled(n, c)}
    return [a for a in n.alphabet.actions if a in acts]


def step(n: Negotiation, c: Configuration, a) -> Configuration:
    """Fire `a` in `c`; raises NotEnabled naming a blocking process."""
    if a not in n.alphabet._dom_sets:
        raise UnknownAction(f"unknown action {a!r}")
    procs = n.alphabet.dom[a]
    at = {p: c.node_of(p) for p in procs}
    m = at[procs[0]]
    for p in procs:
        if at[p] != m:
            raise NotEnabled(a, p, f"is at {at[p]!r} while {procs[0]!r} is at {m!r}")
    for p in procs:
        if (m, a, p) not in n.delta:
            raise NotEnabled(a, p, f"has no {a!r}-transition from {m!r}")
    if n.dnode[m] != procs:  # only in an invalid negotiation: `enabled` wants all of dnode(m)
        for p in n.dnode[m]:
            if p not in at and c.node_of(p) != m:
                raise NotEnabled(a, p, f"is at {c.node_of(p)!r} while {a!r} fires at {m!r}")
    return c.replace({p: n.delta[(m, a, p)] for p in procs})


def run_execution(n: Negotiation, w) -> ExecutionOutcome:
    """Fire the letters of `w` left to right from the initial configuration."""
    w = tuple(w)
    n.alphabet.check_word(w)
    c = n.initial_configuration()
    for i, a in enumerate(w):
        try:
            c = step(n, c, a)
        except NotEnabled:
            return ExecutionOutcome(ExecutionOutcome.STUCK, i, c)
    if c == n.final_configuration():
        return ExecutionOutcome(ExecutionOutcome.COMPLETED, len(w), c)
    return ExecutionOutcome(ExecutionOutcome.PARTIAL, len(w), c)


def member_exec(n: Negotiation, w) -> bool:
    """Is `w` a successful execution of `n`?"""
    return run_execution(n, w).completed


def run_local_path(n: Negotiation, pi) -> str:
    """Walk `pi` (letters a@p) through the graph from init; returns the node
    reached. Raises NoTransition with the failing index."""
    node = n.init
    for i, (a, p) in enumerate(pi):
        if a not in n.alphabet._dom_sets:
            raise UnknownAction(f"unknown action {a!r}")
        nxt = n.delta.get((node, a, p))
        if nxt is None:
            raise NoTransition(i, (a, p), node)
        node = nxt
    return node


def member_path(n: Negotiation, pi) -> bool:
    """Is `pi` a local path from init to fin?"""
    try:
        return run_local_path(n, pi) == n.fin
    except NoTransition:
        return False


def successor_function(n: Negotiation):
    """The successor kernel of `n` over node tuples, or None.

    Returns `expand(nodes) -> (enabled nodes, moves)` for the configuration
    whose node tuple (declared process order) is `nodes`: the nodes whose
    whole domain sits at them, and the actions fireable there in declared
    action order, each with the node tuple it leads to -- `enabled_nodes`,
    `enabled_actions` and `step` without a `Configuration`. Only the
    distinct nodes occurring in `nodes` are looked at: a node elsewhere
    holds none of its processes. `delta` is read once, here; nothing is
    cached on `n`.

    Returns None when `delta` holds a complete move (m, a) with dom(a) not
    a subset of dnode(m), which only an invalid negotiation has: the
    searches over `n` then run on the reference semantics at every
    configuration, so such a move fires, or raises, exactly where `step`
    does.
    """
    procs = n.alphabet.processes
    pos = {p: i for i, p in enumerate(procs)}
    # node -> (get, want, [(action index, action, targets)]), where
    # get(nodes) == want exactly when the node is enabled
    table = {}
    for m in n.nodes:
        idx = [pos[p] for p in n.dnode[m]]
        moves = []
        for a in n.out(m):
            dom = n.alphabet.dom[a]
            if not all((m, a, p) in n.delta for p in dom):
                continue
            if not n.alphabet.dom_set(a) <= n.dnode_set(m):
                return None
            targets = tuple((pos[p], n.delta[(m, a, p)]) for p in dom)
            moves.append((n.alphabet.action_index(a), a, targets))
        table[m] = (itemgetter(*idx), m if len(idx) == 1 else (m,) * len(idx), moves)

    def expand(nodes: tuple):
        enabled = []
        fireable = []
        for m in set(nodes):
            get, want, moves = table[m]
            if get(nodes) == want:
                enabled.append(m)
                fireable += moves
        if len(enabled) > 1:  # concurrent nodes: merge their moves into action order
            fireable.sort(key=itemgetter(0))
        out = []
        for _, a, targets in fireable:
            nxt = list(nodes)
            for i, t in targets:
                nxt[i] = t
            out.append((a, tuple(nxt)))
        return enabled, out

    return expand


def _stepwise_moves(n: Negotiation, nodes: tuple, reverse: bool = False):
    """The moves of `nodes` by `enabled_actions` and `step`, fired one at a
    time: the searches' expansion when `n` has no kernel. A bad move fires,
    or raises, where the reference semantics does (after the moves before
    it, and their budget checks)."""
    c = Configuration(n.alphabet.processes, nodes)
    acts = enabled_actions(n, c)
    for a in reversed(acts) if reverse else acts:
        yield a, step(n, c, a).nodes


def _stepwise_product_moves(t: Negotiation, h: Negotiation, c1, c2):
    """The product moves of (c1, c2) by `enabled_actions` and `step`, fired
    one action at a time, target side first; None is the dead side."""
    s1 = Configuration(t.alphabet.processes, c1) if c1 is not None else None
    s2 = Configuration(h.alphabet.processes, c2) if c2 is not None else None
    acts1 = set(enabled_actions(t, s1)) if s1 is not None else set()
    acts2 = set(enabled_actions(h, s2)) if s2 is not None else set()
    for a in t.alphabet.actions:
        if a in acts1 or a in acts2:
            n1 = step(t, s1, a).nodes if a in acts1 else None
            n2 = step(h, s2, a).nodes if a in acts2 else None
            yield a, (n1, n2)


def product_moves(t: Negotiation, h: Negotiation):
    """`moves(pair)` for a `bfs` over the synchronized product of `t` and
    `h` (same alphabet), on pairs of node tuples: each action enabled on
    either side, in declared action order, with the pair it leads to; a
    side where the action is not enabled goes to the dead sink, None, and
    stays there. Runs on both kernels when both sides have one, else on the
    reference semantics for every pair (see `successor_function`)."""
    expand_t, expand_h = successor_function(t), successor_function(h)
    if expand_t is None or expand_h is None:
        return lambda pair: _stepwise_product_moves(t, h, *pair)
    rank = t.alphabet.action_index

    def moves(pair):
        c1, c2 = pair
        moves1 = dict(expand_t(c1)[1]) if c1 is not None else {}
        moves2 = dict(expand_h(c2)[1]) if c2 is not None else {}
        return [(a, (moves1.get(a), moves2.get(a)))
                for a in sorted(moves1.keys() | moves2.keys(), key=rank)]

    return moves


@dataclass
class ConfigurationGraph:
    """Explicit reachable configuration graph over node tuples.

    `order` holds the reachable node tuples (declared process order) in BFS
    discovery order, actions expanded in declared order; `succ[i]` lists the
    (action, j) pairs leaving `order[i]` in action order, `j` indexing
    `order`. `init`, `vertices` (discovery order) and `edges[c]` (the
    (action, successor) pairs of `c`) give the same graph over
    `Configuration`s.
    """

    processes: tuple
    order: tuple
    succ: tuple

    def __len__(self):
        return len(self.order)

    @property
    def init(self) -> Configuration:
        return Configuration(self.processes, self.order[0])

    @cached_property
    def vertices(self) -> tuple:
        return tuple(Configuration(self.processes, c) for c in self.order)

    @cached_property
    def edges(self) -> dict:
        vs = self.vertices
        return {vs[i]: tuple((a, vs[j]) for a, j in outs) for i, outs in enumerate(self.succ)}


def configuration_graph(n: Negotiation, budget: int = DEFAULT_STATE_BUDGET) -> ConfigurationGraph:
    """The reachable configuration graph by BFS over node tuples; raises
    StateBudgetExceeded past `budget` vertices."""
    expand = successor_function(n)
    init = n.initial_configuration().nodes
    index = {init: 0}
    order = [init]
    succs = []
    # not `bfs`: edges go to seen successors too, by index; keeping the
    # moves to rebuild them would hold one node tuple per edge
    for c in order:  # BFS: `order` grows while it is walked
        moves = expand(c)[1] if expand is not None else _stepwise_moves(n, c)
        outs = []
        for a, c2 in moves:
            j = index.get(c2)
            if j is None:
                j = index[c2] = len(order)
                order.append(c2)
                if len(order) > budget:
                    raise StateBudgetExceeded(
                        f"configuration graph exceeds {budget} vertices"
                    )
            outs.append((a, j))
        succs.append(tuple(outs))
    return ConfigurationGraph(n.alphabet.processes, tuple(order), tuple(succs))


def compute_I(n: Negotiation, node, budget: int = DEFAULT_STATE_BUDGET, reverse_ties: bool = False) -> Configuration:
    """The unique reachable configuration whose enabled-node set is exactly
    {node}. `reverse_ties` flips the BFS expansion order; the result must not
    depend on it (uniqueness), which property tests exploit.
    """
    if node not in set(n.nodes):
        raise ValueError(f"unknown node {node!r}")
    procs = n.alphabet.processes
    expand = successor_function(n)
    found = None

    def moves(c):
        nonlocal found
        if expand is None:
            enabled = list(enabled_nodes(n, Configuration(procs, c)))
            out = _stepwise_moves(n, c, reverse_ties)
        else:
            enabled, out = expand(c)
            if reverse_ties:
                out.reverse()
        if enabled == [node]:  # tested on expansion, before any of c's moves
            if found is not None:
                raise AmbiguousConfiguration(
                    f"two configurations enable exactly {node!r}: "
                    f"{Configuration(procs, found)} and {Configuration(procs, c)}"
                )
            found = c
        return out

    bfs(n.initial_configuration().nodes, moves, budget=budget,
        budget_error=f"configuration search exceeds {budget} vertices")
    if found is None:
        raise ConfigurationNotFound(f"no reachable configuration enables exactly {node!r}")
    return Configuration(procs, found)


def empty_negotiation(alphabet: DistributedAlphabet) -> Negotiation:
    """Two nodes, no transitions; the bootstrap hypothesis of both learners."""
    full = tuple(alphabet.processes)
    return Negotiation(
        alphabet=alphabet,
        nodes=("n_init", "n_fin"),
        dnode={"n_init": full, "n_fin": full},
        delta={},
        init="n_init",
        fin="n_fin",
    )
