"""Deterministic negotiations and their operational semantics.

A negotiation is a graph of nodes, each with a process domain; all processes
in a node's domain leave it jointly by choosing a common outgoing action.
This module holds the data model (alphabet, diagram, configuration), the
well-formedness check, word/local-path execution, and the configuration
graph that backs the soundness and equivalence oracles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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


@dataclass
class DistributedAlphabet:
    """Actions typed with nonempty process domains.

    Iteration order over `processes` and `actions` is the declared order and
    is relied upon everywhere for reproducibility (normal forms, BFS
    tie-breaking, serialization).
    """

    processes: tuple
    actions: tuple
    dom: dict  # action -> tuple of processes, in declared process order

    def __post_init__(self):
        self.processes = tuple(self.processes)
        self.actions = tuple(self.actions)
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
        self._domains = {}  # domain tuple -> (that tuple, its frozenset)
        self.dom = {a: self.domain(ps)[0] for a, ps in norm.items()}
        self._dom_sets = {a: self.domain(ps)[1] for a, ps in norm.items()}
        self._action_index = {a: i for i, a in enumerate(self.actions)}
        self._proc_index = {p: i for i, p in enumerate(self.processes)}

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

    def __eq__(self, other):
        if not isinstance(other, DistributedAlphabet):
            return NotImplemented
        return (
            self.processes == other.processes
            and self.actions == other.actions
            and self.dom == other.dom
        )


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


@dataclass
class Negotiation:
    """A deterministic negotiation diagram.

    `delta` is the partial transition map on (node, action, process) triples.
    Construction only checks that identifiers resolve; the Def-style
    conditions live in `validate`, which reports violations as data.
    """

    alphabet: DistributedAlphabet
    nodes: tuple
    dnode: dict  # node -> tuple of processes
    delta: dict  # (node, action, process) -> node
    init: str
    fin: str

    def __post_init__(self):
        self.nodes = tuple(self.nodes)
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
        self.dnode = norm
        for (n, a, p), m in self.delta.items():
            if n not in node_set or m not in node_set:
                raise ValueError(f"transition ({n},{a},{p}) -> {m} references unknown node")
            if a not in self.alphabet._dom_sets:
                raise ValueError(f"transition on unknown action {a!r}")
            if p not in proc_set:
                raise ValueError(f"transition for unknown process {p!r}")
        out = {n: [] for n in self.nodes}
        for n in self.nodes:
            for a in self.alphabet.actions:
                if any((n, a, p) in self.delta for p in self.alphabet.dom[a]):
                    out[n].append(a)
        self._out = {n: tuple(acts) for n, acts in out.items()}

    def dnode_set(self, n) -> frozenset:
        return self.alphabet.domain(self.dnode[n])[1]

    def out(self, n) -> tuple:
        """Actions with at least one transition leaving `n`."""
        return self._out[n]

    @property
    def size(self) -> int:
        return len(self.nodes) + len(self.delta)

    def initial_configuration(self) -> Configuration:
        return Configuration.uniform(self.alphabet, self.init)

    def final_configuration(self) -> Configuration:
        return Configuration.uniform(self.alphabet, self.fin)

    def __eq__(self, other):
        if not isinstance(other, Negotiation):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.nodes == other.nodes
            and self.dnode == other.dnode
            and self.delta == other.delta
            and self.init == other.init
            and self.fin == other.fin
        )


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


def path_coverage_warnings(n: Negotiation) -> list:
    """Nodes not on any local path init -> fin (reported as warnings only)."""
    fwd = {n.init}
    queue = deque([n.init])
    succ = {}
    pred = {}
    for (m, a, p), t in n.delta.items():
        succ.setdefault(m, []).append(t)
        pred.setdefault(t, []).append(m)
    while queue:
        m = queue.popleft()
        for t in succ.get(m, ()):
            if t not in fwd:
                fwd.add(t)
                queue.append(t)
    bwd = {n.fin}
    queue = deque([n.fin])
    while queue:
        m = queue.popleft()
        for t in pred.get(m, ()):
            if t not in bwd:
                bwd.add(t)
                queue.append(t)
    return [
        f"node {m!r} lies on no local path from init to fin"
        for m in n.nodes
        if m not in (fwd & bwd)
    ]


def enabled_nodes(n: Negotiation, c: Configuration) -> set:
    """Nodes whose whole domain currently sits at them."""
    at = dict(zip(c.processes, c.nodes))
    result = set()
    for m in n.nodes:
        if all(at[p] == m for p in n.dnode[m]):
            result.add(m)
    return result


def enabled(n: Negotiation, c: Configuration) -> set:
    """(node, action) pairs fireable in `c`."""
    result = set()
    at = dict(zip(c.processes, c.nodes))
    for m in n.nodes:
        if all(at[p] == m for p in n.dnode[m]):
            for a in n.out(m):
                if all((m, a, p) in n.delta for p in n.alphabet.dom[a]):
                    result.add((m, a))
    return result


def enabled_actions(n: Negotiation, c: Configuration) -> list:
    """Actions fireable in `c`, in declared action order."""
    pairs = enabled(n, c)
    acts = {a for (_, a) in pairs}
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


@dataclass
class ConfigurationGraph:
    """Explicit reachable configuration graph.

    `vertices` in BFS discovery order (actions expanded in declared order);
    `edges[c]` is the list of (action, successor) pairs in action order.
    """

    init: Configuration
    vertices: tuple
    edges: dict

    def __len__(self):
        return len(self.vertices)


def configuration_graph(n: Negotiation, budget: int = DEFAULT_STATE_BUDGET) -> ConfigurationGraph:
    init = n.initial_configuration()
    seen = {init}
    order = [init]
    edges = {}
    queue = deque([init])
    while queue:
        c = queue.popleft()
        outs = []
        for a in enabled_actions(n, c):
            c2 = step(n, c, a)
            outs.append((a, c2))
            if c2 not in seen:
                seen.add(c2)
                if len(seen) > budget:
                    raise StateBudgetExceeded(
                        f"configuration graph exceeds {budget} vertices"
                    )
                order.append(c2)
                queue.append(c2)
        edges[c] = tuple(outs)
    return ConfigurationGraph(init, tuple(order), edges)


def compute_I(n: Negotiation, node, budget: int = DEFAULT_STATE_BUDGET, reverse_ties: bool = False) -> Configuration:
    """The unique reachable configuration whose enabled-node set is exactly
    {node}. `reverse_ties` flips the BFS expansion order; the result must not
    depend on it (uniqueness), which property tests exploit.
    """
    if node not in set(n.nodes):
        raise ValueError(f"unknown node {node!r}")
    init = n.initial_configuration()
    seen = {init}
    queue = deque([init])
    found = None
    while queue:
        c = queue.popleft()
        if enabled_nodes(n, c) == {node}:
            if found is not None and found != c:
                raise AmbiguousConfiguration(
                    f"two configurations enable exactly {node!r}: {found} and {c}"
                )
            if found is None:
                found = c
        acts = enabled_actions(n, c)
        if reverse_ties:
            acts = list(reversed(acts))
        for a in acts:
            c2 = step(n, c, a)
            if c2 not in seen:
                seen.add(c2)
                if len(seen) > budget:
                    raise StateBudgetExceeded(
                        f"configuration search exceeds {budget} vertices"
                    )
                queue.append(c2)
    if found is None:
        raise ConfigurationNotFound(f"no reachable configuration enables exactly {node!r}")
    return found


def empty_negotiation(alphabet: DistributedAlphabet, init="n_init", fin="n_fin") -> Negotiation:
    """Two nodes, no transitions; the bootstrap hypothesis of both learners."""
    full = tuple(alphabet.processes)
    return Negotiation(
        alphabet=alphabet,
        nodes=(init, fin),
        dnode={init: full, fin: full},
        delta={},
        init=init,
        fin=fin,
    )
