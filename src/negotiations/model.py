"""Deterministic negotiations and their operational semantics.

A negotiation is a graph of nodes, each with a process domain; all processes
in a node's domain leave it jointly by choosing a common outgoing action.
This module holds the data model (alphabet, diagram, configuration), the
well-formedness check, word/local-path execution, and the configuration
graph that backs the soundness and equivalence oracles.

`enabled`, `enabled_actions` and `step` are the reference semantics. The
searches over the configuration space (`configuration_graph`, so semantic
soundness; `compute_I`; the teacher's product search) run instead on one
successor kernel, `successor_function`, over packed configurations: a
configuration is one int, its code, with each process's node index in a
bit field of its own. Building the kernel reads `delta` once, in
O(|delta| + |P|*|nodes|). Expanding a configuration then costs one field
read per process, one mask compare per node a process leads, and one
addition per successor: no node tuple or `Configuration` is built per step,
and the visited sets hash ints. The searches decode a code to its node
tuple only where they answer. There is one semantics for every
negotiation, valid or not: (m, a) is enabled exactly when `step` fires a
from m, and the kernel fires exactly those moves, so the searches never
raise NotEnabled. `ConfigurationGraph` is the one indexed form of the
configuration graph: `configuration_graph` fills it whole, and the product
search reuses the graphs the soundness checks filled and expands the rest
on demand.

Executions go through the kernel's `run(code, w)`, which fires the letters
of `w` in turn, with `step`'s checks, in one loop on one code, on the kernel
each negotiation keeps from its first execution. `run_execution` (so
`neg member --exec`) decodes the code once at the end; `member_exec` (so
the teacher's execution queries and counterexample replay) compares it
with the final code and decodes nothing; `traces.max_executable_prefix`
tests each minimal event with a one-letter `run`. `step` stays the
reference that the tests hold all three against.

Graph searches use `reach` for reachability sets and `bfs` (with `path`
reading a label path out of its parent map) where discovery order, shortest
paths or a first hit matter: `compute_I`, the product search, the pattern
witnesses' access paths, the canonical renaming of minimal DFAs. `walk` is
the one local walk: the nodes a sequence of a@p letters visits, which
`run_local_path`, the witness replay and both learners' path replays read.
`local_edges` is the one declared-order index of a node's a@p edges, which
the pattern searches, their witness replay and the JSON/DOT writers read.
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

    @cached_property
    def _executions(self) -> tuple:
        """(run, decode, initial code, final code) of the successor kernel,
        built on the first execution; `==`, repr, pickle and copies skip it."""
        _, encode, decode, run = successor_function(self)
        return (run, decode, encode(self.initial_configuration().nodes),
                encode(self.final_configuration().nodes))


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


def local_edges(n: Negotiation, p=None) -> dict:
    """Each node's local edges `((a, q), target)`, of process `p` only when
    given, in declared action then process order; also those with q not in
    dom(a), which `validate` rejects and `serialize` keeps."""
    edges = {}
    for (src, a, q), dst in n.delta.items():
        if p is None or q == p:
            edges.setdefault(src, []).append(((a, q), dst))
    for outs in edges.values():
        outs.sort(key=lambda e: (n.alphabet.action_index(e[0][0]), n.alphabet.proc_index(e[0][1])))
    return edges


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
    """(node, action) pairs fireable in `c`, exactly where `step` fires:
    all of dnode(m) and dom(a) sit at m, each with an a-transition there."""
    at = dict(zip(c.processes, c.nodes))
    return {(m, a) for m in enabled_nodes(n, c) for a in n.out(m)
            if all(at[p] == m and (m, a, p) in n.delta for p in n.alphabet.dom[a])}


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
    """Fire the letters of `w` left to right from the initial configuration,
    in one `run` of `n`'s kernel; `end` is the configuration before the
    blocking letter when stuck."""
    w = tuple(w)
    n.alphabet.check_word(w)
    run, decode, init, fin = n._executions
    fired, code = run(init, w)
    if fired < len(w):
        status = ExecutionOutcome.STUCK
    else:
        status = ExecutionOutcome.COMPLETED if code == fin else ExecutionOutcome.PARTIAL
    return ExecutionOutcome(status, fired, Configuration(n.alphabet.processes, decode(code)))


def member_exec(n: Negotiation, w) -> bool:
    """Is `w` a successful execution of `n`? One `run`, nothing decoded."""
    w = tuple(w)
    n.alphabet.check_word(w)
    run, _, init, fin = n._executions
    return run(init, w) == (len(w), fin)


def walk(n: Negotiation, start, letters) -> list:
    """The nodes the local walk from `start` along `letters` (a@p) visits,
    `start` first; it stops before the first letter with no transition, so
    a complete walk has one node more than there are letters."""
    nodes = [start]
    for a, p in letters:
        nxt = n.delta.get((nodes[-1], a, p))
        if nxt is None:
            break
        nodes.append(nxt)
    return nodes


def run_local_path(n: Negotiation, pi) -> str:
    """Walk `pi` (letters a@p) through the graph from init; returns the node
    reached. Raises UnknownAction, before walking, when any letter has an
    unknown action, else NoTransition with the failing index."""
    pi = tuple(pi)
    n.alphabet.check_word([a for a, _ in pi])
    nodes = walk(n, n.init, pi)
    i = len(nodes) - 1
    if i < len(pi):
        a, p = pi[i]
        raise NoTransition(i, (a, p), nodes[i])
    return nodes[i]


def member_path(n: Negotiation, pi) -> bool:
    """Is `pi` a local path from init to fin?"""
    try:
        return run_local_path(n, pi) == n.fin
    except NoTransition:
        return False


def successor_function(n: Negotiation):
    """The successor kernel of `n` over packed configurations.

    A configuration is one int, its code: process i's node index (declared
    node order) sits in bits [i*b, (i+1)*b), with b the bits that the
    largest node index needs, at least 1. Returns `(expand, encode,
    decode, run)`: `encode(nodes)` and `decode(code)` convert between a
    code and its node tuple (declared process order), `expand(code) ->
    (enabled nodes, moves)` gives the nodes whose whole domain sits at them
    and the actions fireable there in declared action order, each with the
    code it leads to -- `enabled_nodes`, `enabled_actions` and `step`
    without a `Configuration` -- and `run(code, w) -> (fired, code)` fires
    the known actions of `w` in turn and stops before the first one where
    `step` raises NotEnabled, returning how many fired and the code after
    them. `delta` is read once, here; only executions keep a kernel
    (`Negotiation._executions`).

    A node is looked at only through the field of its domain's first
    process, and is enabled when one mask compare finds all of its domain
    there. A move adds a precomputed offset to the code: each of its
    processes' fields goes from m to its target. A complete move (m, a)
    with dom(a) not a subset of dnode(m) (only an invalid negotiation has
    one) is guarded: it fires when a second mask compare finds all of
    dom(a) at m too, as in `enabled`. `run` reads m off dom(a)'s first
    process and looks a up in m's moves by action, whose one mask compare
    covers dnode(m) and, for a guarded move, dom(a): it fires a exactly as
    `step` does, m enabled and a complete there.
    """
    procs = n.alphabet.processes
    names = n.nodes
    ids = {m: k for k, m in enumerate(names)}
    pos = {p: i for i, p in enumerate(procs)}
    b = max(1, (len(names) - 1).bit_length())
    field = (1 << b) - 1
    shifts = [i * b for i in range(len(procs))]

    def fields(ps, k):
        """(mask over the fields of `ps`, each of those fields holding k)."""
        return (sum(field << shifts[pos[p]] for p in ps),
                sum(k << shifts[pos[p]] for p in ps))

    # entries[k]: (node, mask, want, [(action index, action, offset, guard
    # mask, guard want)]) for node k, enabled when code & mask == want;
    # leads[i][k] is entries[k] when process i leads node k's domain, else
    # None; by_action[k]: {action: (mask | guard mask, want | guard want,
    # offset)} for node k's moves
    entries = []
    by_action = []
    leads = [[None] * len(names) for _ in procs]
    guarded = False
    for k, m in enumerate(names):
        mask, want = fields(n.dnode[m], k)
        moves = []
        for a in n.out(m):
            dom = n.alphabet.dom[a]
            if not all((m, a, p) in n.delta for p in dom):
                continue
            offset = sum((ids[n.delta[(m, a, p)]] - k) << shifts[pos[p]] for p in dom)
            guard = (0, 0)
            if not n.alphabet.dom_set(a) <= n.dnode_set(m):
                guarded = True
                guard = fields(dom, k)
            moves.append((n.alphabet.action_index(a), a, offset, *guard))
        entries.append((m, mask, want, moves))
        by_action.append({a: (mask | gmask, want | gwant, offset)
                          for _, a, offset, gmask, gwant in moves})
        leads[pos[n.dnode[m][0]]][k] = entries[k]
    first = {a: shifts[pos[dom[0]]] for a, dom in n.alphabet.dom.items()}

    def encode(nodes) -> int:
        return sum(ids[m] << s for m, s in zip(nodes, shifts))

    def decode(code: int) -> tuple:
        return tuple(names[(code >> s) & field] for s in shifts)

    def expand(code: int):
        enabled = []
        fireable = []
        rest = code
        for lead in leads:
            entry = lead[rest & field]
            rest >>= b
            if entry is not None and code & entry[1] == entry[2]:
                enabled.append(entry[0])
                fireable += entry[3]
        if guarded:  # a guarded move fires only if all of dom(a) sits at m
            fireable = [mv for mv in fireable if code & mv[3] == mv[4]]
        if len(enabled) > 1:  # concurrent nodes: merge their moves into action order
            fireable.sort(key=itemgetter(0))
        return enabled, [(a, code + offset) for _, a, offset, _, _ in fireable]

    def run(code: int, w) -> tuple:
        for i, a in enumerate(w):
            move = by_action[(code >> first[a]) & field].get(a)
            if move is None or code & move[0] != move[1]:
                return i, code
            code += move[2]
        return len(w), code

    return expand, encode, decode, run


class ConfigurationGraph:
    """The reachable configuration graph of `n` over packed codes (see
    `successor_function`), filled whole or on demand.

    `order` holds the discovered codes, the initial one at index 0, and
    `index` maps each back to its index; `nodes(i)` is vertex i's node
    tuple (declared process order) and `code(nodes)` the code of a node
    tuple. `succ[i]` is `(actions, successor indices)` for vertex i, in
    declared action order, or None until `expand(i)` runs.
    `configuration_graph` expands every vertex in BFS order; the teacher's
    product search expands only the vertices it reaches.
    """

    def __init__(self, n: Negotiation):
        self.negotiation = n
        self.processes = n.alphabet.processes
        self._kernel, self.code, self._decode, _ = successor_function(n)
        init = self.code(n.initial_configuration().nodes)
        self.order = [init]
        self.index = {init: 0}
        self.succ = [None]

    def __len__(self):
        return len(self.order)

    def nodes(self, i: int) -> tuple:
        """The node tuple of vertex i."""
        return self._decode(self.order[i])

    def expand(self, i: int) -> tuple:
        """Fire the moves of vertex i, interning new successors at the end
        of `order`; returns and records `succ[i]`."""
        order, index, succ = self.order, self.index, self.succ
        acts = []
        js = []
        for a, c in self._kernel(order[i])[1]:
            j = index.get(c)
            if j is None:
                j = index[c] = len(order)
                order.append(c)
                succ.append(None)
            acts.append(a)
            js.append(j)
        moves = succ[i] = (tuple(acts), tuple(js))
        return moves

    def final(self) -> int:
        """The final configuration's index. While some vertex is still
        unexpanded the graph interns it ahead of time; a graph filled whole
        that does not reach it answers -1."""
        fin = self.code(self.negotiation.final_configuration().nodes)
        i = self.index.get(fin)
        if i is None:
            if None not in self.succ:
                return -1
            i = self.index[fin] = len(self.order)
            self.order.append(fin)
            self.succ.append(None)
        return i


def configuration_graph(n: Negotiation, budget: int = DEFAULT_STATE_BUDGET) -> ConfigurationGraph:
    """The reachable configuration graph, every vertex expanded in BFS
    order; raises StateBudgetExceeded past `budget` vertices. Only a
    discovered successor is checked against `budget`, so the initial
    configuration alone fits in any budget, 0 included."""
    graph = ConfigurationGraph(n)
    order = graph.order
    limit = max(budget, 1)
    for i, _ in enumerate(order):  # BFS: `order` grows while it is walked
        graph.expand(i)
        if len(order) > limit:
            raise StateBudgetExceeded(f"configuration graph exceeds {budget} vertices")
    return graph


def compute_I(n: Negotiation, node, budget: int = DEFAULT_STATE_BUDGET) -> Configuration:
    """The unique reachable configuration whose enabled-node set is exactly
    {node}. The BFS runs over packed codes (see `successor_function`),
    visits every reachable configuration and raises AmbiguousConfiguration
    at a second match, so the answer does not depend on the expansion
    order; the answer and the error's two configurations are decoded.
    """
    if node not in set(n.nodes):
        raise ValueError(f"unknown node {node!r}")
    procs = n.alphabet.processes
    expand, encode, decode, _ = successor_function(n)
    found = None

    def moves(c):
        nonlocal found
        enabled, out = expand(c)
        if enabled == [node]:  # tested on expansion, before any of c's moves
            if found is not None:
                raise AmbiguousConfiguration(
                    f"two configurations enable exactly {node!r}: "
                    f"{Configuration(procs, decode(found))} and {Configuration(procs, decode(c))}"
                )
            found = c
        return out

    bfs(encode(n.initial_configuration().nodes), moves, budget=budget,
        budget_error=f"configuration search exceeds {budget} vertices")
    if found is None:
        raise ConfigurationNotFound(f"no reachable configuration enables exactly {node!r}")
    return Configuration(procs, decode(found))


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
