"""Independent brute-force oracles the tests check the implementations
against. Everything here is deliberately naive."""

from collections import deque
from itertools import product

from negotiations.errors import (
    AmbiguousConfiguration,
    ConfigurationNotFound,
    NotEnabled,
    StateBudgetExceeded,
)
from negotiations.model import (
    ExecutionOutcome,
    Negotiation,
    enabled_actions,
    enabled_nodes,
    step,
)
from negotiations.soundness import SemanticSoundness
from negotiations.teacher import NEGATIVE, POSITIVE, EquivAnswer
from negotiations.traces import PrefixResult, minimal_event_indices, normal_form


def trace_closure(alpha, w):
    """All words reachable by swapping adjacent independent letters."""
    w = tuple(w)
    seen = {w}
    queue = deque([w])
    while queue:
        u = queue.popleft()
        for i in range(len(u) - 1):
            if not alpha.dependent(u[i], u[i + 1]):
                v = u[:i] + (u[i + 1], u[i]) + u[i + 2 :]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return seen


def word_key(alpha, w):
    return tuple(alpha.action_index(a) for a in w)


def brute_normal_form(alpha, w):
    return min(trace_closure(alpha, w), key=lambda u: word_key(alpha, u))


def greedy_normal_form(alpha, w):
    """Greedy lexicographic normal form: repeatedly emit the order-least
    action among the current minimal events, found by pairwise rescans."""
    rest = list(w)
    out = []
    while rest:
        best = None
        for i, a in enumerate(rest):
            if all(not alpha.dependent(rest[j], a) for j in range(i)):
                if best is None or alpha.action_index(a) < alpha.action_index(rest[best]):
                    best = i
        out.append(rest.pop(best))
    return tuple(out)


def pairwise_minimal_event_indices(alpha, w):
    """Positions whose event depends on no earlier event."""
    return [
        i for i, a in enumerate(w)
        if all(not alpha.dependent(w[j], a) for j in range(i))
    ]


def pairwise_upward_closure_indices(alpha, w, e):
    """Indices of events >= e in the dependence order (e included)."""
    above = [False] * len(w)
    above[e] = True
    for j in range(e + 1, len(w)):
        above[j] = any(above[i] and alpha.dependent(w[i], w[j]) for i in range(e, j))
    return [i for i in range(len(w)) if above[i]]


def brute_minimal_actions(alpha, w):
    return {u[0] for u in trace_closure(alpha, w) if u}


def trace_equal(alpha, u, v) -> bool:
    return normal_form(alpha, u) == normal_form(alpha, v)


def format_local_word(pi) -> str:
    return " ".join(f"{a}@{p}" for a, p in pi)


def brute_trace_equal(alpha, u, v):
    return tuple(v) in trace_closure(alpha, u) if len(u) == len(v) else False


def brute_quotient(alpha, u, w):
    """Some suffix v with u.v ~ w, or None."""
    u = tuple(u)
    for w2 in trace_closure(alpha, w):
        if w2[: len(u)] in trace_closure(alpha, u):
            return w2[len(u) :]
    return None


def brute_is_coprime(alpha, t):
    """Unique minimal event: every linearization starts with the same letter
    (equal letters are mutually dependent, so this pins a single event)."""
    return len(t) > 0 and len({u[0] for u in trace_closure(alpha, t)}) == 1


def all_words(actions, max_len):
    for length in range(max_len + 1):
        yield from product(actions, repeat=length)


def brute_paths(n: Negotiation, max_len: int):
    """All local paths init -> fin up to the given length, by DFS."""
    letters = n.alphabet.local_letters()
    found = set()
    stack = [(n.init, ())]
    while stack:
        node, path = stack.pop()
        if node == n.fin:
            found.add(path)
        if len(path) == max_len:
            continue
        for letter in letters:
            t = n.delta.get((node, letter[0], letter[1]))
            if t is not None:
                stack.append((t, path + (letter,)))
    return found


def shortest_difference(n1: Negotiation, n2: Negotiation, max_len: int):
    """Bounded-depth BFS over the pair of configuration spaces; returns a
    word of length <= max_len in the symmetric language difference, or None.
    Independent of the teacher's product construction."""
    fin1, fin2 = n1.final_configuration(), n2.final_configuration()
    start = (n1.initial_configuration(), n2.initial_configuration(), ())
    seen = {start[:2]}
    queue = deque([start])
    while queue:
        c1, c2, word = queue.popleft()
        acc1 = c1 == fin1
        acc2 = c2 == fin2
        if acc1 != acc2:
            return word
        if len(word) == max_len:
            continue
        acts1 = set(enabled_actions(n1, c1)) if c1 is not None else set()
        acts2 = set(enabled_actions(n2, c2)) if c2 is not None else set()
        for a in n1.alphabet.actions:
            if a not in acts1 and a not in acts2:
                continue
            d1 = step(n1, c1, a) if a in acts1 else None
            d2 = step(n2, c2, a) if a in acts2 else None
            if d1 is None and d2 is None:
                continue
            key = (d1, d2)
            if key not in seen:
                seen.add(key)
                queue.append((d1, d2, word + (a,)))
    return None


def language_upto(n: Negotiation, max_len: int):
    """All accepted executions up to a length bound, via configuration BFS."""
    fin = n.final_configuration()
    out = set()
    frontier = [(n.initial_configuration(), ())]
    for _ in range(max_len + 1):
        nxt = []
        for c, word in frontier:
            if c == fin:
                out.add(word)
            if len(word) < max_len:
                for a in enabled_actions(n, c):
                    nxt.append((step(n, c, a), word + (a,)))
        frontier = nxt
        if not frontier:
            break
    return out


# -- executions by `enabled_actions` and `step` -------------------------------
# model.run_execution and traces.max_executable_prefix fire through
# model._fire on a list of process positions; they must agree with these,
# ends, remainders and raised errors included.


def stepwise_run_execution(n: Negotiation, w) -> ExecutionOutcome:
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


def stepwise_max_executable_prefix(n: Negotiation, w, rng=None) -> PrefixResult:
    """Fire any enabled action among the remainder's minimal events until
    none is; with `rng` the choice among them is randomized."""
    alpha = n.alphabet
    alpha.check_word(w)
    rest = list(w)
    c = n.initial_configuration()
    fired = []
    while True:
        enabled = set(enabled_actions(n, c))
        enabled_now = [i for i in minimal_event_indices(alpha, rest) if rest[i] in enabled]
        if not enabled_now:
            break
        pick = enabled_now[0] if rng is None else rng.choice(enabled_now)
        a = rest.pop(pick)
        c = step(n, c, a)
        fired.append(a)
    return PrefixResult(tuple(fired), tuple(rest), c)


# -- configuration-space searches by `enabled_actions` and `step` -------------
# The successor kernel's searches (model.configuration_graph, model.compute_I,
# soundness.is_sound_semantic, Teacher._product_search) must agree with these,
# vertex order, edges, counterexamples and raised errors included.


def stepwise_configuration_graph(n: Negotiation, budget: int = 10**6):
    """(vertices in BFS order, edges) over Configurations."""
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
    return tuple(order), edges


def stepwise_is_sound(n: Negotiation, budget: int = 10**6) -> SemanticSoundness:
    vertices, edges = stepwise_configuration_graph(n, budget)
    fin = n.final_configuration()
    pred = {}
    for c, outs in edges.items():
        for _, c2 in outs:
            pred.setdefault(c2, []).append(c)
    coreach = set()
    if fin in edges:
        coreach.add(fin)
        queue = deque([fin])
        while queue:
            c = queue.popleft()
            for c0 in pred.get(c, ()):
                if c0 not in coreach:
                    coreach.add(c0)
                    queue.append(c0)
    stuck = [c for c in vertices if c not in coreach]
    if stuck:
        dead = next((c for c in stuck if not edges[c]), None)
        return SemanticSoundness(False, dead if dead is not None else stuck[0])
    return SemanticSoundness(True, None)


def stepwise_compute_I(n: Negotiation, node, budget: int = 10**6, reverse_ties: bool = False):
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


def stepwise_product_search(t: Negotiation, h: Negotiation, budget: int = 10**6) -> EquivAnswer:
    """BFS over the product of two configuration graphs, None being the dead
    side; actions in declared order, so the shortest, least word first."""
    t_fin = t.final_configuration()
    h_fin = h.final_configuration()
    start = (t.initial_configuration(), h.initial_configuration())
    parent = {start: None}
    order = deque([start])

    def word_of(state):
        parts = []
        while parent[state] is not None:
            state, a = parent[state]
            parts.append(a)
        return tuple(reversed(parts))

    def differs(state):
        c1, c2 = state
        return (c1 == t_fin) != (c2 == h_fin)

    if differs(start):
        sign = POSITIVE if start[0] == t_fin else NEGATIVE
        return EquivAnswer(False, sign, ())
    while order:
        state = order.popleft()
        c1, c2 = state
        acts1 = set(enabled_actions(t, c1)) if c1 is not None else set()
        acts2 = set(enabled_actions(h, c2)) if c2 is not None else set()
        for a in t.alphabet.actions:
            if a not in acts1 and a not in acts2:
                continue
            n1 = step(t, c1, a) if a in acts1 else None
            n2 = step(h, c2, a) if a in acts2 else None
            nxt = (n1, n2)
            if nxt in parent:
                continue
            parent[nxt] = (state, a)
            if len(parent) > budget:
                raise StateBudgetExceeded(f"equivalence product exceeds {budget} states")
            if differs(nxt):
                sign = POSITIVE if n1 == t_fin else NEGATIVE
                return EquivAnswer(False, sign, word_of(nxt))
            order.append(nxt)
    return EquivAnswer(True)


def simple_paths(edges, start, forbidden=frozenset()):
    """All vertex-simple paths from `start` along `edges` (node -> list of
    (letter, node)), the empty one included, as (node sequence, label
    sequence) pairs, avoiding `forbidden` nodes."""
    if start in forbidden:
        return
    stack = [([start], [])]
    while stack:
        nodes, labels = stack.pop()
        yield nodes, labels
        for letter, t in edges.get(nodes[-1], ()):
            if t not in forbidden and t not in nodes:
                stack.append((nodes + [t], labels + [letter]))


def brute_fork_paths(n: Negotiation, m, a, p1, p2):
    """Node-disjoint p1- and p2-paths, from the fork (m, a)'s successors for
    p1 and p2, to nodes holding both processes, by exhaustive simple-path
    search; (labels1, labels2) or None."""
    s1 = n.delta.get((m, a, p1))
    s2 = n.delta.get((m, a, p2))
    if s1 is None or s2 is None or s1 == s2:
        return None
    edges = {p1: {}, p2: {}}
    for (src, b, q), t in sorted(n.delta.items()):
        if q in edges:
            edges[q].setdefault(src, []).append(((b, q), t))
    want = {p1, p2}
    for nodes1, labels1 in simple_paths(edges[p1], s1):
        if not want <= n.dnode_set(nodes1[-1]):
            continue
        for nodes2, labels2 in simple_paths(edges[p2], s2, forbidden=frozenset(nodes1)):
            if want <= n.dnode_set(nodes2[-1]):
                return tuple(labels1), tuple(labels2)
    return None


def homomorphism(n: Negotiation, m: Negotiation):
    """Node map n -> m sending each node to the state its access path reaches
    in m; returns None when the map fails to preserve labeled transitions
    (a bug signal, given m = minimize_negotiation(n))."""
    access = {n.init: ()}
    queue = deque([n.init])
    edges = {}
    for (src, a, p), t in sorted(n.delta.items()):
        edges.setdefault(src, []).append(((a, p), t))
    while queue:
        s = queue.popleft()
        for letter, t in edges.get(s, ()):
            if t not in access:
                access[t] = access[s] + (letter,)
                queue.append(t)
    mapping = {}
    for node in n.nodes:
        if node not in access:
            return None
        cur = m.init
        for (a, p) in access[node]:
            cur = m.delta.get((cur, a, p))
            if cur is None:
                return None
        mapping[node] = cur
    for (src, a, p), t in n.delta.items():
        if m.delta.get((mapping[src], a, p)) != mapping[t]:
            return None
    if mapping[n.init] != m.init or mapping[n.fin] != m.fin:
        return None
    return mapping
