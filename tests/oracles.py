"""Independent brute-force oracles the tests check the implementations
against. Everything here is deliberately naive."""

from collections import deque
from itertools import product

from negotiations.model import Negotiation, enabled_actions, step


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
