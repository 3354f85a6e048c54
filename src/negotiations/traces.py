"""Mazurkiewicz-trace algebra over a distributed alphabet.

Words are tuples of actions; two words are trace-equal when one can be
rewritten into the other by swapping adjacent letters with disjoint domains.
The canonical representative used throughout is the lexicographic normal
form under the alphabet's declared action order (Anisimov & Knuth 1979).

The operations scan a word once, left to right, tracking the processes of
the events seen so far. Linking each event to the last earlier event on
each of its processes gives the dependence DAG in O(n*|P|); `normal_form`
is Kahn's topological sort of that DAG with a min-heap on the action
index, O(n*(|P| + log n)) for a word of n letters over |P| processes.
Minimal events and upward closures keep one set of touched (or blocked)
processes instead. A letter outside the alphabet raises UnknownAction.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import NotCoprime, ProcessNotInDmin, UnknownAction
from .model import Configuration, DistributedAlphabet, Negotiation


def _domains(alpha: DistributedAlphabet, w) -> list:
    """The process set of each letter of `w`, in order."""
    dom_sets = alpha._dom_sets
    try:
        return [dom_sets[a] for a in w]
    except KeyError as exc:
        raise UnknownAction(f"unknown action {exc.args[0]!r}") from None


def minimal_event_indices(alpha: DistributedAlphabet, w) -> list:
    """Positions whose event depends on no earlier event."""
    out = []
    touched = set()
    for i, procs in enumerate(_domains(alpha, w)):
        if touched.isdisjoint(procs):
            out.append(i)
        touched |= procs
    return out


def minimal_actions(alpha: DistributedAlphabet, w) -> set:
    """min(w): actions that can start some representative of the trace."""
    return {w[i] for i in minimal_event_indices(alpha, w)}


def normal_form(alpha: DistributedAlphabet, w) -> tuple:
    """Lexicographic normal form: repeatedly emit the order-least action
    among the minimal events of what is left.

    Each event is linked to the last earlier event on each of its
    processes; two events sharing several processes are linked once per
    shared process, and the in-degree counts every link. Two minimal events
    never share an action (equal actions are dependent), so the heap never
    compares two events with the same key.
    """
    index = alpha._action_index
    last = {}  # process -> its latest event so far
    indegree = []
    succs = []
    for i, procs in enumerate(_domains(alpha, w)):
        d = 0
        for p in procs:
            j = last.get(p)
            if j is not None:
                succs[j].append(i)
                d += 1
            last[p] = i
        indegree.append(d)
        succs.append([])
    ready = [(index[w[i]], i) for i, d in enumerate(indegree) if not d]
    heapify(ready)
    out = []
    while ready:
        _, i = heappop(ready)
        out.append(w[i])
        for j in succs[i]:
            indegree[j] -= 1
            if not indegree[j]:
                heappush(ready, (index[w[j]], j))
    return tuple(out)


def trace_quotient(alpha: DistributedAlphabet, u, w):
    """u^{-1}w: Some(v) with uv ~ w when u is a trace-prefix of w, else None.

    Matches u's letters left to right against minimal events of the
    remainder; taking any minimal occurrence of an action yields a
    trace-equal remainder, so the greedy match is exact. Only the first
    occurrence of an action can be minimal, so each letter's scan stops at
    that occurrence or at the first earlier event touching its processes.
    """
    alpha.check_word(u)
    alpha.check_word(w)
    rest = list(w)
    for a in u:
        for i, b in enumerate(rest):
            if b == a:
                del rest[i]
                break
            if alpha.dependent(a, b):
                return None
        else:
            return None
    return tuple(rest)


def is_coprime(alpha: DistributedAlphabet, t) -> bool:
    """A trace is co-prime when it has exactly one minimal event."""
    return len(minimal_event_indices(alpha, t)) == 1


def _min_index(alpha: DistributedAlphabet, t) -> int:
    """Index of the unique minimal event; errors on non-co-prime input."""
    mins = minimal_event_indices(alpha, t)
    if len(mins) != 1:
        raise NotCoprime(f"trace {t!r} has {len(mins)} minimal events")
    return mins[0]


def dmin(alpha: DistributedAlphabet, t) -> frozenset:
    """Domain of the unique minimal action; errors on non-co-prime input."""
    return alpha.dom_set(t[_min_index(alpha, t)])


def min_action(alpha: DistributedAlphabet, t) -> str:
    return t[_min_index(alpha, t)]


def is_step(alpha: DistributedAlphabet, s, b, p) -> bool:
    """True iff `s` is a (b,p)-step: co-prime, min(s) = b, and b is the only
    action of `s` involving p."""
    if not s or not is_coprime(alpha, s):
        return False
    if min_action(alpha, s) != b or p not in alpha.dom_set(b):
        return False
    involving = [a for a in s if p in alpha.dom_set(a)]
    return involving == [b]


def projection(alpha: DistributedAlphabet, w, p) -> tuple:
    """w|_p as a local word over a@p letters."""
    return tuple((a, p) for a in w if p in alpha.dom_set(a))


def upward_closure_indices(alpha: DistributedAlphabet, w, e) -> list:
    """Indices of events >= e in the dependence order (e included)."""
    n = len(w)
    if not 0 <= e < n:
        raise IndexError(f"event index {e} out of range for length {n}")
    doms = _domains(alpha, w)
    out = [e]
    blocked = set(doms[e])  # processes of the events above e so far
    for j in range(e + 1, n):
        if not blocked.isdisjoint(doms[j]):
            out.append(j)
            blocked |= doms[j]
    return out


def upward_closure_split(alpha: DistributedAlphabet, w, e):
    """(rest, closure): closure = events above `e` (co-prime with minimum e),
    rest = the others; rest . closure is trace-equal to w."""
    idx = set(upward_closure_indices(alpha, w, e))
    closure = tuple(w[i] for i in range(len(w)) if i in idx)
    rest = tuple(w[i] for i in range(len(w)) if i not in idx)
    return rest, closure


@dataclass(frozen=True)
class StepDecomposition:
    """r ~ head . body . tail with p absent from body and tail co-prime with
    p minimal (or empty)."""

    head: str
    body: tuple
    tail: tuple

    @property
    def support(self) -> tuple:
        """head . body — the stored transition support."""
        return (self.head,) + self.body


def step_decomposition(alpha: DistributedAlphabet, r, p) -> StepDecomposition:
    """Decompose a co-prime trace around process p's second event.

    tail is the upward closure of the second p-event (the unique maximal
    choice satisfying the decomposition conditions); empty when p occurs
    only in the head.
    """
    head_idx = _min_index(alpha, r)
    head = r[head_idx]
    if p not in alpha.dom_set(head):
        raise ProcessNotInDmin(f"{p!r} not in dmin({r!r})")
    rest = r[:head_idx] + r[head_idx + 1 :]
    second = None
    for i, a in enumerate(rest):
        if p in alpha.dom_set(a):
            second = i
            break
    if second is None:
        return StepDecomposition(head, tuple(rest), ())
    body, tail = upward_closure_split(alpha, rest, second)
    return StepDecomposition(head, body, tail)


@dataclass
class PrefixResult:
    """Outcome of the greedy maximal-executable-prefix fixpoint: the fired
    `prefix`, the unfired `remainder` and the configuration `end` reached.
    Firing moves each process along `delta`, so process p's nodes are
    `model.walk` from init along `projection(prefix, p)`.
    """

    prefix: tuple
    remainder: tuple
    end: Configuration


def max_executable_prefix(n: Negotiation, w, rng=None) -> PrefixResult:
    """Fire any enabled action among the remainder's minimal events until
    none is; soundness of `n` is not required. Each minimal event is tested
    and fired by a one-letter `run` of the kernel on one code, where `step`
    would fire.

    With `rng` the choice among simultaneously enabled minimal events is
    randomized (confluence is a tested property, not an assumption).
    """
    alpha = n.alphabet
    alpha.check_word(w)
    run, decode, code, _ = n._executions
    rest = list(w)
    fired = []
    while True:
        moves = [(i, c) for i in minimal_event_indices(alpha, rest)
                 if (c := run(code, (rest[i],)))[0]]
        if not moves:
            break
        i, (_, code) = moves[0] if rng is None else rng.choice(moves)
        fired.append(rest.pop(i))
    return PrefixResult(tuple(fired), tuple(rest), Configuration(alpha.processes, decode(code)))
