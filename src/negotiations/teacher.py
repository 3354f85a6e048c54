"""The oracle side of the learning protocol.

A Teacher wraps a target negotiation and answers membership queries on local
paths, membership queries on executions (deduplicated up to trace
equivalence), and equivalence queries whose counterexamples are executions,
shortest first with lexicographic tie-breaking.

Counterexamples come from a BFS over the synchronized product of the two
configuration graphs, each held as an `_IndexedGraph`: node tuple -> index,
index -> node tuple, and index -> the moves to successor indices in declared
action order. The configuration graphs the soundness checks build arrive
whole; a side with none is expanded on demand through
`model.successor_function`. The Teacher keeps the target's graph for its
whole session, so no query expands a target configuration twice. It holds
only reachable target configurations (and, while it fills on demand, the
final one): in `equiv_query` it is the graph `target_is_sound` built whole
under `state_budget`, so it never exceeds the budget.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import repeat

from . import automata, soundness, traces
from .errors import AlphabetMismatch, ReplayFailed
from .model import (
    DEFAULT_STATE_BUDGET,
    ConfigurationGraph,
    Negotiation,
    bfs,
    member_exec,
    member_path,
    path,
    successor_function,
)

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass
class QueryStats:
    membership_total: int = 0
    membership_distinct: int = 0
    equivalence_total: int = 0
    max_counterexample_len: int = 0

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class EquivAnswer:
    equivalent: bool
    sign: str | None = None  # POSITIVE: word in L(target) only; NEGATIVE: hypothesis only
    word: tuple | None = None


_NO_MOVES = ((), ())


class _IndexedGraph:
    """The configuration graph of `n` in integer form, one side of the
    product search: `index` maps a node tuple to its index, `order` an
    index to its node tuple, and `moves[i]` is `(actions, successor
    indices)` in declared action order, or None until index i is expanded.
    Built from a whole `ConfigurationGraph`, it converts a vertex's edges
    when the search first asks for them; built from nothing, it expands
    through the successor kernel."""

    def __init__(self, n: Negotiation, graph: ConfigurationGraph | None = None):
        self.negotiation = n
        self.whole = graph is not None
        if self.whole:
            self.order = list(graph.order)
            self.index = {c: i for i, c in enumerate(self.order)}
            self._succ = graph.succ
        else:
            self.order = []
            self.index = {}
            self._expand = successor_function(n)
        self.moves = [None] * len(self.order)

    def intern(self, nodes: tuple) -> int:
        i = self.index.get(nodes)
        if i is None:
            i = self.index[nodes] = len(self.order)
            self.order.append(nodes)
            self.moves.append(None)
        return i

    def final(self) -> int:
        """The final configuration's index, -1 when a whole graph does not
        reach it; filled on demand, the graph indexes it ahead of time."""
        fin = self.negotiation.final_configuration().nodes
        if self.whole:
            return self.index.get(fin, -1)
        return self.intern(fin)

    def expand(self, i: int) -> tuple:
        if self.whole:
            outs = self._succ[i]
            m = tuple(zip(*outs)) if outs else _NO_MOVES
        else:
            outs = self._expand(self.order[i])[1]
            m = (tuple(a for a, _ in outs), tuple(self.intern(c) for _, c in outs))
        self.moves[i] = m
        return m


class Teacher:
    """Answers queries about a fixed target negotiation.

    A Teacher instance serves one learning session at a time; answers are
    cached (executions up to trace equivalence) and counted.
    """

    def __init__(self, target: Negotiation, state_budget: int = DEFAULT_STATE_BUDGET):
        self.target = target
        self.state_budget = state_budget
        self.stats = QueryStats()
        self._path_cache = {}
        self._exec_cache = {}
        self._target_sound = None
        self._target_graph = None

    # -- membership ---------------------------------------------------------

    def member_path_query(self, pi) -> bool:
        try:  # the word as given, so a hit rebuilds no key
            answer = self._path_cache[pi]
        except (KeyError, TypeError):  # a miss, or letters given as lists
            pi = tuple(tuple(l) for l in pi)
            answer = self._path_cache.get(pi)
        self.stats.membership_total += 1
        if answer is None:
            self.stats.membership_distinct += 1
            answer = self._path_cache[pi] = member_path(self.target, pi)
        return answer

    def member_exec_query(self, w) -> bool:
        key = traces.normal_form(self.target.alphabet, tuple(w))
        self.stats.membership_total += 1
        if key not in self._exec_cache:
            self.stats.membership_distinct += 1
            self._exec_cache[key] = member_exec(self.target, key)
        return self._exec_cache[key]

    # -- equivalence --------------------------------------------------------

    def target_is_sound(self) -> bool:
        if self._target_sound is None:
            result = soundness.is_sound_semantic(self.target, budget=self.state_budget)
            self._target_sound = result.sound
            # the whole graph replaces one filled on demand: no search is
            # running, so no index of the old one is still in use
            self._target_graph = _IndexedGraph(self.target, result.graph)
        return self._target_sound

    def equiv_query(self, hypothesis: Negotiation) -> EquivAnswer:
        """Shortest execution separating target and hypothesis, if any.

        Fast path: when both sides are sound, language equality is decided on
        minimal path DFAs; the product BFS only runs to produce the witness,
        over the configuration graphs the soundness checks built.
        """
        if hypothesis.alphabet != self.target.alphabet:
            raise AlphabetMismatch("hypothesis alphabet differs from the target's")
        self.stats.equivalence_total += 1
        graph = None
        if self.target_is_sound():
            result = soundness.is_sound_semantic(hypothesis, budget=self.state_budget)
            if result.sound and automata.neg_equiv(self.target, hypothesis):
                return EquivAnswer(True)
            graph = result.graph
        answer = self._product_search(hypothesis, graph)
        if answer.word is not None:
            self.stats.max_counterexample_len = max(
                self.stats.max_counterexample_len, len(answer.word)
            )
            in_target = member_exec(self.target, answer.word)
            in_hyp = member_exec(hypothesis, answer.word)
            expected = (True, False) if answer.sign == POSITIVE else (False, True)
            if (in_target, in_hyp) != expected:
                raise ReplayFailed(f"equivalence counterexample {answer.word} fails replay")
        return answer

    def _product_search(self, hypothesis: Negotiation,
                        graph: ConfigurationGraph | None = None) -> EquivAnswer:
        """BFS over the synchronized product of the target's configuration
        graph and the hypothesis's (`graph` when the soundness check built
        it), on pairs of indices, stopping at the first pair where exactly
        one side is final. Each action enabled on either side leads, in
        declared action order, to the pair of its successors; a side where
        it is not enabled goes to the dead sink, None, and stays there. So
        the first such pair gives the shortest, lexicographically least
        counterexample."""
        if self._target_graph is None:
            self._target_graph = _IndexedGraph(self.target)
        t, h = self._target_graph, _IndexedGraph(hypothesis, graph)
        t_moves, h_moves = t.moves, h.moves
        t_fin, h_fin = t.final(), h.final()
        rank = self.target.alphabet.action_index

        def moves(pair):
            i, k = pair
            if i is None:
                acts, js = h_moves[k] or h.expand(k)
                return list(zip(acts, zip(repeat(None), js)))
            acts, js = t_moves[i] or t.expand(i)
            if k is None:
                return list(zip(acts, zip(js, repeat(None))))
            acts2, js2 = h_moves[k] or h.expand(k)
            if acts == acts2:
                return list(zip(acts, zip(js, js2)))
            m1, m2 = dict(zip(acts, js)), dict(zip(acts2, js2))
            return [(a, (m1.get(a), m2.get(a))) for a in sorted(m1.keys() | m2.keys(), key=rank)]

        start = (t.intern(self.target.initial_configuration().nodes),
                 h.intern(hypothesis.initial_configuration().nodes))
        parent, hit = bfs(start, moves,
                          stop=lambda s: (s[0] == t_fin) != (s[1] == h_fin),
                          budget=self.state_budget,
                          budget_error=f"equivalence product exceeds {self.state_budget} states")
        if hit is None:
            return EquivAnswer(True)
        return EquivAnswer(False, POSITIVE if hit[0] == t_fin else NEGATIVE, path(parent, hit))
