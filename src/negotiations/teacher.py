"""The oracle side of the learning protocol.

A Teacher wraps a target negotiation and answers membership queries on local
paths, membership queries on executions (deduplicated up to trace
equivalence), and equivalence queries whose counterexamples are executions,
shortest first with lexicographic tie-breaking.

Equivalence has one rule, in `_dfa_verdict`: minimal path DFAs when the
target and the other side are both sound, the product search otherwise.
`equivalent` (what `neg equiv` runs) answers by it alone; `equiv_query` also
counts the query and finds and replays the counterexample.

Counterexamples come from a BFS over the synchronized product of the two
sides' `model.ConfigurationGraph`s, on pairs of vertex indices. The graphs
the soundness checks build arrive filled whole; a side with none starts
from its initial configuration and is expanded on demand. The Teacher keeps
the target's graph for its whole session, so no query expands a target
configuration twice. It holds only reachable target configurations (and,
while it fills on demand, the final one): in `equivalent` and `equiv_query`
it is the graph `target_is_sound` built whole under `state_budget`, so it
never exceeds the budget.
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
            self._target_graph = result.graph
        return self._target_sound

    def _dfa_verdict(self, other: Negotiation) -> tuple:
        """`automata.neg_equiv(target, other)` when both are sound, else
        None; with `other`'s soundness graph, built for a sound target only."""
        if not self.target_is_sound():
            return None, None
        result = soundness.is_sound_semantic(other, budget=self.state_budget)
        return (automata.neg_equiv(self.target, other) if result.sound else None), result.graph

    def equivalent(self, other: Negotiation) -> bool:
        """Language equality with the target: `_dfa_verdict`, else the
        product search. Moves no counter and replays nothing."""
        if other.alphabet != self.target.alphabet:
            raise AlphabetMismatch("negotiations use different distributed alphabets")
        verdict, graph = self._dfa_verdict(other)
        if verdict is None:
            return self._product_search(other, graph).equivalent
        return verdict

    def equiv_query(self, hypothesis: Negotiation) -> EquivAnswer:
        """Shortest execution separating target and hypothesis, if any.

        Decided as in `equivalent`, except that the product search also runs
        when the minimal path DFAs differ, to find the witness.
        """
        if hypothesis.alphabet != self.target.alphabet:
            raise AlphabetMismatch("hypothesis alphabet differs from the target's")
        self.stats.equivalence_total += 1
        verdict, graph = self._dfa_verdict(hypothesis)
        if verdict:
            return EquivAnswer(True)
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
        it), on pairs of vertex indices from the initial pair (0, 0),
        stopping at the first pair where exactly one side is final. Each
        action enabled on either side leads, in declared action order, to
        the pair of its successors; a side where it is not enabled goes to
        the dead sink, None, and stays there. So the first such pair gives
        the shortest, lexicographically least counterexample."""
        if self._target_graph is None:
            self._target_graph = ConfigurationGraph(self.target)
        t = self._target_graph
        h = ConfigurationGraph(hypothesis) if graph is None else graph
        t_succ, h_succ = t.succ, h.succ
        t_fin, h_fin = t.final(), h.final()
        rank = self.target.alphabet.action_index

        def moves(pair):
            i, k = pair
            if i is None:
                acts, js = h_succ[k] or h.expand(k)
                return list(zip(acts, zip(repeat(None), js)))
            acts, js = t_succ[i] or t.expand(i)
            if k is None:
                return list(zip(acts, zip(js, repeat(None))))
            acts2, js2 = h_succ[k] or h.expand(k)
            if acts == acts2:
                return list(zip(acts, zip(js, js2)))
            m1, m2 = dict(zip(acts, js)), dict(zip(acts2, js2))
            return [(a, (m1.get(a), m2.get(a))) for a in sorted(m1.keys() | m2.keys(), key=rank)]

        parent, hit = bfs((0, 0), moves,
                          stop=lambda s: (s[0] == t_fin) != (s[1] == h_fin),
                          budget=self.state_budget,
                          budget_error=f"equivalence product exceeds {self.state_budget} states")
        if hit is None:
            return EquivAnswer(True)
        return EquivAnswer(False, POSITIVE if hit[0] == t_fin else NEGATIVE, path(parent, hit))
