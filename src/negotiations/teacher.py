"""The oracle side of the learning protocol.

A Teacher wraps a target negotiation and answers membership queries on local
paths, membership queries on executions (deduplicated up to trace
equivalence), and equivalence queries whose counterexamples are executions,
shortest first with lexicographic tie-breaking.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import automata, soundness, traces
from .errors import AlphabetMismatch, ReplayFailed
from .model import (
    DEFAULT_STATE_BUDGET,
    Negotiation,
    bfs,
    member_exec,
    member_path,
    path,
    product_moves,
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
            self._target_sound = soundness.is_sound_semantic(
                self.target, budget=self.state_budget
            ).sound
        return self._target_sound

    def equiv_query(self, hypothesis: Negotiation) -> EquivAnswer:
        """Shortest execution separating target and hypothesis, if any.

        Fast path: when both sides are sound, language equality is decided on
        minimal path DFAs; the product BFS only runs to produce the witness.
        """
        if hypothesis.alphabet != self.target.alphabet:
            raise AlphabetMismatch("hypothesis alphabet differs from the target's")
        self.stats.equivalence_total += 1
        if self.target_is_sound() and soundness.is_sound_semantic(
            hypothesis, budget=self.state_budget
        ).sound:
            if automata.neg_equiv(self.target, hypothesis):
                return EquivAnswer(True)
        answer = self._product_search(hypothesis)
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

    def _product_search(self, hypothesis: Negotiation) -> EquivAnswer:
        """BFS over the synchronized product of the two configuration graphs
        (`model.product_moves`), stopping at the first pair where exactly
        one side is final. Expansion follows declared action order, so that
        pair gives the shortest, lexicographically least counterexample."""
        t, h = self.target, hypothesis
        t_fin = t.final_configuration().nodes
        h_fin = h.final_configuration().nodes
        start = (t.initial_configuration().nodes, h.initial_configuration().nodes)
        parent, hit = bfs(start, product_moves(t, h),
                          stop=lambda s: (s[0] == t_fin) != (s[1] == h_fin),
                          budget=self.state_budget,
                          budget_error=f"equivalence product exceeds {self.state_budget} states")
        if hit is None:
            return EquivAnswer(True)
        return EquivAnswer(False, POSITIVE if hit[0] == t_fin else NEGATIVE, path(parent, hit))
