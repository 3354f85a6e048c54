"""The oracle side of the learning protocol.

A Teacher wraps a target negotiation and answers membership queries on local
paths, membership queries on executions (deduplicated up to trace
equivalence), and equivalence queries whose counterexamples are executions,
shortest first with lexicographic tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import automata, soundness, traces
from .errors import AlphabetMismatch, StateBudgetExceeded
from .model import (
    DEFAULT_STATE_BUDGET,
    CheckedMove,
    Configuration,
    Negotiation,
    enabled_actions,
    member_exec,
    member_path,
    step,
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
        return {
            "membership_total": self.membership_total,
            "membership_distinct": self.membership_distinct,
            "equivalence_total": self.equivalence_total,
            "max_counterexample_len": self.max_counterexample_len,
        }


@dataclass
class EquivAnswer:
    equivalent: bool
    sign: str | None = None  # POSITIVE: word in L(target) only; NEGATIVE: hypothesis only
    word: tuple | None = None


_DEAD = None


class Teacher:
    """Answers queries about a fixed target negotiation.

    A Teacher instance serves one learning session at a time; answers are
    cached (executions up to trace equivalence) and counted.
    """

    def __init__(self, target: Negotiation, state_budget: int = DEFAULT_STATE_BUDGET,
                 check_answers: bool = True):
        self.target = target
        self.state_budget = state_budget
        self.check_answers = check_answers
        self.stats = QueryStats()
        self._path_cache = {}
        self._exec_cache = {}
        self._target_sound = None

    # -- membership ---------------------------------------------------------

    def member_path_query(self, pi) -> bool:
        pi = tuple(tuple(l) for l in pi)
        self.stats.membership_total += 1
        if pi not in self._path_cache:
            self.stats.membership_distinct += 1
            self._path_cache[pi] = member_path(self.target, pi)
        return self._path_cache[pi]

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
            if self.check_answers:
                in_target = member_exec(self.target, answer.word)
                in_hyp = member_exec(hypothesis, answer.word)
                expected = (True, False) if answer.sign == POSITIVE else (False, True)
                if (in_target, in_hyp) != expected:
                    raise AssertionError(
                        f"equivalence counterexample {answer.word} fails replay"
                    )
        return answer

    def _product_search(self, hypothesis: Negotiation) -> EquivAnswer:
        """BFS over the synchronized product of the two configuration graphs,
        on node tuples; a side goes to the dead sink (None) when a letter is
        not enabled there. Expansion follows declared action order, so the
        first difference found is the shortest, lexicographically least
        counterexample."""
        t, h = self.target, hypothesis
        succ_t, succ_h = successor_function(t), successor_function(h)
        rank = t.alphabet.action_index
        t_fin = t.final_configuration().nodes
        h_fin = h.final_configuration().nodes
        start = (t.initial_configuration().nodes, h.initial_configuration().nodes)
        parent = {start: None}

        def word_of(state):
            parts = []
            while parent[state] is not None:
                state, a = parent[state]
                parts.append(a)
            return tuple(reversed(parts))

        if (start[0] == t_fin) != (start[1] == h_fin):
            sign = POSITIVE if start[0] == t_fin else NEGATIVE
            return EquivAnswer(False, sign, ())
        queue = [start]
        for state in queue:  # BFS: `queue` grows while it is walked
            c1, c2 = state
            try:
                moves1 = dict(succ_t(c1)) if c1 is not _DEAD else {}
                moves2 = dict(succ_h(c2)) if c2 is not _DEAD else {}
                moves = [(a, moves1.get(a), moves2.get(a))
                         for a in sorted(moves1.keys() | moves2.keys(), key=rank)]
            except CheckedMove:
                moves = _stepwise_product_moves(t, h, c1, c2)
            for a, n1, n2 in moves:
                nxt = (n1, n2)
                if nxt in parent:
                    continue
                parent[nxt] = (state, a)
                if len(parent) > self.state_budget:
                    raise StateBudgetExceeded(
                        f"equivalence product exceeds {self.state_budget} states"
                    )
                if (n1 == t_fin) != (n2 == h_fin):
                    sign = POSITIVE if n1 == t_fin else NEGATIVE
                    return EquivAnswer(False, sign, word_of(nxt))
                queue.append(nxt)
        return EquivAnswer(True)


def _stepwise_product_moves(t: Negotiation, h: Negotiation, c1, c2):
    """The product moves of (c1, c2) by `enabled_actions` and `step`, fired
    one action at a time, target side first. The search falls back to this
    when a kernel raises `CheckedMove`, so an invalid side raises exactly
    where the reference semantics does."""
    s1 = Configuration(t.alphabet.processes, c1) if c1 is not _DEAD else _DEAD
    s2 = Configuration(h.alphabet.processes, c2) if c2 is not _DEAD else _DEAD
    acts1 = set(enabled_actions(t, s1)) if s1 is not _DEAD else set()
    acts2 = set(enabled_actions(h, s2)) if s2 is not _DEAD else set()
    for a in t.alphabet.actions:
        if a in acts1 or a in acts2:
            n1 = step(t, s1, a).nodes if a in acts1 else _DEAD
            n2 = step(h, s2, a).nodes if a in acts2 else _DEAD
            yield a, n1, n2
