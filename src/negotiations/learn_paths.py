"""Active learning of sound deterministic negotiations from membership
queries on local paths.

The learner keeps (Q, T, out): state words and test words over a@p letters,
plus the outgoing letters discovered per state. Equivalence counterexamples
are executions; they are classified into a missing-transition case or a
state-splitting case, the latter resolved by binary search. The table, the
bisection and the round loop are the shared core in `learner`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

from . import traces
from .errors import InvariantViolation, LearnerBug, NoSplit
from .learner import Hypothesis, Learner, flip_index
from .model import Negotiation
from .teacher import POSITIVE, Teacher


@dataclass
class AbsentTrans:
    action: str
    state: tuple  # Q word
    word: tuple  # execution starting with `action`


@dataclass
class Neq:
    process: str
    executed: tuple  # execution v fired in the hypothesis
    suffix: tuple  # local path pi


class PathLearner(Learner):
    def __init__(self, teacher: Teacher, debug: bool = False, log: list | None = None):
        super().__init__(teacher, debug, log)
        self._query = teacher.member_path_query
        self.out = defaultdict(list)  # state word -> outgoing letters found so far

    # in this class's own namespace, where bench/tracer.py wraps them
    find_rep = Learner.find_rep
    restore_closure = Learner.restore_closure
    build_hypothesis = Learner.build_hypothesis

    def transitions(self):
        for u in self.q:
            for letter in self.out[u]:
                yield u, letter, u + (letter,)

    # -- hypothesis ----------------------------------------------------------

    def node_domain(self, u):
        """dom of u's first outgoing letter; for a state with none yet, of
        the first letter of its first passing test."""
        if self.out[u]:
            return self.alpha.dom[self.out[u][0][0]]
        t = self.passing_test(u)
        return None if t is None else self.alpha.dom[t[0][0]]

    # -- counterexample analysis ----------------------------------------------

    def classify(self, hyp: Hypothesis, sign: str, w):
        if sign == POSITIVE:
            return self._classify_positive(hyp, w)
        return self._classify_negative(hyp, w)

    def _classify_negative(self, hyp: Hypothesis, w):
        for p in self.alpha.processes:
            proj = traces.projection(self.alpha, w, p)
            if not self.member(proj):
                return Neq(p, tuple(w), ())
        raise LearnerBug("negative counterexample with all projections accepted")

    def _classify_positive(self, hyp: Hypothesis, w):
        pre = traces.max_executable_prefix(hyp.negotiation, w)
        if not pre.remainder:
            return Neq(self.stranded_process(hyp, pre), pre.prefix, ())
        b, nodes = self.stuck_action(pre)
        distinct = sorted(set(nodes.values()))
        if len(distinct) == 1:
            u_word = hyp.word_of[distinct[0]]
            r = pre.remainder
            for p in self.alpha.dom[b]:
                if not self.member(u_word + traces.projection(self.alpha, r, p)):
                    return Neq(p, pre.prefix, traces.projection(self.alpha, r, p))
            return AbsentTrans(b, u_word, r)
        # processes of dom(b) sit at different hypothesis nodes
        p, q = next((p1, p2) for p1, p2 in combinations(nodes, 2) if nodes[p1] != nodes[p2])
        u_p, u_q = hyp.word_of[nodes[p]], hyp.word_of[nodes[q]]
        t = self.separating_test(u_p, u_q)
        if t is None:
            raise LearnerBug(f"Uniqueness broken: {u_p} vs {u_q} agree on all tests")
        # w is in the target's language and b is minimal in the remainder,
        # so v.b runs in the target: p and q sit at one target node after v,
        # and proj_p(v)+t, proj_q(v)+t get the same answer. As t separates
        # u_p from u_q, exactly one side differs from its node's answer.
        v = pre.prefix
        if self.member(traces.projection(self.alpha, v, p) + t) != self.member(u_p + t):
            return Neq(p, v, t)
        return Neq(q, v, t)

    # -- state extension -------------------------------------------------------

    def apply_absent_trans(self, inst: AbsentTrans):
        b, u, r = inst.action, inst.state, inst.word
        rest = traces.trace_quotient(self.alpha, (b,), r)
        if rest is None:
            raise LearnerBug(f"absent-trans word {r} does not start with {b}")
        for p in self.alpha.dom[b]:
            letter = (b, p)
            if letter in self.out[u]:
                raise InvariantViolation(f"{b}@{p} already in out({u})")
            self.out[u].append(letter)
            self.add_test(traces.projection(self.alpha, rest, p))
        self.log.append({"event": "absent_trans", "action": b, "state": list(map(list, u)), "word": list(r)})

    def apply_neq(self, hyp: Hypothesis, inst: Neq):
        p, v, pi = inst.process, inst.executed, inst.suffix
        proj = traces.projection(self.alpha, v, p)
        nodes = self._walk(hyp, proj)
        if nodes is None:
            raise LearnerBug(f"projection {proj} leaves the hypothesis")

        def g(i):
            return self.member(nodes[i] + proj[i:] + pi)

        g_lo, g_hi = g(0), g(len(proj))
        if g_lo == g_hi:
            raise NoSplit(f"endpoints agree for {proj} + {pi}")
        i = flip_index(g, 0, len(proj), g_lo)
        self.add_test(proj[i + 1 :] + pi)
        self.log.append({"event": "neq", "process": p, "split_index": i})

    # -- round hooks --------------------------------------------------------------

    def bootstrap(self, w):
        self.add_state(())
        for p in self.alpha.processes:
            self.add_test(traces.projection(self.alpha, w, p))
        self.apply_absent_trans(AbsentTrans(w[0], (), w))

    def counterexample(self, hyp: Hypothesis, sign: str, w):
        inst = self.classify(hyp, sign, w)
        if isinstance(inst, AbsentTrans):
            self.apply_absent_trans(inst)
        else:
            self.apply_neq(hyp, inst)


def learn(teacher: Teacher, debug: bool = False, log: list | None = None) -> Negotiation:
    """Main loop of the local-path learner: bootstrap on the empty
    hypothesis, then alternate equivalence queries with counterexample
    processing and closure restoration."""
    return PathLearner(teacher, debug=debug, log=log).run()
