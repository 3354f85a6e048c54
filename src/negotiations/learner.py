"""The observation-table core shared by both learners.

Both learners run Angluin's L* loop (1987) over state words Q and tests T:
equivalence modulo T, closure, the Uniqueness and Pref invariants, and a
bisection for where a counterexample's membership answer flips (Rivest &
Schapire 1993). They differ in the words: `learn_paths` concatenates local
paths as tuples, `learn_exec` takes executions up to trace equivalence. A
subclass binds `_query` to its teacher query, supplies `bootstrap`,
`transitions`, `node_domain` and `counterexample`, and may override
`canon`, `check_test` and the optional `verify_table` hook. The core holds
the table checks (Uniqueness, Pref, Closure, `check_test` on every test) in
`verify_invariants`. `restore_closure` is the one pass that closes the
table and, after `bootstrap`, the only place a state joins Q.
`build_hypothesis` builds every hypothesis: it starts with that pass, which
runs the debug checks, and maps every transition to its representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import traces
from .errors import InvariantViolation, LearnerBug
from .model import Negotiation, empty_negotiation, validate, walk
from .teacher import POSITIVE, Teacher

ROUND_CAP = 100_000
FRESH_FIN = "qf"


@dataclass
class Hypothesis:
    negotiation: Negotiation
    id_of: dict  # Q word -> node id
    word_of: dict  # node id -> Q word


def flip_index(g, lo, hi, g_lo) -> int:
    """Binary search for i in [lo, hi) with g(i) == g_lo != g(i + 1), given
    g(lo) == g_lo != g(hi); callers check the endpoints themselves."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(mid) == g_lo:
            lo = mid
        else:
            hi = mid
    return lo


class Learner:
    # extra fields of the logged bootstrap and round equivalence queries
    BOOTSTRAP_LOG: dict = {}
    ROUND_LOG: dict = {}

    def __init__(self, teacher: Teacher, debug: bool = False, log: list | None = None):
        self.teacher = teacher
        self.alpha = teacher.target.alphabet
        self.debug = debug
        self.log = log if log is not None else []
        self.q = []
        self.tests = []
        self._states = set()

    # -- observation table ----------------------------------------------------

    def canon(self, w) -> tuple:
        return tuple(w)

    def member(self, *parts) -> bool:
        """Membership of the concatenation of `parts`."""
        return self._query(parts[0] if len(parts) == 1 else tuple(chain.from_iterable(parts)))

    def separating_test(self, u, v):
        """First test that exactly one of u, v passes, or None."""
        query = self._query
        return next((t for t in self.tests if query(u + t) != query(v + t)), None)

    def equiv_t(self, u, v) -> bool:
        return self.separating_test(u, v) is None

    def passing_test(self, u):
        """First nonempty test that u passes, or None."""
        query = self._query
        return next((t for t in self.tests if t and query(u + t)), None)

    def find_rep(self, word):
        for v in self.q:
            if self.equiv_t(word, v):
                return v
        return None

    def add_state(self, word):
        word = self.canon(word)
        if word in self._states:
            raise InvariantViolation(f"state {word} added twice")
        self._states.add(word)
        self.q.append(word)
        return word

    def check_test(self, t):
        """Raise InvariantViolation when `t` may not join T."""

    def add_test(self, t):
        t = self.canon(t)
        self.check_test(t)
        if t not in self.tests:
            self.tests.append(t)

    def restore_closure(self) -> dict:
        """Close the table: each transition word's representative in Q, the
        word itself joining Q when it has none. Returns {(u, letter): rep}."""
        size = len(self.q)
        reps = {}
        for u, letter, word in self.transitions():
            rep = self.find_rep(word)
            reps[(u, letter)] = self.add_state(word) if rep is None else rep
        if len(self.q) > size:
            self.log.append({"event": "closure", "added": len(self.q) - size})
        if self.debug:
            self.verify_invariants(reps)
        return reps

    # -- hypotheses -------------------------------------------------------------

    def final_word(self):
        """The accepted state word, or None; Uniqueness allows at most one."""
        finals = [u for u in self.q if self.member(u)]
        if len(finals) > 1:
            raise InvariantViolation(f"two accepted state words: {finals[:2]}")
        return finals[0] if finals else None

    def build_hypothesis(self) -> Hypothesis:
        """The hypothesis over the closed table: node q<i> for the i-th state
        word, each transition to its representative's node, the final node
        spanning all processes and every other node the domain the
        `node_domain(u)` hook gives (None when `u` passes no nonempty test).
        With no accepted state word yet, it is a language-empty one around a
        fresh, unreachable final node."""
        reps = self.restore_closure()
        final = self.final_word()
        id_of = {u: f"q{i}" for i, u in enumerate(self.q)}
        nodes = tuple(id_of.values())
        if final is None:
            fin = FRESH_FIN
            nodes += (fin,)
        else:
            fin = id_of[final]
        dnode = {fin: tuple(self.alpha.processes)}
        for u in self.q:
            if u == final:
                continue
            dom = self.node_domain(u)
            if dom is None:
                raise InvariantViolation(f"Pref broken: no passing test for {u}")
            dnode[id_of[u]] = dom
        delta = {(id_of[u], a, p): id_of[rep] for (u, (a, p)), rep in reps.items()}
        neg = Negotiation(alphabet=self.alpha, nodes=nodes, dnode=dnode, delta=delta,
                          init=id_of[self.q[0]], fin=fin)
        problems = validate(neg)
        if problems:
            raise InvariantViolation("hypothesis fails validation: " + "; ".join(problems))
        return Hypothesis(neg, id_of, {i: u for u, i in id_of.items()})

    def _walk(self, hyp: Hypothesis, letters):
        """Nodes (as Q words) of the hypothesis walk from init along letters,
        or None when the walk leaves the hypothesis."""
        nodes = walk(hyp.negotiation, hyp.negotiation.init, letters)
        return [hyp.word_of[x] for x in nodes] if len(nodes) > len(letters) else None

    # -- counterexamples ---------------------------------------------------------

    def stranded_process(self, hyp: Hypothesis, pre):
        """First process not at the final node after a fully executed
        positive counterexample."""
        for p in self.alpha.processes:
            if pre.end.node_of(p) != hyp.negotiation.fin:
                return p
        raise LearnerBug("positive counterexample accepted by the hypothesis")

    def stuck_action(self, pre):
        """Least minimal action of the remainder the hypothesis cannot fire,
        and the hypothesis node each of its processes sits at."""
        b = min(traces.minimal_actions(self.alpha, pre.remainder), key=self.alpha.action_index)
        return b, {p: pre.end.node_of(p) for p in self.alpha.dom[b]}

    # -- invariants ---------------------------------------------------------------

    def verify_invariants(self, reps: dict | None = None):
        """The debug checks of a closed table: Uniqueness, Pref, Closure,
        every test admissible, then the learner's own `verify_table`.
        Closure reads `reps`, the {(u, letter): rep} map `restore_closure`
        has just built: every transition has an entry, and each rep is in
        Q. With no map given, it searches each transition's rep itself."""
        for i, u in enumerate(self.q):
            for v in self.q[i + 1 :]:
                if self.equiv_t(u, v):
                    raise InvariantViolation(f"Uniqueness: {u} == {v} under T")
        for u in self.q:
            if not any(self._query(u + t) for t in self.tests):
                raise InvariantViolation(f"Pref: {u} has no passing test")
        for u, letter, word in self.transitions():
            rep = self.find_rep(word) if reps is None else reps.get((u, letter))
            if rep not in self._states:
                raise InvariantViolation(f"Closure: {word} has no representative")
        for t in self.tests:
            self.check_test(t)
        self.verify_table()
        self.log.append({"event": "invariants", "ok": True})

    def verify_table(self):
        """Raise InvariantViolation when a learner-specific check fails."""

    # -- main loop ------------------------------------------------------------------

    def next_hypothesis(self) -> Hypothesis:
        """The hypothesis handed to the next equivalence query."""
        return self.build_hypothesis()

    def _log_equiv(self, ans, fields):
        self.log.append({"event": "equiv", "equivalent": ans.equivalent, "sign": ans.sign,
                         "counterexample": list(ans.word or ()), **fields})

    def run(self) -> Negotiation:
        """Bootstrap on the empty hypothesis, then alternate equivalence
        queries with counterexample processing; every hypothesis is built
        from a closed table."""
        empty = empty_negotiation(self.alpha)
        ans = self.teacher.equiv_query(empty)
        self._log_equiv(ans, self.BOOTSTRAP_LOG)
        if ans.equivalent:
            return empty
        if ans.sign != POSITIVE:
            raise LearnerBug("empty hypothesis produced a negative counterexample")
        self.bootstrap(ans.word)
        for _ in range(ROUND_CAP):
            hyp = self.next_hypothesis()
            ans = self.teacher.equiv_query(hyp.negotiation)
            self._log_equiv(ans, {**self.ROUND_LOG,
                                  "hypothesis_nodes": len(hyp.negotiation.nodes)})
            if ans.equivalent:
                return hyp.negotiation
            self.counterexample(hyp, ans.sign, ans.word)
        raise LearnerBug("round cap exceeded without convergence")
