"""Active learning of sound deterministic negotiations from membership
queries on executions only.

Nodes and tests are Mazurkiewicz traces; transitions carry trace supports
S(u,b,p) (a (b,p)-step standing in for the progress the other processes make
while p crosses the transition). Counterexample analysis walks replayed
hypothesis paths backwards, and soundness is restored from pattern witnesses
before every equivalence query: each witness lists local paths whose walked
end may split from its supports, and a B witness none of whose paths splits
walks p from its blocked node along a passing test, one p-event at a time.
The table, the bisection and the round loop are the shared core in
`learner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import soundness, traces
from .errors import InvariantViolation, LearnerBug, NoSplit
from .learner import ROUND_CAP, Hypothesis, Learner, flip_index
from .model import Negotiation, walk
from .teacher import POSITIVE, Teacher

# what `make_sound` raises when no path of a C or F witness splits
_NO_SPLIT = {
    "C": "cycle witness stayed consistent past the iteration cap",
    "F": "fork witness produced no splittable prefix",
}


@dataclass
class AbsentTransE:
    """out_extend instance: r co-prime, u.r in L, min(r) not yet out of u."""

    state: tuple
    word: tuple


@dataclass
class TargetInstance:
    """target_extend instance: the biconditional
    u_prev . S(u_prev, action, process) . r in L  <=>  u_next . r in L
    fails; r joins T and closure splits a node."""

    u_prev: tuple
    action: str
    process: str
    u_next: tuple
    r: tuple


class ExecLearner(Learner):
    BOOTSTRAP_LOG = {"sound_hypothesis": False, "bootstrap": True}
    ROUND_LOG = {"sound_hypothesis": True}

    def __init__(self, teacher: Teacher, debug: bool = False, log: list | None = None):
        super().__init__(teacher, debug, log)
        self._query = teacher.member_exec_query
        self.supports = {}

    # in this class's own namespace, where bench/tracer.py wraps them
    find_rep = Learner.find_rep
    restore_closure = Learner.restore_closure
    build_hypothesis = Learner.build_hypothesis

    def canon(self, w) -> tuple:
        return traces.normal_form(self.alpha, tuple(w))

    def check_test(self, t):
        if t and not traces.is_coprime(self.alpha, t):
            raise InvariantViolation(f"test {t} is not co-prime")

    def transitions(self):
        for (u, b, p), s in self.supports.items():
            yield u, (b, p), u + s

    # -- hypothesis ----------------------------------------------------------

    def node_domain(self, u):
        """dom of the least minimal action of u's first passing test."""
        t = self.passing_test(u)
        return None if t is None else self.alpha.dom[traces.min_action(self.alpha, t)]

    # -- the two extension operations ----------------------------------------

    def out_extend(self, inst: AbsentTransE):
        u, r = inst.state, self.canon(inst.word)
        if not traces.is_coprime(self.alpha, r):
            raise InvariantViolation(f"out_extend word {r} is not co-prime")
        a = traces.min_action(self.alpha, r)
        if any((u, a, p) in self.supports for p in self.alpha.dom[a]):
            raise InvariantViolation(f"{a} already out of {u}")
        if not self.member(u, r):
            raise InvariantViolation(f"out_extend pre fails: {u} + {r} not accepted")
        for p in self.alpha.dom[a]:
            dec = traces.step_decomposition(self.alpha, r, p)
            support = self.canon(dec.support)
            if self.debug and not traces.is_step(self.alpha, support, a, p):
                raise InvariantViolation(f"support {support} is not a ({a},{p})-step")
            self.supports[(u, a, p)] = support
            if dec.tail:
                self.add_test(dec.tail)
        self.log.append({"event": "out_extend", "state": list(u), "word": list(r)})

    def target_extend(self, inst: TargetInstance):
        r = self.canon(inst.r)
        if r in self.tests:
            raise InvariantViolation(f"target test {r} already present")
        s = self.supports[(inst.u_prev, inst.action, inst.process)]
        left = self.member(inst.u_prev, s, r)
        right = self.member(inst.u_next, r)
        if left == right:
            raise InvariantViolation("target biconditional does not fail")
        self.add_test(r)
        self.log.append({
            "event": "target_extend",
            "transition": [list(inst.u_prev), inst.action, inst.process],
            "test": list(r),
        })

    # -- support paths and binary search ---------------------------------------

    def _support_seq(self, words, letters):
        return [self.supports[(words[i], a, p)] for i, (a, p) in enumerate(letters)]

    def path_binary_search(self, words, letters, r) -> TargetInstance:
        """Adjacent flip of i -> member(u_i . s_{i+1}..s_k . r) along a walked
        hypothesis path; r is co-prime with the last letter's process minimal,
        or empty (then Closure forbids a flip at the last edge)."""
        k = len(letters)
        supports = self._support_seq(words, letters)
        tails = [None] * (k + 1)
        tails[k] = tuple(r)
        for i in range(k - 1, -1, -1):
            tails[i] = supports[i] + tails[i + 1]

        def g(i):
            return self.member(words[i], tails[i])

        g_lo, g_hi = g(0), g(k)
        if g_lo == g_hi:
            raise NoSplit("path endpoints agree")
        i = flip_index(g, 0, k, g_lo)
        a, p = letters[i]
        return TargetInstance(words[i], a, p, words[i + 1], self.canon(tails[i + 1]))

    def _distinguishing_test(self, u, sigma, anchor):
        """A test splitting u from sigma that path_binary_search can consume:
        the empty test, a test u passes (its dmin is then dnode(u), which
        contains the anchor), or a sigma-passing test whose dmin contains the
        anchor."""
        for t in self.tests:
            du = self.member(u, t)
            ds = self.member(sigma, t)
            if du == ds:
                continue
            if not t or du or anchor in traces.dmin(self.alpha, t):
                return t
        return None

    # -- counterexample handling ------------------------------------------------

    def handle_negative(self, hyp: Hypothesis, w) -> TargetInstance:
        for p in self.alpha.processes:
            letters = traces.projection(self.alpha, w, p)
            words = self._walk(hyp, letters)
            if words is None:
                raise LearnerBug("negative counterexample projection leaves the hypothesis")
            if not self.member(self._sigma(words, letters)):
                return self.path_binary_search(words, letters, ())
        raise LearnerBug("all projection supports accepted for a negative counterexample")

    def handle_positive(self, hyp: Hypothesis, w):
        pre = traces.max_executable_prefix(hyp.negotiation, w)
        if not pre.remainder:
            return self._positive_complete(hyp, pre)
        return self._positive_stuck(hyp, pre)

    def _positive_complete(self, hyp: Hypothesis, pre):
        """Counterexample fully executable but the end is not final."""
        anchor = self.stranded_process(hyp, pre)
        inst = self._first_split(hyp, (traces.projection(self.alpha, pre.prefix, anchor),))
        if inst is None:
            raise LearnerBug("no usable test splits the stranded node from its supports")
        return inst

    def _positive_stuck(self, hyp: Hypothesis, pre):
        rem = pre.remainder
        b, node_of = self.stuck_action(pre)
        e = next(i for i in traces.minimal_event_indices(self.alpha, rem) if rem[i] == b)
        v2, br2 = traces.upward_closure_split(self.alpha, rem, e)
        v = pre.prefix + v2
        br2 = self.canon(br2)
        for p in self.alpha.dom[b]:
            u_p = hyp.word_of[node_of[p]]
            if not self.member(u_p, br2):
                return self._descend(hyp, pre, v=v, u=u_p, t=br2, anchor=p)
            if (u_p, b, p) not in self.supports:
                return AbsentTransE(u_p, br2)
        # Unreachable: every hypothesis handed to `counterexample` is sound
        # and valid. Here each process of dom(b) sits at a node with b out,
        # so that node has domain dom(b) and is not fin, which has no
        # out-transition. Two of them at distinct nodes m1 != m2 would each
        # wait for a process held at the other, a reachable deadlock. So they
        # share one node and b fires there, which contradicts "stuck".
        raise LearnerBug("stuck action whose processes all sit at nodes with it out")

    def _descend(self, hyp: Hypothesis, pre, v, u, t, anchor):
        """Backwards descent over the anchor's replayed path: `words`, the
        hypothesis walk along its projection `letters` of the executed prefix.

        `v` is the prefix followed by `v2`, and `v2` holds no anchor event:
        the stuck event is minimal in the remainder, so no remainder event
        before it touches the anchor, and every later one that does lies in
        its upward closure. Each level drops the anchor's last event from
        `v`, so level i handles letter i and the anchor sits at
        `u` = `words[i + 1]`. While `node_rejects` holds, that node fails the
        test the trace passes (u.t not in L, v.t in L); afterwards it is the
        other way around.
        """
        node_rejects = True
        letters = traces.projection(self.alpha, pre.prefix, anchor)
        words = self._walk(hyp, letters)
        v = tuple(v)
        for i in range(len(letters) - 1, -1, -1):
            u_prev, (c, _) = words[i], letters[i]
            e = max(j for j, a in enumerate(v) if anchor in self.alpha.dom_set(a))
            v_prev, _ = traces.upward_closure_split(self.alpha, v, e)
            s = self.supports[(u_prev, c, anchor)]
            check1 = self.member(u_prev, s, t)
            if node_rejects:
                if check1:
                    return TargetInstance(u_prev, c, anchor, u, self.canon(t))
                if self.member(v_prev, s, t):
                    v, u, t = v_prev, u_prev, self.canon(s + t)
                    continue
                t_pass = next(
                    (
                        tp
                        for tp in self.tests
                        if (not tp or anchor in traces.dmin(self.alpha, tp))
                        and self.member(u_prev, s, tp)
                    ),
                    None,
                )
                if t_pass is None:
                    raise LearnerBug("no passing continuation for the predecessor")
                if self.member(v_prev, s, t_pass):
                    raise LearnerBug("suffix-exchange property violated on the node-rejecting side")
                v, u, t = v_prev, u_prev, self.canon(s + t_pass)
                node_rejects = False
                continue
            # trace side rejects
            if not check1:
                return TargetInstance(u_prev, c, anchor, u, self.canon(t))
            if not self.member(v_prev, s, t):
                v, u, t = v_prev, u_prev, self.canon(s + t)
                continue
            raise LearnerBug("suffix-exchange property violated on the trace-rejecting side")
        raise LearnerBug("descent passed the anchor's first event")

    # -- soundness repairs -------------------------------------------------------

    def make_sound(self, hyp: Hypothesis):
        """None when the hypothesis is sound; otherwise an extension instance
        derived from a pattern witness. Hypotheses are valid, so the pattern
        search alone decides soundness. Every witness first lists local paths
        to split; a B witness none of whose paths splits goes on to the
        chunk walk from its blocked node."""
        witness = soundness.find_any_pattern(hyp.negotiation)
        if witness is None:
            return None
        inst = self._first_split(hyp, self._witness_paths(witness))
        if inst is not None:
            return inst
        if witness.kind == "B":
            return self._b_chunk_walk(hyp, witness)
        raise LearnerBug(_NO_SPLIT[witness.kind])

    def _sigma(self, words, letters):
        return tuple(a for s in self._support_seq(words, letters) for a in s)

    def _witness_paths(self, w):
        """The local paths to split, lazily and in order. B: its access path.
        C: the entry path, then it followed by the cycle 2, 4, 8, ... times.
        F: the access path, then each branch's prefixes after the fork."""
        if w.kind == "B":
            return (tuple(w.access_path),)
        if w.kind == "C":
            entry, cycle = tuple(w.entry_path), tuple(w.cycle_path)
            cap = max(2 * (len(self.q) + len(self.supports)), 2)
            return chain((entry,), (entry + cycle * 2**i for i in range(1, cap.bit_length())))
        prefix = tuple(w.access_path)
        branches = (((w.action, w.p1),) + tuple(w.path1), ((w.action, w.p2),) + tuple(w.path2))
        return chain((prefix,), (prefix + b[:ell] for b in branches for ell in range(1, len(b) + 1)))

    def _first_split(self, hyp: Hypothesis, paths):
        """The target instance of the first nonempty letter path in `paths`
        whose walked end is not trace-equivalent to its support
        concatenation, by a test anchored at the path's last process; None
        when no path splits."""
        for letters in paths:
            if not letters:
                continue
            words = self._walk(hyp, letters)
            if words is None:
                raise LearnerBug("path to split leaves the hypothesis")
            t = self._distinguishing_test(words[-1], self._sigma(words, letters), letters[-1][1])
            if t is not None:
                return self.path_binary_search(words, letters, t)
        return None

    def _b_chunk_walk(self, hyp: Hypothesis, w):
        """Walk p from the blocked node u along the chunks of u's first
        passing test, one p-event each, and bisect where the answers flip."""
        p = w.process
        prefix = tuple(w.access_path)
        words = self._walk(hyp, prefix)
        u, sigma = words[-1], self._sigma(words, prefix)
        # Not None: the blocked node is not fin, so `build_hypothesis` gave
        # it dom(min_action(t_pass)) through `node_domain`, which reads this
        # same test. That domain holds p, as a p-path reaches the node, so
        # p's first event in t_pass is its minimal one, and each step
        # decomposition below peels one p-event's chunk: tails[i] is t_pass
        # from p's i-th event on, and letters[i] that event's action at p.
        t_pass = self.passing_test(u)
        tails, letters = [t_pass], []
        while tails[-1]:
            dec = traces.step_decomposition(self.alpha, tails[-1], p)
            letters.append((dec.head, p))
            tails.append(dec.tail)
        walked_words = [hyp.word_of[x] for x in walk(hyp.negotiation, hyp.id_of[u], letters)]
        hi = len(walked_words) - 1
        walked_letters = letters[:hi]
        if hi < len(letters):  # the walk stopped at a boundary
            if self.member(walked_words[-1], tails[hi]):
                return AbsentTransE(walked_words[-1], self.canon(tails[hi]))

            def g(i):  # flip scan over the walked-node words
                return self.member(walked_words[i], tails[i])
        else:
            inst = self._first_split(hyp, (prefix + tuple(walked_letters),))
            if inst is not None:
                return inst
            walk_supports = self._support_seq(walked_words, walked_letters)

            def g(i):  # flip scan over sigma-prefixed hybrid words
                return self.member(sigma, *walk_supports[:i], tails[i])

        # No endpoint check: g(0) holds and g(hi) fails on every hypothesis.
        # g(0): with a boundary, it is u.t_pass in L. With a complete walk,
        # either the prefix is empty and sigma = u = (), or the access-path
        # split returned None while u passes t_pass in T, which forces
        # sigma.t_pass in L. g(hi): with a boundary, it is the AbsentTransE
        # test above. With a complete walk, the second split returned None
        # with () in T, so sigma with all walk supports is in L exactly when
        # the walk's end word is. The end is reached from the blocked node by
        # a p-path, so it is not fin, and its word is not the accepted one.
        return self._b_flip_case(hyp, prefix, walked_words, walked_letters,
                                 tails, p, flip_index(g, 0, hi, True))

    def _b_flip_case(self, hyp, prefix, walked_words, walked_letters, tails, p, i):
        """Resolve a flip between positions i and i+1 of the chunk walk into
        a Target instance (possibly via the suffix-exchange argument)."""
        if not self.member(walked_words[i], tails[i]):
            # letters is nonempty: at i = 0 this is u.t_pass, which is in L
            letters, r = prefix + tuple(walked_letters[:i]), tails[i]
        elif self.member(walked_words[i + 1], tails[i + 1]):
            letters, r = prefix + tuple(walked_letters[: i + 1]), tails[i + 1]
        else:
            r = tails[i + 1]
            if not r:
                raise LearnerBug("suffix-exchange case degenerated to an empty test")
            a_next = walked_letters[i][0]
            s = self.supports[(walked_words[i], a_next, p)]
            if not self.member(walked_words[i], s, r):
                raise LearnerBug("exchanged suffix failed to verify")
            return TargetInstance(walked_words[i], a_next, p, walked_words[i + 1], self.canon(r))
        return self.path_binary_search(self._walk(hyp, letters), letters, self.canon(r))

    # -- invariants ---------------------------------------------------------------

    def verify_table(self):
        for (u, b, p), s in self.supports.items():
            if not any(self.member(u, s, t) and (not t or p in traces.dmin(self.alpha, t))
                       for t in self.tests):
                raise InvariantViolation(f"Pref': no suitable test after S({u},{b},{p})")
            if not traces.is_step(self.alpha, s, b, p):
                raise InvariantViolation(f"support S({u},{b},{p}) = {s} is not a step")

    # -- round hooks --------------------------------------------------------------

    def bootstrap(self, w):
        w = self.canon(w)
        self.add_state(())
        self.add_test(())
        self.add_test(w)
        self.out_extend(AbsentTransE((), w))

    def next_hypothesis(self) -> Hypothesis:
        """Build the hypothesis and repair it until it is sound."""
        hyp = self.build_hypothesis()
        for _ in range(ROUND_CAP):
            repair = self.make_sound(hyp)
            if repair is None:
                return hyp
            self.apply(repair)
            hyp = self.build_hypothesis()
        raise LearnerBug("soundness repairs failed to converge")

    def counterexample(self, hyp: Hypothesis, sign: str, w):
        if sign == POSITIVE:
            self.apply(self.handle_positive(hyp, w))
        else:
            self.apply(self.handle_negative(hyp, w))

    def apply(self, inst):
        if isinstance(inst, AbsentTransE):
            self.out_extend(inst)
        else:
            self.target_extend(inst)


def learn(teacher: Teacher, debug: bool = False, log: list | None = None) -> Negotiation:
    """Main loop of the execution-only learner: bootstrap, then repair the
    hypothesis to soundness before every equivalence query."""
    return ExecLearner(teacher, debug=debug, log=log).run()
