"""Active learning of sound deterministic negotiations from membership
queries on executions only.

Nodes and tests are Mazurkiewicz traces; transitions carry trace supports
S(u,b,p) (a (b,p)-step standing in for the progress the other processes make
while p crosses the transition). Counterexample analysis walks replayed
hypothesis paths backwards, and soundness is restored from pattern witnesses
before every equivalence query. The table, the bisection and the round
loop are the shared core in `learner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import soundness, traces
from .errors import (
    DescentExhausted,
    InvariantViolation,
    LearnerBug,
    NoDefectiveProjection,
    NoRepairFound,
    NoSplit,
    Unclassifiable,
)
from .learner import ROUND_CAP, Hypothesis, Learner, flip_index
from .model import Negotiation
from .teacher import POSITIVE, Teacher

# which side of the descent invariant currently fails its test
NODE_REJECTS = "node-rejects"
TRACE_REJECTS = "trace-rejects"


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

    def out_of(self, u) -> set:
        return {b for (v, b, _) in self.supports if v == u}

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
        if a in self.out_of(u):
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
        if k == 0:
            raise NoSplit("empty path in binary search")
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
        raise NoDefectiveProjection(
            "all projection supports accepted for a negative counterexample"
        )

    def handle_positive(self, hyp: Hypothesis, w):
        pre = traces.max_executable_prefix(hyp.negotiation, w)
        if not pre.remainder:
            return self._positive_complete(hyp, pre)
        return self._positive_stuck(hyp, pre)

    def _positive_complete(self, hyp: Hypothesis, pre):
        """Counterexample fully executable but the end is not final."""
        anchor = self.stranded_process(hyp, pre)
        words, letters = self._history_walk(hyp, pre.history[anchor], anchor)
        t = self._distinguishing_test(words[-1], self._sigma(words, letters), anchor)
        if t is None:
            raise Unclassifiable("no usable test splits the stranded node from its supports")
        return self.path_binary_search(words, letters, t)

    def _history_walk(self, hyp: Hypothesis, entries, process):
        words = [self.q[0]]
        letters = []
        for (src, a, dst) in entries:
            if hyp.word_of[src] != words[-1]:
                raise LearnerBug("replay history is not contiguous")
            words.append(hyp.word_of[dst])
            letters.append((a, process))
        return words, letters

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
                return self._descend(hyp, pre, NODE_REJECTS, v=v, u=u_p, t=br2,
                                     anchor=p, companion=None)
            if b not in self.out_of(u_p):
                return AbsentTransE(u_p, br2)
        p1, u1, p2, u2, t = self.scattered_split(hyp, node_of)
        if not t:
            raise Unclassifiable("empty test distinguishes two non-final nodes")
        mv = self.member(v, t)
        if mv != self.member(u1, t):
            anchor, u_a = p1, u1
        elif mv != self.member(u2, t):
            anchor, u_a = p2, u2
        else:
            raise Unclassifiable("trace side matches both scattered nodes")
        if mv:
            return self._descend(hyp, pre, NODE_REJECTS, v=v, u=u_a, t=t,
                                 anchor=anchor, companion=None)
        return self._descend(hyp, pre, TRACE_REJECTS, v=v, u=u_a, t=t,
                             anchor=anchor, companion=br2)

    def _descend(self, hyp: Hypothesis, pre, mismatch, v, u, t, anchor, companion):
        """Backwards descent over the anchor's replayed path.

        Invariants per level: the anchor sits at node `u` after replaying the
        executable part of `v`; with NODE_REJECTS the node fails the test the
        trace passes (u.t not in L, v.t in L); with TRACE_REJECTS it is the
        other way around and `companion` is a co-prime trace the trace side
        still passes.
        """
        stack = list(pre.history[anchor])
        v = tuple(v)
        for _ in range(len(v) + 2):
            e = max(
                (i for i, a in enumerate(v) if anchor in self.alpha.dom_set(a)),
                default=None,
            )
            if e is None:
                raise DescentExhausted("anchor has no event left in the trace")
            c = v[e]
            if not stack:
                raise DescentExhausted("replay history exhausted before the trace")
            src, action, dst = stack.pop()
            if action != c or hyp.word_of[dst] != u:
                raise DescentExhausted("replay history does not match the trace")
            u_prev = hyp.word_of[src]
            v_prev, s_k = traces.upward_closure_split(self.alpha, v, e)
            s = self.supports[(u_prev, c, anchor)]
            check1 = self.member(u_prev, s, t)
            if mismatch is NODE_REJECTS:
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
                    raise DescentExhausted("no passing continuation for the predecessor")
                if self.member(v_prev, s, t_pass):
                    raise DescentExhausted("suffix-exchange property violated on the node-rejecting side")
                companion = self.canon(s_k + t)
                v, u, t = v_prev, u_prev, self.canon(s + t_pass)
                mismatch = TRACE_REJECTS
                continue
            # trace side rejects
            if not check1:
                return TargetInstance(u_prev, c, anchor, u, self.canon(t))
            if not self.member(v_prev, s, t):
                v, u, t = v_prev, u_prev, self.canon(s + t)
                companion = self.canon(s_k + companion)
                continue
            raise DescentExhausted("suffix-exchange property violated on the trace-rejecting side")
        raise DescentExhausted("descent failed to terminate")

    # -- soundness repairs -------------------------------------------------------

    def make_sound(self, hyp: Hypothesis):
        """None when the hypothesis is sound; otherwise an extension instance
        derived from a pattern witness."""
        sem = soundness.is_sound_semantic(hyp.negotiation)
        if sem.sound:
            return None
        witness = soundness.find_any_pattern(hyp.negotiation)
        if witness is None:
            raise NoRepairFound("semantically unsound but no pattern witness found")
        if witness.kind == "B":
            return self._convert_b(hyp, witness)
        if witness.kind == "C":
            return self._convert_c(hyp, witness)
        return self._convert_f(hyp, witness)

    def _sigma(self, words, letters):
        return tuple(a for s in self._support_seq(words, letters) for a in s)

    def _try_split_path(self, hyp: Hypothesis, letters, anchor):
        """Target instance when the endpoint of the walked path is not
        trace-equivalent to its support concatenation."""
        words = self._walk(hyp, letters)
        if words is None:
            raise LearnerBug("pattern witness path leaves the hypothesis")
        sigma = self._sigma(words, letters)
        t = self._distinguishing_test(words[-1], sigma, anchor)
        if t is None:
            return None
        return self.path_binary_search(words, letters, t)

    def _first_split(self, hyp: Hypothesis, paths, failure):
        """The target instance of the first nonempty letter path in `paths`,
        tried lazily in order, that splits at its last letter's process."""
        for letters in paths:
            if letters:
                inst = self._try_split_path(hyp, letters, letters[-1][1])
                if inst is not None:
                    return inst
        raise NoRepairFound(failure)

    def _convert_f(self, hyp: Hypothesis, w):
        """The access path, then each branch's prefixes after the fork."""
        prefix = tuple(w.access_path)
        branches = (((w.action, w.p1),) + tuple(w.path1), ((w.action, w.p2),) + tuple(w.path2))
        paths = chain((prefix,), (prefix + b[:ell] for b in branches for ell in range(1, len(b) + 1)))
        return self._first_split(hyp, paths, "fork witness produced no splittable prefix")

    def _convert_c(self, hyp: Hypothesis, w):
        """The entry path, then it followed by the cycle 2, 4, 8, ... times."""
        entry, cycle = tuple(w.entry_path), tuple(w.cycle_path)
        cap = max(2 * (len(self.q) + len(self.supports)), 2)
        paths = chain((entry,), (entry + cycle * 2**i for i in range(1, cap.bit_length())))
        return self._first_split(hyp, paths, "cycle witness stayed consistent past the iteration cap")

    def _convert_b(self, hyp: Hypothesis, w):
        p = w.process
        prefix = tuple(w.access_path)
        if prefix:
            inst = self._try_split_path(hyp, prefix, p)
            if inst is not None:
                return inst
        words = self._walk(hyp, prefix)
        u, sigma = words[-1], self._sigma(words, prefix)
        t_pass = self.passing_test(u)
        if t_pass is None:
            raise NoRepairFound("blocked node has no nonempty passing test")
        chunks = self._p_chunks(t_pass, p)
        suffix_words = [None] * (len(chunks) + 1)
        suffix_words[len(chunks)] = ()
        for i in range(len(chunks) - 1, -1, -1):
            suffix_words[i] = chunks[i] + suffix_words[i + 1]
        walked_words = [u]
        walked_letters = []
        boundary = None
        for i, chunk in enumerate(chunks):
            a_i = traces.min_action(self.alpha, chunk)
            nid = hyp.id_of[walked_words[-1]]
            nxt = hyp.negotiation.delta.get((nid, a_i, p))
            if nxt is None:
                if self.member(walked_words[-1], suffix_words[i]):
                    return AbsentTransE(walked_words[-1], self.canon(suffix_words[i]))
                boundary = i
                break
            walked_words.append(hyp.word_of[nxt])
            walked_letters.append((a_i, p))
        if boundary is None:
            inst = self._try_split_path(hyp, prefix + tuple(walked_letters), p)
            if inst is not None:
                return inst
            # flip scan over sigma-prefixed hybrid words
            walk_supports = self._support_seq(walked_words, walked_letters)
            hi = len(walked_letters)

            def g(i):
                return self.member(sigma, *walk_supports[:i], suffix_words[i])
        else:
            # flip scan over the walked-node words, up to where the walk stopped
            hi = boundary

            def g(i):
                return self.member(walked_words[i], suffix_words[i])

        g_lo, g_hi = g(0), g(hi)
        if boundary is None and (not g_lo or g_hi):
            raise NoRepairFound("blocking witness hybrid endpoints out of shape")
        if g_lo == g_hi:
            raise NoRepairFound("blocking witness produced equal endpoints")
        return self._b_flip_case(hyp, prefix, walked_words, walked_letters,
                                 suffix_words, p, flip_index(g, 0, hi, g_lo))

    def _p_chunks(self, t, p):
        """Decompose a co-prime test with p minimal into chunks anchored at
        p's events: chunk i is the upward closure of the i-th p-event minus
        the closure of the next one."""
        positions = [i for i, a in enumerate(t) if p in self.alpha.dom_set(a)]
        if not positions:
            raise LearnerBug(f"test {t} has no event of {p}")
        closures = [set(traces.upward_closure_indices(self.alpha, t, e)) for e in positions]
        closures.append(set())
        chunks = []
        for i in range(len(positions)):
            keep = closures[i] - closures[i + 1]
            chunks.append(tuple(t[j] for j in range(len(t)) if j in keep))
        return chunks

    def _b_flip_case(self, hyp, prefix, walked_words, walked_letters, suffix_words, p, i):
        """Resolve a flip between positions i and i+1 of the chunk walk into
        a Target instance (possibly via the suffix-exchange argument)."""
        if not self.member(walked_words[i], suffix_words[i]):
            letters, r = prefix + tuple(walked_letters[:i]), suffix_words[i]
            if not letters:
                raise NoRepairFound("flip at the walk's origin")
        elif self.member(walked_words[i + 1], suffix_words[i + 1]):
            letters, r = prefix + tuple(walked_letters[: i + 1]), suffix_words[i + 1]
        else:
            r = suffix_words[i + 1]
            if not r:
                raise NoRepairFound("suffix-exchange case degenerated to an empty test")
            a_next = walked_letters[i][0]
            s = self.supports[(walked_words[i], a_next, p)]
            if not self.member(walked_words[i], s, r):
                raise NoRepairFound("exchanged suffix failed to verify")
            return TargetInstance(walked_words[i], a_next, p, walked_words[i + 1], self.canon(r))
        return self.path_binary_search(self._walk(hyp, letters), letters, self.canon(r))

    # -- invariants ---------------------------------------------------------------

    def verify_table(self):
        self.check_pref()
        for (u, b, p), s in self.supports.items():
            for qq in self.alpha.dom[b]:
                if (u, b, qq) not in self.supports:
                    raise InvariantViolation(f"Domain: S({u},{b},{qq}) missing")
            if not any(self.member(u, s, t) and (not t or p in traces.dmin(self.alpha, t))
                       for t in self.tests):
                raise InvariantViolation(f"Pref': no suitable test after S({u},{b},{p})")
            if self.find_rep(u + s) is None:
                raise InvariantViolation(f"Closure: {u} + {s} has no representative")
            if not traces.is_step(self.alpha, s, b, p):
                raise InvariantViolation(f"support S({u},{b},{p}) = {s} is not a step")
        for t in self.tests:
            self.check_test(t)

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
