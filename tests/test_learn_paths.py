import math

import pytest

from negotiations import learn_paths, traces
from negotiations.automata import minimize_negotiation, neg_equiv
from negotiations.errors import InvariantViolation, NoSplit
from negotiations.formats import parse
from negotiations.learn_paths import AbsentTrans, Neq, PathLearner
from negotiations.model import empty_negotiation
from negotiations.teacher import Teacher

import fixtures

ALL_FIXTURES = [
    ("ping", fixtures.ping),
    ("fork", fixtures.fork),
    ("loop2", fixtures.loop2),
    ("editorial", fixtures.editorial),
    ("two_period", fixtures.two_period),
    ("forked_periods", fixtures.forked_periods),
    ("mod15", fixtures.mod15),
]


def neg_size(n):
    return len(n.nodes) + len(n.delta)


@pytest.mark.parametrize("name,fix", ALL_FIXTURES)
def test_learn_converges_minimal(name, fix):
    target = fix()
    teacher = Teacher(target)
    got = learn_paths.learn(teacher, debug=True)
    assert neg_equiv(got, target)
    minimal = minimize_negotiation(target)
    assert len(got.nodes) == len(minimal.nodes)
    assert len(got.delta) == len(minimal.delta)


@pytest.mark.parametrize("name,fix", ALL_FIXTURES)
def test_query_budgets(name, fix):
    target = fix()
    teacher = Teacher(target)
    got = learn_paths.learn(teacher, debug=False)
    assert neg_equiv(got, target)
    minimal = minimize_negotiation(target)
    s = neg_size(minimal)
    m = max(teacher.stats.max_counterexample_len, 0)
    procs = len(target.alphabet.processes)
    bound = 16 * s * (s + procs + math.log2(m + 2))
    assert teacher.stats.membership_distinct <= bound
    assert teacher.stats.equivalence_total <= s


def test_empty_target_shortcut():
    # a target with the empty language: the bootstrap query already matches
    alpha = fixtures.ping().alphabet
    target = empty_negotiation(alpha)
    teacher = Teacher(target)
    got = learn_paths.learn(teacher)
    assert teacher.stats.equivalence_total == 1
    assert got.delta == {}


class TestEquivT:
    def make(self):
        teacher = Teacher(fixtures.fork())
        learner = PathLearner(teacher)
        learner.add_state(())
        return learner

    def test_no_tests_everything_equal(self):
        learner = self.make()
        assert learner.equiv_t((("c", "p"),), (("c", "q"),))

    def test_epsilon_separating(self):
        learner = self.make()
        learner.add_test(())
        full = (("c", "p"), ("x", "p"), ("d", "p"))
        assert not learner.equiv_t(full, (("c", "p"),))

    def test_accepted_words_collapse(self):
        learner = self.make()
        learner.add_test(())
        p_path = (("c", "p"), ("x", "p"), ("d", "p"))
        q_path = (("c", "q"), ("y", "q"), ("d", "q"))
        assert learner.equiv_t(p_path, q_path)


class TestAbsentTrans:
    def test_init_processing(self):
        """Bootstrap on FORK: out(eps) gains both c-letters, T gains the
        per-process tails, and closure adds the c-successor states."""
        teacher = Teacher(fixtures.fork())
        learner = PathLearner(teacher)
        learner.add_state(())
        w = ("c", "x", "y", "d")
        for p in ("p", "q"):
            learner.add_test(traces.projection(learner.alpha, w, p))
        learner.apply_absent_trans(AbsentTrans("c", (), w))
        assert set(learner.out[()]) == {("c", "p"), ("c", "q")}
        assert (("x", "p"), ("d", "p")) in learner.tests
        assert (("y", "q"), ("d", "q")) in learner.tests
        assert learner.q == [()]
        learner.restore_closure()
        assert ((("c", "p"),)) in learner.q
        assert ((("c", "q"),)) in learner.q

    def test_existing_successor_not_duplicated(self):
        teacher = Teacher(fixtures.ping())
        learner = PathLearner(teacher)
        learner.add_state(())
        w = ("a", "b")
        for p in ("p", "q"):
            learner.add_test(traces.projection(learner.alpha, w, p))
        learner.apply_absent_trans(AbsentTrans("a", (), w))
        learner.restore_closure()
        # a@p and a@q reach the same Nerode class; only one state is added
        assert len(learner.q) == 2

    def test_domain_invariant_holds(self):
        teacher = Teacher(fixtures.fork())
        learner = PathLearner(teacher)
        learner.add_state(())
        w = ("c", "x", "y", "d")
        for p in ("p", "q"):
            learner.add_test(traces.projection(learner.alpha, w, p))
        learner.apply_absent_trans(AbsentTrans("c", (), w))
        learner.restore_closure()
        learner.verify_invariants()

    def test_closure_reads_the_map_restore_closure_built(self):
        """Closure holds when every transition has a rep in Q in the map
        `restore_closure` returns, and fails on a missing entry or a rep
        outside Q."""
        teacher = Teacher(fixtures.fork())
        learner = PathLearner(teacher)
        learner.add_state(())
        w = ("c", "x", "y", "d")
        for p in ("p", "q"):
            learner.add_test(traces.projection(learner.alpha, w, p))
        learner.apply_absent_trans(AbsentTrans("c", (), w))
        reps = learner.restore_closure()
        learner.verify_invariants(reps)
        key = next(iter(reps))
        for bad in ({k: v for k, v in reps.items() if k != key}, {**reps, key: ("zz",)}):
            with pytest.raises(InvariantViolation, match="Closure"):
                learner.verify_invariants(bad)


class TestApplyNeq:
    def test_binary_search_query_count(self):
        """NEQ on a two_period run stays within 2*ceil(log2 k) + 2 queries."""
        target = fixtures.two_period()
        teacher = Teacher(target)
        learner = PathLearner(teacher)

        orig_apply = learner.apply_neq
        measured = []

        def counting(hyp, inst):
            proj = traces.projection(learner.alpha, inst.executed, inst.process)
            before = teacher.stats.membership_total
            out = orig_apply(hyp, inst)
            spent = teacher.stats.membership_total - before
            k = max(len(proj), 1)
            measured.append((spent, 2 * math.ceil(math.log2(k)) + 2 if k > 1 else 2))
            return out

        learner.apply_neq = counting
        got = _drive(learner, teacher)
        assert neg_equiv(got, target)
        assert measured, "no NEQ processed on the trap fixture"
        for spent, bound in measured:
            assert spent <= bound

    def test_no_split_flagged(self):
        teacher = Teacher(fixtures.fork())
        learner = PathLearner(teacher)
        learner.add_state(())
        learner.add_test(())
        from negotiations.learn_paths import Neq

        learner.apply_absent_trans(AbsentTrans("c", (), ("c", "x", "y", "d")))
        learner.restore_closure()
        hyp = learner.build_hypothesis()
        with pytest.raises(NoSplit):
            # both endpoints accepted: w|_p in L_P and the walked suffix too
            learner.apply_neq(hyp, Neq("p", ("c",), (("x", "p"), ("d", "p"))))


def _drive(learner, teacher):
    """Run the Algorithm-1 loop body on a pre-built learner (test helper)."""
    from negotiations.learn_paths import AbsentTrans as AT

    empty = empty_negotiation(teacher.target.alphabet)
    ans = teacher.equiv_query(empty)
    if ans.equivalent:
        return empty
    w = ans.word
    learner.add_state(())
    for p in teacher.target.alphabet.processes:
        learner.add_test(traces.projection(learner.alpha, w, p))
    learner.apply_absent_trans(AT(w[0], (), w))
    learner.restore_closure()
    for _ in range(10_000):
        hyp = learner.build_hypothesis()
        ans = teacher.equiv_query(hyp.negotiation)
        if ans.equivalent:
            return hyp.negotiation
        inst = learner.classify(hyp, ans.sign, ans.word)
        if isinstance(inst, AT):
            learner.apply_absent_trans(inst)
        else:
            learner.apply_neq(hyp, inst)
        learner.restore_closure()
    raise AssertionError("did not converge")


# a minimal target whose learning finds the stuck action's processes at two
# distinct hypothesis nodes once
SCATTERED = parse(
    '{"processes":["p","q"],"actions":{"a0":["p","q"],"a1":["q"],"a2":["q"],"a3":["p","q"],'
    '"a4":["p"]},"nodes":{"s0":["p","q"],"s1":["q"],"s2":["p","q"],"s3":["q"]},'
    '"init":"s0","fin":"s2","transitions":[["s0","a0","p","s0"],["s0","a0","q","s1"],'
    '["s0","a3","p","s2"],["s0","a3","q","s2"],["s1","a1","q","s0"],["s1","a2","q","s3"],'
    '["s3","a1","q","s0"],["s3","a2","q","s0"]]}'
)


@pytest.mark.parametrize("debug", [False, True])
def test_scattered_positive_reaches_its_branch(monkeypatch, debug):
    """The scattered branch of `_classify_positive` splits on the process
    whose projection disagrees with its hypothesis node."""
    real_stuck, real_classify = PathLearner.stuck_action, PathLearner._classify_positive
    scattered, emitted = [], []

    def stuck_action(self, pre):
        b, nodes = real_stuck(self, pre)
        scattered.append(len(set(nodes.values())) > 1)
        return b, nodes

    def classify_positive(self, hyp, w):
        scattered.clear()
        inst = real_classify(self, hyp, w)
        if any(scattered):
            emitted.append(inst)
        return inst

    monkeypatch.setattr(PathLearner, "stuck_action", stuck_action)
    monkeypatch.setattr(PathLearner, "_classify_positive", classify_positive)
    got = learn_paths.learn(Teacher(SCATTERED), debug=debug)
    assert neg_equiv(got, SCATTERED) and len(got.nodes) == 4
    assert emitted == [Neq("q", ("a0", "a2", "a2"), (("a3", "p"),))]


class TestProgress:
    def test_every_round_grows(self):
        target = fixtures.two_period()
        teacher = Teacher(target)
        log = []
        learn_paths.learn(teacher, log=log)
        sizes = []
        # reconstruct growth from the log: each non-equiv event grows something
        growth_events = [e for e in log if e["event"] in ("absent_trans", "neq", "closure")]
        equiv_events = [e for e in log if e["event"] == "equiv"]
        # every equivalence round except the last is followed by growth
        assert len(growth_events) >= len(equiv_events) - 2
