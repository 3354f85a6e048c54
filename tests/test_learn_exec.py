import math

import pytest

from negotiations import formats, learn_exec, soundness, traces
from negotiations.automata import minimize_negotiation, neg_equiv
from negotiations.errors import InvariantViolation
from negotiations.generate import GenParams, generate
from negotiations.learn_exec import AbsentTransE, ExecLearner, TargetInstance
from negotiations.learn_paths import PathLearner
from negotiations.learner import Hypothesis
from negotiations.model import Negotiation, configuration_graph, empty_negotiation, member_exec
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


def test_make_sound_decides_by_patterns_alone(monkeypatch):
    """`make_sound` decides a hypothesis' soundness by the pattern search
    alone, with no configuration graph, and learning keeps its golden
    digests."""
    from test_learner_golden import GOLDEN, MEMBERSHIP_TOTAL, run

    real_semantic = soundness.is_sound_semantic
    real_make_sound = ExecLearner.make_sound
    inside = []
    counts = {"make_sound": 0, "semantic": 0}

    def semantic(*args, **kwargs):
        counts["semantic"] += bool(inside)
        return real_semantic(*args, **kwargs)

    def make_sound(self, hyp):
        counts["make_sound"] += 1
        inside.append(hyp)
        try:
            return real_make_sound(self, hyp)
        finally:
            inside.pop()

    monkeypatch.setattr(soundness, "is_sound_semantic", semantic)
    monkeypatch.setattr(ExecLearner, "make_sound", make_sound)
    for name in ("fork_split", "editorial"):
        key = f"exec-{name}"
        assert run("exec", name, False) == (GOLDEN[key], MEMBERSHIP_TOTAL[key])
    assert counts["make_sound"] > 0
    assert counts["semantic"] == 0

@pytest.mark.parametrize("name,fix", ALL_FIXTURES)
def test_learn_converges(name, fix):
    target = fix()
    teacher = Teacher(target)
    log = []
    got = learn_exec.learn(teacher, debug=True, log=log)
    assert neg_equiv(got, target)
    minimal = minimize_negotiation(target)
    assert len(got.nodes) == len(minimal.nodes)
    # every equivalence query after the bootstrap was asked on a sound hypothesis
    equivs = [e for e in log if e["event"] == "equiv"]
    assert equivs[0].get("bootstrap")
    assert all(e["sound_hypothesis"] for e in equivs[1:])


@pytest.mark.parametrize("name,fix", ALL_FIXTURES)
def test_query_budgets(name, fix):
    target = fix()
    teacher = Teacher(target)
    got = learn_exec.learn(teacher, debug=False)
    assert neg_equiv(got, target)
    minimal = minimize_negotiation(target)
    s = neg_size(minimal)
    m = max(teacher.stats.max_counterexample_len, 0)
    bound = 16 * s * (s * s + math.log2(m + 2))
    assert teacher.stats.membership_distinct <= bound
    assert teacher.stats.equivalence_total <= s


@pytest.mark.parametrize("name,fix", ALL_FIXTURES)
def test_t_bounded_by_q_plus_s(name, fix):
    teacher = Teacher(fix())
    learner, got = _drive(teacher)
    assert len(learner.tests) <= len(learner.q) + len(learner.supports) + 1  # + seeded eps


def _drive(teacher, debug=False):
    """learn() but returning the learner for state inspection."""
    learner = ExecLearner(teacher, debug=debug)
    from negotiations.model import empty_negotiation

    empty = empty_negotiation(teacher.target.alphabet)
    ans = teacher.equiv_query(empty)
    if ans.equivalent:
        return learner, empty
    w = learner.canon(ans.word)
    learner.add_state(())
    learner.add_test(())
    learner.add_test(w)
    learner.out_extend(AbsentTransE((), w))
    learner.restore_closure()
    for _ in range(10_000):
        hyp = learner.build_hypothesis()
        while True:
            repair = learner.make_sound(hyp)
            if repair is None:
                break
            _apply(learner, repair)
            learner.restore_closure()
            hyp = learner.build_hypothesis()
        ans = teacher.equiv_query(hyp.negotiation)
        if ans.equivalent:
            return learner, hyp.negotiation
        if ans.sign == "positive":
            inst = learner.handle_positive(hyp, ans.word)
        else:
            inst = learner.handle_negative(hyp, ans.word)
        _apply(learner, inst)
        learner.restore_closure()
    raise AssertionError("did not converge")


def _apply(learner, inst):
    if isinstance(inst, AbsentTransE):
        learner.out_extend(inst)
    else:
        learner.target_extend(inst)


class TestOutExtend:
    def test_bootstrap_fork(self):
        teacher = Teacher(fixtures.fork())
        learner = ExecLearner(teacher)
        learner.add_state(())
        learner.add_test(())
        w = ("c", "x", "y", "d")
        learner.add_test(w)
        learner.out_extend(AbsentTransE((), w))
        # the co-prime decomposition rule: the support carries the other
        # process far enough that the target node is uniquely enabled
        assert learner.supports[((), "c", "p")] == ("c", "y")
        assert learner.supports[((), "c", "q")] == ("c", "x")
        assert ("x", "d") in learner.tests
        assert ("y", "d") in learner.tests
        for (u, b, p), s in learner.supports.items():
            assert traces.is_step(learner.alpha, s, b, p)

    def test_closure_adds_states(self):
        teacher = Teacher(fixtures.fork())
        learner = ExecLearner(teacher)
        learner.add_state(())
        learner.add_test(())
        learner.add_test(("c", "x", "y", "d"))
        learner.out_extend(AbsentTransE((), ("c", "x", "y", "d")))
        learner.restore_closure()
        assert len(learner.q) >= 2
        learner.verify_invariants()

    def test_rejects_duplicate_action(self):
        teacher = Teacher(fixtures.fork())
        learner = ExecLearner(teacher)
        learner.add_state(())
        learner.add_test(())
        learner.add_test(("c", "x", "y", "d"))
        learner.out_extend(AbsentTransE((), ("c", "x", "y", "d")))
        with pytest.raises(InvariantViolation):
            learner.out_extend(AbsentTransE((), ("c", "y", "x", "d")))


class TestTargetExtend:
    def test_duplicate_test_rejected(self):
        teacher = Teacher(fixtures.fork())
        learner = ExecLearner(teacher)
        learner.add_state(())
        learner.add_test(())
        learner.add_test(("c", "x", "y", "d"))
        learner.out_extend(AbsentTransE((), ("c", "x", "y", "d")))
        # ("x", "d") entered T as a decomposition tail already
        with pytest.raises(InvariantViolation):
            learner.target_extend(TargetInstance((), "c", "p", ("c", "y"), ("x", "d")))


def _fork_learner_state(redirect_d_q=False, split_join=False, drop_d=False):
    """Hand-built mid-learning state for the FORK teacher, with optional
    defects wired into the hypothesis graph."""
    teacher = Teacher(fixtures.fork())
    learner = ExecLearner(teacher)
    alpha = learner.alpha
    eps, n1w, n2w, n3w = (), ("c", "y"), ("c", "x"), ("c", "x", "y")
    finw = ("c", "x", "y", "d")
    q_words = [eps, n1w, n2w, n3w, finw]
    if split_join:
        bw = ("c", "c", "x", "y")  # a junk trace failing every test
        q_words = [eps, n1w, n2w, n3w, bw, finw]
    for u in q_words:
        learner.add_state(u)
    for t in [(), ("c", "x", "y", "d"), ("x", "d"), ("y", "d"), ("d",)]:
        learner.add_test(t)
    learner.supports[(eps, "c", "p")] = ("c", "y")
    learner.supports[(eps, "c", "q")] = ("c", "x")
    learner.supports[(n1w, "x", "p")] = ("x",)
    learner.supports[(n2w, "y", "q")] = ("y",)
    ids = {u: f"q{i}" for i, u in enumerate(learner.q)}
    nodes = tuple(ids[u] for u in learner.q)
    dnode = {
        ids[eps]: ("p", "q"),
        ids[n1w]: ("p",),
        ids[n2w]: ("q",),
        ids[n3w]: ("p", "q"),
        ids[finw]: ("p", "q"),
    }
    delta = {
        (ids[eps], "c", "p"): ids[n1w],
        (ids[eps], "c", "q"): ids[n2w],
        (ids[n1w], "x", "p"): ids[n3w],
        (ids[n2w], "y", "q"): ids[n3w],
    }
    if split_join:
        bw = ("c", "c", "x", "y")
        dnode[ids[bw]] = ("p", "q")
        delta[(ids[n2w], "y", "q")] = ids[bw]
        for side in (ids[n3w], ids[bw]):
            for pr in ("p", "q"):
                delta[(side, "d", pr)] = ids[finw]
        learner.supports[(n3w, "d", "p")] = ("d",)
        learner.supports[(n3w, "d", "q")] = ("d",)
        learner.supports[(bw, "d", "p")] = ("d",)
        learner.supports[(bw, "d", "q")] = ("d",)
    elif not drop_d:
        delta[(ids[n3w], "d", "p")] = ids[finw]
        delta[(ids[n3w], "d", "q")] = ids[n2w] if redirect_d_q else ids[finw]
        learner.supports[(n3w, "d", "p")] = ("d",)
        learner.supports[(n3w, "d", "q")] = ("d", "x") if redirect_d_q else ("d",)
    neg = Negotiation(
        alphabet=alpha,
        nodes=nodes,
        dnode=dnode,
        delta=delta,
        init=ids[eps],
        fin=ids[finw],
    )
    hyp = Hypothesis(neg, ids, {i: u for u, i in ids.items()})
    return teacher, learner, hyp


class TestPositiveComplete:
    def test_redirected_join_yields_verified_target(self):
        """w executes fully but strands q off the final node; the handler
        must hand back a binary-searched, query-verified Target."""
        teacher, learner, hyp = _fork_learner_state(redirect_d_q=True)
        inst = learner.handle_positive(hyp, ("c", "x", "y", "d"))
        assert isinstance(inst, TargetInstance)
        s = learner.supports[(inst.u_prev, inst.action, inst.process)]
        left = learner.member(inst.u_prev, s, inst.r)
        right = learner.member(inst.u_next, inst.r)
        assert left != right
        assert inst.r == () or traces.is_coprime(learner.alpha, inst.r)

    @pytest.mark.parametrize("params", [GenParams(2, 7, 0.0, 0.3, seed=849),
                                        GenParams(4, 7, 0.0, 0.0, seed=764)])
    def test_learning_reaches_it(self, monkeypatch, params):
        """Two generated targets whose learning hands a fully executable
        positive counterexample to `_positive_complete` once."""
        real = ExecLearner._positive_complete
        emitted = []
        monkeypatch.setattr(ExecLearner, "_positive_complete",
                            lambda self, hyp, pre: emitted.append(real(self, hyp, pre)) or emitted[-1])
        target = generate(params)
        assert neg_equiv(learn_exec.learn(Teacher(target), debug=True), target)
        assert [type(inst) for inst in emitted] == [TargetInstance]


class TestDescent:
    def test_split_join_stuck_descends_to_target(self):
        """dom(d) processes blocked at distinct nodes with the d-word
        rejected on one side: the backwards descent emits a Target on the
        defective transition."""
        teacher, learner, hyp = _fork_learner_state(split_join=True)
        # remove the d transitions from the junk side so d cannot fire
        neg = hyp.negotiation
        delta = {k: v for k, v in neg.delta.items() if k[0] != hyp.id_of[("c", "c", "x", "y")]}
        neg2 = Negotiation(neg.alphabet, neg.nodes, neg.dnode, delta, neg.init, neg.fin)
        hyp2 = Hypothesis(neg2, hyp.id_of, hyp.word_of)
        for pr in ("p", "q"):
            learner.supports.pop((("c", "c", "x", "y"), "d", pr))
        inst = learner.handle_positive(hyp2, ("c", "x", "y", "d"))
        assert isinstance(inst, (TargetInstance, AbsentTransE))
        if isinstance(inst, TargetInstance):
            s = learner.supports[(inst.u_prev, inst.action, inst.process)]
            assert learner.member(inst.u_prev, s, inst.r) != learner.member(inst.u_next, inst.r)

    @pytest.mark.parametrize("debug", [False, True])
    def test_learning_descends_past_the_first_level(self, monkeypatch, debug):
        """A 5-node target whose one descent goes past its first level: at
        the first level the predecessor's support word rejects the test as
        well, so the Target lands one edge earlier on p's path."""
        target = formats.parse(
            '{"processes":["p","q"],"actions":{"a0":["p","q"],"a1":["p","q"],"a2":["p"]},'
            '"nodes":{"s0":["p","q"],"s1":["p","q"],"s2":["p"],"s3":["p","q"],"s4":["p"]},'
            '"init":"s0","fin":"s1","transitions":[["s0","a0","p","s1"],["s0","a0","q","s1"],'
            '["s0","a1","p","s2"],["s0","a1","q","s3"],["s2","a2","p","s4"],["s3","a0","p","s1"],'
            '["s3","a0","q","s1"],["s3","a1","p","s4"],["s3","a1","q","s3"],["s4","a2","p","s3"]]}'
        )
        real = ExecLearner._descend
        emitted = []

        def descend(self, hyp, pre, v, u, t, anchor):
            inst = real(self, hyp, pre, v, u, t, anchor)
            emitted.append((u, inst))
            return inst

        monkeypatch.setattr(ExecLearner, "_descend", descend)
        assert neg_equiv(learn_exec.learn(Teacher(target), debug=debug), target)
        assert [(u, inst.u_prev, inst.action, inst.process, inst.u_next) for u, inst in emitted] == [
            (("a1", "a2"), ("a1", "a2"), "a2", "p", ())
        ]


def scattered_configurations(n):
    """(configuration, b) for each reachable configuration that puts
    processes of action b at two distinct nodes both having b out."""
    outs = {m: set(n.out(m)) for m in n.nodes}
    graph = configuration_graph(n)
    found = []
    for nodes in map(graph.nodes, range(len(graph))):
        at = dict(zip(graph.processes, nodes))
        for b in n.alphabet.actions:
            if len({at[p] for p in n.alphabet.dom[b] if b in outs[at[p]]}) > 1:
                found.append((nodes, b))
    return found


def test_sound_hypotheses_never_scatter_an_action():
    """The lemma that makes the scattered tail of `_positive_stuck`
    unreachable: in a sound valid negotiation no reachable configuration
    scatters an action's processes over nodes having it out. Checked on
    every hypothesis learning hands to `equiv_query` and on the sound
    targets; the unsound `fork_split` target does scatter one."""
    from test_learner_golden import FIXTURES

    assert scattered_configurations(fixtures.fork_split())
    targets = [getattr(fixtures, name)() for name in FIXTURES]
    targets += [generate(GenParams(p, 4 * p + 4, 0.3, 0.6, seed=s))
                for p in (1, 2, 3, 4) for s in (0, 1, 2)]
    hypotheses = 0
    for target in targets:
        teacher = Teacher(target)
        asked = []
        ask = teacher.equiv_query
        teacher.equiv_query = lambda h, ask=ask, asked=asked: asked.append(h) or ask(h)
        learn_exec.learn(teacher)
        hypotheses += len(asked)
        assert [h for h in asked if scattered_configurations(h)] == []
        if soundness.is_sound_semantic(target).sound:
            assert scattered_configurations(target) == []
    assert hypotheses > len(targets)


class TestMakeSoundConversions:
    def test_sound_hypothesis_none(self):
        teacher, learner, hyp = _fork_learner_state()
        assert learner.make_sound(hyp) is None

    def test_b_defect_repaired_to_soundness(self):
        """Missing d-transitions: a blocking witness, repaired within a
        bounded number of make-sound rounds."""
        teacher, learner, hyp = _fork_learner_state(drop_d=True)
        repairs = 0
        target_size = neg_size(fixtures.fork())
        while True:
            repair = learner.make_sound(hyp)
            if repair is None:
                break
            _apply(learner, repair)
            learner.restore_closure()
            hyp = learner.build_hypothesis()
            repairs += 1
            assert repairs <= target_size
        assert repairs >= 1

    def test_f_witness_converts_to_target(self):
        """A diverging join (F pattern) splits one of its paths into a
        query-verified Target. Mechanism test: the seeded state is
        deliberately out of equilibrium, so only the conversion's output
        contract is asserted."""
        teacher, learner, hyp = _fork_learner_state(split_join=True)
        from negotiations.soundness import find_any_pattern, is_sound_semantic

        assert not is_sound_semantic(hyp.negotiation).sound
        witness = find_any_pattern(hyp.negotiation)
        assert witness is not None and witness.kind == "F"
        inst = learner._first_split(hyp, learner._witness_paths(witness))
        assert isinstance(inst, TargetInstance)
        s = learner.supports[(inst.u_prev, inst.action, inst.process)]
        assert learner.member(inst.u_prev, s, inst.r) != learner.member(inst.u_next, inst.r)
        assert traces.is_coprime(learner.alpha, inst.r)

    def test_c_witness_converts_to_target(self):
        """An undominated shuttle cycle (C pattern) pumps to a verified
        Target. The target's alphabet declares the shuttle letters but its
        language never uses them."""
        from negotiations.model import DistributedAlphabet
        from negotiations.soundness import CWitness

        alpha = DistributedAlphabet(
            processes=("p", "q", "r"),
            actions=("s", "t", "g", "h"),
            dom={
                "s": ("p", "q", "r"),
                "t": ("p", "q", "r"),
                "g": ("p", "q"),
                "h": ("p", "r"),
            },
        )
        target = Negotiation(
            alphabet=alpha,
            nodes=("n0", "m", "nf"),
            dnode={"n0": ("p", "q", "r"), "m": ("p", "q", "r"), "nf": ("p", "q", "r")},
            delta={
                **{("n0", "s", pr): "m" for pr in ("p", "q", "r")},
                **{("m", "t", pr): "nf" for pr in ("p", "q", "r")},
            },
            init="n0",
            fin="nf",
        )
        teacher = Teacher(target)
        learner = ExecLearner(teacher)
        eps, aw, bw, finw = (), ("s",), ("s", "g"), ("s", "t")
        for u in (eps, aw, bw, finw):
            learner.add_state(u)
        for t in [(), ("s", "t"), ("t",)]:
            learner.add_test(t)
        learner.supports.update({
            (eps, "s", "p"): ("s",),
            (eps, "s", "q"): ("s",),
            (eps, "s", "r"): ("s", "g"),
            (aw, "g", "p"): ("g",),
            (aw, "g", "q"): ("g",),
            (bw, "h", "p"): ("h",),
            (bw, "h", "r"): ("h",),
        })
        ids = {eps: "q0", aw: "qA", bw: "qB", finw: "qF"}
        neg = Negotiation(
            alphabet=alpha,
            nodes=("q0", "qA", "qB", "qF"),
            dnode={
                "q0": ("p", "q", "r"),
                "qA": ("p", "q"),
                "qB": ("p", "r"),
                "qF": ("p", "q", "r"),
            },
            delta={
                ("q0", "s", "p"): "qA",
                ("q0", "s", "q"): "qA",
                ("q0", "s", "r"): "qB",
                ("qA", "g", "p"): "qB",
                ("qA", "g", "q"): "qA",
                ("qB", "h", "p"): "qA",
                ("qB", "h", "r"): "qB",
            },
            init="q0",
            fin="qF",
        )
        hyp = Hypothesis(neg, ids, {i: u for u, i in ids.items()})
        witness = CWitness(entry_path=(("s", "p"),), cycle_path=(("g", "p"), ("h", "p")))
        from negotiations.soundness import verify_witness

        assert verify_witness(neg, witness)
        inst = learner._first_split(hyp, learner._witness_paths(witness))
        assert isinstance(inst, TargetInstance)
        s = learner.supports[(inst.u_prev, inst.action, inst.process)]
        assert learner.member(inst.u_prev, s, inst.r) != learner.member(inst.u_next, inst.r)
        assert traces.is_coprime(learner.alpha, inst.r)


@pytest.mark.parametrize("cls", [ExecLearner, PathLearner])
@pytest.mark.parametrize("name", ["fork", "two_period", "editorial"])
def test_build_hypothesis_closes_the_table(cls, name):
    """A hypothesis built straight after out_extend / apply_absent_trans, with
    no restore_closure call, equals the one built after an explicit closure."""
    teacher = Teacher(getattr(fixtures, name)())
    implicit, explicit = cls(teacher), cls(teacher)
    ans = teacher.equiv_query(empty_negotiation(teacher.target.alphabet))
    implicit.bootstrap(ans.word)
    explicit.bootstrap(ans.word)
    for _ in range(100):
        explicit.restore_closure()
        a, b = implicit.next_hypothesis(), explicit.next_hypothesis()
        assert formats.serialize(a.negotiation) == formats.serialize(b.negotiation)
        assert a.id_of == b.id_of
        ans = teacher.equiv_query(a.negotiation)
        if ans.equivalent:
            return
        implicit.counterexample(a, ans.sign, ans.word)
        explicit.counterexample(b, ans.sign, ans.word)
    raise AssertionError("did not converge")


@pytest.mark.parametrize("cls", [ExecLearner, PathLearner])
def test_broken_table_fails_validation(cls):
    """A table that lost one letter of the two-process action c out of the
    initial state yields no hypothesis, with debug off or on."""
    teacher = Teacher(fixtures.fork())
    w = teacher.equiv_query(empty_negotiation(teacher.target.alphabet)).word
    for debug in (False, True):
        learner = cls(teacher, debug=debug)
        learner.bootstrap(w)
        if cls is PathLearner:
            learner.out[()].remove(("c", "q"))
        else:
            del learner.supports[((), "c", "q")]
        with pytest.raises(InvariantViolation, match="hypothesis fails validation"):
            learner.build_hypothesis()


class TestHypothesisConstruction:
    def test_validates(self):
        teacher = Teacher(fixtures.fork())
        learner, got = _drive(teacher)
        from negotiations.model import validate

        assert validate(got) == []

    def test_dnode_from_dmin(self):
        teacher, learner, hyp = _fork_learner_state()
        built = learner.build_hypothesis()
        neg = built.negotiation
        n3_id = built.id_of[("c", "x", "y")]
        assert set(neg.dnode[n3_id]) == {"p", "q"}

    def test_two_finals_rejected(self):
        teacher = Teacher(fixtures.fork())
        learner = ExecLearner(teacher)
        learner.add_state(())
        learner.add_test(())
        learner.q.append(("c", "x", "y", "d"))
        learner.q.append(("c", "y", "x", "d"))  # same trace, deliberately
        with pytest.raises(InvariantViolation):
            learner.build_hypothesis()


def support_concat(learner, hyp, letters):
    """Concatenation of the stored supports along a hypothesis local path
    from the initial node; co-prime for nonempty paths, and its projection
    onto a pure p-path's process is the path's action word."""
    words = learner._walk(hyp, letters)
    assert words is not None, f"path {letters} leaves the hypothesis"
    return learner.canon(learner._sigma(words, letters))


class TestSupportConcat:
    def test_single_transition_is_its_support(self):
        teacher, learner, hyp = _fork_learner_state()
        got = support_concat(learner, hyp, (("c", "p"),))
        assert got == learner.canon(learner.supports[((), "c", "p")])

    def test_full_process_path_projects_back(self):
        teacher = Teacher(fixtures.fork())
        learner, got = _drive(teacher)
        hyp = learner.build_hypothesis()
        letters = (("c", "p"), ("x", "p"), ("d", "p"))
        sigma = support_concat(learner, hyp, letters)
        assert traces.projection(learner.alpha, sigma, "p") == letters
        assert traces.is_coprime(learner.alpha, sigma)

    def test_random_hypothesis_paths_coprime(self):
        import random

        teacher = Teacher(fixtures.forked_periods())
        learner, got = _drive(teacher)
        hyp = learner.build_hypothesis()
        rng = random.Random(4)
        letters_all = hyp.negotiation.alphabet.local_letters()
        found = 0
        for _ in range(300):
            path = []
            node = hyp.negotiation.init
            for _ in range(rng.randrange(1, 7)):
                outs = [
                    (a, p)
                    for (a, p) in letters_all
                    if (node, a, p) in hyp.negotiation.delta
                ]
                if not outs:
                    break
                letter = rng.choice(outs)
                path.append(letter)
                node = hyp.negotiation.delta[(node, letter[0], letter[1])]
            if not path:
                continue
            sigma = support_concat(learner, hyp, tuple(path))
            assert traces.is_coprime(learner.alpha, sigma)
            found += 1
        assert found > 50


class TestBinarySearchBudget:
    def test_query_count_logarithmic(self):
        """Each binary search spends at most 2*ceil(log2 k) + 2 membership
        calls on a walked path of k edges."""
        target = fixtures.two_period()
        teacher = Teacher(target)
        learner = ExecLearner(teacher)
        orig = learner.path_binary_search
        measured = []

        def counting(words, letters, r):
            before = teacher.stats.membership_total
            out = orig(words, letters, r)
            spent = teacher.stats.membership_total - before
            k = len(letters)
            bound = 2 * math.ceil(math.log2(k)) + 2 if k > 1 else 2
            measured.append((spent, bound))
            return out

        learner.path_binary_search = counting
        _drive_prebuilt(learner, teacher)
        assert measured, "no binary search ran on the trap fixture"
        for spent, bound in measured:
            assert spent <= bound


def _drive_prebuilt(learner, teacher):
    from negotiations.model import empty_negotiation

    ans = teacher.equiv_query(empty_negotiation(teacher.target.alphabet))
    if ans.equivalent:
        return None
    w = learner.canon(ans.word)
    learner.add_state(())
    learner.add_test(())
    learner.add_test(w)
    learner.out_extend(AbsentTransE((), w))
    learner.restore_closure()
    for _ in range(10_000):
        hyp = learner.build_hypothesis()
        while True:
            repair = learner.make_sound(hyp)
            if repair is None:
                break
            _apply(learner, repair)
            learner.restore_closure()
            hyp = learner.build_hypothesis()
        ans = teacher.equiv_query(hyp.negotiation)
        if ans.equivalent:
            return hyp.negotiation
        if ans.sign == "positive":
            inst = learner.handle_positive(hyp, ans.word)
        else:
            inst = learner.handle_negative(hyp, ans.word)
        _apply(learner, inst)
        learner.restore_closure()
    raise AssertionError("did not converge")


class TestNegativeAlternativeRoute:
    def _capture_negative(self, target):
        """Drive the execution learner until the teacher returns a negative
        counterexample; hand back the learner, hypothesis, and word."""
        teacher = Teacher(target)
        learner = ExecLearner(teacher)
        from negotiations.model import empty_negotiation

        ans = teacher.equiv_query(empty_negotiation(target.alphabet))
        w = learner.canon(ans.word)
        learner.add_state(())
        learner.add_test(())
        learner.add_test(w)
        learner.out_extend(AbsentTransE((), w))
        learner.restore_closure()
        for _ in range(10_000):
            hyp = learner.build_hypothesis()
            while True:
                repair = learner.make_sound(hyp)
                if repair is None:
                    break
                _apply(learner, repair)
                learner.restore_closure()
                hyp = learner.build_hypothesis()
            ans = teacher.equiv_query(hyp.negotiation)
            if ans.equivalent:
                return None
            if ans.sign == "negative":
                return learner, hyp, learner.canon(ans.word)
            inst = learner.handle_positive(hyp, ans.word)
            _apply(learner, inst)
            learner.restore_closure()
        return None

    def test_paper_route_agrees_with_uniform_route(self):
        """The uniform projection-support route and the textual two-case
        route (composite suffix S(u,b,p).t') both produce verified Targets
        for the same negative counterexample."""
        captured = self._capture_negative(fixtures.two_period())
        assert captured is not None, "two_period never produced a negative counterexample"
        learner, hyp, w = captured
        alpha = learner.alpha

        uniform = learner.handle_negative(hyp, w)
        s = learner.supports[(uniform.u_prev, uniform.action, uniform.process)]
        assert learner.member(uniform.u_prev, s, uniform.r) != learner.member(
            uniform.u_next, uniform.r
        )

        # the textual route: split w at the first letter the TARGET rejects
        target = learner.teacher.target
        pre = traces.max_executable_prefix(target, w)
        assert pre.remainder, "counterexample fully executable in the target"
        b = min(
            traces.minimal_actions(alpha, pre.remainder), key=alpha.action_index
        )
        p = next(iter(alpha.dom[b]))
        letters = traces.projection(alpha, pre.prefix, p)
        words = learner._walk(hyp, letters)
        assert words is not None
        u = words[-1]
        s_ub = learner.supports[(u, b, p)]
        t_prime = next(
            t
            for t in learner.tests
            if (not t or p in traces.dmin(alpha, t)) and learner.member(u, s_ub, t)
        )
        t2 = learner.canon(s_ub + t_prime)
        sigma = tuple(x for sup in learner._support_seq(words, letters) for x in sup)
        if learner.member(u, t2) != learner.member(sigma, t2):
            alt = learner.path_binary_search(words, letters, t2)
        else:
            split = learner._distinguishing_test(u, sigma, p)
            assert split is not None
            alt = learner.path_binary_search(words, letters, split)
        s_alt = learner.supports[(alt.u_prev, alt.action, alt.process)]
        assert learner.member(alt.u_prev, s_alt, alt.r) != learner.member(
            alt.u_next, alt.r
        )


class TestStepConnection:
    def test_transitions_match_connecting_steps(self):
        """delta(m,b,p) = n iff the trace from I(m) to I(n) is a (b,p)-step
        (checked on sound fixtures via configuration search)."""
        from collections import deque

        from negotiations.model import compute_I, enabled_actions, step

        for target in (fixtures.fork(), fixtures.forked_periods(), fixtures.loop2()):
            alpha = target.alphabet
            I = {m: compute_I(target, m) for m in target.nodes}
            for (m, b, p), n in target.delta.items():
                # shortest trace connecting I(m) to I(n)
                start, goal = I[m], I[n]
                seen = {start}
                queue = deque([(start, ())])
                found = None
                while queue:
                    c, word = queue.popleft()
                    if c == goal and word:
                        found = word
                        break
                    if len(word) > 2 * len(target.nodes) + 4:
                        continue
                    for a in enabled_actions(target, c):
                        nxt = step(target, c, a)
                        if nxt not in seen:
                            seen.add(nxt)
                            queue.append((nxt, word + (a,)))
                if found is not None and found[0] == b:
                    assert traces.is_step(alpha, found, b, p)


class TestSuffixExchangeProperties:
    def test_suffix_exchange_between_parallel_steps(self):
        """ws1t1, ws2t2 in L with (b,p)-steps s1,s2 and co-prime t1,t2
        sharing p minimal: then dmin(t1) == dmin(t2) and ws1t2 in L."""
        target = fixtures.forked_periods()
        alpha = target.alphabet
        import oracles

        lang = oracles.language_upto(target, 9)
        cases = 0
        for w1 in lang:
            # split w1 = w . s . t at every pair of cut points
            for i in range(len(w1) + 1):
                for j in range(i, len(w1) + 1):
                    w, s, t = w1[:i], w1[i:j], w1[j:]
                    if not s or not t:
                        continue
                    if not traces.is_coprime(alpha, t):
                        continue
                    for p in alpha.processes:
                        if p not in traces.dmin(alpha, t):
                            continue
                        b = traces.min_action(alpha, s) if traces.is_coprime(alpha, s) else None
                        if b is None or not traces.is_step(alpha, s, b, p):
                            continue
                        for w2 in lang:
                            if len(w2) > 9 or w2[: len(w)] != w:
                                continue
                            rest = w2[len(w) :]
                            for jj in range(len(rest) + 1):
                                s2, t2 = rest[:jj], rest[jj:]
                                if not s2 or not t2:
                                    continue
                                if not traces.is_step(alpha, s2, b, p):
                                    continue
                                if not traces.is_coprime(alpha, t2):
                                    continue
                                if p not in traces.dmin(alpha, t2):
                                    continue
                                assert traces.dmin(alpha, t) == traces.dmin(alpha, t2)
                                assert member_exec(target, w + s + t2)
                                cases += 1
        assert cases > 0

    def test_accepted_continuations_share_dmin(self):
        """All accepted co-prime continuations of a trace share dmin."""
        target = fixtures.fork()
        alpha = target.alphabet
        import oracles

        lang = oracles.language_upto(target, 6)
        for w1 in lang:
            for i in range(len(w1)):
                u, t = w1[:i], w1[i:]
                if not traces.is_coprime(alpha, t):
                    continue
                for w2 in lang:
                    if w2[:i] == u and traces.is_coprime(alpha, w2[i:]):
                        assert traces.dmin(alpha, w2[i:]) == traces.dmin(alpha, t)
