import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negotiations.errors import NotCoprime, ProcessNotInDmin, UnknownAction
from negotiations.model import DistributedAlphabet, walk
from negotiations import traces

import fixtures
import oracles


def tiny_alpha():
    """5 actions over 3 processes; the acceptance-suite alphabet."""
    return DistributedAlphabet(
        processes=("p", "q", "r"),
        actions=("a", "b", "c", "d", "e"),
        dom={
            "a": ("p", "q", "r"),
            "b": ("p", "q"),
            "c": ("q", "r"),
            "d": ("p",),
            "e": ("r",),
        },
    )


FORK_ALPHA = fixtures.fork().alphabet


words = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]), max_size=6
).map(tuple)


class TestNormalForm:
    def test_fork_swap(self):
        assert traces.normal_form(FORK_ALPHA, ("c", "y", "x", "d")) == ("c", "x", "y", "d")

    def test_already_least(self):
        assert traces.normal_form(FORK_ALPHA, ("c", "x", "y", "d")) == ("c", "x", "y", "d")

    @settings(max_examples=300, deadline=None)
    @given(words)
    def test_matches_brute_force(self, w):
        alpha = tiny_alpha()
        assert traces.normal_form(alpha, w) == oracles.brute_normal_form(alpha, w)

    @settings(max_examples=150, deadline=None)
    @given(words)
    def test_idempotent_and_class_invariant(self, w):
        alpha = tiny_alpha()
        nf = traces.normal_form(alpha, w)
        assert traces.normal_form(alpha, nf) == nf
        for v in oracles.trace_closure(alpha, w):
            assert traces.normal_form(alpha, v) == nf

    @pytest.mark.parametrize("w", [("zz",), ("c", "zz")])
    def test_unknown_letter(self, w):
        with pytest.raises(UnknownAction):
            traces.normal_form(FORK_ALPHA, w)


LONG_WORD_ALPHABETS = {
    name: getattr(fixtures, name)().alphabet
    for name in ("mod15", "forked_periods", "editorial")
}


@st.composite
def long_words(draw):
    """A word of 0-96 letters over one of the fixture alphabets; the
    benchmark's membership stream sends executions of 32-96 letters."""
    alpha = draw(st.sampled_from(sorted(LONG_WORD_ALPHABETS)).map(LONG_WORD_ALPHABETS.get))
    size = draw(st.integers(min_value=0, max_value=96))
    letters = st.sampled_from(alpha.actions)
    return alpha, tuple(draw(st.lists(letters, min_size=size, max_size=size)))


class TestAgainstPairwiseOracles:
    @settings(max_examples=150, deadline=None)
    @given(long_words())
    def test_normal_form(self, case):
        alpha, w = case
        assert traces.normal_form(alpha, w) == oracles.greedy_normal_form(alpha, w)

    @settings(max_examples=150, deadline=None)
    @given(long_words())
    def test_minimal_event_indices(self, case):
        alpha, w = case
        assert traces.minimal_event_indices(alpha, w) == (
            oracles.pairwise_minimal_event_indices(alpha, w)
        )

    @settings(max_examples=150, deadline=None)
    @given(long_words(), st.integers(min_value=0, max_value=95))
    def test_upward_closure_indices(self, case, e):
        alpha, w = case
        if not w:
            return
        e %= len(w)
        assert traces.upward_closure_indices(alpha, w, e) == (
            oracles.pairwise_upward_closure_indices(alpha, w, e)
        )

    @settings(max_examples=150, deadline=None)
    @given(long_words(), st.integers(min_value=0, max_value=96))
    def test_quotient_by_normal_form_prefix(self, case, k):
        alpha, w = case
        nf = oracles.greedy_normal_form(alpha, w)
        rest = traces.trace_quotient(alpha, nf[:k], w)
        assert rest is not None
        assert oracles.greedy_normal_form(alpha, nf[:k] + rest) == nf


class TestTraceEqual:
    def test_fork_pairs(self):
        assert oracles.trace_equal(FORK_ALPHA, ("c", "x", "y", "d"), ("c", "y", "x", "d"))
        assert not oracles.trace_equal(FORK_ALPHA, ("c", "x"), ("x", "c"))

    @settings(max_examples=150, deadline=None)
    @given(words, words)
    def test_matches_brute_force(self, u, v):
        alpha = tiny_alpha()
        assert oracles.trace_equal(alpha, u, v) == oracles.brute_trace_equal(alpha, u, v)


class TestMinimalActions:
    def test_fork(self):
        assert traces.minimal_actions(FORK_ALPHA, ("x", "y")) == {"x", "y"}
        assert traces.minimal_actions(FORK_ALPHA, ("c", "x", "y", "d")) == {"c"}
        assert traces.minimal_actions(FORK_ALPHA, ()) == set()

    @settings(max_examples=200, deadline=None)
    @given(words)
    def test_matches_brute_force(self, w):
        alpha = tiny_alpha()
        assert traces.minimal_actions(alpha, w) == oracles.brute_minimal_actions(alpha, w)


class TestQuotient:
    def test_fork_examples(self):
        got = traces.trace_quotient(FORK_ALPHA, ("c", "x"), ("c", "y", "x", "d"))
        assert got is not None
        assert oracles.trace_equal(FORK_ALPHA, got, ("y", "d"))
        assert traces.trace_quotient(FORK_ALPHA, ("x",), ("c", "x")) is None

    @pytest.mark.parametrize("u, w", [(("zz",), ("c",)), ((), ("c", "zz"))])
    def test_unknown_letter(self, u, w):
        with pytest.raises(UnknownAction):
            traces.trace_quotient(FORK_ALPHA, u, w)

    @settings(max_examples=200, deadline=None)
    @given(words, words)
    def test_matches_brute_force(self, u, w):
        alpha = tiny_alpha()
        got = traces.trace_quotient(alpha, u, w)
        expected = oracles.brute_quotient(alpha, u, w)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert oracles.trace_equal(alpha, tuple(u) + got, w)

    @settings(max_examples=100, deadline=None)
    @given(words, words)
    def test_recomposition(self, u, w):
        alpha = tiny_alpha()
        got = traces.trace_quotient(alpha, u, w)
        if got is not None:
            assert traces.normal_form(alpha, tuple(u) + got) == traces.normal_form(alpha, w)


class TestCoprime:
    def test_fork_examples(self):
        assert traces.is_coprime(FORK_ALPHA, ("c", "x", "y", "d"))
        assert traces.dmin(FORK_ALPHA, ("c", "x", "y", "d")) == {"p", "q"}
        assert not traces.is_coprime(FORK_ALPHA, ("x", "y"))
        assert not traces.is_coprime(FORK_ALPHA, ())

    def test_dmin_errors(self):
        with pytest.raises(NotCoprime):
            traces.dmin(FORK_ALPHA, ("x", "y"))

    @settings(max_examples=200, deadline=None)
    @given(words)
    def test_matches_brute_force(self, t):
        alpha = tiny_alpha()
        assert traces.is_coprime(alpha, t) == oracles.brute_is_coprime(alpha, t)


class TestIsStep:
    def test_examples(self):
        assert traces.is_step(FORK_ALPHA, ("c", "x"), "c", "q")
        assert not traces.is_step(FORK_ALPHA, ("c", "x", "d"), "c", "q")
        assert traces.is_step(FORK_ALPHA, ("c",), "c", "p")

    def test_minimal_action_must_be_b(self):
        # c is the only action of the trace involving r, but b is minimal
        assert not traces.is_step(tiny_alpha(), ("b", "c"), "c", "r")

    def test_empty_or_not_coprime_is_no_step(self):
        assert not traces.is_step(FORK_ALPHA, (), "c", "p")
        # x and y are both minimal: two minimal events
        assert not traces.is_step(FORK_ALPHA, ("x", "y"), "x", "p")


class TestProjection:
    def test_fork(self):
        assert traces.projection(FORK_ALPHA, ("c", "x", "y", "d"), "p") == (
            ("c", "p"),
            ("x", "p"),
            ("d", "p"),
        )
        assert traces.projection(FORK_ALPHA, (), "p") == ()

    def test_editorial_na(self):
        n = fixtures.editorial()
        w = ("appl", "setup", "dinit", "svote", "vote", "dec")
        assert traces.projection(n.alphabet, w, "NA") == (
            ("appl", "NA"),
            ("setup", "NA"),
            ("dec", "NA"),
        )


class TestUpwardClosure:
    def test_fork_bottom(self):
        rest, closure = traces.upward_closure_split(FORK_ALPHA, ("c", "x", "y", "d"), 0)
        assert rest == ()
        assert closure == ("c", "x", "y", "d")

    def test_fork_top(self):
        rest, closure = traces.upward_closure_split(FORK_ALPHA, ("c", "x", "y", "d"), 3)
        assert rest == ("c", "x", "y")
        assert closure == ("d",)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            traces.upward_closure_split(FORK_ALPHA, ("c",), 3)

    @settings(max_examples=200, deadline=None)
    @given(words, st.integers(min_value=0, max_value=5))
    def test_split_laws(self, w, e):
        alpha = tiny_alpha()
        if e >= len(w):
            return
        rest, closure = traces.upward_closure_split(alpha, w, e)
        assert oracles.trace_equal(alpha, rest + closure, w)
        assert traces.is_coprime(alpha, closure)
        assert traces.min_action(alpha, closure) == w[e]


class TestStepDecomposition:
    def test_tail_empty(self):
        dec = traces.step_decomposition(FORK_ALPHA, ("c", "x"), "q")
        assert dec.head == "c" and dec.body == ("x",) and dec.tail == ()

    def test_tail_second_event(self):
        dec = traces.step_decomposition(FORK_ALPHA, ("c", "x", "d"), "q")
        assert dec.head == "c" and dec.body == ("x",) and dec.tail == ("d",)

    def test_full_fork_word(self):
        # tail must stay co-prime, so the independent other-process event
        # lands in the body: the support advances q far enough that p's
        # target is the only enabled node (and symmetrically for q)
        dec_p = traces.step_decomposition(FORK_ALPHA, ("c", "x", "y", "d"), "p")
        assert dec_p.support == ("c", "y")
        assert dec_p.tail == ("x", "d")
        dec_q = traces.step_decomposition(FORK_ALPHA, ("c", "x", "y", "d"), "q")
        assert dec_q.support == ("c", "x")
        assert dec_q.tail == ("y", "d")

    def test_errors(self):
        with pytest.raises(NotCoprime):
            traces.step_decomposition(FORK_ALPHA, ("x", "y"), "p")
        with pytest.raises(ProcessNotInDmin):
            traces.step_decomposition(FORK_ALPHA, ("x",), "q")

    @settings(max_examples=300, deadline=None)
    @given(words, st.sampled_from(["p", "q", "r"]))
    def test_laws(self, r, p):
        alpha = tiny_alpha()
        if not traces.is_coprime(alpha, r) or p not in traces.dmin(alpha, r):
            return
        dec = traces.step_decomposition(alpha, r, p)
        assert oracles.trace_equal(alpha, (dec.head,) + dec.body + dec.tail, r)
        assert all(p not in alpha.dom_set(a) for a in dec.body)
        assert dec.tail == () or (
            traces.is_coprime(alpha, dec.tail) and p in traces.dmin(alpha, dec.tail)
        )
        assert traces.is_step(alpha, dec.support, dec.head, p)


class TestMaxExecutablePrefix:
    def test_fork_full(self):
        n = fixtures.fork()
        res = traces.max_executable_prefix(n, ("c", "x", "y", "d"))
        assert oracles.trace_equal(n.alphabet, res.prefix, ("c", "x", "y", "d"))
        assert res.remainder == ()

    def test_fork_missing_y(self):
        n = fixtures.fork()
        broken = {k: v for k, v in n.delta.items() if k[1] != "y"}
        from negotiations.model import Negotiation

        crippled = Negotiation(n.alphabet, n.nodes, n.dnode, broken, n.init, n.fin)
        res = traces.max_executable_prefix(crippled, ("c", "x", "y", "d"))
        assert oracles.trace_equal(n.alphabet, res.prefix, ("c", "x"))
        assert oracles.trace_equal(n.alphabet, res.remainder, ("y", "d"))

    def test_projection_walks_visit_the_fired_nodes(self):
        """Each process's nodes are the walk along its projection."""
        n = fixtures.fork()
        res = traces.max_executable_prefix(n, ("c", "y", "x", "d"))
        walked = {p: walk(n, n.init, traces.projection(n.alphabet, res.prefix, p))
                  for p in n.alphabet.processes}
        assert walked == {"p": ["n0", "n1", "n3", "nf"], "q": ["n0", "n2", "n3", "nf"]}

    def test_randomized_schedules_agree(self):
        """Confluence: randomized firing orders give the same prefix trace."""
        rng = random.Random(13)
        n = fixtures.editorial()
        actions = n.alphabet.actions
        for _ in range(60):
            w = tuple(rng.choice(actions) for _ in range(rng.randrange(8)))
            base = traces.max_executable_prefix(n, w)
            for seed in range(4):
                res = traces.max_executable_prefix(n, w, rng=random.Random(seed))
                assert oracles.trace_equal(n.alphabet, res.prefix, base.prefix)
                assert oracles.trace_equal(n.alphabet, res.remainder, base.remainder)
                assert res.end == base.end

    def test_prefix_reaches_end_and_remainder_blocked(self):
        from negotiations.model import run_execution, enabled_actions

        rng = random.Random(5)
        n = fixtures.fork_unsound()
        actions = n.alphabet.actions
        for _ in range(80):
            w = tuple(rng.choice(actions) for _ in range(rng.randrange(7)))
            res = traces.max_executable_prefix(n, w)
            out = run_execution(n, res.prefix)
            assert out.fired == len(res.prefix)
            assert out.end == res.end
            blocked = traces.minimal_actions(n.alphabet, res.remainder)
            assert not blocked & set(enabled_actions(n, res.end))
