import os
import random
import subprocess
import sys
from itertools import product

import pytest

import negotiations

from negotiations.automata import (
    PartialDfa,
    is_dom_complete,
    minimize,
    minimize_negotiation,
    neg_equiv,
    negotiation_from_dfa,
    paths_dfa,
    trim,
)
from negotiations.errors import (
    AlphabetMismatch,
    FinalHasOutgoing,
    MultipleFinals,
    NotDomComplete,
)
from negotiations.model import DistributedAlphabet, Negotiation, member_exec, validate

import fixtures
import oracles


def renamed_fork():
    n = fixtures.fork()
    ren = {"n0": "m0", "n1": "m1", "n2": "m2", "n3": "m3", "nf": "mf"}
    return Negotiation(
        alphabet=n.alphabet,
        nodes=tuple(ren[m] for m in n.nodes),
        dnode={ren[m]: d for m, d in n.dnode.items()},
        delta={(ren[m], a, p): ren[t] for (m, a, p), t in n.delta.items()},
        init="m0",
        fin="mf",
    )


def duplicated_fork():
    """fork() with the x-branch split into two trace-equal halves."""
    n = fixtures.fork()
    alpha = n.alphabet
    return Negotiation(
        alphabet=alpha,
        nodes=("n0", "n1a", "n1b", "n2", "n3", "nf"),
        dnode={
            "n0": ("p", "q"),
            "n1a": ("p",),
            "n1b": ("p",),
            "n2": ("q",),
            "n3": ("p", "q"),
            "nf": ("p", "q"),
        },
        delta={
            ("n0", "c", "p"): "n1a",
            ("n0", "c", "q"): "n2",
            ("n1a", "x", "p"): "n1b",
            ("n1b", "x", "p"): "n3",
            ("n2", "y", "q"): "n3",
            ("n3", "d", "p"): "nf",
            ("n3", "d", "q"): "nf",
        },
        init="n0",
        fin="nf",
    )


class TestPathsDfa:
    def test_fork_shape(self):
        dfa = paths_dfa(fixtures.fork())
        assert len(dfa.states) == 5
        assert dfa.accepts((("c", "p"), ("x", "p"), ("d", "p")))
        assert dfa.accepts((("c", "q"), ("y", "q"), ("d", "q")))
        assert not dfa.accepts((("c", "p"), ("x", "p")))

    def test_ping_chain(self):
        dfa = paths_dfa(fixtures.ping())
        assert len(dfa.states) == 3

    def test_acceptance_vs_brute_paths(self):
        for n in (fixtures.fork(), fixtures.ping(), fixtures.editorial()):
            dfa = paths_dfa(n)
            expected = oracles.brute_paths(n, 8)
            letters = n.alphabet.local_letters()
            from itertools import product

            for length in range(5):
                for word in product(letters, repeat=length):
                    assert dfa.accepts(word) == (word in expected)


class TestMinimize:
    def test_fork_already_minimal(self):
        dfa = minimize(paths_dfa(fixtures.fork()))
        assert len(dfa.states) == 5

    def test_duplicated_branches_merge(self):
        plain = minimize(paths_dfa(fixtures.fork()))
        dup = minimize(paths_dfa(duplicated_fork()))
        # the duplicated x branch is not language-equal to fork's, so build
        # the Nerode classes by brute force instead of comparing to plain
        n = duplicated_fork()
        words = oracles.brute_paths(n, 8)
        assert len(dup.states) == 6  # one more than fork: the extra x step
        assert dup.accepts((("c", "p"), ("x", "p"), ("x", "p"), ("d", "p")))
        assert len(plain.states) == 5

    def test_empty_language(self):
        n = fixtures.fork_unsound()
        # no local path reaches fin on the p-side once d is gone
        dfa = minimize(paths_dfa(n))
        assert dfa.finals == frozenset() and len(dfa.states) == 1

    def test_empty_language_with_a_self_loop_on_init(self):
        """Trimming keeps the initial state and its self-loop even when no
        final state is reachable; the minimal form is the one-state DFA."""
        dfa = PartialDfa(
            alphabet=fixtures.fork().alphabet,
            states=("s0", "s1"),
            delta={("s0", ("x", "p")): "s0", ("s1", ("y", "q")): "s1"},
            init="s0",
            finals=frozenset({"s1"}),
        )
        assert minimize(dfa) == PartialDfa(dfa.alphabet, ("s0",), {}, "s0", frozenset())

    def test_random_partial_dfas(self):
        """On random untrimmed partial DFAs the minimal form accepts the
        same words up to length 4, is its own minimal form, and has every
        state reachable and co-reachable."""
        alpha = DistributedAlphabet(("p", "q"), ("a", "b"), {"a": ("p", "q"), "b": ("p",)})
        letters = alpha.local_letters()
        words = [w for k in range(5) for w in product(letters, repeat=k)]
        rng = random.Random(3)
        for _ in range(150):
            states = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
            delta = {(s, l): rng.choice(states) for s in states for l in letters
                     if rng.random() < 0.5}
            finals = frozenset(s for s in states if rng.random() < 0.4)
            dfa = PartialDfa(alpha, states, delta, rng.choice(states), finals)
            small = minimize(dfa)
            assert [small.accepts(w) for w in words] == [dfa.accepts(w) for w in words]
            assert minimize(small) == small
            if small.finals:
                assert trim(small) == small
            else:
                assert small == PartialDfa(alpha, ("s0",), {}, "s0", frozenset())

    def test_nerode_inequivalence_of_states(self):
        """No two minimized states share all residuals up to length 18: a
        BFS over state pairs (None where a state has no move) finds, within
        18 letters, a word that reaches a final state from exactly one of
        the two, which holds exactly when the bounded residual sets differ."""

        def distinguished(dfa, s1, s2, max_len):
            letters = dfa.alphabet.local_letters()
            level = [(s1, s2)]
            seen = set(level)
            for _ in range(max_len + 1):
                following = []
                for x, y in level:
                    if (x in dfa.finals) != (y in dfa.finals):
                        return True
                    for l in letters:
                        pair = (dfa.delta.get((x, l)), dfa.delta.get((y, l)))
                        if pair != (None, None) and pair not in seen:
                            seen.add(pair)
                            following.append(pair)
                level = following
            return False

        for n in (fixtures.fork(), fixtures.editorial(), fixtures.mod15()):
            dfa = minimize(paths_dfa(n))
            states = dfa.states
            for i, s1 in enumerate(states):
                for s2 in states[i + 1:]:
                    assert distinguished(dfa, s1, s2, 18), (s1, s2)


class TestDomComplete:
    def test_fork_minimal_is_dom_complete(self):
        ok, violations = is_dom_complete(minimize(paths_dfa(fixtures.fork())))
        assert ok, violations

    def test_missing_partner_letter(self):
        n = fixtures.fork()
        dfa = paths_dfa(n)
        broken = PartialDfa(
            alphabet=dfa.alphabet,
            states=dfa.states,
            delta={k: v for k, v in dfa.delta.items() if k[1] != ("c", "q")},
            init=dfa.init,
            finals=dfa.finals,
        )
        ok, violations = is_dom_complete(broken)
        assert not ok
        assert any("c@q missing" in v for v in violations)

    def test_init_needs_full_domain_letter(self):
        alpha = fixtures.fork().alphabet
        dfa = PartialDfa(
            alphabet=alpha,
            states=("s0", "s1"),
            delta={("s0", ("x", "p")): "s1"},
            init="s0",
            finals=frozenset({"s1"}),
        )
        ok, violations = is_dom_complete(dfa)
        assert not ok
        assert any("full process domain" in v for v in violations)


    def test_message_independent_of_hash_seed(self):
        """The present letter named in a violation is the first in process
        order, whatever order the set of present processes iterates in."""
        code = (
            "from negotiations.automata import PartialDfa, is_dom_complete\n"
            "from negotiations.model import DistributedAlphabet\n"
            "alpha = DistributedAlphabet(('p0', 'p1', 'p2'), ('a',), {'a': ('p0', 'p1', 'p2')})\n"
            "dfa = PartialDfa(alpha, ('s0', 's1'), {('s0', ('a', 'p1')): 's1',"
            " ('s0', ('a', 'p2')): 's1'}, 's0', frozenset({'s1'}))\n"
            "print(is_dom_complete(dfa)[1][0])\n"
        )
        src = os.path.dirname(os.path.dirname(negotiations.__file__))
        for seed in range(6):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout
            assert out == "state 's0': a@p1 present but a@p0 missing\n", (seed, out)

    def test_actions_with_differing_domains(self):
        alpha = fixtures.fork().alphabet
        dfa = PartialDfa(
            alphabet=alpha,
            states=("s0", "s1"),
            delta={("s0", ("c", "p")): "s1", ("s0", ("c", "q")): "s1", ("s0", ("x", "p")): "s1"},
            init="s0",
            finals=frozenset({"s1"}),
        )
        assert is_dom_complete(dfa) == (
            False, ["state 's0': outgoing actions ['c', 'x'] have differing domains"])


class TestPartialDfa:
    @pytest.mark.parametrize("change,message", [
        ({"init": "s9"}, "initial state not declared"),
        ({"finals": {"s1", "s9"}}, "final states not declared"),
        ({"delta": {("s9", ("c", "p")): "s1"}}, "references unknown state"),
        ({"delta": {("s0", ("c", "p")): "s9"}}, "references unknown state"),
        ({"delta": {("s0", ("zz", "p")): "s1"}}, "illegal letter zz@p"),
        ({"delta": {("s0", ("x", "q")): "s1"}}, "illegal letter x@q"),
    ])
    def test_constructor_checks(self, change, message):
        fields = dict(alphabet=fixtures.fork().alphabet, states=("s0", "s1"),
                      delta={("s0", ("c", "p")): "s1"}, init="s0", finals={"s1"})
        with pytest.raises(ValueError, match=message):
            PartialDfa(**{**fields, **change})


class TestNegotiationFromDfa:
    def test_fork_round_trip(self):
        n = fixtures.fork()
        rebuilt = negotiation_from_dfa(minimize(paths_dfa(n)))
        assert validate(rebuilt) == []
        for w in oracles.all_words(n.alphabet.actions, 5):
            assert member_exec(rebuilt, w) == member_exec(n, w)

    def test_ping_round_trip(self):
        n = fixtures.ping()
        rebuilt = negotiation_from_dfa(minimize(paths_dfa(n)))
        assert neg_equiv(rebuilt, n)

    def test_final_has_outgoing(self):
        alpha = fixtures.ping().alphabet
        dfa = PartialDfa(
            alphabet=alpha,
            states=("s0", "s1"),
            delta={
                ("s0", ("a", "p")): "s1",
                ("s0", ("a", "q")): "s1",
                ("s1", ("b", "p")): "s1",
                ("s1", ("b", "q")): "s1",
            },
            init="s0",
            finals=frozenset({"s1"}),
        )
        with pytest.raises(FinalHasOutgoing):
            negotiation_from_dfa(dfa)

    def test_two_finals(self):
        dfa = PartialDfa(
            alphabet=fixtures.fork().alphabet,
            states=("s0", "s1", "s2"),
            delta={("s0", ("c", "p")): "s1", ("s0", ("c", "q")): "s1"},
            init="s0",
            finals=frozenset({"s1", "s2"}),
        )
        with pytest.raises(MultipleFinals, match=r"got \['s1', 's2'\]"):
            negotiation_from_dfa(dfa)

    def test_non_final_state_with_no_letters(self):
        dfa = PartialDfa(
            alphabet=fixtures.fork().alphabet,
            states=("s0", "s1", "s2"),
            delta={("s0", ("c", "p")): "s1", ("s0", ("c", "q")): "s1"},
            init="s0",
            finals=frozenset({"s1"}),
        )
        with pytest.raises(NotDomComplete, match="state 's2' has no outgoing letters"):
            negotiation_from_dfa(dfa)

    def test_not_dom_complete(self):
        alpha = fixtures.fork().alphabet
        dfa = PartialDfa(
            alphabet=alpha,
            states=("s0", "s1"),
            delta={("s0", ("c", "p")): "s1"},
            init="s0",
            finals=frozenset({"s1"}),
        )
        with pytest.raises(NotDomComplete):
            negotiation_from_dfa(dfa)


class TestMinimizeNegotiation:
    def test_fork_node_count(self):
        assert len(minimize_negotiation(fixtures.fork()).nodes) == 5

    def test_duplicated_layer_shrinks(self):
        n = fixtures.fork()
        dup = duplicated_fork()
        small = minimize_negotiation(dup)
        assert len(small.nodes) < len(dup.nodes) + 1  # merges nothing extra here
        # a genuinely redundant duplicate: same language, more nodes
        red = Negotiation(
            alphabet=n.alphabet,
            nodes=("n0", "n1", "n2", "n3", "n3bis", "nf"),
            dnode={
                "n0": ("p", "q"),
                "n1": ("p",),
                "n2": ("q",),
                "n3": ("p", "q"),
                "n3bis": ("p", "q"),
                "nf": ("p", "q"),
            },
            delta={
                ("n0", "c", "p"): "n1",
                ("n0", "c", "q"): "n2",
                ("n1", "x", "p"): "n3",
                ("n2", "y", "q"): "n3bis",
                ("n3", "d", "p"): "nf",
                ("n3", "d", "q"): "nf",
                ("n3bis", "d", "p"): "nf",
                ("n3bis", "d", "q"): "nf",
            },
            init="n0",
            fin="nf",
        )
        # n3 / n3bis have identical residuals; minimization merges them
        assert len(minimize_negotiation(red).nodes) == 5
        assert neg_equiv(minimize_negotiation(red), n)

    def test_idempotent(self):
        for n in (fixtures.fork(), fixtures.editorial(), fixtures.mod15()):
            once = minimize_negotiation(n)
            twice = minimize_negotiation(once)
            assert once == twice


class TestHomomorphism:
    def test_fork_identity_like(self):
        n = fixtures.fork()
        m = minimize_negotiation(n)
        h = oracles.homomorphism(n, m)
        assert h is not None
        assert len(set(h.values())) == len(n.nodes)

    def test_duplicate_nodes_collapse(self):
        n = fixtures.fork()
        red_nodes = TestMinimizeNegotiation()
        # reuse the redundant fixture from above
        red = Negotiation(
            alphabet=n.alphabet,
            nodes=("n0", "n1", "n2", "n3", "n3bis", "nf"),
            dnode={
                "n0": ("p", "q"),
                "n1": ("p",),
                "n2": ("q",),
                "n3": ("p", "q"),
                "n3bis": ("p", "q"),
                "nf": ("p", "q"),
            },
            delta={
                ("n0", "c", "p"): "n1",
                ("n0", "c", "q"): "n2",
                ("n1", "x", "p"): "n3",
                ("n2", "y", "q"): "n3bis",
                ("n3", "d", "p"): "nf",
                ("n3", "d", "q"): "nf",
                ("n3bis", "d", "p"): "nf",
                ("n3bis", "d", "q"): "nf",
            },
            init="n0",
            fin="nf",
        )
        m = minimize_negotiation(red)
        h = oracles.homomorphism(red, m)
        assert h is not None
        assert h["n3"] == h["n3bis"]

    def test_verified_edge_by_edge(self):
        for n in (fixtures.ping(), fixtures.editorial(), fixtures.mod15()):
            m = minimize_negotiation(n)
            h = oracles.homomorphism(n, m)
            assert h is not None
            for (src, a, p), t in n.delta.items():
                assert m.delta[(h[src], a, p)] == h[t]


class TestProjectionAcceptance:
    def test_all_projections_accepted_implies_membership(self):
        """If every per-process projection is a complete local path, the
        word is a successful execution (language words, shuffles, noise)."""
        import random

        from negotiations import traces

        rng = random.Random(11)
        for n in (fixtures.fork(), fixtures.editorial(), fixtures.forked_periods()):
            dfa = paths_dfa(n)
            pool = list(oracles.language_upto(n, 8))
            for base in list(pool):
                scrambled = list(base)
                rng.shuffle(scrambled)
                pool.append(tuple(scrambled))
            for _ in range(2000):
                pool.append(tuple(rng.choice(n.alphabet.actions) for _ in range(rng.randrange(8))))
            hits = 0
            for w in pool:
                if all(
                    dfa.accepts(traces.projection(n.alphabet, w, p))
                    for p in n.alphabet.processes
                ):
                    hits += 1
                    assert member_exec(n, w)
            assert hits > 0


class TestNegEquiv:
    def test_renamed(self):
        assert neg_equiv(fixtures.fork(), renamed_fork())

    def test_different(self):
        n1 = fixtures.fork()
        alpha = n1.alphabet
        # same alphabet, different language: skip the x step
        other = Negotiation(
            alphabet=alpha,
            nodes=("n0", "n1", "n2", "n3", "nf"),
            dnode=fixtures.fork().dnode,
            delta={
                ("n0", "c", "p"): "n1",
                ("n0", "c", "q"): "n2",
                ("n1", "x", "p"): "n3",
                ("n2", "y", "q"): "n3",
                ("n3", "d", "p"): "nf",
                ("n3", "d", "q"): "nf",
                ("n1", "d", "p"): "nf",  # illegal-ish but deterministic
            },
            init="n0",
            fin="nf",
        )
        # use two honest fixtures instead: fork vs loop-extended fork
        assert not neg_equiv(fixtures.fork(), duplicated_fork())

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            neg_equiv(fixtures.fork(), fixtures.ping())

    def test_agreement_with_product_oracle(self):
        pairs = [
            (fixtures.fork(), renamed_fork(), True),
            (fixtures.fork(), duplicated_fork(), False),
            (fixtures.ping(), fixtures.ping(), True),
        ]
        for n1, n2, expected in pairs:
            assert neg_equiv(n1, n2) == expected
            assert (oracles.shortest_difference(n1, n2, 10) is None) == expected
