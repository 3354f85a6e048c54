import random

import pytest

from negotiations.errors import CycleBudgetExceeded
from negotiations.model import Configuration, DistributedAlphabet, Negotiation, validate
from negotiations.soundness import (
    BWitness,
    CWitness,
    FWitness,
    find_any_pattern,
    find_pattern_B,
    find_pattern_C,
    find_pattern_F,
    is_sound_semantic,
    verify_witness,
)
from negotiations.generate import GenParams, generate

import fixtures


def mutate(n: Negotiation, rng: random.Random):
    """A random validity-preserving mutation: retarget one action's
    transition for one process, or delete one action's transitions wholesale
    (only when its source keeps another outgoing action)."""
    keys = sorted(n.delta)
    for _ in range(40):
        mode = rng.choice(("retarget", "delete"))
        if mode == "retarget":
            m, a, p = keys[rng.randrange(len(keys))]
            candidates = [t for t in n.nodes if p in n.dnode_set(t) and t != n.delta[(m, a, p)]]
            if not candidates:
                continue
            delta = dict(n.delta)
            delta[(m, a, p)] = rng.choice(candidates)
        else:
            m, a, _ = keys[rng.randrange(len(keys))]
            if len(n.out(m)) < 2:
                continue
            delta = {k: v for k, v in n.delta.items() if (k[0], k[1]) != (m, a)}
        mutant = Negotiation(n.alphabet, n.nodes, n.dnode, delta, n.init, n.fin)
        if validate(mutant) == []:
            return mutant
    return None


def undominated_cycle_fixture():
    """p shuttles between two rendezvous nodes A {p,q} and B {p,r}; the
    A-B-A cycle touches all three processes but neither node dominates it."""
    alpha = DistributedAlphabet(
        processes=("p", "q", "r"),
        actions=("s", "g", "h", "e", "f"),
        dom={
            "s": ("p", "q", "r"),
            "g": ("p", "q"),
            "h": ("p", "r"),
            "e": ("p", "q"),
            "f": ("p", "r"),
        },
    )
    return Negotiation(
        alphabet=alpha,
        nodes=("n0", "A", "B", "nf"),
        dnode={"n0": ("p", "q", "r"), "A": ("p", "q"), "B": ("p", "r"), "nf": ("p", "q", "r")},
        delta={
            ("n0", "s", "p"): "A",
            ("n0", "s", "q"): "A",
            ("n0", "s", "r"): "B",
            ("A", "g", "p"): "B",
            ("A", "g", "q"): "A",
            ("B", "h", "p"): "A",
            ("B", "h", "r"): "B",
            ("A", "e", "p"): "nf",
            ("A", "e", "q"): "nf",
            ("B", "f", "p"): "nf",
            ("B", "f", "r"): "nf",
        },
        init="n0",
        fin="nf",
    )


class TestSemantic:
    def test_fork_sound(self):
        assert is_sound_semantic(fixtures.fork()).sound

    def test_fork_unsound_witness(self):
        res = is_sound_semantic(fixtures.fork_unsound())
        assert not res.sound
        assert res.counterexample == Configuration(("p", "q"), ("n3", "n3"))

    def test_fixtures(self):
        for n in (fixtures.ping(), fixtures.loop2(), fixtures.mod15(), fixtures.editorial()):
            assert is_sound_semantic(n).sound
        assert not is_sound_semantic(fixtures.fork_split()).sound


class TestPatternB:
    def test_sound_fork_none(self):
        assert find_pattern_B(fixtures.fork()) is None

    def test_retargeted_join(self):
        n = fixtures.fork()
        delta = dict(n.delta)
        delta[("n3", "d", "q")] = "n2"
        mutant = Negotiation(n.alphabet, n.nodes, n.dnode, delta, n.init, n.fin)
        w = find_pattern_B(mutant)
        assert w is not None
        assert verify_witness(mutant, w)

    def test_dangling_branch(self):
        alpha = DistributedAlphabet(
            processes=("p", "q"),
            actions=("a", "x", "z", "b"),
            dom={"a": ("p", "q"), "x": ("p",), "z": ("p",), "b": ("p", "q")},
        )
        n = Negotiation(
            alphabet=alpha,
            nodes=("n0", "n1", "n2", "trap", "nf"),
            dnode={
                "n0": ("p", "q"),
                "n1": ("p",),
                "n2": ("p", "q"),
                "trap": ("p",),
                "nf": ("p", "q"),
            },
            delta={
                ("n0", "a", "p"): "n1",
                ("n0", "a", "q"): "n2",
                ("n1", "x", "p"): "n2",
                ("n1", "z", "p"): "trap",
                ("n2", "b", "p"): "nf",
                ("n2", "b", "q"): "nf",
            },
            init="n0",
            fin="nf",
        )
        assert validate(n) == []
        w = find_pattern_B(n)
        assert w is not None and w.blocked_node == "trap"
        assert verify_witness(n, w)


class TestPatternC:
    def test_dominated_loop_none(self):
        assert find_pattern_C(fixtures.loop2()) is None

    def test_two_disjoint_loops_feeding_join(self):
        # p and q each loop alone; the shared exit action requires both, and
        # the joint loop through both halves has no dominating node
        alpha = DistributedAlphabet(
            processes=("p", "q"),
            actions=("a", "u", "v", "e"),
            dom={"a": ("p", "q"), "u": ("p", "q"), "v": ("p", "q"), "e": ("p", "q")},
        )
        n = Negotiation(
            alphabet=alpha,
            nodes=("n0", "m1", "m2", "nf"),
            dnode={"n0": ("p", "q"), "m1": ("p", "q"), "m2": ("p", "q"), "nf": ("p", "q")},
            delta={
                ("n0", "a", "p"): "m1",
                ("n0", "a", "q"): "m2",
                ("m1", "u", "p"): "m1",
                ("m1", "u", "q"): "m2",
                ("m2", "v", "p"): "m1",
                ("m2", "v", "q"): "m2",
                ("m1", "e", "p"): "nf",
                ("m1", "e", "q"): "nf",
            },
            init="n0",
            fin="nf",
        )
        assert validate(n) == []
        # semantically unsound: after `a`, p sits in m1 and q in m2 forever
        assert not is_sound_semantic(n).sound
        w = find_any_pattern(n)
        assert w is not None
        assert verify_witness(n, w)

    def test_undominated_two_node_cycle(self):
        n = undominated_cycle_fixture()
        assert validate(n) == []
        assert not is_sound_semantic(n).sound
        assert find_pattern_B(n) is None
        w = find_pattern_C(n)
        assert w is not None
        assert verify_witness(n, w)

    def test_budget(self):
        n = undominated_cycle_fixture()
        with pytest.raises(CycleBudgetExceeded):
            find_pattern_C(n, cycle_budget=1)


class TestWitnessReplay:
    def test_path_leaving_the_negotiation_is_false(self):
        n = fixtures.fork_unsound()
        assert verify_witness(n, CWitness((("c", "p"),), (("c", "p"),))) is False
        assert verify_witness(n, BWitness("p", (("x", "p"),), "n3")) is False
        assert verify_witness(n, FWitness("n0", "c", "p", "q", (("y", "p"),), (), ())) is False


class TestPatternF:
    def test_sound_fork_none(self):
        assert find_pattern_F(fixtures.fork()) is None

    def test_split_join(self):
        n = fixtures.fork_split()
        w = find_pattern_F(n)
        assert w is not None
        assert w.action == "c" and {w.p1, w.p2} == {"p", "q"}
        assert verify_witness(n, w)


class TestCrossOracle:
    def test_fixture_agreement(self):
        for n in (
            fixtures.ping(),
            fixtures.fork(),
            fixtures.loop2(),
            fixtures.mod15(),
            fixtures.editorial(),
            fixtures.fork_unsound(),
            fixtures.fork_split(),
        ):
            semantic = is_sound_semantic(n).sound
            pattern = find_any_pattern(n)
            assert semantic == (pattern is None), (semantic, pattern)
            if pattern is not None:
                assert verify_witness(n, pattern)

    def test_mutation_corpus(self):
        rng = random.Random(42)
        disagreements = []
        checked = 0
        for seed in range(60):
            params = GenParams(
                process_count=1 + seed % 3,
                target_node_count=4 + seed % 9,
                loop_probability=0.25,
                fork_probability=0.35,
                seed=seed,
            )
            base = generate(params)
            for variant in range(3):
                mutant = mutate(base, rng) if variant else base
                if mutant is None:
                    continue
                checked += 1
                semantic = is_sound_semantic(mutant).sound
                pattern = find_any_pattern(mutant)
                if semantic != (pattern is None):
                    disagreements.append((seed, variant, semantic, pattern))
                elif pattern is not None:
                    assert verify_witness(mutant, pattern)
        assert checked > 100
        assert not disagreements, disagreements[:3]
