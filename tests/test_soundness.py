import dataclasses
import random
from itertools import islice

from negotiations import cli
from negotiations.formats import serialize
from negotiations.model import (
    Configuration,
    DistributedAlphabet,
    Negotiation,
    configuration_graph,
    reach,
    validate,
)
from negotiations.soundness import (
    BWitness,
    CWitness,
    FWitness,
    SemanticSoundness,
    _diverging_forks,
    find_any_pattern,
    find_pattern_B,
    find_pattern_C,
    find_pattern_F,
    is_sound_semantic,
    verify_witness,
)
from negotiations.generate import GenParams, generate

import fixtures
import oracles
from test_learner_golden import FIXTURES


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


def clique_beside_shuttle():
    """`undominated_cycle_fixture` with A in a 6-node clique of {p,q}
    nodes. Every cycle inside the clique is dominated, but the clique
    holds so many simple cycles that enumerating them is hopeless."""
    n = undominated_cycle_fixture()
    clique = ("A", "K2", "K3", "K4", "K5", "K6")
    moves = {f"{x}{y}": (x, y) for x in clique for y in clique if x != y}
    alpha = DistributedAlphabet(
        processes=n.alphabet.processes,
        actions=n.alphabet.actions + tuple(moves),
        dom={**n.alphabet.dom, **{a: ("p", "q") for a in moves}},
    )
    delta = dict(n.delta)
    for a, (x, y) in moves.items():
        delta[(x, a, "p")] = delta[(x, a, "q")] = y
    return Negotiation(
        alphabet=alpha,
        nodes=("n0",) + clique + ("B", "nf"),
        dnode={**n.dnode, **{v: ("p", "q") for v in clique}},
        delta=delta,
        init=n.init,
        fin=n.fin,
    )


def compound_cycle_fixture():
    """p leaves s {p} for v1 {p,q} or v2 {p,r} and comes back. Each simple
    cycle is dominated by its rendezvous node, but the strongly connected
    set {s, v1, v2} touches p, q and r and no node of it dominates."""
    alpha = DistributedAlphabet(
        processes=("p", "q", "r"),
        actions=("go", "a1", "a2", "b1", "b2", "e", "f"),
        dom={
            "go": ("p", "q", "r"),
            "a1": ("p",),
            "a2": ("p",),
            "b1": ("p", "q"),
            "b2": ("p", "r"),
            "e": ("p", "q"),
            "f": ("p", "r"),
        },
    )
    return Negotiation(
        alphabet=alpha,
        nodes=("n0", "s", "v1", "v2", "nf"),
        dnode={"n0": ("p", "q", "r"), "s": ("p",), "v1": ("p", "q"), "v2": ("p", "r"), "nf": ("p", "q", "r")},
        delta={
            ("n0", "go", "p"): "s",
            ("n0", "go", "q"): "v1",
            ("n0", "go", "r"): "v2",
            ("s", "a1", "p"): "v1",
            ("s", "a2", "p"): "v2",
            ("v1", "b1", "p"): "s",
            ("v1", "b1", "q"): "v1",
            ("v2", "b2", "p"): "s",
            ("v2", "b2", "r"): "v2",
            ("v1", "e", "p"): "nf",
            ("v1", "e", "q"): "nf",
            ("v2", "f", "p"): "nf",
            ("v2", "f", "r"): "nf",
        },
        init="n0",
        fin="nf",
    )


def clique_after_join():
    """Sound: n0 forks p to s1 {p} and q to s2 {q}; they meet at z {p,q},
    whose action d sends q to z2 {p,q} and p into a 10-node {p}-clique
    whose nodes each also step to z2; z2 goes to fin. Every p-path from
    the clique to a {p,q} node passes z2, where q already waits, but the
    clique holds millions of simple p-paths."""
    clique = tuple(f"k{i}" for i in range(10))
    alpha = DistributedAlphabet(
        processes=("p", "q"),
        actions=("c", "x", "y", "d", "e", "out") + tuple(f"to_{k}" for k in clique),
        dom={"c": ("p", "q"), "x": ("p",), "y": ("q",), "d": ("p", "q"), "e": ("p", "q"),
             "out": ("p",), **{f"to_{k}": ("p",) for k in clique}},
    )
    delta = {
        ("n0", "c", "p"): "s1",
        ("n0", "c", "q"): "s2",
        ("s1", "x", "p"): "z",
        ("s2", "y", "q"): "z",
        ("z", "d", "p"): "k0",
        ("z", "d", "q"): "z2",
        ("z2", "e", "p"): "nf",
        ("z2", "e", "q"): "nf",
    }
    for k in clique:
        delta[(k, "out", "p")] = "z2"
        for k2 in clique:
            if k2 != k:
                delta[(k, f"to_{k2}", "p")] = k2
    return Negotiation(
        alphabet=alpha,
        nodes=("n0", "s1", "s2", "z") + clique + ("z2", "nf"),
        dnode={"n0": ("p", "q"), "s1": ("p",), "s2": ("q",), "z": ("p", "q"),
               **{k: ("p",) for k in clique}, "z2": ("p", "q"), "nf": ("p", "q")},
        delta=delta,
        init="n0",
        fin="nf",
    )


def mutation_corpus():
    """(seed, variant, negotiation): sixty generated negotiations, each
    followed by up to two seeded mutants."""
    rng = random.Random(42)
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
            if mutant is not None:
                yield seed, variant, mutant


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

    def test_result_carries_the_graph_it_searched(self):
        for name in FIXTURES:
            n = getattr(fixtures, name)()
            graph = is_sound_semantic(n).graph
            expected = configuration_graph(n)
            assert (graph.order, graph.succ) == (expected.order, expected.succ), name

    def test_equality_and_repr_ignore_the_graph(self):
        """A result with its graph equals one without, as the stepwise
        oracle builds it, and prints the same."""
        for n in (fixtures.fork(), fixtures.fork_unsound()):
            res = is_sound_semantic(n)
            bare = SemanticSoundness(res.sound, res.counterexample)
            assert res.graph is not None and bare.graph is None
            assert res == bare and repr(res) == repr(bare)
            assert res == oracles.stepwise_is_sound(n)
        assert is_sound_semantic(fixtures.fork()) != is_sound_semantic(fixtures.fork_unsound())


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
        assert w.to_json() == {"kind": "C", "entry_path": ["s@p"], "cycle_path": ["g@p", "h@p"]}
        assert verify_witness(n, w)

    def test_many_simple_cycles_still_decide(self, tmp_path, capsys):
        n = clique_beside_shuttle()
        assert validate(n) == []
        w = find_pattern_C(n)
        assert w is not None and verify_witness(n, w)
        path = tmp_path / "clique.json"
        path.write_text(serialize(n), encoding="utf-8")
        assert cli.main(["sound", str(path), "--patterns"]) == cli.EXIT_FALSE
        assert '"kind":"C"' in capsys.readouterr().out

    def test_closed_walk_takes_one_lap(self):
        # the undominated set is one 5-node cycle, declared out of cycle
        # order; joining its nodes in declared order went round it 3 times
        from test_successor_kernel import invalid_variants  # it imports this module

        _, n = next(islice(invalid_variants(), 230, None))
        w = find_pattern_C(n)
        assert len(w.cycle_path) == 5
        assert verify_witness(n, w)

    def test_every_witness_replays_on_invalid_input(self):
        # the search and the replay take a set's processes by one rule; on
        # index 144 an action with dom(a) != dnode(m) told them apart
        from test_successor_kernel import invalid_variants  # it imports this module

        found = [(i, n, find_pattern_C(n)) for i, (_, n) in enumerate(invalid_variants())]
        found = [(i, n, w) for i, n, w in found if w is not None]
        assert len(found) >= 20
        assert [i for i, n, w in found if not verify_witness(n, w)] == []

    def test_undominated_set_inside_a_dominated_one(self):
        """{D, A, B} is strongly connected and dominated by the full node D;
        without D, A {p,q} and B {p,r} still form a cycle over all three
        processes that neither dominates, so the search finds it one level
        down."""
        full = ("p", "q", "r")
        alpha = DistributedAlphabet(
            processes=full,
            actions=("i", "d", "a", "b", "e", "f"),
            dom={"i": full, "d": full, "a": ("p", "q"), "b": ("p", "r"), "e": ("p", "q"),
                 "f": full},
        )
        n = Negotiation(
            alphabet=alpha,
            nodes=("I", "D", "A", "B", "F"),
            dnode={"I": full, "D": full, "A": ("p", "q"), "B": ("p", "r"), "F": full},
            delta={
                **{("I", "i", x): "D" for x in full},
                ("D", "d", "p"): "A",
                ("D", "d", "q"): "A",
                ("D", "d", "r"): "B",
                ("A", "a", "p"): "B",
                ("A", "a", "q"): "A",
                ("B", "b", "p"): "A",
                ("B", "b", "r"): "B",
                ("A", "e", "p"): "D",
                ("A", "e", "q"): "D",
                **{("D", "f", x): "F" for x in full},
            },
            init="I",
            fin="F",
        )
        assert validate(n) == []
        w = find_pattern_C(n)
        assert w == CWitness((("i", "p"), ("d", "p")), (("a", "p"), ("b", "p")))
        assert verify_witness(n, w)
        assert not is_sound_semantic(n).sound

    def test_compound_only_cycle(self):
        # no simple cycle is undominated, so the witness walks the whole set
        n = compound_cycle_fixture()
        assert validate(n) == []
        assert find_pattern_B(n) is None
        w = find_pattern_C(n)
        assert w.to_json() == {
            "kind": "C",
            "entry_path": ["go@p"],
            "cycle_path": ["a1@p", "b1@p", "a2@p", "b2@p"],
        }
        assert verify_witness(n, w)


class TestWitnessReplay:
    def test_path_leaving_the_negotiation_is_false(self):
        n = fixtures.fork_unsound()
        assert verify_witness(n, CWitness((("c", "p"),), (("c", "p"),))) is False
        assert verify_witness(n, BWitness("p", (("x", "p"),), "n3")) is False
        assert verify_witness(n, FWitness("n0", "c", "p", "q", (("y", "p"),), (), ())) is False


    def test_mutated_witnesses_are_false(self):
        """Each of the fixtures' witnesses holds, and each mutation below
        breaks one condition of its replay."""
        b = find_any_pattern(fixtures.fork_unsound())
        c = find_any_pattern(undominated_cycle_fixture())
        f = find_any_pattern(fixtures.fork_split())
        cases = [
            (fixtures.fork_unsound(), b, dataclasses.replace(b, access_path=(("c", "q"),))),
            (undominated_cycle_fixture(), c, dataclasses.replace(c, cycle_path=())),
            (fixtures.fork_split(), f, dataclasses.replace(f, access_path=(("c", "p"),))),
            (fixtures.fork_split(), f, dataclasses.replace(f, fork_node="n1")),
            (fixtures.fork_split(), f, dataclasses.replace(f, action="x")),
            (fixtures.fork_split(), f, dataclasses.replace(f, path1=(("x", "q"),))),
            (fixtures.fork_split(), f, dataclasses.replace(f, path2=(("y", "p"),))),
        ]
        for n, good, bad in cases:
            assert (good.kind, verify_witness(n, good)) == (bad.kind, True)
            assert verify_witness(n, bad) is False, bad
        assert verify_witness(fixtures.fork_split(), None) is False


class TestPatternF:
    def test_sound_fork_none(self):
        assert find_pattern_F(fixtures.fork()) is None

    def test_clique_after_join_decides(self):
        # every simple p-path out of the clique meets z2, where q waits;
        # an enumeration of those paths never finishes
        n = clique_after_join()
        assert validate(n) == []
        assert is_sound_semantic(n).sound
        assert find_pattern_F(n) is None
        assert find_any_pattern(n) is None

    def test_first_hit_paths_agree_with_disjoint_path_search(self):
        """At every reachable fork, F holds exactly when the exhaustive
        simple-path search finds two disjoint paths, and every witness
        replays."""
        from test_successor_kernel import invalid_variants  # it imports this module

        inputs = [getattr(fixtures, name)() for name in FIXTURES]
        inputs += [undominated_cycle_fixture(), clique_beside_shuttle(), compound_cycle_fixture()]
        inputs += [n for _, _, n in mutation_corpus()]
        inputs += [bad for _, bad in invalid_variants()]
        forks = witnesses = 0
        disagreements = []
        for i, n in enumerate(inputs):
            found = {(w.fork_node, w.action, w.p1, w.p2): w for w in _diverging_forks(n)}
            succ = {}
            for (m, _, _), t in n.delta.items():
                succ.setdefault(m, []).append(t)
            for m in reach(lambda v: succ.get(v, ()), [n.init]):
                for a in n.out(m):
                    dom = n.alphabet.dom[a]
                    for j, p1 in enumerate(dom):
                        for p2 in dom[j + 1 :]:
                            forks += 1
                            brute = oracles.brute_fork_paths(n, m, a, p1, p2)
                            if (brute is None) != ((m, a, p1, p2) not in found):
                                disagreements.append((i, m, a, p1, p2))
            for w in found.values():
                witnesses += 1
                assert verify_witness(n, w), (i, w)
            assert find_pattern_F(n) == next(iter(found.values()), None)
        assert len(inputs) > 400 and forks > 2000 and witnesses > 100
        assert not disagreements, disagreements[:3]

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
        disagreements = []
        checked = 0
        for seed, variant, mutant in mutation_corpus():
            checked += 1
            semantic = is_sound_semantic(mutant).sound
            pattern = find_any_pattern(mutant)
            if semantic != (pattern is None):
                disagreements.append((seed, variant, semantic, pattern))
            elif pattern is not None:
                assert verify_witness(mutant, pattern)
        assert checked > 100
        assert not disagreements, disagreements[:3]
