import copy
import dataclasses
import pickle
import random

import pytest

from negotiations.errors import (
    ConfigurationNotFound,
    NoTransition,
    NotEnabled,
    StateBudgetExceeded,
    UnknownAction,
)
from negotiations.model import (
    Configuration,
    DistributedAlphabet,
    Negotiation,
    bfs,
    compute_I,
    configuration_graph,
    empty_negotiation,
    enabled,
    enabled_actions,
    member_exec,
    member_path,
    path_coverage_warnings,
    run_execution,
    run_local_path,
    step,
    successor_function,
    validate,
    walk,
)
from negotiations import traces
from negotiations.formats import serialize

import fixtures
import oracles
from test_acceptance import _make_corpus
from test_successor_kernel import FIXTURES, invalid_rendezvous, node_kernel
from test_teacher import split_at_shared_node


def drop(n, key):
    delta = {k: v for k, v in n.delta.items() if k != key}
    return Negotiation(n.alphabet, n.nodes, n.dnode, delta, n.init, n.fin)


class TestValidate:
    def test_ping_clean(self):
        assert validate(fixtures.ping()) == []

    def test_missing_partner_transition(self):
        broken = drop(fixtures.ping(), ("n0", "a", "q"))
        out = validate(broken)
        assert len(out) == 1
        assert "delta(n0,a,p) defined but delta(n0,a,q) missing" in out[0]

    def test_fin_domain(self):
        n = fixtures.ping()
        bad = Negotiation(
            n.alphabet, n.nodes, {**n.dnode, "nf": ("p",)}, n.delta, n.init, n.fin
        )
        out = validate(bad)
        assert any("fin" in v and "full process set" in v for v in out)

    def test_fin_sink(self):
        n = fixtures.ping()
        delta = dict(n.delta)
        delta[("nf", "a", "p")] = "n0"
        delta[("nf", "a", "q")] = "n0"
        bad = Negotiation(n.alphabet, n.nodes, n.dnode, delta, n.init, n.fin)
        assert any("outgoing" in v for v in validate(bad))

    def test_domain_mismatch(self):
        n = fixtures.fork()
        bad = Negotiation(
            n.alphabet, n.nodes, {**n.dnode, "n1": ("p", "q")}, n.delta, n.init, n.fin
        )
        assert any("dnode" in v for v in validate(bad))

    def test_coaccessibility_is_warning_not_violation(self):
        n = fixtures.fork()
        nodes = n.nodes + ("dead",)
        dnode = {**n.dnode, "dead": ("p",)}
        with_dead = Negotiation(n.alphabet, nodes, dnode, dict(n.delta), n.init, n.fin)
        assert validate(with_dead) == []
        assert any("dead" in w for w in path_coverage_warnings(with_dead))

    def test_init_is_not_fin(self):
        n = fixtures.ping()
        same = Negotiation(n.alphabet, n.nodes, n.dnode, n.delta, n.init, n.init)
        assert "init and fin must be distinct nodes" in validate(same)

    def test_fixtures_clean(self):
        for fix in (fixtures.fork(), fixtures.loop2(), fixtures.mod15(), fixtures.editorial()):
            assert validate(fix) == []
            assert path_coverage_warnings(fix) == []


class TestEnabledStep:
    def test_ping_init(self):
        n = fixtures.ping()
        assert enabled(n, n.initial_configuration()) == {("n0", "a")}

    def test_ping_fin(self):
        n = fixtures.ping()
        assert enabled(n, n.final_configuration()) == set()

    def test_fork_mid(self):
        n = fixtures.fork()
        c = Configuration(("p", "q"), ("n1", "n2"))
        assert enabled(n, c) == {("n1", "x"), ("n2", "y")}

    def test_step_ping(self):
        n = fixtures.ping()
        c = step(n, n.initial_configuration(), "a")
        assert c == Configuration(("p", "q"), ("n1", "n1"))

    def test_step_fork(self):
        n = fixtures.fork()
        c = step(n, n.initial_configuration(), "c")
        assert c == Configuration(("p", "q"), ("n1", "n2"))

    def test_step_not_enabled(self):
        n = fixtures.ping()
        with pytest.raises(NotEnabled):
            step(n, n.initial_configuration(), "b")

    def test_step_unknown_action(self):
        n = fixtures.ping()
        with pytest.raises(UnknownAction, match="'zz'"):
            step(n, n.initial_configuration(), "zz")

    def test_step_wants_the_whole_node_domain(self):
        """step fires only what enabled fires: b leaves m for q alone, but
        m's domain also holds p, which has left."""
        n = split_at_shared_node()
        c = step(n, step(n, n.initial_configuration(), "c"), "a")
        assert c.nodes == ("F", "m") and enabled(n, c) == set()
        with pytest.raises(NotEnabled, match="process 'p' is at 'F' while 'b' fires at 'm'"):
            step(n, c, "b")


class TestConstruction:
    """The construction checks a JSON document cannot reach, since its
    action and node names are object keys (`test_toolkit` runs the others
    through `parse`)."""

    @pytest.mark.parametrize("actions,dom,message", [
        (("c", "c"), {"c": ("p",)}, "duplicate action identifiers"),
        (("c", "x"), {"c": ("p",)}, "action 'x' has no domain"),
        (("c",), {"c": ("p",), "x": ("p",)}, "dom mentions unknown actions"),
    ])
    def test_alphabet(self, actions, dom, message):
        with pytest.raises(ValueError, match=message):
            DistributedAlphabet(("p", "q"), actions, dom)

    @pytest.mark.parametrize("nodes,message", [
        (("n0", "n1", "n2", "n3", "nf", "n1"), "duplicate node identifiers"),
        (("n0", "n1", "n2", "n3", "nf", "n4"), "node 'n4' has no domain"),
    ])
    def test_negotiation(self, nodes, message):
        f = fixtures.fork()
        with pytest.raises(ValueError, match=message):
            Negotiation(f.alphabet, nodes, f.dnode, f.delta, f.init, f.fin)


class TestImmutable:
    def test_fields_and_mappings_are_read_only(self):
        n = fixtures.fork()
        for obj, field in ((n, "delta"), (n, "dnode"), (n, "init"), (n, "_out"),
                           (n.alphabet, "dom"), (n.alphabet, "actions"), (n.alphabet, "_dom_sets")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, getattr(obj, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            del n.fin
        with pytest.raises(TypeError):
            n.delta[("n0", "d", "p")] = "nf"
        with pytest.raises(TypeError):
            del n.delta[("n0", "c", "p")]
        with pytest.raises(TypeError):
            n.dnode["n1"] = ("p", "q")
        with pytest.raises(TypeError):
            n.alphabet.dom["x"] = ("p", "q")
        for obj in (n, n.alphabet):
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
        assert n == fixtures.fork()

    def test_the_callers_dicts_stay_the_callers(self):
        f = fixtures.fork()
        dom, dnode, delta = dict(f.alphabet.dom), dict(f.dnode), dict(f.delta)
        alpha = DistributedAlphabet(f.alphabet.processes, f.alphabet.actions, dom)
        n = Negotiation(alpha, f.nodes, dnode, delta, f.init, f.fin)
        for p in ("p", "q"):
            delta[("n0", "d", p)] = "nf"
        dnode["n1"] = ("p", "q")
        dom["x"] = ("p", "q")
        assert n == f and serialize(n) == serialize(f)
        assert not member_exec(n, ("d",))
        assert enabled_actions(n, n.initial_configuration()) == ["c"]
        assert alpha.dom_set("x") == {"p"} and not alpha.dependent("x", "y")

    @pytest.mark.parametrize("name", FIXTURES)
    def test_pickle_and_deepcopy_round_trip(self, name):
        n = getattr(fixtures, name)()
        for twin in (pickle.loads(pickle.dumps(n)), copy.deepcopy(n)):
            assert twin == n and serialize(twin) == serialize(n)
            assert len(configuration_graph(twin)) == len(configuration_graph(n))


class TestRunExecution:
    def test_fork_completes(self):
        out = run_execution(fixtures.fork(), ("c", "x", "y", "d"))
        assert out.completed

    def test_fork_commutes(self):
        out = run_execution(fixtures.fork(), ("c", "y", "x", "d"))
        assert out.completed

    def test_fork_stuck(self):
        out = run_execution(fixtures.fork(), ("c", "x", "d"))
        assert out.status == "stuck"
        assert out.fired == 2
        assert out.end == Configuration(("p", "q"), ("n3", "n2"))

    def test_unknown_action(self):
        with pytest.raises(UnknownAction):
            run_execution(fixtures.fork(), ("c", "zz"))

    def test_member_exec(self):
        n = fixtures.fork()
        assert member_exec(n, ("c", "x", "y", "d"))
        assert not member_exec(n, ("c", "x"))
        assert member_exec(fixtures.ping(), ("a", "b"))

    def test_reorder_invariance(self):
        """Outcome of run_execution is a trace invariant."""
        rng = random.Random(7)
        n = fixtures.editorial()
        actions = n.alphabet.actions
        for _ in range(120):
            w = tuple(rng.choice(actions) for _ in range(rng.randrange(9)))
            base = run_execution(n, w)
            for v in oracles.trace_closure(n.alphabet, w):
                got = run_execution(n, v)
                assert got.status == base.status
                if base.status != "stuck":
                    assert got.end == base.end


class TestLocalPaths:
    def test_fork_p(self):
        n = fixtures.fork()
        assert run_local_path(n, (("c", "p"), ("x", "p"), ("d", "p"))) == "nf"

    def test_fork_q(self):
        n = fixtures.fork()
        assert run_local_path(n, (("c", "q"), ("y", "q"), ("d", "q"))) == "nf"

    def test_no_transition_index(self):
        n = fixtures.fork()
        try:
            run_local_path(n, (("c", "p"), ("y", "p")))
        except Exception as exc:
            assert getattr(exc, "index", None) == 1
        else:
            pytest.fail("expected NoTransition")

    def test_errors_in_letter_order(self):
        """UnknownAction for an unknown action anywhere in the path, also
        after the first missing hop, as `run_execution` checks every letter
        first; with known actions only, NoTransition at the first missing hop."""
        n = fixtures.fork()
        with pytest.raises(NoTransition) as info:
            run_local_path(n, (("y", "p"), ("x", "p")))
        assert (info.value.index, info.value.letter, info.value.node) == (0, ("y", "p"), "n0")
        for pi in ((("y", "p"), ("zz", "p")), (("zz", "p"), ("y", "p"))):
            with pytest.raises(UnknownAction):
                run_local_path(n, pi)

    def test_walk_stops_before_a_missing_hop(self):
        n = fixtures.fork()
        assert walk(n, "n0", (("c", "q"), ("y", "q"), ("d", "q"))) == ["n0", "n2", "n3", "nf"]
        assert walk(n, "n0", (("c", "p"), ("y", "p"), ("x", "p"))) == ["n0", "n1"]
        assert walk(n, "n1", (("x", "p"), ("d", "p"))) == ["n1", "n3", "nf"]
        assert walk(n, "nf", ()) == ["nf"]

    def test_member_path(self):
        n = fixtures.fork()
        assert member_path(n, (("c", "p"), ("x", "p"), ("d", "p")))
        assert not member_path(n, (("c", "p"), ("x", "p")))
        assert not member_path(fixtures.ping(), ())

    def test_projection_is_local_path(self):
        """Projections of fired executions walk the graph (per process)."""
        n = fixtures.editorial()
        w = ("appl", "setup", "dinit", "svote", "vote", "dec")
        assert member_exec(n, w)
        for p in n.alphabet.processes:
            assert run_local_path(n, traces.projection(n.alphabet, w, p)) == "nf"

    def test_projection_of_fired_prefix_tracks_configuration(self):
        """For any fired prefix u with C_init -u-> C, walking u|_p from init
        ends at C(p), for every process."""
        rng = random.Random(3)
        for n in (fixtures.editorial(), fixtures.forked_periods()):
            for _ in range(80):
                w = tuple(rng.choice(n.alphabet.actions) for _ in range(rng.randrange(9)))
                out = run_execution(n, w)
                fired = w[: out.fired]
                for p in n.alphabet.processes:
                    assert (
                        run_local_path(n, traces.projection(n.alphabet, fired, p))
                        == out.end.node_of(p)
                    )


class TestConfigurationGraph:
    def test_ping(self):
        assert len(configuration_graph(fixtures.ping())) == 3

    def test_fork_brute(self):
        # brute force: all interleavings of the two accepted executions plus
        # prefixes reach 6 distinct configurations
        g = configuration_graph(fixtures.fork())
        assert len(g) == 6

    def test_empty(self):
        alpha = fixtures.ping().alphabet
        assert len(configuration_graph(empty_negotiation(alpha))) == 1

    def test_budget(self):
        with pytest.raises(StateBudgetExceeded):
            configuration_graph(fixtures.mod15(), budget=3)

    def test_member_matches_graph_reachability(self):
        """member_exec agrees with walking the explicit graph, words <= 6."""
        for n in (fixtures.ping(), fixtures.fork(), fixtures.loop2()):
            g = configuration_graph(n)
            succ = [dict(zip(*outs)) for outs in g.succ]
            fin = n.final_configuration().nodes
            for w in oracles.all_words(n.alphabet.actions, 4):
                i = 0
                ok = True
                for a in w:
                    nxt = succ[i].get(a)
                    if nxt is None:
                        ok = False
                        break
                    i = nxt
                assert member_exec(n, w) == (ok and g.nodes(i) == fin)


class TestSuccessorFunction:
    """Every negotiation gets a kernel; a complete move (m, a) with dom(a)
    not a subset of dnode(m) is guarded."""

    def test_valid_inputs_get_a_kernel(self):
        for n in [getattr(fixtures, name)() for name in FIXTURES] + _make_corpus(count=60):
            expand, encode, decode, _ = successor_function(n)
            init = n.initial_configuration().nodes
            assert decode(encode(init)) == init and expand(encode(init))[0] == [n.init]

    def test_bad_move_is_guarded(self):
        """a leaves m for p and q, but dnode(m) holds only p: a fires only
        once q has joined p at m."""
        expand = node_kernel(invalid_rendezvous())
        assert expand(("m", "I")) == (["m"], [])
        assert expand(("m", "m")) == (["m"], [("a", ("F", "F"))])

    def test_action_fireable_at_two_nodes_is_guarded(self):
        """x is complete at A (dom(x) = dnode(A)) and, invalidly, at B,
        which holds only q: it fires from B only when p sits at B too."""
        alpha = DistributedAlphabet(("p", "q"), ("c", "x"), {"c": ("p", "q"), "x": ("p",)})
        n = Negotiation(
            alpha, ("I", "A", "B", "F"), {"I": ("p", "q"), "A": ("p",), "B": ("q",), "F": ("p", "q")},
            {("I", "c", "p"): "A", ("I", "c", "q"): "B", ("A", "x", "p"): "A", ("B", "x", "p"): "A"},
            "I", "F",
        )
        expand = node_kernel(n)
        assert expand(("A", "B"))[1] == [("x", ("A", "B"))]
        assert expand(("B", "B")) == (["B"], [("x", ("A", "B"))])
        assert expand(("I", "B")) == (["B"], [])

    def test_expand_gives_enabled_nodes_and_moves(self):
        n = fixtures.fork()
        expand = node_kernel(n)
        assert expand(("n0", "n0")) == (["n0"], [("c", ("n1", "n2"))])
        enabled, moves = expand(("n1", "n2"))
        assert sorted(enabled) == ["n1", "n2"]
        assert moves == [("x", ("n3", "n2")), ("y", ("n1", "n3"))]


class TestBfs:
    def test_start_meeting_stop_is_the_hit(self):
        """A start that meets `stop` is the hit before any move is drawn."""
        drawn = []

        def moves(x):
            drawn.append(x)
            return [("a", x + 1)]

        assert bfs(0, moves, stop=lambda x: x % 2 == 0) == ({0: None}, 0)
        assert drawn == []


class TestComputeI:
    def test_ping(self):
        assert compute_I(fixtures.ping(), "n1") == Configuration(("p", "q"), ("n1", "n1"))

    def test_fork_join(self):
        assert compute_I(fixtures.fork(), "n3") == Configuration(("p", "q"), ("n3", "n3"))

    def test_unsound_still_found(self):
        n = fixtures.fork_unsound()
        assert compute_I(n, "n3") == Configuration(("p", "q"), ("n3", "n3"))

    def test_not_found(self):
        with pytest.raises(ConfigurationNotFound):
            compute_I(fixtures.fork_unsound(), "nf")

    def test_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node 'zz'"):
            compute_I(fixtures.ping(), "zz")

    def test_tie_break_independence(self):
        for fix in (fixtures.fork(), fixtures.editorial(), fixtures.loop2()):
            for node in fix.nodes:
                a = compute_I(fix, node)
                b = oracles.stepwise_compute_I(fix, node, reverse_ties=True)
                assert a == b
