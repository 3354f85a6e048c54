"""The successor kernel's searches against their stepwise oracles.

`configuration_graph`, `is_sound_semantic`, `compute_I` and the teacher's
product search run on `model.successor_function`; `oracles.stepwise_*` are
the same searches over `enabled_actions` and `step`. They must agree on
vertex order, edges, verdicts, counterexamples and raised errors, on valid
inputs and on invalid ones.
"""

import random

import pytest

from negotiations import cli
from negotiations.errors import NegotiationError, NotEnabled
from negotiations.formats import serialize
from negotiations.generate import GenParams, generate
from negotiations.model import (
    DistributedAlphabet,
    Negotiation,
    compute_I,
    configuration_graph,
    validate,
)
from negotiations.soundness import is_sound_semantic
from negotiations.teacher import Teacher

import fixtures
import oracles
from test_acceptance import _make_corpus
from test_soundness import mutate, undominated_cycle_fixture

FIXTURES = (
    "ping", "fork", "fork_unsound", "fork_split", "loop2", "mod15", "two_period",
    "forked_periods", "ping_over_mod15", "editorial",
)
LADDER = [GenParams(p, nodes, 0.3, 0.6, seed=s)
          for p, nodes in ((2, 8), (3, 16), (4, 24), (5, 32)) for s in (0, 1)]


def outcome(f, *args, **kwargs):
    """A call's result, or the type and message of the domain error it
    raised."""
    try:
        return f(*args, **kwargs)
    except NegotiationError as exc:
        return type(exc), str(exc)


def kernel_graph(n, budget):
    g = configuration_graph(n, budget=budget)
    assert len(g) == len(g.vertices) and g.init == g.vertices[0]
    return g.vertices, g.edges


def product(t, h, budget):
    return Teacher(t, state_budget=budget, check_answers=False)._product_search(h)


def assert_agree(n, budgets=(10**6,), node_budgets=None):
    for budget in budgets:
        assert outcome(kernel_graph, n, budget) == outcome(
            oracles.stepwise_configuration_graph, n, budget)
        assert outcome(is_sound_semantic, n, budget) == outcome(
            oracles.stepwise_is_sound, n, budget)
    for budget in budgets if node_budgets is None else node_budgets:
        for node in n.nodes:
            for rev in (False, True):
                assert outcome(compute_I, n, node, budget, rev) == outcome(
                    oracles.stepwise_compute_I, n, node, budget, rev)


def assert_products_agree(t, h, budgets=(10**6,)):
    for budget in budgets:
        assert outcome(product, t, h, budget) == outcome(
            oracles.stepwise_product_search, t, h, budget)


@pytest.fixture(scope="module")
def valid_inputs():
    """(original, [mutants]) for the fixtures, the acceptance corpus and a
    generated ladder; mutants keep validity and may be sound or unsound."""
    rng = random.Random(11)
    bases = [getattr(fixtures, name)() for name in FIXTURES]
    bases.append(undominated_cycle_fixture())
    bases += _make_corpus(count=60)
    bases += [generate(params) for params in LADDER]
    out = []
    for n in bases:
        mutants = [m for m in (mutate(n, rng) for _ in range(3)) if m is not None]
        out.append((n, mutants))
    return out


def test_searches_agree_on_valid_inputs(valid_inputs):
    verdicts = set()
    for n, mutants in valid_inputs:
        assert_agree(n)
        for m in mutants:
            assert_agree(m)
            verdicts.add(is_sound_semantic(m).sound)
    assert verdicts == {True, False}


def test_product_search_agrees_on_valid_inputs(valid_inputs):
    answers = set()
    for n, mutants in valid_inputs:
        assert_products_agree(n, n)
        for m in mutants:
            assert_products_agree(n, m)
            assert_products_agree(m, n)
            answers.add(product(n, m, 10**6).sign)
    assert answers == {None, "positive", "negative"}


def test_budgets_agree():
    n = generate(LADDER[-1])
    size = len(configuration_graph(n))
    assert_agree(n, budgets=(1, 2, size // 2, size - 1, size))
    m = mutate(n, random.Random(3))
    assert_products_agree(n, m, budgets=(1, 2, 5, 50))


def broken(n, rng):
    """A random invalid variant of `n`: one node's domain shrunk or grown,
    one transition added or dropped, or one action's transitions copied to
    another node. Only identifiers are checked."""
    procs = n.alphabet.processes
    dnode = dict(n.dnode)
    delta = dict(n.delta)
    mode = rng.choice(("domain", "add", "drop", "graft"))
    if mode == "domain":
        m = rng.choice(n.nodes)
        dnode[m] = tuple(p for p in procs if rng.random() < 0.5) or (rng.choice(procs),)
    elif mode == "add":
        a = rng.choice(n.alphabet.actions)
        key = (rng.choice(n.nodes), a, rng.choice(n.alphabet.dom[a]))
        delta[key] = rng.choice(n.nodes)
    elif mode == "drop" and delta:
        del delta[rng.choice(sorted(delta))]
    elif delta:
        m, a, _ = rng.choice(sorted(delta))
        m2 = rng.choice(n.nodes)
        for p in n.alphabet.dom[a]:
            delta[(m2, a, p)] = delta.get((m, a, p), rng.choice(n.nodes))
    return Negotiation(n.alphabet, n.nodes, dnode, delta, n.init, n.fin)


def test_searches_agree_on_invalid_inputs():
    """Bad moves raise where `step` raises, after the moves before them and
    their budget checks; an action fireable at two nodes fires once."""
    rng = random.Random(5)
    bases = [getattr(fixtures, name)() for name in ("fork", "fork_split", "loop2", "editorial",
                                                   "forked_periods")]
    bases += [generate(params) for params in LADDER[:4]]
    small = tuple(range(1, 10)) + (10**6,)
    raised = 0
    for n in bases:
        for _ in range(40):
            bad = broken(n, rng)
            if validate(bad) == []:
                continue
            assert_agree(bad, budgets=small, node_budgets=(2, 5, 10**6))
            assert_products_agree(n, bad, budgets=small)
            assert_products_agree(bad, n, budgets=(3, 10**6))
            try:
                configuration_graph(bad)
            except NotEnabled:
                raised += 1
    assert raised > 0


def test_action_fireable_at_two_nodes_fires_once():
    """x is fireable at A (dom(x) = dnode(A)) and, invalidly, at B, which
    holds only q; `step` fires it once, from where p sits."""
    alpha = DistributedAlphabet(("p", "q"), ("c", "x"), {"c": ("p", "q"), "x": ("p",)})
    n = Negotiation(
        alpha, ("I", "A", "B", "F"), {"I": ("p", "q"), "A": ("p",), "B": ("q",), "F": ("p", "q")},
        {("I", "c", "p"): "A", ("I", "c", "q"): "B", ("A", "x", "p"): "A", ("B", "x", "p"): "A"},
        "I", "F",
    )
    g = configuration_graph(n)
    assert [c.nodes for c in g.vertices] == [("I", "I"), ("A", "B")]
    assert [(a, c.nodes) for a, c in g.edges[g.vertices[1]]] == [("x", ("A", "B"))]
    assert_agree(n)


# -- an invalid negotiation whose configuration graph holds a bad move ---------


def invalid_rendezvous():
    """b moves p alone from I to m; a then leaves m for both p and q, but q
    is still at I. validate rejects it (dom(a) is not dnode(m))."""
    alpha = DistributedAlphabet(
        processes=("p", "q"),
        actions=("a", "b", "z"),
        dom={"a": ("p", "q"), "b": ("p",), "z": ("p", "q")},
    )
    return Negotiation(
        alphabet=alpha,
        nodes=("I", "m", "F"),
        dnode={"I": ("p", "q"), "m": ("p",), "F": ("p", "q")},
        delta={("I", "b", "p"): "m", ("m", "a", "p"): "F", ("m", "a", "q"): "F"},
        init="I",
        fin="F",
    )


def over_z(*rows):
    """A valid negotiation over the alphabet of `invalid_rendezvous`: z
    moves both processes along `rows`, from init I towards fin F."""
    alpha = invalid_rendezvous().alphabet
    nodes = tuple(dict.fromkeys(("I",) + tuple(t for _, t in rows) + ("F",)))
    return Negotiation(
        alphabet=alpha,
        nodes=nodes,
        dnode={m: ("p", "q") for m in nodes},
        delta={(s, "z", p): t for s, t in rows for p in ("p", "q")},
        init="I",
        fin="F",
    )


BAD_MOVE = "action 'a' not enabled: process 'q' is at 'I' while 'p' is at 'm'"


class TestInvalidInput:
    def test_validate_rejects(self):
        assert validate(invalid_rendezvous()) != []

    def test_is_sound_semantic_raises(self):
        with pytest.raises(NotEnabled, match=BAD_MOVE):
            is_sound_semantic(invalid_rendezvous())

    def test_configuration_graph_raises(self):
        with pytest.raises(NotEnabled, match=BAD_MOVE):
            configuration_graph(invalid_rendezvous())

    def test_equiv_query_raises(self):
        sound = over_z(("I", "F"))
        unsound = over_z(("I", "X"))  # X has no move: a deadlock
        assert not is_sound_semantic(unsound).sound
        with pytest.raises(NotEnabled, match=BAD_MOVE):
            Teacher(invalid_rendezvous()).equiv_query(sound)
        with pytest.raises(NotEnabled, match=BAD_MOVE):
            Teacher(sound).equiv_query(invalid_rendezvous())
        # an unsound target sends the query straight to the product search
        with pytest.raises(NotEnabled, match=BAD_MOVE):
            Teacher(unsound).equiv_query(invalid_rendezvous())

    def test_cli_sound_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(serialize(invalid_rendezvous()), encoding="utf-8")
        assert cli.main(["sound", str(path)]) == cli.EXIT_FALSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and BAD_MOVE in err
