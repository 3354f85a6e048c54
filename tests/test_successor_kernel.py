"""The successor kernel's searches against their stepwise oracles.

`configuration_graph`, `is_sound_semantic`, `compute_I` and the teacher's
product search run on `model.successor_function`, over configurations
packed into one int each; `oracles.stepwise_*` are the same searches over
`enabled_actions` and `step`. They must agree on vertex order, edges,
verdicts, counterexamples and raised errors, on valid inputs and on invalid
ones, with the codes decoded to node tuples. `run_execution` and `max_executable_prefix`
fire through `model._fire` on a list of process positions, and must agree
with `oracles.stepwise_run_execution` and
`oracles.stepwise_max_executable_prefix` in the same way.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negotiations import cli, traces
from negotiations.errors import NegotiationError, NotEnabled, StateBudgetExceeded, UnknownAction
from negotiations.formats import serialize
from negotiations.generate import GenParams, generate
from negotiations.model import (
    Configuration,
    ConfigurationGraph,
    DistributedAlphabet,
    ExecutionOutcome,
    Negotiation,
    compute_I,
    configuration_graph,
    empty_negotiation,
    enabled_actions,
    member_exec,
    reach,
    run_execution,
    step,
    successor_function,
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


def decoded(graph):
    """The node tuple of each vertex of `graph`, in index order."""
    return [graph.nodes(i) for i in range(len(graph))]


def node_kernel(n):
    """`n`'s successor kernel with node tuples at its edges: it encodes the
    configuration it is given and decodes each successor."""
    expand, encode, decode = successor_function(n)

    def expand_nodes(nodes):
        enabled, moves = expand(encode(nodes))
        return enabled, [(a, decode(c)) for a, c in moves]
    return expand_nodes


def kernel_graph(n, budget):
    """(vertices, edges) over Configurations, as the stepwise oracle gives
    them. The vertices' node tuples are pairwise distinct, and each encodes
    back to its code."""
    g = configuration_graph(n, budget=budget)
    nodes = decoded(g)
    assert len(set(nodes)) == len(nodes) and [g.code(c) for c in nodes] == g.order
    vertices = tuple(Configuration(g.processes, c) for c in nodes)
    assert len(g) == len(vertices) and g.nodes(0) == n.initial_configuration().nodes
    return vertices, {vertices[i]: tuple((a, vertices[j]) for a, j in zip(*moves))
                      for i, moves in enumerate(g.succ)}


def product(t, h, budget):
    return Teacher(t, state_budget=budget)._product_search(h)


def assert_agree(n, budgets=(10**6,), node_budgets=None):
    for budget in budgets:
        assert outcome(kernel_graph, n, budget) == outcome(
            oracles.stepwise_configuration_graph, n, budget)
        assert outcome(is_sound_semantic, n, budget) == outcome(
            oracles.stepwise_is_sound, n, budget)
    for budget in budgets if node_budgets is None else node_budgets:
        for node in n.nodes:
            assert outcome(compute_I, n, node, budget) == outcome(
                oracles.stepwise_compute_I, n, node, budget)


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


# -- packed codes: field widths, the round trip, codes past 64 bits ------------


def chain(k):
    """A valid negotiation with k nodes over p and q: init I forks p along
    the P-nodes and q along the Q-nodes, which move them one at a time
    (x and y) to the join J, and J leads to fin F. Two nodes are I and F
    alone, three add J; one node is I alone, init and fin both."""
    alpha = DistributedAlphabet(("p", "q"), ("c", "x", "y", "d"),
                                {"c": ("p", "q"), "x": ("p",), "y": ("q",), "d": ("p", "q")})
    both = ("p", "q")
    if k == 1:
        return Negotiation(alpha, ("I",), {"I": both}, {}, "I", "I")
    if k == 2:
        return Negotiation(alpha, ("I", "F"), {"I": both, "F": both},
                           {("I", "c", "p"): "F", ("I", "c", "q"): "F"}, "I", "F")
    ps = [f"P{j}" for j in range((k - 2) // 2)]
    qs = [f"Q{j}" for j in range((k - 3) // 2)]
    dnode = {"I": both, **{m: ("p",) for m in ps}, **{m: ("q",) for m in qs}, "J": both, "F": both}
    delta = {("I", "c", "p"): (ps + ["J"])[0], ("I", "c", "q"): (qs + ["J"])[0],
             ("J", "d", "p"): "F", ("J", "d", "q"): "F"}
    for proc, act, line in (("p", "x", ps), ("q", "y", qs)):
        for m, nxt in zip(line, line[1:] + ["J"]):
            delta[(m, act, proc)] = nxt
    return Negotiation(alpha, ("I", *ps, *qs, "J", "F"), dnode, delta, "I", "F")


@pytest.mark.parametrize("k, width", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (9, 4)])
def test_field_widths(k, width):
    """A node index takes the bits its largest value needs, at least one:
    process i's field is bits [i*width, (i+1)*width), so fin, the last
    node, packs to k - 1 in both fields. The searches agree with the
    stepwise oracles, and the vertices decode to distinct node tuples that
    encode back to their codes, at every width; `test_searches_agree_on_invalid_inputs` checks the same on
    every invalid variant."""
    n = chain(k)
    assert len(n.nodes) == k and validate(n) == ([] if k > 1 else
                                                 ["init and fin must be distinct nodes"])
    assert_agree(n)
    g = configuration_graph(n)
    assert g.code((n.fin, n.fin)) == (k - 1) | (k - 1) << width
    assert is_sound_semantic(n).sound and g.final() >= 0


def test_concurrent_moves_merge_into_action_order():
    """The kernel reads concurrent nodes in the order of the processes
    that lead them, and merges their moves into declared action order.
    With each fixture's actions declared in reverse, the two orders differ
    (the fork's x at n1, led by p, now comes after y at n2, led by q), and
    the searches still agree with the stepwise oracles."""
    for name in FIXTURES:
        n = getattr(fixtures, name)()
        alpha = n.alphabet
        rev = Negotiation(DistributedAlphabet(alpha.processes, alpha.actions[::-1], dict(alpha.dom)),
                          n.nodes, dict(n.dnode), dict(n.delta), n.init, n.fin)
        assert_agree(rev)
        assert_products_agree(rev, rev)


def test_codes_wider_than_64_bits():
    """12 processes over 34 nodes: 6-bit fields, so 72-bit codes. Every
    vertex round-trips, and each of the first 2,000 vertices expanded on
    demand moves as `enabled_actions` and `step` do on its Configuration."""
    n = generate(GenParams(12, 60, 0.2, 0.5, seed=3))
    assert (len(n.alphabet.processes), len(n.nodes)) == (12, 34)
    g = configuration_graph(n)
    assert len(g) == 30831 and max(g.order).bit_length() > 64
    assert all(g.code(g.nodes(i)) == code for i, code in enumerate(g.order))
    lazy = ConfigurationGraph(n)
    for i in range(2000):
        lazy.expand(i)
        c = Configuration(lazy.processes, lazy.nodes(i))
        assert labelled_moves(lazy, i) == [(a, step(n, c, a).nodes) for a in enabled_actions(n, c)]


# -- one teacher, many hypotheses: the kept target graph leaks nothing ---------


@pytest.fixture(scope="module")
def oracle_answers(valid_inputs):
    """The stepwise product search of each original against itself and
    then against each of its mutants."""
    return [[oracles.stepwise_product_search(n, h) for h in (n, *mutants)]
            for n, mutants in valid_inputs]


def labelled_moves(graph, i):
    """The moves of vertex i as (action, successor node tuple) pairs."""
    acts, js = graph.succ[i]
    return [(a, graph.nodes(j)) for a, j in zip(acts, js)]


def test_target_graph_filled_on_demand_then_whole(valid_inputs, oracle_answers):
    """One teacher answers every hypothesis with the target's graph filled
    on demand, each vertex it expanded moving as in the whole graph, then
    again after its soundness check put the whole graph in its place."""
    for (n, mutants), expected in zip(valid_inputs, oracle_answers):
        teacher = Teacher(n)
        hyps = (n, *mutants)
        assert [teacher._product_search(h) for h in hyps] == expected
        filled, whole = teacher._target_graph, configuration_graph(n)
        for i, code in enumerate(filled.order):
            if filled.succ[i] is not None:
                assert labelled_moves(filled, i) == labelled_moves(whole, whole.index[code])
        teacher.target_is_sound()
        assert teacher._target_graph.order == list(configuration_graph(n).order)
        assert [teacher._product_search(h) for h in hyps] == expected


def test_target_graph_whole_first(valid_inputs, oracle_answers):
    """With the target's whole graph kept from the start, every route into
    the product answers as the oracle: on demand for the hypothesis, over
    the hypothesis's own soundness graph, through `equivalent` (which moves
    no counter) and through `equiv_query`."""
    for (n, mutants), expected in zip(valid_inputs, oracle_answers):
        teacher = Teacher(n)
        teacher.target_is_sound()
        for h, want in zip((n, *mutants), expected):
            assert teacher._product_search(h) == want
            assert teacher._product_search(h, is_sound_semantic(h).graph) == want
            stats = teacher.stats.to_json()
            assert teacher.equivalent(h) == want.equivalent
            assert teacher.stats.to_json() == stats
            assert teacher.equiv_query(h) == want
        assert teacher._target_graph.order == list(configuration_graph(n).order)


def test_target_graph_kept_under_a_small_budget(valid_inputs):
    """Under a small budget each answer, `StateBudgetExceeded` and its
    message included, is the oracle's, also in a second round that runs
    on the target graph the first round filled."""
    raised = 0
    for n, mutants in valid_inputs:
        hyps = (n, *mutants)
        for budget in (5, 50):
            teacher = Teacher(n, state_budget=budget)
            outcome(teacher.target_is_sound)
            for round_ in (0, 1):
                for h in hyps:
                    got = outcome(teacher._product_search, h)
                    assert got == outcome(oracles.stepwise_product_search, n, h, budget)
                    raised += round_ == 1 and isinstance(got, tuple) and got[0] is StateBudgetExceeded
    assert raised > 0


def test_budgets_agree():
    n = generate(LADDER[-1])
    size = len(configuration_graph(n))
    assert_agree(n, budgets=(1, 2, size // 2, size - 1, size))
    m = mutate(n, random.Random(3))
    assert_products_agree(n, m, budgets=(1, 2, 5, 50))
    # budget 0 still holds the initial configuration (or product pair) alone
    alpha = n.alphabet
    assert_agree(empty_negotiation(alpha), budgets=(0,))
    assert_products_agree(empty_negotiation(alpha), empty_negotiation(alpha), budgets=(0,))


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


# the bases of the invalid-input sweeps: five fixtures and half of `LADDER`
SWEEP_BASES = [getattr(fixtures, name)() for name in ("fork", "fork_split", "loop2", "editorial",
                                                      "forked_periods")]
SWEEP_BASES += [generate(params) for params in LADDER[:4]]


def invalid_variants():
    """(base, variant) for the seeded invalid `broken()` variants."""
    rng = random.Random(5)
    for n in SWEEP_BASES:
        for _ in range(40):
            bad = broken(n, rng)
            if validate(bad) != []:
                yield n, bad


def has_guarded_move(n):
    """Does `n` hold a complete move (m, a) with dom(a) not a subset of
    dnode(m)? The kernel guards such a move."""
    return any(all((m, a, q) in n.delta for q in n.alphabet.dom[a])
               and not n.alphabet.dom_set(a) <= n.dnode_set(m) for m, a, _ in n.delta)


def fired(n, c):
    """(action, configuration) for each action `step` fires in `c`."""
    out = []
    for a in n.alphabet.actions:
        try:
            out.append((a, step(n, c, a)))
        except NotEnabled:
            pass
    return out


def test_searches_agree_on_invalid_inputs():
    """Guarded moves fire where `step` fires them, after the moves before
    them and their budget checks; an action fireable at two nodes fires
    once. No search raises NotEnabled."""
    small = tuple(range(1, 10)) + (10**6,)
    guarded = 0
    for n, bad in invalid_variants():
        assert_agree(bad, budgets=small, node_budgets=(2, 5, 10**6))
        assert_products_agree(n, bad, budgets=small)
        assert_products_agree(bad, n, budgets=(3, 10**6))
        guarded += has_guarded_move(bad)
    assert guarded > 0


def test_enabled_actions_are_what_step_fires():
    """At every configuration `step` reaches in an invalid variant,
    `enabled_actions` lists exactly the actions `step` fires, and the
    kernel fires them to the same configurations."""
    for _, bad in invalid_variants():
        expand = node_kernel(bad)
        for c in reach(lambda c: [c2 for _, c2 in fired(bad, c)], [bad.initial_configuration()]):
            moves = fired(bad, c)
            assert enabled_actions(bad, c) == [a for a, _ in moves]
            assert expand(c.nodes)[1] == [(a, c2.nodes) for a, c2 in moves]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(base=st.sampled_from(SWEEP_BASES), seed=st.integers(0, 10**6))
def test_graph_accepts_what_member_exec_accepts(base, seed):
    """A word of length at most 3 leads from the initial to the final
    configuration along `configuration_graph` iff `member_exec` accepts it,
    on `broken()` variants (mostly invalid ones)."""
    n = broken(base, random.Random(seed))
    g = configuration_graph(n)
    succ = [dict(zip(*outs)) for outs in g.succ]
    fin = n.final_configuration().nodes
    for w in oracles.all_words(n.alphabet.actions, 3):
        i = 0
        for a in w:
            i = succ[i].get(a)
            if i is None:
                break
        assert (i is not None and g.nodes(i) == fin) == member_exec(n, w)


def fireable_at_two_nodes():
    """x is fireable at A (dom(x) = dnode(A)) and, invalidly, at B, which
    holds only q."""
    alpha = DistributedAlphabet(("p", "q"), ("c", "x"), {"c": ("p", "q"), "x": ("p",)})
    return Negotiation(
        alpha, ("I", "A", "B", "F"), {"I": ("p", "q"), "A": ("p",), "B": ("q",), "F": ("p", "q")},
        {("I", "c", "p"): "A", ("I", "c", "q"): "B", ("A", "x", "p"): "A", ("B", "x", "p"): "A"},
        "I", "F",
    )


def test_action_fireable_at_two_nodes_fires_once():
    """`step` fires x once, from where p sits."""
    n = fireable_at_two_nodes()
    g = configuration_graph(n)
    assert decoded(g) == [("I", "I"), ("A", "B")]
    assert labelled_moves(g, 1) == [("x", ("A", "B"))]
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
    """The guarded move a fires only once q has joined p at m, which never
    happens: the searches answer, by the semantics `member_exec` uses."""

    def test_validate_rejects(self):
        assert validate(invalid_rendezvous()) != []

    def test_is_sound_semantic_finds_the_stuck_configuration(self):
        result = is_sound_semantic(invalid_rendezvous())
        assert not result.sound and result.counterexample.nodes == ("m", "I")

    def test_configuration_graph_stops_at_the_guarded_move(self):
        n = invalid_rendezvous()
        g = configuration_graph(n)
        assert decoded(g) == [("I", "I"), ("m", "I")] and g.succ == [(("b",), (1,)), ((), ())]
        with pytest.raises(NotEnabled, match=BAD_MOVE):
            step(n, Configuration(g.processes, g.nodes(1)), "a")

    def test_equiv_query_answers(self):
        sound = over_z(("I", "F"))
        unsound = over_z(("I", "X"))  # X has no move: a deadlock
        assert not is_sound_semantic(unsound).sound
        ans = Teacher(invalid_rendezvous()).equiv_query(sound)
        assert (ans.sign, ans.word) == ("negative", ("z",))
        ans = Teacher(sound).equiv_query(invalid_rendezvous())
        assert (ans.sign, ans.word) == ("positive", ("z",))
        # an unsound target sends the query straight to the product search;
        # both languages are empty
        assert Teacher(unsound).equiv_query(invalid_rendezvous()).equivalent

    def test_cli_sound_reports_the_stuck_configuration(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(serialize(invalid_rendezvous()), encoding="utf-8")
        assert cli.main(["sound", str(path)]) == cli.EXIT_FALSE
        out, err = capsys.readouterr()
        assert out == '{"configuration":{"p":"m","q":"I"}}\n' and err == ""


# -- executions on a list of process positions against the stepwise loops ------

UNKNOWN = "unknown-action"


def execution_words(n, rng, count):
    """`count` seeded words of length 0-25: a third uniform over the
    actions, the rest a random run along `step` padded with random letters,
    and every fifth with an unknown action put in somewhere."""
    actions = n.alphabet.actions
    words = []
    for k in range(count):
        length = rng.randrange(26)
        w = []
        c = n.initial_configuration()
        while k % 3 and len(w) < length:
            moves = fired(n, c)
            if not moves:
                break
            a, c = rng.choice(moves)
            w.append(a)
        w += [rng.choice(actions) for _ in range(length - len(w))]
        if k % 5 == 4:
            w.insert(rng.randrange(len(w) + 1), UNKNOWN)
        words.append(tuple(w))
    return words


def assert_executions_agree(n, rng, count, seeds=(0, 1, 2)):
    """Both execution routes answer as their stepwise loops on `count`
    words of `n`; returns each run's status, or the error type raised."""
    seen = set()
    for w in execution_words(n, rng, count):
        got = outcome(run_execution, n, w)
        assert got == outcome(oracles.stepwise_run_execution, n, w)
        seen.add(got[0] if isinstance(got, tuple) else got.status)
        assert outcome(traces.max_executable_prefix, n, w) == outcome(
            oracles.stepwise_max_executable_prefix, n, w)
        for seed in seeds:
            assert outcome(traces.max_executable_prefix, n, w, rng=random.Random(seed)) == outcome(
                oracles.stepwise_max_executable_prefix, n, w, rng=random.Random(seed))
    return seen


def test_executions_agree_with_the_stepwise_loops(valid_inputs):
    """Outcomes, ends, prefixes, remainders and raised errors are the
    stepwise loops', on valid inputs and their mutants, on invalid variants
    (guarded moves among them) and on both hand-made invalid negotiations."""
    rng = random.Random(17)
    seen = set()
    for n, mutants in valid_inputs:
        for m in (n, *mutants):
            seen |= assert_executions_agree(m, rng, 4)
    guarded = 0
    for _, bad in invalid_variants():
        seen |= assert_executions_agree(bad, rng, 4)
        guarded += has_guarded_move(bad)
    for n in (invalid_rendezvous(), fireable_at_two_nodes()):
        seen |= assert_executions_agree(n, rng, 40)
    assert guarded > 0
    assert seen == {ExecutionOutcome.COMPLETED, ExecutionOutcome.PARTIAL,
                    ExecutionOutcome.STUCK, UnknownAction}
