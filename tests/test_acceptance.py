"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them). Corpus sizes and tolerances are fixed here, not
calibrated elsewhere.
"""

import math
import random

import pytest

from negotiations import learn_exec, learn_paths, traces
from negotiations.automata import minimize_negotiation, neg_equiv
from negotiations.errors import BudgetExceeded
from negotiations.formats import serialize
from negotiations.generate import GenParams, generate
from negotiations.model import (
    DistributedAlphabet,
    Negotiation,
    compute_I,
    validate,
)
from negotiations.soundness import find_any_pattern, is_sound_semantic, verify_witness
from negotiations.teacher import Teacher

import fixtures
import oracles
from test_soundness import mutate


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name}: {detail}"


def neg_size(n):
    return len(n.nodes) + len(n.delta)


def _make_corpus(count=200, max_nodes=15, max_procs=4):
    corpus = []
    seed = 0
    while len(corpus) < count:
        params = GenParams(
            process_count=1 + seed % max_procs,
            target_node_count=3 + (seed * 5) % 13,
            loop_probability=(seed % 4) * 0.15,
            fork_probability=(seed % 3) * 0.2,
            seed=seed,
        )
        n = generate(params)
        if len(n.nodes) <= max_nodes:
            corpus.append(n)
        seed += 1
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return _make_corpus()


def test_criterion_1_minimization_canonicity(corpus):
    bad = []
    for i, n in enumerate(corpus):
        m = minimize_negotiation(n)
        if validate(m) != []:
            bad.append((i, "invalid"))
            continue
        if not is_sound_semantic(m).sound:
            bad.append((i, "unsound"))
            continue
        if oracles.shortest_difference(n, m, 10) is not None:
            bad.append((i, "language differs within length 10"))
    report(1, "minimization canonicity", not bad,
           f"{len(corpus)} instances" + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_2_equivalence_cross_check(corpus):
    rng = random.Random(2024)
    bad = []
    pairs = []
    for n in corpus[:100]:
        # renamed copy: equivalent by construction
        ren = {m: f"r_{m}" for m in n.nodes}
        pairs.append((n, Negotiation(
            n.alphabet,
            tuple(ren[m] for m in n.nodes),
            {ren[m]: d for m, d in n.dnode.items()},
            {(ren[m], a, p): ren[t] for (m, a, p), t in n.delta.items()},
            ren[n.init],
            ren[n.fin],
        )))
    perturbed = 0
    i = 0
    while perturbed < 100:
        n = corpus[i % len(corpus)]
        i += 1
        other = mutate(n, rng)
        if other is None or not is_sound_semantic(other).sound:
            continue
        pairs.append((n, other))
        perturbed += 1
    for idx, (n, other) in enumerate(pairs):
        fast = neg_equiv(n, other)
        product = Teacher(n)._product_search(other).equivalent
        if fast != product:
            bad.append((idx, fast, product))
    report(2, "equivalence oracle cross-check", not bad and len(pairs) >= 200,
           f"{len(pairs)} pairs" + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_3_soundness_cross_oracle():
    rng = random.Random(7)
    corpus = _make_corpus(count=250, max_nodes=12)
    instances = []
    for n in corpus:
        instances.append(n)
        mutant = mutate(n, rng)
        if mutant is not None:
            instances.append(mutant)
    extra = 0
    while len(instances) < 500:
        extra += 1
        n = generate(GenParams(1 + extra % 3, 3 + extra % 9, 0.3, 0.4, seed=9000 + extra))
        if len(n.nodes) <= 12:
            instances.append(n)
            mutant = mutate(n, rng)
            if mutant is not None:
                instances.append(mutant)
    disagreements = []
    overruns = 0
    replay_failures = []
    for i, n in enumerate(instances):
        try:
            semantic = is_sound_semantic(n).sound
            witness = find_any_pattern(n)
        except BudgetExceeded:
            overruns += 1
            continue
        if semantic != (witness is None):
            disagreements.append(i)
        elif witness is not None and not verify_witness(n, witness):
            replay_failures.append(i)
    ok = not disagreements and not replay_failures and len(instances) >= 500
    report(3, "soundness cross-oracle", ok,
           f"{len(instances)} instances, {overruns} budget overruns reported, "
           f"{len(disagreements)} disagreements, {len(replay_failures)} replay failures")


def test_criterion_4_path_learner(corpus):
    bad = []
    for i, n in enumerate(corpus):
        teacher = Teacher(n)
        got = learn_paths.learn(teacher, debug=False)
        minimal = minimize_negotiation(n)
        if not neg_equiv(got, n):
            bad.append((i, "not equivalent"))
            continue
        if len(got.nodes) != len(minimal.nodes) or len(got.delta) != len(minimal.delta):
            bad.append((i, "not minimal"))
            continue
        if serialize(minimize_negotiation(got)) != serialize(minimal):
            bad.append((i, "not isomorphic to the canonical minimal negotiation"))
            continue
        s = neg_size(minimal)
        m = teacher.stats.max_counterexample_len
        bound = 16 * s * (s + len(n.alphabet.processes) + math.log2(m + 2))
        if teacher.stats.membership_distinct > bound:
            bad.append((i, f"membership budget {teacher.stats.membership_distinct} > {bound:.0f}"))
        if teacher.stats.equivalence_total > s:
            bad.append((i, f"equivalence budget {teacher.stats.equivalence_total} > {s}"))
    report(4, "local-path learner convergence and budgets", not bad,
           f"{len(corpus)} targets" + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_5_exec_learner(corpus):
    bad = []
    for i, n in enumerate(corpus):
        teacher = Teacher(n)
        log = []
        got = learn_exec.learn(teacher, debug=False, log=log)
        if not neg_equiv(got, n):
            bad.append((i, "not equivalent"))
            continue
        equivs = [e for e in log if e["event"] == "equiv"]
        if not all(e["sound_hypothesis"] for e in equivs[1:]):
            bad.append((i, "equivalence query on unsound hypothesis"))
            continue
        minimal = minimize_negotiation(n)
        if len(got.nodes) != len(minimal.nodes) or len(got.delta) != len(minimal.delta):
            bad.append((i, "not minimal"))
            continue
        if serialize(minimize_negotiation(got)) != serialize(minimal):
            bad.append((i, "not isomorphic to the canonical minimal negotiation"))
            continue
        s = neg_size(minimal)
        m = teacher.stats.max_counterexample_len
        bound = 16 * s * (s * s + math.log2(m + 2))
        if teacher.stats.membership_distinct > bound:
            bad.append((i, f"membership budget {teacher.stats.membership_distinct} > {bound:.0f}"))
        if teacher.stats.equivalence_total > s:
            bad.append((i, f"equivalence budget {teacher.stats.equivalence_total} > {s}"))
    report(5, "execution-only learner convergence and budgets", not bad,
           f"{len(corpus)} targets" + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_6_mod15():
    target = fixtures.mod15()
    minimal = minimize_negotiation(target)
    golden_nodes = 16  # 15 counting nodes plus the final node; init is c0
    ok = len(minimal.nodes) == golden_nodes
    details = [f"minimal={len(minimal.nodes)}"]
    for name, mod in (("paths", learn_paths), ("exec", learn_exec)):
        got = mod.learn(Teacher(target))
        details.append(f"{name}={len(got.nodes)}")
        ok = ok and len(got.nodes) == golden_nodes and neg_equiv(got, target)
    report(6, "shared-counter fixture golden", ok, ", ".join(details))


def test_criterion_7_trace_oracle_suite():
    alpha = DistributedAlphabet(
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
    checked = 0
    done = set()
    failures = []
    for w in oracles.all_words(alpha.actions, 6):
        if w in done:
            continue
        closure = oracles.trace_closure(alpha, w)
        done0 = len(done)
        done.update(closure)
        expected_nf = min(closure, key=lambda u: oracles.word_key(alpha, u))
        expected_min = {u[0] for u in closure if u}
        expected_coprime = len(w) > 0 and len(expected_min) == 1
        for member in closure:
            checked += 1
            if traces.normal_form(alpha, member) != expected_nf:
                failures.append(("normal_form", member))
            if traces.minimal_actions(alpha, member) != expected_min:
                failures.append(("minimal_actions", member))
            if traces.is_coprime(alpha, member) != expected_coprime:
                failures.append(("is_coprime", member))
            if not oracles.trace_equal(alpha, member, w):
                failures.append(("trace_equal", member))
        # quotient: every linearization prefix is a trace prefix and recomposes
        for member in list(closure)[:24]:
            for cut in range(len(member) + 1):
                u = member[:cut]
                v = traces.trace_quotient(alpha, u, w)
                if v is None or traces.normal_form(alpha, u + v) != expected_nf:
                    failures.append(("trace_quotient", (u, w)))
        if failures:
            break
    # non-prefix rejections, sampled
    rng = random.Random(5)
    for _ in range(2000):
        w = tuple(rng.choice(alpha.actions) for _ in range(rng.randrange(7)))
        u = tuple(rng.choice(alpha.actions) for _ in range(rng.randrange(4)))
        got = traces.trace_quotient(alpha, u, w)
        expected = oracles.brute_quotient(alpha, u, w)
        if (got is None) != (expected is None):
            failures.append(("trace_quotient_sign", (u, w)))
            break
    report(7, "trace-algebra oracle suite", not failures,
           f"{checked} words checked" + (f"; first failure {failures[0]}" if failures else ""))


def test_criterion_8_unique_enabling_configuration(corpus):
    from negotiations.errors import AmbiguousConfiguration, ConfigurationNotFound

    failures = []
    for i, n in enumerate(corpus):
        for node in n.nodes:
            try:
                a = compute_I(n, node)
                b = oracles.stepwise_compute_I(n, node, reverse_ties=True)
            except AmbiguousConfiguration:
                failures.append((i, node, "ambiguous"))
                continue
            except ConfigurationNotFound:
                failures.append((i, node, "not found in a sound negotiation"))
                continue
            if a != b:
                failures.append((i, node, "tie-break dependent"))
    report(8, "unique enabling configuration", not failures,
           f"{sum(len(n.nodes) for n in corpus)} nodes" +
           (f"; first failure {failures[0]}" if failures else ""))


def test_criterion_9_invariant_suites(corpus):
    from negotiations.errors import InvariantViolation

    failures = []
    subset = corpus[:60] + [
        fixtures.ping(), fixtures.fork(), fixtures.loop2(), fixtures.editorial(),
        fixtures.two_period(), fixtures.forked_periods(), fixtures.mod15(),
    ]
    for i, n in enumerate(subset):
        for name, mod in (("paths", learn_paths), ("exec", learn_exec)):
            log = []
            try:
                got = mod.learn(Teacher(n), debug=True, log=log)
            except InvariantViolation as exc:
                failures.append((i, name, str(exc)))
                continue
            if not neg_equiv(got, n):
                failures.append((i, name, "not equivalent"))
            if not any(e["event"] == "invariants" for e in log):
                failures.append((i, name, "no invariant checks logged"))
    report(9, "learner invariant suites", not failures,
           f"{len(subset)} targets x 2 learners" +
           (f"; first failure {failures[0]}" if failures else ""))
