"""Input families of the benchmark.

Every family is built here from the library's public constructors, so a
change to the test fixtures cannot move the benchmark. Randomness comes only
from the `random.Random` passed in, so a workload seed fixes every input.
"""

from __future__ import annotations

from reference import RefModel, trace_key


def permuted(lib, n, rng):
    """`n` with its declared action and process orders shuffled.

    Declared order decides normal forms, the BFS tie-breaks and therefore the
    counterexamples, so the permuted target is a different input to every
    layer while its language, up to renaming the order, is the same.
    """
    actions = list(n.alphabet.actions)
    processes = list(n.alphabet.processes)
    rng.shuffle(actions)
    rng.shuffle(processes)
    alpha = lib.model.DistributedAlphabet(tuple(processes), tuple(actions), dict(n.alphabet.dom))
    return lib.model.Negotiation(alpha, n.nodes, dict(n.dnode), dict(n.delta), n.init, n.fin)


def fork_with_loops(lib, width: int):
    """`c` forks `width` processes; each loops on `u_i` with period 2 and
    leaves on `v_i`; `d` joins them. Reachable configurations: 3**width + 2.
    """
    procs = tuple(f"p{i}" for i in range(width))
    actions = ["c"]
    dom = {"c": procs}
    nodes = ["init"]
    dnode = {"init": procs}
    delta = {}
    for i, p in enumerate(procs):
        u, v = f"u{i}", f"v{i}"
        even, odd = f"b{i}e", f"b{i}o"
        actions += [u, v]
        dom[u] = dom[v] = (p,)
        nodes += [even, odd]
        dnode[even] = dnode[odd] = (p,)
        delta[("init", "c", p)] = even
        delta[(even, u, p)] = odd
        delta[(odd, u, p)] = even
        delta[(even, v, p)] = "join"
    actions.append("d")
    dom["d"] = procs
    nodes += ["join", "fin"]
    dnode["join"] = dnode["fin"] = procs
    for p in procs:
        delta[("join", "d", p)] = "fin"
    alpha = lib.model.DistributedAlphabet(procs, tuple(actions), dom)
    return lib.model.Negotiation(alpha, tuple(nodes), dnode, delta, "init", "fin")


def mod_counter(lib, k: int):
    """Two processes count a shared `b` modulo k and close with `a` from
    zero: L = { b^(k*j) a : j >= 0 }."""
    alpha = lib.model.DistributedAlphabet(("p", "q"), ("a", "b"), {"a": ("p", "q"), "b": ("p", "q")})
    nodes = tuple(f"c{i}" for i in range(k)) + ("fin",)
    dnode = {m: ("p", "q") for m in nodes}
    delta = {}
    for i in range(k):
        for p in ("p", "q"):
            delta[(f"c{i}", "b", p)] = f"c{(i + 1) % k}"
    for p in ("p", "q"):
        delta[("c0", "a", p)] = "fin"
    return lib.model.Negotiation(alpha, nodes, dnode, delta, "c0", "fin")


def schedule_params(lib, index: int):
    """Entry `index` of the acceptance corpus's generator schedule."""
    return lib.generate.GenParams(
        process_count=1 + index % 4,
        target_node_count=3 + (index * 5) % 13,
        loop_probability=(index % 4) * 0.15,
        fork_probability=(index % 3) * 0.2,
        seed=index,
    )


def mutate(lib, n, rng):
    """A validity-preserving mutant: retarget one transition of one process,
    or drop one action out of a node that keeps another. None when 40 tries
    give no valid mutant."""
    keys = sorted(n.delta)
    for _ in range(40):
        if rng.random() < 0.5:
            m, a, p = keys[rng.randrange(len(keys))]
            choices = [t for t in n.nodes if p in n.dnode[t] and t != n.delta[(m, a, p)]]
            if not choices:
                continue
            delta = dict(n.delta)
            delta[(m, a, p)] = rng.choice(choices)
        else:
            m, a, _ = keys[rng.randrange(len(keys))]
            if len({b for (src, b, _) in keys if src == m}) < 2:
                continue
            delta = {k: v for k, v in n.delta.items() if (k[0], k[1]) != (m, a)}
        mutant = lib.model.Negotiation(n.alphabet, n.nodes, dict(n.dnode), delta, n.init, n.fin)
        if not lib.model.validate(mutant):
            return mutant
    return None


def execution_stream(model: RefModel, succ: dict, rng, count: int, lo: int, hi: int):
    """`count` executions, pairwise distinct as traces, with lengths spread
    evenly over lo..hi: a random walk through configurations that can still
    loop and still reach fin, closed by the alphabetically least shortest
    completion. Every second word is perturbed by one random edit, which
    usually makes it a non-member. Choices go by action name, not by
    declared order, so permuting the declared order leaves the words as
    they are."""
    dist = model.distances_to_fin(succ)
    endless = _endless(model, succ)
    words = []
    seen = set()
    for _ in range(count * 20):
        if len(words) == count:
            break
        length = lo + (hi - lo) * len(words) // max(1, count - 1)
        conf, word = model.init, []
        while len(word) + dist[conf] < length:
            moves = sorted((a, c) for a, c in succ[conf] if c in dist and c in endless)
            if not moves:
                break
            a, conf = rng.choice(moves)
            word.append(a)
        while conf != model.fin:
            a, conf = min((a, c) for a, c in succ[conf] if dist.get(c) == dist[conf] - 1)
            word.append(a)
        if len(words) % 2:
            i = rng.randrange(len(word))
            edit = rng.randrange(3)
            if edit == 0:
                del word[i]
            elif edit == 1 and i + 1 < len(word):
                word[i], word[i + 1] = word[i + 1], word[i]
            else:
                word[i] = rng.choice(sorted(model.actions))
        key = trace_key(model, word)
        if key not in seen:
            seen.add(key)
            words.append(tuple(word))
    if len(words) < count:
        raise RuntimeError(f"only {len(words)} distinct executions out of {count}")
    return words


def _endless(model: RefModel, succ: dict) -> set:
    """Configurations that start an infinite run which avoids fin: the
    greatest set in which every member has a successor in the set."""
    alive = set(succ) - {model.fin}
    pred = {}
    for conf, outs in succ.items():
        for _, nxt in outs:
            pred.setdefault(nxt, []).append(conf)
    degree = {c: sum(n in alive for _, n in succ[c]) for c in alive}
    dead = [c for c in alive if not degree[c]]
    while dead:
        conf = dead.pop()
        alive.discard(conf)
        for prev in pred.get(conf, ()):
            if prev in alive:
                degree[prev] -= 1
                if not degree[prev]:
                    dead.append(prev)
    return alive


def describe(n, configurations: int) -> dict:
    """The size of an input, printed so a generator change shows up as an
    input change rather than as a speed-up."""
    return {
        "processes": len(n.alphabet.processes),
        "actions": len(n.alphabet.actions),
        "nodes": len(n.nodes),
        "configurations": configurations,
    }
