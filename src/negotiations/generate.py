"""Random generation of sound deterministic negotiations.

Structured combinators (sequence, choice, fork/join over a process
partition, loops exiting through a dominating node) keep every output sound
by construction; the structural pattern search asserts it on the validated
output, where it is exact, and regeneration is only a safety net. No
configuration graph is built. Identical parameters give identical output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import RetryExhausted
from .model import DistributedAlphabet, Negotiation, validate
from .soundness import find_any_pattern

_MAX_RETRIES = 8


@dataclass(frozen=True)
class GenParams:
    process_count: int
    target_node_count: int
    loop_probability: float = 0.0
    fork_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.process_count < 1:
            raise ValueError("process_count must be at least 1")
        if self.target_node_count < 1:
            raise ValueError("target_node_count must be at least 1")
        if not 0.0 <= self.loop_probability <= 1.0:
            raise ValueError("loop_probability out of range")
        if not 0.0 <= self.fork_probability <= 1.0:
            raise ValueError("fork_probability out of range")


class _Builder:
    def __init__(self, params: GenParams, rng: random.Random):
        self.params = params
        self.rng = rng
        self.processes = tuple(f"p{i}" for i in range(params.process_count))
        self.nodes = []
        self.dnode = {}
        self.actions = []
        self.dom = {}
        self.delta = {}

    def new_node(self, procs) -> str:
        name = f"n{len(self.nodes)}"
        self.nodes.append(name)
        self.dnode[name] = tuple(procs)
        return name

    def new_action(self, procs) -> str:
        name = f"a{len(self.actions)}"
        self.actions.append(name)
        self.dom[name] = tuple(procs)
        return name

    def connect(self, src, dst_by_proc, procs) -> str:
        # reusing an action of the same domain keeps the alphabet small and
        # forces the learners to actually distinguish states
        procs = tuple(procs)
        reusable = [
            a
            for a in self.actions
            if self.dom[a] == procs and all((src, a, p) not in self.delta for p in procs)
        ]
        if reusable and self.rng.random() < 0.5:
            a = self.rng.choice(reusable)
        else:
            a = self.new_action(procs)
        for p in procs:
            self.delta[(src, a, p)] = dst_by_proc[p]
        return a

    def fill(self, entry, exit_, procs, budget):
        """Grow local paths from entry to exit over `procs`; both endpoint
        nodes have domain `procs`."""
        rng = self.rng
        if budget >= 4 and len(procs) >= 2 and rng.random() < self.params.fork_probability:
            cut = rng.randrange(1, len(procs))
            blocks = [procs[:cut], procs[cut:]]
            entries = {}
            for block in blocks:
                e = self.new_node(block)
                for p in block:
                    entries[p] = e
            self.connect(entry, entries, procs)
            share = max(1, (budget - 2) // len(blocks))
            for block in blocks:
                block_exit = self.new_node(block)
                self.fill(entries[block[0]], block_exit, block, share)
                self.connect(block_exit, {p: exit_ for p in block}, block)
            return
        if budget >= 3 and rng.random() < self.params.loop_probability:
            head = self.new_node(procs)
            self.connect(entry, {p: head for p in procs}, procs)
            body_exit = self.new_node(procs)
            self.fill(head, body_exit, procs, budget - 2)
            # the exit node dominates the loop, so it stays sound
            self.connect(body_exit, {p: head for p in procs}, procs)
            self.connect(body_exit, {p: exit_ for p in procs}, procs)
            return
        if budget >= 3 and rng.random() < 0.5:
            mid = self.new_node(procs)
            left = rng.randrange(1, budget)
            self.fill(entry, mid, procs, left)
            self.fill(mid, exit_, procs, budget - 1 - left)
            return
        if budget >= 2 and rng.random() < 0.4:
            self.fill_edge(entry, exit_, procs)
            self.fill(entry, exit_, procs, budget - 1)
            return
        self.fill_edge(entry, exit_, procs)

    def fill_edge(self, entry, exit_, procs):
        self.connect(entry, {p: exit_ for p in procs}, procs)

    def build(self) -> Negotiation:
        init = self.new_node(self.processes)
        fin = self.new_node(self.processes)
        budget = max(1, self.params.target_node_count - 2)
        self.fill(init, fin, self.processes, budget)
        alphabet = DistributedAlphabet(self.processes, tuple(self.actions), self.dom)
        return Negotiation(
            alphabet=alphabet,
            nodes=tuple(self.nodes),
            dnode=self.dnode,
            delta=self.delta,
            init=init,
            fin=fin,
        )


def generate(params: GenParams) -> Negotiation:
    for attempt in range(_MAX_RETRIES):
        rng = random.Random(params.seed * 1_000_003 + attempt)
        neg = _Builder(params, rng).build()
        if validate(neg):
            continue
        if find_any_pattern(neg) is None:
            return neg
    raise RetryExhausted(f"no sound negotiation after {_MAX_RETRIES} attempts for {params}")
