"""Golden digests of both learners: what they learn, log and ask must stay
byte-identical across refactorings.

Each case pins two values:

- a behaviour digest, the sha256 of `formats.serialize(learned)`, the log as
  JSONL (as `neg learn --trace` writes it) and the teacher's
  `membership_distinct`, `equivalence_total` and `max_counterexample_len`,
  joined by newlines. A change in which membership queries the learner
  asks, in what it learns or in what it logs moves it;
- `membership_total`, the raw query count. It moves when the learner asks
  the same questions more or less often, as when one closure pass replaced
  a second scan of the table, and is pinned on its own so such a change can
  be re-pinned without touching the behaviour digest.

Regenerate with

    PYTHONPATH=src:tests python tests/test_learner_golden.py

only when a change is meant to alter learner behaviour, and say so.
"""

import hashlib
import json

import pytest

from negotiations import formats, learn_exec, learn_paths
from negotiations.generate import GenParams, generate
from negotiations.teacher import Teacher

import fixtures

FIXTURES = [
    "ping", "fork", "fork_unsound", "fork_split", "loop2", "mod15",
    "two_period", "forked_periods", "ping_over_mod15", "editorial",
]
# acceptance-corpus seeds (see test_acceptance._make_corpus), 2-4 processes
CORPUS_SEEDS = [1, 7, 10, 14, 15, 31, 33, 38]


def corpus_target(seed):
    return generate(GenParams(
        process_count=1 + seed % 4,
        target_node_count=3 + (seed * 5) % 13,
        loop_probability=(seed % 4) * 0.15,
        fork_probability=(seed % 3) * 0.2,
        seed=seed,
    ))


def target_of(name):
    if name.startswith("corpus"):
        return corpus_target(int(name[len("corpus"):]))
    return getattr(fixtures, name)()


CASES = (
    [(mode, name, False) for mode in ("paths", "exec") for name in FIXTURES]
    + [(mode, f"corpus{s}", False) for mode in ("paths", "exec") for s in CORPUS_SEEDS]
    + [(mode, name, True) for mode in ("paths", "exec") for name in FIXTURES]
)


def run(mode, name, debug):
    """(behaviour digest, membership_total) of one learning run."""
    teacher = Teacher(target_of(name))
    log = []
    learner = learn_exec if mode == "exec" else learn_paths
    learned = learner.learn(teacher, debug=debug, log=log)
    jsonl = "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in log)
    stats = teacher.stats.to_json()
    total = stats.pop("membership_total")
    blob = "\n".join([formats.serialize(learned), jsonl,
                      json.dumps(stats, separators=(",", ":"))])
    return hashlib.sha256(blob.encode()).hexdigest(), total


def case_id(mode, name, debug):
    return f"{mode}-{name}" + ("-debug" if debug else "")


GOLDEN = {
    "paths-ping": "e5ec3894da5157d2bf5c1fd425558ccb4829400f8781c531e8fb85b891c2ca20",
    "paths-fork": "727047e018d97e2c2bf933d5cf97a53bcda34d07996a1a7c7feebe1b9dd67304",
    "paths-fork_unsound": "ffb8f9f66db4db023b927fb5e0b3642e0c423a3111ee656e7a9f4a23c6795b8a",
    "paths-fork_split": "ffb8f9f66db4db023b927fb5e0b3642e0c423a3111ee656e7a9f4a23c6795b8a",
    "paths-loop2": "40b77bdcec089ad909f587f444460d4eb17ce9f367f4c82cc01a44051b8131be",
    "paths-mod15": "7dd5c0682ea2df13188a1ea31b5c9d5eeca20cc501397e7957f76e7b95d094ef",
    "paths-two_period": "12580fd1618f03d8dcb66e7453596fb3acaa0f07f020e0533686f69858c2bf03",
    "paths-forked_periods": "52f2690a807ddedbbac936ae515c86638ee2bba7786196c15706e0c84f07dc06",
    "paths-ping_over_mod15": "252e0af49f801ed13b819a93d27ae44a73e291d14a19c0cb6b87e1e080158841",
    "paths-editorial": "39980748050c4da9f396f97deb243754161c149c5ea8c642b7a0148de893f5e5",
    "exec-ping": "6191499f189b5f57b0d9b153703ea364904094f14d23a99699f2286cdfb41f84",
    "exec-fork": "ba51220d91b27d36fa1e9beabe20d20b25f1583b694c1cae9cbc16ed08c46591",
    "exec-fork_unsound": "987ff7d8e05b70bad7136e0a400a59e76477ab52a6f5e4047bddb7c5ef25f63e",
    "exec-fork_split": "987ff7d8e05b70bad7136e0a400a59e76477ab52a6f5e4047bddb7c5ef25f63e",
    "exec-loop2": "10638940148195c6a55555c0d27ea515750c69ee949e40d2bba0e577e1bca03b",
    "exec-mod15": "e86f8139959c7979aba754cd5a54fcae3bff3825df0c22155261e8e90e872eb9",
    "exec-two_period": "31fb16f113a960b9e2f047d71f60b49763d4a2f77f429d55a574135d29ec1dbe",
    "exec-forked_periods": "a268de498e3651908810c315a65221db7fda89275cec885a2abab63a7e80be1c",
    "exec-ping_over_mod15": "18cde80e5a08fa475f8a46a711b2a666a06d1735627fd108df7ee9d23b9ade26",
    "exec-editorial": "fdbb3debb4df004de7e6404bb398865ab439a20928078e88fb65baa86f5ddabf",
    "paths-corpus1": "7b8f8aa20715b0f701fd1d07162c6da70fe607935ce9934653033e424324cd4e",
    "paths-corpus7": "90fda8c92731e789f091cb553ddf9034941d70a034588c41c552d1efe6a62240",
    "paths-corpus10": "b4daa0bf9038ce6a0727883cb6b3ab3dfd0710fc5a7cb9881abe2c2bb23d79a8",
    "paths-corpus14": "0eb1ac3f4f58f6f000241fe33082342d15e403fc1ed61c32b1f0948fc3e92e60",
    "paths-corpus15": "17d1d4c7ee67d491da871d50496cd5ec3ded465823ad258aec04861b383b0b7d",
    "paths-corpus31": "93080f8f514298e343a195fd515acb007d04c4d272185931b2d5dfac58f5c392",
    "paths-corpus33": "cebd71909ed3e503359dd9e37f0ad32f3c45ef57f356e3e44aa4769433d9fe2a",
    "paths-corpus38": "35799982031777cb768a67c5895b9171eed5ff4e78331332705fb43253e336f2",
    "exec-corpus1": "ae577d9f2af2dcbf6cb47a60f944ec5ea76145bca018a033995c624a5e764975",
    "exec-corpus7": "5164880fff4f9720f737addec8e0a180bbd6506aa75e4917b727c86b16724782",
    "exec-corpus10": "04b2229c6c87b8343c53458284c360956aa403a3e6f031fb96af93f7326d6282",
    "exec-corpus14": "faa4c64143629cc175cbede4f1bdfb0c1abf8c93b8877714a88e139e7d6d448d",
    "exec-corpus15": "597d787c787996ba933fe3af2f35813555a3f749786402673dc640e552c8e881",
    "exec-corpus31": "45331f24a16f77793e3da0ae9b3eba47e4428eaaa2dde98053e01265dca66d70",
    "exec-corpus33": "03d766130bbf465cb4a6d6a29c57fc9926c22970f81a811e536fccfb442b2d27",
    "exec-corpus38": "4e9cc2d71cb2e7ddde61a56db753e978d335a7d2b59b8f78253ccd5db852b9da",
    "paths-ping-debug": "a4a75016e8ac0633da1c36571cd924f2893ab813a1dfe5e8a9594fb8cc9666fd",
    "paths-fork-debug": "807e39ae4051221e7893759698540ce95fc1abc0eeb6c7797b22a773454abcb8",
    "paths-fork_unsound-debug": "ffb8f9f66db4db023b927fb5e0b3642e0c423a3111ee656e7a9f4a23c6795b8a",
    "paths-fork_split-debug": "ffb8f9f66db4db023b927fb5e0b3642e0c423a3111ee656e7a9f4a23c6795b8a",
    "paths-loop2-debug": "cd6498a264530ba0f71044ef39b4aad3406b0df6a5a51d7b014c1ee998eb1699",
    "paths-mod15-debug": "a1d5411b00b99e18b4985ebd9949451a5933cf69e56020f3da0603cf8f0b8f8b",
    "paths-two_period-debug": "47b899e3c3510a37a5826d6d754e920410c199cbc9eb7b77066421f0c6f571b5",
    "paths-forked_periods-debug": "1de400c3e17d23ead38f9951c8aea10671f82f45c85b10072ae7de9a0dab7bd5",
    "paths-ping_over_mod15-debug": "06568f489c5dd1906dfd80483cafd8d2ffcf7c1a139c3a32b405f3ff74d6e3c2",
    "paths-editorial-debug": "41ffd80972bbacf3b6c173d780784d54eddd8f95c6360044ad0921b6f457d766",
    "exec-ping-debug": "3db9e24a0f50129097d0809905049becb25ae4c18d0a17234786814941fff963",
    "exec-fork-debug": "8a9f8c9c68f3c3ef736fcc08aaf5eee3ddd0f91bbcd312f9ddf6a86eb2db4f73",
    "exec-fork_unsound-debug": "987ff7d8e05b70bad7136e0a400a59e76477ab52a6f5e4047bddb7c5ef25f63e",
    "exec-fork_split-debug": "987ff7d8e05b70bad7136e0a400a59e76477ab52a6f5e4047bddb7c5ef25f63e",
    "exec-loop2-debug": "cf286ab02034efea06784745f3d8a9f89269b78541258e5294ad04cb7bde4c18",
    "exec-mod15-debug": "21eaf55c5cd3a96044c04cd11abf1922f59d51fc4ef4dbb2faf56a080e447ff0",
    "exec-two_period-debug": "f8be1700983038a96ab2fe89c0d9a0a18e59a4fc4b409236a5df46e29482b2d8",
    "exec-forked_periods-debug": "6d0709f88a02d63b9a18f7b681dbb8da6c9321f41a97d3a21c02600d81a7f7d1",
    "exec-ping_over_mod15-debug": "4c2ca1804287ab463537bd1f6fe8e42d5908ccf0c6433f82d705cc6a161a3185",
    "exec-editorial-debug": "b1167269205393096e920d58501a4543afebd7b6a13fb0f2a1fef6f7a75d218a",
}
MEMBERSHIP_TOTAL = {
    "paths-ping": 72,
    "paths-fork": 351,
    "paths-fork_unsound": 0,
    "paths-fork_split": 0,
    "paths-loop2": 161,
    "paths-mod15": 36815,
    "paths-two_period": 3536,
    "paths-forked_periods": 2185,
    "paths-ping_over_mod15": 72,
    "paths-editorial": 4683,
    "exec-ping": 63,
    "exec-fork": 343,
    "exec-fork_unsound": 0,
    "exec-fork_split": 0,
    "exec-loop2": 131,
    "exec-mod15": 22430,
    "exec-two_period": 2493,
    "exec-forked_periods": 1898,
    "exec-ping_over_mod15": 63,
    "exec-editorial": 2428,
    "paths-corpus1": 776,
    "paths-corpus7": 16611,
    "paths-corpus10": 11457,
    "paths-corpus14": 2225,
    "paths-corpus15": 11732,
    "paths-corpus31": 14905,
    "paths-corpus33": 3671,
    "paths-corpus38": 2069,
    "exec-corpus1": 606,
    "exec-corpus7": 6055,
    "exec-corpus10": 6248,
    "exec-corpus14": 1365,
    "exec-corpus15": 4251,
    "exec-corpus31": 7657,
    "exec-corpus33": 2541,
    "exec-corpus38": 1298,
    "paths-ping-debug": 97,
    "paths-fork-debug": 519,
    "paths-fork_unsound-debug": 0,
    "paths-fork_split-debug": 0,
    "paths-loop2-debug": 205,
    "paths-mod15-debug": 50715,
    "paths-two_period-debug": 4422,
    "paths-forked_periods-debug": 3316,
    "paths-ping_over_mod15-debug": 97,
    "paths-editorial-debug": 5996,
    "exec-ping-debug": 100,
    "exec-fork-debug": 574,
    "exec-fork_unsound-debug": 0,
    "exec-fork_split-debug": 0,
    "exec-loop2-debug": 196,
    "exec-mod15-debug": 32703,
    "exec-two_period-debug": 3454,
    "exec-forked_periods-debug": 3037,
    "exec-ping_over_mod15-debug": 100,
    "exec-editorial-debug": 3485,
}


@pytest.mark.parametrize("mode,name,debug", CASES, ids=[case_id(*c) for c in CASES])
def test_golden_digest(mode, name, debug):
    behaviour, total = run(mode, name, debug)
    key = case_id(mode, name, debug)
    assert behaviour == GOLDEN[key]
    assert total == MEMBERSHIP_TOTAL[key]


if __name__ == "__main__":
    results = [(case_id(*case), run(*case)) for case in CASES]
    print("GOLDEN = {")
    for key, (behaviour, _) in results:
        print(f'    "{key}": "{behaviour}",')
    print("}")
    print("MEMBERSHIP_TOTAL = {")
    for key, (_, total) in results:
        print(f'    "{key}": {total},')
    print("}")
