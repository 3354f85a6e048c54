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
    "paths-ping": "e326e5eff72423485efb13ce13b36f1587373d96a26bb81cd86dec9b74020660",
    "paths-fork": "ff73f22b546f8b0c2219a8223614066d3b17501f0deab0e60e457ee233dca254",
    "paths-fork_unsound": "ffb8f9f66db4db023b927fb5e0b3642e0c423a3111ee656e7a9f4a23c6795b8a",
    "paths-fork_split": "ffb8f9f66db4db023b927fb5e0b3642e0c423a3111ee656e7a9f4a23c6795b8a",
    "paths-loop2": "88f9b04071196d28030f7eeb6fa19f1c8596a0b24e2365eafee04c5c25ef9ded",
    "paths-mod15": "e863bbb674ee1e88e292c6d94aee0188baefc135db2589c3c3d94f613f79226f",
    "paths-two_period": "f4a64e184ef99094ec663a8b2c06680aae9966ea30654a00dc97bca4350f9cc1",
    "paths-forked_periods": "5c59473dede47c26059849e4f9f16f28d7de9aca74003567b1462bf1bb3d7d2c",
    "paths-ping_over_mod15": "61df57db4d6bc9111deda101ff65ec0057ab4cd2ea567d11aca8afcdc496247e",
    "paths-editorial": "758ddff2c17977420013eda3710eaacd18e7fb444dce8f156e5dc4dd0bc6665b",
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
    "paths-corpus1": "47e93dc28576c0b585d4e65b50ea434999d236ddb7865f67943dd6b33ac0fef1",
    "paths-corpus7": "bbc73f7815825d1941f92c620cadc1c7135f0522523c60af884457fc86e3fca7",
    "paths-corpus10": "ad659feeedb535deaa8ecdd1d58d2a8731435b3d5b27296d6049ff233481556f",
    "paths-corpus14": "13eb98005c671f20fb2accd0776fc02aaafe0f3ef2780d2acbc49e234f3d4047",
    "paths-corpus15": "7ae29c8a6f76a050e3d30c80b590bdb6756f84d816742d47afcdd67f77b0eb79",
    "paths-corpus31": "610978eb091813db60091abac6c0bd87c0c8c8110732d12d54b8f9a354e91edc",
    "paths-corpus33": "216f359414ea83c5ad9d8622b8550cc394d00d817458593dcd0ead7768b30304",
    "paths-corpus38": "346db75f4aae5a7e5ebe4bbd01b843cb6ff1cdc89f0ad9794674277f17d690da",
    "exec-corpus1": "ae577d9f2af2dcbf6cb47a60f944ec5ea76145bca018a033995c624a5e764975",
    "exec-corpus7": "5164880fff4f9720f737addec8e0a180bbd6506aa75e4917b727c86b16724782",
    "exec-corpus10": "04b2229c6c87b8343c53458284c360956aa403a3e6f031fb96af93f7326d6282",
    "exec-corpus14": "faa4c64143629cc175cbede4f1bdfb0c1abf8c93b8877714a88e139e7d6d448d",
    "exec-corpus15": "597d787c787996ba933fe3af2f35813555a3f749786402673dc640e552c8e881",
    "exec-corpus31": "45331f24a16f77793e3da0ae9b3eba47e4428eaaa2dde98053e01265dca66d70",
    "exec-corpus33": "03d766130bbf465cb4a6d6a29c57fc9926c22970f81a811e536fccfb442b2d27",
    "exec-corpus38": "4e9cc2d71cb2e7ddde61a56db753e978d335a7d2b59b8f78253ccd5db852b9da",
    "paths-ping-debug": "b067981385700597a27fcceafaba4a310ed5997086359ed6c9517478863ff6d9",
    "paths-fork-debug": "d9bedd55475f19c4e608bbcb5abf3fbe5591b2eb48f7e26206a206c5f7d7a3fc",
    "paths-fork_unsound-debug": "ffb8f9f66db4db023b927fb5e0b3642e0c423a3111ee656e7a9f4a23c6795b8a",
    "paths-fork_split-debug": "ffb8f9f66db4db023b927fb5e0b3642e0c423a3111ee656e7a9f4a23c6795b8a",
    "paths-loop2-debug": "e1d5025beccdc798694ba80e56de510fb6d51738c73a828530ffbad0a7d0bf81",
    "paths-mod15-debug": "e9f8efbf69177bbbf46cd0c724d8817d0220b0a25b34c6577200c8233f02ba5d",
    "paths-two_period-debug": "c067b051a259d90558e2a3ae1b36fa45e02ca1455ad04581f537ff6255cbad80",
    "paths-forked_periods-debug": "88a03375545777297256caf675b248ea67108907305d5dae10c44ef2c2fa0318",
    "paths-ping_over_mod15-debug": "09dcc7e8eee8a9fe6f2a4c8cf0e1c88bfdf8a089864c96f08f9d3747c40bee17",
    "paths-editorial-debug": "c8bceb10c051d9f765346f78232a2752fa4a22c383c6c7410c783711c5e02b10",
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
    "paths-ping": 128,
    "paths-fork": 511,
    "paths-fork_unsound": 0,
    "paths-fork_split": 0,
    "paths-loop2": 241,
    "paths-mod15": 42555,
    "paths-two_period": 4076,
    "paths-forked_periods": 2615,
    "paths-ping_over_mod15": 128,
    "paths-editorial": 5947,
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
    "paths-corpus1": 1040,
    "paths-corpus7": 20067,
    "paths-corpus10": 13281,
    "paths-corpus14": 2747,
    "paths-corpus15": 14316,
    "paths-corpus31": 17423,
    "paths-corpus33": 4571,
    "paths-corpus38": 2637,
    "exec-corpus1": 606,
    "exec-corpus7": 6055,
    "exec-corpus10": 6248,
    "exec-corpus14": 1365,
    "exec-corpus15": 4251,
    "exec-corpus31": 7657,
    "exec-corpus33": 2541,
    "exec-corpus38": 1298,
    "paths-ping-debug": 233,
    "paths-fork-debug": 1029,
    "paths-fork_unsound-debug": 0,
    "paths-fork_split-debug": 0,
    "paths-loop2-debug": 449,
    "paths-mod15-debug": 93375,
    "paths-two_period-debug": 8482,
    "paths-forked_periods-debug": 5920,
    "paths-ping_over_mod15-debug": 233,
    "paths-editorial-debug": 11920,
    "exec-ping-debug": 160,
    "exec-fork-debug": 890,
    "exec-fork_unsound-debug": 0,
    "exec-fork_split-debug": 0,
    "exec-loop2-debug": 316,
    "exec-mod15-debug": 54127,
    "exec-two_period-debug": 5770,
    "exec-forked_periods-debug": 4739,
    "exec-ping_over_mod15-debug": 160,
    "exec-editorial-debug": 5799,
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
