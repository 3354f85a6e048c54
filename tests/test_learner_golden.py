"""Golden digests of both learners: the learned negotiation, the round log and
the teacher counters must stay byte-identical across refactorings.

Each digest is the sha256 of three parts joined by newlines:
`formats.serialize(learned)`, the log as JSONL (as `neg learn --trace`
writes it) and `teacher.stats.to_json()`. Any change in which membership
queries the learner asks, in which order, or in what it logs moves the
digest. Regenerate with

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


def digest(mode, name, debug):
    teacher = Teacher(target_of(name))
    log = []
    learner = learn_exec if mode == "exec" else learn_paths
    learned = learner.learn(teacher, debug=debug, log=log)
    jsonl = "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in log)
    stats = json.dumps(teacher.stats.to_json(), separators=(",", ":"))
    blob = "\n".join([formats.serialize(learned), jsonl, stats])
    return hashlib.sha256(blob.encode()).hexdigest()


def case_id(mode, name, debug):
    return f"{mode}-{name}" + ("-debug" if debug else "")


GOLDEN = {
    "paths-ping": "8fcdc425f0051b08b38fb46038aa6d610ecee961415d8067ffe3c5429c5ec7cd",
    "paths-fork": "f42877f4353ecbf70ea00a09c6582f4e2e91162661deee3d9b3ee2bd2499f2b5",
    "paths-fork_unsound": "263a1125dacdf835f28349860b398e94abe4ccb46e6b4dacbb66a81d3544b9de",
    "paths-fork_split": "263a1125dacdf835f28349860b398e94abe4ccb46e6b4dacbb66a81d3544b9de",
    "paths-loop2": "388a3a7fb04d3800b253f33000627c79ea7b0611f94a5f0c835d380e646969af",
    "paths-mod15": "d9c0f9db4f3314d2f8c3f454eb2700ececbd2d7ebb8d5ef8fefd0722299c21f4",
    "paths-two_period": "9c23aa0d972f139844d004bef9658c2b7c127f50d740526e4fcbdf190e4af9de",
    "paths-forked_periods": "d30262e600fc84646b3aa2d26786aef301a57331596053c3a5c1942943a22774",
    "paths-ping_over_mod15": "d910cc6947a05b7efffbf4fab52025f7169d0c225f971abac0e45f674d5ecaa1",
    "paths-editorial": "bb97130615666cd78dbad46f8a1a47a95492285fd42c6cf5effb3d8ec9aeac11",
    "exec-ping": "01c56d7be795e0dc4761bd3eeee9215643c26ea4eaa478b85198e79dc0d2c3f3",
    "exec-fork": "c542e97c3611e685e255f86d85a44242d6cd78e876a1227d7a78718011015906",
    "exec-fork_unsound": "2be2f045b49ca7f98c665385fd185739142de9927863ce02973abe11ca7c601e",
    "exec-fork_split": "2be2f045b49ca7f98c665385fd185739142de9927863ce02973abe11ca7c601e",
    "exec-loop2": "b62ca75cff53efa8d9b5689f843ae2f1547c7aae02ee84c8e9f36a10bfc60151",
    "exec-mod15": "ff0d9ec32bd599dec32d495602896d1ed9322c5fe3b8aa912f8d1d123db35ca7",
    "exec-two_period": "1a2f5202f31971e17f1577191369df42f1a88a44785abc65ed2583156fc16ca2",
    "exec-forked_periods": "764950b4ed5bf02b3ae924b70c9eb0b95b5752cebc22b2870d0857616daee74b",
    "exec-ping_over_mod15": "09bf2c5c52ce503ef07ca314eaefcb5a0281e5e96032b1af033d3fb369bee433",
    "exec-editorial": "6a6088f49f2768d91614b6ae0917a4d8348ba31d333dde6141d522e9b85b649e",
    "paths-corpus1": "0c604dba75751c95fe4d1fd33016927a26a0723b89ff70ecaa6d73866b0186bf",
    "paths-corpus7": "574c51f1c95d1fbb0026416249cfc296bf0c8dfe6149b655526850124451a90c",
    "paths-corpus10": "459a97d218aea8f4eff7ba16ee9e0f555e4d70d6e26ad135d09c77bf30025403",
    "paths-corpus14": "a4817afb17e32126ec67fe6024433c607c149a5d051aa0728e332a3a00337aa0",
    "paths-corpus15": "486efb51ea8f0ac28206e098c154511a9720bba69e48033f465563d98d9e3e00",
    "paths-corpus31": "786e950b0632b1b615cd66d22904ebf0b4ee181ea10427eaa213c19eee862ef0",
    "paths-corpus33": "be4868b5b8d4cb0584f7699d4991e2a97239c74d55ec5692986373a0b6b77e6b",
    "paths-corpus38": "dab25516bea15c6827038a0a61d626480a7741226988230b204b89f26ac5764b",
    "exec-corpus1": "0093af30cfbad3c878fa8cc0f6af812d2fa3da7d87cb4f0a4e0b3c28fa596ab5",
    "exec-corpus7": "ec018896dc8410b7450a8eaf7d9acd80aad48ccc8e49ec7717d558dbded3766b",
    "exec-corpus10": "e91f8dae503cd2465c941e17dde14f72a0420743625b7077ad67cbb7da867c5d",
    "exec-corpus14": "24afd5af4e5bd61cd603b60509f772a8f5e73694b515578a406278072f3b82c7",
    "exec-corpus15": "d88e6d924e42d8a59a3127d7dd0b916bcf1aa4ef30b79ae44c3b27eb285306d8",
    "exec-corpus31": "b8e2b2b618710b96e3e1a1d83224881173cea0d7c102edd0edd88c0b0ff126d7",
    "exec-corpus33": "e62de0de0ae30a20743f0f486a11b249fc000cbfa478cd25bc326c13f17c7882",
    "exec-corpus38": "5cb7ebb63212506360ea0b5533d373cadc3c27a7252dd8fdd02c7cd671162bb4",
    "paths-ping-debug": "e43fe7cba765164a5ddab6831790681ef0ffdb49017d00e5086b56c8af294618",
    "paths-fork-debug": "4049deab11381fb1d4d083a6a56b0fa2545e31d5a8abb6e2b631c82d02c9371b",
    "paths-fork_unsound-debug": "263a1125dacdf835f28349860b398e94abe4ccb46e6b4dacbb66a81d3544b9de",
    "paths-fork_split-debug": "263a1125dacdf835f28349860b398e94abe4ccb46e6b4dacbb66a81d3544b9de",
    "paths-loop2-debug": "03100548025c99e1a75bfcb9fcb435de454e51b5f1336d1ab7ac82384b836d0e",
    "paths-mod15-debug": "97788a504bd497af1b0224caedf0dce3861e39710f87daa5156fd61c39507dc6",
    "paths-two_period-debug": "35a47185400e46b8e0ea9cecbf7a190115a2f6059508f22e3ba04510c53ebbc6",
    "paths-forked_periods-debug": "ded767431b3efec5a4a5c479014f6680faa35cbf7e19be4f28947e7c1925587d",
    "paths-ping_over_mod15-debug": "e193aad8e249d931a41dadf894c226b5fe530cefc4c65666d459431401a2c96f",
    "paths-editorial-debug": "a4921ec388bf7e336b56199ac0da5cb9f3be4fcf2c29d284ce6a782b4719ba2e",
    "exec-ping-debug": "222a47887b78ea271cec235d00cadc8795bd8674a5d320d3c60adc692593ea51",
    "exec-fork-debug": "866010ea9cda8aaa492552eef4485c708a7f3afa6529dd979c62d61532303925",
    "exec-fork_unsound-debug": "2be2f045b49ca7f98c665385fd185739142de9927863ce02973abe11ca7c601e",
    "exec-fork_split-debug": "2be2f045b49ca7f98c665385fd185739142de9927863ce02973abe11ca7c601e",
    "exec-loop2-debug": "8529bf6aee59c030689b09b0a53cfc8109ae2a3ed928bf083ea9d1c59b7b8104",
    "exec-mod15-debug": "bbf6003e3988c428ea6e05e95729cc1690b0e70b9b763520545f081a4c3a0f24",
    "exec-two_period-debug": "6b62b6634fa70cb78ec9aa8cb40a8f900747e11ab85492b7dff226b5ea92edca",
    "exec-forked_periods-debug": "4b4ce851e266bd3dcb2df6d51a8302f397e0c763ad9803ad290aa1a390304e0c",
    "exec-ping_over_mod15-debug": "d374d1f9dcfa4f9767bc68f942fcab4e2398bb43e5ccf6e7c4da79f6675d57a1",
    "exec-editorial-debug": "65bd5bad750700b78c70b9a785974706e32ae5e19df114e35224b7ef7748e803",
}


@pytest.mark.parametrize("mode,name,debug", CASES, ids=[case_id(*c) for c in CASES])
def test_golden_digest(mode, name, debug):
    assert digest(mode, name, debug) == GOLDEN[case_id(mode, name, debug)]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case_id(*case)}": "{digest(*case)}",')
