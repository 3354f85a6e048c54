import json
import subprocess
import sys

import pytest

from negotiations import cli, soundness
from negotiations.errors import ParseError, StateBudgetExceeded
from negotiations.formats import (
    export_dot,
    format_local_word,
    parse,
    parse_execution,
    parse_local_word,
    serialize,
)
from negotiations.generate import GenParams, generate
from negotiations.model import validate
from negotiations.soundness import is_sound_semantic

import fixtures


class TestGenerate:
    def test_chain(self):
        n = generate(GenParams(2, 3, 0.0, 0.0, seed=1))
        assert validate(n) == []
        assert is_sound_semantic(n).sound

    def test_rich(self):
        n = generate(GenParams(4, 12, 0.3, 0.5, seed=7))
        assert validate(n) == []
        assert is_sound_semantic(n).sound

    def test_deterministic(self):
        a = generate(GenParams(3, 9, 0.4, 0.4, seed=11))
        b = generate(GenParams(3, 9, 0.4, 0.4, seed=11))
        assert serialize(a) == serialize(b)

    def test_corpus_sound(self):
        for seed in range(30):
            n = generate(GenParams(1 + seed % 4, 3 + seed % 12, 0.3, 0.4, seed=seed))
            assert validate(n) == []
            assert is_sound_semantic(n).sound

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GenParams(0, 5)
        with pytest.raises(ValueError):
            GenParams(2, 5, loop_probability=1.5)


class TestJson:
    def test_round_trip(self):
        for fix in (fixtures.ping(), fixtures.fork(), fixtures.editorial()):
            assert parse(serialize(fix)) == fix

    def test_key_order_stable(self):
        text = serialize(fixtures.fork())
        obj = json.loads(text)
        assert list(obj) == ["processes", "actions", "nodes", "init", "fin", "transitions"]
        assert text.startswith('{"processes":["p","q"],"actions":{"c":["p","q"]')

    def test_unknown_key(self):
        text = serialize(fixtures.ping())
        obj = json.loads(text)
        obj["extra"] = 1
        with pytest.raises(ParseError, match="extra"):
            parse(json.dumps(obj))

    def test_missing_key(self):
        with pytest.raises(ParseError, match="transitions"):
            parse('{"processes":[],"actions":{},"nodes":{},"init":"a","fin":"b"}')

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse("{")

    def test_local_words(self):
        alpha = fixtures.fork().alphabet
        pi = parse_local_word("c@p x@p d@p", alpha)
        assert pi == (("c", "p"), ("x", "p"), ("d", "p"))
        assert format_local_word(pi) == "c@p x@p d@p"
        with pytest.raises(ParseError):
            parse_local_word("c@z", alpha)
        with pytest.raises(ParseError):
            parse_local_word("cp", alpha)

    def test_executions(self):
        alpha = fixtures.fork().alphabet
        assert parse_execution("c x y d", alpha) == ("c", "x", "y", "d")
        with pytest.raises(ParseError):
            parse_execution("c zz", alpha)


class TestDot:
    def test_fork_records(self):
        text = export_dot(fixtures.fork())
        assert text.count("[label=") >= 5 + 6
        assert '"n0" -> "n1" [label="c@p"];' in text
        assert text.startswith("digraph")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "negotiations.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCli:
    @pytest.fixture()
    def fork_file(self, tmp_path):
        path = tmp_path / "fork.json"
        path.write_text(serialize(fixtures.fork()), encoding="utf-8")
        return str(path)

    def test_validate_ok(self, fork_file):
        code, out, _ = run_cli("validate", fork_file)
        assert code == 0 and "ok" in out

    def test_validate_violations(self, tmp_path):
        n = fixtures.ping()
        import negotiations.model as model

        broken = model.Negotiation(
            n.alphabet,
            n.nodes,
            n.dnode,
            {k: v for k, v in n.delta.items() if k != ("n0", "a", "q")},
            n.init,
            n.fin,
        )
        path = tmp_path / "broken.json"
        path.write_text(serialize(broken), encoding="utf-8")
        code, out, _ = run_cli("validate", str(path))
        assert code == 1 and "violation" in out

    def test_sound(self, fork_file, tmp_path):
        code, out, _ = run_cli("sound", fork_file)
        assert code == 0 and "sound" in out
        path = tmp_path / "unsound.json"
        path.write_text(serialize(fixtures.fork_unsound()), encoding="utf-8")
        code, out, _ = run_cli("sound", str(path), "--patterns")
        assert code == 1
        witness = json.loads(out)
        assert witness["configuration"] == {"p": "n3", "q": "n3"}
        assert witness["pattern"]["kind"] in ("B", "C", "F")

    def test_equiv(self, fork_file, tmp_path):
        renamed = tmp_path / "renamed.json"
        n = fixtures.fork()
        ren = {"n0": "m0", "n1": "m1", "n2": "m2", "n3": "m3", "nf": "mf"}
        import negotiations.model as model

        renamed_n = model.Negotiation(
            n.alphabet,
            tuple(ren[m] for m in n.nodes),
            {ren[m]: d for m, d in n.dnode.items()},
            {(ren[m], a, p): ren[t] for (m, a, p), t in n.delta.items()},
            "m0",
            "mf",
        )
        renamed.write_text(serialize(renamed_n), encoding="utf-8")
        code, out, _ = run_cli("equiv", fork_file, str(renamed))
        assert code == 0 and "equivalent" in out
        ping = tmp_path / "other.json"
        ping.write_text(serialize(fixtures.two_period()), encoding="utf-8")
        code, _, _ = run_cli("equiv", fork_file, str(ping))
        assert code == 1

    def test_member(self, fork_file):
        code, out, _ = run_cli("member", fork_file, "--exec", "c y x d")
        assert code == 0 and "yes" in out
        code, out, _ = run_cli("member", fork_file, "--exec", "c x")
        assert code == 1 and "no" in out
        code, out, _ = run_cli("member", fork_file, "--path", "c@p x@p d@p")
        assert code == 0
        code, _, _ = run_cli("member", fork_file)
        assert code == 2

    def test_minimize(self, fork_file, tmp_path):
        out_path = tmp_path / "min.json"
        code, _, _ = run_cli("minimize", fork_file, "-o", str(out_path))
        assert code == 0
        minimized = parse(out_path.read_text(encoding="utf-8"))
        assert len(minimized.nodes) == 5

    def test_learn_both_modes(self, fork_file, tmp_path):
        for mode in ("exec", "paths"):
            stats = tmp_path / f"stats_{mode}.json"
            trace = tmp_path / f"trace_{mode}.jsonl"
            out_file = tmp_path / f"learned_{mode}.json"
            code, out, err = run_cli(
                "learn", fork_file, "--mode", mode,
                "--stats", str(stats), "--trace", str(trace), "-o", str(out_file),
            )
            assert code == 0, err
            learned = parse(out_file.read_text(encoding="utf-8"))
            assert len(learned.nodes) == 5
            stats_obj = json.loads(stats.read_text(encoding="utf-8"))
            assert set(stats_obj) == {
                "membership_total",
                "membership_distinct",
                "equivalence_total",
                "max_counterexample_len",
            }
            minimal = fixtures.fork()
            assert stats_obj["equivalence_total"] <= len(minimal.nodes) + len(minimal.delta)
            lines = trace.read_text(encoding="utf-8").strip().splitlines()
            assert all(json.loads(line) for line in lines)

    def test_gen_and_dot(self, tmp_path):
        gen_path = tmp_path / "gen.json"
        code, _, _ = run_cli(
            "gen", "--procs", "3", "--nodes", "8", "--seed", "5", "-o", str(gen_path)
        )
        assert code == 0
        n = parse(gen_path.read_text(encoding="utf-8"))
        assert validate(n) == []
        dot_path = tmp_path / "gen.dot"
        code, _, _ = run_cli("dot", str(gen_path), "-o", str(dot_path))
        assert code == 0
        assert dot_path.read_text(encoding="utf-8").startswith("digraph")

    def test_io_error(self):
        code, _, err = run_cli("validate", "/nonexistent/x.json")
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["sound", "{f}"], ["equiv", "{f}", "{f}"], ["minimize", "{f}", "-o", "{o}"],
        ["learn", "{f}", "--mode", "exec"],
    ])
    def test_budget_exceeded_is_undecided(self, command, fork_file, tmp_path, monkeypatch, capsys):
        """A search out of budget is neither "true" (0) nor "false" (1)."""
        def out_of_budget(n, budget=None):
            raise StateBudgetExceeded("configuration graph exceeds 100 vertices")

        monkeypatch.setattr(soundness, "is_sound_semantic", out_of_budget)
        argv = [arg.format(f=fork_file, o=tmp_path / "out.json") for arg in command]
        assert cli.main(argv) == cli.EXIT_UNDECIDED == 3
        err = capsys.readouterr().err
        assert err.startswith("undecided:") and "exceeds 100 vertices" in err

    def test_learn_roundtrip_gen(self, tmp_path):
        gen_path = tmp_path / "g.json"
        run_cli("gen", "--procs", "2", "--nodes", "6", "--seed", "3", "-o", str(gen_path))
        learned = tmp_path / "l.json"
        code, _, err = run_cli("learn", str(gen_path), "--mode", "exec", "-o", str(learned))
        assert code == 0, err
        code, _, _ = run_cli("equiv", str(gen_path), str(learned))
        assert code == 0
