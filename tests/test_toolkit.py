import json
import subprocess
import sys

import pytest

from negotiations import cli, formats, soundness
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
from negotiations.teacher import Teacher

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

    @pytest.mark.parametrize("key,value", [("actions", ["c", "x"]), ("nodes", ["n0", "n1"])])
    def test_mapping_key_not_an_object(self, key, value, tmp_path, capsys):
        """A list where a name -> processes object belongs is a ParseError
        naming the key, and `neg` exits 2 with a message, not a traceback."""
        obj = json.loads(serialize(fixtures.fork()))
        obj[key] = value
        text = json.dumps(obj)
        with pytest.raises(ParseError, match=f"'{key}' must be an object"):
            parse(text)
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["sound", str(path)]) == cli.EXIT_USAGE == 2
        assert capsys.readouterr().err.startswith("error:")

    @staticmethod
    def _string_process_list(key):
        """The fork fixture's JSON with "pq" where the list ["p", "q"] is."""
        obj = json.loads(serialize(fixtures.fork()))
        if key == "processes":
            obj["processes"] = "pq"
        else:
            obj[key][next(iter(obj[key]))] = "pq"
        return json.dumps(obj)

    @pytest.mark.parametrize("key,message", [
        ("processes", "'processes' must be a list"),
        ("actions", r"actions\['c'\] must be a list"),
        ("nodes", r"nodes\['n0'\] must be a list"),
    ])
    def test_string_process_list_rejected(self, key, message):
        """A string is not read as one process per character."""
        with pytest.raises(ParseError, match=message):
            parse(self._string_process_list(key))

    def test_string_process_list_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(self._string_process_list("processes"), encoding="utf-8")
        assert cli.main(["sound", str(path)]) == cli.EXIT_USAGE == 2
        assert capsys.readouterr().err.startswith("error:")

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

    def test_transition_outside_its_action_domain_is_kept(self):
        """validate rejects x@q (q is not in dom(x)); the writers keep it."""
        obj = json.loads(serialize(fixtures.fork()))
        obj["transitions"].append(["n1", "x", "q", "n3"])
        n = parse(json.dumps(obj))
        assert any("q not in dom(x)" in v for v in validate(n))
        assert parse(serialize(n)) == n
        assert '"n1" -> "n3" [label="x@q"];' in export_dot(n)


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

    @pytest.mark.parametrize("first,second,verdict,decisions", [
        ("fork", "fork", "equivalent", 2),
        ("ping", "mod15", "not equivalent", 2),
        ("fork", "fork_unsound", "not equivalent", 2),
        ("fork", "fork_split", "not equivalent", 2),
        ("fork_unsound", "fork", "not equivalent", 1),
        ("fork_unsound", "fork_split", "equivalent", 1),
    ])
    def test_equiv_decides_soundness_once_per_input(self, first, second, verdict, decisions,
                                                    tmp_path, monkeypatch, capsys):
        """`equiv` decides each input's soundness at most once: a sound
        input paired with an unsound one takes 2 decisions, not 4."""
        files = []
        for name in (first, second):
            path = tmp_path / f"{name}.json"
            path.write_text(serialize(getattr(fixtures, name)()), encoding="utf-8")
            files.append(str(path))
        calls = []

        def counting(n, **kwargs):
            calls.append(n)
            return is_sound_semantic(n, **kwargs)

        monkeypatch.setattr(soundness, "is_sound_semantic", counting)
        code = cli.main(["equiv", *files])
        assert capsys.readouterr().out.strip() == verdict
        assert code == (cli.EXIT_OK if verdict == "equivalent" else cli.EXIT_FALSE)
        assert len(calls) == decisions

    @pytest.mark.parametrize("name,code", [("fork", cli.EXIT_OK), ("fork_unsound", cli.EXIT_FALSE)])
    @pytest.mark.parametrize("mode", ["exec", "paths"])
    def test_learn_decides_target_soundness_once(self, name, code, mode, tmp_path, monkeypatch,
                                                 capsys):
        """`learn` decides the target's soundness once; the teacher's
        equivalence queries reuse the verdict."""
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(getattr(fixtures, name)()), encoding="utf-8")
        loaded, calls = [], []
        load = formats.load

        def loading(p):
            loaded.append(load(p))
            return loaded[-1]

        def counting(n, **kwargs):
            calls.append(n)
            return is_sound_semantic(n, **kwargs)

        monkeypatch.setattr(formats, "load", loading)
        monkeypatch.setattr(soundness, "is_sound_semantic", counting)
        assert cli.main(["learn", str(path), "--mode", mode]) == code
        err = capsys.readouterr().err
        assert ("target is not sound" in err) == (code == cli.EXIT_FALSE)
        assert sum(n is loaded[0] for n in calls) == 1

    def test_equiv_searches_the_product_only_for_unsound_pairs(self, tmp_path, monkeypatch,
                                                               capsys):
        """`equiv` decides two sound inputs on minimal path DFAs alone and
        runs the product search once when a side is unsound. On every pair
        of fixtures over one alphabet the verdict is the teacher's."""
        names = ["ping", "fork", "fork_unsound", "fork_split", "loop2", "mod15",
                 "two_period", "forked_periods", "ping_over_mod15", "editorial"]
        nets = {name: getattr(fixtures, name)() for name in names}
        files = {}
        for name, n in nets.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(serialize(n), encoding="utf-8")
        pairs = [(a, b) for a in names for b in names if nets[a].alphabet == nets[b].alphabet]
        sound = {name: is_sound_semantic(n).sound for name, n in nets.items()}
        expected = {(a, b): Teacher(nets[a]).equiv_query(nets[b]).equivalent for a, b in pairs}
        assert not all(sound.values()) and False in expected.values()
        searches = []
        product_search = Teacher._product_search

        def counting(self, hypothesis):
            searches.append(hypothesis)
            return product_search(self, hypothesis)

        monkeypatch.setattr(Teacher, "_product_search", counting)
        for a, b in pairs:
            searches.clear()
            code = cli.main(["equiv", str(files[a]), str(files[b])])
            equal = expected[(a, b)]
            assert capsys.readouterr().out.strip() == ("equivalent" if equal else "not equivalent")
            assert code == (cli.EXIT_OK if equal else cli.EXIT_FALSE)
            assert len(searches) == (0 if sound[a] and sound[b] else 1), (a, b)

    def test_learn_roundtrip_gen(self, tmp_path):
        gen_path = tmp_path / "g.json"
        run_cli("gen", "--procs", "2", "--nodes", "6", "--seed", "3", "-o", str(gen_path))
        learned = tmp_path / "l.json"
        code, _, err = run_cli("learn", str(gen_path), "--mode", "exec", "-o", str(learned))
        assert code == 0, err
        code, _, _ = run_cli("equiv", str(gen_path), str(learned))
        assert code == 0
