import functools
import json
import operator
import re
import subprocess
import sys

import pytest

from negotiations import cli, formats, soundness
from negotiations.automata import minimize_negotiation
from negotiations.errors import ParseError, StateBudgetExceeded
from negotiations.formats import (
    export_dot,
    parse,
    parse_execution,
    parse_local_word,
    serialize,
)
from negotiations.generate import GenParams, generate
from negotiations.model import ConfigurationGraph, validate
from negotiations.soundness import is_sound_semantic
from negotiations.teacher import Teacher

import fixtures
import oracles
from test_soundness import undominated_cycle_fixture


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

    @pytest.mark.parametrize("name", [1, None, True])
    def test_non_string_process_rejected(self, name, tmp_path, capsys):
        """The fork with p renamed to 1, null or true: `neg dot` would die
        on the name, and no `a@p` word could spell it."""
        text = serialize(fixtures.fork()).replace('"p"', json.dumps(name))
        with pytest.raises(ParseError, match=r"processes\[0\] must be a string"):
            parse(text)
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["dot", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("edit,message", [
        (lambda o: o["processes"].append("p"), "duplicate process identifiers"),
        (lambda o: o["processes"].append("c"), "process and action namespaces overlap"),
        (lambda o: o["actions"].update(x=[]), "action 'x' has an empty domain"),
        (lambda o: o["actions"]["x"].append("z"), r"dom\('x'\) mentions unknown processes"),
        (lambda o: o.update(init="n9"), "init/fin must be declared nodes"),
        (lambda o: o.update(fin="n9"), "init/fin must be declared nodes"),
        (lambda o: o["nodes"].update(n1=[]), "node 'n1' has an empty domain"),
        (lambda o: o["nodes"]["n1"].append("z"), r"dnode\('n1'\) mentions unknown processes"),
        (lambda o: o["transitions"][0].__setitem__(0, "n9"), "references unknown node"),
        (lambda o: o["transitions"][0].__setitem__(3, "n9"), "references unknown node"),
        (lambda o: o["transitions"][0].__setitem__(1, "zz"), "transition on unknown action 'zz'"),
        (lambda o: o["transitions"][0].__setitem__(2, "z"), "transition for unknown process 'z'"),
    ])
    def test_construction_check_is_a_parse_error(self, edit, message, tmp_path, capsys):
        """What `DistributedAlphabet` and `Negotiation` reject on
        construction, `parse` reports as a ParseError, and `neg` exits 2."""
        obj = json.loads(serialize(fixtures.fork()))
        edit(obj)
        text = json.dumps(obj)
        with pytest.raises(ParseError, match=message):
            parse(text)
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["sound", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("old,new,key", [
        ('"transitions":', '"fin":"n0","transitions":', "fin"),
        ('"nodes":{', '"nodes":{"n1":["p","q"],', "n1"),
        ('"actions":{', '"actions":{"x":["q"],', "x"),
    ], ids=["fin", "node", "action"])
    def test_duplicate_key_is_a_parse_error(self, old, new, key, tmp_path, capsys):
        """The fork with `fin`, node n1 or action x declared twice: JSON
        would keep only the last value, so `parse` names the key, and `neg`
        exits 2."""
        text = serialize(fixtures.fork()).replace(old, new, 1)
        with pytest.raises(ParseError, match=f"duplicate key '{key}'"):
            parse(text)
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["sound", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("where,message", [
        (("processes", 1), r"processes\[1\] must be a string"),
        (("actions", "c", 1), r"actions\['c'\]\[1\] must be a string"),
        (("nodes", "n1", 0), r"nodes\['n1'\]\[0\] must be a string"),
        (("init",), "'init' must be a node name"),
        (("fin",), "'fin' must be a node name"),
    ] + [(("transitions", 2, i), rf"transitions\[2\]\[{i}\] must be a string") for i in range(4)])
    def test_non_string_identifier_rejected(self, where, message):
        obj = json.loads(serialize(fixtures.fork()))
        *parents, last = where
        functools.reduce(operator.getitem, parents, obj)[last] = 1
        with pytest.raises(ParseError, match=message):
            parse(json.dumps(obj))

    def test_local_words(self):
        alpha = fixtures.fork().alphabet
        pi = parse_local_word("c@p x@p d@p", alpha)
        assert pi == (("c", "p"), ("x", "p"), ("d", "p"))
        assert oracles.format_local_word(pi) == "c@p x@p d@p"
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

    def test_names_with_dot_syntax_are_escaped(self):
        """A trailing backslash ends no quoted string early, and { } | < >
        in a node name stay text in its record label. Textual checks: the
        DOT is not rendered."""
        obj = json.loads(serialize(fixtures.fork()))
        names = {"n1": "i\\", "n2": "{a|<b>}"}
        obj["nodes"] = {names.get(m, m): ps for m, ps in obj["nodes"].items()}
        obj["transitions"] = [[names.get(x, x) for x in row] for row in obj["transitions"]]
        text = export_dot(parse(json.dumps(obj)))
        assert '"i\\\\" [label="i\\\\ | p"];' in text
        assert '"n0" -> "i\\\\" [label="c@p"];' in text
        assert '"{a|<b>}" [label="\\{a\\|\\<b\\>\\} | q"];' in text
        # every quoted string closes on its line, escapes read pairwise
        for line in text.splitlines():
            assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", line)


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

    @pytest.mark.parametrize("make,expected", [
        (fixtures.fork_unsound,
         '{"configuration":{"p":"n3","q":"n3"},"pattern":{"kind":"B","process":"p",'
         '"access_path":[],"blocked_node":"n0"}}'),
        (fixtures.fork_split,
         '{"configuration":{"p":"n3a","q":"n3b"},"pattern":{"kind":"F","fork_node":"n0",'
         '"action":"c","p1":"p","p2":"q","path1":["x@p"],"path2":["y@q"],"access_path":[]}}'),
        (undominated_cycle_fixture,
         '{"configuration":{"p":"nf","q":"nf","r":"B"},"pattern":{"kind":"C",'
         '"entry_path":["s@p"],"cycle_path":["g@p","h@p"]}}'),
    ], ids=["B", "F", "C"])
    def test_sound_patterns_output(self, make, expected, tmp_path, capsys):
        """`neg sound --patterns` prints one witness of each kind exactly:
        the kind, then the witness fields in order, paths as a@p."""
        path = tmp_path / "unsound.json"
        path.write_text(serialize(make()), encoding="utf-8")
        assert cli.main(["sound", str(path), "--patterns"]) == 1
        assert capsys.readouterr().out == expected + "\n"

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
        code, out, err = run_cli("equiv", fork_file, str(ping))
        assert code == 1 and out == "" and "different alphabets" in err

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

    @pytest.mark.parametrize("flags", [["--procs", "0", "--nodes", "5"],
                                       ["--procs", "2", "--nodes", "5", "--loop-prob", "1.5"],
                                       ["--procs", "2", "--nodes", "5", "--fork-prob", "nan"],
                                       ["--procs", "2", "--nodes", "0"]])
    def test_gen_rejects_out_of_range_parameters(self, flags, tmp_path, capsys):
        out = tmp_path / "gen.json"
        code = cli.main(["gen", *flags, "--seed", "1", "-o", str(out)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:") and not out.exists()

    def test_io_error(self):
        code, _, err = run_cli("validate", "/nonexistent/x.json")
        assert code == 2

    @staticmethod
    def out_of_budget(n, budget=None):
        raise StateBudgetExceeded("configuration graph exceeds 100 vertices")

    @pytest.mark.parametrize("command", [
        ["sound", "{f}"], ["equiv", "{f}", "{f}"], ["learn", "{f}", "--mode", "exec"],
        ["learn", "{f}", "--mode", "paths"],
    ])
    def test_budget_exceeded_is_undecided(self, command, fork_file, monkeypatch, capsys):
        """A search out of budget is neither "true" (0) nor "false" (1)."""
        monkeypatch.setattr(soundness, "is_sound_semantic", self.out_of_budget)
        argv = [arg.format(f=fork_file) for arg in command]
        assert cli.main(argv) == cli.EXIT_UNDECIDED == 3
        err = capsys.readouterr().err
        assert err.startswith("undecided:") and "exceeds 100 vertices" in err

    def test_minimize_searches_no_configurations(self, fork_file, tmp_path, monkeypatch):
        """`minimize` decides soundness by the patterns, so a configuration
        search that would run out of budget is never started."""
        monkeypatch.setattr(soundness, "is_sound_semantic", self.out_of_budget)
        out = tmp_path / "out.json"
        assert cli.main(["minimize", fork_file, "-o", str(out)]) == cli.EXIT_OK
        assert out.read_text(encoding="utf-8") == serialize(minimize_negotiation(fixtures.fork()))

    def test_minimize_past_the_state_budget(self, tmp_path):
        """A valid, sound 71-node target with more than 10^6 configurations:
        `minimize` answers, where a configuration search runs out of budget."""
        n = generate(GenParams(12, 200, 0.2, 0.9, seed=1))
        assert len(n.nodes) == 71 and validate(n) == []
        src, out = tmp_path / "big.json", tmp_path / "min.json"
        src.write_text(serialize(n), encoding="utf-8")
        assert cli.main(["minimize", str(src), "-o", str(out)]) == cli.EXIT_OK
        assert out.read_text(encoding="utf-8") == serialize(minimize_negotiation(n))

    def test_minimize_rejects_an_unsound_input(self, tmp_path, capsys):
        path = tmp_path / "unsound.json"
        path.write_text(serialize(fixtures.fork_split()), encoding="utf-8")
        assert cli.main(["minimize", str(path), "-o", str(tmp_path / "out.json")]) == cli.EXIT_FALSE
        assert "not sound" in capsys.readouterr().err and not (tmp_path / "out.json").exists()

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
        input paired with an unsound one takes 2 decisions, not 4. No
        configuration of either input is expanded twice: the product search
        runs on the graphs the soundness checks built."""
        files = []
        for name in (first, second):
            path = tmp_path / f"{name}.json"
            path.write_text(serialize(getattr(fixtures, name)()), encoding="utf-8")
            files.append(str(path))
        calls = []

        def counting(n, **kwargs):
            calls.append(n)
            return is_sound_semantic(n, **kwargs)

        expanded = []
        expand = ConfigurationGraph.expand

        def expanding(graph, i):
            expanded.append((graph.negotiation, graph.order[i]))
            return expand(graph, i)

        monkeypatch.setattr(soundness, "is_sound_semantic", counting)
        monkeypatch.setattr(ConfigurationGraph, "expand", expanding)
        code = cli.main(["equiv", *files])
        assert capsys.readouterr().out.strip() == verdict
        assert code == (cli.EXIT_OK if verdict == "equivalent" else cli.EXIT_FALSE)
        assert len(calls) == decisions
        keys = [(id(n), nodes) for n, nodes in expanded]  # `expanded` keeps each n alive
        assert expanded and len(keys) == len(set(keys))

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

        def counting(self, hypothesis, graph=None):
            searches.append(hypothesis)
            return product_search(self, hypothesis, graph)

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
