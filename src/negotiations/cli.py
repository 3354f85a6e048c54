"""The `neg` command line tool.

Exit codes: 0 on success / property true, 1 when a checked property is
false, 2 on usage or I/O errors, 3 when a search ran past its budget before
deciding (undecided: neither true nor false).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import automata, formats, learn_exec, learn_paths, soundness
from .generate import GenParams, generate
from .errors import BudgetExceeded, NegotiationError, ParseError
from .model import member_exec, member_path, validate, path_coverage_warnings
from .teacher import Teacher

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


def _load(path: str):
    try:
        return formats.load(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def cmd_validate(args) -> int:
    n = _load(args.file)
    violations = validate(n)
    for v in violations:
        print(f"violation: {v}")
    for w in path_coverage_warnings(n):
        print(f"warning: {w}")
    if violations:
        return EXIT_FALSE
    print("ok")
    return EXIT_OK


def cmd_sound(args) -> int:
    n = _load(args.file)
    result = soundness.is_sound_semantic(n)
    if result.sound:
        print("sound")
        return EXIT_OK
    witness = {
        "configuration": {
            p: result.counterexample.node_of(p) for p in n.alphabet.processes
        }
    }
    if args.patterns:
        pattern = soundness.find_any_pattern(n)
        witness["pattern"] = pattern.to_json() if pattern else None
    print(json.dumps(witness, separators=(",", ":")))
    return EXIT_FALSE


def cmd_minimize(args) -> int:
    n = _load(args.file)
    violations = validate(n)
    if violations:
        print("input is not a valid negotiation:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_FALSE
    if not soundness.is_sound_semantic(n).sound:
        print("input is not sound; minimization needs a sound negotiation", file=sys.stderr)
        return EXIT_FALSE
    formats.save(automata.minimize_negotiation(n), args.output)
    return EXIT_OK


def cmd_equiv(args) -> int:
    n1 = _load(args.file1)
    n2 = _load(args.file2)
    if n1.alphabet != n2.alphabet:
        print("different alphabets", file=sys.stderr)
        return EXIT_FALSE
    if soundness.is_sound_semantic(n1).sound and soundness.is_sound_semantic(n2).sound:
        equal = automata.neg_equiv(n1, n2)
    else:
        # unsound inputs go through the configuration-graph product oracle
        answer = Teacher(n1).equiv_query(n2)
        equal = answer.equivalent
    print("equivalent" if equal else "not equivalent")
    return EXIT_OK if equal else EXIT_FALSE


def cmd_member(args) -> int:
    n = _load(args.file)
    if (args.exec_word is None) == (args.path_word is None):
        print("exactly one of --exec/--path is required", file=sys.stderr)
        return EXIT_USAGE
    if args.exec_word is not None:
        word = formats.parse_execution(args.exec_word, n.alphabet)
        ok = member_exec(n, word)
    else:
        pi = formats.parse_local_word(args.path_word, n.alphabet)
        ok = member_path(n, pi)
    print("yes" if ok else "no")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_learn(args) -> int:
    target = _load(args.file)
    violations = validate(target)
    if violations:
        print("target is not a valid negotiation", file=sys.stderr)
        return EXIT_FALSE
    if not soundness.is_sound_semantic(target).sound:
        print("target is not sound", file=sys.stderr)
        return EXIT_FALSE
    log = []
    teacher = Teacher(target)
    mode = learn_exec if args.mode == "exec" else learn_paths
    result = mode.learn(teacher, debug=args.debug, log=log)
    if args.output:
        formats.save(result, args.output)
    else:
        print(formats.serialize(result))
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(teacher.stats.to_json(), fh, separators=(",", ":"))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for entry in log:
                fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return EXIT_OK


def cmd_gen(args) -> int:
    params = GenParams(
        process_count=args.procs,
        target_node_count=args.nodes,
        loop_probability=args.loop_prob,
        fork_probability=args.fork_prob,
        seed=args.seed,
    )
    formats.save(generate(params), args.output)
    return EXIT_OK


def cmd_dot(args) -> int:
    n = _load(args.file)
    text = formats.export_dot(n)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neg", description="Sound deterministic negotiations: check, minimize, learn."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the model conditions")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sound", help="decide soundness")
    p.add_argument("file")
    p.add_argument("--patterns", action="store_true", help="also report a pattern witness")
    p.set_defaults(func=cmd_sound)

    p = sub.add_parser("minimize", help="write the canonical minimal negotiation")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("equiv", help="language equivalence of two negotiations")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("member", help="membership of an execution or local path")
    p.add_argument("file")
    p.add_argument("--exec", dest="exec_word", metavar="WORD", help='execution, e.g. "a b c"')
    p.add_argument("--path", dest="path_word", metavar="WORD", help='local path, e.g. "a@p b@q"')
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("learn", help="actively learn the negotiation in FILE")
    p.add_argument("file")
    p.add_argument("--mode", choices=["exec", "paths"], required=True)
    p.add_argument("--stats", help="write teacher query statistics to this JSON file")
    p.add_argument("--trace", help="write the per-round log to this JSONL file")
    p.add_argument("--debug", action="store_true", help="re-verify learner invariants each round")
    p.add_argument("-o", "--output", help="write the learned negotiation here instead of stdout")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("gen", help="generate a random sound negotiation")
    p.add_argument("--procs", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--loop-prob", type=float, default=0.2)
    p.add_argument("--fork-prob", type=float, default=0.3)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dot", help="export Graphviz DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"undecided: search budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except NegotiationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSE


if __name__ == "__main__":
    sys.exit(main())
