"""Spans around the library's public functions, recorded from outside.

`Tracer` wraps each probed function wherever callers look it up: on the
defining module, on every package module that imported it by name (for
example `teacher.member_exec`, `soundness.configuration_graph`), and on the
class for learner and teacher methods. Each call opens a span; a span stack
gives self time (duration minus the time of the spans it caused). Spans are
kept in memory as flat arrays and written out by `dump` when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "negotiations"


def _hit_before(args):
    return args[0].stats.membership_distinct


def _count_hit(counts, args, result, before):
    counts["hits"] += args[0].stats.membership_distinct == before


def _count_found(counts, args, result, before):
    counts["hits"] += result is not None


def _count_len(counts, args, result, before):
    counts["letters"] += len(args[1])


def _count_vertices(counts, args, result, before):
    counts["vertices_sum"] += len(result)
    counts["vertices_max"] = max(counts["vertices_max"], len(result))


def _count_unsound(counts, args, result, before):
    counts["unsound"] += not result.sound


def _count_kind(counts, args, result, before):
    if result is not None:
        counts["kind_" + result.kind] += 1


# metric prefix -> (module, attribute path, observer, before-hook)
PROBES = {
    "traces.normal_form": ("traces", "normal_form", _count_len, None),
    "traces.max_executable_prefix": ("traces", "max_executable_prefix", None, None),
    "teacher.member_exec_query": ("teacher", "Teacher.member_exec_query", _count_hit, _hit_before),
    "teacher.member_path_query": ("teacher", "Teacher.member_path_query", _count_hit, _hit_before),
    "teacher.equiv_query": ("teacher", "Teacher.equiv_query", None, None),
    "model.configuration_graph": ("model", "configuration_graph", _count_vertices, None),
    "model.member_exec": ("model", "member_exec", None, None),
    "soundness.is_sound_semantic": ("soundness", "is_sound_semantic", _count_unsound, None),
    "soundness.find_any_pattern": ("soundness", "find_any_pattern", _count_kind, None),
    "automata.neg_equiv": ("automata", "neg_equiv", None, None),
    "automata.minimize_negotiation": ("automata", "minimize_negotiation", None, None),
    "learn_exec.find_rep": ("learn_exec", "ExecLearner.find_rep", _count_found, None),
    "learn_exec.make_sound": ("learn_exec", "ExecLearner.make_sound", _count_found, None),
    "learn_exec.build_hypothesis": ("learn_exec", "ExecLearner.build_hypothesis", None, None),
    "learn_exec.restore_closure": ("learn_exec", "ExecLearner.restore_closure", None, None),
    "learn_exec.handle_positive": ("learn_exec", "ExecLearner.handle_positive", None, None),
    "learn_exec.handle_negative": ("learn_exec", "ExecLearner.handle_negative", None, None),
    "learn_exec.learn": ("learn_exec", "learn", None, None),
    "learn_paths.find_rep": ("learn_paths", "PathLearner.find_rep", _count_found, None),
    "learn_paths.build_hypothesis": ("learn_paths", "PathLearner.build_hypothesis", None, None),
    "learn_paths.restore_closure": ("learn_paths", "PathLearner.restore_closure", None, None),
    "learn_paths.classify": ("learn_paths", "PathLearner.classify", None, None),
    "learn_paths.learn": ("learn_paths", "learn", None, None),
    "generate.generate": ("generate", "generate", None, None),
}

# Which end-to-end metric each layer should move, on which workload. The
# traced run checks that every layer listed for a workload is called there.
ALL = ("learn-exec", "learn-paths-fork", "oracle-mix")
MEMBER = ("member_p50_ms", "member_tail_ms")
PREDICTIONS = {
    "traces.normal_form": {"learn-exec": ("wall_s",) + MEMBER,
                           "learn-paths-fork": MEMBER, "oracle-mix": MEMBER},
    "traces.max_executable_prefix": {"learn-exec": ("wall_s",)},
    "teacher.member_exec_query": {"learn-exec": ("wall_s",) + MEMBER,
                                  "learn-paths-fork": MEMBER, "oracle-mix": MEMBER},
    "teacher.member_path_query": {"learn-paths-fork": ("wall_s",)},
    "teacher.equiv_query": {w: ("wall_s",) for w in ALL},
    "model.configuration_graph": {"learn-exec": ("wall_s",),
                                  "learn-paths-fork": ("wall_s", "peak_rss_mb"),
                                  "oracle-mix": ("wall_s", "peak_rss_mb")},
    "model.member_exec": {w: ("wall_s",) + MEMBER for w in ALL},
    "soundness.is_sound_semantic": {w: ("wall_s",) for w in ALL},
    "soundness.find_any_pattern": {"learn-exec": ("wall_s",), "oracle-mix": ("wall_s",)},
    "automata.neg_equiv": {w: ("wall_s",) for w in ALL},
    "automata.minimize_negotiation": {"oracle-mix": ("wall_s",)},
    "generate.generate": {"learn-exec": ("setup_s",), "oracle-mix": ("setup_s",)},
}
for _name in PROBES:
    if _name.startswith("learn_exec."):
        PREDICTIONS[_name] = {"learn-exec": ("wall_s",)}
    elif _name.startswith("learn_paths."):
        PREDICTIONS[_name] = {"learn-paths-fork": ("wall_s",)}


def _ratio(key):
    return lambda counts, calls: counts[key] / calls if calls else 0.0


def _count(key):
    return lambda counts, calls: counts[key]


# probe -> [(metric suffix, unit, better, value from (counts, calls))]
EXTRAS = {
    "traces.normal_form": [("word_len_mean", "letters", "lower", _ratio("letters"))],
    "teacher.member_exec_query": [("hit_ratio", "ratio", "higher", _ratio("hits"))],
    "teacher.member_path_query": [("hit_ratio", "ratio", "higher", _ratio("hits"))],
    "model.configuration_graph": [("vertices_max", "count", "lower", _count("vertices_max")),
                                  ("vertices_sum", "count", "lower", _count("vertices_sum"))],
    "soundness.is_sound_semantic": [("unsound_ratio", "ratio", "lower", _ratio("unsound"))],
    "soundness.find_any_pattern": [(f"kind_{k}", "count", "lower", _count(f"kind_{k}"))
                                   for k in "BCF"],
    "learn_exec.find_rep": [("hit_ratio", "ratio", "higher", _ratio("hits"))],
    "learn_exec.make_sound": [("repair_ratio", "ratio", "lower", _ratio("hits"))],
    "learn_paths.find_rep": [("hit_ratio", "ratio", "higher", _ratio("hits"))],
}


def per_layer_names() -> list:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in PROBES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                (f"{name}.total_s", "s", "lower")]
    for name, extras in EXTRAS.items():
        out += [(f"{name}.{suffix}", unit, better) for suffix, unit, better, _ in extras]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    """Install with `with Tracer(lib):`; spans are recorded only inside."""

    def __init__(self, lib):
        self.lib = lib
        self.names = list(PROBES) + ["bench.root"]
        self.root_id = len(self.names) - 1
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.active = [0] * len(self.names)
        self.counts = [Counter() for _ in self.names]
        # span i: name index, parent span (-1 for none), start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span id, name index, time spent in children]
        self._patched = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for idx, (name, (module, path, observe, before)) in enumerate(PROBES.items()):
            owner = getattr(self.lib, module)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(idx, vars(cls)[attr], observe, before))
            else:
                original = getattr(owner, path)
                wrapper = self._wrap(idx, original, observe, before)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, idx, fn, observe, before):
        tracer = self

        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            span = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                observe(tracer.counts[idx], args, result, pre)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _open(self, idx):
        span = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.active[idx] += 1
        frame = [span, idx, 0.0]
        self._stack.append(frame)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        return frame

    def _close(self, frame):
        end = perf_counter()
        span, idx, children = frame
        self._stack.pop()
        self.span_end[span] = end
        duration = end - self.span_start[span]
        self.calls[idx] += 1
        self.self_s[idx] += duration - children
        self.active[idx] -= 1
        if not self.active[idx]:
            self.total_s[idx] += duration
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def root(self):
        """The span that covers a whole traced pass."""
        frame = self._open(self.root_id)
        try:
            yield
        finally:
            self._close(frame)

    # -- results ----------------------------------------------------------------

    def self_time_sum(self) -> float:
        return sum(self.self_s)

    def called(self) -> set:
        return {name for i, name in enumerate(self.names) if self.calls[i]}

    def metrics(self, only=None) -> dict:
        out = {}
        for idx, name in enumerate(self.names[: self.root_id]):
            if only is not None and name not in only:
                continue
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
            out[f"{name}.total_s"] = self.total_s[idx]
            for suffix, _, _, value in EXTRAS.get(name, ()):
                out[f"{name}.{suffix}"] = value(self.counts[idx], self.calls[idx])
        return out

    def dump(self, path: str):
        """Write the spans: a JSON header line with the span names and
        array layout, then the four arrays back to back."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
