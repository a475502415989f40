"""Spans and counters around bioqm's public functions, installed from outside.

A span wrapper records (name, op, start, end, parent) in memory and keeps each
name's call count, total time and self time (duration minus the time covered
by child spans).  A counter wrapper only counts calls; it goes on the
functions called millions of times, where a clock read per call would
distort the run.  Wrappers are set on every module attribute that holds the
original function, because modules import names from each other
(``bioqm.linear.dot`` is also ``bioqm.biortho.dot``), and are removed again
after each traced call, so checks and untraced passes run on the originals.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name, counter fed with len(result) or None);
# "Class.method" patches the class
SPANS = (
    ("linear", "enumerate_projective", "linear.enumerate_projective", "linear.states_enumerated"),
    ("biortho", "bracket", "biortho.bracket", None),
    ("entangle", "two_particle_states", "entangle.two_particle_states", None),
    ("entangle", "chsh_bound", "entangle.chsh_bound", None),
    ("entangle", "census", "entangle.census", None),
    ("groups", "enumerate_group", "groups.enumerate_group", None),
    ("groups", "_ActionTable.__init__", "groups.action_table", None),
    ("groups", "orbits", "groups.orbits", None),
    ("groups", "burnside_count", "groups.burnside_count", None),
    ("groups", "find_local_transform", "groups.find_local_transform", None),
    ("exactlp", "solve_lp", "exactlp.solve_lp", None),
    ("exactlp", "rref", "exactlp.rref", None),
    ("inference", "infer_probabilities", "inference.infer_probabilities", None),
    ("inference", "hv_feasibility", "inference.hv_feasibility", None),
    ("cli", "run", "cli.run", None),
)
# every public cli.build_* report builder shares one span name
BUILD_SPAN = "cli.build"

COUNTERS = (
    ("gf", "FieldConfig.element", "gf.element_calls"),
    ("linear", "dot", "linear.dot_calls"),
    ("entangle", "correlator", "entangle.correlator_calls"),
    ("groups", "act", "groups.act_calls"),
    ("exactlp", "verify_farkas", "exactlp.verify_farkas_calls"),
)


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps short names ("gf", "cli", ...) to the imported modules."""
        self.spans: list[list] = []
        self.op_labels: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index, child time]
        self.missing: list[str] = []
        self._patches = self._plan(modules)

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, name: str, func, counter: str | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            record = [name, len(self.op_labels) - 1, 0.0, 0.0, parent]
            spans.append(record)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[2], record[3] = start, end
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                self.counts[counter] += len(result)
            return result

        return wrapper

    def _counted(self, name: str, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _plan(self, modules: dict) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place a wrapper goes."""
        targets = []
        for mod, attr, name, counter in SPANS:
            targets.append((modules[mod], attr, lambda f, n=name, c=counter: self._spanned(n, f, c)))
        cli = modules["cli"]
        for attr in sorted(vars(cli)):
            if attr.startswith("build_") and attr != "build_parser":
                targets.append((cli, attr, lambda f: self._spanned(BUILD_SPAN, f, None)))
        for mod, attr, name in COUNTERS:
            targets.append((modules[mod], attr, lambda f, n=name: self._counted(n, f)))

        patches = []
        for module, attr, make in targets:
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                # a refactor renamed or removed the layer; its metrics read 0
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            if owner_name:
                patches.append((owner, method, original, make(original)))
                continue
            wrapper = make(original)
            for owner in modules.values():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        patches.append((owner, key, original, wrapper))
        return patches

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def call(self, label: str, func):
        """Run one operation under the wrappers as a root span; return (result, seconds)."""
        self.op_labels.append(label)
        index = len(self.spans)
        self.install()
        try:
            result = self._spanned("op", func, None)()
        finally:
            self.remove()
        record = self.spans[index]
        return result, record[3] - record[2]

    def targets(self) -> list[str]:
        """``owner.attribute`` of every installed wrapper."""
        return sorted(f"{getattr(o, '__name__', o)}.{k}" for o, k, _, _ in self._patches)

    # -- output -----------------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(meta, ops=self.op_labels,
                       fields=["name", "op", "start", "end", "parent"], spans=self.spans)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
