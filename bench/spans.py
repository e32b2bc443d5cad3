"""Trace spans recorded from outside the library, around its public functions.

`Tracer.install` wraps each function in WRAPPED and rebinds every attribute
of every loaded `sturmjsr` module that is bound to that function object, so
a call is counted whichever module it is made from.  A name that no longer
exists is skipped and its metrics read zero.

Spans are kept in memory with their parent; self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

WRAPPED = (
    ("classify", "pair_report"),
    ("certify", "thresholds"),
    ("certify", "certify"),
    ("certify", "gamma_of_t"),
    ("certify", "delta_numeric"),
    ("dynamics", "f_eval"),
    ("dynamics", "apply_T"),
    ("dynamics", "periodic_point"),
    ("staircase", "parameter_map"),
    ("staircase", "staircase_scan"),
    ("staircase", "plateau_bounds"),
    ("staircase", "counterexample_search"),
    ("words", "mechanical_word"),
    ("matrices", "word_value"),
    ("jsr", "lyndon_words"),
    ("jsr", "jsr_lower_bruteforce"),
    ("jsr", "jsr_upper_norm"),
    ("pairfile", "load_pair"),
)

# word_value as bound in the staircase module builds the Sturmian table.
TABLE_SPAN = "staircase.table"
SEARCH_SPANS = ("staircase.plateau_bounds", "staircase.counterexample_search")


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.letters: dict[str, int] = {}
        self.yielded: dict[str, int] = {}
        self.parameters: set = set()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened from benchmark code, such as around cli.main."""
        if not self.on:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    if self.on:
                        self.yielded[name] = self.yielded.get(name, 0) + 1
                    yield item
            return counting

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name.endswith("word_value") or name == TABLE_SPAN:
                word = kwargs.get("word", args[2] if len(args) > 2 else "")
                self.letters[name] = self.letters.get(name, 0) + len(word)
            elif name == "staircase.parameter_map":
                self.parameters.add(str(out.parameter))
            return out
        return wrapper

    def install(self) -> None:
        targets = {}
        for mod, fname in WRAPPED:
            try:
                module = importlib.import_module(f"sturmjsr.{mod}")
            except ImportError:
                continue
            fn = getattr(module, fname, None)
            if callable(fn):
                targets[id(fn)] = (fn, f"{mod}.{fname}")
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "sturmjsr" and not modname.startswith("sturmjsr."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                name = hit[1]
                if name == "matrices.word_value" and modname == "sturmjsr.staircase":
                    name = TABLE_SPAN
                if name not in wrappers:
                    wrappers[name] = self._wrap(value, name)
                setattr(module, attr, wrappers[name])

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded since construction."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        searches = 0
        maps_in_search = 0
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(self.spans[p][0])
                p = self.spans[p][1]
            if name not in ancestors:
                busy[name] = busy.get(name, 0.0) + end - start
            in_search = any(a in SEARCH_SPANS for a in ancestors)
            if name in SEARCH_SPANS and not in_search:
                searches += 1
            if name == "staircase.parameter_map" and in_search:
                maps_in_search += 1

        def c(name):
            return calls.get(name, 0)

        def b(name):
            return busy.get(name, 0.0)

        rows = c(TABLE_SPAN)
        return {
            "classify.pair_report.calls": c("classify.pair_report"),
            "classify.pair_report.busy_s": b("classify.pair_report"),
            "certify.thresholds.calls": c("certify.thresholds"),
            "certify.thresholds.busy_s": b("certify.thresholds"),
            "staircase.parameter_map.calls": c("staircase.parameter_map"),
            "staircase.parameter_map.self_s": self_s.get("staircase.parameter_map", 0.0),
            "staircase.table.rows": rows,
            "staircase.table.busy_s": b(TABLE_SPAN),
            "staircase.table.letters": self.letters.get(TABLE_SPAN, 0),
            "staircase.table.useful_ratio": len(self.parameters) / rows if rows else 0.0,
            "staircase.calls_per_search": maps_in_search / searches if searches else 0.0,
            "words.mechanical_word.calls": c("words.mechanical_word"),
            "words.mechanical_word.busy_s": b("words.mechanical_word"),
            "certify.gamma_of_t.calls": c("certify.gamma_of_t"),
            "certify.gamma_of_t.busy_s": b("certify.gamma_of_t"),
            "certify.delta_numeric.calls": c("certify.delta_numeric"),
            "certify.delta_numeric.busy_s": b("certify.delta_numeric"),
            "certify.delta_evals_per_certificate": (
                c("certify.delta_numeric") / c("certify.certify") if c("certify.certify") else 0.0
            ),
            "certify.certify.self_s": self_s.get("certify.certify", 0.0),
            "dynamics.f_eval.calls": c("dynamics.f_eval"),
            "dynamics.f_eval.busy_s": b("dynamics.f_eval"),
            "dynamics.apply_T.calls": c("dynamics.apply_T"),
            "dynamics.periodic_point.calls": c("dynamics.periodic_point"),
            "jsr.lyndon_words.count": self.yielded.get("jsr.lyndon_words", 0),
            "jsr.jsr_lower_bruteforce.self_s": self_s.get("jsr.jsr_lower_bruteforce", 0.0),
            "matrices.word_value.calls": c("matrices.word_value") + rows,
            "matrices.word_value.busy_s": b("matrices.word_value") + b(TABLE_SPAN),
            "matrices.word_value.letters": (
                self.letters.get("matrices.word_value", 0) + self.letters.get(TABLE_SPAN, 0)
            ),
            "jsr.jsr_upper_norm.busy_s": b("jsr.jsr_upper_norm"),
            "pairfile.load_pair.busy_s": b("pairfile.load_pair"),
            "cli.main.self_s": self_s.get("cli.main", 0.0),
        }
