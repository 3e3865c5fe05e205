"""Spans and counters recorded from outside the program.

The tracer wraps module attributes of ``stardiag`` for the length of a
``with instrument(tracer):`` block and restores them afterwards.  A span
wrapper records (name, start, end, parent) for every call.  Functions
called hundreds of thousands of times per pass get a lighter counter
wrapper instead: calls and total time are summed, and the time is charged
to the enclosing span, so every span's self time stays exact.

Self time of a span is its duration minus the time of the spans and
counted calls made inside it.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("topologies", "graph", "faults", "diagnosability", "syndrome", "cli")

#: (defining module, function, span name); every name-imported copy in MODULES is wrapped too
SPANS = (
    ("topologies", "build_nk_star", "topologies.build_nk_star"),
    ("topologies", "build_star", "topologies.build_star"),
    ("topologies", "verify_split", "topologies.verify_split"),
    ("faults", "good_faulty_sets", "faults.good_faulty_sets"),
    ("faults", "is_g_good_neighbor", "faults.is_g_good_neighbor"),
    ("faults", "rg_connectivity_bruteforce", "faults.rg_connectivity_bruteforce"),
    ("diagnosability", "tg_bruteforce", "diagnosability.tg_bruteforce"),
    ("diagnosability", "_pmc_sd_scan", "diagnosability._pmc_sd_scan"),
    ("diagnosability", "_pair_scan", "diagnosability._pair_scan"),
    ("diagnosability", "witness_general", "diagnosability.witness_general"),
    ("syndrome", "build_assignment", "syndrome.build_assignment"),
    ("syndrome", "generate_syndrome", "syndrome.generate_syndrome"),
    ("syndrome", "diagnose", "syndrome.diagnose"),
    ("syndrome", "ambiguity_syndrome", "syndrome.ambiguity_syndrome"),
    ("cli", "_random_good_set", "cli.random_good_set"),
    ("cli", "_emit", "cli.emit"),
)

#: (module, attribute, counter name): only that attribute is wrapped.
#: faults.good_mask itself stays bare: good_faulty_sets calls it 2^|V| times,
#: and that count is computed instead of counted.
COUNTED = (
    ("diagnosability", "_sd_closure", "diagnosability._sd_closure"),
    ("diagnosability", "indist_mask", "faults.indist_mask"),
    ("syndrome", "consistent_mask", "syndrome.consistent_mask"),
    ("syndrome", "good_mask", "syndrome.good_mask"),
    ("cli", "good_mask", "cli.good_mask"),
)

INIT_SPAN = "graph.TopologyGraph.init"


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, clock=perf_counter):
        self.clock = clock  # the benchmark passes a clock that stops while it probes machine speed
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counted_s: defaultdict[str, float] = defaultdict(float)
        self.counted_in: Counter = Counter()  # (counter, enclosing span name) -> calls
        self.values: Counter = Counter()  # observed quantities, e.g. masks admitted
        self._stack: list = []  # [span index, child seconds, name]

    def span(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0, name]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent)
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += end - start
            if observe is not None:
                observe(self.values, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        stack, clock = self._stack, self.clock

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.counted_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                    self.counted_in[name, stack[-1][2]] += 1
                else:
                    self.counted_in[name, None] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, within: str | None = None) -> int:
        """Calls of a counted function, optionally only those directly inside span `within`."""
        return sum(n for (c, w), n in self.counted_in.items()
                   if c == name and (within is None or w == within))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _observe_good_faulty_sets(values, args, result):
    graph = args[0]
    values["faults.good_faulty_sets.masks_tested"] += graph.full_mask  # range(2^|V| - 1)
    values["faults.good_faulty_sets.masks_admissible"] += len(result)


OBSERVERS = {"faults.good_faulty_sets": _observe_good_faulty_sets}


@contextlib.contextmanager
def instrument(tracer: Tracer, modules: dict):
    """Wrap the SPANS and COUNTED attributes of `modules` (name -> module) for the block."""
    patched = []  # (owner, attribute, original)
    try:
        for home, attr, name in SPANS:
            original = getattr(modules[home], attr)
            wrapper = tracer.span(name, original, OBSERVERS.get(name))
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for home, attr, name in COUNTED:
            mod = modules[home]
            original = getattr(mod, attr)
            patched.append((mod, attr, original))
            setattr(mod, attr, tracer.counted(name, original))
        graph_cls = modules["graph"].TopologyGraph
        original_init = graph_cls.__init__
        patched.append((graph_cls, "__init__", original_init))
        graph_cls.__init__ = tracer.span(INIT_SPAN, original_init)
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


@contextlib.contextmanager
def trial_clock(cli_module, samples: list, clock=perf_counter):
    """Per-trial time by `clock` of `simulate` injection: from drawing the faulty set to diagnosis.

    Each trial of cmd_simulate calls _random_good_set, generate_syndrome and
    diagnose in that order, so a trial spans the first call to the end of the
    last.  Witness mode calls diagnose without a draw and records nothing.
    """
    draw, diagnose = cli_module._random_good_set, cli_module.diagnose
    started = []

    def timed_draw(*args, **kwargs):
        started.append(clock())
        return draw(*args, **kwargs)

    def timed_diagnose(*args, **kwargs):
        result = diagnose(*args, **kwargs)
        if started:
            samples.append(clock() - started.pop())
        return result

    cli_module._random_good_set, cli_module.diagnose = timed_draw, timed_diagnose
    try:
        yield samples
    finally:
        cli_module._random_good_set, cli_module.diagnose = draw, diagnose


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each summed over the traced passes and divided by their number."""
    per = 1.0 / passes
    out = {}

    def put(name, value, unit):
        out[name] = (value * per if unit in ("s", "count") else value, unit)

    for _, _, name in SPANS:
        put(f"{name}.self_s", tracer.self_s.get(name, 0.0), "s")
    put(f"{INIT_SPAN}.self_s", tracer.self_s.get(INIT_SPAN, 0.0), "s")
    put("topologies.build_nk_star.calls", tracer.calls["topologies.build_nk_star"], "count")
    put("diagnosability.witness_general.calls", tracer.calls["diagnosability.witness_general"],
        "count")
    for counter in ("diagnosability._sd_closure", "faults.indist_mask"):
        put(f"{counter}.calls", tracer.count(counter), "count")
        put(f"{counter}.self_s", tracer.counted_s.get(counter, 0.0), "s")

    tested = tracer.values["faults.good_faulty_sets.masks_tested"]
    admitted = tracer.values["faults.good_faulty_sets.masks_admissible"]
    put("faults.good_faulty_sets.masks_tested", tested, "count")
    put("faults.good_faulty_sets.masks_admissible", admitted, "count")
    put("faults.good_faulty_sets.admissible_ratio", admitted / tested if tested else 0.0, "ratio")

    hypotheses = tracer.count("syndrome.good_mask", within="syndrome.diagnose")
    consistent_checked = tracer.count("syndrome.consistent_mask", within="syndrome.diagnose")
    put("syndrome.diagnose.hypotheses_tested", hypotheses, "count")
    put("syndrome.consistent_mask.calls", tracer.count("syndrome.consistent_mask"), "count")
    put("syndrome.diagnose.admissible_ratio",
        consistent_checked / hypotheses if hypotheses else 0.0, "ratio")
    put("cli.random_good_set.draws", tracer.count("cli.good_mask", within="cli.random_good_set"),
        "count")
    return out
