"""Layer tracing from outside the program.

Wrappers defined here are installed at every name a caller looks up: the
negdep modules import functions by name, so each wrapper replaces the
original object wherever any loaded ``negdep.*`` module holds it, and methods
are replaced on their class. ``uninstall`` puts the originals back, so an
untraced pass in the same process runs the unmodified code.

Each span is (id, parent id, name, layer, start, end, pass key); spans stay
in memory and are written when the run ends. A layer's self time is the sum
over its spans of the duration minus the durations of direct child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

# (module, attribute or Class.method, layer); the span name is the attribute
SPANNED = (
    ("negdep.cli", "main", "cli"),
    ("negdep.report", "build_check_report", "report"),
    ("negdep.report", "canonical_json", "report"),
    ("negdep.report", "Report.to_json", "report"),
    ("negdep.checks", "check_na", "checks"),
    ("negdep.checks", "check_nod", "checks"),
    ("negdep.checks", "check_nlod", "checks"),
    ("negdep.checks", "check_nuod", "checks"),
    ("negdep.checks", "check_nsmd", "checks"),
    ("negdep.checks", "check_nrd", "checks"),
    ("negdep.checks", "check_nltd", "checks"),
    ("negdep.checks", "check_nrtd", "checks"),
    ("negdep.checks", "check_nrd1", "checks"),
    ("negdep.checks", "check_nltd1", "checks"),
    ("negdep.checks", "check_nrtd1", "checks"),
    ("negdep.checks", "audit_implications", "checks"),
    ("negdep.stochorder", "st_leq", "stochorder"),
    ("negdep.stochorder", "st_leq_coupling", "stochorder"),
    ("negdep.stochorder", "st_leq_uppersets", "stochorder"),
    ("negdep.stochorder", "Coupling.validate", "stochorder"),
    ("negdep.maxflow", "max_flow", "maxflow"),
    ("negdep.supermodular", "supermodular_leq", "supermodular"),
    ("negdep.simplex", "simplex_solve", "simplex"),
    ("negdep.distributions", "make_pmf", "distributions"),
    ("negdep.distributions", "independent_copy", "distributions"),
    ("negdep.distributions", "permutation_distribution", "distributions"),
    ("negdep.distributions", "from_json_dict", "distributions"),
    ("negdep.distributions", "FiniteJointDistribution.marginal", "distributions"),
    ("negdep.distributions", "FiniteJointDistribution.condition", "distributions"),
    ("negdep.tournaments", "knockout_fixed_draw", "tournaments"),
    ("negdep.tournaments", "knockout_random_draw", "tournaments"),
)
GENERATORS = (("negdep.uppersets", "enumerate_upper_index_sets", "uppersets"),)
COUNTED = (("negdep.maxflow", "FlowNetwork.add_edge", "maxflow.edges"),)

LAYERS = ("cli", "report", "checks", "stochorder", "maxflow", "supermodular",
          "simplex", "uppersets", "distributions", "tournaments")

# name, unit, better; the order BENCHMARK.json lists them in
PER_LAYER = (
    ("maxflow.calls", "count", "lower"),
    ("maxflow.self_s", "s", "lower"),
    ("maxflow.edges", "count", "lower"),
    ("maxflow.nodes", "count", "lower"),
    ("stochorder.calls", "count", "lower"),
    ("stochorder.false_ratio", "ratio", "higher"),
    ("stochorder.self_s", "s", "lower"),
    ("stochorder.coupling_self_s", "s", "lower"),
    ("stochorder.validate_s", "s", "lower"),
    ("stochorder.uppersets_s", "s", "lower"),
    ("simplex.calls", "count", "lower"),
    ("simplex.self_s", "s", "lower"),
    ("simplex.rows", "count", "lower"),
    ("simplex.vars", "count", "lower"),
    ("simplex.infeasible", "count", "lower"),
    ("supermodular.calls", "count", "lower"),
    ("supermodular.self_s", "s", "lower"),
    ("supermodular.grid_points", "count", "lower"),
    ("checks.self_s", "s", "lower"),
    ("checks.cells", "count", "lower"),
    ("checks.conditioning_pairs", "count", "lower"),
    ("checks.st_checks", "count", "lower"),
    ("checks.upper_sets", "count", "lower"),
    ("checks.st_per_pair", "ratio", "lower"),
    ("uppersets.calls", "count", "lower"),
    ("uppersets.sets", "count", "lower"),
    ("uppersets.self_s", "s", "lower"),
    ("distributions.calls", "count", "lower"),
    ("distributions.self_s", "s", "lower"),
    ("tournaments.build_s", "s", "lower"),
    ("tournaments.atoms", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("report.self_s", "s", "lower"),
    ("trace.decide_s", "s", "lower"),
    ("trace.untraced_decide_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span stack, finished spans and per-pass counters of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack = [0]
        self.depth = dict.fromkeys(LAYERS, 0)
        self.next_id = 1
        self.pass_key = None
        self.counts: dict = {}
        self._installed: list[tuple] = []

    def count(self, name: str, value=1) -> None:
        per_pass = self.counts.setdefault(self.pass_key, {})
        per_pass[name] = per_pass.get(name, 0) + value

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for module, attr, layer in SPANNED:
            self._replace(module, attr, lambda orig, a=attr, lay=layer: self._span(orig, a, lay))
        for module, attr, layer in GENERATORS:
            self._replace(module, attr, lambda orig, lay=layer: self._generator(orig, lay))
        for module, attr, counter in COUNTED:
            self._replace(module, attr, lambda orig, c=counter: self._counter(orig, c))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._installed):
            setattr(owner, name, orig)
        self._installed.clear()

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            self._installed.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(module, attr)
        wrapper = make(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "negdep" or name.startswith("negdep.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._installed.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, orig, name: str, layer: str):
        note = _NOTES.get(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            entering = self.depth[layer] == 0
            sid = self.next_id
            self.next_id = sid + 1
            parent = self.stack[-1]
            self.stack.append(sid)
            self.depth[layer] += 1
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                self.depth[layer] -= 1
                self.stack.pop()
                self.spans.append((sid, parent, name, layer, start, end, self.pass_key))
            if entering:
                self.count(f"{layer}.calls")
            if note is not None:
                note(self, entering, args, result)
            return result

        return wrapper

    def _generator(self, orig, layer: str):
        name = orig.__name__

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.count(f"{layer}.calls")
            return self._timed_iter(orig(*args, **kwargs), name, layer)

        return wrapper

    def _timed_iter(self, gen, name: str, layer: str):
        """Re-yield ``gen`` with one span around each step of its work."""
        while True:
            sid = self.next_id
            self.next_id = sid + 1
            parent = self.stack[-1]
            self.stack.append(sid)
            start = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, name, layer, start, end, self.pass_key))
            self.count(f"{layer}.sets")
            yield item

    def _counter(self, orig, counter: str):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.count(counter)
            return orig(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def pass_metrics(self, key) -> dict:
        """Per-layer sums for one pass key (a set-up repetition or a pass)."""
        spans = [s for s in self.spans if s[6] == key]
        child = {}
        for sid, parent, _, _, start, end, _ in spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        out = dict(self.counts.get(key, {}))
        by_name = {}
        for sid, _, name, layer, start, end, _ in spans:
            own = (end - start) - child.get(sid, 0.0)
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
            total, self_total = by_name.get(name, (0.0, 0.0))
            by_name[name] = (total + (end - start), self_total + own)
        out["stochorder.coupling_self_s"] = by_name.get("st_leq_coupling", (0, 0))[1]
        out["stochorder.validate_s"] = by_name.get("Coupling.validate", (0, 0))[0]
        out["stochorder.uppersets_s"] = by_name.get("st_leq_uppersets", (0, 0))[0]
        out["tournaments.build_s"] = out.pop("tournaments.self_s", 0.0)
        return out

    def write(self, path: str, header: dict) -> None:
        run_id, workload = header["run_id"], header["workload"]
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, layer, start, end, key in self.spans:
                fh.write(json.dumps([run_id, workload, sid, parent, name, layer,
                                     start, end, key]) + "\n")


def _note_checks(tr, entering, args, result):
    if not entering:
        return
    verdicts = getattr(result, "verdicts", None)
    for v in (verdicts.values() if verdicts is not None else (result,)):
        s = v.stats
        tr.count("checks.cells", s.cells)
        tr.count("checks.conditioning_pairs", s.conditioning_pairs)
        tr.count("checks.st_checks", s.st_checks)
        tr.count("checks.upper_sets", s.upper_sets)


def _note_stochorder(tr, entering, args, result):
    if entering:
        tr.count("stochorder.false", 0 if result.holds else 1)


def _note_max_flow(tr, entering, args, result):
    tr.count("maxflow.nodes", len(args[0].nodes))


def _note_simplex(tr, entering, args, result):
    lp = args[0]
    tr.count("simplex.rows", len(lp.constraints) + len(lp.equalities))
    tr.count("simplex.vars", lp.num_vars)
    tr.count("simplex.infeasible", 1 if result.status == "infeasible" else 0)


def _note_supermodular(tr, entering, args, result):
    tr.count("supermodular.grid_points", result.grid_points)


def _note_tournament(tr, entering, args, result):
    tr.count("tournaments.atoms", len(result))


_NOTES = {
    "audit_implications": _note_checks,
    "st_leq": _note_stochorder,
    "st_leq_coupling": _note_stochorder,
    "st_leq_uppersets": _note_stochorder,
    "max_flow": _note_max_flow,
    "simplex_solve": _note_simplex,
    "supermodular_leq": _note_supermodular,
    "knockout_fixed_draw": _note_tournament,
    "knockout_random_draw": _note_tournament,
}
_NOTES.update({name: _note_checks for module, name, layer in SPANNED
               if layer == "checks" and name != "audit_implications"})


def per_layer_metrics(tracer: Tracer, setup_keys, pass_keys, traced_s, untraced_s) -> dict:
    """Median set-up repetition plus median traced pass, for every layer metric."""
    setup = [tracer.pass_metrics(k) for k in setup_keys]
    passes = [tracer.pass_metrics(k) for k in pass_keys]
    values = {}
    for name, unit, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        values[name] = (statistics.median(m.get(name, 0) for m in setup)
                        + statistics.median(m.get(name, 0) for m in passes))
    calls = values["stochorder.calls"]
    false = (statistics.median(m.get("stochorder.false", 0) for m in setup)
             + statistics.median(m.get("stochorder.false", 0) for m in passes))
    values["stochorder.false_ratio"] = false / calls if calls else 0.0
    pairs = values["checks.conditioning_pairs"]
    values["checks.st_per_pair"] = values["checks.st_checks"] / pairs if pairs else 0.0
    values["trace.decide_s"] = traced_s
    values["trace.untraced_decide_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
