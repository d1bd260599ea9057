"""Spans around the program's public functions, kept in memory as a tree.

``install`` wraps the public functions and class methods that the CLI
stages call, from outside the program: each call becomes a span in an
aggregated span tree (one node per call path, with call count, total time
and the time its child spans cover).  Nothing under ``src/`` changes.

A node's self time is its total minus the time covered by its children, so
per stage the self times of all nodes plus ``cli.other_s`` (stage time not
covered by any span) add up to the stage's traced wall time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Node:
    __slots__ = ("name", "count", "total", "child", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.child = 0.0
        self.children: dict[str, Node] = {}

    def sub(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total,
            "self_s": self.total - self.child,
            "children": [c.to_json() for c in self.children.values()],
        }


class Tracer:
    def __init__(self) -> None:
        self.reset("stage")

    def reset(self, stage: str) -> None:
        """Start a new span tree for one stage."""
        self.root = Node(stage)
        self.stack = [self.root]
        self.counters: dict[str, float] = defaultdict(float)
        self.stream_end: float | None = None

    def enter(self, name: str) -> Node:
        node = self.stack[-1].sub(name)
        self.stack.append(node)
        return node

    def leave(self, node: Node, duration: float) -> None:
        self.stack.pop()
        node.count += 1
        node.total += duration
        self.stack[-1].child += duration


class TimedIterator:
    """Times every ``next()`` of a wrapped iterator as one span.

    ``on_end(ended)`` runs once the iterator is exhausted, after the last
    span closed at ``ended``.
    """

    __slots__ = ("_it", "_tracer", "_name", "_on_end")

    def __init__(self, it, tracer: Tracer, name: str, on_end=None):
        self._it = it
        self._tracer = tracer
        self._name = name
        self._on_end = on_end

    def __iter__(self):
        return self

    def __next__(self):
        # Tracer.enter/leave inlined: this runs once per ledger row.
        stack = self._tracer.stack
        parent = stack[-1]
        node = parent.children.get(self._name) or parent.sub(self._name)
        stack.append(node)
        exhausted = False
        started = perf_counter()
        try:
            return next(self._it)
        except StopIteration:
            exhausted = True
            raise
        finally:
            ended = perf_counter()
            stack.pop()
            node.count += 1
            node.total += ended - started
            parent.child += ended - started
            if exhausted and self._on_end is not None:
                self._on_end(ended)


def _span(tracer: Tracer, name: str, fn, count=None):
    def wrapper(*args, **kwargs):
        node = tracer.enter(name)
        started = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(node, perf_counter() - started)
        if count is not None:
            count(tracer.counters, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _profiles_span(tracer: Tracer, fn):
    """``build_profiles_*``: self time while the stream is open, plus a
    ``profiling.post_stream`` child from stream exhaustion to return."""

    def wrapper(*args, **kwargs):
        tracer.stream_end = None
        node = tracer.enter("profiling.aggregate")
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = perf_counter()
            if tracer.stream_end is not None and tracer.stream_end >= started:
                tail = node.sub("profiling.post_stream")
                tail.count += 1
                tail.total += ended - tracer.stream_end
                node.child += ended - tracer.stream_end
            tracer.leave(node, ended - started)

    wrapper.__wrapped__ = fn
    return wrapper


def _reader_iter(tracer: Tracer, fn):
    def wrapper(reader):
        def done(ended):
            tracer.counters["ingest.rows_accepted"] += reader.accepted
            tracer.counters["ingest.rows_rejected"] += reader.rejected

        return TimedIterator(fn(reader), tracer, "ingest.parse", done)

    wrapper.__wrapped__ = fn
    return wrapper


def _filter_iter(tracer: Tracer, fn):
    from amlprofiler.ingest import FilterStats

    def wrapper(txns, policy, stats=None):
        stats = FilterStats() if stats is None else stats

        def done(ended):
            tracer.stream_end = ended
            tracer.counters["ingest.rows_filtered"] += stats.dropped

        return TimedIterator(fn(txns, policy, stats), tracer, "ingest.filter", done)

    wrapper.__wrapped__ = fn
    return wrapper


def _add(counter: str, value):
    def count(counters, args, kwargs, result):
        counters[counter] += value(args, kwargs, result)

    return count


_BYTES = _add("manifest.bytes_hashed", lambda a, k, r: os.path.getsize(a[0] if a else k["path"]))
_ITERATIONS = _add("clustering.lloyd_iterations", lambda a, k, r: r.iterations_run)
_RULES = _add("rules.rules_induced", lambda a, k, r: r.number_of_rules)
_SCORED = _add("rules.scored_rows", lambda a, k, r: (a[1] if len(a) > 1 else k["X"]).shape[0])
_TESTED = _add("evaluation.test_rows", lambda a, k, r: (a[1] if len(a) > 1 else k["X_test"]).shape[0])


def span(name: str, count=None):
    return lambda tracer, fn: _span(tracer, name, fn, count)


# (module, attribute, wrapper factory).  Per-row helpers such as
# ``parse_amount_cents`` and split scoring stay unwrapped: they run inside
# the spans of their callers.
SPANS = (
    ("amlprofiler.ingest", "TransactionReader.__iter__", _reader_iter),
    ("amlprofiler.ingest", "filter_insignificant", _filter_iter),
    ("amlprofiler.profiling", "build_profiles_phase1", _profiles_span),
    ("amlprofiler.profiling", "build_profiles_phase2", _profiles_span),
    ("amlprofiler.ingest", "parse_customers", span("ingest.register")),
    ("amlprofiler.ingest", "write_rejections", span("ingest.rejections")),
    ("amlprofiler.profiling", "read_profiles", span("profiling.read")),
    ("amlprofiler.profiling", "read_schema_sidecar", span("profiling.read")),
    ("amlprofiler.profiling", "write_profiles", span("profiling.write")),
    ("amlprofiler.profiling", "write_schema_sidecar", span("profiling.write")),
    ("amlprofiler.profiling", "fit_discretization", span("profiling.discretize")),
    ("amlprofiler.profiling", "apply_discretization", span("profiling.discretize")),
    ("amlprofiler.profiling", "profile_matrix", span("profiling.matrix")),
    ("amlprofiler.profiling", "profile_labels", span("profiling.matrix")),
    ("amlprofiler.manifest", "sha256_file", span("manifest.hash", _BYTES)),
    ("amlprofiler.manifest", "write_manifest", span("manifest.write")),
    ("amlprofiler.clustering", "kmeans_best_of", span("clustering.best_of")),
    ("amlprofiler.clustering", "kmeans_fit", span("clustering.kmeans_fit", _ITERATIONS)),
    ("amlprofiler.clustering", "seed_indices", span("clustering.seed")),
    ("amlprofiler.clustering", "assign", span("clustering.assign")),
    ("amlprofiler.clustering", "ClusterModel.save", span("clustering.save")),
    ("amlprofiler.clustering", "pairwise_distances", span("validity.pairwise")),
    ("amlprofiler.validity", "k_sweep", span("validity.k_sweep")),
    ("amlprofiler.validity", "silhouette", span("validity.silhouette")),
    ("amlprofiler.validity", "vrc", span("validity.vrc")),
    ("amlprofiler.validity", "sse", span("validity.sse")),
    ("amlprofiler.validity", "partition_agreement", span("validity.agreement")),
    ("amlprofiler.validity", "write_sweep_csv", span("validity.write")),
    ("amlprofiler.rules.part", "part_induce", span("rules.part", _RULES)),
    ("amlprofiler.rules.tree", "build_tree", span("rules.tree", _RULES)),
    ("amlprofiler.rules.ripper", "ripper_induce", span("rules.ripper", _RULES)),
    ("amlprofiler.rules.model", "RuleSet.predict", span("rules.predict", _SCORED)),
    ("amlprofiler.rules.model", "RuleSet.class_scores", span("rules.predict", _SCORED)),
    ("amlprofiler.rules.tree", "DecisionTree.predict", span("rules.predict", _SCORED)),
    ("amlprofiler.rules.tree", "DecisionTree.class_scores", span("rules.predict", _SCORED)),
    ("amlprofiler.rules.tree", "tree_to_rules", span("rules.convert")),
    ("amlprofiler.rules.model", "render_ruleset", span("rules.convert")),
    ("amlprofiler.rules.model", "ruleset_to_json", span("rules.convert")),
    ("amlprofiler.rules.model", "ruleset_from_json", span("rules.convert")),
    ("amlprofiler.rules.model", "write_knowledge_base", span("rules.convert")),
    ("amlprofiler.evaluation", "evaluate", span("evaluation.self", _TESTED)),
    ("amlprofiler.evaluation", "cross_validate", span("evaluation.self")),
    ("amlprofiler.evaluation", "split", span("evaluation.split")),
    ("amlprofiler.evaluation", "holdout_split", span("evaluation.split")),
    ("amlprofiler.evaluation", "cv_folds", span("evaluation.split")),
    ("amlprofiler.evaluation", "report_row", span("evaluation.report")),
    ("amlprofiler.evaluation", "write_report_rows", span("evaluation.report")),
    ("amlprofiler.synthgen", "generate_files", span("synthgen.generate")),
)


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the patches for ``uninstall``.

    A module-level function is replaced wherever a loaded ``amlprofiler``
    module binds it (``from .x import f`` copies the reference), a method
    on its class.
    """
    importlib.import_module("amlprofiler.cli")
    patches = []
    for module_name, attr, make in SPANS:
        module = importlib.import_module(module_name)
        owner, _, name = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner)
            original = cls.__dict__[name]
            patches.append((cls, name, original))
            setattr(cls, name, make(tracer, original))
            continue
        original = getattr(module, name)
        wrapper = make(tracer, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "amlprofiler" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patches


def uninstall(patches: list) -> None:
    for holder, name, original in reversed(patches):
        setattr(holder, name, original)


def stage_metrics(stage: str, tree: dict, counters: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced stage, prefixed with the stage name.

    Every span name contributes ``<name>_s`` (summed self time), so the
    ``_s`` metrics other than ``wall_s`` partition the stage's wall time.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)

    def walk(node: dict) -> None:
        for child in node["children"]:
            self_s[child["name"]] += child["self_s"]
            calls[child["name"]] += child["count"]
            walk(child)

    walk(tree)
    covered = sum(child["total_s"] for child in tree["children"])
    out = {f"{name}_s": value for name, value in self_s.items()}
    out["cli.other_s"] = wall_s - covered
    out["clustering.kmeans_fits"] = calls["clustering.kmeans_fit"]
    out["rules.inductions"] = calls["rules.part"] + calls["rules.tree"] + calls["rules.ripper"]
    for name in (
        "ingest.rows_accepted",
        "ingest.rows_rejected",
        "ingest.rows_filtered",
        "manifest.bytes_hashed",
        "clustering.lloyd_iterations",
        "rules.rules_induced",
    ):
        out[name] = counters.get(name, 0)
    tested = counters.get("evaluation.test_rows", 0)
    out["evaluation.scored_rows_per_test_row"] = counters.get("rules.scored_rows", 0) / tested if tested else 0.0
    return {f"{stage}.{key}": value for key, value in out.items()}


NON_SELF_TIMES = {"wall_s", "untraced_s", "trace_overhead_s"}


def partition_error(stage: str, metrics: dict, wall_s: float) -> float:
    """|sum of self times + cli.other_s - wall| for one stage's metrics."""
    prefix = f"{stage}."
    total = sum(
        v
        for k, v in metrics.items()
        if k.startswith(prefix) and k.endswith("_s") and k[len(prefix):] not in NON_SELF_TIMES
    )
    return abs(total - wall_s)


def negative_times(stage: str, metrics: dict, tolerance: float = 1e-6) -> list[str]:
    """Self times and ``cli.other_s`` of one stage below ``-tolerance``.

    The partition above holds by construction; a negative part is what
    shows spans that overlap instead of nesting.
    """
    prefix = f"{stage}."
    return sorted(
        k
        for k, v in metrics.items()
        if k.startswith(prefix) and k.endswith("_s") and k[len(prefix):] not in NON_SELF_TIMES and v < -tolerance
    )
