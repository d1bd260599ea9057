"""Rule and rule-set types shared by all inducers.

A RuleSet is an ordered decision list: the first matching rule predicts,
anything unmatched falls to the default class.  ``covers`` is the one test
of which rows satisfy a conjunction of conditions, for the inducers and the
decision list alike.  Rules keep their training class distribution so
evaluation can derive Laplace-smoothed scores (``laplace_table``).  These
objects are also the exported knowledge base consumed by the screening
agents, so their JSON shape is fixed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, Sequence

import numpy as np

from ..manifest import from_json
from ..profiling import NOMINAL, AttributeSchema

OP_LE = "<="
OP_GT = ">"
OP_EQ = "="


@dataclass(frozen=True)
class Condition:
    attr: int
    op: str
    value: float

    def matches(self, row: Sequence[float]) -> bool:
        v = row[self.attr]
        if self.op == OP_LE:
            return v <= self.value
        if self.op == OP_GT:
            return v > self.value
        return v == self.value

    def mask(self, X: np.ndarray) -> np.ndarray:
        col = X[:, self.attr]
        if self.op == OP_LE:
            return col <= self.value
        if self.op == OP_GT:
            return col > self.value
        return col == self.value

    def render(self, schema: AttributeSchema) -> str:
        attr = schema.attributes[self.attr]
        if attr.kind == NOMINAL and self.op == OP_EQ:
            return f"{attr.name} = {attr.levels[int(self.value)]}"
        if self.op == OP_EQ:
            return f"{attr.name} = {self.value:g}"
        return f"{attr.name} {self.op} {self.value:g}"


@dataclass(frozen=True)
class Rule:
    conditions: tuple[Condition, ...]
    predicted_class: int
    coverage: int
    class_counts: tuple[int, ...]  # aligned with the rule set's class roster


def covers(X: np.ndarray, conditions: Sequence[Condition]) -> np.ndarray:
    """Mask of the rows of ``X`` that satisfy every condition."""
    mask = np.ones(X.shape[0], dtype=bool)
    for c in conditions:
        mask &= c.mask(X)
    return mask


def covered_rule(
    conditions: Sequence[Condition], cls: int, y_covered: np.ndarray, k: int
) -> Rule:
    """The rule predicting ``cls`` whose covered training rows have the
    roster positions ``y_covered`` (of ``k`` classes)."""
    counts = np.bincount(y_covered, minlength=k)
    return Rule(tuple(conditions), int(cls), int(y_covered.size), tuple(int(c) for c in counts))


def encode_training_set(X, y) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Float features, the sorted class roster and each row's roster position.

    An empty training set is a ``ValueError``.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("cannot induce rules from an empty training set")
    classes, y_pos = np.unique(np.asarray(y), return_inverse=True)
    return X, tuple(int(c) for c in classes), y_pos


def laplace_table(counts: Sequence[Sequence[float]]) -> np.ndarray:
    """Laplace-smoothed class distribution of each count vector, one per row."""
    c = np.asarray(counts, dtype=float)
    return (c + 1.0) / (c.sum(axis=1, keepdims=True) + c.shape[1])


def merge_conditions(conditions: Sequence[Condition]) -> tuple[Condition, ...]:
    """Collapse repeated tests on one attribute into at most a lower and an
    upper bound (tightest wins); duplicate equality tests collapse to one.

    Returns conditions ordered by first appearance of each attribute.
    """
    upper: dict[int, float] = {}
    lower: dict[int, float] = {}
    equal: dict[int, float] = {}
    order: list[tuple[int, str]] = []
    for c in conditions:
        if c.op == OP_LE:
            if c.attr not in upper:
                order.append((c.attr, OP_LE))
                upper[c.attr] = c.value
            else:
                upper[c.attr] = min(upper[c.attr], c.value)
        elif c.op == OP_GT:
            if c.attr not in lower:
                order.append((c.attr, OP_GT))
                lower[c.attr] = c.value
            else:
                lower[c.attr] = max(lower[c.attr], c.value)
        else:
            if c.attr not in equal:
                order.append((c.attr, OP_EQ))
                equal[c.attr] = c.value
            elif equal[c.attr] != c.value:
                raise ValueError(f"conflicting equality tests on attribute {c.attr}")
    merged = []
    for attr, op in order:
        if op == OP_LE:
            merged.append(Condition(attr, OP_LE, upper[attr]))
        elif op == OP_GT:
            merged.append(Condition(attr, OP_GT, lower[attr]))
        else:
            merged.append(Condition(attr, OP_EQ, equal[attr]))
    return tuple(merged)


@dataclass(frozen=True)
class InductionParams:
    min_instances: int = 2
    reduced_error_pruning: bool = False
    pruning_confidence: float = 0.25
    folds_for_rep: int = 3
    seed: int = 1
    optimization_passes: int = 2  # RIPPER only
    mdl_slack_bits: float = 64.0  # RIPPER only

    def __post_init__(self) -> None:
        if self.min_instances < 1:
            raise ValueError("min_instances must be >= 1")
        if not 0.0 < self.pruning_confidence < 1.0:
            raise ValueError("pruning_confidence must be in (0, 1)")
        if self.folds_for_rep < 2:
            raise ValueError("folds_for_rep must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class RuleSet:
    rules: list[Rule]
    default_class: int
    default_counts: tuple[int, ...]
    classes: tuple[int, ...]
    schema: AttributeSchema
    algorithm: str
    params: InductionParams

    def __post_init__(self) -> None:
        for r in self.rules:
            if r.predicted_class not in self.classes:
                raise ValueError(
                    f"rule predicts class {r.predicted_class}, "
                    f"which is not in the class roster {list(self.classes)}"
                )

    def correct_count(self, rule: Rule) -> int:
        """Training instances covered by ``rule`` that carry its class."""
        return rule.class_counts[self.classes.index(rule.predicted_class)]

    @property
    def number_of_rules(self) -> int:
        """Rule count including the default rule, WEKA-report style."""
        return len(self.rules) + 1

    def _deciding_rule(self, X: np.ndarray) -> np.ndarray:
        """Per row, the index of the first rule that matches it, or
        ``len(rules)`` when the default decides."""
        out = np.full(X.shape[0], len(self.rules), dtype=np.int64)
        undecided = np.ones(X.shape[0], dtype=bool)
        for i, rule in enumerate(self.rules):
            hit = undecided & covers(X, rule.conditions)
            out[hit] = i
            undecided &= ~hit
            if not undecided.any():
                break
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        classes = [r.predicted_class for r in self.rules] + [self.default_class]
        return np.asarray(classes, dtype=np.int64)[self._deciding_rule(X)]

    def class_scores(self, X: np.ndarray) -> np.ndarray:
        """Laplace-smoothed class distribution of the first matching rule."""
        counts = [r.class_counts for r in self.rules] + [self.default_counts]
        return laplace_table(counts)[self._deciding_rule(X)]


def render_ruleset(ruleset: RuleSet) -> str:
    """Human-readable decision list, one rule per line."""
    schema = ruleset.schema
    lines = [f"# {ruleset.algorithm} rules ({len(ruleset.rules)} + default)"]
    for rule in ruleset.rules:
        conds = " AND ".join(c.render(schema) for c in rule.conditions) or "(always)"
        errors = rule.coverage - ruleset.correct_count(rule)
        lines.append(f"{conds} : cluster_{rule.predicted_class} ({rule.coverage}/{errors})")
    lines.append(f"(default) : cluster_{ruleset.default_class}")
    return "\n".join(lines) + "\n"


def ruleset_to_json(ruleset: RuleSet) -> dict:
    return {
        "algorithm": ruleset.algorithm,
        "params": asdict(ruleset.params),
        "classes": list(ruleset.classes),
        "default_class": ruleset.default_class,
        "default_counts": list(ruleset.default_counts),
        "schema": asdict(ruleset.schema),
        "rules": [
            {
                "conditions": [asdict(c) for c in r.conditions],
                "class": r.predicted_class,
                "coverage": r.coverage,
                "class_counts": list(r.class_counts),
            }
            for r in ruleset.rules
        ],
    }


def ruleset_from_json(obj: dict) -> RuleSet:
    rules = [
        Rule(
            conditions=tuple(Condition(**c) for c in r["conditions"]),
            predicted_class=r["class"],
            coverage=r["coverage"],
            class_counts=tuple(r["class_counts"]),
        )
        for r in obj["rules"]
    ]
    return RuleSet(
        rules=rules,
        default_class=obj["default_class"],
        default_counts=tuple(obj["default_counts"]),
        classes=tuple(obj["classes"]),
        schema=from_json(AttributeSchema, obj["schema"], "schema"),
        algorithm=obj["algorithm"],
        params=InductionParams(**obj["params"]),
    )


def write_knowledge_base(ruleset: RuleSet, dest: IO[str]) -> None:
    """Export the screening-agent knowledge base (fixed wire format)."""
    obj = {
        "algorithm": ruleset.algorithm,
        "params": asdict(ruleset.params),
        "rules": [
            {
                "conditions": [
                    {
                        "attr": ruleset.schema.attributes[c.attr].name,
                        "op": c.op,
                        "value": c.value,
                    }
                    for c in r.conditions
                ],
                "class": r.predicted_class,
                "coverage": r.coverage,
                "confidence": ruleset.correct_count(r) / r.coverage if r.coverage else 0.0,
            }
            for r in ruleset.rules
        ],
        "default_class": ruleset.default_class,
    }
    json.dump(obj, dest, indent=2, sort_keys=True)
    dest.write("\n")
