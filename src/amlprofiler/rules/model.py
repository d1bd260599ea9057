"""Rule and rule-set types shared by all inducers.

A RuleSet is an ordered decision list: the first matching rule predicts,
anything unmatched falls to the default class.  Rules keep their training
class distribution so evaluation can derive Laplace-smoothed scores.  These
objects are also the exported knowledge base consumed by the screening
agents, so their JSON shape is fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

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

    def matches(self, row: Sequence[float]) -> bool:
        return all(c.matches(row) for c in self.conditions)

    def mask(self, X: np.ndarray) -> np.ndarray:
        out = np.ones(X.shape[0], dtype=bool)
        for c in self.conditions:
            out &= c.mask(X)
        return out


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

    def to_json(self) -> dict:
        return {
            "min_instances": self.min_instances,
            "reduced_error_pruning": self.reduced_error_pruning,
            "pruning_confidence": self.pruning_confidence,
            "folds_for_rep": self.folds_for_rep,
            "seed": self.seed,
            "optimization_passes": self.optimization_passes,
            "mdl_slack_bits": self.mdl_slack_bits,
        }

    @staticmethod
    def from_json(obj: dict) -> "InductionParams":
        return InductionParams(**obj)


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

    def predict_row(self, row: Sequence[float]) -> int:
        for rule in self.rules:
            if rule.matches(row):
                return rule.predicted_class
        return self.default_class

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(X.shape[0], self.default_class, dtype=np.int64)
        undecided = np.ones(X.shape[0], dtype=bool)
        for rule in self.rules:
            hit = undecided & rule.mask(X)
            out[hit] = rule.predicted_class
            undecided &= ~hit
            if not undecided.any():
                break
        return out

    def class_scores(self, X: np.ndarray) -> np.ndarray:
        """Laplace-smoothed class distribution of the first matching rule."""
        k = len(self.classes)
        out = np.empty((X.shape[0], k))
        default_scores = _laplace(self.default_counts, k)
        out[:] = default_scores
        undecided = np.ones(X.shape[0], dtype=bool)
        for rule in self.rules:
            hit = undecided & rule.mask(X)
            if hit.any():
                out[hit] = _laplace(rule.class_counts, k)
            undecided &= ~hit
            if not undecided.any():
                break
        return out


def _laplace(counts: Sequence[int], k: int) -> np.ndarray:
    c = np.asarray(counts, dtype=float)
    return (c + 1.0) / (c.sum() + k)


def structural_violations(ruleset: RuleSet) -> list[str]:
    """Detect contradictory numeric bounds and duplicate equality tests.

    Clean output here is the quality bar for the exported knowledge base:
    a rule must never test one attribute twice in the same direction nor
    carry an empty numeric interval.
    """
    problems = []
    for i, rule in enumerate(ruleset.rules):
        seen: dict[tuple[int, str], float] = {}
        for c in rule.conditions:
            key = (c.attr, c.op)
            if key in seen:
                problems.append(f"rule {i}: attribute {c.attr} tested twice with {c.op}")
            seen[key] = c.value
        for attr in {c.attr for c in rule.conditions}:
            lo = seen.get((attr, OP_GT))
            hi = seen.get((attr, OP_LE))
            if lo is not None and hi is not None and lo >= hi:
                problems.append(
                    f"rule {i}: contradictory bounds on attribute {attr} ({lo} >= {hi})"
                )
            if (attr, OP_EQ) in seen and (lo is not None or hi is not None):
                problems.append(f"rule {i}: attribute {attr} mixes equality and bounds")
    return problems


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
        "params": ruleset.params.to_json(),
        "classes": list(ruleset.classes),
        "default_class": ruleset.default_class,
        "default_counts": list(ruleset.default_counts),
        "schema": ruleset.schema.to_json(),
        "rules": [
            {
                "conditions": [
                    {"attr": c.attr, "op": c.op, "value": c.value} for c in r.conditions
                ],
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
            conditions=tuple(
                Condition(c["attr"], c["op"], c["value"]) for c in r["conditions"]
            ),
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
        schema=AttributeSchema.from_json(obj["schema"]),
        algorithm=obj["algorithm"],
        params=InductionParams.from_json(obj["params"]),
    )


def write_knowledge_base(ruleset: RuleSet, dest: IO[str]) -> None:
    """Export the screening-agent knowledge base (fixed wire format)."""
    obj = {
        "algorithm": ruleset.algorithm,
        "params": ruleset.params.to_json(),
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
