"""Cluster-label classifiers: C4.5-style trees, PART rule lists, RIPPER."""

from .model import (
    OP_EQ,
    OP_GT,
    OP_LE,
    Condition,
    InductionParams,
    Rule,
    RuleSet,
    render_ruleset,
    ruleset_from_json,
    ruleset_to_json,
    write_knowledge_base,
)
from .tree import DecisionTree, build_tree, tree_to_rules
from .part import part_induce
from .ripper import foil_gain, ripper_induce

__all__ = [
    "OP_EQ",
    "OP_GT",
    "OP_LE",
    "Condition",
    "DecisionTree",
    "InductionParams",
    "Rule",
    "RuleSet",
    "build_tree",
    "foil_gain",
    "part_induce",
    "render_ruleset",
    "ripper_induce",
    "ruleset_from_json",
    "ruleset_to_json",
    "tree_to_rules",
    "write_knowledge_base",
]
