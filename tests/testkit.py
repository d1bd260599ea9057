"""Helpers that only the tests need: a ledger writer, a chunk builder, a
one-split scorer, a rule-set linter and the classes-to-clusters score.
Each is built on the package's own kernels, so a test that uses one still
checks the code the pipeline runs."""

import csv
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from amlprofiler import clustering
from amlprofiler.clustering import ClusterModel
from amlprofiler.ingest import (
    TRANSACTION_FIELDS,
    Register,
    TransactionChunk,
    TransactionRecord,
    format_amount,
)
from amlprofiler.profiling import NUMERIC, AttributeSchema
from amlprofiler.rules import OP_EQ, OP_GT, OP_LE, RuleSet
from amlprofiler.rules.tree import _nominal_splits, entropy


def write_transactions(records: Iterable[TransactionRecord], dest: IO[str]) -> None:
    """Serialize records as a ledger CSV that ``TransactionReader`` reads."""
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(TRANSACTION_FIELDS)
    for r in records:
        writer.writerow([r.customer_id, r.account_id, r.timestamp.isoformat(),
                         format_amount(r.amount_cents), r.direction, r.service_code,
                         r.txn_type_code, r.counterparty_bank or ""])


def chunk_of(records: Sequence[TransactionRecord], register: Register) -> TransactionChunk:
    """The chunk of ``records``, each customer named by its register position."""
    return TransactionChunk._of(records, [register.code[r.customer_id] for r in records])


def split_score(
    X: np.ndarray,
    y: np.ndarray,
    schema: AttributeSchema,
    attr: int,
    threshold: Optional[float] = None,
) -> tuple[float, float]:
    """(information gain, gain ratio) of one split on the given instances.

    Numeric attributes need an explicit threshold and are scored as a
    two-level branch (``<=`` versus ``>``); nominal ones branch on every
    level present.  A split with fewer than two non-empty branches scores
    zero.
    """
    if X.shape[0] < 2:
        raise ValueError("need at least 2 instances to score a split")
    classes, y_pos = np.unique(y, return_inverse=True)
    parent_h = entropy(np.bincount(y_pos).astype(float))
    col = X[:, attr]
    if schema.attributes[attr].kind == NUMERIC:
        if threshold is None:
            raise ValueError("numeric splits need a threshold")
        col, n_levels = ~(col <= threshold), 2
    else:
        n_levels = len(schema.attributes[attr].levels)
    cand = _nominal_splits(col[:, None], y_pos, classes.size, [n_levels], 1, parent_h)
    return (cand[0].gain, cand[0].ratio) if cand else (0.0, 0.0)


def structural_violations(ruleset: RuleSet) -> list[str]:
    """Contradictory numeric bounds and repeated tests in any rule.

    A rule must never test one attribute twice in the same direction nor
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


def classes_to_clusters(
    model: ClusterModel, X: np.ndarray, ref_labels: np.ndarray
) -> tuple[float, dict[int, int]]:
    """Map each cluster to its majority reference label and score mismatches.

    Ties go to the lowest label.  Returns (incorrect rate, cluster->label).
    """
    assigned = clustering.assign(model, X)
    ref = np.asarray(ref_labels)
    mapping: dict[int, int] = {}
    incorrect = 0
    for cluster in range(model.k):
        members = ref[assigned == cluster]
        if members.size == 0:
            continue
        labels, counts = np.unique(members, return_counts=True)
        best = labels[np.argmax(counts)]  # unique() sorts, argmax takes first max
        mapping[cluster] = int(best)
        incorrect += int((members != best).sum())
    return incorrect / ref.size, mapping
