"""Sequential-covering rule induction in the RIPPER style.

Classes are handled from rarest to most frequent; the most frequent class
becomes the default.  Per class, rules are grown condition by condition to
maximize FOIL gain on a stratified 2/3 growing split, pruned by dropping
final condition sequences to maximize (p - n) / (p + n) on the remaining
1/3, and accepted while the total description length stays within a fixed
slack of the best seen.  Two optimization passes then re-grow each rule as
a replacement and a revision, keeping whichever variant describes the data
most cheaply.

Each induction argsorts every numeric column once; a class's stage, and
each refinement step within it, filters that order down to the rows still
in play instead of sorting again.  A step scores every threshold of every
numeric attribute, on both sides, from one cumulative positive count, and
counts every nominal level in one table.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..profiling import NOMINAL, AttributeSchema
from .model import (
    OP_EQ,
    OP_GT,
    OP_LE,
    Condition,
    InductionParams,
    Rule,
    RuleSet,
    covered_rule,
    covers,
    encode_training_set,
    merge_conditions,
)
from .tree import (
    first_max_per_group,
    level_table,
    midpoint,
    presort,
    restrict,
    stratified_two_way,
    value_changes,
)

log = logging.getLogger(__name__)


def foil_gain(p0: int, n0: int, p: int, n: int) -> float:
    """Information gained (in bits) by a refinement that narrows coverage
    from (p0 positives, n0 negatives) to (p, n)."""
    if p == 0:
        return -math.inf
    return p * (math.log2(p / (p + n)) - math.log2(p0 / (p0 + n0)))


def _subset_dl(n: float, k: float, p: float) -> float:
    """Bits to transmit which k of n elements are flagged, at expected rate p."""
    dl = 0.0
    if k > 0:
        if p <= 0:
            return math.inf
        dl -= k * math.log2(p)
    if n - k > 0:
        if p >= 1:
            return math.inf
        dl -= (n - k) * math.log2(1.0 - p)
    return dl


def _theory_dl(n_conditions: int, m_possible: int) -> float:
    if n_conditions == 0:
        return 0.0
    k = float(n_conditions)
    tdl = math.log2(k)
    if k > 1:
        tdl += 2.0 * math.log2(tdl)
    tdl += _subset_dl(m_possible, k, k / m_possible)
    return 0.5 * tdl  # redundancy discount on the theory bits


def _data_dl(exp_fp_over_err: float, covered: float, uncovered: float, fp: float, fn: float) -> float:
    total_bits = math.log2(covered + uncovered + 1.0)
    if covered > uncovered:
        exp_err = exp_fp_over_err * (fp + fn)
        cover_bits = _subset_dl(covered, fp, exp_err / covered) if covered > 0 else 0.0
        uncover_bits = _subset_dl(uncovered, fn, fn / uncovered) if uncovered > 0 else 0.0
    else:
        exp_err = (1.0 - exp_fp_over_err) * (fp + fn)
        cover_bits = _subset_dl(covered, fp, fp / covered) if covered > 0 else 0.0
        uncover_bits = _subset_dl(uncovered, fn, exp_err / uncovered) if uncovered > 0 else 0.0
    return total_bits + cover_bits + uncover_bits


@dataclass
class _Stage:
    """Per-class induction context: the instances still in play when the
    class's turn comes, plus the condition universe used for MDL costs."""

    X: np.ndarray
    is_pos: np.ndarray
    orders: np.ndarray  # row ids in each numeric column's sorted order
    schema: AttributeSchema
    m_possible: int
    exp_fp_over_err: float


def _count_possible_conditions(X: np.ndarray, schema: AttributeSchema, orders: np.ndarray) -> int:
    """Every level of each nominal attribute, plus both sides of every
    distinct value of each numeric one (one more than its value changes)."""
    numeric = np.flatnonzero(schema.numeric_mask())
    changes = value_changes(X, numeric, orders)[1].size
    total = sum(len(attr.levels) for attr in schema.attributes if attr.kind == NOMINAL)
    return max(total + 2 * (changes + numeric.size), 1)


def _covered_by_any(X: np.ndarray, rules_conditions: Sequence[Sequence[Condition]]) -> np.ndarray:
    """Mask of the rows of ``X`` that at least one of the rules covers."""
    mask = np.zeros(X.shape[0], dtype=bool)
    for conditions in rules_conditions:
        mask |= covers(X, conditions)
    return mask


def _gain_vector(p: np.ndarray, n: np.ndarray, p0: int, n0: int) -> np.ndarray:
    """FOIL gain for many candidate refinements at once; p = 0 gives -inf."""
    base = math.log2(p0 / (p0 + n0))
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = p * (np.log2(np.where(p > 0, p / (p + n), 1.0)) - base)
    return np.where(p > 0, gains, -math.inf)


def _best_refinement(
    stage: _Stage,
    rows: np.ndarray,
    orders: np.ndarray,
    p0: int,
    n0: int,
    min_coverage: int,
) -> Optional[Condition]:
    """The refinement of highest positive FOIL gain covering at least
    ``min_coverage`` of ``rows``, or None.

    ``orders`` holds ``rows`` in each numeric column's sorted order, so one
    cumulative positive count gives the coverage of every '<= v' and '> v'
    refinement of every numeric attribute, scored with one ``_gain_vector``
    call per side.  One (level, class) table gives every '= level' one.
    Ties go to the lowest attribute, then '<=', '>', '=', then the lowest
    value.
    """
    X, is_pos, schema = stage.X, stage.is_pos, stage.schema
    numeric = schema.numeric_mask()
    ranked: list[tuple[tuple[float, int, int, float], Condition]] = []
    columns = np.flatnonzero(numeric)
    values, att, size = value_changes(X, columns, orders)
    if att.size:
        p_le = np.cumsum(is_pos[orders], axis=1)[att, size - 1].astype(float)
        n_cov = size.astype(float)
        for op_rank, (p_vec, cov) in enumerate(((p_le, n_cov), (p0 - p_le, rows.size - n_cov))):
            gains = _gain_vector(p_vec, cov - p_vec, p0, n0)
            ok = np.flatnonzero((cov >= min_coverage) & (gains > 0))
            for i in ok[first_max_per_group(att[ok], gains[ok])].tolist():
                j, value = int(columns[att[i]]), float(midpoint(values, att[i], size[i]))
                key = (float(gains[i]), -j, -op_rank, -value)
                ranked.append((key, Condition(j, (OP_LE, OP_GT)[op_rank], value)))
    nominal = np.flatnonzero(~numeric)
    if nominal.size:
        n_levels = [len(schema.attributes[j].levels) for j in nominal]
        table, bounds = level_table(X[np.ix_(rows, nominal)], is_pos[rows], 2, n_levels)
        sizes = table.sum(axis=1)
        for flat in np.flatnonzero((sizes >= min_coverage) & (table[:, 1] > 0)).tolist():
            gain = foil_gain(p0, n0, int(table[flat, 1]), int(table[flat, 0]))
            if gain > 0:
                col = int(np.searchsorted(bounds, flat, side="right")) - 1
                j, level = int(nominal[col]), float(flat - bounds[col])
                ranked.append(((gain, -j, -2, -level), Condition(j, OP_EQ, level)))
    if not ranked:
        return None
    return max(ranked, key=lambda kc: kc[0])[1]


def _grow_rule(
    stage: _Stage,
    grow_idx: np.ndarray,
    start: Sequence[Condition],
    min_coverage: int,
) -> tuple[Condition, ...]:
    """Greedily add conditions maximizing FOIL gain until no negatives are
    covered on the growing set or nothing improves."""
    X, is_pos = stage.X, stage.is_pos
    conditions = list(start)
    covered = grow_idx[covers(X[grow_idx], conditions)]
    orders = restrict(stage.orders, X.shape[0], covered)
    while covered.size:
        p0 = int(is_pos[covered].sum())
        n0 = covered.size - p0
        if n0 == 0 or p0 == 0:
            break
        best = _best_refinement(stage, covered, orders, p0, n0, min_coverage)
        if best is None:
            break
        conditions.append(best)
        covered = covered[covers(X[covered], (best,))]
        orders = restrict(orders, X.shape[0], covered)
    return merge_conditions(conditions)


def _coverage(stage: _Stage, idx: np.ndarray, conditions: Sequence[Condition]) -> tuple[int, int]:
    sel = idx[covers(stage.X[idx], conditions)]
    p = int(stage.is_pos[sel].sum())
    return p, sel.size - p


def _prune_rule(
    stage: _Stage,
    prune_idx: np.ndarray,
    conditions: tuple[Condition, ...],
) -> tuple[Condition, ...]:
    """Drop a final sequence of conditions maximizing (p-n)/(p+n) on the
    pruning set; ties favour the shorter rule."""
    if prune_idx.size == 0 or not conditions:
        return conditions
    best_value = -math.inf
    best_keep = len(conditions)
    for keep in range(len(conditions), -1, -1):
        p, n = _coverage(stage, prune_idx, conditions[:keep])
        value = (p - n) / (p + n) if (p + n) else -1.0
        if value >= best_value:  # >= so that shorter rules win ties
            best_value = value
            best_keep = keep
    return conditions[:best_keep]


def _grow_and_prune(
    stage: _Stage,
    idx: np.ndarray,
    rng: np.random.Generator,
    min_instances: int,
    start: Sequence[Condition] = (),
) -> tuple[tuple[Condition, ...], np.ndarray]:
    if idx.size >= 3:
        strata = stage.is_pos[idx].astype(np.int64)
        grow_rel, prune_rel = stratified_two_way(strata, 1.0 / 3.0, rng)
        grow_idx, prune_idx = idx[grow_rel], idx[prune_rel]
    else:
        grow_idx, prune_idx = idx, np.empty(0, dtype=np.int64)
    grow_floor = max(1, math.ceil(min_instances * grow_idx.size / max(idx.size, 1)))
    conditions = _grow_rule(stage, grow_idx, start, grow_floor)
    return _prune_rule(stage, prune_idx, conditions), prune_idx


def _ruleset_dl(stage: _Stage, rules_conditions: list[tuple[Condition, ...]]) -> float:
    """Description length of the class theory plus its exceptions."""
    theory = sum(_theory_dl(len(conditions), stage.m_possible) for conditions in rules_conditions)
    covered_mask = _covered_by_any(stage.X, rules_conditions)
    covered = float(covered_mask.sum())
    uncovered = float(stage.X.shape[0] - covered)
    fp = float((covered_mask & ~stage.is_pos).sum())
    fn = float((~covered_mask & stage.is_pos).sum())
    return theory + _data_dl(stage.exp_fp_over_err, covered, uncovered, fp, fn)


def _cover_class(
    stage: _Stage,
    params: InductionParams,
    stage_no: int,
    existing: list[tuple[Condition, ...]],
    uncovered: np.ndarray,
    attempt_base: int,
) -> list[tuple[Condition, ...]]:
    """Add rules until MDL, the prune-error check, or the coverage floor stops it."""
    added: list[tuple[Condition, ...]] = []
    best_dl = dl = _ruleset_dl(stage, existing)
    attempt = attempt_base
    while stage.is_pos[uncovered].sum() > 0:
        rng = np.random.default_rng([params.seed, stage_no, attempt])
        attempt += 1
        conditions, prune_idx = _grow_and_prune(stage, uncovered, rng, params.min_instances)
        covered = covers(stage.X[uncovered], conditions)
        if covered.sum() < params.min_instances:
            break  # coverage floor
        if prune_idx.size:
            p_pr, n_pr = _coverage(stage, prune_idx, conditions)
            if p_pr + n_pr > 0 and n_pr / (p_pr + n_pr) >= 0.5:
                break  # error check on the pruning data
        dl = _ruleset_dl(stage, existing + added + [conditions])
        best_dl = min(best_dl, dl)
        if dl > best_dl + params.mdl_slack_bits:
            break
        if not conditions:
            break  # an unconditioned rule adds nothing a default cannot
        added.append(conditions)
        uncovered = uncovered[~covered]
    return added


def _optimize_class(
    stage: _Stage,
    accepted: list[tuple[Condition, ...]],
    params: InductionParams,
    stage_no: int,
) -> list[tuple[Condition, ...]]:
    """Replacement/revision passes keeping the MDL-cheapest variant."""
    for opt_pass in range(params.optimization_passes):
        for i in range(len(accepted)):
            rng = np.random.default_rng([params.seed, stage_no, 1000 + opt_pass, i])
            context = np.flatnonzero(~_covered_by_any(stage.X, accepted[:i] + accepted[i + 1 :]))
            if context.size == 0:
                continue
            replacement, _ = _grow_and_prune(stage, context, rng, params.min_instances)
            revision, _ = _grow_and_prune(
                stage, context, rng, params.min_instances, start=accepted[i]
            )
            variants = [accepted[i], revision, replacement]
            dls = [_ruleset_dl(stage, accepted[:i] + [v] + accepted[i + 1 :]) for v in variants]
            accepted[i] = variants[int(np.argmin(dls))]  # ties keep the original
        uncovered_mask = ~_covered_by_any(stage.X, accepted)
        if stage.is_pos[uncovered_mask].sum() > 0:
            accepted = accepted + _cover_class(
                stage,
                params,
                stage_no,
                accepted,
                np.flatnonzero(uncovered_mask),
                attempt_base=5000 * (opt_pass + 1),
            )
    return [conds for conds in accepted if conds]


def ripper_induce(
    X: np.ndarray,
    y: np.ndarray,
    schema: AttributeSchema,
    params: InductionParams,
) -> RuleSet:
    """Induce an ordered rule list with RIPPER's grow/prune/optimize cycle."""
    X, classes, y_pos = encode_training_set(X, y)
    k = len(classes)
    counts = np.bincount(y_pos)
    # rarest first; the most frequent class becomes the default, no rules
    order = sorted(range(k), key=lambda c: (counts[c], c))
    default_pos = order[-1]

    orders = presort(X, np.flatnonzero(schema.numeric_mask()))
    remaining = np.arange(X.shape[0])
    rules: list[Rule] = []
    for stage_no, class_pos in enumerate(order[:-1]):
        if remaining.size == 0:
            break
        stage_X = X[remaining]
        stage_is_pos = y_pos[remaining] == class_pos
        if not stage_is_pos.any():
            continue
        stage_row = np.empty(X.shape[0], dtype=np.int64)
        stage_row[remaining] = np.arange(remaining.size)
        stage_orders = stage_row[restrict(orders, X.shape[0], remaining)]
        stage = _Stage(
            X=stage_X,
            is_pos=stage_is_pos,
            orders=stage_orders,
            schema=schema,
            m_possible=_count_possible_conditions(stage_X, schema, stage_orders),
            exp_fp_over_err=float(stage_is_pos.sum()) / stage_is_pos.size,
        )
        accepted = _cover_class(stage, params, stage_no, [], np.arange(stage_X.shape[0]), 0)
        accepted = _optimize_class(stage, accepted, params, stage_no)

        for conditions in accepted:
            mask = covers(X[remaining], conditions)
            rules.append(covered_rule(conditions, classes[class_pos], y_pos[remaining[mask]], k))
            remaining = remaining[~mask]

    if remaining.size:
        default_counts = np.bincount(y_pos[remaining], minlength=k)
    else:
        default_counts = np.bincount(y_pos, minlength=k)
    return RuleSet(
        rules=rules,
        default_class=classes[default_pos],
        default_counts=tuple(int(c) for c in default_counts),
        classes=classes,
        schema=schema,
        algorithm="ripper",
        params=params,
    )
