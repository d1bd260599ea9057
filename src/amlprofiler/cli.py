"""Command-line orchestration of the profiling pipeline.

Subcommands map to pipeline stages (synth, profile, sweep, cluster, rules,
eval, grid, export-kb).  Every stage function takes ``(args, config,
out_dir)``, where ``config`` is the checked config file, writes its
artifacts under --out-dir and returns a ``StageResult``: the parameters,
inputs and outputs of its manifest and its summary line.  ``main`` writes
the manifest, which records parameter values, seeds and content hashes so
reruns can be verified byte for byte, and prints the summary.  Downstream
commands read the upstream artifacts by their conventional names and fail
with a "run stage X first" diagnostic when they are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Sequence, Union

import numpy as np

from . import clustering, evaluation, parallel, synthgen, validity
from .ingest import (
    CUSTOMER_FIELDS,
    TRANSACTION_FIELDS,
    ColumnMapping,
    ConfigError,
    FilterPolicy,
    FilterStats,
    LedgerRange,
    Register,
    TooManyRowErrors,
    TransactionReader,
    Window,
    filter_insignificant,
    join_rejections,
    ledger_ranges,
    parse_customers,
    write_rejections,
)
from .manifest import check_keys, checked, from_json, write_json, write_manifest
from .profiling import (
    AttributeSchema,
    Profiles,
    aggregate,
    apply_discretization,
    build_profiles_phase1,
    build_profiles_phase2,
    fit_discretization,
    merge_totals,
    profiles_of,
    read_profiles,
    read_schema_sidecar,
    write_profiles,
    write_schema_sidecar,
)
from .rules import (
    InductionParams,
    build_tree,
    part_induce,
    render_ruleset,
    ripper_induce,
    ruleset_from_json,
    ruleset_to_json,
    tree_to_rules,
    write_knowledge_base,
)

log = logging.getLogger(__name__)

TRANSACTIONS_CSV = "transactions.csv"
REGISTER_CSV = "register.csv"
GROUND_TRUTH_CSV = "ground_truth.csv"
GENERATOR_JSON = "generator_config.json"
PROFILES_CSV = "profiles.csv"
PROFILES_SCHEMA = "profiles.schema.json"
PROFILES_NOMINAL_CSV = "profiles_nominal.csv"
PROFILES_NOMINAL_SCHEMA = "profiles_nominal.schema.json"
REJECTED_CSV = "rejected_rows.csv"
SWEEP_CSV = "sweep.csv"
SWEEP_RECOMMENDATION = "sweep_recommendation.json"
MODEL_JSON = "cluster_model.json"
LABELED_CSV = "labeled_profiles.csv"
LABELED_NOMINAL_CSV = "labeled_profiles_nominal.csv"
RULESET_JSON = "ruleset.json"
RULESET_TXT = "ruleset.txt"
EVALUATION_JSON = "evaluation.json"
EVALUATION_ROW_CSV = "evaluation_row.csv"
KNOWLEDGE_BASE_JSON = "knowledge_base.json"

ALGORITHMS = ("part", "tree", "ripper")


class StageError(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


@dataclass(frozen=True)
class StageResult:
    """A finished stage: its ``<manifest>.manifest.json`` entry and summary line."""

    manifest: str
    params: dict
    inputs: list[Path]
    outputs: list[Path]
    summary: str


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise StageError(f"missing {path.name}; run stage '{producer}' first")
    return path


# ---------------------------------------------------------------------------
# The config file: one frozen dataclass per section, read by
# ``manifest.from_json``, which checks every key and value.


def _override(obj, section: str, **overrides):
    """``obj`` with the command-line overrides that are not None, checked as
    a config value is."""
    given = {k: v for k, v in overrides.items() if v is not None}
    return checked(functools.partial(dataclasses.replace, obj), section, **given)


@dataclass(frozen=True)
class ClusteringOptions:
    """The ``clustering`` section of ``sweep`` (k_range) and ``cluster`` (k);
    ``max_iter`` caps the Lloyd iterations of every fit of both."""

    k: int = 7
    k_range: tuple[int, ...] = (2, 10)
    runs: int = 10
    distance: str = clustering.EUCLIDEAN
    seed: int = 1
    max_iter: int = 500

    def __post_init__(self) -> None:
        if self.k < 1 or self.runs < 1 or self.max_iter < 1 or self.seed < 0:
            raise ValueError("k, runs and max_iter must be >= 1 and seed >= 0")
        if len(self.k_range) != 2 or not 2 <= self.k_range[0] <= self.k_range[1]:
            raise ValueError(f"k_range must be [lo, hi] with 2 <= lo <= hi, "
                             f"got {list(self.k_range)}")
        kinds = (clustering.EUCLIDEAN, clustering.MANHATTAN)
        if self.distance not in kinds:
            raise ValueError(f"distance must be one of {kinds}, got {self.distance!r}")


@dataclass(frozen=True)
class GridOptions:
    """The ``grid`` section: the min-instances options of the 30-run grid
    (null or "default" is the algorithm default) and the steps of ``grid --sweep``."""

    min_instances: tuple[Union[int, str, None], ...] = (None, 100, 1000)
    sweep_steps: int = 22

    def __post_init__(self) -> None:
        options = tuple(None if v == "default" else v for v in self.min_instances)
        if not options or any(isinstance(v, str) or (v is not None and v < 1) for v in options):
            raise ValueError('min_instances must list integers >= 1, null or "default"')
        if self.sweep_steps < 1:
            raise ValueError("sweep_steps must be >= 1")
        object.__setattr__(self, "min_instances", options)


@dataclass(frozen=True)
class RulesOptions(InductionParams):
    """The ``rules`` section: the induction parameters and the algorithm of
    ``rules`` and ``eval``."""

    algorithm: str = "part"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r} (choose from {ALGORITHMS})")

    def params(self) -> InductionParams:
        return InductionParams(**{k: v for k, v in vars(self).items() if k != "algorithm"})


@dataclass(frozen=True)
class PipelineConfig:
    """The whole config file; a key that no stage reads is an error."""

    out_dir: Optional[str] = None
    generator: Optional[synthgen.GeneratorConfig] = None  # synth
    transactions: Optional[str] = None  # profile, through error_cap
    register: Optional[str] = None
    window: Optional[Window] = None  # else the window of generator_config.json
    phase: int = 2
    discretize: bool = False
    filter_policy: FilterPolicy = FilterPolicy()
    column_mapping: Optional[dict[str, str]] = None
    register_mapping: Optional[dict[str, str]] = None
    delimiter: str = ","
    error_cap: int = 100
    clustering: ClusteringOptions = ClusteringOptions()  # sweep, cluster
    rules: RulesOptions = RulesOptions()  # rules, eval, grid
    split: evaluation.SplitSpec = evaluation.SplitSpec()  # eval
    grid: GridOptions = GridOptions()  # grid

    def __post_init__(self) -> None:
        if self.phase not in (1, 2):
            raise ValueError(f"phase must be 1 or 2, got {self.phase}")
        if self.error_cap < 0:
            raise ValueError("error_cap must be >= 0")
        if len(self.delimiter) != 1 or self.delimiter in '\r\n"':
            raise ValueError("delimiter must be one character other than a quote or newline")
        check_keys(self.column_mapping or {}, TRANSACTION_FIELDS, "column_mapping")
        check_keys(self.register_mapping or {}, CUSTOMER_FIELDS, "register_mapping")


def _load_config(path: Optional[str]) -> PipelineConfig:
    """The config file at ``path``; every default when there is none."""
    if path is None:
        return PipelineConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return from_json(PipelineConfig, values, "")


def _resolve_window(config: PipelineConfig, out_dir: Path) -> Window:
    if config.window is not None:
        return config.window
    gen_path = out_dir / GENERATOR_JSON
    if gen_path.exists():
        with open(gen_path, "r", encoding="utf-8") as fh:
            return Window.from_json(json.load(fh)["window"])
    raise StageError("no analysis window: add \"window\" to the config file")


def _read_sidecar(path: Path):
    """``read_schema_sidecar``, with a malformed file one diagnostic."""
    try:
        return read_schema_sidecar(path)
    except ValueError as exc:
        raise StageError(f"{path}: {exc}") from None


def _load_profiles(out_dir: Path, labeled: Optional[str] = None):
    """``profiles.csv``, or the CSV that ``cluster`` labeled for the attribute
    kind ``labeled``, read with its schema: ``(csv path, schema path,
    profiles)``."""
    nominal = labeled == "nominal"
    if labeled is None:
        csv_path = _require(out_dir / PROFILES_CSV, "profile")
    elif nominal:
        csv_path = _require(out_dir / LABELED_NOMINAL_CSV, "cluster (after profile --discretize)")
    else:
        csv_path = _require(out_dir / LABELED_CSV, "cluster")
    schema_path = _require(
        out_dir / (PROFILES_NOMINAL_SCHEMA if nominal else PROFILES_SCHEMA),
        "profile (with discretize)" if nominal else "profile",
    )
    schema, _, _ = _read_sidecar(schema_path)
    try:
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            profiles = read_profiles(fh, schema)
    except ValueError as exc:
        raise StageError(f"{csv_path}: {exc}") from None
    if labeled is not None and profiles.labels is None:
        raise StageError(f"{csv_path.name} has unlabeled rows; rerun 'cluster'")
    return csv_path, schema_path, profiles


def _write_rejected(out_dir: Path, errors: list) -> Path:
    with open(out_dir / REJECTED_CSV, "w", encoding="utf-8", newline="") as fh:
        write_rejections(errors, fh)
    return out_dir / REJECTED_CSV


def _induction(args, config: PipelineConfig) -> tuple[str, InductionParams]:
    """The algorithm and induction parameters of ``rules`` and ``eval``."""
    rules = _override(config.rules, "rules", algorithm=args.algorithm, seed=args.seed,
                     min_instances=args.min_instances,
                     reduced_error_pruning=args.reduced_error_pruning or None)
    if rules.algorithm == "ripper" and rules.reduced_error_pruning:
        raise StageError("--reduced-error-pruning (rules.reduced_error_pruning) does not apply "
                         "to ripper, which always prunes on its own pruning set")
    return rules.algorithm, rules.params()


def _inducer(algorithm: str, schema: AttributeSchema, params: InductionParams):
    induce = {"part": part_induce, "tree": build_tree, "ripper": ripper_induce}[algorithm]
    return lambda X, y: induce(X, y, schema, params)


# ---------------------------------------------------------------------------
# Stage implementations


def cmd_synth(args, config: PipelineConfig, out_dir: Path) -> StageResult:
    out_dir.mkdir(parents=True, exist_ok=True)
    bundled = synthgen.six_archetype_config if args.archetypes == 6 else synthgen.default_config
    gen = _override(config.generator or bundled(noise=args.noise), "generator",
                   seed=args.seed, n_customers=args.n_customers)
    result = synthgen.generate_files(gen, out_dir)
    write_json(out_dir / GENERATOR_JSON, gen.to_json())
    return StageResult(
        "synth",
        {"generator": gen.to_json(), "rows": result.transactions},
        [],
        [out_dir / n for n in (TRANSACTIONS_CSV, REGISTER_CSV, GROUND_TRUTH_CSV, GENERATOR_JSON)],
        f"synth: {result.transactions} transactions for {result.customers} customers -> {out_dir}",
    )


@dataclass
class _Counts:
    """The rows of a ledger, or of a range of it, that its reader accepted,
    rejected and dropped (rows of rejected register customers) and that the
    filter policy dropped, and its records."""

    accepted: int
    rejected: int
    dropped: int
    errors: list
    filtered: FilterStats
    records: int

    @staticmethod
    def of(reader: TransactionReader, filtered: FilterStats) -> "_Counts":
        return _Counts(reader.accepted, reader.rejected, reader.dropped, reader.errors, filtered,
                       reader.records)


def _profile_ranges(tx_path: Path, ranges: list[LedgerRange], reader, config: PipelineConfig,
                    register: Register, window: Window):
    """The profiles and counts of the ledger, each range aggregated by a
    worker of ``parallel.pmap`` and the parts merged in range order."""
    policy = config.filter_policy

    def read(item: tuple[LedgerRange, IO[bytes]]):
        span, spill = item
        stats = FilterStats()
        with span.open(tx_path) as fh:
            ranged = reader(fh)
            try:
                totals = aggregate((policy.apply(chunk, stats) for chunk in ranged), register,
                                   window, flows=config.phase == 2)
                totals.spill(spill)
            except TooManyRowErrors:  # an exception that does not survive pickling
                totals = None
        return totals, _Counts.of(ranged, stats)

    with contextlib.ExitStack() as stack:
        # one file per range, made before the fork, for its worker's event logs
        spills = [stack.enter_context(tempfile.TemporaryFile()) for _ in ranges]
        parts = parallel.pmap(read, list(zip(ranges, spills)))
        counts = [c for _, c in parts]
        errors = join_rejections([(c.errors, c.records) for c in counts], config.error_cap)
        totals = merge_totals([totals for totals, _ in parts], spills)
    stats = FilterStats(sum(c.filtered.kept for c in counts),
                        sum(c.filtered.dropped for c in counts))
    stats.warn_if_all_dropped()
    return profiles_of(totals, register, window, len(ranges)), _Counts(
        sum(c.accepted for c in counts), sum(c.rejected for c in counts),
        sum(c.dropped for c in counts), errors, stats, sum(c.records for c in counts))


def cmd_profile(args, config: PipelineConfig, out_dir: Path) -> StageResult:
    config = _override(config, "", phase=args.phase, discretize=args.discretize or None)
    out_dir.mkdir(parents=True, exist_ok=True)
    tx_path = _require(Path(config.transactions or out_dir / TRANSACTIONS_CSV), "synth")
    reg_path = _require(Path(config.register or out_dir / REGISTER_CSV), "synth")
    window = _resolve_window(config, out_dir)

    reg_errors: list = []
    try:
        with open(reg_path, "rb") as fh:
            register, reg_errors = parse_customers(
                fh,
                config.register_mapping and ColumnMapping(config.register_mapping, CUSTOMER_FIELDS),
                window=window,
                error_cap=config.error_cap,
                delimiter=config.delimiter,
            )
        reader = functools.partial(
            TransactionReader,
            mapping=config.column_mapping and ColumnMapping(config.column_mapping),
            window=window,
            register=register,
            # a rejected register row is the one rejection of its customer's rows
            rejected_customers={e.customer_id for e in reg_errors if e.customer_id}
            - register.code.keys(),
            error_cap=config.error_cap,
            delimiter=config.delimiter,
        )
        ranges = ledger_ranges(tx_path, parallel.worker_count(), delimiter=config.delimiter)
        parted = None
        if len(ranges) > 1:
            try:
                parted = _profile_ranges(tx_path, ranges, reader, config, register, window)
            except OSError as exc:  # such as no room under TMPDIR for the event logs
                log.warning("profile: ledger ranges failed (%s); reading the ledger in one "
                            "process", exc)
        if parted:
            profiles, counts = parted
        else:
            stats = FilterStats()
            with open(tx_path, "rb") as fh:
                whole = reader(fh)
                stream = filter_insignificant(whole, config.filter_policy, stats)
                build = build_profiles_phase1 if config.phase == 1 else build_profiles_phase2
                profiles = build(stream, register, window)
            counts = _Counts.of(whole, stats)
    except TooManyRowErrors as exc:
        # keep the rows that tripped the cap visible
        _write_rejected(out_dir, reg_errors + exc.errors)
        raise StageError(str(exc)) from None
    outputs = [out_dir / PROFILES_CSV, out_dir / PROFILES_SCHEMA]
    with open(out_dir / PROFILES_CSV, "w", encoding="utf-8", newline="") as fh:
        write_profiles(fh, profiles)
    meta = {
        "phase": config.phase,
        "window": {"start": window.start.isoformat(), "end": window.end.isoformat()},
        "rows_accepted": counts.accepted,
        "rows_rejected": counts.rejected,
        "rows_filtered_out": counts.filtered.dropped,
    }
    if counts.dropped:
        meta["rows_of_rejected_customers"] = counts.dropped
    write_schema_sidecar(out_dir / PROFILES_SCHEMA, profiles.schema, meta=meta)
    if counts.errors or reg_errors:
        outputs.append(_write_rejected(out_dir, reg_errors + counts.errors))
    else:  # a rejections file from an earlier run no longer describes this one
        (out_dir / REJECTED_CSV).unlink(missing_ok=True)

    nominal_outputs = [out_dir / PROFILES_NOMINAL_CSV, out_dir / PROFILES_NOMINAL_SCHEMA]
    if config.discretize:
        if not profiles:
            raise StageError("no customer has an accepted ledger row; nothing to discretize")
        dschema = fit_discretization(profiles)
        nominal = apply_discretization(profiles, dschema)
        with open(out_dir / PROFILES_NOMINAL_CSV, "w", encoding="utf-8", newline="") as fh:
            write_profiles(fh, nominal)
        write_schema_sidecar(
            out_dir / PROFILES_NOMINAL_SCHEMA, nominal.schema, dschema=dschema, meta=meta
        )
        outputs += nominal_outputs
    else:  # an earlier run's nominal profiles were cut from other profiles
        for path in nominal_outputs:
            path.unlink(missing_ok=True)

    return StageResult(
        "profile",
        {**meta, "filter_policy": config.filter_policy.to_json(),
         "discretize": config.discretize, "customers": len(profiles)},
        [tx_path, reg_path],
        outputs,
        f"profile: {len(profiles)} customers from {counts.accepted} rows ({counts.rejected} "
        f"rejected, {counts.filtered.dropped} filtered"
        + (f", {counts.dropped} of rejected register customers" if counts.dropped else "")
        + f") -> {out_dir / PROFILES_CSV}",
    )


def _distinct_rows(X: np.ndarray) -> int:
    return len(np.unique(X, axis=0))


def cmd_sweep(args, config: PipelineConfig, out_dir: Path) -> StageResult:
    opts = _override(config.clustering, "clustering", k_range=args.k_range, runs=args.runs,
                    seed=args.seed)
    if opts.runs < 2:
        raise ConfigError(f"sweep needs clustering.runs >= 2 for its stability metrics, "
                          f"got {opts.runs}")
    csv_path, schema_path, profiles = _load_profiles(out_dir)
    k_lo, k_hi = opts.k_range
    X = profiles.values
    limit = min(len(X) - 1, _distinct_rows(X))  # silhouettes need k <= n-1, seeding k distinct rows
    if k_hi > limit:
        raise StageError(f"cannot sweep k in {k_lo}..{k_hi} over {len(X)} profiles: "
                         f"k must lie within [2, {limit}]")
    result = validity.k_sweep(
        X,
        profiles.schema,
        range(k_lo, k_hi + 1),
        runs=opts.runs,
        base_seed=opts.seed,
        kind=opts.distance,
        max_iter=opts.max_iter,
    )
    with open(out_dir / SWEEP_CSV, "w", encoding="utf-8", newline="") as fh:
        validity.write_sweep_csv(fh, result)
    write_json(out_dir / SWEEP_RECOMMENDATION, result.recommended)
    return StageResult(
        "sweep",
        {"k_range": [k_lo, k_hi], "runs": opts.runs, "seed": opts.seed, "distance": opts.distance,
         "max_iter": opts.max_iter},
        [csv_path, schema_path],
        [out_dir / SWEEP_CSV, out_dir / SWEEP_RECOMMENDATION],
        f"sweep: k in {k_lo}..{k_hi}, recommendations {result.recommended}",
    )


def cmd_cluster(args, config: PipelineConfig, out_dir: Path) -> StageResult:
    opts = _override(config.clustering, "clustering", k=args.k, runs=args.runs, seed=args.seed)
    csv_path, schema_path, profiles = _load_profiles(out_dir)
    inputs = [csv_path, schema_path]
    # the nominal sidecar is read first, so that a malformed one leaves no new model
    nominal_schema_path = out_dir / PROFILES_NOMINAL_SCHEMA
    dschema = None
    if nominal_schema_path.exists():
        _, dschema, _ = _read_sidecar(nominal_schema_path)
        if dschema is None:
            raise StageError(f"{nominal_schema_path}: no discretization; rerun 'profile'")
        inputs.append(nominal_schema_path)
    X = profiles.values
    distinct = _distinct_rows(X)
    if opts.k > distinct:
        raise StageError(f"cannot cluster {len(X)} profiles into k={opts.k}: "
                         f"only {distinct} are distinct")
    model = clustering.kmeans_best_of(X, profiles.schema, opts.k, runs=opts.runs,
                                      kind=opts.distance, base_seed=opts.seed, max_iter=opts.max_iter)
    labeled = dataclasses.replace(profiles, labels=model.labels)
    model.save(out_dir / MODEL_JSON)
    with open(out_dir / LABELED_CSV, "w", encoding="utf-8", newline="") as fh:
        write_profiles(fh, labeled)
    outputs = [out_dir / MODEL_JSON, out_dir / LABELED_CSV]
    if dschema is not None:
        with open(out_dir / LABELED_NOMINAL_CSV, "w", encoding="utf-8", newline="") as fh:
            write_profiles(fh, apply_discretization(labeled, dschema))
        outputs.append(out_dir / LABELED_NOMINAL_CSV)
    else:  # an earlier run's labeled nominal profiles belong to other profiles
        (out_dir / LABELED_NOMINAL_CSV).unlink(missing_ok=True)
    sizes = np.bincount(model.labels, minlength=opts.k).tolist()
    return StageResult(
        "cluster",
        {"k": opts.k, "seed": opts.seed, "runs": opts.runs, "distance": opts.distance,
         "max_iter": opts.max_iter, "sse": model.sse,
         "best_seed": model.seed, "iterations": model.iterations_run},
        inputs,
        outputs,
        f"cluster: k={opts.k} sse={model.sse:.4f} sizes={sizes}",
    )


def cmd_rules(args, config: PipelineConfig, out_dir: Path) -> StageResult:
    path, _, profiles = _load_profiles(out_dir, labeled=args.attribute_kind)
    algorithm, params = _induction(args, config)
    model = _inducer(algorithm, profiles.schema, params)(profiles.values, profiles.labels)
    ruleset = tree_to_rules(model) if algorithm == "tree" else model
    write_json(out_dir / RULESET_JSON, ruleset_to_json(ruleset))
    with open(out_dir / RULESET_TXT, "w", encoding="utf-8") as fh:
        fh.write(render_ruleset(ruleset))
    return StageResult(
        "rules",
        {"algorithm": algorithm, **dataclasses.asdict(params)},
        [path],
        [out_dir / RULESET_JSON, out_dir / RULESET_TXT],
        f"rules: {algorithm} induced {len(ruleset.rules)} rules + default",
    )


def cmd_eval(args, config: PipelineConfig, out_dir: Path) -> StageResult:
    algorithm, params = _induction(args, config)
    spec = _override(config.split, "split", mode=args.split_mode, seed=args.seed)
    path, _, profiles = _load_profiles(out_dir, labeled=args.attribute_kind)
    report = evaluation.evaluate_inducer(
        _inducer(algorithm, profiles.schema, params), profiles.values, profiles.labels, spec
    )
    row = evaluation.report_row(
        report,
        algorithm=algorithm,
        attribute_kind=args.attribute_kind,
        min_instances=params.min_instances,
        rep_flag="builtin" if algorithm == "ripper" else ("on" if params.reduced_error_pruning else "off"),
        split_mode=spec.mode,
    )
    write_json(out_dir / EVALUATION_JSON, report.to_json())
    with open(out_dir / EVALUATION_ROW_CSV, "w", encoding="utf-8", newline="") as fh:
        evaluation.write_report_rows(fh, [row])
    return StageResult(
        "eval",
        {"algorithm": algorithm, "split": dataclasses.asdict(spec), **dataclasses.asdict(params)},
        [path],
        [out_dir / EVALUATION_JSON, out_dir / EVALUATION_ROW_CSV],
        f"eval: {algorithm} {spec.mode} percent_correct={report.percent_correct:.2f} "
        f"kappa={report.kappa:.3f} roc={report.weighted_roc_area:.3f}",
    )


# ---------------------------------------------------------------------------
# Experiment grid


@dataclass(frozen=True)
class GridCell:
    algorithm: str
    min_instances: Optional[int]  # None means the algorithm default
    rep_flag: str  # "on" | "off" | "builtin"
    split_mode: str


def grid_cells(min_instances_options: Sequence[Optional[int]]) -> list[GridCell]:
    """The 30-run grid: {PART, tree, RIPPER} x min-instances x REP x split."""
    cells = []
    for split_mode in (evaluation.HOLDOUT, evaluation.CROSS_VALIDATION):
        for algorithm in ("part", "tree"):
            for mi in min_instances_options:
                for rep in ("off", "on"):
                    cells.append(GridCell(algorithm, mi, rep, split_mode))
        for mi in min_instances_options:
            cells.append(GridCell("ripper", mi, "builtin", split_mode))
    return cells


def _run_cell(cell: GridCell, profiles: Profiles, attribute_kind: str,
              base: InductionParams) -> dict:
    params = dataclasses.replace(
        base,
        min_instances=base.min_instances if cell.min_instances is None else cell.min_instances,
        reduced_error_pruning=cell.rep_flag == "on",
    )
    inducer = _inducer(cell.algorithm, profiles.schema, params)
    # plain 66/34 holdout, or stratified 10-fold cross-validation
    spec = evaluation.SplitSpec(
        mode=cell.split_mode,
        seed=params.seed,
        stratified=cell.split_mode == evaluation.CROSS_VALIDATION,
    )
    labels = {
        "algorithm": cell.algorithm,
        "attribute_kind": attribute_kind,
        "min_instances": cell.min_instances if cell.min_instances is not None else "default",
        "rep_flag": cell.rep_flag,
        "split_mode": cell.split_mode,
    }
    try:
        report = evaluation.evaluate_inducer(inducer, profiles.values, profiles.labels, spec)
        return evaluation.report_row(report, **labels)
    except Exception as exc:  # a failed cell must stay visible in the grid
        log.exception("grid cell %s failed", cell)
        return {**labels, "number_of_rules": f"ERROR: {exc}", "percent_correct": "",
                "kappa": "", "roc_area": ""}


def geometric_steps(lo: int, hi: int, count: int) -> list[int]:
    """Strictly increasing integer steps, geometrically spaced."""
    if hi <= lo:
        return [lo]
    if hi - lo + 1 <= count:
        return list(range(lo, hi + 1))
    values = np.geomspace(lo, hi, count)
    out: list[int] = []
    prev = lo - 1
    for v in values:
        iv = max(int(round(v)), prev + 1)
        out.append(iv)
        prev = iv
    return out


def cmd_grid(args, config: PipelineConfig, out_dir: Path) -> StageResult:
    kind = args.attribute_kind
    base = _override(config.rules, "rules", seed=args.seed).params()
    path, _, profiles = _load_profiles(out_dir, labeled=kind)
    if args.sweep:
        smallest_cluster = int(np.bincount(profiles.labels).min())
        steps = geometric_steps(2, max(smallest_cluster, 2), config.grid.sweep_steps)
        cells = [GridCell(algorithm, mi, "off", evaluation.HOLDOUT)
                 for algorithm in ("part", "tree") for mi in steps]
        out_name = f"grid_sweep_{kind}.csv"
        params = {"mode": "sweep", "steps": steps, "attribute_kind": kind}
    else:
        options = config.grid.min_instances
        cells = grid_cells(options)
        out_name = f"grid_{kind}.csv"
        params = {"mode": "grid", "min_instances": [o if o is not None else "default" for o in options],
                  "attribute_kind": kind}
    rows = parallel.pmap(lambda cell: _run_cell(cell, profiles, kind, base), cells)
    with open(out_dir / out_name, "w", encoding="utf-8", newline="") as fh:
        evaluation.write_report_rows(fh, rows)
    return StageResult(
        f"grid_{kind}" + ("_sweep" if args.sweep else ""),
        params,
        [path],
        [out_dir / out_name],
        f"grid: wrote {len(rows)} rows -> {out_dir / out_name}",
    )


def cmd_export_kb(args, config: PipelineConfig, out_dir: Path) -> StageResult:
    path = _require(out_dir / RULESET_JSON, "rules")
    with open(path, "r", encoding="utf-8") as fh:
        ruleset = ruleset_from_json(json.load(fh))
    with open(out_dir / KNOWLEDGE_BASE_JSON, "w", encoding="utf-8") as fh:
        write_knowledge_base(ruleset, fh)
    return StageResult(
        "export_kb",
        {"algorithm": ruleset.algorithm},
        [path],
        [out_dir / KNOWLEDGE_BASE_JSON],
        f"export-kb: {len(ruleset.rules)} rules -> {out_dir / KNOWLEDGE_BASE_JSON}",
    )


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_k_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k range {text!r}, expected LO:HI")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amlprofiler",
        description="Customer-profiling pipeline: ledger to clusters to screening rules.",
    )
    parser.add_argument("--config", help="pipeline config JSON", default=None)
    parser.add_argument("--out-dir", default="runs/default", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="override configured seeds")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    # the inducer flags shared by rules and eval
    induction = argparse.ArgumentParser(add_help=False)
    induction.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    induction.add_argument("--attribute-kind", choices=("numeric", "nominal"), default="numeric")
    induction.add_argument("--min-instances", type=int, default=None)
    induction.add_argument("--reduced-error-pruning", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic ledger")
    p.add_argument("--n-customers", type=int, default=None)
    p.add_argument("--archetypes", type=int, choices=(6, 7), default=7)
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("profile", help="aggregate transactions into profiles")
    p.add_argument("--phase", type=int, choices=(1, 2), default=None)
    p.add_argument("--discretize", action="store_true")
    p.add_argument("--assume-sorted", action="store_true",
                   help="ignored: profiles do not depend on row order")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("sweep", help="k-selection sweep with validity metrics")
    p.add_argument("--k-range", type=_parse_k_range, default=None, metavar="LO:HI")
    p.add_argument("--runs", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cluster", help="fit k-means and label the profiles")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--runs", type=int, default=None, help="seeded restarts, best SSE kept")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("rules", parents=[induction],
                       help="induce classification rules from cluster labels")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("eval", parents=[induction], help="evaluate an inducer under a split protocol")
    p.add_argument("--split-mode", choices=(evaluation.HOLDOUT, evaluation.CROSS_VALIDATION),
                   default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="run the 30-configuration experiment grid")
    p.add_argument("--attribute-kind", choices=("numeric", "nominal"), default="numeric")
    p.add_argument("--sweep", action="store_true",
                   help="fine min-instances sweep instead of the 30-run grid")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("export-kb", help="write the screening-agent knowledge base")
    p.set_defaults(func=cmd_export_kb)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _load_config(args.config)
        out_dir = Path(config.out_dir if config.out_dir and args.out_dir == "runs/default"
                       else args.out_dir)
        result = args.func(args, config, out_dir)
        write_manifest(out_dir, result.manifest, params=result.params,
                       inputs=result.inputs, outputs=result.outputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - top-level diagnostics
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.summary)
    return 0


def run() -> None:
    """The ``amlprofiler`` command.  The process is the program's own, so
    ``pmap`` may fork it; a host that calls ``main`` keeps it serial."""
    parallel.fork_allowed = True
    sys.exit(main())


if __name__ == "__main__":
    # Run the importable module, not this file's copy: a runner such as
    # ``python -m cProfile -m amlprofiler.cli`` keeps its own ``__main__`` in
    # sys.modules, where the config dataclasses' annotations do not resolve.
    from amlprofiler.cli import run as _run

    _run()
