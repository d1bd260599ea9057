"""Command-line orchestration of the profiling pipeline.

Subcommands map to pipeline stages (synth, profile, sweep, cluster, rules,
eval, grid, export-kb).  Every stage function takes ``(args, config,
out_dir)``, writes its artifacts under --out-dir and returns a
``StageResult``: the parameters, inputs and outputs of its manifest and its
summary line.  ``main`` writes the manifest, which records parameter values,
seeds and content hashes so reruns can be verified byte for byte, and prints
the summary.  Downstream commands read the upstream artifacts by their
conventional names and fail with a "run stage X first" diagnostic when they
are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import clustering, evaluation, parallel, synthgen, validity
from .ingest import (
    ConfigError,
    FilterStats,
    IngestConfig,
    TooManyRowErrors,
    TransactionReader,
    Window,
    filter_insignificant,
    parse_customers,
    write_rejections,
)
from .manifest import write_json, write_manifest
from .profiling import (
    AttributeSchema,
    apply_discretization,
    build_profiles_phase1,
    build_profiles_phase2,
    fit_discretization,
    profile_labels,
    profile_matrix,
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


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StageError(f"cannot read config {path}: {exc}")


def _resolve_window(config: dict, out_dir: Path) -> Window:
    if "window" in config:
        return Window.from_json(config["window"])
    gen_path = out_dir / GENERATOR_JSON
    if gen_path.exists():
        with open(gen_path, "r", encoding="utf-8") as fh:
            return Window.from_json(json.load(fh)["window"])
    raise StageError("no analysis window: add \"window\" to the config file")


def _from_config(cls, config: dict, section: str, ignore: Sequence[str] = (), **overrides):
    """``cls`` built from a config section, with the overrides that are not None.

    A section key that is neither a field of the dataclass ``cls`` nor in
    ``ignore`` is a ``StageError``.
    """
    values = {k: v for k, v in config.get(section, {}).items() if k not in ignore}
    unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise StageError(f"unknown {section} options in config: {sorted(unknown)}")
    values.update((k, v) for k, v in overrides.items() if v is not None)
    return cls(**values)


def _load_profiles(out_dir: Path, labeled: Optional[str] = None):
    """``profiles.csv``, or the CSV that ``cluster`` labeled for the attribute
    kind ``labeled``, read with its schema: ``(csv path, schema path, schema,
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
    schema, _, _ = read_schema_sidecar(schema_path)
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        profiles = read_profiles(fh, schema)
    if labeled is not None and any(p.label is None for p in profiles):
        raise StageError(f"{csv_path.name} has unlabeled rows; rerun 'cluster'")
    return csv_path, schema_path, schema, profiles


def _write_rejected(out_dir: Path, errors: list) -> Path:
    with open(out_dir / REJECTED_CSV, "w", encoding="utf-8", newline="") as fh:
        write_rejections(errors, fh)
    return out_dir / REJECTED_CSV


def _induction(args, config: dict) -> tuple[str, InductionParams]:
    """The algorithm and induction parameters of ``rules`` and ``eval``."""
    algorithm = args.algorithm or config.get("rules", {}).get("algorithm", "part")
    params = _from_config(InductionParams, config, "rules", ("algorithm",), seed=args.seed,
                          min_instances=args.min_instances,
                          reduced_error_pruning=args.reduced_error_pruning or None)
    if algorithm == "ripper" and params.reduced_error_pruning:
        raise StageError("--reduced-error-pruning (rules.reduced_error_pruning) does not apply "
                         "to ripper, which always prunes on its own pruning set")
    return algorithm, params


def _inducer(algorithm: str, schema: AttributeSchema, params: InductionParams):
    if algorithm == "part":
        return lambda X, y: part_induce(X, y, schema, params)
    if algorithm == "tree":
        return lambda X, y: build_tree(X, y, schema, params)
    if algorithm == "ripper":
        return lambda X, y: ripper_induce(X, y, schema, params)
    raise StageError(f"unknown algorithm {algorithm!r} (choose from {ALGORITHMS})")


# ---------------------------------------------------------------------------
# Stage implementations


def cmd_synth(args, config: dict, out_dir: Path) -> StageResult:
    out_dir.mkdir(parents=True, exist_ok=True)
    if "generator" in config:
        gen = synthgen.GeneratorConfig.from_json(config["generator"])
    elif args.archetypes == 6:
        gen = synthgen.six_archetype_config(
            n_customers=args.n_customers or 1_500, noise=args.noise
        )
    else:
        gen = synthgen.default_config(
            n_customers=args.n_customers or 50_000, noise=args.noise
        )
    if args.seed is not None:
        gen = synthgen.GeneratorConfig.from_json({**gen.to_json(), "seed": args.seed})
    if args.n_customers is not None:
        gen = synthgen.GeneratorConfig.from_json(
            {**gen.to_json(), "n_customers": args.n_customers}
        )
    result = synthgen.generate_files(gen, out_dir)
    write_json(out_dir / GENERATOR_JSON, gen.to_json())
    return StageResult(
        "synth",
        {"generator": gen.to_json(), "rows": result.transactions},
        [],
        [out_dir / n for n in (TRANSACTIONS_CSV, REGISTER_CSV, GROUND_TRUTH_CSV, GENERATOR_JSON)],
        f"synth: {result.transactions} transactions for {result.customers} customers -> {out_dir}",
    )


def cmd_profile(args, config: dict, out_dir: Path) -> StageResult:
    out_dir.mkdir(parents=True, exist_ok=True)
    tx_path = Path(config.get("transactions", out_dir / TRANSACTIONS_CSV))
    reg_path = Path(config.get("register", out_dir / REGISTER_CSV))
    _require(tx_path, "synth")
    _require(reg_path, "synth")
    window = _resolve_window(config, out_dir)
    ingest_cfg = IngestConfig.from_json(config)
    phase = args.phase or int(config.get("phase", 2))

    reg_errors: list = []
    stats = FilterStats()
    try:
        with open(reg_path, "r", encoding="utf-8", newline="") as fh:
            register, reg_errors = parse_customers(
                fh, ingest_cfg.register_mapping, window=window, error_cap=ingest_cfg.error_cap
            )
        with open(tx_path, "r", encoding="utf-8", newline="") as fh:
            reader = TransactionReader(
                fh,
                ingest_cfg.column_mapping,
                window=window,
                register=register,
                error_cap=ingest_cfg.error_cap,
                delimiter=ingest_cfg.delimiter,
            )
            stream = filter_insignificant(reader, ingest_cfg.filter_policy, stats)
            build = build_profiles_phase1 if phase == 1 else build_profiles_phase2
            schema, profiles = build(stream, register, window)
    except TooManyRowErrors as exc:
        # keep the rows that tripped the cap visible
        _write_rejected(out_dir, reg_errors + exc.errors)
        raise StageError(str(exc)) from None
    outputs = [out_dir / PROFILES_CSV, out_dir / PROFILES_SCHEMA]
    with open(out_dir / PROFILES_CSV, "w", encoding="utf-8", newline="") as fh:
        write_profiles(fh, schema, profiles)
    meta = {
        "phase": phase,
        "window": {"start": window.start.isoformat(), "end": window.end.isoformat()},
        "rows_accepted": reader.accepted,
        "rows_rejected": reader.rejected,
        "rows_filtered_out": stats.dropped,
    }
    write_schema_sidecar(out_dir / PROFILES_SCHEMA, schema, meta=meta)
    if reader.errors or reg_errors:
        outputs.append(_write_rejected(out_dir, reg_errors + reader.errors))
    else:  # a rejections file from an earlier run no longer describes this one
        (out_dir / REJECTED_CSV).unlink(missing_ok=True)

    discretize = bool(config.get("discretize", False)) or args.discretize
    if discretize:
        if not profiles:
            raise StageError("no customer has an accepted ledger row; nothing to discretize")
        dschema = fit_discretization(profiles, schema)
        nominal_schema, nominal_profiles = apply_discretization(profiles, schema, dschema)
        with open(out_dir / PROFILES_NOMINAL_CSV, "w", encoding="utf-8", newline="") as fh:
            write_profiles(fh, nominal_schema, nominal_profiles)
        write_schema_sidecar(
            out_dir / PROFILES_NOMINAL_SCHEMA, nominal_schema, dschema=dschema, meta=meta
        )
        outputs += [out_dir / PROFILES_NOMINAL_CSV, out_dir / PROFILES_NOMINAL_SCHEMA]

    return StageResult(
        "profile",
        {**meta, "filter_policy": ingest_cfg.filter_policy.to_json(),
         "discretize": discretize, "customers": len(profiles)},
        [tx_path, reg_path],
        outputs,
        f"profile: {len(profiles)} customers from {reader.accepted} rows "
        f"({reader.rejected} rejected, {stats.dropped} filtered) -> {out_dir / PROFILES_CSV}",
    )


def _distinct_rows(X: np.ndarray) -> int:
    return len(np.unique(X, axis=0))


def cmd_sweep(args, config: dict, out_dir: Path) -> StageResult:
    csv_path, schema_path, schema, profiles = _load_profiles(out_dir)
    section = config.get("clustering", {})
    k_lo, k_hi = args.k_range or tuple(section.get("k_range", (2, 10)))
    runs = args.runs or int(section.get("runs", 10))
    seed = args.seed if args.seed is not None else int(section.get("seed", 1))
    kind = section.get("distance", clustering.EUCLIDEAN)
    X = profile_matrix(profiles)
    limit = min(len(X) - 1, _distinct_rows(X))  # silhouettes need k <= n-1, seeding k distinct rows
    if k_lo < 2 or k_hi > limit:
        raise StageError(f"cannot sweep k in {k_lo}..{k_hi} over {len(X)} profiles: "
                         f"k must lie within [2, {limit}]")
    result = validity.k_sweep(
        X,
        schema,
        range(k_lo, k_hi + 1),
        runs=runs,
        base_seed=seed,
        kind=kind,
    )
    with open(out_dir / SWEEP_CSV, "w", encoding="utf-8", newline="") as fh:
        validity.write_sweep_csv(fh, result)
    write_json(out_dir / SWEEP_RECOMMENDATION, result.recommended)
    return StageResult(
        "sweep",
        {"k_range": [k_lo, k_hi], "runs": runs, "seed": seed, "distance": kind},
        [csv_path, schema_path],
        [out_dir / SWEEP_CSV, out_dir / SWEEP_RECOMMENDATION],
        f"sweep: k in {k_lo}..{k_hi}, recommendations {result.recommended}",
    )


def cmd_cluster(args, config: dict, out_dir: Path) -> StageResult:
    csv_path, schema_path, schema, profiles = _load_profiles(out_dir)
    section = config.get("clustering", {})
    k = args.k or int(section.get("k", 7))
    seed = args.seed if args.seed is not None else int(section.get("seed", 1))
    kind = section.get("distance", clustering.EUCLIDEAN)
    max_iter = int(section.get("max_iter", 500))
    runs = args.runs or int(section.get("runs", 10))
    X = profile_matrix(profiles)
    distinct = _distinct_rows(X)
    if k > distinct:
        raise StageError(f"cannot cluster {len(X)} profiles into k={k}: only {distinct} are distinct")
    model = clustering.kmeans_best_of(
        X, schema, k, runs=runs, kind=kind, base_seed=seed, max_iter=max_iter
    )
    labels = clustering.assign(model, X)
    for p, label in zip(profiles, labels):
        p.label = int(label)
    model.save(out_dir / MODEL_JSON)
    with open(out_dir / LABELED_CSV, "w", encoding="utf-8", newline="") as fh:
        write_profiles(fh, schema, profiles)
    outputs = [out_dir / MODEL_JSON, out_dir / LABELED_CSV]
    nominal_schema_path = out_dir / PROFILES_NOMINAL_SCHEMA
    if nominal_schema_path.exists():
        _, dschema, _ = read_schema_sidecar(nominal_schema_path)
        nominal_schema, nominal_profiles = apply_discretization(profiles, schema, dschema)
        with open(out_dir / LABELED_NOMINAL_CSV, "w", encoding="utf-8", newline="") as fh:
            write_profiles(fh, nominal_schema, nominal_profiles)
        outputs.append(out_dir / LABELED_NOMINAL_CSV)
    sizes = np.bincount(labels, minlength=k).tolist()
    return StageResult(
        "cluster",
        {"k": k, "seed": seed, "runs": runs, "distance": kind,
         "max_iter": max_iter, "sse": model.sse,
         "best_seed": model.seed, "iterations": model.iterations_run},
        [csv_path, schema_path],
        outputs,
        f"cluster: k={k} sse={model.sse:.4f} sizes={sizes}",
    )


def cmd_rules(args, config: dict, out_dir: Path) -> StageResult:
    path, _, schema, profiles = _load_profiles(out_dir, labeled=args.attribute_kind)
    algorithm, params = _induction(args, config)
    model = _inducer(algorithm, schema, params)(profile_matrix(profiles), profile_labels(profiles))
    ruleset = tree_to_rules(model) if algorithm == "tree" else model
    write_json(out_dir / RULESET_JSON, ruleset_to_json(ruleset))
    with open(out_dir / RULESET_TXT, "w", encoding="utf-8") as fh:
        fh.write(render_ruleset(ruleset))
    return StageResult(
        "rules",
        {"algorithm": algorithm, **params.to_json()},
        [path],
        [out_dir / RULESET_JSON, out_dir / RULESET_TXT],
        f"rules: {algorithm} induced {len(ruleset.rules)} rules + default",
    )


def cmd_eval(args, config: dict, out_dir: Path) -> StageResult:
    path, _, schema, profiles = _load_profiles(out_dir, labeled=args.attribute_kind)
    algorithm, params = _induction(args, config)
    spec = _from_config(evaluation.SplitSpec, config, "split", mode=args.split_mode, seed=args.seed)
    report = evaluation.evaluate_inducer(
        _inducer(algorithm, schema, params), profile_matrix(profiles), profile_labels(profiles), spec
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
        {"algorithm": algorithm, "split": spec.to_json(), **params.to_json()},
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


def _run_cell(
    cell: GridCell,
    X: np.ndarray,
    y: np.ndarray,
    schema: AttributeSchema,
    attribute_kind: str,
    base: InductionParams,
) -> dict:
    params = dataclasses.replace(
        base,
        min_instances=base.min_instances if cell.min_instances is None else cell.min_instances,
        reduced_error_pruning=cell.rep_flag == "on",
    )
    inducer = _inducer(cell.algorithm, schema, params)
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
        report = evaluation.evaluate_inducer(inducer, X, y, spec)
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


def cmd_grid(args, config: dict, out_dir: Path) -> StageResult:
    kind = args.attribute_kind
    path, _, schema, profiles = _load_profiles(out_dir, labeled=kind)
    X, y = profile_matrix(profiles), profile_labels(profiles)
    section = config.get("grid", {})
    if args.sweep:
        smallest_cluster = int(np.bincount(y).min())
        steps = geometric_steps(2, max(smallest_cluster, 2), int(section.get("sweep_steps", 22)))
        cells = [GridCell(algorithm, mi, "off", evaluation.HOLDOUT)
                 for algorithm in ("part", "tree") for mi in steps]
        out_name = f"grid_sweep_{kind}.csv"
        params = {"mode": "sweep", "steps": steps, "attribute_kind": kind}
    else:
        options = section.get("min_instances", [None, 100, 1000])
        options = [None if v in (None, "default") else int(v) for v in options]
        cells = grid_cells(options)
        out_name = f"grid_{kind}.csv"
        params = {"mode": "grid", "min_instances": [o if o is not None else "default" for o in options],
                  "attribute_kind": kind}
    base = _from_config(InductionParams, config, "rules", ("algorithm",), seed=args.seed)
    rows = parallel.pmap(lambda cell: _run_cell(cell, X, y, schema, kind, base), cells)
    with open(out_dir / out_name, "w", encoding="utf-8", newline="") as fh:
        evaluation.write_report_rows(fh, rows)
    return StageResult(
        f"grid_{kind}" + ("_sweep" if args.sweep else ""),
        params,
        [path],
        [out_dir / out_name],
        f"grid: wrote {len(rows)} rows -> {out_dir / out_name}",
    )


def cmd_export_kb(args, config: dict, out_dir: Path) -> StageResult:
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
    config = _load_config(args.config)
    if "out_dir" in config and args.out_dir == "runs/default":
        args.out_dir = config["out_dir"]
    out_dir = Path(args.out_dir)
    try:
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
    run()
