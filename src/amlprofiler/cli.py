"""Command-line orchestration of the profiling pipeline.

Subcommands map to pipeline stages (synth, profile, sweep, cluster, rules,
eval, grid, export-kb).  Every stage writes its artifacts under --out-dir
together with a manifest recording parameters, seeds, and content hashes,
so reruns can be verified byte for byte.  Downstream commands read the
upstream artifacts by their conventional names and fail with a "run stage
X first" diagnostic when they are missing.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import clustering, evaluation, synthgen, validity
from .ingest import (
    ConfigError,
    FilterStats,
    IngestConfig,
    Window,
    filter_insignificant,
    parse_customers,
    parse_transactions,
    write_rejections,
)
from .manifest import write_manifest
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


def _induction_params(config: dict, args) -> InductionParams:
    section = dict(config.get("rules", {}))
    section.pop("algorithm", None)
    if getattr(args, "min_instances", None) is not None:
        section["min_instances"] = args.min_instances
    if getattr(args, "reduced_error_pruning", False):
        section["reduced_error_pruning"] = True
    if args.seed is not None:
        section["seed"] = args.seed
    known = {
        "min_instances",
        "reduced_error_pruning",
        "pruning_confidence",
        "folds_for_rep",
        "seed",
        "optimization_passes",
        "mdl_slack_bits",
    }
    unknown = set(section) - known
    if unknown:
        raise StageError(f"unknown rules options in config: {sorted(unknown)}")
    return InductionParams(**section)


def _split_spec(config: dict, args) -> evaluation.SplitSpec:
    section = dict(config.get("split", {}))
    if getattr(args, "split_mode", None):
        section["mode"] = args.split_mode
    if args.seed is not None:
        section["seed"] = args.seed
    return evaluation.SplitSpec(**section)


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


def cmd_synth(args, config: dict) -> int:
    out_dir = Path(args.out_dir)
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
    with open(out_dir / GENERATOR_JSON, "w", encoding="utf-8") as fh:
        json.dump(gen.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(
        out_dir,
        "synth",
        params={"generator": gen.to_json(), "rows": result.transactions},
        outputs=[
            out_dir / TRANSACTIONS_CSV,
            out_dir / REGISTER_CSV,
            out_dir / GROUND_TRUTH_CSV,
            out_dir / GENERATOR_JSON,
        ],
    )
    print(
        f"synth: {result.transactions} transactions for {result.customers} customers "
        f"-> {out_dir}"
    )
    return 0


def cmd_profile(args, config: dict) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tx_path = Path(config.get("transactions", out_dir / TRANSACTIONS_CSV))
    reg_path = Path(config.get("register", out_dir / REGISTER_CSV))
    _require(tx_path, "synth")
    _require(reg_path, "synth")
    window = _resolve_window(config, out_dir)
    ingest_cfg = IngestConfig.from_json(config)
    phase = args.phase or int(config.get("phase", 2))

    with open(reg_path, "r", encoding="utf-8", newline="") as fh:
        register, reg_errors = parse_customers(
            fh, ingest_cfg.register_mapping, error_cap=ingest_cfg.error_cap
        )
    stats = FilterStats()
    with open(tx_path, "r", encoding="utf-8", newline="") as fh:
        reader = parse_transactions(
            fh,
            ingest_cfg.column_mapping,
            window=window,
            error_cap=ingest_cfg.error_cap,
            delimiter=ingest_cfg.delimiter,
        )
        stream = filter_insignificant(reader, ingest_cfg.filter_policy, stats)
        if phase == 1:
            schema, profiles = build_profiles_phase1(stream, register, window)
        else:
            schema, profiles = build_profiles_phase2(stream, register, window)
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
        with open(out_dir / REJECTED_CSV, "w", encoding="utf-8", newline="") as fh:
            write_rejections(list(reg_errors) + list(reader.errors), fh)
        outputs.append(out_dir / REJECTED_CSV)

    discretize = bool(config.get("discretize", False)) or args.discretize
    if discretize:
        dschema = fit_discretization(profiles, schema)
        nominal_schema, nominal_profiles = apply_discretization(profiles, schema, dschema)
        with open(out_dir / PROFILES_NOMINAL_CSV, "w", encoding="utf-8", newline="") as fh:
            write_profiles(fh, nominal_schema, nominal_profiles)
        write_schema_sidecar(
            out_dir / PROFILES_NOMINAL_SCHEMA, nominal_schema, dschema=dschema, meta=meta
        )
        outputs += [out_dir / PROFILES_NOMINAL_CSV, out_dir / PROFILES_NOMINAL_SCHEMA]

    write_manifest(
        out_dir,
        "profile",
        params={**meta, "filter_policy": ingest_cfg.filter_policy.to_json(),
                "discretize": discretize, "customers": len(profiles)},
        inputs=[tx_path, reg_path],
        outputs=outputs,
    )
    print(
        f"profile: {len(profiles)} customers from {reader.accepted} rows "
        f"({reader.rejected} rejected, {stats.dropped} filtered) -> {out_dir / PROFILES_CSV}"
    )
    return 0


def _read_profile_artifacts(out_dir: Path, nominal: bool):
    if nominal:
        csv_path = _require(out_dir / PROFILES_NOMINAL_CSV, "profile (with discretize)")
        schema_path = _require(out_dir / PROFILES_NOMINAL_SCHEMA, "profile (with discretize)")
    else:
        csv_path = _require(out_dir / PROFILES_CSV, "profile")
        schema_path = _require(out_dir / PROFILES_SCHEMA, "profile")
    schema, dschema, meta = read_schema_sidecar(schema_path)
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        profiles = read_profiles(fh, schema)
    return csv_path, schema_path, schema, dschema, profiles


def cmd_sweep(args, config: dict) -> int:
    out_dir = Path(args.out_dir)
    csv_path, schema_path, schema, _, profiles = _read_profile_artifacts(out_dir, False)
    section = config.get("clustering", {})
    k_lo, k_hi = args.k_range or tuple(section.get("k_range", (2, 10)))
    runs = args.runs or int(section.get("runs", 10))
    seed = args.seed if args.seed is not None else int(section.get("seed", 1))
    kind = section.get("distance", clustering.EUCLIDEAN)
    result = validity.k_sweep(
        profiles,
        schema,
        range(k_lo, k_hi + 1),
        runs=runs,
        base_seed=seed,
        kind=kind,
    )
    with open(out_dir / SWEEP_CSV, "w", encoding="utf-8", newline="") as fh:
        validity.write_sweep_csv(fh, result)
    with open(out_dir / SWEEP_RECOMMENDATION, "w", encoding="utf-8") as fh:
        json.dump(result.recommended, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(
        out_dir,
        "sweep",
        params={"k_range": [k_lo, k_hi], "runs": runs, "seed": seed, "distance": kind},
        inputs=[csv_path, schema_path],
        outputs=[out_dir / SWEEP_CSV, out_dir / SWEEP_RECOMMENDATION],
    )
    print(f"sweep: k in {k_lo}..{k_hi}, recommendations {result.recommended}")
    return 0


def cmd_cluster(args, config: dict) -> int:
    out_dir = Path(args.out_dir)
    csv_path, schema_path, schema, _, profiles = _read_profile_artifacts(out_dir, False)
    section = config.get("clustering", {})
    k = args.k or int(section.get("k", 7))
    seed = args.seed if args.seed is not None else int(section.get("seed", 1))
    kind = section.get("distance", clustering.EUCLIDEAN)
    max_iter = int(section.get("max_iter", 500))
    runs = args.runs or int(section.get("runs", 10))
    model = clustering.kmeans_best_of(
        profiles, schema, k, runs=runs, kind=kind, base_seed=seed, max_iter=max_iter
    )
    labels = clustering.assign(model, profiles)
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
    write_manifest(
        out_dir,
        "cluster",
        params={"k": k, "seed": seed, "runs": runs, "distance": kind,
                "max_iter": max_iter, "sse": model.sse,
                "best_seed": model.seed, "iterations": model.iterations_run},
        inputs=[csv_path, schema_path],
        outputs=outputs,
    )
    sizes = np.bincount(labels, minlength=k).tolist()
    print(f"cluster: k={k} sse={model.sse:.4f} sizes={sizes}")
    return 0


def _load_labeled(out_dir: Path, kind: str):
    if kind == "nominal":
        path = _require(out_dir / LABELED_NOMINAL_CSV, "cluster (after profile --discretize)")
        schema, _, _ = read_schema_sidecar(
            _require(out_dir / PROFILES_NOMINAL_SCHEMA, "profile (with discretize)")
        )
    else:
        path = _require(out_dir / LABELED_CSV, "cluster")
        schema, _, _ = read_schema_sidecar(_require(out_dir / PROFILES_SCHEMA, "profile"))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        profiles = read_profiles(fh, schema)
    if any(p.label is None for p in profiles):
        raise StageError(f"{path.name} has unlabeled rows; rerun 'cluster'")
    return path, schema, profile_matrix(profiles), profile_labels(profiles)


def cmd_rules(args, config: dict) -> int:
    out_dir = Path(args.out_dir)
    path, schema, X, y = _load_labeled(out_dir, args.attribute_kind)
    algorithm = args.algorithm or config.get("rules", {}).get("algorithm", "part")
    params = _induction_params(config, args)
    model = _inducer(algorithm, schema, params)(X, y)
    ruleset = tree_to_rules(model) if algorithm == "tree" else model
    with open(out_dir / RULESET_JSON, "w", encoding="utf-8") as fh:
        json.dump(ruleset_to_json(ruleset), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / RULESET_TXT, "w", encoding="utf-8") as fh:
        fh.write(render_ruleset(ruleset))
    write_manifest(
        out_dir,
        "rules",
        params={"algorithm": algorithm, **params.to_json()},
        inputs=[path],
        outputs=[out_dir / RULESET_JSON, out_dir / RULESET_TXT],
    )
    print(f"rules: {algorithm} induced {len(ruleset.rules)} rules + default")
    return 0


def cmd_eval(args, config: dict) -> int:
    out_dir = Path(args.out_dir)
    path, schema, X, y = _load_labeled(out_dir, args.attribute_kind)
    algorithm = args.algorithm or config.get("rules", {}).get("algorithm", "part")
    params = _induction_params(config, args)
    spec = _split_spec(config, args)
    report = evaluation.evaluate_inducer(_inducer(algorithm, schema, params), X, y, spec)
    row = evaluation.report_row(
        report,
        algorithm=algorithm,
        attribute_kind=args.attribute_kind,
        min_instances=params.min_instances,
        rep_flag="builtin" if algorithm == "ripper" else ("on" if params.reduced_error_pruning else "off"),
        split_mode=spec.mode,
    )
    with open(out_dir / EVALUATION_JSON, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / EVALUATION_ROW_CSV, "w", encoding="utf-8", newline="") as fh:
        evaluation.write_report_rows(fh, [row])
    write_manifest(
        out_dir,
        "eval",
        params={"algorithm": algorithm, "split": spec.to_json(), **params.to_json()},
        inputs=[path],
        outputs=[out_dir / EVALUATION_JSON, out_dir / EVALUATION_ROW_CSV],
    )
    print(
        f"eval: {algorithm} {spec.mode} percent_correct={report.percent_correct:.2f} "
        f"kappa={report.kappa:.3f} roc={report.weighted_roc_area:.3f}"
    )
    return 0


# ---------------------------------------------------------------------------
# Experiment grid


@dataclass(frozen=True)
class GridCell:
    index: int
    algorithm: str
    min_instances: Optional[int]  # None means the algorithm default
    rep_flag: str  # "on" | "off" | "builtin"
    split_mode: str


def grid_cells(min_instances_options: Sequence[Optional[int]]) -> list[GridCell]:
    """The 30-run grid: {PART, tree, RIPPER} x min-instances x REP x split."""
    cells = []
    index = 0
    for split_mode in (evaluation.HOLDOUT, evaluation.CROSS_VALIDATION):
        for algorithm in ("part", "tree"):
            for mi in min_instances_options:
                for rep in ("off", "on"):
                    cells.append(GridCell(index, algorithm, mi, rep, split_mode))
                    index += 1
        for mi in min_instances_options:
            cells.append(GridCell(index, "ripper", mi, "builtin", split_mode))
            index += 1
    return cells


def _run_cell(
    cell: GridCell,
    X: np.ndarray,
    y: np.ndarray,
    schema: AttributeSchema,
    attribute_kind: str,
    base_params: dict,
) -> dict:
    params_obj = dict(base_params)
    if cell.min_instances is not None:
        params_obj["min_instances"] = cell.min_instances
    params_obj["reduced_error_pruning"] = cell.rep_flag == "on"
    params = InductionParams(**params_obj)
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
        row = evaluation.report_row(report, **labels)
    except Exception as exc:  # a failed cell must stay visible in the grid
        log.exception("grid cell %s failed", cell)
        row = {**labels, "number_of_rules": f"ERROR: {exc}", "percent_correct": "",
               "kappa": "", "roc_area": ""}
    row["_index"] = cell.index
    return row


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


def cmd_grid(args, config: dict) -> int:
    out_dir = Path(args.out_dir)
    kind = args.attribute_kind
    path, schema, X, y = _load_labeled(out_dir, kind)
    section = config.get("grid", {})
    base_params = dict(config.get("rules", {}))
    base_params.pop("algorithm", None)
    base_params.pop("reduced_error_pruning", None)
    if args.seed is not None:
        base_params["seed"] = args.seed

    if args.sweep:
        smallest_cluster = int(np.bincount(y).min())
        steps = geometric_steps(2, max(smallest_cluster, 2), int(section.get("sweep_steps", 22)))
        rows = []
        for algorithm in ("part", "tree"):
            for index, mi in enumerate(steps):
                cell = GridCell(index, algorithm, mi, "off", evaluation.HOLDOUT)
                rows.append(_run_cell(cell, X, y, schema, kind, base_params))
        out_name = f"grid_sweep_{kind}.csv"
        params = {"mode": "sweep", "steps": steps, "attribute_kind": kind}
    else:
        options = section.get("min_instances", [None, 100, 1000])
        options = [None if v in (None, "default") else int(v) for v in options]
        cells = grid_cells(options)
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                futures = [
                    pool.submit(_run_cell, cell, X, y, schema, kind, base_params)
                    for cell in cells
                ]
                rows = [f.result() for f in futures]
        else:
            rows = [_run_cell(cell, X, y, schema, kind, base_params) for cell in cells]
        rows.sort(key=lambda r: r["_index"])
        out_name = f"grid_{kind}.csv"
        params = {"mode": "grid", "min_instances": [o if o is not None else "default" for o in options],
                  "attribute_kind": kind}

    for row in rows:
        row.pop("_index", None)
    with open(out_dir / out_name, "w", encoding="utf-8", newline="") as fh:
        evaluation.write_report_rows(fh, rows)
    write_manifest(
        out_dir,
        f"grid_{kind}" + ("_sweep" if args.sweep else ""),
        params=params,
        inputs=[path],
        outputs=[out_dir / out_name],
    )
    print(f"grid: wrote {len(rows)} rows -> {out_dir / out_name}")
    return 0


def cmd_export_kb(args, config: dict) -> int:
    out_dir = Path(args.out_dir)
    path = _require(out_dir / RULESET_JSON, "rules")
    with open(path, "r", encoding="utf-8") as fh:
        ruleset = ruleset_from_json(json.load(fh))
    with open(out_dir / KNOWLEDGE_BASE_JSON, "w", encoding="utf-8") as fh:
        write_knowledge_base(ruleset, fh)
    write_manifest(
        out_dir,
        "export_kb",
        params={"algorithm": ruleset.algorithm},
        inputs=[path],
        outputs=[out_dir / KNOWLEDGE_BASE_JSON],
    )
    print(f"export-kb: {len(ruleset.rules)} rules -> {out_dir / KNOWLEDGE_BASE_JSON}")
    return 0


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
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for grid cells")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

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

    p = sub.add_parser("rules", help="induce classification rules from cluster labels")
    p.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    p.add_argument("--attribute-kind", choices=("numeric", "nominal"), default="numeric")
    p.add_argument("--min-instances", type=int, default=None)
    p.add_argument("--reduced-error-pruning", action="store_true")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("eval", help="evaluate an inducer under a split protocol")
    p.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    p.add_argument("--attribute-kind", choices=("numeric", "nominal"), default="numeric")
    p.add_argument("--min-instances", type=int, default=None)
    p.add_argument("--reduced-error-pruning", action="store_true")
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
    try:
        return args.func(args, config)
    except StageError:
        raise
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - top-level diagnostics
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
