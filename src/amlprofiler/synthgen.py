"""Synthetic transaction ledgers with planted customer archetypes.

Each archetype fixes a set of behavioral dials (activity rates, amount
scale, how quickly credited money leaves, where it goes, account age).
Customers draw their transactions from per-customer seeded generators, so
the same config always produces byte-identical CSV files, and the emitted
ground-truth labels make classes-to-clusters checks possible downstream.

Amounts are log-normal except for the "legal limits" behavior, which
concentrates just under a configurable reporting threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timedelta
from pathlib import Path
from typing import IO

import numpy as np

from .evaluation import apportion
from .ingest import CUSTOMER_FIELDS, TRANSACTION_FIELDS, ConfigError, Window, format_amount

AMOUNT_LOGNORMAL = "lognormal"
AMOUNT_BELOW_THRESHOLD = "just_below_threshold"

BANK_CHARGE_TYPE_CODE = 99
# The largest mean numpy's Poisson sampler accepts ("lam value too large" above it).
POISSON_MEAN_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


@dataclass(frozen=True)
class ArchetypeSpec:
    name: str
    proportion: float
    services_used: int  # size of the customer's service-code pool
    txns_per_month: float  # expected transactions per month (flows count double)
    amount_scale: float  # log-normal median, currency units
    amount_sigma: float
    lag_days_mean: float  # expected days between money in and money out
    interbank_outflow_ratio: float  # share of debits leaving the institution
    intrabank_transfer_ratio: float  # realized complement; kept for reporting
    outflow_fraction: float  # share of each credited amount later debited
    account_age_years_mean: float
    account_age_years_sd: float
    amount_mode: str = AMOUNT_LOGNORMAL

    def validate(self, window: Window, catalog: int) -> None:
        if self.proportion < 0:
            raise ConfigError(f"{self.name}: proportion must be >= 0")
        if min(self.txns_per_month, self.amount_sigma, self.account_age_years_sd) < 0:
            raise ConfigError(f"{self.name}: rates and spreads must be >= 0")
        if self.txns_per_month / 2.0 > POISSON_MEAN_MAX:  # flows are drawn, two rows each
            raise ConfigError(f"{self.name}: txns_per_month must be at most {2 * POISSON_MEAN_MAX:g}")
        if not 1 <= self.services_used <= catalog:
            raise ConfigError(f"{self.name}: service pool must lie in [1, {catalog}]")
        for ratio in (
            self.interbank_outflow_ratio,
            self.intrabank_transfer_ratio,
            self.outflow_fraction,
        ):
            if not 0.0 <= ratio <= 1.0:
                raise ConfigError(f"{self.name}: ratios must lie in [0, 1]")
        if self.lag_days_mean < 0 or self.lag_days_mean > window.days:
            raise ConfigError(
                f"{self.name}: lag {self.lag_days_mean}d infeasible for a "
                f"{window.days:.0f}-day window"
            )
        if self.amount_mode not in (AMOUNT_LOGNORMAL, AMOUNT_BELOW_THRESHOLD):
            raise ConfigError(f"{self.name}: unknown amount mode {self.amount_mode!r}")


@dataclass(frozen=True)
class GeneratorConfig:
    n_customers: int
    window: Window
    archetypes: tuple[ArchetypeSpec, ...]
    seed: int = 20140101
    noise: float = 0.0  # fraction of customers blending two archetypes
    reporting_threshold: float = 10_000.0
    service_catalog: int = 24
    bank_charges_per_month: float = 0.2

    def validate(self) -> None:
        if self.n_customers < len(self.archetypes):
            raise ConfigError("need at least one customer per archetype")
        if not 0.0 <= self.noise < 1.0:
            raise ConfigError("noise must lie in [0, 1)")
        if self.seed < 0 or self.bank_charges_per_month < 0 or self.reporting_threshold <= 0:
            raise ConfigError("seed and bank_charges_per_month must be >= 0, "
                              "reporting_threshold > 0")
        if self.bank_charges_per_month * self.window.month_count() > POISSON_MEAN_MAX:
            raise ConfigError(f"bank_charges_per_month must be at most "
                              f"{POISSON_MEAN_MAX / self.window.month_count():g}")
        total = sum(a.proportion for a in self.archetypes)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"archetype proportions sum to {total}, expected 1")
        for spec in self.archetypes:
            spec.validate(self.window, self.service_catalog)

    def to_json(self) -> dict:
        window = {"start": self.window.start.isoformat(), "end": self.window.end.isoformat()}
        return {**asdict(self), "window": window}


def _blend(a: ArchetypeSpec, b: ArchetypeSpec, lam: float) -> ArchetypeSpec:
    """The dominant archetype with every numeric dial interpolated."""
    dials = {f.name: lam * getattr(a, f.name) + (1.0 - lam) * getattr(b, f.name)
             for f in fields(ArchetypeSpec) if f.name not in ("name", "proportion", "amount_mode")}
    dials["services_used"] = max(1, int(round(dials["services_used"])))
    return replace(a if lam >= 0.5 else b, proportion=0.0, **dials)


@dataclass
class GeneratedLedger:
    transactions: int
    customers: int
    archetype_counts: dict[str, int]


def _month_starts(window: Window) -> list[tuple[float, float]]:
    """(offset_seconds, length_seconds) of each calendar month in the window."""
    out = []
    for y, m in window.month_keys():
        start = max(datetime(y, m, 1), window.start)
        if m == 12:
            nxt = datetime(y + 1, 1, 1)
        else:
            nxt = datetime(y, m + 1, 1)
        end = min(nxt, window.end)
        out.append(((start - window.start).total_seconds(), (end - start).total_seconds()))
    return out


def _customer_rows(
    idx: int,
    spec: ArchetypeSpec,
    config: GeneratorConfig,
    months: list[tuple[float, float]],
    rng: np.random.Generator,
) -> tuple[list, str]:
    window = config.window
    window_seconds = (window.end - window.start).total_seconds()
    age = float(np.clip(rng.normal(spec.account_age_years_mean, spec.account_age_years_sd), 0.3, 45.0))
    open_date = (window.end - timedelta(days=age * 365.25)).date()

    pool = rng.choice(np.arange(1, config.service_catalog + 1), size=spec.services_used, replace=False)
    flow_rate = spec.txns_per_month / 2.0
    flows_per_month = rng.poisson(flow_rate, size=len(months))
    if flows_per_month.sum() == 0:
        flows_per_month[int(rng.integers(len(months)))] = 1  # every customer transacts

    rows = []
    total_flows = int(flows_per_month.sum())
    credit_offsets = np.empty(total_flows)
    pos = 0
    for (m_off, m_len), count in zip(months, flows_per_month):
        if count:
            credit_offsets[pos : pos + count] = m_off + rng.random(count) * m_len
            pos += count
    if spec.amount_mode == AMOUNT_BELOW_THRESHOLD:
        amounts = config.reporting_threshold * (0.9 + 0.099 * rng.random(total_flows))
    else:
        amounts = spec.amount_scale * rng.lognormal(0.0, spec.amount_sigma, size=total_flows)
    lag_scale = max(spec.lag_days_mean, 1e-9) * 86400.0
    lags = rng.uniform(0.5, 1.5, size=total_flows) * lag_scale
    interbank = rng.random(total_flows) < spec.interbank_outflow_ratio
    bank_ids = rng.integers(1, 30, size=total_flows)
    svc = pool[rng.integers(0, len(pool), size=2 * total_flows)]
    types = rng.integers(1, 6, size=2 * total_flows)

    for i in range(total_flows):
        c_off = credit_offsets[i]
        cents = max(1, int(round(amounts[i] * 100)))
        rows.append((c_off, 0, cents, "credit", int(svc[2 * i]), int(types[2 * i]), ""))
        d_off = min(c_off + lags[i], window_seconds)
        d_cents = max(1, int(round(cents * spec.outflow_fraction)))
        counterparty = f"BANK_{bank_ids[i]:02d}" if interbank[i] else ""
        rows.append(
            (d_off, 1, d_cents, "debit", int(svc[2 * i + 1]), int(types[2 * i + 1]), counterparty)
        )

    n_charges = rng.poisson(config.bank_charges_per_month * len(months))
    if n_charges:
        charge_offsets = rng.random(n_charges) * window_seconds
        charge_cents = rng.integers(100, 2000, size=n_charges)
        for off, cents in zip(charge_offsets, charge_cents):
            rows.append((float(off), 1, int(cents), "debit", 0, BANK_CHARGE_TYPE_CODE, ""))

    rows.sort()
    return rows, open_date.isoformat()


def generate(
    config: GeneratorConfig,
    transactions: IO[str],
    register: IO[str],
    ground_truth: IO[str],
) -> GeneratedLedger:
    """Write the ledger, register and archetype labels for one config."""
    config.validate()
    window = config.window
    months = _month_starts(window)

    n_noise = int(round(config.noise * config.n_customers))
    n_core = config.n_customers - n_noise
    counts = apportion([a.proportion * n_core for a in config.archetypes], n_core)
    assignment: list[int] = []
    for a_idx, count in enumerate(counts):
        assignment.extend([a_idx] * count)

    tx_writer = csv.writer(transactions, lineterminator="\n")
    tx_writer.writerow(TRANSACTION_FIELDS)
    reg_writer = csv.writer(register, lineterminator="\n")
    reg_writer.writerow(CUSTOMER_FIELDS)
    gt_writer = csv.writer(ground_truth, lineterminator="\n")
    gt_writer.writerow(["customer_id", "archetype"])

    archetype_counts: dict[str, int] = {a.name: 0 for a in config.archetypes}
    n_rows = 0
    for idx in range(config.n_customers):
        rng = np.random.default_rng([config.seed, idx])
        if idx < n_core:
            spec = config.archetypes[assignment[idx]]
        else:
            pair = rng.choice(len(config.archetypes), size=2, replace=False)
            lam = float(rng.uniform(0.25, 0.75))
            spec = _blend(config.archetypes[pair[0]], config.archetypes[pair[1]], lam)
        customer_id = f"cust_{idx:07d}"
        account_id = f"acc_{idx:07d}"
        rows, open_date = _customer_rows(idx, spec, config, months, rng)
        for off, _, cents, direction, svc, ttype, counterparty in rows:
            ts = window.start + timedelta(seconds=int(off))
            tx_writer.writerow(
                [
                    customer_id,
                    account_id,
                    ts.isoformat(),
                    format_amount(cents),
                    direction,
                    svc,
                    ttype,
                    counterparty,
                ]
            )
        n_rows += len(rows)
        reg_writer.writerow([customer_id, open_date])
        gt_writer.writerow([customer_id, spec.name])
        archetype_counts[spec.name] = archetype_counts.get(spec.name, 0) + 1

    return GeneratedLedger(n_rows, config.n_customers, archetype_counts)


def generate_files(config: GeneratorConfig, out_dir: Path | str) -> GeneratedLedger:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (
        open(out / "transactions.csv", "w", encoding="utf-8", newline="") as tx,
        open(out / "register.csv", "w", encoding="utf-8", newline="") as reg,
        open(out / "ground_truth.csv", "w", encoding="utf-8", newline="") as gt,
    ):
        return generate(config, tx, reg, gt)


_YEAR_2014 = Window(datetime(2014, 1, 1), datetime(2014, 12, 31, 23, 59, 59))

_STANDARD = ArchetypeSpec(
    name="standard",
    proportion=0.40,
    services_used=3,
    txns_per_month=2.0,
    amount_scale=300.0,
    amount_sigma=0.35,
    lag_days_mean=2.0,
    interbank_outflow_ratio=0.10,
    intrabank_transfer_ratio=0.90,
    outflow_fraction=1.0,
    account_age_years_mean=8.0,
    account_age_years_sd=2.0,
)

_DORMANT_SAVER = ArchetypeSpec(
    name="dormant_saver",
    proportion=0.20,
    services_used=1,
    txns_per_month=1.0,
    amount_scale=150.0,
    amount_sigma=0.3,
    lag_days_mean=45.0,
    interbank_outflow_ratio=0.05,
    intrabank_transfer_ratio=0.95,
    outflow_fraction=1.0,
    account_age_years_mean=14.0,
    account_age_years_sd=2.5,
)

_HEAVY_SERVICES = ArchetypeSpec(
    name="heavy_services",
    proportion=0.15,
    services_used=9,
    txns_per_month=8.0,
    amount_scale=600.0,
    amount_sigma=0.35,
    lag_days_mean=6.0,
    interbank_outflow_ratio=0.10,
    intrabank_transfer_ratio=0.90,
    outflow_fraction=1.0,
    account_age_years_mean=10.0,
    account_age_years_sd=2.0,
)

_PASSTHROUGH_RISK = ArchetypeSpec(
    name="passthrough_risk",
    proportion=0.08,
    services_used=1,
    txns_per_month=6.0,
    amount_scale=80.0,
    amount_sigma=0.3,
    lag_days_mean=0.05,
    interbank_outflow_ratio=0.95,
    intrabank_transfer_ratio=0.05,
    outflow_fraction=1.0,
    account_age_years_mean=2.5,
    account_age_years_sd=0.8,
)

_LEGAL_LIMITS_RISK = ArchetypeSpec(
    name="legal_limits_risk",
    proportion=0.07,
    services_used=6,
    txns_per_month=4.0,
    amount_scale=9500.0,
    amount_sigma=0.1,
    lag_days_mean=1.0,
    interbank_outflow_ratio=0.08,
    intrabank_transfer_ratio=0.92,
    outflow_fraction=1.0,
    account_age_years_mean=16.0,
    account_age_years_sd=2.5,
    amount_mode=AMOUNT_BELOW_THRESHOLD,
)

_NEW_ACTIVE = ArchetypeSpec(
    name="new_active",
    proportion=0.06,
    services_used=5,
    txns_per_month=4.0,
    amount_scale=120.0,
    amount_sigma=0.3,
    lag_days_mean=3.0,
    interbank_outflow_ratio=0.65,
    intrabank_transfer_ratio=0.35,
    outflow_fraction=1.0,
    account_age_years_mean=1.0,
    account_age_years_sd=0.3,
)

_CORPORATE = ArchetypeSpec(
    name="corporate",
    proportion=0.04,
    services_used=12,
    txns_per_month=15.0,
    amount_scale=5000.0,
    amount_sigma=0.4,
    lag_days_mean=7.0,
    interbank_outflow_ratio=0.50,
    intrabank_transfer_ratio=0.50,
    outflow_fraction=1.0,
    account_age_years_mean=18.0,
    account_age_years_sd=3.0,
)


def default_config(
    n_customers: int = 50_000, seed: int = 20140101, noise: float = 0.0
) -> GeneratorConfig:
    """Bundled seven-archetype population over the 2014 calendar year."""
    return GeneratorConfig(
        n_customers=n_customers,
        window=_YEAR_2014,
        archetypes=(
            _STANDARD,
            _DORMANT_SAVER,
            _HEAVY_SERVICES,
            _PASSTHROUGH_RISK,
            _LEGAL_LIMITS_RISK,
            _NEW_ACTIVE,
            _CORPORATE,
        ),
        seed=seed,
        noise=noise,
    )


def six_archetype_config(
    n_customers: int = 1_500, seed: int = 20140101, noise: float = 0.0
) -> GeneratorConfig:
    """Six equal-sized, well-separated groups for cluster-count experiments.

    The standard/dormant pair is pushed further apart than in the bundled
    population so that every pairwise gap is comparable; cluster-count
    metrics are only meaningful when no two planted groups almost touch.
    """
    kept = (
        replace(
            _STANDARD,
            txns_per_month=4.0,
            interbank_outflow_ratio=0.35,
            intrabank_transfer_ratio=0.65,
            account_age_years_mean=6.0,
            account_age_years_sd=1.2,
        ),
        replace(
            _DORMANT_SAVER,
            txns_per_month=2.0,
            lag_days_mean=60.0,
            account_age_years_mean=17.0,
            account_age_years_sd=1.5,
        ),
        replace(_HEAVY_SERVICES, txns_per_month=16.0, account_age_years_sd=1.2),
        replace(_PASSTHROUGH_RISK, txns_per_month=12.0, account_age_years_sd=0.5),
        replace(_LEGAL_LIMITS_RISK, txns_per_month=8.0, account_age_years_sd=1.5),
        replace(_CORPORATE, txns_per_month=30.0, account_age_years_sd=1.8),
    )
    equal = tuple(replace(a, proportion=1.0 / len(kept)) for a in kept)
    return GeneratorConfig(
        n_customers=n_customers,
        window=_YEAR_2014,
        archetypes=equal,
        seed=seed,
        noise=noise,
    )
