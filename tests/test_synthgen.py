import io
import csv
from dataclasses import replace

import numpy as np
import pytest

from amlprofiler import synthgen, validity
from amlprofiler.manifest import from_json
from amlprofiler.ingest import (
    ConfigError,
    FilterPolicy,
    TransactionChunk,
    TransactionReader,
    filter_insignificant,
    parse_customers,
)
from amlprofiler.profiling import build_profiles_phase2


def generate_to_strings(config):
    tx, reg, gt = io.StringIO(), io.StringIO(), io.StringIO()
    result = synthgen.generate(config, tx, reg, gt)
    return result, tx.getvalue(), reg.getvalue(), gt.getvalue()


def profile_ledger(tx_text, reg_text, window):
    customers, _ = parse_customers(io.BytesIO(reg_text.encode()), window=window)
    reader = TransactionReader(io.BytesIO(tx_text.encode()), window=window, register=customers,
                               error_cap=50)
    stream = filter_insignificant(reader, FilterPolicy(frozenset({synthgen.BANK_CHARGE_TYPE_CODE})))
    return build_profiles_phase2(stream, customers, window)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        cfg = synthgen.default_config(n_customers=60, seed=5)
        _, tx1, reg1, gt1 = generate_to_strings(cfg)
        _, tx2, reg2, gt2 = generate_to_strings(cfg)
        assert tx1 == tx2 and reg1 == reg2 and gt1 == gt2

    def test_different_seed_differs(self):
        a = generate_to_strings(synthgen.default_config(n_customers=60, seed=5))[1]
        b = generate_to_strings(synthgen.default_config(n_customers=60, seed=6))[1]
        assert a != b


class TestProportions:
    def test_realized_counts_within_one(self):
        cfg = synthgen.default_config(n_customers=500, seed=1)
        result, _, _, _ = generate_to_strings(cfg)
        for spec in cfg.archetypes:
            expected = spec.proportion * cfg.n_customers
            assert abs(result.archetype_counts[spec.name] - expected) <= 1

    def test_every_customer_appears_in_ledger(self):
        cfg = synthgen.default_config(n_customers=80, seed=2)
        _, tx, reg, gt = generate_to_strings(cfg)
        ledger_ids = {row["customer_id"] for row in csv.DictReader(io.StringIO(tx))}
        register_ids = {row["customer_id"] for row in csv.DictReader(io.StringIO(reg))}
        assert ledger_ids == register_ids
        assert len(register_ids) == 80


class TestValidation:
    def test_infeasible_lag_rejected(self):
        base = synthgen.default_config(n_customers=20)
        bad = replace(
            base,
            archetypes=(replace(base.archetypes[0], proportion=1.0, lag_days_mean=9999.0),),
        )
        with pytest.raises(ConfigError, match="infeasible"):
            bad.validate()

    def test_proportions_must_sum_to_one(self):
        base = synthgen.default_config(n_customers=20)
        bad = replace(base, archetypes=tuple(replace(a, proportion=0.1) for a in base.archetypes))
        with pytest.raises(ConfigError, match="sum"):
            bad.validate()

    def test_noise_range(self):
        with pytest.raises(ConfigError):
            replace(synthgen.default_config(n_customers=20), noise=1.0).validate()

    def test_json_roundtrip(self):
        cfg = synthgen.six_archetype_config(n_customers=120, seed=9, noise=0.1)
        again = from_json(synthgen.GeneratorConfig, cfg.to_json(), "generator")
        assert again == cfg


class TestGeneratedLedgerQuality:
    def test_rows_parse_cleanly_and_in_customer_order(self):
        cfg = synthgen.default_config(n_customers=50, seed=3)
        _, tx, reg, _ = generate_to_strings(cfg)
        customers, _ = parse_customers(io.BytesIO(reg.encode()), window=cfg.window)
        reader = TransactionReader(io.BytesIO(tx.encode()), window=cfg.window, register=customers,
                                   error_cap=1)
        chunk = TransactionChunk.concat(list(reader))
        assert reader.rejected == 0
        assert len(chunk) > 0
        # per-customer chronological order
        last = {}
        for cid, ts in zip(chunk.customer.tolist(), chunk.timestamp.tolist()):
            if cid in last:
                assert ts >= last[cid]
            last[cid] = ts

    def test_passthrough_archetype_lag_below_one_day(self):
        base = synthgen.default_config(n_customers=1000, seed=4)
        passthrough = next(a for a in base.archetypes if a.name == "passthrough_risk")
        cfg = replace(base, archetypes=(replace(passthrough, proportion=1.0),))
        _, tx, reg, _ = generate_to_strings(cfg)
        profiles = profile_ledger(tx, reg, cfg.window)
        lags = profiles.values[:, profiles.schema.names.index("in_out_lag_days")]
        assert np.median(lags) < 1.0

    def test_legal_limits_amounts_under_threshold(self):
        base = synthgen.default_config(n_customers=300, seed=5)
        legal = next(a for a in base.archetypes if a.name == "legal_limits_risk")
        cfg = replace(base, archetypes=(replace(legal, proportion=1.0),))
        _, tx, _, _ = generate_to_strings(cfg)
        amounts = [
            float(row["amount"])
            for row in csv.DictReader(io.StringIO(tx))
            if row["txn_type_code"] != str(synthgen.BANK_CHARGE_TYPE_CODE)
        ]
        frac_in_band = np.mean(
            [(0.9 * cfg.reporting_threshold <= a < cfg.reporting_threshold) for a in amounts]
        )
        assert frac_in_band > 0.99

    def test_two_archetypes_sweep_recommends_two(self):
        base = synthgen.default_config(n_customers=240, seed=6)
        dormant = next(a for a in base.archetypes if a.name == "dormant_saver")
        corporate = next(a for a in base.archetypes if a.name == "corporate")
        cfg = replace(
            base,
            archetypes=(replace(dormant, proportion=0.5), replace(corporate, proportion=0.5)),
        )
        _, tx, reg, _ = generate_to_strings(cfg)
        profiles = profile_ledger(tx, reg, cfg.window)
        result = validity.k_sweep(profiles.values, profiles.schema, range(2, 6), runs=3, base_seed=1)
        assert result.recommended["silhouette"] == 2

    def test_noise_customers_blend(self):
        cfg = synthgen.default_config(n_customers=100, seed=7, noise=0.2)
        result, _, _, gt = generate_to_strings(cfg)
        assert result.customers == 100
        labels = {row["archetype"] for row in csv.DictReader(io.StringIO(gt))}
        assert labels <= {a.name for a in cfg.archetypes}
