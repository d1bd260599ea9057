import hashlib
import io
import csv
import json
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from amlprofiler import synthgen, validity
from amlprofiler.manifest import from_json
from amlprofiler.ingest import (
    ConfigError,
    FilterPolicy,
    Window,
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

    def test_lognormal_amount_scale_must_be_positive(self):
        base = synthgen.default_config(n_customers=20)
        for scale in (0.0, -5.0):
            bad = replace(base, archetypes=(replace(base.archetypes[0], proportion=1.0,
                                                    amount_scale=scale),))
            with pytest.raises(ConfigError, match="amount_scale must be > 0"):
                bad.validate()

    @pytest.mark.parametrize("dial", [{"amount_scale": 1e300}, {"amount_sigma": 1e3}])
    def test_amount_beyond_int64_cents_rejected(self, dial):
        base = synthgen.default_config(n_customers=20)
        bad = replace(base, archetypes=(replace(base.archetypes[0], proportion=1.0, **dial),))
        with pytest.raises(ConfigError, match="overflows int64 cents"):
            generate_to_strings(bad)

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


def _perfbench_generator():
    ledger = Path(__file__).resolve().parents[1] / "perfbench" / "ledger.json"
    return from_json(synthgen.GeneratorConfig, json.loads(ledger.read_text())["generator"],
                     "generator")


POPULATIONS = {
    "six_archetypes_1500": lambda: synthgen.six_archetype_config(n_customers=1500),
    "noise_0.3_1000": lambda: synthgen.default_config(n_customers=1000, noise=0.3),
    "perfbench_ledger_800": _perfbench_generator,
    # isoformat writes the half second of every timestamp
    "half_second_start_50": lambda: replace(synthgen.default_config(n_customers=50), window=Window(
        datetime(2014, 1, 1, 0, 0, 0, 500000), datetime(2014, 12, 31, 23, 59, 59))),
}
# SHA-256 of transactions.csv, register.csv and ground_truth.csv, recorded on
# the row-by-row writer that the columnar one replaced
GOLDEN = {
    "six_archetypes_1500": (
        "07d3b3f0a8ca50d7e6cd7da097d7b23ed0fd69fbb70b9c77087ca648860286d1",
        "d3cb686e0f8cfcfa623ba94d6b164630355fc5562725c9dc152354159816db88",
        "7fa30e12772a87049d8e9896d88239b72e79e075ebdcf28ee51cddd2e8e7d242",
    ),
    "noise_0.3_1000": (
        "8989c07dc342d7f3b5d00b3f0c10d7c235aa8f6bafd39c0747c429497e1c0c3a",
        "f600a7891e836a82d7c422069c15b2f0d175b7d29b6b2e1ef0eae31be49acb83",
        "3391c15349c30ad29819f3fb9512b4bd6e627b8fccca83a8cdccba8d3bb9e339",
    ),
    "perfbench_ledger_800": (
        "74654c8be3017d14028aec14e3d44aaa4530f99b03e9f6196028641d014eeeda",
        "47bffe86a34b9ea65e2a4def7dfbabbb12803d1f6d1dd04fa1a34de2ee0fab14",
        "2ce2a2baaafab23882d3811bcb800cbf36bc864c268788ea434b1e483ae026bf",
    ),
    "half_second_start_50": (
        "63e966aa9f7805d32924704ff0731d105da81f5071ce012a998960c1376cbc60",
        "0d7c4b5eaa6b041dd2daef84ab3bfd9d6a123abf4322fb2c2f693da07ce9ef0e",
        "23ef2add8ac2fdbadc899f91539ce26801fd1f5fc1f505883c3ce6fa0db4e469",
    ),
}


@pytest.mark.parametrize("name", POPULATIONS)
def test_files_match_the_recorded_digests(name):
    _, *texts = generate_to_strings(POPULATIONS[name]())
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == GOLDEN[name]
