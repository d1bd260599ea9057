import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amlprofiler

from amlprofiler import ingest, parallel, synthgen
from amlprofiler.cli import build_parser, geometric_steps, grid_cells, main
from amlprofiler.manifest import sha256_file


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small synthetic run shared by the CLI stage tests."""
    out = tmp_path_factory.mktemp("pipeline")
    config = {
        "window": {"start": "2014-01-01", "end": "2014-12-31"},
        "filter_policy": {"excluded_txn_type_codes": [99]},
        "discretize": True,
        "clustering": {"k": 7, "runs": 5, "seed": 1},
        "rules": {"algorithm": "part", "seed": 3},
        "split": {"mode": "holdout", "train_fraction": 0.66, "seed": 3},
        "grid": {"min_instances": [None, 20, 50]},
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    args = ["--config", str(cfg_path), "--out-dir", str(out)]
    assert main([*args, "synth", "--n-customers", "220"]) == 0
    assert main([*args, "profile", "--assume-sorted"]) == 0
    assert main([*args, "cluster"]) == 0
    return out, args


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def with_field(line, index, value):
    """The CSV line ``line`` with field ``index`` replaced by ``value``."""
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


class TestStages:
    def test_synth_artifacts(self, pipeline_dir):
        out, _ = pipeline_dir
        for name in ("transactions.csv", "register.csv", "ground_truth.csv"):
            assert (out / name).exists()
        manifest = json.loads((out / "synth.manifest.json").read_text())
        assert manifest["outputs"]["transactions.csv"] == sha256_file(out / "transactions.csv")

    def test_profile_artifacts(self, pipeline_dir):
        out, _ = pipeline_dir
        rows = csv_rows(out / "profiles.csv")
        assert len(rows) == 220
        assert (out / "profiles_nominal.csv").exists()
        sidecar = json.loads((out / "profiles_nominal.schema.json").read_text())
        assert "discretization" in sidecar
        for cut in sidecar["discretization"]["cuts"]:
            assert len(cut["levels"]) in (2, 3)

    def test_cluster_artifacts(self, pipeline_dir):
        out, _ = pipeline_dir
        model = json.loads((out / "cluster_model.json").read_text())
        assert model["k"] == 7
        rows = csv_rows(out / "labeled_profiles.csv")
        assert len(rows) == 220
        assert all(r["label"] != "" for r in rows)
        assert (out / "labeled_profiles_nominal.csv").exists()
        # the nominal sidecar's cuts made labeled_profiles_nominal.csv
        manifest = json.loads((out / "cluster.manifest.json").read_text())
        assert sorted(manifest["inputs"]) == ["profiles.csv", "profiles.schema.json",
                                              "profiles_nominal.schema.json"]

    def test_rules_and_kb_export(self, pipeline_dir):
        out, args = pipeline_dir
        assert main([*args, "rules", "--algorithm", "part"]) == 0
        ruleset = json.loads((out / "ruleset.json").read_text())
        assert ruleset["algorithm"] == "part"
        assert (out / "ruleset.txt").read_text().count("cluster_") >= 1
        assert main([*args, "export-kb"]) == 0
        kb = json.loads((out / "knowledge_base.json").read_text())
        assert set(kb) == {"algorithm", "params", "rules", "default_class"}
        for rule in kb["rules"]:
            assert set(rule) == {"conditions", "class", "coverage", "confidence"}
            for cond in rule["conditions"]:
                assert set(cond) == {"attr", "op", "value"}
                assert isinstance(cond["attr"], str)  # names, not indices

    def test_eval_row(self, pipeline_dir):
        out, args = pipeline_dir
        assert main([*args, "eval", "--algorithm", "tree"]) == 0
        rows = csv_rows(out / "evaluation_row.csv")
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "tree"
        assert float(rows[0]["percent_correct"]) > 50.0

    def test_sweep_outputs(self, pipeline_dir):
        out, args = pipeline_dir
        assert main([*args, "sweep", "--k-range", "2:4", "--runs", "2"]) == 0
        rec = json.loads((out / "sweep_recommendation.json").read_text())
        assert set(rec) == {"silhouette", "vrc", "rand_stability", "van_dongen_stability", "sse_elbow"}
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * (2 + 1)  # header + 3 ks x (2 runs + summary)


class TestGrid:
    def test_thirty_rows_per_kind(self, pipeline_dir):
        out, args = pipeline_dir
        assert main([*args, "grid", "--attribute-kind", "numeric"]) == 0
        rows = csv_rows(out / "grid_numeric.csv")
        assert len(rows) == 30
        assert all(r["percent_correct"] != "" for r in rows)
        holdout = [r for r in rows if r["split_mode"] == "holdout"]
        assert len(holdout) == 15
        by_algo = {}
        for r in holdout:
            by_algo.setdefault(r["algorithm"], []).append(r)
        assert len(by_algo["part"]) == 6 and len(by_algo["tree"]) == 6
        assert len(by_algo["ripper"]) == 3
        assert all(r["rep_flag"] == "builtin" for r in by_algo["ripper"])

    def test_grid_nominal(self, pipeline_dir):
        out, args = pipeline_dir
        assert main([*args, "grid", "--attribute-kind", "nominal"]) == 0
        rows = csv_rows(out / "grid_nominal.csv")
        assert len(rows) == 30
        assert all(r["attribute_kind"] == "nominal" for r in rows)

    def test_cell_layout(self):
        options = [None, 100, 1000]
        cells = grid_cells(options)
        expected = [
            (algorithm, mi, rep, split_mode)
            for split_mode in ("holdout", "cross_validation")
            for algorithm, reps in (("part", ("off", "on")), ("tree", ("off", "on")),
                                    ("ripper", ("builtin",)))
            for mi in options
            for rep in reps
        ]
        assert len(expected) == 30
        assert [(c.algorithm, c.min_instances, c.rep_flag, c.split_mode) for c in cells] == expected


class TestParallelGrid:
    def test_jobs_flag_gives_identical_rows(self, pipeline_dir, monkeypatch):
        # the affinity mask sets the workers: every CPU, then one (serial)
        out, args = pipeline_dir
        monkeypatch.setattr(parallel, "fork_allowed", True)  # as the amlprofiler command does
        assert main([*args, "grid", "--attribute-kind", "numeric"]) == 0
        forked = (out / "grid_numeric.csv").read_text()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main([*args, "grid", "--attribute-kind", "numeric"]) == 0
        assert (out / "grid_numeric.csv").read_text() == forked

    def test_jobs_flag_is_gone(self, pipeline_dir):
        _, args = pipeline_dir
        assert "--jobs" not in build_parser().format_help()
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "2", *args, "grid"])
        assert exc.value.code == 2


class TestGeometricSteps:
    def test_endpoints_and_monotone(self):
        steps = geometric_steps(2, 40_000, 22)
        assert steps[0] == 2 and steps[-1] == 40_000
        assert len(steps) == 22
        assert all(b > a for a, b in zip(steps, steps[1:]))

    def test_small_range_degenerates(self):
        assert geometric_steps(2, 10, 22) == list(range(2, 11))


class TestDiagnostics:
    def test_missing_upstream_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), "cluster"])
        assert exc.value.code == 2
        assert "run stage" in capsys.readouterr().err

    def test_missing_window_diagnostic(self, tmp_path, capsys):
        (tmp_path / "transactions.csv").write_text("x\n")
        (tmp_path / "register.csv").write_text("x\n")
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), "profile"])
        assert exc.value.code == 2
        assert "window" in capsys.readouterr().err

    def test_offset_timestamp_is_rejected_row(self, tmp_path):
        (tmp_path / "register.csv").write_text("customer_id,account_open_date\nc1,2010-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
            "c1,a1,2014-03-08T12:00:00+02:00,5.00,debit,1,1,\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 0
        rejected = csv_rows(tmp_path / "rejected_rows.csv")
        assert [r["line_no"] for r in rejected] == ["3"]
        assert "offset" in rejected[0]["reason"]
        assert len(csv_rows(tmp_path / "profiles.csv")) == 1

    def test_field_over_the_csv_limit_is_rejected_row(self, tmp_path):
        (tmp_path / "register.csv").write_text("customer_id,account_open_date\nc1,2010-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
            f"c1,a1,2014-03-09T12:00:00,5.00,debit,1,1,{'B' * 140_000}\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 0
        rejected = csv_rows(tmp_path / "rejected_rows.csv")
        assert [(r["line_no"], r["reason"]) for r in rejected] == [
            ("3", "field larger than field limit (131072)")]
        assert len(csv_rows(tmp_path / "profiles.csv")) == 1

    def test_register_field_over_the_csv_limit_is_rejected_row(self, tmp_path):
        (tmp_path / "register.csv").write_text(
            f"customer_id,account_open_date\nc1,2010-01-01\nc2,{'B' * 140_000}\nc3,2011-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
            "c3,a3,2014-03-09T12:00:00,5.00,debit,1,1,\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 0
        assert (tmp_path / "rejected_rows.csv").read_text() == (
            "source,line_no,reason\nregister,3,field larger than field limit (131072)\n")
        assert [p["customer_id"] for p in csv_rows(tmp_path / "profiles.csv")] == ["c1", "c3"]

    def test_register_header_over_the_csv_limit_is_config_error(self, tmp_path, capsys):
        (tmp_path / "register.csv").write_text(
            f"customer_id,account_open_date,{'X' * 140_000}\nc1,2010-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\nc1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "field larger than field limit" in err

    @pytest.mark.parametrize("line", [
        b"c1,a\xff1,2014-03-09T12:00:00,5.00,debit,1,1,\n",  # a field that no check reads
        b"c\xff1,a1,2014-03-09T12:00:00,5.00,debit,1,1,\n",
        b"c1,a1,2014-03-09T12:00:00,5.00,debit,1,1,BANK_\xc3\n",  # a truncated sequence
        b"c1,a1,2014-03-09T12:00:00,5.00,debit,1,1\xff\n",  # too short, too
    ])
    def test_ledger_line_that_is_not_utf8_is_rejected_row(self, tmp_path, line):
        (tmp_path / "register.csv").write_text("customer_id,account_open_date\nc1,2010-01-01\n")
        (tmp_path / "transactions.csv").write_bytes(
            b"customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            b"counterparty_bank\n"
            b"c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,Z\xc3\xbcrich\n" + line
            + b"c1,a1,2014-03-10T12:00:00,2.00,debit,1,1,\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 0
        rejected = csv_rows(tmp_path / "rejected_rows.csv")
        assert [(r["source"], r["line_no"], r["reason"]) for r in rejected] == [
            ("ledger", "3", "line is not valid UTF-8")]
        meta = json.loads((tmp_path / "profiles.schema.json").read_text())["meta"]
        assert (meta["rows_accepted"], meta["rows_rejected"]) == (2, 1)

    def test_register_line_that_is_not_utf8_is_rejected_row(self, tmp_path):
        (tmp_path / "register.csv").write_bytes(
            b"customer_id,account_open_date\nc1,2010-01-01\nc\xff2,2011-01-01\nc3,2012-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
            "c3,a3,2014-03-08T12:00:00,10.00,credit,1,1,\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 0
        rejected = csv_rows(tmp_path / "rejected_rows.csv")
        assert [(r["source"], r["line_no"], r["reason"]) for r in rejected] == [
            ("register", "3", "line is not valid UTF-8")]
        assert [r["customer_id"] for r in csv_rows(tmp_path / "profiles.csv")] == ["c1", "c3"]

    def test_lines_that_are_not_utf8_count_against_the_error_cap(self, tmp_path, capsys):
        (tmp_path / "register.csv").write_text("customer_id,account_open_date\nc1,2010-01-01\n")
        (tmp_path / "transactions.csv").write_bytes(
            b"customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            b"counterparty_bank\n"
            + b"".join(b"c1,a\xfe,2014-03-0%dT12:00:00,1.00,debit,1,1,\n" % d for d in (1, 2, 3)))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"},
                                        "error_cap": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: aborted after 3 malformed rows (cap 2)\n"
        assert [r["line_no"] for r in csv_rows(tmp_path / "rejected_rows.csv")] == ["2", "3", "4"]

    @pytest.mark.parametrize("bad_file", ["transactions.csv", "register.csv"])
    def test_header_that_is_not_utf8_is_config_error(self, tmp_path, capsys, bad_file):
        (tmp_path / "register.csv").write_text("customer_id,account_open_date\nc1,2010-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\nc1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n")
        path = tmp_path / bad_file
        path.write_bytes(path.read_bytes().replace(b"customer_id", b"customer_\xffid", 1))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "header is not valid UTF-8" in err

    def test_semicolon_register_and_ledger_give_the_comma_profiles(self, tmp_path):
        register = "customer_id,account_open_date\nc1,2010-01-01\nc2,2012-06-30\n"
        ledger = (
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
            "c1,a1,2014-03-10T08:30:00,7.50,debit,2,1,BANK_02\n"
            "c2,a2,2014-05-01T00:00:00,120.00,credit,3,4,\n"
        )
        profiles = []
        for delimiter in (",", ";"):
            out = tmp_path / f"run{len(profiles)}"
            out.mkdir()
            (out / "register.csv").write_text(register.replace(",", delimiter))
            (out / "transactions.csv").write_text(ledger.replace(",", delimiter))
            (out / "config.json").write_text(json.dumps(
                {"window": {"start": "2014-01-01", "end": "2014-12-31"}, "delimiter": delimiter}))
            argv = ["--config", str(out / "config.json"), "--out-dir", str(out), "profile"]
            assert main(argv) == 0
            assert not (out / "rejected_rows.csv").exists()
            profiles.append((out / "profiles.csv").read_bytes())
        assert profiles[0] == profiles[1]

    @pytest.mark.parametrize("rate", ["txns_per_month", "bank_charges_per_month"])
    def test_rate_beyond_the_poisson_sampler_exits_two(self, tmp_path, capsys, rate):
        generator = synthgen.default_config(n_customers=20).to_json()
        if rate == "txns_per_month":
            generator["archetypes"][0][rate] = 1e300
        else:
            generator[rate] = 1e300
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"generator": generator}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "run"), "synth"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{rate} must be at most" in err

    def test_amount_beyond_int64_cents_is_rejected_row(self, tmp_path):
        (tmp_path / "register.csv").write_text("customer_id,account_open_date\nc1,2010-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
            "c1,a1,2014-03-09T12:00:00,99999999999999999999.00,debit,1,1,\n"
            "c1,a1,2014-03-10T12:00:00,92233720368547758.07,debit,1,1,\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 0
        rejected = csv_rows(tmp_path / "rejected_rows.csv")
        assert [r["line_no"] for r in rejected] == ["3"]
        assert "amount out of range" in rejected[0]["reason"]
        assert len(csv_rows(tmp_path / "profiles.csv")) == 1

    @pytest.mark.parametrize("bad_file", ["transactions.csv", "register.csv"])
    def test_error_cap_abort_writes_rejections_and_exits_two(self, tmp_path, capsys, bad_file):
        register = "customer_id,account_open_date\nc1,2010-01-01\n"
        ledger = ("customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
                  "counterparty_bank\nc1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n")
        if bad_file == "register.csv":
            register += "c2,yesterday\nc3,today\nc4,tomorrow\n"
        else:
            ledger += "".join(f"c1,a1,2014-03-0{d}T12:00:00,bogus,debit,1,1,\n" for d in (1, 2, 3))
        (tmp_path / "register.csv").write_text(register)
        (tmp_path / "transactions.csv").write_text(ledger)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"},
                                        "error_cap": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == "error: aborted after 3 malformed rows (cap 2)\n"
        assert [r["line_no"] for r in csv_rows(tmp_path / "rejected_rows.csv")] == ["3", "4", "5"]
        assert not (tmp_path / "profiles.csv").exists()
        assert not (tmp_path / "profile.manifest.json").exists()

    def test_account_opened_after_window_is_rejected_register_row(self, tmp_path):
        (tmp_path / "register.csv").write_text(
            "customer_id,account_open_date\nc1,2010-01-01\nc2,2015-06-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
            "c2,a2,2014-03-09T12:00:00,10.00,credit,1,1,\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 0
        rejected = [(r["line_no"], r["reason"]) for r in csv_rows(tmp_path / "rejected_rows.csv")]
        # c2's ledger row is dropped with its register row, not rejected again
        assert rejected == [
            ("3", "account_open_date 2015-06-01 is after the window end 2014-12-31"),
        ]
        profiles = csv_rows(tmp_path / "profiles.csv")
        assert [p["customer_id"] for p in profiles] == ["c1"]
        assert float(profiles[0]["account_age_years"]) >= 0

    @pytest.mark.parametrize("ranges", [1, 3])
    def test_bad_register_row_is_one_rejection(self, tmp_path, monkeypatch, ranges):
        """The ledger rows of a customer whose register row was rejected are
        dropped and counted, in every ledger range, and only the register
        row counts against the cap."""
        monkeypatch.setattr(ingest, "MIN_SPLIT_BYTES", 0)
        monkeypatch.setattr(parallel, "fork_allowed", True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)))
        (tmp_path / "register.csv").write_text(
            "customer_id,account_open_date\nA,2010-01-01\nB,2010-13-01\nC,2010-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            + "".join(f"{c},a{c},2014-03-0{d}T12:00:00,10.00,credit,1,1,\n"
                      for c in "ABC" for d in range(1, 6)))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"},
                                        "error_cap": 3}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 0
        rejected = [(r["source"], r["line_no"]) for r in csv_rows(tmp_path / "rejected_rows.csv")]
        assert rejected == [("register", "3")]
        assert [p["customer_id"] for p in csv_rows(tmp_path / "profiles.csv")] == ["A", "C"]
        meta = json.loads((tmp_path / "profiles.schema.json").read_text())["meta"]
        assert (meta["rows_accepted"], meta["rows_rejected"]) == (10, 0)
        assert meta["rows_of_rejected_customers"] == 5

    @pytest.mark.parametrize("error_cap", [100, 2])
    def test_rejected_rows_name_their_source_file(self, tmp_path, error_cap):
        # register line 3 and ledger lines 3-5 are bad; a cap of 2 aborts in the ledger
        (tmp_path / "register.csv").write_text(
            "customer_id,account_open_date\nc1,2010-01-01\nc2,2010-13-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
            "c1,a1,2014-03-09T12:00:00,bogus,debit,1,1,\n"
            "c1,a1,2014-03-10T12:00:00,bogus,debit,1,1,\n"
            "c1,a1,2014-03-11T12:00:00,bogus,debit,1,1,\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"},
                                        "error_cap": error_cap}))
        code = 0 if error_cap == 100 else 2
        if code:
            with pytest.raises(SystemExit) as exc:
                main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"])
            assert exc.value.code == code
        else:
            assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 0
        rejected = [(r["source"], r["line_no"]) for r in csv_rows(tmp_path / "rejected_rows.csv")]
        assert rejected == [("register", "3"), ("ledger", "3"), ("ledger", "4"), ("ledger", "5")]

    @pytest.mark.parametrize("discretize", [False, True])
    def test_ledger_with_no_accepted_row(self, tmp_path, capsys, discretize):
        (tmp_path / "register.csv").write_text("customer_id,account_open_date\nc1,2010-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "GHOST,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"},
                                        "discretize": discretize}))
        argv = ["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]
        if discretize:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "nothing to discretize" in capsys.readouterr().err
        else:
            assert main(argv) == 0
            assert csv_rows(tmp_path / "profiles.csv") == []
        assert len(csv_rows(tmp_path / "rejected_rows.csv")) == 1

    def test_rerun_without_rejections_removes_stale_file(self, tmp_path):
        (tmp_path / "register.csv").write_text("customer_id,account_open_date\nc1,2010-01-01\n")
        header = ("customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
                  "counterparty_bank\nc1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        argv = ["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]
        good = header + "c1,a1,2014-03-09T12:00:00,5.00,debit,1,1,\n"
        (tmp_path / "transactions.csv").write_text(good)
        assert main(argv) == 0
        assert not (tmp_path / "rejected_rows.csv").exists()
        (tmp_path / "transactions.csv").write_text(header + "c1,a1,2014-03-09T12:00:00,bogus,debit,1,1,\n")
        assert main(argv) == 0
        assert len(csv_rows(tmp_path / "rejected_rows.csv")) == 1
        (tmp_path / "transactions.csv").write_text(good)
        assert main(argv) == 0
        assert not (tmp_path / "rejected_rows.csv").exists()
        manifest = json.loads((tmp_path / "profile.manifest.json").read_text())
        assert "rejected_rows.csv" not in manifest["outputs"]

    def test_rerun_without_discretize_removes_stale_nominal_files(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"},
                                        "filter_policy": {"excluded_txn_type_codes": [99]}}))
        args = ["--config", str(cfg_path), "--out-dir", str(tmp_path)]
        assert main([*args, "--seed", "1", "synth", "--n-customers", "80"]) == 0
        assert main([*args, "profile", "--discretize"]) == 0
        assert main([*args, "cluster", "--k", "3"]) == 0
        assert (tmp_path / "labeled_profiles_nominal.csv").exists()
        assert main([*args, "--seed", "7", "synth", "--n-customers", "80"]) == 0
        assert main([*args, "profile"]) == 0
        for name in ("profiles_nominal.csv", "profiles_nominal.schema.json"):
            assert not (tmp_path / name).exists()
        assert main([*args, "cluster", "--k", "3"]) == 0
        assert not (tmp_path / "labeled_profiles_nominal.csv").exists()
        manifest = json.loads((tmp_path / "cluster.manifest.json").read_text())
        assert "labeled_profiles_nominal.csv" not in manifest["outputs"]
        assert "profiles_nominal.schema.json" not in manifest["inputs"]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*args, "rules", "--attribute-kind", "nominal"])
        assert exc.value.code == 2
        assert "missing labeled_profiles_nominal.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, stage, message", [
        ("profiles.csv", lambda lines: with_field(lines[2], 1, "abc"), ["sweep"],
         "profiles.csv: line 3: could not convert string to float: 'abc'"),
        ("labeled_profiles.csv", lambda lines: lines[4] + ",9", ["rules"],
         "labeled_profiles.csv: line 5: 21 fields, expected 20"),
        ("profiles.csv", lambda lines: lines[0].replace("total_credited,total_debited",
                                                        "total_debited,total_credited"),
         ["cluster"], "profiles.csv: line 1: profile header"),
        ("labeled_profiles.csv", lambda lines: with_field(lines[3], -1, "x1"), ["eval"],
         "labeled_profiles.csv: line 4: invalid literal for int() with base 10: 'x1'"),
        ("labeled_profiles.csv", lambda lines: with_field(lines[3], -1, str(2**70)), ["rules"],
         f"labeled_profiles.csv: line 4: label {2**70} does not fit in 64 bits"),
        ("profiles.schema.json", '{\n  "schema": ', ["sweep"],
         "profiles.schema.json: Expecting value: line 2 column 13"),
        ("profiles_nominal.schema.json", '{\n  "schema": ', ["cluster"],
         "profiles_nominal.schema.json: Expecting value: line 2 column 13"),
        ("profiles.schema.json", "[]", ["sweep"],
         "profiles.schema.json: the schema sidecar is not a JSON object"),
        ("profiles_nominal.schema.json", '{"schema": {"attributes": []}}', ["cluster"],
         "profiles_nominal.schema.json: no discretization"),
    ], ids=["value", "row_width", "header", "label", "label_beyond_int64", "sidecar",
            "nominal_sidecar", "sidecar_not_object", "nominal_sidecar_without_cuts"])
    def test_malformed_profile_file_is_one_line_diagnostic(self, pipeline_dir, tmp_path, capsys,
                                                          name, edit, stage, message):
        out, _ = pipeline_dir
        for path in out.glob("*profiles*"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        if isinstance(edit, str):  # a whole new sidecar
            (tmp_path / name).write_text(edit)
        else:
            lines = (tmp_path / name).read_text().splitlines()
            line_no = int(message.split("line ")[1].split(":")[0])
            lines[line_no - 1] = edit(lines)
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), *stage])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / name}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "cluster_model.json").exists()  # a failed cluster writes no model

    @pytest.mark.parametrize("name, text, stage, message", [
        ("ruleset.json", '{"algorithm": "part"}', "export-kb", "no key 'rules'"),
        ("generator_config.json", '{"seed": 1}', "profile", "no key 'window'"),
        ("generator_config.json", '{\n  "window": ', "profile",
         "Expecting value: line 2 column 13"),
    ], ids=["ruleset_without_rules", "generator_config_without_window",
            "generator_config_not_json"])
    def test_malformed_stage_json_is_one_line_diagnostic(self, pipeline_dir, tmp_path, capsys,
                                                         name, text, stage, message):
        out, _ = pipeline_dir
        for ledger in ("transactions.csv", "register.csv"):
            (tmp_path / ledger).write_bytes((out / ledger).read_bytes())
        (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), stage])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / name}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("stage, message", [
        (["sweep"], "error: cannot sweep k in 2..10 over 1 profiles: k must lie within [2, 0]\n"),
        (["cluster", "--k", "2"], "error: cannot cluster 1 profiles into k=2: only 1 are distinct\n"),
    ])
    def test_too_few_profiles_is_one_line_diagnostic(self, tmp_path, capsys, stage, message):
        (tmp_path / "register.csv").write_text("customer_id,account_open_date\nc1,2010-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": {"start": "2014-01-01", "end": "2014-12-31"}}))
        args = ["--config", str(cfg_path), "--out-dir", str(tmp_path)]
        assert main([*args, "profile"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*args, *stage])
        assert exc.value.code == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("window", [
        {"start": "2014-01-01T00:00:00+02:00", "end": "2014-12-31"},
        {"start": "2014-01-01T00:00:00+02:00", "end": "2014-12-31T23:59:59+02:00"},
    ])
    def test_offset_window_bound_is_config_error(self, tmp_path, capsys, window):
        (tmp_path / "register.csv").write_text("customer_id,account_open_date\nc1,2010-01-01\n")
        (tmp_path / "transactions.csv").write_text(
            "customer_id,account_id,timestamp,amount,direction,service_code,txn_type_code,"
            "counterparty_bank\n"
            "c1,a1,2014-03-08T12:00:00,10.00,credit,1,1,\n"
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window": window}))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "profile"]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, options", [
        ("rules", "rules", {"min_instance": 5}),
        ("grid", "rules", {"min_instance": 5}),
        ("eval", "split", {"folds_typo": 5}),
        ("cluster", "clustering", {"runz": 3}),
        ("sweep", "clustering", {"runz": 3}),
        ("grid", "grid", {"min_instance": [None]}),
        ("profile", "filter_policy", {"excluded": [99]}),
        ("profile", "window", {"begin": "2014-01-01"}),
        ("profile", "column_mapping", {"customer": "id"}),
        ("profile", "register_mapping", {"opened": "open_date"}),
        ("synth", "generator", {"n_customer": 10}),
        ("synth", "generator.archetypes[0]", {"nam": "x"}),
        ("profile", "top-level", {"discretise": True}),
        ("export-kb", "top-level", {"phsae": 1}),
    ])
    def test_unknown_section_option_exits_two(self, pipeline_dir, tmp_path, capsys,
                                              command, section, options):
        out, _ = pipeline_dir
        cfg_path = tmp_path / "config.json"
        config = {"top-level": options,
                  "generator.archetypes[0]": {"generator": {"archetypes": [options]}}}
        cfg_path.write_text(json.dumps(config.get(section, {section: options})))
        assert main(["--config", str(cfg_path), "--out-dir", str(out), command]) == 2
        assert f"unknown {section} options in config: {sorted(options)}" in capsys.readouterr().err

    @pytest.mark.parametrize("config, argv, message", [
        ({"clustering": {"distance": "manhatan"}}, ["cluster"], "distance must be"),
        ({"clustering": {"k": "seven"}}, ["cluster"], "clustering.k must be an integer"),
        ({"clustering": {"runs": 1}}, ["sweep"], "sweep needs clustering.runs >= 2"),
        ({"clustering": {"k_range": [5, 3]}}, ["sweep"], "k_range must be [lo, hi]"),
        ({"clustering": {"k_range": [2]}}, ["sweep"], "k_range must be [lo, hi]"),
        ({"clustering": {"seed": -1}}, ["cluster"], "seed >= 0"),
        ({}, ["cluster", "--runs", "0"], "runs and max_iter must be >= 1"),
        ({}, ["sweep", "--k-range", "5:3"], "k_range must be [lo, hi]"),
        ({"split": {"mode": "cv"}}, ["eval"], "unknown split mode 'cv'"),
        ({"split": {"folds": 10.5}}, ["eval"], "split.folds must be an integer"),
        ({"rules": {"min_instances": 0}}, ["rules"], "min_instances must be >= 1"),
        ({"rules": {"algorithm": "c45"}}, ["rules"], "unknown algorithm 'c45'"),
        ({"rules": {"reduced_error_pruning": "yes"}}, ["grid"], "must be true or false"),
        ({"grid": {"min_instances": ["many"]}}, ["grid"], "min_instances must list integers"),
        ({"grid": {"sweep_steps": None}}, ["grid", "--sweep"], "sweep_steps must be an integer"),
        ({"error_cap": "many"}, ["profile"], "error_cap must be an integer, got 'many'"),
        ({"phase": 3}, ["profile"], "phase must be 1 or 2, got 3"),
        ({"discretize": 1}, ["profile"], "discretize must be true or false"),
        ({"filter_policy": {"excluded_txn_type_codes": 99}}, ["profile"], "must be a list"),
        ({"window": {"start": 2014, "end": "2014-12-31"}}, ["profile"], "bad window spec"),
        ({"window": ["2014-01-01", "2014-12-31"]}, ["profile"], "window must be a JSON object"),
        ({"generator": {"n_customers": 10}}, ["synth"], "missing 2 required"),
        ([], ["synth"], "the config must be a JSON object"),
    ])
    def test_bad_config_value_exits_two(self, tmp_path, capsys, config, argv, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "run"), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err

    def test_sweep_honours_max_iter(self, pipeline_dir, tmp_path):
        out, _ = pipeline_dir
        sweeps = []
        for max_iter in (1, 500):
            cfg_path = tmp_path / f"config_{max_iter}.json"
            cfg_path.write_text(json.dumps({"clustering": {"max_iter": max_iter}}))
            argv = ["--config", str(cfg_path), "--out-dir", str(out)]
            assert main([*argv, "sweep", "--k-range", "2:4", "--runs", "2"]) == 0
            manifest = json.loads((out / "sweep.manifest.json").read_text())
            assert manifest["params"]["max_iter"] == max_iter
            sweeps.append((out / "sweep.csv").read_text())
        assert sweeps[0] != sweeps[1]

    @pytest.mark.parametrize("command", ["rules", "eval"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_ripper_refuses_reduced_error_pruning(self, pipeline_dir, tmp_path, capsys,
                                                  command, source):
        out, _ = pipeline_dir
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"rules": {"reduced_error_pruning": True}} if source == "config" else {}))
        argv = ["--config", str(cfg_path), "--out-dir", str(out), command, "--algorithm", "ripper"]
        if source == "flag":
            argv.append("--reduced-error-pruning")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--reduced-error-pruning" in capsys.readouterr().err


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(amlprofiler.__file__).resolve().parent.parent)
        code = (
            "import sys, amlprofiler.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_profile_runs_under_cprofile(self, tmp_path):
        src = str(Path(amlprofiler.__file__).resolve().parent.parent)
        config = Path(__file__).resolve().parents[1] / "configs" / "pipeline.example.json"
        args = ["--config", str(config), "--out-dir", str(tmp_path)]
        assert main([*args, "synth", "--n-customers", "30"]) == 0
        out = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "profile.prof"),
             "-m", "amlprofiler.cli", *args, "profile"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        # the runner exits 0 whatever the stage returned, so look at what it left
        assert "error:" not in out.stderr
        assert (tmp_path / "profiles.csv").exists()


class TestDeterminism:
    def test_synth_profile_rerun_identical(self, tmp_path):
        config = {
            "window": {"start": "2014-01-01", "end": "2014-12-31"},
            "filter_policy": {"excluded_txn_type_codes": [99]},
        }
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg_path = tmp_path / f"cfg_{run}.json"
            cfg_path.write_text(json.dumps(config))
            args = ["--config", str(cfg_path), "--out-dir", str(out)]
            assert main([*args, "synth", "--n-customers", "80"]) == 0
            assert main([*args, "profile"]) == 0
            hashes.append(
                tuple(
                    sha256_file(out / name)
                    for name in ("transactions.csv", "register.csv", "profiles.csv")
                )
            )
        assert hashes[0] == hashes[1]
