import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amlprofiler

from amlprofiler import parallel
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
        assert rejected == [
            ("3", "account_open_date 2015-06-01 is after the window end 2014-12-31"),
            ("3", "customer 'c2' not in register"),
        ]
        profiles = csv_rows(tmp_path / "profiles.csv")
        assert [p["customer_id"] for p in profiles] == ["c1"]
        assert float(profiles[0]["account_age_years"]) >= 0

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
    ])
    def test_unknown_section_option_exits_two(self, pipeline_dir, tmp_path, capsys,
                                              command, section, options):
        out, _ = pipeline_dir
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({section: options}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out-dir", str(out), command])
        assert exc.value.code == 2
        assert f"unknown {section} options in config: {sorted(options)}" in capsys.readouterr().err


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
