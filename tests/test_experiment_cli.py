import csv
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from vcdetect import cli, experiment
from vcdetect.detector import Decision, Outcome
from vcdetect.experiment import (
    PRESETS,
    TrajectoryRecord,
    derive_trial_seed,
    load_experiment_config,
    run_experiment,
    summarize,
    write_records_csv,
)
from vcdetect.scenario import ScenarioConfig, make_scenario, sample_stream

SMALL_DOC = {
    "scenario": {"n": 32, "d1": 4, "d2": 2, "snr_db": 5.0, "seed": 99},
    "trials": 3,
    "max_samples": 25,
    "detector": {
        "use_noise_hint": True,
        "divergence_threshold": 50.0,
        "stall_epsilon": 0.005,
        "stall_patience": 8,
    },
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "vcdetect", *args],
        capture_output=True,
        text=True,
    )


class TestTrialSeeding:
    def test_deterministic(self):
        assert derive_trial_seed(7, 3, True) == derive_trial_seed(7, 3, True)

    def test_distinct_across_trials_and_hypotheses(self):
        seeds = {
            derive_trial_seed(7, t, h) for t in range(100) for h in (True, False)
        }
        assert len(seeds) == 200


class TestRunExperiment:
    def test_record_layout(self):
        cfg = load_experiment_config(SMALL_DOC, master_seed=1)
        records = run_experiment(cfg)
        trials = {(r.hypothesis, r.trial_id) for r in records}
        assert trials == {(h, t) for h in ("target_present", "target_absent") for t in range(3)}
        for r in records:
            assert r.inv_T >= 1.0 - 1e-12
            assert 0.0 <= r.T <= 1.0 + 1e-12

    def test_serial_equals_parallel(self, tmp_path):
        doc = dict(SMALL_DOC)
        cfg1 = load_experiment_config({**doc, "parallelism": 1}, master_seed=5)
        cfg4 = load_experiment_config({**doc, "parallelism": 4}, master_seed=5)
        p1 = tmp_path / "serial.csv"
        p4 = tmp_path / "parallel.csv"
        write_records_csv(run_experiment(cfg1), p1)
        write_records_csv(run_experiment(cfg4), p4)
        assert p1.read_bytes() == p4.read_bytes()

    def test_summary_recomputable_from_csv(self, tmp_path):
        cfg = load_experiment_config(SMALL_DOC, master_seed=2)
        records = run_experiment(cfg)
        summary = summarize(records)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        finals = {}
        for row in rows:
            key = (row["hypothesis"], int(row["trial_id"]))
            cur = finals.get(key)
            if cur is None or int(row["i"]) > cur[0]:
                finals[key] = (int(row["i"]), float(row["inv_T"]))
        for hyp in ("target_present", "target_absent"):
            med = statistics.median(v[1] for k, v in finals.items() if k[0] == hyp)
            assert summary[hyp]["median_final_inv_t"] == pytest.approx(med)

    @staticmethod
    def loop_summary_quantiles(rows, depth):
        """Per-m quantiles of 1/T as first written: one scan and one quantile per (q, m)."""
        return {
            str(q): [
                float(np.quantile([r.inv_T for r in rows if r.i == m], q))
                for m in range(1, depth + 1)
            ]
            for q in (0.1, 0.5, 0.9)
        }

    def test_summary_quantiles_match_loop(self):
        rng = np.random.default_rng(41)
        synthetic = []
        for hyp in ("target_present", "target_absent"):
            for trial, length in zip(range(10, 15), [7, 3, 12, 5, 9]):
                inv_t = np.round(np.exp(rng.standard_normal(length)), 2)  # ties too
                synthetic += [
                    TrajectoryRecord(trial, hyp, i, 1.0 / v, float(v), i,
                                     "target_absent" if i == length == 12 else "")
                    for i, v in enumerate(inv_t, start=1)
                ]
        rng.shuffle(synthetic)
        simulated = run_experiment(load_experiment_config(SMALL_DOC, master_seed=3))
        for records in (synthetic, simulated, simulated + synthetic):
            summary = summarize(records)
            want = json.loads(json.dumps(summary))
            for hyp in ("target_present", "target_absent"):
                rows = [r for r in records if r.hypothesis == hyp]
                lengths = {}
                for r in rows:
                    lengths[r.trial_id] = max(lengths.get(r.trial_id, 0), r.i)
                want[hyp]["inv_t_quantiles"] = self.loop_summary_quantiles(rows, min(lengths.values()))
            assert json.dumps(summary, indent=2) == json.dumps(want, indent=2)

    @pytest.mark.parametrize("use_hint", [True, False])
    def test_runs_each_hypothesis_detector_config(self, monkeypatch, use_hint):
        # Without the hint no rank threshold is formed, so gamma = 1e308 loads
        # at -20 dB, where it would overflow gamma * sigma^2.
        doc = {**SMALL_DOC, "detector": {**SMALL_DOC["detector"], "use_noise_hint": use_hint}}
        if not use_hint:
            doc["scenario"] = {**SMALL_DOC["scenario"], "snr_db": -20.0}
            doc["detector"]["rank_gap_factor"] = 1e308
        cfg = load_experiment_config(doc)
        seen = []

        def capture(det_cfg, stream):
            seen.append(det_cfg)
            return Decision(Outcome.UNDECIDED), []

        monkeypatch.setattr(experiment, "run_stream", capture)
        assert run_experiment(cfg) == []
        assert len(seen) == 2 * cfg.trials
        for present, runs in ((True, seen[:cfg.trials]), (False, seen[cfg.trials:])):
            assert all(run is runs[0] for run in runs)
            sc = make_scenario(replace(cfg.scenario, target_present=present))
            want = cfg.detector_config(present, sc.target_basis)
            np.testing.assert_array_equal(runs[0].target_basis.basis, want.target_basis.basis)
            names = [f.name for f in fields(want) if f.name != "target_basis"]
            assert [getattr(runs[0], n) for n in names] == [getattr(want, n) for n in names]
            hint = runs[0].noise_variance_hint
            if use_hint:
                assert hint.hex() == (sc.noise_std**2).hex()
            else:
                assert hint is None

    def test_numpy_integers_give_the_same_run(self, tmp_path):
        # Configs built in code may carry numpy integers; they pass the same
        # integer rule as DetectorConfig's, and the seed chain masks int(seed).
        doc = {**PRESETS["fig1_desk"], "trials": 3}
        wrapped = {**doc, "trials": np.int64(3), "scenario": {
            **doc["scenario"], **{k: np.int64(doc["scenario"][k]) for k in ("n", "d1", "seed")}}}
        outputs = []
        for d, seed in ((doc, 4), (wrapped, np.int64(4))):
            records = run_experiment(load_experiment_config(d, master_seed=seed))
            path = tmp_path / f"run{len(outputs)}.csv"
            write_records_csv(records, path)
            outputs.append((path.read_bytes(), json.dumps(summarize(records), indent=2)))
        assert outputs[0][0].count(b"\n") > 1
        assert outputs[1] == outputs[0]

    def test_presets_load(self):
        for name in ("fig1_full", "fig1_desk"):
            cfg = load_experiment_config(PRESETS[name], master_seed=0)
            assert cfg.trials >= 50


class TestSimulateCli:
    def test_byte_identical_reruns(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SMALL_DOC))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        r1 = run_cli("simulate", "--config", str(config), "--seed", "11", "--out", str(out1))
        r2 = run_cli("simulate", "--config", str(config), "--seed", "11", "--out", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "trial_id,hypothesis,i,T,inv_T,k_i,decision"
        summary = json.loads((tmp_path / "a.csv.summary.json").read_text())
        assert "target_present" in summary

    def test_invalid_config_exits_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"scenario": {"n": 4, "d1": 3, "d2": 2, "snr_db": 0}}))
        r = run_cli("simulate", "--config", str(config))
        assert r.returncode == 2
        assert "error" in r.stderr

    @pytest.mark.parametrize(
        "block, key",
        [
            ({"stall_epsilom": 0.005}, "stall_epsilom"),
            ({"max_samples": 10}, "max_samples"),
            ({"zero_volume_tol": 1e-8}, "zero_volume_tol"),
            ({"divergence_threshold": "abc"}, "divergence_threshold"),
            ({"stall_patience": 7.5}, "stall_patience"),
            ({"use_noise_hint": 1}, "use_noise_hint"),
            ([["stall_patience", 8]], "detector"),
        ],
    )
    def test_bad_detector_block_exits_2(self, tmp_path, block, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**SMALL_DOC, "detector": block}))
        r = run_cli("simulate", "--config", str(config))
        assert r.returncode == 2
        assert key in r.stderr and "Traceback" not in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rank_gap_factor", math.inf),
            ("divergence_threshold", 1),
            ("divergence_threshold", 0.5),
            ("stall_epsilon", 0),
            ("stall_patience", 0),
            ("rank_gap_factor", 1e308),
            ("stall_patience", True),
            ("stall_patience", 7.5),
            ("stall_epsilon", "x"),
        ],
    )
    def test_out_of_range_detector_value_exits_2_at_load(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        # Without the load-time range check these passed the block's type
        # check and were caught only when run_experiment built the detector
        # config, after a scenario was drawn and without the config prefix.
        # The last three are type errors, caught by the same DetectorConfig.
        # At -20 dB the hint is 18.75 (present) or 12.5 (absent), so gamma =
        # 1e308 overflows the rank threshold; SMALL_DOC's 0.06 would not.
        def no_scenario(cfg):
            raise AssertionError("a scenario was drawn")

        monkeypatch.setattr(experiment, "make_scenario", no_scenario)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            **SMALL_DOC,
            "scenario": {**SMALL_DOC["scenario"], "snr_db": -20.0},
            "detector": {**SMALL_DOC["detector"], key: value},
        }))
        assert cli.main(["simulate", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert "invalid experiment config:" in err and key in err
        assert out == ""

    @pytest.mark.parametrize(
        "doc, key",
        [
            ([1, 2], "config"),
            ({**SMALL_DOC, "scenario": [1]}, "scenario"),
            ({**SMALL_DOC, "trials": None}, "trials"),
            ({**SMALL_DOC, "parallelism": None}, "parallelism"),
            ({**SMALL_DOC, "seed": None}, "seed"),
            ({**SMALL_DOC, "max_samples": 2.5}, "max_samples"),
            ({**SMALL_DOC, "parallelism": 0}, "parallelism"),
            ({**SMALL_DOC, "paralelism": 3}, "paralelism"),
            ({**SMALL_DOC, "max_samples": 0}, "max_samples"),
            ({**SMALL_DOC, "max_samples": True}, "max_samples"),
            ({k: v for k, v in SMALL_DOC.items() if k != "trials"}, "missing config key 'trials'"),
            ({**SMALL_DOC, "scenario": {k: v for k, v in SMALL_DOC["scenario"].items() if k != "n"}},
             "missing scenario key 'n'"),
        ],
    )
    def test_config_of_wrong_shape_exits_2(self, tmp_path, doc, key):
        # Without the checks the first five exited 1 with a TypeError
        # traceback, a fractional budget ran truncated to 2 samples, and a
        # misspelt top-level key was ignored. A missing key was named only
        # by its bare repr, with no word that it was missing.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        r = run_cli("simulate", "--config", str(config))
        assert r.returncode == 2
        assert key in r.stderr and "Traceback" not in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf"), -3100.0])
    def test_snr_not_a_level_exits_2(self, tmp_path, snr_db):
        # Without the check the first two ran as a noiseless experiment and
        # exited 0, and -3100 dB exited 1 with an OverflowError traceback.
        doc = {**SMALL_DOC, "detector": {**SMALL_DOC["detector"], "use_noise_hint": False}}
        doc["scenario"] = {**SMALL_DOC["scenario"], "snr_db": snr_db}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        r = run_cli("simulate", "--config", str(config))
        assert r.returncode == 2
        assert "snr_db" in r.stderr and "Traceback" not in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("n", None, "ambient_dim"),
            ("snr_db", None, "snr_db"),
            ("snr_db", [1], "snr_db"),
            ("n", 8.7, "ambient_dim"),
            ("seed", 1.5, "seed"),
            ("n", True, "ambient_dim"),
            ("hypothesis", "target_present", "hypothesis"),
        ],
    )
    def test_bad_scenario_block_exits_2(self, tmp_path, field, value, name):
        # Without the type checks the first three exited 1 with a TypeError
        # traceback, 8.7 and 1.5 ran truncated, true ran as n = 1 and the
        # hypothesis was accepted and ignored.
        doc = {**SMALL_DOC, "scenario": {**SMALL_DOC["scenario"], field: value}}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        r = run_cli("simulate", "--config", str(config))
        assert r.returncode == 2
        assert name in r.stderr and "Traceback" not in r.stderr
        assert r.stdout == ""

    def test_missing_config_file_exits_2(self):
        r = run_cli("simulate", "--config", "/nonexistent/cfg.json")
        assert r.returncode == 2

    def test_unwritable_output_exits_3(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SMALL_DOC))
        r = run_cli("simulate", "--config", str(config), "--out", "/nonexistent/dir/out.csv")
        assert r.returncode == 3


class TestDetectCli:
    def make_files(self, tmp_path, present=True, n=20, d1=5, d2=2, count=12, noiseless=True):
        snr = float("inf") if noiseless else 5.0
        sc = make_scenario(ScenarioConfig(n, d1, d2, snr, present, 17))
        rng = np.random.default_rng(18)
        rows = list(sample_stream(sc, rng, count))
        samples = tmp_path / "samples.csv"
        with open(samples, "w") as fh:
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        basis = tmp_path / "basis.csv"
        with open(basis, "w") as fh:
            for row in sc.target_basis.basis:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return samples, basis, sc, rows

    def test_noiseless_present_detected_by_breakpoint(self, tmp_path):
        samples, basis, _, _ = self.make_files(tmp_path, present=True)
        r = run_cli("detect", "--samples", str(samples), "--target-basis", str(basis), "--sigma2", "0")
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["decision"] == "target_present"
        assert report["decided_at"] <= 6  # d1 + 1

    def test_round_trip_matches_library(self, tmp_path):
        from vcdetect.detector import DetectorConfig, run_stream

        samples, basis, sc, rows = self.make_files(tmp_path, present=False)
        r = run_cli("detect", "--samples", str(samples), "--target-basis", str(basis), "--sigma2", "0")
        assert r.returncode == 0
        report = json.loads(r.stdout)
        cfg = DetectorConfig(
            target_basis=sc.target_basis, noise_variance_hint=0.0, max_samples=len(rows)
        )
        dec, traj = run_stream(cfg, rows)
        assert report["decision"] == dec.variant.value
        assert report["decided_at"] == dec.decided_at
        assert report["final_inv_T"] == pytest.approx(traj[-1][2])

    def test_trace_output(self, tmp_path):
        samples, basis, _, _ = self.make_files(tmp_path, present=True)
        trace = tmp_path / "trace.csv"
        r = run_cli(
            "detect", "--samples", str(samples), "--target-basis", str(basis),
            "--sigma2", "0", "--trace", str(trace),
        )
        assert r.returncode == 0
        assert trace.read_text().splitlines()[0] == "i,T,inv_T,k_i,decision"

    def test_non_orthonormal_basis_rejected_with_column(self, tmp_path):
        samples, basis, _, _ = self.make_files(tmp_path)
        rows = basis.read_text().splitlines()
        cols = rows[0].split(",")
        cols[1] = repr(float(cols[1]) + 0.5)
        rows[0] = ",".join(cols)
        basis.write_text("\n".join(rows) + "\n")
        r = run_cli("detect", "--samples", str(samples), "--target-basis", str(basis))
        assert r.returncode == 2
        assert "column" in r.stderr

    def test_small_orthonormality_defect_names_column(self, tmp_path):
        # A 2e-9 defect is above the 1e-10 budget of SubspaceBasis, so it
        # must be rejected, and the message names the column.
        samples, basis, sc, _ = self.make_files(tmp_path)
        B = sc.target_basis.basis.copy()
        B[:, 1] *= 1.0 + 1e-9
        basis.write_text("".join(",".join(map(repr, row)) + "\n" for row in B.tolist()))
        r = run_cli("detect", "--samples", str(samples), "--target-basis", str(basis))
        assert r.returncode == 2
        assert "target basis" in r.stderr and "(column 1)" in r.stderr
        assert r.stdout == ""

    def test_nan_noise_variance_exits_2(self, tmp_path):
        # A NaN hint would make every rank threshold NaN, k_i stay 0 and 1/T
        # stay 1, which stalls into a silent target_absent.
        samples, basis, _, _ = self.make_files(tmp_path, present=False, noiseless=False)
        r = run_cli("detect", "--samples", str(samples), "--target-basis", str(basis), "--sigma2", "nan")
        assert r.returncode == 2
        assert "noise_variance_hint" in r.stderr
        assert r.stdout == ""

    def test_infinite_rank_gap_factor_exits_2(self, tmp_path):
        # gamma = inf made the rank threshold NaN at a zero hint, and a
        # target-absent stream decided target_present; with a positive hint
        # k stayed 0 and every trial read absent, as it did at the default
        # gamma with a hint of 1e308, whose threshold 2e308 is inf too.
        samples, basis, _, _ = self.make_files(tmp_path, present=False, noiseless=False)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**SMALL_DOC, "detector": {"rank_gap_factor": float("inf")}}))
        for args in (
            ("detect", "--samples", str(samples), "--target-basis", str(basis), "--gamma", "inf"),
            ("detect", "--samples", str(samples), "--target-basis", str(basis), "--sigma2", "1e308"),
            ("simulate", "--config", str(config)),
        ):
            r = run_cli(*args)
            assert r.returncode == 2, args
            assert "rank_gap_factor" in r.stderr and "Traceback" not in r.stderr
            assert r.stdout == ""

    def test_non_finite_sample_rejected_with_row(self, tmp_path):
        # A nan parses as a float; without the check the stream ran on and
        # exited 0 as "undecided" or failed inside LAPACK.
        samples, basis, _, _ = self.make_files(tmp_path)
        rows = samples.read_text().splitlines()
        rows[2] = ",".join(["nan"] + rows[2].split(",")[1:])
        samples.write_text("\n".join(rows) + "\n")
        r = run_cli("detect", "--samples", str(samples), "--target-basis", str(basis))
        assert r.returncode == 2
        assert "row 3" in r.stderr and "non-finite" in r.stderr
        assert r.stdout == ""

    def test_sample_overflowing_the_scatter_exits_2(self, tmp_path):
        # A 1e200 entry parses as a finite float, but its square does not.
        # It used to overflow the scatter with four RuntimeWarnings, and this
        # stream exited 0 as target_present.
        samples, basis, _, _ = self.make_files(tmp_path)
        rows = samples.read_text().splitlines()
        rows[2] = ",".join(["1e200"] + rows[2].split(",")[1:])
        samples.write_text("\n".join(rows) + "\n")
        r = run_cli("detect", "--samples", str(samples), "--target-basis", str(basis), "--sigma2", "0")
        assert r.returncode == 2
        assert "sample 3 overflows the scatter" in r.stderr
        assert "RuntimeWarning" not in r.stderr and "did not converge" not in r.stderr
        assert r.stdout == ""

    def test_zero_max_samples_exits_2(self, tmp_path):
        # 0 used to read as "unset" and ran every sample.
        samples, basis, _, _ = self.make_files(tmp_path, count=4)
        r = run_cli(
            "detect", "--samples", str(samples), "--target-basis", str(basis), "--max-samples", "0"
        )
        assert r.returncode == 2
        assert "max_samples" in r.stderr
        assert r.stdout == ""

    def test_inverse_statistic_at_cap_exits_0(self, tmp_path):
        # Sample j is e_j + eps e_{30+j}, so log T reaches -709.9 at sample
        # 30; exp(709.9) overflowed and the command exited 1 with a traceback.
        n, d = 64, 30
        eye = np.eye(n)
        samples, basis = tmp_path / "samples.csv", tmp_path / "basis.csv"
        rows = eye[:d] + math.exp(-709.9 / d) * eye[d : 2 * d]
        samples.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        basis.write_text("".join(",".join(map(repr, row)) + "\n" for row in eye[:, :d].tolist()))
        r = run_cli(
            "detect", "--samples", str(samples), "--target-basis", str(basis),
            "--sigma2", "0", "--t-div", "1e308", "--stall-patience", "100",
        )
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["final_inv_T"] == 1e308

    def test_ragged_rows_rejected(self, tmp_path):
        samples, basis, _, _ = self.make_files(tmp_path)
        with open(samples, "a") as fh:
            fh.write("1.0,2.0\n")
        r = run_cli("detect", "--samples", str(samples), "--target-basis", str(basis))
        assert r.returncode == 2
        assert "row" in r.stderr


class TestBoundCli:
    def test_worked_example(self):
        r = run_cli(
            "bound", "--hypothesis", "present", "--eigs", "3,2", "--sigma2", "1",
            "--n", "10", "--delta", "0.1", "--eps", "0.5", "--d2", "1",
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["m_required"] == 21408
        assert doc["deviation_bound"] == pytest.approx(0.1)

    def test_delta_three_reduces_multiplier(self):
        # delta = 3 makes (sqrt(delta+1) - 1)^2 = 1, so m = ceil((1+eps) * sums)
        r = run_cli(
            "bound", "--hypothesis", "absent", "--eigs", "3", "--sigma2", "1",
            "--n", "5", "--delta", "3", "--eps", "0.5",
        )
        doc = json.loads(r.stdout)
        assert doc["m_required"] == 5  # ceil(1.5 * 4 * 3/4)
        assert doc["deviation_bound"] is None

    def test_repeated_eigenvalues_exit_2(self):
        r = run_cli(
            "bound", "--hypothesis", "present", "--eigs", "3,3", "--sigma2", "1",
            "--n", "10", "--delta", "0.1", "--eps", "0.5",
        )
        assert r.returncode == 2
        assert "distinct" in r.stderr

    def test_missing_flag_usage_error(self):
        r = run_cli("bound", "--hypothesis", "present", "--eigs", "3,2")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--delta", "inf", "delta"),
            ("--delta", "nan", "delta"),
            ("--n", "1", "ambient_dim"),
            ("--n", "-5", "ambient_dim"),
            ("--d2", "-3", "target_dim"),
            ("--sigma2", "nan", "noise_variance"),
            ("--sigma2", "inf", "noise_variance"),
            ("--eigs", "3,nan", "eigenvalues"),
            ("--eigs", "inf,2", "eigenvalues"),
            ("--eigs", "0.5,0.2", "no --eigs value lies above --sigma2 1.0"),
            ("--eps", "1.5", "epsilon"),
            ("--eps", "0", "epsilon"),
            ("--eps", "nan", "epsilon"),
            ("--eigs", "2,3", "sorted"),
        ],
    )
    def test_nonsense_input_exits_2(self, flag, value, name):
        # Without the checks these printed m_required 1, 5825 or (a NaN
        # eigenvalue counted as noise) 4251, a deviation bound of 1000, or a
        # message that did not name delta or the eigenvalues, or (no eigenvalue
        # above sigma2) named BoundInputs' signal_rank, which no flag sets. The
        # flag comes last, so it overrides the valid value before it.
        r = run_cli(
            "bound", "--hypothesis", "present", "--eigs", "3,2", "--sigma2", "1",
            "--n", "10", "--delta", "0.1", "--eps", "0.5", "--d2", "1", flag, value,
        )
        assert r.returncode == 2
        assert name in r.stderr and "Traceback" not in r.stderr
        assert r.stdout == ""

    def test_k_flag_is_refused(self, capsys):
        # The signal rank is the count of --eigs above --sigma2; a --k could
        # only repeat that count or fail BoundInputs' check of it.
        with pytest.raises(SystemExit) as exc:
            cli.main([*BOUND_ARGS, "--k", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 2" in capsys.readouterr().err


BOUND_ARGS = [
    "bound", "--hypothesis", "present", "--eigs", "3,2", "--sigma2", "1",
    "--n", "10", "--delta", "0.1", "--eps", "0.5", "--d2", "1",
]


class TestBlasThreads:
    """The CLI runs each subcommand at one OpenBLAS thread, unless the
    environment sets a count, and leaves the caller's count as it found it."""

    @pytest.fixture
    def threads(self, monkeypatch):
        """The real (get, set) pair, with the count at 2 for the test."""
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        found = cli._openblas_threads()
        if found is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread functions")
        get, put = found
        original = get()
        # 2, not the default, so that a missing restore shows on one core too.
        put(2)
        yield get
        put(original)

    def test_output_does_not_depend_on_thread_count(self, tmp_path):
        # perfbench's full_sim geometry at seed 0. Before the CLI pinned one
        # thread, the default count changed 22 of the 400 rows in the last
        # digits on a 2-core machine. On one core both runs use one thread.
        doc = {
            "scenario": {"n": 1024, "d1": 40, "d2": 10, "snr_db": -10.0, "seed": 20240801},
            "trials": 1,
            "max_samples": 200,
            "detector": {
                "use_noise_hint": True,
                "rank_gap_factor": 2.0,
                "divergence_threshold": 1e308,
                "stall_epsilon": 0.016,
                "stall_patience": 200,
            },
        }
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
        outs = []
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            out = tmp_path / f"run{len(outs)}.csv"
            r = subprocess.run(
                [sys.executable, "-m", "vcdetect", "simulate", "--config", str(config),
                 "--seed", "0", "--out", str(out)],
                capture_output=True, text=True, env={**env, **extra},
            )
            assert r.returncode == 0, r.stderr
            outs.append(out.read_bytes())
        assert outs[0].count(b"\n") == 401
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("count", [None, "2"])
    def test_detect_trace_matches_library_run(self, threads, tmp_path, count):
        # detect hands run_stream the whole array, which it reads ahead at
        # one thread (the CLI's count) with two or more CPUs, and not at two
        # threads. Either way the trace is the one-at-a-time loop's at the
        # same count.
        from vcdetect.detector import DetectorConfig, run_stream, write_trajectory_csv

        n = 64
        samples, basis, sc, rows = TestDetectCli().make_files(
            tmp_path, n=n, d1=6, d2=3, count=3 * n, noiseless=False)
        sigma2 = sc.noise_std**2
        env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
        if count:
            env["OPENBLAS_NUM_THREADS"] = count
        r = subprocess.run(
            [sys.executable, "-m", "vcdetect", "detect", "--samples", str(samples),
             "--target-basis", str(basis), "--sigma2", repr(sigma2), "--t-div", "1e308",
             "--stall-patience", str(3 * n), "--trace", str(tmp_path / "cli.csv")],
            capture_output=True, text=True, env=env,
        )
        assert r.returncode == 0, r.stderr
        cli._openblas_threads()[1](int(count or 1))
        cfg = DetectorConfig(sc.target_basis, sigma2, divergence_threshold=1e308,
                             stall_patience=3 * n, max_samples=3 * n)
        decision, trajectory = run_stream(cfg, iter(rows))
        write_trajectory_csv(trajectory, decision, tmp_path / "lib.csv")
        assert len(trajectory) == 3 * n
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_subcommand_runs_at_one_thread(self, threads, monkeypatch, capsys):
        seen = []

        def spy(args):
            seen.append(threads())
            return cli.EXIT_OK

        monkeypatch.setattr(cli, "_cmd_bound", spy)
        assert cli.main(BOUND_ARGS) == 0
        assert seen == [1]
        assert threads() == 2

    @pytest.mark.parametrize(
        "argv, code",
        [
            (BOUND_ARGS, 0),
            (["simulate", "--config", "/nonexistent/cfg.json"], 2),
            (["simulate"], None),  # argparse's SystemExit: --config is missing
        ],
    )
    def test_count_restored(self, threads, capsys, argv, code):
        if code is None:
            with pytest.raises(SystemExit):
                cli.main(argv)
        else:
            assert cli.main(argv) == code
        assert threads() == 2

    def test_count_restored_after_unexpected_error(self, threads, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_bound", boom)
        with pytest.raises(RuntimeError):
            cli.main(BOUND_ARGS)
        assert threads() == 2

    @pytest.mark.parametrize("var", [None, *cli._THREAD_VARS])
    def test_thread_variable_leaves_blas_alone(self, monkeypatch, capsys, var):
        # A stand-in for the library, so that this runs on any BLAS.
        calls = []
        monkeypatch.setattr(cli, "_openblas_threads", lambda: (lambda: 3, calls.append))
        for name in cli._THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        if var is not None:
            monkeypatch.setenv(var, "2")
        assert cli.main(BOUND_ARGS) == 0
        assert calls == ([] if var else [1, 3])
