import csv
import json
import statistics
import subprocess
import sys

import numpy as np
import pytest

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
        "doc, key",
        [
            ([1, 2], "config"),
            ({**SMALL_DOC, "scenario": [1]}, "scenario"),
            ({**SMALL_DOC, "trials": None}, "trials"),
            ({**SMALL_DOC, "parallelism": None}, "parallelism"),
            ({**SMALL_DOC, "seed": None}, "seed"),
            ({**SMALL_DOC, "max_samples": 2.5}, "max_samples"),
        ],
    )
    def test_config_of_wrong_shape_exits_2(self, tmp_path, doc, key):
        # Without the checks the first five exited 1 with a TypeError
        # traceback, and a fractional budget ran truncated to 2 samples.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        r = run_cli("simulate", "--config", str(config))
        assert r.returncode == 2
        assert key in r.stderr and "Traceback" not in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf")])
    def test_snr_not_a_level_exits_2(self, tmp_path, snr_db):
        # Without the check both ran as a noiseless experiment and exited 0.
        doc = {**SMALL_DOC, "detector": {**SMALL_DOC["detector"], "use_noise_hint": False}}
        doc["scenario"] = {**SMALL_DOC["scenario"], "snr_db": snr_db}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        r = run_cli("simulate", "--config", str(config))
        assert r.returncode == 2
        assert "snr_db" in r.stderr
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

    def test_zero_max_samples_exits_2(self, tmp_path):
        # 0 used to read as "unset" and ran every sample.
        samples, basis, _, _ = self.make_files(tmp_path, count=4)
        r = run_cli(
            "detect", "--samples", str(samples), "--target-basis", str(basis), "--max-samples", "0"
        )
        assert r.returncode == 2
        assert "max_samples" in r.stderr
        assert r.stdout == ""

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
