import json
import math

import numpy as np
import pytest

from vcdetect.bounds import (
    BoundInputs,
    sample_bound_target_absent,
    sample_bound_target_present,
    tau,
)
from vcdetect.experiment import load_experiment_config, run_experiment, summarize
from vcdetect.geometry import SubspaceBasis, orthonormalize, volume
from vcdetect.scenario import make_scenario


def inputs(**kw):
    base = dict(
        eigenvalues=(3.0, 2.0),
        noise_variance=1.0,
        ambient_dim=10,
        signal_rank=2,
        delta=0.1,
        epsilon=0.5,
    )
    base.update(kw)
    return BoundInputs(**base)


class TestSampleBoundPresent:
    def test_worked_example(self):
        # hand evaluation: pair sum 12, noise sum 22,
        # multiplier 1.5 / (sqrt(1.1) - 1)^2 = 629.6426544510432,
        # ceil(629.6426544510432 * 34) = 21408
        report = sample_bound_target_present(inputs(target_dim=1))
        assert report.m_required == 21408
        assert report.deviation_bound == pytest.approx(0.1)
        assert report.exponent_argument == pytest.approx(2 * 10 * 0.25)

    def test_large_delta_limit(self):
        report = sample_bound_target_present(inputs(delta=1e12))
        assert report.m_required == 1

    def test_scale_invariance(self):
        a = sample_bound_target_present(inputs())
        b = sample_bound_target_present(
            inputs(eigenvalues=(30.0, 20.0), noise_variance=10.0)
        )
        assert a.m_required == b.m_required

    def test_deviation_symbolic_without_target_dim(self):
        assert sample_bound_target_present(inputs()).deviation_bound is None

    def test_repeated_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            inputs(eigenvalues=(3.0, 3.0))

    def test_eigenvalue_equal_to_noise_rejected(self):
        with pytest.raises(ValueError):
            inputs(eigenvalues=(3.0, 1.0))

    def test_wrong_count_above_noise_rejected(self):
        with pytest.raises(ValueError):
            inputs(eigenvalues=(3.0, 2.0, 1.5), signal_rank=2)

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf, 0.0, -1.0])
    def test_noise_variance_not_positive_and_finite_rejected(self, sigma2):
        # nan used to pass the check and fail later on the eigenvalue count,
        # with a message that did not name the noise variance.
        with pytest.raises(ValueError, match="noise_variance"):
            inputs(noise_variance=sigma2)


class TestSampleBoundAbsent:
    def test_single_clutter_dimension_has_no_pair_term(self):
        # d1 = 1: only the noise term remains
        bi = inputs(eigenvalues=(3.0,), signal_rank=1)
        report = sample_bound_target_absent(bi)
        mult = 1.5 / (math.sqrt(1.1) - 1) ** 2
        expected = math.ceil(mult * (10 - 1) * 3.0 / (1.0 - 3.0) ** 2)
        assert report.m_required == expected

    def test_absent_not_larger_than_present(self):
        present = sample_bound_target_present(
            inputs(eigenvalues=(3.0, 2.0, 1.5), signal_rank=3)
        )
        absent = sample_bound_target_absent(inputs(eigenvalues=(3.0, 2.0), signal_rank=2))
        assert absent.m_required <= present.m_required

    def test_shrinking_delta_increases_m(self):
        a = sample_bound_target_absent(inputs(delta=0.1))
        b = sample_bound_target_absent(inputs(delta=0.05))
        assert b.m_required > a.m_required

    def test_deviation_with_bases(self):
        rng = np.random.default_rng(5)
        target = orthonormalize(rng.standard_normal((12, 2)), tol=1e-12)
        clutter = orthonormalize(rng.standard_normal((12, 3)), tol=1e-12)
        bi = inputs(eigenvalues=(3.0, 2.0, 1.5), signal_rank=3)
        report = sample_bound_target_absent(bi, target=target, clutter=clutter)
        assert report.deviation_bound is not None and report.deviation_bound > 0
        assert report.deviation_note == "leading-order"

    def test_monotone_sweeps(self):
        deltas = [0.05, 0.1, 0.2, 0.5, 1.0]
        ms = [sample_bound_target_absent(inputs(delta=d)).m_required for d in deltas]
        assert ms == sorted(ms, reverse=True)
        epsilons = [0.1, 0.3, 0.5, 0.7, 0.9]
        ms = [sample_bound_target_absent(inputs(epsilon=e)).m_required for e in epsilons]
        assert ms == sorted(ms)
        ns = [5, 10, 20, 40]
        ms = [sample_bound_target_absent(inputs(ambient_dim=n)).m_required for n in ns]
        assert ms == sorted(ms)


class TestReportSerialization:
    def test_json_fields(self):
        doc = json.loads(sample_bound_target_present(inputs(target_dim=2)).to_json())
        assert set(doc) >= {"m_required", "deviation_bound", "exponent_argument"}
        assert doc["m_required"] == 21408


class TestTau:
    def test_orthogonal_subspaces(self):
        a = SubspaceBasis(np.eye(8)[:, :2])
        b = SubspaceBasis(np.eye(8)[:, 3:6])
        assert tau(a, b) == pytest.approx(1.0)

    def test_two_lines_at_30_degrees(self):
        a = SubspaceBasis(np.array([[1.0], [0.0], [0.0]]))
        b = SubspaceBasis(np.array([[math.cos(math.pi / 6)], [math.sin(math.pi / 6)], [0.0]]))
        assert tau(a, b) == pytest.approx(0.5, rel=1e-12)

    def test_symmetry_and_basis_invariance(self):
        rng = np.random.default_rng(6)
        a = orthonormalize(rng.standard_normal((16, 3)), tol=1e-12)
        b = orthonormalize(rng.standard_normal((16, 4)), tol=1e-12)
        assert tau(a, b) == pytest.approx(tau(b, a), abs=1e-12)
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert tau(SubspaceBasis(a.basis @ rot), b) == pytest.approx(tau(a, b), abs=1e-10)

    def test_equals_stacked_volume(self):
        rng = np.random.default_rng(7)
        a = orthonormalize(rng.standard_normal((16, 3)), tol=1e-12)
        b = orthonormalize(rng.standard_normal((16, 4)), tol=1e-12)
        direct = volume(np.hstack([a.basis, b.basis]), 7)
        assert tau(a, b) == pytest.approx(direct, rel=1e-10)

    def test_intersecting_geometry_rejected(self):
        a = SubspaceBasis(np.eye(8)[:, :2])
        b = SubspaceBasis(np.eye(8)[:, 1:3])
        with pytest.raises(ValueError):
            tau(a, b)

    @pytest.mark.parametrize("seed", range(10))
    def test_subspaces_sharing_a_direction_rejected(self, seed):
        # With sines taken from the cosines, tau read ~1e-8 here on some seeds
        # and the intersection guard (< 1e-12) did not fire.
        rng = np.random.default_rng(seed)
        clutter = orthonormalize(rng.standard_normal((12, 3)), tol=1e-12)
        g, c, g2 = rng.standard_normal(12), rng.standard_normal(3), rng.standard_normal(12)
        target = orthonormalize(np.column_stack([g, clutter.basis @ c, g2]), tol=1e-12)
        with pytest.raises(ValueError, match="intersect"):
            tau(target, clutter)


class TestValidateConvergence:
    """``run_experiment``'s 1/T: the absent plateau is 1/tau, and the present 1/T is larger."""

    def run(self, scenario, trials, max_samples, **detector):
        doc = {"scenario": scenario, "trials": trials, "max_samples": max_samples,
               "detector": {"use_noise_hint": True, **detector}}
        cfg = load_experiment_config(doc)
        sc = make_scenario(cfg.scenario)
        return summarize(run_experiment(cfg)), 1.0 / tau(sc.target_basis, sc.clutter_basis)

    def test_noiseless_plateau_equals_inverse_tau(self):
        scenario = {"n": 32, "d1": 6, "d2": 2, "snr_db": "inf", "seed": 8}
        summary, plateau = self.run(scenario, trials=3, max_samples=30)
        absent = summary["target_absent"]
        assert abs(absent["median_final_inv_t"] - plateau) < 1e-8
        assert absent["decisions"]["target_absent"] == 3

    def test_present_dominates_absent(self):
        scenario = {"n": 48, "d1": 6, "d2": 2, "snr_db": 5.0, "seed": 10}
        summary, _ = self.run(
            scenario, trials=5, max_samples=200,
            divergence_threshold=50.0, stall_epsilon=0.005, stall_patience=8,
        )
        assert summary["median_final_ratio"] > 1.0
