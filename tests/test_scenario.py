import dataclasses
import math

import numpy as np
import pytest

from vcdetect.experiment import load_experiment_config
from vcdetect.geometry import SubspaceBasis, gram_schmidt_step, principal_angles
from vcdetect.scenario import (
    Scenario,
    ScenarioConfig,
    draw_sample,
    make_scenario,
    population_eigenvalues,
    random_subspace,
)

NOISELESS = float("inf")


def experiment_doc(**scenario):
    """An experiment document whose scenario block is n=8, d1=2, d2=1 plus ``scenario``."""
    return {"scenario": {"n": 8, "d1": 2, "d2": 1, **scenario}, "trials": 1, "max_samples": 5}


def off_span(B, y):
    """The part of y off span(B)."""
    return gram_schmidt_step(B.basis.T, y)[1]


def small_config(**kw):
    base = dict(
        ambient_dim=16,
        clutter_dim=3,
        target_dim=2,
        snr_db=0.0,
        target_present=True,
        seed=123,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestRandomSubspace:
    def test_full_dimension_is_orthogonal_matrix(self):
        b = random_subspace(5, 5, np.random.default_rng(0))
        np.testing.assert_allclose(b.basis.T @ b.basis, np.eye(5), atol=1e-10)

    def test_generic_position_between_seeds(self):
        a = random_subspace(100, 10, np.random.default_rng(1))
        b = random_subspace(100, 10, np.random.default_rng(2))
        assert principal_angles(a, b)[0] > 0.0

    def test_deterministic_for_fixed_seed(self):
        a = random_subspace(20, 4, np.random.default_rng(3))
        b = random_subspace(20, 4, np.random.default_rng(3))
        assert np.array_equal(a.basis, b.basis)

    def test_dimension_too_large(self):
        with pytest.raises(ValueError):
            random_subspace(3, 4, np.random.default_rng(0))


class TestMakeScenario:
    def test_figure_geometry(self):
        cfg = ScenarioConfig(1024, 40, 10, -10.0, True, 1)
        sc = make_scenario(cfg)
        assert sc.target_basis.dim == 10
        assert sc.clutter_basis.dim == 40
        assert principal_angles(sc.target_basis, sc.clutter_basis)[0] > 1e-6

    def test_noiseless_sentinel(self):
        sc = make_scenario(small_config(snr_db=NOISELESS))
        assert sc.noise_std == 0.0

    def test_snr_convention(self):
        cfg = small_config(snr_db=-10.0)
        # sigma^2 = (d1 + d2) * 10^(1) / n under the present hypothesis
        assert cfg.noise_variance == pytest.approx(5 * 10.0 / 16)
        absent = dataclasses.replace(cfg, target_present=False)
        assert absent.noise_variance == pytest.approx(3 * 10.0 / 16)

    def test_deterministic(self):
        a = make_scenario(small_config())
        b = make_scenario(small_config())
        assert np.array_equal(a.target_basis.basis, b.target_basis.basis)
        assert np.array_equal(a.clutter_basis.basis, b.clutter_basis.basis)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(4, 3, 2, 0.0, True, 0)
        with pytest.raises(ValueError):
            ScenarioConfig(8, 0, 2, 0.0, True, 0)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_snr_not_a_level_rejected(self, snr_db):
        # NaN would skip the noise and -inf would read as noiseless.
        with pytest.raises(ValueError, match="snr_db"):
            ScenarioConfig(8, 2, 1, snr_db, True, 0)
        with pytest.raises(ValueError, match="snr_db"):
            load_experiment_config(experiment_doc(snr_db=str(snr_db)))


class TestDrawSample:
    def test_noiseless_absent_lies_in_clutter(self):
        sc = make_scenario(small_config(snr_db=NOISELESS, target_present=False))
        rng = np.random.default_rng(5)
        for _ in range(9):
            y = draw_sample(sc, rng)
            assert np.linalg.norm(off_span(sc.clutter_basis, y)) < 1e-10

    def test_noiseless_present_leaves_clutter(self):
        sc = make_scenario(small_config(snr_db=NOISELESS, target_present=True))
        rng = np.random.default_rng(6)
        stacked = SubspaceBasis(
            np.linalg.qr(np.hstack([sc.target_basis.basis, sc.clutter_basis.basis]))[0]
        )
        off_clutter = 0
        for _ in range(1000):
            y = draw_sample(sc, rng)
            assert np.linalg.norm(off_span(stacked, y)) < 1e-9
            if np.linalg.norm(off_span(sc.clutter_basis, y)) > 1e-8:
                off_clutter += 1
        assert off_clutter == 1000

    def test_empirical_covariance_matches_population(self):
        cfg = ScenarioConfig(8, 2, 1, 0.0, True, 9)
        sc = make_scenario(cfg)
        rng = np.random.default_rng(10)
        acc = np.zeros((8, 8))
        trials = 100_000
        for _ in range(trials):
            y = draw_sample(sc, rng)
            acc += np.outer(y, y)
        acc /= trials
        Qs, Qc = sc.target_basis.basis, sc.clutter_basis.basis
        pop = Qs @ Qs.T + Qc @ Qc.T + sc.noise_std**2 * np.eye(8)
        assert np.linalg.norm(acc - pop) / np.linalg.norm(pop) < 0.05


class TestPopulationEigenvalues:
    def test_orthogonal_subspaces_unit_noise(self):
        # hand-built orthogonal geometry, sigma = 1
        n, d1, d2 = 8, 3, 2
        cfg = ScenarioConfig(n, d1, d2, 0.0, True, 0)
        sc = Scenario(
            target_basis=SubspaceBasis(np.eye(n)[:, :d2]),
            clutter_basis=SubspaceBasis(np.eye(n)[:, d2 : d2 + d1]),
            noise_std=1.0,
            config=cfg,
        )
        vals = population_eigenvalues(sc)
        np.testing.assert_allclose(vals[: d1 + d2], 2.0, atol=1e-12)
        np.testing.assert_allclose(vals[d1 + d2 :], 1.0, atol=1e-12)

    def test_exactly_k_above_noise(self):
        for present, k in ((True, 5), (False, 3)):
            sc = make_scenario(small_config(target_present=present))
            vals = population_eigenvalues(sc)
            s2 = sc.noise_std**2
            assert np.sum(vals > s2 + 1e-9) == k
            np.testing.assert_allclose(vals[k:], s2, atol=1e-9)

    def test_matches_monte_carlo_eigenvalues(self):
        cfg = ScenarioConfig(8, 2, 1, 5.0, True, 11)
        sc = make_scenario(cfg)
        rng = np.random.default_rng(12)
        acc = np.zeros((8, 8))
        trials = 100_000
        for _ in range(trials):
            y = draw_sample(sc, rng)
            acc += np.outer(y, y)
        emp = np.sort(np.linalg.eigvalsh(acc / trials))[::-1]
        pop = population_eigenvalues(sc)
        assert np.all(np.abs(emp - pop) / pop < 0.05)


class TestSerialization:
    def test_bad_hypothesis_rejected(self):
        # The scenario block sets no hypothesis: run_experiment runs both.
        with pytest.raises(ValueError, match="hypothesis"):
            load_experiment_config(experiment_doc(snr_db=0, hypothesis="target_present"))

    def test_scenario_block_keys(self):
        cfg = load_experiment_config(experiment_doc(snr_db="inf", seed=4)).scenario
        assert cfg == ScenarioConfig(8, 2, 1, math.inf, False, 4)
        assert load_experiment_config(experiment_doc(snr_db=-3)).scenario.seed == 0
