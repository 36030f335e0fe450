import math
from dataclasses import replace

import numpy as np
import pytest

from vcdetect.bounds import tau
from vcdetect.detector import (
    Decision,
    DetectorConfig,
    Outcome,
    decide,
    detector_init,
    estimate_rank,
    ingest,
    noiseless_breakpoint,
    run_stream,
    write_trajectory_csv,
)
from vcdetect.geometry import SubspaceBasis, orthonormalize, stacked_log_volume
from vcdetect.scenario import (
    ScenarioConfig,
    draw_sample,
    make_scenario,
    population_eigenvalues,
    sample_stream,
)

NOISELESS = float("inf")


def noiseless_scenario(n, d1, d2, present, seed):
    return make_scenario(ScenarioConfig(n, d1, d2, NOISELESS, present, seed))


def passive_config(target_basis, max_samples):
    """Config whose thresholds never fire, for trajectory inspection."""
    return DetectorConfig(
        target_basis=target_basis,
        noise_variance_hint=0.0,
        divergence_threshold=math.inf,
        stall_epsilon=1e-30,
        stall_patience=10**9,
        max_samples=max_samples,
    )


class TestInitAndCovariance:
    def test_initial_state(self):
        cfg = passive_config(SubspaceBasis(np.eye(6)[:, :2]), 10)
        state = detector_init(cfg)
        assert state.sample_count == 0
        assert np.all(state.covariance == 0.0)
        assert state.trajectory == []
        assert state.decision.variant is Outcome.UNDECIDED

    def test_first_sample_covariance_is_outer_product(self):
        cfg = passive_config(SubspaceBasis(np.eye(6)[:, :2]), 10)
        state = detector_init(cfg)
        y = np.arange(6, dtype=float)
        ingest(state, y)
        np.testing.assert_allclose(state.covariance, np.outer(y, y), atol=1e-12)

    def test_covariance_recursion_matches_batch_mean(self):
        rng = np.random.default_rng(31)
        cfg = passive_config(SubspaceBasis(np.eye(12)[:, :3]), 100)
        state = detector_init(cfg)
        ys = [rng.standard_normal(12) for _ in range(50)]
        for y in ys:
            ingest(state, y)
        batch = sum(np.outer(y, y) for y in ys) / 50
        rel = np.linalg.norm(state.covariance - batch) / np.linalg.norm(batch)
        assert rel < 1e-10

    def test_ingest_after_decision_rejected(self):
        sc = noiseless_scenario(16, 3, 1, True, 0)
        cfg = DetectorConfig(target_basis=sc.target_basis, noise_variance_hint=0.0, max_samples=20)
        state = detector_init(cfg)
        rng = np.random.default_rng(1)
        while state.decision.variant is Outcome.UNDECIDED:
            ingest(state, draw_sample(sc, state.sample_count + 1, rng))
        with pytest.raises(RuntimeError):
            ingest(state, np.zeros(16))

    def test_dimension_mismatch_rejected(self):
        cfg = passive_config(SubspaceBasis(np.eye(6)[:, :2]), 10)
        with pytest.raises(ValueError):
            ingest(detector_init(cfg), np.zeros(5))


class TestEstimateRank:
    def cfg(self, hint=None, gamma=2.0):
        return DetectorConfig(
            target_basis=SubspaceBasis(np.eye(8)[:, :2]),
            noise_variance_hint=hint,
            rank_gap_factor=gamma,
        )

    def test_hint_rule_counts_values_above_threshold(self):
        lam = [5.0, 4.0, 1.01, 1.0, 0.99]
        assert estimate_rank(lam, self.cfg(hint=1.0, gamma=1.5), 10) == 2

    def test_all_equal_values_give_zero(self):
        lam = [2.0, 2.0, 2.0, 2.0]
        assert estimate_rank(lam, self.cfg(hint=2.0, gamma=1.5), 10) == 0

    def test_population_eigenvalues_recover_full_rank(self):
        sc = make_scenario(ScenarioConfig(32, 4, 2, 10.0, True, 7))
        lam = population_eigenvalues(sc)
        k = estimate_rank(lam, self.cfg(hint=sc.noise_std**2), 32)
        assert k == 6

    def test_gap_rule(self):
        lam = [10.0, 9.0, 8.0, 0.5, 0.4, 0.3]
        assert estimate_rank(lam, self.cfg(hint=None), 6) == 3

    def test_cap_at_sample_count(self):
        lam = [5.0, 4.0, 3.0, 2.0]
        assert estimate_rank(lam, self.cfg(hint=0.1), 2) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_rank([], self.cfg(hint=1.0), 3)


class TestDecide:
    def test_divergence_wins(self):
        cfg = DetectorConfig(
            target_basis=SubspaceBasis(np.eye(4)[:, :1]), divergence_threshold=1e6
        )
        state = detector_init(cfg)
        state.trajectory.append((1, 1e-9, 1e9, 1))
        d = decide(state)
        assert d.variant is Outcome.TARGET_PRESENT and d.decided_at == 1

    def test_flat_trajectory_stalls_to_absent(self):
        cfg = DetectorConfig(
            target_basis=SubspaceBasis(np.eye(4)[:, :1]), stall_patience=5
        )
        state = detector_init(cfg)
        state.trajectory.append((1, 0.5, 2.0, 1))
        for i in range(2, 8):
            state.trajectory.append((i, 0.5, 2.0, 1))
            d = decide(state)
            if d.variant is not Outcome.UNDECIDED:
                break
        assert d.variant is Outcome.TARGET_ABSENT and d.decided_at == 6

    def test_single_sample_undecided(self):
        cfg = DetectorConfig(target_basis=SubspaceBasis(np.eye(4)[:, :1]))
        state = detector_init(cfg)
        state.trajectory.append((1, 0.7, 1.4, 1))
        assert decide(state).variant is Outcome.UNDECIDED

    def test_empty_trajectory_rejected(self):
        cfg = DetectorConfig(target_basis=SubspaceBasis(np.eye(4)[:, :1]))
        with pytest.raises(ValueError):
            decide(detector_init(cfg))

    def test_repeated_calls_agree(self):
        cfg = DetectorConfig(
            target_basis=SubspaceBasis(np.eye(4)[:, :1]), stall_patience=2
        )
        state = detector_init(cfg)
        for i in range(1, 4):
            state.trajectory.append((i, 0.5, 2.0, 1))
        first = [decide(state) for _ in range(3)]
        assert first == [Decision(Outcome.TARGET_ABSENT, decided_at=3)] * 3
        state.trajectory[-1] = (3, 0.25, 4.0, 1)
        assert [decide(state) for _ in range(3)] == [Decision(Outcome.UNDECIDED)] * 3


class TestConfigValidation:
    TARGET = SubspaceBasis(np.eye(4)[:, :1])

    @pytest.mark.parametrize(
        "field",
        ["noise_variance_hint", "rank_gap_factor", "divergence_threshold",
         "stall_epsilon", "zero_volume_tol"],
    )
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            DetectorConfig(target_basis=self.TARGET, **{field: math.nan})

    @pytest.mark.parametrize("hint", [math.inf, -math.inf, -1.0])
    def test_bad_noise_hint_rejected(self, hint):
        with pytest.raises(ValueError, match="noise_variance_hint"):
            DetectorConfig(target_basis=self.TARGET, noise_variance_hint=hint)

    def test_infinite_divergence_threshold_allowed(self):
        cfg = DetectorConfig(target_basis=self.TARGET, divergence_threshold=math.inf)
        assert cfg.divergence_threshold == math.inf


def reference_spectrum_run(cfg, samples):
    """(k_i, 1/T) per sample from the spectrum as first implemented.

    The covariance follows the rank-one recursion from the first sample. While
    i < n the spectrum is the SVD of the n x i sample block scaled by
    1/sqrt(i); from i = n it is the full eigendecomposition of the covariance.
    """
    n = cfg.target_basis.ambient_dim
    cov = np.zeros((n, n))
    block = []
    out = []
    for i, y in enumerate(samples, start=1):
        cov *= (i - 1) / i
        cov += np.outer(y, y) / i
        if i < n:
            block.append(y)
            U, s, _ = np.linalg.svd(np.column_stack(block) / math.sqrt(i), full_matrices=False)
            lam = np.zeros(n)
            lam[: s.size] = s**2
            vecs = U
        else:
            w, V = np.linalg.eigh((cov + cov.T) / 2.0)
            lam, vecs = w[::-1], V[:, ::-1]
        k = estimate_rank(lam, cfg, i)
        log_t = stacked_log_volume(SubspaceBasis(vecs[:, :k]), cfg.target_basis) if k else 0.0
        out.append((k, min(math.exp(-log_t), 1e308) if log_t > -710 else 1e308))
    return out


class TestSpectralState:
    # Fixed before the bordered-Gram state was compared with the reference:
    # 1/T is a product of sines, so a basis accurate to ~1e-13 keeps it well
    # inside 1e-9 relative.
    INV_T_RTOL = 1e-9

    @pytest.mark.parametrize("present", [True, False])
    @pytest.mark.parametrize("snr_db,use_hint", [(10.0, True), (0.0, True), (10.0, False)])
    def test_matches_reference_across_n(self, present, snr_db, use_hint):
        n, count = 32, 80
        for seed in range(3):
            sc = make_scenario(ScenarioConfig(n, 4, 2, snr_db, present, 500 + seed))
            hint = sc.noise_std**2 if use_hint else None
            cfg = replace(passive_config(sc.target_basis, count), noise_variance_hint=hint)
            ys = [s.vector for s in sample_stream(sc, np.random.default_rng(seed), count)]
            state = detector_init(cfg)
            for y in ys:
                ingest(state, y)
            want = reference_spectrum_run(cfg, ys)
            assert [row[3] for row in state.trajectory] == [k for k, _ in want]
            got_inv_t = np.array([row[2] for row in state.trajectory])
            want_inv_t = np.array([inv_t for _, inv_t in want])
            np.testing.assert_allclose(got_inv_t, want_inv_t, rtol=self.INV_T_RTOL, atol=0)

    def test_ill_conditioned_noiseless_block_stays_orthonormal(self):
        # Clutter powers spread over 1e7, so cond(Y) ~ 1e3.5 at i = d1 and
        # forming Y V / s alone leaves a defect above 1e-10.
        n, d1 = 48, 8
        rng = np.random.default_rng(7)
        clutter = orthonormalize(rng.standard_normal((n, d1)), tol=1e-12).basis
        target = orthonormalize(rng.standard_normal((n, 2)), tol=1e-12)
        scales = np.logspace(0, -3.5, d1)
        cfg = passive_config(target, d1)
        for trial in range(5):
            ys = [clutter @ (scales * rng.standard_normal(d1)) for _ in range(d1)]
            state = detector_init(cfg)
            for y in ys:
                ingest(state, y)
            B = state.signal_basis.basis
            assert state.estimated_rank == d1
            assert np.max(np.abs(B.T @ B - np.eye(d1))) <= 1e-10
            want_inv_t = reference_spectrum_run(cfg, ys)[-1][1]
            assert state.trajectory[-1][2] == pytest.approx(want_inv_t, rel=self.INV_T_RTOL)

    def test_covariance_property_matches_batch_mean(self):
        n = 32
        rng = np.random.default_rng(33)
        state = detector_init(passive_config(SubspaceBasis(np.eye(n)[:, :2]), 80))
        ys = []
        for i in range(1, 81):
            ys.append(rng.standard_normal(n))
            ingest(state, ys[-1])
            if i in (1, n - 1, n, n + 1, 80):
                batch = sum(np.outer(y, y) for y in ys) / i
                rel = np.linalg.norm(state.covariance - batch) / np.linalg.norm(batch)
                assert rel < 1e-10
        with pytest.raises(ValueError):
            state.covariance[0, 0] = 1.0


class TestNoiselessStreaming:
    def test_monotone_inverse_statistic(self):
        rng = np.random.default_rng(40)
        for case in range(10):
            present = case % 2 == 0
            sc = noiseless_scenario(24, 5, 2, present, 100 + case)
            cfg = passive_config(sc.target_basis, 5)
            state = detector_init(cfg)
            for s in sample_stream(sc, rng, 5):
                ingest(state, s)
            inv_t = [row[2] for row in state.trajectory]
            assert all(b >= a - 1e-12 for a, b in zip(inv_t, inv_t[1:]))

    def test_present_statistic_collapses_at_breakpoint(self):
        sc = noiseless_scenario(20, 4, 2, True, 41)
        cfg = passive_config(sc.target_basis, 5)
        state = detector_init(cfg)
        for s in sample_stream(sc, np.random.default_rng(42), 5):
            ingest(state, s)
        assert state.trajectory[-1][0] == 5  # d1 + 1
        assert state.trajectory[-1][1] <= cfg.zero_volume_tol
        assert state.trajectory[3][1] > cfg.zero_volume_tol

    def test_run_stream_present_decides_by_breakpoint(self):
        for seed in range(5):
            sc = noiseless_scenario(32, 6, 2, True, 50 + seed)
            cfg = DetectorConfig(
                target_basis=sc.target_basis, noise_variance_hint=0.0, max_samples=30
            )
            dec, _ = run_stream(cfg, sample_stream(sc, np.random.default_rng(seed), 30))
            assert dec.variant is Outcome.TARGET_PRESENT
            assert dec.decided_at <= 7

    def test_run_stream_absent_stalls_at_inverse_tau(self):
        for seed in range(5):
            sc = noiseless_scenario(32, 6, 2, False, 60 + seed)
            cfg = DetectorConfig(
                target_basis=sc.target_basis, noise_variance_hint=0.0, max_samples=30
            )
            dec, traj = run_stream(cfg, sample_stream(sc, np.random.default_rng(seed), 30))
            assert dec.variant is Outcome.TARGET_ABSENT
            plateau = traj[-1][2]
            assert plateau == pytest.approx(1.0 / tau(sc.target_basis, sc.clutter_basis), rel=1e-8)

    def test_empty_stream_is_undecided(self):
        cfg = DetectorConfig(target_basis=SubspaceBasis(np.eye(8)[:, :2]))
        dec, traj = run_stream(cfg, [])
        assert dec.variant is Outcome.UNDECIDED and traj == []

    def test_statistic_stays_in_unit_interval(self):
        sc = noiseless_scenario(24, 4, 3, True, 70)
        cfg = passive_config(sc.target_basis, 10)
        state = detector_init(cfg)
        for s in sample_stream(sc, np.random.default_rng(71), 10):
            ingest(state, s)
        for _, t, inv_t, _ in state.trajectory:
            assert 0.0 <= t <= 1.0 + 1e-12
            assert inv_t >= 1.0 - 1e-12


class TestNoiselessBreakpoint:
    def test_present_case(self):
        sc = noiseless_scenario(16, 3, 1, True, 80)
        m, present = noiseless_breakpoint(
            sc.target_basis, sample_stream(sc, np.random.default_rng(81), 10)
        )
        assert (m, present) == (4, True)

    def test_absent_case(self):
        sc = noiseless_scenario(16, 3, 1, False, 82)
        m, present = noiseless_breakpoint(
            sc.target_basis, sample_stream(sc, np.random.default_rng(83), 10)
        )
        assert (m, present) == (4, False)

    def test_repeated_direction_collapses_immediately(self):
        sc = noiseless_scenario(16, 3, 1, False, 84)
        v = sc.clutter_basis.basis[:, 0]
        m, present = noiseless_breakpoint(sc.target_basis, [v, 2.0 * v, 3.0 * v])
        assert (m, present) == (2, False)

    def test_budget_exhaustion(self):
        sc = noiseless_scenario(16, 3, 1, False, 85)
        m, present = noiseless_breakpoint(
            sc.target_basis, sample_stream(sc, np.random.default_rng(86), 2)
        )
        assert (m, present) == (None, None)


class TestNoisyAsymptotics:
    def test_high_snr_classification(self):
        # statistical acceptance: n=64, d1=8, d2=3, SNR 0 dB, 50 seeded
        # trials per hypothesis, >= 90% correct within 500 samples
        trials = 50
        for present in (True, False):
            sc = make_scenario(ScenarioConfig(64, 8, 3, 0.0, present, 555))
            cfg = DetectorConfig(
                target_basis=sc.target_basis,
                noise_variance_hint=sc.noise_std**2,
                divergence_threshold=50.0,
                stall_epsilon=0.005,
                stall_patience=8,
                max_samples=500,
            )
            want = Outcome.TARGET_PRESENT if present else Outcome.TARGET_ABSENT
            hits = 0
            for t in range(trials):
                rng = np.random.default_rng([t, int(present)])
                dec, _ = run_stream(cfg, sample_stream(sc, rng, 500))
                hits += dec.variant is want
            assert hits >= 0.9 * trials


class TestTrajectoryCsv:
    def test_schema_and_decision_column(self, tmp_path):
        sc = noiseless_scenario(16, 3, 1, True, 90)
        cfg = DetectorConfig(target_basis=sc.target_basis, noise_variance_hint=0.0, max_samples=10)
        dec, traj = run_stream(cfg, sample_stream(sc, np.random.default_rng(91), 10))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, dec, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,T,inv_T,k_i,decision"
        assert len(lines) == len(traj) + 1
        *body, last = lines[1:]
        assert all(row.endswith(",") for row in body)
        assert last.endswith("target_present")


class TestDecisionType:
    def test_decided_at_consistency(self):
        with pytest.raises(ValueError):
            Decision(Outcome.UNDECIDED, decided_at=3)
        with pytest.raises(ValueError):
            Decision(Outcome.TARGET_PRESENT, decided_at=None)
