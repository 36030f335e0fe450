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
            ingest(state, draw_sample(sc, rng))
        with pytest.raises(RuntimeError):
            ingest(state, np.zeros(16))

    def test_dimension_mismatch_rejected(self):
        cfg = passive_config(SubspaceBasis(np.eye(6)[:, :2]), 10)
        with pytest.raises(ValueError):
            ingest(detector_init(cfg), np.zeros(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_rejected(self, bad):
        # Unchecked, a NaN spreads through the eigenstep and is recorded as 1/T = 1.
        cfg = passive_config(SubspaceBasis(np.eye(6)[:, :2]), 10)
        state = ingest(detector_init(cfg), np.arange(6.0))
        y = np.ones(6)
        y[3] = bad
        with pytest.raises(ValueError, match="sample 2"):
            ingest(state, y)
        assert state.sample_count == 1 and len(state.trajectory) == 1


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

    @staticmethod
    def loop_gap_rank(lam, sample_count):
        """The no-hint rule as first written, one split at a time."""
        lam = np.asarray(lam, dtype=float)
        n = lam.size
        floor = 1e-10 * max(lam[0], 0.0)
        k, best = 0, 0.0
        for j in range(1, min(sample_count - 1, n - 1) + 1):
            if lam[j - 1] <= floor:
                break
            ratio = lam[j - 1] / max(lam[j], floor if floor > 0 else 1e-300)
            if ratio > best:
                best, k = ratio, j
        return max(0, min(k, min(sample_count, n - 1)))

    def test_gap_rule_matches_loop(self):
        rng = np.random.default_rng(35)
        cfg = self.cfg(hint=None)
        spectra = [np.zeros(6), np.ones(6), np.array([3.0, 3.0, 1.0, 1.0, 0.0, 0.0]),
                   np.array([0.0, 5.0, 1.0])]  # the scan stops at once when lam[0] <= 0
        for _ in range(200):
            n = int(rng.integers(1, 40))
            lam = np.sort(rng.exponential(size=n) ** rng.integers(1, 4))[::-1]
            if rng.random() < 0.5:  # ties
                lam = np.round(lam, 1)
            if rng.random() < 0.5:  # exact zeros in the tail
                lam[rng.integers(0, n) :] = 0.0
            if rng.random() < 0.2:  # slightly negative values, as eigh can give
                lam[-1] = -1e-17
            spectra.append(lam)
        for lam in spectra:
            for count in sorted({0, 1, 2, lam.size // 2, lam.size - 1, lam.size, lam.size + 5}):
                assert estimate_rank(lam, cfg, count) == self.loop_gap_rank(lam, count)


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
         "stall_epsilon"],
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


@pytest.fixture
def eig_calls(monkeypatch):
    """Names of the np.linalg eigen-solvers and Cholesky factorizations called, in order."""
    calls = []
    for name in ("eigh", "eigvalsh", "cholesky"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def reference_spectrum_run(cfg, samples):
    """(k_i, 1/T, top-k vectors) per sample from the spectrum as first implemented.

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
        out.append((k, min(math.exp(-log_t), 1e308) if log_t > -710 else 1e308, vecs[:, :k]))
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
            ys = list(sample_stream(sc, np.random.default_rng(seed), count))
            state = detector_init(cfg)
            for y in ys:
                ingest(state, y)
            want = reference_spectrum_run(cfg, ys)
            assert [row[3] for row in state.trajectory] == [k for k, _, _ in want]
            got_inv_t = np.array([row[2] for row in state.trajectory])
            want_inv_t = np.array([inv_t for _, inv_t, _ in want])
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

    def test_signal_basis_matches_reference_projector(self):
        # Both tolerances were fixed before the QR state was run: 1e-10 is the
        # SubspaceBasis budget, and a projector accurate to 1e-9 keeps 1/T
        # within INV_T_RTOL.
        n, count = 32, 80
        for seed, (snr_db, present) in enumerate([(10.0, True), (10.0, False), (0.0, True)]):
            sc = make_scenario(ScenarioConfig(n, 4, 2, snr_db, present, 520 + seed))
            cfg = replace(passive_config(sc.target_basis, count), noise_variance_hint=sc.noise_std**2)
            ys = list(sample_stream(sc, np.random.default_rng(seed), count))
            state = detector_init(cfg)
            for y, (k, _, want) in zip(ys, reference_spectrum_run(cfg, ys)):
                ingest(state, y)
                B = state.signal_basis.basis
                assert B.shape == (n, k)
                assert np.max(np.abs(B.T @ B - np.eye(k)), initial=0.0) <= 1e-10
                assert np.max(np.abs(B @ B.T - want @ want.T)) <= 1e-9

    @pytest.mark.parametrize("use_hint", [True, False])
    def test_zero_and_repeated_samples_match_reference(self, use_hint):
        n, count = 24, 60
        sc = make_scenario(ScenarioConfig(n, 4, 2, 10.0, True, 530))
        hint = sc.noise_std**2 if use_hint else None
        cfg = replace(passive_config(sc.target_basis, count), noise_variance_hint=hint)
        rng = np.random.default_rng(531)
        ys = list(sample_stream(sc, rng, count))
        ys[0] = np.zeros(n)
        ys[4] = ys[2].copy()
        ys[9] = -2.5 * ys[3]
        ys[10] = np.zeros(n)
        ys[15] = 1e-3 * ys[14]
        ys[n - 1] = ys[n - 2].copy()
        ys[n + 3] = 3.0 * ys[1]
        state = detector_init(cfg)
        for y in ys:
            ingest(state, y)
        want = reference_spectrum_run(cfg, ys)
        assert [row[3] for row in state.trajectory] == [k for k, _, _ in want]
        np.testing.assert_allclose(
            [row[2] for row in state.trajectory], [inv_t for _, inv_t, _ in want],
            rtol=self.INV_T_RTOL, atol=0,
        )

    def test_noiseless_repeats_match_reference(self):
        n, d1 = 20, 3
        sc = noiseless_scenario(n, d1, 2, False, 532)
        ys = list(sample_stream(sc, np.random.default_rng(533), d1))
        ys += [2.0 * ys[0], ys[1].copy(), ys[0] - ys[2], np.zeros(n)]
        cfg = passive_config(sc.target_basis, len(ys))
        state = detector_init(cfg)
        for y in ys:
            ingest(state, y)
        # Every sample after the first d1 adds no direction, so no row of Q.
        assert state._rank == d1
        want = reference_spectrum_run(cfg, ys)
        assert [row[3] for row in state.trajectory] == [k for k, _, _ in want]
        np.testing.assert_allclose(
            [row[2] for row in state.trajectory], [inv_t for _, inv_t, _ in want],
            rtol=self.INV_T_RTOL, atol=0,
        )

    @pytest.mark.parametrize("present", [True, False])
    def test_long_noiseless_stream_keeps_rank_sized_state(self, present, eig_calls):
        # 3n samples from a (d1 + d2)- or d1-dimensional span: the state stays
        # r x r past i = n, with no switch to an n x n matrix. The cut keeps
        # every direction throughout, so one Cholesky factorization per sample
        # shows it and no eigenvalue is ever computed.
        n, d1, d2 = 40, 4, 2
        sc = noiseless_scenario(n, d1, d2, present, 536)
        ys = list(sample_stream(sc, np.random.default_rng(537), 3 * n))
        cfg = passive_config(sc.target_basis, len(ys))
        state = detector_init(cfg)
        for y in ys:
            ingest(state, y)
        assert eig_calls == ["cholesky"] * len(ys)
        r = d1 + d2 if present else d1
        assert state._rank == r
        assert state._q.shape[0] < n and state._m.shape[0] < n
        assert state.signal_basis.dim == r
        want = reference_spectrum_run(cfg, ys)
        assert [row[3] for row in state.trajectory] == [k for k, _, _ in want]
        np.testing.assert_allclose(
            [row[2] for row in state.trajectory], [inv_t for _, inv_t, _ in want],
            rtol=self.INV_T_RTOL, atol=0,
        )

    @pytest.mark.parametrize("stream", ["noise", "tiny_then_repeat"])
    def test_eigenvectors_only_when_cut_drops_below_rank(self, stream, eig_calls):
        # After a step with k = r a Cholesky factorization tests whether the
        # cut keeps every direction again; the eigenpairs follow in the same
        # step only when it does not. Every step after a k < r step, and every
        # step with r = n (where the cap k <= n - 1 cuts), computes them directly.
        n = 16
        rng = np.random.default_rng(538)
        target = orthonormalize(rng.standard_normal((n, 2)), tol=1e-12)
        ys = [rng.standard_normal(n) for _ in range(3 * n)]
        hint = 0.0
        if stream == "tiny_then_repeat":
            # A tiny first sample sits below the cut (k = 0 < r = 1); its
            # scaled repeat adds no direction and lifts it back (k = r = 1).
            # Near i = n the smallest eigenvalues fall below 2 * 0.05 again.
            ys[0], ys[1], hint = 1e-3 * ys[2], 10.0 * ys[2], 0.05
        cfg = replace(passive_config(target, len(ys)), noise_variance_hint=hint)
        state = detector_init(cfg)
        full_before, steps, failed_tests = True, [], 0
        for y in ys:
            eig_calls.clear()
            ingest(state, y)
            full = state.estimated_rank == state._rank
            steps.append((full_before, full))
            if not full_before or state._rank == n:
                assert eig_calls == ["eigh"]
            elif full:
                assert eig_calls == ["cholesky"]
            else:  # the failed test of a k = r -> k < r transition below r = n
                assert eig_calls == ["cholesky", "eigh"]
                failed_tests += 1
            full_before = full
        drops, rises = steps.count((True, False)), steps.count((False, True))
        if stream == "noise":
            # k = r = i below n; the cap k <= n - 1 cuts below r = n from i = n,
            # where r = n skips the test.
            assert (drops, rises, failed_tests) == (1, 0, 0)
            assert [full for _, full in steps].index(False) == n - 1
        else:
            assert drops >= 2 and rises >= 1 and failed_tests >= 2
        want = reference_spectrum_run(cfg, ys)
        assert [row[3] for row in state.trajectory] == [k for k, _, _ in want]
        np.testing.assert_allclose(
            [row[2] for row in state.trajectory], [inv_t for _, inv_t, _ in want],
            rtol=self.INV_T_RTOL, atol=0,
        )

    @staticmethod
    def rank_calls_against_spectrum(cfg, ys, eig_calls):
        """Ingest ys, checking every k_i against estimate_rank on eigvalsh of the same M.

        Returns the solver calls ingest made at each step.
        """
        n = cfg.target_basis.ambient_dim
        state, calls = detector_init(cfg), []
        for i, y in enumerate(ys, start=1):
            eig_calls.clear()
            ingest(state, y)
            calls.append(list(eig_calls))
            r = state._rank
            lam = np.zeros(n)
            lam[:r] = np.maximum(np.linalg.eigvalsh(state._m[:r, :r])[::-1] / i, 0.0)
            assert state.estimated_rank == estimate_rank(lam, cfg, i), f"sample {i}"
        return calls

    @pytest.mark.parametrize("present", [True, False])
    @pytest.mark.parametrize("snr_db,hint_scale", [(10.0, 1.0), (0.0, 1.0), (10.0, 0.0)])
    def test_rank_matches_spectrum_noisy_hint(self, present, snr_db, hint_scale, eig_calls):
        # Hint 0 keeps every direction up to i = n - 1, so the test meets r = n.
        n = 32
        for seed in range(3):
            sc = make_scenario(ScenarioConfig(n, 4, 2, snr_db, present, 540 + seed))
            hint = hint_scale * sc.noise_std**2
            cfg = replace(passive_config(sc.target_basis, 3 * n), noise_variance_hint=hint)
            ys = list(sample_stream(sc, np.random.default_rng(seed), 3 * n))
            calls = self.rank_calls_against_spectrum(cfg, ys, eig_calls)
            assert ["cholesky"] in calls and ["eigh"] in calls

    @pytest.mark.parametrize("present", [True, False])
    def test_rank_matches_spectrum_noiseless_floor(self, present, eig_calls):
        # With hint 0 only the 1e-10 relative floor cuts. A sample 1e-6 off
        # an earlier one adds a direction whose eigenvalue is ~1e-13 of the
        # largest: below the floor, yet far above rounding, so M alone is
        # positive definite and only the floor's share of t fails the test.
        n, d1, d2 = 24, 4, 2
        sc = noiseless_scenario(n, d1, d2, present, 545)
        rng = np.random.default_rng(546)
        ys = list(sample_stream(sc, rng, 2 * n))
        ys[6] = ys[1] + 1e-6 * np.linalg.norm(ys[1]) * rng.standard_normal(n) / math.sqrt(n)
        calls = self.rank_calls_against_spectrum(passive_config(sc.target_basis, len(ys)), ys, eig_calls)
        assert calls[:6] == [["cholesky"]] * 6
        assert calls[6] == ["cholesky", "eigh"]
        assert calls[7:] == [["eigh"]] * (len(ys) - 7)

    @pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
    def test_rank_matches_spectrum_threshold_at_an_eigenvalue(self, side, eig_calls):
        # gamma sigma^2 i0 sits 1e-6 relative below or above the smallest
        # eigenvalue of M at i0. Interlacing keeps that eigenvalue below the
        # smallest of every earlier M, so every step before i0 keeps all r and
        # the test runs at i0.
        n, i0 = 16, 6
        rng = np.random.default_rng(547)
        target = orthonormalize(rng.standard_normal((n, 2)), tol=1e-12)
        ys = [rng.standard_normal(n) for _ in range(2 * n)]
        state = detector_init(passive_config(target, len(ys)))
        for y in ys[:i0]:
            ingest(state, y)
        smallest = np.linalg.eigvalsh(state._m[:i0, :i0])[0]
        cfg = replace(passive_config(target, len(ys)), noise_variance_hint=side * smallest / (2.0 * i0))
        calls = self.rank_calls_against_spectrum(cfg, ys, eig_calls)
        assert calls[: i0 - 1] == [["cholesky"]] * (i0 - 1)
        assert calls[i0 - 1] == (["cholesky"] if side < 1 else ["cholesky", "eigh"])

    def test_rank_matches_spectrum_gap_rule(self, eig_calls):
        n = 32
        for seed, present in enumerate([True, False]):
            sc = make_scenario(ScenarioConfig(n, 4, 2, 10.0, present, 548 + seed))
            cfg = replace(passive_config(sc.target_basis, 3 * n), noise_variance_hint=None)
            ys = list(sample_stream(sc, np.random.default_rng(seed), 3 * n))
            calls = self.rank_calls_against_spectrum(cfg, ys, eig_calls)
            assert calls == [["eigh"]] * len(ys)

    @pytest.mark.parametrize("corrupt", ["scale", "duplicate", "tilt"])
    def test_corrupted_direction_is_rejected(self, corrupt):
        # After two Gram-Schmidt passes a defect d in the stored rows leaves
        # about d^2 in the new row, so the tilt is 1e-3 against the 1e-10 check.
        n = 16
        rng = np.random.default_rng(534)
        state = detector_init(passive_config(SubspaceBasis(np.eye(n)[:, :2]), 20))
        for _ in range(5):
            ingest(state, rng.standard_normal(n))
        if corrupt == "scale":
            state._q[1] *= 1.5
        elif corrupt == "duplicate":
            state._q[3] = state._q[0]
        else:
            state._q[2] += 1e-3 * state._q[4]
        with pytest.raises(ValueError, match="orthonormal"):
            ingest(state, rng.standard_normal(n))
        # The check raises before any buffer is written, so the rejected
        # sample leaves the count and the trajectory as they were.
        assert state.sample_count == len(state.trajectory) == 5

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

    @pytest.mark.parametrize("seed", range(10))
    def test_present_statistic_collapses_at_breakpoint(self, seed):
        sc = noiseless_scenario(20, 4, 2, True, seed)
        cfg = passive_config(sc.target_basis, 5)
        state = detector_init(cfg)
        for s in sample_stream(sc, np.random.default_rng(42), 5):
            ingest(state, s)
        assert state.trajectory[-1][0] == 5  # d1 + 1
        assert state.trajectory[-1][1] <= 1e-8
        assert state.trajectory[3][1] > 1e-8

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

    @pytest.mark.parametrize("seed", range(5))
    def test_small_scale_does_not_matter(self, seed):
        # The tests are relative to each step, so samples of norm ~1e-3,
        # whose raw volume at the breakpoint is far below tol, still decide.
        sc = noiseless_scenario(32, 6, 2, True, seed)
        ys = [1e-3 * y for y in sample_stream(sc, np.random.default_rng(seed + 1), 8)]
        assert noiseless_breakpoint(sc.target_basis, ys) == (7, True)

    @pytest.mark.parametrize("seed", [0, 3, 6])
    def test_many_directions_do_not_matter(self, seed):
        # 120 stacked factors below 1 multiply to less than tol just before
        # d1 + 1; each step is tested on its own.
        sc = noiseless_scenario(1024, 120, 10, True, seed)
        samples = sample_stream(sc, np.random.default_rng(seed + 1), 122)
        assert noiseless_breakpoint(sc.target_basis, samples) == (121, True)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_rejected(self, bad):
        # Without the check it returned (None, None), the "stream ended" answer.
        sc = noiseless_scenario(16, 3, 2, True, 87)
        ys = list(sample_stream(sc, np.random.default_rng(88), 6))
        ys[1][5] = bad
        with pytest.raises(ValueError, match="sample 2 has a non-finite entry"):
            noiseless_breakpoint(sc.target_basis, ys)

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
