import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from vcdetect import detector
from vcdetect.bounds import tau
from vcdetect.detector import (
    Decision,
    DetectorConfig,
    INV_T_CAP,
    Outcome,
    decide,
    detector_init,
    estimate_rank,
    ingest,
    noiseless_breakpoint,
    run_stream,
    write_trajectory_csv,
)
from vcdetect.geometry import SubspaceBasis, orthonormalize, residual_log_volume
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1j])
    def test_non_finite_sample_rejected(self, bad):
        # Unchecked, a NaN spreads through the eigenstep and is recorded as 1/T = 1,
        # and a complex sample used to become its real part.
        cfg = passive_config(SubspaceBasis(np.eye(6)[:, :2]), 10)
        state = ingest(detector_init(cfg), np.arange(6.0))
        y = np.ones(6, dtype=type(bad))
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

    def test_complex_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue list has an entry that is not a real number"):
            estimate_rank([3.0, 1j, 0.5], self.cfg(hint=1.0), 3)

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

    @pytest.mark.parametrize("hint", [math.inf, -math.inf, -1.0, 1e308])
    def test_bad_noise_hint_rejected(self, hint):
        # At 1e308 the rank threshold gamma sigma^2 is inf, so k stayed 0 and
        # every stream stalled into target_absent.
        with pytest.raises(ValueError, match="noise_variance_hint"):
            DetectorConfig(target_basis=self.TARGET, noise_variance_hint=hint)

    def test_infinite_divergence_threshold_allowed(self):
        cfg = DetectorConfig(target_basis=self.TARGET, divergence_threshold=math.inf)
        assert cfg.divergence_threshold == math.inf

    def test_infinite_rank_gap_factor_rejected(self):
        # At a zero hint the threshold gamma sigma^2 would be inf * 0 = NaN,
        # which the Cholesky cut reads as k = r and the eigh cut as k = 0.
        with pytest.raises(ValueError, match="rank_gap_factor"):
            DetectorConfig(self.TARGET, noise_variance_hint=0.0, rank_gap_factor=math.inf)

    @pytest.mark.parametrize(
        "field, value",
        [("stall_patience", 2.5), ("max_samples", 2.5), ("stall_patience", True),
         ("stall_epsilon", True), ("noise_variance_hint", True), ("divergence_threshold", "5")],
    )
    def test_field_of_wrong_type_rejected(self, field, value):
        # Unchecked, 2.5 failed in decide or ran 3 samples, True read as 1
        # and a string raised TypeError at the first ingest.
        with pytest.raises(ValueError, match=field):
            DetectorConfig(target_basis=self.TARGET, **{field: value})

    def test_target_basis_not_a_subspace_basis_rejected(self):
        # Unchecked, a plain array was accepted and run_stream died with an
        # AttributeError on its missing ambient_dim.
        with pytest.raises(ValueError, match="target_basis"):
            DetectorConfig(target_basis=np.eye(4)[:, :1])

    def test_numpy_scalars_accepted(self):
        cfg = DetectorConfig(self.TARGET, np.float64(0.5), stall_patience=np.int64(3),
                             max_samples=np.int32(7))
        assert cfg.stall_patience == 3 and cfg.max_samples == 7


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


def reference_log_volume(A, B):
    """log Vol([A, B]) of two bases: -inf when dim A + dim B > n, else the log
    of the sines of B off span(A)."""
    if A.dim + B.dim > A.ambient_dim:
        return -math.inf
    return residual_log_volume(B.basis - A.basis @ (A.basis.T @ B.basis))


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
        log_t = reference_log_volume(SubspaceBasis(vecs[:, :k]), cfg.target_basis) if k else 0.0
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

    def test_inverse_statistic_capped_just_below_exp_overflow(self):
        # log T = 30 log(eps) = -709.9 at sample 30: above the -710 guard the
        # cap once had, but exp(709.9) overflows a float.
        n, d = 64, 30
        eps = math.exp(-709.9 / d)
        state = detector_init(passive_config(SubspaceBasis(np.eye(n)[:, :d]), d))
        for j in range(d):
            y = np.zeros(n)
            y[j], y[d + j] = 1.0, eps
            ingest(state, y)
        i, t, inv_t, k = state.trajectory[-1]
        assert (i, inv_t, k) == (d, INV_T_CAP, d)
        # T itself is exp(log T), a subnormal float rather than 0.0.
        assert t == pytest.approx(math.exp(-709.9), rel=1e-9, abs=0.0)

    def test_statistic_and_inverse_agree_below_exp_underflow_guard(self):
        # log T = -705 at sample 30, where exp(log T) is still a normal float:
        # T and the uncapped 1/T = 1.505e306 on that row must be reciprocals.
        n, d = 64, 30
        eps = math.exp(-705.0 / d)
        state = detector_init(passive_config(SubspaceBasis(np.eye(n)[:, :d]), d))
        for j in range(d):
            y = np.zeros(n)
            y[j], y[d + j] = 1.0, eps
            ingest(state, y)
        i, t, inv_t, k = state.trajectory[-1]
        assert (i, k) == (d, d) and inv_t < INV_T_CAP
        assert t * inv_t == pytest.approx(1.0, abs=1e-12)


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

    @pytest.mark.parametrize("seed", range(5))
    def test_large_scale_does_not_matter_below_the_bound(self, seed):
        # At 1e150 tr(M) + |y|^2 stays below 1e308, so the answer is the
        # unscaled one. At 1e160 |y|^2 overflows, and sample 1 is refused; it
        # used to read as a collapse, (1, False).
        sc = noiseless_scenario(32, 6, 2, True, seed)
        ys = list(sample_stream(sc, np.random.default_rng(seed + 1), 8))
        want = noiseless_breakpoint(sc.target_basis, ys)
        assert noiseless_breakpoint(sc.target_basis, [1e150 * y for y in ys]) == want == (7, True)
        with pytest.raises(ValueError, match="sample 1 overflows the scatter"):
            noiseless_breakpoint(sc.target_basis, [1e160 * y for y in ys])

    @pytest.mark.parametrize("seed", [0, 3, 6])
    def test_many_directions_do_not_matter(self, seed):
        # 120 stacked factors below 1 multiply to less than tol just before
        # d1 + 1; each step is tested on its own.
        sc = noiseless_scenario(1024, 120, 10, True, seed)
        samples = sample_stream(sc, np.random.default_rng(seed + 1), 122)
        assert noiseless_breakpoint(sc.target_basis, samples) == (121, True)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1j])
    def test_non_finite_sample_rejected(self, bad):
        # Without the check it returned (None, None), the "stream ended" answer;
        # a complex sample used to become its real part.
        sc = noiseless_scenario(16, 3, 2, True, 87)
        ys = [y.astype(type(bad)) for y in sample_stream(sc, np.random.default_rng(88), 6)]
        ys[1][5] = bad
        what = "has an entry that is not a real number" if bad == 1j else "has a non-finite entry"
        with pytest.raises(ValueError, match=f"sample 2 {what}"):
            noiseless_breakpoint(sc.target_basis, ys)

    def test_budget_exhaustion(self):
        sc = noiseless_scenario(16, 3, 1, False, 85)
        m, present = noiseless_breakpoint(
            sc.target_basis, sample_stream(sc, np.random.default_rng(86), 2)
        )
        assert (m, present) == (None, None)

    def test_nan_tol_rejected(self):
        # NaN fails every comparison, so a "tol <= 0" test alone lets it through.
        # At tol = 1 or inf the first sample would read as the breakpoint (1, False).
        sc = noiseless_scenario(16, 3, 1, True, 80)
        for tol in (math.nan, 1.0, math.inf):
            with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
                noiseless_breakpoint(sc.target_basis,
                                     sample_stream(sc, np.random.default_rng(81), 6), tol=tol)

    def test_sample_of_wrong_length_rejected(self):
        sc = noiseless_scenario(16, 3, 1, True, 80)
        ys = list(sample_stream(sc, np.random.default_rng(81), 3)) + [np.ones(15)]
        with pytest.raises(ValueError, match="does not match ambient dim 16"):
            noiseless_breakpoint(sc.target_basis, ys)

    @staticmethod
    def unit_off(span, rng):
        """A random unit vector orthogonal to the columns of ``span``."""
        q = np.linalg.qr(span)[0]
        w = rng.standard_normal(span.shape[0])
        w -= q @ (q.T @ w)
        return w / np.linalg.norm(w)

    @pytest.mark.parametrize("part,want", [(1e-10, (4, False)), (1e-6, (None, None))])
    def test_absent_near_tolerance(self, part, want):
        # Sample 4 is a mix of the first three plus a part off their span of
        # `part` times its norm: below tol = 1e-8 it adds no direction.
        sc = noiseless_scenario(48, 6, 2, False, 90)
        rng = np.random.default_rng(91)
        ys = list(sample_stream(sc, rng, 3))
        y = np.column_stack(ys) @ rng.standard_normal(3)
        y += part * np.linalg.norm(y) * self.unit_off(np.column_stack(ys), rng)
        assert noiseless_breakpoint(sc.target_basis, ys + [y]) == want

    @pytest.mark.parametrize("part,want", [(1e-10, (7, True)), (1e-7, (None, None))])
    def test_present_near_tolerance(self, part, want):
        # Sample 7 adds a unit direction of the clutter-plus-target span, tilted
        # off that span by `part`: the residual of its new direction off
        # [Q, Q_s], which the drop of the stacked log-volume measures, is `part`.
        sc = noiseless_scenario(48, 6, 2, True, 92)
        rng = np.random.default_rng(93)
        ys = list(sample_stream(sc, rng, 6))
        joint = np.column_stack([sc.clutter_basis.basis, sc.target_basis.basis])
        p = joint @ rng.standard_normal(8)
        q = np.linalg.qr(np.column_stack(ys))[0]
        p -= q @ (q.T @ p)
        y = np.column_stack(ys) @ rng.standard_normal(6) + p / np.linalg.norm(p)
        y += part * self.unit_off(joint, rng)
        assert noiseless_breakpoint(sc.target_basis, ys + [y]) == want


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


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to np.linalg.svd, in order. Kept apart
    from eig_calls, whose assertions list its solvers' calls exactly."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def svd_log_volume(state):
    """log Vol([Q^T, Q_s]) from the SVD of off = Q_s - Q^T X over the state's r directions."""
    r = state._rank
    return residual_log_volume(state.config.target_basis.basis - state._q[:r].T @ state._x[:r])


class TestLogVolumeUpdate:
    """The state keeps log Vol([Q^T, Q_s]) by a rank-1 update per new direction,
    with an SVD only when the pivot falls to the floor or log Vol is -inf, so
    a step that keeps all r directions takes no SVD."""

    # Fixed before the first run: 1e-9 in log Vol is 1e-9 relative in 1/T,
    # the tolerance the trajectory is held to against the SVD path elsewhere.
    LOG_VOL_ATOL = 1e-9

    def run(self, cfg, ys, svd_calls):
        """Ingest ys, checking after every sample that the stored log Vol is
        the SVD's, and that the step took one SVD per fallback plus one when
        0 < k < r (and k + d2 <= n). Returns (stored log Vol, fallback, k = r)
        per sample."""
        n, d2 = cfg.target_basis.ambient_dim, cfg.target_basis.dim
        floor = 0.5 * math.log(detector._PIVOT_FLOOR)
        state, out = detector_init(cfg), []
        for i, y in enumerate(ys, start=1):
            before, rank = svd_log_volume(state), state._rank
            svd_calls.clear()
            ingest(state, y)
            calls = len(svd_calls)
            want = svd_log_volume(state)
            if want == -math.inf:
                assert state._log_vol == -math.inf, f"sample {i}"
            else:
                assert abs(state._log_vol - want) <= self.LOG_VOL_ATOL, f"sample {i}"
            # A new direction's pivot is exp(2 (log Vol after - log Vol before)).
            fallback = state._rank > rank and (before == -math.inf or want - before <= floor)
            k, r = state.estimated_rank, state._rank
            assert calls == fallback + (0 < k < r and k + d2 <= n), f"sample {i}"
            out.append((state._log_vol, fallback, k == r))
        return out

    @pytest.mark.parametrize("present", [True, False])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 40.0, 60.0])
    def test_matches_svd_after_every_sample(self, present, snr_db, svd_calls):
        # n + 8 samples, so r reaches n, where off vanishes and log Vol is -inf.
        n = 32
        for seed in range(2):
            sc = make_scenario(ScenarioConfig(n, 4, 3, snr_db, present, 560 + seed))
            cfg = replace(passive_config(sc.target_basis, n + 8), noise_variance_hint=sc.noise_std**2)
            rows = self.run(cfg, list(sample_stream(sc, np.random.default_rng(seed), n + 8)), svd_calls)
            assert rows[-1][0] == -math.inf

    @pytest.mark.parametrize("present", [True, False])
    def test_noiseless_stream_through_breakpoint(self, present, svd_calls):
        # Present: the stacked volume collapses at d1 + 1, where the pivot
        # cancels; from there log Vol is -inf and each new direction takes
        # the SVD. Absent: no sample past d1 adds a direction.
        n, d1, d2 = 24, 5, 2
        sc = noiseless_scenario(n, d1, d2, present, 565)
        ys = list(sample_stream(sc, np.random.default_rng(566), 3 * d1))
        rows = self.run(passive_config(sc.target_basis, len(ys)), ys, svd_calls)
        log_vol = [row[0] for row in rows]
        assert all(v > -math.inf for v in log_vol[:d1])
        if present:
            assert rows[d1][1] and log_vol[d1:] == [-math.inf] * (len(ys) - d1)
        else:
            assert log_vol[d1:] == [log_vol[d1 - 1]] * (len(ys) - d1)

    def test_zero_and_repeated_samples_add_no_row(self, svd_calls):
        n = 24
        sc = make_scenario(ScenarioConfig(n, 4, 2, 10.0, True, 567))
        ys = list(sample_stream(sc, np.random.default_rng(568), 40))
        ys[0], ys[4], ys[9], ys[10], ys[15] = np.zeros(n), ys[2].copy(), -2.5 * ys[3], np.zeros(n), 1e-3 * ys[14]
        cfg = replace(passive_config(sc.target_basis, len(ys)), noise_variance_hint=sc.noise_std**2)
        rows = self.run(cfg, ys, svd_calls)
        for i in (0, 4, 9, 10, 15):
            assert rows[i][0] == (rows[i - 1][0] if i else 0.0)

    def test_pivot_below_floor_falls_back_to_svd(self, svd_calls):
        # Samples 4 and 8 lie mostly in span(Q_s): the new direction's pivot
        # 1 - x G^-1 x^T is 0.07 and 0.01, below the floor, yet log Vol stays
        # finite, and the rank-1 updates after each fallback start from the
        # SVD's G^-1.
        n = 16
        rng = np.random.default_rng(569)
        target = orthonormalize(rng.standard_normal((n, 2)), tol=1e-12)
        ys = [rng.standard_normal(n) for _ in range(12)]
        for j in (3, 7):
            ys[j] = 3.0 * target.basis @ rng.standard_normal(2) + 0.1 * rng.standard_normal(n)
        rows = self.run(passive_config(target, len(ys)), ys, svd_calls)
        assert [row[1] for row in rows] == [j in (3, 7) for j in range(12)]
        assert all(row[0] > -math.inf for row in rows)

    def test_k_equals_r_steps_take_no_svd(self, svd_calls):
        # Under the hint rule, while i is well below n the noise eigenvalues
        # sit above 2 sigma^2 and the cut keeps all r directions. None of
        # those steps calls the SVD (run checks each step's count), so the
        # stream's SVD count is its k < r steps plus its fallbacks.
        n, count = 128, 40
        sc = make_scenario(ScenarioConfig(n, 4, 3, 0.0, True, 570))
        cfg = replace(passive_config(sc.target_basis, count), noise_variance_hint=sc.noise_std**2)
        rows = self.run(cfg, list(sample_stream(sc, np.random.default_rng(571), count)), svd_calls)
        assert sum(full and not fallback for _, fallback, full in rows) >= 16
        assert not all(full for _, _, full in rows)

    def test_breakpoint_takes_svd_only_at_fallbacks(self, svd_calls):
        # noiseless_breakpoint reads the state's one-step drop of log Vol. The
        # expected fallbacks come from the SVD of each prefix's stacked volume.
        n, d1, d2 = 24, 5, 2
        floor = 0.5 * math.log(detector._PIVOT_FLOOR)
        for present in (True, False):
            sc = noiseless_scenario(n, d1, d2, present, 11)
            ys = list(sample_stream(sc, np.random.default_rng(12), d1 + 2))
            log_vol = [0.0] + [reference_log_volume(orthonormalize(np.column_stack(ys[:j]), tol=1e-8),
                                                    sc.target_basis) for j in range(1, d1 + 1)]
            if present:  # sample d1 + 1 adds a direction that collapses the stacked volume
                log_vol.append(-math.inf)
            fallbacks = sum(b - a <= floor for a, b in zip(log_vol, log_vol[1:]))
            svd_calls.clear()
            assert noiseless_breakpoint(sc.target_basis, ys) == (d1 + 1, present)
            assert len(svd_calls) == fallbacks


class TestInvariance:
    """The trajectory depends only on the sample span's geometry against span(Q_s).

    Four changes must leave every row's k_i and 1/T as they were: an ambient
    rotation of the samples and Q_s together, a re-basing of Q_s, a scaling
    of the samples with the hint scaled by the square, and a permutation of
    the first n samples (compared from row n on). Each runs under the hint
    rule, the gap rule and the noiseless regime (sigma = 0, hint 0).
    """

    N, D1, D2, SNR_DB, SEEDS = 48, 6, 3, -5.0, range(6)
    # Fixed before the suite was first run: the perfbench reference's 1/T
    # tolerance, and the distance from the cut within which a k mismatch is
    # a tie of rounding, reported rather than failed.
    INV_T_RTOL, CUT_RTOL = 1e-9, 1e-12

    def streams(self, regime):
        """(Q_s, samples, hint) for each seed: 2n samples, both hypotheses."""
        snr_db = NOISELESS if regime == "noiseless" else self.SNR_DB
        for seed in self.SEEDS:
            sc = make_scenario(ScenarioConfig(self.N, self.D1, self.D2, snr_db, seed % 2 == 0, seed))
            ys = np.array(list(sample_stream(sc, np.random.default_rng(seed + 100), 2 * self.N)))
            hint = {"hint": sc.noise_std**2, "gap": None, "noiseless": 0.0}[regime]
            yield sc.target_basis.basis, ys, hint

    @staticmethod
    def trajectory(Qs, ys, hint):
        cfg = replace(passive_config(SubspaceBasis(Qs), len(ys)), noise_variance_hint=hint)
        state = detector_init(cfg)
        for y in ys:
            ingest(state, y)
        return cfg, state.trajectory

    def near_cut(self, cfg, ys, i):
        """Whether the rank rule's cut at sample i is a tie to CUT_RTOL: an
        eigenvalue that close to the hint rule's threshold, or, under the gap
        rule, a runner-up gap ratio that close to the largest."""
        lam = np.maximum(np.linalg.eigvalsh(ys[:i].T @ ys[:i] / i)[::-1], 0.0)
        floor = 1e-10 * lam[0]
        if cfg.noise_variance_hint is not None:
            level = max(cfg.rank_gap_factor * cfg.noise_variance_hint, floor)
            return bool(np.any(np.abs(lam - level) <= self.CUT_RTOL * level))
        head = lam[: min(i - 1, self.N - 1)]
        ratios = np.sort(head[head > floor] / np.maximum(lam[1 : head.size + 1], floor)[head > floor])
        return ratios.size > 1 and ratios[-1] - ratios[-2] <= self.CUT_RTOL * ratios[-1]

    def changed(self, change, Qs, ys, hint):
        """(Q_s, samples, hint, first compared row) after one change."""
        rng = np.random.default_rng(7)
        if change == "rotate":
            R = np.linalg.qr(rng.standard_normal((self.N, self.N)))[0]
            return R @ Qs, ys @ R.T, hint, 0
        if change == "rebase":
            return Qs @ np.linalg.qr(rng.standard_normal((self.D2, self.D2)))[0], ys, hint, 0
        if change == "scale":
            return Qs, 7.0 * ys, None if hint is None else 49.0 * hint, 0
        perm = np.concatenate([rng.permutation(self.N), np.arange(self.N, len(ys))])
        return Qs, ys[perm], hint, self.N - 1

    @pytest.mark.parametrize("change", ["rotate", "rebase", "scale", "permute"])
    @pytest.mark.parametrize("regime", ["hint", "gap", "noiseless"])
    def test_trajectory_invariant(self, regime, change):
        ties = []
        for Qs, ys, hint in self.streams(regime):
            cfg, base = self.trajectory(Qs, ys, hint)
            Qs2, ys2, hint2, start = self.changed(change, Qs, ys, hint)
            _, other = self.trajectory(Qs2, ys2, hint2)
            for (i, _, inv_t, k), (i2, _, inv_t2, k2) in zip(base[start:], other[start:]):
                assert i == i2
                if k != k2:
                    assert self.near_cut(cfg, ys, i), f"k_{i} = {k} against {k2} ({change})"
                    ties.append((i, k, k2))
                    continue
                assert inv_t2 == pytest.approx(inv_t, rel=self.INV_T_RTOL), f"row {i} ({change})"
        if ties:
            print(f"{regime}/{change}: k mismatches at a tie of the cut (i, k, k'): {ties}")

    @pytest.mark.parametrize("regime", ["hint", "gap", "noiseless"])
    def test_statistic_times_inverse_is_one_below_cap(self, regime):
        for Qs, ys, hint in self.streams(regime):
            for _, t, inv_t, _ in self.trajectory(Qs, ys, hint)[1]:
                if inv_t < INV_T_CAP:
                    assert t * inv_t == pytest.approx(1.0, abs=1e-12)


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread setter, at one thread; the count is put back after the test."""
    found = detector._openblas_threads()
    if found is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread functions")
    get, put = found
    original = get()
    put(1)
    yield put
    put(original)


class TestReadAhead:
    """``run_stream`` on a 2-D array, at one OpenBLAS thread and w >= 2 CPUs,
    folds rows up to w ahead on its one state with a pool of w threads, and
    gives the one-at-a-time loop's decision and trajectory, bit for bit."""

    N = 48

    @staticmethod
    def set_cpus(monkeypatch, cpus):
        """Make the affinity mask hold ``cpus`` CPUs; return the pool width."""
        monkeypatch.setattr(detector.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        return min(cpus, 2)

    def hint_stream(self, snr_db=-5.0, present=True, seed=600):
        sc = make_scenario(ScenarioConfig(self.N, 6, 3, snr_db, present, seed))
        ys = np.array(list(sample_stream(sc, np.random.default_rng(seed), 2 * self.N)))
        cfg = replace(passive_config(sc.target_basis, len(ys)), noise_variance_hint=sc.noise_std**2)
        return cfg, ys

    def tiny_then_repeat(self):
        # test_eigenvectors_only_when_cut_drops_below_rank's stream, with the
        # tiny sample twice: steps 1 and 2 (k = 0 < r = 1) compute spectra,
        # and the steps after them take the Cholesky test, so the spectra the
        # pool started for those steps go unused.
        n = 16
        rng = np.random.default_rng(538)
        target = orthonormalize(rng.standard_normal((n, 2)), tol=1e-12)
        ys = np.array([rng.standard_normal(n) for _ in range(3 * n)])
        ys[0], ys[1], ys[2] = 1e-3 * ys[2], 1e-3 * ys[2], 10.0 * ys[2]
        return replace(passive_config(target, len(ys)), noise_variance_hint=0.05), ys

    def decides_present(self, row):
        """The 0 dB stream with a threshold that 1/T first crosses at 0-based ``row``."""
        cfg, ys = self.hint_stream(snr_db=0.0)
        inv_t = [t[2] for t in run_stream(cfg, iter(ys))[1]]
        assert inv_t[row] > max(inv_t[:row])
        return replace(cfg, divergence_threshold=max(inv_t[:row])), ys

    @staticmethod
    def not_real(ys, row):
        """Copies of ys whose ``row`` holds an entry that is not a real number:
        {} or 1+2j in an object array, or 1j in a complex array whose other
        entries are real."""
        braces, complex_obj, complex_dtype = ys.astype(object), ys.astype(object), ys + 0j
        braces[row, 0], complex_obj[row, 0] = {}, 1 + 2j
        complex_dtype[row, 0] += 1j
        return {"{}": braces, "1+2j": complex_obj, "1j": complex_dtype}

    @staticmethod
    def overflowing_pair(ys):
        """Two equal rows along the first sample, of squared norm 0.95e308
        each: either folds in alone, but the second overflows M[0, 0]."""
        row = math.sqrt(0.95e308) * ys[0] / np.linalg.norm(ys[0])
        return np.array([row, row])

    def streams(self):
        cfg, ys = self.hint_stream()
        yield "hint", cfg, ys
        yield "tiny_then_repeat", *self.tiny_then_repeat()
        yield "gap", replace(cfg, noise_variance_hint=None), ys
        sc = noiseless_scenario(self.N, 6, 3, True, 601)
        ys = np.array(list(sample_stream(sc, np.random.default_rng(601), 2 * self.N)))
        yield "noiseless", passive_config(sc.target_basis, len(ys)), ys
        yield "present", *self.decides_present(59)
        sc = make_scenario(ScenarioConfig(self.N, 6, 3, -5.0, False, 610))
        ys = np.array(list(sample_stream(sc, np.random.default_rng(0), 2 * self.N)))
        yield "absent", DetectorConfig(sc.target_basis, sc.noise_std**2, stall_epsilon=0.02,
                                       stall_patience=10, max_samples=len(ys)), ys

    @staticmethod
    def counted_eigh(monkeypatch):
        """Record, per np.linalg.eigh call, whether it ran on the calling
        thread and the order r of its matrix."""
        calls, eigh = [], np.linalg.eigh

        def counted(m):
            calls.append((threading.current_thread() is threading.main_thread(), m.shape[0]))
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @staticmethod
    def kept_states(monkeypatch):
        """Record each state ``run_stream`` makes."""
        states, init = [], detector.detector_init

        def keep(cfg):
            states.append(init(cfg))
            return states[-1]

        monkeypatch.setattr(detector, "detector_init", keep)
        return states

    @staticmethod
    def thread_counts(monkeypatch):
        """Record ``threading.active_count()`` at every rank estimate."""
        seen, rank = [], detector.estimate_rank

        def spy(*args):
            seen.append(threading.active_count())
            return rank(*args)

        monkeypatch.setattr(detector, "estimate_rank", spy)
        return seen

    def test_same_outputs_as_one_at_a_time(self, blas_threads, monkeypatch):
        for cpus in (1, 2, 4):
            self.set_cpus(monkeypatch, cpus)
            outcomes = {}
            for name, cfg, ys in self.streams():
                got = run_stream(cfg, ys)
                assert got == run_stream(cfg, iter(ys)), (name, cpus)
                outcomes[name] = got[0]
            assert outcomes["present"] == Decision(Outcome.TARGET_PRESENT, decided_at=60)
            assert outcomes["absent"].variant is Outcome.TARGET_ABSENT
            assert outcomes["absent"].decided_at >= self.N

    def test_same_outputs_under_fast_thread_switching(self, blas_threads, monkeypatch):
        # More pool threads than this machine may have cores, and the GIL
        # handed over every 10 us, so the folds and the pool interleave finely.
        self.set_cpus(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for name, cfg, ys in self.streams():
                assert run_stream(cfg, ys) == run_stream(cfg, iter(ys)), name
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("stream", ["hint", "tiny_then_repeat"])
    def test_each_spectrum_computed_once(self, blas_threads, monkeypatch, stream):
        cfg, ys = self.hint_stream() if stream == "hint" else self.tiny_then_repeat()
        n = cfg.target_basis.ambient_dim
        calls = self.counted_eigh(monkeypatch)
        run_stream(cfg, iter(ys))
        serial = list(calls)
        assert all(on_caller for on_caller, _ in serial) and len(serial) > len(ys) // 3
        for cpus in (2, 4):
            width = self.set_cpus(monkeypatch, cpus)
            calls.clear()
            run_stream(cfg, ys)
            # Only a spectrum the pool started for a step that then took the
            # Cholesky test is extra (one not yet started is cancelled, so the
            # count depends on timing), and the state folds at most width rows ahead.
            assert len(serial) <= len(calls) <= len(serial) + width
            past_n = [on_caller for on_caller, r in calls if r == n]
            assert len(past_n) > len(ys) // 3 and past_n.count(False) > len(past_n) // 2

    def test_serial_loop_at_one_cpu(self, blas_threads, monkeypatch):
        self.set_cpus(monkeypatch, 1)
        cfg, ys = self.hint_stream()
        calls = self.counted_eigh(monkeypatch)
        want = run_stream(cfg, iter(ys))
        serial = list(calls)
        calls.clear()
        before, seen = threading.active_count(), self.thread_counts(monkeypatch)
        assert run_stream(cfg, ys) == want
        assert calls == serial and all(on_caller for on_caller, _ in calls)
        assert set(seen) == {before}

    def test_no_read_ahead_at_two_threads(self, blas_threads, monkeypatch):
        blas_threads(2)
        self.set_cpus(monkeypatch, 2)
        cfg, ys = self.hint_stream()
        calls = self.counted_eigh(monkeypatch)
        want = run_stream(cfg, iter(ys))
        serial = list(calls)
        assert run_stream(cfg, ys) == want
        assert calls == serial + serial

    def test_state_folds_at_most_width_ahead(self, blas_threads, monkeypatch):
        # At each decision, sample_count - len(trajectory) rows are folded past
        # the decided step: width on a step that read ahead, never more. Each
        # row is folded once, into the one state run_stream makes.
        cfg, ys = self.hint_stream()
        states, leads, folds = self.kept_states(monkeypatch), [], []
        append, decide = detector._append_sample, detector.decide

        def counted_append(state, vec):
            folds.append(state.sample_count)
            return append(state, vec)

        def spy(state):
            leads.append(state.sample_count - len(state.trajectory))
            return decide(state)

        monkeypatch.setattr(detector, "_append_sample", counted_append)
        monkeypatch.setattr(detector, "decide", spy)
        seen = self.thread_counts(monkeypatch)
        for cpus, width in ((2, 2), (4, 2), (9, 2)):
            assert self.set_cpus(monkeypatch, cpus) == width
            states.clear(), leads.clear(), seen.clear(), folds.clear()
            before = threading.active_count()
            _, trajectory = run_stream(cfg, ys)
            assert max(leads) == width and max(seen) <= before + width
            assert len(states) == 1 and folds == list(range(len(trajectory)))

    @pytest.mark.parametrize("row", [59, 60])
    def test_row_after_the_decision_is_not_checked(self, blas_threads, monkeypatch, row):
        # Two deciding rows one apart, and 1..width rows past each a NaN, a
        # row whose squared norm overflows, two rows that each fold in alone
        # but overflow M together, or an entry that is not a real number, so
        # that the read-ahead meets them at some offset from the deciding step.
        cfg, ys = self.decides_present(row)
        for cpus in (2, 4):
            width = self.set_cpus(monkeypatch, cpus)
            for offset in range(1, width + 1):
                nan, huge, pair = ys.copy(), ys.copy(), ys.copy()
                nan[row + offset] = np.nan
                huge[row + offset] = 1e200
                pair[row + offset : row + offset + 2] = self.overflowing_pair(ys)
                not_real = self.not_real(ys, row + offset).items()
                for name, bad in (("nan", nan), ("1e200", huge), ("pair", pair), *not_real):
                    got = run_stream(cfg, bad)
                    assert got == run_stream(cfg, iter(bad)), (cpus, offset, name)
                    assert got[0].decided_at == row + 1

    @pytest.mark.parametrize("row", [60, 61])
    def test_non_finite_row_raises_at_its_own_step(self, blas_threads, monkeypatch, row):
        # An inf row, a 1e200 row, the second of two rows that each fold in
        # alone, and a row with an entry that is not a real number raise
        # ValueError naming the row. On both paths the state that raises has
        # stepped every row before the bad one.
        cfg, ys = self.hint_stream()
        states = self.kept_states(monkeypatch)
        for cpus in (2, 4):
            width = self.set_cpus(monkeypatch, cpus)
            for offset in range(width + 1):
                bad = row + offset
                inf, huge, pair = ys.copy(), ys.copy(), ys.copy()
                inf[bad] = np.inf
                huge[bad] = 1e200
                pair[bad - 1 : bad + 1] = self.overflowing_pair(ys)
                cases = [(inf, "has a non-finite entry"), (huge, "overflows the scatter"),
                         (pair, "overflows the scatter")]
                cases += [(rows, "has an entry that is not a real number")
                          for rows in self.not_real(ys, bad).values()]
                for rows, what in cases:
                    message = f"sample {bad + 1} {what}"
                    for samples in (iter(rows), rows):
                        states.clear()
                        with pytest.raises(ValueError, match=message):
                            run_stream(cfg, samples)
                        assert len(states) == 1 and len(states[0].trajectory) == bad

    @pytest.mark.parametrize("cpu_count,width", [(1, 1), (4, 2)])
    def test_all_cpus_counted_without_an_affinity_mask(self, blas_threads, monkeypatch,
                                                        cpu_count, width):
        # Where the OS keeps no affinity mask, os.cpu_count() sets the width:
        # one CPU keeps the one-at-a-time loop and starts no thread, and four
        # read ahead at width 2.
        monkeypatch.delattr(detector.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(detector.os, "cpu_count", lambda: cpu_count)
        cfg, ys = self.hint_stream()
        want = run_stream(cfg, iter(ys))
        leads, decide = [], detector.decide

        def spy(state):
            leads.append(state.sample_count - len(state.trajectory))
            return decide(state)

        monkeypatch.setattr(detector, "decide", spy)
        before, seen = threading.active_count(), self.thread_counts(monkeypatch)
        assert run_stream(cfg, ys) == want
        if width == 1:
            assert max(leads) == 0 and set(seen) == {before}
        else:
            assert max(leads) == width and before < max(seen) <= before + width

    def test_refused_row_leaves_the_state_as_it_was(self):
        # The second row of the pair is refused before any write, so the
        # stream goes on as if it had never been there. M[0, 0] used to
        # overflow to inf before the error.
        cfg, ys = self.hint_stream()
        ys[9:11] = self.overflowing_pair(ys)
        state = detector_init(cfg)
        for y in ys[:10]:
            ingest(state, y)
        count, rank, m, trajectory = state.sample_count, state._rank, state._m.copy(), list(state.trajectory)
        with pytest.raises(ValueError, match="sample 11 overflows the scatter"):
            ingest(state, ys[10])
        assert (state.sample_count, state._rank, state.trajectory) == (count, rank, trajectory)
        assert np.array_equal(state._m, m)
        for y in ys[11:]:
            ingest(state, y)
        assert state.trajectory == run_stream(cfg, iter(np.delete(ys, 10, axis=0)))[1]

    @pytest.mark.parametrize("budget", [70, 71])
    def test_no_row_read_past_the_budget(self, blas_threads, monkeypatch, budget):
        # Past i = n every step computes a spectrum, so a finite row past the
        # budget would cost extra eigh calls, and a non-finite one must not raise.
        cfg, ys = self.hint_stream()
        cfg = replace(cfg, max_samples=budget)
        calls = self.counted_eigh(monkeypatch)
        want = run_stream(cfg, iter(ys))
        serial = len(calls)
        for cpus in (2, 4):
            self.set_cpus(monkeypatch, cpus)
            calls.clear()
            assert run_stream(cfg, ys) == want
            assert len(calls) == serial
            bad = ys.copy()
            bad[budget:] = np.nan
            assert run_stream(cfg, bad) == want
        assert len(want[1]) == budget

    def test_worker_gone_after_return(self, blas_threads, monkeypatch):
        cfg, ys = self.hint_stream()
        seen = self.thread_counts(monkeypatch)
        for cpus in (2, 4):
            width = self.set_cpus(monkeypatch, cpus)
            before = threading.active_count()
            seen.clear()
            run_stream(cfg, ys)
            assert before < max(seen) <= before + width
            assert threading.active_count() == before

    @pytest.mark.parametrize("at", [6, 7])
    def test_worker_gone_after_raise(self, blas_threads, monkeypatch, at):
        # The gap rule computes a spectrum at every step, so the pool has
        # spectra in flight. A direction tilted after step ``at`` fails every
        # later fold: the rows folded ahead by then still step, and the step of
        # the first row not folded raises.
        cfg, ys = self.hint_stream()
        cfg = replace(cfg, noise_variance_hint=None)
        states, rank = self.kept_states(monkeypatch), detector.estimate_rank

        def tilt(lam, cfg, i):
            if i == at:
                states[0]._q[2] += 1e-3 * states[0]._q[4]
            return rank(lam, cfg, i)

        monkeypatch.setattr(detector, "estimate_rank", tilt)
        for cpus in (2, 4):
            width = self.set_cpus(monkeypatch, cpus)
            states.clear()
            before = threading.active_count()
            with pytest.raises(ValueError, match="orthonormal"):
                run_stream(cfg, ys)
            assert len(states) == 1 and len(states[0].trajectory) == at + width
            assert threading.active_count() == before


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

    def test_exact_bytes(self, tmp_path):
        # LF line endings and repr floats, the format of the simulate CSV too.
        traj = [(1, 1 / 3, 3.0000000000000004, 1), (2, 0.0, 1e308, 2)]
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, Decision(Outcome.TARGET_PRESENT, decided_at=2), path)
        assert path.read_bytes() == (
            b"i,T,inv_T,k_i,decision\n"
            b"1,0.3333333333333333,3.0000000000000004,1,\n"
            b"2,0.0,1e+308,2,target_present\n"
        )


class TestDecisionType:
    def test_decided_at_consistency(self):
        with pytest.raises(ValueError):
            Decision(Outcome.UNDECIDED, decided_at=3)
        with pytest.raises(ValueError):
            Decision(Outcome.TARGET_PRESENT, decided_at=None)
