import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lensmimo import experiments
from lensmimo import upa as upa_module
from lensmimo.arrays import UpaConfig
from lensmimo.channel import (
    BANDWIDTH_HZ,
    NOISE_POWER,
    PathResponses,
    PathSet,
    path_responses,
    sample_paths,
    tx_power,
)
from lensmimo.errors import InvalidInputError
from lensmimo.experiments import preset
from lensmimo.numerics import RANK_TOL, eigen_gains, waterfill_capacity
from lensmimo.upa import OfdmConfig, eigenmode_capacity, ofdm_capacity, power_select_antennas
from oracles import (
    dense_channel,
    dense_taps,
    eigvalsh_subcarrier_gains,
    ofdm_coefficients,
    rank_per_trial,
)


def flat_channel(h):
    return ((0, np.asarray(h, complex)),)


def random_responses(rng, num_paths, n_rx, n_tx, delays=None):
    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return PathResponses(
        rx=cn(num_paths, n_rx),
        tx=cn(num_paths, n_tx),
        gains=cn(num_paths),
        delays=np.zeros(num_paths, int) if delays is None else np.asarray(delays, int),
    )


def oracle_subchannels(taps, subcarriers):
    """Per-subcarrier matrices H_k = sum_t tap_t exp(-j 2 pi k n_t / N)."""
    k = np.arange(subcarriers)[:, None, None]
    return sum(np.exp(-2j * np.pi * k * n / subcarriers) * mat for n, mat in taps)


def oracle_ofdm_capacity(responses, budget, noise, cfg):
    """MIMO-OFDM capacity from a full SVD of every dense subcarrier matrix."""
    n = cfg.subcarriers
    gains = []
    for h in oracle_subchannels(dense_taps(responses), n):
        s = np.linalg.svd(h, compute_uv=False)
        gains.append(np.where(s < RANK_TOL * s[0], 0.0, s) ** 2)
    rate = waterfill_capacity(np.concatenate(gains), n * budget, noise)
    return (n / (n + cfg.cp_samples)) * rate / n


def per_element_ofdm_capacity(responses, budgets, noise, cfg):
    """The subcarrier route of ofdm_capacity on a phase table built in one
    piece for the longest delay, one complex exponential per entry
    (``ofdm_coefficients`` of unit gains), in place of the cached table
    that grows by rows."""
    rows = int(responses.delays.max()) + 1
    table = ofdm_coefficients(np.ones(rows), np.arange(rows), cfg.subcarriers).T
    return upa_module._subcarrier_capacity(responses, budgets, noise, cfg, table)


def repeat_path_half_a_symbol_later(responses, n):
    """Path 1 made a copy of path 0, N/2 samples later: the two cancel on
    every odd subcarrier, whose core keeps the other paths alone, so those
    subcarriers lose a rank and fall back to the SVD of their cores."""
    responses.rx[..., 1, :] = responses.rx[..., 0, :]
    responses.tx[..., 1, :] = responses.tx[..., 0, :]
    responses.gains[..., 1] = responses.gains[..., 0]
    responses.delays[..., 1] = (responses.delays[..., 0] + n // 2) % n


def block_responses(rng, lead, num_paths, n_rx, n_tx, subcarriers, longest=None):
    """Random responses with gains and delays of shape lead + (L,), delays
    below ``subcarriers``; ``longest`` sets the largest delay."""
    responses = random_responses(rng, num_paths, n_rx, n_tx)
    gains = rng.standard_normal(lead + (num_paths,)) + 1j * rng.standard_normal(
        lead + (num_paths,)
    )
    high = subcarriers if longest is None else longest + 1
    delays = rng.integers(0, high, size=lead + (num_paths,))
    if longest is not None:
        delays.flat[0] = longest
    return replace(responses, gains=gains, delays=delays)


def selected_link(cfg, seed, trial, n_rx_rf, n_tx_rf):
    """The UPA link a sweep of ``cfg`` selects in trial ``trial`` of seed
    ``seed`` under the given RF budgets."""
    rx = UpaConfig(cfg.rx_aperture, cfg.rx_azimuth_dim)
    tx = UpaConfig(cfg.tx_aperture, cfg.tx_azimuth_dim)
    paths = sample_paths(cfg.stats, np.random.default_rng([seed, trial]))
    responses = path_responses(paths, tx, rx)
    return responses.restrict(*power_select_antennas(responses, rx, tx, n_rx_rf, n_tx_rf))


class TestOfdmConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            OfdmConfig(subcarriers=500)
        with pytest.raises(InvalidInputError):
            OfdmConfig(cp_samples=-1)
        # 2^0 is a power of two, but one subcarrier is the narrowband link
        # (UPA-eigenmode), and a one-trial stack of one Gram row does not
        # round like a block's stack of T rows.
        with pytest.raises(InvalidInputError, match="at least 2"):
            OfdmConfig(subcarriers=1)
        assert OfdmConfig(subcarriers=2).subcarriers == 2

    @pytest.mark.parametrize("field", ["subcarriers", "cp_samples"])
    @pytest.mark.parametrize("value", [math.nan, 2.5, 512.0, math.inf])
    def test_numerology_must_be_integers(self, field, value):
        # NaN passes every comparison check, and a float count fails in the
        # power-of-two test with a bare TypeError.
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            OfdmConfig(**{field: value})
        assert OfdmConfig(**{field: np.int64(64)}) == OfdmConfig(**{field: 64})


class TestEigenmodeCapacity:
    def test_scalar(self):
        one = np.ones((1, 1), complex)
        responses = PathResponses(rx=one, tx=one, gains=one[0], delays=np.zeros(1, int))
        assert eigenmode_capacity(responses, 3.0, 1.0) == pytest.approx(2.0)

    def test_rank_one(self):
        # H = [3, 4]^T: singular value 5
        responses = PathResponses(
            rx=np.array([[3.0, 4.0]], complex),
            tx=np.ones((1, 1), complex),
            gains=np.ones(1, complex),
            delays=np.zeros(1, int),
        )
        c = eigenmode_capacity(responses, 2.0, 1.0)
        assert c == pytest.approx(math.log2(1 + 2.0 * 25.0))

    def test_zero_matrix(self):
        responses = random_responses(np.random.default_rng(0), 2, 3, 3)
        zero = PathResponses(
            rx=responses.rx, tx=responses.tx, gains=np.zeros(2, complex), delays=responses.delays
        )
        assert eigenmode_capacity(zero, 1.0, 1.0) == 0.0

    def test_matches_full_matrix_svd(self):
        rng = np.random.default_rng(8)
        budgets = np.array([0.01, 1.0, 100.0])
        for num_paths, n_rx, n_tx in ((3, 8, 5), (4, 2, 6), (5, 3, 2), (2, 1, 1)):
            responses = random_responses(rng, num_paths, n_rx, n_tx)
            s = np.linalg.svd(dense_channel(responses), compute_uv=False)
            direct = waterfill_capacity(np.where(s < RANK_TOL * s[0], 0.0, s) ** 2, budgets, 1.0)
            assert np.allclose(eigenmode_capacity(responses, budgets, 1.0), direct, rtol=1e-9)


class TestOfdmOracle:
    """The per-subcarrier oracle the capacity tests below compare against,
    and the refusal of taps that do not fit in one OFDM symbol."""

    def test_flat(self):
        h = np.arange(6, dtype=complex).reshape(2, 3)
        subs = oracle_subchannels(flat_channel(h), 8)
        assert len(subs) == 8
        for hk in subs:
            assert np.allclose(hk, h)

    def test_pure_delay_is_all_pass(self):
        h = np.ones((2, 2), complex)
        subs = oracle_subchannels(((3, h),), 16)
        for hk in subs:
            assert np.allclose(np.abs(hk), np.abs(h))

    def test_parseval(self):
        rng = np.random.default_rng(0)
        taps = tuple(
            (n, rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
            for n in (0, 2, 5)
        )
        subs = oracle_subchannels(taps, 32)
        lhs = sum(np.linalg.norm(hk) ** 2 for hk in subs) / 32
        rhs = sum(np.linalg.norm(m) ** 2 for _, m in taps)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_tap_beyond_symbol_rejected(self):
        responses = random_responses(np.random.default_rng(1), 2, 1, 1, delays=(0, 8))
        with pytest.raises(InvalidInputError, match="exceeds the OFDM symbol length"):
            ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(subcarriers=8, cp_samples=0))


class TestOfdmCapacity:
    def test_flat_no_cp_equals_eigenmode(self):
        responses = random_responses(np.random.default_rng(1), 3, 3, 3)
        cfg = OfdmConfig(subcarriers=16, cp_samples=0)
        assert ofdm_capacity(responses, 2.0, 1.0, cfg) == pytest.approx(
            eigenmode_capacity(responses, 2.0, 1.0), rel=1e-9
        )

    def test_flat_cp_overhead_factor_exact(self):
        responses = random_responses(np.random.default_rng(2), 2, 2, 2)
        with_cp = ofdm_capacity(responses, 2.0, 1.0, OfdmConfig(512, 50))
        without = ofdm_capacity(responses, 2.0, 1.0, OfdmConfig(512, 0))
        assert with_cp == pytest.approx((512 / 562) * without, rel=1e-12)

    def test_phase_ramp_invariance(self):
        responses = random_responses(np.random.default_rng(3), 3, 2, 3)
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        base = ofdm_capacity(responses, 1.0, 0.5, cfg)
        shifted = PathResponses(
            rx=responses.rx, tx=responses.tx, gains=responses.gains, delays=responses.delays + 2
        )
        assert ofdm_capacity(shifted, 1.0, 0.5, cfg) == pytest.approx(base, rel=1e-9)

    def test_cp_never_helps(self):
        responses = random_responses(np.random.default_rng(4), 4, 2, 2, delays=(0, 0, 3, 3))
        with_cp = ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(16, 4))
        without = ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(16, 0))
        assert with_cp <= (16 / 20) * without + 1e-12

    def test_matches_per_subcarrier_svd_oracle(self):
        # Reduced r_R x r_T cores against a full SVD of every dense subcarrier
        # matrix, over draws with more paths than antennas on either side,
        # repeated delays and duplicate path directions.
        rng = np.random.default_rng(9)
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        budgets = np.array([1e-3, 1.0, 1e3])
        seen = dict(more_paths_than_rx=0, more_paths_than_tx=0, shared_delay=0, duplicate=0)
        for _ in range(60):
            num_paths = int(rng.integers(1, 7))
            n_rx, n_tx = (int(v) for v in rng.integers(1, 9, size=2))
            responses = random_responses(
                rng, num_paths, n_rx, n_tx, delays=rng.integers(0, 4, size=num_paths)
            )
            if num_paths > 1 and rng.random() < 0.3:
                # Path 1 arrives and departs along path 0's directions.
                responses.rx[1] = responses.rx[0]
                responses.tx[1] = responses.tx[0]
                seen["duplicate"] += 1
            seen["more_paths_than_rx"] += num_paths > n_rx
            seen["more_paths_than_tx"] += num_paths > n_tx
            seen["shared_delay"] += len(set(responses.delays.tolist())) < num_paths
            oracle = [oracle_ofdm_capacity(responses, b, 0.5, cfg) for b in budgets]
            assert np.allclose(ofdm_capacity(responses, budgets, 0.5, cfg), oracle, rtol=1e-9)
        assert all(count > 0 for count in seen.values()), seen

    def test_singular_subcarriers_take_the_svd(self, monkeypatch):
        # Path 1 duplicates path 0 (directions and gain) with a delay of N/2,
        # so the two cancel on every odd subcarrier and leave a rank-1 core,
        # whose second singular value is rounding noise. Those 8 subcarriers
        # must take the SVD of their cores under the RANK_TOL rule: from the
        # characteristic polynomial, the noise would count as a mode at
        # budgets 200 dB above the noise.
        rng = np.random.default_rng(10)
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        responses = random_responses(rng, 3, 4, 5, delays=(0, 8, 3))
        responses.gains[1] = responses.gains[0]
        responses.rx[1], responses.tx[1] = responses.rx[0], responses.tx[0]
        svd_stacks = []
        cores = PathResponses.cores

        def spy(self, coeffs=None):
            svd_stacks.append(len(coeffs))
            return cores(self, coeffs)

        monkeypatch.setattr(PathResponses, "cores", spy)
        budgets = np.array([1.0, 1e10, 1e20])
        got = ofdm_capacity(responses, budgets, 1.0, cfg)
        oracle = [oracle_ofdm_capacity(responses, b, 1.0, cfg) for b in budgets]
        assert np.allclose(got, oracle, rtol=1e-9, atol=0.0)
        assert responses.ranks == (2, 2) and svd_stacks == [8]

    def test_weak_path_takes_no_fallback(self, monkeypatch):
        # fig6 seed 103, trial 1 has path powers 1 : 0.075 : 7.8e-8, so its
        # third squared singular values are about 7.8e-8 of the first, far
        # below GRAM_TOL. They are quotients accurate relative to
        # themselves, so no subcarrier falls back to the SVD of its core,
        # and each is within 1e-11 of itself of the SVD's, on phases reduced
        # modulo N.
        responses = experiments._Block(preset("fig6", trials=2, seed=103), range(1, 2)).upa
        n = 512
        table = upa_module._phase_table(n, int(responses.delays.max()))
        monkeypatch.setattr(PathResponses, "cores", None)  # any fallback fails
        got = upa_module._subcarrier_gains(responses, table)
        monkeypatch.undo()
        k = np.arange(n)[:, None]
        phases = np.exp(-2j * np.pi * ((k * responses.delays[..., None, :]) % n) / n)
        want = eigen_gains(responses.cores(responses.gains[..., None, :] * phases))
        assert np.max(want[..., 2] / want[..., 0]) < 1e-7
        assert np.all(np.abs(got - want) <= 1e-11 * want)

    def test_non_finite_gains_refused(self):
        responses = random_responses(np.random.default_rng(11), 3, 4, 4)
        responses.gains[2] = np.nan
        assert min(responses.ranks) > 1
        with pytest.raises(InvalidInputError):
            ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(subcarriers=8, cp_samples=0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 8, 512]),
        st.sampled_from([(), (1,), (7,)]),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_per_element_coefficients(
        self, n, lead, num_paths, n_rx, n_tx, duplicate, seed
    ):
        # The subcarrier route on the cached phase table against one built
        # in one piece, one exponential per entry, bit for bit: one to four
        # paths (the characteristic polynomial up to three, the SVD of the
        # cores at four), and with a duplicated path half a symbol later the
        # GRAM_TOL fallback subcarriers too. The examples share the tables of
        # one process, so their largest delays rise and fall and the
        # subcarrier counts alternate. A single path's rows are trivially
        # orthogonal, so ofdm_capacity takes the narrowband route there;
        # every other draw is orthogonal on neither side, and ofdm_capacity
        # is this route.
        rng = np.random.default_rng(seed)
        responses = block_responses(rng, lead, num_paths, n_rx, n_tx, n)
        if duplicate and num_paths > 1:
            repeat_path_half_a_symbol_later(responses, n)
        cfg = OfdmConfig(subcarriers=n, cp_samples=4)
        budgets = np.array([1e-3, 1.0, 1e3, 1e12])
        got = upa_module._subcarrier_capacity(responses, budgets, 0.5, cfg)
        assert np.array_equal(got, per_element_ofdm_capacity(responses, budgets, 0.5, cfg))
        assert responses.orthogonal == (num_paths == 1)
        if num_paths > 1:
            assert np.array_equal(ofdm_capacity(responses, budgets, 0.5, cfg), got)

    @pytest.mark.parametrize("route", ["rank-2", "rank-3", "gram-guard", "four-paths"])
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_rates_match_the_eigvalsh_oracle(self, route, data):
        # The roots of the characteristic polynomials against one LAPACK
        # eigensolve per subcarrier, through the water-fill: ranks 2 and 3,
        # and path 1 repeating path 0 half a symbol later, which leaves
        # ranks 2 of three paths, and sends the odd subcarriers to the SVD
        # of their cores, or 3 of four paths, which take the SVD on every
        # subcarrier.
        n = data.draw(st.sampled_from([8, 64, 512]))
        lead = data.draw(st.sampled_from([(), (3,)]))
        rank = 2 if route in ("rank-2", "gram-guard") else 3
        n_rx, n_tx = (data.draw(st.integers(rank, 5)) for _ in range(2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        num_paths = {"gram-guard": 3, "four-paths": 4}.get(route, rank)
        responses = block_responses(rng, lead, num_paths, n_rx, n_tx, n)
        if num_paths > rank:
            repeat_path_half_a_symbol_later(responses, n)
        assert responses.ranks == (rank, rank)
        coeffs = ofdm_coefficients(responses.gains, responses.delays, n)
        oracle = eigvalsh_subcarrier_gains(responses, coeffs)
        if route == "gram-guard":
            assert np.any(oracle[..., 1] < upa_module.GRAM_TOL * oracle[..., 0])
        cfg = OfdmConfig(subcarriers=n, cp_samples=4)
        budgets = np.array([1e-3, 1.0, 1e3, 1e12])
        got = ofdm_capacity(responses, budgets, 0.5, cfg)
        want = waterfill_capacity(oracle.reshape(oracle.shape[:-2] + (-1,)), n * budgets, 0.5)
        assert np.allclose(got, n / (n + cfg.cp_samples) * want / n, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_stack_rates_equal_each_trial_alone(self, seed):
        # Rows per trial, (T, L, k) as the selected links have them, laid out
        # as ``restrict`` leaves them (a view of (L, T, k) rows). Some trials'
        # receive rows are orthogonal (rows of a unitary, scaled) and take
        # the narrowband route, the others the subcarrier route: each
        # trial's rates are bit for bit those of a call on it alone.
        rng = np.random.default_rng(seed)
        t, num_paths, n_rx, n_tx, n = 6, 3, 4, 5, 64

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        rx, tx = cn(num_paths, t, n_rx), cn(num_paths, t, n_tx)
        orthogonal = rng.permutation([True, False] + list(rng.random(t - 2) < 0.5))
        for i in np.flatnonzero(orthogonal):
            unitary = np.linalg.qr(cn(n_rx, n_rx))[0]
            rx[:, i] = unitary[:num_paths] * rng.uniform(0.5, 2.0, (num_paths, 1))
        gains, delays = cn(t, num_paths), rng.integers(0, n, (t, num_paths))
        responses = PathResponses(np.moveaxis(rx, 0, -2), np.moveaxis(tx, 0, -2), gains, delays)
        assert np.array_equal(responses.orthogonal, orthogonal)
        cfg = OfdmConfig(subcarriers=n, cp_samples=4)
        budgets = np.array([1e-3, 1.0, 1e3, 1e12])
        got = ofdm_capacity(responses, budgets, 0.5, cfg)
        for i in range(t):
            one = np.s_[i : i + 1]
            alone = PathResponses(
                np.moveaxis(rx[:, one], 0, -2).copy(),
                np.moveaxis(tx[:, one], 0, -2).copy(),
                gains[one],
                delays[one],
            )
            assert np.array_equal(got[one], ofdm_capacity(alone, budgets, 0.5, cfg))

    def test_successive_calls_equal_the_per_element_coefficients(self, monkeypatch):
        # From empty tables: rising and falling largest delays, alternating
        # subcarrier counts, with and without a trial axis.
        monkeypatch.setattr(upa_module, "_PHASES", {})
        rng = np.random.default_rng(12)
        budgets = np.array([1e-2, 1e2])
        calls = (
            (8, 2, ()), (512, 40, (7,)), (8, 7, (1,)), (512, 3, ()), (2, 1, (7,)),
            (8, 0, ()), (2, 0, (1,)), (512, 511, (1,)), (512, 50, (7,)),
        )
        for n, longest, lead in calls:
            responses = block_responses(rng, lead, 3, 3, 2, n, longest)
            cfg = OfdmConfig(subcarriers=n, cp_samples=0)
            got = ofdm_capacity(responses, budgets, 1.0, cfg)
            assert np.array_equal(got, per_element_ofdm_capacity(responses, budgets, 1.0, cfg))

    def test_negative_delay_refused(self):
        responses = random_responses(np.random.default_rng(13), 2, 2, 2, delays=(0, -1))
        with pytest.raises(InvalidInputError):
            ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(subcarriers=8, cp_samples=0))


class TestPhaseTable:
    """The cached exp(-j 2 pi k d / N) tables of ofdm_capacity."""

    def call(self, n, longest, cp_samples=0, lead=(3,)):
        rng = np.random.default_rng(n + longest)
        responses = block_responses(rng, lead, 3, 2, 2, n, longest)
        ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(subcarriers=n, cp_samples=cp_samples))

    def test_table_is_read_only(self, monkeypatch):
        monkeypatch.setattr(upa_module, "_PHASES", {})
        self.call(8, 5)
        table = upa_module._PHASES[8]
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        with pytest.raises(ValueError):
            table *= 2.0

    def test_rows_never_exceed_the_longest_delay_seen(self, monkeypatch):
        monkeypatch.setattr(upa_module, "_PHASES", {})
        seen = {}
        for n, longest in ((16, 3), (16, 9), (512, 20), (16, 2), (512, 50), (512, 7), (16, 15)):
            self.call(n, longest)
            seen[n] = max(seen.get(n, 0), longest)
            assert {k: len(v) for k, v in upa_module._PHASES.items()} == {
                k: d + 1 for k, d in seen.items()
            }
            assert all(v.shape[1] == k for k, v in upa_module._PHASES.items())

    def test_long_cyclic_prefix_builds_no_extra_rows(self, monkeypatch):
        monkeypatch.setattr(upa_module, "_PHASES", {})
        self.call(8, 3, cp_samples=100)
        assert upa_module._PHASES[8].shape == (4, 8)


class TestSelectedLink:
    """The links UPA-OFDM-selection picks on the preset draws, and the block
    route that picks and scores a whole block at once."""

    @pytest.mark.parametrize("name", ["fig9", "fig10"])
    def test_selected_preset_links_match_per_subcarrier_svd_oracle(self, name):
        # The sweeps' selected links: rank 1 at budgets within one azimuth
        # index (1, 6), rank 2 across two (15 > n_z = 10), so the cores are
        # 1 x 1 or 2 x 2 and the oracle's dense subcarrier matrices are not.
        cfg = preset(name)
        budgets = np.array([tx_power(s) for s in cfg.snr_db])
        noise = NOISE_POWER
        ranks = set()
        for seed, trial, rf in itertools.product(range(3), range(4), (1, 6, 15)):
            picked = selected_link(cfg, seed, trial, rf, rf)
            ranks.add(picked.cores().shape)
            oracle = oracle_ofdm_capacity(picked, budgets, noise, cfg.ofdm)
            got = ofdm_capacity(picked, budgets, noise, cfg.ofdm)
            assert np.allclose(got, oracle, rtol=1e-9, atol=0.0)
        assert ranks == {(1, 1), (2, 2)}, ranks

    @pytest.mark.parametrize("name", ["fig9", "fig10"])
    def test_selected_link_has_one_by_one_subcarrier_cores(self, name):
        cfg = preset(name)
        n = cfg.ofdm.subcarriers
        for seed in range(3):
            picked = selected_link(cfg, seed, 0, cfg.rx_rf, cfg.tx_rf)
            phases = np.exp(-2j * np.pi * np.outer(np.arange(n), picked.delays) / n)
            assert picked.cores(picked.gains * phases).shape == (n, 1, 1)

    def test_by_rank_splits_trials_and_keeps_their_rates(self):
        # Per-trial rows of three side-rank pairs. Trial 1 sees paths 0 and
        # 1 along one receive direction (ranks 2, 3). In trials 2 and 4 path
        # 1 duplicates path 0 with a delay of N/2 (ranks 2, 2), so their odd
        # subcarriers take the SVD of their cores. Each group's capacity is
        # bit for bit that of the trial's own call.
        rng = np.random.default_rng(12)
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        trials = [random_responses(rng, 3, 4, 5, delays=(0, 2, 3)) for _ in range(5)]
        trials[1].rx[1] = 2.0 * trials[1].rx[0]
        for t in (2, 4):
            trials[t].rx[1], trials[t].tx[1] = trials[t].rx[0], trials[t].tx[0]
            trials[t].gains[1] = trials[t].gains[0]
            trials[t].delays[1] = 8
        fields = ("rx", "tx", "gains", "delays")
        block = PathResponses(*(np.stack([getattr(t, f) for t in trials]) for f in fields))
        with pytest.raises(InvalidInputError, match="by_rank"):
            block.cores()
        groups = block.by_rank()
        assert [(list(i), part.ranks) for i, part in groups] == [
            ([2, 4], (2, 2)), ([1], (2, 3)), ([0, 3], (3, 3))
        ]
        budgets = np.array([1e-2, 1.0, 1e20])
        for index, part in groups:
            got = ofdm_capacity(part, budgets, 1.0, cfg)
            for row, t in zip(got, index):
                assert np.array_equal(row, ofdm_capacity(trials[t], budgets, 1.0, cfg))

    def test_by_rank_on_shared_rows_gives_one_group(self):
        rng = np.random.default_rng(3)
        one = random_responses(rng, 3, 4, 5)
        gains = np.stack([one.gains, 2j * one.gains])
        block = PathResponses(one.rx, one.tx, gains, np.zeros((2, 3), int))
        [(index, part)] = block.by_rank()
        assert list(index) == [0, 1]
        assert np.array_equal(part.cores(), block.cores())


class TestRowForms:
    """A block's shared (L, N) rows and the same rows stacked per trial,
    (T, L, N), run the same code and must give the same bits."""

    @pytest.mark.parametrize("t", [1, 5])
    @pytest.mark.parametrize("route", ["rank-1", "gram", "gram-guard"])
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_shared_rows_equal_the_rows_stacked_per_trial(self, route, t, data):
        n = data.draw(st.sampled_from([2, 8, 512]))
        dims = [data.draw(st.integers(2, 4)) for _ in range(3)]  # L, n_rx, n_tx
        if route == "rank-1":
            dims[data.draw(st.integers(0, 2))] = 1
        elif route == "gram-guard":
            dims[0] = 3
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shared = block_responses(rng, (t,), *dims, n)
        if route == "gram-guard":
            # Path 2 alone on every odd subcarrier, as in the by_rank test.
            repeat_path_half_a_symbol_later(shared, n)
        stacked = replace(shared, rx=np.stack([shared.rx] * t), tx=np.stack([shared.tx] * t))
        coeffs = ofdm_coefficients(shared.gains, shared.delays, n)
        assert (min(shared.ranks) == 1) == (route == "rank-1")
        if route == "gram-guard":
            oracle = eigvalsh_subcarrier_gains(shared, coeffs)
            assert np.any(oracle[..., 1] < upa_module.GRAM_TOL * oracle[..., 0])
        assert np.array_equal(stacked.cores(), shared.cores())
        assert np.array_equal(stacked.cores(coeffs), shared.cores(coeffs))
        if dims[0] <= 3:
            table = upa_module._phase_table(n, int(shared.delays.max()))
            assert np.array_equal(stacked.charpoly(table), shared.charpoly(table))
        budgets = np.array([1e-3, 1.0, 1e3, 1e12])
        assert np.array_equal(
            eigenmode_capacity(stacked, budgets, 0.5), eigenmode_capacity(shared, budgets, 0.5)
        )
        cfg = OfdmConfig(subcarriers=n, cp_samples=4)
        assert np.array_equal(
            ofdm_capacity(stacked, budgets, 0.5, cfg), ofdm_capacity(shared, budgets, 0.5, cfg)
        )


class TestUpaChannel:
    def test_narrowband_matrix_energy(self):
        cfg = UpaConfig(20.0, 10.0)
        paths = PathSet(
            gains=np.array([2.0 + 0j]),
            delays_s=np.zeros(1),
            aoa_spatial_freqs=np.array([0.3]),
            aod_spatial_freqs=np.array([-0.2]),
        )
        core = path_responses(paths, cfg, cfg).cores()
        # rank-1 with singular value |alpha| * sqrt(A_R A_T): the one entry
        # of its 1 x 1 path-space core
        assert core.shape == (1, 1)
        assert abs(core[0, 0]) == pytest.approx(2.0 * 20.0)

    def test_tapped_channel_merges(self):
        cfg = UpaConfig(20.0, 10.0)
        paths = PathSet(
            gains=np.ones(2, complex),
            delays_s=np.array([0.0, 1e-12]),
            aoa_spatial_freqs=np.array([0.0, 0.5]),
            aod_spatial_freqs=np.array([0.0, 0.5]),
        )
        responses = path_responses(paths, cfg, cfg)
        assert list(responses.delays) == [0, 0]
        assert len(dense_taps(responses)) == 1 and responses.num_paths == 2


def dense_energy(taps):
    """Squared channel magnitude of every antenna pair, summed over taps."""
    energy = np.zeros(taps[0][1].shape)
    for _, mat in taps:
        energy += np.abs(mat) ** 2
    return energy


def top(powers, k):
    """The k largest powers' indices, ties to the lower index, sorted."""
    return np.sort(np.lexsort((np.arange(len(powers)), -powers))[:k])


def oracle_power_select(taps, n_rx_rf, n_tx_rf):
    """Oracle: the power-based selection ranked on the whole dense tapped
    channel, every receive row and transmit column."""
    energy = dense_energy(taps)
    rows = top(energy.sum(axis=1), n_rx_rf)
    return rows, top(energy[rows].sum(axis=0), n_tx_rf)


def assert_top_up_to_ulps(picked, powers, k):
    """picked is the top-k of powers, or differs from it only among antennas
    whose powers lie within 4 ulps of the oracle's cut-off power."""
    expected = top(powers, k)
    assert len(picked) == k and np.all(np.diff(picked) > 0)
    if np.array_equal(picked, expected):
        return
    cutoff = powers[expected].min()
    differing = np.setxor1d(picked, expected)
    assert np.all(np.abs(powers[differing] - cutoff) <= 4 * np.spacing(cutoff)), (
        picked, expected, powers[differing] - cutoff
    )


def upa_with(count):
    """A count x 1 UPA grid (n_z = 1): one antenna per azimuth index."""
    return UpaConfig(aperture=count / 4.0, azimuth_dim=count / 2.0)


def single_path(a_rx, a_tx):
    """A one-path flat channel with H = outer(a_rx, conj(a_tx))."""
    return PathResponses(
        rx=np.asarray(a_rx, complex)[None, :],
        tx=np.asarray(a_tx, complex)[None, :],
        gains=np.ones(1, complex),
        delays=np.zeros(1, int),
    )


class TestPowerSelection:
    def test_full_budget_is_identity(self):
        responses = random_responses(np.random.default_rng(5), 4, 4, 5)
        rows, cols = power_select_antennas(responses, upa_with(4), upa_with(5), 4, 5)
        assert list(rows) == [0, 1, 2, 3]
        assert list(cols) == [0, 1, 2, 3, 4]

    def test_rank_one_separable(self):
        a = np.array([1.0, 3.0, 2.0, 0.5])
        b = np.array([0.2, 1.0, 0.7])
        rows, cols = power_select_antennas(single_path(a, b), upa_with(4), upa_with(3), 2, 2)
        assert set(rows) == {1, 2}
        assert set(cols) == {1, 2}

    def test_ties_prefer_lower_index(self):
        three = upa_with(3)
        rows, cols = power_select_antennas(single_path(np.ones(3), np.ones(3)), three, three, 2, 2)
        assert list(rows) == [0, 1]
        assert list(cols) == [0, 1]
        # A UPA has no elevation phase, so the n_z antennas of one azimuth
        # index tie exactly. At broadside every antenna ties.
        rx, tx = UpaConfig(2.0, 1.0), UpaConfig(3.0, 2.0)  # 2 x 4 and 4 x 3 grids
        for phi, exact in ((0.0, True), (0.3, False), (-0.7, False)):
            paths = PathSet(
                gains=np.array([0.5 - 1j]),
                delays_s=np.zeros(1),
                aoa_spatial_freqs=np.array([phi]),
                aod_spatial_freqs=np.array([-phi]),
            )
            rows, cols = power_select_antennas(path_responses(paths, tx, rx), rx, tx, 3, 2)
            # The first three of one azimuth index, the first two of another.
            assert list(rows) == [4 * (rows[0] // 4) + i for i in range(3)]
            assert list(cols) == [3 * (cols[0] // 3) + i for i in range(2)]
            if exact:
                assert list(rows) == [0, 1, 2] and list(cols) == [0, 1]

    def test_greedy_near_exhaustive_on_small_instance(self):
        # 3-path 8x8 channel: greedy retained energy vs brute force over all
        # 4-row/4-column subsets.
        rng = np.random.default_rng(6)
        ramps = [
            np.exp(1j * math.pi * np.arange(8)[None, :] * rng.uniform(-1, 1, size=(3, 1)))
            for _ in range(2)
        ]
        responses = PathResponses(
            rx=ramps[0], tx=ramps[1], gains=rng.standard_normal(3) + 0j, delays=np.zeros(3, int)
        )
        h = dense_channel(responses)
        rows, cols = power_select_antennas(responses, upa_with(8), upa_with(8), 4, 4)
        greedy = np.linalg.norm(h[np.ix_(rows, cols)]) ** 2
        best = max(
            np.linalg.norm(h[np.ix_(r, c)]) ** 2
            for r in itertools.combinations(range(8), 4)
            for c in itertools.combinations(range(8), 4)
        )
        assert greedy >= 0.8 * best

    def test_capacity_monotone_in_budget(self):
        responses = random_responses(np.random.default_rng(7), 4, 6, 6, delays=(0, 0, 2, 2))
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        caps = []
        for k in (2, 4, 6):
            rows, cols = power_select_antennas(responses, upa_with(6), upa_with(6), k, k)
            caps.append(ofdm_capacity(responses.restrict(rows, cols), 1.0, 1.0, cfg))
        assert caps[0] <= caps[1] <= caps[2]

    def test_budget_validation(self):
        responses = single_path(np.ones(2), np.ones(2))
        two = upa_with(2)
        with pytest.raises(InvalidInputError):
            power_select_antennas(responses, two, two, 3, 1)
        with pytest.raises(InvalidInputError):
            power_select_antennas(responses, two, two, 1, 0)
        with pytest.raises(InvalidInputError, match="receive"):  # responses of another array
            power_select_antennas(responses, upa_with(4), two, 1, 1)
        with pytest.raises(InvalidInputError, match="transmit"):
            power_select_antennas(responses, two, upa_with(4), 1, 1)

    @pytest.mark.parametrize("name", ["fig9", "fig10"])
    def test_matches_dense_oracle_on_preset_draws(self, name):
        # The sweeps' own draws (trial t of seed s), at budgets within one
        # azimuth index (1, 6) and across two (15 > n_z = 10).
        cfg = preset(name)
        rx = UpaConfig(cfg.rx_aperture, cfg.rx_azimuth_dim)
        tx = UpaConfig(cfg.tx_aperture, cfg.tx_azimuth_dim)
        n_z = rx.grid_shape[1], tx.grid_shape[1]
        for seed, trial in itertools.product(range(5), range(30)):
            paths = sample_paths(cfg.stats, np.random.default_rng([seed, trial]))
            responses = path_responses(paths, tx, rx)
            taps = dense_taps(responses)
            for rf in (1, 6, 15):
                rows, cols = power_select_antennas(responses, rx, tx, rf, rf)
                want_rows, want_cols = oracle_power_select(taps, rf, rf)
                assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
                if rf <= min(n_z):
                    # One azimuth index per side: a rank-1, single-stream link.
                    assert len(set(rows // n_z[0])) == 1 and len(set(cols // n_z[1])) == 1
                    picked = responses.restrict(rows, cols)
                    assert np.linalg.matrix_rank(picked.rx) == 1
                    assert np.linalg.matrix_rank(picked.tx) == 1

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_dense_oracle_up_to_ulp_ties(self, data):
        # Random UPA shapes (n_z = 1 included) and draws whose delays often
        # share a tap. The dense oracle's flattened numpy kernels may round
        # a lane differently when Q is not a multiple of the SIMD width (see test_properties.py,
        # test_restrict_then_merge_equals_merge_then_index), so equal powers
        # may differ by an ulp or so there.
        def upa():
            n_y, n_z = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
            return UpaConfig(aperture=n_y * n_z / 4.0, azimuth_dim=n_y / 2.0)

        rx, tx = upa(), upa()
        n = data.draw(st.integers(1, 5))
        unit = st.floats(-1.0, 1.0)
        draws = [data.draw(st.lists(unit, min_size=n, max_size=n)) for _ in range(4)]
        delays = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        paths = PathSet(
            gains=np.array(draws[0]) + 1j * np.array(draws[1]),
            delays_s=np.sort(delays) / BANDWIDTH_HZ,
            aoa_spatial_freqs=np.array(draws[2]),
            aod_spatial_freqs=np.array(draws[3]),
        )
        responses = path_responses(paths, tx, rx)
        k_rx = data.draw(st.integers(1, rx.element_count))
        k_tx = data.draw(st.integers(1, tx.element_count))
        rows, cols = power_select_antennas(responses, rx, tx, k_rx, k_tx)
        energy = dense_energy(dense_taps(responses))
        assert_top_up_to_ulps(rows, energy.sum(axis=1), k_rx)
        assert_top_up_to_ulps(cols, energy[rows].sum(axis=0), k_tx)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_picks_equal_the_per_trial_ranking(self, data):
        # The batched ranking against one sort per trial, pick for pick,
        # on the tap energies of random UPA shapes with n_z > 1 on both
        # sides, with and without a trial axis, and budgets up to the full
        # arrays: above 8 picked rows a pairwise column sum would round
        # differently from the sequential one.
        def upa():
            n_y, n_z = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 4))
            return UpaConfig(aperture=n_y * n_z / 4.0, azimuth_dim=n_y / 2.0)

        rx, tx = upa(), upa()
        lead = data.draw(st.sampled_from([(), (1,), (5,)]))
        n = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        paths = PathSet(
            gains=rng.standard_normal(lead + (n,)) * np.exp(2j * np.pi * rng.random(lead + (n,))),
            delays_s=rng.integers(0, 3, size=lead + (n,)) / BANDWIDTH_HZ,
            aoa_spatial_freqs=rng.uniform(-1.0, 1.0, n),
            aod_spatial_freqs=rng.uniform(-1.0, 1.0, n),
        )
        block = path_responses(paths, tx, rx)
        k_rx = data.draw(st.integers(1, rx.element_count))
        k_tx = data.draw(st.integers(1, tx.element_count))
        rows, cols = power_select_antennas(block, rx, tx, k_rx, k_tx)
        z_rx, z_tx = rx.grid_shape[1], tx.grid_shape[1]
        energy = upa_module._tap_energy(block, z_rx, z_tx)
        want_rows, want_cols = rank_per_trial(energy, z_rx, z_tx, k_rx, k_tx)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_block_picks_and_rates_equal_the_one_trial_calls(self, data):
        # The block route of UPA-OFDM-selection: one ranking of T trials,
        # their picked links split by side rank, one capacity call per
        # group. Every pick and rate must be bit for bit those of the
        # trial's own calls. Random UPA shapes with n_z > 1 on both sides
        # and n_y,R * n_y,T not a multiple of 8, so no kernel lane width
        # divides the ranked taps; unsorted delays that often share a tap.
        def upa():
            n_y, n_z = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 4))
            return UpaConfig(aperture=n_y * n_z / 4.0, azimuth_dim=n_y / 2.0)

        rx, tx = upa(), upa()
        assume((rx.grid_shape[0] * tx.grid_shape[0]) % 8 != 0)
        t, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))

        def floats(count, low=-1.0, high=1.0):
            unit = st.floats(low, high)
            return np.array(data.draw(st.lists(unit, min_size=count, max_size=count)))

        phases = np.exp(1j * np.pi * floats(t * n))
        gains = (floats(t * n, 0.1, 1.0) * phases).reshape(t, n)
        delays = np.array(data.draw(st.lists(st.integers(0, 2), min_size=t * n, max_size=t * n)))
        paths = PathSet(
            gains=gains,
            delays_s=delays.reshape(t, n) / BANDWIDTH_HZ,
            aoa_spatial_freqs=floats(n),
            aod_spatial_freqs=floats(n),
        )
        block = path_responses(paths, tx, rx)
        k_rx = data.draw(st.integers(1, rx.element_count))
        k_tx = data.draw(st.integers(1, tx.element_count))
        rows, cols = power_select_antennas(block, rx, tx, k_rx, k_tx)
        cfg = OfdmConfig(subcarriers=8, cp_samples=2)
        rates = np.empty((t, 2))
        for index, link in block.restrict(rows, cols).by_rank():
            rates[index] = ofdm_capacity(link, np.array([1e-2, 1e2]), 1.0, cfg)
        for i in range(t):
            trial = replace(block, gains=block.gains[i], delays=block.delays[i])
            one = power_select_antennas(trial, rx, tx, k_rx, k_tx)
            assert np.array_equal(rows[i], one[0]) and np.array_equal(cols[i], one[1])
            rate = ofdm_capacity(trial.restrict(*one), np.array([1e-2, 1e2]), 1.0, cfg)
            assert np.array_equal(rates[i], rate)
