"""Scalar diagnostics and steady-state detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockladder import (
    DensityOperator,
    LayoutError,
    ObservableSeries,
    VacuumDominatedError,
    detect_steady,
    fidelity_fock,
    field_layout,
    fock_probabilities,
    fock_state,
    mandel_q,
    photon_mandel_q,
    photon_mean,
    atom_state,
    product_state,
    thermal_state,
    trace_distance,
)
from oracles import coherent_state


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    return DensityOperator(field_layout(dim - 1), rho)


class TestFockProbabilities:
    def test_pure_state(self):
        probs = fock_probabilities(fock_state(2, 5))
        assert probs[2] == pytest.approx(1.0)
        assert probs.sum() == pytest.approx(1.0)

    def test_traces_out_atom(self):
        psi = product_state(atom_state({"g": 1, "e": 1}, ("g", "e")), fock_state(3, 5))
        probs = fock_probabilities(psi)
        assert probs[3] == pytest.approx(1.0)

    def test_cutoff_argument(self):
        probs = fock_probabilities(thermal_state(0.5, 20))[:5]
        assert probs.shape == (5,)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fidelity_equals_population(self, seed):
        rho = random_density(6, seed)
        probs = fock_probabilities(rho)
        for n in range(6):
            assert fidelity_fock(rho, n) == pytest.approx(float(probs[n]))

    def test_fidelity_index_guard(self):
        with pytest.raises(ValueError):
            fidelity_fock(fock_state(0, 3), 7)

    def test_fidelity_negative_index_rejected(self):
        # -1 would otherwise read the top level, here the whole population
        with pytest.raises(ValueError):
            fidelity_fock(fock_state(5, 5), -1)


class TestMoments:
    def test_mean_photon_fock(self):
        assert photon_mean(fock_probabilities(fock_state(4, 8))) == pytest.approx(4.0)

    def test_mean_photon_thermal(self):
        assert photon_mean(fock_probabilities(thermal_state(0.3, 40))) == pytest.approx(0.3, abs=1e-10)

    def test_mandel_q_fock(self):
        assert mandel_q(fock_state(3, 8)) == pytest.approx(-1.0)

    def test_mandel_q_coherent(self):
        assert mandel_q(coherent_state(1.2, 40)) == pytest.approx(0.0, abs=1e-9)

    def test_mandel_q_thermal(self):
        # [DERIVED] Q = n_bar for a thermal state
        assert mandel_q(thermal_state(0.05, 30)) == pytest.approx(0.05, abs=1e-9)

    def test_mandel_q_vacuum_undefined(self):
        with pytest.raises(VacuumDominatedError):
            mandel_q(fock_state(0, 5))

    def test_photon_mandel_q_is_nan_at_the_vacuum(self):
        # rows below MEAN_PHOTON_FLOOR read nan, the others their Q
        pops = np.array([[1.0, 0, 0], [0, 1.0, 0], [1 - 1e-10, 1e-10, 0], [0.5, 0, 0.5]])
        q = photon_mandel_q(pops)
        assert np.isnan(q[[0, 2]]).all()
        assert q[1] == -1.0 and q[3] == 0.0
        assert np.isnan(photon_mandel_q(pops[0]))


class TestPurityAndDistance:
    def test_distance_identical_zero(self):
        rho = thermal_state(0.2, 10)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_distance_orthogonal_pure(self):
        a = fock_state(0, 4).to_density()
        b = fock_state(3, 4).to_density()
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_distance_layout_mismatch_rejected(self):
        with pytest.raises(LayoutError):
            trace_distance(fock_state(0, 4).to_density(), fock_state(0, 5).to_density())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_metric_properties(self, seed):
        a = random_density(5, seed)
        b = random_density(5, seed + 1)
        c = random_density(5, seed + 2)
        dab = trace_distance(a, b)
        assert dab == pytest.approx(trace_distance(b, a))
        assert 0.0 <= dab <= 1.0 + 1e-12
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12


class TestSeries:
    def test_column_length_checked(self):
        with pytest.raises(ValueError):
            ObservableSeries(np.array([0.0, 1.0]), {"x": np.array([1.0])})

    def test_detect_steady_finds_settling_time(self):
        times = np.linspace(0.0, 1.0, 101)
        col = np.where(times < 0.4, 1.0 - times, 0.6)
        t = detect_steady(times, col, window=0.2, eps=1e-6)
        assert t is not None
        assert 0.39 <= t <= 0.41

    def test_detect_steady_none_when_drifting(self):
        times = np.linspace(0.0, 1.0, 50)
        assert detect_steady(times, times.copy(), window=0.2, eps=1e-3) is None

    @staticmethod
    def loop_detect_steady(times, col, window, eps):
        """Oracle: the earliest start whose suffix spread stays below eps."""
        for i, t in enumerate(times):
            if times[-1] - t < window:
                break
            if np.ptp(col[i:]) < eps:
                return float(t)
        return None

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), samples=st.integers(2, 60),
           window=st.floats(0.0, 1.0), eps=st.sampled_from([0.0, 1e-3, 0.05, 0.3, 2.0]))
    def test_detect_steady_matches_loop(self, seed, samples, window, eps):
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, 1.0, samples)
        # a random walk that freezes at a random sample, sometimes with a NaN
        steps = rng.normal(scale=0.1, size=samples) * (np.arange(samples) < rng.integers(samples + 1))
        col = np.cumsum(steps)
        if rng.random() < 0.2:
            col[rng.integers(samples)] = np.nan
        assert detect_steady(times, col, window, eps) == self.loop_detect_steady(times, col, window, eps)

    def test_window_longer_than_span_rejected(self):
        times = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            detect_steady(times, np.zeros(10), window=2.0, eps=1e-3)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty series"):
            detect_steady(np.array([]), np.array([]), window=0.0, eps=1e-3)
