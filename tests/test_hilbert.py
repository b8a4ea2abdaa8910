"""Operators, states and tensor-structure bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockladder import (
    ComplexOperator,
    DensityOperator,
    HilbertLayout,
    LayoutError,
    StateValidityError,
    StateVector,
    annihilation,
    atom_field_layout,
    atom_state,
    atomic_sigma,
    field_layout,
    field_superposition,
    fock_state,
    product_state,
    thermal_state,
)
from fockladder.hilbert import field_populations
from oracles import coherent_state, partial_trace


def random_operator(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return ComplexOperator(HilbertLayout((("field", dim),)), m)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    return DensityOperator(HilbertLayout((("field", dim),)), rho)


class TestLayout:
    def test_atom_field_layout(self):
        layout = atom_field_layout(3, 5)
        assert layout.dim == 18
        assert layout.labels == ("atom", "field")
        assert layout.dims == (3, 6)
        assert layout.axis("field") == 1
        assert layout.dim_of("atom") == 3

    def test_field_layout(self):
        layout = field_layout(7)
        assert layout.dim == 8
        assert layout.labels == ("field",)

    def test_product(self):
        combined = HilbertLayout((("atom", 2),)) * field_layout(3)
        assert combined.dim == 8
        assert combined.labels == ("atom", "field")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            field_layout(3) * field_layout(3)


class TestOperators:
    def test_annihilation_matrix_elements(self):
        a = annihilation(5).entries
        for n in range(1, 6):
            assert a[n - 1, n] == pytest.approx(np.sqrt(n))
        assert np.count_nonzero(a) == 5

    def test_commutator_truncated(self):
        # [a, a^dag] = 1 except in the top truncated level
        a = annihilation(10).entries
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(np.diag(comm)[:-1], 1.0)

    def test_atomic_sigma(self):
        sig = atomic_sigma("g", "e", ("g", "e", "f"))
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        assert np.allclose(sig.entries, expected)


class TestStates:
    def test_fock_state(self):
        psi = fock_state(3, 6)
        assert psi.amplitudes[3] == 1.0
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)

    def test_field_superposition_normalizes(self):
        psi = field_superposition({0: 1.0, 2: 1.0}, 5)
        assert np.abs(psi.amplitudes[0]) == pytest.approx(1 / np.sqrt(2))
        assert np.abs(psi.amplitudes[2]) == pytest.approx(1 / np.sqrt(2))

    def test_coherent_state_poisson(self):
        # [DERIVED] |<n|alpha>|^2 = e^{-|alpha|^2} |alpha|^{2n} / n!
        alpha = 0.7
        psi = coherent_state(alpha, 30)
        probs = np.abs(psi.amplitudes) ** 2
        for n in range(8):
            expected = np.exp(-alpha**2) * alpha ** (2 * n) / math.factorial(n)
            assert probs[n] == pytest.approx(expected, abs=1e-12)

    def test_thermal_state_bose_einstein(self):
        # [DERIVED] P_n proportional to (n_bar / (n_bar + 1))^n
        n_bar = 0.4
        rho = thermal_state(n_bar, 40)
        pops = np.real(np.diag(rho.entries))
        assert np.trace(rho.entries) == pytest.approx(1.0)
        ratio = n_bar / (n_bar + 1.0)
        for n in range(6):
            assert pops[n + 1] / pops[n] == pytest.approx(ratio, rel=1e-10)

    def test_thermal_zero_is_vacuum(self):
        rho = thermal_state(0.0, 5)
        assert rho.entries[0, 0] == pytest.approx(1.0)

    def test_atom_state_and_product(self):
        atom = atom_state({"g": 1.0, "e": 1.0}, ("g", "e"))
        field = fock_state(0, 3)
        psi = product_state(atom, field)
        assert psi.layout.labels == ("atom", "field")
        assert np.abs(psi.amplitudes[0]) == pytest.approx(1 / np.sqrt(2))

    def test_unnormalized_state_rejected(self):
        layout = field_layout(2)
        with pytest.raises(StateValidityError):
            StateVector(layout, np.array([1.0, 1.0, 0.0]))


class TestPartialTrace:
    def test_product_state_factors(self):
        atom = atom_state({"e": 1.0}, ("g", "e"))
        field = fock_state(2, 4)
        rho = product_state(atom, field).to_density()
        rho_f = partial_trace(rho, "field")
        assert rho_f.entries[2, 2] == pytest.approx(1.0)
        rho_a = partial_trace(rho, "atom")
        assert rho_a.entries[1, 1] == pytest.approx(1.0)

    def test_entangled_state_is_mixed(self):
        layout = atom_field_layout(2, 1)
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1 / np.sqrt(2)  # |g,0>
        amps[3] = 1 / np.sqrt(2)  # |e,1>
        rho = StateVector(layout, amps).to_density()
        rho_f = partial_trace(rho, "field")
        assert np.allclose(rho_f.entries, np.eye(2) / 2)


class TestFieldPopulations:
    @pytest.mark.parametrize("factors,index,rows", [
        ((("atom", 6), ("field", 9)), None, 4), ((("field", 7), ("atom", 3)), None, 4),
        ((("field", 13),), None, 4),
        # a collision run: the 13 populations in order, on 7,561 samples
        ((("field", 13),), np.arange(13), 7561),
        # ascending: atom level 0 whole, 1 on field levels 0, 2, 4, and 2 on 1, 2
        ((("atom", 3), ("field", 5)), np.array([0, 1, 2, 3, 4, 5, 7, 9, 11, 12]), 201),
        # not ascending, though its endpoints span as many places as it has entries
        ((("field", 5),), np.array([0, 2, 1, 3, 4]), 4),
    ], ids=["atom-field", "field-atom", "field", "collision", "ascending-runs", "unordered-run"])
    def test_sums_each_level_in_basis_order(self, factors, index, rows):
        # a subset of the basis, unsorted unless given, with a leading sample
        # axis; each P_n must add its weights in ascending basis order, bit for bit
        layout = HilbertLayout(factors)
        rng = np.random.default_rng(3)
        if index is None:
            index = rng.permutation(layout.dim)[: 2 * layout.dim // 3]
        shape = (rows, len(index))
        weights = rng.random(shape) * 10.0 ** rng.uniform(-9, 2, size=shape)
        levels = np.unravel_index(index, layout.dims)[layout.axis("field")]
        expected = np.zeros((rows, layout.dim_of("field")))
        for k in np.argsort(index):
            expected[:, levels[k]] += weights[:, k]
        assert np.array_equal(field_populations(layout, index, weights), expected)


class TestProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dag_is_involution(self, seed):
        op = random_operator(5, seed)
        assert np.allclose(op.dag().dag().entries, op.entries)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_partial_trace_preserves_validity(self, seed):
        rng = np.random.default_rng(seed)
        layout = atom_field_layout(2, 3)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        reduced = partial_trace(DensityOperator(layout, rho), "field")
        eigs = np.linalg.eigvalsh(reduced.entries)
        assert np.trace(reduced.entries) == pytest.approx(1.0)
        assert eigs.min() > -1e-12
