"""Engineered dissipators, thermal bath, collision-model micro-simulation."""

import numpy as np
import pytest
import scipy.linalg

from fockladder import (
    AtomInjectionParams,
    ComplexOperator,
    DensityOperator,
    LadderSpec,
    LeakageError,
    LindbladTerm,
    ThermalBathParams,
    TimeGrid,
    annihilation,
    atom_field_layout,
    atom_state,
    build_engineered_hamiltonian,
    collision_model_evolve,
    evolve_density,
    field_layout,
    field_superposition,
    gamma_from_injection,
    sparse_liouvillian,
    selective_dissipators,
    thermal_state,
    thermal_terms,
    trace_distance,
    ub_dissipator,
)
from fockladder.reservoir import _field_map
from oracles import dense, partial_trace

EXC = atom_state({"e": 1.0}, ("g", "e"))


def joint_generator(h, bath, field):
    """Generator of the engineered Hamiltonian plus the bath on the field factor."""
    bath_joint = [
        LindbladTerm(t.rate, ComplexOperator(h.layout, np.kron(np.eye(2), t.jump.entries)))
        for t in thermal_terms(bath, field)
    ]
    return sparse_liouvillian(h, bath_joint)


def block_diagonal(steps, n):
    """The n x n map holding each (index set, block) pair of ``steps`` on its indices."""
    out = np.zeros((n, n), dtype=complex)
    for idx, block in steps:
        out[np.ix_(idx, idx)] = block
    return out


def joint_collisions(h, inj, bath, rho0, n_atoms):
    """Oracle: field states after each atom, by attaching the atom, propagating
    the joint state with the dense exponential of the full generator and
    tracing the atom out (symmetrized and renormalized per atom)."""
    joint = h.layout
    propagator = scipy.linalg.expm(dense(joint_generator(h, bath, rho0.layout)) * inj.tau)
    amp = inj.atom_state.amplitudes
    rho_atom = np.outer(amp, amp.conj())
    d = joint.dim
    rho_f = rho0.entries
    states = []
    for _ in range(n_atoms):
        vec = propagator @ np.kron(rho_atom, rho_f).ravel(order="F")
        reduced = partial_trace(DensityOperator(joint, vec.reshape((d, d), order="F")),
                                "field").symmetrized().entries
        rho_f = reduced / np.real(np.trace(reduced))
        states.append(rho_f)
    return states


class TestInjection:
    def test_gamma_formula(self):
        # [TRIVIAL] Gamma = r (|zeta| tau)^2
        inj = AtomInjectionParams(tau=0.5, atom_state=EXC)
        assert gamma_from_injection(0.1, inj) == pytest.approx(2.0 * 0.05**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomInjectionParams(tau=-1.0, atom_state=EXC)


class TestDissipators:
    def test_ub_single_collective_jump(self):
        layout = field_layout(8)
        spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=1.0)
        [term] = ub_dissipator(spec, 63.0, layout)
        assert term.rate == 63.0
        jump = term.jump.entries
        assert jump[1, 0] == 1.0 and jump[2, 1] == 1.0 and jump[3, 2] == 1.0
        assert np.count_nonzero(jump) == 3

    def test_ub_requires_field_layout(self):
        spec = LadderSpec(base=0, weights=(1.0,), zeta_ref=1.0)
        with pytest.raises(ValueError):
            ub_dissipator(spec, 1.0, atom_field_layout(2, 6))

    def test_selective_independent_jumps(self):
        layout = field_layout(8)
        terms = selective_dissipators([(0, 176.0), (1, 352.0)], layout)
        assert [term.rate for term in terms] == [176.0, 352.0]
        for k, term in enumerate(terms):
            assert term.jump.entries[k + 1, k] == 1.0
            assert np.count_nonzero(term.jump.entries) == 1

    def test_selective_duplicate_steps_rejected(self):
        with pytest.raises(ValueError):
            selective_dissipators([(0, 1.0), (0, 2.0)], field_layout(5))

    @pytest.mark.parametrize("k", [-1, 5])
    def test_selective_step_outside_cutoff_rejected(self, k):
        # k = 5 would need |6> at cutoff 5; k = -1 would wrap to |0><5|
        with pytest.raises(ValueError):
            selective_dissipators([(k, 1.0)], field_layout(5))

    def test_thermal_rates(self):
        terms = thermal_terms(ThermalBathParams(gamma=2.0, n_bar=0.05), field_layout(5))
        assert len(terms) == 2
        assert terms[0].rate == pytest.approx(2.0 * 1.05)
        assert terms[1].rate == pytest.approx(2.0 * 0.05)

    def test_thermal_zero_temperature_single_term(self):
        terms = thermal_terms(ThermalBathParams(gamma=1.0, n_bar=0.0), field_layout(5))
        assert len(terms) == 1

    def test_collective_equals_selective_on_populations(self):
        # [DERIVED] restricted to diagonal density operators the collective
        # ladder jump acts exactly like independent one-step jumps with
        # rates Gamma |w_k|^2 (cross terms touch coherences only)
        layout = field_layout(7)
        gamma = 5.0
        weights = (1.0, 0.8, 1.2)
        spec = LadderSpec(base=0, weights=weights, zeta_ref=1.0)
        L_coll = sparse_liouvillian(None, ub_dissipator(spec, gamma, layout))
        channels = [(k, gamma * abs(w) ** 2) for k, w in enumerate(weights)]
        L_sel = sparse_liouvillian(None, selective_dissipators(channels, layout))
        rng = np.random.default_rng(3)
        pops = rng.random(8)
        rho = np.diag(pops / pops.sum()).astype(complex)
        vec = rho.ravel(order="F")
        out_coll = (dense(L_coll) @ vec).reshape(8, 8, order="F")
        out_sel = (dense(L_sel) @ vec).reshape(8, 8, order="F")
        assert np.allclose(np.diag(out_coll), np.diag(out_sel), atol=1e-12)

    def test_pump_rate_monotonicity(self):
        # larger Gamma pushes the gamma > 0 steady state closer to the target
        from fockladder import fidelity_fock, steady_state

        layout = field_layout(12)
        spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=1.0)
        bath = ThermalBathParams(gamma=1.0, n_bar=0.05)
        fids = []
        for big_gamma in (1.0, 10.0, 63.0, 200.0):
            terms = ub_dissipator(spec, big_gamma, layout)
            terms += thermal_terms(bath, layout)
            rho_ss = steady_state(sparse_liouvillian(None, terms))
            fids.append(fidelity_fock(rho_ss, 3))
        assert fids == sorted(fids)


class TestCollisionModel:
    def run_collisions(self, zeta_tau, t_end=0.1, cutoff=10):
        big_gamma = 63.0
        tau = zeta_tau**2 / big_gamma
        zeta = zeta_tau / tau
        spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=zeta)
        h = build_engineered_hamiltonian(spec, atom_field_layout(2, cutoff))
        inj = AtomInjectionParams(tau=tau, atom_state=EXC)
        bath = ThermalBathParams(gamma=1.0, n_bar=0.05)
        rho0 = thermal_state(0.05, cutoff)
        n_atoms = int(np.ceil(t_end / tau))
        return collision_model_evolve(h, inj, bath, rho0, n_atoms)

    def coarse_grained(self, times, cutoff=10):
        layout = field_layout(cutoff)
        spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=1.0)
        terms = ub_dissipator(spec, 63.0, layout)
        terms += thermal_terms(ThermalBathParams(gamma=1.0, n_bar=0.05), layout)
        grid = TimeGrid(0.0, float(times[-1]), 301)
        traj = evolve_density(sparse_liouvillian(None, terms), thermal_state(0.05, cutoff), grid)
        return traj, grid.times

    @pytest.mark.parametrize("amps, coherences", [
        pytest.param({"e": 1.0}, False, id="amps0"),
        pytest.param({"g": 0.6, "e": 0.8j}, False, id="amps1"),
        pytest.param({"e": 1.0}, True, id="field-coherences"),
    ])
    def test_field_map_matches_joint_propagation(self, amps, coherences):
        # oracle: attach the atom, propagate the joint state with the dense
        # exponential of the full generator, trace the atom out.  With
        # coherences the field also starts with |1><2| and |0><2| terms.
        cutoff, tau = 10, 0.35**2 / 63.0
        spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=0.35 / tau)
        joint = atom_field_layout(2, cutoff)
        h = build_engineered_hamiltonian(spec, joint)
        inj = AtomInjectionParams(tau=tau, atom_state=atom_state(amps, ("g", "e")))
        bath = ThermalBathParams(gamma=1.0, n_bar=0.05)
        rho0 = thermal_state(0.05, cutoff)
        if coherences:
            psi = field_superposition({0: 0.6, 1: 0.48, 2: 0.64j}, cutoff).to_density()
            rho0 = DensityOperator(field_layout(cutoff), 0.5 * (rho0.entries + psi.entries))
        traj = collision_model_evolve(h, inj, bath, rho0, 20)
        for state, expected in zip(traj.states[1:], joint_collisions(h, inj, bath, rho0, 20)):
            assert np.allclose(state.entries, expected, atol=1e-13, rtol=0)

    @pytest.mark.parametrize("amps, decay_into_photon", [
        pytest.param({"g": 1.0}, False, id="g"),
        pytest.param({"e": 1.0}, False, id="e"),
        pytest.param({"g": 0.6, "e": 0.8j}, False, id="superposition"),
        pytest.param({"e": 1.0}, True, id="e-decay-into-photon"),
    ])
    def test_restricted_field_map_matches_full_map(self, amps, decay_into_photon):
        # oracle: the map built on every field entry.  On the blocks that a
        # Fock start touches, the map built from its one entry agrees; a g
        # or e atom keeps to the populations and exponentiates fewer
        # generator blocks, a superposition atom reaches coherences.  Under
        # the jump |g><e| (x) a^dag alone each generator block pairs |e,n>
        # with |g,n+1>, so the populations above the start are linked to it
        # only through the trace over the atom.
        cutoff, tau = 12, 0.2**2 / 63.0
        field, joint = field_layout(cutoff), atom_field_layout(2, cutoff)
        if decay_into_photon:
            jump = np.kron([[0.0, 1.0], [0.0, 0.0]], annihilation(cutoff).entries.T)
            L = sparse_liouvillian(None, [LindbladTerm(1.0, ComplexOperator(joint, jump))])
        else:
            spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=0.2 / tau)
            L = joint_generator(build_engineered_hamiltonian(spec, joint),
                                ThermalBathParams(gamma=1.0, n_bar=0.05), field)
        inj = AtomInjectionParams(tau=tau, atom_state=atom_state(amps, ("g", "e")))
        vec0 = field_superposition({2: 1.0}, cutoff).to_density().entries.ravel(order="F")
        part = _field_map(L, inj, field, vec0 != 0)
        full = _field_map(L, inj, field, np.ones(vec0.size, dtype=bool))
        touched = [idx for idx, _ in full if np.any(vec0[idx])]
        assert [idx.tolist() for idx, _ in part] == [idx.tolist() for idx in touched]
        cols = np.concatenate(touched)
        assert len(cols) > 1
        assert np.max(np.abs((block_diagonal(part, vec0.size)
                              - block_diagonal(full, vec0.size))[:, cols])) <= 1e-14
        coherences = np.count_nonzero(cols % (cutoff + 2))  # vec index n + n*d is a population
        if len(amps) == 1:
            assert coherences == 0
            assert (sum(np.count_nonzero(block) for _, block in part)
                    < sum(np.count_nonzero(block) for _, block in full))
        else:
            assert coherences > 0

    def test_thermal_start_takes_one_population_block(self):
        # fig4 at cutoff 12: of the 169 field entries a thermal start touches
        # the 13 populations, which one collision keeps among themselves;
        # no block is returned for an entry it does not touch
        cutoff, tau = 12, 0.2**2 / 63.0
        field, joint = field_layout(cutoff), atom_field_layout(2, cutoff)
        spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=0.2 / tau)
        L = joint_generator(build_engineered_hamiltonian(spec, joint),
                            ThermalBathParams(gamma=1.0, n_bar=0.05), field)
        vec0 = thermal_state(0.05, cutoff).entries.ravel(order="F")
        steps = _field_map(L, AtomInjectionParams(tau=tau, atom_state=EXC), field, vec0 != 0)
        assert len(steps) == 1
        idx, block = steps[0]
        assert idx.tolist() == (np.arange(13) * 14).tolist() and block.shape == (13, 13)

    @staticmethod
    def leaking_case(cutoff, n_atoms):
        """A fig4-like pump with a warm bath into ``cutoff``, and the top-two
        populations after each of ``n_atoms`` atoms by the joint propagation
        above."""
        tau = 0.2**2 / 63.0
        spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=0.2 / tau)
        h = build_engineered_hamiltonian(spec, atom_field_layout(2, cutoff))
        inj = AtomInjectionParams(tau=tau, atom_state=EXC)
        bath = ThermalBathParams(gamma=1.0, n_bar=0.5)
        rho0 = thermal_state(0.05, cutoff)
        leak = [np.real(r[-1, -1] + r[-2, -2])
                for r in joint_collisions(h, inj, bath, rho0, n_atoms)]
        return (h, inj, bath, rho0), leak

    def test_leakage_guard_names_first_leaking_atom(self):
        # oracle: the joint propagation above; into cutoff 6 the top two
        # levels fill after some atoms
        (h, inj, bath, rho0), leak = self.leaking_case(6, 40)
        first = 1 + int(np.argmax(np.array(leak) >= 1e-6))
        assert 1 < first < 40
        with pytest.raises(LeakageError, match=f"after {first} collisions"):
            collision_model_evolve(h, inj, bath, rho0, 40)
        clean = collision_model_evolve(h, inj, bath, rho0, first - 1)
        assert clean.leakage == pytest.approx(leak[first - 2], rel=1e-9)

    def test_leakage_guard_names_an_atom_inside_a_later_run(self):
        # 200 atoms stack m = 15 powers of the field map, one run of 15
        # atoms per product; into cutoff 7 the first leaking atom falls
        # inside the third run
        (h, inj, bath, rho0), leak = self.leaking_case(7, 200)
        first = 1 + int(np.argmax(np.array(leak) >= 1e-6))
        assert 31 < first <= 45
        with pytest.raises(LeakageError, match=f"after {first} collisions"):
            collision_model_evolve(h, inj, bath, rho0, 200)

    def test_trace_is_kept_without_renormalizing(self):
        # 7,560 atoms of the fig4 collision run at zeta tau = 0.05; the map
        # preserves the trace, so no atom renormalizes the state
        traj = self.run_collisions(0.05, t_end=0.3, cutoff=12)
        assert len(traj.states) == 7561
        assert np.max(np.abs(traj.populations.sum(axis=1) - 1.0)) <= 1e-11

    def test_tracks_coarse_grained_dissipator(self):
        micro = self.run_collisions(0.35)
        coarse, coarse_times = self.coarse_grained(micro.times)
        max_dist = 0.0
        for t, state in zip(micro.times, micro.states):
            idx = int(np.argmin(np.abs(coarse_times - t)))
            max_dist = max(max_dist, trace_distance(state, coarse.states[idx]))
        assert max_dist <= 0.05

    def test_regular_arrival_times(self):
        traj = self.run_collisions(0.35, t_end=0.02)
        tau = 0.35**2 / 63.0
        expected = np.arange(len(traj.times)) * tau
        assert np.allclose(traj.times, expected)

    def test_layout_mismatch_rejected(self):
        spec = LadderSpec(base=0, weights=(1.0,), zeta_ref=1.0)
        h = build_engineered_hamiltonian(spec, atom_field_layout(2, 8))
        inj = AtomInjectionParams(tau=0.01, atom_state=EXC)
        bath = ThermalBathParams(gamma=1.0, n_bar=0.0)
        with pytest.raises(ValueError):
            collision_model_evolve(h, inj, bath, thermal_state(0.0, 6), 2)
