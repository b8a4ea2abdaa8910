"""Closed and open propagation, Liouvillian structure, steady states."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp
from scipy.optimize import linear_sum_assignment

from fockladder import (
    ComplexOperator,
    DegenerateSteadyStateError,
    HilbertLayout,
    IntegrationError,
    IntegratorConfig,
    LadderSpec,
    LeakageError,
    LindbladTerm,
    RamanLadderParams,
    TimeDependentHamiltonian,
    TimeGrid,
    annihilation,
    atom_field_layout,
    build_engineered_hamiltonian,
    evolve_density,
    evolve_state,
    field_layout,
    fock_state,
    fock_probabilities,
    load_scenario,
    photon_mean,
    product_state,
    atom_state,
    build_full_hamiltonian,
    field_superposition,
    preset_document,
    solve_dressed_resonance,
    solve_resonance,
    sparse_liouvillian,
    steady_state,
    thermal_state,
    thermal_terms,
    StateVector,
    ThermalBathParams,
    selective_dissipators,
    ub_dissipator,
)
from fockladder import lindblad, scenarios
from fockladder.hilbert import nonzero_triplets
from fockladder.lindblad import LiouvillianMatrix, invariant_blocks, propagate_touched
from fockladder.scenarios import _ladder_from_doc, run_scenario
from oracles import (
    as_liouvillian,
    csgraph_blocks,
    csgraph_frame_energies,
    dense,
    dense_hamiltonian,
    kron_liouvillian,
)

FAST = IntegratorConfig(rel_tol=1e-9)


def preset_terms(name, cutoff):
    """Dissipator plus thermal bath of a Liouvillian preset at another cutoff."""
    p = load_scenario(name).parameters
    layout = field_layout(cutoff)
    if "channels" in p:
        pumps = selective_dissipators([(k, g) for k, g in p["channels"]], layout)
    else:
        pumps = ub_dissipator(_ladder_from_doc(p["ladder"], zeta_ref=1.0), p["Gamma"], layout)
    bath = ThermalBathParams(gamma=p["gamma"], n_bar=p["n_bar"])
    return pumps + thermal_terms(bath, layout)


def dense_null_state(L):
    """Oracle: the null vector of one eig of the full generator, as a state."""
    d = L.layout.dim
    vals, vecs = scipy.linalg.eig(dense(L))
    rho = vecs[:, np.argmin(np.abs(vals))].reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho)


def static_hamiltonian(layout, seed, active=None):
    """Random hermitian H, optionally restricted to the first ``active``
    basis states so the truncation guard stays quiet, as one static term
    (``from_dense`` of H/2)."""
    rng = np.random.default_rng(seed)
    d = layout.dim
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (m + m.conj().T)
    if active is not None:
        h[active:, :] = 0.0
        h[:, active:] = 0.0
    return from_dense(layout, [(0.5, 0.0, h)])


def from_dense(layout, terms):
    """TimeDependentHamiltonian of (c, w, dense T) terms, each T passed as its np.nonzero triplets."""
    return TimeDependentHamiltonian(layout, [(c, w, *nonzero_triplets(m)) for c, w, m in terms])


def block_terms(h):
    """(index set, entries (w, rows, cols, values) of ``_half_terms`` at positions within the
    block) of every invariant block of h, split as ``evolve_state`` splits them."""
    w, rows, cols, values = lindblad._half_terms(h)
    return [(idx, (w[pick], r, c, values[pick]))
            for idx, pick, r, c in lindblad._split_triplets(rows, cols, h.layout.dim)]


def first_frame_block(h):
    """The ``_FrameBlock`` of the invariant block of h that holds level 0."""
    idx, entries = block_terms(h)[0]
    return lindblad._FrameBlock(*entries, len(idx))


def full_raman_case(name, kind="JC", cutoff=None):
    """Resonance-solved full Hamiltonian of a preset and a state on three sectors."""
    doc = preset_document(name)
    p = doc["parameters"]
    cutoff = cutoff or doc["cutoff"]
    params = RamanLadderParams(p["lambdas"], p["omegas"], p["deltas"], p["delta_tildes"], kind)
    params = solve_dressed_resonance(solve_resonance(params, p["base"]), p["base"])
    h = build_full_hamiltonian(params, atom_field_layout(len(params.atom_levels), cutoff))
    base = p["base"]
    psi0 = product_state(
        atom_state({"g": 0.6, "e": 0.8j}, params.atom_levels),
        field_superposition({base: 1.0, base + 1: 0.5, base + 2: 0.7j}, cutoff),
    )
    return h, psi0


def cycle_case():
    """Levels 0-1-2 closed in a cycle at incommensurate frequencies, a second
    term on edge 0-1 that keeps a residual on a tree edge, and a block {3, 4}
    that psi0 does not touch."""
    layout = field_layout(4)

    def edge(r, s):
        m = np.zeros((5, 5))
        m[r, s] = 1.0
        return m

    h = from_dense(layout, [
        (0.3, 1.0, edge(1, 0)),
        (0.2, np.sqrt(2.0), edge(2, 1)),
        (0.25j, 0.5, edge(2, 0)),
        (0.15, np.pi / 3, edge(1, 0)),
        (0.4, 0.7, edge(4, 3)),
    ])
    return h, fock_state(0, 4)


HAMILTONIAN_CASES = {
    "fig2a-JC": lambda: full_raman_case("fig2a"),
    "fig2a-AJC": lambda: full_raman_case("fig2a", kind="AJC"),
    "fig3b-cutoff12": lambda: full_raman_case("fig3b", cutoff=12),
    "cycle": cycle_case,
}


def ladder_jump(cutoff):
    """A^dag of a three-step ladder from |0> with uneven weights."""
    jump = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for k, w in enumerate((1.0, 0.8j, 1.1)):
        jump[k + 1, k] = w
    return jump


def dop853_states(h, psi0, times):
    """Oracle: DOP853 on the full dense H(t) @ psi at rtol 1e-12."""
    sol = solve_ivp(
        lambda t, psi: -1j * (dense_hamiltonian(h, t) @ psi),
        (times[0], times[-1]),
        psi0.amplitudes.astype(complex),
        method="DOP853",
        t_eval=times,
        rtol=1e-12,
        atol=1e-14,
    )
    assert sol.success
    return sol.y.T


class TestEvolveState:
    def test_matches_eigendecomposition(self):
        # [DERIVED] psi(t) = exp(-iHt) psi(0) via scipy.linalg.expm
        layout = field_layout(7)
        h = static_hamiltonian(layout, seed=3, active=5)
        psi0 = fock_state(1, 7)
        grid = TimeGrid(0.0, 2.0, 9)
        traj = evolve_state(h, psi0, grid, FAST)
        for t, state in zip(grid.times, traj.states):
            expected = scipy.linalg.expm(-1j * dense_hamiltonian(h, 0.0) * t) @ psi0.amplitudes
            phase = np.vdot(expected, state.amplitudes)
            phase /= abs(phase)
            assert np.allclose(state.amplitudes, phase * expected, atol=1e-7)

    def test_norm_preserved(self):
        layout = field_layout(7)
        h = static_hamiltonian(layout, seed=11, active=5)
        traj = evolve_state(h, fock_state(0, 7), TimeGrid(0.0, 3.0, 13), FAST)
        for state in traj.states:
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)

    def test_time_dependent_matches_stepwise_exponentials(self):
        # [DERIVED] fine-grained product of midpoint exponentials
        from fockladder import TimeDependentHamiltonian

        layout = field_layout(5)
        a = annihilation(5).entries
        proj = np.zeros((6, 6))
        proj[1, 0] = 1.0
        h = from_dense(layout, [(0.3, 2.0, proj)])
        psi0 = fock_state(0, 5)
        grid = TimeGrid(0.0, 1.5, 4)
        traj = evolve_state(h, psi0, grid, FAST)
        steps = 6000
        psi = psi0.amplitudes.astype(complex)
        dt = 1.5 / steps
        for k in range(steps):
            t_mid = (k + 0.5) * dt
            psi = scipy.linalg.expm(-1j * dense_hamiltonian(h, t_mid) * dt) @ psi
        overlap = abs(np.vdot(psi, traj.states[-1].amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("case", sorted(HAMILTONIAN_CASES))
    def test_time_dependent_matches_dop853(self, case):
        h, psi0 = HAMILTONIAN_CASES[case]()
        grid = TimeGrid(0.0, 30.0, 16)
        traj = evolve_state(h, psi0, grid, FAST)
        got = np.array([s.amplitudes for s in traj.states])
        expected = dop853_states(h, psi0, grid.times)
        assert np.max(np.abs(got - expected)) <= 1e-8
        assert traj.steps > 0
        assert 0.0 < traj.error_estimate <= FAST.rel_tol
        # blocks that psi0 does not touch stay exactly zero
        untouched = np.all(expected == 0.0, axis=0)
        assert untouched.any()
        assert np.all(got[:, untouched] == 0.0)

    def test_magnus_steps_are_sixth_order(self):
        # successive doubling differences of the interval propagators fall
        # by 2^6 = 64, which the Richardson estimate diff / 63 assumes
        h, _ = cycle_case()
        block = first_frame_block(h)  # levels 0, 1 and 2
        assert block.dim == 3 and len(block.residuals)
        times = TimeGrid(0.0, 30.0, 16).times
        props = [interval_products(lindblad._MagnusLevel([block], times, 2**j)) for j in range(7)]
        diffs = [np.max(np.abs(b - a)) for a, b in zip(props, props[1:])]
        ratios = [a / b for a, b in zip(diffs, diffs[1:])]
        assert all(60.0 <= r <= 68.0 for r in ratios[-3:]), ratios

    def test_step_chunking_leaves_states_unchanged(self, monkeypatch):
        # with one step per chunk every interval spans several chunks
        h, psi0 = cycle_case()
        grid = TimeGrid(0.0, 30.0, 16)
        whole = evolve_state(h, psi0, grid, FAST)
        monkeypatch.setattr(lindblad, "_CHUNK_STEPS", 1)
        chunked = evolve_state(h, psi0, grid, FAST)
        assert chunked.steps == whole.steps
        for a, b in zip(whole.states, chunked.states):
            assert np.allclose(a.amplitudes, b.amplitudes, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("h", [None, lambda t: np.eye(5), np.eye(5)])
    def test_unsupported_hamiltonian_rejected(self, h):
        with pytest.raises(TypeError):
            evolve_state(h, fock_state(0, 4), TimeGrid(0.0, 1.0, 3), FAST)

    def test_dense_hamiltonian_rejected(self):
        # a Hamiltonian is a TimeDependentHamiltonian of COO terms, for
        # state runs and generators alike
        h = ComplexOperator(field_layout(4), np.diag(np.arange(5)))
        with pytest.raises(TypeError, match="unsupported Hamiltonian type"):
            evolve_state(h, fock_state(1, 4), TimeGrid(0.0, 1.0, 3), FAST)
        with pytest.raises(TypeError, match="unsupported Hamiltonian type"):
            sparse_liouvillian(h, [LindbladTerm(1.0, annihilation(4))])

    def test_out_of_range_term_index_rejected(self):
        # column 7 of a 4-level field; it ended in a bare IndexError inside
        # the block split of evolve_state
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            TimeDependentHamiltonian(field_layout(3), [(1.0, 0.0, np.array([0]), np.array([7]),
                                                        np.array([1.0]))])
        with pytest.raises(ValueError):
            TimeDependentHamiltonian(field_layout(3), [(1.0, 0.0, [-1], [0], [1.0])])

    def test_step_doubling_cap_raises(self):
        h, psi0 = cycle_case()
        with pytest.raises(IntegrationError, match="Magnus steps"):
            evolve_state(h, psi0, TimeGrid(0.0, 20.0, 2), IntegratorConfig(rel_tol=1e-30))

    def test_leakage_guard_triggers(self):
        # resonant JC ladder across the whole space drives population to the top
        layout = field_layout(4)
        a = annihilation(4)
        drive = from_dense(layout, [(2.0, 0.0, a.entries)])
        with pytest.raises(LeakageError):
            evolve_state(drive, fock_state(0, 4), TimeGrid(0.0, 10.0, 21), FAST)

    def test_engineered_rabi_period(self):
        # one-step ladder: P_base(t) = cos^2(zeta t)
        spec = LadderSpec(base=0, weights=(1.0,), zeta_ref=0.02)
        layout = atom_field_layout(2, 6)
        h = build_engineered_hamiltonian(spec, layout)
        psi0 = product_state(atom_state({"e": 1.0}, ("g", "e")), fock_state(0, 6))
        t_half = (np.pi / 2) / 0.02
        traj = evolve_state(h, psi0, TimeGrid(0.0, t_half, 5), FAST)
        probs = np.abs(traj.states[-1].amplitudes) ** 2
        # |e,0> fully transferred to |g,1> (atom factor first, index 0 = g)
        assert probs[1] == pytest.approx(1.0, abs=1e-9)


def edge_matrix(dim, r, s):
    """The d x d matrix with one 1 at (r, s)."""
    m = np.zeros((dim, dim))
    m[r, s] = 1.0
    return m


def interval_products(level):
    """The level's P_n over every sample interval, stacked (d, d, blocks, intervals), from the yields of each size group."""
    d = level.blocks[0].dim
    out = np.empty((d, d, len(level.blocks), len(level.times) - 1), dtype=complex)
    for size in set(level.sizes):
        group = [b for b, s in enumerate(level.sizes) if s == size]
        out[:, :, group] = np.concatenate(list(level.products(group))).transpose(2, 3, 1, 0)
    return out


def step_products(level, origins):
    """Oracle: the level's steps built one by one from their own starts, multiplied in order."""
    blocks, n, d = level.blocks, level.n, level.blocks[0].dim
    starts = (origins[:, None] + level.h * np.arange(n)).ravel()
    phases = np.stack([block.start_phases(starts) for block in blocks])
    steps = lindblad._magnus_propagators(blocks, phases, level.h)
    steps = steps.reshape(d, d, len(blocks), len(origins), n)
    out = np.broadcast_to(np.eye(d)[:, :, None, None], steps.shape[:4]).astype(complex)
    for k in range(n):
        out = np.einsum("ijbt,jlbt->ilbt", steps[..., k], out)
    return out


# (steps, step exponentials) of each full-model preset run
PRESET_MAGNUS_WORK = {"fig2a": (8000, 128), "fig2b": (32000, 160), "fig3a": (89600, 3072),
                      "fig3b": (256000, 2560)}


class TestMagnusLevels:
    """Interval propagators doubled on a grid of residual phases (``_MagnusLevel``)."""

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig3a", "fig3b"])
    def test_interpolated_steps_match_direct_build(self, name, monkeypatch):
        # the n-step product of every level that a preset run builds, doubled
        # on its phase grid to P_n and read at 9 intervals spread over the
        # grid, against the steps built one by one; the run's steps and
        # exponentials are those of the step-by-step products it replaced
        steps, exponentials = PRESET_MAGNUS_WORK[name]
        levels = []

        class Recorded(lindblad._MagnusLevel):
            def __init__(self, blocks, times, n):
                super().__init__(blocks, times, n)
                levels.append(self)

        monkeypatch.setattr(lindblad, "_MagnusLevel", Recorded)
        full = run_scenario(load_scenario(name)).summary["diagnostics"]["integrator"]["full"]
        assert (full["steps"], full["exponentials"]) == (steps, exponentials)
        assert sum((len(level.times) - 1) * level.n * len(level.blocks) for level in levels) == steps
        for level in levels:
            assert all(level.sizes)
            group = range(len(level.blocks))
            assert level.doubled(group)[1] == level.n
            props = interval_products(level)
            pick = np.linspace(0, len(level.times) - 2, 9).round().astype(int)
            err = np.max(np.abs(props[..., pick] - step_products(level, level.times[pick])))
            assert err <= 1e-13, (level.n, err)

    def test_blocks_of_every_shape_match_their_own_runs(self, monkeypatch):
        # two blocks of dim 2 with one residual each (stacked together), one
        # of dim 3 with one residual (a cycle) and one of dim 3 with two
        # (a cycle and a second term on a tree edge); level 10 is a static
        # spectator and levels 12-13 stay empty
        dim, layout = 14, field_layout(13)
        h = from_dense(layout, [
            (0.3, 1.0, edge_matrix(dim, 1, 0)), (0.2, 1.4, edge_matrix(dim, 1, 0)),
            (0.3, 1.0, edge_matrix(dim, 3, 2)), (0.2, np.sqrt(2.0), edge_matrix(dim, 4, 3)),
            (0.25j, 0.5, edge_matrix(dim, 4, 2)),
            (0.2, 0.9, edge_matrix(dim, 6, 5)), (0.3, 1.1, edge_matrix(dim, 7, 6)),
            (0.15, 2.5, edge_matrix(dim, 7, 5)), (0.1, 0.6, edge_matrix(dim, 6, 5)),
            (0.25, 0.8, edge_matrix(dim, 9, 8)), (0.2, 1.5, edge_matrix(dim, 9, 8)),
        ])
        starts, sectors = (0, 2, 5, 8), ([0, 1], [2, 3, 4], [5, 6, 7], [8, 9])
        amps = np.zeros(dim, dtype=complex)
        amps[list(starts)] = [0.4, 0.4j, 0.4, -0.4]
        amps[10] = 0.6
        grid = TimeGrid(0.0, 30.0, 16)
        groups = []
        magnus_states = lindblad._magnus_states

        def recorded(blocks, *args):
            groups.append(sorted((block.dim, len(block.frequencies)) for block in blocks))
            return magnus_states(blocks, *args)

        monkeypatch.setattr(lindblad, "_magnus_states", recorded)
        psi0 = StateVector(layout, amps)
        traj = evolve_state(h, psi0, grid, FAST)
        assert sorted(groups) == [[(2, 1), (2, 1)], [(3, 1)], [(3, 2)]]
        got = np.array([s.amplitudes for s in traj.states])
        assert np.max(np.abs(got - dop853_states(h, psi0, grid.times))) <= 1e-8
        # each block, run alone at the same amplitude, keeps its own levels,
        # grids and acceptance
        alone = []
        for level in starts:
            one = np.zeros(dim, dtype=complex)
            one[[level, 10]] = amps[level], np.sqrt(1.0 - 0.4**2)
            alone.append(evolve_state(h, StateVector(layout, one), grid, FAST))
        assert traj.steps == sum(run.steps for run in alone)
        assert traj.exponentials == sum(run.exponentials for run in alone)
        assert traj.error_estimate == pytest.approx(max(run.error_estimate for run in alone),
                                                    rel=1e-6)
        for sector, run in zip(sectors, alone):
            own = np.array([s.amplitudes for s in run.states])[:, sector]
            assert np.max(np.abs(got[:, sector] - own)) <= 1e-12

    def test_shared_residual_takes_one_phase_dimension(self):
        # a star of edges 0-1, 0-2, 0-3 (the spanning tree) and two edges,
        # 1-2 and 2-3, that keep the same residual 0.05 (to rounding) in
        # the frame of the star; Fock levels 4-9 keep the top of the cutoff empty
        layout = field_layout(9)
        h = from_dense(layout, [
            (1.0, 0.7, edge_matrix(10, 1, 0)), (1.0, 1.1, edge_matrix(10, 2, 0)),
            (1.0, 1.3, edge_matrix(10, 3, 0)), (0.2, 1.1 - 0.7 + 0.05, edge_matrix(10, 2, 1)),
            (0.3, 1.3 - 1.1 + 0.05, edge_matrix(10, 3, 2)),
        ])
        block = first_frame_block(h)
        assert block.dim == 4 and len(block.amplitudes) == 2
        assert block.frequencies == pytest.approx([0.05], abs=1e-14)
        assert block.dimension.tolist() == [0, 0]
        times = TimeGrid(0.0, 30.0, 16).times
        level = lindblad._MagnusLevel([block], times, 8)
        # one-dimensional grids of 16, ..., M nodes, M/2 - 1 harmonics kept
        size, = level.sizes
        assert level.exponentials == 2 * size - 16
        assert level.harmonics[0].shape == (4, 4, size // 2 - 1)
        props = interval_products(level)
        assert np.max(np.abs(props - step_products(level, times[:-1]))) <= 1e-13
        psi0 = fock_state(0, 9)
        traj = evolve_state(h, psi0, TimeGrid(0.0, 30.0, 16), FAST)
        got = np.array([s.amplitudes for s in traj.states])
        assert np.max(np.abs(got - dop853_states(h, psi0, times))) <= 1e-8

    def test_unconverged_level_is_built_step_by_step(self, monkeypatch):
        # a moving amplitude of 5 on a coarse level (60 steps of h = 0.5):
        # the grids of 16 and 32 nodes leave harmonics above rounding,
        # and 64 nodes would reach the step count
        layout = field_layout(1)
        edge = edge_matrix(2, 1, 0)
        h = from_dense(layout, [(0.3, 1.0, edge), (5.0, 1.3, edge)])
        block = first_frame_block(h)
        times = TimeGrid(0.0, 30.0, 16).times
        level = lindblad._MagnusLevel([block], times, 4)
        assert level.sizes == [0]
        props = interval_products(level)
        assert level.exponentials == 16 + 32 + 60
        monkeypatch.setattr(lindblad, "_FIRST_NODES", 64)  # no grid is tried
        direct = lindblad._MagnusLevel([block], times, 4)
        assert np.array_equal(props, interval_products(direct))
        assert direct.exponentials == 60
        assert np.max(np.abs(props - step_products(direct, times[:-1]))) <= 1e-13

    def test_tail_failure_falls_back_to_step_products(self, monkeypatch):
        # one interval of 30 at amplitude 0.5: the steps converge on 32
        # nodes, but the 32-step product outgrows that grid at the fifth
        # doubling, so the level multiplies 4 consecutive 16-step products,
        # each read from the grid at its own start
        layout = field_layout(1)
        edge = edge_matrix(2, 1, 0)
        h = from_dense(layout, [(0.5, 1.0, edge), (0.5, 1.3, edge)])
        block = first_frame_block(h)
        times = TimeGrid(0.0, 30.0, 2).times
        level = lindblad._MagnusLevel([block], times, 64)
        assert level.sizes == [32]
        tails = []
        tail = lindblad._tail
        monkeypatch.setattr(lindblad, "_tail", lambda *args: tails.append(tail(*args)) or tails[-1])
        j = level.doubled([0])[1]
        assert j == 16 < level.n
        passed = [float(t[0]) <= lindblad._NODE_ROUNDING for t in tails]
        assert passed[:4] == [True] * 4 and not all(passed)
        props = interval_products(level)
        assert level.exponentials == 16 + 32
        monkeypatch.setattr(lindblad, "_FIRST_NODES", 64)  # no grid is tried
        direct = lindblad._MagnusLevel([block], times, 64)
        assert direct.sizes == [0]
        assert np.max(np.abs(props - step_products(direct, times[:-1]))) <= 1e-13

    def test_grid_levels_form_only_their_nodes(self, monkeypatch):
        # the step-doubling cap run (one interval of 20, rel_tol 1e-30) builds
        # every level up to the level bound; from n = 512 on each level has a grid
        # whose products outgrow it before P_n, and still forms no exponential
        # beyond its nodes
        levels = []

        class Recorded(lindblad._MagnusLevel):
            def __init__(self, blocks, times, n):
                super().__init__(blocks, times, n)
                levels.append(self)

        monkeypatch.setattr(lindblad, "_MagnusLevel", Recorded)
        h, psi0 = cycle_case()
        with pytest.raises(IntegrationError, match="Magnus steps"):
            evolve_state(h, psi0, TimeGrid(0.0, 20.0, 2), IntegratorConfig(rel_tol=1e-30))
        grids = [level for level in levels if level.sizes[0]]
        assert [level.n for level in grids] == [2**k for k in range(9, lindblad._MAX_LEVELS)]
        for level in grids:
            size, = level.sizes
            m = len(level.blocks[0].frequencies)
            tried = [s for s in lindblad._FIRST_NODES * 2 ** np.arange(8) if s <= size]
            assert level.exponentials == sum(int(s)**m for s in tried), level.n
        assert all(level.doubled([0])[1] < level.n for level in grids)


class TestEvolveDensity:
    def test_amplitude_damping_mean_photon(self):
        # [DERIVED] <n>(t) = n0 exp(-gamma t) for a pure decay channel
        layout = field_layout(9)
        gamma = 1.7
        terms = [LindbladTerm(gamma, annihilation(9))]
        rho0 = fock_state(4, 9).to_density()
        grid = TimeGrid(0.0, 1.0, 6)
        traj = evolve_density(sparse_liouvillian(None, terms), rho0, grid)
        for t, state in zip(grid.times, traj.states):
            mean = photon_mean(fock_probabilities(state))
            assert mean == pytest.approx(4.0 * np.exp(-gamma * t), abs=1e-8)

    @pytest.mark.parametrize("name", ["fig4", "fig6a", "fig6b"])
    def test_preset_trace_drift_stays_at_rounding(self, name, monkeypatch):
        # exp(L dt) in expm1 form rounds relative to exp(L dt) - 1, so 200
        # steps drift the trace by 1e-15 to 1.5e-14; the textbook form,
        # which squares 1 + E, drifts fig6a by 1.5e-13
        runs = []
        monkeypatch.setattr(scenarios, "evolve_density",
                            lambda *args: runs.append(evolve_density(*args)) or runs[-1])
        run_scenario(load_scenario(name))
        traj, = runs
        d = traj.layout.dim
        trace = traj.entries[:, traj.index % (d + 1) == 0].real.sum(axis=1)
        assert np.max(np.abs(trace - 1.0)) <= 3e-14

    def test_trace_and_positivity_maintained(self):
        layout = field_layout(14)
        terms = thermal_terms(ThermalBathParams(gamma=1.0, n_bar=0.3), layout)
        traj = evolve_density(sparse_liouvillian(None, terms), thermal_state(0.1, 14),
                              TimeGrid(0.0, 2.0, 9))
        for state in traj.states:
            assert np.trace(state.entries).real == pytest.approx(1.0, abs=1e-8)
            assert np.linalg.eigvalsh(state.entries).min() > -1e-7

    def test_time_dependent_hamiltonian_rejected(self):
        layout = field_layout(4)
        h = from_dense(layout, [(1.0, 0.5, annihilation(4).entries)])
        terms = [LindbladTerm(1.0, annihilation(4))]
        with pytest.raises(TypeError):
            evolve_density(sparse_liouvillian(h, terms), fock_state(1, 4).to_density(),
                           TimeGrid(0.0, 1.0, 3))

    def test_hamiltonian_and_dissipator_together(self):
        # [DERIVED] compare against the vectorized Liouvillian propagator
        layout = field_layout(6)
        h = static_hamiltonian(layout, seed=5, active=4)
        terms = [LindbladTerm(0.8, annihilation(6))]
        rho0 = fock_state(2, 6).to_density()
        grid = TimeGrid(0.0, 1.2, 4)
        L = dense(sparse_liouvillian(h, terms))
        traj = evolve_density(sparse_liouvillian(h, terms), rho0, grid)
        for t, state in zip(grid.times, traj.states):
            vec = scipy.linalg.expm(L * t) @ rho0.entries.ravel(order="F")
            expected = vec.reshape(6 + 1, 6 + 1, order="F")
            assert np.allclose(state.entries, expected, atol=1e-8)

    def test_touched_blocks_match_dense_exponential(self):
        # oracle: exp(L (t - t0)) of the dense generator at each sample.  The
        # number-conserving H and the phase-covariant jumps never mix the
        # coherence orders of rho, so a superposition of |1> and |3> touches
        # orders 0 and +-2 only and every other entry stays exactly zero.
        cutoff = 6
        n = np.diag(np.arange(cutoff + 1.0))
        h = from_dense(field_layout(cutoff), [(0.5, 0.0, 0.7 * n + 0.3 * n @ n)])
        terms = [LindbladTerm(0.8, annihilation(cutoff)),
                 LindbladTerm(0.2, ComplexOperator(field_layout(cutoff), n))]
        rho0 = field_superposition({1: 0.6, 3: 0.8j}, cutoff).to_density()
        grid = TimeGrid(0.3, 1.5, 7)
        traj = evolve_density(sparse_liouvillian(h, terms), rho0, grid)
        assert sorted(traj.blocks) == [5, 5, 7]
        L = dense(sparse_liouvillian(h, terms))
        i, j = np.indices((cutoff + 1, cutoff + 1))
        untouched = ~np.isin(i - j, (-2, 0, 2))
        for t, state in zip(grid.times, traj.states):
            vec = scipy.linalg.expm(L * (t - grid.t_start)) @ rho0.entries.ravel(order="F")
            expected = vec.reshape(cutoff + 1, cutoff + 1, order="F")
            assert np.allclose(state.entries, expected, atol=1e-12, rtol=0)
            assert np.all(state.entries[untouched] == 0)

    def test_leakage_guard_stops_at_first_leaking_sample(self):
        # oracle: top-two Fock populations of the dense exponential per sample
        cutoff = 4
        a = annihilation(cutoff)
        L = sparse_liouvillian(None, [LindbladTerm(1.0, a.dag()), LindbladTerm(0.5, a)])
        rho0 = fock_state(0, cutoff).to_density()
        grid = TimeGrid(0.0, 0.05, 26)
        leak = []
        for t in grid.times:
            vec = scipy.linalg.expm(dense(L) * t) @ rho0.entries.ravel(order="F")
            pops = np.real(vec[:: cutoff + 2])
            leak.append(pops[-1] + pops[-2])
        first = int(np.argmax(np.array(leak) >= lindblad.LEAKAGE_LIMIT))
        assert first > 5
        with pytest.raises(LeakageError) as err:
            evolve_density(L, rho0, grid)
        reported = float(re.search(r"population (\S+) >=", str(err.value)).group(1))
        assert reported == pytest.approx(leak[first], rel=1e-9)
        clean = evolve_density(L, rho0, TimeGrid(0.0, grid.times[first - 1], first))
        assert clean.leakage == pytest.approx(leak[first - 1], rel=1e-9)


class TestTrajectoryStorage:
    def density_run(self):
        cutoff = 6
        n = np.diag(np.arange(cutoff + 1.0))
        h = from_dense(field_layout(cutoff), [(0.5, 0.0, 0.7 * n + 0.3 * n @ n)])
        terms = [LindbladTerm(0.8, annihilation(cutoff))]
        rho0 = field_superposition({1: 0.6, 3: 0.8j}, cutoff).to_density()
        return evolve_density(sparse_liouvillian(h, terms), rho0, TimeGrid(0.0, 1.0, 11))

    def test_states_are_built_on_access(self, monkeypatch):
        traj = self.density_run()
        built = []
        original = lindblad.Trajectory.state
        monkeypatch.setattr(lindblad.Trajectory, "state",
                            lambda self, k: built.append(k) or original(self, k))
        assert len(traj.states) == 11 and built == []
        assert traj.states[0].layout == field_layout(6)
        assert traj.states[-1].entries.shape == (7, 7)
        assert len(traj.states[2:5]) == 3
        assert built == [0, 10, 2, 3, 4]
        with pytest.raises(IndexError):
            traj.states[11]

    def test_touched_entries_only(self):
        traj = self.density_run()
        # coherence orders 0 and +-2 of a 7-level field: 7 + 5 + 5 entries
        assert traj.entries.shape == (11, 17)
        assert sorted(traj.blocks) == [5, 5, 7]
        d = 7
        full = np.zeros((11, d * d), dtype=complex)
        full[:, traj.index] = traj.entries
        for k, state in enumerate(traj.states):
            rho = full[k].reshape(d, d, order="F")
            assert np.array_equal(state.entries, 0.5 * (rho + rho.conj().T))

    def test_populations_and_purity_match_states(self):
        traj = self.density_run()
        rhos = [s.entries for s in traj.states]
        pops = np.array([np.real(np.diag(r)) for r in rhos])
        assert np.array_equal(traj.populations, pops)
        purity = [np.real(np.trace(r @ r)) for r in rhos]
        assert np.allclose(traj.purity(), purity, atol=1e-14, rtol=0)

    def test_state_run_populations_and_purity(self):
        h, psi0 = full_raman_case("fig2a")
        traj = evolve_state(h, psi0, TimeGrid(0.0, 20.0, 9), FAST)
        amps = np.array([s.amplitudes for s in traj.states])
        probs = (np.abs(amps) ** 2).reshape(9, -1, psi0.layout.dim_of("field"))
        assert np.array_equal(traj.populations, probs.sum(axis=1))
        assert np.allclose(traj.purity(), 1.0, atol=1e-12, rtol=0)
        # only the blocks psi0 touches are stored
        assert len(traj.index) < psi0.layout.dim
        assert np.all(amps[:, np.setdiff1d(np.arange(psi0.layout.dim), traj.index)] == 0)

    def test_state_populations_are_read_from_touched_entries(self):
        # 32,769 samples of 4 touched entries of an 80-level atom-field
        # layout: no (samples, 80) array may be formed on the way
        layout, samples = atom_field_layout(5, 15), 32769
        index = np.array([40, 3, 77, 19])  # unsorted; 3 and 19 share field level 3
        rng = np.random.default_rng(5)
        entries = rng.normal(size=(samples, 4)) + 1j * rng.normal(size=(samples, 4))
        traj = lindblad.Trajectory(np.arange(samples, dtype=float), layout, index, entries, False)
        tracemalloc.start()
        try:
            pops = traj.populations
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * pops.nbytes
        # oracle: the whole-basis probabilities summed over the atom
        full = np.zeros((samples, layout.dim))
        full[:, index] = np.abs(entries) ** 2
        assert np.array_equal(pops, full.reshape(samples, 5, 16).sum(axis=1))


class TestPropagateTouched:
    """The batched guards of density runs and the collision model."""

    layout = field_layout(5)

    def run(self, step, rho0, samples=4, step_name="collisions"):
        vec0 = rho0.ravel(order="F").astype(complex)
        steps = [(idx, sub) for idx, sub in as_liouvillian(step, self.layout).blocks
                 if np.any(vec0[idx])]
        return propagate_touched(steps, vec0, np.arange(samples, dtype=float), self.layout,
                                 step_name=step_name)

    @staticmethod
    def population_step(m):
        """A map on vec(rho) of a 6-level field acting as ``m`` on the populations."""
        d = 6
        step = np.zeros((d * d, d * d), dtype=complex)
        diag = np.arange(d) * (d + 1)
        step[np.ix_(diag, diag)] = m
        return step

    def test_trace_drift_names_the_step(self):
        rho0 = np.diag([1.0, 0, 0, 0, 0, 0])
        with pytest.raises(IntegrationError, match=r"trace drift .* after 1 collisions"):
            self.run(self.population_step(1.01 * np.eye(6)), rho0)

    def test_non_finite_entry_fails_drift_guard(self):
        m = np.eye(6)
        m[1, 0] = np.nan
        with pytest.raises(IntegrationError, match="trace drift nan"):
            self.run(self.population_step(m), np.diag([1.0, 0, 0, 0, 0, 0]))

    def test_negative_population(self):
        # trace-preserving, but |0><0| -> 1.5|0><0| - 0.5|1><1|
        m = np.eye(6)
        m[:2, 0] = (1.5, -0.5)
        with pytest.raises(IntegrationError, match=r"negative eigenvalue -0\.5 after 1 collisions"):
            self.run(self.population_step(m), np.diag([1.0, 0, 0, 0, 0, 0]))

    def test_drift_is_checked_before_negativity(self):
        m = np.eye(6)
        m[:2, 0] = (1.6, -0.5)
        with pytest.raises(IntegrationError, match="trace drift"):
            self.run(self.population_step(m), np.diag([1.0, 0, 0, 0, 0, 0]))

    def test_negative_eigenvalue_of_a_coherence_component(self):
        # populations stay put while the |0><1| coherence grows: the 2x2
        # component [[.5, c], [c, .5]] turns negative once |c| > .5
        d = 6
        step = np.eye(d * d, dtype=complex)
        step[d, d] = step[1, 1] = 1.5  # vec index of |0><1| and |1><0|
        rho0 = np.zeros((d, d))
        rho0[:2, :2] = [[0.5, 0.3], [0.3, 0.5]]
        traj = self.run(step, rho0, samples=2)
        assert len(traj.index) == 4
        with pytest.raises(IntegrationError, match=r"negative eigenvalue .* after 2 collisions"):
            self.run(step, rho0, samples=3)

    def test_leakage_is_checked_last(self):
        # |0><0| -> |5><5|: the top level fills at the first step
        m = np.zeros((6, 6))
        m[5, 0] = 1.0
        m[5, 5] = 1.0
        with pytest.raises(LeakageError, match=r"population 1.0 >= 1e-06 after 1 collisions"):
            self.run(self.population_step(m), np.diag([1.0, 0, 0, 0, 0, 0]))

    def test_drift_in_a_later_run_names_its_step(self):
        # trace (1 + 3e-10)^k drifts past 1e-8 at k = 34; 60 intervals stack
        # m = 8 powers, so step 34 is the second sample of the fifth run
        step = self.population_step((1.0 + 3e-10) * np.eye(6))
        with pytest.raises(IntegrationError, match=r"trace drift .* after 34 collisions"):
            self.run(step, np.diag([1.0, 0, 0, 0, 0, 0]), samples=61)

    @staticmethod
    def spy_dot(monkeypatch):
        """Record the shape of the matrix of every ``np.dot`` call."""
        shapes = []
        original = np.dot
        monkeypatch.setattr(np, "dot", lambda a, b, out=None: (
            shapes.append(a.shape) or original(a, b, out=out)))
        return shapes

    @staticmethod
    def sequential(steps, vec0, intervals):
        """Oracle: one mat-vec of the touched step per interval."""
        index = np.concatenate([idx for idx, _ in steps])
        full = np.zeros((len(vec0), len(vec0)), dtype=complex)
        for idx, block in steps:
            full[np.ix_(idx, idx)] = block
        step = full[np.ix_(index, index)]
        out = [vec0[index]]
        for _ in range(intervals):
            out.append(step @ out[-1])
        return np.array(out)

    @pytest.mark.parametrize("intervals, powers", [
        (1, 1), (2, 2), (3, 2), (89, 10), (90, 10), (91, 10), (7563, 87),
    ])
    def test_stacked_powers_match_sequential_steps(self, intervals, powers, monkeypatch):
        # the fig4 population step at cutoff 12 (13 entries).  m = isqrt(N) + 1
        # powers: 90 intervals fill 9 runs of 10, 89 end one short of the
        # last and 91 one into a tenth; 7,563 end 81 into the 87th run
        cutoff = 12
        L = sparse_liouvillian(None, preset_terms("fig4", cutoff))
        dt = np.diff(load_scenario("fig4").grid.times)[0]
        vec0 = thermal_state(0.05, cutoff).entries.astype(complex).ravel(order="F")
        steps = [(idx, lindblad.expm(sub * dt)) for idx, sub in L.blocks if np.any(vec0[idx])]
        shapes = self.spy_dot(monkeypatch)
        traj = propagate_touched(steps, vec0, dt * np.arange(intervals + 1.0), L.layout)
        assert shapes == [(powers * 13, 13)] * (intervals // powers) + (
            [((intervals % powers) * 13, 13)] if intervals % powers else [])
        expected = self.sequential(steps, vec0, intervals)
        assert np.max(np.abs(traj.entries - expected)) <= 1e-13

    def test_byte_budget_keeps_one_power_for_a_large_touched_set(self, monkeypatch):
        # a pure start on every level touches all 625 entries at cutoff 24:
        # the step alone is 6.25 MB, past _POWER_BYTES, so each sample is
        # one mat-vec of the step, as in the oracle
        cutoff = 24
        layout = field_layout(cutoff)
        L = sparse_liouvillian(None, thermal_terms(ThermalBathParams(gamma=1.0, n_bar=0.05),
                                                   layout))
        psi = field_superposition({n: 1.0 if n < 3 else 1e-4 for n in range(cutoff + 1)}, cutoff)
        vec0 = psi.to_density().entries.astype(complex).ravel(order="F")
        steps = [(idx, lindblad.expm(sub * 0.01)) for idx, sub in L.blocks]
        assert 16 * 625**2 > lindblad._POWER_BYTES
        shapes = self.spy_dot(monkeypatch)
        traj = propagate_touched(steps, vec0, np.linspace(0.0, 0.2, 21), layout)
        assert len(traj.index) == 625
        assert shapes == [(625, 625)] * 20
        expected = self.sequential(steps, vec0, 20)
        assert np.max(np.abs(traj.entries - expected)) <= 1e-13

    def test_density_run_messages_name_no_step(self):
        m = np.eye(6)
        m[:2, 0] = (1.5, -0.5)
        with pytest.raises(IntegrationError) as err:
            self.run(self.population_step(m), np.diag([1.0, 0, 0, 0, 0, 0]), step_name="")
        assert str(err.value) == "negative eigenvalue -0.5; truncation or step failure"


class TestStateRunGuards:
    """The guards of ``_guarded`` on hand-built state-vector trajectories."""

    LIMIT = 1e-8

    @staticmethod
    def trajectory(amps, layout=field_layout(5)):
        amps = np.asarray(amps, dtype=complex)
        return lindblad.Trajectory(np.arange(len(amps), dtype=float), layout,
                                   np.arange(amps.shape[1]), amps, False)

    def test_nan_amplitude_fails_drift_guard(self):
        amps = np.eye(6)[:3]
        amps[1, 2] = np.nan
        with pytest.raises(IntegrationError, match="norm drift nan exceeds 1e-08"):
            lindblad._guarded(self.trajectory(amps), self.LIMIT)

    def test_norm_past_limit_fails_drift_guard(self):
        amps = np.eye(6)[:3]
        lindblad._guarded(self.trajectory(amps * (1 + 0.5 * self.LIMIT)), self.LIMIT)
        amps[2] *= 1 + 2 * self.LIMIT
        with pytest.raises(IntegrationError, match="norm drift .* exceeds 1e-08"):
            lindblad._guarded(self.trajectory(amps), self.LIMIT)

    def test_drift_is_checked_before_leakage(self):
        # sample 1 sits in the top Fock level and is off in norm
        amps = np.eye(6)[[0, 5]] * [[1.0], [1.1]]
        with pytest.raises(IntegrationError, match="norm drift"):
            lindblad._guarded(self.trajectory(amps), self.LIMIT)
        amps[1] = np.eye(6)[5]
        with pytest.raises(LeakageError, match=r"population 1.0 >= 1e-06; raise the cutoff"):
            lindblad._guarded(self.trajectory(amps), self.LIMIT)

    def test_atom_only_layout_reports_no_leakage(self):
        amps = np.eye(3)
        traj = lindblad._guarded(self.trajectory(amps, HilbertLayout((("atom", 3),))),
                                 self.LIMIT)
        assert traj.leakage == 0.0


class TestDensityGuardPatterns:
    """A population-only density trajectory and one with a coherence component, guarded alike."""

    LIMIT = 1e-8
    D = 6

    @classmethod
    def trajectory(cls, pops, mixed):
        """Samples rho = diag(pops); ``mixed`` also stores |0><1| and |1><0|, at zero."""
        pops = np.asarray(pops, dtype=complex)
        index = np.arange(cls.D) * (cls.D + 1)
        if mixed:  # vec index r + c d of |r><c|
            index = np.r_[index, cls.D, 1]
            pops = np.hstack([pops, np.zeros((len(pops), 2))])
        return lindblad.Trajectory(np.arange(len(pops), dtype=float), field_layout(cls.D - 1),
                                   index, pops, True)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_leakage_recorded(self, mixed):
        pops = np.eye(self.D)[[0, 0]]
        pops[1, [0, 4, 5]] = (1.0 - 3e-7, 1e-7, 2e-7)
        traj = lindblad._guarded(self.trajectory(pops, mixed), self.LIMIT)
        assert traj.leakage == 1e-7 + 2e-7

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("sample, message", [
        ([np.nan, 0, 0, 0, 0, 0], "trace drift nan exceeds 1e-08"),
        ([1.1, 0, 0, 0, 0, 0], "trace drift 0.10000000000000009 exceeds 1e-08"),
        ([1.5, -0.5, 0, 0, 0, 0], "negative eigenvalue -0.5; truncation or step failure"),
        ([0.5, 0, 0, 0, 0, 0.5],
         "top-two Fock population 0.5 >= 1e-06; raise the cutoff"),
    ])
    def test_errors(self, mixed, sample, message):
        pops = np.array([np.eye(self.D)[0], sample])
        with pytest.raises((IntegrationError, LeakageError)) as err:
            lindblad._guarded(self.trajectory(pops, mixed), self.LIMIT)
        assert str(err.value) == message


    def test_populations_alone_skip_the_component_search(self, monkeypatch):
        # every entry a population: each is its own one-level component, read
        # in one reduction without a search; oracle: eigvalsh of diag(entries)
        entries = np.random.default_rng(5).normal(size=(20, self.D)) + 0j
        diagonal = np.arange(self.D)
        monkeypatch.setattr(lindblad, "invariant_blocks", None)
        low = lindblad._lowest_eigenvalues(entries, diagonal, diagonal, self.D)
        expected = [np.linalg.eigvalsh(np.diag(row.real)).min() for row in entries]
        assert np.array_equal(low, expected)


class TestLiouvillianMatrix:
    def test_action_matches_master_equation(self):
        # [DERIVED] L vec(rho) == vec(-i[H,rho] + dissipator) elementwise
        layout = field_layout(5)
        h = static_hamiltonian(layout, seed=9)
        a = annihilation(5)
        terms = [LindbladTerm(0.5, a), LindbladTerm(0.2, a.dag())]
        L = dense(sparse_liouvillian(h, terms))
        rng = np.random.default_rng(21)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        hm = dense_hamiltonian(h, 0.0)
        rhs = -1j * (hm @ rho - rho @ hm)
        for term in terms:
            j = term.jump.entries
            jd = j.conj().T
            rhs += (term.rate / 2) * (2 * j @ rho @ jd - jd @ j @ rho - rho @ jd @ j)
        assert np.allclose(L @ rho.ravel(order="F"), rhs.ravel(order="F"), atol=1e-12)

    def test_trace_preservation(self):
        # columns of L sum against the identity to zero: d(tr rho)/dt = 0
        layout = field_layout(4)
        terms = thermal_terms(ThermalBathParams(gamma=1.0, n_bar=0.2), layout)
        L = dense(sparse_liouvillian(None, terms))
        d = 5
        tr_vec = np.eye(d).ravel(order="F")
        assert np.allclose(tr_vec @ L, 0.0, atol=1e-12)

    def test_requires_generator(self):
        with pytest.raises(ValueError):
            sparse_liouvillian(None, [])

    def test_triplets_are_canonical_and_read_only(self):
        # duplicates summed, a cancelling pair dropped, sorted by flat index
        # and frozen, so the cached block split cannot go stale
        L = LiouvillianMatrix(np.array([3, 0, 3, 1, 2, 2]), np.array([1, 2, 1, 1, 0, 0]),
                              np.array([1.0, 2.0, 0.5j, -1.0, 1.0, -1.0]), field_layout(1))
        assert L.shape == (4, 4)
        assert L.rows.tolist() == [0, 1, 3] and L.cols.tolist() == [2, 1, 1]
        assert L.values.tolist() == [2.0, -1.0, 1.0 + 0.5j]
        for arr in (L.rows, L.cols, L.values):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_out_of_range_index_rejected(self):
        # column 5 of a 4 x 4 map was folded into row 1 and stored at (1, 1)
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            LiouvillianMatrix(np.array([0]), np.array([5]), np.array([1.0]), field_layout(1))
        with pytest.raises(ValueError):
            LiouvillianMatrix(np.array([-1]), np.array([0]), np.array([1.0]), field_layout(1))

    @pytest.mark.parametrize("hamiltonian", [None, "random", "engineered"],
                             ids=["dissipators", "with-H", "engineered-H"])
    def test_matches_kron_construction(self, hamiltonian):
        # oracle: the generator summed from scipy.sparse.kron pieces, on the
        # atom (x) field layout of the collision model with a random H, or
        # with the engineered H that the collision model passes; either is
        # one static term, written out densely for the oracle
        layout = atom_field_layout(2, 5)
        h = static_hamiltonian(layout, seed=3) if hamiltonian == "random" else None
        if hamiltonian == "engineered":
            h = build_engineered_hamiltonian(LadderSpec(0, (1.0, 0.8j), 0.7), layout)
        field = field_layout(5)
        terms = [
            LindbladTerm(t.rate, ComplexOperator(layout, np.kron(np.eye(2), t.jump.entries)))
            for t in thermal_terms(ThermalBathParams(gamma=0.7, n_bar=0.3), field)
        ]
        terms.append(LindbladTerm(1.3, ComplexOperator(
            layout, np.kron(np.eye(2), ladder_jump(5)))))
        got = sparse_liouvillian(h, terms)
        if h is not None:
            h = ComplexOperator(layout, dense_hamiltonian(h, 0.0))
        expected = kron_liouvillian(h, terms)
        assert np.max(np.abs(dense(got) - expected.toarray())) <= 1e-13
        # no stored zeros: the block split reads the stored pattern
        assert np.all(got.values != 0)


def same_blocks(got, expected) -> bool:
    return len(got) == len(expected) and all(
        np.array_equal(g, e) for g, e in zip(got, expected))


class TestInvariantBlocks:
    @pytest.mark.parametrize("form", ["float", "bool", "csr"])
    @pytest.mark.parametrize("seed, density", [(0, 0.005), (1, 0.02), (2, 0.04), (3, 0.1)])
    def test_matches_csgraph_on_random_patterns(self, seed, density, form):
        # oracle: scipy's weak components; sparse directed patterns leave
        # isolated levels and blocks of every size.  The CSR form also
        # stores some explicit zeros, which are not couplings.
        rng = np.random.default_rng(seed)
        n = 60
        mat = np.where(rng.random((n, n)) < density, rng.normal(size=(n, n)), 0.0)
        if form == "bool":
            mat = mat != 0
        elif form == "csr":
            mat = scipy.sparse.csr_matrix(mat)
            mat.data[::4] = 0.0
        got = invariant_blocks(*mat.nonzero(), n)
        assert same_blocks(got, csgraph_blocks(mat))
        if density < 0.01:
            assert min(len(idx) for idx in got) == 1

    def test_all_zero_matrix_is_singletons(self):
        mat = np.zeros((7, 7))
        got = invariant_blocks(*mat.nonzero(), 7)
        assert same_blocks(got, csgraph_blocks(mat))
        assert same_blocks(got, [np.array([k]) for k in range(7)])

    def test_full_and_chain_patterns_are_one_block(self):
        # a full block, and a path through shuffled levels, which needs
        # several hooking rounds and pointer jumps
        rng = np.random.default_rng(5)
        full = rng.normal(size=(9, 9))
        chain = np.zeros((200, 200))
        path = rng.permutation(200)
        chain[path[1:], path[:-1]] = 1.0
        for mat in (full, chain):
            got = invariant_blocks(*mat.nonzero(), len(mat))
            assert same_blocks(got, csgraph_blocks(mat))
            assert len(got) == 1

    def test_generic_dense_generator_is_one_block(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        blocks = invariant_blocks(*mat.nonzero(), 16)
        assert len(blocks) == 1
        assert sorted(blocks[0]) == list(range(16))

    def test_zero_coupling_term_links_no_levels(self):
        # a laser leg with Omega = 0 is a term with c = 0: ``_half_terms``
        # drops its entries, so H splits as its dense H(t) does (oracle:
        # csgraph on the dense H), into more blocks than the term patterns
        params = RamanLadderParams([1.0, 1.0], [0.0, 0.05], [10.0, 5.0], [9.9, 5.2])
        h = build_full_hamiltonian(params, atom_field_layout(4, 6))
        _, rows, cols, _ = lindblad._half_terms(h)
        got = invariant_blocks(rows, cols, h.layout.dim)
        assert same_blocks(got, csgraph_blocks(dense_hamiltonian(h, 0.7)))
        patterns = [np.concatenate([term[k] for term in h.terms]) for k in (2, 3)]
        assert len(got) > len(invariant_blocks(*patterns, h.layout.dim))

    def test_fig4_splits_exactly(self):
        mat = sparse_liouvillian(None, preset_terms("fig4", 24))
        blocks = invariant_blocks(mat.rows, mat.cols, mat.shape[0])
        assert len(blocks) == 49
        assert max(len(idx) for idx in blocks) == 25
        assert sorted(np.concatenate(blocks)) == list(range(625))
        label = np.empty(625, dtype=int)
        for b, idx in enumerate(blocks):
            label[idx] = b
        rows, cols = np.nonzero(dense(mat))
        assert np.all(label[rows] == label[cols])


class TestFrameBlock:
    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig3a", "fig3b"])
    @pytest.mark.parametrize("kind", ["JC", "AJC"])
    def test_energies_match_csgraph_spanning_tree(self, name, kind):
        # oracle: the frame energies built from scipy's breadth-first order,
        # equal to the last bit on every block of the preset Hamiltonian
        h, _ = full_raman_case(name, kind=kind)
        blocks = block_terms(h)
        assert max(len(idx) for idx, _ in blocks) > 2
        for idx, entries in blocks:
            energies = lindblad._FrameBlock(*entries, len(idx)).energies
            assert np.array_equal(energies, csgraph_frame_energies(*entries[:3], len(idx)))

    def test_cycle_energies_match_csgraph_spanning_tree(self):
        # level 0 reaches 3 along an out-edge and 1 along an in-edge, and 2
        # closes the cycle 0-3-2-1 at incommensurate frequencies: visiting
        # 3 before 1 puts 2 under 3 in the tree, which moves its energy
        def edge(r, s):
            m = np.zeros((4, 4))
            m[r, s] = 1.0
            return m

        h = from_dense(field_layout(3), [
            (0.3, 1.0, edge(0, 3)), (0.2, np.sqrt(2.0), edge(1, 0)),
            (0.25, np.pi, edge(2, 3)), (0.4, np.e, edge(2, 1)),
        ])
        for h in (h, cycle_case()[0]):
            for idx, entries in block_terms(h):
                energies = lindblad._FrameBlock(*entries, len(idx)).energies
                assert np.array_equal(energies, csgraph_frame_energies(*entries[:3], len(idx)))


class TestSteadyState:
    @pytest.mark.parametrize("name", ["fig4", "fig6a", "fig6b"])
    def test_matches_dense_null_vector(self, name):
        L = sparse_liouvillian(None, preset_terms(name, 12))
        assert np.allclose(steady_state(L).entries, dense_null_state(L), atol=1e-10)

    def test_huge_rate_warns_nothing(self, recwarn):
        # block entries of 1e300 overflow the Frobenius shortcut of
        # LiouvillianMatrix.spectra; their 2-norm is taken and the state is |0>
        a = annihilation(6)
        rho = steady_state(sparse_liouvillian(None, [LindbladTerm(1e300, a),
                                                     LindbladTerm(1.0, a.dag())]))
        assert np.allclose(rho.entries, fock_state(0, 6).to_density().entries, atol=1e-12)
        assert not recwarn.list

    def test_matches_dense_null_vector_with_hamiltonian(self):
        L = self.hamiltonian_case()
        assert len(invariant_blocks(L.rows, L.cols, L.shape[0])) > 1
        assert np.allclose(steady_state(L).entries, dense_null_state(L), atol=1e-10)

    @staticmethod
    def hamiltonian_case():
        """fig4's generator at cutoff 12 plus an excitation-conserving H, which
        keeps it split into blocks and makes every coherence block complex."""
        n = np.diag(np.arange(13.0))
        h = from_dense(field_layout(12), [(0.5, 0.0, 0.7 * n + 0.3 * n @ n)])
        return sparse_liouvillian(h, preset_terms("fig4", 12))

    @pytest.mark.parametrize("name, cutoff", [
        (name, cutoff) for name in ("fig4", "fig6a", "fig6b") for cutoff in (12, 24)
    ] + [("fig4-hamiltonian", 12)])
    def test_block_spectra_match_dense_spectrum(self, name, cutoff):
        # oracle: scipy.linalg.eigvals of the dense generator, block by block
        # over scipy's connected components, and at cutoff 12 of the whole
        # matrix too, each matched to the union of the mirrored block spectra
        # as multisets (a minimum-cost pairing).  At cutoff 24 the whole
        # matrix is no oracle: its eigenvalue condition numbers reach 1.2e9,
        # and one solve of it misses fig4's clusters near -12.5 by 3e-7.
        if name == "fig4-hamiltonian":
            L = self.hamiltonian_case()
        else:
            L = sparse_liouvillian(None, preset_terms(name, cutoff))
        norm, spectra = L.spectra
        assert [len(vals) for vals in spectra] == [len(idx) for idx, _ in L.blocks]
        full = dense(L)
        subs = [full[np.ix_(idx, idx)] for idx in csgraph_blocks(full)]
        assert norm == pytest.approx(max(np.linalg.norm(sub, ord=2) for sub in subs), rel=1e-12)
        got = np.concatenate(spectra)
        oracles = [np.concatenate([scipy.linalg.eigvals(sub) for sub in subs])]
        if cutoff == 12:
            oracles.append(scipy.linalg.eigvals(full))
        for expected in oracles:
            rows, cols = linear_sum_assignment(np.abs(got[:, None] - expected[None, :]))
            assert np.max(np.abs(got[rows] - expected[cols])) <= 1e-10 * norm

    def test_one_eigensolve_per_mirrored_pair(self, monkeypatch):
        # fig4 at cutoff 24: the populations and the coherence orders +-1..+-24
        # are 49 blocks, solved as 1 + 24 in real arithmetic, plus the null
        # block's eig
        calls = []
        for name in ("eigvals", "eig"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, f=original, name=name: (
                calls.append((name, a.dtype)) or f(a)))
        L = sparse_liouvillian(None, preset_terms("fig4", 24))
        assert len(L.blocks) == 49
        steady_state(L)
        assert calls.count(("eigvals", np.dtype(float))) == 25
        assert calls[-1] == ("eig", np.dtype(float)) and len(calls) == 26

    def test_spectral_gaps_share_the_steady_state_eigensolve(self, monkeypatch):
        # fig4 at cutoff 12: 13 eigvals (populations and orders 1..12) and the
        # null block's eig, read again by both gaps; oracle: eigvals of the
        # dense generator and of its population block
        calls = []
        for name in ("eigvals", "eig"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, f=original, name=name: (
                calls.append(name) or f(a)))
        L = sparse_liouvillian(None, preset_terms("fig4", 12))
        steady_state(L)
        gap, touched = lindblad.spectral_gap(L), lindblad.spectral_gap(L, np.arange(13) * 14)
        assert calls.count("eigvals") == 13 and calls.count("eig") == 1 and len(calls) == 14
        monkeypatch.undo()
        full = dense(L)
        rates = np.sort(-scipy.linalg.eigvals(full).real)
        populations = np.arange(13) * 14
        own = np.sort(-scipy.linalg.eigvals(full[np.ix_(populations, populations)]).real)
        assert abs(rates[0]) < 1e-12 and abs(own[0]) < 1e-12
        assert gap == pytest.approx(rates[1], rel=1e-10)
        assert touched == pytest.approx(own[1], rel=1e-10)
        # the whole generator's slowest mode is a coherence: 3.06 against 3.57
        assert gap == pytest.approx(3.06, abs=0.005) and touched == pytest.approx(3.57, abs=0.005)
        # a coherence block alone has no null eigenvalue to drop
        order_one = L.blocks[1][0]
        assert lindblad.spectral_gap(L, order_one) == pytest.approx(
            np.min(-np.linalg.eigvals(L.blocks[1][1]).real), rel=1e-12)

    def test_mirrors_follow_the_transposed_index_sets(self):
        d = 13
        L = self.hamiltonian_case()
        blocks = [idx for idx, _ in L.blocks]
        mirrors = lindblad._mirrors(blocks, d)
        for b, m in enumerate(mirrors):
            transposed = np.sort((blocks[b] % d) * d + blocks[b] // d)
            assert np.array_equal(transposed, blocks[m])
            assert mirrors[m] == b
        # order 0 (the populations) mirrors itself, order +k mirrors -k
        assert [b for b, m in enumerate(mirrors) if m == b] == [0]
        # d = 2: vec indices 1 and 2 (|1><0| and |0><1|) transpose into each
        # other.  A block whose transposed entries are not one whole block of
        # the same size is its own mirror.
        pair = [np.array([0, 3]), np.array([1]), np.array([2])]
        assert lindblad._mirrors(pair, 2) == [0, 2, 1]
        split = [np.array([0, 1]), np.array([2]), np.array([3])]
        assert lindblad._mirrors(split, 2) == [0, 1, 2]

    def test_complex_blocks_keep_complex_arithmetic(self, monkeypatch):
        dtypes = []
        original = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: dtypes.append(a.dtype) or original(a))
        steady_state(self.hamiltonian_case())
        # the population block is real, every coherence block carries -i[H, .]
        assert dtypes == [np.dtype(float)] + [np.dtype(complex)] * 12

    def test_thermal_detailed_balance(self):
        # [DERIVED] Bose-Einstein populations from the null space
        n_bar = 0.25
        layout = field_layout(14)
        terms = thermal_terms(ThermalBathParams(gamma=1.0, n_bar=n_bar), layout)
        rho_ss = steady_state(sparse_liouvillian(None, terms))
        pops = np.real(np.diag(rho_ss.entries))
        ratio = n_bar / (n_bar + 1.0)
        for n in range(5):
            assert pops[n + 1] / pops[n] == pytest.approx(ratio, rel=1e-6)

    def test_pure_decay_gives_vacuum(self):
        layout = field_layout(6)
        terms = [LindbladTerm(1.0, annihilation(6))]
        rho_ss = steady_state(sparse_liouvillian(None, terms))
        assert rho_ss.entries[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_dark_state_of_engineered_dissipator(self):
        # gamma = 0: the ladder top is the unique attractor
        layout = field_layout(8)
        spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=1.0)
        # add infinitesimal decay above the ladder to lift the degeneracy of
        # the disconnected upper Fock levels
        terms = ub_dissipator(spec, 10.0, layout) + [LindbladTerm(1e-3, annihilation(8))]
        rho_ss = steady_state(sparse_liouvillian(None, terms))
        assert rho_ss.entries[3, 3].real == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_null_space_detected(self):
        # jump |0><1| leaves |0> and every level >= 2 invariant
        layout = field_layout(3)
        jump = np.zeros((4, 4), dtype=complex)
        jump[0, 1] = 1.0
        terms = [LindbladTerm(1.0, ComplexOperator(layout, jump))]
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(sparse_liouvillian(None, terms))

    def test_no_null_space_detected(self):
        # a shifted generator has no zero eigenvalue
        layout = field_layout(2)
        terms = [LindbladTerm(1.0, annihilation(2))]
        L = sparse_liouvillian(None, terms)
        shifted = as_liouvillian(dense(L) + 0.3 * np.eye(9), L.layout)
        with pytest.raises(IntegrationError):
            steady_state(shifted)

    def test_small_null_eigenvalue_keeps_eig_vector(self):
        # shifted by 1e-10 |L|_2, inside the 1e-9 null threshold: the null
        # vector of eig is the steady state of the unshifted generator
        layout = field_layout(6)
        L = sparse_liouvillian(None, thermal_terms(ThermalBathParams(gamma=1.0, n_bar=0.5),
                                                   layout))
        norm = np.linalg.norm(dense(L), ord=2)
        shifted = as_liouvillian(dense(L) + 1e-10 * norm * np.eye(49), layout)
        assert np.allclose(steady_state(shifted).entries, steady_state(L).entries,
                           atol=1e-12, rtol=0)


def exponentiated_blocks():
    """Every block, times its step, of the fig4 and fig6b generators at
    cutoffs 12 and 24 and of the fig4 collision model's joint generator."""
    blocks = []
    for name in ("fig4", "fig6b"):
        dt = np.diff(load_scenario(name).grid.times)[0]
        for cutoff in (12, 24):
            L = sparse_liouvillian(None, preset_terms(name, cutoff))
            blocks += [sub * dt for _, sub in L.blocks]
    tau = 0.2**2 / 63.0
    joint = atom_field_layout(2, 12)
    h = build_engineered_hamiltonian(
        LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=0.2 / tau), joint)
    bath = [LindbladTerm(t.rate, ComplexOperator(joint, np.kron(np.eye(2), t.jump.entries)))
            for t in thermal_terms(ThermalBathParams(gamma=1.0, n_bar=0.05), field_layout(12))]
    return blocks + [sub * tau for _, sub in sparse_liouvillian(h, bath).blocks]


class TestExpm:
    @staticmethod
    def assert_matches_scipy(a):
        # oracle: scipy.linalg.expm, within 1e-13 relative in the 1-norm
        expected = scipy.linalg.expm(a)
        got = lindblad.expm(a)
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected, 1) <= 1e-13 * np.linalg.norm(expected, 1)

    def test_every_block_the_runs_exponentiate(self):
        # each block alone, by BLAS products, matches itself as a stack of
        # one, by the broadcast loop
        blocks = exponentiated_blocks()
        assert len(blocks) == 193
        assert max(len(a) for a in blocks) == 50
        for a in blocks:
            self.assert_matches_scipy(a)
            assert np.max(np.abs(lindblad.expm(a) - lindblad.expm(a[:, :, None])[:, :, 0])) <= 1e-15

    def test_zero_matrix_and_one_by_one_block(self):
        assert np.array_equal(lindblad.expm(np.zeros((4, 4), dtype=complex)), np.eye(4))
        self.assert_matches_scipy(np.array([[-0.7 + 2.0j]]))

    def test_scaling_and_squaring(self):
        # fig4's population block over a sample interval of 50/gamma, near
        # its steady state: a 1-norm above 2^12 theta_16 takes thirteen
        # squarings or more
        idx, sub = sparse_liouvillian(None, preset_terms("fig4", 12)).blocks[0]
        a = sub * 50.0
        assert len(idx) == 13 and np.linalg.norm(a, 1) > 2**12 * lindblad._THETA16
        self.assert_matches_scipy(a)

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e300])
    def test_non_finite_or_overflowing_gives_nan(self, value, recwarn):
        a = np.diag([1.0, value]).astype(complex)
        assert np.all(np.isnan(lindblad.expm(a)))
        assert not recwarn.list


class TestExpmStack:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("squarings", range(lindblad._MAX_SQUARINGS + 1))
    def test_matches_scipy_and_stays_unitary(self, d, squarings):
        # exp(-iK) of Hermitian K, stacked batch last, with 1-norms that take
        # exactly ``squarings`` squarings; oracle: scipy.linalg.expm.  Each
        # matrix alone, by BLAS products, and as a stack of one agree to
        # rounding, which the squarings double (1.6e-15 at d = 2 after four)
        rng = np.random.default_rng(10 * d + squarings)
        z = rng.normal(size=(6, d, d)) + 1j * rng.normal(size=(6, d, d))
        x = -1j * (z + z.conj().transpose(0, 2, 1))
        top = lindblad._THETA16 * 2.0**squarings
        scale = np.linspace(0.55, 1.0, 6) * top / np.abs(x).sum(axis=1).max(axis=1)
        x *= scale[:, None, None]
        got = np.moveaxis(lindblad.expm(np.moveaxis(x, 0, -1)), -1, 0)
        for a, u in zip(x, got):
            assert np.max(np.abs(u - scipy.linalg.expm(a))) <= 1e-13
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-14
            assert np.max(np.abs(lindblad.expm(a) - lindblad.expm(a[:, :, None])[:, :, 0])) <= 2e-15

    def test_zero_stack_is_identity(self):
        got = lindblad.expm(np.zeros((3, 3, 2), dtype=complex))
        assert np.array_equal(got, np.repeat(np.eye(3)[:, :, None], 2, axis=2))


class TestGuards:
    def test_time_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)

    def test_integrator_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=-1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            LindbladTerm(-0.1, annihilation(3))
