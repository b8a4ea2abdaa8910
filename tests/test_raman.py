"""Raman branch parameters, derived couplings, ladders, resonance, regime."""

import math

import numpy as np
import pytest

from fockladder import (
    LadderSpec,
    RamanLadderParams,
    analytic_probabilities,
    atom_field_layout,
    build_engineered_hamiltonian,
    build_full_hamiltonian,
    check_regime,
    derive_couplings,
    dressed_residuals,
    ladder_from_conditions,
    ladder_operator,
    solve_dressed_resonance,
    solve_resonance,
)
from fockladder import raman
from oracles import dense_hamiltonian

S2, S3, S5, S6 = map(math.sqrt, (2.0, 3.0, 5.0, 6.0))

# quoted drive parameter sets of the four validation scenarios
FIG2A = dict(lambdas=[1, 1], omegas=[1 / (5 * S2), 1 / 20], deltas=[10, 5],
             delta_tildes=[9.9, 5.2])
FIG2B = dict(lambdas=[1, 1], omegas=[1 / (5 * S5), 1 / 25], deltas=[20, 10],
             delta_tildes=[19.8, 10.25])
FIG3A = dict(lambdas=[1, 1, 1], omegas=[1 / 20, S2 / 20, 1 / (20 * S3)],
             deltas=[10, 20, 10], delta_tildes=[9.95, 20.1, 10.15])
FIG3B = dict(lambdas=[1, 1, 1],
             omegas=[1 / (20 * S5), 4 / (20 * 5), 2 / (20 * S5 * S6)],
             deltas=[20, 40, 20], delta_tildes=[19.9, 40.125, 20.15])


class TestDerivedCouplings:
    def test_hand_computed_two_branch(self):
        # [DERIVED] plain arithmetic on simple inputs
        params = RamanLadderParams([1.0, 2.0], [0.2, 0.1], [10.0, 5.0], [8.0, 4.0])
        d = derive_couplings(params)
        assert d.chi == pytest.approx(1.0 / 10.0 - 4.0 / 5.0)
        assert d.varpi == pytest.approx(0.04 / 8.0 - 0.01 / 4.0)
        assert d.chi_tilde == 0.0
        assert d.omega_shift == 0.0
        assert d.zeta[0] == pytest.approx((1.0 * 0.2 / 2) * (1 / 10 + 1 / 8))
        assert d.zeta[1] == pytest.approx((2.0 * 0.1 / 2) * (1 / 5 + 1 / 4))
        assert d.theta[0] == pytest.approx(-(8.0 - 10.0))
        assert d.theta[1] == pytest.approx(4.0 - 5.0)

    def test_three_branch_extra_shifts(self):
        params = RamanLadderParams([1, 1, 1], [0.1, 0.1, 0.1], [10, 20, 10],
                                   [10, 20, 10])
        d = derive_couplings(params)
        assert d.chi_tilde == pytest.approx(1.0 / 10.0)
        assert d.omega_shift == pytest.approx(0.01 / 10.0)
        assert d.chi_eff == pytest.approx(d.chi - d.chi_tilde)

    def test_zeta_n_scaling(self):
        params = RamanLadderParams(**FIG2A)
        d = derive_couplings(params)
        assert d.zeta_n(3, 1) == pytest.approx(2.0 * d.zeta[0])

    def test_xi_and_phi_relations(self):
        params = RamanLadderParams(**FIG2A)
        d = derive_couplings(params)
        for n in range(4):
            assert d.xi(n) == pytest.approx((n + 1) * d.chi - d.varpi)
            # two branches: no branch-3+ shifts, so big_phi == xi + theta_1
            assert d.big_phi(n, 1) == pytest.approx(d.xi(n) + d.theta[0])


class TestFullHamiltonian:
    def test_matrix_is_hermitian(self):
        params = RamanLadderParams(**FIG2A)
        layout = atom_field_layout(4, 6)
        h = build_full_hamiltonian(params, layout)
        for t in (0.0, 0.37, 2.1):
            m = dense_hamiltonian(h, t)
            assert np.allclose(m, m.conj().T)

    def test_atom_dimension_enforced(self):
        params = RamanLadderParams(**FIG2A)
        from fockladder import LayoutError

        with pytest.raises(LayoutError):
            build_full_hamiltonian(params, atom_field_layout(2, 6))

    def test_ajc_swaps_transitions(self):
        # branch 1's cavity term takes g (JC) or e (AJC) up to f, and its
        # laser term the other level; atom index = entry index // field dim
        levels = ("g", "e", "f", "h")
        for kind, lowers in (("JC", ("g", "e")), ("AJC", ("e", "g"))):
            h = build_full_hamiltonian(RamanLadderParams(**FIG2A, kind=kind), atom_field_layout(4, 6))
            for (_, _, rows, cols, _), lower in zip(h.terms[:2], lowers):
                assert set(rows // 7) == {levels.index("f")}
                assert set(cols // 7) == {levels.index(lower)}


class TestDrive:
    def test_signs_and_levels_follow_the_branch_count(self):
        params = RamanLadderParams(**FIG3A)
        assert params.n_branches == 3
        assert params.signs == (-1, 1, 1)
        assert params.atom_levels == ("g", "e", "f", "h", "i")
        assert params.deltas == (10.0, 20.0, 10.0)
        assert all(type(x) is float for x in params.deltas)

    @pytest.mark.parametrize("kind", ["jc", "ajc", "", None])
    def test_unknown_kind_rejected(self, kind):
        # a kind other than JC or AJC would otherwise build the AJC couplings
        with pytest.raises(ValueError, match="kind"):
            RamanLadderParams(**FIG2A, kind=kind)
        with pytest.raises(ValueError, match="kind"):
            LadderSpec(base=0, weights=(1.0,), zeta_ref=1.0, kind=kind)

    @pytest.mark.parametrize("change", [
        {"lambdas": [1, 0]}, {"omegas": [-0.1, 0.05]}, {"deltas": [10, 0]},
        {"delta_tildes": [0, 5.2]}, {"omegas": [0.1]}, {"lambdas": [1], "omegas": [0.1],
                                                        "deltas": [10], "delta_tildes": [9.9]},
    ], ids=["lambda", "omega", "delta", "delta-tilde", "lengths", "one-branch"])
    def test_invalid_drive_rejected(self, change):
        with pytest.raises(ValueError):
            RamanLadderParams(**{**FIG2A, **change})

    @pytest.mark.parametrize("kind", ["JC", "AJC"])
    def test_ladder_carries_the_drive_kind(self, kind):
        params = solve_resonance(RamanLadderParams(**FIG2A, kind=kind), base=0)
        assert ladder_from_conditions(params, "upper-bounded", base=0).kind == kind


class TestLadder:
    def test_first_weight_must_be_one(self):
        with pytest.raises(ValueError):
            LadderSpec(base=0, weights=(0.9, 1.0), zeta_ref=1.0)

    def test_ladder_operator_structure(self):
        spec = LadderSpec(base=2, weights=(1.0, 0.5), zeta_ref=1.0)
        adag = ladder_operator(spec, 6).entries
        assert adag[3, 2] == 1.0
        assert adag[4, 3] == 0.5
        assert np.count_nonzero(adag) == 2

    def test_dark_state_annihilated(self):
        # A^dag kills the top of the ladder: the unique dark state
        spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=1.0)
        adag = ladder_operator(spec, 8).entries
        top = np.zeros(9)
        top[spec.top] = 1.0
        assert np.allclose(adag @ top, 0.0)
        # and it is the only Fock state in the ladder range that is killed
        for n in range(spec.base, spec.top):
            vec = np.zeros(9)
            vec[n] = 1.0
            assert np.linalg.norm(adag @ vec) > 0

    def test_engineered_hamiltonian_hermitian(self):
        spec = LadderSpec(base=3, weights=(1.0, 1.0), zeta_ref=0.01)
        h = build_engineered_hamiltonian(spec, atom_field_layout(2, 9))
        m = dense_hamiltonian(h, 0.0)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10

    def test_cutoff_guard(self):
        spec = LadderSpec(base=3, weights=(1.0, 1.0), zeta_ref=0.01)
        with pytest.raises(ValueError):
            build_engineered_hamiltonian(spec, atom_field_layout(2, 6))

    def test_upper_bounded_must_start_at_vacuum(self):
        params = solve_resonance(RamanLadderParams(**FIG2A), base=0)
        with pytest.raises(ValueError):
            ladder_from_conditions(params, "upper-bounded", base=3)

    def test_weights_from_conditions(self):
        params = solve_resonance(RamanLadderParams(**FIG2B), base=3)
        d = derive_couplings(params)
        spec = ladder_from_conditions(params, "sliced", base=3)
        assert spec.weights[0] == 1.0
        assert spec.zeta_ref == pytest.approx(2.0 * d.zeta[0])  # sqrt(M+1), M=3
        expected_w1 = d.zeta_n(4, 2) / spec.zeta_ref
        assert spec.weights[1] == pytest.approx(expected_w1)
        # the quoted drive strengths realize uniform weights only approximately
        assert abs(spec.weights[1] - 1.0) < 0.05


class TestResonance:
    @pytest.mark.parametrize(
        "cfg,base",
        [(FIG2A, 0), (FIG2B, 3), (FIG3A, 0), (FIG3B, 3)],
        ids=["fig2a", "fig2b", "fig3a", "fig3b"],
    )
    def test_residuals_close(self, cfg, base):
        params = solve_resonance(RamanLadderParams(**cfg), base)
        d = derive_couplings(params)
        for j in range(params.n_branches):
            assert abs(d.big_phi(base + j, j + 1)) <= 1e-10 * abs(d.chi_eff)

    def test_solved_detunings_frozen(self):
        # [DERIVED] fixed point of the resonance iteration, frozen values
        params = solve_resonance(RamanLadderParams(**FIG2A), 0)
        assert list(params.delta_tildes) == pytest.approx([9.898460110607108, 5.201539889392894], rel=1e-9)

    def test_solved_detunings_near_quoted(self):
        # the quoted values are the solved ones rounded to 3-4 digits
        for cfg, base in ((FIG2A, 0), (FIG2B, 3), (FIG3A, 0), (FIG3B, 3)):
            params = solve_resonance(RamanLadderParams(**cfg), base)
            for solved, quoted in zip(params.delta_tildes, cfg["delta_tildes"]):
                assert abs(solved - quoted) < 0.05

    def test_cavity_detunings_untouched(self):
        params = solve_resonance(RamanLadderParams(**FIG3B), 3)
        assert list(params.deltas) == [20, 40, 20]


def dressed_solve(cfg, base, kind="JC"):
    return solve_dressed_resonance(solve_resonance(RamanLadderParams(**cfg, kind=kind), base), base)


def scaled(cfg, factor):
    """The same drive strengths at a hierarchy ``factor`` times deeper."""
    return {**cfg, "deltas": [factor * d for d in cfg["deltas"]],
            "delta_tildes": [factor * d for d in cfg["delta_tildes"]]}


PRESETS = [(FIG2A, 0), (FIG2B, 3), (FIG3A, 0), (FIG3B, 3)]
PRESET_IDS = ["fig2a", "fig2b", "fig3a", "fig3b"]


class TestDressedResonance:
    @pytest.mark.parametrize("cfg,base", PRESETS, ids=PRESET_IDS)
    def test_dressed_residuals_close(self, cfg, base):
        params = dressed_solve(cfg, base)
        scale = abs(derive_couplings(params).chi_eff)
        for r in dressed_residuals(params, base):
            assert abs(r) <= 1e-10 * scale

    @pytest.mark.parametrize("cfg,base", PRESETS, ids=PRESET_IDS)
    def test_tends_to_second_order_with_hierarchy(self, cfg, base):
        # the shifts beyond second order fall off as (lambda/Delta)^2 relative
        # to chi_eff, so the detuning gap shrinks ~16x per 4x in the hierarchy
        gaps = []
        for factor in (1.0, 4.0, 16.0):
            second = solve_resonance(RamanLadderParams(**scaled(cfg, factor)), base)
            dressed = solve_dressed_resonance(second, base)
            gap = max(abs(a - b) for a, b in zip(second.delta_tildes, dressed.delta_tildes))
            gaps.append(gap / abs(derive_couplings(second).chi_eff))
        assert gaps[0] > 0.01
        assert gaps[1] < gaps[0] / 8
        assert gaps[2] < gaps[1] / 8

    @pytest.mark.parametrize("cfg,base", PRESETS, ids=PRESET_IDS)
    def test_jc_and_ajc_agree(self, cfg, base):
        jc = dressed_solve(cfg, base, "JC")
        ajc = dressed_solve(cfg, base, "AJC")
        assert list(ajc.delta_tildes) == pytest.approx(list(jc.delta_tildes), rel=1e-12)

    def test_regime_reports_both_residuals(self):
        params = dressed_solve(FIG3B, 3)
        d = derive_couplings(params)
        residuals = check_regime(params, 3)["residuals"]
        labels = [res["label"] for res in residuals]
        assert labels == ["big_phi(3,1)", "big_phi(4,2)", "big_phi(5,3)",
                          "dressed_phi(3,1)", "dressed_phi(4,2)", "dressed_phi(5,3)"]
        values = {res["label"]: res["value"] for res in residuals}
        # at the dressed point the second-order conditions stay open by about
        # one step coupling while the dressed ones are closed
        zeta_ref = abs(d.zeta_n(3, 1))
        for j, n in enumerate((3, 4, 5), start=1):
            assert abs(values[f"big_phi({n},{j})"]) > 0.5 * zeta_ref
            assert abs(values[f"dressed_phi({n},{j})"]) <= 1e-10 * abs(d.chi_eff)

    def test_cavity_shifts_solved_once(self, monkeypatch):
        # the cavity-dressed shifts do not move with the laser detunings: a
        # fig2a solve diagonalizes K cavity problems, then one laser problem
        # per residual evaluation
        second = solve_resonance(RamanLadderParams(**FIG2A), 0)
        problems, evaluations = [], []
        eigvalsh, close = np.linalg.eigvalsh, raman._close_resonance
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: problems.append(h) or eigvalsh(h))

        def counted(params, base, residuals):
            return close(params, base, lambda *args: evaluations.append(1) or residuals(*args))

        monkeypatch.setattr(raman, "_close_resonance", counted)
        solve_dressed_resonance(second, 0)
        assert len(evaluations) > 1
        assert len(problems) == second.n_branches + len(evaluations)


class TestRegime:
    def test_fig2a_passes_at_threshold_5(self):
        params = solve_resonance(RamanLadderParams(**FIG2A), 0)
        assert check_regime(params, 0, threshold=5.0)["passed"]

    def test_fig2a_fails_at_threshold_20(self):
        params = solve_resonance(RamanLadderParams(**FIG2A), 0)
        regime = check_regime(params, 0, threshold=20.0)
        assert not regime["passed"]
        failing = {e["name"]: e["ratio"] for e in regime["entries"] if not e["pass"]}
        assert failing["Delta2/(sqrt(nbar+1)*lambda2)"] == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "cfg,base,floor",
        [(FIG2A, 0, 4.97), (FIG2B, 3, 4.97), (FIG3A, 0, 5.0), (FIG3B, 3, 5.0)],
        ids=["fig2a", "fig2b", "fig3a", "fig3b"],
    )
    def test_coupling_hierarchy(self, cfg, base, floor):
        # |chi_eff| / |zeta_n| measured honestly; fig2a/fig2b sit just below 5
        params = solve_resonance(RamanLadderParams(**cfg), base)
        steps = params.n_branches
        entries = check_regime(params, base, threshold=5.0)["entries"]
        hierarchy = [e for e in entries if e["name"].startswith("|chi_eff|")]
        assert len(hierarchy) == steps
        for e in hierarchy:
            assert e["ratio"] >= floor

    def test_record_serializable(self):
        import json

        params = solve_resonance(RamanLadderParams(**FIG2A), 0)
        regime = check_regime(params, 0)
        assert list(regime) == ["passed", "entries", "residuals"]
        assert {tuple(e) for e in regime["entries"]} == {("name", "ratio", "threshold", "pass")}
        assert {tuple(r) for r in regime["residuals"]} == {("label", "value")}
        assert regime["passed"] == all(e["pass"] for e in regime["entries"])
        json.dumps(regime)


class TestAnalyticCurves:
    def test_probabilities_sum_to_one(self):
        x = np.linspace(0, 2 * np.pi, 50)
        for preset in ("fig2a", "fig2b", "fig3a", "fig3b"):
            total = sum(analytic_probabilities(preset, x).values())
            assert np.allclose(total, 1.0)

    def test_fig2a_values(self):
        curves = analytic_probabilities("fig2a", np.array([0.0, np.pi / 2]))
        assert curves[0][0] == pytest.approx(0.5)
        assert curves[1][0] == pytest.approx(0.0)
        assert curves[1][1] == pytest.approx(0.5)
        assert curves[0][1] == pytest.approx(0.25)

    def test_fig3a_values(self):
        curves = analytic_probabilities("fig3a", np.array([0.0, np.pi / 2]))
        assert curves[1][0] == pytest.approx(0.5)
        assert curves[3][0] == pytest.approx(0.5)
        assert curves[2][1] == pytest.approx(0.5)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            analytic_probabilities("fig9", [0.0])
