"""Reference results the benchmark checks the program's outputs against.

Each reference is computed here from the benchmark's own inputs, with
numpy and scipy only, by a method other than the one the program uses:

- engineered Rabi windows: exact propagation by diagonalising the static
  engineered Hamiltonian;
- full Raman model: fourth-order Magnus steps with exact exponentials in
  the atom-only diagonal frame that removes every fast detuning phase;
- dissipative runs from a diagonal state: the population rate equation of
  the birth-death chain, with its closed-form steady state;
- the collision model: the one-atom map restricted to operators that
  commute with the excitation number, reduced to a map on populations.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# ---------------------------------------------------------------------------
# field observables from Fock populations


def population_columns(pops: np.ndarray, outputs) -> dict[str, np.ndarray]:
    """Observable columns from populations; ``pops`` has one row per sample."""
    pops = np.atleast_2d(pops)
    n = np.arange(pops.shape[1])
    mean = pops @ n
    cols = {}
    for name in outputs:
        if name[0] in "PF" and name[1:].isdigit():
            cols[name] = pops[:, int(name[1:])]
        elif name == "mean_n":
            cols[name] = mean
        elif name == "Q":
            cols[name] = (pops @ n**2 - mean**2 - mean) / mean
        else:
            raise ValueError(f"no reference for column {name!r}")
    return cols


def thermal_populations(n_bar: float, cutoff: int) -> np.ndarray:
    """Bose-Einstein populations renormalised on the truncated space."""
    n = np.arange(cutoff + 1)
    pops = (n_bar / (1.0 + n_bar)) ** n
    return pops / pops.sum()


# ---------------------------------------------------------------------------
# dissipative runs: birth-death chain on populations


def chain_rates(params: dict, model: str, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Up rates n -> n+1 and down rates n -> n-1 of a phase-covariant pump plus bath.

    Up: Gamma |w_n|^2 (collective ladder) or Gamma_k (selective channel k),
    plus gamma n_bar (n+1).  Down: gamma (1 + n_bar) n.
    """
    d = cutoff + 1
    up = np.zeros(d)
    down = np.zeros(d)
    if model == "ub-liouvillian":
        ladder = params["ladder"]
        for i, w in enumerate(ladder["weights"]):
            up[ladder["base"] + i] += params["Gamma"] * abs(_complex(w)) ** 2
    elif model == "selective-liouvillian":
        for k, rate in params["channels"]:
            up[k] += rate
    else:
        raise ValueError(f"no rate equation for model {model!r}")
    gamma, n_bar = params["gamma"], params["n_bar"]
    n = np.arange(d)
    up[:-1] += gamma * n_bar * (n[:-1] + 1)
    down += gamma * (1.0 + n_bar) * n
    return up, down


def chain_generator(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    d = len(up)
    gen = np.zeros((d, d))
    for n in range(d - 1):
        gen[n + 1, n] += up[n]
        gen[n, n] -= up[n]
    for n in range(1, d):
        gen[n - 1, n] += down[n]
        gen[n, n] -= down[n]
    return gen


def chain_steady_state(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Detailed balance p_{n+1} down_{n+1} = p_n up_n."""
    pops = np.ones(len(up))
    for n in range(len(up) - 1):
        pops[n + 1] = pops[n] * up[n] / down[n + 1]
    return pops / pops.sum()


def dissipative_final(doc: dict) -> tuple[dict[str, float], float]:
    """Final observables at the end of the grid, and the steady target population."""
    cutoff = doc["cutoff"]
    up, down = chain_rates(doc["parameters"], doc["model"], cutoff)
    p0 = thermal_populations(doc["initial_state"]["thermal_n_bar"], cutoff)
    span = doc["grid"]["stop"] - doc["grid"]["start"]
    final = scipy.linalg.expm(chain_generator(up, down) * span) @ p0
    outputs = set(doc["outputs"]) | {"Q"}
    cols = {k: float(v[0]) for k, v in population_columns(final, outputs).items()}
    steady = chain_steady_state(up, down)
    return cols, float(steady[doc["parameters"]["target_fock"]])


# ---------------------------------------------------------------------------
# collision model: excitation-number-invariant one-atom map


def _complex(value) -> complex:
    return complex(value[0], value[1]) if isinstance(value, list) else complex(value)


def _column_stacked_liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, j in jumps:
        jdj = j.conj().T @ j
        gen += rate * (np.kron(j.conj(), j) - 0.5 * np.kron(eye, jdj) - 0.5 * np.kron(jdj.T, eye))
    return gen


def collision_populations(doc: dict) -> np.ndarray:
    """Field populations after each atom of the fig4 collision micro-simulation.

    The atom enters in |e> and the field starts diagonal, so the joint state
    stays invariant under the excitation number N = n + [atom in e] and the
    field stays diagonal.  The one-atom map is exponentiated on the span of
    |i><j| with N_i = N_j only, then reduced to a map on field populations.
    """
    p = doc["parameters"]
    if p["atom_state"] != {"e": 1.0}:
        raise ValueError("the reference assumes atoms injected in |e>")
    cutoff = doc["cutoff"]
    d = cutoff + 1
    zeta_tau, big_gamma = p["zeta_tau"], p["Gamma"]
    tau = zeta_tau**2 / big_gamma
    zeta = zeta_tau / tau
    n_atoms = max(1, math.ceil((doc["grid"]["stop"] - doc["grid"]["start"]) / tau))

    ladder = p["ladder"]
    adag = np.zeros((d, d), dtype=complex)
    for i, w in enumerate(ladder["weights"]):
        adag[ladder["base"] + i + 1, ladder["base"] + i] = _complex(w)
    sigma_ge = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|, g = index 0
    half = zeta * np.kron(sigma_ge, adag)
    h = half + half.conj().T
    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    eye2 = np.eye(2)
    jumps = [(p["gamma"] * (1.0 + p["n_bar"]), np.kron(eye2, a))]
    if p["n_bar"] > 0:
        jumps.append((p["gamma"] * p["n_bar"], np.kron(eye2, a.conj().T)))
    gen = _column_stacked_liouvillian(h, jumps)

    number = np.concatenate([np.arange(d), np.arange(d) + 1])  # N of |g,n>, |e,n>
    big_d = 2 * d
    rows, cols = np.meshgrid(np.arange(big_d), np.arange(big_d), indexing="ij")
    keep = (number[rows] == number[cols]).ravel(order="F")
    index = np.flatnonzero(keep)
    step = scipy.linalg.expm(gen[np.ix_(index, index)] * tau)

    position = {k: i for i, k in enumerate(index)}
    transfer = np.zeros((d, d))
    for n in range(d):
        vec = np.zeros(len(index), dtype=complex)
        e_n = d + n
        vec[position[e_n + e_n * big_d]] = 1.0
        out = step @ vec
        for m in range(d):
            transfer[m, n] = sum(
                out[position[s + s * big_d]].real for s in (m, d + m)
            )

    pops = np.empty((n_atoms + 1, d))
    pops[0] = thermal_populations(doc["initial_state"]["thermal_n_bar"], cutoff)
    for k in range(1, n_atoms + 1):
        nxt = transfer @ pops[k - 1]
        pops[k] = nxt / nxt.sum()
    return pops


# ---------------------------------------------------------------------------
# Hamiltonian runs


def _field_populations(states: np.ndarray, atom_dim: int, d: int) -> np.ndarray:
    return (np.abs(states.reshape(len(states), atom_dim, d)) ** 2).sum(axis=1)


def _initial_state(initial: dict, levels: int, d: int) -> np.ndarray:
    labels = ("g", "e")
    atom = np.zeros(levels, dtype=complex)
    for label, amp in initial["atom"].items():
        atom[labels.index(label)] = _complex(amp)
    field = np.zeros(d, dtype=complex)
    for n, amp in initial["field"].items():
        field[int(n)] = _complex(amp)
    psi = np.kron(atom / np.linalg.norm(atom), field / np.linalg.norm(field))
    return psi


def engineered_populations(initial: dict, base: int, steps: int, unit: complex,
                           cutoff: int, x: np.ndarray) -> np.ndarray:
    """Ideal uniform ladder on {|base>..|base+steps>}, time in units of 1/|zeta_ref|."""
    d = cutoff + 1
    adag = np.zeros((d, d), dtype=complex)
    for i in range(steps):
        adag[base + i + 1, base + i] = 1.0
    sigma_ge = np.array([[0, 1], [0, 0]], dtype=complex)
    half = unit * np.kron(sigma_ge, adag)
    energies, vectors = np.linalg.eigh(half + half.conj().T)
    coeffs = vectors.conj().T @ _initial_state(initial, 2, d)
    states = (vectors @ (np.exp(-1j * np.outer(energies, x)) * coeffs[:, None])).T
    return _field_populations(states, 2, d)


def full_raman_populations(params: dict, solved_tildes, initial: dict, cutoff: int,
                           x: np.ndarray, substeps: int = 16) -> np.ndarray:
    """Full K-branch JC Raman model, sampled at x = |zeta_ref| t.

    Level order (g, e, aux_1..aux_K).  Branch j couples g <-> aux_j through
    the cavity at detuning s_j Delta_j and e <-> aux_j through the laser at
    s_j Delta~_j, with s_1 = -1 and s_j = +1 otherwise.  In the frame
    rotating with diag(0, s_1 (Delta~_1 - Delta_1), -s_j Delta_j) the cavity
    phases vanish and the laser phases keep the slow residual
    s_j (Delta~_j - Delta_j) - s_1 (Delta~_1 - Delta_1), so the Magnus steps
    only resolve the slow ladder dynamics.  Field populations are the same
    in both frames.  The Hamiltonian conserves N = n + [atom not in g], so
    each N-sector that the initial state touches is propagated on its own.
    """
    if params.get("kind", "JC") != "JC":
        raise ValueError("the reference covers JC branches only")
    lam, omg, dlt = params["lambdas"], params["omegas"], params["deltas"]
    tld = [float(v) for v in solved_tildes]
    k = len(lam)
    levels = 2 + k
    d = cutoff + 1
    sign = [-1.0] + [1.0] * (k - 1)

    base = params["base"]
    zeta_ref = math.sqrt(base + 1) * lam[0] * omg[0] / 2.0 * (1.0 / dlt[0] + 1.0 / tld[0])

    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    eye_f = np.eye(d)

    def sigma(r, s):
        m = np.zeros((levels, levels), dtype=complex)
        m[r, s] = 1.0
        return m

    energies = np.zeros(levels)
    energies[1] = sign[0] * (tld[0] - dlt[0])
    static = np.zeros((levels * d, levels * d), dtype=complex)
    moving = []
    for j in range(k):
        energies[2 + j] = -sign[j] * dlt[j]
        static += lam[j] * np.kron(sigma(2 + j, 0), a)
        residual = sign[j] * (tld[j] - dlt[j]) - energies[1]
        moving.append((residual, omg[j] * np.kron(sigma(2 + j, 1), eye_f)))
    static = static + static.conj().T - np.kron(np.diag(energies), eye_f)

    times = np.asarray(x) / abs(zeta_ref)
    steps = np.repeat(np.diff(times) / substeps, substeps)
    starts = np.concatenate([[times[0]], times[0] + np.cumsum(steps)[:-1]])
    c1, c2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0

    psi0 = _initial_state(initial, levels, d)
    level, photons = np.divmod(np.arange(levels * d), d)
    number = photons + (level != 0)
    states = np.zeros((len(times), levels * d), dtype=complex)
    for sector in np.unique(number[psi0 != 0]):
        idx = np.flatnonzero(number == sector)

        def hamiltonian(t):
            h = np.broadcast_to(static[np.ix_(idx, idx)], (len(t), len(idx), len(idx))).copy()
            for w, m in moving:
                term = np.exp(1j * w * t)[:, None, None] * m[np.ix_(idx, idx)]
                h += term + np.conj(np.swapaxes(term, 1, 2))
            return h

        h1 = hamiltonian(starts + c1 * steps)
        h2 = hamiltonian(starts + c2 * steps)
        dt = steps[:, None, None]
        # i * Omega of the two-point Gauss Magnus step, Hermitian
        generator = 0.5 * dt * (h1 + h2) + 1j * (math.sqrt(3.0) / 12.0) * dt**2 * (h1 @ h2 - h2 @ h1)
        vals, vecs = np.linalg.eigh(generator)
        props = (vecs * np.exp(-1j * vals)[:, None, :]) @ np.conj(np.swapaxes(vecs, 1, 2))
        psi = psi0[idx]
        states[0, idx] = psi
        for i, prop in enumerate(props):
            psi = prop @ psi
            if (i + 1) % substeps == 0:
                states[(i + 1) // substeps, idx] = psi
    return _field_populations(states, levels, d)
