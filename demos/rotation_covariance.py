"""How grid states transform under rotations, scheme by scheme.

Rotates the total-spin basis states of a fermion pair and prints the
resulting mixing structure: orbital/spin channels are left invariant and
mix components by a sign-conjugated spin-j rotation matrix, while the
coupled helicity states keep their slot labels and their total spin and
mix components by the bare spin-j rotation matrix. Last, every j <= 1
state of both schemes goes through JSON and is rotated as a loaded
table, which is fit in fixed-axis slots, and compared with its
closed-form rotation.

Run: python3 demos/rotation_covariance.py
"""

import numpy as np

from poincare_cgc import (
    HelicityChannel,
    SpinOrbitChannel,
    TwoParticleSpec,
    all_basis_states,
    apply_rotation,
    build_com_basis_state,
    build_grid,
    components,
    inner_product,
    rep_matrix,
    state_from_json,
    state_to_json,
)

SPEC = TwoParticleSpec.fermion_pair(1.0)
PAIR_S = 9.0


def su2_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    sigma = np.array(
        [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
    )
    generator = np.tensordot(axis, sigma, axes=1)
    return (
        np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * generator
    )


def spin_orbit_mixing(u):
    grid = build_grid(16, 33)
    states = all_basis_states(grid, SPEC, PAIR_S, 1, "spin-orbit")
    rotated = [apply_rotation(s, u) for s in states]
    overlap = np.array(
        [[complex(inner_product(a, b)) for b in rotated] for a in states]
    )

    cross = 0.0
    for i, a in enumerate(states):
        for k, b in enumerate(states):
            if (a.j, a.channel) != (b.j, b.channel):
                cross = max(cross, abs(overlap[i, k]))
    print("orbital/spin scheme, all states with j <= 1")
    print(f"largest cross-channel matrix element: {cross:.3e}")

    channel = SpinOrbitChannel(1, 1)
    idx = [i for i, s in enumerate(states) if s.channel == channel and int(s.j) == 1]
    block = overlap[np.ix_(idx, idx)]
    dj = rep_matrix(1, u)
    xi = np.diag([(-1.0) ** int(c) for c in components(1)])
    print("within the (j=1, l=1, s=1) block:")
    print(f"  deviation from bare D(u):            {np.abs(block - dj).max():.3e}")
    print(f"  deviation from sign-conjugated D(u): {np.abs(block - xi @ dj @ xi).max():.3e}")
    print("the (-1)^chi phase in the tables relabels the rows and columns,")
    print("so the mixing law is diag((-1)^chi) D(u) diag((-1)^chi)")
    print()


def singlet_invariance(u):
    grid = build_grid(10, 21)
    singlet = build_com_basis_state(
        grid, SPEC, PAIR_S, 0, SpinOrbitChannel(0, 0), 0
    )
    rotated = apply_rotation(singlet, u)
    drift = np.abs(rotated.amplitudes - singlet.amplitudes).max()
    print(f"s-wave singlet after a generic rotation: max drift {drift:.3e}")
    print()


def helicity_mixing(u):
    grid = build_grid(16, 33)
    h0 = build_com_basis_state(grid, SPEC, PAIR_S, 0, HelicityChannel(0.5, 0.5), 0)
    h1 = [
        build_com_basis_state(grid, SPEC, PAIR_S, 1, HelicityChannel(0.5, 0.5), chi)
        for chi in components(1)
    ]
    r1 = [apply_rotation(h, u) for h in h1]
    norm_drift = abs(
        complex(inner_product(r1[1], r1[1])) - complex(inner_product(h1[1], h1[1]))
    )
    spill = max(abs(complex(inner_product(h0, r))) for r in r1)
    block = np.array([[complex(inner_product(a, b)) for b in r1] for a in h1])
    print("helicity scheme, channel (+1/2, +1/2)")
    print(f"norm drift under rotation:            {norm_drift:.3e}")
    print(f"overlap of rotated j=1 with j=0 state: {spill:.3e}")
    print(f"j=1 block, deviation from bare D(u):  {np.abs(block - rep_matrix(1, u)).max():.3e}")
    print("helicity slots refer to the Jacob-Wick frames R(phi, theta, -phi)")
    print("and R(phi, theta, -phi) Ry(pi), so the coupled helicity states are")
    print("spin-j states: rotations keep the slot pair and the total spin")
    print()


def loaded_rotation(u):
    grid = build_grid(16, 33)
    print("JSON round trip, then rotation of the loaded table, j <= 1")
    for scheme in ("spin-orbit", "helicity"):
        gap = 0.0
        for state in all_basis_states(grid, SPEC, PAIR_S, 1, scheme):
            loaded = state_from_json(state_to_json(state), SPEC)
            turned = apply_rotation(loaded, u).amplitudes
            gap = max(gap, np.abs(turned - apply_rotation(state, u).amplitudes).max())
        print(f"{scheme:>10}: largest gap to the closed-form rotation {gap:.3e}")
    print("a table carries no labels: it is fit with harmonics up to l = n_theta - 1")
    print("in fixed-axis slots and mixed by D(u) x D(u) in either scheme; a helicity")
    print("table is converted to fixed-axis slots and back at the grid's nodes")


if __name__ == "__main__":
    u = su2_from_axis_angle([0.3, -0.5, 0.8], 1.1)
    spin_orbit_mixing(u)
    singlet_invariance(u)
    helicity_mixing(u)
    loaded_rotation(u)
