import tracemalloc

import numpy as np
import pytest

from swapcool.hamiltonian import MODEL_KINDS, Spectrum, build_model
from swapcool.protocol import (
    apply_protocol,
    deviation_term,
    expand_short_time,
    protocol_oracle,
    protocol_output_to_json,
    protocol_unitary,
    transfer_first_order,
)
from swapcool.quantum import PureState, basis_state, energy_moments, survival, uniform_state


def random_case(rng):
    dim = int(rng.integers(2, 9))
    spec = Spectrum(np.sort(rng.uniform(-2, 2, size=dim)))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return spec, PureState(v / np.linalg.norm(v))


def opnorm(m):
    return np.abs(np.linalg.eigvalsh(m)).max()


def test_dt_zero_returns_projector():
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    out = apply_protocol(phi, spec, 0.0)
    np.testing.assert_allclose(out.rho_a.to_dense().matrix, phi.projector(), atol=1e-14)
    np.testing.assert_allclose(out.rho_b.to_dense().matrix, phi.projector(), atol=1e-14)
    assert out.e_a == out.e_b == out.e0


def test_eigenstate_no_transfer():
    spec = build_model("b", 8, 1.0)
    phi = basis_state(8, 0)
    out = apply_protocol(phi, spec, 0.37)
    np.testing.assert_allclose(out.rho_a.to_dense().matrix, phi.projector(), atol=1e-14)
    assert out.e_a == pytest.approx(out.e0)
    assert out.e_b == pytest.approx(out.e0)


def test_transferred_energy_closed_form():
    # E_a = E0 + P0'(dt)/2 with P0 = (50 + 14 cos t)/64 for the flat start
    spec = build_model("a", 8, 1.0)
    out = apply_protocol(uniform_state(8), spec, 0.1)
    assert out.e_a == pytest.approx(-0.125 - 0.109375 * np.sin(0.1), abs=1e-12)
    assert out.e_b == pytest.approx(-0.125 + 0.109375 * np.sin(0.1), abs=1e-12)


def test_conservation_randomized():
    rng = np.random.default_rng(0)
    for _ in range(50):
        spec, phi = random_case(rng)
        out = apply_protocol(phi, spec, float(rng.uniform(-2, 2)))
        assert abs(out.e_a + out.e_b - 2 * out.e0) < 1e-10
        out.rho_a.to_dense()    # raises on a trace off 1 by more than 1e-10
        out.rho_b.to_dense()


def test_closed_form_matches_oracle_randomized():
    rng = np.random.default_rng(1)
    for _ in range(100):
        spec, phi = random_case(rng)
        dt = float(rng.uniform(-1, 1))
        closed = apply_protocol(phi, spec, dt)
        dense = protocol_oracle(phi, spec, dt)
        assert opnorm(closed.rho_a.to_dense().matrix - dense.rho_a.matrix) < 1e-12
        assert opnorm(closed.rho_b.to_dense().matrix - dense.rho_b.matrix) < 1e-12
        assert closed.e_a == pytest.approx(dense.e_a, abs=1e-12)


def test_oracle_joint_is_pure_and_reduced_energies_conserve():
    spec = build_model("c", 8, 1.0)
    out = protocol_oracle(uniform_state(8), spec, 0.2)
    assert out.e_a + out.e_b == pytest.approx(2 * out.e0, abs=1e-10)
    assert out.rho_a.min_eigenvalue() > -1e-10
    assert out.rho_b.min_eigenvalue() > -1e-10


def test_oracle_rejects_large_dim():
    spec = build_model("a", 128, 1.0)
    with pytest.raises(ValueError):
        protocol_oracle(uniform_state(128), spec, 0.1)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_protocol_unitary_is_the_swap_rotation_times_the_phases(dim):
    rng = np.random.default_rng(dim)
    spec = Spectrum(np.sort(rng.uniform(-2, 2, size=dim)))
    dt = 0.7
    f = np.exp(-0.5j * spec.eigenvalues * dt)
    swap = np.zeros((dim * dim, dim * dim))
    for j in range(dim):
        for k in range(dim):
            swap[k * dim + j, j * dim + k] = 1.0
    expected = (np.eye(dim * dim) + 1j * swap) / np.sqrt(2.0) @ np.diag(np.kron(f, f.conj()))
    u = protocol_unitary(spec, dt)
    np.testing.assert_allclose(u, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(dim * dim), rtol=0, atol=1e-14)


def test_oracle_reduced_states_are_the_partial_traces_of_the_joint_state():
    rng = np.random.default_rng(4)
    for _ in range(20):
        spec, phi = random_case(rng)
        dt = float(rng.uniform(-1, 1))
        d = spec.dim
        joint = protocol_unitary(spec, dt) @ np.kron(phi.amplitudes, phi.amplitudes)
        rho = np.outer(joint, joint.conj()).reshape(d, d, d, d)
        out = protocol_oracle(phi, spec, dt)
        np.testing.assert_allclose(out.rho_a.matrix, np.einsum("ijkj->ik", rho),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.rho_b.matrix, np.einsum("jijk->ik", rho),
                                   rtol=0, atol=1e-15)


def test_oracle_holds_one_joint_operator():
    # the unitary is 16.8 MB at dim 32; a joint density matrix or a swap
    # matrix beside it would take the peak past 20 MB
    spec = build_model("c", 32, 1.0)
    phi = uniform_state(32)
    tracemalloc.start()
    try:
        protocol_oracle(phi, spec, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


def test_negative_dt_swaps_roles():
    spec = build_model("b", 8, 1.0)
    phi = uniform_state(8)
    fwd = apply_protocol(phi, spec, 0.15)
    rev = apply_protocol(phi, spec, -0.15)
    np.testing.assert_allclose(rev.rho_a.to_dense().matrix, fwd.rho_b.to_dense().matrix,
                               atol=1e-14)
    assert rev.e_a == pytest.approx(fwd.e_b)


def test_cooling_order_before_first_slope_zero():
    # dP0/dt <= 0 on (0, first zero), so a cools and b heats there
    for kind in MODEL_KINDS:
        spec = build_model(kind, 8, 1.0)
        phi = uniform_state(8)
        for dt in (0.05, 0.3, 1.0):
            if survival(phi, spec, dt)[1] <= 0:
                out = apply_protocol(phi, spec, dt)
                assert out.e_a <= out.e0 <= out.e_b


def test_reduced_states_positive_semidefinite():
    rng = np.random.default_rng(2)
    for _ in range(30):
        spec, phi = random_case(rng)
        out = apply_protocol(phi, spec, float(rng.uniform(-1.5, 1.5)))
        assert np.linalg.eigvalsh(out.rho_a.to_dense().matrix)[0] > -1e-10
        assert np.linalg.eigvalsh(out.rho_b.to_dense().matrix)[0] > -1e-10


def test_expansion_eigenstate_exact():
    spec = build_model("a", 8, 1.0)
    phi = basis_state(8, 3)
    pred_a, pred_b = expand_short_time(phi, spec, 0.05)
    np.testing.assert_allclose(pred_a.matrix, phi.projector(), atol=1e-14)
    np.testing.assert_allclose(pred_b.matrix, phi.projector(), atol=1e-14)


def test_expansion_unit_trace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec, phi = random_case(rng)
        pred_a, pred_b = expand_short_time(phi, spec, 0.05)
        assert np.trace(pred_a.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(pred_b.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_expansion_cubic_convergence():
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    errs = []
    for dt in (0.02, 0.01):
        exact = protocol_oracle(phi, spec, dt)
        pred_a, _ = expand_short_time(phi, spec, dt)
        errs.append(opnorm(exact.rho_a.matrix - pred_a.matrix))
    assert 6.0 < errs[0] / errs[1] < 10.0


def test_expansion_rejects_large_dt():
    spec = build_model("c", 16, 1.0)   # span 8
    with pytest.raises(ValueError):
        expand_short_time(uniform_state(16), spec, 0.2)


def test_transfer_first_order_values():
    spec = build_model("a", 8, 1.0)
    ea, eb = transfer_first_order(uniform_state(8), spec, 0.01)
    assert ea == pytest.approx(-0.12609375)
    assert eb == pytest.approx(-0.12390625)


def test_transfer_first_order_eigenstate():
    spec = build_model("b", 8, 1.0)
    phi = basis_state(8, 0)
    e0, _ = energy_moments(phi, spec)
    assert transfer_first_order(phi, spec, 0.3) == (e0, e0)


def test_transfer_first_order_cubic_remainder():
    spec = build_model("d", 16, 1.0)
    phi = uniform_state(16)
    errs = []
    for dt in (0.02, 0.01):
        exact = apply_protocol(phi, spec, dt)
        pred, _ = transfer_first_order(phi, spec, dt)
        errs.append(abs(exact.e_a - pred))
    assert 6.0 < errs[0] / errs[1] < 10.0


def test_deviation_term_traceless_hermitian():
    rng = np.random.default_rng(4)
    for _ in range(20):
        spec, phi = random_case(rng)
        mat = deviation_term(spec, phi)
        assert abs(np.trace(mat)) < 1e-12
        assert np.abs(mat - mat.conj().T).max() < 1e-12


def test_protocol_output_json_shape():
    spec = build_model("a", 4, 1.0)
    payload = protocol_output_to_json(apply_protocol(uniform_state(4), spec, 0.1))
    assert set(payload) == {"E0", "Ea", "Eb", "dt", "basis", "coeff_a", "coeff_b"}
    assert len(payload["basis"]) == 2
    assert len(payload["coeff_a"]) == 8   # 2x2 complex, interleaved
