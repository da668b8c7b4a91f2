import numpy as np
import pytest

from swapcool.hamiltonian import build_model
from swapcool.quantum import (
    DensityOperator,
    PureState,
    basis_state,
    csv_table,
    eigendecompose,
    energy_moments,
    evolve_phase,
    state_to_json,
    survival,
    uniform_state,
)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def test_uniform_state_values():
    np.testing.assert_allclose(uniform_state(4).amplitudes, 0.5)
    np.testing.assert_allclose(np.abs(uniform_state(8).amplitudes), 1 / np.sqrt(8))


def test_uniform_state_normalised():
    for dim in (1, 2, 7, 100):
        assert np.linalg.norm(uniform_state(dim).amplitudes) == pytest.approx(1.0)


def test_state_rejects_unnormalised():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_evolve_phase_eigenstate_stationary():
    spec = build_model("a", 8, 1.0)
    e1 = basis_state(8, 0)
    out = evolve_phase(e1, spec, 2.7)
    assert abs(abs(out.overlap(e1)) - 1.0) < 1e-14
    assert survival(e1, spec, 2.7) == (pytest.approx(1.0), pytest.approx(0.0))


def test_evolve_phase_t0_identity():
    rng = np.random.default_rng(0)
    spec = build_model("b", 8, 1.0)
    phi = random_state(rng, 8)
    np.testing.assert_array_equal(evolve_phase(phi, spec, 0.0).amplitudes, phi.amplitudes)


def test_evolve_phase_uniform_ground_sign_flip():
    spec = build_model("a", 8, 1.0)
    out = evolve_phase(uniform_state(8), spec, np.pi)
    assert out.amplitudes[0] == pytest.approx(-1 / np.sqrt(8))
    np.testing.assert_allclose(out.amplitudes[1:], 1 / np.sqrt(8))


def test_evolve_phase_composes_and_preserves_norm():
    rng = np.random.default_rng(1)
    spec = build_model("c", 8, 1.0)
    phi = random_state(rng, 8)
    once = evolve_phase(evolve_phase(phi, spec, 0.3), spec, 0.5)
    both = evolve_phase(phi, spec, 0.8)
    np.testing.assert_allclose(once.amplitudes, both.amplitudes, atol=1e-14)
    assert np.linalg.norm(once.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_evolve_phase_sign_inverts():
    rng = np.random.default_rng(2)
    spec = build_model("b", 4, 1.0)
    phi = random_state(rng, 4)
    back = evolve_phase(evolve_phase(phi, spec, 0.9, sign=1), spec, 0.9, sign=-1)
    np.testing.assert_allclose(back.amplitudes, phi.amplitudes, atol=1e-14)


def test_energy_moments_uniform_model_a():
    e, var = energy_moments(uniform_state(8), build_model("a", 8, 1.0))
    assert e == pytest.approx(-0.125)
    assert var == pytest.approx(7 / 64)


def test_energy_moments_uniform_model_b():
    e, var = energy_moments(uniform_state(8), build_model("b", 8, 1.0))
    assert e == pytest.approx(0.0)
    assert var == pytest.approx(0.25)


def test_energy_moments_eigenstate():
    spec = build_model("d", 16, 1.0)
    e, var = energy_moments(basis_state(16, 5), spec)
    assert e == pytest.approx(spec.eigenvalues[5])
    assert var == 0.0


def test_survival_closed_form_model_a():
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    p0, _ = survival(phi, spec, np.pi)
    assert p0 == pytest.approx(36 / 64)
    for t in (0.0, 0.3, 1.7):
        p0, dp0 = survival(phi, spec, t)
        assert p0 == pytest.approx((50 + 14 * np.cos(t)) / 64)
        assert dp0 == pytest.approx(-(7 / 32) * np.sin(t))


def test_survival_symmetry_and_initial():
    rng = np.random.default_rng(3)
    spec = build_model("c", 16, 1.0)
    phi = random_state(rng, 16)
    assert survival(phi, spec, 0.0)[0] == pytest.approx(1.0)
    for t in (0.4, 1.1):
        assert survival(phi, spec, -t)[0] == pytest.approx(survival(phi, spec, t)[0])


def test_survival_derivative_matches_finite_difference():
    rng = np.random.default_rng(4)
    spec = build_model("b", 8, 1.0)
    phi = random_state(rng, 8)
    t = 0.6
    _, dp0 = survival(phi, spec, t)
    errs = []
    for h in (1e-3, 5e-4):
        num = (survival(phi, spec, t + h)[0] - survival(phi, spec, t - h)[0]) / (2 * h)
        errs.append(abs(num - dp0))
    assert 3.0 < errs[0] / errs[1] < 5.0    # central difference is O(h^2)


def test_eigendecompose_diagonal():
    spec, u = eigendecompose(np.diag([3.0, -1.0, 0.0]))
    np.testing.assert_allclose(spec.eigenvalues, [-1, 0, 3])
    assert abs(np.abs(np.linalg.det(u))) == pytest.approx(1.0)


def test_eigendecompose_pauli_x():
    spec, _ = eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(spec.eigenvalues, [-1, 1])


def test_eigendecompose_reconstruction():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = a + a.conj().T
    spec, u = eigendecompose(h)
    recon = u @ np.diag(spec.eigenvalues) @ u.conj().T
    assert np.abs(recon - h).max() < 1e-8
    for j in range(8):
        res = h @ u[:, j] - spec.eigenvalues[j] * u[:, j]
        assert np.linalg.norm(res) < 1e-8


def test_eigendecompose_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_state_to_json_interleaves_real_and_imaginary_parts():
    # the layout of every basis state in the `swapcool protocol` JSON
    rng = np.random.default_rng(8)
    phi = random_state(rng, 5)
    payload = state_to_json(phi)
    assert payload["dim"] == 5
    amps = payload["amplitudes"]
    assert len(amps) == 10 and all(type(x) is float for x in amps)
    assert amps[0::2] == phi.amplitudes.real.tolist()
    assert amps[1::2] == phi.amplitudes.imag.tolist()
    assert state_to_json(PureState(np.array([0.6, -0.8j]))) == {
        "dim": 2, "amplitudes": [0.6, 0.0, 0.0, -0.8]}


def test_csv_table_writes_one_line_per_row_of_str_cells():
    table = csv_table(("j", "x", "flag"), [(1, -8.0, "true"), (2, 1e-05, "false"), (3, 0.1, "x")])
    assert table == "j,x,flag\n1,-8.0,true\n2,1e-05,false\n3,0.1,x\n"
    assert csv_table(["a"], []) == "a\n"
    for row in [(1, 2), (1, 2, 3, 4)]:
        with pytest.raises(TypeError):
            csv_table(("a", "b", "c"), [row])
