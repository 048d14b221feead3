"""Tests for the SI constants, the spin-matrix stack and Rabi rotations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ac_diamond.holonomy import qubit_pulse, spin_operators
from ac_diamond.physics import C_LIGHT, H_PLANCK, HBAR, MU_B, NVParameters

TWO_PI = 2.0 * np.pi


class TestConstants:
    def test_all_positive(self):
        for value in (H_PLANCK, HBAR, MU_B, C_LIGHT):
            assert value > 0.0

    def test_h_is_two_pi_hbar(self):
        assert abs(H_PLANCK - TWO_PI * HBAR) <= 1e-12 * H_PLANCK


class TestNVParameters:
    def test_defaults_valid(self):
        params = NVParameters()
        assert (params.g, params.R2E, params.T2, params.B_z) == (2.0, 20.0, 1.8e-3, 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(T2=0.0), dict(g=-1.0), dict(B_z=-1e-4), dict(R2E=-1.0)],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NVParameters(**kwargs)

    @pytest.mark.parametrize("name", ["T2", "g", "B_z", "R2E"])
    def test_nan_refused_by_name(self, name):
        # a NaN T2 used to reach the oracle as "population out of range: nan"
        with pytest.raises(ValueError, match=f" {name} must be"):
            NVParameters(**{name: float("nan")})


class TestSpinOperators:
    def test_hermitian(self):
        for mat in spin_operators():
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-14

    def test_cyclic_commutators(self):
        sx, sy, sz = spin_operators()
        triples = [(sx, sy, sz), (sy, sz, sx), (sz, sx, sy)]
        for a, b, c in triples:
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-14

    def test_casimir(self):
        # s(s+1) = 2 for spin 1
        sx, sy, sz = spin_operators()
        total = sx @ sx + sy @ sy + sz @ sz
        assert np.max(np.abs(total - 2.0 * np.eye(3))) < 1e-14

    def test_spin_one_spectrum(self):
        spectrum = np.sort(np.linalg.eigvalsh(spin_operators()[2]))[::-1]
        assert np.allclose(spectrum, [1.0, 0.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    def test_transverse_spectrum(self, axis):
        spectrum = np.sort(np.linalg.eigvalsh(spin_operators()[axis]))[::-1]
        assert np.allclose(spectrum, [1.0, 0.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
    def test_component_cubed_is_itself(self, axis):
        # eigenvalues in {-1, 0, 1}, so S_i^3 = S_i holds only for spin 1
        s = spin_operators()[axis]
        assert np.max(np.abs(s @ s @ s - s)) < 1e-14

    def test_raising_operator(self):
        # Sx + i*Sy is the raising operator, sqrt(2) on |-1> -> |0> -> |+1>
        sx, sy, sz = spin_operators()
        raising = sx + 1j * sy
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = np.sqrt(2.0)
        assert np.max(np.abs(raising - expected)) < 1e-15
        assert np.max(np.abs(sz @ raising - raising @ sz - raising)) < 1e-14

    def test_takes_no_dimension(self):
        with pytest.raises(TypeError):
            spin_operators(3)

    def test_ascending_basis_order(self):
        # shared package convention: index order (|-1>, |0>, |+1>)
        assert np.allclose(np.diag(spin_operators()[2]), [-1.0, 0.0, 1.0])

    def test_stack_shape(self):
        assert spin_operators().shape == (3, 3, 3)


GROUND = np.array([0.0, 1.0, 0.0], dtype=complex)  # the optically pumped |0>


def _normalized_state(raw):
    vec = np.array([complex(raw[0], raw[1]), complex(raw[2], raw[3]),
                    complex(raw[4], raw[5])])
    return vec / np.linalg.norm(vec)


state_components = st.lists(
    st.floats(min_value=-1.0, max_value=1.0), min_size=6, max_size=6
).filter(lambda raw: sum(x * x for x in raw) > 1e-4)


def apply_rotation(state, theta, phi):
    return qubit_pulse(theta, phi) @ state


class TestRotations:
    def test_pi_twice_returns_to_start(self):
        out = apply_rotation(apply_rotation(GROUND, np.pi, 0.0), np.pi, 0.0)
        assert abs(abs(out[1]) - 1.0) < 1e-12

    def test_two_half_pis_make_pi(self):
        half_pi = np.pi / 2.0
        out = apply_rotation(apply_rotation(GROUND, half_pi, 0.0), half_pi, 0.0)
        assert abs(abs(out[2]) - 1.0) < 1e-12

    def test_half_pi_amplitudes(self):
        out = apply_rotation(GROUND, np.pi / 2.0, 0.0)
        expected = np.array([0.0, 1.0 / np.sqrt(2.0), -1j / np.sqrt(2.0)])
        assert np.max(np.abs(out - expected)) < 1e-12

    @given(raw=state_components,
           theta=st.floats(min_value=-10.0, max_value=10.0),
           phi=st.floats(min_value=-10.0, max_value=10.0))
    def test_norm_and_bystander_preserved(self, raw, theta, phi):
        state = _normalized_state(raw)
        out = apply_rotation(state, theta, phi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert out[0] == state[0]
