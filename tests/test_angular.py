"""Checks of the D1 closed-form decay amplitudes against an independent oracle.

sympy evaluates the full Racah form (6-j symbol times Clebsch-Gordan
coefficient) from its own implementation; the frozen signed values below were
additionally cross-checked by hand against the repopulation coefficients
(sqrt(6)/12, 1/4) that the amplitude products must reproduce.
"""

import math

import pytest
from sympy import Rational, sqrt as ssqrt
from sympy.physics.quantum.cg import CG
from sympy.physics.wigner import wigner_6j as sym_6j

from eitrot.atom import decay_amplitude

HALF = Rational(1, 2)


# Signed amplitudes frozen from the angular-momentum algebra (F' -> F emission,
# entries keyed (F, m, F', m')). These pin the sign convention, not just
# magnitudes.
FROZEN = {
    (1, -1, 2, -2): -math.sqrt(2) / 2,
    (1, 0, 2, -1): -0.5,
    (1, 1, 2, 0): -math.sqrt(3) / 6,
    (1, -1, 2, 0): -math.sqrt(3) / 6,
    (1, 0, 2, 1): -0.5,
    (1, 1, 2, 2): -math.sqrt(2) / 2,
    (2, -1, 2, -2): -math.sqrt(6) / 6,
    (2, 0, 2, -1): -0.5,
    (2, 1, 2, 0): -0.5,
    (2, 2, 2, 1): -math.sqrt(6) / 6,
    (2, -2, 2, -2): -math.sqrt(3) / 3,
    (2, -1, 2, -1): -math.sqrt(3) / 6,
    (2, 0, 2, 0): 0.0,
    (2, 1, 2, 1): math.sqrt(3) / 6,
    (2, 2, 2, 2): math.sqrt(3) / 3,
    (2, 0, 1, -1): math.sqrt(3) / 6,
    (2, 1, 1, 0): 0.5,
    (2, 2, 1, 1): math.sqrt(2) / 2,
    (1, 0, 1, -1): math.sqrt(3) / 6,
    (1, 1, 1, 0): math.sqrt(3) / 6,
    (1, -1, 1, 0): -math.sqrt(3) / 6,
    (1, 0, 1, 1): -math.sqrt(3) / 6,
}


@pytest.mark.parametrize("key,expected", sorted(FROZEN.items()))
def test_decay_amplitude_frozen_values(key, expected):
    assert decay_amplitude(*key) == pytest.approx(expected, abs=1e-12)


def test_decay_amplitude_matches_sympy_everywhere():
    i_nuc = Rational(3, 2)
    for f_e in (1, 2):
        for m_e in range(-f_e, f_e + 1):
            for f_g in (1, 2):
                for m_g in range(-f_g, f_g + 1):
                    q = m_g - m_e
                    if abs(q) > 1:
                        continue
                    want = float(
                        (-1) ** (f_e + HALF + 1 + i_nuc)
                        * ssqrt((2 * f_e + 1) * 2)
                        * sym_6j(HALF, HALF, 1, f_e, f_g, i_nuc)
                        * CG(f_e, m_e, 1, q, f_g, m_g).doit()
                    )
                    got = decay_amplitude(f_g, m_g, f_e, m_e)
                    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("f_e", [1, 2])
def test_decay_sum_rule(f_e):
    for m_e in range(-f_e, f_e + 1):
        total = sum(
            decay_amplitude(f_g, m_g, f_e, m_e) ** 2
            for f_g in (1, 2)
            for m_g in range(-f_g, f_g + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_repopulation_coefficient_products():
    # pairwise same-q emission amplitudes feeding the a1--a3 ground coherence
    p1 = decay_amplitude(1, -1, 2, -2) * decay_amplitude(1, 1, 2, 0)
    p2 = decay_amplitude(1, -1, 2, -1) * decay_amplitude(1, 1, 2, 1)
    p3 = decay_amplitude(1, -1, 2, 0) * decay_amplitude(1, 1, 2, 2)
    assert p1 == pytest.approx(math.sqrt(6) / 12, abs=1e-12)
    assert p2 == pytest.approx(0.25, abs=1e-12)
    assert p3 == pytest.approx(math.sqrt(6) / 12, abs=1e-12)


def test_forbidden_transitions_return_zero():
    assert decay_amplitude(1, -1, 1, 1) == 0.0      # |q| = 2
    assert decay_amplitude(1, 2, 2, 1) == 0.0       # m out of range
    assert decay_amplitude(2, 0, 4, 0) == 0.0       # |dF| > 1
    assert decay_amplitude(2, -2, 1, -3) == 0.0     # excited m out of range
