"""Angular-momentum coupling factors for hyperfine dipole transitions.

Plain-float Wigner 3-j/6-j symbols via the Racah factorial sums, plus the
signed decay amplitude connecting a ground hyperfine sublevel (F, m) to an
excited one (F', m'). Amplitudes are normalized so that the squares over all
dipole-allowed decay channels of one excited sublevel sum to one.
"""

from __future__ import annotations

from math import factorial, sqrt

__all__ = ["wigner_3j", "wigner_6j", "clebsch_gordan", "decay_amplitude"]

# Rb-87 D1 line: J of 5S1/2 and of 5P1/2, and the nuclear spin
J_GROUND = J_EXCITED = 0.5
I_NUCLEAR = 1.5


def _is_half_int(x) -> bool:
    return abs(2 * x - round(2 * x)) < 1e-9

def _triangle_ok(a, b, c) -> bool:
    return abs(a - b) <= c <= a + b and round(2 * (a + b + c)) % 2 == 0

def _delta(a, b, c) -> float:
    return sqrt(
        factorial(round(a + b - c)) * factorial(round(a - b + c))
        * factorial(round(-a + b + c)) / factorial(round(a + b + c + 1))
    )


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3-j symbol; returns 0.0 on any violated selection rule."""
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if not (_is_half_int(j) and _is_half_int(m)) or abs(m) > j + 1e-9:
            return 0.0
        if round(2 * (j - m)) % 2 != 0:
            return 0.0
    if round(2 * (m1 + m2 + m3)) != 0 or not _triangle_ok(j1, j2, j3):
        return 0.0
    t_min = max(0, round(j2 - j3 - m1), round(j1 - j3 + m2))
    t_max = min(round(j1 + j2 - j3), round(j1 - m1), round(j2 + m2))
    if t_max < t_min:
        return 0.0
    total = 0.0
    for t in range(t_min, t_max + 1):
        total += (-1) ** t / (
            factorial(t)
            * factorial(round(j3 - j2 + m1) + t)
            * factorial(round(j3 - j1 - m2) + t)
            * factorial(round(j1 + j2 - j3) - t)
            * factorial(round(j1 - m1) - t)
            * factorial(round(j2 + m2) - t)
        )
    total *= _delta(j1, j2, j3) * sqrt(
        factorial(round(j1 + m1)) * factorial(round(j1 - m1))
        * factorial(round(j2 + m2)) * factorial(round(j2 - m2))
        * factorial(round(j3 + m3)) * factorial(round(j3 - m3))
    )
    return total * (-1) ** round(j1 - j2 - m3)


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6-j symbol; returns 0.0 when any triad violates triangularity."""
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    for a, b, c in triads:
        if not _triangle_ok(a, b, c):
            return 0.0
    t_min = max(round(a + b + c) for a, b, c in triads)
    t_max = min(
        round(j1 + j2 + j4 + j5),
        round(j2 + j3 + j5 + j6),
        round(j1 + j3 + j4 + j6),
    )
    total = 0.0
    for t in range(t_min, t_max + 1):
        den = (
            factorial(t - round(j1 + j2 + j3))
            * factorial(t - round(j1 + j5 + j6))
            * factorial(t - round(j4 + j2 + j6))
            * factorial(t - round(j4 + j5 + j3))
            * factorial(round(j1 + j2 + j4 + j5) - t)
            * factorial(round(j2 + j3 + j5 + j6) - t)
            * factorial(round(j1 + j3 + j4 + j6) - t)
        )
        total += (-1) ** t * factorial(t + 1) / den
    return total * (
        _delta(j1, j2, j3) * _delta(j1, j5, j6) * _delta(j4, j2, j6) * _delta(j4, j5, j3)
    )


def clebsch_gordan(j1, m1, j2, m2, j3, m3) -> float:
    """<j1 m1; j2 m2 | j3 m3> from the 3-j symbol."""
    if round(2 * (m1 + m2 - m3)) != 0:
        return 0.0
    return (
        (-1) ** round(j1 - j2 + m3)
        * sqrt(2 * j3 + 1)
        * wigner_3j(j1, j2, j3, m1, m2, -m3)
    )


def decay_amplitude(f_g, m_g, f_e, m_e) -> float:
    """Signed dipole amplitude for (F', m') -> (F, m) emission on the D1 line.

    Includes the hyperfine branching factor, so summing the squares over all
    (F, m) reachable from a fixed (F', m') yields exactly 1. The emitted
    polarization index is q = m - m'; |q| > 1 or any other forbidden
    combination returns 0.0 rather than raising.
    """
    q = m_g - m_e
    if abs(q) > 1 or abs(m_g) > f_g or abs(m_e) > f_e or abs(f_g - f_e) > 1:
        return 0.0
    racah = (
        (-1) ** round(f_e + J_GROUND + 1 + I_NUCLEAR)
        * sqrt((2 * f_e + 1) * (2 * J_GROUND + 1))
        * wigner_6j(J_GROUND, J_EXCITED, 1, f_e, f_g, I_NUCLEAR)
    )
    return racah * clebsch_gordan(f_e, m_e, 1, q, f_g, m_g)
