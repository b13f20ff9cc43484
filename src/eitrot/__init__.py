"""Coupling-induced polarization rotation of a weak probe in Rb vapor.

A linearly polarized probe on the D1 F=1 -> F' line, decomposed into its two
circular components, sees different ladders of lambda sub-systems when a
circularly polarized coupling field dresses the F=2 -> F' line. The resulting
difference in refractive index between the components rotates the probe
polarization; this package computes the steady-state atomic response, the
Doppler-averaged susceptibilities, the rotation spectra, and the polarimetric
detection signals, and exposes the scenarios behind them on a CLI.

The modules are imported by name (``eitrot.scenarios``, ``eitrot.cli``, ...);
the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
