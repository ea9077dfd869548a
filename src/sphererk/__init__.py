"""Sphere-constrained explicit Runge-Kutta integrators and benchmark harness."""

__version__ = "0.1.0"
