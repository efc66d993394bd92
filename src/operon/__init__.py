"""Operator-network toolkit: two-step DeepONet training with trunk-basis
orthonormalization, synthetic Darcy-flow data, and constructive zero-loss
certificates."""

__version__ = "0.1.0"
