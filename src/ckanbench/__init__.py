"""Spline-kernel (Kolmogorov-Arnold) convolutional layers with matched
classical baselines, from-scratch training, efficiency accounting, and an
ablation sweep harness."""

__version__ = "0.1.0"
