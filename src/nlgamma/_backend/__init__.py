"""Scalar kernels; see ``kernels``."""
