"""Differentiable modular synthesizer and gradient-based sound matching."""

from gradsynth.autodiff import (
    AutodiffError,
    DiffValue,
    DuplicateParameterError,
    NumericDomainError,
    Tape,
    TapeError,
    finite_difference_check,
)

__all__ = [
    "AutodiffError",
    "DiffValue",
    "DuplicateParameterError",
    "NumericDomainError",
    "Tape",
    "TapeError",
    "finite_difference_check",
]

__version__ = "0.1.0"
