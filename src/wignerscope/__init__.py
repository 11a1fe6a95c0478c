"""Noisy quantum homodyne tomography: simulation, kernel reconstruction,
minimax rate formulas, and the two-hypothesis lower-bound construction."""

__version__ = "0.1.0"
