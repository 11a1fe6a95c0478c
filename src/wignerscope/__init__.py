"""Noisy quantum homodyne tomography: simulation, kernel reconstruction,
minimax rate formulas, and the two-hypothesis lower-bound construction.

scipy is imported inside the functions that use it, never at module level:
importing the package, or running ``simulate``, ``estimate``, ``cut``,
``risk`` or ``kernel-table``, loads numpy alone."""

__version__ = "0.1.0"
