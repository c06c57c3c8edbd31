"""Embedded conic programming layer: program container, pow3 lowering, solver."""

from .lowering import LoweredProgram, lower_program
from .program import Cone, ConicProgram, ProgramBuilder
from .solver import SolveResult, SolveStructure, solve

__all__ = [
    "Cone",
    "ConicProgram",
    "ProgramBuilder",
    "LoweredProgram",
    "lower_program",
    "SolveResult",
    "SolveStructure",
    "solve",
]
