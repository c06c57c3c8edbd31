"""Embedded conic programming layer: program container and builder, solver."""

from .program import Cone, ConicProgram, ProgramBuilder
from .solver import SolveResult, SolveStructure, solve

__all__ = [
    "Cone",
    "ConicProgram",
    "ProgramBuilder",
    "SolveResult",
    "SolveStructure",
    "solve",
]
