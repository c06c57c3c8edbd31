"""Lowering of the pow3 cones of a conic program to second-order cones.

:func:`lower_program` replaces each pow3 cone, in place, with the soc cones
of its tower and keeps every other cone, so a program in class order
(``program``) comes out in the solver's form (``program.is_canonical``). It
builds one sparse row map ``L`` from original rows to lowered rows and one
block ``V`` of auxiliary columns; the lowered program is ``A' = [L A | -V]``,
``b' = L b``, so its slack is ``L s + V t`` for the original slack
``s = b - A x`` and the auxiliaries ``t``. L, V and the lowered cones read
only the program's size and cones: :class:`Lowering` holds them, so every
program of one size and cone list lowers through one map.

A three-row power cone s0^alpha s1^(1-alpha) >= |s2| with rational
alpha = p/q becomes a balanced binary tree of geometric-mean cells: pad the
q-fold geometric mean (p copies of s0, q-p copies of s1) with copies of the
epigraph variable t up to the next power of two, certify w <= sqrt(a b)
pairwise with one soc cell (a+b, a-b, 2w) per internal tree node, and close
with t >= |s2|. Each symbol a, b, w, t of the tree is a small coefficient
map over the cone's rows and its auxiliary columns. The reduction is exact
whenever alpha is rational; irrational alpha is snapped to the closest
fraction with denominator <= MAX_DENOM (logged).

A program without pow3 cones is returned as it is.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .program import Cone, ConicProgram, is_canonical

logger = logging.getLogger(__name__)

#: Largest denominator used when snapping a pow3 exponent to a fraction.
MAX_DENOM = 64

#: Relative mismatch above which the snap is reported.
SNAP_WARN = 1e-12


@dataclass(frozen=True)
class LoweredProgram:
    """A canonical-form equivalent program and the map that built it.

    The first columns of the lowered program are the original variables;
    the rest are tower auxiliaries with zero cost. ``lowering`` is the map
    that built it (None for a program returned as it is).
    """

    program: ConicProgram
    lowering: Lowering | None = None


def _snap_alpha(alpha: float) -> Fraction:
    frac = Fraction(alpha).limit_denominator(MAX_DENOM)
    err = abs(float(frac) - alpha)
    if err > SNAP_WARN * max(1.0, abs(alpha)):
        logger.warning(
            "pow3 exponent %.17g approximated by %s (error %.3e)", alpha, frac, err
        )
    if not (0 < frac < 1):
        raise ValueError(f"pow3 exponent {alpha} does not snap inside (0, 1)")
    return frac


def _cell(a: dict, b: dict, w: dict) -> list[dict]:
    """Rows (a+b, a-b, 2w) of the soc cell certifying w <= sqrt(a b)."""
    return [
        {**a, **b},
        {**a, **{k: -v for k, v in b.items()}},
        {k: 2.0 * v for k, v in w.items()},
    ]


def _pow3_tower(r0: int, alpha: float, new_aux) -> list[list[dict]]:
    """Soc cones certifying s0^alpha s1^(1-alpha) >= |s2| on rows r0..r0+2.

    A symbol maps source indices (original rows, or ``new_aux()`` columns) to
    coefficients; a cone is its list of row symbols.
    """
    frac = _snap_alpha(alpha)
    p, q = frac.numerator, frac.denominator
    s0, s1, s2 = {r0: 1.0}, {r0 + 1: 1.0}, {r0 + 2: 1.0}
    t = new_aux()
    cones = [[t, s2]]  # |s2| <= t
    qhat = 1 << (q - 1).bit_length()  # the next power of two >= q
    # identical symbols pair into trivial cells
    level = [s0] * p + [s1] * (q - p) + [t] * (qhat - q)
    while len(level) > 2:
        nxt = []
        for a, b in zip(level[::2], level[1::2]):
            if a == b:
                nxt.append(a)
                continue
            w = new_aux()
            cones.append(_cell(a, b, w))
            nxt.append(w)
        level = nxt
    cones.append(_cell(*level, t))
    return cones


class Lowering:
    """What lowering reads of a program: its size and cones, never A's entries.

    It holds the row map ``row_map`` (``L``), the auxiliary block ``-V``
    and the lowered cones, so :meth:`apply` lowers every program of one
    size and cone list with two sparse products and no tower building.
    """

    def __init__(self, prog: ConicProgram):
        m = prog.n_rows
        n_aux = 0

        def new_aux() -> dict:
            nonlocal n_aux
            n_aux += 1
            return {m + n_aux - 1: 1.0}

        # lowered cones as (cone, local rows, sources, coefficients); a source
        # below m is an original row, source m + j auxiliary column j
        lowered = []
        for cone, sl in prog.cone_slices():
            if cone.kind != "pow3":
                local = np.arange(cone.dim)
                lowered.append((cone, local, sl.start + local, np.ones(cone.dim)))
                continue
            for rows in _pow3_tower(sl.start, cone.alpha, new_aux):
                lowered.append((
                    Cone("soc", len(rows)),
                    np.repeat(np.arange(len(rows)), [len(r) for r in rows]),
                    np.array([k for r in rows for k in r]),
                    np.array([v for r in rows for v in r.values()]),
                ))

        cones, local_rows, sources, coefs = zip(*lowered)
        dims = np.array([cone.dim for cone in cones], dtype=int)
        rows = np.concatenate([r + off for r, off in zip(local_rows, np.cumsum(dims) - dims)])
        T = sp.csr_matrix(
            (np.concatenate(coefs), (rows, np.concatenate(sources))),
            shape=(int(dims.sum()), m + n_aux),
        )
        self.row_map, self._minus_v = T[:, :m], -T[:, m:]
        self.cones, self.n_aux = cones, n_aux

    def apply(self, prog: ConicProgram) -> ConicProgram:
        """The lowered program of prog, whose size and cones this map was built from."""
        A = sp.hstack([self.row_map @ prog.A.tocsr(), self._minus_v], format="csr")
        A.sort_indices()
        return ConicProgram(
            c=np.concatenate([prog.c, np.zeros(self.n_aux)]),
            A=A,
            b=self.row_map @ prog.b,
            cones=self.cones,
            var_blocks=dict(prog.var_blocks),
            name=prog.name,
        )


def lower_program(prog: ConicProgram) -> LoweredProgram:
    """Replace each pow3 cone with its soc tower, in place (see module docstring).

    The other cones keep their rows. The objective restricted to the
    original columns is unchanged; auxiliary columns carry zero cost.
    """
    if is_canonical(prog.cones):
        return LoweredProgram(program=prog)
    lowering = Lowering(prog)
    return LoweredProgram(program=lowering.apply(prog), lowering=lowering)
