"""Conic program container and incremental builder.

Standard form: minimize c'x subject to b - A x in K, where K is a product of
cones listed in row order and in class order: the zero cones, then the
nonneg cones, then the soc and pow3 cones in the order they were added.
Supported kinds:

- ``zero``: s = 0 (equality rows).
- ``nonneg``: s >= 0 elementwise.
- ``soc``: s_0 >= ||s_1:||_2.
- ``pow3``: s_0^alpha s_1^(1-alpha) >= |s_2|, s_0, s_1 >= 0 (dim == 3,
  0 < alpha < 1); ``lowering`` replaces it with soc cones for the solver.
- ``rsoc``: 2 s_0 s_1 >= ||s_2:||^2, declared only for covbench's
  cone-violation test: nothing builds it and the solver rejects it.

The builder allocates named variable blocks, accumulates sparse rows in
triplet form, and produces an immutable :class:`ConicProgram`, its cones in
class order. Programs round-trip through a line-oriented text format with
hex floats so dumps are byte-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigError

#: The class of each kind; a program's cones come in class order.
_CLASS = {"zero": 0, "nonneg": 1, "soc": 2, "pow3": 2, "rsoc": 2}
_FORMAT_TAG = "conicprog/1"


@dataclass(frozen=True)
class Cone:
    """One cone block: kind, row count, and the power-cone exponent."""

    kind: str
    dim: int
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _CLASS:
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("cone dimension must be positive")
        if self.kind == "soc" and self.dim < 2:
            raise ValueError("soc cones need dim >= 2")
        if self.kind == "pow3":
            if self.dim != 3:
                raise ValueError("pow3 cones have exactly 3 rows")
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValueError("pow3 needs alpha in (0, 1)")
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} cones take no alpha")


def is_canonical(cones: tuple[Cone, ...]) -> bool:
    """True when a program's cones, in class order, are the solver's kinds alone."""
    return all(c.kind in ("zero", "nonneg", "soc") for c in cones)


@dataclass(frozen=True)
class ConicProgram:
    """Immutable conic program in standard form, its cones in class order."""

    c: np.ndarray
    A: sp.csr_matrix = field(repr=False)
    b: np.ndarray = field(repr=False)
    cones: tuple[Cone, ...]
    var_blocks: dict[str, slice] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if any(_CLASS[a.kind] > _CLASS[b.kind] for a, b in zip(self.cones, self.cones[1:])):
            raise ValueError("cones must come zero, then nonneg, then soc and pow3")
        m = self.b.shape[0]
        if m == 0:
            raise ValueError("a program needs at least one row")
        if sum(c.dim for c in self.cones) != m:
            raise ValueError(f"the cones hold {sum(c.dim for c in self.cones)} rows, b has {m}")
        if self.A.shape != (m, self.c.shape[0]):
            raise ValueError(f"A is {self.A.shape}, b and c need {(m, self.c.shape[0])}")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.b.shape[0]

    def cone_slices(self) -> list[tuple[Cone, slice]]:
        out = []
        lo = 0
        for cone in self.cones:
            out.append((cone, slice(lo, lo + cone.dim)))
            lo += cone.dim
        return out

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Slack vector s = b - A x."""
        return self.b - self.A @ np.asarray(x, dtype=float)

    def dump(self) -> str:
        """Serialize to the versioned text format (hex floats, byte-exact)."""
        lines = [_FORMAT_TAG]
        lines.append(f"name {self.name}")
        lines.append(f"size {self.n_vars} {self.n_rows} {len(self.cones)}")
        for nm, sl in self.var_blocks.items():
            lines.append(f"block {nm} {sl.start} {sl.stop}")
        lines.append("cones")
        for cone in self.cones:
            a = cone.alpha.hex() if cone.alpha is not None else "-"
            lines.append(f"{cone.kind} {cone.dim} {a}")
        lines.append("c")
        for i in np.nonzero(self.c)[0]:
            lines.append(f"{i} {float(self.c[i]).hex()}")
        lines.append("b")
        for i in np.nonzero(self.b)[0]:
            lines.append(f"{i} {float(self.b[i]).hex()}")
        lines.append("A")
        coo = self.A.tocoo()
        order = np.lexsort((coo.col, coo.row))
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            lines.append(f"{i} {j} {float(v).hex()}")
        lines.append("end")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, text: str) -> "ConicProgram":
        """Parse a program produced by :meth:`dump`; ConfigError if malformed."""
        lines = text.splitlines()
        if not lines or lines[0] != _FORMAT_TAG:
            raise ConfigError(f"not a {_FORMAT_TAG} document")
        name = ""
        n = m = nc = 0
        blocks: dict[str, slice] = {}
        cones: list[Cone] = []
        c = None
        b = None
        ai: list[int] = []
        aj: list[int] = []
        av: list[float] = []
        section = "head"
        try:
            for raw in lines[1:]:
                line = raw.strip()
                if not line:
                    continue
                if line in ("cones", "c", "b", "A", "end"):
                    section = line
                    continue
                parts = line.split()
                if section == "head":
                    if parts[0] == "name":
                        name = line[5:]
                    elif parts[0] == "size":
                        n, m, nc = int(parts[1]), int(parts[2]), int(parts[3])
                        c = np.zeros(n)
                        b = np.zeros(m)
                    elif parts[0] == "block":
                        blocks[parts[1]] = slice(int(parts[2]), int(parts[3]))
                    else:
                        raise ConfigError(f"unexpected header line: {line!r}")
                elif section == "cones":
                    alpha = None if parts[2] == "-" else float.fromhex(parts[2])
                    cones.append(Cone(kind=parts[0], dim=int(parts[1]), alpha=alpha))
                elif section == "c":
                    c[int(parts[0])] = float.fromhex(parts[1])
                elif section == "b":
                    b[int(parts[0])] = float.fromhex(parts[1])
                elif section == "A":
                    ai.append(int(parts[0]))
                    aj.append(int(parts[1]))
                    av.append(float.fromhex(parts[2]))
            if c is None or len(cones) != nc:
                raise ConfigError("malformed conic program document")
            A = sp.csr_matrix((av, (ai, aj)), shape=(m, n))
            return cls(c=c, A=A, b=b, cones=tuple(cones), var_blocks=blocks, name=name)
        except (ValueError, IndexError, TypeError) as exc:
            raise ConfigError(f"malformed conic program document: {exc}") from None


class ProgramBuilder:
    """Accumulates variable blocks, cost terms, and cone rows.

    Rows are given per cone as triplets (local row, column, value) plus the
    cone's constant vector, meaning the slack s = b_cone - A_cone x lies in
    the cone. ``build`` puts the cones in class order, keeping the call
    order within each class, sums duplicate entries and drops every zero, so
    the program's A stores only its nonzeros.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._n = 0
        self._blocks: dict[str, slice] = {}
        self._cost: dict[int, float] = {}
        self._cones: list[Cone] = []
        self._bs: list[np.ndarray] = []
        self._ri: list[np.ndarray] = []
        self._rj: list[np.ndarray] = []
        self._rv: list[np.ndarray] = []

    def var_block(self, name: str, size: int) -> np.ndarray:
        """Reserve ``size`` new columns under ``name``; returns their indices."""
        if name in self._blocks:
            raise ValueError(f"variable block {name!r} already exists")
        if size < 0:
            raise ValueError("block size must be nonnegative")
        sl = slice(self._n, self._n + size)
        self._blocks[name] = sl
        self._n += size
        return np.arange(sl.start, sl.stop)

    def cost(self, idx, val) -> None:
        """Accumulate linear objective terms c[idx] += val."""
        idx = np.atleast_1d(np.asarray(idx, dtype=int))
        val = np.broadcast_to(np.asarray(val, dtype=float), idx.shape)
        for i, v in zip(idx, val):
            self._cost[int(i)] = self._cost.get(int(i), 0.0) + float(v)

    def cone(
        self,
        kind: str,
        b: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        alpha: float | None = None,
    ) -> None:
        """Append one cone block.

        Args:
            kind: cone kind (see module docstring).
            b: constant vector, its length is the cone dimension.
            rows: local row indices (0-based within this cone).
            cols: global column indices.
            vals: matrix entries, so that s = b - A x restricted to these rows.
            alpha: pow3 exponent.
        """
        b = np.atleast_1d(np.asarray(b, dtype=float))
        cone = Cone(kind=kind, dim=b.shape[0], alpha=alpha)
        rows = np.atleast_1d(np.asarray(rows, dtype=int))
        cols = np.atleast_1d(np.asarray(cols, dtype=int))
        vals = np.atleast_1d(np.asarray(vals, dtype=float))
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("triplet arrays must have identical shapes")
        if rows.size and (rows.min() < 0 or rows.max() >= cone.dim):
            raise ValueError("local row index out of cone range")
        self._cones.append(cone)
        self._bs.append(b)
        self._ri.append(rows)
        self._rj.append(cols)
        self._rv.append(vals)

    def build(self) -> ConicProgram:
        c = np.zeros(self._n)
        for i, v in self._cost.items():
            if i < 0 or i >= self._n:
                raise ValueError(f"cost index {i} out of range")
            c[i] = v
        order = sorted(range(len(self._cones)), key=lambda k: _CLASS[self._cones[k].kind])
        cones = tuple(self._cones[k] for k in order)
        dims = np.array([cone.dim for cone in cones], dtype=int)
        start = np.zeros(len(cones), dtype=int)  # first row of each cone, by call
        start[order] = np.cumsum(dims) - dims
        ri = np.concatenate([np.zeros(0, dtype=int), *(r + s for r, s in zip(self._ri, start))])
        rj = np.concatenate([np.zeros(0, dtype=int), *self._rj])
        rv = np.concatenate([np.zeros(0), *self._rv])
        if rj.size and (rj.min() < 0 or rj.max() >= self._n):
            raise ValueError("column index out of range")
        A = sp.csr_matrix((rv, (ri, rj)), shape=(int(dims.sum()), self._n))
        A.sum_duplicates()
        A.eliminate_zeros()
        b = np.concatenate([np.zeros(0), *(self._bs[k] for k in order)])
        return ConicProgram(
            c=c, A=A, b=b, cones=cones, var_blocks=dict(self._blocks), name=self.name,
        )
