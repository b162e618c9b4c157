"""NPB MG: V-cycle multigrid on a 3-D periodic Poisson problem.

Numerics (as in NAS MG): a fixed number of V-cycles on ``-lap(u) = v``
with a sparse random right-hand side; weighted-Jacobi smoothing,
8-point-average restriction, piecewise-constant prolongation, and the
L2 residual norm after each cycle as the verified output (NAS's
``rnm2``).

Parallelization: 3-D block decomposition with 6-neighbour periodic halo
exchange at every stencil application, on every level.  Like NAS MG,
**all** computation is common — halo exchange is pure communication —
so MG's parallel-unique share is zero (paper Table 1: "No parallel-
unique comp").

The contamination dynamics this produces match the paper's MG story:
errors creep to face neighbours through halos and jump to every rank
through the per-cycle residual allreduce.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.base import AppSpec
from repro.errors import ConfigurationError
from repro.taint.tarray import TArray
from repro.utils.rng import spawn_rng

__all__ = ["MGApp"]


def _factor_grid(size: int) -> tuple[int, int, int]:
    """Split a power-of-two process count over (z, y, x), largest first."""
    dims = [1, 1, 1]
    axis = 0
    while size > 1:
        dims[axis] *= 2
        size //= 2
        axis = (axis + 1) % 3
    return tuple(dims)  # type: ignore[return-value]


class MGApp(AppSpec):
    """The MG benchmark.  See module docstring."""

    name = "mg"

    def __init__(
        self,
        n: int = 32,
        cycles: int = 2,
        levels: int = 4,
        omega: float = 2.0 / 3.0,
        coarse_sweeps: int = 4,
        epsilon: float = 1e-9,
        seed: int = 777,
    ):
        if n & (n - 1) or n < (1 << (levels - 1)) * 4:
            raise ConfigurationError(
                f"MG grid n={n} must be a power of two with >= 4 points at the "
                f"coarsest of {levels} levels"
            )
        self.n = n
        self.cycles = cycles
        self.levels = levels
        self.omega = omega
        self.coarse_sweeps = coarse_sweeps
        self.epsilon = epsilon
        self.seed = seed
        rng = spawn_rng(seed, "mg-rhs")
        v = np.zeros((n, n, n))
        # NAS-style sparse +/-1 charges, then zero mean (periodic solvability)
        points = rng.choice(n**3, size=2 * n, replace=False)
        signs = np.where(np.arange(points.size) % 2 == 0, 1.0, -1.0)
        v.reshape(-1)[points] = signs
        v -= v.mean()
        self._rhs = v

    # ------------------------------------------------------------------
    def program(self, rank, size, comm, fp):
        """Fixed V-cycles on the periodic Poisson problem; verified rnm2."""
        self.check_nprocs(size, limit=(self.n // (1 << (self.levels - 1))) ** 3)
        dims = _factor_grid(size)
        coarsest = self.n >> (self.levels - 1)
        for d in dims:
            if coarsest % d:
                raise ConfigurationError(
                    f"MG coarsest grid {coarsest} not divisible by process grid {dims}"
                )
        coords = self._coords(rank, dims)
        lz, ly, lx = (self.n // d for d in dims)
        z0, y0, x0 = coords[0] * lz, coords[1] * ly, coords[2] * lx
        v = fp.asarray(self._rhs[z0 : z0 + lz, y0 : y0 + ly, x0 : x0 + lx])
        u = fp.asarray(np.zeros((lz, ly, lx)))
        # (axis, step, nbr_src, nbr_dst) of the six face shifts
        halo = tuple(
            (axis, step, self._neighbor(coords, dims, axis, step),
             self._neighbor(coords, dims, axis, -step))
            for axis in range(3) for step in (+1, -1)
        )

        rnm2 = fp.asarray(0.0)
        for _ in range(self.cycles):
            u = yield from self._vcycle(fp, comm, rank, size, halo, u, v, level=0)
            r = yield from self._residual(fp, comm, rank, size, halo, u, v, level=0)
            local = fp.dot(r.ravel(), r.ravel())
            total = yield comm.allreduce(local, op="sum")
            rnm2 = fp.sqrt(total)
        if rank == 0:
            return self._as_output(rnm2=rnm2)
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _coords(rank: int, dims: tuple[int, int, int]) -> tuple[int, int, int]:
        dz, dy, dx = dims
        return (rank // (dy * dx), (rank // dx) % dy, rank % dx)

    @staticmethod
    def _rank_of(coords: tuple[int, int, int], dims: tuple[int, int, int]) -> int:
        dz, dy, dx = dims
        cz, cy, cx = (c % d for c, d in zip(coords, dims))
        return (cz * dy + cy) * dx + cx

    def _neighbor(self, coords, dims, axis: int, step: int) -> int:
        shifted = list(coords)
        shifted[axis] += step
        return self._rank_of(tuple(shifted), dims)

    # ------------------------------------------------------------------
    def _shifted_sum(self, fp, comm, rank, halo, x: TArray, tag: int):
        """Sum of the six periodic face-neighbour shifts of ``x``.

        Generator: performs one sendrecv per direction when the
        neighbouring block lives on another rank; pure local slicing when
        this rank is its own neighbour along an axis.
        """
        total = None
        for axis, step, nbr_src, nbr_dst in halo:
            # shift by +1 along `axis` needs the *next* block's first
            # plane; we send our first plane to the *previous* block.
            sl = [slice(None)] * 3
            sl[axis] = slice(0, 1) if step == +1 else slice(-1, None)
            my_edge = x[tuple(sl)]
            if nbr_src == rank:
                edge = my_edge
            else:
                edge = yield comm.sendrecv(
                    nbr_dst, my_edge, source=nbr_src,
                    send_tag=tag + 2 * axis + (0 if step == +1 else 1),
                )
            body = [slice(None)] * 3
            body[axis] = slice(1, None) if step == +1 else slice(0, -1)
            parts = [x[tuple(body)], edge] if step == +1 else [edge, x[tuple(body)]]
            shifted = TArray.concatenate(parts, axis=axis)
            total = shifted if total is None else fp.add(total, shifted)
        return total

    def _residual(self, fp, comm, rank, size, halo, u, v, level):
        """r = v - A u with A = 6u - sum(face neighbours) (generator)."""
        nb_sum = yield from self._shifted_sum(fp, comm, rank, halo, u, tag=500 + 20 * level)
        au = fp.sub(fp.mul(u, 6.0), nb_sum)
        return fp.sub(v, au)

    def _smooth(self, fp, comm, rank, size, halo, u, v, level, sweeps):
        """Weighted-Jacobi sweeps (generator)."""
        for _ in range(sweeps):
            r = yield from self._residual(fp, comm, rank, size, halo, u, v, level)
            u = fp.add(u, fp.mul(r, self.omega / 6.0))
        return u

    # ------------------------------------------------------------------
    @staticmethod
    def _restrict(fp, r: TArray) -> TArray:
        """Average 2x2x2 children onto the coarse grid (3 adds + 1 mul)."""
        lz, ly, lx = r.shape
        v = r.reshape(lz // 2, 2, ly // 2, 2, lx // 2, 2)
        v = fp.add(v[:, 0], v[:, 1])            # (lz/2, ly/2, 2, lx/2, 2)
        v = fp.add(v[:, :, 0], v[:, :, 1])      # (lz/2, ly/2, lx/2, 2)
        v = fp.add(v[..., 0], v[..., 1])        # (lz/2, ly/2, lx/2)
        return fp.mul(v, 0.125)

    @staticmethod
    def _prolong(e: TArray) -> TArray:
        """Piecewise-constant interpolation (pure data movement)."""
        lz, ly, lx = e.shape
        out = TArray.stack([e, e], axis=1).reshape(2 * lz, ly, lx)
        out = TArray.stack([out, out], axis=2).reshape(2 * lz, 2 * ly, lx)
        out = TArray.stack([out, out], axis=3).reshape(2 * lz, 2 * ly, 2 * lx)
        return out

    # ------------------------------------------------------------------
    def _vcycle(self, fp, comm, rank, size, halo, u, v, level):
        """One V-cycle recursion (generator)."""
        if level == self.levels - 1:
            u = yield from self._smooth(
                fp, comm, rank, size, halo, u, v, level, self.coarse_sweeps
            )
            return u
        u = yield from self._smooth(fp, comm, rank, size, halo, u, v, level, 1)
        r = yield from self._residual(fp, comm, rank, size, halo, u, v, level)
        rc = self._restrict(fp, r)
        zero = fp.asarray(np.zeros(rc.shape))
        ec = yield from self._vcycle(fp, comm, rank, size, halo, zero, rc, level + 1)
        u = fp.add(u, self._prolong(ec))
        u = yield from self._smooth(fp, comm, rank, size, halo, u, v, level, 1)
        return u

    # ------------------------------------------------------------------
    def verify(self, output, reference):
        """NAS-style check: the residual norm matches within epsilon."""
        got, ref = output["rnm2"], reference["rnm2"]
        if not (math.isfinite(got) and math.isfinite(ref)):
            return False
        return abs(got - ref) <= self.epsilon * max(abs(ref), 1.0)
