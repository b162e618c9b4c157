"""NPB CG: conjugate-gradient kernel with power iteration (paper's CG).

Algorithm (as in NAS CG): ``niter`` outer power iterations estimate the
largest eigenvalue shift of a sparse symmetric positive-definite matrix;
each outer iteration runs a fixed number of inner CG steps to apply
``A^{-1}`` approximately, then reports ``zeta = shift + 1 / (x·z)``.

Parallelization (as in NAS CG): the matrix is partitioned by *columns*;
each rank computes a full-length partial product ``w = A[:, cols] @
p_local`` and the partial results are combined with a recursive-halving
reduce-scatter — log2(p) exchange stages, each adding the partner's
partial half.  Those combination adds exist **only in parallel
execution**: they are the CG's parallel-unique computation (paper
Table 1; a small share that shrinks for larger problem classes).
Vector dot products use local dots + allreduce.

Verification (paper §2 'checkers'): ``zeta`` must match the fault-free
value within ``epsilon`` — the analogue of NAS CG's comparison of zeta
against the class reference value.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.apps.base import AppSpec
from repro.errors import ConfigurationError
from repro.taint.region import Region
from repro.utils.rng import spawn_rng

__all__ = ["CGApp"]


def _make_spd_matrix(n: int, nnz_per_row: int, seed: int) -> sp.csr_matrix:
    """Random sparse SPD matrix with a controlled spectrum.

    Symmetric pattern with strict diagonal dominance — guarantees SPD and
    fast CG convergence, standing in for NAS CG's `makea` generator.
    """
    rng = spawn_rng(seed, "cg-matrix")
    half = max(nnz_per_row // 2, 1)
    rows = np.repeat(np.arange(n), half)
    cols = rng.integers(0, n, size=rows.size)
    vals = rng.uniform(-1.0, 1.0, size=rows.size)
    b = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    a = (b + b.T) * 0.5
    a.setdiag(0.0)
    a.eliminate_zeros()
    row_abs = np.abs(a).sum(axis=1).A1 if hasattr(np.abs(a).sum(axis=1), "A1") else np.asarray(np.abs(a).sum(axis=1)).ravel()
    a = a + sp.diags(row_abs + 2.0)
    return a.tocsr()


class CGApp(AppSpec):
    """The CG benchmark.  See module docstring."""

    name = "cg"
    _memos = ("_blocks",)

    def __init__(
        self,
        n: int = 256,
        nnz_per_row: int = 48,
        niter: int = 2,
        cg_iters: int = 5,
        shift: float = 10.0,
        epsilon: float = 1e-9,
        seed: int = 1234,
    ):
        if n % 128:
            raise ConfigurationError("CG problem size must be a multiple of 128")
        self.n = n
        self.nnz_per_row = nnz_per_row
        self.niter = niter
        self.cg_iters = cg_iters
        self.shift = shift
        self.epsilon = epsilon
        self.seed = seed
        self._matrix = _make_spd_matrix(n, nnz_per_row, seed)
        self._blocks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _column_block(self, size: int, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays of this rank's column block (all ``n`` rows kept)."""
        key = (size, rank)
        if key not in self._blocks:
            nb = self.n // size
            block = self._matrix[:, rank * nb : (rank + 1) * nb].tocsr()
            arrays = (
                np.asarray(block.data, dtype=np.float64),
                np.asarray(block.indices),
                np.asarray(block.indptr),
            )
            for arr in arrays:  # read-only: traced ops may memoize them
                arr.setflags(write=False)
            self._blocks[key] = arrays
        return self._blocks[key]

    # ------------------------------------------------------------------
    def program(self, rank, size, comm, fp):
        """Power iteration with truncated-CG inner solves (NAS CG)."""
        self.check_nprocs(size, limit=self.n)
        if self.n % size:
            raise ConfigurationError(f"CG n={self.n} not divisible by {size} ranks")
        data, indices, indptr = self._column_block(size, rank)
        nb = self.n // size

        x = fp.asarray(np.ones(nb))
        zeta = fp.asarray(0.0)
        rnorm2 = fp.asarray(0.0)
        for _ in range(self.niter):
            z = fp.asarray(np.zeros(nb))
            r = x
            p_vec = x
            rho = yield from self._pdot(comm, fp, r, r)
            for _ in range(self.cg_iters):
                q = yield from self._matvec(comm, fp, rank, size, data, indices, indptr, p_vec)
                pq = yield from self._pdot(comm, fp, p_vec, q)
                alpha = fp.div(rho, pq)
                z = fp.add(z, fp.mul(alpha, p_vec))
                r = fp.sub(r, fp.mul(alpha, q))
                rho0 = rho
                rho = yield from self._pdot(comm, fp, r, r)
                beta = fp.div(rho, rho0)
                p_vec = fp.add(r, fp.mul(beta, p_vec))
            az = yield from self._matvec(comm, fp, rank, size, data, indices, indptr, z)
            diff = fp.sub(x, az)
            rnorm2 = yield from self._pdot(comm, fp, diff, diff)
            xz = yield from self._pdot(comm, fp, x, z)
            zeta = fp.add(self.shift, fp.div(1.0, xz))
            znorm2 = yield from self._pdot(comm, fp, z, z)
            inv_norm = fp.div(1.0, fp.sqrt(znorm2))
            x = fp.mul(z, inv_norm)
        if rank == 0:
            return self._as_output(
                zeta=zeta,
                rnorm=rnorm2.scalar_map(
                    lambda rn: math.sqrt(rn) if rn >= 0 else math.nan
                ),
            )
        return None

    # ------------------------------------------------------------------
    def _pdot(self, comm, fp, a, b):
        """Distributed dot product: local dot + allreduce."""
        local = fp.dot(a, b)
        total = yield comm.allreduce(local, op="sum")
        return total

    def _matvec(self, comm, fp, rank, size, data, indices, indptr, p_local):
        """Column-block matvec + recursive-halving reduce-scatter.

        Returns this rank's segment of ``q = A @ p``.  The combination
        adds of the halving stages are tagged parallel-unique: they have
        no counterpart in serial execution.
        """
        w = fp.csr_matvec(data, indices, indptr, p_local)  # full-length partial
        nb = self.n // size
        lo_b, hi_b = 0, size  # block range w currently covers
        step = size >> 1
        stage = 0
        while step >= 1:
            partner = rank ^ step
            mid_b = (lo_b + hi_b) // 2
            if rank & step:
                keep_lo, keep_hi = mid_b, hi_b
                give_lo, give_hi = lo_b, mid_b
            else:
                keep_lo, keep_hi = lo_b, mid_b
                give_lo, give_hi = mid_b, hi_b
            base = lo_b  # w[0] corresponds to block `lo_b`
            send_part = w[(give_lo - base) * nb : (give_hi - base) * nb]
            received = yield comm.sendrecv(partner, send_part, send_tag=100 + stage)
            kept = w[(keep_lo - base) * nb : (keep_hi - base) * nb]
            with fp.region(Region.PARALLEL_UNIQUE):
                w = fp.add(kept, received)
            lo_b, hi_b = keep_lo, keep_hi
            step >>= 1
            stage += 1
        return w

    # ------------------------------------------------------------------
    def verify(self, output, reference):
        """NAS-style check: zeta within epsilon of the accepted value."""
        got, ref = output["zeta"], reference["zeta"]
        if not (math.isfinite(got) and math.isfinite(ref)):
            return False
        return abs(got - ref) <= self.epsilon * max(abs(ref), 1.0)
