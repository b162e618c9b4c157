"""MiniFE: finite-element stiffness assembly plus a CG solve.

Numerics (as in Mantevo MiniFE): trilinear hexahedral elements on a
structured brick mesh, one Laplace stiffness matrix assembled from
per-element contributions (reference element matrix from 2-point Gauss
quadrature, scaled by a per-element material coefficient), then a fixed
number of conjugate-gradient iterations on ``A x = b``.  The mesh is
periodic along z so that every rank owns the same amount of work (the
paper's assumption that all MPI processes perform the same
computation).

Parallelization (as in MiniFE): nodes are partitioned into z slabs;
each rank assembles the rows it owns from its own element layers.  The
top element layer also produces contributions to the *next* rank's
bottom node plane; those are packed, sent, and **merged into the
receiver's rows** — that ghost-contribution merge exists only in
parallel execution and is MiniFE's parallel-unique computation (paper
Table 1 reports a small share that shrinks as the mesh grows).  The CG
matvec exchanges single halo node-planes with both z neighbours.

Verification (as in MiniFE): the final residual norm must stay within a
small factor of the fault-free residual — a genuinely self-validating
checker, so outputs that differ from the reference can still "pass the
application checkers" (paper §2).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.apps.base import AppSpec
from repro.errors import ConfigurationError
from repro.taint.region import Region
from repro.taint.tarray import TArray
from repro.utils.rng import spawn_rng

__all__ = ["MiniFEApp"]


def _hex_stiffness() -> np.ndarray:
    """8x8 trilinear hexahedron Laplace stiffness (2-point Gauss rule)."""
    gauss = np.array([-1.0, 1.0]) / math.sqrt(3.0)
    corners = np.array(
        [[sz, sy, sx] for sz in (0, 1) for sy in (0, 1) for sx in (0, 1)],
        dtype=np.float64,
    )
    k = np.zeros((8, 8))
    for gz in gauss:
        for gy in gauss:
            for gx in gauss:
                # gradients of the 8 trilinear shape functions at (gz,gy,gx)
                pt = np.array([gz, gy, gx])
                grads = np.empty((8, 3))
                for a in range(8):
                    signs = 2.0 * corners[a] - 1.0  # map {0,1} -> {-1,+1}
                    vals = 0.5 * (1.0 + signs * pt)
                    for d in range(3):
                        g = 0.5 * signs[d]
                        for o in range(3):
                            if o != d:
                                g *= vals[o]
                        grads[a, d] = g
                k += grads @ grads.T
    return k  # weights are 1 for the 2-point rule; unit jacobian


class MiniFEApp(AppSpec):
    """The MiniFE benchmark.  See module docstring."""

    name = "minife"
    _memos = ("_rank_data",)

    def __init__(
        self,
        nz: int = 64,
        ny: int = 6,
        nx: int = 6,
        cg_iters: int = 10,
        accept_factor: float = 5.0,
        xnorm_rtol: float = 1e-7,
        seed: int = 2468,
    ):
        if nz & (nz - 1):
            raise ConfigurationError(f"MiniFE nz={nz} must be a power of two")
        self.nz, self.ny, self.nx = nz, ny, nx
        self.cg_iters = cg_iters
        self.accept_factor = accept_factor
        self.xnorm_rtol = xnorm_rtol
        self.seed = seed

        self._plane = ny * nx
        n_nodes = nz * self._plane
        rng = spawn_rng(seed, "minife")
        self._coef = rng.uniform(0.5, 2.0, size=(nz, ny - 1, nx - 1))
        b = rng.standard_normal(n_nodes)
        self._b = b - b.mean()  # orthogonal to the periodic nullspace
        self._kref = _hex_stiffness()
        self._pattern = self._build_pattern()
        self._rank_data: dict[tuple[int, int], dict] = {}

    # ------------------------------------------------------------------
    # mesh / pattern construction (setup, untraced)
    # ------------------------------------------------------------------
    def _node_id(self, z, y, x):
        return (z % self.nz) * self._plane + y * self.nx + x

    def _element_nodes(self, ez: np.ndarray, ey: np.ndarray, ex: np.ndarray) -> np.ndarray:
        """Global node ids of each element's 8 corners, shape (nelem, 8)."""
        out = np.empty((ez.size, 8), dtype=np.int64)
        c = 0
        for dz in (0, 1):
            for dy in (0, 1):
                for dx in (0, 1):
                    out[:, c] = self._node_id(ez + dz, ey + dy, ex + dx)
                    c += 1
        return out

    def _all_elements(self):
        ez, ey, ex = np.meshgrid(
            np.arange(self.nz), np.arange(self.ny - 1), np.arange(self.nx - 1),
            indexing="ij",
        )
        return ez.ravel(), ey.ravel(), ex.ravel()

    def _build_pattern(self) -> sp.csr_matrix:
        ez, ey, ex = self._all_elements()
        nodes = self._element_nodes(ez, ey, ex)  # (nelem, 8)
        gi = np.repeat(nodes, 8, axis=1).ravel()
        gj = np.tile(nodes, (1, 8)).ravel()
        n = self.nz * self._plane
        pat = sp.coo_matrix((np.ones(gi.size), (gi, gj)), shape=(n, n)).tocsr()
        pat.sum_duplicates()
        pat.sort_indices()
        return pat

    def _slot_of(self, gi: np.ndarray, gj: np.ndarray) -> np.ndarray:
        """CSR data index of each (row, col) pair in the global pattern.

        Vectorized via the row-major key trick: CSR entries sorted by
        (row, col) are exactly the sorted sequence of ``row * n + col``.
        """
        n = self._pattern.shape[0]
        rows = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self._pattern.indptr)
        )
        pattern_keys = rows * n + self._pattern.indices
        return np.searchsorted(pattern_keys, gi.astype(np.int64) * n + gj)

    # ------------------------------------------------------------------
    def _setup_rank(self, size: int, rank: int) -> dict:
        """Per-rank constant assembly/solve data (cached)."""
        key = (size, rank)
        if key in self._rank_data:
            return self._rank_data[key]
        nz, plane = self.nz, self._plane
        nloc_z = nz // size
        z0 = rank * nloc_z
        r0, r1 = z0 * plane, (z0 + nloc_z) * plane
        indptr, indices = self._pattern.indptr, self._pattern.indices

        # --- assembly: contributions of this rank's element layers
        ez, ey, ex = np.meshgrid(
            np.arange(z0, z0 + nloc_z), np.arange(self.ny - 1), np.arange(self.nx - 1),
            indexing="ij",
        )
        ez, ey, ex = ez.ravel(), ey.ravel(), ex.ravel()
        nodes = self._element_nodes(ez, ey, ex)
        elem_idx = np.arange(ez.size)
        gi = np.repeat(nodes, 8, axis=1).ravel()
        gj = np.tile(nodes, (1, 8)).ravel()
        kvals = np.tile(self._kref.ravel(), ez.size)
        celem = np.repeat(elem_idx, 64)
        slots = self._slot_of(gi, gj)
        owned = (gi >= r0) & (gi < r1)

        # owned contributions: sort by slot, build segment boundaries per
        # local slot (local slot = global slot - indptr[r0])
        base = indptr[r0]
        nnz_local = indptr[r1] - base
        o_slots = slots[owned] - base
        order = np.argsort(o_slots, kind="stable")
        o_slots, o_elem, o_kv = o_slots[order], celem[owned][order], kvals[owned][order]
        seg_indptr = np.searchsorted(o_slots, np.arange(nnz_local + 1))

        # ghost contributions: rows of the next rank's first plane
        next_rank = (rank + 1) % size
        nr0 = ((z0 + nloc_z) % nz) * plane
        g_rows_lo, g_rows_hi = nr0, nr0 + plane
        ghost = (gi >= g_rows_lo) & (gi < g_rows_hi) & ~owned if size > 1 else np.zeros(gi.size, bool)
        nbase = indptr[nr0]
        prefix_nnz = indptr[nr0 + plane] - nbase
        gh_slots = slots[ghost] - nbase
        gorder = np.argsort(gh_slots, kind="stable")
        gh_slots, gh_elem, gh_kv = gh_slots[gorder], celem[ghost][gorder], kvals[ghost][gorder]
        gh_unique, gh_starts = np.unique(gh_slots, return_index=True)
        gh_indptr = np.append(gh_starts, gh_slots.size)

        # --- solve: remap local CSR columns into the extended vector
        # layout [prev plane | own rows | next plane]
        l_indptr = indptr[r0 : r1 + 1] - base
        l_cols = indices[base : indptr[r1]].copy()
        prev_lo = ((z0 - 1) % nz) * plane
        next_lo = ((z0 + nloc_z) % nz) * plane
        nloc = r1 - r0
        remap = np.empty_like(l_cols)
        in_own = (l_cols >= r0) & (l_cols < r1)
        in_prev = (l_cols >= prev_lo) & (l_cols < prev_lo + plane)
        in_next = (l_cols >= next_lo) & (l_cols < next_lo + plane)
        if not np.all(in_own | in_prev | in_next):
            raise ConfigurationError(
                "MiniFE slab too thin: matrix couples non-adjacent planes"
            )
        remap[in_own] = l_cols[in_own] - r0 + plane
        remap[in_prev] = l_cols[in_prev] - prev_lo
        remap[in_next] = l_cols[in_next] - next_lo + plane + nloc
        # when nloc_z == 1 and size == 2, prev and next planes coincide
        # with each other only if size == 1; handled by the same remap.

        data = {
            "z0": z0, "nloc": nloc, "plane": plane,
            "o_elem": o_elem, "o_kv": o_kv, "seg_indptr": seg_indptr,
            "gh_elem": gh_elem, "gh_kv": gh_kv, "gh_indptr": gh_indptr,
            "gh_positions": gh_unique, "prefix_nnz": int(prefix_nnz),
            "l_indptr": l_indptr, "l_cols_ext": remap,
            "coef_local": self._coef[z0 : z0 + nloc_z].ravel(),
            "b_local": self._b[r0:r1],
        }
        self._rank_data[key] = data
        return data

    # ------------------------------------------------------------------
    def program(self, rank, size, comm, fp):
        """Traced FE assembly (with ghost merge), then a fixed-iteration CG solve."""
        self.check_nprocs(size, limit=self.nz)
        d = self._setup_rank(size, rank)
        plane, nloc = d["plane"], d["nloc"]

        # ---------------- assembly (traced) ----------------
        coef = fp.asarray(d["coef_local"])
        own_contrib = fp.mul(coef[d["o_elem"]], d["o_kv"])
        data = fp.segment_sum(own_contrib, d["seg_indptr"])
        if size > 1:
            ghost_contrib = fp.mul(coef[d["gh_elem"]], d["gh_kv"])
            ghost_sums = fp.segment_sum(ghost_contrib, d["gh_indptr"])
            ghost_dense = TArray.scatter(ghost_sums, d["gh_positions"], d["prefix_nnz"])
            received = yield comm.sendrecv(
                (rank + 1) % size, ghost_dense, source=(rank - 1) % size, send_tag=810,
            )
            with fp.region(Region.PARALLEL_UNIQUE):
                merged = fp.add(data[: received.size], received)
            data = TArray.concatenate([merged, data[received.size :]])

        # ---------------- CG solve (traced) ----------------
        b = fp.asarray(d["b_local"])
        x = fp.asarray(np.zeros(nloc))
        r = b
        p_vec = r
        rho = yield from self._pdot(comm, fp, r, r)
        for _ in range(self.cg_iters):
            q = yield from self._matvec(comm, fp, rank, size, d, data, p_vec)
            pq = yield from self._pdot(comm, fp, p_vec, q)
            alpha = fp.div(rho, pq)
            x = fp.add(x, fp.mul(alpha, p_vec))
            r = fp.sub(r, fp.mul(alpha, q))
            rho0 = rho
            rho = yield from self._pdot(comm, fp, r, r)
            beta = fp.div(rho, rho0)
            p_vec = fp.add(r, fp.mul(beta, p_vec))
        rnorm2 = yield from self._pdot(comm, fp, r, r)
        xnorm2 = yield from self._pdot(comm, fp, x, x)
        if rank == 0:
            guarded_sqrt = lambda v: math.sqrt(v) if v >= 0 else math.nan
            return self._as_output(
                rnorm=rnorm2.scalar_map(guarded_sqrt),
                xnorm=xnorm2.scalar_map(guarded_sqrt),
            )
        return None

    # ------------------------------------------------------------------
    def _pdot(self, comm, fp, a, b):
        local = fp.dot(a, b)
        total = yield comm.allreduce(local, op="sum")
        return total

    def _matvec(self, comm, fp, rank, size, d, data, x):
        """y = A x with halo exchange of single node planes (generator)."""
        plane = d["plane"]
        if size == 1:
            prev_plane = x[-plane:]
            next_plane = x[:plane]
        else:
            # send my top plane downstream, receive my predecessor's top
            prev_plane = yield comm.sendrecv(
                (rank + 1) % size, x[-plane:], source=(rank - 1) % size, send_tag=820,
            )
            # send my bottom plane upstream, receive my successor's bottom
            next_plane = yield comm.sendrecv(
                (rank - 1) % size, x[:plane], source=(rank + 1) % size, send_tag=821,
            )
        x_ext = TArray.concatenate([prev_plane, x, next_plane])
        return fp.csr_matvec(data, d["l_cols_ext"], d["l_indptr"], x_ext)

    # ------------------------------------------------------------------
    def verify(self, output, reference):
        """MiniFE-style check: converged residual plus a sane solution norm."""
        got, ref = output["rnorm"], reference["rnorm"]
        xn, xref = output["xnorm"], reference["xnorm"]
        if not (math.isfinite(got) and math.isfinite(xn)):
            return False
        if got > self.accept_factor * max(ref, 1e-300):
            return False
        return abs(xn - xref) <= self.xnorm_rtol * max(abs(xref), 1.0)
