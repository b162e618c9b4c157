"""NPB FT: 3-D FFT spectral solver (paper's FT).

Numerics (as in NAS FT): an initial complex field is transformed to
frequency space once; each time step applies the analytic evolution
factor ``exp(-4 pi^2 alpha t |k|^2)`` and inverse-transforms to compute a
checksum.  All FFTs are radix-2: decimation-in-frequency forward and
decimation-in-time inverse with conjugate twiddles, so no bit-reversal
permutation is ever materialized (frequencies live in bit-reversed
order; the evolution-factor tables are built in that order).

Parallelization: the grid is block-distributed along z.  The x and y
transforms are local; the z transform runs its top ``log2(p)`` stages as
cross-rank *binary-exchange* butterflies (pairwise sendrecv of the whole
local block, then a vectorized butterfly), and the remaining stages
locally.  The cross-rank butterfly code exists only in the parallel
build — it is FT's **parallel-unique computation**, the analogue of the
NPB transpose machinery whose time share the paper's Table 1 reports as
the largest of all six benchmarks (10-18 %).

Verification: the per-step checksums (global sums of the field and of
its squared magnitude) must match the fault-free run within ``epsilon``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppSpec
from repro.errors import ConfigurationError
from repro.taint.region import Region
from repro.taint.tarray import TArray
from repro.utils.rng import spawn_rng

__all__ = ["FTApp"]


def _bitrev_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation of range(n) (n a power of two)."""
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _signed_freq(k: np.ndarray, n: int) -> np.ndarray:
    """Map frequency index to the signed frequency (NAS 'k-bar')."""
    return np.where(k > n // 2, k - n, k)


@dataclass
class _Complex:
    """A complex field as a (re, im) pair of TArrays."""

    re: TArray
    im: TArray

    def __getitem__(self, key) -> "_Complex":
        return _Complex(self.re[key], self.im[key])

    def reshape(self, *shape) -> "_Complex":
        return _Complex(self.re.reshape(*shape), self.im.reshape(*shape))

    def transpose(self, *axes) -> "_Complex":
        return _Complex(self.re.transpose(*axes), self.im.transpose(*axes))

    @staticmethod
    def concatenate(parts, axis=0) -> "_Complex":
        return _Complex(
            TArray.concatenate([p.re for p in parts], axis=axis),
            TArray.concatenate([p.im for p in parts], axis=axis),
        )

    @property
    def diverged(self) -> bool:
        return self.re.diverged or self.im.diverged


def _cadd(fp, a: _Complex, b: _Complex) -> _Complex:
    return _Complex(fp.add(a.re, b.re), fp.add(a.im, b.im))


def _csub(fp, a: _Complex, b: _Complex) -> _Complex:
    return _Complex(fp.sub(a.re, b.re), fp.sub(a.im, b.im))


def _cmul_const(fp, a: _Complex, wr: np.ndarray, wi: np.ndarray) -> _Complex:
    """Multiply a complex field by constant complex factors (4 mul + 2 add)."""
    re = fp.sub(fp.mul(a.re, wr), fp.mul(a.im, wi))
    im = fp.add(fp.mul(a.re, wi), fp.mul(a.im, wr))
    return _Complex(re, im)


class FTApp(AppSpec):
    """The FT benchmark.  See module docstring."""

    name = "ft"
    _memos = ("_local_tables", "_cross_tables")

    def __init__(
        self,
        shape: tuple[int, int, int] = (128, 16, 16),
        steps: int = 2,
        alpha: float = 1e-4,
        epsilon: float = 1e-9,
        seed: int = 4321,
    ):
        nz, ny, nx = shape
        for n, label in ((nz, "nz"), (ny, "ny"), (nx, "nx")):
            if n < 2 or (n & (n - 1)):
                raise ConfigurationError(f"FT {label}={n} must be a power of two >= 2")
        self.shape = (nz, ny, nx)
        self.steps = steps
        self.alpha = alpha
        self.epsilon = epsilon
        self.seed = seed
        rng = spawn_rng(seed, "ft-init")
        self._u0_re = rng.standard_normal(self.shape)
        self._u0_im = rng.standard_normal(self.shape)
        self._factor = self._evolution_factor()
        self._local_tables: dict[tuple[int, bool], list[tuple[np.ndarray, np.ndarray]]] = {}
        self._cross_tables: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # constant tables (setup, untraced)
    # ------------------------------------------------------------------
    def _evolution_factor(self) -> np.ndarray:
        """Per-point evolve factor, in the bit-reversed frequency layout."""
        nz, ny, nx = self.shape
        kz = _signed_freq(_bitrev_indices(nz), nz).astype(np.float64)
        ky = _signed_freq(_bitrev_indices(ny), ny).astype(np.float64)
        kx = _signed_freq(_bitrev_indices(nx), nx).astype(np.float64)
        k2 = (
            kz[:, None, None] ** 2
            + ky[None, :, None] ** 2
            + kx[None, None, :] ** 2
        )
        return np.exp(-4.0 * math.pi**2 * self.alpha * k2)

    def _stage_table(self, axis_len: int, inverse: bool) -> list[tuple[np.ndarray, np.ndarray]]:
        """DIF twiddles per local stage: stage with group G has W_G^h, h<G/2."""
        key = (axis_len, inverse)
        if key not in self._local_tables:
            tables = []
            g = axis_len
            while g >= 2:
                h = g // 2
                ang = -2.0 * math.pi * np.arange(h) / g
                if inverse:
                    ang = -ang
                tables.append((np.cos(ang), np.sin(ang)))
                g //= 2
            self._local_tables[key] = tables
        return self._local_tables[key]

    def _cross_table(self, size: int, rank: int, stage: int) -> tuple[np.ndarray, np.ndarray]:
        """Twiddles of cross-rank z stage ``stage`` for the upper partner.

        Exponent for local plane ``i``: ``((r mod (p/2^s)) - p/2^(s+1)) *
        n2 + i) * 2^s`` in units of ``W_nz`` (see DIF butterfly algebra).
        """
        key = (size, rank, stage)
        if key not in self._cross_tables:
            nz = self.shape[0]
            n2 = nz // size
            group_blocks = size >> stage
            half_blocks = group_blocks >> 1
            pos = (rank % group_blocks) - half_blocks
            exps = (pos * n2 + np.arange(n2)) * (1 << stage)
            ang = -2.0 * math.pi * exps / nz
            self._cross_tables[key] = (np.cos(ang), np.sin(ang))
        return self._cross_tables[key]

    # ------------------------------------------------------------------
    # FFT building blocks (traced)
    # ------------------------------------------------------------------
    def _fft_last_axis(self, fp, u: _Complex, axis_len: int, inverse: bool) -> _Complex:
        """Full local radix-2 transform along the last axis.

        Forward: DIF stages from the largest group down (natural in,
        bit-reversed out).  Inverse: the same stages in reverse order
        with conjugate twiddles (bit-reversed in, natural out; the 1/n
        scale is applied by the caller once for the 3-D transform).
        """
        tables = self._stage_table(axis_len, inverse)
        stages = list(enumerate(tables))
        if inverse:
            stages.reverse()
        lead = u.re.shape[:-1]
        for s, (wr, wi) in stages:
            g = axis_len >> s
            h = g // 2
            v = u.reshape(*lead, axis_len // g, g)
            a, b = v[..., :h], v[..., h:]
            if inverse:
                t = _cmul_const(fp, b, wr, wi)
                lower = _cadd(fp, a, t)
                upper = _csub(fp, a, t)
            else:
                lower = _cadd(fp, a, b)
                upper = _cmul_const(fp, _csub(fp, a, b), wr, wi)
            u = _Complex.concatenate([lower, upper], axis=-1).reshape(*lead, axis_len)
        return u

    def _fft_z(self, fp, comm, rank, size, u: _Complex, inverse: bool):
        """Distributed z transform: cross-rank binary exchange + local FFT.

        The cross-rank butterflies are parallel-unique computation.
        Generator (yields sendrecv requests).
        """
        nz = self.shape[0]
        n2 = nz // size
        n_cross = size.bit_length() - 1  # log2(p) cross-rank stages

        def cross_stage(u: _Complex, s: int, tag: int):
            """One cross-rank DIF/DIT butterfly stage (generator)."""
            partner = rank ^ (size >> (s + 1))
            upper = bool(rank & (size >> (s + 1)))
            # The twiddles belong to the upper half's positions; the lower
            # rank applying conj(W) to the partner's block in the inverse
            # butterfly must therefore use the partner's table.
            wr, wi = self._cross_table(size, rank if upper else partner, s)
            wr3, wi3 = wr[:, None, None], wi[:, None, None]
            if inverse:
                wi3 = -wi3  # conjugate twiddles
            payload = (u.re, u.im)
            theirs_re, theirs_im = yield comm.sendrecv(partner, payload, send_tag=tag)
            theirs = _Complex(theirs_re, theirs_im)
            with fp.region(Region.PARALLEL_UNIQUE):
                if inverse:
                    # t = (upper block) * conj(W); lower: mine + t, upper: theirs_lower - t
                    if upper:
                        t = _cmul_const(fp, u, wr3, wi3)
                        return _csub(fp, theirs, t)
                    t = _cmul_const(fp, theirs, wr3, wi3)
                    return _cadd(fp, u, t)
                if upper:
                    return _cmul_const(fp, _csub(fp, theirs, u), wr3, wi3)
                return _cadd(fp, u, theirs)

        if inverse:
            # local DIT stages first, then cross-rank stages in reverse
            u = self._fft_first_axis_local(fp, u, n2, inverse=True)
            for s in range(n_cross - 1, -1, -1):
                u = yield from cross_stage(u, s, tag=400 + s)
        else:
            for s in range(n_cross):
                u = yield from cross_stage(u, s, tag=300 + s)
            u = self._fft_first_axis_local(fp, u, n2, inverse=False)
        return u

    def _fft_first_axis_local(self, fp, u: _Complex, axis_len: int, inverse: bool) -> _Complex:
        """Local transform along axis 0 (via transpose to last axis)."""
        if axis_len == 1:
            return u
        v = u.transpose(1, 2, 0)
        v = self._fft_last_axis(fp, v, axis_len, inverse)
        return v.transpose(2, 0, 1)

    # ------------------------------------------------------------------
    def _fft3d(self, fp, comm, rank, size, u: _Complex, inverse: bool):
        """Distributed 3-D transform (generator)."""
        nz, ny, nx = self.shape
        if inverse:
            u = self._fft_last_axis(fp, u, nx, inverse=True)
            v = u.transpose(0, 2, 1)
            v = self._fft_last_axis(fp, v, ny, inverse=True)
            u = v.transpose(0, 2, 1)
            u = yield from self._fft_z(fp, comm, rank, size, u, inverse=True)
        else:
            u = yield from self._fft_z(fp, comm, rank, size, u, inverse=False)
            v = u.transpose(0, 2, 1)
            v = self._fft_last_axis(fp, v, ny, inverse=False)
            u = v.transpose(0, 2, 1)
            u = self._fft_last_axis(fp, u, nx, inverse=False)
        return u

    # ------------------------------------------------------------------
    def program(self, rank, size, comm, fp):
        """Forward 3-D FFT once, then evolve + inverse + checksum per step."""
        nz, ny, nx = self.shape
        self.check_nprocs(size, limit=nz)
        n2 = nz // size
        z0 = rank * n2
        u = _Complex(
            fp.asarray(self._u0_re[z0 : z0 + n2]),
            fp.asarray(self._u0_im[z0 : z0 + n2]),
        )
        u_hat = yield from self._fft3d(fp, comm, rank, size, u, inverse=False)
        factor = self._factor[z0 : z0 + n2]
        inv_scale = 1.0 / (nz * ny * nx)
        # Checksums stay TArrays: the runner flattens them to floats on
        # the scalar path, and reading .value here would collapse lane
        # batches every step.
        checksums = []
        for _ in range(self.steps):
            u_hat = _Complex(fp.mul(u_hat.re, factor), fp.mul(u_hat.im, factor))
            w = yield from self._fft3d(fp, comm, rank, size, u_hat, inverse=True)
            w = _Complex(fp.mul(w.re, inv_scale), fp.mul(w.im, inv_scale))
            s_re = fp.sum(w.re)
            s_im = fp.sum(w.im)
            s_mag = fp.add(fp.dot(w.re, w.re), fp.dot(w.im, w.im))
            tot_re = yield comm.allreduce(s_re, op="sum")
            tot_im = yield comm.allreduce(s_im, op="sum")
            tot_mag = yield comm.allreduce(s_mag, op="sum")
            checksums.extend([tot_re, tot_im, tot_mag])
        if rank == 0:
            return {f"checksum_{i}": c for i, c in enumerate(checksums)}
        return None

    # ------------------------------------------------------------------
    def verify(self, output, reference):
        """NAS-style check: every per-step checksum within epsilon."""
        for key, ref in reference.items():
            got = output.get(key)
            if got is None or not (math.isfinite(got) and math.isfinite(ref)):
                return False
            if abs(got - ref) > self.epsilon * max(abs(ref), 1.0):
                return False
        return True
