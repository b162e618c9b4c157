"""CG benchmark: numerics vs scipy, scale consistency, fault behaviour."""

import pickle

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.apps.cg import CGApp, _make_spd_matrix
from repro.errors import ConfigurationError
from repro.fi import Deployment, run_campaign
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim import execute_spmd
from repro.taint.ops import _csr_layout
from repro.taint.region import Region


@pytest.fixture(scope="module")
def app():
    return CGApp(n=128, nnz_per_row=16, niter=1, cg_iters=6)


class TestMatrix:
    def test_spd(self):
        m = _make_spd_matrix(64, 8, seed=1)
        dense = m.toarray()
        np.testing.assert_allclose(dense, dense.T)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > 0

    def test_deterministic(self):
        a = _make_spd_matrix(32, 8, seed=5)
        b = _make_spd_matrix(32, 8, seed=5)
        assert (a != b).nnz == 0


class TestNumerics:
    def test_zeta_against_scipy_inverse(self, app):
        """zeta = shift + 1/(x . A^-1 x) after convergence (approx)."""
        out = app.reference_output(1)
        m = app._matrix
        x = np.ones(app.n)
        z = spla.spsolve(m.tocsc(), x)
        # one power iteration with exact solve:
        zeta_exact = app.shift + 1.0 / (x @ z)
        # our inner CG is truncated, so compare loosely
        assert out["zeta"] == pytest.approx(zeta_exact, rel=0.05)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_parallel_matches_serial_exactly(self, app, p):
        serial = app.reference_output(1)
        par = app.reference_output(p)
        assert par["zeta"] == pytest.approx(serial["zeta"], abs=1e-12)

    def test_residual_small(self, app):
        out = app.reference_output(1)
        assert out["rnorm"] < 1e-2


class TestPickle:
    def test_column_blocks_stay_out_of_the_pickle(self, app):
        app.reference_output(4)                  # fills the block memo
        assert app._blocks
        blob = pickle.dumps(app)
        assert b"_blocks" not in blob
        worker = pickle.loads(blob)
        assert worker._blocks == {}
        _, _, indptr = worker._column_block(4, 0)
        # a worker's own blocks are read-only bases: layouts are cached
        assert indptr.base is None and not indptr.flags.writeable
        assert _csr_layout(indptr)[1] is _csr_layout(indptr)[1]
        assert worker.reference_output(4) == app.reference_output(4)


class TestStructure:
    def test_serial_has_no_parallel_unique(self, app):
        tracer = Tracer(TracerMode.PROFILE)
        execute_spmd(app.program, 1, sink=tracer)
        assert tracer.profile.parallel_unique_fraction() == 0.0

    def test_parallel_unique_grows_with_scale(self, app):
        fracs = []
        for p in (2, 4, 8):
            tracer = Tracer(TracerMode.PROFILE)
            execute_spmd(app.program, p, sink=tracer)
            fracs.append(tracer.profile.parallel_unique_fraction())
        assert 0 < fracs[0] < fracs[1] < fracs[2]

    def test_all_ranks_do_same_work(self, app):
        """Ranks differ only through the random sparsity of their column
        blocks (paper assumption 2: same computation on every process)."""
        tracer = Tracer(TracerMode.PROFILE)
        execute_spmd(app.program, 4, sink=tracer)
        counts = [tracer.profile.candidates(r) for r in range(4)]
        assert max(counts) - min(counts) <= 0.2 * max(counts)

    def test_invalid_nprocs(self, app):
        with pytest.raises(ConfigurationError):
            app.reference_output(3)

    def test_n_must_be_multiple_of_128(self):
        with pytest.raises(ConfigurationError):
            CGApp(n=100)


class TestFaultInjection:
    def test_campaign_smoke(self, app):
        res = run_campaign(app, Deployment(nprocs=4, trials=25, seed=1))
        assert res.n_trials == 25
        assert res.success_rate + res.sdc_rate + res.failure_rate == pytest.approx(1.0)
        assert res.activation_rate() > 0.9

    def test_unique_region_injection(self, app):
        dep = Deployment(nprocs=4, trials=10, region=Region.PARALLEL_UNIQUE, seed=2)
        res = run_campaign(app, dep)
        assert res.n_trials == 10

    def test_verify_tolerance(self, app):
        ref = {"zeta": 10.0, "rnorm": 0.0}
        assert app.verify({"zeta": 10.0 + 1e-12, "rnorm": 0.0}, ref)
        assert not app.verify({"zeta": 10.1, "rnorm": 0.0}, ref)
        assert not app.verify({"zeta": float("nan"), "rnorm": 0.0}, ref)
