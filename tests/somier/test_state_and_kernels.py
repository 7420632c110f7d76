"""Unit tests for Somier state, kernels and physics invariants."""

import numpy as np
import pytest

from repro.device.views import GlobalView
from repro.somier.config import SomierConfig
from repro.somier import kernels as somier_kernels
from repro.somier.kernels import (accelerations_body, forces_body,
                                  make_kernels, positions_body,
                                  velocities_body)
from repro.somier.state import GRID_NAMES, SomierState


@pytest.fixture
def cfg():
    return SomierConfig(n=10, steps=2)


@pytest.fixture
def state(cfg):
    return SomierState(cfg)


def host_env(state):
    env = dict(state.grids)
    env["partials"] = state.partials
    return env


class TestConfig:
    def test_loop_bounds(self, cfg):
        assert cfg.loop_lo == 1 and cfg.loop_hi == 9

    def test_byte_accounting(self):
        cfg = SomierConfig(n=1200, steps=31)
        # the paper's 154.5 GB: 8 bytes x 1200^3 x 3 x 4
        assert cfg.total_bytes == 8 * 1200 ** 3 * 3 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SomierConfig(n=3)
        with pytest.raises(ValueError):
            SomierConfig(steps=0)
        with pytest.raises(ValueError):
            SomierConfig(dt=-1.0)


class TestState:
    def test_twelve_grids(self, state):
        assert len(state.grids) == 12
        assert set(state.grids) == set(GRID_NAMES)
        for arr in state.grids.values():
            assert arr.shape == (10, 10, 10)

    def test_lattice_initialization(self, state, cfg):
        px = state.grids["pos_x"]
        assert px[3, 0, 0] == pytest.approx(3 * cfg.spacing)
        py = state.grids["pos_y"]
        assert py[0, 7, 0] == pytest.approx(7 * cfg.spacing)

    def test_perturbation_vanishes_at_boundary(self, state):
        pz = state.grids["pos_z"]
        idx = np.arange(10) * state.config.spacing
        assert np.allclose(pz[0], idx[None, :] * 0 + idx[None, :].T * 0
                           + idx[None, :] * 0 + pz[0])
        # boundary planes must be the unperturbed lattice
        assert np.allclose(pz[0, :, :], np.broadcast_to(idx, (10, 10)))
        assert np.allclose(pz[-1, :, :], np.broadcast_to(idx, (10, 10)))

    def test_interior_is_perturbed(self, state):
        pz = state.grids["pos_z"]
        idx = np.arange(10) * state.config.spacing
        assert not np.allclose(pz[5, :, :], np.broadcast_to(idx, (10, 10)))

    def test_copy_is_independent(self, state):
        clone = state.copy()
        clone.grids["pos_x"][2, 2, 2] = 999.0
        assert state.grids["pos_x"][2, 2, 2] != 999.0

    def test_snapshot_contains_all(self, state):
        snap = state.snapshot()
        assert set(snap) == set(GRID_NAMES) | {"partials"}


class TestKernels:
    def test_forces_zero_at_rest_without_perturbation(self):
        cfg = SomierConfig(n=8, steps=1, amplitude=0.0)
        state = SomierState(cfg)
        kernels = make_kernels(cfg)
        env = host_env(state)
        kernels.forces.run(1, 7, env)
        assert np.allclose(state.grids["force_x"], 0.0)
        assert np.allclose(state.grids["force_y"], 0.0)
        assert np.allclose(state.grids["force_z"], 0.0)

    def test_forces_pull_perturbed_node_back(self):
        cfg = SomierConfig(n=8, steps=1, amplitude=0.0)
        state = SomierState(cfg)
        state.grids["pos_z"][4, 4, 4] += 0.2  # displaced upward
        kernels = make_kernels(cfg)
        kernels.forces.run(1, 7, host_env(state))
        assert state.grids["force_z"][4, 4, 4] < 0  # restoring force

    def test_forces_symmetric_on_neighbours(self):
        cfg = SomierConfig(n=8, steps=1, amplitude=0.0)
        state = SomierState(cfg)
        state.grids["pos_z"][4, 4, 4] += 0.2
        kernels = make_kernels(cfg)
        kernels.forces.run(1, 7, host_env(state))
        fz = state.grids["force_z"]
        # the two axis-0 neighbours feel equal upward pulls
        assert fz[3, 4, 4] == pytest.approx(fz[5, 4, 4])
        assert fz[3, 4, 4] > 0

    def test_pointwise_chain(self):
        cfg = SomierConfig(n=8, steps=1)
        state = SomierState(cfg)
        env = host_env(state)
        kernels = make_kernels(cfg)
        state.grids["force_x"][2] = 4.0
        kernels.accelerations.run(2, 3, env)
        assert np.allclose(state.grids["acc_x"][2], 4.0 / cfg.mass)
        kernels.velocities.run(2, 3, env)
        assert np.allclose(state.grids["vel_x"][2], cfg.dt * 4.0 / cfg.mass)
        before = state.grids["pos_x"][2].copy()
        kernels.positions.run(2, 3, env)
        assert np.allclose(state.grids["pos_x"][2] - before,
                           cfg.dt * state.grids["vel_x"][2])

    def test_centers_row_sums(self):
        cfg = SomierConfig(n=8, steps=1)
        state = SomierState(cfg)
        kernels = make_kernels(cfg)
        kernels.centers.run(1, 7, host_env(state))
        for i in range(1, 7):
            assert state.partials[i, 0] == pytest.approx(
                state.grids["pos_x"][i].sum())
        assert np.all(state.partials[0] == 0.0)

    def test_reduce_centers_normalizes(self):
        cfg = SomierConfig(n=8, steps=1, amplitude=0.0)
        state = SomierState(cfg)
        kernels = make_kernels(cfg)
        kernels.centers.run(1, 7, host_env(state))
        centers = state.reduce_centers()
        # at rest, the x-center over interior rows is the mean row coord
        assert centers[0] == pytest.approx(np.arange(1, 7).mean()
                                           * 8 ** 2 / 8 ** 2)

    def test_kernel_order(self):
        kernels = make_kernels(SomierConfig(n=8, steps=1))
        names = [k.name for k in kernels.in_order()]
        assert names == ["forces", "accelerations", "velocities",
                         "positions", "centers"]

    def test_work_weights(self):
        kernels = make_kernels(SomierConfig(n=8, steps=1))
        assert kernels.forces.work_per_iter == 6.0 * 64
        assert kernels.positions.work_per_iter == 1.0 * 64


#: Neighbour offsets of the 6 axis springs, in the order the reference sums.
_NEIGHBOURS = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0),
               (0, 0, -1), (0, 0, 1))


def reference_forces_body(lo, hi, env):
    """The six-neighbour forces stencil: every spring is evaluated twice,
    once from each end.  ``forces_body`` must match it bit for bit."""
    n = env["N"]
    k_spring = env["K_spring"]
    rest = env["L0"]
    px, py, pz = env["pos_x"], env["pos_y"], env["pos_z"]
    fx, fy, fz = env["force_x"], env["force_y"], env["force_z"]

    fx[lo:hi] = 0.0
    fy[lo:hi] = 0.0
    fz[lo:hi] = 0.0

    cx = px[lo:hi, 1:n - 1, 1:n - 1]
    cy = py[lo:hi, 1:n - 1, 1:n - 1]
    cz = pz[lo:hi, 1:n - 1, 1:n - 1]
    acc_x = np.zeros_like(cx)
    acc_y = np.zeros_like(cy)
    acc_z = np.zeros_like(cz)
    for di, dj, dk in _NEIGHBOURS:
        qx = px[lo + di:hi + di, 1 + dj:n - 1 + dj, 1 + dk:n - 1 + dk]
        qy = py[lo + di:hi + di, 1 + dj:n - 1 + dj, 1 + dk:n - 1 + dk]
        qz = pz[lo + di:hi + di, 1 + dj:n - 1 + dj, 1 + dk:n - 1 + dk]
        dx = qx - cx
        dy = qy - cy
        dz = qz - cz
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        coef = k_spring * (1.0 - rest / dist)
        acc_x += coef * dx
        acc_y += coef * dy
        acc_z += coef * dz
    fx[lo:hi, 1:n - 1, 1:n - 1] = acc_x
    fy[lo:hi, 1:n - 1, 1:n - 1] = acc_y
    fz[lo:hi, 1:n - 1, 1:n - 1] = acc_z


FORCES = ("force_x", "force_y", "force_z")
POSITIONS = ("pos_x", "pos_y", "pos_z")


def forces_env(n, seed):
    """Positions and scalars of an n-grid; seed None keeps the initial
    lattice (exact zeros in the x/y spring components), otherwise every
    position is jittered."""
    cfg = SomierConfig(n=n, steps=1)
    lattice = SomierState(cfg).grids
    env = dict(make_kernels(cfg).forces.scalars)
    for name in POSITIONS:
        env[name] = lattice[name]
        if seed is not None:
            rng = np.random.default_rng([seed, n, POSITIONS.index(name)])
            env[name] = env[name] + rng.uniform(-0.2, 0.2, (n, n, n))
    for name in FORCES:
        env[name] = np.full((n, n, n), np.nan)
    return env


def chunks(n):
    return [(1, 2), (n - 2, n - 1), (n // 3, 2 * n // 3)]


class TestForcesOracle:
    """``forces_body`` evaluates each spring once; the forces must still be
    byte-equal to the six-neighbour reference on every chunk shape."""

    @pytest.mark.parametrize("n", [8, 24, 96])
    @pytest.mark.parametrize("seed", [None, 7])
    def test_host_arrays(self, n, seed):
        env = forces_env(n, seed)
        ref = dict(env, **{f: env[f].copy() for f in FORCES})
        for lo, hi in chunks(n):
            forces_body(lo, hi, env)
            reference_forces_body(lo, hi, ref)
            for name in FORCES:
                assert env[name].tobytes() == ref[name].tobytes(), (
                    name, lo, hi)

    @pytest.mark.parametrize("n", [8, 24, 96])
    @pytest.mark.parametrize("seed", [None, 7])
    def test_global_view_halo_sections(self, n, seed):
        """The device layout: positions mapped with one halo row on each
        side of the chunk, forces mapped over the chunk only."""
        env = forces_env(n, seed)
        for lo, hi in chunks(n):
            ref = dict(env, **{f: env[f].copy() for f in FORCES})
            reference_forces_body(lo, hi, ref)
            dev = dict(env)
            for name in POSITIONS:
                dev[name] = GlobalView(env[name][lo - 1:hi + 1].copy(),
                                       lo - 1, name)
            for name in FORCES:
                dev[name] = GlobalView(np.full((hi - lo, n, n), np.nan),
                                       lo, name)
            forces_body(lo, hi, dev)
            for name in FORCES:
                assert (dev[name].local().tobytes()
                        == ref[name][lo:hi].tobytes()), (name, lo, hi)


class TestForcesBlocks:
    """``forces_body`` walks its rows in blocks; the forces must be
    byte-equal to one block over all rows, across block boundaries."""

    @pytest.mark.parametrize("n,rows", [(96, None), (96, 1), (24, 1),
                                        (24, 2), (24, 5)])
    @pytest.mark.parametrize("seed", [None, 7])
    def test_blocked_equals_one_block(self, monkeypatch, n, rows, seed):
        cells = somier_kernels._FORCES_BLOCK_CELLS
        if rows is not None:
            cells = rows * (n - 2) ** 2
        assert cells // (n - 2) ** 2 < n - 2  # more than one block
        env = forces_env(n, seed)
        for lo, hi in [(1, n - 1)] + chunks(n):
            monkeypatch.setattr(somier_kernels, "_FORCES_BLOCK_CELLS", cells)
            blocked = dict(env, **{f: env[f].copy() for f in FORCES})
            forces_body(lo, hi, blocked)
            monkeypatch.setattr(somier_kernels, "_FORCES_BLOCK_CELLS",
                                n ** 3)
            whole = dict(env, **{f: env[f].copy() for f in FORCES})
            forces_body(lo, hi, whole)
            for name in FORCES:
                assert blocked[name].tobytes() == whole[name].tobytes(), (
                    name, lo, hi)


def signed_zero_data(rng, shape):
    """Normal samples with a tenth of the cells +0.0 and a tenth -0.0."""
    x = rng.standard_normal(shape)
    pick = rng.random(shape)
    x[pick < 0.1] = 0.0
    x[pick > 0.9] = -0.0
    return x


class TestPointwiseInPlace:
    """The pointwise bodies update in place; every row they cover must be
    byte-equal to the ``x = x + dt * y`` forms they replace, signed zeros
    included, and every other row untouched."""

    @pytest.mark.parametrize("dt", [1e-3, 0.0, -0.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_out_of_place_forms(self, dt, seed):
        rng = np.random.default_rng(seed)
        n, lo, hi = 12, 3, 9
        env = {"mass": 1.5, "dt": dt}
        for kind in ("force", "acc", "vel", "pos"):
            for c in "xyz":
                env[f"{kind}_{c}"] = signed_zero_data(rng, (n, n, n))
        ref = {k: (v.copy() if isinstance(v, np.ndarray) else v)
               for k, v in env.items()}
        inv_mass = 1.0 / ref["mass"]
        for c in "xyz":
            ref[f"acc_{c}"][lo:hi] = ref[f"force_{c}"][lo:hi] * inv_mass
        for c in "xyz":
            ref[f"vel_{c}"][lo:hi] = (ref[f"vel_{c}"][lo:hi]
                                      + dt * ref[f"acc_{c}"][lo:hi])
        for c in "xyz":
            ref[f"pos_{c}"][lo:hi] = (ref[f"pos_{c}"][lo:hi]
                                      + dt * ref[f"vel_{c}"][lo:hi])
        for body in (accelerations_body, velocities_body, positions_body):
            body(lo, hi, env)
        for name, want in ref.items():
            if isinstance(want, np.ndarray):
                assert env[name].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("block_rows", [1, 4, 6, 100])
    @pytest.mark.parametrize("dt", [1e-3, -0.0])
    def test_row_blocks_match_the_whole_chunk_forms(self, monkeypatch,
                                                    block_rows, dt):
        """Row blocks of any size (one row, a ragged last block, the whole
        chunk) over a device view give the bytes of the whole-chunk
        ``x += dt * y`` forms the blocked bodies replace."""
        n, offset, lo, hi = 10, 2, 3, 9
        monkeypatch.setattr(somier_kernels, "_FORCES_BLOCK_CELLS",
                            block_rows * n * n)
        rng = np.random.default_rng(block_rows)
        host = {f"{kind}_{c}": signed_zero_data(rng, (n, n, n))
                for kind in ("acc", "vel", "pos") for c in "xyz"}
        ref = {k: v.copy() for k, v in host.items()}
        for out, src in (("vel", "acc"), ("pos", "vel")):
            for c in "xyz":
                x = ref[f"{out}_{c}"][lo:hi]
                x += dt * ref[f"{src}_{c}"][lo:hi]
        env = {"dt": dt}
        env.update({k: GlobalView(v[offset:], offset, k)
                    for k, v in host.items()})
        velocities_body(lo, hi, env)
        positions_body(lo, hi, env)
        for name, want in ref.items():
            assert host[name].tobytes() == want.tobytes(), name
