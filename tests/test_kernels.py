"""Golden-equivalence suite for :mod:`repro.kernels`.

Every kernel is checked vectorized-vs-reference on randomized inputs —
property-style: many seeded draws covering varying net degrees, designs
with macros/blockages, empty and single-pin nets, cells clamped at the
die boundary, and adversarial cost maps for the maze.  Tolerances: map
kernels agree to ``allclose(rtol=1e-9, atol=1e-9)`` (the backends sum
the same terms in different orders); the maze agrees on path *cost* to
``1e-6`` relative (ties may break to a different equal-cost path).
The compiled ``native`` maze is pinned *bit-identical* to the vectorized
one: same cells, and the same routed result through the router and an
ECO reroute.  The compiled detour expansion is pinned bit-identical to
the reference loop, and the vectorized pin-congestion path search
exactly equal to its loop, down to the padding and positions of a
whole PUFFER run.
"""

from __future__ import annotations

import copy
import os
import subprocess

import numpy as np
import pytest

from repro import kernels, obs
from repro.benchgen import GeneratorSpec, generate_design
from repro.core.congestion import CongestionEstimator
from repro.core.demand import accumulate_demand, build_topologies
from repro.core.rudy import rudy_maps
from repro.kernels import native
from repro.netlist import DesignBuilder, Rect, Technology
from repro.placer.density import ElectrostaticDensity
from repro.placer.params import PlacementParams
from repro.router import GlobalRouter, reroute_nets
from repro.router.grid import build_grid
from repro.router.maze import maze_route

MAPS_TOL = dict(rtol=1e-9, atol=1e-9)


def both_backends(fn, first="reference", second="vectorized"):
    """Evaluate ``fn()`` under two backends; returns (first, second)."""
    with kernels.using(first):
        ref = fn()
    with kernels.using(second):
        vec = fn()
    return ref, vec


# ----------------------------------------------------------------------
# Dispatch layer
# ----------------------------------------------------------------------


class TestDispatch:
    def test_default_is_native_when_built(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        expected = "native" if "native" in kernels.BACKENDS else "vectorized"
        assert kernels._from_env() == expected
        assert kernels.BACKENDS[0] == expected

    def test_use_returns_previous_and_switches(self):
        ambient = kernels.current()
        previous = kernels.use("reference")
        try:
            assert previous == ambient
            assert kernels.current() == "reference"
        finally:
            kernels.use(previous)

    def test_using_restores_on_exit_and_error(self):
        ambient = kernels.current()
        other = "reference" if ambient == "vectorized" else "vectorized"
        with kernels.using(other):
            assert kernels.current() == other
        assert kernels.current() == ambient
        with pytest.raises(RuntimeError):
            with kernels.using(other):
                raise RuntimeError("boom")
        assert kernels.current() == ambient

    def test_unknown_backend_rejected(self):
        ambient = kernels.current()
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.use("numba")
        assert kernels.current() == ambient

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "reference")
        assert kernels._from_env() == "reference"
        monkeypatch.setenv(kernels.ENV_VAR, "bogus")
        with pytest.warns(UserWarning, match="REPRO_KERNELS"):
            assert kernels._from_env() == "vectorized"


# ----------------------------------------------------------------------
# rect_add
# ----------------------------------------------------------------------


class TestRectAdd:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_rects(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(2, 60, 2)
        n = int(rng.integers(0, 400))
        x0 = rng.integers(0, nx, n)
        x1 = np.minimum(x0 + rng.integers(0, nx, n), nx - 1)
        y0 = rng.integers(0, ny, n)
        y1 = np.minimum(y0 + rng.integers(0, ny, n), ny - 1)
        w = rng.random(n) * 3.0
        ref, vec = both_backends(
            lambda: kernels.rect_add(nx, ny, x0, x1, y0, y1, w)
        )
        np.testing.assert_allclose(vec, ref, **MAPS_TOL)
        # Total mass is exactly the weighted covered area.
        area = (x1 - x0 + 1.0) * (y1 - y0 + 1.0)
        assert vec.sum() == pytest.approx((w * area).sum(), rel=1e-9)

    def test_scalar_weight_and_out_accumulation(self):
        x0 = np.array([0, 2])
        x1 = np.array([4, 2])
        y0 = np.array([1, 0])
        y1 = np.array([1, 4])
        start = np.full((5, 5), 7.0)
        ref, vec = both_backends(
            lambda: kernels.rect_add(5, 5, x0, x1, y0, y1, 0.5, out=start.copy())
        )
        np.testing.assert_allclose(vec, ref, **MAPS_TOL)
        assert vec[0, 0] == 7.0
        assert vec[0, 1] == 7.5
        assert vec[2, 1] == 8.0  # both rectangles overlap here

    def test_empty_batch(self):
        empty = np.zeros(0, dtype=np.int64)
        ref, vec = both_backends(
            lambda: kernels.rect_add(4, 3, empty, empty, empty, empty, 1.0)
        )
        assert ref.shape == vec.shape == (4, 3)
        assert not vec.any() and not ref.any()

    def test_single_cell_and_full_grid_rects(self):
        x0 = np.array([3, 0])
        x1 = np.array([3, 7])
        y0 = np.array([2, 0])
        y1 = np.array([2, 7])
        ref, vec = both_backends(
            lambda: kernels.rect_add(8, 8, x0, x1, y0, y1, np.array([2.0, 1.0]))
        )
        np.testing.assert_allclose(vec, ref, **MAPS_TOL)
        assert vec[3, 2] == 3.0
        assert vec[0, 0] == 1.0


# ----------------------------------------------------------------------
# Demand / RUDY rasterization on whole designs
# ----------------------------------------------------------------------


def _random_design(seed: int):
    rng = np.random.default_rng(seed)
    spec = GeneratorSpec(
        name=f"prop{seed}",
        num_cells=int(rng.integers(60, 220)),
        num_nets=int(rng.integers(90, 320)),
        pins_per_net=float(rng.uniform(2.2, 4.5)),  # varies net degrees
        num_macros=int(rng.integers(0, 4)),  # macros = routing blockages
        num_io=int(rng.integers(0, 10)),
        utilization=float(rng.uniform(0.5, 0.85)),
        seed=seed,
    )
    return generate_design(spec)


def _degenerate_design():
    """Single-pin nets, empty nets, and an all-pins-one-Gcell local net."""
    tech = Technology()
    builder = DesignBuilder("degen", tech, Rect(0, 0, 64, 64))
    cells = [builder.add_cell(f"c{i}", 2, tech.row_height) for i in range(6)]
    empty = builder.add_net("empty")  # no pins at all
    single = builder.add_net("single")  # one pin: skipped by the estimator
    builder.add_pin(cells[0], single)
    local = builder.add_net("local")  # all pins in one Gcell
    for cell in cells[:3]:
        builder.add_pin(cell, local)
    spread = builder.add_net("spread")
    for cell in cells:
        builder.add_pin(cell, spread, dx=0.5)
    design = builder.build()
    # Cluster the local net's cells; spread the rest to distinct Gcells.
    design.x[:] = [4.0, 4.5, 5.0, 20.0, 40.0, 60.0]
    design.y[:] = [4.0, 4.2, 4.4, 30.0, 10.0, 50.0]
    assert empty != single
    return design


class TestDemandEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_designs(self, seed):
        design = _random_design(seed)
        grid = build_grid(design)
        topologies = build_topologies(design, grid)
        ref, vec = both_backends(
            lambda: accumulate_demand(design, grid, topologies)
        )
        np.testing.assert_allclose(vec.dmd_h, ref.dmd_h, **MAPS_TOL)
        np.testing.assert_allclose(vec.dmd_v, ref.dmd_v, **MAPS_TOL)
        np.testing.assert_array_equal(vec.pin_count, ref.pin_count)
        # The I-segment inventory feeds the (order-sensitive) detour
        # expansion: it must match exactly, in order.
        assert vec.i_segments == ref.i_segments

    def test_degenerate_nets(self):
        design = _degenerate_design()
        grid = build_grid(design)
        topologies = build_topologies(design, grid)
        ref, vec = both_backends(
            lambda: accumulate_demand(design, grid, topologies)
        )
        np.testing.assert_allclose(vec.dmd_h, ref.dmd_h, **MAPS_TOL)
        np.testing.assert_allclose(vec.dmd_v, ref.dmd_v, **MAPS_TOL)
        assert vec.i_segments == ref.i_segments

    def test_no_topologies(self, tiny_design):
        grid = build_grid(tiny_design)
        ref, vec = both_backends(
            lambda: accumulate_demand(tiny_design, grid, [])
        )
        np.testing.assert_allclose(vec.dmd_h, ref.dmd_h, **MAPS_TOL)
        assert vec.i_segments == [] and ref.i_segments == []

    def test_estimator_end_to_end(self, small_design):
        def estimate():
            cmap, _, _ = CongestionEstimator(small_design).estimate()
            return cmap

        ref, vec = both_backends(estimate)
        np.testing.assert_allclose(vec.dmd_h, ref.dmd_h, **MAPS_TOL)
        np.testing.assert_allclose(vec.dmd_v, ref.dmd_v, **MAPS_TOL)


class TestRudyEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_designs(self, seed):
        design = _random_design(seed)
        ref, vec = both_backends(lambda: rudy_maps(design)[:2])
        np.testing.assert_allclose(vec[0], ref[0], **MAPS_TOL)
        np.testing.assert_allclose(vec[1], ref[1], **MAPS_TOL)

    def test_degenerate_nets(self):
        design = _degenerate_design()
        ref, vec = both_backends(lambda: rudy_maps(design)[:2])
        np.testing.assert_allclose(vec[0], ref[0], **MAPS_TOL)
        np.testing.assert_allclose(vec[1], ref[1], **MAPS_TOL)


# ----------------------------------------------------------------------
# Density maps
# ----------------------------------------------------------------------


class TestDensityEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_movable_and_fixed_maps(self, seed):
        design = _random_design(seed)

        def build():
            system = ElectrostaticDensity(design, PlacementParams())
            return system.fixed_map, system.movable_density(design.x, design.y)

        (ref_fixed, ref_mov), (vec_fixed, vec_mov) = both_backends(build)
        np.testing.assert_allclose(vec_fixed, ref_fixed, **MAPS_TOL)
        np.testing.assert_allclose(vec_mov, ref_mov, **MAPS_TOL)

    def test_boundary_clamped_cells(self, small_design):
        """Cells pushed onto the die edges hit the reference's
        boundary-bin re-accumulation; the vectorized backend must
        reproduce it."""
        design = small_design
        system = ElectrostaticDensity(design, PlacementParams())
        mov = system.movable_indices
        x = design.x.copy()
        y = design.y.copy()
        die = design.die
        x[mov[: len(mov) // 2]] = die.xhi
        y[mov[len(mov) // 3 :]] = die.yhi
        x[mov[-3:]] = die.xlo
        y[mov[-3:]] = die.ylo
        ref, vec = both_backends(lambda: system.movable_density(x, y))
        np.testing.assert_allclose(vec, ref, **MAPS_TOL)

    def test_padded_sizes(self, small_design):
        """set_sizes (PUFFER padding) changes the bin span; both
        backends must track it."""
        design = small_design
        system = ElectrostaticDensity(design, PlacementParams())
        rng = np.random.default_rng(7)
        system.set_sizes(
            design.w * (1.0 + rng.random(design.num_cells)),
            design.h.copy(),
        )
        ref, vec = both_backends(
            lambda: system.movable_density(design.x, design.y)
        )
        np.testing.assert_allclose(vec, ref, **MAPS_TOL)

    def test_area_preserved(self, small_design):
        system = ElectrostaticDensity(small_design, PlacementParams())
        rho = system.movable_density(small_design.x, small_design.y)
        assert rho.sum() == pytest.approx(system.charge.sum(), rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_rect_area_random(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(4, 32))
        bin_w, bin_h = rng.uniform(0.5, 3.0, 2)
        n = int(rng.integers(0, 50))
        x0 = rng.uniform(0, dim * bin_w * 0.9, n)
        x1 = x0 + rng.uniform(0.01, dim * bin_w * 0.5, n)
        x1 = np.minimum(x1, dim * bin_w)
        y0 = rng.uniform(0, dim * bin_h * 0.9, n)
        y1 = np.minimum(y0 + rng.uniform(0.01, dim * bin_h * 0.5, n), dim * bin_h)
        ref, vec = both_backends(
            lambda: kernels.rect_area(x0, x1, y0, y1, dim, bin_w, bin_h)
        )
        np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-12)
        assert vec.sum() == pytest.approx(((x1 - x0) * (y1 - y0)).sum(), rel=1e-9)


# ----------------------------------------------------------------------
# Maze search
# ----------------------------------------------------------------------


def _route_cost(route, cost_h, cost_v):
    h_cells, v_cells = route
    return cost_h.ravel()[h_cells].sum() + cost_v.ravel()[v_cells].sum()


class TestMazeEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_costs_equal_path_cost(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            nx, ny = rng.integers(3, 28, 2)
            cost_h = 1.0 + 9.0 * rng.random((nx, ny))
            cost_v = 1.0 + 9.0 * rng.random((nx, ny))
            if rng.random() < 0.4:  # congestion walls
                cost_h[int(rng.integers(0, nx)), :] += 500.0
                cost_v[:, int(rng.integers(0, ny))] += 500.0
            gx0, gy0 = int(rng.integers(0, nx)), int(rng.integers(0, ny))
            gx1, gy1 = int(rng.integers(0, nx)), int(rng.integers(0, ny))
            if (gx0, gy0) == (gx1, gy1):
                continue
            margin = int(rng.integers(0, 5))
            ref, vec = both_backends(
                lambda: maze_route(gx0, gy0, gx1, gy1, cost_h, cost_v, margin)
            )
            assert (ref is None) == (vec is None)
            if ref is None:
                continue
            ref_cost = _route_cost(ref, cost_h, cost_v)
            vec_cost = _route_cost(vec, cost_h, cost_v)
            assert vec_cost == pytest.approx(ref_cost, rel=1e-6)
            # Both endpoints are charged by any valid route.
            for route in (ref, vec):
                cells = np.concatenate(route)
                assert gx0 * ny + gy0 in cells
                assert gx1 * ny + gy1 in cells

    def test_straight_paths_identical(self):
        cost = np.ones((10, 10))
        for backend in kernels.BACKENDS:
            with kernels.using(backend):
                h, v = maze_route(1, 5, 8, 5, cost, cost, 2)
                assert len(v) == 0
                np.testing.assert_array_equal(
                    h, np.arange(1, 9) * 10 + 5
                )
                h, v = maze_route(3, 2, 3, 7, cost, cost, 2)
                assert len(h) == 0
                np.testing.assert_array_equal(
                    v, 3 * 10 + np.arange(2, 8)
                )

    def test_same_cell_route_is_empty(self):
        cost = np.ones((6, 6))
        for backend in kernels.BACKENDS:
            with kernels.using(backend):
                h, v = maze_route(2, 2, 2, 2, cost, cost, 3)
                assert len(h) == 0 and len(v) == 0

    def test_detour_around_wall(self):
        cost_h = np.ones((9, 9))
        cost_v = np.ones((9, 9))
        cost_h[4, :] = 1000.0  # entering column 4 horizontally is painful
        cost_v[4, :] = 1000.0
        cost_h[4, 8] = 1.0  # except at the top
        cost_v[4, 8] = 1.0
        ref, vec = both_backends(
            lambda: maze_route(0, 0, 8, 0, cost_h, cost_v, 8)
        )
        ref_cost = _route_cost(ref, cost_h, cost_v)
        vec_cost = _route_cost(vec, cost_h, cost_v)
        assert vec_cost == pytest.approx(ref_cost, rel=1e-9)
        assert ref_cost < 100.0  # both detoured over the top


# ----------------------------------------------------------------------
# Native backend: build, fallback, and bit-identity with vectorized
# ----------------------------------------------------------------------

needs_native = pytest.mark.skipif(
    "native" not in kernels.BACKENDS, reason="no C compiler: native backend not built"
)


@pytest.fixture
def re_resolve(monkeypatch):
    """Undo the test's patches, then resolve the backends afresh."""
    ambient = kernels.current()
    yield
    monkeypatch.undo()
    kernels._resolve()
    kernels.use(ambient)


def _assert_same_route(nat, vec):
    assert (nat is None) == (vec is None)
    if nat is not None:
        for a, b in zip(nat, vec):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)


def _cost_maps(rng, kind, nx, ny):
    if kind == "ties":  # all-ones: many equal-cost paths
        return np.ones((nx, ny)), np.ones((nx, ny))
    if kind == "integer":  # small integer costs: ties at every scale
        return (
            rng.integers(1, 4, (nx, ny)).astype(np.float64),
            rng.integers(1, 4, (nx, ny)).astype(np.float64),
        )
    cost_h = 1.0 + 9.0 * rng.random((nx, ny))
    cost_v = 1.0 + 9.0 * rng.random((nx, ny))
    if kind == "walls":
        for _ in range(3):
            cost_h[int(rng.integers(0, nx)), :] += 500.0
            cost_v[:, int(rng.integers(0, ny))] += 500.0
    return cost_h, cost_v


@needs_native
class TestNativeMaze:
    @pytest.mark.parametrize("kind", ["ties", "integer", "random", "walls"])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_vectorized(self, kind, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            nx, ny = (int(v) for v in rng.integers(2, 30, 2))
            cost_h, cost_v = _cost_maps(rng, kind, nx, ny)
            gx0, gx1 = (int(v) for v in rng.integers(0, nx, 2))
            gy0, gy1 = (int(v) for v in rng.integers(0, ny, 2))
            if (gx0, gy0) == (gx1, gy1):
                continue
            # Margin 0 (bbox only) through margins that clamp at the die.
            margin = int(rng.integers(0, 12))
            _assert_same_route(*both_backends(
                lambda: maze_route(gx0, gy0, gx1, gy1, cost_h, cost_v, margin),
                "native",
            ))

    def test_tie_heavy_small_windows(self):
        # Equal-cost predecessors on both sides are rare; this stream
        # holds several windows where the backtrack's predecessor order
        # decides the route.
        rng = np.random.default_rng(0)
        for t in range(8000):
            nx, ny = (int(v) for v in rng.integers(2, 12, 2))
            if t % 3 == 0:
                cost_h, cost_v = np.ones((nx, ny)), np.ones((nx, ny))
            elif t % 3 == 1:
                cost_h = rng.integers(1, 3, (nx, ny)).astype(np.float64)
                cost_v = rng.integers(1, 3, (nx, ny)).astype(np.float64)
            else:  # one map for both directions
                cost_h = rng.integers(1, 4, (nx, ny)).astype(np.float64)
                cost_v = cost_h.copy()
            gx0, gx1 = (int(v) for v in rng.integers(0, nx, 2))
            gy0, gy1 = (int(v) for v in rng.integers(0, ny, 2))
            if (gx0, gy0) == (gx1, gy1):
                continue
            margin = int(rng.integers(0, 4))
            _assert_same_route(*both_backends(
                lambda: maze_route(gx0, gy0, gx1, gy1, cost_h, cost_v, margin),
                "native",
            ))

    def test_boundary_corners_and_one_wide_windows(self):
        cost_h, cost_v = _cost_maps(np.random.default_rng(7), "walls", 12, 9)
        cases = [
            (0, 0, 11, 8, 0), (11, 8, 0, 0, 20),  # corner to corner, clamped
            (0, 4, 11, 4, 0), (5, 0, 5, 8, 0),  # one-wide windows
            (0, 0, 1, 0, 0), (11, 8, 11, 7, 3),  # adjacent at the edge
        ]
        for gx0, gy0, gx1, gy1, margin in cases:
            _assert_same_route(*both_backends(
                lambda: maze_route(gx0, gy0, gx1, gy1, cost_h, cost_v, margin),
                "native",
            ))

    def test_rejects_non_contiguous_or_non_float64_costs(self):
        cost = np.ones((8, 16))
        with kernels.using("native"):
            with pytest.raises(TypeError, match="C-contiguous"):
                kernels.maze_search(0, 0, 3, 3, cost[:, ::2], cost[:, ::2], 0, 3, 0, 3)
            with pytest.raises(TypeError, match="float64"):
                ints = np.ones((8, 8), dtype=np.int64)
                kernels.maze_search(0, 0, 3, 3, ints, ints, 0, 3, 0, 3)
            with pytest.raises(ValueError, match="window"):
                kernels.maze_search(0, 0, 3, 3, cost, cost, 1, 3, 0, 3)

    def test_router_results_bit_identical(self, placed_small_design):
        def route():
            tracer = obs.Tracer()
            with obs.tracing(tracer):
                report = GlobalRouter(placed_small_design, keep_state=True).run()
            return report, tracer.metrics()

        (nat, nat_m), (vec, vec_m) = both_backends(route, "native")
        assert nat_m["maze/calls"]["value"] > 0
        for key in ("hof", "vof", "wirelength", "via_count", "rounds"):
            assert getattr(nat, key) == getattr(vec, key), key
        assert np.array_equal(nat.demand.dmd_h, vec.demand.dmd_h)
        assert np.array_equal(nat.demand.dmd_v, vec.demand.dmd_v)
        for stat in ("count", "sum"):
            assert nat_m["maze/sweeps"][stat] == vec_m["maze/sweeps"][stat]

    def test_eco_reroute_bit_identical(self, placed_small_design):
        design = copy.deepcopy(placed_small_design)
        base = GlobalRouter(design, keep_state=True).run()
        moved = np.flatnonzero(design.movable)[:12]
        design.x[moved] += 12.0
        dirty = np.arange(min(design.num_nets, 80))

        def reroute():
            tracer = obs.Tracer()
            with obs.tracing(tracer):
                report = reroute_nets(copy.deepcopy(base.state), design, dirty)
            return report, tracer.metrics()

        (nat, nat_m), (vec, vec_m) = both_backends(reroute, "native")
        assert nat_m["maze/calls"]["value"] > 0
        for key in ("hof", "vof", "wirelength", "via_count"):
            assert getattr(nat, key) == getattr(vec, key), key
        assert np.array_equal(nat.demand.dmd_h, vec.demand.dmd_h)
        assert np.array_equal(nat.demand.dmd_v, vec.demand.dmd_v)
        assert nat_m["maze/sweeps"] == vec_m["maze/sweeps"]


class TestNativeBuild:
    def test_no_compiler_falls_back_to_vectorized(self, monkeypatch, tmp_path, re_resolve):
        monkeypatch.setattr(native, "CACHE_DIR", str(tmp_path))  # cold cache
        monkeypatch.setattr(native, "_compiler", lambda: None)
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        kernels._resolve()
        assert "native" not in kernels.BACKENDS
        assert kernels.current() == "vectorized"
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.use("native")
        monkeypatch.setenv(kernels.ENV_VAR, "native")
        with pytest.warns(UserWarning, match="REPRO_KERNELS"):
            kernels._resolve()
        assert kernels.current() == "vectorized"

    @needs_native
    def test_cold_build_then_warm_cache_starts_no_process(
        self, monkeypatch, tmp_path, re_resolve
    ):
        monkeypatch.setattr(native, "CACHE_DIR", str(tmp_path))
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        kernels._resolve()  # cold: builds into the (empty) cache
        assert kernels.current() == "native"
        assert os.listdir(tmp_path) == [os.path.basename(native.library_path())]

        def no_process(*args, **kwargs):
            raise AssertionError("a warm cache must not start a process")

        monkeypatch.setattr(subprocess, "run", no_process)
        kernels._resolve()
        assert kernels.current() == "native"
        h, v = kernels.maze_search(0, 0, 2, 0, np.ones((3, 3)), np.ones((3, 3)), 0, 2, 0, 0)
        assert h.tolist() == [0, 3, 6] and v.size == 0

    def test_cache_key_covers_source_flags_and_platform(self, monkeypatch):
        path = native.library_path()
        assert os.path.dirname(path) == native.CACHE_DIR
        monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-g",))
        assert native.library_path() != path
        assert "-ffp-contract=off" in native.CFLAGS
        assert not {"-ffast-math", "-march=native"} & set(native.CFLAGS)


# ----------------------------------------------------------------------
# Abacus trial insertion (legalizer round-2 kernel)
# ----------------------------------------------------------------------


def _random_abacus_state(rng, n):
    """A legal row-segment cluster state: packed left-to-right with
    random gaps inside a segment that sometimes barely fits."""
    w = rng.uniform(0.5, 4.0, n)
    total = w.sum()
    slack = float(rng.uniform(0.0, total * 0.5 + 1.0))
    gaps = rng.uniform(0.0, 1.0, n)
    gaps *= slack * rng.random() / max(gaps.sum(), 1e-12)
    x = np.cumsum(gaps) + np.cumsum(w) - w
    xlo = 0.0
    seg_width = total + slack
    e = rng.uniform(0.1, 5.0, n)
    q = e * (x + rng.uniform(-3.0, 3.0, n))
    return e, q, w, x, xlo, xlo + seg_width, seg_width


class TestAbacusEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_rows(self, seed):
        """Exact (x_left, merges) agreement on random legal states, both
        above and below the vectorized backend's scalar-fallback size."""
        rng = np.random.default_rng(seed)
        checked_none = checked_some = 0
        for _ in range(60):
            n = int(rng.integers(1, 40))
            e, q, w, x, xlo, xhi, seg_width = _random_abacus_state(rng, n)
            width = float(rng.uniform(0.5, 6.0))
            weight = float(rng.uniform(0.1, 4.0))
            target = float(rng.uniform(xlo - 5.0, xhi + 5.0))
            ref, vec = both_backends(
                lambda: kernels.abacus_trial(
                    e, q, w, x, n, xlo, xhi, seg_width, width, weight, target
                )
            )
            assert (ref is None) == (vec is None)
            if ref is None:
                checked_none += 1
                continue
            checked_some += 1
            assert vec[0] == pytest.approx(ref[0], abs=1e-9)
            assert vec[1] == ref[1]
        # The draw must exercise both outcomes or it proves nothing.
        assert checked_none > 0 and checked_some > 0

    def test_deep_merge_chain(self):
        """A fully packed row collapses the whole chain; the suffix-scan
        backend must stop at the same merge count."""
        rng = np.random.default_rng(99)
        n = 50
        w = rng.uniform(1.0, 3.0, n)
        x = np.cumsum(w) - w
        e = rng.uniform(0.5, 2.0, n)
        q = e * x
        xhi = float(x[-1] + w[-1] + 100.0)
        ref, vec = both_backends(
            lambda: kernels.abacus_trial(
                e, q, w, x, n, 0.0, xhi, xhi, 2.0, 1.0, 0.0
            )
        )
        assert ref is not None and vec is not None
        assert vec[1] == ref[1] == n
        assert vec[0] == pytest.approx(ref[0], abs=1e-9)

    def test_overflowing_cell_rejected(self):
        e = np.array([1.0])
        q = np.array([2.0])
        w = np.array([4.0])
        x = np.array([2.0])
        ref, vec = both_backends(
            lambda: kernels.abacus_trial(
                e, q, w, x, 1, 0.0, 8.0, 8.0, 10.0, 1.0, 0.0
            )
        )
        assert ref is None and vec is None

    def test_empty_segment(self):
        z = np.zeros(0)
        ref, vec = both_backends(
            lambda: kernels.abacus_trial(z, z, z, z, 0, 0.0, 10.0, 10.0, 2.0, 1.0, 3.5)
        )
        assert ref == vec == (3.5, 0)


# ----------------------------------------------------------------------
# Batched Steiner construction (RSMT round-2 kernel)
# ----------------------------------------------------------------------


def _random_net_batch(rng, max_deg=14, grid=12):
    batch = int(rng.integers(1, 20))
    degrees = rng.integers(1, max_deg, batch)
    start = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(degrees, out=start[1:])
    x = rng.integers(0, grid, start[-1]).astype(np.float64)
    y = rng.integers(0, grid, start[-1]).astype(np.float64)
    return x, y, start


class TestSteinerEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_nets(self, seed):
        """Bit-exact topology agreement (points, pin flags, edge lists)
        across the degree mix, duplicate pin Gcells included."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            x, y, start = _random_net_batch(rng)
            ref, vec = both_backends(
                lambda: kernels.steiner_batch(x, y, start, 64)
            )
            assert len(ref) == len(vec) == len(start) - 1
            for r, v in zip(ref, vec):
                for a, b in zip(r, v):
                    np.testing.assert_array_equal(b, a)

    @pytest.mark.parametrize("seed", range(3))
    def test_degree_cap_skips_steinerization(self, seed):
        """Nets above max_degree take the plain-MST path in both
        backends and still agree exactly."""
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x, y, start = _random_net_batch(rng)
            ref, vec = both_backends(
                lambda: kernels.steiner_batch(x, y, start, 4)
            )
            for r, v in zip(ref, vec):
                for a, b in zip(r, v):
                    np.testing.assert_array_equal(b, a)

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_matches_single_net_builder(self, seed):
        """build_rsmt_batch is a drop-in for per-net build_rsmt under
        either backend."""
        from repro.rsmt import build_rsmt_batch
        from repro.rsmt.steiner import build_rsmt

        rng = np.random.default_rng(seed)
        degrees = rng.integers(2, 10, 12)
        start = np.zeros(13, dtype=np.int64)
        np.cumsum(degrees, out=start[1:])
        x = rng.integers(0, 30, start[-1]).astype(np.float64)
        y = rng.integers(0, 30, start[-1]).astype(np.float64)
        for backend in kernels.BACKENDS:
            with kernels.using(backend):
                topologies = build_rsmt_batch(x, y, start)
                for i, topo in enumerate(topologies):
                    single = build_rsmt(
                        x[start[i] : start[i + 1]], y[start[i] : start[i + 1]]
                    )
                    np.testing.assert_array_equal(topo.x, single.x)
                    np.testing.assert_array_equal(topo.y, single.y)
                    np.testing.assert_array_equal(topo.is_pin, single.is_pin)
                    np.testing.assert_array_equal(topo.edges, single.edges)

    def test_trivial_degrees(self):
        """Degree-0/1/2 nets: no tree, no tree, one edge."""
        x = np.array([3.0, 5.0, 9.0])
        y = np.array([2.0, 7.0, 7.0])
        start = np.array([0, 0, 1, 3], dtype=np.int64)
        ref, vec = both_backends(lambda: kernels.steiner_batch(x, y, start, 64))
        for out in (ref, vec):
            assert len(out[0][3]) == 0  # empty net: no edges
            assert len(out[1][3]) == 0  # single pin: no edges
            np.testing.assert_array_equal(out[2][3], [[0, 1]])
        for r, v in zip(ref, vec):
            for a, b in zip(r, v):
                np.testing.assert_array_equal(b, a)


# ----------------------------------------------------------------------
# Detour expansion (congestion estimator): native bit-identical to the
# sequential reference loop
# ----------------------------------------------------------------------


def _expansion_case(rng, nx, ny, n, max_len, congested=True):
    """Random maps (demand above capacity when ``congested``) and ``n``
    segments with lengths up to ``max_len``, a share of them on the first
    and last row/column, every Steiner/pin endpoint mix."""
    cap_h = rng.uniform(0.0, 3.0, (nx, ny))
    cap_v = rng.uniform(0.0, 3.0, (nx, ny))
    top = 4.5 if congested else 0.0
    dmd_h = rng.uniform(0.0, top, (nx, ny))
    dmd_v = rng.uniform(0.0, top, (nx, ny))
    horizontal = rng.random(n) < 0.5
    along = np.where(horizontal, nx, ny)
    across = np.where(horizontal, ny, nx)
    length = np.minimum(rng.integers(1, max_len + 1, n), along)
    lo = (rng.random(n) * (along - length + 1)).astype(np.int64)
    fixed = (rng.random(n) * across).astype(np.int64)
    edge = rng.random(n)
    fixed = np.where(edge < 0.15, 0, np.where(edge > 0.85, across - 1, fixed))
    pins = rng.integers(0, 4, n)  # both Steiner, lo pin, hi pin, both pins
    segments = (horizontal, fixed, lo, lo + length - 1, pins & 1 > 0, pins & 2 > 0)
    return (cap_h, cap_v, dmd_h, dmd_v), segments


def _expand(backend, maps, segments, radius, keep_weight=0.25):
    cap_h, cap_v, dmd_h, dmd_v = (m.copy() for m in maps)
    with kernels.using(backend):
        count = kernels.expand_segments(
            cap_h, cap_v, dmd_h, dmd_v, *segments, radius, keep_weight
        )
    return count, dmd_h, dmd_v


@needs_native
class TestNativeExpansion:
    @pytest.mark.parametrize("radius", range(4))
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_reference(self, radius, seed):
        """Lengths 1-300 cross numpy's 8- and 128-element pairwise-sum
        thresholds and its recursive split."""
        rng = np.random.default_rng(seed)
        total = 0
        for _ in range(12):
            nx, ny = (int(v) for v in rng.integers(1, 320, 2))
            maps, segments = _expansion_case(rng, nx, ny, 40, 300)
            ref = _expand("reference", maps, segments, radius)
            nat = _expand("native", maps, segments, radius)
            assert nat[0] == ref[0]
            assert np.array_equal(nat[1], ref[1])
            assert np.array_equal(nat[2], ref[2])
            total += ref[0]
        assert total > 0

    def test_every_length_and_large_radius(self):
        rng = np.random.default_rng(11)
        for length in range(1, 301):
            maps, segments = _expansion_case(rng, 301, 12, 3, length)
            segments[2][:] = 0
            segments[3][:] = np.where(segments[0], length - 1, np.minimum(length, 12) - 1)
            for radius in (0, 1, 9, 10**12, -3):
                ref = _expand("reference", maps, segments, radius)
                nat = _expand("native", maps, segments, radius)
                assert nat[0] == ref[0]
                assert np.array_equal(nat[1], ref[1]) and np.array_equal(nat[2], ref[2])

    def test_uncongested_segments_change_nothing(self):
        rng = np.random.default_rng(5)
        maps, segments = _expansion_case(rng, 40, 30, 60, 40, congested=False)
        for backend in ("reference", "native"):
            count, dmd_h, dmd_v = _expand(backend, maps, segments, 2)
            assert count == 0
            assert np.array_equal(dmd_h, maps[2]) and np.array_equal(dmd_v, maps[3])

    def test_count_and_zero_spare_without_keep_weight(self):
        """No spare capacity and no keep weight: the total weight is 0,
        so a congested segment still returns early and is not counted."""
        cap = np.zeros((6, 5))
        dmd = np.ones((6, 5))
        segments = (
            np.array([True, False]), np.array([2, 3]), np.array([0, 1]),
            np.array([5, 4]), np.array([False, True]), np.array([False, False]),
        )
        for keep_weight, expected in ((0.0, 0), (0.25, 2)):
            counts = {
                backend: _expand(
                    backend, (cap, cap, dmd, dmd), segments, 2, keep_weight
                )
                for backend in ("reference", "native")
            }
            ref, nat = counts["reference"], counts["native"]
            assert ref[0] == nat[0] == expected
            assert np.array_equal(ref[1], nat[1]) and np.array_equal(ref[2], nat[2])

    def test_rejects_non_contiguous_or_non_float64_maps(self):
        rng = np.random.default_rng(0)
        (cap_h, cap_v, dmd_h, dmd_v), segments = _expansion_case(rng, 8, 8, 4, 5)
        with kernels.using("native"):
            for bad in (dmd_h.T, dmd_h.astype(np.float32), dmd_h[:, ::2]):
                with pytest.raises(TypeError):
                    kernels.expand_segments(
                        cap_h, cap_v, bad, dmd_v, *segments, 2, 0.25
                    )
            with pytest.raises(ValueError):
                kernels.expand_segments(
                    cap_h, cap_v, dmd_h, dmd_v, segments[0], segments[1] + 8,
                    *segments[2:], 2, 0.25,
                )

    def test_estimator_maps_identical(self, placed_small_design):
        """The whole estimate through the dispatch: ``vectorized`` differs
        from ``native`` only in running the expansion loop in Python."""
        design = copy.deepcopy(placed_small_design)

        def estimate():
            cmap = CongestionEstimator(design).estimate()[0]
            return cmap.dmd_h, cmap.dmd_v

        (ref_h, ref_v), (nat_h, nat_v) = both_backends(estimate, "vectorized", "native")
        assert np.array_equal(ref_h, nat_h) and np.array_equal(ref_v, nat_v)


# ----------------------------------------------------------------------
# Pin-congestion paths (features, Eqs. 12-13)
# ----------------------------------------------------------------------


def _path_edges(rng, nx, ny, n):
    """Edges of every shape: points, straight runs, one-wide boxes and
    long boxes with more interior rows/columns than any z_samples."""
    ax, bx = rng.integers(0, nx, n), rng.integers(0, nx, n)
    ay, by = rng.integers(0, ny, n), rng.integers(0, ny, n)
    kind = rng.integers(0, 5, n)
    bx = np.where(kind == 0, ax, bx)                                  # vertical / point
    by = np.where(kind == 1, ay, by)                                  # horizontal / point
    bx = np.where(kind == 2, np.clip(ax + rng.choice([-1, 1], n), 0, nx - 1), bx)
    by = np.where(kind == 3, np.clip(ay + rng.choice([-1, 1], n), 0, ny - 1), by)
    point = rng.random(n) < 0.05
    return ax, ay, np.where(point, ax, bx), np.where(point, ay, by)


class TestPathCongestion:
    @pytest.mark.parametrize("z_samples", range(5))
    @pytest.mark.parametrize("seed", range(3))
    def test_vectorized_equals_reference(self, z_samples, seed):
        rng = np.random.default_rng(seed)
        for trial in range(10):
            nx, ny = (int(v) for v in rng.integers(1, 50, 2))
            cg = rng.normal(size=(nx, ny))
            if trial % 2:
                cg = np.round(cg, 1)  # ties between candidate paths
            edges = _path_edges(rng, nx, ny, 120)
            ref, vec = both_backends(
                lambda: kernels.path_congestion(cg, *edges, z_samples)
            )
            assert ref.dtype == vec.dtype == np.float64
            assert np.array_equal(ref, vec)

    def test_known_values(self):
        cg = np.zeros((7, 7))
        cg[3, :] = 5.0  # a wall every path from x<3 to x>3 crosses
        cg[3, 6] = 1.0  # except through its top cell
        for backend in kernels.BACKENDS:
            with kernels.using(backend):
                out = kernels.path_congestion(
                    cg, [2, 0, 1, 1, 1], [2, 0, 6, 6, 5], [2, 0, 5, 5, 5],
                    [2, 6, 6, 0, 0], 2,
                )
            # A point, a clear column, the top row through the gap, an L
            # box whose corner path runs along the top row, and a box
            # every candidate of which crosses the wall.
            np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 1.0, 5.0])

    def test_empty_batch(self):
        for backend in kernels.BACKENDS:
            with kernels.using(backend):
                out = kernels.path_congestion(np.ones((3, 3)), [], [], [], [], 2)
            assert out.shape == (0,)


def _old_pin_congestion(extractor, cmap, topologies):
    """The per-edge / per-pin loop ``_pin_congestion`` replaced."""
    design = extractor.design
    px, py = design.pin_positions()
    pgx, pgy = cmap.grid.gcell_of(px, py)
    pin_cg_cell = np.zeros(design.num_cells)
    for topo in topologies:
        best = np.full(len(topo.gx), np.inf)
        for a, b in topo.edges:
            value = extractor._segment_path_congestion(
                cmap.cg, int(topo.gx[a]), int(topo.gy[a]), int(topo.gx[b]), int(topo.gy[b])
            )
            best[a] = min(best[a], value)
            best[b] = min(best[b], value)
        for p in design.pins_of_net(topo.net):
            point = topo.point_of.get((int(pgx[p]), int(pgy[p])))
            if point is None or not np.isfinite(best[point]):
                continue
            pin_cg_cell[design.pin_cell[p]] += best[point]
    return pin_cg_cell


class TestPinCongestion:
    def test_equals_per_pin_loop(self, placed_small_design):
        from repro.core.features import FeatureExtractor

        design = copy.deepcopy(placed_small_design)
        cmap, topologies, _ = CongestionEstimator(design).estimate()
        pins_per_gcell = np.bincount(
            np.ravel_multi_index(
                cmap.grid.gcell_of(*design.pin_positions()), cmap.cg.shape
            )
        )
        assert pins_per_gcell.max() > 1  # pins of one net share Gcells
        assert len(topologies) < design.num_nets  # local nets have none
        extractor = FeatureExtractor(design)
        for backend in kernels.BACKENDS:
            with kernels.using(backend):
                new = extractor._pin_congestion(cmap, topologies)
                old = _old_pin_congestion(extractor, cmap, topologies)
            assert np.array_equal(new, old)

    def test_duplicate_pin_points_last_one_wins(self, placed_small_design):
        """Two pin points of one topology in the same Gcell: the dict of
        the old loop keeps the later one, and so must the lookup."""
        from repro.core.demand import NetTopology
        from repro.core.features import FeatureExtractor

        design = copy.deepcopy(placed_small_design)
        cmap, topologies, _ = CongestionEstimator(design).estimate()
        rng = np.random.default_rng(2)
        cmap.cg[:] = rng.normal(size=cmap.cg.shape)
        doubled = []
        for topo in topologies[:40]:
            # Append a copy of the first pin point, joined to a far corner.
            gx = np.append(topo.gx, [topo.gx[0], 0])
            gy = np.append(topo.gy, [topo.gy[0], 0])
            is_pin = np.append(topo.is_pin, [True, False])
            k = len(topo.gx)
            edges = np.vstack([topo.edges, [[k, k + 1]]])
            point_of = {
                (int(gx[i]), int(gy[i])): i for i in range(len(gx)) if is_pin[i]
            }
            doubled.append(NetTopology(topo.net, gx, gy, is_pin, edges, point_of))
        extractor = FeatureExtractor(design)
        new = extractor._pin_congestion(cmap, doubled)
        assert np.array_equal(new, _old_pin_congestion(extractor, cmap, doubled))
        assert not np.array_equal(new, _old_pin_congestion(extractor, cmap, topologies[:40]))

    def test_no_topologies(self, small_design):
        from repro.core.features import FeatureExtractor

        cmap = CongestionEstimator(small_design).estimate()[0]
        out = FeatureExtractor(small_design)._pin_congestion(cmap, [])
        assert np.array_equal(out, np.zeros(small_design.num_cells))


@needs_native
def test_puffer_run_identical_with_reference_padding_kernels(monkeypatch):
    """A PUFFER run whose padding rounds use the compiled expansion and
    the vectorized path search ends exactly where one on the reference
    loops does: same continuous padding, same positions."""
    from repro.benchgen import make_design
    from repro.core.puffer import PufferPlacer

    def run():
        design = make_design("OR1200", scale=0.002)
        with kernels.using("native"):
            result = PufferPlacer(design, placement=PlacementParams(max_iters=300)).run()
        return result, design

    fast, fast_design = run()
    monkeypatch.setattr(native, "expand_segments", kernels.reference.expand_segments)
    monkeypatch.setattr(native, "path_congestion", kernels.reference.path_congestion)
    slow, slow_design = run()
    assert fast.padding_rounds == slow.padding_rounds > 0
    assert np.array_equal(fast.padding, slow.padding)
    assert np.array_equal(fast_design.x, slow_design.x)
    assert np.array_equal(fast_design.y, slow_design.y)
