"""Equivalence and property tests for the struct-of-arrays feasibility
kernel (repro.core.state_soa) — the SoA and record backends must be
bit-identical, and both must agree with the from-scratch analysis."""

import numpy as np
import pytest

from repro.core import (
    AllocationError,
    AllocationState,
    RecordAllocationState,
    SoaAllocationState,
    STATE_BACKENDS,
    SystemModel,
    analyze,
)
from repro.core.state import (
    AUTO_BACKEND,
    AUTO_RECORD_CELLS,
    get_default_state_backend,
    resolve_auto_backend,
    set_default_state_backend,
)
from repro.workload import SCENARIO_1, SCENARIO_2, SCENARIO_3, generate_model

from conftest import build_string, uniform_network


def _pair(model, tol=None):
    kwargs = {} if tol is None else {"tol": tol}
    return (
        AllocationState(model, backend="soa", **kwargs),
        AllocationState(model, backend="record", **kwargs),
    )


def _assert_equivalent(soa, rec):
    """Every observable of the two backends must match bit-for-bit."""
    assert soa.n_strings == rec.n_strings
    assert soa.mapped_ids == rec.mapped_ids
    assert soa.total_worth == rec.total_worth
    np.testing.assert_array_equal(soa.machine_util, rec.machine_util)
    np.testing.assert_array_equal(soa.route_util, rec.route_util)
    assert soa.fitness() == rec.fitness()
    for sid in soa.mapped_ids:
        assert soa.estimated_latency(sid) == rec.estimated_latency(sid)
        s_hm, s_hr, s_ws = soa.interference_terms(sid)
        r_hm, r_hr, r_ws = rec.interference_terms(sid)
        assert s_hm == r_hm
        assert s_hr == r_hr
        assert s_ws == r_ws
        np.testing.assert_array_equal(
            soa.machines_for(sid), rec.machines_for(sid)
        )
    for j in range(soa.model.n_machines):
        np.testing.assert_array_equal(
            soa.machine_users(j), rec.machine_users(j)
        )


def _assert_same_rejection(soa, rec):
    a, b = soa.last_rejection, rec.last_rejection
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.stage == b.stage
    assert a.kind == b.kind
    assert a.where == b.where
    assert a.value == b.value
    assert a.bound == b.bound


class TestRandomizedEquivalence:
    """Random add/remove/snapshot/restore walks over generated models:
    every decision, rejection field, and cached float must agree."""

    @pytest.mark.parametrize("scenario,seed", [
        (SCENARIO_1, 11), (SCENARIO_2, 12), (SCENARIO_3, 13),
    ])
    def test_random_walk(self, scenario, seed):
        params = scenario.scaled(n_strings=16, n_machines=4)
        model = generate_model(params, seed=seed)
        rng = np.random.default_rng(seed)
        soa, rec = _pair(model)
        snaps = [(soa.snapshot(), rec.snapshot())]
        decisions = []
        for _ in range(300):
            op = rng.random()
            if op < 0.62:
                sid = int(rng.integers(model.n_strings))
                if sid in soa:
                    continue
                m = rng.integers(
                    0, model.n_machines, size=model.strings[sid].n_apps
                )
                ok_soa = soa.try_add(sid, m)
                ok_rec = rec.try_add(sid, m.copy())
                assert ok_soa == ok_rec
                decisions.append(ok_soa)
                _assert_same_rejection(soa, rec)
            elif op < 0.77 and soa.mapped_ids:
                sid = int(rng.choice(soa.mapped_ids))
                soa.remove(sid)
                rec.remove(sid)
            elif op < 0.9:
                snaps.append((soa.snapshot(), rec.snapshot()))
            else:
                k = int(rng.integers(len(snaps)))
                soa.restore(snaps[k][0])
                rec.restore(snaps[k][1])
            _assert_equivalent(soa, rec)
        assert any(decisions) and not all(decisions)  # walk was non-trivial

    @pytest.mark.parametrize("seed", [21, 22])
    def test_accepted_states_are_analyze_feasible(self, seed):
        """Whatever either backend accepts, the from-scratch analysis
        confirms; whatever it rejects, the analysis rejects too."""
        params = SCENARIO_1.scaled(n_strings=14, n_machines=3)
        model = generate_model(params, seed=seed)
        rng = np.random.default_rng(seed)
        soa, rec = _pair(model)
        for sid in range(model.n_strings):
            m = rng.integers(
                0, model.n_machines, size=model.strings[sid].n_apps
            )
            ok = soa.try_add(sid, m)
            assert rec.try_add(sid, m) == ok
            report = analyze(
                soa.as_allocation().with_string(sid, m)
                if not ok
                else soa.as_allocation()
            )
            assert report.feasible == ok
        assert analyze(soa.as_allocation()).feasible


class TestBoundaryTolerance:
    """Quantities landing exactly on a bound are accepted (strict >
    comparisons against bound * (1 + tol)); one ulp past the scaled
    bound is rejected — identically in both backends."""

    def _one_string_model(self, period, t, u):
        net = uniform_network(2)
        s = build_string(0, 1, 2, period=period, t=t, u=u, latency=1e9)
        return SystemModel(net, [s])

    def test_exact_capacity_accepted(self):
        model = self._one_string_model(period=10.0, t=10.0, u=1.0)
        for soa_or_rec in _pair(model, tol=0.0):
            assert soa_or_rec.try_add(0, [0])  # util == 1.0 exactly

    def test_capacity_one_step_over_rejected(self):
        over = np.nextafter(1.0, 2.0) * 10.0
        model = self._one_string_model(period=10.0, t=over, u=1.0)
        for state in _pair(model, tol=0.0):
            assert not state.try_add(0, [0])
            assert state.last_rejection.stage == 1

    def test_tolerance_admits_slight_overshoot(self):
        over = 10.0 * (1.0 + 5e-10)  # within the default 1e-9 tol
        model = self._one_string_model(period=10.0, t=over, u=1.0)
        for state in _pair(model):
            assert state.try_add(0, [0])

    def test_rejection_values_identical(self):
        model = self._one_string_model(period=10.0, t=30.0, u=1.0)
        soa, rec = _pair(model)
        assert not soa.try_add(0, [0])
        assert not rec.try_add(0, [0])
        _assert_same_rejection(soa, rec)
        assert soa.last_rejection.value == 3.0
        assert soa.last_rejection.bound == 1.0


class TestSnapshotSemantics:
    def test_cross_backend_restore_rejected(self, small_model):
        soa, rec = _pair(small_model)
        with pytest.raises(TypeError):
            soa.restore(rec.snapshot())
        with pytest.raises(TypeError):
            rec.restore(soa.snapshot())

    def test_snapshot_detached(self, small_model):
        for state in _pair(small_model):
            assert state.try_add(0, [0, 1, 2])
            snap = state.snapshot()
            assert state.try_add(2, [1])
            state.restore(snap)
            assert state.mapped_ids == (0,)
            state.restore(snap)  # snapshots stay reusable
            assert state.mapped_ids == (0,)

    def test_restore_clears_rejection(self, small_model):
        for state in _pair(small_model):
            snap = state.snapshot()
            with pytest.raises(AllocationError):
                state.try_add(0, [9, 9, 9])
            assert state.try_add(0, [0, 1, 2])
            state.restore(snap)
            assert state.last_rejection is None
            assert state.n_strings == 0


class TestMappedIdsCache:
    def test_cache_invalidated_on_mutation(self, small_model):
        for state in _pair(small_model):
            assert state.mapped_ids == ()
            assert state.try_add(2, [1])
            assert state.try_add(0, [0, 1, 2])
            assert state.mapped_ids == (0, 2)
            first = state.mapped_ids
            assert state.mapped_ids is first  # cached between mutations
            state.remove(2)
            assert state.mapped_ids == (0,)

    def test_failed_add_keeps_cache_valid(self):
        net = uniform_network(2)
        big = build_string(0, 1, 2, period=10.0, t=20.0, u=1.0)
        ok = build_string(1, 1, 2, period=10.0, t=1.0, u=0.1)
        model = SystemModel(net, [big, ok])
        for state in _pair(model):
            assert state.try_add(1, [0])
            assert state.mapped_ids == (1,)
            assert not state.try_add(0, [0])
            assert state.mapped_ids == (1,)


class TestBackendDispatch:
    def test_default_backend_valid(self, small_model):
        default = get_default_state_backend()
        assert default in STATE_BACKENDS or default == AUTO_BACKEND
        state = AllocationState(small_model)
        if default == AUTO_BACKEND:
            assert state.backend == resolve_auto_backend(small_model)
        else:
            assert state.backend == default

    def test_auto_resolution_by_size(self, small_model):
        # small_model fits the record threshold; the concrete class is
        # always a member of STATE_BACKENDS, never "auto" itself.
        resolved = resolve_auto_backend(small_model)
        assert resolved in STATE_BACKENDS
        cells = small_model.n_strings * (
            small_model.n_machines + small_model.n_machines**2
        )
        if cells <= AUTO_RECORD_CELLS:
            assert resolved == "record"
        else:
            assert resolved in ("jit", "soa")

    def test_explicit_backends(self, small_model):
        assert isinstance(
            AllocationState(small_model, backend="soa"), SoaAllocationState
        )
        assert isinstance(
            AllocationState(small_model, backend="record"),
            RecordAllocationState,
        )
        jit_state = AllocationState(small_model, backend="jit")
        assert isinstance(jit_state, SoaAllocationState)
        assert jit_state.backend == "jit"

    def test_unknown_backend_rejected(self, small_model):
        with pytest.raises(ValueError):
            AllocationState(small_model, backend="simd")
        with pytest.raises(ValueError):
            set_default_state_backend("simd")

    def test_conflicting_subclass_backend_rejected(self, small_model):
        with pytest.raises(ValueError):
            SoaAllocationState(small_model, backend="record")

    def test_set_default_round_trip(self, small_model):
        previous = get_default_state_backend()
        try:
            set_default_state_backend("record")
            assert isinstance(
                AllocationState(small_model), RecordAllocationState
            )
        finally:
            set_default_state_backend(previous)


def _snapshot_nbytes(snap):
    return sum(
        a.nbytes
        for a in (snap.scalars, snap.fp, snap.vals, snap.util, snap.mapped)
    )


class TestSparseSnapshots:
    """Snapshots store the four per-resource blocks only over the
    footprint (``count > 0``); restores must still reproduce the dense
    buffer bit for bit, whatever state they land in."""

    @staticmethod
    def _capture(state):
        return (
            state.snapshot(),
            state._buf.copy(),
            state._util.copy(),
            state._mapped.copy(),
        )

    @staticmethod
    def _assert_restored(target, saved):
        _, buf, util, mapped = saved
        expected = buf.copy()
        bound = 1.0 + target.tol
        np.multiply(expected[0], bound, out=expected[5])
        np.multiply(expected[2], bound, out=expected[6])
        if target.tol == saved[0].tol:
            expected = buf
        np.testing.assert_array_equal(target._buf, expected)
        np.testing.assert_array_equal(target._util, util)
        np.testing.assert_array_equal(target._mapped, mapped)

    @staticmethod
    def _random_add(state, rng):
        model = state.model
        sid = int(rng.integers(model.n_strings))
        if sid not in state:
            m = rng.integers(
                0, model.n_machines, size=model.strings[sid].n_apps
            )
            state.try_add(sid, m)

    @pytest.mark.parametrize(
        "scenario,seed", [(SCENARIO_1, 31), (SCENARIO_3, 32)]
    )
    def test_round_trip_bit_exact(self, scenario, seed):
        model = generate_model(
            scenario.scaled(n_strings=16, n_machines=4), seed=seed
        )
        rng = np.random.default_rng(seed)
        state = AllocationState(model, backend="soa")
        other_tol = AllocationState(model, backend="soa", tol=1e-6)
        saved = [self._capture(state)]
        kinds = dict.fromkeys(("loaded", "fresh", "removed", "tol"), 0)
        for _ in range(400):
            op = rng.random()
            if op < 0.55:
                self._random_add(state, rng)
            elif op < 0.7 and state.mapped_ids:
                state.remove(int(rng.choice(state.mapped_ids)))
                if rng.random() < 0.5:
                    # Restore with the trail dropped by the remove.
                    k = int(rng.integers(len(saved)))
                    state.restore(saved[k][0])
                    self._assert_restored(state, saved[k])
                    kinds["removed"] += 1
            elif op < 0.85:
                saved.append(self._capture(state))
            else:
                k = int(rng.integers(len(saved)))
                fresh = AllocationState(model, backend="soa")
                fresh.restore(saved[k][0])
                self._assert_restored(fresh, saved[k])
                other_tol.restore(saved[k][0])
                self._assert_restored(other_tol, saved[k])
                state.restore(saved[k][0])
                self._assert_restored(state, saved[k])
                kinds["fresh"] += 1
                kinds["tol"] += 1
                kinds["loaded"] += state.n_strings > 0
        assert all(kinds.values()), kinds

    @pytest.mark.parametrize("seed", [41, 42])
    def test_nonzero_cells_lie_in_footprint(self, seed):
        """The invariant the sparse form rests on: no nonzero cell of
        load/tmax/count/H outside ``count > 0``, and every snapshot's
        footprint is exactly that set."""
        model = generate_model(
            SCENARIO_2.scaled(n_strings=16, n_machines=4), seed=seed
        )
        rng = np.random.default_rng(seed)
        state = AllocationState(model, backend="soa")
        snaps = [state.snapshot()]
        for _ in range(300):
            op = rng.random()
            if op < 0.6:
                self._random_add(state, rng)
            elif op < 0.75 and state.mapped_ids:
                state.remove(int(rng.choice(state.mapped_ids)))
            elif op < 0.9:
                snap = state.snapshot()
                cells = np.flatnonzero(state._cntT > 0.0)
                np.testing.assert_array_equal(np.sort(snap.fp), cells)
                snaps.append(snap)
            else:
                state.restore(snaps[int(rng.integers(len(snaps)))])
            blocks = state._buf[7:].reshape(4, -1)
            nonzero = (blocks != 0.0).any(axis=0)
            assert not (nonzero & (state._cntT <= 0.0).ravel()).any()

    def test_snapshot_size_bound(self):
        """The state-micro MWF allocation (50 strings, 8 machines)
        snapshots in at most a quarter of the dense 118 000 B, and the
        ratio shrinks at 16 machines."""
        from repro.heuristics.mwf import mwf_order
        from repro.heuristics.ordering import allocate_sequence
        from repro.workload import get_scenario

        ratios = []
        for n_machines in (8, 16):
            params = get_scenario("1").scaled(
                n_strings=50, n_machines=n_machines
            )
            model = generate_model(params, seed=1234)
            outcome = allocate_sequence(model, mwf_order(model))
            state = AllocationState(model, backend="soa")
            for sid in outcome.mapped_ids:
                assert state.try_add(sid, outcome.state.machines_for(sid))
            dense = state._buf.nbytes
            ratios.append(_snapshot_nbytes(state.snapshot()) / dense)
            if n_machines == 8:
                assert state.n_strings == 35
                assert dense == 118_000
        assert ratios[0] <= 0.25
        assert ratios[1] < ratios[0]

    def test_restore_rejects_other_model_shape(self):
        small, large = (
            generate_model(SCENARIO_1.scaled(n_strings=8, n_machines=m), seed=5)
            for m in (3, 4)
        )
        state = AllocationState(large, backend="soa")
        state.try_add(0, [0] * large.strings[0].n_apps)
        before = state._buf.copy()
        foreign = AllocationState(small, backend="soa").snapshot()
        with pytest.raises(ValueError):
            state.restore(foreign)
        np.testing.assert_array_equal(state._buf, before)
