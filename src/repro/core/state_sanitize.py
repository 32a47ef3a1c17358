"""Lockstep sanitizer backend (``backend="sanitize"``).

:class:`SanitizeAllocationState` drives the SoA-family kernel (the
``"jit"`` tier, which is the plain ``"soa"`` struct-of-arrays kernel
wherever numba is absent and the compiled one where it is installed)
and the ``"record"`` reference implementation *in lockstep*: every
mutation (:meth:`try_add`, :meth:`remove`), snapshot, and restore is
executed on both children and the full mutable core is then asserted
bit-identical — utilization accumulators, mapped-string sets, worth,
per-string interference terms (``H`` per machine/route and ``wait_sum``),
and the :class:`~repro.core.state.RejectionReason` diagnostics,
field-for-field including the exact floats.

The fuzz suite already asserts this equivalence offline; this backend
makes the guarantee *enforceable under any test run*: set
``REPRO_STATE_BACKEND=sanitize`` and every heuristic, GENITOR evaluation,
and DES validation in the process transparently cross-checks the two
kernels on every operation, raising :class:`StateDivergenceError` at the
first operation whose results differ.  It is strictly a verification
tool — roughly the cost of both backends plus the comparison — and is
never the right choice for benchmarking (the bench harness pins its
backend list to ``("soa", "record")`` for exactly that reason).

All comparisons are *exact*, not tolerance-based: the two backends
promise the same scalar floating-point operations in the same canonical
order (see :mod:`repro.core.state`), so even one ULP of drift is a real
ordering bug that epsilon comparison would mask.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .allocation import Allocation
from .exceptions import AllocationError
from .feasibility import DEFAULT_TOL
from .model import SystemModel
from .profile import ProfileCache, Route
from .state import AllocationState, RecordAllocationState, RejectionReason
from .state_jit import JitAllocationState
from .state_soa import SoaStateSnapshot
from .types import IntArray, IntVectorLike

if TYPE_CHECKING:
    from .state import StateSnapshot, StateSnapshotLike

__all__ = [
    "SanitizeAllocationState",
    "SanitizeStateSnapshot",
    "StateDivergenceError",
]


class StateDivergenceError(AssertionError):
    """The soa and record backends disagreed under lockstep execution.

    Raised by the ``"sanitize"`` backend at the first mutation, snapshot,
    or restore whose results are not bit-identical across the two
    backends.  Derives from :class:`AssertionError`: a divergence is a
    broken invariant of the reproduction, never a recoverable condition.
    """


class SanitizeStateSnapshot:
    """Paired snapshot of both children of a sanitize state."""

    __slots__ = ("soa", "record")

    def __init__(self, soa: SoaStateSnapshot, record: "StateSnapshot") -> None:
        self.soa = soa
        self.record = record

    @property
    def n_strings(self) -> int:
        return self.soa.n_strings

    @property
    def worth(self) -> float:
        return self.soa.worth

    def __repr__(self) -> str:
        return (
            f"SanitizeStateSnapshot(n_strings={self.n_strings}, "
            f"worth={self.worth:g})"
        )


class SanitizeAllocationState(AllocationState):
    """Lockstep soa+record execution with bit-identity assertions.

    Reads delegate to the soa child (whose ``machine_util`` /
    ``route_util`` views this state aliases, so the inherited query
    helpers work unchanged); writes run on both children and then
    :meth:`_verify` compares the complete mutable core.
    """

    backend = "sanitize"

    def __init__(
        self,
        model: SystemModel,
        tol: float = DEFAULT_TOL,
        profile_cache: ProfileCache | None = None,
        backend: str | None = None,
    ) -> None:
        super().__init__(model, tol, profile_cache)
        # Share one profile cache so both children see the identical
        # (memoized) immutable profiles; profiles are deterministic, so
        # this is an optimization, not a correctness requirement.
        # The SoA-family child is the jit backend: without numba it IS
        # the plain SoA kernel (pure inheritance), and where numba is
        # installed the sanitizer thereby lockstep-checks the compiled
        # try_add kernel against the record reference on every call.
        self._soa = JitAllocationState(model, tol, profile_cache)
        self._rec = RecordAllocationState(model, tol, profile_cache)
        # Alias the soa views; they survive restore (copyto), so the
        # inherited slackness() reads live data without extra
        # indirection.
        self.machine_util = self._soa.machine_util
        self.route_util = self._soa.route_util
        self._verify("init")

    # -- read-only views -------------------------------------------------------

    @property
    def n_strings(self) -> int:
        return self._soa.n_strings

    def _compute_mapped_ids(self) -> tuple[int, ...]:
        return self._soa.mapped_ids

    def machines_for(self, string_id: int) -> IntArray:
        return self._soa.machines_for(string_id)

    def __contains__(self, string_id: int) -> bool:
        return string_id in self._soa

    def as_allocation(self) -> Allocation:
        return self._soa.as_allocation()

    def estimated_latency(self, string_id: int) -> float:
        return self._soa.estimated_latency(string_id)

    def interference_terms(
        self, string_id: int
    ) -> tuple[dict[int, float], dict[Route, float], float]:
        return self._soa.interference_terms(string_id)

    def machine_users(self, j: int) -> IntArray:
        return self._soa.machine_users(j)

    def route_users(self, j1: int, j2: int) -> IntArray:
        return self._soa.route_users(j1, j2)

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self) -> SanitizeStateSnapshot:
        self._verify("snapshot")
        return SanitizeStateSnapshot(
            soa=self._soa.snapshot(), record=self._rec.snapshot()
        )

    def restore(self, snapshot: "StateSnapshotLike") -> None:
        if not isinstance(snapshot, SanitizeStateSnapshot):
            raise TypeError(
                f"cannot restore a {type(snapshot).__name__} into the "
                f"'sanitize' backend; snapshots do not transfer between "
                f"backends"
            )
        self._soa.restore(snapshot.soa)
        self._rec.restore(snapshot.record)
        self._sync()
        self._verify("restore")

    # -- the core operations -----------------------------------------------------

    def try_add(self, string_id: int, machines: IntVectorLike) -> bool:
        ok_soa, exc_soa = self._attempt(self._soa, string_id, machines)
        ok_rec, exc_rec = self._attempt(self._rec, string_id, machines)
        if (exc_soa is None) != (exc_rec is None):
            raise StateDivergenceError(
                f"try_add({string_id}): soa "
                f"{'raised ' + repr(exc_soa) if exc_soa else f'returned {ok_soa}'}"
                f" but record "
                f"{'raised ' + repr(exc_rec) if exc_rec else f'returned {ok_rec}'}"
            )
        if exc_soa is not None:
            self._verify(f"try_add({string_id}) [raised]")
            raise exc_soa
        if ok_soa is not ok_rec:
            raise StateDivergenceError(
                f"try_add({string_id}): soa returned {ok_soa} but record "
                f"returned {ok_rec} "
                f"(soa rejection: {self._soa.last_rejection}, "
                f"record rejection: {self._rec.last_rejection})"
            )
        self._sync()
        self._verify(f"try_add({string_id})")
        return bool(ok_soa)

    def remove(self, string_id: int) -> None:
        _, exc_soa = self._attempt_remove(self._soa, string_id)
        _, exc_rec = self._attempt_remove(self._rec, string_id)
        if (exc_soa is None) != (exc_rec is None):
            raise StateDivergenceError(
                f"remove({string_id}): soa "
                f"{'raised ' + repr(exc_soa) if exc_soa else 'succeeded'}"
                f" but record "
                f"{'raised ' + repr(exc_rec) if exc_rec else 'succeeded'}"
            )
        self._sync()
        self._verify(f"remove({string_id})")
        if exc_soa is not None:
            raise exc_soa

    @staticmethod
    def _attempt(
        state: AllocationState, string_id: int, machines: IntVectorLike
    ) -> tuple[bool | None, AllocationError | None]:
        try:
            return state.try_add(string_id, machines), None
        except AllocationError as exc:
            return None, exc

    @staticmethod
    def _attempt_remove(
        state: AllocationState, string_id: int
    ) -> tuple[None, AllocationError | None]:
        try:
            state.remove(string_id)
            return None, None
        except AllocationError as exc:
            return None, exc

    # -- lockstep bookkeeping ----------------------------------------------------

    def _sync(self) -> None:
        """Mirror the soa child's summary fields onto this facade."""
        self._worth = self._soa.total_worth
        self._mapped_cache = None
        self.last_rejection = self._soa.last_rejection

    def _verify(self, op: str) -> None:
        """Assert the two children are bit-identical after ``op``."""
        fail = self._divergence()
        if fail is not None:
            raise StateDivergenceError(f"after {op}: {fail}")

    def _divergence(self) -> str | None:
        """First bit-level disagreement between the children, if any."""
        soa, rec = self._soa, self._rec
        worth_soa = soa.total_worth
        worth_rec = rec.total_worth
        if worth_soa != worth_rec:
            return f"worth {worth_soa!r} (soa) != {worth_rec!r} (record)"
        if not np.array_equal(soa.machine_util, rec.machine_util):
            return (
                f"machine_util soa={soa.machine_util!r} "
                f"record={rec.machine_util!r}"
            )
        if not np.array_equal(soa.route_util, rec.route_util):
            return (
                f"route_util soa={soa.route_util!r} "
                f"record={rec.route_util!r}"
            )
        ids_soa = soa.mapped_ids
        ids_rec = rec.mapped_ids
        if ids_soa != ids_rec:
            return f"mapped ids {ids_soa} (soa) != {ids_rec} (record)"
        rej_soa = soa.last_rejection
        rej_rec = rec.last_rejection
        if not _rejections_identical(rej_soa, rej_rec):
            return (
                f"last_rejection {rej_soa!r} (soa) != {rej_rec!r} (record)"
            )
        for sid in ids_soa:
            terms_soa = soa.interference_terms(sid)
            terms_rec = rec.interference_terms(sid)
            if terms_soa != terms_rec:
                return (
                    f"interference terms of string {sid}: "
                    f"{terms_soa!r} (soa) != {terms_rec!r} (record)"
                )
            lat_soa = soa.estimated_latency(sid)
            lat_rec = rec.estimated_latency(sid)
            if lat_soa != lat_rec:
                return (
                    f"estimated latency of string {sid}: "
                    f"{lat_soa!r} (soa) != {lat_rec!r} (record)"
                )
        return None


def _rejections_identical(
    a: RejectionReason | None, b: RejectionReason | None
) -> bool:
    """Field-for-field identity, with exact float comparison intended."""
    if a is None or b is None:
        return a is b
    value_a, value_b = a.value, b.value
    bound_a, bound_b = a.bound, b.bound
    return (
        a.stage == b.stage
        and a.kind == b.kind
        and a.where == b.where
        and value_a == value_b
        and bound_a == bound_b
    )
