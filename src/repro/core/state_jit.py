"""Optionally-compiled feasibility kernel (the ``"jit"`` backend).

:class:`JitAllocationState` is the struct-of-arrays backend with the
scalar ``try_add`` hot loop compiled by :mod:`numba` when it is
importable.  The import is guarded: without numba the class *is* the
SoA backend (every method inherited unchanged), so selecting
``backend="jit"`` is always safe — it never changes results, only
throughput.  :data:`HAVE_NUMBA` reports which tier is active.

Bit-identity
------------
The compiled kernel performs the identical IEEE-754 operations in the
identical order as the SoA and record kernels (see the canonical-order
notes in :mod:`repro.core.state`):

* stage-1 capacity checks scan touched resources in fused order and
  report the first violation;
* the priority predecessor per resource is found by an ascending scan
  keeping the *last* minimum-tightness user (``<=`` update), which is
  exactly the SoA kernel's reversed-axis ``argmin`` (minimum tightness,
  largest id on ties);
* the new string's ``wait_sum`` is the same sequential scalar chain
  over touched resources in fused order;
* stage-2b wait increments accumulate per slot in fused resource order
  from a zero initialization — ``0.0 + x == x`` exactly for the
  non-negative addends involved, matching ``np.add.reduce``'s
  row-sequential fold;
* commit adds mirror the SoA scatter/writeback operations one scalar
  at a time on disjoint cells.

The cross-backend fuzz walks (``tests/test_state_jit.py``) and the
``sanitize`` lockstep backend gate this equivalence wherever numba is
actually installed (the dedicated CI job); without numba the backend is
the SoA code itself, so there is nothing new to diverge.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .exceptions import AllocationError
from .state import RejectionReason
from .state_soa import SoaAllocationState
from .types import FloatArray, IntVectorLike

__all__ = ["HAVE_NUMBA", "JitAllocationState"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba  # type: ignore[import-untyped,import-not-found]

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the container default
    numba = None
    HAVE_NUMBA = False


#: Kernel status codes (must match the decoder in ``try_add``).
_OK = 0
_REJ_STAGE1 = 1
_REJ_2A_THROUGHPUT = 2
_REJ_2A_LATENCY = 3
_REJ_2B_THROUGHPUT = 4
_REJ_2B_LATENCY = 5


def _try_add_kernel(
    loadT: FloatArray,
    tmaxT: FloatArray,
    cntT: FloatArray,
    HT: FloatArray,
    period: FloatArray,
    nominal: FloatArray,
    maxlat: FloatArray,
    tight: FloatArray,
    wait: FloatArray,
    pbound: FloatArray,
    lbound: FloatArray,
    util: FloatArray,
    res_idx: np.ndarray,
    res_load: FloatArray,
    res_tmax: FloatArray,
    res_count: FloatArray,
    Hnew: FloatArray,
    wd: FloatArray,
    info: FloatArray,
    sid: int,
    t: float,
    P: float,
    nominal_p: float,
    maxlat_p: float,
    bound: float,
) -> int:
    """Scalar try_add over the SoA buffer rows; compiled under numba.

    Checks never mutate; the commit runs only after every check passed.
    ``info`` receives ``[ci, z, value]`` for the rejection decoder.  The
    pure-NumPy tier never calls this (it inherits the SoA ``try_add``),
    so the Python fallback body exists for the no-numba unit tests only.
    """
    c = res_idx.size
    N = tight.size

    # ---- stage 1: capacity (fused machines + routes) --------------------
    for ci in range(c):
        nu = util[res_idx[ci]] + res_load[ci]
        if nu > bound:
            info[0] = ci
            info[2] = nu
            return _REJ_STAGE1

    # ---- stage 2a: the new string under existing interference -----------
    pb_new = P * bound
    for ci in range(c):
        rho = res_idx[ci]
        w = -1
        best_t = np.inf
        for z in range(N):
            if cntT[rho, z] > 0.0:
                tz = tight[z]
                if tz > t or (
                    tz == t  # repro: noqa[RPR001] exact-key tie, ids break it
                    and z < sid
                ):
                    if tz <= best_t:
                        best_t = tz
                        w = z
        if w < 0:
            Hnew[ci] = 0.0
        else:
            Hnew[ci] = HT[rho, w] + loadT[rho, w]
        lhs = res_tmax[ci] + P * Hnew[ci]
        if lhs > pb_new:
            info[0] = ci
            info[2] = lhs
            return _REJ_2A_THROUGHPUT
    ws = 0.0
    for ci in range(c):
        ws += res_count[ci] * Hnew[ci]
    latency = nominal_p + P * ws
    if latency > maxlat_p * bound:
        info[2] = latency
        return _REJ_2A_LATENCY

    # ---- stage 2b: existing lower-priority strings gain interference ----
    for z in range(N):
        wd[z] = 0.0
    for ci in range(c):
        rho = res_idx[ci]
        load = res_load[ci]
        for z in range(N):
            if cntT[rho, z] > 0.0:
                tz = tight[z]
                if tz < t or (
                    tz == t  # repro: noqa[RPR001] exact-key tie, ids break it
                    and z > sid
                ):
                    lhs2b = tmaxT[rho, z] + period[z] * (HT[rho, z] + load)
                    if lhs2b > pbound[z]:
                        info[0] = ci
                        info[1] = z
                        info[2] = lhs2b
                        return _REJ_2B_THROUGHPUT
                    wd[z] = wd[z] + cntT[rho, z] * load
    for z in range(N):
        newlat = nominal[z] + period[z] * (wait[z] + wd[z])
        if newlat > lbound[z]:
            info[1] = z
            info[2] = newlat
            return _REJ_2B_LATENCY

    # ---- commit ----------------------------------------------------------
    for ci in range(c):
        rho = res_idx[ci]
        load = res_load[ci]
        util[rho] += load
        for z in range(N):
            if cntT[rho, z] > 0.0:
                tz = tight[z]
                if tz < t or (
                    tz == t  # repro: noqa[RPR001] exact-key tie, ids break it
                    and z > sid
                ):
                    HT[rho, z] = HT[rho, z] + load
    for z in range(N):
        wait[z] = wait[z] + wd[z]
    period[sid] = P
    nominal[sid] = nominal_p
    maxlat[sid] = maxlat_p
    tight[sid] = t
    wait[sid] = ws
    pbound[sid] = P * bound
    lbound[sid] = maxlat_p * bound
    for ci in range(c):
        rho = res_idx[ci]
        loadT[rho, sid] = res_load[ci]
        tmaxT[rho, sid] = res_tmax[ci]
        cntT[rho, sid] = res_count[ci]
        HT[rho, sid] = Hnew[ci]
    info[2] = ws
    return _OK


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    # nopython, no fastmath: reassociation would break bit-identity.
    _compiled_try_add: Callable[..., int] = numba.njit(  # type: ignore[misc]
        cache=True, fastmath=False
    )(_try_add_kernel)
else:
    _compiled_try_add = _try_add_kernel


class JitAllocationState(SoaAllocationState):
    """SoA backend with a numba-compiled ``try_add`` when available.

    Without numba every operation is the inherited SoA implementation —
    the pure-NumPy fallback tier.  With numba the two-stage feasibility
    scan plus commit run as one compiled call, skipping per-op NumPy
    dispatch entirely.
    """

    backend = "jit"

    def try_add(self, string_id: int, machines: IntVectorLike) -> bool:
        if not HAVE_NUMBA:
            return super().try_add(string_id, machines)
        if string_id in self._profiles:
            raise AllocationError(f"string {string_id} is already mapped")
        self.last_rejection = None
        prof = self._get_profile(string_id, machines)
        res_idx = prof.res_idx
        c = res_idx.size
        M = self.model.n_machines
        self._ensure_scratch(c)
        Hnew = np.empty(c)
        info = np.zeros(3)
        status = _compiled_try_add(
            self._loadT,
            self._tmaxT,
            self._cntT,
            self._HT,
            self._period,
            self._nominal,
            self._maxlat,
            self._tight,
            self._wait,
            self._pbound,
            self._lbound,
            self._util,
            res_idx,
            prof.res_load,
            prof.res_tmax,
            prof.res_count,
            Hnew,
            self._sc_row_f,
            info,
            string_id,
            prof.tightness,
            prof.period,
            prof.nominal_path,
            prof.max_latency,
            1.0 + self.tol,
        )
        if status == _OK:
            self._note_commit(string_id, prof)
            return True
        value = float(info[2])
        if status == _REJ_STAGE1:
            rho = int(res_idx[int(info[0])])
            kind = "machine-capacity" if rho < M else "route-capacity"
            self.last_rejection = RejectionReason(
                1, kind, self._res_name(rho), value, 1.0
            )
        elif status == _REJ_2A_THROUGHPUT:
            rho = int(res_idx[int(info[0])])
            kind = "throughput-comp" if rho < M else "throughput-tran"
            self.last_rejection = RejectionReason(
                2, kind, f"string {string_id} on {self._res_name(rho)}",
                value, prof.period,
            )
        elif status == _REJ_2A_LATENCY:
            self.last_rejection = RejectionReason(
                2, "latency", f"string {string_id}", value, prof.max_latency
            )
        elif status == _REJ_2B_THROUGHPUT:
            rho = int(res_idx[int(info[0])])
            z = int(info[1])
            kind = "throughput-comp" if rho < M else "throughput-tran"
            self.last_rejection = RejectionReason(
                2, kind, f"string {z} on {self._res_name(rho)}",
                value, float(self._period[z]),
            )
        else:
            z = int(info[1])
            self.last_rejection = RejectionReason(
                2, "latency", f"string {z}", value, float(self._maxlat[z])
            )
        return False
