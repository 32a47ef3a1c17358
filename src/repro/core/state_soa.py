"""Struct-of-arrays feasibility kernel (the default ``"soa"`` backend).

Drop-in replacement for :class:`repro.core.state.RecordAllocationState`
that stores every cached per-string quantity in one dense float buffer
so the two-stage feasibility analysis runs as vectorized NumPy kernels.
``snapshot()``/``restore()`` copy the per-resource blocks only over the
cells the mapped strings occupy (see *Sparse snapshots* below).

Layout
------
Resources live on a *fused axis* of size ``C = M + M²``: machine ``j``
is resource ``j``; inter-machine route ``(j1, j2)`` is resource
``M + j1*M + j2``.  A :class:`~repro.core.profile.StringProfile`
pre-computes its touched resources on this axis (``res_idx`` — machines
ascending, then routes ascending), so one gather covers machines and
routes at once.

All mutable per-string state is a single ``(7 + 4C, N)`` float64 buffer
(``N`` = number of strings, slot = string id):

====================  =======================================================
rows                  contents
====================  =======================================================
``0..6``              per-slot ``period``, ``nominal_path``, ``max_latency``,
                      ``tightness``, ``wait_sum``, and the pre-multiplied
                      bounds ``period*(1+tol)`` / ``max_latency*(1+tol)``
                      (zero when unmapped)
``7       .. 7+C``    ``load[ρ, z]`` — stage-1 utilization contribution
``7+C   .. 7+2C``     ``tmax[ρ, z]`` — binding nominal time on ``ρ``
``7+2C  .. 7+3C``     ``count[ρ, z]`` — apps/transfers of ``z`` on ``ρ``
                      (doubles as the membership table: ``count > 0``)
``7+3C  .. 7+4C``     ``H[ρ, z]`` — higher-priority interference on ``ρ``
====================  =======================================================

The transposed ``(C, N)`` orientation makes the hot gathers single-axis
row gathers (``cnt.take(res_idx, axis=0)`` → a ``(c, N)`` block)
instead of 2-D ``np.ix_`` products.  Stage-1 utilization is a separate
fused ``(C,)`` vector whose first ``M`` entries / trailing ``M²``
entries are exposed as the ``machine_util`` / ``route_util`` views of
the public API.

Bit-identity with the record backend
------------------------------------
Both backends execute the same scalar floating-point operations in the
same order on every accumulator (see the canonical-order notes in
:mod:`repro.core.state`):

* interference on a *newly added* string is derived from its priority
  predecessor — ``H_new[ρ] = H[w, ρ] + load[w, ρ]`` for the
  lowest-priority user ``w`` above the new key — found here per
  resource by an ``argmin`` over the reversed slot axis (first minimum
  in reverse order = minimum tightness with the largest id, i.e. the
  smallest key above the new one);
* the new string's ``wait_sum`` is one sequential scalar chain over
  touched resources in fused order (``res_count_list`` keeps that loop
  in plain Python floats);
* stage-2b ``wait_sum`` increments accumulate column-by-column in fused
  order via ``np.add.reduce(..., axis=0)`` — an *outer-axis* reduction,
  which NumPy performs as sequential row additions, i.e. exactly the
  record backend's per-resource chain (untouched slots add ``+0.0``,
  which is exact; the equivalence suite would catch any change to this
  reduction order);
* the pre-multiplied bound rows hold ``period*(1+tol)`` and
  ``max_latency*(1+tol)`` — the identical products the record backend
  forms on the fly;
* first-reported rejections scan resources in fused order and users in
  ascending id order, matching the record backend's loop order, so
  ``last_rejection`` is field-for-field identical.

CSR user tables (which strings use resource ``ρ``) are derived lazily
from the ``count`` block — ``np.nonzero`` row-major order yields each
resource's users already ascending — cached, and invalidated by any
mutation; the hot path itself only needs the dense ``count > 0`` masks.

Sparse snapshots
----------------
Every nonzero cell of the four per-resource blocks lies where
``count > 0``: a string writes ``load``/``tmax``/``count``/``H`` only
at its own touched resources, interference ``H`` changes only for users
of the resource, and ``remove`` zeroes the whole column.  That set of
flat cells ``ρ*N + z`` is the *footprint*; a snapshot stores the seven
scalar rows densely and the four blocks as a ``(4, nnz)`` gather over
the footprint.  For the ``state-micro`` MWF allocation (35 of 50
strings on 8 machines, 306 footprint cells) that is 15.7 KB of arrays
against 118 KB for a dense copy; on 16 machines 25 KB against 438 KB —
the dense size grows with ``M²``, the footprint with the strings'
applications and transfers.

The state keeps its current footprint as a trail: the footprint at the
last snapshot/restore plus the strings committed since, so a snapshot
extends it by only the new strings' cells instead of rescanning the
``count`` block.  ``remove`` drops the trail (the next snapshot rescans
``count > 0``); ``restore`` zeroes the current footprint — or the whole
block when the trail is unknown — scatters the snapshot's values and
adopts its footprint.  Every cell is copied exactly, so restores are
bit-identical to dense copies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .allocation import Allocation
from .exceptions import AllocationError
from .feasibility import DEFAULT_TOL
from .model import SystemModel
from .profile import ProfileCache, Route, StringProfile
from .state import AllocationState, RejectionReason
from .types import FloatArray, IntArray, IntVectorLike

if TYPE_CHECKING:
    from .state import StateSnapshotLike

__all__ = ["SoaAllocationState", "SoaStateSnapshot"]

#: Number of per-slot scalar rows ahead of the per-resource blocks.
_SCALAR_ROWS = 7


class SoaStateSnapshot:
    """Frozen sparse copy of an SoA state's mutable core.

    Holds the ``(7, N)`` scalar rows, the fused utilization vector, the
    mapped mask and a profile-dict copy densely; the four per-resource
    blocks are stored only over the footprint (``count > 0``) as flat
    cell indices ``fp`` (``ρ*N + z``, ``intp``: a narrower index would
    be cast on every gather and scatter) plus a ``(4, nnz)`` value
    array.
    ``tol`` is the tolerance the bound rows were formed under.
    Profiles are immutable and shared.  Detached exactly like
    :class:`~repro.core.state.StateSnapshot`: one snapshot can seed any
    number of states.
    """

    __slots__ = (
        "scalars", "fp", "vals", "util", "mapped", "profiles", "worth", "tol"
    )

    def __init__(
        self,
        scalars: FloatArray,
        fp: IntArray,
        vals: FloatArray,
        util: FloatArray,
        mapped: "np.ndarray[tuple[int], np.dtype[np.bool_]]",
        profiles: dict[int, StringProfile],
        worth: float,
        tol: float,
    ) -> None:
        self.scalars = scalars
        self.fp = fp
        self.vals = vals
        self.util = util
        self.mapped = mapped
        self.profiles = profiles
        self.worth = worth
        self.tol = tol

    @property
    def n_strings(self) -> int:
        return len(self.profiles)

    def __repr__(self) -> str:
        return (
            f"SoaStateSnapshot(n_strings={self.n_strings}, "
            f"nnz={self.fp.size}, worth={self.worth:g})"
        )


class SoaAllocationState(AllocationState):
    """The struct-of-arrays backend (``backend="soa"``, the default)."""

    backend = "soa"

    def __init__(
        self,
        model: SystemModel,
        tol: float = DEFAULT_TOL,
        profile_cache: ProfileCache | None = None,
        backend: str | None = None,
    ) -> None:
        super().__init__(model, tol, profile_cache)
        M = model.n_machines
        N = len(model.strings)
        C = M + M * M
        self._n_resources = C
        buf = np.zeros((_SCALAR_ROWS + 4 * C, N))
        self._buf: FloatArray = buf
        self._period: FloatArray = buf[0]
        self._nominal: FloatArray = buf[1]
        self._maxlat: FloatArray = buf[2]
        self._tight: FloatArray = buf[3]
        self._wait: FloatArray = buf[4]
        self._pbound: FloatArray = buf[5]  # period * (1 + tol)
        self._lbound: FloatArray = buf[6]  # max_latency * (1 + tol)
        o = _SCALAR_ROWS
        self._loadT: FloatArray = buf[o : o + C]
        self._tmaxT: FloatArray = buf[o + C : o + 2 * C]
        self._cntT: FloatArray = buf[o + 2 * C : o + 3 * C]
        self._HT: FloatArray = buf[o + 3 * C : o + 4 * C]
        # The four blocks as one (4, C*N) view: flat cell ρ*N + z.
        self._blocks: FloatArray = buf[o:].reshape(4, C * N)
        self._util: FloatArray = np.zeros(C)
        # Public views share storage with the fused vector: updating
        # _util updates them and vice versa (restore uses copyto so the
        # aliasing survives).
        self.machine_util = self._util[:M]
        self.route_util = self._util[M:].reshape(M, M)
        self._mapped: np.ndarray[tuple[int], np.dtype[np.bool_]] = np.zeros(
            N, dtype=bool
        )
        self._ids: IntArray = np.arange(N, dtype=np.int64)
        self._profiles: dict[int, StringProfile] = {}
        self._csr: tuple[IntArray, IntArray] | None = None
        # Footprint trail (see "Sparse snapshots"): the flat cells at
        # the last snapshot/restore (None once a remove made it
        # unknown) plus the strings committed since.
        self._trail_fp: IntArray | None = np.empty(0, dtype=np.intp)
        self._trail_new: list[int] = []
        # Reusable scratch for try_add/remove temporaries (never part of
        # snapshots; each value is fully rewritten before it is read
        # within one call).  The (c, N) blocks are sized for the widest
        # profile seen so far and grown on demand — c is bounded by the
        # largest string's touched-resource count, not by C.
        self._sc_cap = 0
        self._sc_S: FloatArray = np.empty((0, N))
        self._sc_keyed: FloatArray = np.empty((0, N))
        self._sc_Hg: FloatArray = np.empty((0, N))
        self._sc_Hp: FloatArray = np.empty((0, N))
        self._sc_tmax: FloatArray = np.empty((0, N))
        self._sc_used = np.zeros((0, N), dtype=bool)
        self._sc_Mh = np.zeros((0, N), dtype=bool)
        self._sc_Ml = np.zeros((0, N), dtype=bool)
        self._sc_viol = np.zeros((0, N), dtype=bool)
        self._sc_has = np.zeros(0, dtype=bool)
        self._sc_row_f: FloatArray = np.empty(N)
        self._sc_row_g: FloatArray = np.empty(N)
        self._sc_hi = np.zeros(N, dtype=bool)
        self._sc_eq = np.zeros(N, dtype=bool)
        self._sc_lt = np.zeros(N, dtype=bool)
        self._sc_violL = np.zeros(N, dtype=bool)

    def _ensure_scratch(self, c: int) -> None:
        """Grow the per-resource scratch blocks to at least ``c`` rows."""
        if c <= self._sc_cap:
            return
        N = self._ids.size
        self._sc_cap = c
        self._sc_S = np.empty((c, N))
        self._sc_keyed = np.empty((c, N))
        self._sc_Hg = np.empty((c, N))
        self._sc_Hp = np.empty((c, N))
        self._sc_tmax = np.empty((c, N))
        self._sc_used = np.zeros((c, N), dtype=bool)
        self._sc_Mh = np.zeros((c, N), dtype=bool)
        self._sc_Ml = np.zeros((c, N), dtype=bool)
        self._sc_viol = np.zeros((c, N), dtype=bool)
        self._sc_has = np.zeros(c, dtype=bool)

    # -- read-only views -------------------------------------------------------

    @property
    def n_strings(self) -> int:
        return len(self._profiles)

    def _compute_mapped_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._profiles))

    def machines_for(self, string_id: int) -> IntArray:
        return self._profiles[string_id].machines

    def __contains__(self, string_id: int) -> bool:
        return string_id in self._profiles

    def as_allocation(self) -> Allocation:
        return Allocation(
            self.model,
            {k: p.machines for k, p in self._profiles.items()},
        )

    def estimated_latency(self, string_id: int) -> float:
        p = self._profiles[string_id]
        return p.nominal_path + p.period * float(self._wait[string_id])

    def interference_terms(
        self, string_id: int
    ) -> tuple[dict[int, float], dict[Route, float], float]:
        p = self._profiles[string_id]
        M = self.model.n_machines
        H_m: dict[int, float] = {}
        H_r: dict[Route, float] = {}
        hrow = self._HT[p.res_idx, string_id]
        for rho, h in zip(p.res_idx.tolist(), hrow.tolist()):
            if rho < M:
                H_m[rho] = h
            else:
                j1, j2 = divmod(rho - M, M)
                H_r[(j1, j2)] = h
        return H_m, H_r, float(self._wait[string_id])

    def _user_table(self) -> tuple[IntArray, IntArray]:
        """Lazy CSR (indptr, indices) of users per fused resource."""
        csr = self._csr
        if csr is None:
            res, ids = np.nonzero(self._cntT > 0.0)
            counts = np.bincount(res, minlength=self._n_resources)
            indptr = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
            ).astype(np.int64)
            csr = (indptr, ids.astype(np.int64))
            self._csr = csr
        return csr

    def machine_users(self, j: int) -> IntArray:
        indptr, indices = self._user_table()
        return indices[indptr[j] : indptr[j + 1]].copy()

    def route_users(self, j1: int, j2: int) -> IntArray:
        M = self.model.n_machines
        rho = M + j1 * M + j2
        indptr, indices = self._user_table()
        return indices[indptr[rho] : indptr[rho + 1]].copy()

    # -- snapshot / restore ------------------------------------------------------

    def _footprint(self) -> IntArray | None:
        """Current footprint from the trail (``None`` when unknown)."""
        fp = self._trail_fp
        if fp is None or not self._trail_new:
            return fp
        N = self._ids.size
        fp = np.concatenate(
            [fp] + [self._profiles[s].res_idx * N + s for s in self._trail_new]
        )
        self._trail_fp = fp
        self._trail_new.clear()
        return fp

    def snapshot(self) -> SoaStateSnapshot:
        """Detached copy of the mutable core, sparse over the footprint."""
        fp = self._footprint()
        if fp is None:
            fp = np.flatnonzero(self._cntT > 0.0)
            self._trail_fp = fp
            self._trail_new.clear()
        return SoaStateSnapshot(
            scalars=self._buf[:_SCALAR_ROWS].copy(),
            fp=fp,
            vals=self._blocks.take(fp, axis=1),
            util=self._util.copy(),
            mapped=self._mapped.copy(),
            profiles=dict(self._profiles),
            worth=self._worth,
            tol=self.tol,
        )

    def restore(self, snapshot: "StateSnapshotLike") -> None:
        if not isinstance(snapshot, SoaStateSnapshot):
            raise TypeError(
                f"cannot restore a {type(snapshot).__name__} into the "
                f"'soa' backend; snapshots do not transfer between "
                f"backends"
            )
        if (
            snapshot.scalars.shape[1] != self._ids.size
            or snapshot.util.shape != self._util.shape
        ):
            raise ValueError(
                "cannot restore a snapshot of a model with another shape"
            )
        # In-place writes (not rebinding) keep the buffer row views and
        # the machine_util/route_util aliases valid.
        fp = self._footprint()
        if fp is None:
            self._blocks.fill(0.0)
        elif fp is not snapshot.fp:  # the scatter rewrites its own cells
            self._blocks[:, fp] = 0.0
        self._blocks[:, snapshot.fp] = snapshot.vals
        np.copyto(self._buf[:_SCALAR_ROWS], snapshot.scalars)
        np.copyto(self._util, snapshot.util)
        np.copyto(self._mapped, snapshot.mapped)
        # Exact comparison on purpose: the bound rows came with the
        # snapshot, and a same-tol state would form the identical
        # products; another tol re-derives them under *this* state's.
        if snapshot.tol != self.tol:
            bound = 1.0 + self.tol
            np.multiply(self._period, bound, out=self._pbound)
            np.multiply(self._maxlat, bound, out=self._lbound)
        self._trail_fp = snapshot.fp
        self._trail_new.clear()
        self._profiles = dict(snapshot.profiles)
        self._worth = snapshot.worth
        self.last_rejection = None
        self._mapped_cache = None
        self._csr = None

    # -- rejection decoding ------------------------------------------------------

    def _res_name(self, rho: int) -> str:
        M = self.model.n_machines
        if rho < M:
            return f"machine {rho}"
        j1, j2 = divmod(rho - M, M)
        return f"route {j1}->{j2}"

    # -- the core operation -----------------------------------------------------

    def try_add(self, string_id: int, machines: IntVectorLike) -> bool:
        if string_id in self._profiles:
            raise AllocationError(f"string {string_id} is already mapped")
        self.last_rejection = None
        prof = self._get_profile(string_id, machines)
        bound = 1.0 + self.tol
        res_idx = prof.res_idx
        res_load = prof.res_load
        M = self.model.n_machines

        # ---- stage 1: capacity (fused machines + routes, one kernel) --------
        new_util = self._util[res_idx] + res_load
        viol1 = new_util > bound
        if viol1.any():
            ci = int(viol1.argmax())
            rho = int(res_idx[ci])
            kind = "machine-capacity" if rho < M else "route-capacity"
            self.last_rejection = RejectionReason(
                1, kind, self._res_name(rho), float(new_util[ci]), 1.0
            )
            return False

        # ---- priority partition of the mapped strings -----------------------
        # Unmapped slots carry tightness 0 and count 0 (columns are
        # zeroed on remove) while t > 0 always, so `hi` is false and
        # `used` excludes them without an explicit mapped mask.
        t = prof.tightness
        sid = string_id
        tight = self._tight
        ids = self._ids
        hi = np.greater(tight, t, out=self._sc_hi)
        eq = np.equal(  # repro: noqa[RPR001] exact-key tie, ids break it
            tight, t, out=self._sc_eq
        )
        np.less(ids, sid, out=self._sc_lt)
        np.logical_and(eq, self._sc_lt, out=eq)
        np.logical_or(hi, eq, out=hi)

        c = res_idx.size
        self._ensure_scratch(c)
        # (c, N) membership counts
        S = np.take(self._cntT, res_idx, axis=0, out=self._sc_S[:c])
        used = np.greater(S, 0.0, out=self._sc_used[:c])
        Mh = np.logical_and(used, hi, out=self._sc_Mh[:c])
        # used & ~hi (Mh is a subset of used)
        Ml = np.logical_xor(used, Mh, out=self._sc_Ml[:c])

        # ---- stage 2a: the new string under existing interference -----------
        # Priority predecessor per resource: among higher-priority users,
        # the one with minimum key — minimum tightness, largest id on
        # ties.  H_new = H[pred] + load[pred] (one add, no re-summation).
        # argmin over the reversed slot axis returns the *last* minimum,
        # i.e. the largest id among tied tightness values.
        P = prof.period
        has = np.any(Mh, axis=1, out=self._sc_has[:c])
        if has.any():
            n_slots = ids.size
            # keyed = np.where(Mh, tight, inf), built in scratch.
            keyed = self._sc_keyed[:c]
            keyed.fill(np.inf)
            np.copyto(keyed, tight, where=Mh)
            wsel = (n_slots - 1) - keyed[:, ::-1].argmin(axis=1)
            wclip = np.where(has, wsel, 0)
            Hnew = np.where(
                has,
                self._HT[res_idx, wclip] + self._loadT[res_idx, wclip],
                0.0,
            )
        else:
            Hnew = np.zeros(c)
        lhs2a = prof.res_tmax + P * Hnew
        viol2a = lhs2a > P * bound
        if viol2a.any():
            ci = int(viol2a.argmax())
            rho = int(res_idx[ci])
            kind = "throughput-comp" if rho < M else "throughput-tran"
            self.last_rejection = RejectionReason(
                2, kind, f"string {sid} on {self._res_name(rho)}",
                float(lhs2a[ci]), P,
            )
            return False
        # Canonical wait_sum chain: sequential scalar adds over touched
        # resources in fused order (identical to the record backend).
        ws = 0.0
        for count, h in zip(prof.res_count_list, Hnew.tolist()):
            ws += count * h
        latency = prof.nominal_path + P * ws
        if latency > prof.max_latency * bound:
            self.last_rejection = RejectionReason(
                2, "latency", f"string {sid}", latency, prof.max_latency
            )
            return False

        # ---- stage 2b: existing lower-priority strings gain interference ----
        wd: FloatArray | None = None
        Hgather: FloatArray | None = None
        Hplus: FloatArray | None = None
        if Ml.any():
            Hgather = np.take(self._HT, res_idx, axis=0, out=self._sc_Hg[:c])
            Hplus = np.add(Hgather, res_load[:, None], out=self._sc_Hp[:c])
            # lhs2b = tmax_gather + period * Hplus, built in scratch
            # (keyed is dead after stage 2a and holds the product).
            tmaxg = np.take(self._tmaxT, res_idx, axis=0, out=self._sc_tmax[:c])
            ph = np.multiply(self._period, Hplus, out=self._sc_keyed[:c])
            lhs2b = np.add(tmaxg, ph, out=ph)
            viol2b = np.greater(lhs2b, self._pbound, out=self._sc_viol[:c])
            np.logical_and(Ml, viol2b, out=viol2b)
            if viol2b.any():
                rows = viol2b.any(axis=1)
                ci = int(rows.argmax())
                z = int(viol2b[ci].argmax())
                rho = int(res_idx[ci])
                kind = "throughput-comp" if rho < M else "throughput-tran"
                self.last_rejection = RejectionReason(
                    2, kind, f"string {z} on {self._res_name(rho)}",
                    float(lhs2b[ci, z]), float(self._period[z]),
                )
                return False
            # Per-slot wait_sum increments, accumulated column-by-column
            # in fused order: np.add.reduce over the outer axis performs
            # sequential row additions — the identical scalar chain the
            # record backend builds (+0.0 on untouched slots is exact).
            # S is dead after the product, so the multiply lands there;
            # `used` is dead too and takes the ~Ml mask.
            prods = np.multiply(S, res_load[:, None], out=S)
            np.copyto(prods, 0.0, where=np.logical_not(Ml, out=used))
            wd = np.add.reduce(prods, axis=0, out=self._sc_row_f)
            # No `wd > 0` mask needed: a slot whose wait_sum does not
            # grow keeps its current latency, which already passed this
            # identical check when the slot was last touched (unmapped
            # slots compare 0 > 0).
            newlat = np.add(self._wait, wd, out=self._sc_row_g)
            np.multiply(self._period, newlat, out=newlat)
            np.add(self._nominal, newlat, out=newlat)
            violL = np.greater(newlat, self._lbound, out=self._sc_violL)
            if violL.any():
                z = int(violL.argmax())
                self.last_rejection = RejectionReason(
                    2, "latency", f"string {z}",
                    float(newlat[z]), float(self._maxlat[z]),
                )
                return False

        # ---- commit ----------------------------------------------------------
        self._util[res_idx] += res_load
        if wd is not None:
            assert Hgather is not None and Hplus is not None
            # Full-row writeback selecting the incremented value for
            # lower-priority users (the same H + load addition checked
            # above); stale column sid carries zeros and is overwritten
            # by the row scatter just below.  Built in the dead tmax
            # scratch: np.where(Ml, Hplus, Hgather).
            wb = self._sc_tmax[:c]
            np.copyto(wb, Hgather)
            np.copyto(wb, Hplus, where=Ml)
            self._HT[res_idx] = wb
            self._wait += wd
        self._period[sid] = P
        self._nominal[sid] = prof.nominal_path
        self._maxlat[sid] = prof.max_latency
        self._tight[sid] = t
        self._wait[sid] = ws
        self._pbound[sid] = P * bound
        self._lbound[sid] = prof.max_latency * bound
        self._loadT[res_idx, sid] = res_load
        self._tmaxT[res_idx, sid] = prof.res_tmax
        self._cntT[res_idx, sid] = prof.res_count
        self._HT[res_idx, sid] = Hnew
        self._note_commit(sid, prof)
        return True

    def _note_commit(self, sid: int, prof: StringProfile) -> None:
        """Bookkeeping after the buffer writes of an accepted add."""
        self._mapped[sid] = True
        self._profiles[sid] = prof
        self._worth += self.model.strings[sid].worth
        self._trail_new.append(sid)
        self._mapped_cache = None
        self._csr = None

    def remove(self, string_id: int) -> None:
        prof = self._profiles.pop(string_id, None)
        if prof is None:
            raise AllocationError(f"string {string_id} is not mapped")
        res_idx = prof.res_idx
        res_load = prof.res_load
        t = prof.tightness
        sid = string_id
        tight = self._tight
        ids = self._ids
        lo = np.less(tight, t, out=self._sc_hi)
        eq = np.equal(  # repro: noqa[RPR001] exact-key tie, ids break it
            tight, t, out=self._sc_eq
        )
        np.greater(ids, sid, out=self._sc_lt)
        np.logical_and(eq, self._sc_lt, out=eq)
        np.logical_or(lo, eq, out=lo)

        c = res_idx.size
        self._ensure_scratch(c)
        self._util[res_idx] -= res_load
        S = np.take(self._cntT, res_idx, axis=0, out=self._sc_S[:c])
        # count > 0 already restricts to mapped slots (columns are
        # zeroed on remove), so no explicit mapped mask is needed.
        Ml = np.greater(S, 0.0, out=self._sc_used[:c])
        np.logical_and(Ml, lo, out=Ml)
        if Ml.any():
            # HT[res_idx] -= np.where(Ml, res_load[:, None], 0.0)
            Hg = np.take(self._HT, res_idx, axis=0, out=self._sc_Hg[:c])
            sub = self._sc_Hp[:c]
            sub.fill(0.0)
            np.copyto(sub, res_load[:, None], where=Ml)
            np.subtract(Hg, sub, out=Hg)
            self._HT[res_idx] = Hg
            prods = np.multiply(S, res_load[:, None], out=S)
            np.copyto(prods, 0.0, where=np.logical_not(Ml, out=self._sc_Mh[:c]))
            # Column-by-column subtraction: the record backend's
            # per-resource chain, in the same fused order (a fold of
            # subtractions is NOT a subtraction of a sum, so no reduce).
            for col in range(c):
                self._wait -= prods[col]
        self._buf[:, sid] = 0.0
        self._trail_fp = None
        self._trail_new.clear()
        self._mapped[sid] = False
        self._worth -= self.model.strings[sid].worth
        self._mapped_cache = None
        self._csr = None
