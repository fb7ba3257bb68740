"""The MPI backend: execute routing plans on a real communicator.

Measurement harness, SPMD replicated-state style: every MPI process
holds the *complete* model state (all virtual ranks' blocks — the same
dict the simulator routes), so any process can compute any message's
payload and every process can verify the bytes the wire delivered.
What MPI adds is real transport and a real clock:

* a plan's wire traffic is exactly its :meth:`RoutingPlan.messages`
  with ``src != dst``, in the order the simulator applies them, and each
  payload is the source read :meth:`RoutingPlan.apply` makes;
* virtual ranks are folded onto the ``world`` processes round-robin
  (:func:`virtual_rank_map`) — running ``p=64`` plans under
  ``mpirun -np 4`` is the normal case, not an error;
* messages are chunked into ``Alltoallv`` rounds whose per-process send
  *and* receive totals each fit the int32 count/displacement limit
  (:func:`build_alltoallv_rounds`) — the pysemtools ``Router`` guard,
  applied to displacements too;
* each round is barriered, timed with ``time.perf_counter`` and its
  received bytes compared against the expected payload (replicated
  state makes the expectation exact; a mismatch is a
  :class:`~repro.backend.base.BackendExecutionError`, not a warning).

Messages between two virtual ranks folded onto the *same* process still
round-trip through ``Alltoallv`` (self-segments) so they are verified,
but they never cross a NIC — their words are reported as
``colocated_words`` on the measurement record, flagging that the
measured seconds under-state the model's cost whenever
``world < n_vranks``.  Returned block values come from
:meth:`RoutingPlan.apply` on the replicated state, so results are
bit-identical to the simulator *by construction*; the wire verification
checks the transport, not the values.

The module imports cleanly without mpi4py: only constructing
:class:`MPIBackend` with no explicit communicator touches it (clean
:class:`~repro.machine.validate.ParameterError` when absent), and
:class:`LoopbackComm` stands in for single-process tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.backend.base import Backend, BackendExecutionError
from repro.dist.routing import INT32_LIMIT, Message, RoutingPlan
from repro.machine.validate import ParameterError, require


@dataclass(slots=True, frozen=True)
class Segment:
    """A chunk of ``messages[message]``: ``words`` payload words from ``offset``."""

    message: int
    offset: int
    words: int


def virtual_rank_map(n_vranks: int, world: int) -> np.ndarray:
    """Fold ``n_vranks`` virtual ranks onto ``world`` processes round-robin."""
    require(world >= 1, ParameterError, f"world size must be >= 1, got {world}")
    return np.arange(int(n_vranks), dtype=np.int64) % int(world)


def build_alltoallv_rounds(
    messages: list[Message],
    vmap: np.ndarray,
    world: int,
    cap: int = INT32_LIMIT,
) -> list[list[Segment]]:
    """Chunk messages into rounds whose per-process totals fit ``cap``.

    Within one ``Alltoallv``, every count *and* every displacement must
    fit an int32 — i.e. each process's total send words and total
    receive words must each stay <= ``cap``.  Messages are walked in
    plan order and split into <= ``cap``-word segments; a segment opens
    a new round whenever it would push its sender's send total or its
    receiver's receive total past the budget.  Progress is guaranteed:
    a fresh round always admits the next segment, because a single
    segment never exceeds ``cap``.
    """
    require(cap >= 1, ParameterError, f"round capacity must be >= 1, got {cap}")
    rounds: list[list[Segment]] = []
    send_used = np.zeros(world, dtype=np.int64)
    recv_used = np.zeros(world, dtype=np.int64)

    def open_round() -> None:
        rounds.append([])
        send_used[:] = 0
        recv_used[:] = 0

    open_round()
    for index, msg in enumerate(messages):
        sp = int(vmap[msg.src])
        dp = int(vmap[msg.dst])
        offset = 0
        remaining = len(msg.src_rows) * len(msg.src_cols)
        while remaining > 0:
            words = min(remaining, cap)
            if send_used[sp] + words > cap or recv_used[dp] + words > cap:
                open_round()
            rounds[-1].append(Segment(message=index, offset=offset, words=words))
            send_used[sp] += words
            recv_used[dp] += words
            offset += words
            remaining -= words
    if rounds and not rounds[-1]:
        rounds.pop()
    return rounds


def round_buffers(
    segments: list[Segment],
    messages: list[Message],
    payloads: list[np.ndarray],
    vmap: np.ndarray,
    world: int,
    rank: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One process's buffers for one round.

    Returns ``(sendbuf, scounts, sdispls, rcounts, rdispls, expected)``:
    the packed send buffer (segments grouped by destination process
    ascending, round order within a group — the order the matching
    receiver expects), the int32 count/displacement arrays for both
    directions, and the receive buffer this process must observe
    (computable locally because the model state is replicated).
    """
    scounts = np.zeros(world, dtype=np.int32)
    rcounts = np.zeros(world, dtype=np.int32)
    for seg in segments:
        msg = messages[seg.message]
        if int(vmap[msg.src]) == rank:
            scounts[int(vmap[msg.dst])] += seg.words
        if int(vmap[msg.dst]) == rank:
            rcounts[int(vmap[msg.src])] += seg.words
    sdispls = np.zeros(world, dtype=np.int32)
    rdispls = np.zeros(world, dtype=np.int32)
    np.cumsum(scounts[:-1], out=sdispls[1:], dtype=np.int32)
    np.cumsum(rcounts[:-1], out=rdispls[1:], dtype=np.int32)
    sendbuf = np.empty(int(scounts.sum(dtype=np.int64)), dtype=np.float64)
    expected = np.empty(int(rcounts.sum(dtype=np.int64)), dtype=np.float64)
    sfill = sdispls.astype(np.int64).copy()
    rfill = rdispls.astype(np.int64).copy()
    for seg in segments:
        msg = messages[seg.message]
        sp = int(vmap[msg.src])
        dp = int(vmap[msg.dst])
        if sp != rank and dp != rank:
            continue
        chunk = payloads[seg.message][seg.offset : seg.offset + seg.words]
        if sp == rank:
            sendbuf[sfill[dp] : sfill[dp] + seg.words] = chunk
            sfill[dp] += seg.words
        if dp == rank:
            expected[rfill[sp] : rfill[sp] + seg.words] = chunk
            rfill[sp] += seg.words
    return sendbuf, scounts, sdispls, rcounts, rdispls, expected


class LoopbackComm:
    """A 1-process communicator for testing the MPI path without MPI.

    Implements exactly the slice of the mpi4py ``Comm`` surface
    :class:`MPIBackend` touches; ``Alltoallv`` copies the rank-0 self
    block, which is the only traffic a world of one can have.
    """

    def Get_rank(self) -> int:
        return 0

    def Get_size(self) -> int:
        return 1

    def Barrier(self) -> None:
        return None

    def Alltoallv(self, sendmsg: list, recvmsg: list) -> None:
        sendbuf, (scounts, sdispls) = sendmsg
        recvbuf, (rcounts, rdispls) = recvmsg
        n = int(scounts[0])
        require(
            n == int(rcounts[0]),
            ParameterError,
            f"loopback Alltoallv count mismatch: send {n}, recv {int(rcounts[0])}",
        )
        s0, r0 = int(sdispls[0]), int(rdispls[0])
        recvbuf[r0 : r0 + n] = sendbuf[s0 : s0 + n]


class MPIBackend(Backend):
    """Execute routing plans over a real (or loopback) communicator."""

    name = "mpi"
    is_real = True

    def __init__(self, comm=None, chunk_limit: int = INT32_LIMIT) -> None:
        super().__init__()
        if comm is None:
            try:
                from mpi4py import MPI
            except ImportError as exc:
                raise ParameterError(
                    "backend 'mpi' needs mpi4py, which is not importable; "
                    "install an MPI implementation plus mpi4py (e.g. "
                    "`apt install mpich && pip install mpi4py`) or use "
                    "backend 'sim'"
                ) from exc
            comm = MPI.COMM_WORLD
        require(
            1 <= int(chunk_limit) <= INT32_LIMIT,
            ParameterError,
            f"chunk limit must be in [1, {INT32_LIMIT}], got {chunk_limit}",
        )
        self.comm = comm
        self.rank = int(comm.Get_rank())
        self.world_size = int(comm.Get_size())
        self.chunk_limit = int(chunk_limit)

    # -- the execution protocol ---------------------------------------------

    def execute_plan(
        self,
        plan: RoutingPlan,
        blocks: dict[int, np.ndarray],
        out: dict[int, np.ndarray] | None = None,
        label: str = "route",
    ) -> dict[int, np.ndarray]:
        messages = [m for m in plan.messages() if m.src != m.dst]
        n_vranks = max(
            self.machine.n_ranks,
            1 + max((max(m.src, m.dst) for m in messages), default=0),
        )
        vmap = virtual_rank_map(n_vranks, self.world_size)
        colocated = sum(
            len(m.src_rows) * len(m.src_cols)
            for m in messages
            if vmap[m.src] == vmap[m.dst]
        )
        rounds = build_alltoallv_rounds(
            messages, vmap, self.world_size, cap=self.chunk_limit
        )
        # Payloads are apply's source reads, taken from the pristine source
        # blocks: apply may write into aliased arrays (a matrix routed into
        # itself).
        src_t = plan.src.transpose
        payloads = [
            (blocks[m.src].T if src_t else blocks[m.src])[
                m.src_rows[:, None], m.src_cols
            ].ravel()
            for m in messages
        ]
        staged = [
            round_buffers(
                segments, messages, payloads, vmap, self.world_size, self.rank
            )
            for segments in rounds
        ]
        expected_out = plan.apply(blocks, out=out)
        measured = 0.0
        for sendbuf, scounts, sdispls, rcounts, rdispls, expected in staged:
            recvbuf = np.empty_like(expected)
            self.comm.Barrier()
            t0 = time.perf_counter()
            self.comm.Alltoallv(
                [sendbuf, (scounts, sdispls)], [recvbuf, (rcounts, rdispls)]
            )
            measured += time.perf_counter() - t0
            if not np.array_equal(recvbuf, expected):
                raise BackendExecutionError(
                    f"Alltoallv for plan {label!r} delivered bytes that differ "
                    f"from the replicated-state expectation on process "
                    f"{self.rank} ({int(np.count_nonzero(recvbuf != expected))}"
                    f"/{len(expected)} words wrong)"
                )
        self._log_plan(
            plan,
            label,
            measured_seconds=measured,
            rounds=len(rounds),
            colocated_words=int(colocated),
        )
        return expected_out

    def timer(self) -> float:
        return time.perf_counter()
