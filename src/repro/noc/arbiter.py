"""Rotating daisy-chain priority arbitration (paper §III-C).

"Input buffers use a rotating daisy chain priority scheme for arbitrating
between inputs requesting the same outputs.  Priorities are updated every
clock cycle."
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import ConfigurationError


class RotatingPriorityArbiter:
    """Grants one of N requesters; the priority head rotates each cycle.

    On a cycle where the head requester is idle, the grant daisy-chains to
    the next requesting input in rotation order.  Rotation happens every
    cycle regardless of grants, matching the paper's description, which
    guarantees starvation freedom.
    """

    def __init__(self, n_inputs: int) -> None:
        if n_inputs < 1:
            raise ConfigurationError(
                f"arbiter needs >= 1 input, got {n_inputs}")
        self.n_inputs = n_inputs
        self._head = 0
        self.grants = 0

    def rotate(self) -> None:
        """Advance the priority head; call once per clock cycle."""
        self._head = (self._head + 1) % self.n_inputs

    def advance(self, cycles: int) -> None:
        """Advance the head by ``cycles`` rotations at once.

        Used by the simulator's quiescence skip-ahead: the head after
        ``cycles`` idle cycles is the same as after ``cycles`` calls to
        :meth:`rotate`, so arbitration decisions stay bit-identical to a
        cycle-by-cycle run.
        """
        if cycles < 0:
            raise ConfigurationError(f"cannot advance by {cycles} cycles")
        self._head = (self._head + cycles) % self.n_inputs

    @property
    def head(self) -> int:
        """The input currently holding top priority."""
        return self._head

    def state_dict(self) -> dict:
        """Picklable snapshot for checkpointing."""
        return {"head": self._head, "grants": self.grants}

    def load_state(self, state: dict) -> None:
        self._head = state["head"]
        self.grants = state["grants"]

    def grant(self, requests: Iterable[int] | Sequence[bool]) -> int | None:
        """Pick the winning input for this cycle, or None if no requests.

        The winner is the requester closest to the head in rotation
        order, found in one pass over the requests (the router's switch
        passes short index lists, usually of one).

        Args:
            requests: either an iterable of requesting input indices, or a
                boolean mask of length ``n_inputs``.
        """
        if not isinstance(requests, list):
            requests = list(requests)
        n_inputs = self.n_inputs
        if (requests and isinstance(requests[0], bool)
                and all(isinstance(r, bool) for r in requests)):
            if len(requests) != n_inputs:
                raise ConfigurationError(
                    f"mask length {len(requests)} != n_inputs {n_inputs}")
            requests = [index for index, flag in enumerate(requests)
                        if flag]
        head = self._head
        winner = None
        best = n_inputs
        for index in requests:
            if not 0 <= index < n_inputs:
                raise ConfigurationError(
                    f"request index {index} out of range 0..{n_inputs - 1}")
            offset = (index - head) % n_inputs
            if offset < best:
                winner, best = index, offset
        if winner is not None:
            self.grants += 1
        return winner
