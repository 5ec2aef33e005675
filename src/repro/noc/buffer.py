"""Fixed-capacity packet buffer with credit semantics.

Every router channel has a 16-deep packet buffer (§III-C).  Credit-based
flow control means an upstream agent may only send when the downstream
buffer has a free slot; this class is that slot accounting.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError, SimulationError
from repro.noc.packet import Packet

#: Paper §III-C: "a 16-depth packet buffer for each input and output
#: channel".
DEFAULT_DEPTH = 16


class CreditedBuffer:
    """A FIFO of packets with a hard capacity.

    Pushing into a full buffer raises :class:`SimulationError` — callers
    must check :attr:`has_space` first, which is exactly what a credit
    check is.

    :attr:`fifo` is the live deque, exposed so hot loops can test it and
    peek its head without a method call; it is only ever mutated through
    :meth:`push`, :meth:`pop` and :meth:`load_state` (which refills it in
    place, so a bound reference stays valid).
    """

    def __init__(self, depth: int = DEFAULT_DEPTH, label: str = "") -> None:
        if depth < 1:
            raise ConfigurationError(f"buffer depth must be >= 1: {depth}")
        self.depth = depth
        self.label = label
        self.fifo: deque[Packet] = deque()
        self.peak_occupancy = 0
        self.total_pushed = 0

    @property
    def occupancy(self) -> int:
        return len(self.fifo)

    @property
    def has_space(self) -> bool:
        """True when one more packet fits (the "credit available" check)."""
        return len(self.fifo) < self.depth

    @property
    def empty(self) -> bool:
        return not self.fifo

    def push(self, packet: Packet) -> None:
        if not self.has_space:
            raise SimulationError(
                f"push into full buffer {self.label or id(self)} "
                f"(depth {self.depth}); caller must check has_space")
        self.fifo.append(packet)
        self.total_pushed += 1
        if len(self.fifo) > self.peak_occupancy:
            self.peak_occupancy = len(self.fifo)

    def peek(self) -> Packet:
        if not self.fifo:
            raise SimulationError(
                f"peek on empty buffer {self.label or id(self)}")
        return self.fifo[0]

    def pop(self) -> Packet:
        if not self.fifo:
            raise SimulationError(
                f"pop on empty buffer {self.label or id(self)}")
        return self.fifo.popleft()

    def state_dict(self) -> dict:
        """Picklable snapshot (packets are frozen dataclasses)."""
        return {"fifo": tuple(self.fifo),
                "peak_occupancy": self.peak_occupancy,
                "total_pushed": self.total_pushed}

    def load_state(self, state: dict) -> None:
        self.fifo.clear()
        self.fifo.extend(state["fifo"])
        self.peak_occupancy = state["peak_occupancy"]
        self.total_pushed = state["total_pushed"]

    def __len__(self) -> int:
        return len(self.fifo)

    def __repr__(self) -> str:
        return (f"CreditedBuffer({self.label!r}, "
                f"{self.occupancy}/{self.depth})")
