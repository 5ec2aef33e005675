"""Reference switch stage for the differential router tests.

A frozen copy of the router's original dict- and enum-keyed switch and
of the arbiter's mask-based grant.  :class:`repro.noc.router.Router`
runs the same algorithm over integer port indices and a memoised route
table; ``test_router_differential.py`` drives both with identical
packet streams and requires identical behaviour, cycle by cycle.  This
module is test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError, SimulationError
from repro.noc.arbiter import RotatingPriorityArbiter
from repro.noc.buffer import DEFAULT_DEPTH, CreditedBuffer
from repro.noc.packet import Packet
from repro.noc.routing import LOCAL_PORTS, PortKey


class MaskArbiter(RotatingPriorityArbiter):
    """The arbiter with its original grant: build a request mask, then
    walk it from the head in rotation order."""

    def grant(self, requests) -> int | None:
        mask = self._as_mask(requests)
        for offset in range(self.n_inputs):
            candidate = (self._head + offset) % self.n_inputs
            if mask[candidate]:
                self.grants += 1
                return candidate
        return None

    def _as_mask(self, requests) -> list[bool]:
        requests = list(requests)
        if requests and all(isinstance(r, bool) for r in requests):
            if len(requests) != self.n_inputs:
                raise ConfigurationError(
                    f"mask length {len(requests)} != n_inputs "
                    f"{self.n_inputs}")
            return requests
        mask = [False] * self.n_inputs
        for index in requests:
            if not 0 <= index < self.n_inputs:
                raise ConfigurationError(
                    f"request index {index} out of range "
                    f"0..{self.n_inputs - 1}")
            mask[index] = True
        return mask


class ReferenceRouter:
    """The original router: port-keyed dicts, a per-packet ``route``
    call and the mask arbiter.  Same constructor and state layout as
    :class:`repro.noc.router.Router`."""

    def __init__(self, node_id: int, link_ports: list[PortKey],
                 route: Callable[[Packet], PortKey],
                 buffer_depth: int = DEFAULT_DEPTH,
                 local_rate: int = 2) -> None:
        self.node_id = node_id
        self.ports: list[PortKey] = list(link_ports) + list(LOCAL_PORTS)
        self._port_rate = {
            port: (local_rate if port in LOCAL_PORTS else 1)
            for port in self.ports}
        self.route = route
        self.inputs: dict[PortKey, CreditedBuffer] = {
            port: CreditedBuffer(buffer_depth, f"r{node_id}.in.{port}")
            for port in self.ports}
        self.outputs: dict[PortKey, CreditedBuffer] = {
            port: CreditedBuffer(buffer_depth, f"r{node_id}.out.{port}")
            for port in self.ports}
        self._arbiters: dict[PortKey, MaskArbiter] = {
            port: MaskArbiter(len(self.ports)) for port in self.ports}
        self._pending_rotations = 0
        self._input_buffers = list(self.inputs.values())
        self._max_port_rate = max(self._port_rate.values())
        self.switched_packets = 0

    def advance_idle(self, cycles: int) -> None:
        self._pending_rotations += cycles

    def _flush_rotations(self) -> None:
        if self._pending_rotations:
            for arbiter in self._arbiters.values():
                arbiter.advance(self._pending_rotations)
            self._pending_rotations = 0

    def switch(self) -> int:
        if all(buffer.empty for buffer in self._input_buffers):
            self._pending_rotations += 1
            return 0
        self._flush_rotations()
        moved = 0
        supplied = {port: 0 for port in self.ports}
        accepted = {port: 0 for port in self.ports}
        for _ in range(self._max_port_rate):
            wants: dict[PortKey, list[int]] = {}
            for index, port in enumerate(self.ports):
                buffer = self.inputs[port]
                if supplied[port] >= self._port_rate[port] or buffer.empty:
                    continue
                out_port = self.route(buffer.peek())
                if out_port not in self.outputs:
                    raise SimulationError(
                        f"router {self.node_id}: route returned unknown "
                        f"port {out_port} for {buffer.peek()}")
                wants.setdefault(out_port, []).append(index)
            any_move = False
            for out_port, requesters in wants.items():
                output = self.outputs[out_port]
                if accepted[out_port] >= self._port_rate[out_port]:
                    continue
                if not output.has_space:
                    continue
                winner = self._arbiters[out_port].grant(requesters)
                if winner is None:
                    continue
                in_port = self.ports[winner]
                output.push(self.inputs[in_port].pop())
                supplied[in_port] += 1
                accepted[out_port] += 1
                moved += 1
                any_move = True
            if not any_move:
                break
        for arbiter in self._arbiters.values():
            arbiter.rotate()
        self.switched_packets += moved
        return moved

    def state_dict(self) -> dict:
        return {
            "inputs": {port: b.state_dict()
                       for port, b in self.inputs.items()},
            "outputs": {port: b.state_dict()
                        for port, b in self.outputs.items()},
            "arbiters": {port: a.state_dict()
                         for port, a in self._arbiters.items()},
            "pending_rotations": self._pending_rotations,
            "switched_packets": self.switched_packets,
        }
