"""Differential tests: the index-based switch against the reference.

:class:`repro.noc.router.Router` switches over integer port indices with
a memoised ``(dst, write-back?)`` route table; ``reference_router`` holds
the original port-keyed switch and mask-based grant.  Every router of a
4x4 mesh and of a 4-node fully connected topology is driven by a seeded
random stream of injections, drains and idle stretches, with shallow
buffers so back-pressure is common, and both implementations must agree
on every cycle: packets moved, every buffer's contents in order, and
every arbiter's head and grant count.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.noc import FullyConnected, Mesh2D, Packet, PacketKind, Port
from repro.noc.router import Router
from tests.noc.reference_router import ReferenceRouter

KINDS = (PacketKind.WEIGHT, PacketKind.STATE, PacketKind.WRITEBACK)

TOPOLOGIES = {"mesh4x4": Mesh2D(4, 4), "full4": FullyConnected(4)}


def drive(topology, node: int, seed: int, cycles: int = 400,
          depth: int = 3) -> tuple[int, int]:
    """Run one node's router pair in lock-step; return (moves, full
    output pushes refused) so callers can check the stream was busy."""
    rng = np.random.default_rng(seed)
    ports = topology.link_ports(node)
    route = partial(topology.next_port, node)
    router = Router(node, ports, route, buffer_depth=depth)
    reference = ReferenceRouter(node, ports, route, buffer_depth=depth)
    all_ports = router.ports
    moved_total = 0
    blocked = 0
    for cycle in range(cycles):
        if rng.random() < 0.1:
            # An idle stretch the fabric batches into arbiter rotation.
            idle = int(rng.integers(1, 8))
            router.advance_idle(idle)
            reference.advance_idle(idle)
        for _ in range(int(rng.integers(0, 4))):
            port = all_ports[int(rng.integers(len(all_ports)))]
            packet = Packet(src=int(rng.integers(topology.n_nodes)),
                            dst=int(rng.integers(topology.n_nodes)),
                            mac_id=0, op_id=cycle,
                            kind=KINDS[int(rng.integers(len(KINDS)))])
            if router.inputs[port].has_space:
                router.inputs[port].push(packet)
                reference.inputs[port].push(packet)
        for port in all_ports:
            # Slow, bursty drains keep outputs full: back-pressure.
            if rng.random() < 0.3 and not router.outputs[port].empty:
                assert (router.outputs[port].pop()
                        == reference.outputs[port].pop())
            if not router.outputs[port].has_space:
                blocked += 1
        moved = router.switch()
        assert moved == reference.switch(), f"cycle {cycle}"
        assert router.state_dict() == reference.state_dict(), \
            f"cycle {cycle}"
        moved_total += moved
    return moved_total, blocked


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_switch_matches_reference_on_every_node(name):
    topology = TOPOLOGIES[name]
    for node in range(topology.n_nodes):
        moved, blocked = drive(topology, node, seed=1000 + node)
        assert moved > 100
        assert blocked > 0, "stream never filled an output buffer"


@pytest.mark.parametrize("depth", [1, 16])
def test_switch_matches_reference_at_buffer_extremes(depth):
    mesh = TOPOLOGIES["mesh4x4"]
    for node in (0, 5, 15):
        drive(mesh, node, seed=77 + node, depth=depth)


@pytest.mark.parametrize("factory", [Router, ReferenceRouter])
def test_unknown_route_port_raises(factory):
    """A route naming a port the router lacks is a typed error, on the
    first packet and again on a repeat (a miss is never memoised)."""
    router = factory(0, [Port.EAST], lambda packet: Port.NORTH)
    router.inputs[Port.MEM].push(
        Packet(src=0, dst=1, mac_id=0, op_id=0, kind=PacketKind.STATE))
    for _ in range(2):
        with pytest.raises(SimulationError, match="unknown port"):
            router.switch()
