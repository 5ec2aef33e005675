"""Port naming and deterministic route computation.

Each router has four neighbour ports (mesh) or N-1 peer ports (fully
connected) plus two local ports: ``PE`` (to/from the processing element)
and ``MEM`` (to/from the vault's PNG) — six channels each way in the mesh
configuration, as §III-C describes.

Routing is table-based: topologies precompute, per router, a map from
destination node to output port.  For the mesh the tables implement
deterministic X-Y (column first, then row) routing.
"""

from __future__ import annotations

import enum

from repro.noc.packet import PacketKind


class Port(enum.Enum):
    """Named local and mesh ports; peer ports use ``("peer", node)``."""

    NORTH = "north"
    SOUTH = "south"
    EAST = "east"
    WEST = "west"
    PE = "pe"
    MEM = "mem"


#: The two router ports that terminate at the node rather than a link.
LOCAL_PORTS = (Port.PE, Port.MEM)

#: Opposite directions for mesh link hookup.
OPPOSITE = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
}

PortKey = object  # Port or ("peer", node)


def xy_route(cur_row: int, cur_col: int, dst_row: int,
             dst_col: int) -> Port | None:
    """One X-Y routing step; None when already at the destination."""
    if cur_col < dst_col:
        return Port.EAST
    if cur_col > dst_col:
        return Port.WEST
    if cur_row < dst_row:
        return Port.SOUTH
    if cur_row > dst_row:
        return Port.NORTH
    return None


def local_delivery_port(kind) -> Port:
    """Which local port a packet leaves through at its destination node.

    Write-backs return to the vault's PNG (MEM port); weights and states
    are consumed by the PE.
    """
    return Port.MEM if kind == PacketKind.WRITEBACK else Port.PE
