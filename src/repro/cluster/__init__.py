"""Cluster substrate: nodes, the network, and the Hockney cost model.

This package models the physical platform of the paper's evaluation — a
PC cluster connected by a Fast-Ethernet switch — at the level the home
migration protocol actually observes: *messages*, their *sizes*, their
*latencies* (Hockney point-to-point model) and per-NIC serialization.
"""

from repro.cluster.hockney import FAST_ETHERNET, GIGABIT, MYRINET, HockneyModel
from repro.cluster.message import MsgCategory
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.stats import ClusterStats

__all__ = [
    "ClusterStats",
    "FAST_ETHERNET",
    "GIGABIT",
    "HockneyModel",
    "MsgCategory",
    "MYRINET",
    "Network",
    "Node",
]
