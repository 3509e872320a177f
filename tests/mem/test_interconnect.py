"""Interconnect cost-model tests."""

import pytest

from repro.common.errors import ConfigError
from repro.mem.interconnect import Interconnect


class TestTopologies:
    def test_bus_broadcast_scales_with_cores(self):
        small = Interconnect(8, "bus").broadcast_cost
        large = Interconnect(32, "bus").broadcast_cost
        assert large > small

    def test_mesh_broadcast_scales_sublinearly(self):
        costs = {cores: Interconnect(cores, "mesh").broadcast_cost
                 for cores in (4, 16, 64)}
        assert costs[16] > costs[4]
        assert costs[64] > costs[16]
        # sublinear: 16x cores does not cost 16x cycles
        assert costs[64] < 16 * costs[4]

    def test_ideal_constant(self):
        assert Interconnect(4, "ideal").broadcast_cost == \
            Interconnect(64, "ideal").broadcast_cost

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigError):
            Interconnect(8, "torus")

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigError):
            Interconnect(0, "mesh")

    def test_point_to_point_cheaper_than_broadcast(self):
        for topology in ("bus", "mesh"):
            fabric = Interconnect(32, topology)
            assert fabric.point_to_point_cost < fabric.broadcast_cost


class TestSystemIntegration:
    def test_eager_broadcast_cost_grows_with_cores(self):
        """2PL's per-access coherence cost rises with the core count
        while SI-TM's does not — the scalability asymmetry of Figure 8."""
        from repro.common.config import MachineConfig, SimConfig
        from repro.common.rng import SplitRandom
        from repro.sim.machine import Machine
        from repro.tm import SnapshotIsolationTM, TwoPhaseLockingTM

        def read_cost(system_cls, cores):
            machine = Machine(SimConfig(machine=MachineConfig(cores=cores)))
            addr = machine.mvmalloc(1)
            machine.plain_store(addr, 1)
            tm = system_cls(machine, SplitRandom(1))
            txn, _ = tm.begin(0, "t", 0)
            # warm the caches so only the broadcast differs
            tm.read(txn, addr)
            tm.abort(txn, __import__("repro.common.errors",
                                     fromlist=["AbortCause"]
                                     ).AbortCause.EXPLICIT)
            txn, _ = tm.begin(0, "t", 0)
            _, cycles = tm.read(txn, addr)
            return cycles

        assert read_cost(TwoPhaseLockingTM, 32) > \
            read_cost(TwoPhaseLockingTM, 4)
        assert read_cost(SnapshotIsolationTM, 32) == \
            read_cost(SnapshotIsolationTM, 4)
