"""Tests for the full prototype SoC (chip assembly and controller)."""

import pytest

from repro.soc import Cmd, Kernel, PrototypeSoC, encode_command_table
from repro.soc.controller import command_player_firmware


def basic_commands(pe=0, gmem=17, ctrl=16):
    return [
        ("send", pe, [int(Cmd.WRITE_SPAD), 0, 1, 2, 3, 4]),
        ("send", pe, [int(Cmd.COMPUTE), int(Kernel.VSUM), 0, 0, 16, 4, 0]),
        ("send", pe, [int(Cmd.STORE), gmem, 0, 16, 1]),
        ("send", pe, [int(Cmd.NOTIFY), ctrl, 7]),
        ("wait", 1),
    ]


def test_encode_command_table():
    table = encode_command_table([("send", 3, [10, 20]), ("wait", 2)])
    assert table == [3, 2, 10, 20, 0xFFFFFFFE, 2, 0xFFFFFFFF]


def test_encode_command_table_validation():
    with pytest.raises(ValueError):
        encode_command_table([("send", -1, [1])])
    with pytest.raises(ValueError):
        encode_command_table([("frob", 1)])


def test_firmware_assembles():
    words = command_player_firmware()
    assert len(words) > 10
    assert all(0 <= w <= 0xFFFFFFFF for w in words)


def test_soc_end_to_end_fast():
    soc = PrototypeSoC(commands=basic_commands())
    soc.run()
    assert soc.gmem_left.dump(0, 1) == [10]
    assert soc.controller.done_tokens == [7]
    assert soc.elapsed_cycles > 0


def test_soc_all_pes_notify():
    commands = [("send", pe, [int(Cmd.NOTIFY), 16, pe]) for pe in range(16)]
    commands.append(("wait", 16))
    soc = PrototypeSoC(commands=commands)
    soc.run()
    assert sorted(soc.controller.done_tokens) == list(range(16))


def test_soc_both_gmems():
    commands = [
        ("send", 0, [int(Cmd.WRITE_SPAD), 0, 11, 22]),
        ("send", 0, [int(Cmd.STORE), 17, 5, 0, 2]),
        ("send", 0, [int(Cmd.STORE), 18, 9, 0, 2]),
        ("send", 0, [int(Cmd.NOTIFY), 16, 1]),
        ("wait", 1),
    ]
    soc = PrototypeSoC(commands=commands)
    soc.run()
    assert soc.gmem_left.dump(5, 2) == [11, 22]
    assert soc.gmem_right.dump(9, 2) == [11, 22]
    assert soc.gmem(17) is soc.gmem_left
    assert soc.gmem(18) is soc.gmem_right
    with pytest.raises(ValueError):
        soc.gmem(0)


def test_soc_rtl_mode_same_results():
    soc = PrototypeSoC(commands=basic_commands(), mode="rtl")
    soc.run()
    assert soc.gmem_left.dump(0, 1) == [10]
    assert len(soc.rtl_activities) > 0


def test_soc_gals_mode_same_results():
    soc = PrototypeSoC(commands=basic_commands(), gals=True)
    soc.run()
    assert soc.gmem_left.dump(0, 1) == [10]
    assert len(soc.clock_generators) == 20
    # Every node has its own period (plesiochronous by construction).
    periods = {g.nominal_period for g in soc.clock_generators}
    assert len(periods) > 5


def test_soc_gals_with_noise():
    soc = PrototypeSoC(commands=basic_commands(), gals=True,
                       noise_amplitude=0.05)
    soc.run()
    assert soc.gmem_left.dump(0, 1) == [10]
    assert any(g.period_max > g.nominal_period for g in soc.clock_generators)


def test_soc_validation():
    with pytest.raises(ValueError):
        PrototypeSoC(mode="netlist")
    with pytest.raises(ValueError):
        PrototypeSoC(mode="rtl", gals=True)


def test_soc_timeout_detection():
    # A wait that can never be satisfied.
    soc = PrototypeSoC(commands=[("wait", 1)])
    with pytest.raises(RuntimeError, match="did not finish"):
        soc.run(max_ticks=500_000)


def test_soc_custom_geometry():
    commands = [
        ("send", 0, [int(Cmd.NOTIFY), 4, 9]),  # controller at node 4 (2x2+row)
        ("wait", 1),
    ]
    soc = PrototypeSoC(commands=commands, pe_columns=2, pe_rows=2)
    assert soc.n_pes == 4
    assert soc.controller_node == 4
    soc.run()
    assert soc.controller.done_tokens == [9]


def test_run_returns_the_halt_time_when_the_halting_step_ends_a_chunk():
    """The core halts inside its last step; the controller thread stamps
    ``halt_time`` at its next resume, one cycle later.  A run whose
    halting step was the last one executed must still run on to it."""
    from repro.workloads import vector_scale_workload

    workload = vector_scale_workload(seed=100, n_pes=2, n_per_pe=8)
    soc = PrototypeSoC(commands=workload.commands)
    soc.gmem_left.load(workload.preload_left)
    while not soc.controller.halted:
        soc.sim.run(max_steps=1)
    assert soc.controller.halt_time is None
    finish = soc.run()
    assert finish is not None and finish == soc.controller.halt_time
    assert soc.elapsed_cycles == finish // PrototypeSoC.CLOCK_PERIOD
    assert workload.check(soc)
