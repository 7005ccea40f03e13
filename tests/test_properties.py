"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cfg import build_ddg
from repro.cfg.ddg import DataDependenceGraph, DependenceEdge
from repro.core import CompilerConfig
from repro.core.loop_analysis import _recurrence_nodes, analyse_loop_body
from repro.core.pseudo_queue import PseudoIssueQueue
from repro.isa import Instruction, Opcode
from repro.isa.encoding import HINT_MAX_VALUE, decode_hint_payload, encode_hint_payload
from repro.isa.opcodes import FuClass
from repro.isa.registers import int_reg
from repro.uarch.issue_queue import BankedIssueQueue
from repro.uarch.regfile import PhysicalRegisterFile
from repro.workloads.generator import SyntheticProgramGenerator
from repro.workloads.traits import BenchmarkTraits


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
_alu_opcodes = st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.MUL])


@st.composite
def instruction_sequences(draw, max_length: int = 20):
    """Random straight-line sequences of ALU/memory instructions."""
    length = draw(st.integers(min_value=1, max_value=max_length))
    instructions = []
    for _ in range(length):
        choice = draw(st.integers(min_value=0, max_value=3))
        dest = int_reg(draw(st.integers(min_value=1, max_value=12)))
        src = int_reg(draw(st.integers(min_value=1, max_value=12)))
        if choice == 0:
            instructions.append(Instruction.load(dest, src, draw(st.integers(0, 64)) * 8))
        elif choice == 1:
            instructions.append(Instruction.store(dest, src, draw(st.integers(0, 64)) * 8))
        else:
            opcode = draw(_alu_opcodes)
            instructions.append(
                Instruction.alu(opcode, dest, [src], imm=draw(st.integers(1, 7)))
            )
    return instructions


# ---------------------------------------------------------------------------
# Hint encoding
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=HINT_MAX_VALUE))
def test_hint_encoding_roundtrip(value):
    assert decode_hint_payload(encode_hint_payload(value)) == value


@given(st.integers(min_value=0, max_value=10_000))
def test_hint_encoding_never_exceeds_payload(value):
    assert 0 <= encode_hint_payload(value) <= HINT_MAX_VALUE


# ---------------------------------------------------------------------------
# Dependence graphs
# ---------------------------------------------------------------------------
@given(instruction_sequences())
@settings(max_examples=40, deadline=None)
def test_ddg_edges_point_forward_within_iteration(instructions):
    ddg = build_ddg(instructions, include_loop_carried=True)
    for edge in ddg.edges:
        assert 0 <= edge.src < len(instructions)
        assert 0 <= edge.dst < len(instructions)
        if edge.distance == 0:
            assert edge.src < edge.dst or edge.src == edge.dst is None
        assert edge.latency >= 1


@given(instruction_sequences())
@settings(max_examples=40, deadline=None)
def test_ddg_carried_edges_only_when_requested(instructions):
    plain = build_ddg(instructions, include_loop_carried=False)
    assert all(edge.distance == 0 for edge in plain.edges)


# ---------------------------------------------------------------------------
# Pseudo issue queue / analysis invariants
# ---------------------------------------------------------------------------
@given(instruction_sequences())
@settings(max_examples=30, deadline=None)
def test_pseudo_queue_requirement_bounds(instructions):
    config = CompilerConfig()
    schedule = PseudoIssueQueue(config).schedule(instructions)
    occupying = [i for i in instructions if i.occupies_iq]
    assert 0 <= schedule.entries_needed <= len(occupying)
    assert all(cycle >= 0 for cycle in schedule.issue_cycle)
    # Dependences are respected: every consumer issues after its producer.
    ddg = build_ddg(occupying)
    for edge in ddg.intra_edges():
        assert schedule.issue_cycle[edge.dst] > schedule.issue_cycle[edge.src] - 1


@given(instruction_sequences(max_length=14))
@settings(max_examples=25, deadline=None)
def test_loop_requirement_is_clamped_and_monotone_in_margin(instructions):
    tight = CompilerConfig(sizing_margin=1.0, sizing_slack=0)
    loose = CompilerConfig(sizing_margin=2.0, sizing_slack=4)
    tight_req = analyse_loop_body(instructions, tight)
    loose_req = analyse_loop_body(instructions, loose)
    assert tight.min_hint_value <= tight_req.entries <= tight.max_iq_entries
    assert loose_req.entries >= tight_req.entries


@st.composite
def dependence_graphs(draw, max_nodes: int = 8):
    """Random dependence graphs, including back edges and self loops."""
    count = draw(st.integers(min_value=1, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=count - 1)
    edges = draw(
        st.lists(
            st.tuples(node, node, st.integers(min_value=0, max_value=2)),
            max_size=3 * count,
        )
    )
    ddg = DataDependenceGraph(
        instructions=[Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(1)]) for _ in range(count)]
    )
    for src, dst, distance in edges:
        ddg.add_edge(DependenceEdge(src=src, dst=dst, latency=1, distance=distance))
    return ddg


def _reference_recurrence_nodes(ddg: DataDependenceGraph) -> list[int]:
    """Brute force: mutual reachability, plus a carried self edge for singletons."""
    count = len(ddg.instructions)
    reach = [[i == j for j in range(count)] for i in range(count)]
    for edge in ddg.edges:
        reach[edge.src][edge.dst] = True
    for via in range(count):
        for i in range(count):
            if reach[i][via]:
                for j in range(count):
                    if reach[via][j]:
                        reach[i][j] = True
    nodes = []
    for node in range(count):
        partners = [other for other in range(count) if reach[node][other] and reach[other][node]]
        self_carried = any(
            edge.src == node and edge.dst == node and edge.distance >= 1
            for edge in ddg.edges
        )
        if len(partners) > 1 or self_carried:
            nodes.append(node)
    return nodes


@given(
    st.one_of(
        dependence_graphs(),
        instruction_sequences(max_length=14).map(
            lambda instructions: build_ddg(instructions, include_loop_carried=True)
        ),
    )
)
@settings(max_examples=200, deadline=None)
def test_recurrence_nodes_match_brute_force(ddg):
    assert _recurrence_nodes(ddg, CompilerConfig()) == _reference_recurrence_nodes(ddg)


# ---------------------------------------------------------------------------
# Issue queue invariants under random operation sequences
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_issue_queue_invariants(operations):
    """Random allocate/remove/broadcast sequences keep the queue consistent."""
    iq = BankedIssueQueue(capacity=16, bank_size=4)
    live = []
    next_tag = 1000
    for op in operations:
        if op == 0:  # allocate if possible
            ok, _ = iq.can_dispatch()
            if ok:
                entry = iq.allocate(len(live), {next_tag}, 1, FuClass.INT_ALU, 0)
                live.append((entry, next_tag))
                next_tag += 1
        elif op == 1 and live:  # wake then remove the oldest live entry
            entry, tag = live.pop(0)
            iq.broadcast(tag)
            iq.remove(entry)
        elif op == 2 and live:  # broadcast a random live tag (wake only)
            iq.broadcast(live[-1][1])

        # Invariants.
        assert iq.occupancy == len(live)
        assert 0 <= iq.occupancy <= iq.span <= iq.capacity
        assert sum(iq.bank_counts) == iq.occupancy
        assert iq.waiting_operand_count >= 0
        assert iq.enabled_banks(True) <= iq.num_banks
        assert iq.region_occupancy <= iq.span


# ---------------------------------------------------------------------------
# Register file invariants
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=70))
@settings(max_examples=50, deadline=None)
def test_register_file_allocation_invariants(arch_regs):
    rf = PhysicalRegisterFile(112, 32, 8)
    released = []
    for arch in arch_regs:
        if rf.free_count == 0:
            break
        _, old = rf.allocate(arch)
        released.append(old)
        assert rf.allocated + rf.free_count == 112
        assert sum(rf.bank_counts) == rf.allocated
    for phys in released:
        rf.release(phys)
    assert rf.allocated + rf.free_count == 112
    assert rf.allocated == 32 - len([r for r in []])  # all transients released
    assert sum(rf.bank_counts) == rf.allocated


# ---------------------------------------------------------------------------
# Workload generator: any sane trait combination yields a valid program
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    loops=st.integers(min_value=0, max_value=3),
    dags=st.integers(min_value=0, max_value=2),
    calls=st.integers(min_value=0, max_value=2),
    ilp=st.integers(min_value=1, max_value=5),
    mem=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=25, deadline=None)
def test_generator_always_produces_valid_programs(seed, loops, dags, calls, ilp, mem):
    traits = BenchmarkTraits(
        name="prop",
        seed=seed,
        num_loop_kernels=loops,
        num_dag_kernels=dags,
        num_call_kernels=calls,
        ilp_width=ilp,
        mem_fraction=mem,
        outer_trips=2,
        loop_trip_count=(2, 5),
    )
    program = SyntheticProgramGenerator(traits).build()
    program.validate()
    assert "main" in program.procedures
