"""Loop analysis via cyclic dependence sets (section 4.3, figure 4).

Out-of-order execution overlaps loop iterations, so a loop needs enough
issue-queue entries for the instructions of several iterations to be
resident simultaneously.  The paper:

1. finds the *cyclic dependence set* (CDS) with the greatest latency -- the
   dependence recurrence that dictates how fast iterations can start;
2. writes an equation for every instruction expressing when it issues
   relative to an instruction of the CDS, eliminating constants so each
   equation reads "instruction X of iteration *i* issues together with CDS
   representative *a* of iteration *i+k*";
3. from the largest iteration offset *k* derives how many entries are needed
   for the oldest and youngest simultaneously-issuing instructions to be in
   the queue at once.

The implementation computes the recurrence's initiation interval (maximum
cycle ratio over the dependence graph with loop-carried edges), solves for
steady-state issue times by longest-path relaxation, converts them into
iteration offsets, and applies the entry-count formula of the paper's
worked example (figure 4: 15 entries for the 6-instruction loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cfg.ddg import DataDependenceGraph, build_ddg
from repro.core.config import CompilerConfig
from repro.core.dag_analysis import BlockRequirement
from repro.core.pseudo_queue import PseudoIssueQueue
from repro.isa.instruction import Instruction


@dataclass
class LoopRequirement:
    """The analysis result for one natural loop.

    Attributes:
        procedure: enclosing procedure name.
        header: label of the loop header block.
        entries: issue-queue entries needed for pipelined execution of the
            loop (clamped to the physical queue size).
        raw_entries: unclamped requirement.
        initiation_interval: cycles between successive iterations of the
            critical recurrence (0 when the loop has no recurrence).
        iteration_offsets: per-instruction iteration offset *k* relative to
            the CDS representative, in body order.
        cds: indices (into the analysed body) of the critical cycle's
            instructions.
        body_size: number of IQ-occupying instructions in the analysed body.
    """

    procedure: str
    header: str
    entries: int
    raw_entries: int
    initiation_interval: float = 0.0
    iteration_offsets: list[int] = field(default_factory=list)
    cds: list[int] = field(default_factory=list)
    body_size: int = 0

    def as_block_requirement(self) -> BlockRequirement:
        """View the loop requirement as the requirement of its header block."""
        return BlockRequirement(
            procedure=self.procedure,
            label=self.header,
            entries=self.entries,
            raw_entries=self.raw_entries,
            schedule=None,
            source="loop",
        )


#: One dependence edge as the cycle tests read it:
#: ``(src, dst, latency, distance)``, with the producer's latency resolved.
WeightedEdge = tuple[int, int, int, int]


def _weighted_edges(
    ddg: DataDependenceGraph, config: CompilerConfig
) -> list[WeightedEdge]:
    """Every DDG edge with its producer latency resolved once, in edge order."""
    latencies = [config.instruction_latency(instr) for instr in ddg.instructions]
    return [
        (edge.src, edge.dst, latencies[edge.src], edge.distance) for edge in ddg.edges
    ]


def _recurrence_nodes(ddg: DataDependenceGraph, config: CompilerConfig) -> list[int]:
    """Nodes that participate in some dependence recurrence (the CDS candidates).

    A node is part of a recurrence when it belongs to a strongly connected
    component of the dependence graph (with loop-carried edges included)
    that contains at least one carried edge.  Components come from an
    iterative Tarjan walk, so deep dependence chains cannot overflow the
    interpreter stack.
    """
    count = len(ddg.instructions)
    successors: list[list[int]] = [[] for _ in range(count)]
    for edge in ddg.edges:
        successors[edge.src].append(edge.dst)

    index_of = [-1] * count
    lowlink = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    components: list[list[int]] = []
    next_index = 0
    for root in range(count):
        if index_of[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            node, child = work.pop()
            if child == 0:
                index_of[node] = lowlink[node] = next_index
                next_index += 1
                stack.append(node)
                on_stack[node] = True
            if child < len(successors[node]):
                work.append((node, child + 1))
                succ = successors[node][child]
                if index_of[succ] < 0:
                    work.append((succ, 0))
                elif on_stack[succ]:
                    lowlink[node] = min(lowlink[node], index_of[succ])
                continue
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    recurrence: list[int] = []
    for component in components:
        if len(component) == 1:
            node = component[0]
            has_self_carried = any(
                edge.src == node and edge.dst == node and edge.distance >= 1
                for edge in ddg.succs[node]
            )
            if not has_self_carried:
                continue
        recurrence.extend(component)
    return sorted(recurrence)


def _has_positive_cycle(count: int, edges: Sequence[WeightedEdge], ii: float) -> bool:
    """True when some dependence cycle has positive slack at initiation interval ``ii``.

    ``edges`` are the ``(src, dst, latency, distance)`` tuples of
    :func:`_weighted_edges` over a graph of ``count`` nodes, resolved once
    by the caller and shared by every probe.  Edge weight is
    ``latency - distance * ii``, computed once per probe; a positive-weight
    cycle means ``ii`` is too small to sustain the recurrence.  Relaxation
    runs over the edges in DDG order for at most ``count`` rounds.
    """
    weighted = [(src, dst, latency - distance * ii) for src, dst, latency, distance in edges]
    distance = [0.0] * count
    for _ in range(count):
        changed = False
        for src, dst, weight in weighted:
            candidate = distance[src] + weight
            if candidate > distance[dst] + 1e-9:
                distance[dst] = candidate
                changed = True
        if not changed:
            return False
    return True


def _recurrence_initiation_interval(
    ddg: DataDependenceGraph, config: CompilerConfig
) -> float:
    """Maximum cycle ratio (latency per iteration distance) of the dependence graph.

    Computed by a 40-step binary search on the candidate initiation
    interval with a positive-cycle test, which is robust for arbitrary
    dependence graphs (enumerating simple cycles can blow up
    combinatorially).  The edge latencies are resolved once here and
    shared by every probe of the search.
    Returns 0.0 when no recurrence exists.
    """
    if not any(edge.distance >= 1 for edge in ddg.edges):
        return 0.0
    count = len(ddg.instructions)
    edges = _weighted_edges(ddg, config)
    upper = float(
        sum(config.instruction_latency(instr) for instr in ddg.instructions)
    )
    if not _has_positive_cycle(count, edges, 0.0):
        return 0.0
    low, high = 0.0, upper
    for _ in range(40):
        mid = (low + high) / 2.0
        if _has_positive_cycle(count, edges, mid):
            low = mid
        else:
            high = mid
    return high


def _resource_initiation_interval(
    ddg: DataDependenceGraph, config: CompilerConfig
) -> float:
    """Resource-constrained lower bound on the initiation interval.

    The issue width and the functional-unit counts bound how fast iterations
    can be started regardless of dependences (the paper's analysis considers
    resources as well as data dependences, section 4).
    """
    work = ddg.instructions
    if not work:
        return 0.0
    width_bound = len(work) / max(1, config.issue_width)
    fu_bound = 0.0
    usage: dict = {}
    for instr in work:
        usage[instr.fu_class] = usage.get(instr.fu_class, 0) + 1
    for fu, count in usage.items():
        units = config.fu_counts.get(fu, config.issue_width)
        if units > 0:
            fu_bound = max(fu_bound, count / units)
    return max(width_bound, fu_bound)


def _steady_state_times(
    ddg: DataDependenceGraph,
    config: CompilerConfig,
    representative: int,
    initiation_interval: float,
) -> list[float]:
    """Longest-path issue times relative to the CDS representative.

    Loop-carried edges contribute ``latency - distance * II`` so the
    relaxation converges (with the critical cycle summing to zero).
    """
    count = len(ddg.instructions)
    weighted = [
        (src, dst, latency - distance * initiation_interval)
        for src, dst, latency, distance in _weighted_edges(ddg, config)
    ]
    times = [0.0] * count
    times[representative] = 0.0
    # |V| rounds of relaxation suffice because non-critical cycles have
    # negative adjusted weight; a couple of extra rounds guard against
    # floating-point ties.
    for _ in range(count + 2):
        changed = False
        for src, dst, weight in weighted:
            candidate = times[src] + weight
            if candidate > times[dst] + 1e-9:
                times[dst] = candidate
                changed = True
        if not changed:
            break
    return times


def analyse_loop_body(
    body_instructions: Sequence[Instruction],
    config: CompilerConfig,
    procedure_name: str = "",
    header_label: str = "",
) -> LoopRequirement:
    """Analyse a loop whose body is the given instruction sequence."""
    work = [instr for instr in body_instructions if instr.occupies_iq]
    body_size = len(work)
    if body_size == 0:
        return LoopRequirement(
            procedure=procedure_name,
            header=header_label,
            entries=config.min_hint_value,
            raw_entries=0,
            body_size=0,
        )

    ddg = build_ddg(work, include_loop_carried=True)
    recurrence_ii = _recurrence_initiation_interval(ddg, config)
    cds_nodes = _recurrence_nodes(ddg, config)

    scheduler = PseudoIssueQueue(config)
    single_iteration = scheduler.schedule(work, ddg=None).entries_needed

    if not cds_nodes or recurrence_ii <= 0:
        # No recurrence: iterations are independent, so the more entries the
        # better; request the full queue (the paper's library-call treatment
        # applies the same "maximum size" escape hatch).
        raw = config.max_iq_entries
        return LoopRequirement(
            procedure=procedure_name,
            header=header_label,
            entries=config.clamp_requirement(raw),
            raw_entries=raw,
            initiation_interval=0.0,
            iteration_offsets=[],
            cds=[],
            body_size=body_size,
        )

    # The achievable initiation interval is bounded below by both the
    # critical recurrence and the machine's issue resources.
    initiation_interval = max(
        recurrence_ii, _resource_initiation_interval(ddg, config)
    )
    representative = min(cds_nodes)
    times = _steady_state_times(ddg, config, representative, initiation_interval)
    offsets = [int((t + 1e-9) // initiation_interval) for t in times]

    max_offset = max(offsets)
    if max_offset <= 0:
        raw = max(single_iteration, config.min_hint_value)
    else:
        latest_positions = [i for i, k in enumerate(offsets) if k == max_offset]
        earliest_latest = min(latest_positions)
        rep_position = representative
        raw = (
            (body_size - earliest_latest)
            + body_size * (max_offset - 1)
            + (rep_position + 1)
        )
        raw = max(raw, single_iteration)

    return LoopRequirement(
        procedure=procedure_name,
        header=header_label,
        entries=config.clamp_requirement(raw),
        raw_entries=raw,
        initiation_interval=initiation_interval,
        iteration_offsets=offsets,
        cds=cds_nodes,
        body_size=body_size,
    )


def analyse_loop(
    blocks: Sequence,
    config: CompilerConfig,
    procedure_name: str = "",
    header_label: Optional[str] = None,
) -> LoopRequirement:
    """Analyse a natural loop given its basic blocks in layout order.

    The bodies of the supplied blocks (typically the loop's *exclusive*
    blocks so inner loops are not analysed twice) are concatenated in layout
    order to form the iteration body.
    """
    instructions: list[Instruction] = []
    for block in blocks:
        instructions.extend(block.non_hint_instructions())
    header = header_label or (blocks[0].label if blocks else "")
    return analyse_loop_body(
        instructions, config, procedure_name=procedure_name, header_label=header
    )
