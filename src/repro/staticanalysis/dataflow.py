"""Worklist dataflow analyses over the kernel CFG.

A single generic fixpoint engine (:func:`solve`) drives both directions;
the two client analyses are the classic pair:

* **register liveness** (backward, may): which registers hold a value
  that some path will still read - the static counterpart of the
  paper's section-6.1.1 observation that register faults manifest in
  proportion to live-register occupancy;
* **reaching definitions** (forward, may): which write of a register can
  still be the source of its current value - the basis of the
  use-before-def and dead-write diagnostics.

Both lattices are powersets with union as the join, so transfer
functions are gen/kill pairs composed per basic block.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.cpu import semantics
from repro.cpu.registers import EAX, EBP, ESP
from repro.staticanalysis.cfg import ControlFlowGraph

#: Registers treated as live when a kernel returns: the cdecl return
#: value plus the stack/frame pair the caller's epilogue relies on.
#: (The kernels clobber the callee-saved set freely, so extending this
#: to ebx/esi/edi would drown the liveness signal in convention.)
EXIT_LIVE: frozenset[int] = frozenset({EAX, ESP, EBP})

#: Registers defined before entry by the calling convention: ``VM.call``
#: materialises the stack pointer and frame pointer; everything else a
#: kernel reads it must first define (or the linter's SA002 fires).
ENTRY_DEFINED: frozenset[int] = frozenset({ESP, EBP})

#: Pseudo definition site for convention-provided registers.
ENTRY_DEF = -1


def solve(
    cfg: ControlFlowGraph,
    *,
    backward: bool,
    boundary: frozenset,
    transfer: Callable[[int, frozenset], frozenset],
) -> tuple[list[frozenset], list[frozenset]]:
    """Generic union-join worklist fixpoint.

    Returns ``(in_sets, out_sets)`` per block, where "in" is the edge
    facing the analysis direction (predecessors forward, successors
    backward) and ``transfer`` maps a block's in-set to its out-set.
    ``boundary`` seeds the direction's boundary blocks (entry block
    forward; exit blocks - those without successors - backward).
    """
    nblocks = len(cfg.blocks)
    in_sets: list[frozenset] = [frozenset()] * nblocks
    out_sets: list[frozenset] = [frozenset()] * nblocks

    def sources(b: int) -> list[int]:
        return cfg.blocks[b].succs if backward else cfg.blocks[b].preds

    def is_boundary(b: int) -> bool:
        return not sources(b) if backward else b == 0

    # FIFO without duplicates: a block already queued is not queued again.
    work = deque(range(nblocks))
    queued = set(work)
    while work:
        b = work.popleft()
        queued.discard(b)
        gathered: frozenset = boundary if is_boundary(b) else frozenset()
        for s in sources(b):
            gathered = gathered | out_sets[s]
        new_out = transfer(b, gathered)
        if gathered == in_sets[b] and new_out == out_sets[b]:
            continue
        in_sets[b], out_sets[b] = gathered, new_out
        dests = (
            cfg.blocks[b].preds if backward else cfg.blocks[b].succs
        )
        for d in dests:
            if d not in queued:
                queued.add(d)
                work.append(d)
    return in_sets, out_sets


# ----------------------------------------------------------------------
# register liveness (backward)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Liveness:
    """Live register sets at block and instruction granularity."""

    cfg: ControlFlowGraph
    #: live-in / live-out per block index (register index sets).
    block_in: list[frozenset[int]]
    block_out: list[frozenset[int]]
    #: live set immediately *before* each instruction executes.
    before: list[frozenset[int]]
    #: live set immediately *after* each instruction executes.
    after: list[frozenset[int]]

    def live_registers(self) -> frozenset[int]:
        """Registers live at any program point (nonzero AVF support)."""
        live: frozenset[int] = frozenset()
        for s in self.before:
            live = live | s
        return live


def liveness(
    cfg: ControlFlowGraph, exit_live: frozenset[int] = EXIT_LIVE
) -> Liveness:
    """Backward may-analysis: ``live_in = use U (live_out - def)``."""

    def transfer(b: int, live_out: frozenset) -> frozenset:
        live = live_out
        for i in reversed(cfg.blocks[b].insn_indices()):
            eff = semantics.effects(cfg.insns[i])
            live = (live - eff.writes) | eff.reads
        return live

    # "in" faces successors for a backward problem: block_out first.
    block_out, block_in = solve(
        cfg, backward=True, boundary=exit_live, transfer=transfer
    )

    n = len(cfg.insns)
    before: list[frozenset[int]] = [frozenset()] * n
    after: list[frozenset[int]] = [frozenset()] * n
    for block in cfg.blocks:
        live = block_out[block.index]
        for i in reversed(block.insn_indices()):
            eff = semantics.effects(cfg.insns[i])
            after[i] = live
            live = (live - eff.writes) | eff.reads
            before[i] = live
    return Liveness(
        cfg=cfg,
        block_in=block_in,
        block_out=block_out,
        before=before,
        after=after,
    )


# ----------------------------------------------------------------------
# reaching definitions (forward)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReachingDefs:
    """Definitions (insn_index, reg) reaching each instruction.

    ``ENTRY_DEF`` (-1) marks the convention-provided definitions of
    ESP/EBP that exist before the first instruction.
    """

    cfg: ControlFlowGraph
    block_in: list[frozenset[tuple[int, int]]]
    block_out: list[frozenset[tuple[int, int]]]
    #: defs reaching the point just before each instruction.
    before: list[frozenset[tuple[int, int]]]

    def defs_of(self, insn_index: int, reg: int) -> frozenset[int]:
        """Instruction indices whose write of ``reg`` can reach
        ``insn_index`` (possibly including ``ENTRY_DEF``)."""
        return frozenset(
            d for d, r in self.before[insn_index] if r == reg
        )


def reaching_definitions(cfg: ControlFlowGraph) -> ReachingDefs:
    """Forward may-analysis: ``out = gen U (in - kill)``."""
    entry_defs = frozenset((ENTRY_DEF, r) for r in ENTRY_DEFINED)

    def step(defs: frozenset, i: int) -> frozenset:
        eff = semantics.effects(cfg.insns[i])
        if not eff.writes:
            return defs
        kept = frozenset(d for d in defs if d[1] not in eff.writes)
        return kept | frozenset((i, r) for r in eff.writes)

    def transfer(b: int, reach_in: frozenset) -> frozenset:
        defs = reach_in
        for i in cfg.blocks[b].insn_indices():
            defs = step(defs, i)
        return defs

    block_in, block_out = solve(
        cfg, backward=False, boundary=entry_defs, transfer=transfer
    )

    before: list[frozenset[tuple[int, int]]] = [frozenset()] * len(cfg.insns)
    for block in cfg.blocks:
        defs = block_in[block.index]
        for i in block.insn_indices():
            before[i] = defs
            defs = step(defs, i)
    return ReachingDefs(
        cfg=cfg, block_in=block_in, block_out=block_out, before=before
    )
