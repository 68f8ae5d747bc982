"""Control-flow graph construction over assembled kernel bytes.

The graph is built from the *encoded* text image, not the assembler's
in-memory instruction list: the decoder is the same one the VM fetch
path uses, so the CFG describes exactly the words a text-segment fault
would corrupt.  Leaders are the entry instruction, every branch target
and every fall-through after a terminator; CALL/CALLR do not end blocks
(control returns to the next word) while RET, HLT and the jumps do.

Loop nesting depth per block comes from dominator-based natural loops -
it is the execution-weight proxy the AVF estimator uses in place of a
dynamic profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu import semantics
from repro.cpu.assembler import AssembledFunction, assemble_function
from repro.cpu.decoder import decode_stream
from repro.cpu.isa import INSN_SIZE, Insn
from repro.errors import SimulationError


class CFGError(SimulationError):
    """The byte image is not a decodable function body."""


def decode_function(code: bytes) -> list[Insn]:
    """Decode a function's text bytes into its instruction words.

    Routed through :mod:`repro.cpu.decoder`, the same cached decode
    authority the VM fetch path and the block translator use, so the
    CFG describes exactly the words the interpreter executes.
    """
    if len(code) % INSN_SIZE:
        raise CFGError(
            f"function body of {len(code)} bytes is not a whole number "
            f"of {INSN_SIZE}-byte words"
        )
    return list(decode_stream(code))


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    index: int
    start: int  # first instruction index (inclusive)
    end: int  # last instruction index (exclusive)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)
    #: Natural-loop nesting depth (0 = not in any loop).
    loop_depth: int = 0

    def insn_indices(self) -> range:
        return range(self.start, self.end)

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class ControlFlowGraph:
    name: str
    insns: list[Insn]
    blocks: list[BasicBlock]
    #: Instruction index -> owning block index.
    block_of: list[int]
    #: (insn index, decoded displacement) of branches whose target lies
    #: outside the function or off the instruction grid - no edge is
    #: added for them; the linter reports SA005.
    bad_branch_targets: list[tuple[int, int]]
    #: Relocated instruction indices (their imm is patched at link time,
    #: so its encoded value carries no static meaning).
    relocated: frozenset[int] = frozenset()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_code(
        cls, name: str, code: bytes, relocated: frozenset[int] = frozenset()
    ) -> "ControlFlowGraph":
        insns = decode_function(code)
        return cls._build(name, insns, relocated)

    @classmethod
    def from_function(cls, fn: AssembledFunction) -> "ControlFlowGraph":
        """Build from an assembled function, round-tripping through its
        byte image (the linker-visible form)."""
        relocated = frozenset(r.insn_index for r in fn.relocations)
        return cls.from_code(fn.name, fn.code, relocated)

    @classmethod
    def from_source(cls, name: str, source: str) -> "ControlFlowGraph":
        return cls.from_function(assemble_function(name, source))

    @classmethod
    def _build(
        cls, name: str, insns: list[Insn], relocated: frozenset[int]
    ) -> "ControlFlowGraph":
        if not insns:
            raise CFGError(f"function {name!r} has no instructions")
        n = len(insns)

        def branch_target(idx: int) -> int | None:
            """Target instruction index, or None when it leaves the
            function or lands between words."""
            disp = insns[idx].imm
            if disp % INSN_SIZE:
                return None
            target = idx + 1 + disp // INSN_SIZE
            return target if 0 <= target < n else None

        leaders = {0}
        bad: list[tuple[int, int]] = []
        for i, insn in enumerate(insns):
            if semantics.is_branch(insn):
                target = branch_target(i)
                if target is None:
                    bad.append((i, insn.imm))
                else:
                    leaders.add(target)
            if semantics.is_terminator(insn) and i + 1 < n:
                leaders.add(i + 1)

        starts = sorted(leaders)
        blocks = [
            BasicBlock(index=b, start=s, end=e)
            for b, (s, e) in enumerate(zip(starts, starts[1:] + [n]))
        ]
        block_of = [0] * n
        for block in blocks:
            for i in block.insn_indices():
                block_of[i] = block.index

        for block in blocks:
            last = insns[block.end - 1]
            succs: list[int] = []
            if semantics.is_branch(last):
                target = branch_target(block.end - 1)
                if target is not None:
                    succs.append(block_of[target])
            if semantics.falls_through(last) and block.end < n:
                fall = block_of[block.end]
                if fall not in succs:
                    succs.append(fall)
            block.succs = succs
            for s in succs:
                blocks[s].preds.append(block.index)

        cfg = cls(
            name=name,
            insns=insns,
            blocks=blocks,
            block_of=block_of,
            bad_branch_targets=bad,
            relocated=relocated,
        )
        cfg._annotate_loop_depths()
        return cfg

    # ------------------------------------------------------------------
    # graph queries
    # ------------------------------------------------------------------
    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def reachable(self) -> set[int]:
        """Block indices reachable from the entry block."""
        seen = {0}
        work = [0]
        while work:
            b = work.pop()
            for s in self.blocks[b].succs:
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        return seen

    def dominators(self) -> list[set[int]]:
        """Per-block dominator sets (iterative dataflow; the kernels are
        a handful of blocks, so the simple algorithm is plenty)."""
        nblocks = len(self.blocks)
        full = set(range(nblocks))
        dom: list[set[int]] = [full.copy() for _ in range(nblocks)]
        dom[0] = {0}
        reachable = self.reachable()
        changed = True
        while changed:
            changed = False
            for b in range(1, nblocks):
                if b not in reachable:
                    continue
                preds = [p for p in self.blocks[b].preds if p in reachable]
                if not preds:
                    continue
                new = set.intersection(*(dom[p] for p in preds)) | {b}
                if new != dom[b]:
                    dom[b] = new
                    changed = True
        return dom

    def natural_loops(self) -> list[tuple[int, int, frozenset[int]]]:
        """``(header, tail, body)`` of every natural loop, one per back
        edge ``tail -> header`` (``header`` dominates ``tail``) from a
        reachable block: the body is the header plus every block that
        reaches ``tail`` without passing through the header."""
        dom = self.dominators()
        reachable = self.reachable()
        loops = []
        for block in self.blocks:
            if block.index not in reachable:
                continue
            for succ in block.succs:
                if succ in dom[block.index]:  # back edge block -> succ
                    body = {succ}
                    work = [block.index]
                    while work:
                        b = work.pop()
                        if b in body:
                            continue
                        body.add(b)
                        work.extend(self.blocks[b].preds)
                    loops.append((succ, block.index, frozenset(body)))
        return loops

    def _annotate_loop_depths(self) -> None:
        """Natural-loop nesting depth: a block's depth is the number of
        distinct loop headers whose loop (the union over the header's
        back edges) contains it."""
        loops: dict[int, set[int]] = {}  # header -> body
        for header, _tail, body in self.natural_loops():
            loops.setdefault(header, set()).update(body)
        for block in self.blocks:
            block.loop_depth = sum(
                1 for body in loops.values() if block.index in body
            )

    # ------------------------------------------------------------------
    # rendering (debugging aid and CLI output)
    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = [f"cfg {self.name}: {len(self.blocks)} blocks"]
        for b in self.blocks:
            ops = " ".join(self.insns[i].op.name for i in b.insn_indices())
            lines.append(
                f"  B{b.index} [{b.start}:{b.end}] depth={b.loop_depth} "
                f"succs={b.succs} | {ops}"
            )
        return "\n".join(lines)
