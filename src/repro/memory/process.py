"""Process image: the full memory state of one simulated MPI process.

A :class:`ProcessImage` comes from one of two places.
:meth:`ProcessImage.from_linker` links objects into a new image; callers
that link their own code (the liveness study, unit tests) use it
directly.  An :class:`ImageTemplate` captures a linked and
relocated image once, and :meth:`ImageTemplate.instantiate` then starts
each rank from a copy: the same layout, bytes and segment versions, the
shared read-only symbol table, and a fresh clock, heap allocator and
stack.  The applications build every rank of every trial this way, the
way a real injector attaches to processes that are already loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clock import Clock
from repro.memory.address_space import AddressSpace
from repro.memory.heap import HeapAllocator
from repro.memory.segments import Perm, Segment
from repro.memory.stack import StackManager
from repro.memory.symbols import LinkedImage, Linker, SymbolTable


@dataclass
class ProcessImage:
    """Everything the fault injector can target for one MPI rank."""

    rank: int
    clock: Clock
    address_space: AddressSpace
    symtab: SymbolTable
    text: Segment
    data: Segment
    bss: Segment
    heap_segment: Segment
    stack_segment: Segment
    heap: HeapAllocator
    stack: StackManager
    entry_points: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_linker(cls, linker: Linker, rank: int = 0, **link_kwargs) -> "ProcessImage":
        clock = link_kwargs.pop("clock", None) or Clock()
        image: LinkedImage = linker.link(clock=clock, **link_kwargs)
        return cls(
            rank=rank,
            clock=clock,
            address_space=image.address_space,
            symtab=image.symtab,
            text=image.text,
            data=image.data,
            bss=image.bss,
            heap_segment=image.heap,
            stack_segment=image.stack,
            heap=HeapAllocator(image.heap),
            stack=StackManager(image.stack),
            entry_points=dict(image.entry_points),
        )

    # ------------------------------------------------------------------
    # profile queries (Table 1 inputs)
    # ------------------------------------------------------------------
    def addr_of(self, name: str) -> int:
        return self.symtab.lookup(name).addr

    def section_sizes(self) -> dict[str, int]:
        """Sizes as ``objdump``/``nm`` plus the malloc wrapper report them:
        text/data/bss from the symbol table, heap from live allocations,
        stack from the current ESP extent."""
        return {
            "text": self.symtab.section_size("text"),
            "data": self.symtab.section_size("data"),
            "bss": self.symtab.section_size("bss"),
            "heap": self.heap.in_use,
            "stack": self.stack.used_bytes(),
        }

    def in_user_text(self, addr: int) -> bool:
        sym = self.symtab.resolve(addr)
        return sym is not None and sym.section == "text" and sym.library == "user"


@dataclass(frozen=True)
class SegmentTemplate:
    """One segment of an :class:`ImageTemplate`: its mapping, its
    ``version`` and its bytes (``None`` when they are all zero)."""

    name: str
    base: int
    size: int
    perm: Perm
    version: int
    init: np.ndarray | None

    @classmethod
    def capture(cls, seg: Segment) -> "SegmentTemplate":
        init = None
        if seg.buf.any():
            init = seg.buf.copy()
            init.flags.writeable = False
        return cls(seg.name, seg.base, seg.size, seg.perm, seg.version, init)


class ImageTemplate:
    """A linked, relocated process image that rank images are copied from.

    The template is read-only: it keeps copies of the segment bytes, and
    every image it instantiates owns its own buffers, so corrupting a
    rank never reaches the template or any other rank.  The symbol table
    and entry points never change after linking and are shared.
    """

    def __init__(self, image: ProcessImage) -> None:
        self.segments = tuple(
            SegmentTemplate.capture(seg) for seg in image.address_space.segments()
        )
        self.symtab = image.symtab
        self.entry_points = dict(image.entry_points)

    def instantiate(self, rank: int, track: bool) -> ProcessImage:
        """A new image with this template's contents; ``track`` enables
        working-set tracking on every segment (fresh arrays)."""
        clock = Clock()
        space = AddressSpace(clock)
        segs: dict[str, Segment] = {}
        for t in self.segments:
            # Through ``Segment.__init__`` rather than ``__new__`` plus a
            # ``__dict__`` update: an instance dict filled after creation
            # can lose CPython's specialized attribute loads, and
            # ``base``, ``version`` and ``buf`` are read on the VM's
            # hottest path.  That variant ran wavetoy trials 0.5-1.7 %
            # slower (EXPERIMENTS.md E22).
            seg = space.map(t.name, t.base, t.size, t.perm, track)
            if t.init is not None:
                seg.buf[:] = t.init
            seg.version = t.version
            segs[t.name] = seg
        return ProcessImage(
            rank=rank,
            clock=clock,
            address_space=space,
            symtab=self.symtab,
            text=segs["text"],
            data=segs["data"],
            bss=segs["bss"],
            heap_segment=segs["heap"],
            stack_segment=segs["stack"],
            heap=HeapAllocator(segs["heap"]),
            stack=StackManager(segs["stack"]),
            entry_points=dict(self.entry_points),
        )
