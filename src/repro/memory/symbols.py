"""Symbol tables and a linker-style image builder.

The paper builds its text/data/BSS fault dictionary by processing the
application and MPI library binaries with ``objdump``/``nm`` to obtain
{symbolic name, address} pairs, then removing every address whose symbol
also appears in the MPI library's list.  Here the :class:`Linker` plays the
role of the static linker that produced those binaries: it assigns
addresses to named objects in the text, data and BSS sections (for both the
*user* and *mpi* "libraries", which share one image as in the paper's
Figure 1) and emits the :class:`SymbolTable` the fault dictionary consumes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Literal

from repro.clock import Clock
from repro.memory.layout import (
    DEFAULT_HEAP_SIZE,
    DEFAULT_STACK_SIZE,
    STACK_TOP,
    TEXT_BASE,
    align_up,
)
from repro.memory.segments import Perm, Segment
from repro.memory.address_space import AddressSpace

Section = Literal["text", "data", "bss"]
Library = Literal["user", "mpi"]


@dataclass(frozen=True)
class Symbol:
    """One linked object, as ``nm`` would report it."""

    name: str
    addr: int
    size: int
    section: Section
    library: Library

    @property
    def end(self) -> int:
        return self.addr + self.size

    def contains(self, addr: int) -> bool:
        return self.addr <= addr < self.end


class SymbolTable:
    """Address-sorted symbol list with O(log n) address resolution."""

    def __init__(self, symbols: Iterable[Symbol] = ()) -> None:
        self._symbols: list[Symbol] = sorted(symbols, key=lambda s: s.addr)
        self._addrs = [s.addr for s in self._symbols]
        self._by_name = {s.name: s for s in self._symbols}

    def add(self, symbol: Symbol) -> None:
        i = bisect.bisect_left(self._addrs, symbol.addr)
        self._symbols.insert(i, symbol)
        self._addrs.insert(i, symbol.addr)
        if symbol.name in self._by_name:
            raise ValueError(f"duplicate symbol {symbol.name!r}")
        self._by_name[symbol.name] = symbol

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self):
        return iter(self._symbols)

    def lookup(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"undefined symbol {name!r}") from None

    def resolve(self, addr: int) -> Symbol | None:
        """The symbol whose extent covers ``addr``, if any."""
        i = bisect.bisect_right(self._addrs, addr) - 1
        if i >= 0 and self._symbols[i].contains(addr):
            return self._symbols[i]
        return None

    def symbols(
        self, section: Section | None = None, library: Library | None = None
    ) -> list[Symbol]:
        out = self._symbols
        if section is not None:
            out = [s for s in out if s.section == section]
        if library is not None:
            out = [s for s in out if s.library == library]
        return list(out)

    def section_size(self, section: Section, library: Library | None = None) -> int:
        """Total bytes of symbols in a section - what ``objdump`` section
        headers report (Table 1's Text/Data/BSS sizes)."""
        return sum(s.size for s in self.symbols(section, library))


@dataclass
class ObjectDef:
    """An object handed to the linker before address assignment."""

    name: str
    section: Section
    size: int
    library: Library = "user"
    init: bytes | None = None  # required for text, optional for data

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"object {self.name!r} must have positive size")
        if self.init is not None and len(self.init) > self.size:
            raise ValueError(f"object {self.name!r}: init larger than size")
        if self.section == "bss" and self.init:
            raise ValueError(f"BSS object {self.name!r} cannot be initialized")


@dataclass
class LinkedImage:
    """Result of :meth:`Linker.link`."""

    address_space: AddressSpace
    symtab: SymbolTable
    text: Segment
    data: Segment
    bss: Segment
    heap: Segment
    stack: Segment
    entry_points: dict[str, int] = field(default_factory=dict)


class Linker:
    """Assigns addresses in the Figure-1 layout and builds the segments.

    Objects are laid out in submission order within each section: text at
    ``TEXT_BASE``, data following text (page aligned), BSS following data,
    heap above BSS, stack at the top of user space.
    """

    def __init__(self) -> None:
        self._objects: list[ObjectDef] = []
        self._names: set[str] = set()

    def add(self, obj: ObjectDef) -> ObjectDef:
        if obj.name in self._names:
            raise ValueError(f"duplicate object {obj.name!r}")
        self._names.add(obj.name)
        self._objects.append(obj)
        return obj

    def objects(
        self, section: Section | None = None, library: Library | None = None
    ) -> list[ObjectDef]:
        """The objects registered so far, optionally filtered - the
        pre-link view the static analyses use when they only need names
        and sections, not addresses."""
        out = self._objects
        if section is not None:
            out = [o for o in out if o.section == section]
        if library is not None:
            out = [o for o in out if o.library == library]
        return list(out)

    def add_text(self, name: str, code: bytes, library: Library = "user") -> ObjectDef:
        return self.add(ObjectDef(name, "text", len(code), library, code))

    def add_data(
        self, name: str, size: int, init: bytes | None = None, library: Library = "user"
    ) -> ObjectDef:
        return self.add(ObjectDef(name, "data", size, library, init))

    def add_bss(self, name: str, size: int, library: Library = "user") -> ObjectDef:
        return self.add(ObjectDef(name, "bss", size, library))

    def link(
        self,
        *,
        heap_size: int = DEFAULT_HEAP_SIZE,
        stack_size: int = DEFAULT_STACK_SIZE,
        clock: Clock | None = None,
        track: bool = False,
    ) -> LinkedImage:
        space = AddressSpace(clock)

        def layout(section: Section) -> tuple[list[tuple[ObjectDef, int]], int]:
            placed, off = [], 0
            for obj in self._objects:
                if obj.section == section:
                    off = align_up(off, 8)
                    placed.append((obj, off))
                    off += obj.size
            return placed, max(off, 8)

        text_objs, text_size = layout("text")
        data_objs, data_size = layout("data")
        bss_objs, bss_size = layout("bss")

        text_base = TEXT_BASE
        data_base = align_up(text_base + text_size)
        bss_base = align_up(data_base + data_size)
        heap_base = align_up(bss_base + bss_size)
        stack_base = STACK_TOP - align_up(stack_size)

        text = space.map("text", text_base, align_up(text_size), Perm.RX, track)
        data = space.map("data", data_base, align_up(data_size), Perm.RW, track)
        bss = space.map("bss", bss_base, align_up(bss_size), Perm.RW, track)
        heap = space.map("heap", heap_base, align_up(heap_size), Perm.RW, track)
        stack = space.map("stack", stack_base, align_up(stack_size), Perm.RW, track)

        symtab = SymbolTable()
        entry_points: dict[str, int] = {}
        for objs, seg in ((text_objs, text), (data_objs, data), (bss_objs, bss)):
            for obj, off in objs:
                addr = seg.base + off
                symtab.add(Symbol(obj.name, addr, obj.size, obj.section, obj.library))
                if obj.init:
                    seg.write_bytes(addr, obj.init)
                if obj.section == "text":
                    entry_points[obj.name] = addr

        return LinkedImage(
            address_space=space,
            symtab=symtab,
            text=text,
            data=data,
            bss=bss,
            heap=heap,
            stack=stack,
            entry_points=entry_points,
        )
