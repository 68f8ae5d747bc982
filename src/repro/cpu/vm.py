"""The virtual machine interpreter.

Executes assembled kernels against a :class:`~repro.memory.process.ProcessImage`.
Every design choice serves the fault-injection experiment:

* Execution halts *between* instructions at scheduled basic-block counts
  so the injector can overwrite registers or memory and resume - the
  analogue of the paper's ``ptrace``-based injector waking up periodically.
* Scalar instructions advance the clock by one block; vector instructions
  advance it in proportion to the element count they replace, so the
  uniform injection-time sampling lands in compute loops with realistic
  density.
* Instruction words are fetched (and the text working set recorded)
  through the address space; decoded words are cached against the text
  segment's version counter, so a bit flip in text invalidates the cache
  and the corrupted word is re-decoded - possibly into a different valid
  instruction, possibly into SIGILL.
* A VM started on a copy of a linked image takes that image's
  :class:`TextTemplate`, built once: it copies the pristine text's
  decode cache and builds its own dispatch table from the stored
  function digests, so starting a rank hashes and decodes nothing.
* A block budget models the paper's hang criterion ("one minute beyond
  the expected execution completion time").
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from repro.errors import HangDetected, SimIllegalInstruction
from repro.observability import runtime as _obs
from repro.cpu import ops as _ops
from repro.cpu.decoder import try_decode_stream
from repro.cpu.fpu import FPU
from repro.cpu.isa import INSN_SIZE, Insn, UndefinedOpcode, decode
from repro.cpu.registers import EAX, EBP, ESP, RegisterFile
from repro.memory.process import ProcessImage

#: Return address marking the outermost frame of a ``VM.call``.  It lies
#: in kernel space, so a corrupted return address that *doesn't* exactly
#: match it faults on the next fetch - as on real hardware.
RET_SENTINEL = 0xFFFF_FFF0

_U32_MASK = 0xFFFF_FFFF

#: Budget handed to translated units when no hook or hang limit is
#: armed - far beyond any reachable block count.
_NO_HORIZON = 1 << 62

_signed = _ops.signed


class TextTemplate:
    """The CPU's read-only view of one linked text as it starts: its
    decode cache, and the digest of every text function
    (:func:`translate.text_functions`).

    The decode cache comes from the shared stream decoder
    (:mod:`repro.cpu.decoder`), one stream per text symbol, so the fetch
    path and the static CFG consume the *same* decode of every shipped
    kernel.  Every VM started on a copy of the text (an
    :class:`~repro.memory.process.ImageTemplate` instance) copies the
    decode cache and builds its dispatch table from the digests, so it
    hashes and decodes nothing.  The table is the VM's own: the VM adds
    the functions it translates lazily to it, and a function translated
    from one trial's corrupted text must not reach any other.  It is
    built when the VM first runs, so it holds every translation cached
    by then and keeps clean ones recent in the translation cache.
    """

    def __init__(self, image: ProcessImage) -> None:
        # Imported lazily: translate pulls in staticanalysis.cfg, which
        # imports this module.
        from repro.cpu import translate

        text = image.text
        self.version = version = text.version
        self.functions = translate.text_functions(image)
        self.decode_cache: dict[int, tuple[int, Insn]] = {}
        for start, end, _, _ in self.functions:
            insns = try_decode_stream(text.read_bytes(start, end - start))
            if insns is None:
                continue
            for addr, insn in zip(range(start, end, INSN_SIZE), insns):
                self.decode_cache[addr] = (version, insn)


class VM:
    """One virtual CPU bound to one process image.  ``template``
    describes the text the image starts with: the one it was copied
    from, or by default the image's own."""

    def __init__(
        self, image: ProcessImage, template: TextTemplate | None = None
    ) -> None:
        self.image = image
        self.space = image.address_space
        self.clock = image.clock
        self.regs = RegisterFile()
        self.fpu = FPU()
        #: Hard block budget; exceeded -> HangDetected (None = unlimited).
        self.block_limit: int | None = None
        #: Scheduled injection callbacks: sorted [(block_count, fn), ...].
        self._hooks: list[tuple[int, Callable[["VM"], None]]] = []
        self._next_hook: int | None = None
        self._running = False
        self.instructions_retired = 0
        #: Optional control-flow signature monitor
        #: (:mod:`repro.detectors.cfcheck`); called per retired
        #: instruction with (addr, insn, next_eip).
        self.cf_checker = None
        #: Opt-in translated fast path (set by the engine from
        #: ``--fastpath``); observers can still force interpretation.
        self.fastpath = False
        #: Fastpath accounting, harvested into campaign metrics.
        self.fastpath_stats = {
            "translated_units": 0,
            "translated_insns": 0,
            "interpreted_insns": 0,
            "horizon_insns": 0,
            "retranslations": 0,
            "lazy_translations": 0,
            "observer_runs": 0,
            "bulk_iterations": 0,
        }
        self._fast_table: dict | None = None
        self._fast_loops: dict = {}
        self._fast_pending: list[tuple[int, int, str]] = []
        #: ``eip`` when the table was built (see ``_run_fast``).
        self._fast_midflight = RET_SENTINEL
        self._fast_version = -1
        #: Working-set tracking needs per-access events, which only the
        #: interpreter emits.
        self._tracked = any(
            seg.tracking for seg in self.space.segments()
        )
        if template is None:
            template = TextTemplate(image)
        self._template = template
        self._decode_cache = dict(template.decode_cache)

    # ------------------------------------------------------------------
    # injection scheduling (the ptrace analogue)
    # ------------------------------------------------------------------
    def schedule_hook(self, at_blocks: int, callback: Callable[["VM"], None]) -> None:
        """Run ``callback(vm)`` at the first instruction boundary at or
        after ``at_blocks`` executed blocks."""
        self._hooks.append((at_blocks, callback))
        self._hooks.sort(key=lambda h: h[0])
        self._next_hook = self._hooks[0][0]

    def _fire_hooks(self) -> None:
        while self._hooks and self.clock.blocks >= self._hooks[0][0]:
            _, callback = self._hooks.pop(0)
            callback(self)
        self._next_hook = self._hooks[0][0] if self._hooks else None

    def pending_hooks(self) -> int:
        return len(self._hooks)

    # ------------------------------------------------------------------
    # stack helpers (operate through the *register-file* ESP, so a
    # corrupted ESP derails pushes and pops exactly as on hardware)
    # ------------------------------------------------------------------
    def _push_u32(self, value: int) -> None:
        esp = (self.regs.get(ESP) - 4) & _U32_MASK
        self.regs.put(ESP, esp)
        self.space.store_u32(esp, value)

    def _pop_u32(self) -> int:
        esp = self.regs.get(ESP)
        value = self.space.load_u32(esp)
        self.regs.put(ESP, (esp + 4) & _U32_MASK)
        return value

    # ------------------------------------------------------------------
    # top-level entry
    # ------------------------------------------------------------------
    def call(self, function: str | int, args: Sequence[int] = ()) -> int:
        """Call an assembled function with 32-bit arguments (cdecl);
        returns EAX.  Floating-point results are left on the FPU stack."""
        entry = (
            self.image.entry_points[function]
            if isinstance(function, str)
            else function
        )
        stack = self.image.stack
        for a in reversed([int(x) & _U32_MASK for x in args]):
            stack.push_u32(a)
        stack.push_u32(RET_SENTINEL)
        self.regs.poke(ESP, stack.esp)
        self.regs.poke(EBP, stack.ebp)
        self.regs.eip = entry
        tracer = _obs.TRACER
        if tracer is None:
            self._run()
        else:
            # Kernel span: one "X" event per VM.call, stamped on the
            # simulated block clock; emitted even when the kernel dies
            # mid-flight so a crashing trial shows the truncated span.
            name = function if isinstance(function, str) else f"fn@0x{entry:08x}"
            t0 = self.clock.blocks
            i0 = self.instructions_retired
            try:
                self._run()
            finally:
                tracer.complete(
                    f"kernel:{name}",
                    "vm",
                    t0,
                    self.clock.blocks - t0,
                    tid=self.image.rank,
                    args={"insns": self.instructions_retired - i0},
                )
        # Caller pops the arguments (cdecl); ESP is just above the
        # (now consumed) return-address slot.
        stack.esp = (self.regs.peek(ESP) + 4 * len(args)) & _U32_MASK
        stack.ebp = self.regs.peek(EBP)
        return self.regs.peek(EAX)

    def _run(self) -> None:
        self._running = True
        try:
            if self.fastpath and self.cf_checker is None and not self._tracked:
                self._run_fast()
            else:
                if self.fastpath:
                    self.fastpath_stats["observer_runs"] += 1
                while self._running:
                    self.step()
        finally:
            self._running = False

    def _run_fast(self) -> None:
        """Dual-mode dispatch: run translated units wherever no observer
        can see intermediate state, interpret everywhere else.

        A unit refuses to run (and we interpret one instruction) when
        its block cost would reach the next ``schedule_hook`` horizon or
        cross the hang budget, so hooks fire and :class:`HangDetected`
        raises at exactly the interpreter's instruction boundary.

        At the head of a counted vector loop (:mod:`repro.cpu.loops`)
        the loop's bulk entry runs first.  Its guard checks, from the
        live registers and memory, that the rest of the loop can
        neither fault nor be observed and that no iteration depends on
        another; if so it applies all but the last remaining iteration
        as strided 2-D NumPy operations and computes their counters in
        closed form.  The head unit then runs the peeled last
        iteration, which leaves the final temporaries, flags, FPU and
        stack words exactly as the interpreter does.  When a check
        fails nothing has changed, and the head unit runs as usual.

        The table is lazy: a function not yet translated at its current
        bytes is only a pending address range, and it compiles when
        ``eip`` first lands anywhere inside it (an entry, or a return
        into its body).  A text-segment fault (version bump) rebuilds
        the table against the *current* bytes: unchanged functions hit
        the per-digest cache, and the corrupted function is compiled
        only if it is dispatched again.  A whole-function compile costs
        3-5 ms for the hot kernels and 75-104 ms for climate's
        ``cam_startup``, so a flip in code that has already retired or
        never runs costs nothing.  The function that was running when
        its own bytes changed resumes mid-unit, where a fresh
        translation has no entry, so it is interpreted until control
        enters it again at its first instruction.  Functions whose
        corrupted bytes no longer decode translate to nothing and fall
        back to the interpreter naturally.
        """
        text = self.image.text
        if self._fast_table is None or self._fast_version != text.version:
            self._build_fast_table()
        table = self._fast_table
        loops = self._fast_loops
        regs = self.regs
        rr = regs.r
        rc = regs.read_count
        wc = regs.write_count
        space, fpu, clock = self.space, self.fpu, self.clock
        version = self._fast_version
        units = fast = slow = horizon = retrans = lazy = bulk = 0
        # One errstate scope for the whole run: translated units elide
        # the interpreter's per-op ``errstate(all="ignore")`` blocks.
        try:
            with np.errstate(all="ignore"):
                while self._running:
                    if text.version != version:
                        retrans += 1
                        self._build_fast_table()
                        table = self._fast_table
                        loops = self._fast_loops
                        version = self._fast_version
                        continue
                    entry = table.get(regs.eip)
                    if entry is None:
                        if regs.eip == RET_SENTINEL:
                            self._running = False
                            break
                        if self._fast_pending and self._translate_pending(
                            regs.eip
                        ):
                            lazy += 1
                            continue
                        slow += 1
                        self.step()
                        continue
                    nh = self._next_hook
                    bl = self.block_limit
                    if nh is None and bl is None:
                        at = None
                        budget = _NO_HORIZON
                    else:
                        at = (
                            nh - 1
                            if bl is None
                            else (bl if nh is None else min(nh - 1, bl))
                        )
                        budget = at - clock.blocks
                    loop = loops.get(regs.eip)
                    if loop is not None:
                        k = loop.run(
                            self, rr, rc, wc, space, fpu, clock, budget
                        )
                        if k:
                            bulk += k
                            fast += k * loop.insns
                            if at is not None:
                                budget = at - clock.blocks
                    fn, n = entry
                    if fn(self, regs, rr, rc, wc, space, fpu, clock, budget):
                        horizon += 1
                        self.step()
                        continue
                    units += 1
                    fast += n
        finally:
            stats = self.fastpath_stats
            stats["translated_units"] += units
            stats["translated_insns"] += fast
            stats["interpreted_insns"] += slow
            stats["horizon_insns"] += horizon
            stats["retranslations"] += retrans
            stats["lazy_translations"] += lazy
            stats["bulk_iterations"] += bulk

    def _build_fast_table(self) -> None:
        # Imported lazily: translate pulls in staticanalysis.cfg, which
        # imports this module.
        from repro.cpu import translate

        template = self._template
        version = self.image.text.version
        # Text versions only grow, so the template's version means the
        # template's bytes, whose function digests it already holds.
        functions = template.functions if version == template.version else None
        (
            self._fast_table,
            self._fast_loops,
            self._fast_pending,
        ) = translate.build_vm_table(self.image, functions)
        self._fast_version = version
        self._fast_midflight = self.regs.eip

    def _translate_pending(self, eip: int) -> bool:
        """Translate the pending function containing ``eip`` into the
        table; False when ``eip`` lies in none, or in the function that
        was running when the table was built and not at its start."""
        from repro.cpu import translate

        pending = self._fast_pending
        i = bisect.bisect_right(pending, eip, key=itemgetter(0)) - 1
        if i < 0:
            return False
        start, end, name = pending[i]
        if eip >= end or (start <= self._fast_midflight < end and eip != start):
            return False
        del pending[i]
        code = self.image.text.read_bytes(start, end - start)
        translation = translate.translation_for(name, code, start)
        self._fast_table.update(translation)
        self._fast_loops.update(translation.loops)
        return True

    # ------------------------------------------------------------------
    # fetch/decode
    # ------------------------------------------------------------------
    def _fetch(self, eip: int) -> Insn:
        text = self.image.text
        if text.contains(eip, INSN_SIZE):
            cached = self._decode_cache.get(eip)
            if cached is not None and cached[0] == text.version:
                text.note_exec(eip, INSN_SIZE)
                return cached[1]
            word = text.read_bytes(eip, INSN_SIZE)
            text.note_exec(eip, INSN_SIZE)
        else:
            # Jumped outside text: fetch through the checked path, which
            # raises SIGSEGV for unmapped/execute-denied addresses.
            word = self.space.fetch_code(eip, INSN_SIZE)
        try:
            insn = decode(word)
        except UndefinedOpcode as exc:
            raise SimIllegalInstruction(
                f"undefined opcode 0x{exc.opcode:02x} at 0x{eip:08x}"
            ) from None
        if text.contains(eip, INSN_SIZE):
            self._decode_cache[eip] = (text.version, insn)
        return insn

    # ------------------------------------------------------------------
    # single step
    # ------------------------------------------------------------------
    def step(self) -> None:
        eip = self.regs.eip
        if eip == RET_SENTINEL:
            self._running = False
            return
        insn = self._fetch(eip)
        self.regs.eip = eip + INSN_SIZE
        self._execute(insn)
        if self.cf_checker is not None:
            self.cf_checker.check(eip, insn, self.regs.eip)
        self.instructions_retired += 1
        blocks = self.clock.tick(self._cost(insn))
        if self._next_hook is not None and blocks >= self._next_hook:
            self._fire_hooks()
        if self.block_limit is not None and blocks > self.block_limit:
            raise HangDetected("block budget exceeded", blocks)

    def _cost(self, insn: Insn) -> int:
        if insn.op in _ops.VECTOR_OPS:
            n = self.regs.peek(_ops.vector_len_reg(insn))
            return max(1, n >> 3)
        return 1

    # ------------------------------------------------------------------
    # execute
    # ------------------------------------------------------------------
    def _execute(self, i: Insn) -> None:
        # One function per opcode: repro.cpu.ops is the single execution
        # authority, shared with the block translator.
        _EXEC[i.op](self, i)


_EXEC = _ops.EXEC
