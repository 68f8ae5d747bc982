"""The block translator (PR 8 tentpole): planning, generated-unit
semantics, the lazy dispatch table, and the dual-mode dispatch loop's
exactness guarantees."""

from collections import OrderedDict

import pytest

from repro.cpu import ops, translate
from repro.cpu.assembler import assemble_function
from repro.cpu.isa import INSN_SIZE, Op, UndefinedOpcode, decode
from repro.errors import SimFPE, SimIllegalInstruction, SimSegfault
from repro.staticanalysis.cfg import ControlFlowGraph
from tests.conftest import build_image


def plan_of(source: str, name: str = "f"):
    fn = assemble_function(name, source)
    insns = list(translate.decode_stream(bytes(fn.code)))
    cfg = ControlFlowGraph.from_function(fn)
    return translate.plan_function(name, insns, cfg)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
class TestPlanning:
    def test_straight_line_is_one_unit(self):
        plan = plan_of("movi eax, 1\naddi eax, 2\nret")
        assert len(plan.units) == 1
        assert plan.units[0].end_kind == "terminator"
        assert plan.translated_insns == 3
        assert not plan.skipped

    def test_call_splits_unit(self):
        plan = plan_of("movi eax, 1\ncall @callee\naddi eax, 1\nret")
        kinds = [u.end_kind for u in plan.units]
        assert "call" in kinds
        assert plan.call_splits == 1
        # every instruction still belongs to some unit
        assert plan.translated_insns == plan.n_insns

    def test_cost_split_before_written_length_register(self):
        # vadd's length register ecx is written earlier in the block, so
        # its entry-time value would be stale: the planner must split.
        plan = plan_of(
            "movi ecx, 16\n"
            "vbin.add eax, ebx, edx, ecx\n"
            "ret",
        )
        assert plan.cost_splits == 1
        assert [u.end_kind for u in plan.units][0] == "cost_split"
        assert plan.translated_insns == plan.n_insns

    def test_unwritten_length_register_stays_fused(self):
        plan = plan_of("vbin.add eax, ebx, edx, ecx\nret")
        assert plan.cost_splits == 0
        assert len(plan.units) == 1


# ----------------------------------------------------------------------
# generated-unit semantics: fast run == interpreted run, bit for bit
# ----------------------------------------------------------------------
def observe(vm, exc):
    """Everything the two engines must agree on after a run."""
    return (
        type(exc),
        exc.args if exc else None,
        vm.regs.capture_state(),
        vm.fpu.capture_state(),
        vm.clock.blocks,
        vm.instructions_retired,
        tuple((s.name, s.buf.tobytes()) for s in vm.space.segments()),
    )


def call_observed(vm, entry, args=()):
    exc = None
    try:
        vm.call(entry, args)
    except Exception as e:  # noqa: BLE001 - compared type+args below
        exc = e
    return observe(vm, exc)


def run_both(sources, entry, args=(), data=None, bss=None):
    """Run the same kernel in both modes; return (exc, state) pairs."""
    out = []
    for fastpath in (False, True):
        image, vm = build_image(dict(sources), data=data, bss=bss)
        vm.fastpath = fastpath
        out.append(call_observed(vm, entry, args))
    return out


MIXED = """
    movi eax, 0
    movi ecx, 0
    movi edx, 64
loop:
    add eax, ecx
    imul eax, ecx
    xor eax, edx
    shr eax, 1
    neg eax
    addi ecx, 1
    cmpi ecx, 19
    jl loop
    movi ebx, $scratch
    fldimm 3
    vfill ebx, edx
    fpop
    vbin.add ebx, ebx, ebx, edx
    ret
"""


class TestBitIdentity:
    def test_mixed_scalar_vector_kernel(self):
        interp, fast = run_both(
            {"mixed": MIXED}, "mixed", bss={"scratch": 1024}
        )
        assert interp == fast

    def test_signed_boundary_values(self):
        # INT_MIN negation/division corner cases through both engines
        src = """
    movi eax, 1
    shl eax, 31
    neg eax
    mov ebx, eax
    movi ecx, 0
    addi ecx, -1
    mov edx, ebx
    idiv edx, ecx
    mov esi, ebx
    irem esi, ecx
    cmp ebx, ecx
    ret
"""
        interp, fast = run_both({"f": src}, "f")
        assert interp == fast

    def test_division_by_zero_mid_unit(self):
        src = """
    movi eax, 7
    movi ebx, 0
    addi eax, 1
    idiv eax, ebx
    addi eax, 100
    ret
"""
        interp, fast = run_both({"f": src}, "f")
        assert interp[0] is SimFPE
        assert interp == fast

    def test_segfault_mid_unit(self):
        src = """
    movi eax, 5
    movi ebx, 0x00000010
    addi eax, 2
    store [ebx], eax
    addi eax, 100
    ret
"""
        interp, fast = run_both({"f": src}, "f")
        assert interp[0] is SimSegfault
        # eip, clock, retirement and counters at the fault instant match
        assert interp == fast

    def test_vector_fault_partial_cost(self):
        # second vector op faults: the unit must retire exactly the
        # prefix (including the first op's data-dependent cost)
        src = """
    movi eax, $scratch
    movi ecx, 16
    vbin.add eax, eax, eax, ecx
    movi ebx, 0x00000010
    vbin.add ebx, ebx, ebx, ecx
    ret
"""
        interp, fast = run_both({"f": src}, "f", bss={"scratch": 256})
        assert interp[0] is SimSegfault
        assert interp == fast


# ----------------------------------------------------------------------
# dispatch-loop behavior
# ----------------------------------------------------------------------
class TestDispatch:
    def test_fastpath_stats_account_every_instruction(self):
        image, vm = build_image(
            {"mixed": MIXED}, bss={"scratch": 1024}
        )
        vm.fastpath = True
        vm.call("mixed")
        stats = vm.fastpath_stats
        executed = (
            stats["translated_insns"]
            + stats["interpreted_insns"]
            + stats["horizon_insns"]
        )
        assert executed == vm.instructions_retired
        assert stats["translated_units"] > 0
        assert stats["translated_insns"] > stats["interpreted_insns"]

    def test_text_corruption_retranslates_current_bytes(self):
        src = "f:\n" + "addi eax, 1\n" * 8 + "ret"
        image, vm = build_image({"f": src})
        vm.fastpath = True
        sym = next(
            s for s in image.symtab.symbols("text") if s.name == "f"
        )
        # corrupt the 5th instruction into a different valid word
        # mid-run via a hook: the engine must notice the version bump
        # and re-translate against the corrupted bytes
        flipped_at = []

        def corrupt(v):
            image.text.flip_bit(sym.addr + 4 * INSN_SIZE, 1)
            flipped_at.append(v.clock.blocks)

        vm.schedule_hook(3, corrupt)
        vm.call("f")
        assert flipped_at
        assert vm.fastpath_stats["retranslations"] > 0

        # and the corrupted outcome equals the interpreter's on the
        # same corrupted image
        image2, vm2 = build_image({"f": src})
        sym2 = next(
            s for s in image2.symtab.symbols("text") if s.name == "f"
        )
        vm2.schedule_hook(
            3, lambda v: image2.text.flip_bit(sym2.addr + 4 * INSN_SIZE, 1)
        )
        vm2.call("f")
        assert vm2.regs.capture_state() == vm.regs.capture_state()
        assert vm2.clock.blocks == vm.clock.blocks

    def test_translation_cached_per_digest(self):
        fn = assemble_function("f", "movi eax, 3\nret")
        t1 = translate.translation_for("f", fn.code, 0x1000)
        t2 = translate.translation_for("f", bytes(fn.code), 0x1000)
        assert t1 is t2
        t3 = translate.translation_for("f", fn.code, 0x2000)
        assert t3 is not t1

    def test_undecodable_function_translates_to_empty(self):
        assert translate.translation_for("bad", b"\xff" * 8, 0) == {}
        assert translate.translation_for("odd", b"\x00" * 9, 0) == {}


# ----------------------------------------------------------------------
# the lazy dispatch table: a function compiles on its first dispatch
# ----------------------------------------------------------------------
@pytest.fixture
def compiles(monkeypatch):
    """An empty translation cache for this test; returns the names of
    the functions compiled while it runs."""
    names = []
    real = translate._translate

    def counting(name, code, base):
        names.append(name)
        return real(name, code, base)

    monkeypatch.setattr(translate, "_TRANSLATIONS", OrderedDict())
    monkeypatch.setattr(translate, "_translate", counting)
    return names


#: 45 instructions, one block each: ``main`` calls ``hot`` in blocks
#: 3-7 of each of four 8-block iterations (ending at blocks 10, 18, 26
#: and 34), then ``late`` in blocks 35-39 and 40-44; ``cold`` never runs.
LAZY = {
    "main": """
    movi eax, 0
    movi ecx, 0
loop:
    call @hot
    addi ecx, 1
    cmpi ecx, 4
    jl loop
    call @late
    call @late
    ret
""",
    "hot": "addi eax, 1\naddi eax, 2\naddi eax, 3\nret",
    "late": "addi eax, 5\naddi eax, 6\naddi eax, 7\nret",
    "cold": "addi eax, 9\naddi eax, 9\nret",
}


def imm_flip(symbol, insn, bit=0):
    """A flip of bit ``bit`` of instruction ``insn``'s immediate."""
    return symbol, INSN_SIZE * insn + 4, bit


def run_flipped(compiles, flips, sources=LAZY, entry="main"):
    """Run ``entry`` under the interpreter and the fast path, each with
    ``(at_blocks, (symbol, byte offset, bit))`` flips applied from
    hooks; returns both observations and the fast VM's stats.

    A clean fast run first compiles every function the unflipped
    program dispatches, so ``compiles`` and the stats count only what
    the flips cause."""
    _, warm = build_image(dict(sources))
    warm.fastpath = True
    warm.call(entry)
    compiles.clear()
    out = []
    for fastpath in (False, True):
        image, vm = build_image(dict(sources))
        vm.fastpath = fastpath
        for at, (symbol, offset, bit) in flips:
            addr = image.addr_of(symbol) + offset
            vm.schedule_hook(
                at, lambda v, a=addr, b=bit: v.image.text.flip_bit(a, b)
            )
        out.append(call_observed(vm, entry))
    return out[0], out[1], vm.fastpath_stats


class TestLazyTable:
    def test_flip_in_never_called_function_compiles_nothing(self, compiles):
        interp, fast, stats = run_flipped(
            compiles, [(10, imm_flip("cold", 0))]
        )
        assert interp == fast
        assert stats["retranslations"] == 1
        assert stats["lazy_translations"] == 0
        assert compiles == []

    def test_flip_in_later_called_function_compiles_once(self, compiles):
        # ``late`` is called twice after the flip: one compile serves both
        interp, fast, stats = run_flipped(
            compiles, [(10, imm_flip("late", 1, bit=1))]
        )
        assert interp == fast
        assert stats["lazy_translations"] == 1
        assert compiles == ["late"]

    def test_return_into_pending_function_mid_body(self, compiles):
        # The flip fires inside ``hot`` (block 5) and corrupts ``main``'s
        # loop bound (cmpi ecx, 4 -> 5).  ``hot`` then returns into
        # ``main`` after the call, not at its entry: only the range
        # lookup can find that ``main`` is pending.
        interp, fast, stats = run_flipped(
            compiles, [(5, imm_flip("main", 4))]
        )
        assert interp == fast
        assert stats["lazy_translations"] == 1
        assert compiles == ["main"]

    def test_running_function_compiles_on_next_entry(self, compiles):
        # The flip fires inside ``hot`` and corrupts its own next
        # instruction: the rest of this call is interpreted, and the
        # next call enters at the start and compiles it once.
        interp, fast, stats = run_flipped(
            compiles, [(5, imm_flip("hot", 2))]
        )
        assert interp == fast
        assert stats["lazy_translations"] == 1
        assert compiles == ["hot"]

    def test_retired_running_function_compiles_nothing(self, compiles):
        # As above, but in late's last call: the corrupted function is
        # never entered again (a flip in a run-once startup routine).
        interp, fast, stats = run_flipped(
            compiles, [(42, imm_flip("late", 2))]
        )
        assert interp == fast
        assert stats["retranslations"] == 1
        assert stats["lazy_translations"] == 0
        assert compiles == []

    def test_undecodable_function_falls_back_to_interpreter(self, compiles):
        # addi (0x2a) -> 0xaa, an undefined opcode, in late's 2nd word
        with pytest.raises(UndefinedOpcode):
            decode(bytes([int(Op.ADDI) ^ 0x80]) + bytes(INSN_SIZE - 1))
        interp, fast, stats = run_flipped(
            compiles, [(10, ("late", INSN_SIZE, 7))]
        )
        assert interp[0] is SimIllegalInstruction
        assert interp == fast
        assert compiles == ["late"]
        assert stats["lazy_translations"] == 1
        assert stats["interpreted_insns"] >= 1  # late's first addi

    def test_two_flips_in_one_function(self, compiles):
        # The second flip fires inside late's first call (block 37) and
        # corrupts its very next instruction.
        interp, fast, stats = run_flipped(
            compiles,
            [(10, imm_flip("late", 0)), (37, imm_flip("late", 2, bit=2))],
        )
        assert interp == fast
        assert stats["retranslations"] == 2
        assert stats["lazy_translations"] == 2
        assert compiles == ["late", "late"]


class TestTranslationCache:
    def test_size_never_exceeds_bound(self, compiles):
        bound = translate.TRANSLATION_CACHE_SIZE
        code = assemble_function("f", "movi eax, 3\nret").code
        clean = translate.translation_for("f", code, 0x1000)
        for i in range(bound + 16):
            translate.translation_for("f", code, 0x2000 + 0x100 * i)
            assert len(translate._TRANSLATIONS) <= bound
            # a translation looked up between compiles stays cached
            assert translate.translation_for("f", code, 0x1000) is clean
        assert len(compiles) == bound + 17
        # the least recently used ones were dropped and compile again
        translate.translation_for("f", code, 0x2000)
        assert len(compiles) == bound + 18


# ----------------------------------------------------------------------
# audit surface
# ----------------------------------------------------------------------
class TestAudit:
    def test_audit_counts_are_consistent(self):
        from repro.staticanalysis.lint import iter_shipped_kernels

        for owner, fn in iter_shipped_kernels():
            rep = translate.audit_function(fn)
            assert rep["insns"] == len(fn.code) // INSN_SIZE
            assert (
                rep["translated_insns"] + rep["interpreted_insns"]
                == rep["insns"]
            )
            assert len(rep["untranslatable"]) == rep["interpreted_insns"]

    def test_audit_reports_undecodable(self):
        class FakeFn:
            name = "junk"
            code = b"\xff" * 16
            relocations = ()

        rep = translate.audit_function(FakeFn())
        assert rep["reason"] is not None
        assert rep["translated_insns"] == 0


def test_exec_table_covers_every_opcode():
    assert set(ops.EXEC) == set(Op)
