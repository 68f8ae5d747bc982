"""The block translator (PR 8 tentpole): planning, generated-unit
semantics, the lazy dispatch table, and the dual-mode dispatch loop's
exactness guarantees."""

from collections import OrderedDict

import pytest

from repro.cpu import loops, ops, translate
from repro.cpu.assembler import assemble_function
from repro.cpu.isa import INSN_SIZE, Op, UndefinedOpcode, decode
from repro.errors import (
    HangDetected,
    SimBusError,
    SimFPE,
    SimIllegalInstruction,
    SimSegfault,
)
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

    def test_audit_lists_bulk_loops(self):
        from repro.staticanalysis.lint import iter_shipped_kernels

        reports = {
            fn.name: translate.audit_function(fn)
            for _owner, fn in iter_shipped_kernels()
        }
        (loop,) = reports["wt_step"]["bulk_loops"]
        assert loop["head"] == 5
        assert loop["streams"] == 8
        assert loop["body_insns"] > loop["head"]
        assert len(reports["cam_physics"]["bulk_loops"]) == 1
        assert len(reports["cam_dynamics"]["bulk_loops"]) == 1

    def test_audit_reports_undecodable(self):
        class FakeFn:
            name = "junk"
            code = b"\xff" * 16
            relocations = ()

        rep = translate.audit_function(FakeFn())
        assert rep["reason"] is not None
        assert rep["translated_insns"] == 0


# ----------------------------------------------------------------------
# counted vector loops: planning, the run-time guard, the bulk entry
# ----------------------------------------------------------------------
def loop_plans_of(fn):
    """``(plans, refused)`` of an assembled function's natural loops."""
    insns = list(translate.decode_stream(bytes(fn.code)))
    return loops.plan_loops(insns, ControlFlowGraph.from_function(fn))


def loop_plans(source: str):
    return loop_plans_of(assemble_function("f", source))


def row_kernel(body: str, resident: bool = True) -> str:
    """A row loop over ``(src, dst, rows, scratch)``: ``esi``/``edi``
    point at row ``eax`` of src/dst (8 doubles per row), ``ebx`` at the
    scratch row, ``ecx`` holds 8, and (if ``resident``) a coefficient
    stays in ST0."""
    load, release = ("movi edx, $coef\nfld [edx]", "fpop") if resident else ("", "")
    return f"""
    push ebp
    mov ebp, esp
    {load}
    movi eax, 0
loop:
    load edx, [ebp+16]
    cmp eax, edx
    jge done
    mov esi, eax
    movi ecx, 64
    imul esi, ecx
    load edx, [ebp+8]
    add esi, edx
    mov edi, eax
    imul edi, ecx
    load edx, [ebp+12]
    add edi, edx
    load ebx, [ebp+20]
    movi ecx, 8
{body}
    addi eax, 1
    jmp loop
done:
    {release}
    mov esp, ebp
    pop ebp
    ret
"""


#: scratch = 3 * src (privatized), then dst += coef * scratch, with a
#: stack spill of ecx in between (an iteration-local slot).
ROWS = row_kernel("""
    push ecx
    fldimm 3
    vbins.mul ebx, esi, ecx
    fpop
    pop ecx
    vaxpy edi, edi, ebx, ecx
""")

BULK_ROWS = 12


def observe_all(vm, exc):
    """``observe`` plus every segment's store version."""
    return observe(vm, exc) + (
        tuple(s.version for s in vm.space.segments()),
    )


def row_image(source=ROWS):
    return build_image(
        {"rows": source},
        data={"pad": 256, "coef": 8},
        bss={"a": 64 * BULK_ROWS, "b": 64 * BULK_ROWS, "scratch": 64},
    )


def run_rows(
    fastpath,
    source=ROWS,
    rows=BULK_ROWS,
    src=None,
    dst=None,
    scratch=None,
    hook_at=None,
    block_limit=None,
    twd=None,
):
    """Run ``source`` over ``rows`` rows of ``src`` (default the bss
    array ``a``) into ``dst`` (default ``b``); pointer arguments may be
    callables of the image.  Returns the observation, the machine state
    each hook saw, and the fast path's stats."""
    image, vm = row_image(source)
    image.data.view_f64(image.addr_of("coef"), 1)[:] = 0.25
    a, b = image.addr_of("a"), image.addr_of("b")
    image.bss.view_f64(a, 8 * BULK_ROWS)[:] = [
        (i * 0.37) % 5 - 2 for i in range(8 * BULK_ROWS)
    ]
    image.bss.view_f64(b, 8 * BULK_ROWS)[:] = 1.5
    vm.fastpath = fastpath
    vm.block_limit = block_limit
    if twd is not None:
        vm.fpu.twd = twd
    seen = []
    if hook_at is not None:
        vm.schedule_hook(
            hook_at,
            lambda v: seen.append(
                (v.clock.blocks, v.instructions_retired, v.regs.eip,
                 tuple(v.regs.r))
            ),
        )
    exc = None
    args = [
        default if arg is None else arg(image) if callable(arg) else arg
        for arg, default in (
            (src, a), (dst, b), (rows, rows), (scratch, image.addr_of("scratch"))
        )
    ]
    try:
        vm.call("rows", args)
    except Exception as e:  # noqa: BLE001 - compared type+args below
        exc = e
    return observe_all(vm, exc), seen, vm.fastpath_stats


class TestVectorLoops:
    def test_shipped_loops_are_planned(self):
        from repro.staticanalysis.lint import iter_shipped_kernels

        kernels = {fn.name: fn for _owner, fn in iter_shipped_kernels()}
        for name in ("wt_step", "cam_physics", "cam_dynamics"):
            fn = kernels[name]
            plans, refused = loop_plans_of(fn)
            assert len(plans) == 1, (name, refused)
            assert not refused
        # wavetoy's scratch row is privatized; its time levels stream
        plan = loop_plans_of(kernels["wt_step"])[0][0]
        assert sum(st.private for st in plan.streams) == 1
        assert [k for k, _ in plan.induction] == [0]  # eax, the row index

    def test_test_kernel_is_planned(self):
        plans, refused = loop_plans(ROWS)
        assert len(plans) == 1 and not refused

    @pytest.mark.parametrize(
        "body, reason",
        [
            ("vred.sum esi, ecx\nfpop", "VRED"),
            (
                "cmpi ecx, 0\njz skip\nvmov edi, esi, ecx\nskip:",
                "not a head block plus one straight-line body",
            ),
            (
                # row i reads row i-1's output
                "lea edx, [edi-64]\nvbin.add edi, edx, esi, ecx",
                "loop-carried dependence between rows",
            ),
            (
                # the trip bound is reloaded from the slot written here
                "vmov edi, esi, ecx\nstore [ebp+16], eax",
                "store into a slot the loop loads",
            ),
            (
                # accumulating into a fixed vector carries a dependence
                "vbin.add ebx, ebx, esi, ecx",
                "loop-carried dependence through a fixed vector",
            ),
            (
                # the head reads ebp, which the body overwrites
                "vmov edi, esi, ecx\nmov ebp, edi",
                "register read before it is written",
            ),
        ],
        ids=["vred", "branch", "recurrence", "trip_slot", "accumulator",
             "stale_temp"],
    )
    def test_refused_loops(self, body, reason):
        plans, refused = loop_plans(row_kernel(body))
        assert plans == []
        assert len(refused) == 1
        assert reason in refused[0][1]

    def test_bulk_is_bit_identical(self):
        interp, _, _ = run_rows(False)
        fast, _, stats = run_rows(True)
        assert interp[1] is None
        assert interp == fast
        assert stats["bulk_iterations"] == BULK_ROWS - 1

    @pytest.mark.parametrize("rows", [0, 1, 2, 3])
    def test_short_trip_counts(self, rows):
        interp, _, _ = run_rows(False, rows=rows)
        fast, _, stats = run_rows(True, rows=rows)
        assert interp == fast
        assert stats["bulk_iterations"] == max(0, rows - 1)

    def test_hook_mid_loop_fires_at_interpreter_instruction(self):
        total = run_rows(False)[0][4]
        bulk = {}
        for at in (5, total // 2, total - 20):
            interp, seen_i, _ = run_rows(False, hook_at=at)
            fast, seen_f, stats = run_rows(True, hook_at=at)
            assert seen_i and seen_i == seen_f
            assert interp == fast
            bulk[at] = stats["bulk_iterations"]
        # the loop the hook lands in runs per row up to the hook, and
        # the rows after it run in bulk
        assert 0 < bulk[total // 2] < BULK_ROWS - 1

    def test_block_limit_mid_loop_raises_at_same_instruction(self):
        total = run_rows(False)[0][4]
        interp, _, _ = run_rows(False, block_limit=total // 2)
        fast, _, stats = run_rows(True, block_limit=total // 2)
        assert interp[0] is HangDetected
        assert interp == fast
        assert stats["bulk_iterations"] == 0

    def test_row_leaving_its_segment_faults_like_the_interpreter(self):
        image, _ = row_image()
        end = image.heap_segment.end
        assert not image.address_space.is_mapped(end)
        src = end - 3 * 64  # row 3 leaves the segment
        interp, _, _ = run_rows(False, src=src)
        fast, _, stats = run_rows(True, src=src)
        assert interp[0] is SimSegfault
        assert interp == fast
        assert stats["bulk_iterations"] == 0

    def test_unaligned_rows_fault_like_the_interpreter(self):
        src = lambda im: im.addr_of("a") + 4  # noqa: E731
        rows = BULK_ROWS - 1  # every row stays inside ``a``
        interp, _, _ = run_rows(False, rows=rows, src=src)
        fast, _, stats = run_rows(True, rows=rows, src=src)
        assert interp[0] is SimBusError
        assert interp == fast
        assert stats["bulk_iterations"] == 0

    @pytest.mark.parametrize("in_place", [False, True])
    def test_descending_rows(self, in_place):
        # rows run last to first (a negative stride): dst[i] = src[i] +
        # src[i+1]; in place, row i reads row i+1 written just before
        source = """
    push ebp
    mov ebp, esp
    load eax, [ebp+16]
    addi eax, -1
loop:
    cmpi eax, 0
    jl done
    mov esi, eax
    movi ecx, 64
    imul esi, ecx
    mov edi, esi
    load edx, [ebp+8]
    add esi, edx
    load edx, [ebp+12]
    add edi, edx
    movi ecx, 8
    lea edx, [esi+64]
    vbin.add edi, esi, edx, ecx
    addi eax, -1
    jmp loop
done:
    mov esp, ebp
    pop ebp
    ret
"""
        dst = (lambda im: im.addr_of("a")) if in_place else None
        rows = BULK_ROWS - 1
        interp, _, _ = run_rows(False, source, rows=rows, dst=dst)
        fast, _, stats = run_rows(True, source, rows=rows, dst=dst)
        assert interp[1] is None
        assert interp == fast
        assert stats["bulk_iterations"] == (0 if in_place else rows - 1)

    @pytest.mark.parametrize("offset", [64, -64, 8, -8, 0])
    def test_aliased_rows(self, offset):
        # dst = src + offset: a whole row or one element apart, each row
        # written is read by a neighbouring iteration; offset 0 is an
        # in-place update, independent across rows
        source = row_kernel("vbin.add edi, edi, esi, ecx")
        dst = lambda im: im.addr_of("a") + 64 + offset  # noqa: E731
        src = lambda im: im.addr_of("a") + 64  # noqa: E731
        interp, _, _ = run_rows(False, source, src=src, dst=dst)
        fast, _, stats = run_rows(True, source, src=src, dst=dst)
        assert interp[1] is None
        assert interp == fast
        assert (stats["bulk_iterations"] > 0) == (offset == 0)

    def test_fixed_input_inside_written_rows_declines(self):
        # ebx (a fixed vector read every iteration) lies in dst's row 3
        source = row_kernel("vbin.add edi, edi, ebx, ecx")
        scratch = lambda im: im.addr_of("b") + 3 * 64 + 16  # noqa: E731
        interp, _, _ = run_rows(False, source, scratch=scratch)
        fast, _, stats = run_rows(True, source, scratch=scratch)
        assert interp == fast
        # declined until the rows left to run no longer meet it
        assert stats["bulk_iterations"] < BULK_ROWS - 1

    def test_scalar_load_inside_written_rows_declines(self):
        # dst's row 2 overwrites the constant each iteration loads
        source = row_kernel(
            "movi edx, $coef\nfld [edx]\nvbins.mul edi, esi, ecx\nfpop"
        )
        dst = lambda im: im.addr_of("coef") - 2 * 64  # noqa: E731
        interp, _, _ = run_rows(False, source, dst=dst)
        fast, _, stats = run_rows(True, source, dst=dst)
        assert interp == fast
        assert stats["bulk_iterations"] < BULK_ROWS - 1
        clean, _, stats = run_rows(True, source)
        assert stats["bulk_iterations"] == BULK_ROWS - 1

    def test_fpu_push_onto_occupied_slot_declines(self):
        # eight pushes wrap onto the slot read as ST0 first, which a
        # corrupted tag word marks valid although the stack is empty:
        # the first iteration reads it, later ones find it emptied
        source = row_kernel(
            "vbins.mul edi, esi, ecx\n" + "fldimm 1\n" * 8 + "fpop\n" * 8,
            resident=False,
        )
        interp, _, _ = run_rows(False, source, twd=0xFFFC)
        fast, _, stats = run_rows(True, source, twd=0xFFFC)
        assert interp == fast
        # the first iteration empties the slot; the rest run in bulk
        assert stats["bulk_iterations"] == BULK_ROWS - 2
        _, _, stats = run_rows(True, source)
        assert stats["bulk_iterations"] == BULK_ROWS - 1

    def test_stats_account_every_instruction(self):
        total = run_rows(False)[0][4]
        obs, _, stats = run_rows(True, hook_at=total // 2)
        assert stats["bulk_iterations"] > 0
        assert stats["horizon_insns"] > 0
        assert (
            stats["translated_insns"]
            + stats["interpreted_insns"]
            + stats["horizon_insns"]
            == obs[5]  # instructions_retired
        )


def test_exec_table_covers_every_opcode():
    assert set(ops.EXEC) == set(Op)
