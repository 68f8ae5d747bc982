"""Translated closures are observationally equal to the interpreter.

Two properties pin the dual-mode engine (PR 8):

* **Shipped-kernel units.**  For every translation unit of every suite
  application's linked kernels, executing the unit's closure from a
  random register file (and randomly perturbed data segment) leaves
  registers, access counters, flags, memory, the block clock and the
  retirement counter bit-identical to stepping the interpreter over the
  same instructions - including the exception type when the random
  state makes the unit fault mid-way.

* **Random kernels end-to-end.**  Small randomized ALU/branch/memory
  programs produce identical final VM state whether ``vm.fastpath`` is
  set or not.

* **Counted vector loops in bulk.**  Every recognized loop of every
  shipped kernel, run from a captured head state that is then perturbed
  at random (trip counts, aliasing stream pointers, bad lengths and
  pointers, corrupted FPU constants, a hook inside the loop), leaves the
  same state on the fast path, whose bulk entry may run the loop as 2-D
  NumPy operations, as on the interpreter.

* **TEXT flips in whole jobs.**  A random bit flipped in a shipped
  application kernel at a random hook time gives a bit-identical job
  result and final VM state with ``vm.fastpath`` on and off, however
  the lazy dispatch table then meets the corrupted function (never,
  mid-flight, on a later call, or not at all because it no longer
  decodes).
"""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps import APPLICATION_SUITE
from repro.cpu import loops, translate
from repro.cpu.isa import INSN_SIZE, Op
from repro.cpu.registers import EBP
from repro.mpi.simulator import Job, JobConfig
from tests.conftest import build_image

_BIG_BUDGET = 1 << 62


def _build(app_name):
    app = APPLICATION_SUITE[app_name]()
    config = JobConfig(nprocs=2)
    image, vm = app.build_process(0, config.nprocs, config)
    vm.cf_checker = None  # compare pure execution semantics
    return image, vm


class _Harness:
    """An interpreter VM and a translated VM over identical images."""

    def __init__(self, app_name):
        self.image_i, self.vm_i = _build(app_name)
        self.image_f, self.vm_f = _build(app_name)
        # The VM's table is lazy; translate every symbol up front so
        # the sweep covers each unit of each shipped kernel.
        self.table = {}
        #: loop head address -> bulk entry
        self.loops = {}
        text = self.image_f.text
        for sym in self.image_f.symtab.symbols("text"):
            code = text.read_bytes(sym.addr, sym.size)
            translation = translate.translation_for(sym.name, code, sym.addr)
            self.table.update(translation)
            self.loops.update(translation.loops)
        self.baseline = [
            (seg.name, seg.buf.tobytes(), seg.version)
            for seg in self.vm_i.space.segments()
        ]
        self.fpu_state = self.vm_i.fpu.capture_state()

    def reset(self, regs, pokes, baseline=None):
        for vm in (self.vm_i, self.vm_f):
            for (name, raw, version), seg in zip(
                baseline or self.baseline, vm.space.segments()
            ):
                assert seg.name == name
                seg.buf[:] = np.frombuffer(raw, dtype=np.uint8)
                seg.version = version
            data = vm.space.segment("data")
            for off, byte in pokes:
                data.buf[off % data.size] = byte
            vm.regs.r[:] = regs
            vm.regs.read_count[:] = [0] * 8
            vm.regs.write_count[:] = [0] * 8
            vm.regs.zf = False
            vm.regs.sf = False
            vm.fpu.restore_state(self.fpu_state)
            vm.clock.restore(0)
            vm.instructions_retired = 0
            vm._hooks.clear()
            vm._next_hook = None
            vm.block_limit = None

    def observe(self, vm, exc):
        return (
            type(exc),
            exc.args if exc else None,
            vm.regs.capture_state(),
            vm.fpu.capture_state(),
            vm.clock.blocks,
            vm.instructions_retired,
            tuple(
                (s.name, s.buf.tobytes(), s.version)
                for s in vm.space.segments()
            ),
        )

    def run_unit(self, addr, n_insns):
        vm = self.vm_i
        vm.regs.eip = addr
        exc_i = None
        try:
            for _ in range(n_insns):
                vm.step()
        except Exception as e:  # noqa: BLE001 - compared below
            exc_i = e

        vm = self.vm_f
        vm.regs.eip = addr
        fn, n = self.table[addr]
        assert n == n_insns
        exc_f = None
        try:
            refused = fn(
                vm,
                vm.regs,
                vm.regs.r,
                vm.regs.read_count,
                vm.regs.write_count,
                vm.space,
                vm.fpu,
                vm.clock,
                _BIG_BUDGET,
            )
            assert not refused
        except Exception as e:  # noqa: BLE001 - compared below
            exc_f = e
        return self.observe(self.vm_i, exc_i), self.observe(
            self.vm_f, exc_f
        )


_HARNESSES: dict[str, _Harness] = {}
_UNITS: list[tuple[str, int, int]] = []
for _app in sorted(APPLICATION_SUITE):
    _h = _HARNESSES[_app] = _Harness(_app)
    for _addr, (_fn, _n) in sorted(_h.table.items()):
        _UNITS.append((_app, _addr, _n))


u32 = st.integers(0, 2**32 - 1)
pokes = st.lists(
    st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=8
)


@given(
    unit=st.sampled_from(_UNITS),
    regs=st.lists(u32, min_size=8, max_size=8),
    perturb=pokes,
)
@settings(max_examples=120, deadline=None)
def test_shipped_units_bit_identical(unit, regs, perturb):
    app, addr, n = unit
    harness = _HARNESSES[app]
    harness.reset(regs, perturb)
    interp, fast = harness.run_unit(addr, n)
    assert interp == fast


# ----------------------------------------------------------------------
# counted vector loops from perturbed head states
# ----------------------------------------------------------------------
class _HeadCapture:
    """Interpreter observer: the machine state at the first arrival at
    each loop head (the VM calls ``check`` after every instruction)."""

    def __init__(self, vm, heads):
        self.vm = vm
        self.heads = set(heads)
        self.states = {}

    def check(self, eip, insn, next_eip):
        if next_eip in self.heads and next_eip not in self.states:
            vm = self.vm
            self.states[next_eip] = (
                list(vm.regs.r),
                vm.fpu.capture_state(),
                [
                    (s.name, s.buf.tobytes(), 0)
                    for s in vm.space.segments()
                ],
            )


def _loop_cases():
    """(app, head address, head state, row bytes, FPU constant
    addresses) of every recognized loop of every shipped kernel."""
    cases = []
    for app_name in sorted(APPLICATION_SUITE):
        harness = _HARNESSES[app_name]
        if not harness.loops:
            continue
        job = Job(APPLICATION_SUITE[app_name](), JobConfig(nprocs=2))
        capture = _HeadCapture(job.vms[0], harness.loops)
        job.vms[0].cf_checker = capture
        assert job.run().completed
        for head, loop in sorted(harness.loops.items()):
            regs, fpu, segments = capture.states[head]
            plan = loop.plan
            # the first moving stream's stride at the head is one row
            memory = {name: raw for name, raw, _v in segments}
            env = []
            for terms in plan.load_atoms:
                (addr,) = loops._compile([terms])(regs, env)
                seg = harness.vm_i.space.find(addr, 4)
                off = addr - seg.base
                env.append(
                    int.from_bytes(memory[seg.name][off : off + 4], "little")
                )
            row = next(
                loops._signed(loops._compile([st_.stride])(regs, env)[0])
                for st_ in plan.streams
                if st_.stride
            )
            # FLD constants: the relocated address its base register is
            # loaded with earlier in the loop
            base = head - INSN_SIZE * plan.head
            code = harness.image_f.text.read_bytes(
                base + INSN_SIZE * plan.head, INSN_SIZE * plan.insns
            )
            insns = translate.decode_stream(code)
            consts = []
            for j, insn in enumerate(insns):
                if insn.op is Op.FLD:
                    movi = [
                        p for p in insns[:j]
                        if p.op is Op.MOVI and p.r1 == insn.r1
                    ]
                    if movi:
                        consts.append((movi[-1].imm + insn.imm) & 0xFFFF_FFFF)
            cases.append((app_name, head, (regs, fpu, segments), row, consts))
    return cases


_LOOP_CASES = _loop_cases()
_LOOP_BLOCK_LIMIT = 20_000


@st.composite
def deltas(draw, row):
    kind = draw(st.sampled_from(["small", "element", "row", "huge"]))
    if kind == "small":
        return draw(st.integers(-4, 4))
    if kind == "element":
        return 8 * draw(st.integers(-8, 8))
    if kind == "row":
        return row * draw(st.integers(-3, 3)) + 8 * draw(st.integers(-1, 1))
    return draw(st.integers(0, 2**32 - 1))


@st.composite
def loop_examples(draw):
    case = draw(st.sampled_from(_LOOP_CASES))
    _app, _head, _state, row, consts = case
    perturbations = draw(
        st.lists(
            st.one_of(
                # an induction counter: trip counts from 0 to rows + 3
                st.tuples(st.just("reg"), st.sampled_from([0, 2]),
                          st.integers(-20, 20)),
                st.tuples(st.just("reg"), st.integers(0, 7), deltas(row)),
                # an argument slot moved, or aimed at another one's
                # stream (whole-row or single-element aliasing, scratch
                # inside a stream)
                st.tuples(st.just("arg"), st.integers(0, 5), deltas(row)),
                st.tuples(
                    st.just("alias"), st.integers(0, 5),
                    st.integers(0, 5), deltas(row),
                ),
                st.tuples(
                    st.just("const"), st.sampled_from(consts or [0]),
                    st.integers(0, 7), st.integers(0, 255),
                ),
                # FPU tags: an occupied slot where the loop pushes, or a
                # resident value read as zero, special or empty
                st.tuples(st.just("tags"), st.integers(0, 0xFFFF)),
            ),
            max_size=3,
        )
    )
    hook = draw(
        st.one_of(st.none(), st.integers(1, 400), st.integers(1, 4000))
    )
    return case, perturbations, hook


def _perturb(vm, perturbations):
    space, rr = vm.space, vm.regs.r
    frame = rr[EBP] + 8
    for p in perturbations:
        kind = p[0]
        if kind == "reg":
            rr[p[1]] = (rr[p[1]] + p[2]) & 0xFFFF_FFFF
        elif kind in ("arg", "alias"):
            slot = frame + 4 * p[1]
            src = slot if kind == "arg" else frame + 4 * p[2]
            value = space.find(src, 4).read_u32(src)
            seg = space.find(slot, 4)
            seg.write_u32(slot, (value + p[-1]) & 0xFFFF_FFFF)
            seg.version -= 1  # a debugger poke, not a program store
        elif kind == "tags":
            vm.fpu.twd = p[1]
        elif p[1]:
            seg = space.find(p[1], 8)
            seg.buf[p[1] + p[2] - seg.base] = p[3]


def test_bulk_loops_bit_identical():
    bulk_runs = []

    @given(example=loop_examples())
    @settings(max_examples=150, deadline=None)
    def bulk_equals_interpreter(example):
        (app, head, (regs, fpu, segments), _row, _c), perturbations, hook = example
        harness = _HARNESSES[app]
        harness.reset(regs, [], baseline=segments)
        out = []
        for vm, fastpath in ((harness.vm_i, False), (harness.vm_f, True)):
            vm.fpu.restore_state(fpu)
            _perturb(vm, perturbations)
            vm.fastpath = fastpath
            vm.block_limit = _LOOP_BLOCK_LIMIT
            seen = []
            if hook is not None:
                vm.schedule_hook(
                    hook,
                    lambda v: seen.append(
                        (v.clock.blocks, v.instructions_retired,
                         v.regs.capture_state(), v.fpu.capture_state())
                    ),
                )
            before = vm.fastpath_stats["bulk_iterations"]
            vm.regs.eip = head
            exc = None
            try:
                vm._run()
            except Exception as e:  # noqa: BLE001 - compared below
                exc = e
            out.append((harness.observe(vm, exc), seen))
        bulk_runs.append(vm.fastpath_stats["bulk_iterations"] > before)
        assert out[0] == out[1]

    bulk_equals_interpreter()
    # the property is not vacuous: the bulk entry ran in a good share
    # of the examples (its guard declines in the others)
    assert sum(bulk_runs) >= 0.3 * len(bulk_runs)


# ----------------------------------------------------------------------
# end-to-end over random kernels
# ----------------------------------------------------------------------
REGS = ("eax", "ebx", "ecx", "edx")
regs_s = st.sampled_from(REGS)
imms = st.one_of(
    st.integers(min_value=-64, max_value=64),
    st.integers(min_value=0, max_value=2**31 - 1),
)

alu = st.one_of(
    st.tuples(st.just("movi"), regs_s, st.integers(0, 2**31 - 1)),
    st.tuples(st.just("addi"), regs_s, imms),
    st.tuples(st.just("mov"), regs_s, regs_s),
    st.tuples(st.just("add"), regs_s, regs_s),
    st.tuples(st.just("sub"), regs_s, regs_s),
    st.tuples(st.just("imul"), regs_s, regs_s),
    st.tuples(st.just("xor"), regs_s, regs_s),
    st.tuples(st.just("idiv"), regs_s, regs_s),
    st.tuples(st.just("cmp"), regs_s, regs_s),
    st.tuples(st.just("neg"), regs_s, regs_s),
)


def render(insn) -> str:
    op, a, b = insn
    if op == "neg":
        return f"neg {a}"
    return f"{op} {a}, {b}"


@st.composite
def kernels(draw) -> str:
    lines = [render(i) for i in draw(st.lists(alu, max_size=10))]
    if draw(st.booleans()):
        lines.append("movi esi, $buf")
        lines.append(f"store [esi+{draw(st.integers(0, 15)) * 4}], "
                     f"{draw(regs_s)}")
        lines.append(f"load {draw(regs_s)}, [esi+{draw(st.integers(0, 15)) * 4}]")
    if draw(st.booleans()):
        lines.append(f"cmpi {draw(regs_s)}, {draw(st.integers(0, 4))}")
        lines.append("jz skip")
        lines += [render(i) for i in draw(st.lists(alu, min_size=1, max_size=4))]
        lines.append("skip: ret")
    else:
        lines.append("ret")
    return "\n".join(lines)


@given(source=kernels())
@settings(max_examples=60, deadline=None)
def test_random_kernels_end_to_end(source):
    out = []
    for fastpath in (False, True):
        image, vm = build_image({"f": source}, bss={"buf": 64})
        vm.fastpath = fastpath
        exc = None
        try:
            vm.call("f")
        except Exception as e:  # noqa: BLE001 - compared below
            exc = e
        out.append(
            (
                type(exc),
                exc.args if exc else None,
                vm.regs.capture_state(),
                vm.clock.blocks,
                vm.instructions_retired,
                tuple(
                    (s.name, s.buf.tobytes())
                    for s in vm.space.segments()
                ),
            )
        )
    assert out[0] == out[1]


# ----------------------------------------------------------------------
# TEXT flips through whole jobs
# ----------------------------------------------------------------------
_GOLDEN: dict[str, tuple[list[int], int]] = {}


def _golden(app_name):
    """Fault-free per-rank blocks and scheduler rounds of an app."""
    if app_name not in _GOLDEN:
        job = Job(APPLICATION_SUITE[app_name](), JobConfig(nprocs=2))
        result = job.run()
        assert result.completed
        _GOLDEN[app_name] = (result.blocks_per_rank, result.rounds)
    return _GOLDEN[app_name]


def _run_flipped_job(app_name, fastpath, rank, at, symbol, offset, bit):
    blocks, rounds = _golden(app_name)
    config = JobConfig(
        nprocs=2,
        fastpath=fastpath,
        block_limit=3 * max(blocks),
        round_limit=3 * rounds,
    )
    job = Job(APPLICATION_SUITE[app_name](), config)
    vm = job.vms[rank]
    addr = vm.image.addr_of(symbol) + offset
    vm.schedule_hook(at, lambda v: v.image.text.flip_bit(addr, bit))
    result = job.run()
    return (
        result.status,
        result.detail,
        result.stdout,
        # A Python traceback (an unhandled error) names the engine's own
        # call path, which is not part of the result.
        [line for line in result.stderr if not line.startswith("Traceback")],
        result.outputs,
        result.rounds,
        result.blocks_per_rank,
        type(result.error),
        result.error.args if result.error else None,
        result.faulting_rank,
        [
            (
                vm.regs.capture_state(),
                vm.fpu.capture_state(),
                vm.clock.blocks,
                vm.instructions_retired,
                tuple((s.name, s.buf.tobytes()) for s in vm.space.segments()),
            )
            for vm in job.vms
        ],
    )


@st.composite
def text_flips(draw):
    app_name = draw(st.sampled_from(sorted(APPLICATION_SUITE)))
    image = _HARNESSES[app_name].image_f
    # Sampling a kernel first (not a byte) reaches the small hot
    # kernels as often as the large startup and cold routines.
    sym = draw(
        st.sampled_from(
            [s for s in image.symtab.symbols("text", "user") if s.size]
        )
    )
    rank = draw(st.integers(0, 1))
    at = draw(st.integers(1, _golden(app_name)[0][rank]))
    offset = draw(st.integers(0, sym.size - 1))
    bit = draw(st.integers(0, 7))
    return app_name, rank, at, sym.name, offset, bit


@given(flip=text_flips())
@settings(max_examples=40, deadline=None)
def test_text_flip_fastpath_bit_identical(flip):
    app_name, *where = flip
    interp = _run_flipped_job(app_name, False, *where)
    assert interp == _run_flipped_job(app_name, True, *where)
