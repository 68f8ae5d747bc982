"""Counted vector loops: recognized once at compile time, run in bulk.

A *counted vector loop* is a two-block natural loop -- a head block
ending in the exit test and a straight-line body ending in the jump back
-- whose body applies vector instructions to addresses that advance by a
fixed stride each iteration.  Wavetoy's row sweep (``wt_step``) and
climate's ``cam_physics``/``cam_dynamics`` are the shipped examples.

**Planning** (:func:`plan_loop`, once per function digest) evaluates one
iteration symbolically.  Every integer value is a linear form, modulo
2**32, over *atoms*: a register's value at the loop head, a 32-bit load
from a loop-invariant address, or an opaque value (anything nonlinear).
Each register is then classified as

* **invariant** -- unchanged by an iteration;
* **induction** -- advanced by a constant or by an invariant each
  iteration; or
* **temporary** -- written before it is read, so its head value is dead.

Vector operands become *streams* ``(address, length)`` whose address
moves by a stride derived from the induction steps.  A stream at a fixed
address that an iteration writes before reading (wavetoy's ``scratch``)
is *privatized*: the bulk gives each iteration its own row of a fresh
array.  The exit compare gives the trip count in closed form.  A loop is
refused, with a stated reason, for a ``VRED`` (its summation order
depends on the array shape), any instruction outside the accepted set,
an internal branch, a register read before it is written, a non-affine
address, or a dependence the planner can prove: a row recurrence, or a
store into a slot the loop loads (such as the trip bound).

**Running** (:meth:`VectorLoop.run`, at the head, from live registers
and memory) applies all but the last remaining iteration as one strided
2-D NumPy operation per vector instruction, in program order.  It runs
only when every check holds, and otherwise returns 0 so the ordinary
unit runs from the same state:

* at least two iterations remain, and the counter cannot wrap;
* every access of every remaining iteration lies in one mapped segment
  with the permission the interpreter checks, and vector rows are
  8-byte aligned, so the loop cannot fault before it exits;
* no write in one iteration overlaps any access of another iteration,
  privatized streams and scalar stores overlap nothing else, and the
  scalar loads are disjoint from every write;
* the FPU pushes of one iteration land on empty slots and the stack
  depth cannot saturate, so one iteration's FPU effect is idempotent;
* the cost of every remaining iteration fits the unit budget, so no
  hook fires and no hang is declared before the loop has finished.

The bulk itself retires no instruction through the interpreter and
cannot raise.  It applies the FPU sequence of one iteration once (the
effect of any number of iterations), computes the counters of the bulk
iterations in closed form -- register access counts, block clock,
retirement, segment versions, induction registers -- and leaves every
other piece of state to the real last iteration, which runs through the
ordinary units: the final temporaries, flags, FPU slots, tag word and
status word, the last pushed stack words and the privatized stream's
memory.  Vector results keep the per-element operation sequence
(``VAXPY`` is ``add(a, s*b)``: two roundings, no fused multiply-add).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.cpu import ops
from repro.cpu.fpu import FPU, TagValue
from repro.cpu.isa import Insn, Op, VecOp
from repro.cpu.registers import ESP, RegisterFile
from repro.errors import SimSegfault

_M = 0xFFFF_FFFF
_R, _W = 1, 2

#: Element-wise sub-opcodes a loop may use.  MIN/MAX are excluded: the
#: sign of a zero result of two equal zeros is left to the NumPy kernel.
_BULK_SUBOPS = frozenset(
    int(v) for v in (VecOp.ADD, VecOp.SUB, VecOp.MUL, VecOp.DIV)
)

_COND = frozenset({Op.JZ, Op.JNZ, Op.JL, Op.JGE, Op.JG, Op.JLE})

#: Most elements one bulk vector instruction may touch; larger bulks
#: decline rather than allocate a large temporary.
MAX_BULK_ELEMENTS = 1 << 21

#: Exit predicates on the compare difference d = S(x) - S(y), per branch
#: opcode: the branch is taken iff the predicate holds.
_TAKEN = {
    Op.JZ: "eq",
    Op.JNZ: "ne",
    Op.JL: "lt",
    Op.JGE: "ge",
    Op.JG: "gt",
    Op.JLE: "le",
}
_NEGATE = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "gt": "le", "le": "gt"}


class Refused(Exception):
    """The loop is not a counted vector loop; ``args[0]`` says why."""


# ----------------------------------------------------------------------
# linear forms over atoms, modulo 2**32
# ----------------------------------------------------------------------
# A form is a dict {atom: coefficient}; the constant term's atom is ().
# Atoms: ("r", k) register k at the head, ("m", form) a 32-bit load from
# an address form (frozen), ("x", n) an opaque value.
def _const(c: int) -> dict:
    c &= _M
    return {(): c} if c else {}


def _add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for atom, c in b.items():
        v = (out.get(atom, 0) + sign * c) & _M
        if v:
            out[atom] = v
        else:
            out.pop(atom, None)
    return out


def _scale(a: dict, c: int) -> dict:
    out = {}
    for atom, v in a.items():
        v = (v * c) & _M
        if v:
            out[atom] = v
    return out


def _frozen(a: dict) -> tuple:
    return tuple(sorted(a.items()))


def _const_value(a: dict) -> int | None:
    if not a:
        return 0
    if len(a) == 1 and () in a:
        return a[()]
    return None


def _signed(v: int) -> int:
    return v - 0x1_0000_0000 if v & 0x8000_0000 else v


# ----------------------------------------------------------------------
# symbolic evaluation of one iteration
# ----------------------------------------------------------------------
class _Iteration:
    """Symbolic machine state over one iteration (head then body)."""

    def __init__(self) -> None:
        self.regs = [{("r", k): 1} for k in range(8)]
        self._opaque = count()
        #: Opaque atom -> head registers its value depends on.
        self.opaque_deps: dict[tuple, frozenset] = {}
        #: Frozen address -> value form of this iteration's u32 stores.
        self.stored: dict[tuple, dict] = {}
        #: Frozen addresses loaded before any store to them.
        self.loaded: set[tuple] = set()
        self.loads: list[tuple[dict, int]] = []  # (address, width)
        self.stores: list[tuple[dict, dict]] = []  # (address, value)
        #: (op, subop, dst, srcs, length, scalar index or None)
        self.vector: list[tuple] = []
        #: ("push", value spec) | ("pop",) | ("read",)
        self.fpu: list[tuple] = []
        self.fpu_depth = 0
        self.fpu_peak = 0
        self.n_reads = 0
        #: (x form, y form) of the last flag writer, or None when it was
        #: not a compare.
        self.compare: tuple[dict, dict] | None = None

    def opaque(self, *inputs: dict) -> dict:
        deps = set()
        for form in inputs:
            deps |= _head_regs(form, self.opaque_deps)
        atom = ("x", next(self._opaque))
        self.opaque_deps[atom] = frozenset(deps)
        return {atom: 1}

    def load(self, addr: dict) -> dict:
        key = _frozen(addr)
        value = self.stored.get(key)
        if value is not None:
            return value
        self.loaded.add(key)
        self.loads.append((addr, 4))
        return {("m", key): 1}

    def store(self, addr: dict, value: dict) -> None:
        key = _frozen(addr)
        if key in self.loaded:
            raise Refused("store into a slot the loop loads")
        self.stored[key] = value
        self.stores.append((addr, value))

    def push_fpu(self, spec: tuple) -> None:
        self.fpu.append(("push", spec))
        self.fpu_depth += 1
        self.fpu_peak = max(self.fpu_peak, self.fpu_depth)

    def read_fpu(self) -> int:
        self.fpu.append(("read",))
        self.n_reads += 1
        return self.n_reads - 1

    def step(self, i: Insn) -> None:
        op = i.op
        regs = self.regs
        k1, k2, k3, k4 = i.r1 & 7, i.r2 & 7, i.r3 & 7, i.r4 & 7
        if op is Op.NOP:
            return
        if op in ops.VECTOR_OPS:
            self._vector(i, k1, k2, k3, k4)
        elif op is Op.MOVI:
            regs[k1] = _const(i.imm)
        elif op is Op.MOV:
            regs[k1] = regs[k2]
        elif op is Op.LEA:
            regs[k1] = _add(regs[k2], _const(i.imm))
        elif op is Op.LOAD:
            regs[k1] = self.load(_add(regs[k2], _const(i.imm)))
        elif op is Op.STORE:
            self.store(_add(regs[k1], _const(i.imm)), regs[k2])
        elif op is Op.PUSH:
            value = regs[k1]
            regs[ESP] = _add(regs[ESP], _const(-4))
            self.store(regs[ESP], value)
        elif op is Op.POP:
            addr = regs[ESP]
            value = self.load(addr)
            regs[ESP] = _add(addr, _const(4))
            regs[k1] = value
        elif op in (Op.ADD, Op.SUB):
            regs[k1] = _add(regs[k1], regs[k2], 1 if op is Op.ADD else -1)
            self.compare = None
        elif op is Op.IMUL:
            a, b = regs[k1], regs[k2]
            ca, cb = _const_value(a), _const_value(b)
            if cb is not None:
                regs[k1] = _scale(a, cb)
            elif ca is not None:
                regs[k1] = _scale(b, ca)
            else:
                regs[k1] = self.opaque(a, b)
            self.compare = None
        elif op is Op.ADDI:
            regs[k1] = _add(regs[k1], _const(i.imm))
            self.compare = None
        elif op is Op.SHL:
            regs[k1] = _scale(regs[k1], 1 << (i.imm & 31))
            self.compare = None
        elif op is Op.NEG:
            regs[k1] = _scale(regs[k1], -1)
            self.compare = None
        elif op in (Op.SHR, Op.AND, Op.OR, Op.XOR):
            a, b = regs[k1], regs[k2]
            ca, cb = _const_value(a), _const_value(b)
            if op is Op.SHR and ca is not None:
                regs[k1] = _const(ca >> (i.imm & 31))
            elif op is Op.XOR and k1 == k2:
                regs[k1] = {}
            elif op is not Op.SHR and ca is not None and cb is not None:
                fold = {Op.AND: ca & cb, Op.OR: ca | cb, Op.XOR: ca ^ cb}
                regs[k1] = _const(fold[op])
            else:
                regs[k1] = self.opaque(a) if op is Op.SHR else self.opaque(a, b)
            self.compare = None
        elif op is Op.CMP:
            self.compare = (regs[k1], regs[k2])
        elif op is Op.CMPI:
            self.compare = (regs[k1], {(): i.imm})
        elif op is Op.FLD:
            addr = _add(regs[k1], _const(i.imm))
            if _frozen(addr) in self.stored:
                raise Refused("FPU load of a slot the loop stores")
            self.loaded.add(_frozen(addr))
            self.loads.append((addr, 8))
            self.push_fpu(("mem", addr))
        elif op is Op.FLDZ:
            self.push_fpu(("const", 0.0))
        elif op is Op.FLD1:
            self.push_fpu(("const", 1.0))
        elif op is Op.FLDIMM:
            self.push_fpu(("const", float(i.imm)))
        elif op is Op.FPOP:
            if self.fpu_depth == 0:
                raise Refused("FPU pop of a value the loop did not push")
            self.fpu.append(("pop",))
            self.fpu_depth -= 1
        else:
            raise Refused(f"{op.name} in the loop")

    def _vector(self, i: Insn, k1: int, k2: int, k3: int, k4: int) -> None:
        op = i.op
        regs = self.regs
        if op is Op.VRED:
            raise Refused("VRED: the summation order depends on the shape")
        if op in (Op.VBIN, Op.VBINS) and i.subop not in _BULK_SUBOPS:
            raise Refused(f"{op.name} sub-opcode {i.subop}")
        length = regs[ops.vector_len_reg(i)]
        if op is Op.VMOV:
            srcs = (regs[k2],)
        elif op is Op.VFILL:
            srcs = ()
        elif op is Op.VBINS:
            srcs = (regs[k2],)
        else:  # VBIN, VAXPY
            srcs = (regs[k2], regs[k3])
        scalar = self.read_fpu() if op in (Op.VFILL, Op.VBINS, Op.VAXPY) else None
        self.vector.append((op, i.subop, regs[k1], srcs, length, scalar))


def _head_regs(form: dict, opaque_deps: dict) -> set:
    """Head registers a form reads, through loads and opaque values."""
    out = set()
    for atom in form:
        if not atom:
            continue
        if atom[0] == "r":
            out.add(atom[1])
        elif atom[0] == "m":
            out |= _head_regs(dict(atom[1]), opaque_deps)
        else:
            out |= opaque_deps[atom]
    return out


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
#: A compiled linear form: ((coefficient, kind, index), ...) with kind 0
#: the constant, 1 a head register, 2 an invariant load.
_Terms = tuple


@dataclass(frozen=True)
class Stream:
    """One vector operand run: ``length`` elements at ``addr``, moving
    by ``stride`` bytes per iteration."""

    addr: _Terms
    stride: _Terms
    length: _Terms
    read: bool
    written: bool
    private: bool


@dataclass(frozen=True)
class LoopPlan:
    """A recognized counted vector loop of one function."""

    #: Instruction index of the loop head.
    head: int
    #: Instructions per iteration (head and body, branches included).
    insns: int
    #: Scalar instructions per iteration (block cost 1 each).
    scalars: int
    #: Per-iteration register read/write counts.
    reads: tuple[int, ...]
    writes: tuple[int, ...]
    #: Address terms of the invariant 32-bit loads, in evaluation order
    #: (a load's address refers only to registers and earlier loads).
    load_atoms: tuple[_Terms, ...]
    #: Leading load atoms the exit compare needs.
    trip_loads: int
    #: (x, x stride, y, y stride, exit predicate on S(x) - S(y)).
    exit: tuple
    #: (address, width) of every scalar load and every store.
    loads: tuple[tuple[_Terms, int], ...]
    stores: tuple[_Terms, ...]
    streams: tuple[Stream, ...]
    #: (op, ufunc or None, dst stream, src streams, scalar index).
    vector: tuple[tuple, ...]
    #: Per vector instruction, its length terms (block cost).
    lengths: tuple[_Terms, ...]
    #: ("push", value) with value a float or address terms | ("pop",) |
    #: ("read",), in program order.
    fpu: tuple[tuple, ...]
    fpu_peak: int
    #: (register, step terms) of each induction register.
    induction: tuple[tuple[int, _Terms], ...]


def plan_loop(insns, cfg, header: int, tail: int, body: frozenset) -> LoopPlan:
    """Plan the natural loop ``tail -> header``; raises :class:`Refused`
    with the reason when it is not a counted vector loop."""
    blocks = cfg.blocks
    head, tail_block = blocks[header], blocks[tail]
    branch = insns[head.end - 1]
    jump = insns[tail_block.end - 1]
    if (
        body != {header, tail}
        or header == tail
        or branch.op not in _COND
        or jump.op is not Op.JMP
        or len(head.succs) != 2
        or tail_block.preds != [header]
        or tail_block.succs != [header]
    ):
        raise Refused("not a head block plus one straight-line body")
    # the fall-through successor is listed after the branch target
    exits_when_taken = head.succs[1] == tail
    predicate = _TAKEN[branch.op]
    if not exits_when_taken:
        predicate = _NEGATE[predicate]

    seq = list(insns[head.start : head.end - 1]) + list(
        insns[tail_block.start : tail_block.end - 1]
    )
    full = list(insns[head.start : head.end]) + list(
        insns[tail_block.start : tail_block.end]
    )
    it = _Iteration()
    n_head = head.end - 1 - head.start
    compare = None
    for j, insn in enumerate(seq):
        if insn.op in (Op.JMP, *_COND, Op.CALL, Op.CALLR, Op.RET, Op.HLT):
            raise Refused("branch inside the loop")
        it.step(insn)
        if j == n_head - 1:
            compare = it.compare
    if not it.vector:
        raise Refused("no vector instruction")
    if compare is None:
        raise Refused("exit test is not a compare in the head block")
    if it.fpu_depth:
        raise Refused("unbalanced FPU pushes")

    # -- classify registers
    final = it.regs
    invariant = {k for k in range(8) if final[k] == {("r", k): 1}}

    def invariant_atom(atom) -> bool:
        if not atom:
            return True
        if atom[0] == "r":
            return atom[1] in invariant
        if atom[0] == "m":
            return all(invariant_atom(a) for a, _ in atom[1])
        return False

    steps = {}
    for k in range(8):
        if k not in invariant:
            delta = _add(final[k], {("r", k): 1}, -1)
            if all(invariant_atom(a) for a in delta):
                steps[k] = delta
    temps = set(range(8)) - invariant - set(steps)

    used = [form for form in final]
    used += [addr for addr, _ in it.loads]
    for addr, value in it.stores:
        used += [addr, value]
    for _op, _sub, dst, srcs, length, _s in it.vector:
        used += [dst, *srcs, length]
    used += list(compare)
    for form in used:
        if _head_regs(form, it.opaque_deps) & temps:
            raise Refused("register read before it is written")

    def affine(form, what: str) -> None:
        for atom in form:
            if not invariant_atom(atom) and not (
                atom[0] == "r" and atom[1] in steps
            ):
                raise Refused(f"non-affine {what}")

    def stride_of(form: dict) -> dict:
        stride: dict = {}
        for atom, c in form.items():
            if atom and atom[0] == "r" and atom[1] in steps:
                stride = _add(stride, _scale(steps[atom[1]], c))
        return stride

    for addr, _w in it.loads:
        if not all(invariant_atom(a) for a in addr):
            raise Refused("scalar load from a moving address")
    for addr, _v in it.stores:
        if not all(invariant_atom(a) for a in addr):
            raise Refused("scalar store to a moving address")
    for form in compare:
        affine(form, "exit compare")

    # -- streams
    keys: dict[tuple, int] = {}
    info: list[dict] = []
    vector = []
    for op, subop, dst, srcs, length, scalar in it.vector:
        if not all(invariant_atom(a) for a in length):
            raise Refused("vector length varies across iterations")
        ids = []
        for form, written in [(s, False) for s in srcs] + [(dst, True)]:
            affine(form, "vector address")
            key = (_frozen(form), _frozen(length))
            if key not in keys:
                keys[key] = len(info)
                info.append(
                    {"addr": form, "length": length, "stride": stride_of(form),
                     "read": False, "written": False, "first_write": written}
                )
            sid = keys[key]
            info[sid]["written" if written else "read"] = True
            ids.append(sid)
        ufunc = ops.VBIN_UFUNC[subop] if op in (Op.VBIN, Op.VBINS) else None
        vector.append((op, ufunc, ids[-1], tuple(ids[:-1]), scalar))
    for s in info:
        s["private"] = s["written"] and not s["stride"]
        if s["private"] and not s["first_write"]:
            raise Refused("loop-carried dependence through a fixed vector")
    _static_dependences(info)

    # -- compile forms to terms
    atoms: list[tuple] = []

    def terms(form: dict) -> _Terms:
        out = []
        for atom, c in sorted(form.items()):
            if not atom:
                out.append((c, 0, 0))
            elif atom[0] == "r":
                out.append((c, 1, atom[1]))
            else:
                out.append((c, 2, atom_index(atom)))
        return tuple(out)

    def atom_index(atom) -> int:
        if atom not in atoms:
            terms(dict(atom[1]))  # its address's atoms come first
            atoms.append(atom)
        return atoms.index(atom)

    x, y = compare
    exit_ = (
        terms(x), terms(stride_of(x)), terms(y), terms(stride_of(y)), predicate
    )
    trip_loads = len(atoms)
    loads = tuple((terms(a), w) for a, w in it.loads)
    stores = tuple(terms(a) for a, _ in it.stores)
    streams = tuple(
        Stream(terms(s["addr"]), terms(s["stride"]), terms(s["length"]),
               s["read"], s["written"], s["private"])
        for s in info
    )
    lengths = tuple(terms(v[4]) for v in it.vector)
    fpu = tuple(
        ("push", terms(a[1][1]) if a[1][0] == "mem" else a[1][1])
        if a[0] == "push" else a
        for a in it.fpu
    )
    induction = tuple((k, terms(steps[k])) for k in sorted(steps))
    load_atoms = tuple(terms(dict(a[1])) for a in atoms)
    reads, writes = _register_counts(full)
    return LoopPlan(
        head=head.start,
        insns=len(full),
        scalars=len(full) - len(it.vector),
        reads=reads,
        writes=writes,
        load_atoms=load_atoms,
        trip_loads=trip_loads,
        exit=exit_,
        loads=loads,
        stores=stores,
        streams=streams,
        vector=tuple(vector),
        lengths=lengths,
        fpu=fpu,
        fpu_peak=it.fpu_peak,
        induction=induction,
    )


def _static_dependences(info: list[dict]) -> None:
    """Refuse dependences visible in the code itself: two streams with
    one constant stride whose constant offset is a nonzero multiple of
    it touch the same element in two different iterations."""
    for a, sa in enumerate(info):
        for b in range(a, len(info)):
            sb = info[b]
            if not (sa["written"] or sb["written"]):
                continue
            if _frozen(sa["stride"]) != _frozen(sb["stride"]):
                continue
            stride = _const_value(sa["stride"])
            offset = _const_value(_add(sb["addr"], sa["addr"], -1))
            if stride is None or offset is None or not stride:
                continue
            stride, offset = _signed(stride), _signed(offset)
            if offset and offset % stride == 0:
                raise Refused("loop-carried dependence between rows")


def _register_counts(full) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Register reads and writes of one iteration, measured by running
    the interpreter's own opcode functions (:data:`ops.EXEC`) against a
    probe whose memory reads zero and whose vectors are empty."""
    from repro.cpu.vm import VM

    class _Space:
        def load_u32(self, addr):
            return 0

        def store_u32(self, addr, value):
            pass

        def load_f64(self, addr):
            return 0.0

        def vector_f64(self, addr, n, write=False):
            return np.zeros(0)

    class _Probe:
        _push_u32 = VM._push_u32
        _pop_u32 = VM._pop_u32

        def __init__(self):
            self.regs = RegisterFile()
            self.fpu = FPU()
            self.space = _Space()

    probe = _Probe()
    with np.errstate(all="ignore"):
        for insn in full:
            ops.EXEC[insn.op](probe, insn)
    return tuple(probe.regs.read_count), tuple(probe.regs.write_count)


def plan_loops(insns, cfg) -> tuple[list[LoopPlan], list[tuple[int, str]]]:
    """Every counted vector loop of a function, plus ``(head index,
    reason)`` for each natural loop refused."""
    plans, refused = [], []
    loops = cfg.natural_loops()
    heads = [header for header, _, _ in loops]
    for header, tail, body in loops:
        try:
            if heads.count(header) > 1:
                raise Refused("more than one back edge")
            plans.append(plan_loop(insns, cfg, header, tail, body))
        except Refused as exc:
            refused.append((cfg.blocks[header].start, exc.args[0]))
    return plans, refused


# ----------------------------------------------------------------------
# the run-time entry
# ----------------------------------------------------------------------
def _source(terms: _Terms) -> str:
    parts = [
        str(c) if kind == 0 else f"{c}*{'rr' if kind == 1 else 'env'}[{i}]"
        for c, kind, i in terms
    ]
    return f"({' + '.join(parts) or '0'}) & {_M}"


def _compile(forms) -> object:
    """One function ``(rr, env) -> tuple`` evaluating compiled forms."""
    body = "".join(_source(t) + ", " for t in forms)
    return eval(f"lambda rr, env: ({body})")  # noqa: S307 - generated


def _first_exit(predicate: str, d: int, t: int) -> int | None:
    """Least i >= 0 with ``predicate(d + i*t)``; None when there is none."""
    if predicate in ("eq", "ne"):
        if (d == 0) == (predicate == "eq"):
            return 0
        if t == 0:
            return None
        if predicate == "ne":
            return 1
        q, r = divmod(-d, t)
        return q if r == 0 and q > 0 else None
    # gt: d > 0, ge: d > -1, lt: -d > 0, le: -d > -1
    sign = 1 if predicate in ("gt", "ge") else -1
    floor = 0 if predicate in ("gt", "lt") else -1
    e, u = sign * d, sign * t
    if e > floor:
        return 0
    if u <= 0:
        return None
    return (floor - e) // u + 1


def _segment(space, lo: int, hi: int, want: int):
    """The segment holding ``[lo, hi)`` with permission ``want``, or
    None.  An empty range must lie strictly inside, so that no adjacent
    segment could be the interpreter's pick."""
    if lo < 0 or hi > 0x1_0000_0000:
        return None
    try:
        seg = space.find(lo, hi - lo)
    except SimSegfault:
        return None
    if seg.perm_mask & want != want:
        return None
    if hi == lo and not seg.base < lo < seg.base + seg.size:
        return None
    return seg


def _disjoint(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[1] <= a[0] or b[1] <= b[0] or a[1] <= b[0] or b[1] <= a[0]


def _rows_meet(d: int, s: int, lx: int, ly: int, rows: int) -> bool:
    """Whether row i of X and row j != i of Y (``rows`` rows, stride
    ``s``, ``Y - X = d`` at row 0) overlap: some m = j - i != 0 in
    (-rows, rows) with -ly < d + m*s < lx."""
    if lx <= 0 or ly <= 0:
        return False
    s = abs(s)  # m ranges symmetrically about 0
    lo = max((-ly - d) // s + 1, 1 - rows)
    hi = min(-((d - lx) // s) - 1, rows - 1)
    return lo <= hi and not lo == hi == 0


class VectorLoop:
    """The bulk entry of one planned loop: the plan with its forms
    compiled to Python functions."""

    __slots__ = (
        "plan", "insns", "_atoms", "_exit", "_values", "_loads",
        "_stores", "_store_count", "_pairs", "_private", "_scalar_pairs",
        "_fpu",
    )

    def __init__(self, plan: LoopPlan) -> None:
        self.plan = plan
        self.insns = plan.insns
        self._atoms = [_compile([t]) for t in plan.load_atoms]
        self._exit = _compile(plan.exit[:4])
        #: the FPU sequence, with FLD addresses compiled
        self._fpu = [
            (a[0], _compile([a[1]]) if isinstance(a[1], tuple) else a[1])
            if a[0] == "push" else a
            for a in plan.fpu
        ]
        loads = sorted(set(plan.loads))
        stores = sorted(set(plan.stores))
        self._loads = [w for _t, w in loads]
        self._stores = stores
        self._store_count = [plan.stores.count(t) for t in stores]
        self._values = _compile(
            list(plan.lengths)
            + [t for s in plan.streams for t in (s.addr, s.stride, s.length)]
            + [t for t, _w in loads]
            + stores
            + [t for _k, t in plan.induction]
        )
        streams = plan.streams
        #: stream pairs a write could make dependent, privatized ones
        #: apart (they must overlap nothing at all)
        self._private = [a for a, st in enumerate(streams) if st.private]
        self._pairs = [
            (a, b)
            for a in range(len(streams))
            for b in range(a + 1, len(streams))
            if (streams[a].written or streams[b].written)
            and not (streams[a].private or streams[b].private)
        ]
        #: (stream, scalar) pairs: a store against every stream, a load
        #: against written ones; scalar indices count loads then stores
        self._scalar_pairs = [
            (a, j)
            for a, st in enumerate(streams)
            for j in range(len(loads) + len(stores))
            if j >= len(loads) or st.written
        ]

    def run(self, vm, rr, rc, wc, space, fpu, clock, budget) -> int:
        """Apply all but the last remaining iteration; returns how many
        ran (0 when a check declined and nothing changed)."""
        p = self.plan
        env: list[int] = []
        trip = None
        for j, f in enumerate(self._atoms):
            if j == p.trip_loads:
                trip = self._trip(rr, env)
                if trip is None:
                    return 0
            (addr,) = f(rr, env)
            if _segment(space, addr, addr + 4, _R) is None:
                return 0
            env.append(space.load_u32(addr))
        if trip is None:
            trip = self._trip(rr, env)
            if trip is None:
                return 0
        bulk = trip - 1

        values = self._values(rr, env)
        nv = len(p.lengths)
        lengths = values[:nv]
        cost = p.scalars + sum(n >> 3 or 1 for n in lengths)
        if trip * cost > budget or bulk * max(lengths) > MAX_BULK_ELEMENTS:
            return 0
        if fpu.depth + p.fpu_peak > 8:
            return 0
        twd, top = fpu.twd, fpu.top
        for j in range(1, p.fpu_peak + 1):
            if (twd >> (2 * ((top - j) & 7))) & 3 != TagValue.EMPTY:
                return 0

        # -- every access of every remaining iteration
        spans = []  # (lo, hi) of each stream over all remaining rows
        rows = []  # (segment, base, stride, n) of each stream
        pos = nv
        for st in p.streams:
            base, stride, n = values[pos : pos + 3]
            stride = _signed(stride)
            pos += 3
            last = base + (trip - 1) * stride
            lo, hi = (base, last) if stride >= 0 else (last, base)
            hi += 8 * n
            want = (_R if st.read else 0) | (_W if st.written else 0)
            seg = _segment(space, lo, hi, want)
            if seg is None or (base - seg.base) % 8 or stride % 8:
                return 0
            if st.written and n and abs(stride) < 8 * n and not st.private:
                return 0  # its own rows overlap
            spans.append((lo, hi))
            rows.append((seg, base, stride, n))
        scalars = []
        for width in self._loads:
            addr = values[pos]
            pos += 1
            if _segment(space, addr, addr + width, _R) is None:
                return 0
            scalars.append((addr, addr + width))
        stored = []
        for _t in self._stores:
            addr = values[pos]
            pos += 1
            seg = _segment(space, addr, addr + 4, _W)
            if seg is None:
                return 0
            stored.append(seg)
            scalars.append((addr, addr + 4))
        if not self._independent(spans, rows, scalars, trip):
            return 0

        # -- run: one iteration's FPU sequence, then each vector insn
        scalar_values = []
        with np.errstate(all="ignore"):
            for action in self._fpu:
                kind = action[0]
                if kind == "push":
                    v = action[1]
                    if v.__class__ is not float:  # an FLD: its address
                        v = space.load_f64(v(rr, env)[0])
                    fpu.push(v)
                elif kind == "pop":
                    fpu.pop()
                else:
                    scalar_values.append(fpu.to_double(fpu.read_st(0)))
            views = []
            for st, (seg, base, stride, n) in zip(p.streams, rows):
                if st.private:
                    views.append(np.empty((bulk, n)))
                else:
                    views.append(
                        np.ndarray(
                            (bulk, n), np.float64, seg.buf, base - seg.base,
                            (stride, 8),
                        )
                    )
            for op, ufunc, dst, srcs, scalar in p.vector:
                out = views[dst]
                if op is Op.VMOV:
                    np.copyto(out, views[srcs[0]])
                elif op is Op.VFILL:
                    out.fill(scalar_values[scalar])
                elif op is Op.VBIN:
                    ufunc(views[srcs[0]], views[srcs[1]], out=out)
                elif op is Op.VBINS:
                    ufunc(views[srcs[0]], scalar_values[scalar], out=out)
                else:  # VAXPY
                    np.add(
                        views[srcs[0]], scalar_values[scalar] * views[srcs[1]],
                        out=out,
                    )

        # -- closed-form counters of the bulk iterations
        for k in range(8):
            rc[k] += bulk * p.reads[k]
            wc[k] += bulk * p.writes[k]
        for (k, _t), step in zip(p.induction, values[pos:]):
            rr[k] = (rr[k] + bulk * step) & _M
        for seg, n in zip(stored, self._store_count):
            seg.version += bulk * n
        vm.instructions_retired += bulk * p.insns
        clock.blocks += bulk * cost
        return bulk

    def _trip(self, rr, env) -> int | None:
        """Remaining iterations (at least 2), or None."""
        x0, tx, y0, ty = map(_signed, self._exit(rr, env))
        trip = _first_exit(self.plan.exit[4], x0 - y0, tx - ty)
        if trip is None or trip < 2:
            return None
        for v0, t in ((x0, tx), (y0, ty)):
            if not -0x8000_0000 <= v0 + trip * t <= 0x7FFF_FFFF:
                return None
        return trip

    def _independent(self, spans, rows, scalars, trip) -> bool:
        """No write of one iteration meets an access of another; no
        privatized stream or scalar store meets anything else; no
        scalar load meets a write.  ``scalars`` lists the load spans,
        then the store spans (one per distinct store address)."""
        for a in self._private:
            for b, span in enumerate(spans):
                if b != a and not _disjoint(spans[a], span):
                    return False
        for a, b in self._pairs:
            ta, tb = rows[a][2], rows[b][2]
            if ta == tb and ta:
                lx, ly = 8 * rows[a][3], 8 * rows[b][3]
                if _rows_meet(rows[b][1] - rows[a][1], ta, lx, ly, trip):
                    return False
            elif not _disjoint(spans[a], spans[b]):
                return False
        for a, j in self._scalar_pairs:
            if not _disjoint(spans[a], scalars[j]):
                return False
        first_store = len(self._loads)
        for i in range(first_store, len(scalars)):
            for j in range(len(scalars)):
                if j != i and not _disjoint(scalars[i], scalars[j]):
                    return False
        return True
