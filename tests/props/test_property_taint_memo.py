"""Memoized taint cones equal the from-scratch fixpoint on random kernels.

Random straight-line, branching and looping kernels with loads, stores,
x87 traffic and calls: for every register site and every memory seed,
a fresh analysis, a warm one queried in a shuffled order, and
:class:`~tests.staticanalysis.test_taint_memo.ReferenceTaint` (no
suffix summaries, no empty-block skip, no per-site memo) must agree.
"""

import random

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.staticanalysis.propagation.taint import TaintAnalysis
from tests.staticanalysis.test_taint_memo import ReferenceTaint, shape, sites

REGS = ("eax", "ebx", "ecx", "edx", "esi", "edi")
SEEDS = (
    frozenset({"sym:buf"}),
    frozenset({"heap"}),
    frozenset({"stack"}),
)

regs = st.sampled_from(REGS)
offsets = st.sampled_from((0, 4, 8))

plain = st.one_of(
    st.builds(lambda r, v: f"movi {r}, {v}", regs, st.integers(0, 64)),
    st.builds(lambda r: f"movi {r}, $buf", regs),
    st.builds(lambda r, v: f"addi {r}, {v}", regs, st.integers(-4, 4)),
    st.builds(
        lambda op, a, b: f"{op} {a}, {b}",
        st.sampled_from(("mov", "add", "sub", "imul", "xor", "cmp")),
        regs,
        regs,
    ),
    st.builds(lambda r, v: f"cmpi {r}, {v}", regs, st.integers(0, 4)),
    st.builds(lambda a, b, o: f"load {a}, [{b}+{o}]", regs, regs, offsets),
    st.builds(lambda a, o, b: f"store [{a}+{o}], {b}", regs, offsets, regs),
    st.builds(lambda r, o: f"fld [{r}+{o}]", regs, offsets),
    st.builds(lambda r, o: f"fstp [{r}+{o}]", regs, offsets),
    st.builds(lambda r: f"push {r}", regs),
    st.builds(lambda r: f"pop {r}", regs),
    st.just("call @helper"),
    st.builds(lambda r: f"callr {r}", regs),
)


@st.composite
def kernels(draw) -> str:
    n = draw(st.integers(min_value=1, max_value=14))
    body = []
    for _ in range(n):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            # Any target, backward ones included: loops, and with an
            # unconditional jump, unreachable code and endless loops.
            op = draw(st.sampled_from(("jz", "jnz", "jl", "jmp")))
            body.append(f"{op} L{draw(st.integers(0, n))}")
        elif kind == 1:
            body.append("ret")
        else:
            body.append(draw(plain))
    body.append("ret")
    return "\n".join(f"L{i}: {line}" for i, line in enumerate(body))


#: A looping seed block whose prefix taints ebx only transiently: the
#: cone must still count ebx, which no state after the site holds.
TRANSIENT_PREFIX = "\n".join(
    ("L0: mov ebx, eax", "movi ebx, 0", "movi eax, 5", "jnz L0", "ret")
)


@given(source=kernels(), order_seed=st.integers(0, 2**16))
@example(source=TRANSIENT_PREFIX, order_seed=0)
@settings(max_examples=150, deadline=None)
def test_memoized_cones_equal_reference(source, order_seed):
    reference = ReferenceTaint.from_source("f", source)
    fresh = TaintAnalysis.from_source("f", source)
    order = sites(fresh)
    expected = {s: shape(reference.cone_after(*s)) for s in order}
    for s in order:
        assert shape(fresh.cone_after(*s)) == expected[s], (source, s)

    warm = TaintAnalysis.from_source("f", source)
    for seed in SEEDS:
        assert shape(warm.cone_from_tokens(seed)) == shape(
            reference.cone_from_tokens(seed)
        ), (source, seed)
    random.Random(order_seed).shuffle(order)
    for s in order:
        assert shape(warm.cone_after(*s)) == expected[s], (source, s)
