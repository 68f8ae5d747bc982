"""The memoized taint cones equal a from-scratch fixpoint, in any order.

``TaintAnalysis`` shares three memos across queries: per-site cones,
per-``(insn, state)`` block-suffix summaries, and the skipped walk of
any block entered with no taint.  :class:`ReferenceTaint` below is the
algorithm without them: every query solves a plain FIFO worklist over
whole-block walks from scratch and walks every reachable block again
for the cone.  Its only shared state is a memo of the single-instruction
transfer, a pure function of ``(state, insn)``.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.apps import APPLICATION_SUITE
from repro.cpu.registers import EAX
from repro.injection.campaign import Campaign
from repro.staticanalysis.mpicheck.fixture import BuggyApp
from repro.staticanalysis.outcomes import predictor as predictor_mod
from repro.staticanalysis.outcomes.predictor import OutcomePredictor
from repro.staticanalysis.propagation.taint import (
    PropagationCone,
    TaintAnalysis,
    _is_mem_token,
)

APPS = ("wavetoy", "climate", "moldyn")


def naive_solve(cfg, boundary, transfer):
    """Forward union-join worklist: ``list.pop(0)`` and a linear
    membership test, as written before the engine was tuned."""
    n = len(cfg.blocks)
    ins, outs = [frozenset()] * n, [frozenset()] * n
    work = list(range(n))
    while work:
        b = work.pop(0)
        gathered = boundary if b == 0 else frozenset()
        for p in cfg.blocks[b].preds:
            gathered = gathered | outs[p]
        new_out = transfer(b, gathered)
        if gathered == ins[b] and new_out == outs[b]:
            continue
        ins[b], outs[b] = gathered, new_out
        for d in cfg.blocks[b].succs:
            if d not in work:
                work.append(d)
    return ins, outs


class ReferenceTaint(TaintAnalysis):
    """Cones by the memo-free algorithm (see the module docstring)."""

    def __init__(self, cfg, reloc_symbols=None) -> None:
        super().__init__(cfg, reloc_symbols)
        self._ref_steps: dict = {}

    def _ref_step(self, taint, i):
        key = (taint, i)
        out = self._ref_steps.get(key)
        if out is None:
            out = self._ref_steps[key] = self._taint_step_uncached(taint, i)
        return out

    def _run(self, seed_entry, seed_site, site_label):
        cfg = self.cfg

        def walk(b, taint, ever):
            for i in cfg.blocks[b].insn_indices():
                ever |= taint
                taint = self._ref_step(taint, i)
                if seed_site is not None and i == seed_site[0]:
                    taint = taint | {f"reg:{seed_site[1]}"}
                ever |= taint
            return taint

        block_in, block_out = naive_solve(
            cfg, seed_entry, lambda b, t: walk(b, t, set())
        )
        ever: set[str] = set()
        exit_state: set[str] = set()
        saw_exit = False
        for block in cfg.blocks:
            if block.index not in self._reachable:
                continue
            taint = block_in[block.index]
            if block.index == 0:
                taint = taint | seed_entry
            taint = walk(block.index, taint, ever)
            if not block.succs:
                saw_exit = True
                exit_state |= taint
        if not saw_exit:
            for block in cfg.blocks:
                if block.index in self._reachable:
                    exit_state |= block_out[block.index]
        escapes: set[str] = set()
        for t in ever:
            if t == "stackmem":
                escapes.add("stack")
            elif _is_mem_token(t) or t in ("branch", "wild_store"):
                escapes.add(t)
        for t, label in (("x87", "x87"), ("flags", "flags"), (f"reg:{EAX}", "ret")):
            if t in exit_state:
                escapes.add(label)
        return PropagationCone(
            function=cfg.name,
            site=site_label,
            tainted=frozenset(ever),
            escapes=frozenset(escapes),
        )

    def cone_after(self, insn_index, reg):
        if self.cfg.block_of[insn_index] not in self._reachable:
            return PropagationCone(
                self.cfg.name, "", frozenset(), frozenset()
            )
        return self._run(frozenset(), (insn_index, reg), "")


def sites(analysis: TaintAnalysis) -> list[tuple[int, int]]:
    return [
        (i, r)
        for i in range(len(analysis.cfg.insns))
        for r in analysis.written_gprs(i)
    ]


def shape(cone: PropagationCone) -> tuple:
    return cone.tainted, cone.escapes


def symbol_tokens(program) -> list[frozenset[str]]:
    names = sorted(
        {r.symbol for fn in program.functions.values() for r in fn.relocations}
    )
    return [frozenset({f"sym:{n}"}) for n in names] + [
        frozenset({"heap"}),
        frozenset({"stack"}),
    ]


def _program(app: str):
    if app == "buggy":
        return BuggyApp(bug="salad").program()
    return APPLICATION_SUITE[app]().program()


@lru_cache(maxsize=None)
def reference_cones(app: str) -> dict:
    """``{(kernel, insn, reg): (tainted, escapes)}`` and
    ``{(kernel, tokens): ...}`` from :class:`ReferenceTaint`."""
    program = _program(app)
    out: dict = {}
    for name, fn in program.functions.items():
        ref = ReferenceTaint.from_function(fn)
        for i, r in sites(ref):
            out[(name, i, r)] = shape(ref.cone_after(i, r))
        for tokens in symbol_tokens(program):
            out[(name, tokens)] = shape(ref.cone_from_tokens(tokens))
    return out


@pytest.mark.parametrize("app", APPS + ("buggy",))
def test_cones_equal_reference_in_any_order(app):
    expected = reference_cones(app)
    program = _program(app)
    rng = random.Random(20040607)
    for name, fn in program.functions.items():
        fresh = TaintAnalysis.from_function(fn)
        order = sites(fresh)
        for i, r in order:
            assert shape(fresh.cone_after(i, r)) == expected[(name, i, r)], (
                name,
                i,
                r,
            )
        # A second analysis warmed by the memory-seeded cones first,
        # then queried in a shuffled order, twice.
        warm = TaintAnalysis.from_function(fn)
        for tokens in symbol_tokens(program):
            assert shape(warm.cone_from_tokens(tokens)) == expected[(name, tokens)]
        for _ in range(2):
            rng.shuffle(order)
            for i, r in order:
                assert shape(warm.cone_after(i, r)) == expected[(name, i, r)]


def test_cone_after_is_memoized_per_site():
    fn = APPLICATION_SUITE["wavetoy"]().program().functions["wt_step"]
    analysis = TaintAnalysis.from_function(fn)
    i, r = sites(analysis)[0]
    assert analysis.cone_after(i, r) is analysis.cone_after(i, r)


def _tables(pred: OutcomePredictor) -> tuple:
    syms = [s.name for s in pred.symtab if s.library == "user"]
    return (
        pred.register_table,
        {n: (k.text_strata, k.hang_bits) for n, k in pred.kernels.items()},
        {s: pred._classify_symbol(s) for s in syms},
    )


@pytest.mark.parametrize("app", APPS)
def test_predictor_tables_equal_reference_built(app, monkeypatch):
    campaign = Campaign.from_registry(app, nprocs=2)
    built = campaign.outcome_predictor()
    expected = reference_cones(app)

    class Cached(ReferenceTaint):
        """Reference cones, looked up from the ones already solved."""

        def cone_after(self, insn_index, reg):
            tainted, escapes = expected[(self.cfg.name, insn_index, reg)]
            return PropagationCone(self.cfg.name, "", tainted, escapes)

    monkeypatch.setattr(predictor_mod, "TaintAnalysis", Cached)
    reference = OutcomePredictor.from_campaign(campaign)
    assert all(
        isinstance(k.taint, Cached) for k in reference.kernels.values()
    )
    assert _tables(reference) == _tables(built)
