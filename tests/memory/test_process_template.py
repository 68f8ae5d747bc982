"""Rank images copied from an image template.

``MPIApplication.build_process`` links each application configuration
once and starts every rank from a copy.  A copy must be indistinguishable
from an image linked from scratch, and no rank may reach the template or
another rank through it.
"""

import gc
import itertools

import numpy as np
import pytest

from repro.apps import APPLICATION_SUITE, MPIApplication
from repro.cpu import translate
from repro.cpu.vm import VM
from repro.memory.process import ProcessImage
from repro.memory.symbols import Linker
from repro.mpi.library import add_mpi_library
from repro.mpi.simulator import JobConfig
from repro.staticanalysis.mpicheck.fixture import BuggyApp
from tests.conftest import SMALL_CLIMATE, SMALL_MOLDYN, SMALL_WAVETOY

SMALL = {"wavetoy": SMALL_WAVETOY, "moldyn": SMALL_MOLDYN, "climate": SMALL_CLIMATE}
APPS = [(cls, SMALL[name]) for name, cls in APPLICATION_SUITE.items()]
APPS.append((BuggyApp, {}))
APP_IDS = [cls.__name__ for cls, _ in APPS]


def linked(app: MPIApplication, rank: int, track: bool) -> tuple[ProcessImage, VM]:
    """``app``'s rank image linked from scratch."""
    linker = Linker()
    app.program().add_to_linker(linker)
    app.add_static_objects(linker)
    add_mpi_library(
        linker, text_scale=app.mpi_text_scale, data_scale=app.mpi_data_scale
    )
    image = ProcessImage.from_linker(
        linker,
        rank=rank,
        heap_size=app.heap_size,
        stack_size=app.stack_size,
        track=track,
    )
    app.program().relocate(image)
    return image, VM(image)


def memory_state(image: ProcessImage) -> dict:
    segments = [
        (
            seg.name,
            seg.base,
            seg.size,
            seg.perm,
            seg.version,
            seg.buf.tobytes(),
            seg.tracking,
            *(
                None if arr is None else arr.tolist()
                for arr in (seg.last_load, seg.last_store, seg.last_exec)
            ),
        )
        for seg in image.address_space.segments()
    ]
    return {
        "rank": image.rank,
        "blocks": image.clock.blocks,
        "segments": segments,
        "symbols": list(image.symtab),
        "entry_points": image.entry_points,
        "heap_free": list(image.heap._free),
        "heap_live": dict(image.heap._live),
        "heap_in_use": image.heap.in_use,
        "stack": (image.stack.esp, image.stack.ebp),
    }


def dispatch_state(vm: VM) -> dict:
    vm._build_fast_table()
    return {
        "table": sorted(vm._fast_table),
        "loops": sorted(vm._fast_loops),
        "pending": list(vm._fast_pending),
    }


@pytest.fixture(scope="module", autouse=True)
def translated_kernels():
    """Cache a translation of every user kernel so that dispatch tables
    hold units as well as pending functions."""
    for cls, params in APPS:
        image, _ = linked(cls(**params), 0, False)
        for sym in image.symtab.symbols("text", "user"):
            if sym.name in cls(**params).program().functions:
                code = image.text.read_bytes(sym.addr, sym.size)
                translate.translation_for(sym.name, code, sym.addr)


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
@pytest.mark.parametrize("cls, params", APPS, ids=APP_IDS)
def test_copy_equals_a_fresh_link(cls, params, nprocs, track):
    app = cls(**params)
    config = JobConfig(nprocs=nprocs, track_memory=track)
    if cls is BuggyApp and nprocs < 2:
        with pytest.raises(ValueError):
            app.build_process(0, nprocs, config)
        return
    for rank in range(nprocs):
        image, vm = app.build_process(rank, nprocs, config)
        fresh, fresh_vm = linked(app, rank, track)
        assert memory_state(image) == memory_state(fresh)
        assert vm._decode_cache == fresh_vm._decode_cache
        assert vm._tracked == fresh_vm._tracked == track
        assert dispatch_state(vm) == dispatch_state(fresh_vm)
        assert dispatch_state(vm)["table"]


def test_template_built_once_per_configuration():
    a, b = SMALL_WAVETOY, {**SMALL_WAVETOY, "nx": 48}
    cls = APPLICATION_SUITE["wavetoy"]
    assert cls(**a).template() is cls(**dict(a)).template()
    assert cls(**a).template() is not cls(**b).template()
    assert cls(**a).template() is not APPLICATION_SUITE["climate"]().template()


# ----------------------------------------------------------------------
# isolation
# ----------------------------------------------------------------------
class Tiny(MPIApplication):
    """One kernel and one initialized data object."""

    name = "tiny"
    heap_size = 1 << 14
    stack_size = 1 << 13

    def kernel_sources(self):
        return {"tiny_add": "movi eax, 7\naddi eax, 5\nret"}

    def add_static_objects(self, linker):
        linker.add_data("tiny_table", 64, init=bytes(range(64)))


CONFIG = JobConfig(nprocs=2)


def template_state(app: MPIApplication) -> dict:
    image_template, text_template = app.template()
    return {
        "segments": [
            (t.name, t.base, t.size, t.perm, t.version,
             None if t.init is None else t.init.tobytes())
            for t in image_template.segments
        ],
        "symbols": list(image_template.symtab),
        "entry_points": dict(image_template.entry_points),
        "version": text_template.version,
        "decode_cache": dict(text_template.decode_cache),
        "functions": text_template.functions,
    }


def corrupt(image: ProcessImage, vm: VM) -> None:
    """Every kind of change a trial makes to its rank."""
    entry = image.addr_of("tiny_add")
    vm.fastpath = True
    assert vm.call("tiny_add") == 12
    lazy = vm.fastpath_stats["lazy_translations"]
    image.text.flip_bit(entry + 4, 0)  # movi eax, 7 -> 6
    assert vm.call("tiny_add") == 11
    assert vm.fastpath_stats["lazy_translations"] == lazy + 1
    vm.fastpath = False  # the interpreter re-decodes the flipped word
    assert vm.call("tiny_add") == 11
    image.heap_segment.flip_bit(image.heap_segment.base + 100, 3)
    image.heap.malloc(256)
    image.stack.push_frame(return_addr=entry, args=(1, 2), locals_size=16)
    image.data.write_u32(image.addr_of("tiny_table"), 0xDEADBEEF)


def check_pristine(app: MPIApplication, image: ProcessImage, vm: VM) -> None:
    fresh, fresh_vm = linked(app, image.rank, False)
    assert memory_state(image) == memory_state(fresh)
    assert vm._decode_cache == fresh_vm._decode_cache
    entry = image.addr_of("tiny_add")
    code = fresh.text.read_bytes(entry, fresh.symtab.lookup("tiny_add").size)
    vm.fastpath = True
    assert vm.call("tiny_add") == 12
    clean = translate.translation_for("tiny_add", code, entry)
    assert vm._fast_table[entry] is clean[entry]


def all_buffers(image: ProcessImage):
    for seg in image.address_space.segments():
        yield seg.buf
        for arr in (seg.last_load, seg.last_store, seg.last_exec):
            if arr is not None:
                yield arr


def test_corrupting_a_copy_reaches_no_other():
    app = Tiny()
    before = template_state(app)
    image, vm = app.build_process(0, 2, CONFIG)
    sibling, sibling_vm = app.build_process(1, 2, CONFIG)
    corrupt(image, vm)
    assert template_state(app) == before
    check_pristine(app, sibling, sibling_vm)
    check_pristine(app, *Tiny().build_process(0, 2, CONFIG))
    # The corrupted rank keeps its own translation.
    entry = image.addr_of("tiny_add")
    assert vm._fast_table[entry] is not sibling_vm._fast_table[entry]


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
def test_copies_share_no_buffer(track):
    config = JobConfig(nprocs=2, track_memory=track)
    app = Tiny()
    images = [app.build_process(r, 2, config)[0] for r in range(2)]
    images.append(Tiny().build_process(0, 2, config)[0])
    buffers = [buf for image in images for buf in all_buffers(image)]
    buffers += [t.init for t in app.template()[0].segments if t.init is not None]
    for a, b in itertools.combinations(buffers, 2):
        assert not np.shares_memory(a, b)


def test_template_bytes_are_read_only():
    for t in Tiny().template()[0].segments:
        if t.init is not None:
            with pytest.raises(ValueError):
                t.init[0] = 1


def test_template_holds_no_image():
    def live_images():
        return sum(1 for o in gc.get_objects() if isinstance(o, ProcessImage))

    class Roomier(Tiny):
        heap_size = 1 << 15

    gc.collect()
    baseline = live_images()
    template = Roomier().template()
    gc.collect()
    assert live_images() == baseline
    assert template[0].segments[3].size == 1 << 15
