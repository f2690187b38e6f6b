"""The one-thread OpenBLAS pin, and the 3D self-attention's fixed two-part
split of its row blocks: bitwise the same results at one and two CPUs while
the pin holds."""

import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from blobvid import attention, blas
from blobvid.attention import (
    SelfAttnWeights,
    masked_3d_self_attention,
    masked_3d_self_attention_backward,
)
from blobvid.errors import ShapeError
from blobvid.labelfield import AttnMask3D, LabelField

from conftest import openblas_threads

needs_openblas = pytest.mark.skipif(openblas_threads() is None,
                                    reason="numpy has no bundled OpenBLAS")


def instance(rng):
    """A field whose blocks are of every kind: one class over three blocks of
    its own, a smaller class with a block of its own, packed small classes
    over two blocks, and positions that attend to nothing."""
    block = attention._BLOCK
    sets = ([{0}] * (2 * block + 7) + [{1, 2}] * 40 + [set()] * 3
            + [{lab for lab in range(6) if rng.random() < 0.4} for _ in range(block + 30)])
    sets = [sets[i] for i in rng.permutation(len(sets))]
    n = len(sets)
    mask = AttnMask3D(LabelField.from_label_sets(1, 1, n, 6, sets))
    return mask, rng.standard_normal((n, 8)), rng.standard_normal((n, 8)), SelfAttnWeights.seeded(8, seed=11)


def block_count(field) -> int:
    return sum(entry.blocks for entry in attention._label_blocks(field))


def run(mask, g, upstream, wts):
    out, sums = masked_3d_self_attention(g, mask, wts)
    grads = masked_3d_self_attention_backward(g, mask, wts, upstream)
    return out, sums, grads.g, grads.wq, grads.wk, grads.wv


def spy_on_threads(monkeypatch) -> list:
    """The thread count of each parallel_map call the 3D op makes, in order."""
    used = []
    real_map = attention.parallel_map

    def spy(fn, items, threads=1):
        used.append(threads)
        return real_map(fn, items, threads)

    monkeypatch.setattr(attention, "parallel_map", spy)
    return used


class TestFixedSplit:
    def test_same_bits_at_one_and_two_cpus_and_without_openblas(self, rng, monkeypatch):
        args = instance(rng)
        assert block_count(args[0].field) > 4
        used = spy_on_threads(monkeypatch)
        results = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            results[cpus] = run(*args)
        with monkeypatch.context() as m:
            m.setattr(blas, "_lookup", lambda: ())
            m.setattr(blas, "_funcs", None)
            results["no openblas"] = run(*args)
        pinned = openblas_threads() is not None
        # Forward and backward at 1 CPU, at 2 CPUs, then without the pin.
        assert used == [1, 1] + [2 if pinned else 1] * 2 + [1, 1]
        for name, got in results.items():
            for a, b in zip(results[1], got):
                assert np.array_equal(a, b), name

    @needs_openblas
    def test_same_bits_at_one_and_two_cpus_on_byte_capped_blocks(self, rng, monkeypatch):
        # One class of 2,500 positions reads more than 2,048 keys, and packed
        # small classes read all 3,000: their blocks are cut by _BLOCK_BYTES
        # to fewer than _BLOCK rows, so the parts hold many of them.
        sets = ([{0}] * 2400 + [{0, 1}] * 100
                + [{lab for lab in range(1, 8) if rng.random() < 0.4} or {7} for _ in range(500)])
        sets = [sets[i] for i in rng.permutation(len(sets))]
        mask = AttnMask3D(LabelField.from_label_sets(1, 1, len(sets), 8, sets))
        plan = attention._label_blocks(mask.field)
        assert all(entry.step < attention._BLOCK for entry in plan if entry.n_keys > 2048)
        assert any(entry.cls < 0 for entry in plan) and block_count(mask.field) > 20
        g, upstream = rng.standard_normal((2, len(sets), 8))
        used = spy_on_threads(monkeypatch)
        results = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            results[cpus] = run(mask, g, upstream, SelfAttnWeights.seeded(8, seed=12))
        assert used == [1, 1, 2, 2]
        for a, b in zip(results[1], results[2]):
            assert np.array_equal(a, b)

    def test_a_single_block_runs_in_the_calling_thread(self, rng, monkeypatch):
        sets = [{0}] * 5 + [{0, 1}] * 3 + [{1}] * 4
        mask = AttnMask3D(LabelField.from_label_sets(1, 1, len(sets), 2, sets))
        assert block_count(mask.field) == 1
        used = spy_on_threads(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        g = rng.standard_normal((len(sets), 4))
        run(mask, g, g, SelfAttnWeights.seeded(4, seed=2))
        assert used == [1, 1]


@needs_openblas
class TestOneThreadPin:
    def test_nested_pins_restore_the_callers_count_once(self):
        get, put = blas._lookup()
        caller = get()
        put(2)
        try:
            with blas.one_thread() as outer:
                with blas.one_thread() as inner:
                    assert outer and inner and get() == 1
                assert get() == 1
            assert get() == 2
        finally:
            put(caller)

    def test_many_threads_entering_and_leaving_share_one_pin(self):
        # More holders than cores, switching threads as often as possible: a
        # lost update of the holder count would unpin inside a holder or
        # leave the pin behind.
        get, put = blas._lookup()
        caller = get()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        put(2)

        def hold(_):
            counts = []
            for _ in range(200):
                with blas.one_thread():
                    counts.append(get())
            return counts

        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(hold, i) for i in range(8)]
                seen = [c for f in futures for c in f.result(timeout=60)]
            assert seen == [1] * 1600
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            put(caller)

    def test_count_restored_after_ops_errors_and_concurrent_calls(self, rng, monkeypatch):
        mask, g, upstream, wts = instance(rng)
        n_blocks = block_count(mask.field)
        get, put = blas._lookup()
        seen = []

        def spy(kernel):
            # Every block of the forward runs _attend once, and every block
            # of the backward _attend_backward once.
            def counted(*args):
                seen.append(get())
                return kernel(*args)
            return counted

        for name in ("_attend", "_attend_backward"):
            monkeypatch.setattr(attention, name, spy(getattr(attention, name)))
        caller = get()
        put(2)
        try:
            out, sums = masked_3d_self_attention(g, mask, wts)
            assert len(seen) == n_blocks
            grads = masked_3d_self_attention_backward(g, mask, wts, upstream)
            assert len(seen) == 2 * n_blocks
            serial = (out, sums, grads.g, grads.wq, grads.wk, grads.wv)
            assert get() == 2
            with pytest.raises(ShapeError):
                masked_3d_self_attention_backward(g, mask, wts, upstream[:-1])
            assert get() == 2
            with ThreadPoolExecutor(max_workers=2) as pool:
                both = list(pool.map(lambda _: run(mask, g, upstream, wts), range(2)))
            assert get() == 2
        finally:
            put(caller)
        assert set(seen) == {1}
        for got in both:
            for a, b in zip(serial, got):
                assert np.array_equal(a, b)
