import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blobvid import attention
from blobvid.attention import (
    CrossAttnWeights,
    SelfAttnWeights,
    gated_fuse,
    gated_fuse_backward,
    masked_3d_self_attention,
    masked_3d_self_attention_backward,
    masked_cross_attention,
    masked_softmax,
)
from blobvid.blobs import BinaryMask
from blobvid.geometry import BlobParams, FrameGeometry, canonicalize
from blobvid.embedding import EmbeddingSeq
from blobvid.exemplars import EXEMPLAR_2_LAYOUT
from blobvid.layout import densify_layout, parse_layout
from blobvid.errors import ShapeError
from blobvid.gradcheck import central_difference_grads, relative_error
from blobvid.labelfield import AttnMask3D, LabelField, build_label_field, shares_label
from blobvid.video import BlobTrack, BlobVideo, densify

from conftest import (
    cross_attention_backward_reference,
    cross_attention_probs_reference,
    cross_attention_reference,
    self_attention_backward_reference,
    self_attention_oracle,
    self_attention_probs_reference,
    self_attention_reference,
    softmax_reference,
    stacked_tokens,
)


def random_cross_instance(rng, n_blobs=None, all_covered=False):
    n_blobs = int(rng.integers(1, 4)) if n_blobs is None else n_blobs
    L = int(rng.integers(1, 5))
    h = int(rng.integers(2, 5))
    w = int(rng.integers(2, 5))
    d = int(rng.integers(3, 8))
    d_g = int(rng.integers(3, 8))
    g = rng.standard_normal((h * w, d_g))
    blobs = [EmbeddingSeq(rng.standard_normal((L, d))) for _ in range(n_blobs)]
    if all_covered:
        bits = [np.ones((h, w), dtype=bool) for _ in range(n_blobs)]
    else:
        bits = [rng.random((h, w)) < 0.5 for _ in range(n_blobs)]
    masks = [BinaryMask(b) for b in bits]
    wts = CrossAttnWeights.seeded(n_blobs, d, d_g, seed=int(rng.integers(1 << 30)))
    return g, blobs, masks, wts


class TestMaskedSoftmax:
    def test_matches_reference_with_literal_inf(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            logits = rng.standard_normal((n, m))
            allow = rng.random((n, m)) < 0.5
            ref_logits = np.where(allow, logits, -np.inf)
            got = masked_softmax(logits, allow)
            want = softmax_reference(ref_logits)
            assert got == pytest.approx(want, abs=1e-12)

    def test_blocked_entries_exactly_zero(self, rng):
        logits = rng.standard_normal((4, 5))
        allow = rng.random((4, 5)) < 0.5
        probs = masked_softmax(logits, allow)
        assert np.all(probs[~allow] == 0.0)

    def test_fully_blocked_row_is_zero(self):
        probs = masked_softmax(np.ones((2, 3)), np.zeros((2, 3), dtype=bool))
        assert np.all(probs == 0.0)

    def test_allowed_rows_sum_to_one(self, rng):
        logits = rng.standard_normal((6, 4)) * 50
        allow = np.ones((6, 4), dtype=bool)
        probs = masked_softmax(logits, allow)
        assert probs.sum(axis=1) == pytest.approx(np.ones(6), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            masked_softmax(np.ones((2, 3)), np.ones((3, 2), dtype=bool))


class TestMaskedCrossAttention:
    def test_matches_dense_reference(self, rng):
        for _ in range(15):
            g, blobs, masks, wts = random_cross_instance(rng)
            got, _ = masked_cross_attention(g, blobs, masks, wts)
            want = cross_attention_reference(
                g, [b.data for b in blobs], [m.bits for m in masks],
                wts.wq, list(wts.wk), list(wts.wv),
            )
            assert got == pytest.approx(want, abs=1e-10)

    def test_uncovered_rows_zero(self, rng):
        g, blobs, masks, wts = random_cross_instance(rng, n_blobs=1)
        bits = masks[0].bits.copy()
        bits[0, :] = False
        masks = [BinaryMask(bits)]
        out, _ = masked_cross_attention(g, blobs, masks, wts)
        uncovered = ~bits.reshape(-1)
        assert np.all(out[uncovered] == 0.0)

    def test_no_blobs_gives_zeros(self, rng):
        g = rng.standard_normal((6, 4))
        wts = CrossAttnWeights.seeded(0, 3, 4, seed=0)
        out, _ = masked_cross_attention(g, [], [], wts)
        assert out.shape == (6, 4)
        assert np.all(out == 0.0)

    def test_probs_rows_sum_to_one_or_zero(self, rng):
        g, blobs, masks, wts = random_cross_instance(rng)
        out, sums = masked_cross_attention(g, blobs, masks, wts)
        covered = np.zeros(g.shape[0], dtype=bool)
        for m in masks:
            covered |= m.bits.reshape(-1)
        assert sums[covered] == pytest.approx(np.ones(covered.sum()), abs=1e-12)
        assert np.all(sums[~covered] == 0.0)

    def test_single_blob_full_mask_is_plain_attention(self, rng):
        g, blobs, masks, wts = random_cross_instance(rng, n_blobs=1, all_covered=True)
        got, _ = masked_cross_attention(g, blobs, masks, wts)
        q = g @ wts.wq
        k = blobs[0].data @ wts.wk[0]
        v = blobs[0].data @ wts.wv[0]
        logits = q @ k.T / math.sqrt(g.shape[1])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        want = (e / e.sum(axis=1, keepdims=True)) @ v
        assert got == pytest.approx(want, abs=1e-12)

    def test_blob_count_mismatch(self, rng):
        g, blobs, masks, wts = random_cross_instance(rng, n_blobs=2)
        with pytest.raises(ShapeError):
            masked_cross_attention(g, blobs[:1], masks, wts)

    def test_mask_resolution_mismatch(self, rng):
        g, blobs, masks, wts = random_cross_instance(rng, n_blobs=1)
        bad = BinaryMask(np.ones((1, 3), dtype=bool))
        with pytest.raises(ShapeError):
            masked_cross_attention(g, blobs, [bad], wts)


class TestMaskedSelfAttention:
    def test_matches_dense_reference(self, rng):
        for _ in range(10):
            T = int(rng.integers(1, 3))
            h = int(rng.integers(2, 4))
            w = int(rng.integers(2, 4))
            d = int(rng.integers(3, 7))
            n_objects = int(rng.integers(1, 4))
            sets = []
            for _ in range(T * h * w):
                labs = {n for n in range(n_objects) if rng.random() < 0.5}
                sets.append(labs if labs else {n_objects})
            field = LabelField.from_label_sets(T, h, w, n_objects + 1, sets)
            g = rng.standard_normal((T * h * w, d))
            wts = SelfAttnWeights.seeded(d, seed=int(rng.integers(1 << 30)))
            got, _ = masked_3d_self_attention(g, AttnMask3D(field), wts)
            want = self_attention_reference(g, sets, wts.wq, wts.wk, wts.wv)
            assert got == pytest.approx(want, abs=1e-10)

    def test_rows_sum_to_one(self, rng):
        sets = [{0}, {1}, {0, 1}, {2}]
        field = LabelField.from_label_sets(1, 2, 2, 3, sets)
        g = rng.standard_normal((4, 5))
        wts = SelfAttnWeights.seeded(5, seed=3)
        out, sums = masked_3d_self_attention(g, AttnMask3D(field), wts)
        # Every position shares a label with itself, so no zero rows here.
        assert sums == pytest.approx(np.ones(4), abs=1e-12)

    def test_disjoint_labels_never_mix(self, rng):
        # Two positions with disjoint sets: each attends only to itself.
        sets = [{0}, {1}]
        field = LabelField.from_label_sets(1, 1, 2, 2, sets)
        g = rng.standard_normal((2, 3))
        wts = SelfAttnWeights.seeded(3, seed=1)
        out, sums = masked_3d_self_attention(g, AttnMask3D(field), wts)
        # A row with one allowed key gets its value as (e v) / e, for a
        # weight e shifted by a bound, not by the row max: within 2 ulp of v.
        np.testing.assert_array_max_ulp(out, g @ wts.wv, maxulp=2)
        assert np.array_equal(sums, np.ones(2))
        # Position 1's keys far outgrow position 0's logit, but not its output.
        g[1] *= 1000
        out, sums = masked_3d_self_attention(g, AttnMask3D(field), wts)
        np.testing.assert_array_max_ulp(out, g @ wts.wv, maxulp=2)
        assert np.array_equal(sums, np.ones(2))

    def test_feature_count_mismatch(self, rng):
        field = LabelField.from_label_sets(1, 1, 2, 2, [{0}, {1}])
        g = rng.standard_normal((3, 3))
        wts = SelfAttnWeights.seeded(3, seed=1)
        with pytest.raises(ShapeError):
            masked_3d_self_attention(g, AttnMask3D(field), wts)
        with pytest.raises(ShapeError):
            masked_3d_self_attention_backward(g, AttnMask3D(field), wts, g)


def assert_matches_dense_references(rng, sets, n_labels, d=5):
    """Forward, row sums and all four gradients of the streamed op against the
    dense conftest references, on a 1 x 1 x n field holding the given sets."""
    n = len(sets)
    field = LabelField.from_label_sets(1, 1, n, n_labels, sets)
    g = rng.standard_normal((n, d))
    upstream = rng.standard_normal((n, d))
    wts = SelfAttnWeights.seeded(d, seed=int(rng.integers(1 << 30)))
    out, sums = masked_3d_self_attention(g, AttnMask3D(field), wts)
    assert out == pytest.approx(self_attention_reference(g, sets, wts.wq, wts.wk, wts.wv),
                                abs=1e-10)
    want_sums = np.array([1.0 if labs else 0.0 for labs in sets])
    assert sums == pytest.approx(want_sums, abs=1e-12)
    grads = masked_3d_self_attention_backward(g, AttnMask3D(field), wts, upstream)
    want = self_attention_backward_reference(g, sets, wts.wq, wts.wk, wts.wv, upstream)
    for got, ref in zip((grads.g, grads.wq, grads.wk, grads.wv), want):
        assert got == pytest.approx(ref, abs=1e-10)
    return out, sums, grads


def plan_blocks(plan):
    """Every row block of a plan (attention._label_blocks), in plan order, as
    (rows, cls); cls is -1 for a packed block."""
    return [(entry.rows[s:s + entry.step], entry.cls)
            for entry in plan for s in range(0, entry.rows.size, entry.step)]


def all_class_runs(field):
    """The class runs of every part (attention._class_runs), each part's as
    a list of (masked, keys, list of row blocks)."""
    plan = attention._label_blocks(field)
    return [[(masked, keys, list(blocks))
             for masked, keys, blocks in attention._class_runs(plan, p, field)]
            for p in range(attention._PARTS)]


def blocks_by_class(sets, n_labels):
    """The op's row blocks as (own, classes): own is True for a block of one
    class over its gathered keys, classes the label sets of the block's rows."""
    field = LabelField.from_label_sets(1, 1, len(sets), n_labels, sets)
    return [(cls >= 0, [frozenset(sets[r]) for r in rows])
            for rows, cls in plan_blocks(attention._label_blocks(field))]


def shuffled(rng, sets):
    return [sets[i] for i in rng.permutation(len(sets))]


class TestStreamedSelfAttention:
    """The op streams row blocks grouped by label set. Each field here makes one
    kind of block run, and every case checks the forward, the row sums and
    the backward against the dense references."""

    def test_one_class_over_several_blocks_of_its_own(self, rng):
        big = 2 * attention._BLOCK + 1
        sets = shuffled(rng, [{0}] * big + [{0, 1}] * 3 + [{1}] * 9 + [{2}] * 2)
        blocks = blocks_by_class(sets, 3)
        own = [classes for is_own, classes in blocks if is_own and set(classes) == {frozenset({0})}]
        assert len(own) == 3 and sum(map(len, own)) == big
        assert_matches_dense_references(rng, sets, 3)

    def test_tiny_classes_fill_two_packed_blocks(self, rng):
        # Classes of 1-3 positions over overlapping label sets (class k holds
        # label b iff bit b of k is set), together more than _BLOCK rows. The
        # op packs classes in bitset order, byte by byte from the low labels,
        # so k runs in that order. The classes fill exactly _BLOCK - 1 rows,
        # then a 3-position class takes packed rows _BLOCK - 1 to _BLOCK + 1:
        # the two packed blocks split it between them at any block size.
        order = sorted(range(1, 1 << 10), key=lambda k: (k & 255, k >> 8))
        sizes = []
        while sum(sizes) < attention._BLOCK - 1:
            sizes.append(min(1 + len(sizes) % 3, attention._BLOCK - 1 - sum(sizes)))
        sizes.append(3)
        while sum(sizes) <= attention._BLOCK + 20:
            sizes.append(1 + len(sizes) % 3)
        sets = shuffled(rng, [{b for b in range(10) if k >> b & 1}
                              for k, size in zip(order, sizes) for _ in range(size)])
        blocks = blocks_by_class(sets, 10)
        assert not any(is_own for is_own, _ in blocks)
        assert len(blocks) == 2
        assert set(blocks[0][1]) & set(blocks[1][1])
        assert max(Counter(frozenset(s) for s in sets).values()) <= 3
        assert_matches_dense_references(rng, sets, 10)

    def test_almost_every_position_has_its_own_class(self, rng):
        n_labels = 12
        sets = [{lab for lab in range(n_labels) if rng.random() < 0.5} or {0}
                for _ in range(attention._BLOCK + 50)]
        assert len(Counter(frozenset(s) for s in sets)) > 0.9 * len(sets)
        assert_matches_dense_references(rng, sets, n_labels)

    @pytest.mark.parametrize("n_empty", [1, 16])
    def test_empty_label_sets_give_zero_rows(self, rng, n_empty):
        sets = shuffled(rng, [{0}, {0, 1}, {1}] * 4 + [{2}] * 9 + [set()] * n_empty)
        out, sums, grads = assert_matches_dense_references(rng, sets, 3)
        empty = np.array([not labs for labs in sets])
        assert np.all(out[empty] == 0.0)
        assert np.all(sums[empty] == 0.0)
        assert np.all(grads.g[empty] == 0.0)

    def test_class_runs_over_chunked_rows_and_packed_blocks(self, rng):
        # Two large classes with overlapping key sets, {0} and {0, 1}, over
        # five blocks each, so each part holds consecutive blocks of both;
        # their blocks hold more rows than one row chunk of the backward;
        # and 60 small classes fill two packed blocks.
        big = 513
        sets = shuffled(rng, [{0}] * big + [{0, 1}] * big
                        + [{2 + i % 60, i % 2} for i in range(150)])
        field = LabelField.from_label_sets(1, 1, len(sets), 62, sets)
        plan = attention._label_blocks(field)
        blocks = plan_blocks(plan)
        own = [cls for _, cls in blocks if cls >= 0]
        assert len(own) >= 6 and len(set(own)) == 2
        assert [cls < 0 for _, cls in blocks].count(True) == 2
        assert min(entry.step for entry in plan) > attention._ROW_CHUNK
        for p in range(attention._PARTS):
            part = blocks[p::attention._PARTS]
            assert len({a[1] for a, b in zip(part, part[1:]) if a[1] == b[1] >= 0}) == 2
            runs = [(masked, keys, list(run))
                    for masked, keys, run in attention._class_runs(plan, p, field)]
            assert ([rows.tolist() for *_, run in runs for rows in run]
                    == [rows.tolist() for rows, _ in part])
            widths = [keys.size for masked, keys, _ in runs if not masked]
            assert len(widths) == 2 and max(widths) > big
        assert_matches_dense_references(rng, sets, 62)

    @pytest.mark.parametrize("kind", ["one-class", "singletons", "mixed"])
    def test_plan_counts_match_a_count_from_the_label_sets(self, rng, kind):
        # Each entry's key count is the number of positions whose label set
        # meets its rows' set (all n for packed blocks), and its rows per
        # block fill at most _BLOCK_BYTES of float64 over those keys.
        sets = {"one-class": [{0}] * 3000,
                "singletons": [{b for b in range(12) if (i + 1) >> b & 1} for i in range(600)],
                "mixed": shuffled(rng, [{0}] * 2100 + [{0, 1}] * 40 + [{1}] * 30 + [set()] * 5
                                  + [{2 + i % 9, i % 2} for i in range(60)])}[kind]
        field = LabelField.from_label_sets(1, 1, len(sets), 12, sets)
        plan = attention._label_blocks(field)
        rows = np.concatenate([entry.rows for entry in plan])
        assert sorted(rows.tolist()) == [i for i, labs in enumerate(sets) if labs]
        for entry in plan:
            first = sets[entry.rows[0]]
            want = len(sets) if entry.cls < 0 else sum(1 for labs in sets if labs & first)
            assert entry.n_keys == want
            assert entry.step == min(attention._BLOCK, attention._BLOCK_BYTES // (8 * want))
            assert entry.cls < 0 or all(sets[r] == first for r in entry.rows)
        if kind == "one-class":
            assert [entry.step for entry in plan] == [87]

    @pytest.mark.parametrize("kind", ["tiny-classes", "own-classes", "grouped"])
    def test_packed_blocks_read_exactly_their_reachable_keys(self, rng, kind):
        # The fields of test_tiny_classes_fill_two_packed_blocks and
        # test_almost_every_position_has_its_own_class, and 2-byte bitsets
        # whose small classes each hold labels of one of three groups, so a
        # packed block's classes reach only some of the positions.
        if kind == "tiny-classes":
            order = sorted(range(1, 1 << 10), key=lambda k: (k & 255, k >> 8))
            sizes = []
            while sum(sizes) < attention._BLOCK - 1:
                sizes.append(min(1 + len(sizes) % 3, attention._BLOCK - 1 - sum(sizes)))
            sizes.append(3)
            while sum(sizes) <= attention._BLOCK + 20:
                sizes.append(1 + len(sizes) % 3)
            sets = shuffled(rng, [{b for b in range(10) if k >> b & 1}
                                  for k, size in zip(order, sizes) for _ in range(size)])
        elif kind == "own-classes":
            sets = [{lab for lab in range(12) if rng.random() < 0.5} or {0}
                    for _ in range(attention._BLOCK + 50)]
        else:
            sets = shuffled(rng, [{4 * g + b for b in range(4) if rng.random() < 0.5} or {4 * g}
                                  for g in rng.integers(0, 3, 200)]
                            + [{0}] * 30 + [{8, 9}] * 9 + [set()] * 5)
        field = LabelField.from_label_sets(1, 1, len(sets), 12, sets)
        n = field.size
        rows_seen, evaluated = 0, 0
        for runs in all_class_runs(field):
            for masked, keys, blocks in runs:
                if not masked:
                    continue
                (rows,) = blocks  # a packed block is a run of its own
                reach = [j for j in range(n) if any(sets[j] & sets[r] for r in rows)]
                assert np.arange(n)[keys].tolist() == reach
                # All n keys are read in place, not gathered.
                assert isinstance(keys, slice) == (len(reach) == n)
                rows_seen += rows.size
                evaluated += rows.size * len(reach)
        sizes = Counter(map(frozenset, sets))
        assert rows_seen == sum(1 for labs in sets
                                if labs and sizes[frozenset(labs)] < attention._SMALL_CLASS)
        if kind == "own-classes":
            # Half of 12 labels per position: every block reaches every key.
            assert evaluated == rows_seen * n
        else:
            assert evaluated < rows_seen * n

    def test_class_runs_hold_one_runs_keys_at_a_time(self):
        # One frame-wide blob and 20 moving ones over 13 frames of 96x96
        # cells: every class shares the wide blob's label, so the keys of
        # each large class are all n positions. Building every class's keys
        # up front held hundreds of n-long index arrays; walking the runs of
        # each part in turn holds a few.
        rng = np.random.default_rng(0)
        tracks = [BlobTrack(0, {0: BlobParams(48, 48, 80, 80, 0.0)})]
        for i in range(1, 21):
            tracks.append(BlobTrack(i, {t: canonicalize(BlobParams(
                *rng.uniform(0, 96, 2), *rng.uniform(6, 24, 2), rng.uniform(-1.5, 1.5)))
                for t in (0, 12)}))
        field = build_label_field(densify(BlobVideo(13, FrameGeometry(96, 96), tracks=tracks)),
                                  96, 96)
        n = field.size
        assert field.classes[2].size > 500  # grouped before tracing: the field's own cost
        tracemalloc.start()
        try:
            plan = attention._label_blocks(field)
            widths, covered = [], 0
            for p in range(attention._PARTS):
                for masked, keys, blocks in attention._class_runs(plan, p, field):
                    covered += sum(rows.size for rows in blocks)
                    if not masked:
                        widths.append(keys.size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(widths) > 400 and min(widths) == n
        assert covered == n  # every position is a row of one block
        assert peak < 8 * n * 8

    @staticmethod
    def forward_and_backward_peaks(rng, monkeypatch):
        """tracemalloc peaks of the forward and of the backward at n = 4096:
        one class over all keys and 200 tiny classes in packed blocks, and the
        bytes of the largest block array. Fails if the dense mask is asked
        for."""
        n = 4096
        sets = [{0}] * (n - 512) + [{0, 1 + i % 200} for i in range(512)]
        field = LabelField.from_label_sets(1, 64, 64, 201, shuffled(rng, sets))
        g = rng.standard_normal((n, 8))
        wts = SelfAttnWeights.seeded(8, seed=5)

        def refuse(*args, **kwargs):
            raise AssertionError("dense mask built")

        monkeypatch.setattr(AttnMask3D, "allowed_rows", refuse)
        tracemalloc.start()
        try:
            masked_3d_self_attention(g, AttnMask3D(field), wts)
            _, fwd_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            masked_3d_self_attention_backward(g, AttnMask3D(field), wts, g)
            _, bwd_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = max(entry.step * entry.n_keys for entry in attention._label_blocks(field)) * 8
        return n, block, fwd_peak, bwd_peak

    def test_no_dense_mask_and_block_sized_memory(self, rng, monkeypatch):
        # At n = 4096 the dense logits alone take 128 MiB; the streamed op
        # holds a few block arrays (at most _BLOCK_BYTES, 2 MiB, each) and
        # never asks for the dense mask.
        n, _, fwd_peak, bwd_peak = self.forward_and_backward_peaks(rng, monkeypatch)
        dense_logits = n * n * 8
        assert fwd_peak < dense_logits // 4 and bwd_peak < dense_logits // 4

    def test_one_block_array_per_pass(self, rng, monkeypatch):
        # On one thread the forward walks a block's keys in tiles: it holds
        # one tile of at most _TILE_BYTES, the block's mask (64 rows over
        # all n keys here) and 8 (n, d) arrays ([q | |q|], [k | 1].T,
        # [v | 1], out, a class run's gathers; more here for the row sums
        # and the smaller ones), never a whole block array. The backward
        # forms a block's weights and then its logit gradients in the
        # logits' own buffer: one block array, one _ROW_CHUNK row chunk of
        # them and the block mask, besides its 12 (n, d) arrays (the
        # forward's inputs [q | |q|], [k | 1].T and [v | 1], dq, each part's
        # dk and dv, a class run's two gathers and their gradients; two more
        # here for the ones columns, the key norms and the smaller ones).
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        n, block, fwd_peak, bwd_peak = self.forward_and_backward_peaks(rng, monkeypatch)
        assert block == attention._BLOCK_BYTES
        rows = block // (n * 8)
        n_by_d = n * 8 * 8
        assert fwd_peak < attention._TILE_BYTES + rows * n + 8 * n_by_d
        chunk = attention._ROW_CHUNK * n * 8
        assert bwd_peak <= block + chunk + rows * n + 14 * n_by_d

    def test_no_op_calls_masked_softmax(self, rng, monkeypatch):
        # Every block, masked or not, forms its weights in its logits' own
        # buffer; the public masked_softmax (a copy) is for callers only.
        def refuse(*args, **kwargs):
            raise AssertionError("masked_softmax called")

        monkeypatch.setattr(attention, "masked_softmax", refuse)
        sets = shuffled(rng, [{0}] * 20 + [{lab for lab in range(6) if rng.random() < 0.4}
                                           for _ in range(40)])
        field = LabelField.from_label_sets(1, 1, len(sets), 6, sets)
        assert any(entry.cls < 0 for entry in attention._label_blocks(field))
        assert_matches_dense_references(rng, sets, 6)
        g, blobs, masks, wts = random_cross_instance(rng, n_blobs=3)
        assert not all(m.bits.all() for m in masks)
        masked_cross_attention(g, blobs, masks, wts)
        attention.masked_cross_attention_backward(g, blobs, masks, wts, g)

    def test_one_forward_and_two_backwards_group_the_field_once(self, rng, monkeypatch):
        calls = []
        unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(args[0].shape)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        sets = shuffled(rng, [{0}] * 20 + [{0, 1}] * 9 + [{1}, {2}, {1, 2}, set()] * 3)
        field = LabelField.from_label_sets(1, 1, len(sets), 3, sets)
        g = rng.standard_normal((len(sets), 4))
        wts = SelfAttnWeights.seeded(4, seed=3)
        masked_3d_self_attention(g, AttnMask3D(field), wts)
        masked_3d_self_attention_backward(g, AttnMask3D(field), wts, g)
        masked_3d_self_attention_backward(g, AttnMask3D(field), wts, g)
        assert calls == [(field.size,)]  # one call, over each position's bitset as one key
        masked_3d_self_attention(g, AttnMask3D(LabelField(1, 1, len(sets), 3, field.bits)), wts)
        assert len(calls) == 2

    def test_packed_masks_match_the_bitsets(self, rng):
        # 12 labels: 2-byte bitsets. 256 positions of mostly distinct small
        # classes and two large classes, so packed blocks run beside own ones.
        sets = shuffled(rng, [{lab for lab in range(12) if rng.random() < 0.3} or {11}
                              for _ in range(2 * attention._BLOCK)] + [{0}] * 30 + [{3, 9}] * 9)
        field = LabelField.from_label_sets(1, 1, len(sets), 12, sets)
        assert field.bits.shape[1] == 2
        blocks = plan_blocks(attention._label_blocks(field))
        packed = [rows for rows, cls in blocks if cls < 0]
        assert len(packed) >= 2 and len(packed) < len(blocks)
        # Each packed block is a masked run of its own. Its mask over its
        # keys is the bitsets' own, and no position outside its keys shares
        # a label with any of its rows, so nothing allowed is skipped.
        positions = np.arange(field.size)
        masked_runs = 0
        for runs in all_class_runs(field):
            for masked, keys, blocks in runs:
                keys = positions[keys]
                outside = np.setdiff1d(positions, keys)
                for rows in blocks:
                    assert not shares_label(field.bits[rows], field.bits[outside]).any()
                    if masked:
                        masked_runs += 1
                        assert np.array_equal(attention._block_allow(field, rows, keys),
                                              shares_label(field.bits[rows], field.bits[keys]))
        assert masked_runs == len(packed)

    def test_reruns_are_bitwise_identical(self, rng):
        sets = shuffled(rng, [{0}] * 40 + [{0, 1}] * 5 + [{1}, {2}, {1, 2}] * 3)
        field = LabelField.from_label_sets(1, 1, len(sets), 3, sets)
        g = rng.standard_normal((len(sets), 4))
        wts = SelfAttnWeights.seeded(4, seed=9)
        a = masked_3d_self_attention_backward(g, AttnMask3D(field), wts, g)
        b = masked_3d_self_attention_backward(g, AttnMask3D(field), wts, g)
        for x, y in zip((a.g, a.wq, a.wk, a.wv), (b.g, b.wq, b.wk, b.wv)):
            assert np.array_equal(x, y)


def many_labels_video(seed: int) -> BlobVideo:
    """The attend-many-labels benchmark's video (perfbench/workloads.py): 10
    seeded, heavily overlapping tracks with anchors every 4 of 13 frames."""
    rng = np.random.default_rng(seed)
    tracks = []
    for k in range(10):
        params, captions = {}, {}
        for t in range(0, 13, 4):
            cx, cy = rng.uniform(200, 520), rng.uniform(140, 340)
            a = rng.uniform(120, 220)
            b = rng.uniform(60, a)
            params[t] = canonicalize(BlobParams(cx, cy, a, b, rng.uniform(-1.5, 1.5)))
            captions[t] = f"object {k} seen at frame {t} ({rng.integers(1 << 30)})"
        tracks.append(BlobTrack(k, params, captions))
    return BlobVideo(13, FrameGeometry(720, 480), 4, tuple(tracks))


def wide_blob_video(rng) -> BlobVideo:
    """A smaller field of the kind of test_class_runs_hold_one_runs_keys_at_a_time:
    one frame-wide blob under 20 moving ones over 5 frames, so every class
    reaches all n keys and over a hundred small classes fill packed blocks."""
    tracks = [BlobTrack(0, {0: BlobParams(48, 48, 80, 80, 0.0)})]
    for i in range(1, 21):
        tracks.append(BlobTrack(i, {t: canonicalize(BlobParams(
            *rng.uniform(0, 96, 2), *rng.uniform(6, 24, 2), rng.uniform(-1.5, 1.5)))
            for t in (0, 4)}))
    return densify(BlobVideo(5, FrameGeometry(96, 96), tracks=tracks))


def bits_of(sets, n_labels):
    return LabelField.from_label_sets(1, 1, len(sets), n_labels, sets).bits


class TestAtScaleOracle:
    """The 3D op against self_attention_oracle on fields of thousands of
    positions, where blocks are cut by bytes, not by _BLOCK, and the dense
    references cannot go: the benchmark fields at seed 1, a many-class field
    and edge fields. Same tolerances as the dense references."""

    @staticmethod
    def check(field, d, seed):
        plan = attention._label_blocks(field)
        assert any(entry.step < attention._BLOCK for entry in plan)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((field.size, d))
        upstream = rng.standard_normal((field.size, d))
        wts = SelfAttnWeights.seeded(d, seed=seed + 3)
        out, sums = masked_3d_self_attention(g, AttnMask3D(field), wts)
        grads = masked_3d_self_attention_backward(g, AttnMask3D(field), wts, upstream)
        want_out, want_sums, want_grads = self_attention_oracle(
            g, field.bits, wts.wq, wts.wk, wts.wv, upstream)
        # pytest.approx(abs=...) without rel, as numpy compares whole arrays.
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-10)
        np.testing.assert_allclose(sums, want_sums, rtol=0, atol=1e-12)
        for got, ref in zip((grads.g, grads.wq, grads.wk, grads.wv), want_grads):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)
        return plan, sums

    def test_few_labels_benchmark_field(self):
        video = densify_layout(parse_layout(EXEMPLAR_2_LAYOUT), 13, FrameGeometry(720, 480))
        field = build_label_field(video, 24, 24)
        assert field.size == 7488 and len(field.classes[2]) == 4
        self.check(field, 16, seed=1)

    def test_many_labels_benchmark_field(self):
        field = build_label_field(densify(many_labels_video(1)), 20, 20)
        assert field.size == 5200 and len(field.classes[2]) > 100
        plan, _ = self.check(field, 16, seed=1)
        assert plan[-1].cls < 0  # packed blocks

    def test_many_classes_that_all_reach_every_key(self, rng):
        field = build_label_field(wide_blob_video(rng), 24, 24)
        assert len(field.classes[2]) > 200
        plan, _ = self.check(field, 8, seed=2)
        assert all(entry.n_keys == field.size for entry in plan) and plan[-1].cls < 0

    @pytest.mark.parametrize("kind", ["few-labels", "many-labels", "wide-blob"])
    def test_forward_peak_below_its_statement(self, kind):
        # Both benchmark fields at width 16 and the many-class field, whose
        # classes all reach every key, at width 8. The inputs and the
        # field's classes, which the attend block states itself, are built
        # before tracing starts.
        if kind == "few-labels":
            video = densify_layout(parse_layout(EXEMPLAR_2_LAYOUT), 13, FrameGeometry(720, 480))
            field, d = build_label_field(video, 24, 24), 16
        elif kind == "many-labels":
            field, d = build_label_field(densify(many_labels_video(1)), 20, 20), 16
        else:
            field, d = build_label_field(wide_blob_video(np.random.default_rng(0)), 24, 24), 8
        field.classes
        mask = AttnMask3D(field)
        g = np.random.default_rng(1).standard_normal((field.size, d))
        wts = SelfAttnWeights.seeded(d, seed=4)
        tracemalloc.start()
        try:
            masked_3d_self_attention(g, mask, wts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < attention._self_attention_bytes(field.size, d)

    def test_one_class(self):
        n = 3000
        self.check(LabelField(1, 1, n, 1, np.ones((n, 1), dtype=np.uint8)), 8, seed=3)

    def test_every_position_its_own_class(self):
        # Position i holds the labels of the bits of i + 1: 2,500 distinct
        # non-empty sets over 12 labels, all in packed blocks over n keys.
        sets = [{b for b in range(12) if (i + 1) >> b & 1} for i in range(2500)]
        field = LabelField(1, 1, len(sets), 12, bits_of(sets, 12))
        plan, _ = self.check(field, 8, seed=4)
        assert [entry.cls for entry in plan] == [-1]

    def test_empty_label_sets(self, rng):
        sets = [{lab for lab in range(4) if rng.random() < 0.5} for _ in range(3000)]
        field = LabelField(1, 1, len(sets), 4, bits_of(sets, 4))
        _, sums = self.check(field, 8, seed=5)
        empty = np.array([not labs for labs in sets])
        assert empty.sum() > 100 and np.all(sums[empty] == 0.0)


@st.composite
def label_set_lists(draw):
    """(n_labels, label sets) of at most 192 positions over 1-20 labels (1-3
    bitset bytes): up to 12 classes of 1-16 positions each, around
    _SMALL_CLASS, so some run as blocks of their own and some packed under a
    mask; some sets are empty. In drawn order."""
    n_labels = draw(st.integers(1, 20))
    classes = draw(st.lists(st.tuples(st.sets(st.integers(0, n_labels - 1), max_size=4),
                                      st.integers(1, 2 * attention._SMALL_CLASS)),
                            min_size=1, max_size=12))
    sets = [labs for labs, count in classes for _ in range(count)]
    return n_labels, draw(st.permutations(sets))


def assert_forward_matches(out, sums, want, want_sums, q, k, v):
    """A forward against its dense reference at the existing tolerances: abs
    1e-10 on the outputs, 1e-12 on the row sums. Both sides round a logit
    of row i by a few ulp of |q_i| max_j |k_j|, which moves the weights of
    its nearly tied largest logits by that much, relative, and the output
    row by that much of the largest value: at unit features far below
    1e-10, at features x 1000 above it."""
    ties = 2.0 ** -44 * np.linalg.norm(q, axis=1) * np.linalg.norm(k, axis=1).max(initial=0.0)
    room = 1e-10 + ties * np.abs(v).max(initial=0.0)
    assert np.all(np.abs(out - want) <= room[:, None])
    np.testing.assert_allclose(sums, want_sums, rtol=0, atol=1e-12)


_SCALES = st.sampled_from([1.0, 30.0, 1000.0])
_GUARDS = st.sampled_from([0.0, attention._SHIFT_LIMIT])


class TestForwardFuzz:
    """The forward kernel (_attend) of both ops against the dense
    references on drawn inputs, with features scaled up to x 1000, so that
    rows pass the shift limit, and _SHIFT_LIMIT 0, which sends every row
    through the guard's exact row max."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(label_set_lists(), st.sampled_from([2, 4, 8]), _SCALES, _GUARDS,
           st.sampled_from([1, 2, 3, attention._BLOCK]), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_3d_forward_matches_the_dense_reference(self, drawn, d, scale, limit, block,
                                                    tile_keys, seed):
        # A block of one row walks its keys tile_keys at a time, so the last
        # tile may be partial; a block of more rows, one key at a time.
        n_labels, sets = drawn
        n = len(sets)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, d)) * scale
        wts = SelfAttnWeights.seeded(d, seed=seed)
        field = LabelField.from_label_sets(1, 1, n, n_labels, sets)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(attention, "_BLOCK", block)
            m.setattr(attention, "_TILE_BYTES", 8 * tile_keys)
            m.setattr(attention, "_SHIFT_LIMIT", limit)
            out, sums = masked_3d_self_attention(g, AttnMask3D(field), wts)
        want = self_attention_reference(g, sets, wts.wq, wts.wk, wts.wv)
        want_sums = np.array([1.0 if labs else 0.0 for labs in sets])
        assert_forward_matches(out, sums, want, want_sums,
                               g @ wts.wq / math.sqrt(d), g @ wts.wk, g @ wts.wv)

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3), st.integers(1, 4),
           st.sampled_from([2, 4, 8]), st.sampled_from([2, 4, 8]), _SCALES, _GUARDS,
           st.integers(0, 2**32 - 1))
    def test_cross_forward_matches_the_dense_reference(self, h, w, n_blobs, tokens, d, d_g,
                                                       scale, limit, seed):
        # Each blob covers a random half of the locations, so some are
        # covered by no blob.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((h * w, d_g)) * scale
        blobs = [EmbeddingSeq(rng.standard_normal((tokens, d))) for _ in range(n_blobs)]
        bits = [rng.random((h, w)) < 0.5 for _ in range(n_blobs)]
        wts = CrossAttnWeights.seeded(n_blobs, d, d_g, seed=seed)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(attention, "_SHIFT_LIMIT", limit)
            out, sums = masked_cross_attention(g, blobs, [BinaryMask(b) for b in bits], wts)
        want = cross_attention_reference(g, [b.data for b in blobs], bits,
                                         wts.wq, list(wts.wk), list(wts.wv))
        covered = np.zeros(h * w)
        k = v = np.zeros((0, d_g))
        for b, blob, wk, wv in zip(bits, blobs, wts.wk, wts.wv):
            covered[b.ravel()] = 1.0
            k, v = np.vstack([k, blob.data @ wk]), np.vstack([v, blob.data @ wv])
        assert_forward_matches(out, sums, want, covered, g @ wts.wq / math.sqrt(d_g), k, v)


def logit_rounding_rooms(probs, q, k, v, up):
    """Bounds, one per row, of how far rounding can move the gradients of
    the scaled queries q, the keys k and the values v, given the dense
    weights probs and the upstream rows up.

    Each side rounds a logit of row i by a few ulp of |q_i| max_j |k_j|
    (assert_forward_matches), which moves a weight p of the row by up to
    r_i p (1 - p), with r_i = 2^-44 |q_i| max_j |k_j|: a weight near 1
    stays. The logit gradients p (dp - rowsum(p dp)), dp = up @ v.T, then
    move by that times m = |up| @ |v|.T + rowsum(p |up| @ |v|.T), a bound
    of |dp - rowsum(p dp)|, and by p times the row's sum of those moves;
    and each product rounds by up to 2^-44 of its terms' absolute values,
    p m for the logit gradients, once more for their products."""
    gamma = 2.0 ** -44
    q_norms, k_norms, up_norms = (np.linalg.norm(a, axis=1) for a in (q, k, up))
    moved = (gamma * q_norms * k_norms.max(initial=0.0))[:, None] * probs * (1 - probs)
    m = np.abs(up) @ np.abs(v).T
    m += (probs * m).sum(axis=1, keepdims=True)
    dlogits = moved * m
    dlogits += probs * dlogits.sum(axis=1, keepdims=True) + 2 * gamma * probs * m
    return dlogits @ k_norms, dlogits.T @ q_norms, (moved + 2 * gamma * probs).T @ up_norms


def assert_within(got, want, room):
    """got against want at abs 1e-10 plus room, which broadcasts."""
    assert np.all(np.abs(got - want) <= 1e-10 + room)


class TestBackwardFuzz:
    """The backward kernel (_attend_backward) of both ops against the dense
    references on drawn inputs, at the forward fuzz's scales and shift
    limits. Unit features keep the references' abs 1e-10; scaled ones add
    the room that the logits' rounding leaves (logit_rounding_rooms), where
    the weights of nearly tied large logits move on both sides."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(label_set_lists(), st.sampled_from([2, 4, 8]), _SCALES, _GUARDS,
           st.sampled_from([1, 2, 3, attention._BLOCK]), st.sampled_from([1, 3, 16]),
           st.sampled_from([1, 2, 8, None]), st.integers(0, 2**32 - 1))
    @example(drawn=(3, [{0}, {1}, {0, 1}, {2}, {1, 2}, set()]), d=4, scale=1000.0,
             limit=attention._SHIFT_LIMIT, block=attention._BLOCK, chunk=attention._ROW_CHUNK,
             small=attention._SMALL_CLASS, seed=0)
    def test_3d_backward_matches_the_dense_reference(self, drawn, d, scale, limit, block, chunk,
                                                     small, seed):
        # _SMALL_CLASS None is n + 1: every class packed. The explicit
        # example packs every class into one block whose guarded rows have
        # blocked logits far above their shifts, which overflow unless they
        # are zeroed before the exp.
        n_labels, sets = drawn
        n = len(sets)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, d)) * scale
        upstream = rng.standard_normal((n, d))
        wts = SelfAttnWeights.seeded(d, seed=seed)
        field = LabelField.from_label_sets(1, 1, n, n_labels, sets)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(attention, "_BLOCK", block)
            m.setattr(attention, "_ROW_CHUNK", chunk)
            m.setattr(attention, "_SMALL_CLASS", n + 1 if small is None else small)
            m.setattr(attention, "_SHIFT_LIMIT", limit)
            grads = masked_3d_self_attention_backward(g, AttnMask3D(field), wts, upstream)
        want = self_attention_backward_reference(g, sets, wts.wq, wts.wk, wts.wv, upstream)
        rq = rk = rv = np.zeros(n)
        if scale > 1:
            q, k, v = g @ wts.wq, g @ wts.wk, g @ wts.wv
            rq, rk, rv = logit_rounding_rooms(self_attention_probs_reference(q, k, sets),
                                              q / math.sqrt(d), k, v, upstream)
            rq /= math.sqrt(d)  # dq is the gradient of the unscaled query
        rooms = [(rq * np.linalg.norm(wts.wq) + rk * np.linalg.norm(wts.wk)
                  + rv * np.linalg.norm(wts.wv))[:, None]]
        rooms += [(np.abs(g).T @ r)[:, None] for r in (rq, rk, rv)]
        for got, ref, room in zip((grads.g, grads.wq, grads.wk, grads.wv), want, rooms):
            assert_within(got, ref, room)

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3), st.integers(1, 4),
           st.sampled_from([2, 4, 8]), st.sampled_from([2, 4, 8]), _SCALES, _GUARDS,
           st.integers(0, 2**32 - 1))
    def test_cross_backward_matches_the_dense_reference(self, h, w, n_blobs, tokens, d, d_g,
                                                        scale, limit, seed):
        # Each blob covers a random half of the locations, so some are
        # covered by no blob.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((h * w, d_g)) * scale
        upstream = rng.standard_normal((h * w, d_g))
        blobs = [EmbeddingSeq(rng.standard_normal((tokens, d))) for _ in range(n_blobs)]
        bits = [rng.random((h, w)) < 0.5 for _ in range(n_blobs)]
        wts = CrossAttnWeights.seeded(n_blobs, d, d_g, seed=seed)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(attention, "_SHIFT_LIMIT", limit)
            grads = attention.masked_cross_attention_backward(
                g, blobs, [BinaryMask(b) for b in bits], wts, upstream)
        arrays = [b.data for b in blobs]
        dg, dblobs, dwq, dwk, dwv = cross_attention_backward_reference(
            g, arrays, bits, wts.wq, list(wts.wk), list(wts.wv), upstream)
        rq, rk = np.zeros(h * w), np.zeros(n_blobs * tokens)
        rv = rk
        if scale > 1:
            rq, rk, rv = logit_rounding_rooms(
                cross_attention_probs_reference(g, arrays, bits, wts.wq, list(wts.wk)),
                g @ wts.wq / math.sqrt(d_g), stacked_tokens(arrays, wts.wk, d_g),
                stacked_tokens(arrays, wts.wv, d_g), upstream)
            rq /= math.sqrt(d_g)
        assert_within(grads.g, dg, (rq * np.linalg.norm(wts.wq))[:, None])
        assert_within(grads.wq, dwq, (np.abs(g).T @ rq)[:, None])
        for n, (a, wk, wv) in enumerate(zip(arrays, wts.wk, wts.wv)):
            sl = slice(n * tokens, (n + 1) * tokens)
            assert_within(grads.blobs[n], dblobs[n],
                          (rk[sl] * np.linalg.norm(wk) + rv[sl] * np.linalg.norm(wv))[:, None])
            assert_within(grads.wk[n], dwk[n], (np.abs(a).T @ rk[sl])[:, None])
            assert_within(grads.wv[n], dwv[n], (np.abs(a).T @ rv[sl])[:, None])


class TestGatedFuse:
    def test_zero_gate_is_identity(self, rng):
        x = rng.standard_normal((3, 4))
        attn = rng.standard_normal((3, 4))
        assert np.array_equal(gated_fuse(x, attn, 0.0), x)

    def test_formula(self, rng):
        x = rng.standard_normal((3, 4))
        attn = rng.standard_normal((3, 4))
        out = gated_fuse(x, attn, 0.7)
        assert out == pytest.approx(x + math.tanh(0.7) * attn, abs=1e-15)

    def test_backward_matches_finite_difference(self, rng):
        x = rng.standard_normal((3, 4))
        attn = rng.standard_normal((3, 4))
        gamma = 0.4
        upstream = rng.standard_normal((3, 4))

        def loss(vals):
            return float((upstream * gated_fuse(vals[0], vals[1], float(vals[2][0]))).sum())

        fd = central_difference_grads(loss, [x, attn, np.array([gamma])])
        dx, dattn, dgamma = gated_fuse_backward(x, attn, gamma, upstream)
        assert relative_error(dx, fd[0]) < 1e-6
        assert relative_error(dattn, fd[1]) < 1e-6
        assert relative_error(np.array([dgamma]), fd[2]) < 1e-6


class TestGradCheckHelpers:
    def test_central_difference_on_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])

        def loss(vals):
            return float((vals[0] ** 2).sum())

        (grad,) = central_difference_grads(loss, [x])
        assert grad == pytest.approx(2 * x, abs=1e-6)

    def test_relative_error_uses_floor(self):
        a = np.array([1e-9])
        n = np.array([2e-9])
        # Both below the floor: difference is measured against it.
        assert relative_error(a, n) == pytest.approx(1e-9 / 1e-3)

    def test_relative_error_empty(self):
        assert relative_error(np.zeros(0), np.zeros(0)) == 0.0
