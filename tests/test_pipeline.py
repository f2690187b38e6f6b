import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from blobvid import attention, embedding, labelfield, pipeline
from blobvid.blobs import BlobParams, FrameGeometry
from blobvid.config import Config
from blobvid.embedding import (
    DeterministicStub,
    MlpWeights,
    blob_embed,
    fourier_encode,
    interp_linear,
    interp_slerp,
)
from blobvid.errors import RangeError, ShapeError, TooLarge
from blobvid.exemplars import EXEMPLAR_2_LAYOUT
from blobvid.layout import densify_layout, parse_layout
from blobvid.pipeline import AttendStats, context_embeddings, run_attend_block
from blobvid.video import BlobTrack, BlobVideo, densify


GEOM = FrameGeometry(64, 64)


def track_with_captions(captions, frames=(0, 4, 8)):
    params = {t: BlobParams(20.0 + t, 20.0, 8.0, 5.0, 0.2) for t in frames}
    return BlobTrack(0, params, captions)


def make_video(tracks, num_frames=9):
    return BlobVideo(num_frames, GEOM, tracks=tuple(tracks))


def traced(fn):
    """(fn(), the tracemalloc peak of the call)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestContextEmbeddings:
    def test_anchor_frames_embed_their_caption(self):
        provider = DeterministicStub(dim=6, n_tokens=3)
        v = make_video([track_with_captions({0: "a cat", 8: "a dog"})])
        ctx = context_embeddings(v, provider)
        assert ctx[(0, 0)] is provider.embed("a cat") or np.array_equal(
            ctx[(0, 0)].data, provider.embed("a cat").data
        )
        assert np.array_equal(ctx[(0, 8)].data, provider.embed("a dog").data)

    def test_outside_span_copies_nearest(self):
        provider = DeterministicStub(dim=6, n_tokens=3)
        v = make_video([track_with_captions({4: "mid"})])
        ctx = context_embeddings(v, provider)
        mid = provider.embed("mid")
        for t in (0, 1, 2, 3, 5, 8):
            assert np.array_equal(ctx[(0, t)].data, mid.data)

    def test_interior_linear_interpolation(self):
        provider = DeterministicStub(dim=6, n_tokens=3)
        v = make_video([track_with_captions({0: "a", 8: "b"})])
        ctx = context_embeddings(v, provider)
        e0, e1 = provider.embed("a"), provider.embed("b")
        want = interp_linear(e0, e1, 3, 8, t_anchor=0)
        assert np.allclose(ctx[(0, 3)].data, want.data, atol=0, rtol=0)

    def test_interior_slerp(self):
        provider = DeterministicStub(dim=6, n_tokens=3)
        v = make_video([track_with_captions({0: "a", 8: "b"})])
        ctx = context_embeddings(v, provider, method="slerp")
        e0, e1 = provider.embed("a"), provider.embed("b")
        want = interp_slerp(e0, e1, 3 / 8)
        assert np.array_equal(ctx[(0, 3)].data, want.data)

    def test_orientation_changes_linear_only(self):
        # The attend block's output, for both interpolation methods: slerp
        # ignores the orientation, linear does not.
        v = make_video([track_with_captions({0: "a", 8: "b"}), track_with_captions({4: "c"})])
        for method, same in (("slerp", True), ("linear", False)):
            outs = [run_attend_block(v, Config(feature_h=6, feature_w=6, seed=3,
                                               interp_method=method,
                                               interp_orientation=orientation), dim=8)[0]
                    for orientation in ("as_printed", "standard")]
            assert np.array_equal(*outs) is same

    def test_multiple_caption_spans(self):
        provider = DeterministicStub(dim=6, n_tokens=3)
        v = make_video([track_with_captions({0: "a", 4: "b", 8: "c"})])
        ctx = context_embeddings(v, provider)
        want = interp_linear(provider.embed("b"), provider.embed("c"), 6, 4, t_anchor=4)
        assert np.allclose(ctx[(0, 6)].data, want.data, atol=0, rtol=0)

    def test_uncaptioned_track_embeds_empty_string(self):
        provider = DeterministicStub(dim=6, n_tokens=3)
        v = make_video([track_with_captions({})])
        ctx = context_embeddings(v, provider)
        empty = provider.embed("")
        for t in range(9):
            assert np.array_equal(ctx[(0, t)].data, empty.data)

    def test_every_pair_present(self):
        provider = DeterministicStub(dim=4, n_tokens=2)
        v = make_video([track_with_captions({0: "a"}), track_with_captions({8: "b"})])
        ctx = context_embeddings(v, provider)
        assert set(ctx) == {(n, t) for n in range(2) for t in range(9)}


class TestRunAttendBlock:
    CFG = Config(feature_h=6, feature_w=6, seed=11)

    def test_shapes_and_stats(self):
        v = make_video([track_with_captions({0: "a", 8: "b"})])
        out, stats = run_attend_block(v, self.CFG, dim=8, n_tokens=2)
        assert out.shape == (9 * 36, 8)
        assert isinstance(stats, AttendStats)
        assert stats.rows == 9 * 36
        assert stats.row_sum_max_err < 1e-12
        assert np.isfinite(out).all()

    def test_deterministic(self):
        v = make_video([track_with_captions({0: "a", 8: "b"})])
        out1, s1 = run_attend_block(v, self.CFG, dim=8)
        out2, s2 = run_attend_block(v, self.CFG, dim=8)
        assert np.array_equal(out1, out2)
        assert s1 == s2

    def test_threads_do_not_change_output(self):
        v = make_video([
            track_with_captions({0: "a", 8: "b"}),
            track_with_captions({4: "c"}),
        ])
        out1, s1 = run_attend_block(v, self.CFG, dim=8, threads=1)
        out4, s4 = run_attend_block(v, self.CFG, dim=8, threads=4)
        assert np.array_equal(out1, out4)
        assert s1 == s4

    def test_seed_changes_output(self):
        v = make_video([track_with_captions({0: "a"})])
        out1, _ = run_attend_block(v, self.CFG, dim=8)
        out2, _ = run_attend_block(v, Config(feature_h=6, feature_w=6, seed=12), dim=8)
        assert not np.array_equal(out1, out2)

    def test_video_without_tracks(self):
        # No blob tokens: every position's cross-attention is a zero row, and
        # in the 3D attention every position holds the background label.
        v = make_video([], num_frames=3)
        out, stats = run_attend_block(v, Config(feature_h=4, feature_w=4, seed=11), dim=8)
        assert out.shape == (48, 8) and np.isfinite(out).all()
        assert stats.rows == stats.zero_rows == 48

    @pytest.mark.parametrize("n_tracks", [1, 3])
    @pytest.mark.parametrize("method", ["linear", "slerp"])
    def test_frame_tokens_equal_one_blob_embeddings(self, monkeypatch, method, n_tracks):
        # Each frame embeds all of its blobs in one call; its tokens are bit
        # for bit those of one blob_embed(fourier_encode(...)) call per blob.
        frames = []
        cross = pipeline.masked_cross_attention

        def keep_tokens(g, blobs, masks, wts):
            frames.append(blobs)
            return cross(g, blobs, masks, wts)

        monkeypatch.setattr(pipeline, "masked_cross_attention", keep_tokens)
        v = make_video([BlobTrack(k, {t: BlobParams(20.0 + 3 * t + 7 * k, 24.0 - k, 9.0 + k,
                                                     5.0, 0.2 * k) for t in (0, 4, 8)},
                                  {0: f"a{k}", 8: f"b{k}"}) for k in range(n_tracks)])
        cfg = Config(feature_h=6, feature_w=6, seed=11, interp_method=method)
        run_attend_block(v, cfg, dim=8, n_tokens=3)
        dense = densify(v)
        ctx = context_embeddings(dense, DeterministicStub(dim=4, n_tokens=3), method=method,
                                 orientation=cfg.interp_orientation)
        mlp = MlpWeights.seeded(8, seed=cfg.seed + 1)
        assert len(frames) == 9
        for t, blobs in enumerate(frames):
            assert len(blobs) == n_tracks
            for n, track in enumerate(dense.tracks):
                e_tau = fourier_encode(track.params[t], dense.geom, cfg.fourier_freqs, 4, cfg.seed)
                assert np.array_equal(blobs[n].data, blob_embed(e_tau, ctx[(n, t)], mlp).data)

    def test_sparse_video_densified_internally(self):
        v = make_video([track_with_captions({0: "a"})])
        assert not v.is_dense()
        out, _ = run_attend_block(v, self.CFG, dim=8)
        assert out.shape[0] == 9 * 36

    @pytest.mark.parametrize("dim", [0, 1, 3, 7])
    def test_rejects_bad_width(self, dim):
        v = make_video([track_with_captions({0: "a"})])
        with pytest.raises(ShapeError):
            run_attend_block(v, self.CFG, dim=dim)

    @pytest.mark.parametrize("n_tokens", [0, -1])
    def test_rejects_fewer_than_one_token_before_densifying(self, monkeypatch, n_tokens):
        monkeypatch.setattr(pipeline, "densify", None)
        v = make_video([track_with_captions({0: "a"})])
        with pytest.raises(RangeError, match=f"token count must be at least 1, got {n_tokens}"):
            run_attend_block(v, self.CFG, dim=8, n_tokens=n_tokens)

    def test_budget_counts_label_bytes_working_arrays_and_block_arrays(self):
        # 9 frames of 6x6 features at width 8. A track more adds its masks,
        # labels and tokens. The plan holds the 3D forward's working arrays
        # and block arrays, which at 4 tokens per track outweigh a frame's
        # stage: the two never overlap, so frames in flight add nothing.
        plan = functools.partial(pipeline._attend_bytes, 9)
        assert plan(7, 6, 6, 8, 4, 8, 1) < plan(8, 6, 6, 8, 4, 8, 1)
        assert plan(8, 6, 6, 8, 4, 8, 1) > attention._self_attention_bytes(9 * 36, 8)
        assert plan(8, 6, 6, 8, 4, 8, 3) == plan(8, 6, 6, 8, 4, 8, 1)
        # At 3,000 tokens per track the frames outweigh the 3D forward, and
        # each frame in flight adds one frame's stage, up to all 9.
        wide = functools.partial(plan, 8, 6, 6, 8, 3000, 8)
        frame = wide(2) - wide(1)
        assert frame > 0
        assert [wide(k + 1) - wide(k) for k in range(1, 9)] == [frame] * 8
        assert wide(50) == wide(9)

    def test_budget_of_a_large_field_is_arithmetic(self):
        # 13 frames of 96x96 features at width 16 with 21 tracks (n =
        # 119,808) fit, and the same tracks on a 320x320 grid, far above the
        # largest grid that fits, are refused. Planned, never allocated.
        budget = pipeline._ATTEND_BUDGET_BYTES
        plan = functools.partial(pipeline._attend_bytes, 13, 21)
        assert plan(96, 96, 16, 4, 8, 1) < budget < plan(320, 320, 16, 4, 8, 1)

    def test_budget_grows_with_tokens_and_fourier_frequencies(self):
        # On the benchmark's 3 tracks over 13 frames, at an 8x8 grid: 50,000
        # tokens per track traced a 299 MB peak and still fit; 10**9 tokens,
        # or 10**6 frequencies (a 10**7-square QR), are refused by
        # arithmetic. Planned, never allocated. Each token or frequency more
        # grows the plan.
        budget = pipeline._ATTEND_BUDGET_BYTES
        plan = functools.partial(pipeline._attend_bytes, 13, 3, 8, 8, 16)
        assert 299e6 < plan(50_000, 8, 1) < budget < plan(10**9, 8, 1)
        assert plan(4, 300, 1) < budget < plan(4, 10**6, 1)
        for tokens in (1, 4, 600, 3000, 50_000):
            assert plan(tokens + 1, 8, 1) > plan(tokens, 8, 1)
        for freqs in (1, 8, 150, 300):
            assert plan(4, freqs + 1, 1) > plan(4, freqs, 1)

    def test_budget_covers_the_traced_peak(self):
        # The benchmark's attend block, 3 tracks over 13 frames of 24x24
        # features at width 16 (n = 7,488), at the host's CPU count: every
        # array it allocates fits in the plan.
        self.assert_traced_peak_within_plan(24, 4, 8)

    @pytest.mark.parametrize("n_tokens, freqs", [(600, 8), (4, 150)],
                             ids=["many-tokens", "many-frequencies"])
    def test_budget_covers_the_traced_peak_of_wide_captions(self, n_tokens, freqs):
        # The same tracks at an 8x8 grid, with many tokens or many Fourier
        # frequencies, each of which outgrows the (n, d) arrays.
        self.assert_traced_peak_within_plan(8, n_tokens, freqs)

    def test_budget_covers_the_token_mlp_of_a_frame(self):
        # On a 2x2 grid the logits are small, and the MLP that embeds all of
        # a frame's 3 x 3,000 blob tokens at once sets the peak.
        self.assert_traced_peak_within_plan(2, 3000, 8)

    @staticmethod
    def assert_traced_peak_within_plan(grid, n_tokens, freqs):
        v = densify_layout(parse_layout(EXEMPLAR_2_LAYOUT), 13, FrameGeometry(720, 480))
        embedding._projection.cache_clear()
        tracemalloc.start()
        try:
            run_attend_block(v, Config(feature_h=grid, feature_w=grid, seed=1,
                                       fourier_freqs=freqs), dim=16, n_tokens=n_tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pipeline._attend_bytes(13, 3, grid, grid, 16, n_tokens, freqs, 1)

    @pytest.mark.parametrize("grid, n_tokens", [(24, 4), (2, 3000), (8, 600)])
    def test_frame_ops_peak_below_their_statements(self, grid, n_tokens):
        # One frame of the exemplar's 3 tracks: blob_embed over all its
        # tokens, then the cross-attention to them, each traced alone with
        # its inputs built before tracing starts.
        v = densify_layout(parse_layout(EXEMPLAR_2_LAYOUT), 13, FrameGeometry(720, 480))
        e_tau = fourier_encode([track.params[0] for track in v.tracks], v.geom, 8, 8, 1)
        provider = DeterministicStub(dim=8, n_tokens=n_tokens)
        e_s = [provider.embed(f"blob {k}") for k in range(3)]
        mlp = MlpWeights.seeded(16, seed=2)
        blobs, peak = traced(lambda: blob_embed(e_tau, e_s, mlp))
        assert peak < embedding._blob_embed_bytes(3 * n_tokens, 16)
        masks, _ = labelfield.per_frame_masks(v, 0, grid, grid)
        g = np.random.default_rng(1).standard_normal((grid * grid, 16))
        wts = attention.CrossAttnWeights.seeded(3, 16, 16, seed=3)
        _, peak = traced(lambda: attention.masked_cross_attention(g, blobs, masks, wts))
        assert peak < attention._cross_attention_bytes(grid * grid, 3 * n_tokens, 16)

    @pytest.mark.parametrize("freqs", [2, 4, 8, 150])
    def test_projection_peak_below_its_statement(self, freqs):
        # The QR of the (10 F)^2 Gaussian, traced alone. A process's first
        # QR sets up the generator and LAPACK once (about 0.95 MB), which is
        # done here first; the statement's fixed allowance covers the small
        # allocations that outweigh the arrays' slack at F = 2 and 4.
        embedding._projection(10, 8, 0)
        embedding._projection.cache_clear()
        _, peak = traced(lambda: embedding._projection(10 * freqs, 8, 1))
        assert peak < embedding._projection_bytes(10 * freqs)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_rasterizes_each_track_once_per_frame(self, monkeypatch, threads):
        # The cross-attention's masks are packed into the label field, so
        # each of the 2 tracks is rasterized once in each of the 9 frames.
        calls = []
        drawn = labelfield.rasterize

        def counting_rasterize(*args, **kwargs):
            calls.append(args[0])
            return drawn(*args, **kwargs)

        monkeypatch.setattr(labelfield, "rasterize", counting_rasterize)
        v = make_video([track_with_captions({0: "a"}), track_with_captions({8: "b"}, (1, 7))])
        run_attend_block(v, self.CFG, dim=8, threads=threads)
        assert len(calls) == 9 * 2

    def test_refuses_above_the_budget_before_densifying(self, monkeypatch):
        v = make_video([track_with_captions({0: "a"})])
        need = pipeline._attend_bytes(9, 1, 6, 6, 8, 4, self.CFG.fourier_freqs, 1)
        monkeypatch.setattr(pipeline, "_ATTEND_BUDGET_BYTES", need)
        run_attend_block(v, self.CFG, dim=8)
        monkeypatch.setattr(pipeline, "_ATTEND_BUDGET_BYTES", need - 1)
        monkeypatch.setattr(pipeline, "densify", None)
        with pytest.raises(TooLarge, match=f"needs {need} bytes"):
            run_attend_block(v, self.CFG, dim=8)

    def test_stats_to_dict_keys(self):
        s = AttendStats(rows=3, zero_rows=0, row_sum_max_err=0.0, max_abs_output=1.5)
        assert dataclasses.asdict(s) == {
            "rows": 3, "zero_rows": 0, "row_sum_max_err": 0.0, "max_abs_output": 1.5,
        }
