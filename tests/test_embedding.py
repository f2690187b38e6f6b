import json
import math

import numpy as np
import pytest
from scipy.special import erf

from blobvid import embedding
from blobvid.blobs import BlobParams, FrameGeometry
from blobvid.embedding import (
    DeterministicStub,
    EmbeddingSeq,
    MlpWeights,
    blob_embed,
    fourier_encode,
    fourier_features,
    interp_linear,
    interp_slerp,
    interp_weights,
    normalize_params,
    read_embedding,
    write_embedding,
)
from blobvid.errors import DegenerateVector, RangeError, ShapeError

GEOM = FrameGeometry(64, 36)  # sqrt(64*36) = 48


class TestNormalizeParams:
    def test_hand_computed(self):
        u = normalize_params(BlobParams(32.0, 9.0, 12.0, 6.0, 0.0), GEOM)
        assert u == pytest.approx([0.5, 0.25, 0.25, 0.125, 0.5])

    def test_canonicalizes_first(self):
        # Swapped axes plus rotated angle describe the same ellipse.
        u1 = normalize_params(BlobParams(10, 10, 6.0, 12.0, 0.25), GEOM)
        u2 = normalize_params(BlobParams(10, 10, 12.0, 6.0, 0.25 + math.pi / 2), GEOM)
        assert u1 == pytest.approx(list(u2), abs=1e-12)

    def test_angle_range_maps_to_unit(self):
        lo = normalize_params(BlobParams(1, 1, 2, 1, -math.pi / 2 + 1e-9), GEOM)
        hi = normalize_params(BlobParams(1, 1, 2, 1, math.pi / 2), GEOM)
        assert 0.0 < lo[4] < 1e-8
        assert hi[4] == 1.0


class TestFourierFeatures:
    def test_matches_loop_reference(self):
        u = np.array([0.1, 0.7, 0.25, 0.33, 0.9])
        F = 4
        got = fourier_features(u, F)
        want = []
        for f in range(F):
            for i in range(5):
                want.append(math.sin((2.0**f) * math.pi * u[i]))
                want.append(math.cos((2.0**f) * math.pi * u[i]))
        assert got == pytest.approx(want, abs=1e-15)
        assert got.shape == (10 * F,)

    def test_bounded(self, rng):
        for _ in range(10):
            u = rng.uniform(0, 1, size=5)
            feats = fourier_features(u, 6)
            assert np.all(np.abs(feats) <= 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(RangeError):
            fourier_features(np.zeros(5), 0)
        with pytest.raises(ShapeError):
            fourier_features(np.zeros(4), 2)
        with pytest.raises(ShapeError):
            fourier_features(np.zeros((3, 4)), 2)
        with pytest.raises(ShapeError):
            fourier_features(0.5, 2)

    def test_leading_axes_are_rows_of_one_vector_calls(self, rng):
        u = rng.uniform(0, 1, size=(2, 3, 5))
        got = fourier_features(u, 4)
        assert got.shape == (2, 3, 40)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], fourier_features(u[i, j], 4))


class TestFourierEncode:
    def test_deterministic_per_seed(self):
        p = BlobParams(20, 20, 8, 4, 0.3)
        e1 = fourier_encode(p, GEOM, n_freqs=4, out_dim=8, seed=5)
        e2 = fourier_encode(p, GEOM, n_freqs=4, out_dim=8, seed=5)
        e3 = fourier_encode(p, GEOM, n_freqs=4, out_dim=8, seed=6)
        assert np.array_equal(e1, e2)
        assert not np.array_equal(e1, e3)

    def test_projection_preserves_norm_at_full_rank(self):
        # With out_dim == 10F the projection is orthonormal square: an isometry.
        p = BlobParams(20, 20, 8, 4, 0.3)
        raw = fourier_features(normalize_params(p, GEOM), 2)
        enc = fourier_encode(p, GEOM, n_freqs=2, out_dim=20, seed=0)
        assert np.linalg.norm(enc) == pytest.approx(np.linalg.norm(raw), rel=1e-12)

    def test_out_dim_bounds(self):
        p = BlobParams(20, 20, 8, 4, 0.3)
        with pytest.raises(ShapeError):
            fourier_encode(p, GEOM, n_freqs=2, out_dim=21)
        with pytest.raises(ShapeError):
            fourier_encode(p, GEOM, n_freqs=2, out_dim=0)

    def test_same_ellipse_same_encoding(self):
        e1 = fourier_encode(BlobParams(10, 10, 6, 12, 0.25), GEOM, 3, 8, 0)
        e2 = fourier_encode(BlobParams(10, 10, 12, 6, 0.25 + math.pi / 2), GEOM, 3, 8, 0)
        assert e1 == pytest.approx(list(e2), abs=1e-12)


class TestBlobEmbed:
    def test_identity_mlp_passthrough(self):
        e_tau = np.array([1.0, -2.0, 3.0])
        e_s = EmbeddingSeq(np.array([[0.5, 0.25, -0.125], [4.0, 5.0, 6.0]]))
        # GELU(x) == x exactly once erf saturates at 1.0, so shifting every
        # hidden unit to x + 64 and back is an exact identity on these values.
        d = 6
        mlp = MlpWeights(np.eye(d), np.full(d, 64.0), np.eye(d), np.full(d, -64.0))
        out = blob_embed(e_tau, e_s, mlp)
        want = np.array([[1.0, -2.0, 3.0, 0.5, 0.25, -0.125],
                         [1.0, -2.0, 3.0, 4.0, 5.0, 6.0]])
        assert np.array_equal(out.data, want)

    def test_gelu_matches_erf_formula(self, rng):
        half = 3
        e_tau = rng.standard_normal(half)
        e_s = EmbeddingSeq(rng.standard_normal((2, half)))
        mlp = MlpWeights.seeded(2 * half, seed=11)
        out = blob_embed(e_tau, e_s, mlp)
        x = np.concatenate([np.tile(e_tau, (2, 1)), e_s.data], axis=1)
        pre = x @ mlp.w1 + mlp.b1
        hidden = 0.5 * pre * (1.0 + erf(pre / math.sqrt(2.0)))
        want = hidden @ mlp.w2 + mlp.b2
        assert out.data == pytest.approx(want, abs=1e-12)

    def test_width_mismatch(self):
        e_s = EmbeddingSeq(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            blob_embed(np.ones(4), e_s, MlpWeights.seeded(6, seed=0))
        with pytest.raises(ShapeError):
            blob_embed(np.ones(3), e_s, MlpWeights.seeded(4, seed=0))
        with pytest.raises(ShapeError):
            blob_embed(np.ones((2, 3)), [e_s], MlpWeights.seeded(6, seed=0))
        with pytest.raises(ShapeError):
            blob_embed(np.ones(()), e_s, MlpWeights.seeded(6, seed=0))

    def test_leading_axis_equals_one_blob_calls(self, rng):
        # N blobs with token counts of their own, in one call: each blob's
        # geometry code, and its tokens when it has two or more, are bit for
        # bit those of its own call. numpy multiplies a one-token blob's row
        # on its own as a vector, which may round differently.
        params = [BlobParams(*rng.uniform(5, 30, 4), rng.uniform(-1.5, 1.5)) for _ in range(5)]
        seqs = [EmbeddingSeq(rng.standard_normal((L, 5))) for L in (2, 4, 1, 3, 7)]
        mlp = MlpWeights.seeded(10, seed=3)
        e_tau = fourier_encode(params, GEOM, n_freqs=3, out_dim=5, seed=2)
        assert e_tau.shape == (5, 5)
        fused = blob_embed(e_tau, seqs, mlp)
        assert isinstance(fused, tuple) and len(fused) == 5
        for p, seq, row, out in zip(params, seqs, e_tau, fused):
            one = fourier_encode(p, GEOM, n_freqs=3, out_dim=5, seed=2)
            assert np.array_equal(row, one)
            alone = blob_embed(one, seq, mlp).data
            if seq.L > 1:
                assert np.array_equal(out.data, alone)
            else:
                np.testing.assert_allclose(out.data, alone, rtol=1e-14, atol=1e-15)
        assert fourier_encode([], GEOM, n_freqs=3, out_dim=5).shape == (0, 5)
        assert blob_embed(np.zeros((0, 5)), [], mlp) == ()


class TestErf:
    # fdlibm's s_erf.c switches between its approximations at these |x|.
    EDGES = np.array([0.84375, 1.25, 1.0 / 0.35, 6.0])

    def grid(self):
        edges = np.concatenate([self.EDGES, np.nextafter(self.EDGES, 0.0),
                                np.nextafter(self.EDGES, np.inf)])
        return np.concatenate([np.linspace(-8.0, 8.0, 160_001), edges, -edges,
                               [0.0, -0.0, 1e-300, -1e-300]])

    def test_within_4_ulp_of_scipy(self):
        x = self.grid()
        got, want = embedding._erf(x), erf(x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_special_values(self):
        got = embedding._erf(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0]))
        assert got[:2].tolist() == [1.0, -1.0]
        assert np.isnan(got[2])
        assert got[3] == 0.0 and not np.signbit(got[3]) and np.signbit(got[4])

    def test_odd(self):
        x = self.grid()
        assert embedding._erf(-x).tobytes() == (-embedding._erf(x)).tobytes()

    def test_bitwise_equal_to_vectorized_math_erf(self, rng):
        # The oracle is the np.vectorize(math.erf) that _erf replaced: same
        # bits on random values, both zeros, subnormals and far tails.
        x = np.concatenate([rng.standard_normal(3 * 3000 * 16) * 3,
                            [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 40.0, -40.0]])
        want = np.vectorize(math.erf, otypes=[np.float64])(x)
        assert np.array_equal(embedding._erf(x).view(np.uint64), want.view(np.uint64))
        x = x[:-8].reshape(3 * 3000, 16)
        assert np.array_equal(embedding._erf(x).view(np.uint64),
                              want[:-8].reshape(x.shape).view(np.uint64))

    @pytest.mark.parametrize("x", [np.float64(0.5), np.array(-1.5), np.empty(0),
                                   np.empty((0, 3)), np.empty((2, 0))],
                             ids=["scalar", "0-d", "empty", "empty-rows", "empty-cols"])
    def test_keeps_shape_and_float64(self, x):
        got = embedding._erf(x)
        assert got.shape == np.shape(x) and got.dtype == np.float64


class TestInterpWeights:
    def test_anchor_frames_give_exact_onehot(self):
        assert interp_weights(0, 8, t_anchor=0) == (0.0, 1.0)
        assert interp_weights(8, 8, t_anchor=0) == (1.0, 0.0)
        assert interp_weights(0, 8, t_anchor=0, orientation="standard") == (1.0, 0.0)
        assert interp_weights(8, 8, t_anchor=0, orientation="standard") == (0.0, 1.0)

    def test_interior_weights_sum_to_one(self):
        for t in range(1, 8):
            w1, w2 = interp_weights(t, 8, t_anchor=0)
            assert w1 + w2 == 1.0
            s1, s2 = interp_weights(t, 8, t_anchor=0, orientation="standard")
            assert s1 + s2 == 1.0
            assert (s1, s2) == (w2, w1)

    def test_as_printed_puts_far_weight_on_later_anchor(self):
        # One frame past the anchor: this orientation weights the later
        # anchor by (t1 - t)/k = 7/8.
        w_lo, w_hi = interp_weights(1, 8, t_anchor=0)
        assert w_lo == pytest.approx(1.0 / 8.0)
        assert w_hi == pytest.approx(7.0 / 8.0)

    def test_midpoint_is_half(self):
        assert interp_weights(4, 8, t_anchor=0) == (0.5, 0.5)

    def test_rejects_bad_interval(self):
        with pytest.raises(RangeError):
            interp_weights(0, 0, t_anchor=0)
        with pytest.raises(RangeError):
            interp_weights(9, 8, t_anchor=0)
        with pytest.raises(RangeError):
            interp_weights(1, 8, t_anchor=0, orientation="diagonal")


class TestInterpLinear:
    def test_matches_manual_blend(self, rng):
        e1 = EmbeddingSeq(rng.standard_normal((3, 4)))
        e2 = EmbeddingSeq(rng.standard_normal((3, 4)))
        out = interp_linear(e1, e2, 3, 8, t_anchor=0)
        w1, w2 = interp_weights(3, 8, t_anchor=0)
        assert np.array_equal(out.data, w1 * e1.data + w2 * e2.data)

    def test_rejects_anchor_frames(self):
        e = EmbeddingSeq(np.ones((1, 2)))
        with pytest.raises(RangeError):
            interp_linear(e, e, 0, 8, t_anchor=0)
        with pytest.raises(RangeError):
            interp_linear(e, e, 8, 8, t_anchor=0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            interp_linear(EmbeddingSeq(np.ones((1, 2))), EmbeddingSeq(np.ones((2, 2))), 1, 8, t_anchor=0)


class TestInterpSlerp:
    def test_unit_vector_rotation_oracle(self):
        # slerp between unit vectors traces the great circle at constant speed.
        phi1, phi2 = 0.3, 1.9
        e1 = EmbeddingSeq(np.array([[math.cos(phi1), math.sin(phi1)]]))
        e2 = EmbeddingSeq(np.array([[math.cos(phi2), math.sin(phi2)]]))
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            got = interp_slerp(e1, e2, alpha).data[0]
            phi = (1 - alpha) * phi1 + alpha * phi2
            assert got == pytest.approx([math.cos(phi), math.sin(phi)], abs=1e-12)

    def test_unit_norm_preserved(self, rng):
        e1 = rng.standard_normal((4, 6))
        e2 = rng.standard_normal((4, 6))
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
        out = interp_slerp(EmbeddingSeq(e1), EmbeddingSeq(e2), 0.3)
        norms = np.linalg.norm(out.data, axis=1)
        assert norms == pytest.approx(np.ones(4), abs=1e-9)

    def test_parallel_falls_back_to_linear(self):
        e = EmbeddingSeq(np.array([[3.0, 4.0]]))
        out = interp_slerp(e, e, 0.5)
        assert np.array_equal(out.data, e.data)

    def test_zero_vector_rejected(self):
        good = EmbeddingSeq(np.ones((1, 2)))
        with pytest.raises((DegenerateVector, ValueError)):
            interp_slerp(EmbeddingSeq(np.zeros((1, 2)) + 0.0), good, 0.5)

    def test_alpha_out_of_range(self):
        e = EmbeddingSeq(np.ones((1, 2)))
        with pytest.raises(RangeError):
            interp_slerp(e, e, 1.5)


class TestDeterministicStub:
    def test_repeatable_and_caption_dependent(self):
        stub = DeterministicStub(dim=6, n_tokens=3)
        a = stub.embed("a red ball")
        b = stub.embed("a red ball")
        c = stub.embed("a blue ball")
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert a.data.shape == (3, 6)

    def test_rows_unit_norm(self):
        stub = DeterministicStub(dim=8)
        e = stub.embed("whatever")
        assert np.linalg.norm(e.data, axis=1) == pytest.approx(np.ones(4), abs=1e-12)


class TestEmbeddingIO:
    def test_roundtrip_f32_exact(self, tmp_path, rng):
        data = rng.standard_normal((3, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "e.bin"
        write_embedding(path, data)
        back = read_embedding(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, data)

    def test_sidecar_contents(self, tmp_path):
        path = tmp_path / "e.bin"
        write_embedding(path, np.zeros((2, 7)))
        sidecar = json.loads((tmp_path / "e.bin.json").read_text())
        assert sidecar == {"shape": [2, 7], "dtype": "f32le"}

    def test_size_mismatch_detected(self, tmp_path):
        path = tmp_path / "e.bin"
        write_embedding(path, np.zeros((2, 3)))
        (tmp_path / "e.bin.json").write_text('{"shape": [2, 4], "dtype": "f32le"}')
        with pytest.raises(ShapeError):
            read_embedding(path)


class TestEmbeddingSeq:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EmbeddingSeq(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_is_a_shape_error(self, value):
        with pytest.raises(ShapeError, match="finite"):
            EmbeddingSeq(np.array([[value, 1.0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            EmbeddingSeq(np.ones(4))

    def test_owns_buffer(self):
        src = np.ones((2, 2))
        e = EmbeddingSeq(src)
        src[0, 0] = 5.0
        assert e.data[0, 0] == 1.0
