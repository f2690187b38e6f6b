import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from blobvid import metrics
from blobvid.embedding import write_embedding
from blobvid.errors import (
    DegenerateVector,
    RangeError,
    SchemaError,
    ShapeError,
    UndefinedMetric,
)
from blobvid.metrics import (
    _mean,
    _min_cost_assignment,
    BBox,
    FrameEval,
    RegionEmbedding,
    bbox_iou,
    load_frame_evals,
    load_region_embeddings,
    match_detections,
    mean_iou,
    region_cosine_metrics,
)

from conftest import greedy_match_reference


def best_total_by_permutation(dets, gts):
    """Exhaustive optimum over injective det -> gt assignments."""
    n_d, n_g = len(dets), len(gts)
    best = 0.0
    k = min(n_d, n_g)
    for det_subset in itertools.permutations(range(n_d), k):
        for gt_subset in itertools.combinations(range(n_g), k):
            total = sum(bbox_iou(dets[d], gts[g]) for d, g in zip(det_subset, gt_subset))
            best = max(best, total)
    return best


def random_boxes(rng, n):
    out = []
    for _ in range(n):
        x0 = rng.uniform(0, 30)
        y0 = rng.uniform(0, 30)
        out.append(BBox(x0, y0, x0 + rng.uniform(1, 15), y0 + rng.uniform(1, 15),
                        confidence=float(rng.uniform(0, 1))))
    return out


class TestBBox:
    def test_area(self):
        assert BBox(1, 2, 4, 6).area == 12.0

    def test_rejects_unordered(self):
        with pytest.raises(RangeError):
            BBox(5, 0, 4, 2)
        with pytest.raises(RangeError):
            BBox(0, 5, 2, 4)

    def test_rejects_bad_confidence(self):
        with pytest.raises(RangeError):
            BBox(0, 0, 1, 1, confidence=1.5)

    @pytest.mark.parametrize("corners", [
        (0, 0, math.inf, 1), (-math.inf, 0, 1, 1), (0, math.nan, 1, 1), (0, 0, 10**400, 1),
        (-1e308, 0, 1e308, 1), (0, 0, 1, 1e308), (0, 0, 1e-320, 1e-320),
        (-1e308, -1e308, 1e308, 1e308),
    ], ids=["inf-corner", "-inf-corner", "nan-corner", "int-beyond-floats",
            "width-overflows", "area-overflows", "area-underflows", "both-overflow"])
    def test_rejects_corners_width_or_area_outside_the_floats(self, corners):
        with pytest.raises(RangeError):
            BBox(*corners)

    def test_largest_and_smallest_areas(self):
        assert BBox(0, 0, 2.0 ** 511, 2.0 ** 511).area <= metrics._MAX_AREA
        with pytest.raises(RangeError):
            BBox(0, 0, 2.0 ** 511, 2.0 ** 512)
        assert BBox(0, 0, 1e-160, 1e-160).area > 0.0


class TestBBoxIou:
    def test_identical(self):
        b = BBox(0, 0, 10, 10)
        assert bbox_iou(b, b) == 1.0

    def test_disjoint(self):
        assert bbox_iou(BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)) == 0.0

    def test_touching_edges_are_disjoint(self):
        assert bbox_iou(BBox(0, 0, 1, 1), BBox(1, 0, 2, 1)) == 0.0

    def test_hand_computed_overlap(self):
        # 5x10 intersection, 100 + 100 - 50 union.
        assert bbox_iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(50 / 150)

    def test_symmetric(self, rng):
        for _ in range(20):
            a, b = random_boxes(rng, 2)
            assert bbox_iou(a, b) == bbox_iou(b, a)

    def test_largest_boxes_keep_their_iou(self):
        big = BBox(0, 0, 2.0 ** 511, 2.0 ** 511)
        assert bbox_iou(big, big) == 1.0
        assert bbox_iou(big, BBox(0, 0, 2.0 ** 511, 2.0 ** 510)) == 0.5

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                    | st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 1e-160, 2.0 ** 511]),
                    min_size=8, max_size=8))
    def test_every_accepted_pair_has_an_iou_in_unit_interval(self, xs):
        # Each box takes the smaller of two drawn values as its low corner.
        boxes = [(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
                 for x0, x1, y0, y1 in (xs[:4], xs[4:])]
        try:
            a, b = BBox(*boxes[0]), BBox(*boxes[1])
        except RangeError:
            return
        assert 0.0 <= bbox_iou(a, b) <= 1.0


class TestMatchDetections:
    def test_optimal_vs_permutation_oracle(self, rng):
        for _ in range(50):
            dets = random_boxes(rng, int(rng.integers(1, 6)))
            gts = [BBox(b.x0, b.y0, b.x1, b.y1) for b in random_boxes(rng, int(rng.integers(1, 6)))]
            # Matching happens after confidence truncation; re-state that
            # contract here rather than trusting result.kept.
            keep = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)[: len(gts)]
            result = match_detections(dets, gts)
            assert sum(result.per_gt_iou) == pytest.approx(
                best_total_by_permutation([dets[i] for i in keep], gts), abs=1e-12
            )

    def test_greedy_can_be_suboptimal(self):
        # Largest single overlap sits on the wrong pairing.
        gts = [BBox(0, 0, 20, 2), BBox(20, 0, 40, 2)]
        dets = [BBox(8, 0, 28, 2), BBox(0, 0, 7, 2)]
        h = match_detections(dets, gts, method="hungarian")
        g = match_detections(dets, gts, method="greedy")
        assert sum(h.per_gt_iou) == pytest.approx(0.6)
        assert sum(g.per_gt_iou) == pytest.approx(3.0 / 7.0)
        assert sum(h.per_gt_iou) > sum(g.per_gt_iou)

    @given(st.data())
    def test_greedy_matches_the_searching_loop(self, data):
        # IOUs from a few values, so tied pairs are common; confidences too,
        # so truncation ties. Detection i and ground truth j are told apart
        # by x0, which indexes the drawn IOU table.
        n_det = data.draw(st.integers(0, 7))
        n_gt = data.draw(st.integers(0, 7))
        values = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        table = data.draw(st.lists(st.lists(values, min_size=n_gt, max_size=n_gt),
                                   min_size=n_det, max_size=n_det))
        confidence = st.sampled_from([0.2, 0.5, 0.9])
        dets = [BBox(i, 0, i + 1, 1, confidence=data.draw(confidence)) for i in range(n_det)]
        gts = [BBox(j, 2, j + 1, 3) for j in range(n_gt)]

        def iou_of(det, gt):
            return table[int(det.x0)][int(gt.x0)]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "bbox_iou", iou_of)
            got = match_detections(dets, gts, method="greedy")
        assert got == greedy_match_reference(dets, gts, iou_of)

    def test_greedy_on_random_boxes_matches_the_searching_loop(self, rng):
        for _ in range(20):
            dets = random_boxes(rng, int(rng.integers(1, 60)))
            gts = random_boxes(rng, int(rng.integers(1, 60)))
            got = match_detections(dets, gts, method="greedy")
            assert got == greedy_match_reference(dets, gts, bbox_iou)

    def test_extra_detections_dropped_by_confidence(self):
        gt = [BBox(0, 0, 10, 10)]
        dets = [
            BBox(0, 0, 10, 10, confidence=0.2),   # perfect but low confidence
            BBox(100, 100, 110, 110, confidence=0.9),
        ]
        result = match_detections(dets, gt)
        assert result.kept == (1,)
        assert result.per_gt_iou == (0.0,)

    def test_confidence_tie_keeps_input_order(self):
        gt = [BBox(0, 0, 10, 10)]
        dets = [BBox(0, 0, 5, 10, confidence=0.5), BBox(0, 0, 10, 10, confidence=0.5)]
        result = match_detections(dets, gt)
        assert result.kept == (0,)

    def test_unmatched_gt_scores_zero(self):
        gts = [BBox(0, 0, 10, 10), BBox(50, 50, 60, 60)]
        dets = [BBox(0, 0, 10, 10, confidence=1.0)]
        result = match_detections(dets, gts)
        assert result.per_gt_iou[0] == 1.0
        assert result.per_gt_iou[1] == 0.0

    def test_no_gt(self):
        result = match_detections([BBox(0, 0, 1, 1)], [])
        assert result.pairs == () and result.per_gt_iou == ()

    def test_no_detections(self):
        result = match_detections([], [BBox(0, 0, 1, 1)])
        assert result.per_gt_iou == (0.0,)

    def test_unknown_method(self):
        with pytest.raises(RangeError):
            match_detections([], [], method="auction")

    def test_pairs_use_original_detection_indices(self):
        gt = [BBox(0, 0, 10, 10)]
        dets = [
            BBox(90, 90, 95, 95, confidence=0.1),
            BBox(0, 0, 10, 10, confidence=0.9),
        ]
        result = match_detections(dets, gt)
        assert result.pairs == ((1, 0),)


def assert_matches_scipy(cost):
    rows, cols = linear_sum_assignment(cost)
    assert rows.tolist() == list(range(cost.shape[0]))
    assert _min_cost_assignment(cost.tolist()) == cols.tolist()


class TestAssignmentMatchesScipy:
    """scipy's linear_sum_assignment is the oracle: same rows, same columns."""

    def test_random(self, rng):
        for _ in range(300):
            rows = int(rng.integers(1, 7))
            assert_matches_scipy(-rng.random((rows, int(rng.integers(rows, 8)))))

    def test_quantized_ties(self, rng):
        for _ in range(300):
            rows = int(rng.integers(1, 7))
            levels = int(rng.integers(1, 4))
            cost = -np.round(rng.random((rows, int(rng.integers(rows, 8)))) * levels) / levels
            assert_matches_scipy(cost)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 3), (2, 6)])
    def test_all_zero(self, shape):
        assert_matches_scipy(np.zeros(shape))

    def test_one_by_one(self):
        assert _min_cost_assignment([[-0.25]]) == [0]
        assert_matches_scipy(np.array([[-0.25]]))

    def test_fewer_rows_than_columns(self):
        cost = -np.array([[0.1, 0.9, 0.0, 0.5], [0.8, 0.9, 0.2, 0.0]])
        assert _min_cost_assignment(cost.tolist()) == [1, 0]
        assert_matches_scipy(cost)

    @given(st.data())
    def test_hypothesis_tied_matrices(self, data):
        rows = data.draw(st.integers(1, 5))
        cols = data.draw(st.integers(rows, rows + 3))
        values = data.draw(st.lists(st.sampled_from([0.0, -0.25, -0.5, -1.0, -1 / 3]),
                                    min_size=rows * cols, max_size=rows * cols))
        assert_matches_scipy(np.array(values).reshape(rows, cols))


class TestMeanIou:
    def make_eval(self, frame, det_boxes, gt_boxes):
        return FrameEval(frame, tuple(det_boxes),
                         tuple((i, b) for i, b in enumerate(gt_boxes)))

    def test_pools_over_frames(self):
        # Frame 0: one GT matched at 1.0. Frame 8: two GT at 0.5 and 0.0.
        half = BBox(0, 0, 5, 10)
        evals = [
            self.make_eval(0, [BBox(0, 0, 10, 10)], [BBox(0, 0, 10, 10)]),
            self.make_eval(8, [half], [BBox(0, 0, 10, 10), BBox(50, 0, 60, 10)]),
        ]
        got = mean_iou(evals, [0, 8])
        assert got == pytest.approx((1.0 + 0.5 + 0.0) / 3)

    def test_restricts_to_eval_frames(self):
        evals = [
            self.make_eval(0, [BBox(0, 0, 10, 10)], [BBox(0, 0, 10, 10)]),
            self.make_eval(1, [], [BBox(0, 0, 10, 10)]),
        ]
        assert mean_iou(evals, [0]) == 1.0

    def test_empty_frames_rejected(self):
        with pytest.raises(RangeError):
            mean_iou([], [])

    def test_no_gt_undefined(self):
        evals = [self.make_eval(0, [BBox(0, 0, 1, 1)], [])]
        with pytest.raises(UndefinedMetric):
            mean_iou(evals, [0])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mean_is_numpys_bit_for_bit(self, data):
        # Lengths 1-600 reach every branch of numpy's pairwise sum: a plain
        # loop below 8 items, 8 accumulators up to 128, halving above that.
        # Magnitudes up to 1e300 keep 600 terms from overflowing.
        n = data.draw(st.integers(1, 600))
        xs = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n))
        assert _mean(xs).hex() == float(np.mean(xs)).hex()


def unit2(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


class TestRegionCosineMetrics:
    def test_rclip_t_exact(self):
        embs = (
            RegionEmbedding(0, 0, "caption", unit2(0.0)),
            RegionEmbedding(0, 0, "generated", unit2(math.acos(0.25))),
            RegionEmbedding(1, 0, "caption", unit2(1.0)),
            RegionEmbedding(1, 0, "generated", unit2(1.0 + math.acos(0.75))),
        )
        report = region_cosine_metrics(embs, "rclip_t")
        assert report.value == pytest.approx(0.5, abs=1e-12)
        assert report.num_pairs == 2 and report.skipped == 0

    def test_rclip_i_uses_ground_truth(self):
        embs = (
            RegionEmbedding(0, 0, "ground_truth", unit2(0.2)),
            RegionEmbedding(0, 0, "generated", unit2(0.2)),
            RegionEmbedding(0, 0, "caption", unit2(2.0)),
        )
        report = region_cosine_metrics(embs, "rclip_i")
        assert report.value == pytest.approx(1.0)
        assert report.num_pairs == 1

    def test_missing_generated_counts_skipped(self):
        embs = (
            RegionEmbedding(0, 0, "caption", unit2(0.1)),
            RegionEmbedding(1, 0, "caption", unit2(0.4)),
            RegionEmbedding(1, 0, "generated", unit2(0.4)),
        )
        report = region_cosine_metrics(embs, "rclip_t")
        assert report.num_pairs == 1 and report.skipped == 1

    def test_rcfc_consecutive_frames_exact(self):
        # Object 0 cosines 0.5 then 0.8; object 1 cosines 1.0 then 0.9.
        a1 = math.acos(0.5)
        a2 = a1 + math.acos(0.8)
        b2 = math.acos(0.9)
        embs = (
            RegionEmbedding(0, 0, "generated", unit2(0.0)),
            RegionEmbedding(0, 1, "generated", unit2(a1)),
            RegionEmbedding(0, 2, "generated", unit2(a2)),
            RegionEmbedding(1, 0, "generated", unit2(0.0)),
            RegionEmbedding(1, 1, "generated", unit2(0.0)),
            RegionEmbedding(1, 2, "generated", unit2(b2)),
        )
        report = region_cosine_metrics(embs, "rcfc")
        assert report.value == pytest.approx((0.5 + 0.8 + 1.0 + 0.9) / 4, abs=1e-12)
        assert report.num_pairs == 4 and report.skipped == 0

    def test_rcfc_gap_counts_skipped_pairs(self):
        # Frames 0 and 2 with nothing at 1: both consecutive pairs touch the
        # missing frame, and with a second object supplying real pairs the
        # gaps show up in the skipped count instead of aborting the metric.
        embs = (
            RegionEmbedding(0, 0, "generated", unit2(0.0)),
            RegionEmbedding(0, 2, "generated", unit2(0.3)),
            RegionEmbedding(1, 0, "generated", unit2(0.0)),
            RegionEmbedding(1, 1, "generated", unit2(0.0)),
            RegionEmbedding(1, 2, "generated", unit2(0.0)),
        )
        report = region_cosine_metrics(embs, "rcfc")
        assert report.num_pairs == 2 and report.skipped == 2
        assert report.value == pytest.approx(1.0)

    def test_rcfc_far_apart_frames_are_counted_not_walked(self):
        # 10**12 frames apart: the pairs between are skipped by arithmetic.
        embs = (
            RegionEmbedding(0, -10**12, "generated", unit2(0.0)),
            RegionEmbedding(0, 0, "generated", unit2(0.0)),
            RegionEmbedding(0, 1, "generated", unit2(0.3)),
        )
        report = region_cosine_metrics(embs, "rcfc")
        assert report.num_pairs == 1 and report.skipped == 10**12
        assert report.value == pytest.approx(math.cos(0.3))

    def test_rcfc_matches_the_frame_by_frame_walk(self, rng):
        # The walk over every t from the first frame to the last, as the
        # reference for the pairs, their order and the skipped count.
        for _ in range(20):
            frames = sorted(set(rng.integers(0, 12, size=int(rng.integers(2, 8))).tolist()))
            embs = [RegionEmbedding(0, t, "generated", unit2(float(rng.uniform(0, 3))))
                    for t in frames]
            by_frame = {e.frame: e.vector for e in embs}
            cosines, skipped = [], 0
            for t in range(frames[0], frames[-1]):
                if t in by_frame and t + 1 in by_frame:
                    a, b = by_frame[t], by_frame[t + 1]
                    cosines.append(float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))))
                else:
                    skipped += 1
            if not cosines:
                with pytest.raises(UndefinedMetric):
                    region_cosine_metrics(embs, "rcfc")
                continue
            report = region_cosine_metrics(embs, "rcfc")
            assert report.skipped == skipped and report.num_pairs == len(cosines)
            assert report.value == metrics._mean(cosines)

    def test_rcfc_all_gaps_undefined(self):
        embs = (
            RegionEmbedding(0, 0, "generated", unit2(0.0)),
            RegionEmbedding(0, 2, "generated", unit2(0.3)),
        )
        with pytest.raises(UndefinedMetric):
            region_cosine_metrics(embs, "rcfc")

    def test_duplicate_key_rejected(self):
        embs = (
            RegionEmbedding(0, 0, "generated", unit2(0.0)),
            RegionEmbedding(0, 0, "generated", unit2(0.1)),
        )
        with pytest.raises(ShapeError):
            region_cosine_metrics(embs, "rclip_t")

    def test_unknown_mode(self):
        with pytest.raises(RangeError):
            region_cosine_metrics((), "rclip_x")

    def test_no_pairs_undefined(self):
        with pytest.raises(UndefinedMetric):
            region_cosine_metrics((), "rclip_t")

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVector):
            RegionEmbedding(0, 0, "generated", np.zeros(3))


class TestLoaders:
    def test_frame_evals(self, tmp_path):
        (tmp_path / "dets.json").write_text(json.dumps({"frames": [
            {"frame": 0, "detections": [{"bbox": [0, 0, 5, 5], "confidence": 0.7}]},
            {"frame": 2, "detections": []},
        ]}))
        (tmp_path / "gt.json").write_text(json.dumps({"frames": [
            {"frame": 0, "objects": [{"id": 3, "bbox": [0, 0, 5, 5]}]},
            {"frame": 1, "objects": [{"id": 3, "bbox": [1, 1, 6, 6]}]},
        ]}))
        evals = load_frame_evals(tmp_path / "dets.json", tmp_path / "gt.json")
        assert [e.frame for e in evals] == [0, 1, 2]
        assert evals[0].detections[0].confidence == 0.7
        assert evals[1].ground_truth[0][0] == 3
        assert evals[2].detections == () and evals[2].ground_truth == ()

    @pytest.mark.parametrize("which", ["dets", "gt"])
    def test_frame_listed_twice_is_rejected(self, tmp_path, which):
        docs = {"dets": {"frames": [{"frame": 0, "detections": []}]},
                "gt": {"frames": [{"frame": 0, "objects": []}]}}
        docs[which]["frames"].append(dict(docs[which]["frames"][0]))
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as exc:
            load_frame_evals(tmp_path / "dets.json", tmp_path / "gt.json")
        assert str(exc.value) == f"{tmp_path / (which + '.json')}: frame 0 is listed twice"

    def test_region_embeddings(self, tmp_path):
        write_embedding(tmp_path / "v.bin", np.array([[1.0, 0.0]]))
        (tmp_path / "manifest.json").write_text(json.dumps({"embeddings": [
            {"object": 4, "frame": 2, "kind": "generated", "path": "v.bin"},
        ]}))
        embs = load_region_embeddings(tmp_path / "manifest.json")
        assert len(embs) == 1
        assert embs[0].object_id == 4 and embs[0].frame == 2
        assert embs[0].kind == "generated"
        assert np.array_equal(embs[0].vector, [1.0, 0.0])
