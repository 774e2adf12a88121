import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polardet.errors import UnknownClass
from polardet.formats import (AnnotationRecord, DetectionRecord, GroundTruth,
                              parse_annotations, parse_detections,
                              serialize_annotations, serialize_detections)

from oracles import parse_annotations_reference


# float() reads each of these, and none is finite ("1e999" overflows to inf)
NON_FINITE = ["nan", "inf", "-inf", "1e999"]

SAMPLE = """\
imagesource:GoogleEarth
gsd:0.146343590398
10.0 10.0 30.0 12.0 28.0 25.0 8.0 23.0 plane 0
50 50 60 50 60 70 50 70 ship 1
"""


class TestParseAnnotations:
    def test_sample_file(self):
        result = parse_annotations(SAMPLE)
        assert len(result.records) == 2
        assert result.warnings == []
        first = result.records[0]
        assert first.class_name == "plane"
        assert first.difficulty == 0
        assert first.corners == (10.0, 10.0, 30.0, 12.0, 28.0, 25.0, 8.0, 23.0)

    def test_metadata_lines_skipped_silently(self):
        result = parse_annotations("imagesource:none\nacquisitiondate:2018-01-01\n")
        assert result.records == []
        assert result.warnings == []

    def test_wrong_field_count_warns(self):
        result = parse_annotations("1 2 3 4 5 6 7 8 plane\n")
        assert result.records == []
        assert "line 1" in result.warnings[0]

    def test_non_numeric_coordinate_warns(self):
        result = parse_annotations("1 2 3 x 5 6 7 8 plane 0\n")
        assert result.records == []
        assert "line 1" in result.warnings[0]

    def test_non_finite_coordinate_warns(self):
        result = parse_annotations("1 2 3 inf 5 6 7 8 plane 0\n")
        assert result.records == []
        assert len(result.warnings) == 1

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_non_finite_tokens_drop_the_line(self, token):
        result = parse_annotations(f"1 2 3 4 5 6 {token} 8 plane 0\n"
                                   "10 10 30 12 28 25 8 23 plane 0\n")
        assert [r.corners[0] for r in result.records] == [10.0]
        assert result.warnings == ["line 1: non-numeric or non-finite coordinates"]

    def test_extreme_finite_tokens_kept(self):
        result = parse_annotations("1e308 -1e308 5e-324 -0 +3 1E2 .5 7. plane 0\n")
        assert result.warnings == []
        assert result.records[0].corners == (1e308, -1e308, 5e-324, -0.0, 3.0,
                                             100.0, 0.5, 7.0)

    def test_bad_difficulty_warns(self):
        result = parse_annotations("1 2 3 4 5 6 7 8 plane hard\n")
        assert result.records == []
        assert "difficulty" in result.warnings[0]

    def test_bad_line_does_not_poison_good_ones(self):
        text = "garbage here\n10 10 30 12 28 25 8 23 plane 0\n"
        result = parse_annotations(text)
        assert len(result.records) == 1
        assert len(result.warnings) == 1

    def test_blank_lines_ignored(self):
        result = parse_annotations("\n\n10 10 30 12 28 25 8 23 plane 0\n\n")
        assert len(result.records) == 1

    def test_round_trip(self):
        records = [
            AnnotationRecord((1.5, 2.25, 3.0, 2.25, 3.0, 4.0, 1.5, 4.0), "car", 1),
            AnnotationRecord((10.0, 10.0, 30.0, 12.0, 28.0, 25.0, 8.0, 23.0),
                             "plane", 0),
        ]
        back = parse_annotations(serialize_annotations(
            [r.corners for r in records], [r.class_name for r in records],
            [r.difficulty for r in records]))
        assert back.warnings == []
        assert back.records == records

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_never_raises_on_arbitrary_text(self, text):
        result = parse_annotations(text)
        for record in result.records:
            assert len(record.corners) == 8
            assert all(np.isfinite(record.corners))

    @pytest.mark.parametrize("text", [
        SAMPLE, "", "\n\n", " \t\n", "a:b c d\n", "key: value\n",
        " 1 2 3 4 5 6 7 8 ship 0 \r\n\x0b1 2 3 4 5 6 7 8 ship x\u2028tail",
        "1 2 3 4 5 6 7 8 ship\n1 2 3 4 5 6 7 nan ship 0\n:\n",
        "1 2 3 4 5 6 7 8 a:b 0\n1\u00a02 3 4 5 6 7 8 c 0\r\r\n",
    ])
    def test_same_as_two_split_parse(self, text):
        result = parse_annotations(text)
        assert (result.records, result.warnings) == parse_annotations_reference(text)

    @given(st.text(alphabet=st.sampled_from(list("0123456789.-e :#abn\t\r\n\x0b\u00a0")),
                   max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_same_as_two_split_parse_on_arbitrary_text(self, text):
        result = parse_annotations(text)
        assert (result.records, result.warnings) == parse_annotations_reference(text)


class TestParseDetections:
    def test_round_trip(self):
        records = [
            DetectionRecord("img_00001", 0.875,
                            (1.0, 2.0, 3.0, 2.0, 3.0, 4.0, 1.0, 4.0), "car"),
            DetectionRecord("img_00002", 0.25,
                            (5.0, 5.0, 9.0, 5.0, 9.0, 8.0, 5.0, 8.0), "plane"),
        ]
        back = parse_detections(serialize_detections(records))
        assert back.warnings == []
        assert back.records == records

    def test_field_count_enforced(self):
        result = parse_detections("img 0.5 1 2 3 4 5 6 7 car\n")
        assert result.records == []
        assert len(result.warnings) == 1

    def test_non_finite_score_warns(self):
        result = parse_detections("img nan 1 2 3 4 5 6 7 8 car\n")
        assert result.records == []
        assert len(result.warnings) == 1

    @pytest.mark.parametrize("field", [1, 6])
    @pytest.mark.parametrize("token", NON_FINITE)
    def test_non_finite_tokens_drop_the_line(self, token, field):
        # field 1 is the score, field 6 a corner coordinate
        tokens = "img 0.5 1 2 3 4 5 6 7 8 car".split()
        tokens[field] = token
        result = parse_detections(" ".join(tokens) + "\nimg 0.25 1 2 3 4 5 6 7 8 car\n")
        assert [r.score for r in result.records] == [0.25]
        assert result.warnings == ["line 1: non-numeric or non-finite values"]

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_never_raises(self, text):
        parse_detections(text)


class TestRecordConversion:
    def test_ground_truth_from_records(self):
        record = AnnotationRecord((0.0, 0.0, 4.0, 0.0, 4.0, 2.0, 0.0, 2.0), "ship", 0)
        gt = GroundTruth.from_records([[record]], ["plane", "ship"])
        assert gt.class_id.tolist() == [1]
        np.testing.assert_array_equal(
            gt.corners, [[[0, 0], [4, 0], [4, 2], [0, 2]]])

    def test_unknown_class_rejected(self):
        record = AnnotationRecord((0.0,) * 8, "boat", 0)
        with pytest.raises(UnknownClass, match="'boat'"):
            GroundTruth.from_records([[record]], ["plane", "ship"])

    def test_images_difficult_flags_and_dtypes(self):
        parsed = [parse_annotations(SAMPLE).records, [],
                  parse_annotations("1 1 5 1 5 3 1 3 ship 0\n").records]
        gt = GroundTruth.from_records(parsed, ["plane", "ship"])
        assert gt.image.tolist() == [0, 0, 2]
        assert gt.class_id.tolist() == [0, 1, 1]
        assert gt.difficult.tolist() == [False, True, False]
        assert gt.corners.shape == (3, 4, 2) and gt.corners.dtype == np.float64
        assert gt.corners[0, 2].tolist() == [28.0, 25.0]
        assert [len(g) for g in gt.per_image(3)] == [2, 0, 1]
        assert gt.per_image(3)[2].corners.tolist() == gt.corners[2:].tolist()

    def test_first_unknown_class_of_a_file_stops_reading(self):
        seen = []

        def files():
            for records in ([AnnotationRecord((0.0,) * 8, "ship", 0)],
                            [AnnotationRecord((0.0,) * 8, "car", 0),
                             AnnotationRecord((0.0,) * 8, "boat", 0)],
                            []):
                seen.append(len(records))
                yield records
        with pytest.raises(UnknownClass, match="'car'"):
            GroundTruth.from_records(files(), ["plane", "ship"])
        assert seen == [1, 2]

    def test_no_records(self):
        gt = GroundTruth.from_records([[], []], ["plane"])
        assert len(gt) == 0 and gt.corners.shape == (0, 4, 2)
        assert [len(g) for g in gt.per_image(2)] == [0, 0]


class TestSerializers:
    def test_six_decimal_places(self):
        text = serialize_annotations(np.full((1, 4, 2), 1 / 3), ["car"], [0])
        assert text == "0.333333 " * 8 + "car 0\n"

    def test_annotation_lines_match_per_field_formatting(self):
        rng = np.random.default_rng(4)
        corners = rng.uniform(-1e3, 1e3, (30, 4, 2))
        corners[0, 0] = -0.0, 1e-7
        names = [f"c{k % 3}" for k in range(30)]
        levels = [k % 2 for k in range(30)]
        want = "".join(" ".join(f"{v:.6f}" for v in c.reshape(-1).tolist())
                       + f" {n} {d}\n" for c, n, d in zip(corners, names, levels))
        assert serialize_annotations(corners, names, levels) == want

    def test_empty_inputs(self):
        assert serialize_annotations(np.empty((0, 4, 2)), [], []) == ""
        assert serialize_detections([]) == ""

    def test_trailing_newline(self):
        text = serialize_detections(
            [DetectionRecord("a", 0.5, (0.0,) * 8, "car")])
        assert text.endswith("car\n")
