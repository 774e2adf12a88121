import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polardet.errors import UnknownClass
from polardet.formats import (AnnotationRecord, DetectionRecord,
                              parse_annotations, parse_detections,
                              quad_from_record, record_from_detection,
                              serialize_annotations, serialize_detections)
from polardet.geometry import QuadBox
from polardet.postprocess import Detection


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
        back = parse_annotations(serialize_annotations(records))
        assert back.warnings == []
        assert back.records == records

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_never_raises_on_arbitrary_text(self, text):
        result = parse_annotations(text)
        for record in result.records:
            assert len(record.corners) == 8
            assert all(np.isfinite(record.corners))


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

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_never_raises(self, text):
        parse_detections(text)


class TestRecordConversion:
    def test_quad_from_record(self):
        record = AnnotationRecord((0.0, 0.0, 4.0, 0.0, 4.0, 2.0, 0.0, 2.0), "ship", 0)
        quad = quad_from_record(record, ["plane", "ship"])
        assert quad.class_id == 1
        np.testing.assert_array_equal(
            quad.corners, [[0, 0], [4, 0], [4, 2], [0, 2]])

    def test_unknown_class_rejected(self):
        record = AnnotationRecord((0.0,) * 8, "boat", 0)
        with pytest.raises(UnknownClass):
            quad_from_record(record, ["plane", "ship"])

    def test_record_from_detection(self):
        quad = QuadBox(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]]),
                       class_id=1)
        record = record_from_detection("img_7", Detection(quad, 1, 0.625),
                                       ["plane", "ship"])
        assert record == DetectionRecord(
            "img_7", 0.625, (0.0, 0.0, 4.0, 0.0, 4.0, 2.0, 0.0, 2.0), "ship")

    def test_detection_class_out_of_range(self):
        quad = QuadBox(np.zeros((4, 2)) + [[0, 0], [1, 0], [1, 1], [0, 1]],
                       class_id=5)
        with pytest.raises(UnknownClass):
            record_from_detection("x", Detection(quad, 5, 0.5), ["only"])


class TestSerializers:
    def test_six_decimal_places(self):
        text = serialize_annotations(
            [AnnotationRecord((1 / 3,) * 8, "car", 0)])
        assert text.startswith("0.333333 ")

    def test_empty_inputs(self):
        assert serialize_annotations([]) == ""
        assert serialize_detections([]) == ""

    def test_trailing_newline(self):
        text = serialize_detections(
            [DetectionRecord("a", 0.5, (0.0,) * 8, "car")])
        assert text.endswith("car\n")
