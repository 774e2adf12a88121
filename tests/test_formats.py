import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polardet.errors import UnknownClass
from polardet.formats import (GroundTruth, parse_annotation_files, parse_annotations,
                              parse_detections, serialize_annotations,
                              serialize_detections)

from oracles import (AnnotationRow, DetectionRow, annotation_rows, detection_rows,
                     parse_annotations_reference, parse_detections_reference)


def serialize_records(records) -> str:
    """``serialize_detections`` of ``DetectionRow`` tuples."""
    image_id, score, corners, class_name = zip(*records) if records else ([],) * 4
    return serialize_detections(image_id, score, np.reshape(corners, (-1, 4, 2)),
                                class_name)


def annotations(*records):
    """One file's parsed ``Annotations`` holding ``AnnotationRow`` rows."""
    return parse_annotations(serialize_annotations(
        [r.corners for r in records], [r.class_name for r in records],
        [r.difficulty for r in records]))


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
        assert len(annotation_rows(result)) == 2
        assert result.warnings == []
        first = annotation_rows(result)[0]
        assert first.class_name == "plane"
        assert first.difficulty == 0
        assert first.corners == (10.0, 10.0, 30.0, 12.0, 28.0, 25.0, 8.0, 23.0)

    def test_metadata_lines_skipped_silently(self):
        result = parse_annotations("imagesource:none\nacquisitiondate:2018-01-01\n")
        assert annotation_rows(result) == []
        assert result.warnings == []

    def test_wrong_field_count_warns(self):
        result = parse_annotations("1 2 3 4 5 6 7 8 plane\n")
        assert annotation_rows(result) == []
        assert "line 1" in result.warnings[0]

    def test_non_numeric_coordinate_warns(self):
        result = parse_annotations("1 2 3 x 5 6 7 8 plane 0\n")
        assert annotation_rows(result) == []
        assert "line 1" in result.warnings[0]

    def test_non_finite_coordinate_warns(self):
        result = parse_annotations("1 2 3 inf 5 6 7 8 plane 0\n")
        assert annotation_rows(result) == []
        assert len(result.warnings) == 1

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_non_finite_tokens_drop_the_line(self, token):
        result = parse_annotations(f"1 2 3 4 5 6 {token} 8 plane 0\n"
                                   "10 10 30 12 28 25 8 23 plane 0\n")
        assert [r.corners[0] for r in annotation_rows(result)] == [10.0]
        assert result.warnings == ["line 1: non-numeric or non-finite coordinates"]

    def test_extreme_finite_tokens_kept(self):
        result = parse_annotations("1e308 -1e308 5e-324 -0 +3 1E2 .5 7. plane 0\n")
        assert result.warnings == []
        assert annotation_rows(result)[0].corners == (1e308, -1e308, 5e-324, -0.0,
                                                      3.0, 100.0, 0.5, 7.0)

    def test_bad_difficulty_warns(self):
        result = parse_annotations("1 2 3 4 5 6 7 8 plane hard\n")
        assert annotation_rows(result) == []
        assert "difficulty" in result.warnings[0]

    def test_bad_line_does_not_poison_good_ones(self):
        text = "garbage here\n10 10 30 12 28 25 8 23 plane 0\n"
        result = parse_annotations(text)
        assert len(annotation_rows(result)) == 1
        assert len(result.warnings) == 1

    def test_blank_lines_ignored(self):
        result = parse_annotations("\n\n10 10 30 12 28 25 8 23 plane 0\n\n")
        assert len(annotation_rows(result)) == 1

    def test_round_trip(self):
        records = [
            AnnotationRow((1.5, 2.25, 3.0, 2.25, 3.0, 4.0, 1.5, 4.0), "car", 1),
            AnnotationRow((10.0, 10.0, 30.0, 12.0, 28.0, 25.0, 8.0, 23.0),
                             "plane", 0),
        ]
        back = parse_annotations(serialize_annotations(
            [r.corners for r in records], [r.class_name for r in records],
            [r.difficulty for r in records]))
        assert back.warnings == []
        assert annotation_rows(back) == records

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_never_raises_on_arbitrary_text(self, text):
        result = parse_annotations(text)
        for record in annotation_rows(result):
            assert len(record.corners) == 8
            assert all(np.isfinite(record.corners))

class TestParseDetections:
    def test_round_trip(self):
        records = [
            DetectionRow("img_00001", 0.875,
                            (1.0, 2.0, 3.0, 2.0, 3.0, 4.0, 1.0, 4.0), "car"),
            DetectionRow("img_00002", 0.25,
                            (5.0, 5.0, 9.0, 5.0, 9.0, 8.0, 5.0, 8.0), "plane"),
        ]
        back = parse_detections(serialize_records(records))
        assert back.warnings == []
        assert detection_rows(back) == records

    def test_field_count_enforced(self):
        result = parse_detections("img 0.5 1 2 3 4 5 6 7 car\n")
        assert detection_rows(result) == []
        assert len(result.warnings) == 1

    def test_non_finite_score_warns(self):
        result = parse_detections("img nan 1 2 3 4 5 6 7 8 car\n")
        assert detection_rows(result) == []
        assert len(result.warnings) == 1

    @pytest.mark.parametrize("field", [1, 6])
    @pytest.mark.parametrize("token", NON_FINITE)
    def test_non_finite_tokens_drop_the_line(self, token, field):
        # field 1 is the score, field 6 a corner coordinate
        tokens = "img 0.5 1 2 3 4 5 6 7 8 car".split()
        tokens[field] = token
        result = parse_detections(" ".join(tokens) + "\nimg 0.25 1 2 3 4 5 6 7 8 car\n")
        assert [r.score for r in detection_rows(result)] == [0.25]
        assert result.warnings == ["line 1: non-numeric or non-finite values"]

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_never_raises(self, text):
        parse_detections(text)


class TestRecordConversion:
    def test_ground_truth_from_records(self):
        record = AnnotationRow((0.0, 0.0, 4.0, 0.0, 4.0, 2.0, 0.0, 2.0), "ship", 0)
        gt = GroundTruth.stack([annotations(record)], ["plane", "ship"])
        assert gt.class_id.tolist() == [1]
        np.testing.assert_array_equal(
            gt.corners, [[[0, 0], [4, 0], [4, 2], [0, 2]]])

    def test_unknown_class_rejected(self):
        record = AnnotationRow((0.0,) * 8, "boat", 0)
        with pytest.raises(UnknownClass, match="'boat'"):
            GroundTruth.stack([annotations(record)], ["plane", "ship"])

    def test_images_difficult_flags_and_dtypes(self):
        parsed = [parse_annotations(SAMPLE), parse_annotations(""),
                  parse_annotations("1 1 5 1 5 3 1 3 ship 0\n")]
        gt = GroundTruth.stack(parsed, ["plane", "ship"])
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
            for records in ([AnnotationRow((0.0,) * 8, "ship", 0)],
                            [AnnotationRow((0.0,) * 8, "car", 0),
                             AnnotationRow((0.0,) * 8, "boat", 0)],
                            []):
                seen.append(len(records))
                yield annotations(*records)
        with pytest.raises(UnknownClass, match="'car'"):
            GroundTruth.stack(files(), ["plane", "ship"])
        assert seen == [1, 2]

    def test_no_records(self):
        gt = GroundTruth.stack([annotations(), annotations()], ["plane"])
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
        assert serialize_detections([], [], np.empty((0, 4, 2)), []) == ""

    def test_trailing_newline(self):
        text = serialize_records([DetectionRow("a", 0.5, (0.0,) * 8, "car")])
        assert text.endswith("car\n")


def bits(records):
    """Records with every float as its hex string, so that -0.0 and 0.0
    differ and equal records carry the same bits."""
    return [tuple(tuple(v.hex() for v in f) if isinstance(f, tuple)
                  else f.hex() if isinstance(f, float) else f for f in r)
            for r in records]


def annotation_file(rng, lines: int) -> str:
    corners = rng.uniform(-50.0, 300.0, (lines, 4, 2))
    corners[rng.uniform(size=corners.shape) < 0.05] = -0.0
    return serialize_annotations(corners, [f"c{k}" for k in rng.integers(0, 3, lines)],
                                 rng.integers(0, 2, lines).tolist())


def detection_file(rng, lines: int) -> str:
    corners = rng.uniform(-50.0, 300.0, (lines, 4, 2))
    return serialize_detections([f"img_{k:05d}" for k in rng.integers(0, 9, lines)],
                                rng.uniform(0.0, 1.0, lines), corners,
                                [f"c{k}" for k in rng.integers(0, 3, lines)])


GOOD_ANNOTATION = "1.5 2 3 4 5 6 7 8.25 ship 0"
GOOD_DETECTION = "img_1 0.5 1.5 2 3 4 5 6 7 8.25 ship"
# one line each, every case the per-line parsers drop or read unusually
MALFORMED = {
    "too few fields": "1 2 3 4 5 6 7 8 ship",
    "too many fields": "1 2 3 4 5 6 7 8 ship 0 extra extra",
    "nan": "1 2 3 nan 5 6 7 8 ship 0",
    "inf": "1 2 3 4 5 6 -inf 8 ship 0",
    "overflow": "1e999 2 3 4 5 6 7 8 ship 0",
    "non-numeric": "1 2 3 x 5 6 7 8 ship 0",
    "underscore": "1_0 2 3 4 5 6 7 8 ship 0",
    "signed exponent": "+1e2 2 3 4 5 6 7 8 ship 0",
    "unicode digits": "\u0661\u0662 2 3 4 5 6 7 8 ship 0",
    "hex float": "0x1p3 2 3 4 5 6 7 8 ship 0",
    "bad difficulty": "1 2 3 4 5 6 7 8 ship hard",
    "float difficulty": "1 2 3 4 5 6 7 8 ship 1.0",
    "signed difficulty": "1 2 3 4 5 6 7 8 ship -1",
    "metadata": "imagesource:GoogleEarth",
    "metadata with fields": "gsd:0.5 2 3 4 5 6 7 8 ship 0",
    "class with colon": "1 2 3 4 5 6 7 8 a:b 0",
    "crlf": "1 2 3 4 5 6 7 8 ship 0\r",
    "blank": "",
    "whitespace": " \t\x0c ",
    "unicode whitespace": "1\u00a02\u30003 4 5 6 7 8 ship 0",
    "line separator": "1 2 3 4\u2028 5 6 7 8 ship 0",
    "vertical tab": "1 2 3 4 5\x0b6 7 8 ship 0",
}


class TestMatchesPerLineParsers:
    """The whole-file parsers against the per-line references of
    ``oracles``: the same records with the same float bits, and the same
    warnings in the same order."""

    @staticmethod
    def check(text):
        for parse, rows, reference in (
                (parse_annotations, annotation_rows, parse_annotations_reference),
                (parse_detections, detection_rows, parse_detections_reference)):
            result = parse(text)
            records, warnings = reference(text)
            assert bits(rows(result)) == bits(records)
            assert result.warnings == warnings
        # the batch parser takes a file only when each of its lines is a row
        # the per-line parser keeps, and then gives the same rows
        records, warnings = parse_annotations_reference(text)
        batch = parse_annotation_files([text, GOOD_ANNOTATION, text])
        if warnings or len(records) != len(text.splitlines()):
            assert batch is None
        else:
            joined = [*records, *parse_annotations_reference(GOOD_ANNOTATION)[0], *records]
            assert bits(annotation_rows(batch[0])) == bits(joined)
            assert batch[1] == [len(records), 1, len(records)]
            assert batch[0].warnings == []

    def test_batch_of_generated_files(self):
        rng = np.random.default_rng(4)
        texts = [annotation_file(rng, lines) for lines in (3, 0, 1, 45, 2)]
        batch, counts = parse_annotation_files(texts)
        assert counts == [3, 0, 1, 45, 2]
        rows = [r for text in texts for r in parse_annotations_reference(text)[0]]
        assert bits(annotation_rows(batch)) == bits(rows)
        empty, counts = parse_annotation_files([])
        assert counts == [] and annotation_rows(empty) == []
        for bad in ("", "gsd:0.5", MALFORMED["nan"]):
            assert parse_annotation_files([*texts, texts[0] + bad + "\n"]) is None

    def test_generated_files(self):
        rng = np.random.default_rng(8)
        for lines in (0, 1, 2, 45, 300):
            annotations, detections = annotation_file(rng, lines), detection_file(rng, lines)
            self.check(annotations)
            self.check(detections)
            assert len(parse_annotations(annotations).class_name) == lines
            assert len(parse_detections(detections).class_name) == lines

    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("where", ["alone", "first", "middle", "last"])
    def test_malformed_line(self, case, where):
        bad = MALFORMED[case]
        # the detection form of an annotation line: an image id and score in
        # front, no difficulty at the end
        as_detection = ("img_2 0.25 " + bad.rsplit(" ", 1)[0]) if "ship" in bad else bad
        for good, line in ((GOOD_ANNOTATION, bad), (GOOD_DETECTION, as_detection)):
            lines = {"alone": [line], "first": [line, good, good],
                     "middle": [good, line, good], "last": [good, good, line]}[where]
            self.check("\n".join(lines) + "\n")
            self.check("\r\n".join(lines))

    def test_every_malformed_line_in_one_file(self):
        rng = np.random.default_rng(3)
        lines = [*MALFORMED.values(), GOOD_ANNOTATION, GOOD_DETECTION]
        for _ in range(20):
            rng.shuffle(lines)
            self.check("\n".join(lines) + "\n")

    def test_generated_file_with_one_bad_line(self):
        rng = np.random.default_rng(5)
        for case, bad in MALFORMED.items():
            for text in (annotation_file(rng, 20), detection_file(rng, 20)):
                lines = text.splitlines()
                lines.insert(int(rng.integers(0, len(lines) + 1)), bad)
                self.check("\n".join(lines))

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, text):
        self.check(text)

    @given(st.lists(st.sampled_from(
        ["1", "-0", "2.5", "1e3", "nan", "inf", "1_0", "+1e2", "x", "ship", "a:b",
         "img_1", "0", "hard", "\u0661", "\u00a0", "\u2028", " ", "\t", "\r", "\n",
         "\r\n", "\x0b"]), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_token_soup(self, tokens):
        self.check(" ".join(tokens))

