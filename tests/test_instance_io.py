"""Instance file schema: validation errors and canonical round trips."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boxot.fixtures import named_instances
from boxot.instance_io import (
    dumps_instance,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)


def _minimal_doc():
    return {
        "dimension": 1,
        "boxes": [{"lo": [-1.0], "hi": [1.0], "weight": 0.5}],
        "samples": [{"point": [-1.0]}, {"point": [1.0]}],
        "metadata": {"name": "minimal"},
    }


class TestParseInstance:
    def test_minimal_document(self):
        instance, metadata = parse_instance(_minimal_doc())
        assert instance.dimension == 1
        assert instance.samples.n == 2
        assert_allclose(instance.samples.demands, [0.5, 0.5])
        assert metadata == {"name": "minimal"}

    def test_explicit_demands(self):
        doc = _minimal_doc()
        doc["samples"] = [
            {"point": [-1.0], "demand": 0.75},
            {"point": [1.0], "demand": 0.25},
        ]
        instance, _ = parse_instance(doc)
        assert_allclose(instance.samples.demands, [0.75, 0.25])
        assert not instance.samples.uniform_demands

    def test_missing_keys(self):
        for key in ("dimension", "boxes", "samples"):
            doc = _minimal_doc()
            del doc[key]
            with pytest.raises(ValueError, match=f"missing key {key!r}"):
                parse_instance(doc)

    def test_dimension_must_be_positive_int(self):
        for bad in (0, -1, 1.5, "1", True):
            doc = _minimal_doc()
            doc["dimension"] = bad
            with pytest.raises(ValueError, match="positive integer"):
                parse_instance(doc)

    def test_box_dimension_mismatch(self):
        doc = _minimal_doc()
        doc["boxes"][0]["lo"] = [-1.0, 0.0]
        with pytest.raises(ValueError, match="box 0"):
            parse_instance(doc)

    def test_sample_dimension_mismatch(self):
        doc = _minimal_doc()
        doc["samples"][1]["point"] = [1.0, 2.0]
        with pytest.raises(ValueError, match="sample 1"):
            parse_instance(doc)

    def test_non_numeric_coordinate(self):
        doc = _minimal_doc()
        doc["samples"][0]["point"] = ["a"]
        with pytest.raises(ValueError, match="only numbers"):
            parse_instance(doc)

    @pytest.mark.parametrize(
        "bad", [True, "1.0", [1.0]], ids=["bool", "string", "nested"]
    )
    def test_non_numbers_name_the_first_bad_entry(self, bad):
        doc = _minimal_doc()
        doc["samples"].append({"point": [0.5]})
        doc["samples"][1]["point"] = [bad]
        doc["samples"][2]["point"] = ["b"]
        message = "^sample 1 point must contain only numbers$"
        with pytest.raises(ValueError, match=message):
            parse_instance(doc)
        doc = _minimal_doc()
        doc["boxes"][0]["hi"] = [bad]
        with pytest.raises(ValueError, match="^box 0 hi must contain only numbers$"):
            parse_instance(doc)
        doc = _minimal_doc()
        doc["boxes"][0]["weight"] = bad
        with pytest.raises(ValueError, match="^box 0 weight must be a number$"):
            parse_instance(doc)
        doc = _minimal_doc()
        for sample in doc["samples"]:
            sample["demand"] = 0.5
        doc["samples"][1]["demand"] = bad
        with pytest.raises(ValueError, match="^sample 1 demand must be a number$"):
            parse_instance(doc)

    def test_entries_not_objects_are_named(self):
        doc = _minimal_doc()
        doc["samples"][1] = [1.0]
        with pytest.raises(ValueError, match="^sample 1 must be an object$"):
            parse_instance(doc)
        doc = _minimal_doc()
        del doc["boxes"][0]["weight"]
        with pytest.raises(ValueError, match="missing key 'weight'"):
            parse_instance(doc)

    def test_number_subclasses_take_the_walk(self):
        # The walk takes any int or float, so a float subclass such as
        # np.float64 parses to the bits of the plain float.
        doc = _minimal_doc()
        plain, _ = parse_instance(doc)
        doc["samples"][0]["point"] = [np.float64(-1.0)]
        doc["boxes"][0]["weight"] = np.float64(0.5)
        walked, _ = parse_instance(doc)
        assert walked.samples.points.tobytes() == plain.samples.points.tobytes()
        assert walked.density.boxes[0][1] == plain.density.boxes[0][1]

    def test_partial_demands_rejected(self):
        doc = _minimal_doc()
        doc["samples"][0]["demand"] = 0.5
        with pytest.raises(ValueError, match="every sample carries a demand"):
            parse_instance(doc)

    def test_overlapping_boxes_rejected(self):
        doc = _minimal_doc()
        doc["boxes"] = [
            {"lo": [-1.0], "hi": [1.0], "weight": 0.25},
            {"lo": [0.0], "hi": [2.0], "weight": 0.25},
        ]
        with pytest.raises(ValueError, match="overlap"):
            parse_instance(doc)

    def test_wrong_total_mass_rejected(self):
        doc = _minimal_doc()
        doc["boxes"][0]["weight"] = 0.4
        with pytest.raises(ValueError, match="mass"):
            parse_instance(doc)

    def test_non_object_document(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_instance([1, 2, 3])


class TestSerialization:
    def test_key_order_is_canonical(self):
        instance, _ = parse_instance(_minimal_doc())
        doc = serialize_instance(instance, {"name": "minimal"})
        assert list(doc) == ["dimension", "boxes", "samples", "metadata"]
        assert all("demand" in s for s in doc["samples"])

    def test_parse_serialize_is_idempotent(self):
        """A sloppily formatted document reaches a fixed point in one pass."""
        text = json.dumps(
            {
                "metadata": {"name": "sloppy"},
                "samples": [{"point": [1]}, {"point": [-1]}],
                "boxes": [{"weight": 0.5, "hi": [1], "lo": [-1]}],
                "dimension": 1,
            }
        )
        instance, meta = parse_instance(json.loads(text))
        once = dumps_instance(instance, meta)
        again_instance, again_meta = parse_instance(json.loads(once))
        assert dumps_instance(again_instance, again_meta) == once

    def test_round_trip_preserves_fixtures(self, tmp_path):
        for name, instance in named_instances().items():
            path = tmp_path / f"{name}.json"
            save_instance(path, instance, {"name": name, "seed": 1})
            loaded, meta = load_instance(path)
            assert meta == {"name": name, "seed": 1}
            assert loaded.dimension == instance.dimension
            assert_allclose(loaded.samples.points, instance.samples.points)
            assert_allclose(loaded.samples.demands, instance.samples.demands)
            for (ba, wa), (bb, wb) in zip(
                loaded.density.boxes, instance.density.boxes
            ):
                assert_allclose(ba.lo, bb.lo)
                assert_allclose(ba.hi, bb.hi)
                assert wa == wb
            assert dumps_instance(loaded, meta) == path.read_text()

    def test_floats_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(9)
        doc = _minimal_doc()
        lo = float(-1 - rng.random())
        doc["boxes"][0]["lo"] = [lo]
        doc["boxes"][0]["weight"] = 1.0 / (1.0 - lo)
        instance, _ = parse_instance(doc)
        path = tmp_path / "f.json"
        save_instance(path, instance)
        loaded, _ = load_instance(path)
        assert float(loaded.density.boxes[0][0].lo[0]) == lo

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_instance(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_instance(tmp_path / "absent.json")
