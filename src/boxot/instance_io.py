"""JSON instance files: parsing, validation, and canonical serialization.

Schema: {"dimension": l, "boxes": [{"lo", "hi", "weight"}, ...],
"samples": [{"point", "demand"?}, ...], "metadata": {"name", "seed"?}}.
Demands may be omitted (all or none), defaulting to 1/n. Serialization is
canonical: fixed key order, two-space indent, shortest round-tripping float
representation, so parse -> serialize is idempotent byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geometry import BoxDensity, Hyperrectangle, Instance, SampleSet


def _require(data: dict, key: str):
    if key not in data:
        raise ValueError(f"instance file missing key {key!r}")
    return data[key]


def _vector(obj, what: str) -> list[float]:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{what} must be a non-empty list of numbers")
    out = []
    for v in obj:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{what} must contain only numbers")
        out.append(float(v))
    return out


def _samples_by_entry(raw_samples: list, dimension: int):
    """(points, demands or None), checked sample by sample; names the first
    bad sample."""
    points = []
    demands = []
    for j, entry in enumerate(raw_samples):
        if not isinstance(entry, dict):
            raise ValueError(f"sample {j} must be an object")
        point = _vector(_require(entry, "point"), f"sample {j} point")
        if len(point) != dimension:
            raise ValueError(f"sample {j} does not match dimension {dimension}")
        points.append(point)
        if "demand" in entry:
            demand = entry["demand"]
            if isinstance(demand, bool) or not isinstance(demand, (int, float)):
                raise ValueError(f"sample {j} demand must be a number")
            demands.append(float(demand))
    if demands and len(demands) != len(points):
        raise ValueError("either every sample carries a demand or none do")
    return np.array(points), np.array(demands) if demands else None


def parse_instance(data) -> tuple[Instance, dict]:
    """Validate a decoded JSON document and build the instance it describes.

    The boxes and the samples are walked one by one, so that a refusal names
    the first bad entry.
    """
    if not isinstance(data, dict):
        raise ValueError("instance file must be a JSON object")
    dimension = _require(data, "dimension")
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise ValueError("dimension must be a positive integer")

    raw_boxes = _require(data, "boxes")
    if not isinstance(raw_boxes, list) or not raw_boxes:
        raise ValueError("boxes must be a non-empty list")
    boxes = []
    for i, entry in enumerate(raw_boxes):
        if not isinstance(entry, dict):
            raise ValueError(f"box {i} must be an object")
        lo = _vector(_require(entry, "lo"), f"box {i} lo")
        hi = _vector(_require(entry, "hi"), f"box {i} hi")
        weight = _require(entry, "weight")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValueError(f"box {i} weight must be a number")
        if len(lo) != dimension or len(hi) != dimension:
            raise ValueError(f"box {i} does not match dimension {dimension}")
        boxes.append((Hyperrectangle(lo, hi), float(weight)))

    raw_samples = _require(data, "samples")
    if not isinstance(raw_samples, list) or not raw_samples:
        raise ValueError("samples must be a non-empty list")
    points, demands = _samples_by_entry(raw_samples, dimension)

    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError("metadata must be an object")

    density = BoxDensity(dimension=dimension, boxes=tuple(boxes))
    if demands is not None:
        samples = SampleSet(points=points, demands=demands)
    else:
        samples = SampleSet.uniform(points)
    return Instance(density, samples), dict(metadata)


def serialize_instance(instance: Instance, metadata: dict | None = None) -> dict:
    """Canonical document for an instance; demands are always explicit."""
    density, samples = instance.density, instance.samples
    doc: dict = {"dimension": density.dimension}
    doc["boxes"] = [
        {"lo": [float(v) for v in box.lo], "hi": [float(v) for v in box.hi],
         "weight": float(w)}
        for box, w in density.boxes
    ]
    doc["samples"] = [
        {"point": [float(v) for v in p], "demand": float(b)}
        for p, b in zip(samples.points, samples.demands)
    ]
    meta = {"name": str((metadata or {}).get("name", "instance"))}
    seed = (metadata or {}).get("seed")
    if seed is not None:
        meta["seed"] = int(seed)
    doc["metadata"] = meta
    return doc


def dumps_instance(instance: Instance, metadata: dict | None = None) -> str:
    return json.dumps(serialize_instance(instance, metadata), indent=2) + "\n"


def load_instance(path: str | Path) -> tuple[Instance, dict]:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from None
    return parse_instance(data)


def save_instance(
    path: str | Path, instance: Instance, metadata: dict | None = None
) -> None:
    Path(path).write_text(dumps_instance(instance, metadata))
