"""Benchmark fixtures: two simulated sites, a reference world, a manifest.

Site 1 is a hallway / kitchen / office / lounge corridor and site 2 a
parking lot / office / laboratory corridor, both 60 waypoints long with a
3.5 m sensing range.  Object placement follows two rules that keep the
scene labeling clean: the first object of a zone sits 3.2 m past the
zone's first waypoint (visible from it, invisible from the previous one),
and the last object of a zone sits at least 3.6 m before the next zone's
first waypoint.  Waypoints that see nothing characteristic inherit the
current label, so zone interiors may go blind without flipping.

The co-occurrence table is tuned so that every frame's naive-Bayes vote
lands on its zone's label with a positive margin; the comments on the
tricky rows record the competing hypothesis they defend against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidSpec
from .symbols import SCENE_LABELS, ClassifierRegistry, default_registry
from .world import (
    CooccurrenceModel,
    DetectedObject,
    LatentObject,
    Pose,
    WorldModel,
    WorldSpec,
)

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_COLORS = ("red", "blue", "green", "yellow", "black", "white")

# Classes that vote in scene classification; persons appear everywhere and
# carry no scene information.
CHARACTERISTIC_CLASSES = (
    "ball", "bottle", "chair", "cone", "couch", "cup", "fork", "keyboard",
    "microwave", "suitcase", "umbrella",
)

# P(class | scene) over the characteristic classes; every row sums to one.
COOCCURRENCE_ROWS = {
    "hallway": {
        "umbrella": 0.40, "ball": 0.15, "suitcase": 0.10, "bottle": 0.05,
        "chair": 0.05, "cone": 0.05, "couch": 0.05, "cup": 0.05,
        "fork": 0.03, "keyboard": 0.04, "microwave": 0.03,
    },
    "kitchen": {
        # keyboard stays tiny so keyboard+cup frames vote office, not here.
        "cup": 0.35, "microwave": 0.18, "fork": 0.16, "bottle": 0.12,
        "chair": 0.08, "couch": 0.03, "ball": 0.02, "cone": 0.02,
        "suitcase": 0.02, "keyboard": 0.01, "umbrella": 0.01,
    },
    "laboratory": {
        # ball must beat hallway's 0.15 for ball-only frames.
        "ball": 0.30, "bottle": 0.25, "keyboard": 0.12, "chair": 0.08,
        "cone": 0.05, "fork": 0.05, "microwave": 0.05, "suitcase": 0.05,
        "couch": 0.02, "cup": 0.02, "umbrella": 0.01,
    },
    "lounge": {
        "couch": 0.45, "chair": 0.10, "bottle": 0.08, "cup": 0.08,
        "ball": 0.05, "fork": 0.05, "keyboard": 0.05, "microwave": 0.05,
        "suitcase": 0.04, "umbrella": 0.03, "cone": 0.02,
    },
    "office": {
        # cup at 0.07 so keyboard+cup frames (site 1 office) beat kitchen.
        "keyboard": 0.35, "chair": 0.25, "cup": 0.07, "suitcase": 0.06,
        "bottle": 0.05, "couch": 0.05, "ball": 0.04, "cone": 0.04,
        "umbrella": 0.04, "fork": 0.03, "microwave": 0.02,
    },
    "parking_lot": {
        # suitcase+suitcase+cone frames must beat warehouse's suitcase row.
        "cone": 0.55, "suitcase": 0.20, "ball": 0.05, "bottle": 0.04,
        "chair": 0.04, "umbrella": 0.03, "couch": 0.02, "cup": 0.02,
        "fork": 0.02, "keyboard": 0.02, "microwave": 0.01,
    },
    "warehouse": {
        "suitcase": 0.30, "cone": 0.18, "ball": 0.10, "bottle": 0.10,
        "chair": 0.08, "couch": 0.06, "cup": 0.05, "fork": 0.04,
        "keyboard": 0.04, "microwave": 0.03, "umbrella": 0.02,
    },
    "workshop": {
        "cone": 0.28, "fork": 0.12, "bottle": 0.10, "chair": 0.10,
        "keyboard": 0.10, "ball": 0.08, "cup": 0.06, "microwave": 0.06,
        "suitcase": 0.05, "umbrella": 0.03, "couch": 0.02,
    },
}


def default_cooccurrence() -> CooccurrenceModel:
    return CooccurrenceModel.from_dict(COOCCURRENCE_ROWS,
                                       CHARACTERISTIC_CLASSES)


def _corridor(n: int = 60) -> tuple[Pose, ...]:
    return tuple((i + 0.5, 0.0, 0.0) for i in range(n))


def _objects(rows) -> tuple[LatentObject, ...]:
    out = []
    counters: dict[str, int] = {}
    for cls, x, y, region, color in rows:
        counters[cls] = counters.get(cls, 0) + 1
        out.append(LatentObject(
            id=f"{cls}-{counters[cls]}", cls=cls, color=color,
            pose=(x, y, 0.0), region=region,
        ))
    return tuple(out)


def site1_spec() -> WorldSpec:
    """Hallway (10 wp), kitchen (30), office (10), lounge (10); 37 objects."""
    rows = [
        # hallway: waypoints 0..9
        ("umbrella", 3.0, 1.0, "hallway", "red"),
        ("ball", 5.5, 1.0, "hallway", "yellow"),
        ("person", 6.5, -1.2, "hallway", "white"),
        ("umbrella", 7.0, -1.0, "hallway", "black"),
        # kitchen: waypoints 10..39, objects within x in [13.7, 36.9]
        ("fork", 13.7, 0.8, "kitchen", "white"),
        ("cup", 14.5, 1.0, "kitchen", "red"),
        ("bottle", 15.5, -0.9, "kitchen", "green"),
        ("chair", 15.8, -1.0, "kitchen", "black"),
        ("microwave", 16.2, 1.2, "kitchen", "white"),
        ("cup", 17.0, -1.0, "kitchen", "blue"),
        ("bottle", 18.3, 0.9, "kitchen", "blue"),
        ("person", 19.0, -1.3, "kitchen", "white"),
        ("cup", 19.5, 1.0, "kitchen", "green"),
        ("fork", 20.8, 0.8, "kitchen", "black"),
        ("bottle", 21.2, -1.1, "kitchen", "white"),
        ("cup", 22.0, -1.0, "kitchen", "yellow"),
        ("microwave", 23.1, -1.2, "kitchen", "black"),
        ("cup", 24.5, 1.0, "kitchen", "red"),
        ("bottle", 25.8, 1.1, "kitchen", "green"),
        ("fork", 26.3, -0.8, "kitchen", "white"),
        ("cup", 27.0, -1.0, "kitchen", "black"),
        ("person", 27.5, 1.3, "kitchen", "white"),
        ("bottle", 28.4, -0.9, "kitchen", "red"),
        ("chair", 28.9, 1.0, "kitchen", "blue"),
        ("cup", 29.5, 1.0, "kitchen", "white"),
        ("microwave", 30.2, 1.2, "kitchen", "white"),
        ("fork", 31.4, 0.8, "kitchen", "green"),
        ("cup", 32.0, -1.0, "kitchen", "blue"),
        ("bottle", 33.0, 0.9, "kitchen", "yellow"),
        ("person", 33.5, -1.3, "kitchen", "white"),
        ("cup", 34.5, 1.0, "kitchen", "green"),
        ("microwave", 35.4, -1.0, "kitchen", "black"),
        ("fork", 36.9, -0.8, "kitchen", "blue"),
        # office: waypoints 40..49
        ("keyboard", 43.7, 0.8, "office", "black"),
        ("cup", 43.7, 1.4, "office", "white"),
        # lounge: waypoints 50..59
        ("couch", 53.7, 0.8, "lounge", "red"),
        ("cup", 53.7, 1.4, "lounge", "yellow"),
    ]
    return WorldSpec(
        name="site-1", seed=101, objects=_objects(rows),
        trajectory=_corridor(), cooccurrence=default_cooccurrence(),
    )


def site2_spec() -> WorldSpec:
    """Parking lot (12 wp), office (30), laboratory (18); 36 objects."""
    rows = [
        # parking lot: waypoints 0..11
        ("suitcase", 2.8, 1.3, "parking_lot", "black"),
        ("cone", 3.7, 0.8, "parking_lot", "yellow"),
        ("suitcase", 4.2, 1.2, "parking_lot", "blue"),
        # office: waypoints 12..41, objects within x in [15.7, 38.9]
        ("keyboard", 15.7, 0.8, "office", "black"),
        ("suitcase", 26.8, 1.9, "office", "red"),
        ("keyboard", 27.0, 1.6, "office", "white"),
        ("keyboard", 38.9, -0.8, "office", "black"),
    ]
    chair_y = (1.0, -1.0)
    for k in range(17):
        x = round(16.4 + 1.3 * k, 1)
        rows.append(("chair", x, chair_y[k % 2], "office", _COLORS[k % 6]))
    for k, x in enumerate((18.0, 23.0, 28.0, 33.0, 36.0)):
        rows.append(("person", x, -1.4 if k % 2 == 0 else 1.4, "office", "white"))
    ball_y = (0.8, -0.9, 1.0, -1.1, 0.8, -0.9, 1.0)
    for k in range(7):
        # laboratory: waypoints 42..59
        x = round(45.7 + 1.7 * k, 1)
        rows.append(("ball", x, ball_y[k], "laboratory", _COLORS[k % 6]))
    return WorldSpec(
        name="site-2", seed=202, objects=_objects(rows),
        trajectory=_corridor(), cooccurrence=default_cooccurrence(),
    )


# Site name -> the function that builds its spec.
SITES = {"site-1": site1_spec, "site-2": site2_spec}


def site_spec(name: str) -> WorldSpec:
    if name not in SITES:
        raise InvalidSpec(
            f"unknown site {name!r}; expected one of {sorted(SITES)}")
    return SITES[name]()


def tiled(spec: WorldSpec, copies: int) -> WorldSpec:
    """``spec`` repeated along the corridor, each copy 60 m further on.

    Object ids get a ``~k`` suffix, so every copy's objects stay
    distinct; a long log of a site is the simulation of its tiling.
    """
    objects = tuple(
        replace(o, id=f"{o.id}~{k}", pose=(o.pose[0] + 60.0 * k, o.pose[1], o.pose[2]))
        for k in range(copies) for o in spec.objects)
    trajectory = tuple((x + 60.0 * k, y, theta)
                       for k in range(copies) for x, y, theta in spec.trajectory)
    return replace(spec, objects=objects, trajectory=trajectory)


def revisited(spec: WorldSpec, passes: int) -> WorldSpec:
    """``spec`` with its trajectory driven ``passes`` times over.

    The objects stay as they are, so every pass senses them again: a long
    log of a robot that revisits each place of the site.
    """
    return replace(spec, trajectory=spec.trajectory * passes)


def reference_world(registry: ClassifierRegistry) -> WorldModel:
    """Dense synthetic world with two objects per attribute combination.

    Objects sit on a spiral so every distance from the origin is distinct,
    which makes nearest / farthest resolution unambiguous.  Used as the
    grounding context when training and evaluating on the corpus.
    """
    objects = []
    n = 0
    for cls in registry.object_classes:
        for color in registry.colors:
            for region in SCENE_LABELS:
                for _ in range(2):
                    radius = 2.0 + 0.03 * n
                    angle = n * GOLDEN_ANGLE
                    objects.append(DetectedObject(
                        id=f"ref{n:04d}", cls=cls, color=color,
                        pose=(radius * math.cos(angle),
                              radius * math.sin(angle), 0.0),
                        region=region, provenance=frozenset(),
                    ))
                    n += 1
    return WorldModel.of(sorted(objects, key=lambda o: o.id),
                         robot_pose=(0.0, 0.0, 0.0))


# Common one-word nouns and colour words that a wider registry adds to the
# default one, in the order it takes them.  No sites hold these classes.
_WIDE_CLASSES = (
    "apple", "bag", "basket", "bench", "bicycle", "book", "bowl", "box",
    "bucket", "cabinet", "camera", "candle", "clock", "desk", "door", "drill",
    "fan", "hammer", "helmet", "jacket", "kettle", "ladder", "lamp", "laptop",
    "mug", "pillow", "plant", "printer", "radio", "rope", "shelf", "shoe",
    "sofa", "spoon", "stool", "table",
)
_WIDE_COLORS = (
    "orange", "purple", "pink", "brown", "gray", "cyan", "magenta", "violet",
    "indigo", "beige", "maroon", "navy", "olive", "teal", "turquoise", "gold",
    "silver", "crimson",
)


def wide_registry(multiple: int) -> ClassifierRegistry:
    """The default registry with ``multiple`` times its object classes and
    colours, 1 to 4: the default ones, then the first of ``_WIDE_CLASSES``
    and ``_WIDE_COLORS``.  Its cost tables are the default ones."""
    registry = default_registry()
    if multiple not in range(1, 5):
        raise InvalidSpec(f"wide_registry takes a multiple of 1 to 4, not {multiple!r}")
    classes, colors = registry.object_classes, registry.colors
    return replace(registry,
                   object_classes=classes + _WIDE_CLASSES[:(multiple - 1) * len(classes)],
                   colors=colors + _WIDE_COLORS[:(multiple - 1) * len(colors)])


@dataclass(frozen=True)
class BenchmarkCase:
    instruction: str
    site: str


_MANIFEST = (
    BenchmarkCase("go to the farthest umbrella in the hallway", "site-1"),
    BenchmarkCase("navigate to the nearest suitcase in the parking lot", "site-2"),
    BenchmarkCase("go to the farthest cup in the kitchen", "site-1"),
    BenchmarkCase("go to the nearest keyboard in the office", "site-2"),
    BenchmarkCase("go to the nearest ball in the hallway", "site-1"),
    BenchmarkCase("go to the farthest ball in the lab", "site-2"),
)


def benchmark_manifest() -> tuple[BenchmarkCase, ...]:
    """The six instruction / site pairs the efficiency comparison runs."""
    return _MANIFEST
