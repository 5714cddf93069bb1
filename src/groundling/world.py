"""Simulated robot world: sensing, scene classification, costed perception.

The simulator walks a fixed trajectory through a planar world of latent
objects.  At each waypoint it senses every object within
``SENSING_RANGE`` (3.5 m) as a raw detection carrying a pose relative to
the robot frame and apparent class/color values (exact unless a
confusion rate is configured).  A co-occurrence scene classifier labels
every observation as it is taken.

Perception is lazy and costed, and runs on a columnar ``DetectionSet``:
one numpy array per field, one row per detection.  A build reads the
records once, gathers into columns only those of a selected object
detector's class, and sorts the rows once; every object detector charges
for that one scan.  The noise filter is a boolean mask, each color
detector a masked assignment, and the bounding-box and pose estimators
one vectorised rotation of every row into the world frame, element for
element the IEEE operations of the scalar transform.  A detection only
becomes a world-model object once the bounding-box and pose stages have
run.  Duplicate detections of one physical object merge by class and
proximity, read from the columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    InvalidSpec,
    MALFORMED_INPUT,
    UnknownClassifier,
    UnknownSchemaVersion,
)
from .symbols import (
    BBOX_ESTIMATOR,
    CLASSIFIER_KINDS,
    COLOR_DETECTOR,
    ClassifierRegistry,
    NOISE_FILTER,
    OBJECT_DETECTOR,
    POSE_ESTIMATOR,
    PerceptionSymbol,
    SCENE_LABELS,
)

SENSING_RANGE = 3.5
MERGE_RADIUS = 0.5
# Laplace pseudo-mass per characteristic class in the scene classifier.
LAPLACE_ALPHA = 1.0
FALLBACK_SCENE = "hallway"
OBS_LOG_SCHEMA = 1

Pose = tuple[float, float, float]


def planar_distance(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _to_robot_frame(robot: Pose, point: Pose) -> Pose:
    dx, dy = point[0] - robot[0], point[1] - robot[1]
    c, s = math.cos(-robot[2]), math.sin(-robot[2])
    return (c * dx - s * dy, s * dx + c * dy, point[2] - robot[2])


@dataclass(frozen=True)
class LatentObject:
    id: str
    cls: str
    color: str
    pose: Pose
    region: str


@dataclass(frozen=True)
class RawDetection:
    """One sensed return: pose relative to the robot frame plus appearances."""

    latent_id: str | None
    rel: Pose
    apparent_class: str
    apparent_color: str
    noisy: bool = False


@dataclass(frozen=True)
class Observation:
    t: int
    robot_pose: Pose
    sensed: tuple[RawDetection, ...]
    scene_label: str
    scene_scores: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class CooccurrenceModel:
    """Per-scene class-conditional table used by the scene classifier.

    ``table`` maps scene label -> (class -> probability); rows are
    normalized over the characteristic classes.  Non-characteristic
    classes never vote.
    """

    table: tuple[tuple[str, tuple[tuple[str, float], ...]], ...]
    characteristic: frozenset[str]
    prior: tuple[tuple[str, float], ...] = ()

    @staticmethod
    def from_dict(rows: dict[str, dict[str, float]], characteristic,
                  prior: dict[str, float] | None = None) -> "CooccurrenceModel":
        table = []
        for label in sorted(rows):
            row = rows[label]
            total = sum(row.values())
            if total <= 0 or any(v < 0 for v in row.values()):
                raise InvalidSpec(f"co-occurrence row for {label!r} is not normalizable")
            # Already-normalised rows pass through untouched, so a table
            # written as probabilities keeps them bit for bit.
            if abs(total - 1.0) < 1e-9:
                total = 1.0
            table.append((label, tuple((c, row[c] / total) for c in sorted(row))))
        labels = [label for label, _ in table]
        if prior is None:
            prior = {label: 1.0 / len(labels) for label in labels}
        ptotal = sum(prior.values())
        if abs(ptotal - 1.0) < 1e-9:
            ptotal = 1.0
        prior_t = tuple((l, prior[l] / ptotal) for l in sorted(prior))
        return CooccurrenceModel(
            table=tuple(table),
            characteristic=frozenset(characteristic),
            prior=prior_t,
        )

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.table)

    def row(self, label: str) -> dict[str, float]:
        for l, row in self.table:
            if l == label:
                return dict(row)
        raise KeyError(label)

    def smoothed_log_prob(self, cls: str, label: str) -> float:
        # Laplace smoothing on the normalized row; rows stay valid
        # distributions.
        k = len(self.characteristic)
        p = self.row(label).get(cls, 0.0)
        return math.log((p + LAPLACE_ALPHA) / (1.0 + LAPLACE_ALPHA * k))

    def log_prior(self, label: str) -> float:
        for l, p in self.prior:
            if l == label:
                return math.log(p) if p > 0 else -math.inf
        return -math.inf


def _default_scores() -> tuple[tuple[str, float], ...]:
    # Used when no previous observation exists: the fallback label wins.
    return tuple(
        (label, 0.0 if label == FALLBACK_SCENE else -1.0) for label in SCENE_LABELS
    )


def classify_detections(classes, model: CooccurrenceModel,
                        prev_label: str | None = None,
                        prev_scores: tuple[tuple[str, float], ...] | None = None,
                        ) -> tuple[str, tuple[tuple[str, float], ...]]:
    """Naive-Bayes vote over apparent classes.

    Frames with zero characteristic detections inherit the previous
    observation's label and scores (fallback label when there is none), so
    the label always maximizes the reported scores.
    """
    voting = [c for c in classes if c in model.characteristic]
    if not voting:
        if prev_label is not None and prev_scores is not None:
            return prev_label, prev_scores
        scores = _default_scores()
        return FALLBACK_SCENE, scores
    scores = []
    for label in model.labels():
        s = model.log_prior(label)
        for c in voting:
            s += model.smoothed_log_prob(c, label)
        scores.append((label, s))
    top = max(v for _, v in scores)
    label = min(l for l, v in scores if v == top)
    return label, tuple(scores)


@dataclass(frozen=True)
class WorldSpec:
    """Declarative description of a simulated site."""

    name: str
    seed: int
    objects: tuple[LatentObject, ...]
    trajectory: tuple[Pose, ...]
    cooccurrence: CooccurrenceModel
    noise: float = 0.0
    clutter_rate: float = 0.0

    def __post_init__(self):
        ids = [o.id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise InvalidSpec("duplicate latent object id")
        if not 0.0 <= self.noise <= 1.0:
            raise InvalidSpec("noise must be in [0, 1]")
        if not 0.0 <= self.clutter_rate <= 1.0:
            raise InvalidSpec("clutter rate must be in [0, 1]")
        for o in self.objects:
            if o.region not in SCENE_LABELS:
                raise InvalidSpec(f"object {o.id} has unknown region {o.region!r}")


def simulate(spec: WorldSpec, registry: ClassifierRegistry,
             ) -> tuple[Observation, ...]:
    """Run the trajectory and return one labeled observation per waypoint.

    Deterministic for a fixed spec: all randomness (confusion draws,
    clutter) comes from a generator seeded with ``spec.seed``.  Confused
    and clutter classes are drawn from the registry's object classes.
    """
    rng = np.random.default_rng(spec.seed)
    classes = registry.object_classes
    colors = tuple(sorted({o.color for o in spec.objects})) or ("white",)
    range2 = SENSING_RANGE * SENSING_RANGE

    observations: list[Observation] = []
    prev_label: str | None = None
    prev_scores = None
    for t, robot in enumerate(spec.trajectory):
        sensed: list[RawDetection] = []
        for obj in spec.objects:
            dx, dy = obj.pose[0] - robot[0], obj.pose[1] - robot[1]
            if dx * dx + dy * dy > range2:
                continue
            apparent_class = obj.cls
            apparent_color = obj.color
            if spec.noise > 0:
                if rng.random() < spec.noise:
                    apparent_class = str(rng.choice(classes))
                if rng.random() < spec.noise:
                    apparent_color = str(rng.choice(colors))
            sensed.append(RawDetection(
                latent_id=obj.id,
                rel=_to_robot_frame(robot, obj.pose),
                apparent_class=apparent_class,
                apparent_color=apparent_color,
            ))
        if spec.clutter_rate > 0 and rng.random() < spec.clutter_rate:
            angle = rng.random() * 2 * math.pi
            radius = rng.random() * SENSING_RANGE
            sensed.append(RawDetection(
                latent_id=None,
                rel=(radius * math.cos(angle), radius * math.sin(angle), 0.0),
                apparent_class=str(rng.choice(classes)),
                apparent_color=str(rng.choice(colors)),
                noisy=True,
            ))
        label, scores = classify_detections(
            [d.apparent_class for d in sensed],
            spec.cooccurrence, prev_label, prev_scores,
        )
        observations.append(Observation(
            t=t, robot_pose=robot, sensed=tuple(sensed),
            scene_label=label, scene_scores=scores,
        ))
        prev_label, prev_scores = label, scores
    return tuple(observations)


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """Detections routed through the perception pipeline, one array per field.

    Row ``i`` is one raw detection; rows are in (t, class, rel) order.
    ``obs[i]`` indexes ``observations``, the observations the scan found
    rows in, and ``t[i]`` is that observation's time; ``rel`` holds the
    pose relative to the robot frame, ``cls``/``color`` the apparent class
    and colour, and ``noisy`` the simulator's noise flag.  ``colored``
    marks the rows whose colour a colour detector confirmed.  ``position``
    (x, y per row) and ``theta`` stay None until the bounding-box and pose
    stages compute them for every row.  ``scanned`` counts the raw records
    read to find the rows.
    """

    observations: tuple[Observation, ...]
    scanned: int
    obs: np.ndarray
    t: np.ndarray
    rel: np.ndarray
    cls: np.ndarray
    color: np.ndarray
    noisy: np.ndarray
    colored: np.ndarray
    position: np.ndarray | None = None
    theta: np.ndarray | None = None

    @staticmethod
    def scan(observations, classes) -> "DetectionSet":
        """The raw detections whose apparent class is in ``classes``.

        One pass over the records gathers only the hits into columns, and
        one stable sort puts them in (t, class, rel) order: rows with
        equal keys keep their record order.  No record is read when
        ``classes`` is empty.
        """
        sources: list[Observation] = []
        index: list[int] = []
        hits: list[RawDetection] = []
        scanned = 0
        for o in observations if classes else ():
            scanned += len(o.sensed)
            before = len(hits)
            for raw in o.sensed:
                if raw.apparent_class in classes:
                    hits.append(raw)
            if len(hits) > before:
                index += [len(sources)] * (len(hits) - before)
                sources.append(o)
        obs = np.array(index, dtype=np.intp)
        t = np.array([o.t for o in sources], dtype=np.int64)[obs]
        rel = np.array([r.rel for r in hits], dtype=float).reshape(-1, 3)
        cls = np.array([r.apparent_class for r in hits], dtype=str)
        order = np.lexsort((rel[:, 2], rel[:, 1], rel[:, 0], cls, t))
        return DetectionSet(
            observations=tuple(sources),
            scanned=scanned,
            obs=obs[order],
            t=t[order],
            rel=rel[order],
            cls=cls[order],
            color=np.array([r.apparent_color for r in hits], dtype=str)[order],
            noisy=np.array([r.noisy for r in hits], dtype=bool)[order],
            colored=np.zeros(len(hits), dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.obs)

    def take(self, rows) -> "DetectionSet":
        """The rows that ``rows`` (a mask or an index array) selects."""
        return DetectionSet(
            observations=self.observations, scanned=self.scanned,
            obs=self.obs[rows], t=self.t[rows], rel=self.rel[rows],
            cls=self.cls[rows], color=self.color[rows],
            noisy=self.noisy[rows], colored=self.colored[rows],
            position=None if self.position is None else self.position[rows],
            theta=None if self.theta is None else self.theta[rows],
        )

    def robot_poses(self) -> np.ndarray:
        """One (x, y, theta) row per observation, indexed like ``obs``."""
        return np.array([o.robot_pose for o in self.observations],
                        dtype=float).reshape(-1, 3)


@dataclass(frozen=True)
class DetectedObject:
    id: str
    cls: str
    color: str | None
    pose: Pose
    region: str
    provenance: frozenset[int]


@dataclass(frozen=True)
class WorldModel:
    objects: tuple[DetectedObject, ...]
    total_cost: float
    robot_pose: Pose
    cost_ledger: tuple[tuple[str, float], ...] = ()

    def object_ids(self) -> frozenset[str]:
        return frozenset(o.id for o in self.objects)

    def digest(self) -> frozenset[tuple[str, str]]:
        """The (key, value) attribute pairs of the objects: factor context."""
        return frozenset(
            pair for o in self.objects
            for pair in (("class", o.cls), ("color", o.color), ("region", o.region))
            if pair[1] is not None)


def run_classifier(symbol: PerceptionSymbol, observations,
                   registry: ClassifierRegistry, detections: DetectionSet,
                   ) -> tuple[DetectionSet, float]:
    """Run one classifier and return (detections, cost).

    An object detector passes ``detections``, the build's one scan of
    ``observations`` for the selected detectors' classes, through
    unchanged, and charges base + per-item times the records that scan
    read (nothing without observations).  The other stages take the
    current detection set and charge base + per-item times its rows
    (nothing when it is empty): the noise filter drops simulator-flagged
    noise, color detectors confirm matching colors, and the bounding-box /
    pose estimators compute absolute geometry.
    """
    cost_model = registry.cost_for(symbol)
    if symbol.kind == OBJECT_DETECTOR:
        return detections, cost_model.cost(detections.scanned) if observations else 0.0

    if not len(detections):
        return detections, 0.0
    cost = cost_model.cost(len(detections))
    if symbol.kind == NOISE_FILTER:
        return detections.take(~detections.noisy), cost
    if symbol.kind == COLOR_DETECTOR:
        return replace(detections, colored=detections.colored
                       | (detections.color == symbol.param)), cost
    if symbol.kind == BBOX_ESTIMATOR:
        # x = rx + c*u - s*v, y = ry + s*u + c*v for rel (u, v), with cos
        # and sin from ``math`` once per robot pose: every element goes
        # through the same IEEE operations, in the same order, as the
        # scalar form.
        poses = detections.robot_poses()
        angles = poses[:, 2].tolist()
        cos = np.array([math.cos(a) for a in angles])[detections.obs]
        sin = np.array([math.sin(a) for a in angles])[detections.obs]
        robot, rel = poses[detections.obs], detections.rel
        x = robot[:, 0] + cos * rel[:, 0] - sin * rel[:, 1]
        y = robot[:, 1] + sin * rel[:, 0] + cos * rel[:, 1]
        return replace(detections, position=np.stack((x, y), axis=1)), cost
    if symbol.kind == POSE_ESTIMATOR:
        theta = detections.robot_poses()[detections.obs, 2] + detections.rel[:, 2]
        return replace(detections, theta=theta), cost
    raise UnknownClassifier(symbol.canon)


def _majority(values, default=None):
    """Most common value, ties broken by lexicographic order."""
    counts: dict = {}
    for v in values:
        if v is None:
            continue
        counts[v] = counts.get(v, 0) + 1
    if not counts:
        return default
    top = max(counts.values())
    return min(str(v) for v, n in counts.items() if n == top)


def _object_id(cls: str, x: float, y: float) -> str:
    return f"{cls}@{x:.1f},{y:.1f}"


def _cluster(points: list[tuple[float, float]]) -> list[list[int]]:
    """Union-find single-linkage clustering at the merge radius.

    Points are binned into square cells of side ``2 * MERGE_RADIUS``, and
    each point is tested only against the points of its own cell and the
    eight around it.  Two points the distance test links are less than
    ``2 * MERGE_RADIUS`` apart on each axis, so no link is missed; cells
    of side ``MERGE_RADIUS`` would not do, because the test's subtraction
    can round a gap just over the radius down to it (1.0 and
    0.49999999999999994 link).  A point with a non-finite coordinate links
    to nothing, as under the test.  Groups, and the members of each, come
    out in ascending index order.
    """
    n = len(points)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    side = 2.0 * MERGE_RADIUS
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(points):
        if math.isfinite(x) and math.isfinite(y):
            cells.setdefault((math.floor(x / side), math.floor(y / side)),
                             []).append(i)
    r2 = MERGE_RADIUS * MERGE_RADIUS
    for (cx, cy), members in cells.items():
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                near = cells.get((nx, ny))
                if near is None:
                    continue
                for i in members:
                    xi, yi = points[i]
                    for j in near:
                        if j <= i:
                            continue
                        dx = xi - points[j][0]
                        dy = yi - points[j][1]
                        if dx * dx + dy * dy <= r2:
                            ra, rb = find(i), find(j)
                            if ra != rb:
                                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _merge(detections: DetectionSet) -> list[DetectedObject]:
    """One object per cluster of same-class detections, at the centroid.

    Centroids are Python's left-to-right sums over the members in row
    order; the pose angle is that of the earliest member.  The colour is
    the members' most common apparent colour, kept only when a colour
    detector confirmed it on some member: which colour detectors ran
    decides whether the colour is known, never which colour it is.
    """
    ts = detections.t.tolist()
    xs = detections.position[:, 0].tolist()
    ys = detections.position[:, 1].tolist()
    thetas = detections.theta.tolist()
    colors = detections.color.tolist()
    colored = detections.colored.tolist()
    regions = [detections.observations[i].scene_label
               for i in detections.obs.tolist()]
    by_class: dict[str, list[int]] = {}
    for i, cls in enumerate(detections.cls.tolist()):
        by_class.setdefault(cls, []).append(i)
    objects: list[DetectedObject] = []
    for cls in sorted(by_class):
        rows = by_class[cls]
        for group in _cluster([(xs[i], ys[i]) for i in rows]):
            members = [rows[k] for k in group]
            cx = sum(xs[i] for i in members) / len(members)
            cy = sum(ys[i] for i in members) / len(members)
            color = _majority(colors[i] for i in members)
            if not any(colored[i] for i in members if colors[i] == color):
                color = None
            objects.append(DetectedObject(
                id=_object_id(cls, cx, cy),
                cls=cls,
                color=color,
                pose=(cx, cy, min((ts[i], thetas[i]) for i in members)[1]),
                region=_majority((regions[i] for i in members),
                                 default=FALLBACK_SCENE),
                provenance=frozenset(ts[i] for i in members),
            ))
    return objects


def build_world_model(observations, classifiers, registry: ClassifierRegistry,
                      robot_pose: Pose | None = None) -> WorldModel:
    """Run the selected classifiers over the observations and merge objects.

    The object detectors share one scan of the records for their classes.
    The stages then run in ``CLASSIFIER_KINDS`` order -- object detectors,
    noise filter, color detectors, bounding box, pose -- and in canonical
    order within a kind; each stage that costs something adds a ledger
    entry.  The bounding-box and pose stages run only as a pair: without
    both no detection can become an object (its position is unknown), so
    a build with one of them runs neither.  Duplicate detections of one
    object -- same apparent class within the merge radius -- collapse to a
    single object at the centroid.
    """
    obs = sorted(observations, key=lambda o: o.t)
    selected = frozenset(classifiers)
    unknown = sorted(c.canon for c in selected - registry.classifier_set)
    if unknown:
        raise UnknownClassifier(unknown[0])
    if robot_pose is None:
        robot_pose = obs[-1].robot_pose if obs else (0.0, 0.0, 0.0)

    geometry = {PerceptionSymbol(BBOX_ESTIMATOR), PerceptionSymbol(POSE_ESTIMATOR)}
    stages = sorted(selected if geometry <= selected else selected - geometry,
                    key=lambda c: (CLASSIFIER_KINDS.index(c.kind), c.canon))
    current = DetectionSet.scan(
        obs, frozenset(c.param for c in stages if c.kind == OBJECT_DETECTOR))
    ledger: list[tuple[str, float]] = []
    for symbol in stages:
        current, cost = run_classifier(symbol, obs, registry, current)
        if cost:
            ledger.append((symbol.canon, cost))

    objects = _merge(current) if current.theta is not None and len(current) else []
    objects.sort(key=lambda o: o.id)
    return WorldModel(
        objects=tuple(objects),
        total_cost=sum(c for _, c in ledger),
        robot_pose=robot_pose,
        cost_ledger=tuple(ledger),
    )


# ---------------------------------------------------------------------------
# Serialization

def _log_score(value) -> float:
    # A log-probability: -inf is a label with prior 0, which ``simulate``
    # writes; NaN and +inf are not scores.
    if type(value) not in (int, float) or math.isnan(value) or value == math.inf:
        raise InvalidSpec(f"scene score must be a number below +inf, got {value!r}")
    return float(value)


def _pose(values, field: str) -> Pose:
    if (not isinstance(values, list) or len(values) != 3
            or any(type(v) not in (int, float) or not math.isfinite(v)
                   for v in values)):
        raise InvalidSpec(f"{field} must be three finite numbers, got {values!r}")
    return tuple(float(v) for v in values)


def _text(value, field: str) -> str:
    if not isinstance(value, str):
        raise InvalidSpec(f"{field} must be a string, got {value!r}")
    return value


def save_observations(observations, path) -> None:
    lines = [json.dumps({"schema": OBS_LOG_SCHEMA, "kind": "observation_log"},
                        sort_keys=True)]
    for o in observations:
        lines.append(json.dumps({
            "t": o.t,
            "robot_pose": list(o.robot_pose),
            "scene_label": o.scene_label,
            "scene_scores": [[l, s] for l, s in o.scene_scores],
            "sensed": [
                {
                    "latent_id": d.latent_id,
                    "rel": list(d.rel),
                    "apparent_class": d.apparent_class,
                    "apparent_color": d.apparent_color,
                    "noisy": d.noisy,
                }
                for d in o.sensed
            ],
        }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


def _observation(rec) -> Observation:
    t = rec["t"]
    # The build keeps t in an int64 column.
    if type(t) is not int or not -2**63 <= t < 2**63:
        raise InvalidSpec(f"t must be a 64-bit integer, got {t!r}")
    return Observation(
        t=t,
        robot_pose=_pose(rec["robot_pose"], "robot_pose"),
        scene_label=_text(rec["scene_label"], "scene_label"),
        scene_scores=tuple((_text(label, "scene_scores label"), _log_score(score))
                           for label, score in rec["scene_scores"]),
        sensed=tuple(
            RawDetection(
                latent_id=d["latent_id"],
                rel=_pose(d["rel"], "rel"),
                apparent_class=_text(d["apparent_class"], "apparent_class"),
                apparent_color=_text(d["apparent_color"], "apparent_color"),
                noisy=bool(d["noisy"]),
            )
            for d in rec["sensed"]
        ),
    )


def load_observations(path) -> tuple[Observation, ...]:
    """Read an observation log written by ``save_observations``.

    Anything malformed raises ``InvalidSpec``: undecodable bytes, a line
    that is not JSON, a missing or mistyped field, a non-finite pose (a
    NaN would become an object at ``nan,nan``) or scene score (-inf, a
    label with prior 0, is a score), and a repeated ``t`` (the build keys
    provenance by ``t``).
    """
    try:
        lines = Path(path).read_text().splitlines()
        if not lines:
            raise InvalidSpec("empty observation log")
        header = json.loads(lines[0])
        if header.get("schema") != OBS_LOG_SCHEMA:
            raise UnknownSchemaVersion(header.get("schema"), OBS_LOG_SCHEMA)
        out: list[Observation] = []
        seen: set[int] = set()
        for line in lines[1:]:
            if not line.strip():
                continue
            obs = _observation(json.loads(line))
            if obs.t in seen:
                raise InvalidSpec(f"observation log {path} repeats t={obs.t}")
            seen.add(obs.t)
            out.append(obs)
    except MALFORMED_INPUT as exc:
        raise InvalidSpec(f"malformed observation log {path}: {exc!r}") from exc
    return tuple(out)
