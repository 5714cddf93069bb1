"""Simulated robot world: sensing, scene classification, costed perception.

The simulator walks a fixed trajectory through a planar world of latent
objects.  At each waypoint it senses every object within
``SENSING_RANGE`` (3.5 m) as a raw detection carrying a pose relative to
the robot frame and apparent class/color values (exact unless a
confusion rate is configured).  A co-occurrence scene classifier labels
every observation as it is taken.

An ``ObservationLog`` is the tuple of observations with its records
indexed as columns, built once when the log is made: one numpy array per
field, one row per record in (t, class, rel) order, class, colour and
scene label as codes in string order, and each class's rows listed.
``simulate`` and ``load_observations`` return one, and a build indexes
any other sequence it is given.  Observation filtering makes a view of a
log, an observation mask over the same columns.

Perception is lazy and costed, and runs on a ``DetectionSet``: rows of
the log's columns, plus what the stages compute.  A build reads no record
in Python and copies no record field: it gathers the row numbers of the
selected object detectors' classes, masked to a view's observations, and
every object detector charges for the records of the log's observations.
The noise filter narrows the rows, each color detector adds its colour's
code to the build's confirmed colours, and the bounding-box and pose
estimators one vectorised rotation of every row into the world frame,
element for element the IEEE operations of the scalar transform.  A
detection only becomes a world-model object once the bounding-box and
pose stages have run.

Duplicate detections of one physical object merge by class and
proximity, as array work over the columns: one grid pass links the rows
of every class, and ``bincount`` and one ``lexsort`` reduce each cluster
to an object.  The merge matches the row-wise reference bit for bit:
centroids summed left to right in row order, the earliest member's
angle, vote ties broken towards the smallest string, and the winning
colour only when the build confirmed it.  A ``WorldModel`` is the merged
objects as columns, in order of their smallest member row, plus the
build's cost; an id (``class@x,y``, with ``#2``, ``#3``, ... on objects
that repeat one) and a ``DetectedObject`` are made only when something
reads them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import compress, groupby

import numpy as np

from .errors import (
    InvalidSpec,
    UnknownClassifier,
    number,
    read_records,
    typed,
    write_records,
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
    signature_attrs,
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
        unknown = (set(rows) | set(prior or ())) - set(SCENE_LABELS)
        if unknown:
            raise InvalidSpec(f"scene labels outside the taxonomy: {sorted(unknown)}")
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
        p = dict(self.prior).get(label, 0.0)
        return math.log(p) if p > 0 else -math.inf

    @cached_property
    def terms(self) -> tuple[tuple[str, float, dict[str, float]], ...]:
        """Per label, in table order: the label, its log prior, and each
        characteristic class's smoothed log probability, computed once."""
        return tuple(
            (label, self.log_prior(label),
             {c: self.smoothed_log_prob(c, label) for c in self.characteristic})
            for label in self.labels())


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
    for label, s, log_prob in model.terms:
        for c in voting:
            s += log_prob[c]
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


def simulate(spec: WorldSpec, registry: ClassifierRegistry) -> ObservationLog:
    """Run the trajectory and return a log of one labeled observation per
    waypoint.

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
    return ObservationLog.of(observations)


def _encode(values: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct values, sorted, and each value's index among them."""
    vocabulary = tuple(sorted(set(values)))
    code = {v: k for k, v in enumerate(vocabulary)}
    return vocabulary, np.array([code[v] for v in values], dtype=np.intp)


@dataclass(frozen=True, eq=False)
class _Columns:
    """The records and observations of a log, one array per field.

    Rows are records in (t, class, rel) order: ``obs[i]`` indexes the
    log's observations in input order, and ``t``, ``rel``, ``cls``,
    ``color`` and ``noisy`` are the record's.  Class, colour and scene
    label are codes into vocabularies sorted per log, so that code order
    is string order.  ``class_rows[c]`` lists class ``c``'s rows in
    ascending order.  Per observation: ``times``, ``poses``, ``trig``
    (the cosine and sine of each pose angle, from ``math``), the
    scene-label code ``region`` and the record count ``counts``.
    """

    classes: tuple[str, ...]
    colors: tuple[str, ...]
    regions: tuple[str, ...]
    obs: np.ndarray
    t: np.ndarray
    rel: np.ndarray
    cls: np.ndarray
    color: np.ndarray
    noisy: np.ndarray
    class_rows: tuple[np.ndarray, ...]
    times: np.ndarray
    poses: np.ndarray
    trig: np.ndarray
    region: np.ndarray
    counts: np.ndarray

    @staticmethod
    def index(observations: tuple[Observation, ...]) -> _Columns:
        """One pass over the records, and one stable sort of the rows.

        Rows with equal (t, class, rel) keep their record order, so any
        subset of the rows, taken in row order, is in the order a stable
        sort of that subset alone would give.
        """
        records = [r for o in observations for r in o.sensed]
        counts = np.array([len(o.sensed) for o in observations], dtype=np.int64)
        classes, cls = _encode([r.apparent_class for r in records])
        colors, color = _encode([r.apparent_color for r in records])
        regions, region = _encode([o.scene_label for o in observations])
        obs = np.arange(len(observations)).repeat(counts)
        times = np.array([o.t for o in observations], dtype=np.int64)
        t = times[obs]
        rel = np.array([r.rel for r in records], dtype=float).reshape(-1, 3)
        order = np.lexsort((rel[:, 2], rel[:, 1], rel[:, 0], cls, t))
        cls = cls[order]
        by_class = cls.argsort(kind="stable")
        bounds = cls[by_class].searchsorted(np.arange(len(classes) + 1)).tolist()
        class_rows = tuple(by_class[a:b] for a, b in zip(bounds, bounds[1:]))
        poses = np.array([o.robot_pose for o in observations],
                         dtype=float).reshape(-1, 3)
        trig = np.array([(math.cos(a), math.sin(a))
                         for a in poses[:, 2].tolist()]).reshape(-1, 2)
        columns = _Columns(
            classes=classes, colors=colors, regions=regions, obs=obs[order],
            t=t[order], rel=rel[order], cls=cls, color=color[order],
            noisy=np.array([r.noisy for r in records], dtype=bool)[order],
            class_rows=class_rows, times=times, poses=poses, trig=trig,
            region=region, counts=counts)
        # Every build and view of the log shares these arrays.
        for a in (columns.obs, columns.t, columns.rel, cls, columns.color,
                  columns.noisy, *class_rows, times, poses, trig, region,
                  counts):
            a.flags.writeable = False
        return columns


class ObservationLog(tuple):
    """A sequence of ``Observation`` whose records are indexed as columns.

    The log is a tuple of its observations, in the order they were given;
    ``_columns`` holds its records in (t, class, rel) order, indexed by
    class, built once when the log is made.  A view, from ``partition``,
    is a log of some of the observations of another: it shares the
    parent's columns and carries ``_mask``, the parent's observations it
    keeps.  ``records`` counts the records of the log's observations.
    """

    _columns: _Columns
    _root: ObservationLog
    _mask: np.ndarray | None
    records: int

    @classmethod
    def of(cls, observations) -> ObservationLog:
        """``observations`` if it is a log; otherwise a log of them."""
        if isinstance(observations, ObservationLog):
            return observations
        log = super().__new__(cls, observations)
        log._columns = _Columns.index(log)
        log._root, log._mask = log, None
        log.records = int(log._columns.counts.sum())
        return log

    def _view(self, mask: np.ndarray) -> ObservationLog:
        view = super().__new__(ObservationLog, compress(self._root, mask))
        view._columns, view._root, view._mask = self._columns, self._root, mask
        view.records = int(self._columns.counts @ mask)
        return view

    def latest(self) -> Observation:
        """The observation with the largest ``t``, the last given on ties."""
        times = self._columns.times
        if self._mask is not None:
            times = times[self._mask]
        return self[len(times) - 1 - int(times[::-1].argmax())]

    def partition(self, labels) -> tuple[ObservationLog, tuple[Observation, ...]]:
        """The observations whose scene label is in ``labels``, as a view,
        and the others, each in log order."""
        columns = self._columns
        wanted = np.array([label in labels for label in columns.regions], dtype=bool)
        keep = wanted[columns.region]
        drop = ~keep
        if self._mask is not None:
            keep &= self._mask
            drop &= self._mask
        return self._view(keep), tuple(compress(self._root, drop))

    def detections(self, classes) -> DetectionSet:
        """The records whose apparent class is in ``classes``, as rows.

        The selected classes' rows are gathered in row order, and a view's
        rows from its kept observations only.  ``scanned`` is the records
        of the log, or 0 when ``classes`` is empty.
        """
        columns = self._columns
        picked = [rows for name, rows in zip(columns.classes, columns.class_rows)
                  if name in classes]
        rows = np.sort(np.concatenate(picked)) if picked else np.empty(0, np.intp)
        if self._mask is not None:
            rows = rows[self._mask[columns.obs[rows]]]
        return DetectionSet(columns=columns, rows=rows,
                            scanned=self.records if classes else 0,
                            confirmed=frozenset())


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """Detections routed through the perception pipeline: rows of a log.

    ``rows`` lists rows of the log's ``columns``, in row order, so in
    (t, class, rel) order; every record field is read through it, and no
    stage copies one.  ``confirmed`` holds the codes of the colours whose
    colour detector ran.  ``position`` (x, y per row) and ``theta`` stay
    None until the bounding-box and pose stages compute them for every
    row.  ``scanned`` counts the records of the observations the rows
    were gathered from, or is 0 when no class was asked for.
    """

    columns: _Columns
    rows: np.ndarray
    scanned: int
    confirmed: frozenset[int]
    position: np.ndarray | None = None
    theta: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def _replace(self, **fields) -> DetectionSet:
        # A copy with ``fields`` replaced: one ``__dict__`` copy, without
        # the frozen ``__init__``.
        copy = object.__new__(DetectionSet)
        copy.__dict__.update(self.__dict__, **fields)
        return copy

    def take(self, keep) -> DetectionSet:
        """The rows that ``keep`` (a mask or an index array) selects."""
        return self._replace(
            rows=self.rows[keep],
            position=None if self.position is None else self.position[keep],
            theta=None if self.theta is None else self.theta[keep])


@dataclass(frozen=True)
class DetectedObject:
    id: str
    cls: str
    color: str | None
    pose: Pose
    region: str
    provenance: frozenset[int]


# An object's id before any ``#k``: ``class@x,y`` to one decimal.
_BASE = "{}@{:.1f},{:.1f}".format


@dataclass(frozen=True, eq=False)
class WorldModel:
    """The objects a build found, as columns, and its cost.

    Column ``i`` of ``codes`` holds object ``i``'s class, colour and
    region as codes into the vocabularies ``classes``, ``colors`` and
    ``regions``, the colour -1 when no detector confirmed one; column
    ``i`` of ``pose`` holds its x, y and theta; and its provenance is the
    set of ``t[start[i]:stop[i]]``.

    A build's columns are in the merge's group order, by smallest member
    row, and ``given`` is None: an object's id is made when it is read
    (``id``).  A world model ``of`` objects keeps the order given, and
    ``given`` holds their ids.  Nothing reads a whole object during a run
    except the target, and nothing names any other object but the
    candidates tied with it: ``objects`` names and makes every
    ``DetectedObject`` on first access, in id order, and ``signatures``
    and ``digest`` read the columns.  Two world models are equal when
    their objects, costs, robot poses and ledgers are.
    """

    classes: tuple[str, ...]
    colors: tuple[str, ...]
    regions: tuple[str, ...]
    codes: np.ndarray
    pose: np.ndarray
    t: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    given: tuple[str, ...] | None
    total_cost: float
    robot_pose: Pose
    cost_ledger: tuple[tuple[str, float], ...] = ()

    @staticmethod
    def of(objects, total_cost: float, robot_pose: Pose,
           cost_ledger: tuple[tuple[str, float], ...] = ()) -> WorldModel:
        """A world model of ``objects``, a sequence of ``DetectedObject``,
        in the order given."""
        objects = tuple(objects)
        classes, cls = _encode([o.cls for o in objects])
        colors = tuple(sorted({o.color for o in objects} - {None}))
        code = {c: k for k, c in enumerate(colors)}
        regions, region = _encode([o.region for o in objects])
        provenance = [sorted(o.provenance) for o in objects]
        size = np.array([len(p) for p in provenance], dtype=np.intp)
        stop = size.cumsum()
        return WorldModel(
            classes=classes, colors=colors, regions=regions,
            codes=np.array([cls, [code.get(o.color, -1) for o in objects], region],
                           dtype=np.intp),
            pose=np.array([o.pose for o in objects], dtype=float).reshape(-1, 3).T,
            t=np.array([t for p in provenance for t in p], dtype=np.int64),
            start=stop - size, stop=stop, given=tuple(o.id for o in objects),
            total_cost=total_cost, robot_pose=robot_pose, cost_ledger=cost_ledger)

    def __len__(self) -> int:
        return self.codes.shape[1]

    def __eq__(self, other):
        if not isinstance(other, WorldModel):
            return NotImplemented
        return ((self.objects, self.total_cost, self.robot_pose, self.cost_ledger)
                == (other.objects, other.total_cost, other.robot_pose,
                    other.cost_ledger))

    def __repr__(self) -> str:
        return (f"WorldModel({len(self)} objects, total_cost="
                f"{self.total_cost!r}, robot_pose={self.robot_pose!r})")

    def id(self, i: int) -> str:
        """Object ``i``'s id.

        A built object's id is ``class@x,y`` to one decimal, and
        ``base#k`` for the k-th column with that base, k > 1.  Two
        positions that print alike lie within 0.1 of each other on both
        axes, a test that float subtraction keeps and that NaN passes, so
        only the earlier columns of the same class that pass it are
        printed.
        """
        if self.given is not None:
            return self.given[i]
        name = self.classes[self.codes[0, i]]
        x, y = self.pose[:2, i].tolist()
        base = _BASE(name, x, y)
        same = (self.codes[0, :i] == self.codes[0, i]).nonzero()[0]
        k = 1 + sum(not (abs(u - x) > 0.1 or abs(v - y) > 0.1) and _BASE(name, u, v) == base
                    for u, v in zip(*self.pose[:2, same].tolist()))
        return f"{base}#{k}" if k > 1 else base

    @cached_property
    def named(self) -> tuple[list[str], list[int]]:
        """Every object's id, in column order, and the columns in id order.

        Id order is the given order for a world model ``of`` objects.  For
        a build's it is by base, and by k among the columns that share
        one, as the ids were sorted before the suffixes were added.
        """
        if self.given is not None:
            return list(self.given), list(range(len(self)))
        ids = list(map(_BASE, map(self.classes.__getitem__, self.codes[0].tolist()),
                       *self.pose[:2].tolist()))
        order = sorted(range(len(ids)), key=ids.__getitem__)
        for _, same in groupby(order, key=ids.__getitem__):
            next(same)
            for k, i in enumerate(same, 2):
                ids[i] = f"{ids[i]}#{k}"
        return ids, order

    def object(self, i: int, id: str | None = None) -> DetectedObject:
        """Object ``i``, made from the columns; ``id`` when it is known."""
        cls, color, region = self.codes[:, i].tolist()
        return DetectedObject(
            id=self.id(i) if id is None else id, cls=self.classes[cls],
            color=self.colors[color] if color >= 0 else None,
            pose=tuple(self.pose[:, i].tolist()), region=self.regions[region],
            provenance=frozenset(self.t[self.start[i]:self.stop[i]].tolist()))

    @cached_property
    def objects(self) -> tuple[DetectedObject, ...]:
        ids, order = self.named
        return tuple(self.object(i, ids[i]) for i in order)

    def object_ids(self) -> frozenset[str]:
        return frozenset(self.named[0])

    @cached_property
    def signatures(self) -> tuple[tuple[tuple, ...], np.ndarray]:
        """The objects' distinct (class, colour, region), and each one's.

        Returns ``(signatures, codes)``: the distinct signatures in order of
        first appearance in the columns, and ``codes[i]``, the position of
        column ``i``'s among them.  The three codes pack into one int key
        (the colour shifted by one, so that none is 0); one
        ``dict.fromkeys`` lists the distinct keys, and a table indexed by
        key numbers the columns.
        """
        nc, nr = len(self.colors) + 1, len(self.regions)
        key = np.array([nc * nr, nr, 1]) @ self.codes + nr
        distinct = list(dict.fromkeys(key.tolist()))
        number = np.empty(len(self.classes) * nc * nr, dtype=np.intp)
        number[distinct] = np.arange(len(distinct))
        colors = (*self.colors, None)
        signatures = []
        for k in distinct:
            rest, region = divmod(k, nr)
            cls, color = divmod(rest, nc)
            signatures.append((self.classes[cls], colors[color - 1], self.regions[region]))
        return tuple(signatures), number[key]

    def digest(self) -> frozenset[tuple[str, str]]:
        """The (key, value) attribute pairs of the objects: factor context."""
        return frozenset(pair for signature in self.signatures[0]
                         for pair in signature_attrs(*signature))


def run_classifier(symbol: PerceptionSymbol, observations,
                   registry: ClassifierRegistry, detections: DetectionSet,
                   ) -> tuple[DetectionSet, float]:
    """Run one classifier and return (detections, cost).

    An object detector passes ``detections``, the build's one gather of
    the selected detectors' classes from ``observations``, through
    unchanged, and charges base + per-item times the records of
    ``observations`` (nothing without observations).  The other stages
    take the current detection set and charge base + per-item times its
    rows (nothing when it is empty).  None copies a record field: the
    noise filter narrows the rows to those without the simulator's noise
    flag, a color detector adds its colour's code to ``confirmed``, and
    the bounding-box / pose estimators compute absolute geometry, read
    through the rows.
    """
    cost_model = registry.cost_for(symbol)
    if symbol.kind == OBJECT_DETECTOR:
        return detections, cost_model.cost(detections.scanned) if observations else 0.0

    if not len(detections):
        return detections, 0.0
    cost = cost_model.cost(len(detections))
    columns, rows = detections.columns, detections.rows
    if symbol.kind == NOISE_FILTER:
        return detections.take(~columns.noisy[rows]), cost
    if symbol.kind == COLOR_DETECTOR:
        # A colour that no row of the log shows has no code to confirm.
        if symbol.param not in columns.colors:
            return detections, cost
        code = columns.colors.index(symbol.param)
        return detections._replace(confirmed=detections.confirmed | {code}), cost
    obs = columns.obs[rows]
    if symbol.kind == BBOX_ESTIMATOR:
        # x = rx + c*u - s*v, y = ry + s*u + c*v for rel (u, v), with cos
        # and sin from ``math`` once per log pose: every element goes
        # through the same IEEE operations, in the same order, as the
        # scalar form.
        cos, sin = columns.trig[obs].T
        robot, rel = columns.poses[obs], columns.rel[rows]
        x = robot[:, 0] + cos * rel[:, 0] - sin * rel[:, 1]
        y = robot[:, 1] + sin * rel[:, 0] + cos * rel[:, 1]
        return detections._replace(position=np.stack((x, y), axis=1)), cost
    if symbol.kind == POSE_ESTIMATOR:
        theta = columns.poses[obs, 2] + columns.rel[rows, 2]
        return detections._replace(theta=theta), cost
    raise UnknownClassifier(symbol.canon)


# Cell indices are clamped to [-_CELL_LIMIT, _CELL_LIMIT], so that a cell
# and its neighbours, y - 1 to y + 1, fit in a span of _CELL_SPAN and
# (class, cell x, cell y) packs into one int64 key (for fewer than 2**19
# classes).
_CELL_SIDE = 2.0 * MERGE_RADIUS
_CELL_LIMIT = 1 << 20
_CELL_SPAN = 1 << 22
_RADIUS2 = MERGE_RADIUS * MERGE_RADIUS
# searchsorted(side="right") offsets from a row's key: the end of its own
# column at cell y + 1, and the start and end of column x + 1 from cell
# y - 1 to y + 1.  The first column is overwritten with the row's next
# position.
_WINDOWS = np.array([0, 1, _CELL_SPAN - 2, _CELL_SPAN + 1])
# A (cell x, cell y) pair's part of the key: cell x * _CELL_SPAN + cell y.
_SPANS = np.array([_CELL_SPAN, 1])
# Candidate pairs are tested in chunks of about this many, so that a burst
# of k coincident rows costs time, not memory, in k * k.
_PAIRS = 1 << 16


def _flatten(label: np.ndarray) -> np.ndarray:
    """The forest ``label`` with every row pointing at its root."""
    while True:
        up = label[label]
        if not np.count_nonzero(up != label):
            return up
        label = up


def _link(cls: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Single-linkage clusters of same-class rows at the merge radius.

    Returns, for each row, the smallest row of its cluster.  Rows are
    binned into square cells of side ``2 * MERGE_RADIUS`` and keyed by
    (class, cell x, cell y).  Two rows the distance test links are less
    than ``2 * MERGE_RADIUS`` apart on each axis, so they sit in the same
    or adjacent cells; cells of side ``MERGE_RADIUS`` would not do,
    because the test's subtraction can round a gap just over the radius
    down to it (1.0 and 0.49999999999999994 link).  Clamping the cell
    indices keeps adjacent cells adjacent, where an int64 cell of
    1e300 / side would overflow: only cells beyond the clamp, and NaN,
    which takes the lower bound, share an index, and the exact test
    rejects the extra candidates that makes.

    Sorted keys keep each (class, cell x) column contiguous, so a row's
    candidates are two ``searchsorted`` windows: the later rows of its
    own column up to cell y + 1, and column x + 1 from cell y - 1 to
    y + 1.  Together they hold each pair of rows in the same or adjacent
    cells once.  The exact ``dx*dx + dy*dy <= r2`` test runs on those
    pairs, about ``_PAIRS`` at a time, and a row with a non-finite
    coordinate passes it with no row.

    The clusters grow as a forest: ``label[i]`` is a row of i's tree no
    greater than i, so each tree's root is its smallest row.  While some
    link joins two trees, the larger root of each such link points at
    the smaller one, and every row then at its root.  A chunk's links
    are joined before the next chunk is tested, and are then dropped.
    """
    n = len(cls)
    cell = np.floor(xy / _CELL_SIDE)
    np.fmax(cell, -_CELL_LIMIT, out=cell)
    np.fmin(cell, _CELL_LIMIT, out=cell)
    key = cell.astype(np.int64) @ _SPANS
    key += cls * (_CELL_SPAN * _CELL_SPAN)
    order = key.argsort(kind="stable")
    key = key[order]
    window = key.searchsorted(key[:, None] + _WINDOWS, side="right")
    window[:, 0] = np.arange(1, n + 1)
    # Row p's windows are [p + 1, b0) and [b1, b2): (lo, hi) pairs.
    window = window.reshape(-1, 2)
    lo = window[:, 0]
    count = window[:, 1] - lo
    pairs = count[::2] + count[1::2]
    before = pairs.cumsum()
    x, y = xy[:, 0], xy[:, 1]
    # Every row starts as a tree of its own.
    label = np.arange(n)
    start = 0
    while start < n:
        stop = max(start + 1, int(before.searchsorted(
            before[start] - pairs[start] + _PAIRS, side="right")))
        span = count[2 * start:2 * stop]
        end = span.cumsum()
        a = order[start:stop].repeat(pairs[start:stop])
        b = order[np.arange(len(a)) + (lo[2 * start:2 * stop] - end + span).repeat(span)]
        # NaN, inf and overflow compare false, as Python floats do, unwarned.
        with np.errstate(invalid="ignore", over="ignore"):
            dx, dy = x[a] - x[b], y[a] - y[b]
            near = (dx * dx + dy * dy <= _RADIUS2).nonzero()[0]
        a, b = a[near], b[near]
        while True:
            la, lb = label[a], label[b]
            if not np.count_nonzero(la != lb):
                break
            np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
            label = _flatten(label)
        start = stop
    return label


def _merge(detections: DetectionSet, total_cost: float, robot_pose: Pose,
           cost_ledger: tuple[tuple[str, float], ...]) -> WorldModel:
    """One object per cluster of same-class detections, in group order.

    The pose is the members' centroid and the angle of the earliest
    member, by (t, theta).  The colour is the members' most common
    apparent colour, kept only when its code is among the build's
    ``confirmed`` colours: which colour detectors ran decides whether the
    colour is known, never which colour it is.  The region is the
    members' most common scene label; both votes break ties towards the
    smallest string.  The provenance is the set of the members' ``t``.

    All of it is array work over the log's columns, read through the
    detections' rows.  ``_link`` clusters every class in one pass, and
    the groups are numbered in order of their smallest member row.  Then:

    - the centroid comes from ``bincount`` sums, which add the members in
      row order, as Python's left-to-right sums do;
    - the angle is the earliest member's, by (t, theta), from one
      ``lexsort`` by (group, t, theta);
    - the colour and region votes are ``bincount`` over (group, code);
      since code order is string order, ``argmax``'s first maximum breaks
      a tie towards the smallest string.

    The objects stay columns, one per group in that order, with the
    members' ``t`` group by group.  No id is made here: ``WorldModel.id``
    makes one when it is read.
    """
    columns, rows = detections.columns, detections.rows
    xy, theta = detections.position, detections.theta
    t, row_cls = columns.t[rows], columns.cls[rows]
    color, region = columns.color[rows], columns.region[columns.obs[rows]]
    label = _link(row_cls, xy)
    # Each cluster's smallest row labels itself; numbering those rows in
    # order numbers the groups.
    smallest = label == np.arange(len(label))
    group = (smallest.cumsum() - 1)[label]
    k = np.count_nonzero(smallest)
    order = np.lexsort((theta, t, group))
    size = np.bincount(group)
    stop = size.cumsum()
    start = stop - size
    nc, nr = len(columns.colors), len(columns.regions)
    # The class, colour and region rows of ``codes`` are filled in place.
    codes = np.empty((3, k), dtype=np.intp)
    cls, winner, votes = codes
    np.bincount(group * nc + color, minlength=k * nc).reshape(k, nc).argmax(axis=1, out=winner)
    known = np.zeros(nc, dtype=bool)
    known[list(detections.confirmed)] = True
    winner[~known[winner]] = -1
    np.bincount(group * nr + region, minlength=k * nr).reshape(k, nr).argmax(axis=1, out=votes)
    first = order[start]
    row_cls.take(first, out=cls)
    pose = np.empty((3, k))
    np.divide(np.bincount(group, xy[:, 0]), size, out=pose[0])
    np.divide(np.bincount(group, xy[:, 1]), size, out=pose[1])
    theta.take(first, out=pose[2])
    return WorldModel(
        classes=columns.classes, colors=columns.colors, regions=columns.regions,
        codes=codes, pose=pose, t=t[order], start=start, stop=stop, given=None,
        total_cost=total_cost, robot_pose=robot_pose, cost_ledger=cost_ledger)


def build_world_model(observations, classifiers, registry: ClassifierRegistry,
                      robot_pose: Pose | None = None) -> WorldModel:
    """Run the selected classifiers over the observations and merge objects.

    The observations are taken as an ``ObservationLog``, indexed once if
    they are not one, and the object detectors share one gather of the
    log's rows of their classes.
    The stages then run in ``CLASSIFIER_KINDS`` order -- object detectors,
    noise filter, color detectors, bounding box, pose -- and in canonical
    order within a kind; each stage that costs something adds a ledger
    entry.  The bounding-box and pose stages run only as a pair: without
    both no detection can become an object (its position is unknown), so
    a build with one of them runs neither.  Duplicate detections of one
    object -- same apparent class within the merge radius -- collapse to a
    single object at the centroid.  Without ``robot_pose`` the robot is
    where the log's latest observation puts it (``ObservationLog.latest``).
    """
    log = ObservationLog.of(observations)
    selected = frozenset(classifiers)
    unknown = sorted(c.canon for c in selected - registry.classifier_set)
    if unknown:
        raise UnknownClassifier(unknown[0])
    if robot_pose is None:
        robot_pose = log.latest().robot_pose if log else (0.0, 0.0, 0.0)

    geometry = {PerceptionSymbol(BBOX_ESTIMATOR), PerceptionSymbol(POSE_ESTIMATOR)}
    stages = sorted(selected if geometry <= selected else selected - geometry,
                    key=lambda c: (CLASSIFIER_KINDS.index(c.kind), c.canon))
    current = log.detections(
        frozenset(c.param for c in stages if c.kind == OBJECT_DETECTOR))
    ledger: list[tuple[str, float]] = []
    for symbol in stages:
        current, cost = run_classifier(symbol, log, registry, current)
        if cost:
            ledger.append((symbol.canon, cost))

    total_cost = sum(c for _, c in ledger)
    if current.theta is None or not len(current):
        return WorldModel.of((), total_cost, robot_pose, tuple(ledger))
    return _merge(current, total_cost, robot_pose, tuple(ledger))


# ---------------------------------------------------------------------------
# Serialization

def _pose(values, field: str) -> Pose:
    if len(typed(values, (list,), field)) != 3:
        raise InvalidSpec(f"{field} must be three numbers, got {values!r}")
    return tuple(float(number(v, field)) for v in values)


def _scene_label(value) -> str:
    if value not in SCENE_LABELS:
        raise InvalidSpec(f"scene_label must be one of {SCENE_LABELS}, got {value!r}")
    return value


def save_observations(observations, path) -> None:
    write_records(path, OBS_LOG_SCHEMA, "observation_log", map(asdict, observations))


def _observation(rec, seen: set[int]) -> Observation:
    t = rec["t"]
    # The build keeps t in an int64 column.
    if type(t) is not int or not -2**63 <= t < 2**63:
        raise InvalidSpec(f"t must be a 64-bit integer, got {t!r}")
    if t in seen:
        raise InvalidSpec(f"repeats t={t}")
    seen.add(t)
    return Observation(
        t=t,
        robot_pose=_pose(rec["robot_pose"], "robot_pose"),
        scene_label=_scene_label(rec["scene_label"]),
        # A log-probability: -inf is a label with prior 0, which ``simulate``
        # writes; NaN and +inf are not scores.
        scene_scores=tuple((typed(label, (str,), "scene_scores label"),
                            float(number(score, "scene score", -math.inf)))
                           for label, score in rec["scene_scores"]),
        sensed=tuple(
            RawDetection(
                latent_id=typed(d["latent_id"], (str, type(None)), "latent_id"),
                rel=_pose(d["rel"], "rel"),
                apparent_class=typed(d["apparent_class"], (str,), "apparent_class"),
                apparent_color=typed(d["apparent_color"], (str,), "apparent_color"),
                noisy=typed(d["noisy"], (bool,), "noisy"),
            )
            for d in rec["sensed"]
        ),
    )


def load_observations(path) -> ObservationLog:
    """Read an observation log written by ``save_observations``.

    Anything malformed raises ``InvalidSpec``: undecodable bytes, a line
    that is not JSON, a missing or mistyped field (``noisy`` must be a
    JSON boolean, ``latent_id`` a string or null), a non-finite pose (a
    NaN would become an object at ``nan,nan``) or scene score (-inf, a
    label with prior 0, is a score), a scene label outside
    ``SCENE_LABELS`` (no instruction could name it as a region), and a
    repeated ``t`` (the build keys provenance by ``t``).
    """
    seen: set[int] = set()
    return ObservationLog.of(read_records(path, OBS_LOG_SCHEMA, "observation_log",
                                          lambda rec: _observation(rec, seen)))
