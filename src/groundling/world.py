"""Simulated robot world: sensing, scene classification, costed perception.

The simulator walks a fixed trajectory through a planar world of latent
objects.  At each waypoint it senses every object within
``SENSING_RANGE`` (3.5 m) as a record carrying a pose relative to
the robot frame and apparent class/color values (exact unless a
confusion rate is configured).  A co-occurrence scene classifier, held
as the log terms of its vote, labels every observation as it is taken.

An ``ObservationLog`` is its records and observations as columns, and a
mask over its observations; an ``Observation`` is made only when the log
is read.  Observation filtering makes views of a log: the same columns
under a narrower mask.  Both filters ask one kind of query: a boolean
table over a code vocabulary (scene labels for observation filtering,
classes for the object detectors), gathered by the codes and ANDed with
the mask.

Perception is lazy and costed, and runs on a ``DetectionSet``, the
build's one working set: rows of the log's columns, plus what the stages
compute, each stage changing it in place.  A build reads no record in
Python and copies no record field: it takes the rows of the selected
object detectors' classes in the log's kept observations, and every
object detector charges for the records of those observations.  The
noise filter narrows the rows, each color detector writes its colour's
code into the build's table of known colours, and the bounding-box and
pose estimators set one vectorised rotation of every row into the world
frame, element for element the IEEE operations of the scalar transform.
A detection only becomes a world-model object once the bounding-box and
pose stages have run.

Duplicate detections of one physical object merge by class and
proximity, as array work over the columns.  One grid pass links the rows
of every class: the rows of one cell half the merge radius wide (0.25 m)
are within the radius of each other, so they join with no distance test,
and only rows in nearby cells are tested, a pair of cells at once when
their bounding boxes settle it.  So a robot that passes an object again
and again adds rows, not pairs.  Then ``bincount`` and one ``lexsort``
reduce each cluster to an object.  The merge matches the row-wise
reference bit for bit: centroids summed left to right in row order, the
earliest member's angle, vote ties broken towards the smallest string,
and the winning colour only when the build confirmed it.  A
``WorldModel`` is the merged objects as columns, in order of their
smallest member row, plus the build's cost ledger, whose sum is its
cost; an id (``class@x,y``, with ``#2``, ``#3``, ... on objects that
repeat one) and a ``DetectedObject`` are made only when something reads
them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field
from functools import cached_property
from itertools import compress, groupby, islice

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
    COLOR_DETECTOR,
    ClassifierRegistry,
    KeyTable,
    NOISE_FILTER,
    OBJECT_DETECTOR,
    POSE_ESTIMATOR,
    PerceptionSymbol,
    SCENE_LABELS,
    STRUCTURAL_SYMBOLS,
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
    """The per-scene terms of the scene classifier's naive-Bayes vote.

    ``terms`` holds, per scene label in sorted order, the label, its log
    prior, and each characteristic class's Laplace-smoothed log
    probability under the label's row, normalized over the
    characteristic classes.  Non-characteristic classes never vote.
    """

    characteristic: frozenset[str]
    terms: tuple[tuple[str, float, dict[str, float]], ...]

    @staticmethod
    def from_dict(rows: dict[str, dict[str, float]], characteristic) -> "CooccurrenceModel":
        """The model of ``rows`` under a uniform prior over their labels."""
        unknown = set(rows) - set(SCENE_LABELS)
        if unknown:
            raise InvalidSpec(f"scene labels outside the taxonomy: {sorted(unknown)}")
        if not rows:
            raise InvalidSpec("no co-occurrence rows")
        characteristic = frozenset(characteristic)
        k = len(characteristic)
        prior = math.log(1.0 / len(rows))
        terms = []
        for label in sorted(rows):
            row = rows[label]
            total = sum(number(v, f"co-occurrence row for {label!r}", 0) for v in row.values())
            if not 0 < total < math.inf:
                raise InvalidSpec(f"co-occurrence row for {label!r} is not normalizable")
            # An already-normalised row passes through untouched, so a
            # table written as probabilities keeps them bit for bit.
            if abs(total - 1.0) < 1e-9:
                total = 1.0
            # Laplace smoothing on the normalized row; rows stay valid
            # distributions.
            terms.append((label, prior,
                          {c: math.log((row.get(c, 0.0) / total + LAPLACE_ALPHA)
                                       / (1.0 + LAPLACE_ALPHA * k))
                           for c in characteristic}))
        return CooccurrenceModel(characteristic=characteristic, terms=tuple(terms))


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
        points = [o.pose for o in self.objects] + list(self.trajectory)
        if not all(math.isfinite(v) for point in points for v in point[:2]):
            raise InvalidSpec("object and waypoint positions must be finite")


def simulate(spec: WorldSpec, registry: ClassifierRegistry) -> ObservationLog:
    """Run the trajectory and return a log of one labeled observation per
    waypoint.

    Deterministic for a fixed spec: all randomness (confusion draws for
    each sensed object in object order, then clutter) comes from a
    generator seeded with ``spec.seed``.  Confused and clutter classes are
    drawn from the registry's object classes.  The range test runs on the
    objects within 1 m past the range along x, in object order.
    """
    rng = np.random.default_rng(spec.seed)
    classes = registry.object_classes
    colors = tuple(sorted({o.color for o in spec.objects})) or ("white",)
    range2 = SENSING_RANGE * SENSING_RANGE
    x = np.array([o.pose[0] for o in spec.objects], dtype=float)
    by_x = x.argsort(kind="stable")
    along = np.array([robot[0] for robot in spec.trajectory], dtype=float)
    start = x[by_x].searchsorted(along - (SENSING_RANGE + 1.0), side="left").tolist()
    stop = x[by_x].searchsorted(along + (SENSING_RANGE + 1.0), side="right").tolist()

    frames = []
    prev_label = prev_scores = None
    for t, (robot, lo, hi) in enumerate(zip(spec.trajectory, start, stop)):
        sensed = []
        for i in sorted(by_x[lo:hi].tolist()):
            obj = spec.objects[i]
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
            sensed.append((obj.id, _to_robot_frame(robot, obj.pose),
                           apparent_class, apparent_color, False))
        if spec.clutter_rate > 0 and rng.random() < spec.clutter_rate:
            angle = rng.random() * 2 * math.pi
            radius = rng.random() * SENSING_RANGE
            sensed.append((None, (radius * math.cos(angle), radius * math.sin(angle), 0.0),
                           str(rng.choice(classes)), str(rng.choice(colors)), True))
        label, scores = classify_detections(
            [apparent for _, _, apparent, _, _ in sensed],
            spec.cooccurrence, prev_label, prev_scores,
        )
        frames.append((t, robot, sensed, label, scores))
        prev_label, prev_scores = label, scores
    return ObservationLog.from_frames(frames)


def _encode(values) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct values, sorted, and each value's index among them."""
    vocabulary = tuple(sorted(set(values)))
    code = {v: k for k, v in enumerate(vocabulary)}
    return vocabulary, np.array([code[v] for v in values], dtype=np.intp)


@dataclass(frozen=True)
class Vocabulary:
    """The class, colour and scene-label names that codes index, and what
    an object's codes name.

    An object's (class, colour, region) codes pack into one int key,
    ``weights @ codes + offset``: the colour is shifted by one, so that
    -1, no colour confirmed, packs as 0, and the keys lie in
    ``range(size)``.  ``signature[key]`` is the object's (class, colour,
    region), the colour None when none was confirmed, and
    ``pairs[signature]`` the set of its attribute pairs
    (``signature_attrs``).  Each is made on first use and kept, so that
    every world built from one log decodes a signature once.
    ``color_code`` maps each colour name to its code.  Two vocabularies
    are equal when their names are.
    """

    classes: tuple[str, ...]
    colors: tuple[str, ...]
    regions: tuple[str, ...]

    def __post_init__(self) -> None:
        classes, regions = self.classes, self.regions
        named = (*self.colors, None)
        nc, nr = len(named), len(regions)

        def decode(key: int) -> tuple:
            rest, region = divmod(key, nr)
            cls, color = divmod(rest, nc)
            return classes[cls], named[color - 1], regions[region]

        pairs = KeyTable(lambda signature: frozenset(signature_attrs(*signature)))
        for name, value in (("weights", np.array([nc * nr, nr, 1])), ("offset", nr),
                            ("size", len(classes) * nc * nr),
                            ("signature", KeyTable(decode)), ("pairs", pairs),
                            ("color_code", {c: k for k, c in enumerate(self.colors)})):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False, repr=False)
class ObservationLog:
    """``Observation``s, held as one array per field.

    Rows are records in (t, class, rel) order: ``position[i]`` is row
    ``i``'s place among the records in input order, ``obs[i]`` indexes its
    observation, and ``cls``, ``color`` and ``noisy`` are the record's;
    ``rel`` holds the records' relative x, y and angle as its three rows,
    each contiguous; ``latent`` holds the latent ids in input order.  Class,
    colour and scene label are codes into the log's ``vocabulary``, whose
    names are sorted per log, so that code order is string order; every
    build and view of the log shares it.  Per observation, in input order:
    ``times``; the robot pose, held once, as ``frame`` (its x, y and the
    cosine and sine of its angle, from ``math``: the rotation into the
    world frame) and ``angle`` (its angle, as one contiguous column); the
    scene-label code ``region``, the ``scores`` as given, the record
    count ``counts`` and ``mask``, which marks the observations the log
    keeps: all of them for a whole log.  ``size`` and ``records`` count
    the kept observations and their records.

    A view, from ``partition``, shares its log's columns under its own
    mask.  Iteration reads ``Observation``s, made from the columns once
    per whole log, on first read, and shared with its views.
    """

    vocabulary: Vocabulary
    position: np.ndarray
    obs: np.ndarray
    latent: tuple[str | None, ...]
    rel: np.ndarray
    cls: np.ndarray
    color: np.ndarray
    noisy: np.ndarray
    times: np.ndarray
    frame: np.ndarray
    angle: np.ndarray
    region: np.ndarray
    scores: tuple[tuple[tuple[str, float], ...], ...]
    counts: np.ndarray
    mask: np.ndarray
    size: int
    records: int
    _made: list = field(default_factory=list)

    @staticmethod
    def from_frames(frames) -> ObservationLog:
        """The log of ``frames``, each an ``Observation``'s fields in order,
        with each record a ``RawDetection``'s.

        One stable sort orders the rows, so rows with equal (t, class, rel)
        keep their record order, and any subset of the rows, in row order,
        is in the order a stable sort of that subset alone would give.
        """
        times, poses, sensed, labels, scores = list(zip(*frames)) or [()] * 5
        records = [r for s in sensed for r in s]
        latent, rel, classes, colors, noisy = list(zip(*records)) or [()] * 5
        counts = np.array([len(s) for s in sensed], dtype=np.int64)
        classes, cls = _encode(classes)
        colors, color = _encode(colors)
        regions, region = _encode(labels)
        times = np.array(times, dtype=np.int64)
        obs = np.arange(len(times)).repeat(counts)
        rel = np.array(rel, dtype=float).reshape(-1, 3)
        order = np.lexsort((rel[:, 2], rel[:, 1], rel[:, 0], cls, times[obs]))
        poses = np.array(poses, dtype=float).reshape(-1, 3)
        # ``math`` raises on an infinite angle: its cosine and sine are NaN.
        frame = np.array([(x, y, *((math.nan,) * 2 if math.isinf(a)
                                   else (math.cos(a), math.sin(a))))
                          for x, y, a in poses.tolist()]).reshape(-1, 4)
        arrays = dict(
            position=order, obs=obs[order], rel=np.ascontiguousarray(rel[order].T),
            cls=cls[order], color=color[order], noisy=np.array(noisy, dtype=bool)[order],
            times=times, frame=frame, angle=np.ascontiguousarray(poses[:, 2]),
            region=region, counts=counts, mask=np.ones(len(times), dtype=bool))
        # Every build and view of the log shares these arrays.
        for a in arrays.values():
            a.flags.writeable = False
        return ObservationLog(
            vocabulary=Vocabulary(classes, colors, regions), latent=latent,
            scores=scores, size=len(times), records=len(order), **arrays)

    @staticmethod
    def of(observations) -> ObservationLog:
        """``observations`` if it is a log; otherwise the log of them."""
        if isinstance(observations, ObservationLog):
            return observations
        return ObservationLog.from_frames(map(astuple, observations))

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        # The whole log's observations are made once and shared by its views.
        if not self._made:
            vocabulary, row = self.vocabulary, self.position.argsort()
            records = map(
                RawDetection, self.latent, zip(*self.rel[:, row].tolist()),
                map(vocabulary.classes.__getitem__, self.cls[row].tolist()),
                map(vocabulary.colors.__getitem__, self.color[row].tolist()),
                self.noisy[row].tolist())
            self._made.append(tuple(map(
                Observation, self.times.tolist(),
                zip(*self.frame[:, :2].T.tolist(), self.angle.tolist()),
                (tuple(islice(records, n)) for n in self.counts.tolist()),
                map(vocabulary.regions.__getitem__, self.region.tolist()), self.scores)))
        return compress(self._made[0], self.mask.tolist())

    def latest_pose(self) -> Pose:
        """The robot pose of the observation with the largest ``t``, the
        last given on ties; the origin for an empty log."""
        if not self:
            return (0.0, 0.0, 0.0)
        last = self.mask.nonzero()[0][::-1]
        i = last[self.times[last].argmax()]
        x, y = self.frame[i, :2].tolist()
        return x, y, float(self.angle[i])

    def partition(self, labels) -> tuple[ObservationLog, ObservationLog]:
        """Views of the observations whose scene label is in ``labels`` and
        of the others, each in log order.  The others' observation and
        record counts are this log's less the kept view's."""
        keep = np.array([label in labels for label in self.vocabulary.regions],
                        dtype=bool)[self.region]
        kept = keep & self.mask
        size, records = int(np.count_nonzero(kept)), int(self.counts @ kept)
        return (self._view(kept, size, records),
                self._view(~keep & self.mask, self.size - size, self.records - records))

    def _view(self, mask: np.ndarray, size: int, records: int) -> ObservationLog:
        view = object.__new__(ObservationLog)
        view.__dict__.update(self.__dict__, mask=mask, size=size, records=records)
        return view

    def detections(self, classes) -> DetectionSet:
        """The records of the kept observations whose apparent class is in
        ``classes``, as rows in row order."""
        picked = np.array([name in classes for name in self.vocabulary.classes],
                          dtype=bool)[self.cls]
        rows = (picked & self.mask[self.obs]).nonzero()[0]
        return DetectionSet(log=self, rows=rows, obs=self.obs.take(rows),
                            known=np.full(len(self.vocabulary.colors), -1, dtype=np.intp))


@dataclass(eq=False)
class DetectionSet:
    """The working set of one build: rows of a log, and what the stages
    compute, changed in place by each stage.

    ``rows`` lists rows of the columns of ``log``, in row order, so in
    (t, class, rel) order; every record field is read through it, and no
    stage copies one.  ``obs`` is ``log.obs[rows]``, each row's
    observation, gathered once per build and narrowed with the rows.
    ``known`` is a table over the log's colour codes: a colour's own code
    once its colour detector has run, -1 until then.  ``position`` (x, y
    per row) and ``theta`` stay None until the bounding-box and pose
    stages compute them for every row.
    """

    log: ObservationLog
    rows: np.ndarray
    obs: np.ndarray
    known: np.ndarray
    position: np.ndarray | None = None
    theta: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)


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
    """The objects a build found, as columns, and the ledger of its cost.

    Column ``i`` of ``codes`` holds object ``i``'s class, colour and
    region as codes into ``vocabulary`` (a build's is its log's), the
    colour -1 when no detector confirmed one; column ``i`` of ``pose``
    holds its x, y and theta; and its provenance is the set of
    ``t[start[i]:stop[i]]``.  ``total_cost`` is the ledger's costs summed
    left to right, which a build adds up as it appends them.

    A build's columns are in the merge's group order, by smallest member
    row, and ``given`` is None: an object's id is made when it is read
    (``id``).  A world model ``of`` objects keeps the order given, and
    ``given`` holds their ids.  Nothing reads a whole object during a run
    except the target, and nothing names any other object but the
    candidates tied with it: ``objects`` names and makes every
    ``DetectedObject`` on first access, in id order, and ``signatures``
    and ``digest`` read the columns through the vocabulary's tables.  Two
    world models are equal when their objects, robot poses and ledgers
    are.
    """

    vocabulary: Vocabulary
    codes: np.ndarray
    pose: np.ndarray
    t: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    given: tuple[str, ...] | None
    robot_pose: Pose
    cost_ledger: tuple[tuple[str, float], ...] = ()
    total_cost: float = 0

    @staticmethod
    def of(objects, robot_pose: Pose,
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
        total = 0
        for _, cost in cost_ledger:
            total += cost
        return WorldModel(
            vocabulary=Vocabulary(classes, colors, regions),
            codes=np.array([cls, [code.get(o.color, -1) for o in objects], region],
                           dtype=np.intp),
            pose=np.array([o.pose for o in objects], dtype=float).reshape(-1, 3).T,
            t=np.array([t for p in provenance for t in p], dtype=np.int64),
            start=stop - size, stop=stop, given=tuple(o.id for o in objects),
            robot_pose=robot_pose, cost_ledger=cost_ledger, total_cost=total)

    def __len__(self) -> int:
        return self.codes.shape[1]

    def __eq__(self, other):
        if not isinstance(other, WorldModel):
            return NotImplemented
        return ((self.objects, self.robot_pose, self.cost_ledger)
                == (other.objects, other.robot_pose, other.cost_ledger))

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
        name = self.vocabulary.classes[self.codes[0, i]]
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
        names = map(self.vocabulary.classes.__getitem__, self.codes[0].tolist())
        ids = list(map(_BASE, names, *self.pose[:2].tolist()))
        order = sorted(range(len(ids)), key=ids.__getitem__)
        for _, same in groupby(order, key=ids.__getitem__):
            next(same)
            for k, i in enumerate(same, 2):
                ids[i] = f"{ids[i]}#{k}"
        return ids, order

    def object(self, i: int, id: str | None = None) -> DetectedObject:
        """Object ``i``, made from the columns; ``id`` when it is known."""
        cls, color, region = self.codes[:, i].tolist()
        vocabulary = self.vocabulary
        return DetectedObject(
            id=self.id(i) if id is None else id, cls=vocabulary.classes[cls],
            color=vocabulary.colors[color] if color >= 0 else None,
            pose=tuple(self.pose[:, i].tolist()), region=vocabulary.regions[region],
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
        (``Vocabulary``); one ``dict.fromkeys`` lists the distinct keys, a
        table indexed by key numbers the columns, and the vocabulary's
        table, made once per vocabulary, decodes each distinct key.
        """
        vocabulary = self.vocabulary
        key = vocabulary.weights @ self.codes + vocabulary.offset
        distinct = list(dict.fromkeys(key.tolist()))
        number = np.empty(vocabulary.size, dtype=np.intp)
        number[distinct] = np.arange(len(distinct))
        return tuple(map(vocabulary.signature.__getitem__, distinct)), number[key]

    def digest(self) -> frozenset[tuple[str, str]]:
        """The (key, value) attribute pairs of the objects: factor context,
        the union of the vocabulary's pair set of each distinct signature."""
        return frozenset().union(*map(self.vocabulary.pairs.__getitem__, self.signatures[0]))


def run_classifier(symbol: PerceptionSymbol, registry: ClassifierRegistry,
                   detections: DetectionSet) -> tuple[DetectionSet, float]:
    """Run one classifier on ``detections``, in place; return them and
    the cost.

    An object detector leaves the build's one gather of the selected
    detectors' classes as it is, and charges base + per-item times the
    records of the log (nothing without observations).  The other stages
    charge base + per-item times the current rows (nothing, and change
    nothing, when there are none).  None copies a record field: the noise
    filter narrows the rows, and their observations, to those without the
    simulator's noise flag, a color detector writes its colour's code into
    ``known``, and the bounding-box / pose estimators set ``position`` and
    ``theta``, read through the rows.  A classifier the registry does not
    hold raises ``UnknownClassifier``.
    """
    stage = registry.stages.get(symbol)
    if stage is None:
        raise UnknownClassifier(symbol.canon)
    log, rows, kind = detections.log, detections.rows, symbol.kind
    if kind == OBJECT_DETECTOR:
        return detections, stage.cost.cost(log.records) if log.size else 0.0

    n = len(rows)
    if not n:
        return detections, 0.0
    if kind == NOISE_FILTER:
        keep = ~log.noisy.take(rows)
        detections.rows, detections.obs = rows[keep], detections.obs[keep]
    elif kind == COLOR_DETECTOR:
        # A colour that no row of the log shows has no code to confirm.
        code = log.vocabulary.color_code.get(symbol.param)
        if code is not None:
            detections.known[code] = code
    elif kind == BBOX_ESTIMATOR:
        # x = (rx + c*u) - s*v, y = (ry + s*u) + c*v for rel (u, v),
        # with the frame's cos and sin from ``math`` once per log pose:
        # every element goes through the same IEEE operations, in the
        # same order, as the scalar form.  The rows are gathered with
        # ``take``, which numpy runs several times faster than fancy
        # indexing, and u and v each from its own contiguous row of
        # ``rel``.  x and y are written into one array, as its two
        # rows, so that each is contiguous, and handed on transposed.
        rx, ry, c, s = log.frame.take(detections.obs, axis=0).T
        u, v = log.rel[0].take(rows), log.rel[1].take(rows)
        position = np.empty((2, n))
        x, y = position
        # Finite poses can sum to inf, and inf to NaN, as Python floats
        # do, unwarned.
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(c, u, out=x)
            np.add(rx, x, out=x)
            np.subtract(x, s * v, out=x)
            np.multiply(s, u, out=y)
            np.add(ry, y, out=y)
            np.add(y, c * v, out=y)
        detections.position = position.T
    else:  # the pose estimator
        with np.errstate(over="ignore", invalid="ignore"):
            detections.theta = log.angle.take(detections.obs) + log.rel[2].take(rows)
    return detections, stage.cost.cost(n)


# Rows are binned into square cells of side MERGE_RADIUS / 2 and keyed by
# (class, cell x, cell y).  Cell indices are clamped to [-_CELL_LIMIT,
# _CELL_LIMIT], so that a cell and the cells up to 3 away, y - 3 to y + 3,
# fit in a span of _CELL_SPAN and (class, cell x, cell y) packs into one
# int64 key (for fewer than 2**19 classes).
#
# Why the rows of one cell link with no test.  The side is a power of
# two, so x / side is exact (x is clamped first, NaN to the lower bound,
# so it cannot overflow), and so is its floor: a row in the unclamped
# cell c of an axis has c * side <= x < (c + 1) * side.  Two rows of that
# cell are less than 1/4 apart, and since rounding to nearest is monotone
# and 1/4 is a float, the test's |fl(x_a - x_b)| <= 1/4 too, on each
# axis.  Then fl(dx * dx) and fl(dy * dy) are at most 1/16, their rounded
# sum at most 1/8, and the test's 1/8 <= r2 = 1/4 holds.
#
# The same monotonicity links two groups of rows at once from their
# joint bounding box.  Every pair of rows in the box is at most its
# extent apart on each axis, so if the rounded extents, squared and
# summed, pass the test, every pair passes it.  An extent is NaN next to
# a row with a non-finite coordinate, and then the box fails.  For two
# single rows the box test is the pair's own test, bit for bit.
_CELL_SIDE = MERGE_RADIUS / 2
_CELL_LIMIT = 1 << 20
_CELL_SPAN = 1 << 22
_RADIUS2 = MERGE_RADIUS * MERGE_RADIUS
# searchsorted(side="right") offsets from a unit's key: the end of its own
# column at cell y + 3, and the start and end of columns x + 1 to x + 3
# from cell y - 3 to y + 3.  The first column is overwritten with the
# unit's next position.
_WINDOWS = np.array([0, 3, *(d * _CELL_SPAN + e for d in (1, 2, 3) for e in (-4, 3))])
# A (cell x, cell y) pair's part of the key: cell x * _CELL_SPAN + cell y,
# exact in float64, since it stays below 2**43.
_SPANS = np.array([_CELL_SPAN, 1.0])
# Candidate pairs are taken in chunks of about this many, so that a burst
# of k rows that no cell holds together costs time, not memory, in k * k.
_PAIRS = 1 << 16


def _chunks(lo, count):
    """Every position of the windows ``[lo, lo + count)``, about ``_PAIRS``
    at a time: yields each chunk's windows, one per position, and its
    positions.  A chunk holds whole windows, at least one."""
    end = count.cumsum()
    # A position is its rank among all the windows' positions plus its
    # window's shift.
    shift = lo + count - end
    first = 0
    while first < len(count):
        done = end[first] - count[first]
        last = max(first + 1, int(end.searchsorted(done + _PAIRS, side="right")))
        window = np.arange(first, last).repeat(count[first:last])
        yield window, np.arange(done, end[last - 1]) + shift[window]
        first = last


def _flatten(label: np.ndarray) -> np.ndarray:
    """The forest ``label`` with every row pointing at its root."""
    while True:
        up = label[label]
        if not np.count_nonzero(up != label):
            return up
        label = up


def _join(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The flat forest ``label`` with the trees of rows ``a[i]`` and
    ``b[i]`` joined: while some pair spans two trees, the larger root of
    each such pair points at the smaller one, and every row then at its
    root.  So each tree's root stays its smallest row."""
    while True:
        la, lb = label[a], label[b]
        if not np.count_nonzero(la != lb):
            return label
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        label = _flatten(label)


def _link(cls: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Single-linkage clusters of same-class rows at the merge radius.

    Returns, for each row, the smallest row of its cluster.  Rows are
    binned into square cells of side ``MERGE_RADIUS / 2`` and keyed by
    (class, cell x, cell y), and the rows of one cell form a unit, joined
    with no pair test (the comment above ``_CELL_SIDE`` proves why,
    rounding included).  A row with a non-finite coordinate, or in a
    cell at the clamp, is a unit of its own: there the cell's bounds do
    not hold (NaN takes the lower clamp, and only cells beyond the clamp
    share an index).

    Two rows the test links are less than 3 cells apart on each axis: at
    most ``MERGE_RADIUS`` apart, plus the rounding of the test's
    subtraction, which can take a gap just over the radius down to it
    (1.0 and 0.49999999999999994 link, 3 cells apart).  Sorted keys keep
    each (class, cell x) column contiguous, so a unit's candidates are
    four ``searchsorted`` windows over the units: the later units of its
    own column up to cell y + 3, and columns x + 1 to x + 3 from cell
    y - 3 to y + 3.  Together they hold each pair of units up to 3 cells
    apart once.  No window reaches past the key ``_WINDOWS[-1]`` above a
    unit's, so only units whose next key is that close get windows.
    Then, a chunk of about ``_PAIRS`` unit pairs at a time:

    - a pair whose joint bounding box passes the test links with no row
      test (two parts of an object that straddles a cell line, say);
    - of the rest, a pair already in one tree is skipped;
    - the exact ``dx*dx + dy*dy <= r2`` test runs on the row pairs of the
      pairs left, about ``_PAIRS`` row pairs at a time.

    The first two rules change no label, and no simulated log runs them.
    They stay for positional jitter, which ``simulate`` never produces:
    on a 2-vCPU VM, 2000 sightings with 5 cm of Gaussian jitter link in
    0.1 ms with them and 28 ms without, and 3000 + 3000 rows on either
    side of a cell line in 0.2 ms with them and 232 ms without.

    The keys are sorted with numpy's default, unstable sort, so the rows
    of a unit come in no set order.  The clusters grow as a forest over
    the rows: ``label[i]`` is a row of i's tree no greater than i, so each
    tree's root is its smallest row.  Every row starts pointing at its
    unit's smallest row, the minimum over the unit, and each chunk's
    links are joined (``_join``) before the next chunk is tested.
    """
    n = len(cls)
    cell = np.fmax(xy, -_CELL_LIMIT * _CELL_SIDE)
    np.fmin(cell, _CELL_LIMIT * _CELL_SIDE, out=cell)
    np.floor(cell / _CELL_SIDE, out=cell)
    key = (cell @ _SPANS).astype(np.int64)
    key += cls * (_CELL_SPAN * _CELL_SPAN)
    order = key.argsort()
    key = key[order]
    clamped = np.abs(cell) == _CELL_LIMIT
    alone = (clamped[:, 0] | clamped[:, 1])[order]
    # A unit starts at each new key, and at and after each lone row.
    edge = np.ones(n + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=edge[1:n])
    edge[:n] |= alone
    edge[1:] |= alone
    bound = edge.nonzero()[0]
    start, size = bound[:-1], bound[1:] - bound[:-1]
    # The sort leaves tied keys in no set order, so a unit's smallest row
    # is the minimum over its rows, not its first.
    rep = np.minimum.reduceat(order, start)
    label = np.empty(n, dtype=np.intp)
    label[order] = rep.repeat(size)
    unit_key = key[start]
    # Every window of a unit ends at or before its key + _WINDOWS[-1], and
    # the keys are sorted: a unit whose next key lies beyond that has no
    # candidate, and only the others get windows.
    reach = (unit_key[1:] - unit_key[:-1] <= _WINDOWS[-1]).nonzero()[0]
    if not len(reach):
        return label
    window = unit_key.searchsorted(unit_key[reach] + _WINDOWS[:, None], side="right")
    window[0] = reach + 1
    # Row 2d of ``window`` starts the window in column x + d of unit
    # ``reach[i]`` at position i, and row 2d + 1 ends it.
    lo, count = window[::2].ravel(), (window[1::2] - window[::2]).ravel()
    live = count.nonzero()[0]
    if not len(live):
        return label
    # The unit each live window belongs to.
    owner = reach.take(live % len(reach))
    xy = xy.take(order, axis=0)
    x, y = xy[:, 0], xy[:, 1]
    low, high = np.minimum.reduceat(xy, start), np.maximum.reduceat(xy, start)
    # NaN, inf and overflow compare false, as Python floats do, unwarned.
    with np.errstate(invalid="ignore", over="ignore"):
        for w, b in _chunks(lo[live], count[live]):
            a = owner[w]
            dx, dy = (np.maximum(high[a], high[b]) - np.minimum(low[a], low[b])).T
            near = dx * dx + dy * dy <= _RADIUS2
            label = _join(label, rep[a[near]], rep[b[near]])
            test = (~near & (label[rep[a]] != label[rep[b]])).nonzero()[0]
            a, b = a[test], b[test]
            # Each row of unit a against the rows of unit b.
            for i, rows_a in _chunks(start[a], size[a]):
                for j, q in _chunks(start[b[i]], size[b[i]]):
                    p = rows_a[j]
                    dx, dy = x[p] - x[q], y[p] - y[q]
                    hit = (dx * dx + dy * dy <= _RADIUS2).nonzero()[0]
                    label = _join(label, order[p[hit]], order[q[hit]])
    return label


def _merge(detections: DetectionSet, robot_pose: Pose,
           cost_ledger: tuple[tuple[str, float], ...], total_cost: float) -> WorldModel:
    """One object per cluster of same-class detections, in group order.

    The pose is the members' centroid and the angle of the earliest
    member, by (t, theta).  The colour is the members' most common
    apparent colour, kept only when the build's ``known`` table holds its
    code: which colour detectors ran decides whether the colour is known,
    never which colour it is.  The region is the
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
      a tie towards the smallest string, and the winning colours are
      gathered through ``known``.

    The objects stay columns, one per group in that order, with the
    members' ``t`` group by group.  No id is made here: ``WorldModel.id``
    makes one when it is read.
    """
    log, rows, obs = detections.log, detections.rows, detections.obs
    xy, theta = detections.position, detections.theta
    row_cls, color = log.cls[rows], log.color[rows]
    t, region = log.times[obs], log.region[obs]
    label = _link(row_cls, xy)
    # Each cluster's smallest row labels itself; numbering those rows in
    # order numbers the groups.
    smallest = (label == np.arange(len(label))).nonzero()[0]
    k = len(smallest)
    rank = np.empty(len(label), dtype=np.intp)
    rank[smallest] = np.arange(k)
    group = rank.take(label)
    order = np.lexsort((theta, t, group))
    size = np.bincount(group)
    stop = size.cumsum()
    start = stop - size
    nc, nr = len(log.vocabulary.colors), len(log.vocabulary.regions)
    # The class, colour and region rows of ``codes`` are filled in place.
    codes = np.empty((3, k), dtype=np.intp)
    cls, winner, votes = codes
    np.bincount(group * nc + color, minlength=k * nc).reshape(k, nc).argmax(axis=1, out=winner)
    # A colour stays only when its detector ran: the build's table of
    # confirmed codes, -1 elsewhere, gathered by the winners.
    detections.known.take(winner, out=winner)
    np.bincount(group * nr + region, minlength=k * nr).reshape(k, nr).argmax(axis=1, out=votes)
    first = order[start]
    row_cls.take(first, out=cls)
    pose = np.empty((3, k))
    np.divide(np.bincount(group, xy[:, 0]), size, out=pose[0])
    np.divide(np.bincount(group, xy[:, 1]), size, out=pose[1])
    theta.take(first, out=pose[2])
    return WorldModel(
        vocabulary=log.vocabulary, codes=codes, pose=pose, t=t[order], start=start,
        stop=stop, given=None, robot_pose=robot_pose, cost_ledger=cost_ledger,
        total_cost=total_cost)


# The stages that run only as a pair.
_GEOMETRY = frozenset(map(STRUCTURAL_SYMBOLS.__getitem__, (BBOX_ESTIMATOR, POSE_ESTIMATOR)))


def build_world_model(observations, classifiers, registry: ClassifierRegistry,
                      robot_pose: Pose | None = None) -> WorldModel:
    """Run the selected classifiers over the observations and merge objects.

    The observations are a log, or a sequence of ``Observation`` that
    ``ObservationLog.of`` lays out as one, and the object detectors share
    one gather of the log's rows of their classes.
    The stages then run in ``CLASSIFIER_KINDS`` order -- object detectors,
    noise filter, color detectors, bounding box, pose -- and in canonical
    order within a kind, the build rank of the registry's stage table
    (``ClassifierRegistry.stages``), which the build walks once, in that
    order, keeping the selected stages; each stage that costs something
    adds a ledger entry under the table's canon.  A classifier the
    registry does not hold raises ``UnknownClassifier``, naming the
    smallest unknown canon, before any stage runs.  The bounding-box and pose
    stages run only as a pair: without both no detection can become an
    object (its position is unknown), so a build with one of them runs
    neither.  Duplicate detections of one object -- same apparent class
    within the merge radius -- collapse to a single object at the
    centroid.  Without ``robot_pose`` the robot is where the log's latest
    observation puts it (``ObservationLog.latest_pose``).
    """
    log = ObservationLog.of(observations)
    selected = frozenset(classifiers)
    if not selected <= registry.classifier_set:
        raise UnknownClassifier(min(c.canon for c in selected - registry.classifier_set))
    if robot_pose is None:
        robot_pose = log.latest_pose()

    if not _GEOMETRY <= selected:
        selected -= _GEOMETRY
    # The stage table is in build order: one walk keeps the selected
    # stages and the classes of the selected object detectors.
    stages, classes = [], set()
    for stage in registry.stages.values():
        symbol = stage.symbol
        if symbol in selected:
            stages.append(stage)
            if symbol.kind == OBJECT_DETECTOR:
                classes.add(symbol.param)
    current = log.detections(classes)
    # The total is the ledger's, summed left to right as it grows.
    ledger: list[tuple[str, float]] = []
    total = 0
    for stage in stages:
        current, cost = run_classifier(stage.symbol, registry, current)
        if cost:
            ledger.append((stage.canon, cost))
            total += cost

    if current.theta is None or not len(current):
        return _no_objects(log.vocabulary, robot_pose, tuple(ledger), total)
    return _merge(current, robot_pose, tuple(ledger), total)


def _no_objects(vocabulary: Vocabulary, robot_pose: Pose,
                cost_ledger: tuple[tuple[str, float], ...], total_cost: float) -> WorldModel:
    """The world model of no objects, over a log's vocabulary."""
    none = np.empty(0, dtype=np.intp)
    return WorldModel(vocabulary=vocabulary, codes=none.reshape(3, 0),
                      pose=np.empty((3, 0)), t=np.empty(0, dtype=np.int64), start=none,
                      stop=none, given=None, robot_pose=robot_pose, cost_ledger=cost_ledger,
                      total_cost=total_cost)


# ---------------------------------------------------------------------------
# Serialization

def _pose(values, field: str) -> Pose:
    if len(typed(values, (list,), field)) != 3:
        raise InvalidSpec(f"{field} must be three numbers, got {values!r}")
    return tuple(float(number(v, field)) for v in values)


def save_observations(observations, path) -> None:
    write_records(path, OBS_LOG_SCHEMA, "observation_log", map(asdict, observations))


def _frame(rec, seen: set[int]) -> tuple:
    t = rec["t"]
    # The build keeps t in an int64 column.
    if type(t) is not int or not -2**63 <= t < 2**63:
        raise InvalidSpec(f"t must be a 64-bit integer, got {t!r}")
    if t in seen:
        raise InvalidSpec(f"repeats t={t}")
    seen.add(t)
    if rec["scene_label"] not in SCENE_LABELS:
        raise InvalidSpec(f"scene_label must be one of {SCENE_LABELS}, "
                          f"got {rec['scene_label']!r}")
    return (
        t, _pose(rec["robot_pose"], "robot_pose"),
        [(typed(d["latent_id"], (str, type(None)), "latent_id"), _pose(d["rel"], "rel"),
          typed(d["apparent_class"], (str,), "apparent_class"),
          typed(d["apparent_color"], (str,), "apparent_color"),
          typed(d["noisy"], (bool,), "noisy"))
         for d in rec["sensed"]],
        rec["scene_label"],
        # A log-probability: -inf, a label with prior 0, is a score, though
        # ``simulate``'s uniform prior never writes one; NaN and +inf are not.
        tuple((typed(label, (str,), "scene_scores label"),
               float(number(score, "scene score", -math.inf)))
              for label, score in rec["scene_scores"]))


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
    return ObservationLog.from_frames(read_records(
        path, OBS_LOG_SCHEMA, "observation_log", lambda rec: _frame(rec, seen)))
