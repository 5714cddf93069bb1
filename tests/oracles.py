"""Reference implementations that the tests compare the package against.

Each one is the plain, slow way to compute what the package computes
fast: a symbol space that numbers the keys of whatever symbols it is
given, a per-factor feature dictionary, scoring and inference that
derive each phrase's tokens and each child's features from the symbols
themselves and pass child symbols up the tree, inference by enumerating
every joint assignment of a phrase, merge clustering by comparing every
pair of points, a simulator that tests every object for range from
every waypoint, a world-model build that copies one frozen detection per
record through every perception stage and names every object at once,
target resolution over a list of objects, a training design whose
every row is built anew from the per-factor feature dictionary, and a
fit by gradient ascent with Barzilai-Borwein steps.  The
build clusters, votes and names objects with the helpers here, never with
the package's own, and the design names its features with
``extract_features``, never with the package's featurizer.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.special import expit, log_expit

from groundling import correspondence
from groundling.correspondence import (
    Assignment,
    CorrespondenceModel,
    TrainResult,
    _features,
)
from groundling.errors import (
    AmbiguousRelation,
    CorpusDomainMismatch,
    DivergedLoss,
    GroundlingError,
    InvalidSpec,
    NonFiniteScore,
    NoTargetObject,
    UnknownClassifier,
)
from groundling.grammar import ParseTree, Phrase
from groundling.symbols import (
    BBOX_ESTIMATOR,
    COLOR_DETECTOR,
    INSTANCE_VARIANTS,
    NOISE_FILTER,
    OBJECT_DETECTOR,
    POSE_ESTIMATOR,
    ClassifierRegistry,
    GroundingSymbol,
    Layout,
    PerceptionSymbol,
    SymbolSpace,
    _entries,
    action_instance,
    key_names,
    signature_attrs,
)
from groundling.world import (
    FALLBACK_SCENE,
    MERGE_RADIUS,
    SENSING_RANGE,
    DetectedObject,
    Observation,
    Pose,
    RawDetection,
    WorldModel,
    WorldSpec,
    _to_robot_frame,
    classify_detections,
    planar_distance,
)

ENUMERATION_LIMIT = 20
_CHUNK_ROWS = 1 << 16


class TooLarge(GroundlingError):
    """Exhaustive enumeration was requested for an instance above the guard."""


def _layout_key(symbol) -> tuple:
    # Constraints first, by canon; then each instance variant's block, in
    # INSTANCE_VARIANTS order, where ties keep the order given.
    if symbol.variant in INSTANCE_VARIANTS:
        return 1 + INSTANCE_VARIANTS.index(symbol.variant), ""
    return 0, symbol.canon


def object_instance(obj) -> GroundingSymbol:
    """Symbol for one detected object in the current world model."""
    return GroundingSymbol("object", obj.id,
                           signature_attrs(obj.cls, obj.color, obj.region))


def symbol_space(domain: str, symbols) -> SymbolSpace:
    """The generic layout of any symbols, duplicates rejected.

    Constraint symbols come first, sorted by canon, and then the instance
    symbols of each variant in one block, in the order given.  Keys are
    numbered in the order the laid-out symbols first have them, which is
    checked to be how a ``Layout`` of the constraints and of the
    instances' attribute pairs, in the order they first appear, numbers
    them: so it is when each instance block holds the same objects in
    the same order.  Symbols with the same keys share a row, numbered as
    it first appears; so the T constraints are rows 0 to T - 1.
    """
    ordered = sorted(symbols, key=_layout_key)
    canons = [s.canon for s in ordered]
    if len(set(canons)) < len(canons):
        raise InvalidSpec(f"duplicate symbol among {canons}")
    constraints = [s for s in ordered if s.variant not in INSTANCE_VARIANTS]
    layout = Layout(domain, constraints, tuple(dict.fromkeys(
        pair for s in ordered[len(constraints):] for pair in s.attributes)))
    named = [key_names(s.variant, s.attributes) for s in ordered]
    assert layout.names == tuple(dict.fromkeys(itertools.chain.from_iterable(named)))
    rows: dict[tuple, int] = {}
    row_of = [rows.setdefault(tuple(map(layout.index.__getitem__, names)),
                              len(rows)) for names in named]
    assert row_of[:len(constraints)] == list(range(len(constraints)))
    return GenericSpace(layout, ordered, tuple(rows), row_of)


class GenericSpace(SymbolSpace):
    """A space of given symbols, rows and row keys, all made up front: what
    ``SymbolSpace`` makes on first read is set here."""

    def __init__(self, layout: Layout, symbols, row_keys, row_of) -> None:
        super().__init__(layout, _entries(row_keys), np.empty(0, dtype=np.intp), ())
        self.rows, self._size = len(row_keys), len(symbols)
        self.row_keys, self.row_of = row_keys, np.asarray(row_of, dtype=np.intp)
        self._symbols = list(symbols)


def phrase_side(phrase: Phrase, child_trues, space: SymbolSpace) -> tuple:
    """``(tokens, child_pairs, ceq)``: what a phrase fires against a space,
    derived from its words and from the child symbols themselves.

    ``tokens`` are ``bias``, ``cat=C``, ``w=word`` for each word the
    phrase owns and ``cv=u`` for each variant ``u`` among the children,
    sorted; ``child_pairs`` are the children's attribute pairs, at whose
    cells ``cmatch`` fires; and ``ceq`` lists ``(row, key)`` for the row
    of each child the space has, with the key of its variant.  Object and
    action instances among the children are skipped.
    """
    kids = [c for c in child_trues if c.variant not in INSTANCE_VARIANTS]
    tokens = ["bias", f"cat={phrase.category}",
              *(f"w={word}" for word in dict.fromkeys(phrase.words)),
              *(f"cv={u}" for u in sorted({c.variant for c in kids}))]
    rows = {space[j].canon: int(space.row_of[j])
            for j in range(len(space.layout.constraints))}
    index = space.layout.index
    ceq = [(rows[c.canon], index[c.variant]) for c in kids if c.canon in rows]
    return tokens, {p for c in kids for p in c.attributes}, ceq


class _TokenVectors:
    """One model's weight vector over a layout's keys per token."""

    def __init__(self, weights, layout: Layout):
        self.get = weights.get
        self.layout = layout
        self.tokens: dict[str, np.ndarray] = {}
        self.cmatch, self.dig, self.ceq = map(self.token, ("cmatch", "dig", "ceq"))

    def token(self, token: str) -> np.ndarray:
        vector = self.tokens.get(token)
        if vector is None:
            vector = np.zeros(len(self.layout.names))
            for k, name in _features(self.layout, token):
                vector[k] = self.get(name, 0.0)
            self.tokens[token] = vector
        return vector


_VECTORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def symbol_logits(model: CorrespondenceModel, phrase: Phrase, space: SymbolSpace,
                  child_trues=(), digest: frozenset = frozenset()) -> np.ndarray:
    """A phrase's logits, with every token and child feature derived from
    the symbols (``phrase_side``), term by term.

    The key weights start from the ``dig`` weights of the digest's cells,
    add each token's vector in ``phrase_side``'s order and then the
    ``cmatch`` weights of the children's cells.  Each row sums its keys'
    weights, adds the ``ceq`` weight of a child it repeats, and the rows
    are gathered to the symbols; a non-finite logit raises
    ``NonFiniteScore`` at once.
    """
    by_layout = _VECTORS.setdefault(model, {})
    vectors = by_layout.get(space.layout)
    if vectors is None:
        vectors = by_layout[space.layout] = _TokenVectors(model.weights, space.layout)
    tokens, child_pairs, ceq = phrase_side(phrase, child_trues, space)
    key_weights = np.where(space.layout.cells_of(digest), vectors.dig, 0.0)
    for token in tokens:
        key_weights += vectors.token(token)
    if child_pairs:
        key_weights += np.where(space.layout.cells_of(child_pairs),
                                vectors.cmatch, 0.0)
    rows = np.bincount(space.entry_row, weights=key_weights[space.entry_key],
                       minlength=len(space.row_keys))
    for row, key in ceq:
        rows[row] += vectors.ceq[key]
    z = rows[space.row_of]
    if np.count_nonzero(np.isfinite(z)) < len(z):
        j = int(np.flatnonzero(~np.isfinite(z))[0])
        raise NonFiniteScore(f"factor score for {space[j].canon} is {z[j]!r}")
    return z


def infer_by_symbols(model: CorrespondenceModel, tree: ParseTree,
                     space: SymbolSpace,
                     digest: frozenset = frozenset()) -> Assignment:
    """Greedy bottom-up inference that passes child symbols up the tree.

    Each phrase is scored with ``symbol_logits`` given the union of its
    children's true constraint symbols, thresholded where ``expit`` of a
    symbol's logit exceeds one half.  The assignment's row logits are read
    back from the symbols' logits, and every symbol of a row must have the
    same bits as its row.
    """
    if model.domain != space.domain:
        raise CorpusDomainMismatch(
            f"model domain {model.domain!r} does not match space {space.domain!r}"
        )
    phrases = tree.phrases()
    constraints = len(space.layout.constraints)
    logits = np.empty((len(phrases), len(space.row_keys)))
    kids: list[list] = [[]] * len(phrases)
    for phrase in phrases:
        child_trues: set = set()
        for child in phrase.children:
            child_trues.update(kids[child.index])
        z = symbol_logits(model, phrase, space, child_trues, digest)
        rows = logits[phrase.index]
        rows[space.row_of] = z
        assert np.array_equal(rows[space.row_of].view(np.int64), z.view(np.int64))
        kids[phrase.index] = [space[j] for j in
                              np.flatnonzero(expit(z[:constraints]) > 0.5).tolist()]
    return Assignment(logits, space)


def extract_features(phrase: Phrase, symbol, child_trues=(),
                     digest: frozenset = frozenset()) -> dict[str, float]:
    """Sparse binary features for one correspondence factor.

    Templates couple the phrase's own words with the candidate symbol's
    variant and attributes, summarize the resolved child assignments
    (variants present, exact candidate repeats, attribute agreement), and
    test the candidate's attributes against the world digest.  Object and
    action instances among the children are skipped.
    """
    variant = symbol.variant
    features = {
        f"bias|v={variant}": 1.0,
        f"cat={phrase.category}|v={variant}": 1.0,
    }
    attributes = symbol.attributes
    for word in phrase.words:
        features[f"w={word}|v={variant}"] = 1.0
        for key, value in attributes:
            features[f"w={word}|a={key}={value}"] = 1.0
    if child_trues:
        canon = symbol.canon
        own = set(attributes)
        for child_symbol in child_trues:
            if child_symbol.variant in INSTANCE_VARIANTS:
                continue
            features[f"cv={child_symbol.variant}|v={variant}"] = 1.0
            if child_symbol.canon == canon:
                features[f"ceq|v={variant}"] = 1.0
            for pair in child_symbol.attributes:
                if pair in own:
                    features[f"cmatch|{pair[0]}|v={variant}"] = 1.0
    for key, value in attributes:
        if (key, value) in digest:
            features[f"dig|{key}|v={variant}"] = 1.0
    return features


def assemble_design(space: SymbolSpace, examples) -> tuple:
    """The design matrix, labels and feature names, every row built anew.

    One row per (phrase, symbol) pair, in phrase order, holding the
    columns of the features ``extract_features`` names for it, however
    often an equal phrase came before.
    """
    symbols = tuple(space)
    by_canon = {s.canon: s for s in symbols}
    rows: list[list[str]] = []
    labels: list[float] = []
    for example in examples:
        phrases = example.tree.phrases()
        if len(example.gold) != len(phrases):
            raise CorpusDomainMismatch("gold annotation does not cover every phrase")
        for canons in example.gold:
            for canon in canons:
                if canon not in by_canon:
                    raise CorpusDomainMismatch(
                        f"gold symbol {canon!r} is outside the {space.domain!r} space"
                    )
        for phrase in phrases:
            child_trues = {by_canon[c] for child in phrase.children
                           for c in example.gold[child.index]}
            gold_here = example.gold[phrase.index]
            for symbol in symbols:
                rows.append(sorted(extract_features(phrase, symbol, child_trues,
                                                    example.digest)))
                labels.append(1.0 if symbol.canon in gold_here else 0.0)
    names = sorted({name for row in rows for name in row})
    column = {name: c for c, name in enumerate(names)}
    matrix = sparse.csr_matrix(
        (np.ones(sum(map(len, rows))),
         np.array([column[name] for row in rows for name in row], dtype=np.int32),
         np.concatenate(([0], np.cumsum([len(row) for row in rows], dtype=np.int64)))),
        shape=(len(labels), len(names)),
    )
    return matrix, np.asarray(labels), tuple(names)


@dataclass(frozen=True)
class ExhaustiveAssignment:
    """The true symbols per phrase that ``infer_exhaustive`` found."""

    domain: str
    trues: tuple[frozenset, ...]
    factor_evals: int

    def true_sets(self) -> dict[int, frozenset]:
        return dict(enumerate(self.trues))


def infer_exhaustive(model: CorrespondenceModel, tree: ParseTree,
                     space: SymbolSpace,
                     digest: frozenset = frozenset()) -> ExhaustiveAssignment:
    """Reference inference by per-phrase enumeration.

    For each phrase (children already resolved) the factors are scored by
    ``symbol_logits``, not by the package, every joint setting of its
    correspondence variables is scored as a sum of factor log-probabilities
    and the argmax kept; ties prefer the lexicographically smallest
    assignment with false ordered before true.  Instances with more than
    ``ENUMERATION_LIMIT`` phrase-symbol pairs raise ``TooLarge``.
    """
    if model.domain != space.domain:
        raise CorpusDomainMismatch(
            f"model domain {model.domain!r} does not match space {space.domain!r}"
        )
    phrases = tree.phrases()
    symbols = tuple(space)
    n = len(symbols)
    if len(phrases) * n > ENUMERATION_LIMIT:
        raise TooLarge(
            f"{len(phrases)} phrases x {n} symbols exceeds the enumeration guard"
        )
    trues: list[frozenset] = [frozenset()] * len(phrases)
    evals = 0
    shifts = n - 1 - np.arange(n)
    for phrase in phrases:
        child_trues: set = set()
        for child in phrase.children:
            child_trues.update(trues[child.index])
        z = symbol_logits(model, phrase, space, child_trues, digest)
        evals += n
        delta = log_expit(z) - log_expit(-z)
        best_score = -math.inf
        best_row = 0
        total = 1 << n
        for start in range(0, total, _CHUNK_ROWS):
            rows = np.arange(start, min(start + _CHUNK_ROWS, total),
                             dtype=np.int64)
            bits = (rows[:, None] >> shifts) & 1
            scores = bits @ delta
            k = int(np.argmax(scores))
            if scores[k] > best_score:
                best_score = float(scores[k])
                best_row = start + k
        trues[phrase.index] = frozenset(
            symbols[j] for j in range(n) if (best_row >> (n - 1 - j)) & 1
        )
    return ExhaustiveAssignment(domain=model.domain, trues=tuple(trues),
                                factor_evals=evals)


FIRST_STEP = 0.1


def train(space: SymbolSpace, examples,
          regularization: float = correspondence.DEFAULT_REGULARIZATION
          ) -> TrainResult:
    """Reference fit: full-batch gradient ascent with Barzilai-Borwein steps.

    Each line search starts from the step ``s.s / s.y`` of the last
    accepted move (``s`` the change in weights, ``y`` the fall in
    gradient), or from ``FIRST_STEP`` when there is none or ``s.y <= 0``,
    and halves it until the objective improves.  The design, the objective
    and the stop rules are the package's: ``assemble_design`` and
    ``objective_and_gradient`` are looked up on their module at each call,
    so a test can count the evaluations, and the fit stops when the
    gradient's max-norm falls under ``TOLERANCE``, when the step
    underflows, or after ``MAX_ITERATIONS``.
    """
    design, labels, counts, names = correspondence.assemble_design(space, examples)
    weights = np.zeros(design.shape[1])
    objective, gradient = correspondence.objective_and_gradient(
        design, labels, weights, regularization, counts)
    if not math.isfinite(objective):
        raise DivergedLoss(f"objective is {objective!r} at the start of training")
    iterations = 0
    step = FIRST_STEP
    for iterations in range(1, correspondence.MAX_ITERATIONS + 1):
        grad_norm = float(np.max(np.abs(gradient))) if gradient.size else 0.0
        if grad_norm < correspondence.TOLERANCE:
            iterations -= 1
            break
        trial = step
        while trial >= 1e-12:
            candidate = weights + trial * gradient
            cand_obj, cand_grad = correspondence.objective_and_gradient(
                design, labels, candidate, regularization, counts)
            if math.isnan(cand_obj):
                raise DivergedLoss("objective became non-finite during training")
            if cand_obj > objective:
                s, y = candidate - weights, gradient - cand_grad
                sy = float(s @ y)
                step = float(s @ s) / sy if sy > 0.0 else FIRST_STEP
                weights, objective, gradient = candidate, cand_obj, cand_grad
                break
            trial /= 2.0
        else:  # the step underflowed without improving
            break
    grad_norm = float(np.max(np.abs(gradient))) if gradient.size else 0.0
    packed = {name: float(w) for name, w in zip(names, weights) if w != 0.0}
    model = CorrespondenceModel(domain=space.domain, weights=packed,
                                regularization=regularization)
    return TrainResult(model=model, iterations=iterations, objective=objective,
                       grad_norm=grad_norm,
                       converged=grad_norm < correspondence.TOLERANCE)


def majority(values, default=None):
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


def left_sum(values) -> float:
    """``values`` added one at a time, left to right, from 0.0."""
    total = 0.0
    for v in values:
        total += v
    return total


def pairwise_cluster(points: list[tuple[float, float]]) -> list[list[int]]:
    """Single-linkage clustering at the merge radius over every pair."""
    n = len(points)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    r2 = MERGE_RADIUS * MERGE_RADIUS
    for i in range(n):
        for j in range(i + 1, n):
            dx = points[i][0] - points[j][0]
            dy = points[i][1] - points[j][1]
            if dx * dx + dy * dy <= r2:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def eager_naming(classes, xs, ys) -> tuple[list[str], list[int]]:
    """The ids of objects of these classes and positions, made all at once.

    Each object's name is ``class@x,y`` to one decimal.  The names are
    sorted, stably, and the k-th object of a name, k > 1, becomes
    ``name#k``.  Returns the ids, in the order given, and the order that
    sorts the objects by name and by k within one: id order.
    """
    name = [f"{c}@{x:.1f},{y:.1f}" for c, x, y in zip(classes, xs, ys)]
    order = sorted(range(len(name)), key=name.__getitem__)
    ids = list(name)
    for base, same in itertools.groupby(order, key=name.__getitem__):
        for k, i in enumerate(same, 1):
            if k > 1:
                ids[i] = f"{base}#{k}"
    return ids, order


def simulate(spec: WorldSpec, registry: ClassifierRegistry) -> tuple[Observation, ...]:
    """Reference simulator: every waypoint tests every object for range,
    and each record is a ``RawDetection`` of an ``Observation``."""
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


def _from_robot_frame(robot: Pose, rel: Pose) -> Pose:
    c, s = math.cos(robot[2]), math.sin(robot[2])
    return (
        robot[0] + c * rel[0] - s * rel[1],
        robot[1] + s * rel[0] + c * rel[1],
        robot[2] + rel[2],
    )


@dataclass(frozen=True)
class Detection:
    """A raw detection routed through the perception pipeline.

    ``position``/``theta`` stay None until the bounding-box and pose
    stages compute them; ``color`` stays None until a color detector
    annotates it.
    """

    obs_t: int
    robot_pose: Pose
    raw: RawDetection
    position: tuple[float, float] | None = None
    theta: float | None = None
    color: str | None = None


def run_classifier(symbol: PerceptionSymbol, observations,
                   registry: ClassifierRegistry,
                   detections: tuple[Detection, ...] | None = None,
                   ) -> tuple[tuple[Detection, ...], float]:
    """Run one classifier over frozen detections and return (detections, cost)."""
    cost_model = registry.stages[symbol].cost
    if symbol.kind == OBJECT_DETECTOR:
        obs = tuple(observations)
        if not obs:
            return (), 0.0
        scanned = 0
        matched: list[Detection] = []
        for o in obs:
            for raw in o.sensed:
                scanned += 1
                if raw.apparent_class == symbol.param:
                    matched.append(Detection(obs_t=o.t, robot_pose=o.robot_pose, raw=raw))
        return tuple(matched), cost_model.cost(scanned)

    dets = tuple(detections or ())
    if not dets:
        return (), 0.0
    if symbol.kind == NOISE_FILTER:
        kept = tuple(d for d in dets if not d.raw.noisy)
        return kept, cost_model.cost(len(dets))
    if symbol.kind == COLOR_DETECTOR:
        out = tuple(
            replace(d, color=symbol.param) if d.raw.apparent_color == symbol.param else d
            for d in dets
        )
        return out, cost_model.cost(len(dets))
    if symbol.kind == BBOX_ESTIMATOR:
        out = []
        for d in dets:
            absolute = _from_robot_frame(d.robot_pose, d.raw.rel)
            out.append(replace(d, position=(absolute[0], absolute[1])))
        return tuple(out), cost_model.cost(len(dets))
    if symbol.kind == POSE_ESTIMATOR:
        out = tuple(
            replace(d, theta=_from_robot_frame(d.robot_pose, d.raw.rel)[2])
            for d in dets
        )
        return tuple(out), cost_model.cost(len(dets))
    raise UnknownClassifier(symbol.canon)


def _build(observations, classifiers, registry: ClassifierRegistry,
           robot_pose: Pose | None = None):
    """One frozen ``Detection`` per record, copied per stage.

    Returns the objects in order of smallest member row, named all at
    once (``eager_naming``), their id order, the ledger and the robot
    pose.
    """
    obs = sorted(observations, key=lambda o: o.t)
    selected = frozenset(classifiers)
    known = set(registry.classifiers())
    for c in selected:
        if c not in known:
            raise UnknownClassifier(c.canon)
    if robot_pose is None:
        robot_pose = obs[-1].robot_pose if obs else (0.0, 0.0, 0.0)

    ledger: list[tuple[str, float]] = []
    detections: list[Detection] = []
    detectors = sorted(
        (c for c in selected if c.kind == OBJECT_DETECTOR), key=lambda c: c.canon
    )
    for det in detectors:
        found, cost = run_classifier(det, obs, registry)
        if cost:
            ledger.append((det.canon, cost))
        detections.extend(found)
    current = tuple(sorted(detections, key=lambda d: (d.obs_t, d.raw.apparent_class,
                                                      d.raw.rel)))

    def stage(symbol):
        nonlocal current
        out, cost = run_classifier(symbol, obs, registry, detections=current)
        if cost:
            ledger.append((symbol.canon, cost))
        current = out

    noise = PerceptionSymbol(NOISE_FILTER)
    if noise in selected:
        stage(noise)
    for color in sorted((c for c in selected if c.kind == COLOR_DETECTOR),
                        key=lambda c: c.canon):
        stage(color)
    geometry_ready = False
    bbox, pose_est = PerceptionSymbol(BBOX_ESTIMATOR), PerceptionSymbol(POSE_ESTIMATOR)
    if bbox in selected and pose_est in selected:
        stage(bbox)
        stage(pose_est)
        geometry_ready = True

    if not geometry_ready:
        usable: list[Detection] = []
    else:
        usable = [d for d in current if d.position is not None and d.theta is not None]

    obs_by_t = {o.t: o for o in obs}
    # (smallest member row, object without its id)
    merged = []
    by_class: dict[str, list[tuple[int, Detection]]] = {}
    for row, d in enumerate(usable):
        by_class.setdefault(d.raw.apparent_class, []).append((row, d))

    for cls in sorted(by_class):
        members = by_class[cls]
        for group in pairwise_cluster([d.position for _, d in members]):
            dets = [members[i][1] for i in group]
            cx = left_sum(d.position[0] for d in dets) / len(dets)
            cy = left_sum(d.position[1] for d in dets) / len(dets)
            # The most common apparent colour, if some member's colour
            # detector confirmed it.
            apparent = majority(d.raw.apparent_color for d in dets)
            merged.append((min(members[i][0] for i in group), DetectedObject(
                id="",
                cls=cls,
                color=apparent if any(d.color == apparent for d in dets) else None,
                pose=(cx, cy, min((d.obs_t, d.theta) for d in dets)[1]),
                region=majority((obs_by_t[d.obs_t].scene_label for d in dets),
                                default=FALLBACK_SCENE),
                provenance=frozenset(d.obs_t for d in dets),
            )))
    objects = [o for _, o in sorted(merged, key=lambda m: m[0])]
    ids, order = eager_naming([o.cls for o in objects], [o.pose[0] for o in objects],
                              [o.pose[1] for o in objects])
    return ([replace(o, id=i) for o, i in zip(objects, ids)], order,
            tuple(ledger), robot_pose)


def build_columns(observations, classifiers, registry: ClassifierRegistry,
                  robot_pose: Pose | None = None) -> list[DetectedObject]:
    """The reference build's objects in order of smallest member row:
    the order of a build's columns."""
    return _build(observations, classifiers, registry, robot_pose)[0]


def build_world_model(observations, classifiers, registry: ClassifierRegistry,
                      robot_pose: Pose | None = None) -> WorldModel:
    """Reference build: one frozen ``Detection`` per record, copied per
    stage, and its objects in id order."""
    objects, order, ledger, robot_pose = _build(
        observations, classifiers, registry, robot_pose)
    return WorldModel.of(
        objects=tuple(objects[i] for i in order),
        robot_pose=robot_pose,
        cost_ledger=ledger,
    )


def resolve_action(root_trues, objects, robot_pose):
    """Reference resolution over a list of objects.

    Objects are filtered by every class / color / region constraint that
    holds at the root; the relation then selects by planar distance from
    the robot, ties broken by object id.  A missing relation is only
    acceptable when a single candidate survives the filters.
    """
    classes = {s.value for s in root_trues if s.variant == "objtype"}
    colors = {s.value for s in root_trues if s.variant == "color"}
    regions = {s.value for s in root_trues if s.variant == "region"}
    relations = sorted(s.value for s in root_trues if s.variant == "rel")
    candidates = [
        o for o in objects
        if (not classes or o.cls in classes)
        and (not colors or o.color in colors)
        and (not regions or o.region in regions)
    ]
    if not candidates:
        raise NoTargetObject(
            "no object satisfies"
            f" classes={sorted(classes)} colors={sorted(colors)}"
            f" regions={sorted(regions)}"
        )
    if len(relations) > 1:
        raise AmbiguousRelation(f"conflicting relations {relations} hold at the root")
    if not relations:
        if len(candidates) > 1:
            raise AmbiguousRelation(
                f"{len(candidates)} candidate objects and no relation to rank them"
            )
        target = candidates[0]
    elif relations[0] == "nearest":
        target = min(candidates,
                     key=lambda o: (planar_distance(o.pose, robot_pose), o.id))
    else:
        target = min(candidates,
                     key=lambda o: (-planar_distance(o.pose, robot_pose), o.id))
    return action_instance(target), target
