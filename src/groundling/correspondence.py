"""Log-linear correspondence models between parse phrases and symbols.

Each (phrase, symbol) pair carries a boolean correspondence variable whose
probability is a logistic function of sparse indicator features.  Inference
walks the tree bottom-up: every variable is thresholded at one half given
the already-resolved assignments of the phrase's children, so a full pass
costs exactly one factor evaluation per phrase-symbol pair.

``infer_exhaustive`` is a deliberately brute-force reference: it rescores
every joint setting of a phrase's variables instead of thresholding them
one at a time.  Training fits the factor weights by penalized maximum
likelihood with gold child assignments (teacher forcing).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.special import expit, log_expit

from .errors import (
    AmbiguousRelation,
    CorpusDomainMismatch,
    DivergedLoss,
    InvalidSpec,
    NonFiniteScore,
    NoTargetObject,
    TooLarge,
    UnknownSchemaVersion,
)
from .grammar import ParseTree, Phrase
from .symbols import GroundingSymbol, SymbolSpace, action_instance
from .world import DetectedObject, WorldDigest, planar_distance

MODEL_SCHEMA = 1
ENUMERATION_LIMIT = 20
_CHUNK_ROWS = 1 << 16
DEFAULT_REGULARIZATION = 1e-4
INSTANCE_VARIANTS = ("action", "object")
# Training stops at this gradient max-norm, or after this many iterations;
# a line search with no Barzilai-Borwein step at hand starts at FIRST_STEP.
TOLERANCE = 1e-5
MAX_ITERATIONS = 1000
FIRST_STEP = 0.1


def extract_features(phrase: Phrase, symbol, child_trues=(),
                     digest: WorldDigest | None = None) -> dict[str, float]:
    """Sparse binary features for one correspondence factor.

    Templates couple the phrase's own words with the candidate symbol's
    variant and attributes, summarize the resolved child assignments
    (variants present, exact candidate repeats, attribute agreement), and
    test the candidate's attributes against the world digest.  Attribute
    features deliberately omit the variant so that weights learned on
    type-level symbols transfer to instance symbols sharing the attribute.

    Only constraint symbols condition parents: true object and action
    instances are skipped when summarizing children, because instances are
    resolved against the world after inference and never appear as gold
    children during training.
    """
    variant = symbol.variant
    features = {
        f"bias|v={variant}": 1.0,
        f"cat={phrase.category}|v={variant}": 1.0,
    }
    attributes = symbol.attributes
    for word in phrase.words():
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
    if digest is not None:
        for key, value in attributes:
            if digest.has(key, value):
                features[f"dig|{key}|v={variant}"] = 1.0
    return features


@dataclass(frozen=True, eq=False)
class CorrespondenceModel:
    """Feature weights for one symbol domain."""

    domain: str
    weights: dict[str, float]
    regularization: float = DEFAULT_REGULARIZATION

    def score(self, features: dict[str, float]) -> float:
        weights = self.weights
        return sum(weights.get(name, 0.0) * value
                   for name, value in features.items())


def _factor_logit(model: CorrespondenceModel, phrase, symbol, child_trues,
                  digest) -> float:
    z = model.score(extract_features(phrase, symbol, child_trues, digest))
    if not math.isfinite(z):
        raise NonFiniteScore(f"factor score for {symbol.canon} is {z!r}")
    return z


def factor_prob(model: CorrespondenceModel, phrase, symbol, child_trues=(),
                digest: WorldDigest | None = None) -> float:
    """Probability that this phrase corresponds to this symbol."""
    return float(expit(_factor_logit(model, phrase, symbol, child_trues, digest)))


@dataclass(eq=False)
class Assignment:
    """Resolved correspondence variables for one parse tree.

    ``trues`` is indexed by phrase index (post-order, root last).  For
    grounding inference against a world model, ``action`` and ``target``
    carry the resolved navigation command and ``probabilities`` keeps the
    raw factor outputs from before the action variables were overridden.
    """

    domain: str
    trues: tuple[frozenset, ...]
    factor_evals: int
    probabilities: np.ndarray | None = None
    action: GroundingSymbol | None = None
    target: DetectedObject | None = None

    def root_trues(self) -> frozenset:
        return self.trues[-1]

    def true_sets(self) -> dict[int, frozenset]:
        return dict(enumerate(self.trues))


def resolve_action(root_trues, objects, robot_pose) -> tuple[GroundingSymbol, DetectedObject]:
    """Pick the navigation target implied by root-true constraint symbols.

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


def infer(model: CorrespondenceModel, tree: ParseTree, space: SymbolSpace,
          digest: WorldDigest | None = None, world=None) -> Assignment:
    """Greedy bottom-up inference: threshold each factor given its children.

    When ``world`` is given, the root-true constraints are resolved against
    the world's objects and the action variables are overridden afterwards:
    the selected action is true at the root only, every other action
    variable is false everywhere.  Resolution failures (``NoTargetObject``,
    which an empty world always raises, and ``AmbiguousRelation``)
    propagate to the caller.
    """
    if model.domain != space.domain:
        raise CorpusDomainMismatch(
            f"model domain {model.domain!r} does not match space {space.domain!r}"
        )
    if digest is None and world is not None:
        digest = world.digest()
    phrases = tree.phrases()
    symbols = tuple(space)
    probabilities = np.empty((len(phrases), len(symbols)))
    trues: list[frozenset] = [frozenset()] * len(phrases)
    evals = 0
    for phrase in phrases:
        child_trues: set = set()
        for child in phrase.children:
            child_trues.update(trues[child.index])
        row = set()
        for j, symbol in enumerate(symbols):
            p = factor_prob(model, phrase, symbol, child_trues, digest)
            evals += 1
            probabilities[phrase.index, j] = p
            if p > 0.5:
                row.add(symbol)
        trues[phrase.index] = frozenset(row)

    action = target = None
    if world is not None:
        action, target = resolve_action(trues[-1], world.objects, world.robot_pose)
        trues = [frozenset(s for s in row if s.variant != "action") for row in trues]
        trues[-1] = trues[-1] | {action}
    return Assignment(domain=model.domain, trues=tuple(trues), factor_evals=evals,
                      probabilities=probabilities, action=action, target=target)


def infer_exhaustive(model: CorrespondenceModel, tree: ParseTree,
                     space: SymbolSpace,
                     digest: WorldDigest | None = None) -> Assignment:
    """Reference inference by per-phrase enumeration.

    For each phrase (children already resolved) every joint setting of its
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
        log_true = np.empty(n)
        log_false = np.empty(n)
        for j, symbol in enumerate(symbols):
            z = _factor_logit(model, phrase, symbol, child_trues, digest)
            evals += 1
            log_true[j] = log_expit(z)
            log_false[j] = log_expit(-z)
        delta = log_true - log_false
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
    return Assignment(domain=model.domain, trues=tuple(trues), factor_evals=evals)


# ---------------------------------------------------------------------------
# Training

@dataclass(frozen=True)
class TrainingExample:
    """One tree with gold true-symbol canons per phrase index."""

    tree: ParseTree
    gold: tuple[frozenset, ...]
    digest: WorldDigest | None = None


def assemble_design(space: SymbolSpace, examples) -> tuple:
    """Build the sparse design matrix and label vector for a training set.

    One row per (phrase, symbol) pair; child conditioning uses the gold
    assignments.  Returns ``(matrix, labels, feature_names)``.
    """
    symbols = tuple(space)
    by_canon = {s.canon: s for s in symbols}
    vocabulary: dict[str, int] = {}
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
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
            child_trues = set()
            for child in phrase.children:
                child_trues.update(by_canon[c] for c in example.gold[child.index])
            gold_here = example.gold[phrase.index]
            for symbol in symbols:
                features = extract_features(phrase, symbol, child_trues,
                                            example.digest)
                for name, value in features.items():
                    column = vocabulary.setdefault(name, len(vocabulary))
                    indices.append(column)
                    data.append(value)
                indptr.append(len(indices))
                labels.append(1.0 if symbol.canon in gold_here else 0.0)
    # Columns are numbered in first-seen order, which follows set iteration
    # and so string hashing; renumber them by name so the design, and the
    # floating-point sums over it, are the same in every process.
    names = sorted(vocabulary)
    renumber = np.empty(len(names), dtype=np.int32)
    for column, name in enumerate(names):
        renumber[vocabulary[name]] = column
    matrix = sparse.csr_matrix(
        (np.asarray(data), renumber[np.asarray(indices, dtype=np.int32)],
         np.asarray(indptr)),
        shape=(len(labels), len(names)),
    )
    matrix.sort_indices()
    return matrix, np.asarray(labels), tuple(names)


def objective_and_gradient(design, labels, weights, regularization):
    """Penalized log-likelihood of the label vector and its gradient."""
    logits = design @ weights
    signs = np.where(labels > 0.5, 1.0, -1.0)
    objective = float(np.sum(log_expit(signs * logits)))
    objective -= regularization * float(weights @ weights)
    gradient = design.T @ (labels - expit(logits)) - 2.0 * regularization * weights
    return objective, gradient


@dataclass(frozen=True, eq=False)
class TrainResult:
    model: CorrespondenceModel
    iterations: int
    objective: float
    grad_norm: float
    converged: bool


def train(space: SymbolSpace, examples,
          regularization: float = DEFAULT_REGULARIZATION) -> TrainResult:
    """Fit factor weights by full-batch gradient ascent.

    Each line search starts from the Barzilai-Borwein step ``s.s / s.y`` of
    the last accepted move (``s`` the change in weights, ``y`` the fall in
    gradient), or from ``FIRST_STEP`` when there is none or ``s.y <= 0``,
    and halves it until the objective improves.  Training stops, converged,
    when the gradient's max-norm falls under ``TOLERANCE``; it stops
    unconverged when the step underflows or after ``MAX_ITERATIONS``.  A
    non-finite objective raises ``DivergedLoss``.
    """
    design, labels, names = assemble_design(space, examples)
    weights = np.zeros(design.shape[1])
    objective, gradient = objective_and_gradient(design, labels, weights,
                                                 regularization)
    if not math.isfinite(objective):
        raise DivergedLoss(f"objective is {objective!r} at the start of training")
    iterations = 0
    step = FIRST_STEP
    for iterations in range(1, MAX_ITERATIONS + 1):
        grad_norm = float(np.max(np.abs(gradient))) if gradient.size else 0.0
        if grad_norm < TOLERANCE:
            iterations -= 1
            break
        trial = step
        improved = False
        while trial >= 1e-12:
            candidate = weights + trial * gradient
            cand_obj, cand_grad = objective_and_gradient(design, labels,
                                                         candidate,
                                                         regularization)
            if math.isnan(cand_obj):
                raise DivergedLoss("objective became non-finite during training")
            if cand_obj > objective:
                s, y = candidate - weights, gradient - cand_grad
                sy = float(s @ y)
                step = float(s @ s) / sy if sy > 0.0 else FIRST_STEP
                weights, objective, gradient = candidate, cand_obj, cand_grad
                improved = True
                break
            trial /= 2.0
        if not improved:
            break
    grad_norm = float(np.max(np.abs(gradient))) if gradient.size else 0.0
    packed = {name: float(w) for name, w in zip(names, weights) if w != 0.0}
    model = CorrespondenceModel(domain=space.domain, weights=packed,
                                regularization=regularization)
    return TrainResult(model=model, iterations=iterations, objective=objective,
                       grad_norm=grad_norm, converged=grad_norm < TOLERANCE)


# ---------------------------------------------------------------------------
# Serialization

def save_model(model: CorrespondenceModel, path) -> None:
    doc = {
        "schema": MODEL_SCHEMA,
        "domain": model.domain,
        "regularization": model.regularization,
        "weights": {name: model.weights[name] for name in sorted(model.weights)},
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path) -> CorrespondenceModel:
    try:
        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != MODEL_SCHEMA:
            raise UnknownSchemaVersion(doc.get("schema"), MODEL_SCHEMA)
        weights = {str(k): float(v) for k, v in doc["weights"].items()}
        return CorrespondenceModel(domain=str(doc["domain"]), weights=weights,
                                   regularization=float(doc["regularization"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed model file {path}: {exc!r}") from exc
