"""Reference implementations that the tests compare the package against.

Each one is the plain, slow way to compute what the package computes
fast: a per-factor feature dictionary, inference by enumerating every
joint assignment of a phrase, and merge clustering by comparing every
pair of points.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_expit

from groundling.correspondence import (
    INSTANCE_VARIANTS,
    Assignment,
    CorrespondenceModel,
    phrase_logits,
)
from groundling.errors import CorpusDomainMismatch, GroundlingError
from groundling.grammar import ParseTree, Phrase
from groundling.symbols import SymbolSpace
from groundling.world import MERGE_RADIUS, WorldDigest

ENUMERATION_LIMIT = 20
_CHUNK_ROWS = 1 << 16


class TooLarge(GroundlingError):
    """Exhaustive enumeration was requested for an instance above the guard."""


def extract_features(phrase: Phrase, symbol, child_trues=(),
                     digest: WorldDigest | None = None) -> dict[str, float]:
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
        z = phrase_logits(model, phrase, space, child_trues, digest)
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
    return Assignment(domain=model.domain, trues=tuple(trues), factor_evals=evals)


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
