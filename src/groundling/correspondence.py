"""Log-linear correspondence models between parse phrases and symbols.

Each (phrase, symbol) pair carries a boolean correspondence variable whose
probability is a logistic function of sparse binary features.  Every
feature template crosses a phrase-side key (a word, the category, a
resolved child's variant or attributes, the world digest) with a
symbol-side key: the symbol's variant, one of its attribute pairs, or a
(variant, pair) cell.  A model is therefore compiled once against a
space's layout: each phrase-side token (``bias``, ``cat=``, ``w=``,
``cv=``, ``cmatch``, ``dig`` and ``ceq``) gets one weight vector over the
keys.  A phrase adds its few token vectors into key weights and sums
them once per row of the ``SymbolSpace`` (a constraint symbol, or a
signature shared by instance symbols, which fire no ``ceq`` and so score
alike) with one ``bincount``.  ``infer`` is the one place a phrase is
scored, and it keeps the logits as rows, never gathered to the symbols.

What a phrase fires is known before any scoring.  A phrase's own tokens
are ``grammar.feature_tokens``; a run's parse tree keeps them
(``ParseTree.feature_tokens``), so the three models of a run share them,
and training makes them once per distinct phrase.  What a resolved child
fires (its ``cv=`` variant, its ``cmatch`` cells and its ``ceq`` key) is
held by the domain's ``symbols.Layout``, the one object that numbers the
keys and makes every space of the domain, a run's grounding space
included; children are passed up as ordinals into it, so inference makes
no symbol and reads no symbol property.  ``infer`` and
``assemble_design`` read the layout the same way, and ``_features`` is
the one table of feature names.

Inference walks the tree bottom-up: every variable is thresholded at one
half given the already-resolved assignments of the phrase's children, by
one rule, a row logit of at least ``_HALF``.  An ``Assignment`` is the
walk's row logits and its space, and the rest is read off them:
``Assignment.factor_evals`` still counts one factor per phrase-symbol
pair, the number of logits scored, and no probability is made.
Inference only scores: picking the navigation target the root-true
constraints imply is a second step, ``resolve_action``, that the caller
takes.  Training fits the factor weights by penalized maximum likelihood
with gold child assignments (teacher forcing).  Its design has one row
per (phrase, symbol) pair, but ``assemble_design`` builds only the
distinct rows, each with its count, and the fit weights each row by its
count.  ``train`` climbs the likelihood by limited-memory BFGS (L-BFGS)
with a backtracking line search, written on numpy: importing
``scipy.optimize`` would add about 19 MB to the peak memory of every
process that imports this module.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
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
    UnknownSchemaVersion,
    number,
    reading,
    typed,
)
from .grammar import ParseTree
from .symbols import GroundingSymbol, Layout, SymbolSpace, action_instance
from .world import DetectedObject, planar_distance

MODEL_SCHEMA = 1
DEFAULT_REGULARIZATION = 1e-4
# Training stops at this gradient max-norm, or after this many iterations.
# L-BFGS keeps the last HISTORY (s, y) pairs, and a step is accepted when
# it gains at least ARMIJO times the gain the slope predicts.
TOLERANCE = 1e-5
MAX_ITERATIONS = 1000
HISTORY = 10
ARMIJO = 1e-4
# The smallest double whose expit exceeds one half: for every double z,
# the infinities and NaN included, expit(z) > 0.5 exactly when z >= _HALF.
_HALF = float.fromhex("0x1.8000000000001p-53")


def _features(layout: Layout, token: str) -> list[tuple[int, str]]:
    """The keys a phrase-side token fires at, and its feature name at each.

    This is the one place the feature templates are spelled.  A token
    fires at each variant key ``v`` as ``token|v=v``; a word ``w=word``
    also fires at each pair key ``(k, x)`` as ``w=word|a=k=x``, without the
    variant, so that weights learned on type-level symbols transfer to
    instance symbols sharing the attribute.  The tokens ``cmatch`` and
    ``dig`` fire at each cell ``((k, x), v)`` as ``cmatch|k|v=v`` instead,
    though a phrase fires them only at the cells of its children's pairs
    and of the world digest's.  ``ceq`` is a row's feature, not a key's:
    it is named at the variant key of the child it repeats.
    """
    if token in ("cmatch", "dig"):
        return [(k, f"{token}|{pair[0]}|v={v}")
                for pair, cells in layout.cells.items() for k, v in cells]
    fired = [(k, f"{token}|v={v}") for k, v in layout.variants]
    if token.startswith("w="):
        fired += [(k, f"{token}|a={a}={x}") for k, (a, x) in layout.pairs]
    return fired


class _Compiled(dict):
    """One model's weights laid out over one layout's keys and constraints.

    ``self[t]`` is phrase-side token ``t``'s weight vector over the keys:
    the weight of its feature at each key it fires at (``_features``),
    zero elsewhere, made on first use from ``weights.get`` only.  Per
    constraint ``c`` of the layout, ``cmatch[c]`` holds the ``cmatch``
    weights of its cells, zero elsewhere, and ``ceq[c]`` is the ``ceq``
    weight that row ``c`` adds when it repeats ``c``.

    Over a stacked layout (``Layout.stack``) of a ``StackedModel``, each
    part's block of the keys holds what its own model compiles over its
    own layout, so a token's vector is the parts' vectors side by side.
    A child's ``cv=`` token fires only in the block of its domain, and is
    zero in the others; a ``cmatch`` vector and a ``ceq`` weight are a
    constraint's, so they stay in its block too.
    """

    def __init__(self, model, layout: Layout):
        super().__init__()
        self.layout = layout
        self.blocks = [(part.weights.get, part_layout, keys)
                       for part, (part_layout, keys, _) in zip(model.parts, layout.parts)]
        self.dig, cmatch, ceq = self["dig"], self["cmatch"], self["ceq"]
        self.cmatch = [np.zeros(len(cmatch)) for _ in layout.cmatch_cells]
        for vector, cells in zip(self.cmatch, layout.cmatch_cells):
            vector[list(cells)] = cmatch[list(cells)]
        self.ceq = ceq[[keys[0] for keys in layout.constraint_keys]].tolist()

    def __missing__(self, token: str) -> np.ndarray:
        vector = self[token] = np.zeros(len(self.layout.names))
        for get, part_layout, keys in self.blocks:
            if token.startswith("cv=") and token not in part_layout.cv:
                continue
            block = vector[keys]
            for k, name in _features(part_layout, token):
                block[k] = get(name, 0.0)
        return vector


def _finite(logits: np.ndarray, space: SymbolSpace) -> np.ndarray:
    """``logits``, row logits over ``space``, one row per phrase.

    The first non-finite logit, in phrase order and then in symbol order,
    raises ``NonFiniteScore`` naming its symbol; only then are the rows
    gathered to the symbols.  Over a stacked space each part's symbols are
    checked in turn, every phrase of one part before the next part's, as
    separate inference in each part's space would check them.
    """
    if not np.isfinite(logits).all():
        z = logits[..., space.row_of]
        for _, _, columns in space.layout.parts:
            block = z[..., columns]
            finite = np.isfinite(block)
            if not finite.all():
                at = np.unravel_index(np.argmin(finite), block.shape)
                symbol = space[columns.start + int(at[-1])]
                raise NonFiniteScore(f"factor score for {symbol.canon} is {block[at]!r}")
    return logits


@dataclass(frozen=True, eq=False)
class CorrespondenceModel:
    """Feature weights for one symbol domain.

    ``weights`` is any mapping-like object with ``get(name, default)``.
    Inference reads them once per symbol ``Layout`` and keeps them
    compiled against it, so they must not change after the first
    inference.
    """

    domain: str
    weights: dict[str, float]
    regularization: float = DEFAULT_REGULARIZATION
    _compiled: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False)

    @property
    def parts(self) -> tuple[CorrespondenceModel]:
        return (self,)


@dataclass(frozen=True, eq=False)
class StackedModel:
    """Several domains' models, scored in one walk of a parse tree.

    Its domain is the parts' domains joined by ``+``, that of their
    layouts' stack (``Layout.stack``), and ``infer`` over a stacked space
    scores each part with its own model's weights, compiled once per
    stacked layout; ``Assignment.parts`` splits the result.
    """

    parts: tuple[CorrespondenceModel, ...]
    _compiled: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False)

    @property
    def domain(self) -> str:
        return "+".join(part.domain for part in self.parts)


@dataclass(eq=False)
class Assignment:
    """Thresholded correspondence variables for one parse tree.

    ``logits[i, r]`` is the logit of row ``r`` of ``space`` at phrase
    ``i`` (post-order, root last), as inference scored it: the symbols of
    one row share it.  Everything else is read off the two.  A symbol is
    true at a phrase where its row's logit is at least ``_HALF``, the rule
    inference passes children up by, so ``trues[i]`` holds exactly the
    symbols whose probability at phrase ``i`` exceeds one half; the sets
    are made on first read, so inference never hashes the instance symbols
    it scores.  A run reads only ``root_constraints``.
    """

    logits: np.ndarray
    space: SymbolSpace

    @property
    def factor_evals(self) -> int:
        """One factor per phrase-symbol pair, the number of logits scored."""
        return len(self.logits) * len(self.space)

    @cached_property
    def trues(self) -> tuple[frozenset, ...]:
        true = (self.logits >= _HALF)[:, self.space.row_of]
        return tuple(frozenset(map(self.space.__getitem__, row.nonzero()[0].tolist()))
                     for row in true)

    def root_constraints(self) -> frozenset:
        """The constraint symbols true at the root, the space's leading
        rows, read from its layout: no instance symbol, nor the space's
        symbol list, is made."""
        constraints = self.space.layout.constraints
        leading = self.logits[-1, :len(constraints)] >= _HALF
        return frozenset(map(constraints.__getitem__, leading.nonzero()[0].tolist()))

    def true_sets(self) -> dict[int, frozenset]:
        return dict(enumerate(self.trues))

    def parts(self) -> tuple[Assignment, ...]:
        """One assignment per part of a stacked space (``Layout.stack``):
        the part's rows, which are its constraint symbols, over the part's
        own constraint space, as inference in that space alone makes it.
        An assignment over a layout that is no stack is its own one part."""
        layout = self.space.layout
        if layout.parts[0][0] is layout:
            return (self,)
        return tuple(Assignment(self.logits[:, columns], part.constraint_space)
                     for part, _, columns in layout.parts)


def resolve_action(root_trues, world) -> tuple[GroundingSymbol, DetectedObject]:
    """Pick the navigation target implied by root-true constraint symbols.

    The world's objects are filtered by every class / color / region
    constraint that holds at the root, one test per distinct signature
    (``WorldModel.signatures``) gathered to the objects by their codes.
    The relation then selects among the survivors by planar distance from
    the world's robot pose, ties broken by object id.  A missing relation
    is only acceptable when a single candidate survives the filters.  Only
    the candidates at the target's distance are named, and only the
    target is made a ``DetectedObject``.
    """
    classes, colors, regions, relations = set(), set(), set(), set()
    by_variant = {"objtype": classes, "color": colors, "region": regions, "rel": relations}
    for s in root_trues:
        values = by_variant.get(s.variant)
        if values is not None:
            values.add(s.value)
    relations = sorted(relations)
    signatures, codes = world.signatures
    match = [(not classes or cls in classes) and (not colors or color in colors)
             and (not regions or region in regions)
             for cls, color, region in signatures]
    candidates = np.array(match, dtype=bool)[codes].nonzero()[0]
    if not len(candidates):
        raise NoTargetObject(
            "no object satisfies"
            f" classes={sorted(classes)} colors={sorted(colors)}"
            f" regions={sorted(regions)}"
        )
    if len(relations) > 1:
        raise AmbiguousRelation(f"conflicting relations {relations} hold at the root")
    rows = candidates.tolist()
    if len(rows) > 1 and not relations:
        raise AmbiguousRelation(
            f"{len(rows)} candidate objects and no relation to rank them"
        )
    if len(rows) > 1:
        distance = [planar_distance(pose, world.robot_pose)
                    for pose in zip(*world.pose[:2].take(candidates, axis=1).tolist())]
        if relations[0] != "nearest":
            distance = [-d for d in distance]
        # A NaN distance, from a non-finite position, ranks last.
        best = min((d for d in distance if d == d), default=None)
        rows = [row for d, row in zip(distance, rows) if d == best or best is None]
    target, name = rows[0], None
    if len(rows) > 1:
        name, target = min((world.id(row), row) for row in rows)
    target = world.object(target, name)
    return action_instance(target), target


def infer(model: CorrespondenceModel | StackedModel, tree: ParseTree,
          space: SymbolSpace, digest: frozenset = frozenset()) -> Assignment:
    """Greedy bottom-up inference: threshold each factor given its children.

    Each phrase scores every row of the space at once, and the
    ``Assignment`` keeps those row logits: none is copied out to the
    symbols of its row, and no probability is made.  A symbol is true
    where its row's logit is at least ``_HALF``, which is where
    ``expit(z) > 0.5``: a phrase's true constraints are found by that
    comparison.  ``digest`` is the world's set of (key, value) attribute
    pairs (``WorldModel.digest``).  Object and action instance symbols are
    scored like the others, so the world's size is what reaches inference
    cost (``Assignment.factor_evals``), even though nothing reads them: the
    navigation target comes from ``resolve_action`` on the root-true
    constraints.  Only the true constraints, the space's leading rows, are
    passed up to a parent, as ordinals into the space's layout, since
    instances among the children fire no feature; no symbol is made.  A
    phrase with one child passes that child's list on as it is, and the
    root's rows, which no phrase reads, are not thresholded.  The
    post-order is the one the parser numbered the phrases in, and the
    phrases' tokens (``bias`` and ``cat=`` first,
    ``grammar.feature_tokens``) are made once per tree for the three
    models of a run.

    This is the one place a phrase is scored.  The walk binds its
    constants once: the model's weights compiled against the space's
    layout, the digest's ``dig`` vector and the space's entries.  Without
    a digest, as in the semantic and perception spaces, no cell has a
    ``dig`` weight to add, and there is no ``dig`` vector.  A phrase's
    key weights then add, in
    this order, the vectors of its own tokens, of ``cv=`` for each
    distinct variant among its children (``Layout.child_tokens``), the
    ``dig`` weights of the digest's cells, and each child's ``cmatch``
    weights; no other token fires at a cell, and no two constraints share
    a cell (``Layout``).  Each key thus gets its terms in one fixed order,
    the tokens' and then, at a cell, two terms that commute, so every
    logit is bit-equal to the sum of its features' weights in that order.
    Each row then sums its keys' weights once, gathered with ``take``, and
    row ``c`` adds the ``ceq`` weight of child ``c``, which it repeats.
    Every logit is checked once, after the last phrase: the first
    non-finite one, in phrase order, raises ``NonFiniteScore``.

    A ``StackedModel`` over a stacked space (``Layout.stack``) scores
    several domains in this one walk: each key gets its own domain's
    terms in the order a walk of that domain alone adds them, and exact
    zeros from the other domains' tokens and children, so every logit
    has the bits of the separate walks, and ``Assignment.parts`` gives
    their assignments.  Each part's logits are checked for finiteness
    before the next part's.
    """
    if model.domain != space.domain:
        raise CorpusDomainMismatch(
            f"model domain {model.domain!r} does not match space {space.domain!r}"
        )
    layout = space.layout
    compiled = model._compiled.get(layout)
    if compiled is None:
        compiled = model._compiled[layout] = _Compiled(model, layout)
    dig = np.where(layout.cells_of(digest), compiled.dig, 0.0) if digest else None
    cmatch, ceq = compiled.cmatch, compiled.ceq
    entry_row, entry_key = space.entry_row, space.entry_key
    phrases = tree.phrases()
    constraints = len(layout.constraints)
    logits = np.empty((len(phrases), space.rows))
    root = len(phrases) - 1
    kids: list = [None] * root
    for phrase, own in zip(phrases, tree.feature_tokens):
        children = phrase.children
        if not children:
            below = []
        elif len(children) == 1:
            below = kids[children[0].index]
        else:
            below = sorted(set().union(*[kids[child.index] for child in children]))
        key_weights = compiled[own[0]] + compiled[own[1]]
        for token in own[2:]:
            key_weights += compiled[token]
        if below:
            for token in layout.child_tokens(below):
                key_weights += compiled[token]
        if dig is not None:
            key_weights += dig
        for c in below:
            key_weights += cmatch[c]
        rows = np.bincount(entry_row, weights=key_weights.take(entry_key),
                           minlength=space.rows)
        for c in below:
            rows[c] += ceq[c]
        i = phrase.index
        logits[i] = rows
        if i < root:
            kids[i] = (rows[:constraints] >= _HALF).nonzero()[0].tolist()
    return Assignment(_finite(logits, space), space)


# ---------------------------------------------------------------------------
# Training

@dataclass(frozen=True)
class TrainingExample:
    """One tree with gold true-symbol canons per phrase index."""

    tree: ParseTree
    gold: tuple[frozenset, ...]
    digest: frozenset = frozenset()


def _row_arrays(space: SymbolSpace) -> tuple:
    """What a row's columns read of the row, as arrays over the rows.

    Returns ``(classes, token_keys, cell_keys)``.  ``token_keys[r]`` are
    row ``r``'s variant key, where every phrase token fires, and then its
    pair keys, where a word also fires.  So a row of a phrase with a word
    is told from the space's other rows by its variant and pair keys,
    numbered by ``classes[1]``, and one without by its variant alone,
    numbered by ``classes[0]``.  ``cell_keys[r, a]`` is the key of row
    ``r``'s cell of the ``a``-th attribute name: ``cmatch`` and ``dig``
    name one column per (attribute name, variant), whatever the value.
    Missing keys are ``len(layout.names)``.
    """
    layout = space.layout
    variants, pad = dict(layout.variants), len(layout.names)
    is_cell = layout.cells_of(layout.cells)
    slots: dict[str, int] = {}
    by_variant: dict[int, int] = {}
    by_keys: dict[tuple, int] = {}
    classes, token_keys, cells = [], [], []
    for keys in space.row_keys:
        (variant,) = (k for k in keys if k in variants)
        pairs = sorted(k for k in keys if k != variant and not is_cell[k])
        classes.append((by_variant.setdefault(variant, len(by_variant)),
                        by_keys.setdefault((variant, *pairs), len(by_keys))))
        token_keys.append([variant, *pairs])
        cells.append({slots.setdefault(layout.names[k][0][0], len(slots)): k
                      for k in keys if is_cell[k]})
    width = max(map(len, token_keys))
    cell_keys = np.full((len(cells), len(slots)), pad, dtype=np.intp)
    for r, row in enumerate(cells):
        for a, k in row.items():
            cell_keys[r, a] = k
    return (np.array(classes, dtype=np.int64).T,
            np.array([keys + [pad] * (width - len(keys)) for keys in token_keys],
                     dtype=np.intp),
            cell_keys)


def assemble_design(space: SymbolSpace, examples) -> tuple:
    """Build the distinct rows of a training set's design, with their counts.

    The design has one row per (phrase, symbol) pair, in phrase order,
    holding the features whose weights ``infer`` sums for it, and
    labelled 1 where the symbol is gold at the phrase; child conditioning
    uses the gold assignments, read from the space's layout as inference
    reads them.  Only its distinct (column set, label) rows are built, in
    the order they first occur, each with how often it occurs.

    A row's column set depends on four things only: the phrase's token
    set (``Layout.tokens``), the row, which of the row's cells fire
    ``cmatch`` (a child's cell) or ``dig`` (the digest's), and whether the
    row repeats a child (``ceq``).  Each (distinct phrase, row) packs them
    into one int64 code, the row read as ``_row_arrays`` classes it, so
    that two codes are equal exactly when the column sets are; with the
    label in the low bit, one ``np.unique`` over the (phrase, symbol)
    pairs finds the distinct rows and their counts.  Only the distinct
    rows get their columns, gathered from each token's key-to-column
    array and sorted.  A column is a feature name, named by ``_features``,
    and numbered by sorted name among the names some row has: a layout
    also numbers the keys of instances that a space may not hold.
    Returns ``(matrix, labels, counts, feature_names)``.
    """
    position, layout = space.position, space.layout
    classes, token_keys, cell_keys = _row_arrays(space)
    # Each distinct phrase, numbered as first seen: its token set's number,
    # its digest's, and its children's true constraints as (phrase, kid).
    distinct: dict[tuple, int] = {}
    token_sets: dict[tuple, int] = {}
    digests: dict[frozenset, int] = {}
    phrase_tokens: list[int] = []
    phrase_digest: list[int] = []
    kid_phrase: list[int] = []
    kids: list[int] = []
    occurrences: list[int] = []  # the distinct phrase of each phrase
    trues: list[int] = []  # the (phrase, symbol) pairs labelled 1
    for example in examples:
        phrases = example.tree.phrases()
        if len(example.gold) != len(phrases):
            raise CorpusDomainMismatch("gold annotation does not cover every phrase")
        outside = frozenset().union(*example.gold) - position.keys()
        if outside:
            raise CorpusDomainMismatch(
                f"gold symbol {min(outside)!r} is outside the {space.domain!r} space")
        for phrase, own in zip(phrases, example.tree.feature_tokens):
            children = frozenset(c for child in phrase.children
                                 for c in example.gold[child.index])
            seen = (phrase.category, phrase.words, children, example.digest)
            p = distinct.get(seen)
            if p is None:
                p = distinct[seen] = len(distinct)
                # Instances among the children fire nothing.
                ordinals = [layout.ordinal[c] for c in children if c in layout.ordinal]
                tokens = tuple(sorted(layout.tokens(own, ordinals)))
                phrase_tokens.append(token_sets.setdefault(tokens, len(token_sets)))
                phrase_digest.append(digests.setdefault(example.digest, len(digests)))
                kid_phrase += [p] * len(ordinals)
                kids += ordinals
            offset = len(occurrences) * len(position)
            trues.extend(offset + position[c] for c in example.gold[phrase.index])
            occurrences.append(p)
    # Each token's column at each key it fires at, -1 elsewhere: columns
    # are first numbered by sorted name among every name of every token,
    # and the last row, for no token, and last column, for no key, are -1.
    vocabulary = sorted({t for tokens in token_sets for t in tokens})
    vocabulary += ("cmatch", "dig", "ceq")
    fired = [(t, k, name) for t, token in enumerate(vocabulary)
             for k, name in _features(layout, token)]
    candidates = sorted({name for _, _, name in fired})
    numbered = {name: n for n, name in enumerate(candidates)}
    column = np.full((len(vocabulary) + 1, len(layout.names) + 1), -1, dtype=np.int32)
    t, k, name = zip(*fired)
    column[t, k] = [numbered[n] for n in name]
    cmatch_column, dig_column, ceq_column = column[-4:-1]
    by_set = np.full((len(token_sets), max(map(len, token_sets), default=0)),
                     len(vocabulary), dtype=np.intp)
    rank = {token: t for t, token in enumerate(vocabulary)}
    for s, tokens in enumerate(token_sets):
        by_set[s, :len(tokens)] = [rank[token] for token in tokens]
    has_word = np.array([any(t.startswith("w=") for t in tokens) for tokens in token_sets],
                        dtype=bool)
    # Each distinct phrase's code at each row: its token set, the row's
    # class, then two bits per attribute name (cmatch, dig) and ceq.
    n_phrases, n_keys = len(phrase_tokens), len(layout.names)
    tokens_of = np.array(phrase_tokens, dtype=np.int64)
    ceq = np.zeros((n_phrases, space.rows), dtype=np.int64)
    ceq[kid_phrase, kids] = 1
    cmatch = np.zeros((n_phrases, n_keys + 1), dtype=np.int64)
    width = max(map(len, layout.cmatch_cells), default=0)
    cmatch_cells = np.array([[*keys, *[n_keys] * (width - len(keys))]
                             for keys in layout.cmatch_cells], dtype=np.intp)
    cmatch[np.array(kid_phrase, dtype=np.intp)[:, None], cmatch_cells[kids]] = 1
    cmatch[:, n_keys] = 0
    dig = np.zeros((len(digests), n_keys + 1), dtype=np.int64)
    for digest, d in digests.items():
        dig[d, :n_keys] = layout.cells_of(digest)
    dig = dig[np.array(phrase_digest, dtype=np.intp)]
    row_class = np.where(has_word[tokens_of][:, None], classes[1], classes[0])
    codes = tokens_of[:, None] * (classes[1].max() + 1) + row_class
    for keys in cell_keys.T:
        codes = (codes << 2) | (cmatch[:, keys] << 1) | dig[:, keys]
    codes = (codes << 1) | ceq
    # A (phrase, symbol) pair is its code and its label, in the low bit;
    # the distinct pairs, in the order they first occur, are the rows.
    occurrences = np.array(occurrences, dtype=np.intp)
    pairs = (codes[:, space.row_of][occurrences] << 1).ravel()
    pairs[trues] |= 1
    pairs, first, counts = np.unique(pairs, return_index=True, return_counts=True)
    ranked = np.argsort(first)
    pairs, counts = pairs[ranked], counts[ranked]
    at, symbol = np.divmod(first[ranked], len(position))
    p = occurrences[at]
    r = space.row_of[symbol]
    # Each distinct row's columns: its tokens' at its variant and pair
    # keys, cmatch's and dig's at its cells where they fire, and ceq's.
    keys, cells = token_keys[r], cell_keys[r]
    columns = np.concatenate((
        column[by_set[tokens_of[p]][:, :, None], keys[:, None, :]]
        .reshape(len(r), by_set.shape[1] * keys.shape[1]),
        np.where(cmatch[p[:, None], cells], cmatch_column[cells], -1),
        np.where(dig[p[:, None], cells], dig_column[cells], -1),
        np.where(ceq[p, r], ceq_column[keys[:, 0]], -1)[:, None]), axis=1)
    columns.sort(axis=1)
    kept = columns >= 0
    indices = columns[kept]
    # Renumber the columns among the names some row has.
    used = np.zeros(len(candidates), dtype=bool)
    used[indices] = True
    renumber = np.cumsum(used, dtype=np.int32) - 1
    names = tuple(itertools.compress(candidates, used))
    matrix = sparse.csr_matrix(
        (np.ones(len(indices)), renumber[indices],
         np.concatenate(([0], np.cumsum(kept.sum(axis=1), dtype=np.int64)))),
        shape=(len(r), len(names)),
    )
    return matrix, (pairs & 1).astype(np.float64), counts, names


def objective_and_gradient(design, labels, weights, regularization, counts=1,
                           transposed=None):
    """Penalized log-likelihood of the label vector and its gradient.

    ``counts[i]`` is how many times row ``i`` occurs in the training set,
    one for every row by default.  ``transposed`` is ``design.T`` as CSR,
    which ``train`` makes once per fit; its product is ``design.T``'s, bit
    for bit, and faster.  Without it the gradient multiplies by
    ``design.T``.
    """
    if transposed is None:
        transposed = design.T
    logits = design @ weights
    signs = np.where(labels > 0.5, 1.0, -1.0)
    objective = float(np.sum(counts * log_expit(signs * logits)))
    objective -= regularization * float(weights @ weights)
    gradient = (transposed @ (counts * (labels - expit(logits)))
                - 2.0 * regularization * weights)
    return objective, gradient


@dataclass(frozen=True, eq=False)
class TrainResult:
    model: CorrespondenceModel
    iterations: int
    objective: float
    grad_norm: float
    converged: bool


def _direction(gradient: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS ascent direction: ``gradient`` times the inverse-Hessian
    estimate of the (s, y, 1 / s.y) ``pairs``, oldest first, by the
    two-loop recursion, with the initial scale ``s.y / y.y`` of the newest
    pair.  With no pair, it is the gradient scaled to at most unit length.
    """
    if not pairs:
        return gradient / max(1.0, float(np.linalg.norm(gradient)))
    direction = gradient.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ direction)
        direction -= alpha * y
        alphas.append(alpha)
    _, y, rho = pairs[-1]
    direction /= rho * float(y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        direction += (alpha - rho * float(y @ direction)) * s
    return direction


def train(space: SymbolSpace, examples,
          regularization: float = DEFAULT_REGULARIZATION) -> TrainResult:
    """Fit factor weights by full-batch limited-memory BFGS (L-BFGS) ascent.

    Each iteration moves along ``_direction``, the gradient scaled by an
    inverse-Hessian estimate built from the last ``HISTORY`` accepted moves
    (``s`` the change in weights, ``y`` the fall in gradient); a move with
    ``s.y <= 0``, which a strictly concave objective never makes, is not
    kept.  The line search starts from a unit step and halves it until the
    Armijo test ``f(w + t d) >= f(w) + ARMIJO t (g.d)`` holds.  Training
    stops, converged, when the gradient's max-norm falls under
    ``TOLERANCE``; it stops unconverged when the step underflows or after
    ``MAX_ITERATIONS``.  A non-finite objective raises ``DivergedLoss``.

    A row that repeats adds the same term to the likelihood each time, so
    the fit runs on the design's distinct rows, each weighted by its count,
    as ``assemble_design`` builds them; the full design is never built.
    A negative or non-finite ``regularization`` raises ``InvalidSpec``.
    """
    number(regularization, "regularization", 0)
    design, labels, counts, names = assemble_design(space, examples)
    # The transpose is made once and passed positionally, so that a
    # wrapper taking only ``*args`` passes it on.
    transposed = design.T.tocsr()
    weights = np.zeros(design.shape[1])
    objective, gradient = objective_and_gradient(design, labels, weights,
                                                 regularization, counts, transposed)
    if not math.isfinite(objective):
        raise DivergedLoss(f"objective is {objective!r} at the start of training")
    iterations = 0
    pairs = deque(maxlen=HISTORY)
    for iterations in range(1, MAX_ITERATIONS + 1):
        grad_norm = float(np.max(np.abs(gradient))) if gradient.size else 0.0
        if grad_norm < TOLERANCE:
            iterations -= 1
            break
        direction = _direction(gradient, pairs)
        slope = ARMIJO * float(gradient @ direction)
        trial = 1.0
        while trial >= 1e-12:
            candidate = weights + trial * direction
            cand_obj, cand_grad = objective_and_gradient(
                design, labels, candidate, regularization, counts, transposed)
            if math.isnan(cand_obj):
                raise DivergedLoss("objective became non-finite during training")
            if cand_obj >= objective + trial * slope:
                s, y = candidate - weights, gradient - cand_grad
                sy = float(s @ y)
                if sy > 0.0:
                    pairs.append((s, y, 1.0 / sy))
                weights, objective, gradient = candidate, cand_obj, cand_grad
                break
            trial /= 2.0
        else:  # the step underflowed without passing the test
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


def load_model(path, domain: str | None = None) -> CorrespondenceModel:
    """Read a model file: finite weights whose absolute values have a
    finite sum, which bounds every logit; a finite ``regularization`` >=
    0; and the given ``domain``, if one is given."""
    with reading(path, "model file"):
        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != MODEL_SCHEMA:
            raise UnknownSchemaVersion(doc.get("schema"), MODEL_SCHEMA)
        if domain not in (None, doc["domain"]):
            raise InvalidSpec(f"domain {doc['domain']!r} is not {domain!r}")
        weights = {k: float(number(w, f"weight {k}")) for k, w in doc["weights"].items()}
        if not math.isfinite(sum(map(abs, weights.values()))):
            raise InvalidSpec("the absolute weights do not sum to a finite number")
        return CorrespondenceModel(
            domain=typed(doc["domain"], (str,), "domain"), weights=weights,
            regularization=float(number(doc["regularization"], "regularization", 0)))
