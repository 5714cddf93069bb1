"""Command grammar: tokenizer, chart parser, and tree serialization.

The grammar is a small closed-lexicon CFG over navigation commands:

    VP -> verb PP
    PP -> prep NP [PP]
    NP -> det [superlative] [color] noun

Nouns cover the registered object classes plus the scene-label surface
forms (including the two-word compound "parking lot").  A trailing
locative PP ("in the <region>") attaches as a second child of the inner
NP's parent PP.  Parsing is deterministic: among complete parses the one
with the fewest phrases wins, ties broken by preferring deeper right
attachment.

Phrases are indexed densely in post-order, so the root always carries the
highest index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

from .errors import EmptyInstruction, MalformedTree, OutOfGrammar
from .symbols import ClassifierRegistry, REGION_SURFACE_FORMS, default_registry

VERBS = ("drive", "go", "navigate", "walk")
PREPOSITIONS = ("in", "to")
DETERMINERS = ("the",)
SUPERLATIVES = ("closest", "farthest", "nearest")

PHRASE_CATEGORIES = ("VP", "PP", "NP")

_PUNCT = re.compile(r"[^\w\s]")


@dataclass(frozen=True)
class Token:
    text: str
    position: int


@dataclass(frozen=True)
class Phrase:
    """One node of a parse tree.

    ``tokens`` are the words this phrase owns directly (not those of its
    children); ``index`` is the phrase's dense post-order position.
    """

    category: str
    tokens: tuple[Token, ...]
    children: tuple["Phrase", ...]
    index: int

    def words(self) -> tuple[str, ...]:
        return tuple(t.text for t in self.tokens)


@dataclass(frozen=True)
class ParseTree:
    root: Phrase
    source_text: str

    def phrases(self) -> tuple[Phrase, ...]:
        """All phrases in post-order; position in the tuple equals .index."""
        out: list[Phrase] = []

        def walk(p: Phrase):
            for c in p.children:
                walk(c)
            out.append(p)

        walk(self.root)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.phrases())


def tokenize(text: str) -> tuple[Token, ...]:
    """Lowercase, strip punctuation, split on whitespace.

    Raises EmptyInstruction when nothing is left.
    """
    cleaned = _PUNCT.sub(" ", text.lower())
    words = cleaned.split()
    if not words:
        raise EmptyInstruction("instruction contains no tokens")
    return tuple(Token(w, i) for i, w in enumerate(words))


class Grammar:
    """Chart parser over the fixed command grammar for one registry's lexicon."""

    def __init__(self, registry: ClassifierRegistry | None = None):
        registry = registry or default_registry()
        self.registry = registry
        # word -> preterminal categories
        lex: dict[str, set[str]] = {}

        def add(word: str, cat: str):
            lex.setdefault(word, set()).add(cat)

        for w in VERBS:
            add(w, "V")
        for w in PREPOSITIONS:
            add(w, "P")
        for w in DETERMINERS:
            add(w, "DET")
        for w in SUPERLATIVES:
            add(w, "SUP")
        for w in registry.colors:
            add(w, "COLOR")
        for w in registry.object_classes:
            add(w, "NOUN")
        self.compounds: set[tuple[str, str]] = set()
        for forms in REGION_SURFACE_FORMS.values():
            for form in forms:
                if len(form) == 1:
                    add(form[0], "NOUN")
                elif len(form) == 2:
                    self.compounds.add(form)
                    for w in form:
                        add(w, "CPART")  # only derivable inside the compound
                else:
                    raise ValueError("region surface forms are at most two words")
        self.lexicon = lex

    # Binarized rules: parent <- left right.  N1/N2/PNP are internal
    # categories collapsed away when phrases are extracted.
    _BINARY = (
        ("VP", "V", "PP"),
        ("PP", "P", "NP"),
        ("PP", "P", "PNP"),
        ("PNP", "NP", "PP"),
        ("NP", "DET", "N1"),
        ("N1", "SUP", "N2"),
        ("N1", "COLOR", "NOUN"),
        ("N2", "COLOR", "NOUN"),
    )
    _UNARY = (("N1", "NOUN"), ("N2", "NOUN"))
    # Categories that count as one phrase when comparing parses.
    _PHRASAL = frozenset(PHRASE_CATEGORIES)

    def parse(self, tokens: tuple[Token, ...]) -> ParseTree:
        """CKY chart parse; deterministic tie-breaking as documented above."""
        if not tokens:
            raise EmptyInstruction("no tokens to parse")
        n = len(tokens)
        words = [t.text for t in tokens]
        for t in tokens:
            if t.text not in self.lexicon:
                raise OutOfGrammar(t.text)

        # chart[(i, j)][cat] = (cost, backpointer); cost = (#phrases, -split)
        chart: dict[tuple[int, int], dict[str, tuple]] = {}

        def put(i, j, cat, cost, back):
            cell = chart.setdefault((i, j), {})
            if cat not in cell or cost < cell[cat][0]:
                cell[cat] = (cost, back)
                return True
            return False

        def close_unary(i, j):
            changed = True
            while changed:
                changed = False
                cell = chart.get((i, j), {})
                for parent, child in self._UNARY:
                    if child in cell:
                        cost, _ = cell[child]
                        if put(i, j, parent, cost, ("unary", child)):
                            changed = True

        for i, t in enumerate(tokens):
            for cat in self.lexicon[t.text]:
                put(i, i + 1, cat, (0, 0), ("word", t))
            close_unary(i, i + 1)
        for i in range(n - 1):
            if (words[i], words[i + 1]) in self.compounds:
                put(i, i + 2, "NOUN", (0, 0), ("compound", (tokens[i], tokens[i + 1])))
                close_unary(i, i + 2)

        for span in range(2, n + 1):
            for i in range(0, n - span + 1):
                j = i + span
                for k in range(i + 1, j):
                    left = chart.get((i, k), {})
                    right = chart.get((k, j), {})
                    for parent, lc, rc in self._BINARY:
                        if lc in left and rc in right:
                            phrases = left[lc][0][0] + right[rc][0][0]
                            if parent in self._PHRASAL:
                                phrases += 1
                            cost = (phrases, -k)
                            put(i, j, parent, cost, ("binary", (lc, rc, k)))
                close_unary(i, j)

        if "VP" not in chart.get((0, n), {}):
            # Report the token just past the longest constituent anchored at 0.
            reach = 0
            for (i, j) in chart:
                if i == 0 and j > reach:
                    reach = j
            raise OutOfGrammar(tokens[min(reach, n - 1)].text)

        raw = self._extract(chart, 0, n, "VP")
        counter = [0]
        root = _index_phrases(raw, counter)
        return ParseTree(root=root, source_text=" ".join(words))

    def _extract(self, chart, i, j, cat):
        """Rebuild a (category, tokens, children) skeleton from backpointers."""
        _, back = chart[(i, j)][cat]
        kind, payload = back
        if kind == "word":
            return (cat, [payload], [])
        if kind == "compound":
            return (cat, list(payload), [])
        if kind == "unary":
            return self._extract(chart, i, j, payload)
        lc, rc, k = payload
        left = self._extract(chart, i, k, lc)
        right = self._extract(chart, k, j, rc)
        # Internal categories merge their parts without creating a phrase;
        # either way, phrasal parts survive as children.
        tokens, children = [], []
        for part in (left, right):
            tokens.extend(_hoist_tokens(part))
            children.extend(_hoist_children(part))
        return (cat, tokens, children)


def _hoist_tokens(part):
    cat, tokens, _ = part
    return [] if cat in Grammar._PHRASAL else tokens


def _hoist_children(part):
    cat, _, children = part
    return [part] if cat in Grammar._PHRASAL else children


def _index_phrases(raw, counter) -> Phrase:
    cat, tokens, children = raw
    built = tuple(_index_phrases(c, counter) for c in children)
    idx = counter[0]
    counter[0] += 1
    return Phrase(category=cat, tokens=tuple(tokens), children=built, index=idx)


@cache
def _default_grammar() -> Grammar:
    return Grammar(default_registry())


def parse(tokens: tuple[Token, ...], registry: ClassifierRegistry | None = None) -> ParseTree:
    grammar = Grammar(registry) if registry is not None else _default_grammar()
    return grammar.parse(tokens)


def parse_text(text: str, registry: ClassifierRegistry | None = None) -> ParseTree:
    return parse(tokenize(text), registry)


def dump_tree(tree: ParseTree) -> str:
    """Serialize to the bracketed form ``(VP go (PP to (NP the ball)))``."""

    def render(p: Phrase) -> str:
        parts = [p.category] + [t.text for t in p.tokens] + [render(c) for c in p.children]
        return "(" + " ".join(parts) + ")"

    return render(tree.root)


class _TreeReader:
    """Recursive-descent reader for the bracketed tree format.

    Offsets in errors are 1-based byte positions.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.token_counter = [0]

    def fail(self, reason: str):
        raise MalformedTree(self.pos + 1, reason)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def read_word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "() \t\n":
            self.pos += 1
        if self.pos == start:
            self.fail("expected a word")
        return self.text[start:self.pos]

    def read_phrase(self):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != "(":
            self.fail("expected '('")
        self.pos += 1
        self.skip_ws()
        category = self.read_word()
        if category not in PHRASE_CATEGORIES:
            self.fail(f"unknown category {category!r}")
        tokens: list[Token] = []
        children = []
        seen_child = False
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                self.fail("unterminated phrase")
            ch = self.text[self.pos]
            if ch == ")":
                self.pos += 1
                return (category, tokens, children)
            if ch == "(":
                children.append(self.read_phrase())
                seen_child = True
            else:
                if seen_child:
                    self.fail("tokens must precede child phrases")
                word = self.read_word()
                tokens.append(Token(word, self.token_counter[0]))
                self.token_counter[0] += 1


def load_tree(text: str) -> ParseTree:
    """Inverse of dump_tree; raises MalformedTree with a 1-based offset."""
    reader = _TreeReader(text)
    raw = reader.read_phrase()
    reader.skip_ws()
    if reader.pos != len(text):
        reader.fail("trailing content after tree")
    counter = [0]
    root = _index_phrases(raw, counter)
    # Rebuild surface text in token order.
    ordered = sorted(
        (t for p in ParseTree(root, "").phrases() for t in p.tokens),
        key=lambda t: t.position,
    )
    return ParseTree(root=root, source_text=" ".join(t.text for t in ordered))
