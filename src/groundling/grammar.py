"""Command grammar: tokenizer and recursive-descent parser.

The grammar is a small closed-lexicon CFG over navigation commands:

    VP -> verb PP
    PP -> prep NP [PP]
    NP -> det [superlative] [color] noun

Nouns cover the registered object classes plus the scene-label surface
forms (including the two-word compound "parking lot").  A trailing
locative PP ("in the <region>") attaches as a second child of the inner
NP's parent PP.  The parser reads the tokens once, left to right; a
sentence has at most one tree.  A modifier word that is also a noun (a
registry may add a class named like a color) is read as the modifier only
when the rest of the noun phrase follows it.

Phrases are indexed densely in post-order, so the root always carries the
highest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import EmptyInstruction, OutOfGrammar
from .symbols import (
    REGION_SURFACE_FORMS,
    SUPERLATIVE_RELATIONS,
    ClassifierRegistry,
    KeyTable,
    split_words,
)

VERBS = ("drive", "go", "navigate", "walk")
PREPOSITIONS = ("in", "to")
DETERMINERS = ("the",)
SUPERLATIVES = tuple(SUPERLATIVE_RELATIONS)

# Multi-word nouns; their words are only derivable inside the compound.
_COMPOUNDS = tuple(form for forms in REGION_SURFACE_FORMS.values()
                   for form in forms if len(form) > 1)


@dataclass(frozen=True)
class Phrase:
    """One node of a parse tree.

    ``words`` are the words this phrase owns directly (not those of its
    children); ``index`` is the phrase's dense post-order position.
    """

    category: str
    words: tuple[str, ...]
    children: tuple["Phrase", ...]
    index: int


# ``bias`` and ``cat=C`` for a category, and ``w=word`` for a word: each
# made once, on first use, and shared by every phrase after.  They hold
# only strings equal to the ones they replace, so every registry and
# parse can share them.
_HEAD = KeyTable(lambda category: ("bias", f"cat={category}"))
_WORD = KeyTable("w={}".format)


def feature_tokens(phrase: Phrase) -> tuple[str, ...]:
    """What the correspondence models read of a phrase itself.

    ``bias``, ``cat=C`` and ``w=word`` for each distinct word the phrase
    owns, in order.
    """
    return _HEAD[phrase.category] + tuple(map(_WORD.__getitem__,
                                              dict.fromkeys(phrase.words)))


@dataclass(frozen=True)
class ParseTree:
    """A parsed instruction.

    ``post_order`` is every phrase in post-order, so a phrase's position in
    it is its ``index``.  ``parse`` passes the order its parser numbered the
    phrases in; a tree made from a ``root`` alone derives it, by a loop
    that leaves no reference cycle.  Trees compare by ``root``.  The
    phrases' ``feature_tokens`` are made on first read and kept, so the
    three correspondence models of a run share them.
    """

    root: Phrase
    post_order: tuple[Phrase, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if not self.post_order:
            object.__setattr__(self, "post_order", _post_order(self.root))

    def phrases(self) -> tuple[Phrase, ...]:
        """All phrases in post-order; position in the tuple equals .index."""
        return self.post_order

    @cached_property
    def feature_tokens(self) -> tuple[tuple[str, ...], ...]:
        """Each phrase's ``feature_tokens``, in post-order."""
        return tuple(map(feature_tokens, self.post_order))

    def __len__(self) -> int:
        return len(self.post_order)


def _post_order(root: Phrase) -> tuple[Phrase, ...]:
    """The phrases under ``root``, children before parents, left to right.

    Popping a phrase and pushing its children left to right visits each
    phrase before its subtrees, the last child's first: the reverse of
    post-order.
    """
    stack, out = [root], []
    while stack:
        phrase = stack.pop()
        out.append(phrase)
        stack += phrase.children
    return tuple(reversed(out))


def tokenize(text: str) -> tuple[str, ...]:
    """The words of ``text`` (``symbols.split_words``).

    Raises EmptyInstruction when nothing is left.
    """
    words = split_words(text)
    if not words:
        raise EmptyInstruction("instruction contains no tokens")
    return tuple(words)


def lexicon(registry: ClassifierRegistry) -> dict[str, frozenset[str]]:
    """word -> preterminal categories for one registry's vocabulary.

    A parse reads ``ClassifierRegistry.lexicon``, this made once per
    registry.
    """
    lex: dict[str, set[str]] = {}
    for category, words in (("V", VERBS), ("P", PREPOSITIONS),
                            ("DET", DETERMINERS), ("SUP", SUPERLATIVES),
                            ("COLOR", registry.colors),
                            ("NOUN", registry.object_classes)):
        for word in words:
            lex.setdefault(word, set()).add(category)
    for forms in REGION_SURFACE_FORMS.values():
        for form in forms:
            for word in form:
                lex.setdefault(word, set()).add("NOUN" if len(form) == 1 else "PART")
    return {word: frozenset(cats) for word, cats in lex.items()}


class _Parser:
    """One left-to-right pass that builds phrases in post-order.

    ``built`` lists the phrases in the order they are made, which numbers
    them: children are made before their parent, left to right.
    """

    def __init__(self, tokens: tuple[str, ...], lexicon):
        self.tokens = tokens
        self.lexicon = lexicon
        self.pos = 0
        self.built: list[Phrase] = []

    def cats(self, i: int) -> frozenset[str]:
        if i >= len(self.tokens):
            return frozenset()
        return self.lexicon[self.tokens[i]]

    def noun_width(self, i: int) -> int:
        for form in _COMPOUNDS:
            if self.tokens[i:i + len(form)] == form:
                return len(form)
        return 1 if "NOUN" in self.cats(i) else 0

    def fail(self):
        raise OutOfGrammar(self.tokens[min(self.pos, len(self.tokens) - 1)])

    def take(self, category: str) -> str:
        if category not in self.cats(self.pos):
            self.fail()
        self.pos += 1
        return self.tokens[self.pos - 1]

    def phrase(self, category: str, tokens, children) -> Phrase:
        built = Phrase(category, tuple(tokens), tuple(children), len(self.built))
        self.built.append(built)
        return built

    def vp(self) -> Phrase:
        verb = self.take("V")
        return self.phrase("VP", [verb], [self.pp()])

    def pp(self) -> Phrase:
        prep = self.take("P")
        children = [self.np()]
        if self.pos < len(self.tokens):
            children.append(self.pp())
        return self.phrase("PP", [prep], children)

    def np(self) -> Phrase:
        tokens = [self.take("DET")]
        for modifier in ("SUP", "COLOR"):
            cats = self.cats(self.pos)
            if modifier in cats and ("NOUN" not in cats or self.head_follows(modifier)):
                tokens.append(self.take(modifier))
        width = self.noun_width(self.pos)
        if not width:
            self.fail()
        tokens += self.tokens[self.pos:self.pos + width]
        self.pos += width
        return self.phrase("NP", tokens, ())

    def head_follows(self, modifier: str) -> bool:
        """Whether the rest of the noun phrase follows a modifier here."""
        after = self.pos + 1
        return bool(self.noun_width(after) or (
            modifier == "SUP" and "COLOR" in self.cats(after)
            and self.noun_width(after + 1)))


def parse(tokens: tuple[str, ...], registry: ClassifierRegistry) -> ParseTree:
    """Parse a token sequence; OutOfGrammar names the first unknown word,
    else the first token the grammar cannot consume.

    The tree gets the post-order the parser numbered its phrases in, so
    no walk of the tree finds it again.
    """
    if not tokens:
        raise EmptyInstruction("no tokens to parse")
    lexicon = registry.lexicon
    for t in tokens:
        if t not in lexicon:
            raise OutOfGrammar(t)
    parser = _Parser(tokens, lexicon)
    root = parser.vp()
    return ParseTree(root, tuple(parser.built))


def parse_text(text: str, registry: ClassifierRegistry) -> ParseTree:
    return parse(tokenize(text), registry)
