"""Exception taxonomy shared across the package.

Domain errors (bad instruction, impossible grounding, malformed input files)
all derive from GroundlingError so callers -- the CLI in particular -- can
distinguish them from genuine bugs.
"""


class GroundlingError(Exception):
    """Base class for all anticipated failures."""


# What the standard library raises while a reader decodes and converts a
# malformed file: undecodable bytes (``UnicodeDecodeError`` is a
# ``ValueError``), bad JSON, a missing key, a mistyped or unconvertible
# value, a number too large for a float, nesting too deep.  Readers turn
# these into ``InvalidSpec``.
MALFORMED_INPUT = (AttributeError, KeyError, TypeError, ValueError,
                   OverflowError, RecursionError)


class EmptyInstruction(GroundlingError):
    """Raised when an instruction contains no tokens after normalization."""


class OutOfGrammar(GroundlingError):
    """Instruction cannot be derived from the command grammar.

    ``token`` is the first unknown word if there is one, else the first
    surface token the grammar cannot consume (the last token when the
    instruction stops short).
    """

    def __init__(self, token: str):
        self.token = token
        super().__init__(f"no parse: unexpected token {token!r}")


class UnknownSchemaVersion(GroundlingError):
    """A versioned file declares a schema this code does not understand."""

    def __init__(self, found, expected: int):
        self.found = found
        self.expected = expected
        super().__init__(f"schema {found!r} not supported (expected {expected})")


class NonFiniteScore(GroundlingError):
    """A factor score came out NaN or infinite."""


class CorpusDomainMismatch(GroundlingError):
    """A model was applied to (or trained on) data from a different domain."""


class DivergedLoss(GroundlingError):
    """The training objective became non-finite."""


class NoTargetObject(GroundlingError):
    """Constraint intersection over the world model selected no object."""


class AmbiguousRelation(GroundlingError):
    """Several candidate objects remain and no spatial relation picks one."""


class InvalidSpec(GroundlingError):
    """An input file or specification is malformed or internally inconsistent."""


class UnknownClassifier(GroundlingError):
    """A perception symbol does not correspond to any registered classifier."""


class InvalidConfig(GroundlingError):
    """A corpus configuration is unusable (e.g. zero examples requested)."""


class InvalidFraction(GroundlingError):
    """A split fraction falls outside the open interval (0, 1)."""
