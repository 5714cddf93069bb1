"""Exception taxonomy shared across the package.

Domain errors (bad instruction, impossible grounding, malformed input files)
all derive from GroundlingError so callers -- the CLI in particular -- can
distinguish them from genuine bugs.

Every file reader names its file through ``reading`` and checks fields
with ``typed`` and ``number``; ``write_records`` and ``read_records`` are
the one JSON-lines format, of the observation log and the corpus.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path


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
    """A split fraction falls outside the half-open interval (0, 1]."""


@contextmanager
def reading(where, what: str, *also: type[Exception]):
    """Re-raise an ``InvalidSpec``, ``MALFORMED_INPUT`` or ``also`` met inside
    as ``InvalidSpec("malformed <what> <where>: <reason>")``, and an
    ``UnknownSchemaVersion`` as itself, naming ``<what> <where>``."""
    try:
        yield
    except UnknownSchemaVersion as exc:
        exc.args = (f"{what} {where}: {exc}",)
        raise
    except InvalidSpec as exc:
        raise InvalidSpec(f"malformed {what} {where}: {exc}") from exc
    except (*MALFORMED_INPUT, *also) as exc:
        raise InvalidSpec(f"malformed {what} {where}: {exc!r}") from exc


def typed(value, kinds: tuple[type, ...], field: str):
    # The exact type: ``bool("false")`` is True, so only a JSON boolean is a flag.
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise InvalidSpec(f"{field} must be of type {names}, got {value!r}")
    return value


def number(value, field: str, low: float = -sys.float_info.max):
    """``value`` if it is an int or a float, never a bool, from ``low`` up to
    the largest float; the default ``low`` admits every finite number."""
    # An int past the largest float would overflow the first sum it is in.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not low <= value <= sys.float_info.max):
        wanted = "a finite number" if low == -sys.float_info.max else f"a number in [{low:g}, inf)"
        raise InvalidSpec(f"{field} must be {wanted}, got {value!r}")
    return value


def write_records(path, schema: int, kind: str, records) -> None:
    """A header naming ``schema`` and ``kind``, then one record per line."""
    lines = [json.dumps({"schema": schema, "kind": kind}, sort_keys=True)]
    lines += (json.dumps(record, sort_keys=True) for record in records)
    Path(path).write_text("\n".join(lines) + "\n")


def read_records(path, schema: int, kind: str, convert) -> list:
    """``convert`` of each record of a file that ``write_records`` wrote.

    Another schema raises ``UnknownSchemaVersion``; anything else wrong
    raises ``InvalidSpec`` naming the file and a record's line (from 1).
    """
    what = kind.replace("_", " ")
    with reading(path, what):
        lines = Path(path).read_bytes().splitlines()
        if not lines:
            raise InvalidSpec("empty file")
        header = json.loads(lines[0].decode())
        if header.get("schema") != schema:
            raise UnknownSchemaVersion(header.get("schema"), schema)
        if header.get("kind") != kind:
            raise InvalidSpec(f"header kind {header.get('kind')!r} is not {kind!r}")
    out = []
    for n, line in enumerate(lines[1:], 2):
        if line.strip():
            with reading(f"{path} line {n}", what):
                out.append(convert(json.loads(line.decode())))
    return out
