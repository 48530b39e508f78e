"""Long-format cognate database: ingestion, validation, and per-concept views.

The input is a single delimited table (comma or tab, autodetected from the
header; fields may be CSV-quoted) with columns ``language, concept,
cognate_id, loan``. A (language, concept) pair with no row is *missing*:
absence of evidence, deliberately distinct from a cognate class being
absent. One language may attest several classes for the same concept
(synonyms/doublets). Cognate-class IDs are scoped to their concept.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Iterable, Iterator

import numpy as np

REQUIRED_COLUMNS = ("language", "concept", "cognate_id")
LOAN_COLUMN = "loan"


class CognateFormatError(ValueError):
    """Malformed cognate table; ``line`` is the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.line = line


@dataclass(frozen=True)
class ValidationIssue:
    """One structured validation-report line."""

    level: str  # "warning" or "error"
    line: int | None
    message: str

    def render(self) -> str:
        where = f"line {self.line}" if self.line is not None else "-"
        return f"{self.level} {where}: {self.message}"


@dataclass(frozen=True)
class CognateMatrix:
    """Immutable language x concept -> set-of-cognate-classes mapping.

    ``entries`` is the single source; every per-concept view reads one
    concept index derived from it (and ``loans``) on first use. A matrix
    from ``load_cognates`` holds each name once, and the keys whose class
    sets are equal share one frozenset.
    """

    languages: tuple[str, ...]
    concepts: tuple[str, ...]
    entries: dict[tuple[str, str], frozenset[str]]
    loans: frozenset[tuple[str, str, str]]

    @cached_property
    def _index(self) -> dict[str, tuple[dict[str, tuple[str, ...]], tuple]]:
        """concept -> (class -> attesting languages, loans), built once.

        Tuples, not frozensets: a (language, concept) key is unique, so no
        language comes twice in a class, and a tuple holds a member in 8
        bytes where a frozenset takes several times that. The views build
        their sets when they are asked.
        """
        classes: dict[str, dict[str, list[str]]] = {con: {} for con in self.concepts}
        for (lang, con), ids in self.entries.items():
            for cls in ids:
                classes[con].setdefault(cls, []).append(lang)
        loans: dict[str, list] = {con: [] for con in self.concepts}
        for triple in self.loans:
            loans[triple[1]].append(triple)
        return {
            con: ({cls: tuple(by_class[cls]) for cls in sorted(by_class)}, tuple(loans[con]))
            for con, by_class in classes.items()
        }

    def _lookup(self, concept: str) -> tuple[dict[str, tuple[str, ...]], tuple]:
        if concept not in self._index:
            raise ValueError(f"unknown concept {concept!r}")
        return self._index[concept]

    def languages_for(self, concept: str) -> frozenset[str]:
        """Languages with at least one entry for ``concept``."""
        return frozenset(itertools.chain.from_iterable(self._lookup(concept)[0].values()))

    def classes_for(self, concept: str) -> dict[str, frozenset[str]]:
        """Map each cognate class of ``concept`` to its attesting languages."""
        return {cls: frozenset(langs) for cls, langs in self._lookup(concept)[0].items()}

    def loans_for(self, concept: str) -> frozenset[tuple[str, str, str]]:
        """Loan-flagged (language, concept, cognate class) triples of ``concept``."""
        return frozenset(self._lookup(concept)[1])


@dataclass(frozen=True)
class ConceptSummary:
    concept: str
    n_classes: int
    class_sizes: dict[str, int]
    n_singletons: int
    n_attested_languages: int
    n_loan_triples: int


_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")  # ended as a newline="" stream ends it
# What XML 1.0 cannot hold, not even as a character reference: a C0 control
# other than tab, LF and CR, a surrogate, U+FFFE or U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def non_xml_concept(concept: str) -> str | None:
    """Why scatter.svg cannot label a point ``concept``, or None when it can."""
    bad = _NOT_XML.search(concept)
    return bad and f"concept {concept!r} holds U+{ord(bad[0]):04X}, which XML cannot hold"


def _physical_lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines of the text that ``chunks`` make up, each ended by LF, CR or
    CRLF (the last one perhaps by the end of the text), as an
    ``io.StringIO(text, newline="")`` yields them."""
    tail = ""  # a line that the next chunk may go on
    for chunk in chunks:
        text = tail + chunk
        if 0 <= text.find("\n") == len(text) - 1 and text.find("\r", 0, -2) < 0:
            tail = ""  # one line, ended by LF or CRLF: a stream line most often is
            yield text
            continue
        done = 0
        for match in _LINE.finditer(text):
            if match.end() == len(text) and not text.endswith("\n"):
                break  # unended, or a CR whose LF may come next
            yield match[0]
            done = match.end()
        tail = text[done:]
    if tail:
        yield tail


def load_cognates(source: str | Path | IO[str]) -> tuple[CognateMatrix, list[ValidationIssue]]:
    """Load and validate a delimited cognate table.

    ``source`` may be a Path (read as UTF-8, a leading BOM dropped), an open
    text stream, which is read line by line and closed, or the raw table text
    as a str; only LF, CR and CRLF end its lines. Returns the matrix plus a list
    of warnings (errors raise CognateFormatError with the offending line
    number). A concept name, which labels a point of scatter.svg, must be
    XML characters: the row where one that is not first appears is an error.

    The matrix holds each language, concept and cognate-class name once,
    and one frozenset per distinct set of classes: every (language, concept)
    key whose classes are equal shares it, so the table costs memory per
    row only for its key.
    """
    if isinstance(source, str):
        return _load_lines(_physical_lines((source,)))
    if isinstance(source, Path):
        source = source.open(encoding="utf-8-sig", newline="")
    with source:
        return _load_lines(_physical_lines(source))


def _load_lines(lines: Iterator[str]) -> tuple[CognateMatrix, list[ValidationIssue]]:
    """``load_cognates`` of the table whose physical lines are ``lines``.

    The first row is the header. A quoted field keeps its line breaks, so a
    row that spans lines holds a quote, and a blank row, which is skipped, is
    one line of whitespace. A row's errors name its first line, one past the
    last line of the row before; a row that does not parse, and a table with
    no data row, name the last line read.
    """
    last = next(lines, "")  # the last line the reader has taken
    if not last.strip():
        raise CognateFormatError("empty input (no header)", 1)

    def recorded() -> Iterator[str]:
        nonlocal last
        yield last
        for last in lines:
            yield last

    reader = csv.reader(recorded(), delimiter="\t" if "\t" in last else ",", strict=True)
    # Each name maps to its one copy, and each distinct set of classes to
    # its one frozenset; insertion order keeps languages and concepts in
    # first-seen order.
    languages: dict[str, str] = {}
    concepts: dict[str, str] = {}
    class_ids: dict[str, str] = {}
    class_sets: dict[frozenset[str], frozenset[str]] = {}
    entries: dict[tuple[str, str], frozenset[str]] = {}
    loans: set[tuple[str, str, str]] = set()

    try:
        header = [f.strip() for f in next(reader)]
        for name in (*REQUIRED_COLUMNS, LOAN_COLUMN):
            if header.count(name) > 1:
                raise CognateFormatError(f"duplicate column {name!r} in header", 1)
        col_index = {name: i for i, name in enumerate(header)}
        for required in REQUIRED_COLUMNS:
            if required not in col_index:
                raise CognateFormatError(f"missing required column {required!r}", 1)
        required_fields = itemgetter(*(col_index[name] for name in REQUIRED_COLUMNS))
        has_loan = LOAN_COLUMN in col_index

        row_end = reader.line_num  # the last line of the row before
        for fields in reader:
            lineno, row_end = row_end + 1, reader.line_num
            if last.isspace():
                continue
            fields = [f.strip() for f in fields]
            if len(fields) != len(header):
                raise CognateFormatError(
                    f"expected {len(header)} fields, got {len(fields)}", lineno
                )
            row = required_fields(fields)
            if not all(row):
                raise CognateFormatError(f"empty {REQUIRED_COLUMNS[row.index('')]}", lineno)
            language = languages.setdefault(row[0], row[0])
            if row[1] not in concepts and (problem := non_xml_concept(row[1])):
                raise CognateFormatError(problem, lineno)
            concept = concepts.setdefault(row[1], row[1])
            cognate_id = class_ids.setdefault(row[2], row[2])

            held = entries.get((language, concept), frozenset())
            if cognate_id in held:
                raise CognateFormatError(
                    f"duplicate row ({language}, {concept}, {cognate_id})", lineno
                )
            loan_flag = fields[col_index[LOAN_COLUMN]] if has_loan else ""
            if loan_flag not in ("", "0", "1"):
                raise CognateFormatError(
                    f"loan flag must be 0, 1, or empty, got {loan_flag!r}", lineno
                )

            classes = held | {cognate_id}
            entries[language, concept] = class_sets.setdefault(classes, classes)
            if loan_flag == "1":
                loans.add((language, concept, cognate_id))
    except csv.Error as exc:
        raise CognateFormatError(f"malformed row ({exc})", reader.line_num) from None
    if not entries:
        raise CognateFormatError("no data rows", reader.line_num)

    warnings = [] if has_loan else [
        ValidationIssue("warning", 1, "loan column absent; all loan flags set to 0")
    ]
    return CognateMatrix(tuple(languages), tuple(concepts), entries, frozenset(loans)), warnings


def write_cognates(matrix: CognateMatrix) -> str:
    """Serialize back to quoted CSV; rows sorted so output is deterministic."""
    rows = sorted(
        (language, concept, cls, int((language, concept, cls) in matrix.loans))
        for (language, concept), classes in matrix.entries.items()
        for cls in classes
    )
    return csv_text(("language", "concept", "cognate_id", LOAN_COLUMN), rows)


def csv_text(header: Iterable, rows: Iterable[Iterable]) -> str:
    """``header`` and ``rows`` in the package's one CSV dialect: minimal quoting, LF
    line ends. csv.writer quotes a CR or an LF only if its terminator holds it, so
    this writes CRLF, one ``write`` per row, and cuts each row's CR."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows(itertools.chain([header], rows))
    return "".join(line[:-2] + "\n" for line in lines)


def binary_traits(
    matrix: CognateMatrix,
    concept: str,
    classes: Iterable[str],
    taxa: Iterable[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Presence/absence of each of ``classes`` over ``taxa``, plus attested mask.

    ``presence[j, i]`` is 1 iff taxon i attests the j-th class under
    ``concept``; ``mask[i]``, which every class shares, is 0 iff (taxon i,
    concept) is missing, as for a taxon with no rows at all: such a taxon is
    excluded downstream, never read as absence. The taxa's positions are
    found in one pass, so a class costs work in proportion to its own size.
    """
    known, _ = matrix._lookup(concept)
    classes = tuple(classes)
    for cls in classes:
        if cls not in known:
            raise ValueError(f"unknown cognate class {cls!r} for concept {concept!r}")
    taxa = tuple(taxa)
    positions: dict[str, list[int]] = {}
    for i, taxon in enumerate(taxa):
        positions.setdefault(taxon, []).append(i)

    def where(languages: Iterable[str]) -> list[int]:
        return [i for lang in languages for i in positions.get(lang, ())]

    presence = np.zeros((len(classes), len(taxa)), dtype=np.int8)
    for row, cls in zip(presence, classes):
        row[where(known[cls])] = 1
    mask = np.zeros(len(taxa), dtype=np.int8)
    mask[where(itertools.chain.from_iterable(known.values()))] = 1
    return presence, mask


def concept_summary(matrix: CognateMatrix, concept: str) -> ConceptSummary:
    """Counts for one concept: classes, sizes, singletons, attestation, loans."""
    classes = matrix.classes_for(concept)
    if not classes:
        raise ValueError(f"no data for concept {concept!r}")
    sizes = {cls: len(langs) for cls, langs in classes.items()}
    return ConceptSummary(
        concept=concept,
        n_classes=len(classes),
        class_sizes=sizes,
        n_singletons=sum(1 for s in sizes.values() if s == 1),
        n_attested_languages=len(matrix.languages_for(concept)),
        n_loan_triples=len(matrix.loans_for(concept)),
    )
