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
import io
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
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
    concept index derived from it (and ``loans``) on first use.
    """

    languages: tuple[str, ...]
    concepts: tuple[str, ...]
    entries: dict[tuple[str, str], frozenset[str]]
    loans: frozenset[tuple[str, str, str]]

    @cached_property
    def _index(self) -> dict[str, tuple[dict[str, frozenset[str]], frozenset[str], frozenset]]:
        """concept -> (class -> attesting languages, attested languages, loans), built once."""
        classes: dict[str, dict[str, set[str]]] = {con: {} for con in self.concepts}
        for (lang, con), ids in self.entries.items():
            for cls in ids:
                classes[con].setdefault(cls, set()).add(lang)
        loans: dict[str, set] = {con: set() for con in self.concepts}
        for triple in self.loans:
            loans[triple[1]].add(triple)
        return {
            con: (
                {cls: frozenset(by_class[cls]) for cls in sorted(by_class)},
                frozenset().union(*by_class.values()),
                frozenset(loans[con]),
            )
            for con, by_class in classes.items()
        }

    def _lookup(
        self, concept: str
    ) -> tuple[dict[str, frozenset[str]], frozenset[str], frozenset]:
        if concept not in self._index:
            raise ValueError(f"unknown concept {concept!r}")
        return self._index[concept]

    def languages_for(self, concept: str) -> frozenset[str]:
        """Languages with at least one entry for ``concept``."""
        return self._lookup(concept)[1]

    def classes_for(self, concept: str) -> dict[str, frozenset[str]]:
        """Map each cognate class of ``concept`` to its attesting languages."""
        return dict(self._lookup(concept)[0])

    def loans_for(self, concept: str) -> frozenset[tuple[str, str, str]]:
        """Loan-flagged (language, concept, cognate class) triples of ``concept``."""
        return self._lookup(concept)[2]


@dataclass(frozen=True)
class ConceptSummary:
    concept: str
    n_classes: int
    class_sizes: dict[str, int]
    n_singletons: int
    n_attested_languages: int
    n_loan_triples: int


def _open_source(source: str | Path | IO[str]) -> IO[str]:
    if isinstance(source, Path):
        return source.open(encoding="utf-8")
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def _read_lines(source: str | Path | IO[str]) -> list[str]:
    """The lines of ``source``; a stream is closed, and its buffers freed,
    before the text is split."""
    with _open_source(source) as fh:
        text = fh.read()
    return text.splitlines()


def _split_rows(lines: list[str], delimiter: str) -> Iterator[tuple[int, list[str]]]:
    """Line number and whitespace-stripped CSV fields of each non-blank row."""
    reader = csv.reader(lines, delimiter=delimiter, strict=True)
    try:
        for fields in reader:
            if lines[reader.line_num - 1].strip():
                yield reader.line_num, [f.strip() for f in fields]
    except csv.Error as exc:
        raise CognateFormatError(f"malformed row ({exc})", reader.line_num) from None


def load_cognates(source: str | Path | IO[str]) -> tuple[CognateMatrix, list[ValidationIssue]]:
    """Load and validate a delimited cognate table.

    ``source`` may be a Path, an open text stream, or the raw table text as
    a str. Returns the matrix plus a list of warnings (errors raise
    CognateFormatError with the offending line number).
    """
    lines = _read_lines(source)
    if not lines or not lines[0].strip():
        raise CognateFormatError("empty input (no header)", 1)

    delimiter = "\t" if "\t" in lines[0] else ","
    rows = _split_rows(lines, delimiter)
    _, header = next(rows)
    col_index = {name: i for i, name in enumerate(header)}
    for required in REQUIRED_COLUMNS:
        if required not in col_index:
            raise CognateFormatError(f"missing required column {required!r}", 1)

    required_fields = itemgetter(*(col_index[name] for name in REQUIRED_COLUMNS))
    warnings: list[ValidationIssue] = []
    has_loan = LOAN_COLUMN in col_index
    if not has_loan:
        warnings.append(
            ValidationIssue("warning", 1, "loan column absent; all loan flags set to 0")
        )

    # Insertion-ordered dicts keep languages and concepts in first-seen order.
    languages: dict[str, None] = {}
    concepts: dict[str, None] = {}
    entries: dict[tuple[str, str], set[str]] = {}
    loans: set[tuple[str, str, str]] = set()

    for lineno, fields in rows:
        if len(fields) != len(header):
            raise CognateFormatError(
                f"expected {len(header)} fields, got {len(fields)}", lineno
            )
        row = required_fields(fields)
        if not all(row):
            raise CognateFormatError(f"empty {REQUIRED_COLUMNS[row.index('')]}", lineno)
        language, concept, cognate_id = row

        classes = entries.setdefault((language, concept), set())
        if cognate_id in classes:
            raise CognateFormatError(
                f"duplicate row ({language}, {concept}, {cognate_id})", lineno
            )
        loan_flag = fields[col_index[LOAN_COLUMN]] if has_loan else ""
        if loan_flag not in ("", "0", "1"):
            raise CognateFormatError(
                f"loan flag must be 0, 1, or empty, got {loan_flag!r}", lineno
            )

        classes.add(cognate_id)
        languages[language] = None
        concepts[concept] = None
        if loan_flag == "1":
            loans.add(row)

    if not entries:
        raise CognateFormatError("no data rows", len(lines))

    matrix = CognateMatrix(
        languages=tuple(languages),
        concepts=tuple(concepts),
        entries={key: frozenset(val) for key, val in entries.items()},
        loans=frozenset(loans),
    )
    return matrix, warnings


def write_cognates(matrix: CognateMatrix) -> str:
    """Serialize back to quoted CSV; rows sorted so output is deterministic."""
    rows = sorted(
        (language, concept, cls, int((language, concept, cls) in matrix.loans))
        for (language, concept), classes in matrix.entries.items()
        for cls in classes
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("language", "concept", "cognate_id", LOAN_COLUMN))
    writer.writerows(rows)
    return buf.getvalue()


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
    known, attested, _ = matrix._lookup(concept)
    classes = tuple(classes)
    for cls in classes:
        if cls not in known:
            raise ValueError(f"unknown cognate class {cls!r} for concept {concept!r}")
    taxa = tuple(taxa)
    positions: dict[str, list[int]] = {}
    for i, taxon in enumerate(taxa):
        positions.setdefault(taxon, []).append(i)

    def where(languages: frozenset[str]) -> list[int]:
        return [i for lang in languages for i in positions.get(lang, ())]

    presence = np.zeros((len(classes), len(taxa)), dtype=np.int8)
    for row, cls in zip(presence, classes):
        row[where(known[cls])] = 1
    mask = np.zeros(len(taxa), dtype=np.int8)
    mask[where(attested)] = 1
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
