import csv
import io
import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from lexiphylo.cognates import (
    CognateFormatError,
    CognateMatrix,
    binary_traits,
    concept_summary,
    load_cognates,
    write_cognates,
)
from lexiphylo.metrics import FEATURE_COLUMNS, FeatureTable, feature_table_to_csv
from lexiphylo.ranking import RankedConcept, SuitabilityRanking, ranking_to_csv
from util import benchmark_corpus, binary_trait, oracle_load_cognates

BASIC = """language,concept,cognate_id,loan
L1,eye,K1,0
L2,eye,K1,0
L2,eye,K2,1
"""


class TestLoad:
    def test_basic_fixture(self):
        matrix, warnings = load_cognates(BASIC)
        assert matrix.languages == ("L1", "L2")
        assert matrix.concepts == ("eye",)
        assert matrix.classes_for("eye") == {
            "K1": frozenset({"L1", "L2"}),
            "K2": frozenset({"L2"}),
        }
        assert matrix.loans == frozenset({("L2", "eye", "K2")})
        assert warnings == []

    def test_duplicate_row_errors_with_line(self):
        text = BASIC + "L2,eye,K2,1\n"
        with pytest.raises(CognateFormatError, match="duplicate") as err:
            load_cognates(text)
        assert "line 5" in str(err.value)
        assert err.value.line == 5

    def test_missing_loan_column_warns_and_defaults(self):
        text = "language,concept,cognate_id\nL1,eye,K1\n"
        matrix, warnings = load_cognates(text)
        assert matrix.loans == frozenset()
        assert any("loan column absent" in w.message for w in warnings)

    def test_missing_required_column(self):
        with pytest.raises(CognateFormatError, match="missing required column 'concept'"):
            load_cognates("language,cognate_id,loan\nL1,K1,0\n")

    def test_empty_cognate_id(self):
        text = "language,concept,cognate_id,loan\nL1,eye,,0\n"
        with pytest.raises(CognateFormatError, match="empty cognate_id at line 2"):
            load_cognates(text)

    def test_bad_loan_flag(self):
        text = "language,concept,cognate_id,loan\nL1,eye,K1,yes\n"
        with pytest.raises(CognateFormatError, match="loan flag"):
            load_cognates(text)

    def test_ragged_row(self):
        for row, got in (("L1,eye", 2), ("L1,eye,K1,0,junk", 5)):
            text = f"language,concept,cognate_id,loan\n{row}\n"
            with pytest.raises(CognateFormatError, match=f"expected 4 fields, got {got} at line 2"):
                load_cognates(text)

    def test_bad_quoting_is_located(self):
        for row in ('L1,"eye"x,K1,0', 'L1,"eye,K1,0'):
            text = f"language,concept,cognate_id,loan\nL2,eye,K1,0\n{row}\n"
            with pytest.raises(CognateFormatError, match="malformed row .* at line 3"):
                load_cognates(text)

    def test_tab_delimiter_autodetected(self):
        text = "language\tconcept\tcognate_id\tloan\nL1\teye\tK1\t0\n"
        matrix, _ = load_cognates(text)
        assert matrix.languages == ("L1",)

    def test_empty_input(self):
        with pytest.raises(CognateFormatError, match="empty input"):
            load_cognates("")

    def test_blank_lines_skipped(self):
        matrix, _ = load_cognates(BASIC + "\n\n")
        assert len(matrix.entries) == 2

    def test_blank_and_whitespace_only_lines_skipped(self):
        text = BASIC.replace("L2,eye,K1", "  \n\t \nL2,eye,K1") + "\r\n \u2028\n"
        matrix, _ = load_cognates(text)
        assert len(matrix.entries) == 2
        tabs = "language\tconcept\tcognate_id\tloan\n\t\t\t\nL1\teye\tK1\t0\n"
        assert load_cognates(tabs)[0].entries == {("L1", "eye"): frozenset({"K1"})}
        with pytest.raises(CognateFormatError, match="empty language at line 3"):
            load_cognates(BASIC.replace("L2,eye,K1,0", " , , , "))
        assert load_cognates(tabs.replace("\t\t\t\n", "\t\t\n"))[0].entries == {
            ("L1", "eye"): frozenset({"K1"})
        }
        # A quoted cell is a row, even when it holds only whitespace: only a
        # row that is one unquoted line of whitespace is blank.
        for cell in ('" "', '""', '"  \n  "'):
            with pytest.raises(CognateFormatError, match="^expected 4 fields, got 1 at line 6$"):
                load_cognates(BASIC + f" \n{cell}\nL3,eye,K1,0\n")

    def test_quoted_multiline_cell_is_one_field(self):
        # The line break is part of the concept, which stays apart from "con".
        text = BASIC + 'L1,"co\nn",K1,0\nL2,con,K1,0\nL3,"co\r\nn",K1,0\n'
        matrix, warnings = load_cognates(text)
        assert matrix.concepts == ("eye", "co\nn", "con", "co\r\nn")
        assert matrix.classes_for("co\nn") == {"K1": frozenset({"L1"})}
        assert warnings == []
        again, _ = load_cognates(write_cognates(matrix))
        assert again.entries == matrix.entries

    def test_unicode_line_separators_stay_in_their_cell(self):
        for separator in ("\u2028", "\u0085", "\x0c"):
            matrix, _ = load_cognates(BASIC + f"L1,eye,a{separator}b,0\n")
            assert matrix.classes_for("eye")[f"a{separator}b"] == frozenset({"L1"})
            if separator != "\x0c":  # which XML cannot hold, so no concept may
                matrix, _ = load_cognates(BASIC + f"L1,a{separator}b,K1,0\n")
                assert matrix.concepts == ("eye", f"a{separator}b")

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f",
                                      "\ufffe", "\uffff"])
    def test_concept_that_xml_cannot_hold_is_refused_where_first_seen(self, char):
        # Language and class names may hold it: scatter.svg writes only concepts.
        text = BASIC + f'L{char}3,eye,K{char}1,0\nL1,"two\nlines",K1,0\nL1,wa{char}ter,K1,0\n'
        message = f"concept {'wa' + char + 'ter'!r} holds U+{ord(char):04X}, which XML cannot hold"
        with pytest.raises(CognateFormatError, match=f"^{re.escape(message)} at line 8$"):
            load_cognates(text + f"L2,wa{char}ter,K1,0\n")
        assert load_cognates(text.replace(f"wa{char}ter", "water"))[0].concepts[-1] == "water"
        # Each of XML's three control characters may be in a concept.
        assert load_cognates(BASIC + 'L1,"a\tb\r\nc",K1,0\n')[0].concepts[-1] == "a\tb\r\nc"

    def test_errors_keep_physical_line_numbers_after_a_multiline_row(self):
        text = BASIC + 'L3,"two\nlines",K1,0\n\nL3,eye,K1,0,junk\n'
        with pytest.raises(CognateFormatError, match="expected 4 fields, got 5 at line 8"):
            load_cognates(text)
        # A row's error names the row's first line.
        with pytest.raises(CognateFormatError, match="empty cognate_id at line 5"):
            load_cognates(BASIC + 'L3,"two\nlines",,0\n')

    def test_utf8_bom_is_dropped_from_a_file(self, tmp_path):
        path = tmp_path / "cognates.csv"
        path.write_bytes(b"\xef\xbb\xbf" + BASIC.replace("\n", "\r\n").encode("utf-8"))
        matrix, warnings = load_cognates(path)
        assert matrix == load_cognates(BASIC)[0]
        assert warnings == []

    def test_column_named_twice_is_refused(self):
        # The loader reads columns by name, so a second 'concept' would be misread.
        with pytest.raises(CognateFormatError) as err:
            load_cognates("language,concept,cognate_id,concept\nL1,eye,K1,hand\n")
        assert str(err.value) == "duplicate column 'concept' in header at line 1"
        assert err.value.line == 1
        # A column the loader does not read may repeat.
        matrix, _ = load_cognates("language,note,concept,cognate_id,note\nL1,a,eye,K1,b\n")
        assert matrix.entries == {("L1", "eye"): frozenset({"K1"})}

    def test_names_and_class_sets_are_held_once(self):
        text = BASIC + "L1,hand,K1,0\nL2,hand,K1,0\nL3,hand,K2,0\nL3,eye,K2,0\nL3,eye,K1,0\n"
        matrix, _ = load_cognates(text)
        sets = {id(classes) for classes in matrix.entries.values()}
        assert len(sets) == len(set(matrix.entries.values())) == 3  # {K1}, {K2}, {K1, K2}
        names = [name for key in matrix.entries for name in key]
        names += [cls for classes in matrix.entries.values() for cls in classes]
        names += [name for triple in matrix.loans for name in triple]
        assert len({id(name) for name in names}) == len(set(names)) == 7

    def test_roundtrip_preserves_entry_set(self):
        matrix, _ = load_cognates(BASIC)
        again, _ = load_cognates(write_cognates(matrix))
        assert again.entries == matrix.entries
        assert again.loans == matrix.loans

    def test_quoted_fields_roundtrip(self):
        text = BASIC.replace(",", "\t").replace("\teye\t", '\teye, "left"\t')
        matrix, _ = load_cognates(text)
        assert matrix.concepts == ('eye, "left"',)
        again, _ = load_cognates(write_cognates(matrix))
        assert again.entries == matrix.entries
        assert again.loans == matrix.loans


# One label for each character that a CSV writer must quote or keep: a
# delimiter, a quote, LF, CR, a Unicode line separator and a leading space.
_AWKWARD = ("a,b", 'say "x"', "co\nn", "co\rn", "a\u2028b", " lead")


def _writer_cases(labels: tuple[str, ...]) -> list[tuple[str, tuple, list[tuple]]]:
    """(text, header, rows) of write_cognates, feature_table_to_csv and
    ranking_to_csv on tables whose names are ``labels``."""
    entries = {(lang, con): frozenset({f"{con}|{lang}"}) for lang in labels for con in labels}
    loans = frozenset({(labels[0], labels[-1], f"{labels[-1]}|{labels[0]}")})
    matrix = CognateMatrix(labels, labels, entries, loans)
    cognate_rows = sorted(
        (lang, con, cls, int((lang, con, cls) in loans))
        for (lang, con), classes in entries.items() for cls in classes
    )
    values = np.arange(len(labels) * 6, dtype=float).reshape(-1, 6) / 7
    ranking = SuitabilityRanking(tuple(
        RankedConcept(label, 0.5 * i, -1.0 / (i + 3), 0.5 * i + 1.0 / (i + 3), i + 1, "SE", i % 2)
        for i, label in enumerate(labels)
    ))
    return [
        (write_cognates(matrix), ("language", "concept", "cognate_id", "loan"), cognate_rows),
        (feature_table_to_csv(FeatureTable(labels, FEATURE_COLUMNS, values)),
         ("concept", *FEATURE_COLUMNS),
         [(label, *map(repr, row)) for label, row in zip(labels, values.tolist())]),
        (ranking_to_csv(ranking), ("concept", "pc1", "pc2", "score", "rank", "quadrant", "cluster"),
         [astuple(row) for row in ranking.rows]),
    ]


def test_cognates_features_and_ranking_share_one_csv_dialect():
    """Each writer's text reads back through csv.reader to the fields written,
    and is csv.writer's with LF line ends; a CR, which that writer leaves
    unquoted on Python 3.11 (so a reader splits the row there), is quoted
    like an LF. This pins features.csv, which no golden digest covers."""
    for text, header, rows in _writer_cases(_AWKWARD):
        read = list(csv.reader(io.StringIO(text, newline="")))
        assert read == [list(header), *([str(field) for field in row] for row in rows)]
        assert '"co\rn' in text and "\r\n" not in text
    for text, header, rows in _writer_cases(tuple(s for s in _AWKWARD if "\r" not in s)):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        assert text == buf.getvalue()


_NAMES = ("L1", "L2", "Lx", "eye", "hand", "co\nn", "a,b", 'say "x"', "a\u2028b", "f\x0cg", "K1", "K2")


def _random_table(rng: np.random.Generator) -> str:
    """A small cognate table: synonyms, loans, blank and whitespace-only rows,
    quoted and multi-line cells, LF/CR/CRLF endings, either delimiter, and now
    and then a row or header the loader must refuse."""
    delimiter = "\t" if rng.random() < 0.3 else ","
    header = ["language", "concept", "cognate_id"]
    if rng.random() < 0.8:
        header.append("loan")
    if rng.random() < 0.2:
        header.insert(int(rng.integers(len(header) + 1)), "note")
    header = [str(name) for name in rng.permutation(header)]
    if rng.random() < 0.05:
        header.append(str(rng.choice(header)))
    if rng.random() < 0.03:
        header.remove(str(rng.choice(header)))

    def cell(text: str) -> str:
        if any(c in text for c in (delimiter, '"', "\r", "\n")) or rng.random() < 0.1:
            return '"' + text.replace('"', '""') + '"'
        return str(rng.choice(["", "", "", " ", "\t "])) + text if delimiter == "," else text

    lines = [delimiter.join(header)]
    for _ in range(int(rng.integers(0, 14))):
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["", "  ", "\t", " \u2028"])))
            continue
        values = {
            "language": str(rng.choice(_NAMES[:3])),
            "concept": str(rng.choice(_NAMES[3:10])),
            "cognate_id": str(rng.choice(_NAMES[8:])),
            "loan": str(rng.choice(["0", "1", "", "yes"], p=[0.33, 0.33, 0.32, 0.02])),
            "note": "n",
        }
        if rng.random() < 0.01:
            values[str(rng.choice(header))] = ""
        row = [cell(values[name]) for name in header]
        if rng.random() < 0.02:
            row[int(rng.integers(len(row)))] = str(rng.choice(["junk" + delimiter, '"x"y', '"open']))
        lines.append(delimiter.join(row))
    if rng.random() < 0.02:
        lines.insert(0, " ")
    endings = [str(rng.choice(["\n", "\r", "\r\n"])) for _ in lines]
    if rng.random() < 0.5:
        endings = [endings[0]] * len(lines)
    if rng.random() < 0.2:
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


class TestAgainstNaiveLoader:
    @pytest.mark.parametrize("seed", range(60))
    def test_same_matrix_warnings_and_errors(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        for case in range(10):
            text = _random_table(rng)
            path = tmp_path / f"{case}.csv"
            path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
            stream = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), newline="")
            try:
                expected = oracle_load_cognates(text)
            except CognateFormatError as exc:
                for source in (text, path, stream, io.StringIO(text)):
                    with pytest.raises(CognateFormatError) as err:
                        load_cognates(source)
                    assert type(err.value) is type(exc), text
                    assert (str(err.value), err.value.line) == (str(exc), exc.line), text
                continue
            for source in (text, path, stream, io.StringIO(text)):
                matrix, warnings = load_cognates(source)
                got = (matrix.languages, matrix.concepts, matrix.entries, matrix.loans, warnings)
                assert got == expected, text
                assert list(matrix.entries) == list(expected[2]), text


def test_memory_grows_with_distinct_names_not_rows():
    # The benchmark's 400 x 24 table, 8,496 rows, read as the CLI reads a
    # file. The loader that held each row's own names and class set and
    # copied the text into a StringIO retained about 450 B and peaked at
    # about 720 B per row.
    text = benchmark_corpus()[1]
    n_rows = text.count("\n") - 1
    data = text.encode("utf-8")
    load_cognates(text)  # once untraced, so state the modules build lazily is not counted
    tracemalloc.start()
    try:
        matrix, _ = load_cognates(io.TextIOWrapper(io.BytesIO(data), newline=""))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matrix.entries) > 8000
    assert retained / n_rows <= 225, f"{retained / n_rows:.0f} B/row retained"
    assert peak / n_rows <= 360, f"{peak / n_rows:.0f} B/row at peak"


def test_concept_index_holds_a_tuple_entry_per_membership():
    # Each (language, class) membership of the benchmark's 400 x 24 table is
    # one tuple slot in the concept index. The index that kept a frozenset
    # per class and per concept's attested languages held about 142 B each.
    matrix, _ = load_cognates(benchmark_corpus()[1])
    memberships = sum(len(ids) for ids in matrix.entries.values())
    tracemalloc.start()
    try:
        matrix._index
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / memberships <= 40, f"{retained / memberships:.0f} B per membership"


class TestBinaryTrait:
    def test_fixture_class_k1(self):
        matrix, _ = load_cognates(BASIC)
        presence, mask = binary_trait(matrix, "eye", "K1", ["L1", "L2"])
        assert presence.tolist() == [1, 1]
        assert mask.tolist() == [1, 1]

    def test_missing_language_masked_not_zero(self):
        text = BASIC + "L3,hand,H1,0\n"
        matrix, _ = load_cognates(text)
        presence, mask = binary_trait(matrix, "eye", "K1", ["L1", "L2", "L3"])
        assert mask.tolist() == [1, 1, 0]
        assert presence.tolist() == [1, 1, 0]

    def test_class_k2(self):
        matrix, _ = load_cognates(BASIC)
        presence, _ = binary_trait(matrix, "eye", "K2", ["L1", "L2"])
        assert presence.tolist() == [0, 1]

    def test_taxon_without_rows_is_missing(self):
        matrix, _ = load_cognates(BASIC)
        presence, mask = binary_trait(matrix, "eye", "K2", ["L2", "Martian", "L1"])
        assert presence.tolist() == [1, 0, 0]
        assert mask.tolist() == [1, 0, 1]

    def test_unknown_concept_and_class(self):
        matrix, _ = load_cognates(BASIC)
        with pytest.raises(ValueError, match="unknown concept"):
            binary_trait(matrix, "hand", "K1", ["L1"])
        with pytest.raises(ValueError, match="unknown cognate class"):
            binary_trait(matrix, "eye", "K9", ["L1"])
        with pytest.raises(ValueError, match="unknown cognate class 'K9'"):
            binary_traits(matrix, "eye", ["K1", "K9"], ["L1"])

    def test_presence_zero_wherever_mask_zero(self):
        rng = np.random.default_rng(1)
        rows = ["language,concept,cognate_id,loan"]
        for lang in range(8):
            for con in ("a", "b"):
                if rng.random() < 0.4:
                    continue
                rows.append(f"L{lang},{con},K{rng.integers(3)},0")
        matrix, _ = load_cognates("\n".join(rows) + "\n")
        taxa = [f"L{i}" for i in range(8)]
        for con in matrix.concepts:
            for cls in matrix.classes_for(con):
                presence, mask = binary_trait(matrix, con, cls, taxa)
                assert np.all(presence[mask == 0] == 0)


class TestBinaryTraits:
    def test_each_row_is_the_one_class_trait(self):
        # L2 attests two classes of eye, Martian has no rows, L1 comes twice.
        matrix, _ = load_cognates(BASIC + "L3,eye,K3,0\nL3,hand,H1,0\n")
        taxa = ["L2", "Martian", "L1", "L3", "L1"]
        classes = ["K2", "K1", "K3"]
        presence, mask = binary_traits(matrix, "eye", classes, taxa)
        assert presence.dtype == mask.dtype == np.int8
        assert presence.tolist() == [[1, 0, 0, 0, 0], [1, 0, 1, 0, 1], [0, 0, 0, 1, 0]]
        for row, cls in zip(presence, classes):
            one, one_mask = binary_trait(matrix, "eye", cls, taxa)
            assert row.tolist() == one.tolist()
            assert mask.tolist() == one_mask.tolist() == [1, 0, 1, 1, 1]


class TestConceptSummary:
    def test_sizes_and_singletons(self):
        # classes sized {3,1,1} over 4 attested languages (L1 has a synonym)
        text = (
            "language,concept,cognate_id,loan\n"
            "L1,eye,K1,0\nL2,eye,K1,0\nL3,eye,K1,0\n"
            "L1,eye,K2,0\nL4,eye,K3,0\n"
        )
        matrix, _ = load_cognates(text)
        summary = concept_summary(matrix, "eye")
        assert summary.n_classes == 3
        assert summary.n_singletons == 2
        assert summary.n_attested_languages == 4
        assert summary.class_sizes == {"K1": 3, "K2": 1, "K3": 1}

    def test_universal_single_class(self):
        text = "language,concept,cognate_id,loan\n" + "".join(
            f"L{i},eye,K1,0\n" for i in range(5)
        )
        matrix, _ = load_cognates(text)
        summary = concept_summary(matrix, "eye")
        assert summary.n_singletons == 0
        assert summary.n_classes == 1
        assert summary.n_attested_languages == 5

    def test_unknown_concept(self):
        matrix, _ = load_cognates(BASIC)
        with pytest.raises(ValueError, match="unknown concept"):
            concept_summary(matrix, "hand")

    def test_attestation_sum_at_least_language_count(self):
        matrix, _ = load_cognates(BASIC)
        summary = concept_summary(matrix, "eye")
        assert sum(summary.class_sizes.values()) >= summary.n_attested_languages
