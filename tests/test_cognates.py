import numpy as np
import pytest

from lexiphylo.cognates import (
    CognateFormatError,
    binary_trait,
    concept_summary,
    load_cognates,
    write_cognates,
)

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
