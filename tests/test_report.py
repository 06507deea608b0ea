import pytest

from ekd.report import ResultTable, summarize
from ekd.wer import WerBreakdown


def make_table(wer_value=0.25):
    t = ResultTable()
    t.set("d_test", "teacher_a", False, WerBreakdown(1, 1, 0, 8))
    t.set("d_test", "teacher_a", True, WerBreakdown(1, 0, 0, 8))
    t.set("d_test", "student_x", False, WerBreakdown(2, 0, 0, 8))
    return t


def test_tsv_round_trip():
    t = make_table()
    again = ResultTable.from_tsv(t.to_tsv())
    assert again.to_tsv() == t.to_tsv()
    cell = again.get("d_test", "teacher_a", False)
    assert cell.breakdown.wer == 0.25


def test_cell_not_ok_is_refused():
    # A failed cell an older evaluate wrote is reported, not shown as "---".
    header, *rows = make_table().to_tsv().splitlines()
    failed = "d_test\tstudent_y\toff\t\t\t\t\t\tfailed: boom"
    with pytest.raises(ValueError, match="line 5: cell student_y on d_test \\(lm off\\) has "
                                         "status 'failed: boom'; delete the results table "
                                         "and re-run 'evaluate'"):
        ResultTable.from_tsv("\n".join([header, *rows, failed]) + "\n")
    assert all(cell.status == "ok" for cell in make_table().cells.values())


@pytest.mark.parametrize("row, problem", [
    ("d_test\tteacher_a\toff\t0.25\t1", "5 fields, expected 9"),
    ("d_test\tteacher_a\toff\t0.25\t1\tx\t0\t8\tok", "invalid literal for int"),
    ("d_test\tteacher_a\tyes\t0.25\t1\t1\t0\t8\tok", "lm is 'yes', not 'on' or 'off'")],
    ids=["short-row", "non-integer-count", "bad-lm"])
def test_unparsable_cell_file_names_file_and_line(row, problem):
    header = make_table().to_tsv().splitlines()[0]
    with pytest.raises(ValueError) as err:
        ResultTable.from_tsv(f"{header}\n\n{row}\n", "cells/b.tsv")
    assert str(err.value).startswith(f"cells/b.tsv line 3: {problem}")
    assert str(err.value).endswith("; delete cells/b.tsv and re-run 'evaluate'")


def test_repeated_cell_is_refused():
    header, first, *rows = make_table().to_tsv().splitlines()
    with pytest.raises(ValueError, match="cells/b.tsv line 5: cell student_x on d_test "
                                         "\\(lm off\\) is repeated"):
        ResultTable.from_tsv("\n".join([header, first, *rows, first]) + "\n", "cells/b.tsv")


def test_text_table_lists_models_by_test_set():
    text = make_table().to_text()
    assert "test set: d_test" in text
    assert "teacher_a" in text and "student_x" in text
    assert "12.50" in text  # 1/8 with LM on


def test_summary_means():
    per_seed = {}
    for seed, errs in ((1, 2), (2, 4)):
        t = ResultTable()
        t.set("d_test", "m", False, WerBreakdown(errs, 0, 0, 8))
        per_seed[seed] = t
    tsv = summarize(per_seed)
    line = [ln for ln in tsv.splitlines() if ln.startswith("d_test")][0]
    fields = line.split("\t")
    assert float(fields[3]) == (2 / 8 + 4 / 8) / 2
    assert fields[5] == "2"


def test_summary_only_common_cells():
    a = ResultTable()
    a.set("d_test", "m", False, WerBreakdown(1, 0, 0, 4))
    a.set("d_test", "extra", False, WerBreakdown(1, 0, 0, 4))
    b = ResultTable()
    b.set("d_test", "m", False, WerBreakdown(2, 0, 0, 4))
    tsv = summarize({1: a, 2: b})
    assert "extra" not in tsv
