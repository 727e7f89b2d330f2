import pytest

from semmap.tsv import TsvError, format_rows, read_rows


def write(tmp_path, text, name="t.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_read_rows_skips_comments_and_blank_lines(tmp_path):
    path = write(tmp_path, "# semmap config=abc seed=1\n\na\t1\n# note\tx\n\nb\t2\n")
    assert read_rows(path, str, int) == [["a", 1], ["b", 2]]


def test_read_rows_width_from_first_row_with_rest(tmp_path):
    path = write(tmp_path, "# h\nr1\t0.5\t-1\nr2\t2\t3e-3\n")
    assert read_rows(path, str, rest=float) == [["r1", 0.5, -1.0], ["r2", 2.0, 0.003]]
    assert read_rows(write(tmp_path, "row_id\tx\n", "h.tsv"), rest=str) == [["row_id", "x"]]


def test_read_rows_skips_a_leading_header_only(tmp_path):
    path = write(tmp_path, "# h\niso\tn\naa\t1\n")
    assert read_rows(path, str, int, header=("iso", "n")) == [["aa", 1]]
    with pytest.raises(TsvError, match=r"t\.tsv:2: "):
        read_rows(write(tmp_path, "aa\t1\niso\tn\n"), str, int, header=("iso", "n"))


@pytest.mark.parametrize("text, line", [
    ("a\t1\nb\t2\tx\n", 2),          # a field too many
    ("# h\n\na\n", 3),               # a field too few
    ("a\t1\nb\t2\n\nc\n", 4),
])
def test_read_rows_wrong_field_count_names_path_and_line(tmp_path, text, line):
    path = write(tmp_path, text)
    with pytest.raises(TsvError, match=rf"t\.tsv:{line}: expected 2 fields, got \d"):
        read_rows(path, str, int)


def test_read_rows_rest_rows_must_match_the_first(tmp_path):
    with pytest.raises(TsvError, match=r"t\.tsv:3: expected 3 fields, got 2"):
        read_rows(write(tmp_path, "r1\t1\t2\n\nr2\t1\n"), str, rest=float)
    with pytest.raises(TsvError, match=r"t\.tsv:1: expected at least 2 fields, got 1"):
        read_rows(write(tmp_path, "r1\nr2\n"), str, rest=float)


def test_read_rows_rejected_cell_names_path_and_line(tmp_path):
    path = write(tmp_path, "# h\na\t1\nb\tone\n")
    with pytest.raises(TsvError, match=r"t\.tsv:3: invalid literal for int"):
        read_rows(path, str, int)


def test_read_rows_rejects_non_utf8(tmp_path):
    path = tmp_path / "b.tsv"
    path.write_bytes(b"a\t\xff\n")
    with pytest.raises(TsvError, match="not UTF-8"):
        read_rows(path, str, str)


def test_format_rows_round_trips(tmp_path):
    rows = [("x", "y"), ("a", 1), ("NULL", "2.500000")]
    text = format_rows(rows, header="semmap config=abc seed=1")
    assert text == "# semmap config=abc seed=1\nx\ty\na\t1\nNULL\t2.500000\n"
    assert format_rows(rows) == text.split("\n", 1)[1]
    assert format_rows([]) == ""
    path = write(tmp_path, text)
    assert read_rows(path, str, str) == [["x", "y"], ["a", "1"], ["NULL", "2.500000"]]
