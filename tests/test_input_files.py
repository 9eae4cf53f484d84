"""Spec, map and word-list files share one line syntax.

Each reader takes the same hand-written layout: a comment-only header, a
blank line and a comment-only line before each entry, a trailing comment
after it, and CRLF line ends.  Each parses as the comment-free file does,
and an error names the bad line's number as counted in the file.
"""

import re

import pytest

from wordavoid import ParseError, format_spec, parse_spec
from wordavoid.cli import main
from wordavoid.morphisms import parse_morphism, parse_substitution
from wordavoid.words import content_lines

from conftest import format_morphism, format_substitution


def laid_out(entries):
    """The text of a file holding `entries` in the shared layout, and the
    line number of each entry in it."""
    lines, numbers = ["# a hand-written file"], []
    for entry in entries:
        lines += ["", "   # the next entry"]
        lines.append(f"{entry}  # trailing note")
        numbers.append(len(lines))
    return "\r\n".join(lines) + "\r\n", numbers


def with_bad_line(entries, bad):
    """`laid_out` with the second entry replaced by `bad`, and that line's
    number."""
    text, numbers = laid_out([entries[0], bad, *entries[2:]])
    return text, numbers[1]


def test_content_lines_number_every_line():
    text = "alphabet 2\r\n\r\n# note\r\n  forbid 00 # runs\r\n#\r\n"
    assert list(content_lines(text)) == [(1, "alphabet 2"), (4, "forbid 00")]


def test_spec_file_layout(registry):
    for name in ("dekking_binary", "fs_binary", "pu_source"):
        entries = format_spec(getattr(registry, name)).splitlines()
        text, _ = laid_out(entries)
        assert parse_spec(text) == parse_spec("\n".join(entries))
    entries = format_spec(registry.fs_binary).splitlines()
    text, number = with_bad_line(entries, "squares sideways")
    with pytest.raises(ParseError, match=f"^line {number}: "):
        parse_spec(text)


@pytest.mark.parametrize("name, parse, fmt", [
    ("dekking_h", parse_morphism, format_morphism),
    ("fs_g", parse_morphism, format_morphism),
    ("dekking_sub", parse_substitution, format_substitution),
    ("fs_sub", parse_substitution, format_substitution),
])
def test_map_file_layout(registry, name, parse, fmt):
    entries = fmt(getattr(registry, name)).splitlines()
    text, _ = laid_out(entries)
    assert parse(text) == parse("\n".join(entries)) == getattr(registry, name)
    for bad, reason in (("1 -> 01x0", "bad letter 'x' in word"),
                        ("1 = 0110", "expected `letter -> image`"),
                        ("0 -> 0110", "duplicate letter 0")):
        text, number = with_bad_line(entries, bad)
        with pytest.raises(ParseError,
                           match=f"^line {number}: {re.escape(reason)}$"):
            parse(text)


def test_morphism_file_rejects_alternate_images(registry):
    entries = format_substitution(registry.dekking_sub).splitlines()
    text, numbers = laid_out(entries)
    with pytest.raises(ParseError, match=f"^line {numbers[1]}: alternate"
                                         " images not allowed here$"):
        parse_morphism(text)


def run_word_list(capsys, tmp_path, command, text):
    """Run `scan --factors` or `growth --forbidden` on a word list holding
    `text`, written byte for byte."""
    listing = tmp_path / "list.txt"
    listing.write_bytes(text.encode())
    word = tmp_path / "word.txt"
    word.write_text("0010110111")
    argv = {"scan": ["scan", "--word", str(word), "--factors", str(listing)],
            "growth": ["growth", "--forbidden", str(listing)]}[command]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ["scan", "growth"])
def test_word_list_layout(capsys, tmp_path, command):
    entries = ["111", "000", "0101"]
    text, _ = laid_out(entries)
    noisy = run_word_list(capsys, tmp_path, command, text)
    clean = run_word_list(capsys, tmp_path, command, "\n".join(entries))
    assert noisy[:2] == clean[:2]
    assert noisy[0] == (1 if command == "scan" else 0)
    text, number = with_bad_line(entries, "01a0")
    code, out, err = run_word_list(capsys, tmp_path, command, text)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (f"error: line {number}: bad letter 'a'"
                                    " in word")

