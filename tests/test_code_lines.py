"""``tests/code_lines.py`` counts code lines: no blank, comment or docstring lines."""

import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def f(x):
    """Function docstring."""
    text = """a string that is
    no docstring"""
    return math.sqrt(x), text


class C:
    """Class docstring,

    with a blank line inside."""

    y = (
        1
    )
'''


def test_code_lines_skip_blank_comment_and_docstring_lines():
    # import, def, text's two lines, return, class and y's three lines
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 10, 17, 18, 19}
