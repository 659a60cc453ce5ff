import os
import subprocess
import sys
import textwrap

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "code_lines.py")


def count(tmp_path, source):
    path = tmp_path / "sample.py"
    path.write_text(textwrap.dedent(source))
    result = subprocess.run([sys.executable, TOOL, str(path)], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1].split() == [lines[0].split()[0], "total"]
    return int(lines[0].split()[0])


def test_docstrings_comments_and_blank_lines_do_not_count(tmp_path):
    source = '''
        """Module docstring,
        on two lines."""

        # a comment
        import os  # a trailing comment


        class A:
            """Class docstring."""

            def f(self):
                """Function docstring."""
                return os.sep
    '''
    assert count(tmp_path, source) == 4  # import, class, def, return


def test_strings_that_are_not_docstrings_count_on_each_line(tmp_path):
    source = '''
        TEXT = """one
        two"""
        x = (1,

             2)
        "a string after the first statement is code"
    '''
    assert count(tmp_path, source) == 5


def test_directories_are_read_recursively(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "sub" / "b.py").write_text("y = 2\nz = 3\n")
    result = subprocess.run([sys.executable, TOOL, str(tmp_path / "pkg")], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].split() == ["3", "total"]
