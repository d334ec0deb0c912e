"""Property test of the exit-code contract on the matrix commands: whatever
JSON arrives, the exit code is 0 or 2, nothing escapes ``main``, and an exit
2 prints exactly one ``error:`` line."""

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bruhatkit.cli import main

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
ODD_ENTRIES = st.sampled_from(["1/2", "-3/4", "x", "1/0", " 2 ", 1.5, True]) | JSON
ODD_FIELDS = st.sampled_from([{"p": 4}, {"p": -3}, {"p": 2**31 + 11}, "R"]) | JSON


@st.composite
def matrix_objects(draw):
    """Mostly well-formed square matrices, so that the commands run; each
    part is malformed an eighth of the time."""

    def mostly(good, bad):
        return draw(good if draw(st.integers(0, 7)) else bad)

    rows = mostly(st.integers(2, 4), st.integers(0, 1))
    cols = mostly(st.just(rows), st.integers(0, 4))

    def grid(entry):
        return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)

    return {
        "field": mostly(st.sampled_from(["Q", {"p": 2}, {"p": 5}]), ODD_FIELDS),
        "rows": mostly(st.just(rows), JSON),
        "cols": mostly(st.just(cols), JSON),
        "entries": mostly(grid(st.integers(-7, 7)), grid(st.integers(-7, 7) | ODD_ENTRIES) | JSON),
    }


def _main(args, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(args)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=JSON | matrix_objects())
def test_matrix_commands_exit_0_or_2_with_one_error_line(doc, tmp_path_factory):
    text = json.dumps(doc)
    path = tmp_path_factory.getbasetemp() / "matrix.json"
    path.write_text(text)
    # inline only where the text cannot read as an option (argparse's concern)
    calls = [(["decompose", str(path)], ""), (["relpos", "-", str(path)], text)]
    if text.startswith(("{", "[")):
        calls.append((["decompose", text], ""))
    for args, stdin_text in calls:
        rc, out, err = _main(args, stdin_text)
        assert rc in (0, 2)
        if rc == 2:
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("error: ")
        else:
            assert err == ""
