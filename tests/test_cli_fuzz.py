"""CLI robustness: mutated monad files end in exit 0, 1 or 2 with at most one
line on stderr, and no exception escapes ``cli.run``.

The mutations start from the golden inputs: truncated, duplicated or deleted
lines, a token replaced by a malformed, huge or zero one, and header numbers (n, k
or the field's prime) shifted by two.  Files are written under ``tmp_path``.
"""

import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from monadlab import cli

INPUTS = sorted((Path(__file__).parent / "golden" / "cli" / "inputs").glob("*.mnd"))
COMMANDS = [["det-q"], ["syzygy"], ["syzygy", "--verify"], ["build-q"],
            ["check", "--form", "orthogonal", "--trials", "3"],
            ["check", "--form", "symplectic", "--trials", "3"]]
# malformed tokens, and valid ones that change the data but keep the file readable
TOKENS = ["-", "1/0", "x", "12345678901234567890", "0", "-2/3"]


@st.composite
def mutated_monad_text(draw) -> str:
    lines = draw(st.sampled_from(INPUTS)).read_text(encoding="ascii").splitlines()
    for _ in range(draw(st.integers(0, 3))):  # none: the golden input as it is
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["truncate", "duplicate", "delete", "token", "header"]))
        if op == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, max(0, len(lines[i]) - 1)))]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "delete":
            del lines[i]
        elif op == "token" and lines[i].split():
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
        elif op == "header" and re.search(r"\d", lines[0]):
            number = draw(st.sampled_from(list(re.finditer(r"\d+", lines[0]))))
            shifted = str(int(number.group()) + draw(st.sampled_from([-2, 2])))
            lines[0] = lines[0][:number.start()] + shifted + lines[0][number.end():]
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_monad_text(), command=st.sampled_from(COMMANDS))
def test_mutated_monad_file_ends_in_an_exit_code_and_at_most_one_error_line(
        tmp_path, capsys, text, command):
    path = tmp_path / "fuzz.mnd"
    path.write_text(text, encoding="ascii")
    capsys.readouterr()
    code = cli.run([command[0], "--in", str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1
