"""Source guard for the summation rule: no BLAS call or reordered sum enters.

Every sum over providers runs left to right (model._left_sum over floats,
model._running_total along an array's last axis), so identical inputs give
byte-identical artifacts whatever BLAS kernel the CPU selects.
"""

import io
import pathlib
import tokenize

import pytest

import eccsim

SOURCES = sorted(pathlib.Path(eccsim.__file__).parent.glob("*.py"))
# Names that sum in another order or through BLAS.
BANNED = {"fsum", "dot", "einsum", "matmul", "inner", "tensordot"}
# Tokens after which an `@` opens a line, so it is a decorator.
LINE_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENCODING}


def offences(source: str) -> list[tuple[int, str]]:
    """(line, token) of each banned summation; strings and comments skipped."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.STRING)]
    found = []
    prev_type = tokenize.NEWLINE
    for tok, nxt in zip(tokens, tokens[1:] + tokens[-1:]):
        if tok.type == tokenize.NAME and (
                tok.string in BANNED
                or tok.string == "sum" and nxt.string == "("):
            found.append((tok.start[0], tok.string))
        elif tok.type == tokenize.OP and tok.string in ("@", "@=") and (
                tok.string == "@=" or prev_type not in LINE_START):
            found.append((tok.start[0], tok.string))
        prev_type = tok.type
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_reordered_sum_in_source(path):
    assert offences(path.read_text(encoding="utf-8")) == []


def test_guard_reads_every_module():
    assert {p.name for p in SOURCES} >= {"cli.py", "model.py", "replicator.py",
                                         "solver.py", "stackelberg.py"}


def test_guard_sees_every_form():
    code = ("a = x.sum(axis=0)\nb = sum(v)\nc = math.fsum(v)\n"
            "d = np.dot(u, v)\ne = np.einsum('i,i', u, v)\n"
            "f = np.matmul(u, v)\ng = np.inner(u, v)\n"
            "h = np.tensordot(u, v)\ni = u @ v\nu @= v\n")
    assert [line for line, _ in offences(code)] == list(range(1, 11))


def test_guard_skips_strings_comments_and_decorators():
    code = ('@property\ndef f(self):\n    """sum(x) and u @ v."""\n'
            "    @staticmethod\n    def g():\n"
            "        return _left_sum(v)  # not x.sum() nor np.dot\n"
            "s = 'x.sum(1)'\n")
    assert offences(code) == []
