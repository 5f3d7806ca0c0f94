"""Source guards: the summation rule, no private helper without a caller,
the package exports declared once, in the modules' __all__ lists, no
public function that only forwards to another, and records that compare
by identity.

Every sum over providers runs left to right (model._left_sum over floats,
model._running_total along an array's last axis), so identical inputs give
byte-identical artifacts whatever BLAS kernel the CPU selects.  The
rank-one block that solver writes out per component count is source too:
it passes the same guard, and each of its sums is one left-nested chain
in component order.  Every module-level private def or class is used by
some other top-level statement of the package, so a helper whose callers
are gone is noticed.  No function of a module's __all__ is a second
spelling of another public name: its body, after its docstring, is not
one return of a call to a name of the package's __all__ lists.  Every
dataclass passes eq=False: a generated __eq__ cannot compare the arrays
a record holds, and a frozen one's generated __hash__ cannot hash them.
"""

import ast
import io
import pathlib
import re
import tokenize

import pytest

import eccsim
from eccsim.solver import CHAIN_TERMS, _rank_one_source

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


def unchained_sums(source: str) -> list[int]:
    """Line of each sum over components in `source` that is not one
    left-nested chain, in component order, from 0.0 or from where its own
    target's last statement stopped.

    A sum over components is an assignment to a name whose value adds terms
    that name a component, `<stem>_<index>`; no term may add or subtract.
    """
    found, ends = [], {}
    assigns = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Assign)
               and isinstance(node.targets[0], ast.Name)]
    for node in sorted(assigns, key=lambda node: node.lineno):
        target, head, terms = node.targets[0].id, node.value, []
        while isinstance(head, ast.BinOp) and isinstance(head.op, ast.Add):
            terms.insert(0, head.right)
            head = head.left
        leaves = [list(ast.walk(term)) for term in terms]
        indices = [{int(m.group(1)) for leaf in term
                    if isinstance(leaf, ast.Name)
                    and (m := re.search(r"_(\d+)$", leaf.id))}
                   for term in leaves]
        if not any(indices):
            continue
        first = (0 if isinstance(head, ast.Constant) and head.value == 0.0
                 else ends.get(target) if isinstance(head, ast.Name)
                 and head.id == target else None)
        nested = any(isinstance(leaf, ast.BinOp)
                     and isinstance(leaf.op, (ast.Add, ast.Sub))
                     for term in leaves for leaf in term)
        if first is None or nested or indices != [
                {first + k} for k in range(len(terms))]:
            found.append(node.lineno)
        ends[target] = (first or 0) + len(terms)
    return found


@pytest.mark.parametrize("n", [*range(1, 11), 2 * CHAIN_TERMS + 1])
def test_generated_block_keeps_the_summation_rule(n):
    # The block's eight sums, the step's seven and its new total: each
    # started from 1.0 instead, the guard flags all eight.
    source = _rank_one_source(n)
    assert offences(source) == []
    assert unchained_sums(source) == []
    assert len(unchained_sums(source.replace(" = 0.0 + ", " = 1.0 + "))) == 8


def test_chain_guard_sees_every_form():
    code = ("a = 0.0 + x_0 * y_0 + x_1 * y_1\n"
            "b = 0.0 + x_0\nb = b + x_1 + x_2\n"
            "c = 0.0 + (x_0 + x_1)\n"          # 4: nested
            "d = x_0 + x_1\n"                  # 5: not from 0.0
            "e = 0.0 + x_1 + x_0\n"            # 6: out of order
            "f = 0.0 + x_0\nf = a + x_1\n"    # 8: continues another name
            "g = 0.0 + x_0\ng = g + x_0\n"    # 10: repeats a component
            "h = 0.0 + x_0 * (y_0 - z_0)\n"    # 11: a term subtracts
            "k = 0.0 + x_0 - x_1\n"            # not a sum
            "m = a + half * (b - c)\n")        # not over components
    assert unchained_sums(code) == [4, 5, 6, 8, 10, 11]


def uncalled(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level private def or class that no other
    top-level statement of `sources` (module name -> code) names."""
    found, used = [], []
    for module, code in sources.items():
        for stmt in ast.parse(code).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt)
                      if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(stmt)
                      if isinstance(n, ast.ImportFrom) for a in n.names}
            own = (stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                   and stmt.name.startswith("_")
                   and not stmt.name.startswith("__") else None)
            if own is not None:
                found.append((module, own))
            used.append((module, own, names))
    return [f"{module}.{name}" for module, name in found
            if not any(name in names for m, own, names in used
                       if (m, own) != (module, name))]


def test_every_private_helper_has_a_caller():
    assert uncalled({p.stem: p.read_text(encoding="utf-8")
                     for p in SOURCES}) == []


def test_caller_guard_ignores_the_helper_itself():
    sources = {
        "a": ("def _used():\n    return 1\n\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n\n"
              "def _only_in_docs():\n    '_only_in_docs'\n\n"
              "def public():\n    return _used()\n"),
        "b": "from .a import _imported\n",
        "c": "def _imported():\n    pass\n\nclass _Orphan:\n    pass\n",
    }
    assert uncalled(sources) == ["a._recursive", "a._only_in_docs",
                                 "c._Orphan"]


def test_package_exports_the_modules_lists():
    # eccsim's public names are declared once, in the modules' __all__.
    from eccsim import model, replicator, solver, stackelberg

    lists = [m.__all__ for m in (model, replicator, stackelberg, solver)]
    assert sorted(eccsim.__all__) == sorted(name for names in lists
                                            for name in names)
    assert len(set(eccsim.__all__)) == len(eccsim.__all__)
    for name in eccsim.__all__:
        assert getattr(eccsim, name) is not None
    for name in ("provider_power", "grid_steps", "check_delay",
                 "check_stability"):
        assert name in eccsim.__all__


def public_names(tree: ast.Module) -> list[str]:
    """The strings of a module's top-level `__all__ = [...]`, or []."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets)
                and isinstance(stmt.value, (ast.List, ast.Tuple))):
            return [e.value for e in stmt.value.elts
                    if isinstance(e, ast.Constant)]
    return []


def delegations(sources: dict[str, str]) -> list[str]:
    """`module.name -> callee` of each function of a module's __all__ whose
    body, after its docstring, is one return of a call to another name in
    the __all__ lists of `sources` (module name -> code), called bare or
    as an attribute (`module.name(...)`)."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    package = {name for tree in trees.values() for name in public_names(tree)}
    found = []
    for module, tree in trees.items():
        own = set(public_names(tree))
        for stmt in tree.body:
            if not (isinstance(stmt, ast.FunctionDef) and stmt.name in own):
                continue
            body = stmt.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            if not (len(body) == 1 and isinstance(body[0], ast.Return)
                    and isinstance(body[0].value, ast.Call)):
                continue
            func = body[0].value.func
            callee = (func.id if isinstance(func, ast.Name) else
                      func.attr if isinstance(func, ast.Attribute) else None)
            if callee in package and callee != stmt.name:
                found.append(f"{module}.{stmt.name} -> {callee}")
    return found


def test_no_public_function_only_forwards():
    assert delegations({p.stem: p.read_text(encoding="utf-8")
                        for p in SOURCES}) == []


def test_forwarding_guard_sees_every_form():
    sources = {
        "a": ('__all__ = ["f", "g", "h", "k", "m", "n", "p", "q"]\n\n'
              'def f(x):\n    """Docstring."""\n    return g(x, x)\n\n'
              "def g(x, y):\n    return x\n\n"
              "def h(x):\n    return b.r(x)\n\n"
              "def k(x):\n    check(x)\n    return g(x, x)\n\n"
              "def m(x):\n    return _private(x)\n\n"
              "def n(x):\n    return g(x, x) + 1\n\n"
              "def p(x):\n    return p(x - 1)\n\n"
              "def q(x):\n    return Field(x).rate(x)\n\n"
              "def unlisted(x):\n    return g(x, x)\n"),
        "b": '__all__ = ("r",)\n\ndef r(x):\n    """Only a docstring."""\n',
    }
    assert delegations(sources) == ["a.f -> g", "a.h -> r"]


def generated_equality(source: str) -> list[str]:
    """Name of each class of `source` whose @dataclass decorator does not
    pass eq=False."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = dec.func if call else dec
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name == "dataclass" and not (call and any(
                    k.arg == "eq" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in call.keywords)):
                found.append(node.name)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_record_compares_by_identity(path):
    assert generated_equality(path.read_text(encoding="utf-8")) == []


def test_equality_guard_sees_every_form():
    code = ("@dataclass\nclass A:\n    x: int\n\n"
            "@dataclass(frozen=True)\nclass B:\n    x: int\n\n"
            "@dataclasses.dataclass(eq=True)\nclass C:\n    x: int\n\n"
            "@dataclass(eq=False)\nclass D:\n    x: int\n\n"
            "@dataclasses.dataclass(frozen=True, eq=False)\n"
            "class E:\n    x: int\n\n"
            "@register\nclass F:\n    pass\n")
    assert generated_equality(code) == ["A", "B", "C"]
