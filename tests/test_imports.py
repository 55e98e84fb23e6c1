"""Every module of the package and of the tests reads each name it imports,
only `corpus.write_file` writes a file in the package, only
`corpus.build_sentence` makes a `Sentence` there, only `tagging.encode` and
`scorer.tag_grid` allocate an int8 tag grid there, `rel_tag_emb` meets no
matrix product in `scorer` but through the difference matrix D, `scorer`
holds no generator, and `train` sets every field of `TrainConfig`."""

import ast
import re
from pathlib import Path

import pytest

from relgrid.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "relgrid").glob("*.py"), *(ROOT / "tests").glob("*.py")])
PACKAGE = sorted((ROOT / "src" / "relgrid").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, in source order;
    `from __future__` imports are directives, not bindings."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {lineno}: {name}" for lineno, name in sorted(bound) if name not in read]


def test_finds_an_unused_import():
    source = "import os\nimport os.path\nfrom a import b as c, d\nfrom __future__ import annotations\nd()\n"
    assert unused_imports(source) == ["line 1: os", "line 2: os", "line 3: c"]
    assert unused_imports("import os.path\nos.path.join()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _nodes_in(tree: ast.AST, name: str | None) -> set[int]:
    """The ids of the nodes inside every function named `name`."""
    return {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and fn.name == name for node in ast.walk(fn)}


def _mode(call: ast.Call) -> str | None:
    """The mode string an open call is given: its `mode=` keyword, else the
    first of its first two arguments that is a string of mode letters."""
    given = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[:2]
    for arg in given:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and re.fullmatch(r"[rwaxbt+]+", arg.value):
            return arg.value
    return None


def direct_writes(source: str) -> list[str]:
    """Calls outside a function named write_file that write, replace or sync
    a file: write_text, write_bytes, os.replace, os.fsync, and open or .open
    with a w, a or x mode."""
    tree = ast.parse(source)
    helper = _nodes_in(tree, "write_file")
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in helper:
            continue
        call = ast.unparse(node.func)
        name = call.rsplit(".", 1)[-1]
        if (name in ("write_text", "write_bytes") or call in ("os.replace", "os.fsync")
                or name == "open" and set(_mode(node) or "") & set("wax")):
            found.append((node.lineno, call))
    return [f"line {lineno}: {call}" for lineno, call in sorted(found)]


def test_finds_a_direct_write():
    source = (
        "import os\n"
        "def write_file(p):\n    open(p, 'wb')\n    os.fsync(3)\n    os.replace(p, q)\n"
        "def other(p):\n    p.write_text('a')\n    open(p, 'rb')\n    open(p)\n    p.open('a')\n"
        "    open(p, mode='x')\n    os.fsync(3)\n    p.read_text()\n    gzip.open(p, 'wt')\n"
    )
    assert direct_writes(source) == [
        "line 7: p.write_text", "line 10: p.open", "line 11: open", "line 12: os.fsync", "line 14: gzip.open",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_only_write_file_writes(path):
    assert direct_writes(path.read_text(encoding="utf-8")) == []


def sentence_calls(source: str, builder: str | None) -> list[str]:
    """Calls of `Sentence`, by that name or as an attribute, outside a
    function named `builder`."""
    tree = ast.parse(source)
    inside = _nodes_in(tree, builder)
    found = [
        (node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside
        and ast.unparse(node.func).rsplit(".", 1)[-1] == "Sentence"
    ]
    return [f"line {lineno}: {call}" for lineno, call in sorted(found)]


def test_finds_a_direct_sentence_call():
    source = (
        "def build_sentence(t):\n    return Sentence(t)\n"
        "def other(t):\n    corpus.Sentence(t)\n    make(Sentence)\n    return Sentence(tokens=t, id='x')\n"
    )
    assert sentence_calls(source, "build_sentence") == ["line 4: corpus.Sentence", "line 6: Sentence"]
    assert sentence_calls(source, None) == ["line 2: Sentence", "line 4: corpus.Sentence", "line 6: Sentence"]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_only_build_sentence_makes_a_sentence(path):
    builder = "build_sentence" if path.name == "corpus.py" else None
    assert sentence_calls(path.read_text(encoding="utf-8"), builder) == []


ALLOCATORS = {"np.zeros": 1, "np.empty": 1, "np.full": 2}  # call -> position of its dtype argument
GRID_BUILDERS = {"tagging.py": "encode", "scorer.py": "tag_grid"}


def int8_allocations(source: str, builder: str | None) -> list[str]:
    """Calls of np.zeros, np.empty or np.full with an int8 dtype, by keyword
    or by position, outside a function named `builder`."""
    tree = ast.parse(source)
    inside = _nodes_in(tree, builder)
    found = []
    for node in ast.walk(tree):
        call = ast.unparse(node.func) if isinstance(node, ast.Call) else None
        if call not in ALLOCATORS or id(node) in inside:
            continue
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[ALLOCATORS[call]:]
        if any(ast.unparse(dtype) in ("np.int8", "'int8'") for dtype in dtypes):
            found.append((node.lineno, call))
    return [f"line {lineno}: {call}" for lineno, call in sorted(found)]


def test_finds_an_int8_allocation():
    source = (
        "def encode(n):\n    return np.zeros((n, n), dtype=np.int8)\n"
        "def other(n):\n    np.zeros(n, dtype=np.int8)\n    np.empty(n, np.int8)\n"
        "    np.full(n, 0, dtype='int8')\n    np.full(n, 0, np.int8)\n    np.zeros(n, dtype=np.int64)\n"
        "    np.full(n, 8)\n    np.array([0], dtype=np.int8)\n"
    )
    assert int8_allocations(source, "encode") == [
        "line 4: np.zeros", "line 5: np.empty", "line 6: np.full", "line 7: np.full",
    ]
    assert int8_allocations(source, None)[0] == "line 2: np.zeros"


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_only_the_codec_and_tag_grid_make_a_tag_grid(path):
    """One gold-grid builder (tagging.encode) and one predicted-grid builder (scorer.tag_grid)."""
    assert int8_allocations(path.read_text(encoding="utf-8"), GRID_BUILDERS.get(path.name)) == []


PRODUCTS = {"np.matmul", "np.dot", "np.einsum", "np.tensordot", "np.inner", "np.outer", "np.vdot"}


def product_operands(source: str) -> list[tuple[int, str]]:
    """(line, source) of each operand of a matrix product: either side of @ or @=,
    and the positional arguments of np.matmul, np.dot and the other products."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found += [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            found += [node.target, node.value]
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in PRODUCTS:
            found += node.args
    return sorted((operand.lineno, ast.unparse(operand)) for operand in found)


def reads(operand: str, name: str) -> bool:
    """Whether an operand's source reads `name`, as a variable or as a dict key."""
    return any(
        isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Constant) and node.value == name
        for node in ast.walk(ast.parse(operand, mode="eval"))
    )


def test_finds_a_product_operand():
    source = 'a @ w["rel_tag_emb"]\nb @= c\nnp.matmul(d, e.T, out=f)\nnp.dot(g, h)\nnp.add(i, j)\n'
    assert product_operands(source) == [
        (1, "a"), (1, "w['rel_tag_emb']"), (2, "b"), (2, "c"), (3, "d"), (3, "e.T"), (4, "g"), (4, "h"),
    ]
    assert reads("w['rel_tag_emb'] - 1", "rel_tag_emb") and reads("rel_tag_emb.T", "rel_tag_emb")
    assert not reads("diffs.T", "rel_tag_emb")


def test_rel_tag_emb_meets_the_hidden_layer_only_through_d():
    """The scorer multiplies the hidden layer by the hidden x 3K tag-minus-NONE
    matrix D (`diffs`), never by the hidden x 4K rel_tag_emb."""
    operands = product_operands((ROOT / "src" / "relgrid" / "scorer.py").read_text(encoding="utf-8"))
    assert [op for op in operands if reads(op[1], "rel_tag_emb")] == []
    assert {op for _, op in operands if reads(op, "diffs")} == {"diffs", "diffs.T"}


def yields(source: str) -> list[int]:
    """The line of each `yield` and `yield from`."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Yield, ast.YieldFrom))
    )


def test_finds_a_yield():
    source = "def f(xs):\n    for x in xs:\n        yield x\n    yield from xs\nys = (x for x in [])\n"
    assert yields(source) == [3, 4]


def test_scorer_holds_no_generator():
    """batch_grads and the other drivers return their results: no caller has a
    generator to run to its end before every gradient is added."""
    assert yields((ROOT / "src" / "relgrid" / "scorer.py").read_text(encoding="utf-8")) == []


def test_train_sets_every_train_config_field():
    """The keywords of the one TrainConfig call in cli.cmd_train are the
    dataclass's fields, so no setting is out of the command line's reach."""
    tree = ast.parse((ROOT / "src" / "relgrid" / "cli.py").read_text(encoding="utf-8"))
    cmd_train = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "cmd_train"
    )
    calls = [
        node for node in ast.walk(cmd_train)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "TrainConfig"
    ]
    assert len(calls) == 1
    assert {kw.arg for kw in calls[0].keywords} == TrainConfig.__dataclass_fields__.keys()
