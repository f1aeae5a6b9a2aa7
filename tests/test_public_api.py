"""Every public module-level function of ``sentfolio`` has a caller, and
every dataclass field a reader, in the package or in the benchmark.  API
that only tests call or read is deleted with its tests, or is named below
with the reason it stays."""

import ast
from pathlib import Path

import sentfolio

SOURCES = [Path(sentfolio.__file__).parent, Path(__file__).resolve().parents[1] / "perfbench"]

# Oracles and fixtures that only tests call.
ONLY_TESTS_CALL = {
    "gradient_check": "the LSTM gradient's finite-difference oracle",
    "portfolio_stats": "the equal-weight oracle of the selector's Sharpe ratio",
    "load_checkpoint": "kept so that backtest can reuse train's checkpoints",
    "write_market_csv": "writes the price and sentiment files of the CLI tests",
}

# Dataclass fields that only tests read.
ONLY_TESTS_READ = {
    "FrontierSample.sharpe": "criterion 4 and the selector tests compare the pick's Sharpe ratio",
}


def _trees():
    for root in SOURCES:
        for path in sorted(root.glob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def test_every_public_function_has_a_caller():
    public, used = {}, set()
    for path, tree in _trees():
        if path.parent == SOURCES[0]:
            public.update({node.name: f"{path.name}:{node.lineno}" for node in tree.body
                           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    stale = {name for name in ONLY_TESTS_CALL if name not in public or name in used}
    assert not stale, f"listed as called only by tests, but gone or called: {stale}"
    unused = {name: where for name, where in public.items()
              if name not in used and name not in ONLY_TESTS_CALL}
    assert not unused, f"public functions that nothing in src/ or perfbench/ calls: {unused}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    """Each field of a dataclass in src/ is read as an attribute in src/ or
    perfbench/.  A read is matched by the attribute's name alone, so the
    guard is permissive where names collide: a field ``max_lag`` would pass
    on the strength of ``cfg.max_lag``, whichever class it belongs to."""
    fields, read = {}, set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if path.parent == SOURCES[0] and isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.update({f"{node.name}.{item.target.id}": f"{path.name}:{item.lineno}"
                               for item in node.body if isinstance(item, ast.AnnAssign)})
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = {name for name in fields if name.split(".")[1] not in read}
    stale = set(ONLY_TESTS_READ) - unread
    assert not stale, f"listed as read only by tests, but gone or read: {stale}"
    unread = {name: fields[name] for name in unread - set(ONLY_TESTS_READ)}
    assert not unread, f"dataclass fields that nothing in src/ or perfbench/ reads: {unread}"
