"""Every public module-level function of ``sentfolio`` has a caller in the
package or in the benchmark.  API that only tests call is deleted with its
tests, or is named below with the reason it stays."""

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
