"""Size of the package: per module of src/spherefit, its total lines and its
code lines (no blank, comment or docstring lines), then the totals, the
count of public names in the `spherefit` namespace, the module-level
functions that `spherefit` does not re-export and no code in src/ names
(the test oracles still in the package), and the settings: the keys of each
CLI subcommand (`cli._COMMANDS`) and the fields of each search config.

Not collected by pytest (the name does not start with `test_`).  Run from
the repository root; ROOT (default: this file's repository) selects another
checkout:

    python tests/src_size.py [ROOT]
"""

from __future__ import annotations

import ast
import dataclasses
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one module."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = [
        line for n, line in enumerate(lines, start=1)
        if n not in skip and line.strip() and not line.strip().startswith("#")
    ]
    return len(lines), len(code)


def unreferenced_functions(modules: list[Path], exported: set[str]) -> list[str]:
    """`module.function` for each module-level function of `modules` that is
    not in `exported` and whose name no module uses (as a name or an
    attribute)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in modules}
    known = exported | {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name not in known
    ]


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    src = root.resolve() / "src"
    total = code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    modules = sorted((src / "spherefit").glob("*.py"))
    for path in modules:
        n, c = sizes(path)
        total, code = total + n, code + c
        print(f"{path.name:<16}{n:>7}{c:>7}")
    print(f"{'src/':<16}{total:>7}{code:>7}")
    sys.path.insert(0, str(src))
    import spherefit

    public = [n for n in vars(spherefit) if not n.startswith("_")]
    print(f"public names in spherefit: {len(public)}")
    oracles = unreferenced_functions(modules, set(public))
    print("functions neither re-exported nor named in src/:", *oracles)
    from spherefit import cli, params

    keys = (f"{name} {len(keys)}" for name, (_, _, keys) in cli._COMMANDS.items())
    configs = (params.BalancingConfig, params.RandomSearchConfig)
    fields = (f"{c.__name__} {len(dataclasses.fields(c))}" for c in configs)
    print(f"settings: keys {', '.join(keys)}; fields {', '.join(fields)}")


if __name__ == "__main__":
    main()
