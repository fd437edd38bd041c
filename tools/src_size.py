"""Print the size counts of the ``nlhom`` sources as JSON.

    python3 tools/src_size.py

Counts over ``src/nlhom/*.py``: source lines, names in the modules'
``__all__`` lists, class definitions, and defaulted parameters (positional
and keyword-only parameters of functions, methods and lambdas that carry a
default), the last three read from the syntax tree.
"""

import ast
import glob
import json
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "nlhom")


def _all_names(tree):
    """The number of names in a module-level ``__all__ = [...]``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return len(node.value.elts)
    return 0


def _defaulted(node):
    args = node.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def main():
    counts = dict(lines=0, all_names=0, classes=0, defaulted_params=0)
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            text = fh.read()
        tree = ast.parse(text)
        counts["lines"] += len(text.splitlines())
        counts["all_names"] += _all_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                counts["classes"] += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                counts["defaulted_params"] += _defaulted(node)
    print(json.dumps(counts))


if __name__ == "__main__":
    main()
