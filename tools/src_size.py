"""Print the size counts of the ``nlhom`` sources as JSON.

    python3 tools/src_size.py

Counts over ``src/nlhom/*.py``: source lines, names in the modules'
``__all__`` lists, class definitions, defaulted parameters (positional and
keyword-only parameters of functions, methods and lambdas that carry a
default) and defaulted fields (fields of ``@dataclass`` classes that
``__init__`` takes and that carry a default: each is a setting of a config
object), the last four read from the syntax tree.
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


def _is_dataclass(node):
    """Whether a class is decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def _defaulted_fields(node):
    """Fields of a dataclass that ``__init__`` takes with a default: an
    annotated assignment, unless it is a ``field(...)`` call with
    ``init=False`` or with neither ``default`` nor ``default_factory``."""
    count = 0
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id",
                                                   None) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            init = kw.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if not {"default", "default_factory"} & kw.keys():
                continue
        count += 1
    return count


def main():
    counts = dict(lines=0, all_names=0, classes=0, defaulted_params=0,
                  defaulted_fields=0)
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            text = fh.read()
        tree = ast.parse(text)
        counts["lines"] += len(text.splitlines())
        counts["all_names"] += _all_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                counts["classes"] += 1
                if _is_dataclass(node):
                    counts["defaulted_fields"] += _defaulted_fields(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                counts["defaulted_params"] += _defaulted(node)
    print(json.dumps(counts))


if __name__ == "__main__":
    main()
