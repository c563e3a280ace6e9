"""Size report for a source tree of the package.

Usage: python tools/src_size.py SRC_DIR

SRC_DIR holds the `emdscalp` package (`src` in a checkout). Prints each
module's `wc -l` count and its lines by kind, then the optional parameters of
the public functions and each subcommand's flags, as imported from SRC_DIR.
"""
import argparse
import ast
import importlib
import inspect
import io
import pkgutil
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(text):
    """Each line's kind: a docstring line (module, class or function docstring,
    blank lines inside it too), a blank line, a comment-only line, or code."""
    kind = ["blank" if not line.strip() else "code" for line in text.splitlines()]
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    for n in comment - code:
        kind[n - 1] = "comment"
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node) is not None):
            doc = node.body[0]
            for n in range(doc.lineno, doc.end_lineno + 1):
                kind[n - 1] = "docstring"
    return kind


def options_report():
    """The optional parameters of public functions, then each subcommand's flags."""
    import emdscalp
    from emdscalp import cli
    modules = [emdscalp, *(importlib.import_module(f"emdscalp.{m.name}")
                           for m in pkgutil.iter_modules(emdscalp.__path__))]
    public = {fn: f"{m.__name__}.{name}" for m in reversed(modules)
              for name in getattr(m, "__all__", ())
              if inspect.isfunction(fn := getattr(m, name))}
    optional = [f"{name}({p.name})" for fn, name in public.items()
                for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]
    lines = [f"{len(optional)} optional parameters of {len(public)} public functions"]
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        lines.append(" ".join([command, *(s for a in parser._actions for s in a.option_strings
                                          if s.startswith("--") and s != "--help")]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir", type=Path, help="directory holding the emdscalp package")
    src = parser.parse_args(argv).src_dir.resolve()
    total_lines, total = 0, dict.fromkeys(KINDS, 0)
    for path in sorted((src / "emdscalp").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        kind = line_kinds(text)
        counts, lines = {k: kind.count(k) for k in KINDS}, text.count("\n")
        total_lines += lines
        print(f"{lines:5d} {path.name:15s}", " ".join(f"{k} {counts[k]}" for k in KINDS))
        for k in KINDS:
            total[k] += counts[k]
    print(f"{total_lines:5d} {'total':15s}", " ".join(f"{k} {total[k]}" for k in KINDS))
    sys.path.insert(0, str(src))
    print("\n".join(options_report()))


if __name__ == "__main__":
    main()
