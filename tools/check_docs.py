#!/usr/bin/env python3
"""Check that the documentation stays truthful.

Seven checks over the repo's markdown docs and example scripts:

1. **Runnable snippets** — every fenced ``python`` code block in
   ``docs/*.md`` is executed (with ``src/`` on ``sys.path``) and must
   run to completion.  A doc snippet that raises is a doc bug.
2. **Link/heading lint** — every relative markdown link in the checked
   files (including ``README.md``) must point at a file that exists;
   intra-document ``#fragment`` links must match a heading.
3. **Repository paths** — a backticked token shaped like a checked-in
   file path (``tests/gals/test_gals.py``, optionally ``::test_name``)
   must name a file that exists, so a citation of a deleted file fails
   here instead of going stale.  Globs, ``<placeholders>`` and the
   generated ``bench/out/`` are not citations.
4. **Executable examples** — scripts in ``EXEC_EXAMPLES`` are run as
   ``__main__`` (fast ones only; the slow demos stay out of the loop).
5. **Rendered capability table** — the block between the
   ``capability-table`` markers in each of ``CAPABILITY_DOCS`` must equal
   what :func:`render_capability_table` produces from
   ``repro.kernel.capability.TABLE``; ``--render`` rewrites stale blocks
   instead of failing on them.
6. **Attribute citations** — a backticked ``Class.attr`` (``Clock._edge``,
   ``Gate.open()``) whose ``Class`` is defined under ``src/repro`` must
   name an attribute that class or one of its bases defines (a method,
   a class-level name, a ``__slots__`` entry or a ``self.attr``
   assignment), so a renamed or deleted member fails here.
7. **Module citations** — a backticked dotted ``repro.*`` name
   (``repro.faults.campaign.outcome_class``,
   ``repro.kernel.capability.TABLE``) must import, or resolve by
   ``getattr`` from its longest importable prefix, so a deleted module
   or function fails here.

Usage::

    python tools/check_docs.py            # docs/*.md + the root docs
    python tools/check_docs.py FILE...    # check specific files
    python tools/check_docs.py --render   # regenerate the rendered blocks

README.md python blocks are NOT executed (the quickstart builds the
full SoC, which is deliberately slow); they are link-linted only.
Exit status is non-zero on any failure.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EXEC_DIRS = {REPO / "docs"}  # only execute snippets from these dirs
#: Example scripts fast enough (~1 s) to execute on every docs check.
EXEC_EXAMPLES = (REPO / "examples" / "sweep_demo.py",
                 REPO / "examples" / "fault_campaign_demo.py")

#: Docs carrying the rendered capability table.
CAPABILITY_DOCS = tuple(REPO / "docs" / name for name in (
    "COMPILED_BACKEND.md", "REGISTRY.md", "INCREMENTAL_SIM.md"))
CAPABILITY_BEGIN = ("<!-- capability-table:begin — rendered from "
                    "repro.kernel.capability by `python tools/check_docs.py "
                    "--render`; do not edit -->")
CAPABILITY_END = "<!-- capability-table:end -->"

FENCE_RE = re.compile(r"^```(\w*)\s*$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
PATH_RE = re.compile(
    r"`((?:src|tests|tools|bench|docs|examples|benchmarks)/[\w./-]+"
    r"\.(?:py|md|json|txt|yml))(?:::[^`]*)?`")
ATTR_RE = re.compile(r"`([A-Z]\w*)\.(\w+)[^`]*`")
CITE_RE = re.compile(r"`(repro(?:\.\w+)+)[^`\n]*`")


def python_blocks(text: str):
    """Yield (start_line, source) for each fenced ``python`` block."""
    lines = text.splitlines()
    block, lang, start = None, None, 0
    for i, line in enumerate(lines, 1):
        m = FENCE_RE.match(line)
        if m and block is None:
            block, lang, start = [], m.group(1), i + 1
        elif line.strip() == "```" and block is not None:
            if lang == "python":
                yield start, "\n".join(block)
            block, lang = None, None
        elif block is not None:
            block.append(line)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def check_links(path: Path, text: str) -> list:
    headings = {slugify(m.group(1))
                for m in map(HEADING_RE.match, text.splitlines()) if m}
    errors = []
    for m in LINK_RE.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        if base:
            resolved = (path.parent / base).resolve()
            if not resolved.exists():
                errors.append(f"{path.name}: broken link -> {target}")
                continue
        if fragment:
            frag_headings = headings
            if base:
                frag_text = (path.parent / base).resolve().read_text()
                frag_headings = {
                    slugify(h.group(1))
                    for h in map(HEADING_RE.match, frag_text.splitlines())
                    if h}
            if fragment not in frag_headings:
                errors.append(f"{path.name}: dangling anchor -> {target}")
    return errors


def check_paths(path: Path, text: str) -> list:
    return [f"{path.name}: cites missing file -> {target}"
            for target in sorted(set(PATH_RE.findall(text)))
            if not target.startswith("bench/out/")
            and not (REPO / target).exists()]


def class_members() -> dict:
    """``{class name: [(attributes, base names), ...]}`` for every class
    defined under ``src/repro`` (one entry per definition)."""
    classes: dict = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            attrs = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    attrs.add(item.name)
                targets = (item.targets if isinstance(item, ast.Assign)
                           else [item.target] if isinstance(item, ast.AnnAssign)
                           else [])
                for target in targets:
                    if isinstance(target, ast.Name):
                        attrs.add(target.id)
                        if target.id == "__slots__":
                            attrs.update(
                                c.value for c in ast.walk(item.value)
                                if isinstance(c, ast.Constant)
                                and isinstance(c.value, str))
            for sub in ast.walk(node):
                target = getattr(sub, "target", None)
                for t in getattr(sub, "targets", []) + [target]:
                    if (isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        attrs.add(t.attr)
            bases = []
            for base in node.bases:
                if isinstance(base, ast.Subscript):  # Generic[T]
                    base = base.value
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
            classes.setdefault(node.name, []).append((attrs, bases))
    return classes


def defines(classes: dict, name: str, attr: str, seen=()) -> bool:
    """True if class ``name`` (any definition of it) or a base has
    ``attr``; bases outside ``src/repro`` resolve through builtins."""
    if name in seen:
        return False
    if name not in classes:
        base = getattr(builtins, name, None)
        return base is not None and hasattr(base, attr)
    return any(attr in attrs or any(defines(classes, base, attr,
                                            (*seen, name))
                                    for base in bases)
               for attrs, bases in classes[name])


def check_attributes(path: Path, text: str, classes: dict) -> list:
    return [f"{path.name}: cites missing attribute -> {cls}.{attr}"
            for cls, attr in sorted(set(ATTR_RE.findall(text)))
            if cls in classes and not defines(classes, cls, attr)]


def resolves(dotted: str) -> bool:
    """Import the longest importable prefix of ``dotted``, then
    ``getattr`` the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def check_citations(path: Path, text: str) -> list:
    return [f"{path.name}: cites missing name -> {dotted}"
            for dotted in sorted(set(CITE_RE.findall(text)))
            if not resolves(dotted)]


def run_block(path: Path, line: int, source: str) -> str | None:
    scope = {"__name__": f"docsnippet:{path.name}:{line}"}
    try:
        exec(compile(source, f"{path.name}:{line}", "exec"), scope)
    except Exception as exc:  # noqa: BLE001 - report, don't crash
        return f"{path.name}:{line}: snippet raised {type(exc).__name__}: {exc}"
    return None


def run_example(path: Path) -> str | None:
    """Execute an example script as ``__main__``; None on success."""
    import runpy

    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:  # scripts may sys.exit(0)
        if exc.code not in (None, 0):
            return f"{path.name}: exited with status {exc.code}"
    except Exception as exc:  # noqa: BLE001 - report, don't crash
        return f"{path.name}: raised {type(exc).__name__}: {exc}"
    return None


def render_capability_table() -> str:
    """The capability table as markdown: one line per row, one column
    per executor holding ``yes`` or the recorded reason text."""
    from repro.kernel.capability import EXECUTORS, TABLE

    lines = ["| construct | key | found | " + " | ".join(EXECUTORS) + " |",
             "|---|---|---|" + "---|" * len(EXECUTORS)]
    for row in TABLE:
        cells = [f"`{text}`" if text else "yes"
                 for text in (getattr(row, e) for e in EXECUTORS)]
        found = "in the design" if row.detect is not None else "while running"
        lines.append(f"| {row.construct} | `{row.key}` | {found} | "
                     + " | ".join(cells) + " |")
    return "\n".join([CAPABILITY_BEGIN, *lines, CAPABILITY_END])


def check_capability_table(path: Path, render: bool) -> str | None:
    """Compare (or with ``render`` rewrite) ``path``'s rendered block."""
    text = path.read_text()
    begin, end = text.find(CAPABILITY_BEGIN), text.find(CAPABILITY_END)
    if begin < 0 or end < begin:
        return f"{path.name}: capability-table markers missing"
    fresh = (text[:begin] + render_capability_table()
             + text[end + len(CAPABILITY_END):])
    if fresh == text:
        return None
    if render:
        path.write_text(fresh)
        print(f"  [rendered] {path.name}")
        return None
    return (f"{path.name}: rendered capability table is stale "
            "(run `python tools/check_docs.py --render`)")


def main(argv: list) -> int:
    sys.path.insert(0, str(REPO / "src"))
    render = "--render" in argv
    argv = [a for a in argv if a != "--render"]
    if argv:
        files = [Path(a).resolve() for a in argv]
    else:
        files = sorted((REPO / "docs").glob("*.md")) + [
            REPO / name
            for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]

    errors, ran = [], 0
    classes = class_members()
    for path in files:
        if path.suffix != ".md":
            continue  # .py arguments are handled as examples below
        if path in CAPABILITY_DOCS:
            err = check_capability_table(path, render)
            if err:
                errors.append(err)
        text = path.read_text()
        errors.extend(check_links(path, text))
        errors.extend(check_paths(path, text))
        errors.extend(check_attributes(path, text, classes))
        errors.extend(check_citations(path, text))
        if path.parent in EXEC_DIRS:
            for line, source in python_blocks(text):
                err = run_block(path, line, source)
                ran += 1
                status = "FAIL" if err else "ok"
                print(f"  [{status}] {path.name}:{line}")
                if err:
                    errors.append(err)

    examples = EXEC_EXAMPLES if not argv else tuple(
        f for f in files if f in EXEC_EXAMPLES)
    for path in examples:
        err = run_example(path)
        ran += 1
        print(f"  [{'FAIL' if err else 'ok'}] {path.name}")
        if err:
            errors.append(err)

    print(f"checked {len(files)} files, executed {ran} python snippets")
    if errors:
        print("\n".join(f"ERROR: {e}" for e in errors), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
