"""doc-path: every source file the docs name must exist.

DESIGN.md, README.md and METRICS.md point readers at code in two forms:
full paths under src/ (`src/csv/csv_storlet.cc`, `src/columnar/`,
`src/**/*.h`) and module-relative names (`csv/record_reader.*`,
`columnar/simd.{h,cc}`, `storlets/engine.cc`). A module-relative name
resolves against src/ first and then against the repo root, so
`tests/csv_test.cc` and `bench/ablation_columnar.cc` are checked too.
Inside a module-inventory bullet (`- \`src/csv/\` — \`record_reader.*\`,
...`), bare names resolve against the bullet's directory. A `.*` suffix
needs at least one match; every alternative of a `{a,b}` suffix must
exist. A file moved or deleted without its doc mention is a
finding, so the docs cannot drift from the tree again.
"""

import fnmatch
import re
from pathlib import Path

import common

DOCS = ("DESIGN.md", "README.md", "METRICS.md")
# Top-level directories whose files a doc may name.
TREE_DIRS = ("src", "tests", "bench", "examples", "perfbench", "tools",
             "docs")

SRC_PATH_RE = re.compile(r"(?<![\w/.-])src/[\w./*{},-]*")
MODULE_PATH_RE = re.compile(
    r"(?<![\w/.-])((?:[\w-]+/)+)(\w+)\.(\*|\{[\w,]+\}|h|cc)(?![\w.])")
BARE_NAME_RE = re.compile(
    r"(?<![\w/.-])(\w+)\.(\*|\{[\w,]+\}|h|cc)(?![\w.])")
# A bullet that opens with a directory: `- \`src/csv/\` — ...`.
INVENTORY_BULLET_RE = re.compile(r"^- `((?:[\w-]+/)+)`")
BRACES_RE = re.compile(r"\{([^{}]*)\}")


def load_files(root):
    """Repo-relative posix paths of every file under TREE_DIRS."""
    root = Path(root)
    files = set()
    for top in TREE_DIRS:
        base = root / top
        if base.is_dir():
            files.update(p.relative_to(root).as_posix()
                         for p in base.rglob("*") if p.is_file())
    return files


def _expand(pattern):
    """Brace expansion: "a.{h,cc}" -> ["a.h", "a.cc"]."""
    m = BRACES_RE.search(pattern)
    if not m:
        return [pattern]
    out = []
    for alt in m.group(1).split(","):
        out.extend(_expand(pattern[:m.start()] + alt + pattern[m.end():]))
    return out


def _resolves(pattern, files, dirs):
    """True when every brace alternative of `pattern` names a file or
    directory of the tree (a wildcard needs at least one match)."""
    for alt in _expand(pattern):
        if alt.endswith("/"):
            ok = alt.rstrip("/") in dirs
        elif "*" in alt:
            ok = any(fnmatch.fnmatchcase(f, alt) for f in files)
        else:
            ok = alt in files or alt in dirs
        if not ok:
            return False
    return True


def check(docs, files):
    """`docs` maps a doc name to its text; `files` is the repo file set."""
    dirs = {"/".join(f.split("/")[:i])
            for f in files for i in range(1, f.count("/") + 1)}
    findings = []
    for doc, text in docs.items():
        inventory_dir = None  # directory of the enclosing inventory bullet
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.startswith(("- ", "#")):
                bullet = INVENTORY_BULLET_RE.match(line)
                inventory_dir = bullet.group(1) if bullet else None
            if inventory_dir is not None:
                for m in BARE_NAME_RE.finditer(line):
                    token = inventory_dir + m.group(0)
                    if not _resolves(token, files, dirs):
                        findings.append(common.Finding(
                            doc, lineno, "doc-path",
                            f"`{m.group(0)}` (listed under "
                            f"`{inventory_dir}`) matches no file — fix the "
                            "name or drop the mention"))
            for m in SRC_PATH_RE.finditer(line):
                token = m.group(0).rstrip(".,;:")
                if not _resolves(token, files, dirs):
                    findings.append(common.Finding(
                        doc, lineno, "doc-path",
                        f"`{token}` names no file or directory in the "
                        "tree — fix the path or drop the mention"))
            for m in MODULE_PATH_RE.finditer(line):
                token = m.group(0)
                if token.startswith("src/"):
                    continue  # checked as a full path above
                if not any(_resolves(c, files, dirs)
                           for c in ("src/" + token, token)):
                    findings.append(common.Finding(
                        doc, lineno, "doc-path",
                        f"`{token}` matches nothing under src/ or the "
                        "repo root — fix the path or drop the mention"))
    return findings


def check_tree(root):
    root = Path(root)
    docs = {name: (root / name).read_text(encoding="utf-8",
                                          errors="replace")
            for name in DOCS if (root / name).is_file()}
    return check(docs, load_files(root))
