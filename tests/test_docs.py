"""Every code name quoted in README.md or in a docstring of the package is
one the code defines, so that a rename or a deletion cannot leave the text
naming something that is gone."""

import ast
import importlib
import re
import sys
from pathlib import Path

from rbprop.cli import build_parser
from rbprop.config import _SCHEMA
from rbprop.fieldio import SNAPSHOT_SUFFIX

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rbprop"

# quoted on purpose, though nothing here defines them: keys the README says
# were deleted and are refused, the section configparser reserves, the
# snapshot magic, scipy's names, the velocity variable of the formulas and
# the benchmark's wall-time metric
QUOTED_ON_PURPOSE = {
    "velocity_nodes", "[run] velocity_quadrature", "[run] absorbing_boundary",
    "[DEFAULT]", "RBPF", "erfcx", "wofz", "scipy.special",
    "scipy.special.wofz", "scipy.fft", "scipy.fft.fft2", "kv", "wall_s",
}

# a code span in Markdown or reStructuredText: `name` or ``name``
QUOTED = re.compile(r"(`+)(.+?)\1")
FILE_NAME = re.compile(r"[\w.-]+\.(json|csv|ini|rbpf|lock|py|toml)")
SNAPSHOT_NAME = re.compile(r"field_step\d+" + re.escape(SNAPSHOT_SUFFIX))
SETTING = re.compile(r"\[(\w+)\](?: (\w+)(?: = .*)?)?")


def package_trees():
    return {path: ast.parse(path.read_text()) for path in
            sorted(PACKAGE.glob("*.py"))}


def package_names(trees):
    """Every name the package defines (modules, functions, classes,
    arguments, variables and attributes assigned), and every string
    constant it holds (file names, subcommands, keys)."""
    names = {"rbprop"} | {path.stem for path in trees}
    strings = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return names, strings


def quoted_spans():
    """(where, quoted text) for each code span of README.md and of each
    docstring in the package."""
    readme = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(),
                    flags=re.M | re.S)
    texts = [("README.md", readme)]
    for path, tree in package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    where = getattr(node, "name", "module docstring")
                    texts.append((f"{path.name}: {where}", doc))
    return [(where, m.group(2)) for where, text in texts
            for m in QUOTED.finditer(text)]


def resolves(dotted: str) -> bool:
    """Whether dotted names an attribute of numpy (also as np), of a
    standard-library module or of rbprop and its modules."""
    parts = dotted.split(".")
    parts[0] = "numpy" if parts[0] == "np" else parts[0]
    for path in (parts, ["rbprop"] + parts, ["numpy"] + parts,
                 ["numpy", "fft"] + parts):
        if path[0] not in ("numpy", "rbprop", *sys.stdlib_module_names):
            continue
        for i in range(len(path), 0, -1):
            try:
                obj = importlib.import_module(".".join(path[:i]))
            except ImportError:
                continue
            try:
                for attr in path[i:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                break
            return True
    return False


def dotted_name(node):
    """"a.b.c" for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def undefined_in(text, names, strings, commands):
    """The names in one quoted text that nothing defines ([] if none)."""
    text = text.rstrip("=")
    if text in QUOTED_ON_PURPOSE or text in strings or text in names:
        return []
    if "/" in text and " " not in text:  # a path in the repository
        return [] if (ROOT / text).exists() else [text]
    if FILE_NAME.fullmatch(text):
        known = (SNAPSHOT_NAME.fullmatch(text)
                 or (ROOT / "presets" / text).exists())
        return [] if known else [text]
    setting = SETTING.fullmatch(text)
    if setting:
        section, key = setting.groups()
        keys = _SCHEMA.get(section, {})
        return [] if section in _SCHEMA and (key is None or key in keys) \
            else [text]
    if text.startswith("rbprop "):
        return [] if text.split()[1] in commands else [text]
    if text.startswith("--"):
        return [] if text in set().union(*commands.values()) else [text]
    if any((ROOT / folder / f"{text}.ini").exists()
           for folder in ("presets", "perfbench/workloads")):
        return []  # a preset or a benchmark workload
    key, sep, _ = text.partition(" = ")
    if sep and any(key in keys for keys in _SCHEMA.values()):
        return []  # a setting of a config key, in the file's own syntax
    try:
        tree = ast.parse(text)
    except SyntaxError:
        return []  # a formula or prose, not code
    missing = []
    inner = set()  # attributes checked as part of a longer chain
    for node in ast.walk(tree):
        if node in inner:
            continue
        dotted = dotted_name(node)
        if dotted is not None:
            if isinstance(node, ast.Attribute):
                inner.update(n for n in ast.walk(node) if n is not node)
            parts = dotted.split(".")
            if not (resolves(dotted) or all(p in names for p in parts)):
                missing.append(dotted)
        elif isinstance(node, ast.keyword) and node.arg not in names:
            missing.append(node.arg)
    return missing


def test_every_quoted_code_name_is_defined():
    names, strings = package_names(package_trees())
    commands = {name: set(sub._option_string_actions)
                for action in build_parser()._subparsers._group_actions
                for name, sub in action.choices.items()}
    stale = [f"{where}: `{text}` names {', '.join(missing)}"
             for where, text in quoted_spans()
             for missing in [undefined_in(text, names, strings, commands)]
             if missing]
    assert not stale, "\n".join(stale)
