"""README's list of the method's fixed choices names constants that exist,
and its list of the package root's names is the root's."""

import ast
import re
import types
from pathlib import Path

import stvs

ROOT = Path(__file__).resolve().parents[1]
# ``* `stvs.<module>`: ...`` up to the next bullet or blank line
BULLET = re.compile(r"^\* `stvs\.(\w+)`: (.*?)(?=^\*|^$)", re.M | re.S)
CONSTANT = re.compile(r"`([A-Z][A-Z0-9_]*)`")
# the Library section's sentence and the list after it, up to a blank line
ROOT_LIST = re.compile(
    r"^The package root exports exactly these names.*?(?=\n\n)", re.M | re.S
)


def module_assignments(module):
    """The names ``src/stvs/<module>.py`` assigns at module level; an
    import does not count."""
    source = (ROOT / "src" / "stvs" / f"{module}.py").read_text(encoding="utf-8")
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            names.update(leaf.id for leaf in ast.walk(target) if isinstance(leaf, ast.Name))
    return names


def unassigned(text):
    """The (module, NAME) pairs of the bullets in ``text`` whose module
    does not assign NAME, and the number of bullets read."""
    bullets = BULLET.findall(text)
    missing = [
        (module, name)
        for module, body in bullets
        for name in CONSTANT.findall(body)
        if name not in module_assignments(module)
    ]
    return missing, len(bullets)


def test_every_constant_the_readme_lists_is_assigned_in_its_module():
    missing, n_bullets = unassigned((ROOT / "README.md").read_text(encoding="utf-8"))
    assert n_bullets >= 5
    assert missing == []


def test_a_stale_bullet_is_caught():
    # stvs.stream imports TIME_COLUMN from stvs.ingest: an import does not count
    stale = (
        "* `stvs.stream`: `FIRST_REPORT_S` (0.5 s) and `TIME_COLUMN`;\n"
        "* `stvs.emd`: `MAX_IMFS` and\n  `NO_SUCH_NAME`.\n\n"
    )
    assert unassigned(stale) == ([("stream", "TIME_COLUMN"), ("emd", "NO_SUCH_NAME")], 2)


def test_the_package_root_exports_what_the_readme_lists():
    (block,) = ROOT_LIST.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    listed = re.findall(r"`(\w+)`", block)
    public = {
        name
        for name, value in vars(stvs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(listed) == len(set(listed))
    assert public == set(listed)
