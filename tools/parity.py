"""Output parity of two oodlab source trees: the same commands must give the same outputs.

    python tools/parity.py PARENT_TREE CHANGE_TREE

Each tree is a checkout with ``src/oodlab`` and ``configs/``. Every command
of ``COMMANDS`` runs in a fresh process per tree, with the tree's ``src`` on
``PYTHONPATH``, from the tree's root and into its own output directory under
one temporary directory (``TMPDIR`` picks where). The report names every
output file that differs or exists on one side only, except the wall-clock
sidecar ``run_meta.json``; every differing exit code; and every stdout or
stderr line found on one side only, after the run's output directory is
replaced by ``<out>``. The exit code is 0 when nothing differs and 1
otherwise. The commands run one after another, so a run takes about as long
as both trees' commands together.
"""

from __future__ import annotations

import configparser
import difflib
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

SKIPPED_FILES = ("run_meta.json",)
OUT = "<out>"


def _commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) in run order; ``{out}`` and ``{energy_ini}`` are filled in per tree."""
    runs = []
    for config, stem in (("default.ini", "default"), ("train_plain.ini", "plain")):
        runs += [(f"train_{stem}_{seed}", ["train", "--config", f"configs/{config}", "--seed", str(seed)]) for seed in (1234, 0, 7)]
    runs += [(f"train_energy_{seed}", ["train", "--config", "{energy_ini}", "--seed", str(seed)]) for seed in (0, 1)]
    runs.append(("sweep_lambda", ["sweep-lambda", "--config", "configs/sweep.ini"]))
    for stem in ("shift_ice", "shift_oe"):
        runs += [(f"{stem}_{seed}", ["simulate-shift", "--config", f"configs/{stem}.ini", "--seed", str(seed)]) for seed in (1234, 0, 7)]
    runs.append(("demo_false_likelihood", ["demo-false-likelihood", "--config", "configs/default.ini"]))
    runs.append(("gen_data", ["gen-data", "--config", "configs/default.ini"]))
    for config, stem in (("default.ini", "default"), ("train_plain.ini", "plain")):
        checkpoint = f"{{out}}/train_{stem}_1234/checkpoint.txt"
        runs.append((f"export_{stem}", ["export-features", "--config", f"configs/{config}", "--checkpoint", checkpoint]))
    return runs


COMMANDS = _commands()


@dataclass(frozen=True)
class Run:
    """One command's exit code and its stdout and stderr, with the output directory as ``<out>``."""

    code: int
    stdout: str
    stderr: str


def energy_ini(tree: Path, path: Path) -> Path:
    """The tree's ``configs/default.ini`` with ``[criterion] kind = energy``, written to ``path``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(tree / "configs" / "default.ini")
    parser.read_dict({"criterion": {"kind": "energy"}})
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def run_all(tree: Path, work: Path) -> tuple[Path, dict[str, Run]]:
    """Run every command of ``COMMANDS`` on ``tree``; its outputs go to one directory per command under ``work/out``."""
    out = work / "out"
    out.mkdir(parents=True)
    fill = {"out": str(out), "energy_ini": str(energy_ini(tree, work / "default_energy.ini"))}
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    runs = {}
    for name, args in COMMANDS:
        argv = [arg.format(**fill) for arg in args] + ["--out", str(out / name)]
        proc = subprocess.run([sys.executable, "-m", "oodlab", *argv], cwd=tree, env=env, capture_output=True, text=True)
        runs[name] = Run(proc.returncode, proc.stdout.replace(str(out), OUT), proc.stderr.replace(str(out), OUT))
    return out, runs


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file() and p.name not in SKIPPED_FILES}


def _line_diff(label: str, parent: str, change: str) -> list[str]:
    """``label`` lines for each line found on one side only, in ``difflib.ndiff`` order."""
    lines = difflib.ndiff(parent.splitlines(), change.splitlines())
    side = {"- ": "parent", "+ ": "change"}
    return [f"{label} {side[line[:2]]} only: {line[2:]}" for line in lines if line[:2] in side]


def compare(parent_out: Path, parent_runs: dict[str, Run], change_out: Path, change_runs: dict[str, Run]) -> list[str]:
    """One line per difference between the two sides' runs and output trees."""
    report = []
    for name in sorted(parent_runs.keys() | change_runs.keys()):
        if name not in parent_runs or name not in change_runs:
            report.append(f"{name}: run on one side only")
            continue
        a, b = parent_runs[name], change_runs[name]
        if a.code != b.code:
            report.append(f"{name}: exit code {a.code} (parent) != {b.code} (change)")
        report += _line_diff(f"{name}: stdout", a.stdout, b.stdout)
        report += _line_diff(f"{name}: stderr", a.stderr, b.stderr)
    parent_files, change_files = _files(parent_out), _files(change_out)
    for rel in sorted(parent_files | change_files):
        if rel not in change_files:
            report.append(f"{rel}: parent only")
        elif rel not in parent_files:
            report.append(f"{rel}: change only")
        elif (parent_out / rel).read_bytes() != (change_out / rel).read_bytes():
            report.append(f"{rel}: differs")
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/parity.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    for tree in trees:
        if not (tree / "src" / "oodlab").is_dir():
            print(f"{tree}: no src/oodlab", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="oodlab-parity-") as tmp:
        parent_out, parent_runs = run_all(trees[0], Path(tmp) / "parent")
        change_out, change_runs = run_all(trees[1], Path(tmp) / "change")
        report = compare(parent_out, parent_runs, change_out, change_runs)
        compared = len(_files(parent_out) & _files(change_out))
    for line in report:
        print(line)
    failed = sum(run.code != 0 for run in change_runs.values())
    print(
        f"parity: {len(COMMANDS)} commands ({failed} exit non-zero on the change), "
        f"{compared} files compared, {len(report)} differences (run_meta.json not compared)"
    )
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
