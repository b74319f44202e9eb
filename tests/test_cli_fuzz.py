"""CLI exit-code contract under mutated input files.

One cell of a ``gen-data`` CSV or one value of a ``checkpoint.txt`` line is
replaced, then ``train`` (on the data directory, under a drawn ``[eval]
scorer``) or ``export-features`` (with the checkpoint) runs as a separate
process. Whatever the input, the process must exit 0, 2, 3 or 4 with no
traceback on stderr.
"""

import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oodlab import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TINY = "[data]\n{data}\n[model]\nhidden = 8\nfeature_dim = 3\n\n[training]\nepochs = 1\n"
CSV_END = "\r\n"

# A label cell together with the tag it implies, so the row moves domain.
LABEL_PAIRS = [("", "out"), ("-1", "out"), ("-2", "out"), ("0", "in"), ("1", "in"), ("7", "in"), ("x", "in")]
TAGS = ["in", "out", "", "x"]
FLOAT_TEXT = st.one_of(st.sampled_from(["", "x", "nan", "inf", "1e400", "1e308"]), st.floats().map(repr))
# Every scorer the Gaussian head of the tiny config allows; train evaluates with it each epoch.
SCORERS = st.sampled_from(["msp", "max_logit", "energy_score", "ice_conf"])

mutations = st.one_of(
    st.tuples(
        st.sampled_from(cli.DATA_FILES), st.integers(0, 999), st.just("label"), st.sampled_from(LABEL_PAIRS), SCORERS
    ),
    st.tuples(st.sampled_from(cli.DATA_FILES), st.integers(0, 999), st.just("tag"), st.sampled_from(TAGS), SCORERS),
    st.tuples(st.sampled_from(cli.DATA_FILES), st.integers(0, 999), st.integers(0, 9), FLOAT_TEXT, SCORERS),
    st.tuples(st.just("checkpoint.txt"), st.integers(0, 999), st.integers(0, 999), FLOAT_TEXT, st.none()),
)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A directory with the unmutated files: ``c.ini``, its ``data/`` CSVs and ``checkpoint.txt``."""
    root = tmp_path_factory.mktemp("fuzz_base")
    config = str(root / "c.ini")
    write(config, TINY.format(data="n = 120\nn_hard = 40\n"))
    assert cli.main(["gen-data", "--config", config, "--out", str(root / "data")]) == 0
    assert cli.main(["train", "--config", config, "--out", str(root)]) == 0
    return str(root)


def read(path):
    with open(path, newline="") as fh:
        return fh.read()


def write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def mutate_csv(text, row, column, value):
    lines = text.split(CSV_END)[:-1]
    if len(lines) < 2:
        return text
    cells = lines[1 + row % (len(lines) - 1)].split(",")
    if column == "label":
        cells[-2:] = value
    elif column == "tag":
        cells[-1] = value
    else:
        cells[column % (len(cells) - 2)] = value
    lines[1 + row % (len(lines) - 1)] = ",".join(cells)
    return CSV_END.join(lines) + CSV_END


def mutate_checkpoint(text, line, token, value):
    lines = text.split("\n")[:-1]
    key, _, values = lines[line % len(lines)].partition("=")
    tokens = values.split(" ")
    tokens[token % len(tokens)] = value
    lines[line % len(lines)] = key + "=" + " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None)
@given(mutations)
@example(("train_in.csv", 0, "label", ("", "out"), "ice_conf"))
@example(("eval_out.csv", 0, 0, "1e200", "max_logit"))  # a non-finite report score used to exit 1
def test_mutated_input_keeps_exit_contract(base, mutation):
    target, row, column, value, scorer = mutation
    with tempfile.TemporaryDirectory() as tmp:
        if target == "checkpoint.txt":
            ckpt = os.path.join(tmp, target)
            write(ckpt, mutate_checkpoint(read(os.path.join(base, target)), row, column, value))
            argv = ["export-features", "--config", os.path.join(base, "c.ini"), "--checkpoint", ckpt]
        else:
            for name in cli.DATA_FILES:
                text = read(os.path.join(base, "data", name))
                write(os.path.join(tmp, name), mutate_csv(text, row, column, value) if name == target else text)
            data_config = os.path.join(tmp, "d.ini")
            write(data_config, TINY.format(data=f"data_dir = {tmp}\n") + f"[eval]\nscorer = {scorer}\n")
            argv = ["train", "--config", data_config]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "oodlab", *argv, "--out", os.path.join(tmp, "out")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
