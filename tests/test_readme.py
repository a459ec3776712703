"""README's examples run against the package as it is.

The Python blocks run in order, in one namespace (a later block uses the
dataset of the first), and the ``train.ini`` of the CLI walkthrough reads
through the same reader as ``rpopt train``.  A renamed argument, a removed
key or a stale example fails here instead of in a reader's shell.
"""

import os
import re

import pytest

from rpopt import experiments
from rpopt.experiments import load_train_config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.fixture(scope="module")
def text():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_python_blocks_run(text, capsys):
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    assert capsys.readouterr().out.count("\n") == 5


def test_train_ini_reads_and_documents_every_key(text, tmp_path):
    (body,) = re.findall(r"cat > train\.ini <<'EOF'\n(.*?)\nEOF\n", text, re.S)
    path = tmp_path / "train.ini"
    path.write_text(body + "\n", encoding="utf-8")
    config = load_train_config(str(path))
    assert (config.eta, config.steps, config.spec.c, config.seed) == (0.1, 1000, 0.1, 0)
    # the key list under the block names every [train] key, and only those
    listing = text.split("All `[train]` keys with defaults:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`(\w+)`\s+\(", listing) == list(experiments._TRAIN)


def test_params_checks_name_every_parsed_key(text):
    # the paragraph on [params] checks names each key with a parser, and a
    # deleted key cannot linger in it
    start = "The `[params]` values are checked when the config is read"
    paragraph = text[text.index(start):].split("\n\n", 1)[0]
    keys = {key for defaults in experiments._DEFAULTS.values() for key in defaults}
    named = {word for word in re.findall(r"`([^`]+)`", paragraph) if word in keys}
    assert named == set(experiments._PARAMS_PARSERS)
