"""Golden corpus: every ``wh`` subcommand's ``--json`` output, byte for byte.

The corpus (``golden/corpus.json``, rebuilt by ``golden/make_corpus.py``)
pins outputs together with the transform order, first-improvement
descent and the "first optimal set" witness of ``distance``.
"""

import json
import os

import pytest

from golden.make_corpus import run_case

with open(os.path.join(os.path.dirname(__file__), "golden", "corpus.json"), encoding="utf-8") as fh:
    CORPUS = json.load(fh)


@pytest.mark.parametrize("case", CORPUS, ids=[c["name"] for c in CORPUS])
def test_output_is_byte_identical(case):
    code, stdout = run_case(case["files"], case["argv"])
    assert code == case["exit"]
    assert stdout == case["stdout"]
