"""Byte-for-byte CLI output against recorded goldens.

`golden_cli.json` holds, per case, a sequence of argv lists with the exit
code and stdout each produced; enumerate steps also hold the catalog file
contents after the step.  `{catalog}` in an argv stands for a fresh file
shared by the steps of one case, so reruns see what earlier steps wrote.
The goldens are fixed data, never regenerated from the code under test.
"""

import json
from pathlib import Path

import pytest

from tunnelslopes.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_cli_output_matches_golden(case, tmp_path, capsys):
    path = tmp_path / "catalog.jsonl"
    for step in case["steps"]:
        argv = [arg.replace("{catalog}", str(path)) for arg in step["argv"]]
        code = main(argv)
        out = capsys.readouterr().out
        assert (code, out.encode("utf-8")) == (step["code"], step["stdout"].encode("utf-8")), argv
        if "catalog" in step:
            assert path.read_bytes() == step["catalog"].encode("utf-8"), argv
