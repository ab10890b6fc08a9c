"""README's examples run as written: its INI block is the configuration that
its second Python block loads."""

import re
from pathlib import Path

README = (Path(__file__).parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    (ini,) = _blocks("ini")
    python = _blocks("python")
    assert len(python) == 2
    (tmp_path / "exp.ini").write_text(ini)
    monkeypatch.chdir(tmp_path)
    for code in python:
        exec(compile(code, "README.md", "exec"), {})
    assert "ExistsCertified" in capsys.readouterr().out
