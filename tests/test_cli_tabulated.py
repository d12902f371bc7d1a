"""The tabulated model reads no hypotheses: its affinity compares the two CSV densities."""

import pytest

from pxkit.cli import main


def _write_tabulated_pair(tmp_path):
    (tmp_path / "f.csv").write_text("0,0\n1,2\n2,0\n", encoding="utf-8")
    (tmp_path / "g.csv").write_text("0.5,0\n1.5,2\n2.5,0\n", encoding="utf-8")
    return ["affinity", "--model", "tabulated", "--csv-f", "f.csv", "--csv-g", "g.csv"]


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--theta0", "7"], "--theta0"),
        (["--theta1", "2"], "--theta1"),
        (["--theta0", "1", "--theta1", "2"], "--theta0, --theta1"),
    ],
)
def test_hypothesis_flag_with_tabulated_exits_2(flags, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = _write_tabulated_pair(tmp_path)
    assert main([*argv, *flags, "--out", "a.json"]) == 2
    assert f"model 'tabulated' does not read {named}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "g.csv"]


def test_config_file_may_set_hypotheses_for_tabulated(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = _write_tabulated_pair(tmp_path)
    (tmp_path / "hyp.ini").write_text("[hypotheses]\ntheta0 = 7\ntheta1 = 2\n", encoding="utf-8")
    assert main([*argv, "--config", "hyp.ini", "--out", "a.json"]) == 0
    assert main([*argv, "--out", "plain.json"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
