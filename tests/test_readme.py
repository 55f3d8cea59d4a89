"""README's command-line examples run as written.

Each example file of the "File formats" section is written verbatim, and
every command of the "Command line" section runs through ``cli.main`` on
them, with fewer Monte Carlo trials.
"""
import json
import pathlib
import shlex
import textwrap

import pytest

from infomarkets.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()

#: the example files of README's "File formats" section, byte for byte
FILES = {
    "model.json": '{"kind": "binary_noisy", "alpha": 0.02, "beta": 0.2, "num_agents": 3}\n',
    "table_model.json": ('{"kind": "table", "prior": [0.98, 0.02], '
                         '"likelihood": [[0.8, 0.2], [0.2, 0.8]]}\n'),
    "batch.json": '{"reports": [[0.8], [0.5]], "outcome": 1}\n',
    "stream.txt": "# agent_id, time, b_1\n0, 1.0, 0.8\n1, 2.5, 0.2\n",
    "sim.json": """\
{
  "model": {"kind": "binary_noisy", "alpha": 0.1, "beta": 0.05},
  "mechanism": "mvp",
  "rule": {"rule": "log", "scale": 20},
  "access": {"kind": "exponential", "lambda": 3},
  "latency": {"lambda": 1},
  "h": {"kind": "table", "times": [0.95, 1, 1.05], "values": [0, 20, 0]},
  "profile": {"efforts": [0.3, 0.3],
              "policies": [{"kind": "truthful"}, {"kind": "delayed", "delay": 0.5}]},
  "trials": 10000, "seed": 1
}
""",
    "my_experiment.json": ('{"experiment": "fig_eas", '
                           '"parameters": {"lambda_grid": [1, 2, 4]}, "output_path": "out/"}\n'),
}

#: trials of each simulate command, in place of the README's count
TRIALS = "2000"


def readme_commands() -> list[list[str]]:
    """The argument lists of the ``infomarkets`` lines of the "Command line" block."""
    block = README.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("infomarkets ")]


def test_every_example_file_is_in_the_readme():
    for name, text in FILES.items():
        assert textwrap.indent(text, "  ") in README, name
        if name.endswith(".json"):
            json.loads(text)
    assert '"rule": {"rule": "log"' in FILES["sim.json"]


def test_the_readme_runs_every_command():
    assert sorted({argv[0] for argv in readme_commands()}) == [
        "figure", "settle-fpm", "settle-mvp", "simulate", "solve"]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs_as_written(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    argv = list(argv)
    if "--trials" in argv:
        argv[argv.index("--trials") + 1] = TRIALS
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if argv[0] == "simulate":
        assert json.loads(out)["trials"] == int(TRIALS)
