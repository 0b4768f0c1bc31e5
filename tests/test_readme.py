"""The README's examples print what it quotes: every `$ drphase ...` block,
run on the README's model.json, and each commented value of the Library
snippet, compared byte for byte."""

import shlex
from pathlib import Path

from drphase import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks():
    """(info string, body) of each fenced block of the README, in order."""
    blocks, lang, body = [], None, []
    for line in README.read_text().splitlines(keepends=True):
        if line.startswith("```"):
            if lang is None:
                lang, body = line[3:].strip(), []
            else:
                blocks.append((lang, "".join(body)))
                lang = None
        elif lang is not None:
            body.append(line)
    assert lang is None, "unclosed fence"
    return blocks


def shell_examples():
    """(command line, quoted stdout) of each `$ drphase` line; the quoted
    output runs to the next `$` line or the end of the block."""
    examples = []
    for lang, body in fenced_blocks():
        if lang:
            continue
        command = None
        for line in body.splitlines(keepends=True):
            if line.startswith("$ "):
                command = line[2:].strip()
                examples.append([command, ""])
            elif command is not None:
                examples[-1][1] += line
    return [(cmd, out.rstrip("\n") + "\n") for cmd, out in examples]


def test_readme_commands_print_what_it_quotes(tmp_path, monkeypatch, capsys):
    model = next(body for lang, body in fenced_blocks() if lang == "json")
    (tmp_path / "model.json").write_text(model)
    monkeypatch.chdir(tmp_path)
    examples = shell_examples()
    assert len(examples) >= 2
    for command, quoted in examples:
        argv = shlex.split(command)
        assert argv[0] == "drphase", command
        capsys.readouterr()
        assert cli.main(argv[1:]) == 0, command
        captured = capsys.readouterr()
        assert captured.out == quoted, command
        assert captured.err == "", command


def test_readme_library_snippet_values():
    (snippet,) = [body for lang, body in fenced_blocks() if lang == "python"]
    env, pending, checked = {}, [], 0
    for line in snippet.splitlines():
        code, comment, quoted = line.partition("#")
        if not comment:
            pending.append(line)
            continue
        exec("\n".join(pending), env)
        pending = []
        assert repr(eval(code, env)) == quoted.strip(), code
        checked += 1
    exec("\n".join(pending), env)
    assert checked >= 2
