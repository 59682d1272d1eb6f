"""The documented commands and switches still exist.

Every fenced ``sh`` block in README.md, EXPERIMENTS.md, DESIGN.md and
``docs/*.md`` is read line by line.  A ``python -m repro...`` (or
``python3 -m``) line must parse through that CLI's own argument parser
(nothing runs), and a ``pytest`` line must name test paths that exist
and markers that ``pyproject.toml`` registers.  Other commands (``pip``,
``cat``) are not checked.  Anywhere in the same documents' text (prose,
inline code, list items), every ``python -m repro.<module>`` named must
be a CLI this file knows, and every ``REPRO_*`` environment switch must
be one that ``repro.mcu.device.dispatch_mode`` reads.
"""

from __future__ import annotations

import inspect
import re
import shlex
from pathlib import Path

import pytest

from repro.campaign import cli as campaign_cli
from repro.debug import server as debug_server
from repro.mcu.device import dispatch_mode

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md"))]

#: ``python -m`` module -> its argument parser factory.
PARSERS = {
    "repro.campaign": campaign_cli.build_parser,
    "repro.debug.server": debug_server.build_parser,
}

#: pytest options the docs use that take a value (not a path).
_VALUED = {"-m", "-k", "-p"}

_FENCE = re.compile(r"^```sh\n(.*?)^```", re.S | re.M)
_ENV = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=\S*$")
_SWITCH = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]")
_MODULE = re.compile(r"\bpython3?\s+-m\s+(repro(?:\.\w+)+)")

#: The environment switches the code reads: those its one reader names.
SWITCHES = set(_SWITCH.findall(inspect.getsource(dispatch_mode)))


def _commands(text: str) -> list[str]:
    """The commands of every ``sh`` block: comments dropped, ``\\`` joined."""
    commands = []
    for block in _FENCE.findall(text):
        pending = ""
        for line in block.splitlines():
            line = line.split(" #", 1)[0].rstrip()
            if line.startswith("#"):
                continue
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            line = (pending + line).strip()
            pending = ""
            if line:
                commands.append(line)
    return commands


def _argvs(path: Path) -> list[list[str]]:
    """Each documented command of ``path`` as an argv, env prefix dropped."""
    found = []
    for command in _commands(path.read_text()):
        argv = shlex.split(command)
        while argv and _ENV.match(argv[0]):
            argv.pop(0)  # PYTHONPATH=src and friends
        found.append(argv)
    return found


def _markers(pytestconfig) -> set[str]:
    """The markers the pytest configuration registers."""
    return {
        entry.split(":", 1)[0].strip()
        for entry in pytestconfig.getini("markers")
    }


def _check_pytest(args: list[str], markers: set[str]) -> None:
    position = 0
    while position < len(args):
        arg = args[position]
        position += 1
        if arg in _VALUED:
            value = args[position]
            position += 1
            if arg == "-m":
                names = set(re.findall(r"[A-Za-z_]\w*", value))
                unknown = names - {"and", "or", "not"} - markers
                assert not unknown, f"unregistered markers {sorted(unknown)}"
        elif not arg.startswith("-"):
            path = ROOT / arg.split("::", 1)[0]
            assert path.exists(), f"no such test path {arg!r}"


def _stale_modules(text: str) -> set[str]:
    """The ``python -m repro...`` modules ``text`` names that no CLI is."""
    return set(_MODULE.findall(text)) - set(PARSERS)


def _check(argv: list[str], markers: set[str]) -> None:
    """Check one command; commands other than these two kinds pass."""
    if argv[:1] == ["python3"]:
        argv = ["python", *argv[1:]]
    if argv[:1] == ["pytest"]:
        _check_pytest(argv[1:], markers)
    elif argv[:3] == ["python", "-m", "pytest"]:
        _check_pytest(argv[3:], markers)
    elif argv[:2] == ["python", "-m"] and argv[2].startswith("repro."):
        module = argv[2]
        assert module in PARSERS, f"no parser known for {module}"
        try:
            PARSERS[module]().parse_args(argv[3:])
        except SystemExit as exc:
            pytest.fail(f"{module} rejects {argv[3:]} (exit {exc.code})")


@pytest.mark.parametrize("path", DOCS, ids=lambda path: path.name)
def test_documented_commands_parse(path, pytestconfig):
    markers = _markers(pytestconfig)
    for argv in _argvs(path):
        _check(argv, markers)


@pytest.mark.parametrize("path", DOCS, ids=lambda path: path.name)
def test_documented_modules_exist(path):
    stale = _stale_modules(path.read_text())
    assert not stale, f"no CLI module {sorted(stale)}"


@pytest.mark.parametrize("path", DOCS, ids=lambda path: path.name)
def test_documented_switches_are_read(path):
    stale = set(_SWITCH.findall(path.read_text())) - SWITCHES
    assert not stale, f"no code reads {sorted(stale)}"


def test_docs_document_checkable_commands():
    """The scan is not vacuous: it finds each kind of command."""
    checked = [argv for path in DOCS for argv in _argvs(path)
               if argv[:1] == ["pytest"]
               or argv[:2] in (["python", "-m"], ["python3", "-m"])]
    modules = {argv[2] for argv in checked if argv[0] != "pytest"}
    assert {"repro.campaign", "repro.debug.server"} <= modules
    assert {"repro.campaign", "repro.debug.server"} <= {
        module for path in DOCS for module in _MODULE.findall(path.read_text())
    }
    assert any(argv[0] == "pytest" and "-m" in argv for argv in checked)


def test_a_broken_command_is_caught(pytestconfig):
    """The checks reject what a stale doc line would say."""
    markers = _markers(pytestconfig)
    assert "blockcache" in markers
    assert SWITCHES == {"REPRO_NO_BLOCKCACHE", "REPRO_FORCE_DEOPT"}
    assert _SWITCH.findall("run with REPRO_NO_BATCH=1") == ["REPRO_NO_BATCH"]
    with pytest.raises(pytest.fail.Exception):
        _check(["python", "-m", "repro.campaign", "--benchmark-only"], markers)
    with pytest.raises(AssertionError):
        _check(["pytest", "-m", "blockcache and no_such_marker"], markers)
    with pytest.raises(AssertionError):
        _check(["pytest", "tests/no_such_file.py"], markers)
    with pytest.raises(AssertionError):
        _check(["python", "-m", "repro.nowhere"], markers)
    with pytest.raises(AssertionError):
        _check(["python3", "-m", "repro.nowhere"], markers)
    with pytest.raises(pytest.fail.Exception):
        _check(["python3", "-m", "repro.campaign", "--no-such-flag"], markers)
    assert _stale_modules(
        "the old harness (`python -m repro.retired`) and\n"
        "- `python3 -m\n  repro.nowhere --x` but `python -m repro.campaign`"
    ) == {"repro.retired", "repro.nowhere"}


@pytest.mark.parametrize("module", sorted(PARSERS))
def test_cli_help_renders(module):
    """Every CLI's ``--help`` renders its own words.

    argparse %-formats help strings, so a bare ``%`` either raises here
    or, followed by a space and a letter, prints the action's internals
    dict in place of the text (``30% against`` read as ``% a``).
    """
    text = PARSERS[module]().format_help()
    assert "option_strings" not in text
    assert "%(" not in text
