"""docs/cli.md must not drift from the argparse definitions.

Two directions:

* completeness — every subcommand and every flag the parser accepts is
  mentioned in its section of docs/cli.md;
* honesty — every ``--flag`` token the docs mention exists in the
  parser for some subcommand.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.__main__ import _build_parser

DOCS = Path(__file__).resolve().parent.parent / "docs" / "cli.md"


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = _build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("parser has no subcommands")


def _flags_of(subparser: argparse.ArgumentParser) -> set[str]:
    flags: set[str] = set()
    for action in subparser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flags.update(action.option_strings)
    return flags


def _positionals_of(subparser: argparse.ArgumentParser) -> set[str]:
    return {action.dest for action in subparser._actions
            if not action.option_strings
            and not isinstance(action, argparse._HelpAction)}


def _doc_sections() -> dict[str, str]:
    """Section body per ``## heading`` of docs/cli.md."""
    text = DOCS.read_text(encoding="utf-8")
    sections: dict[str, str] = {}
    name = "_preamble"
    body: list[str] = []
    for line in text.splitlines():
        if line.startswith("## "):
            sections[name] = "\n".join(body)
            name = line[3:].strip()
            body = []
        else:
            body.append(line)
    sections[name] = "\n".join(body)
    return sections


def test_docs_file_exists():
    assert DOCS.is_file(), "docs/cli.md is missing"


def test_every_subcommand_has_a_section():
    sections = _doc_sections()
    for command in _subcommands():
        assert command in sections, \
            f"docs/cli.md lacks a '## {command}' section"


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_every_flag_is_documented(command):
    subparser = _subcommands()[command]
    section = _doc_sections()[command]
    for flag in _flags_of(subparser):
        assert flag in section, \
            f"flag {flag!r} of {command!r} undocumented in docs/cli.md"
    for positional in _positionals_of(subparser):
        assert positional in section, \
            f"positional {positional!r} of {command!r} undocumented"


def test_every_documented_flag_exists():
    documented = set(re.findall(r"(?<![-\w])(--[a-z][a-z-]*)",
                                DOCS.read_text(encoding="utf-8")))
    known: set[str] = set()
    for subparser in _subcommands().values():
        known |= _flags_of(subparser)
    stale = documented - known
    assert not stale, f"docs/cli.md mentions unknown flags: {stale}"


def test_documented_analysis_choices_match_parser():
    """The analyze section lists exactly the registered analyses."""
    from repro.__main__ import ANALYSES
    section = _doc_sections()["analyze"]
    for choice in ANALYSES:
        assert f"`{choice}`" in section, \
            f"analysis choice {choice!r} missing from docs/cli.md"


def test_documented_env_reps_match_registry():
    """Every env rep a registered analysis declares is documented in
    the analyses section (shared / flat / summary today; a fourth rep
    must land with its docs)."""
    from repro.analysis.registry import registry
    section = _doc_sections()["analyses"]
    reps = {spec.env_rep for spec in registry().specs()
            if spec.env_rep}
    assert reps  # the registry always has Scheme analyses
    for rep in sorted(reps):
        assert f"`{rep}`" in section, \
            f"env rep {rep!r} undocumented in docs/cli.md"


def test_analyses_knob_columns_documented_and_served():
    """The listing serves the boolean ``specialized`` knob column for
    every analysis, and the analyses section documents it — an
    engine-tier column must land with its docs."""
    from repro.analysis.registry import registry_listing
    for row in registry_listing(None):
        assert isinstance(row["specialized"], bool), row["name"]
        assert "codegen" not in row, row["name"]
    section = _doc_sections()["analyses"]
    assert "`specialized`" in section, \
        "analyses column 'specialized' undocumented in docs/cli.md"


def test_analyses_table_renders_knob_columns():
    """`python -m repro analyses` prints the knob columns (the table
    the docs describe is the table the CLI prints)."""
    from repro.analysis.registry import registry_listing
    from repro.reporting import analyses_report
    rows = registry_listing(None)
    report = analyses_report(rows, None, len(rows), "test")
    header = report.splitlines()[0]
    assert "specialized" in header and "codegen" not in header
    assert "pushdown" in report  # a registered opt-out renders "no"
