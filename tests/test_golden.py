"""Replay the golden manifest: every command's stdout, stderr and exit code
as recorded in ``golden_manifest.txt`` (see ``golden.py``)."""

import golden

ENTRIES = golden.read()


def test_manifest_lists_every_generated_command():
    # the workload lists, the families and the routes the manifest was
    # generated from are still the ones it holds
    assert [argv for argv, _ in ENTRIES] == golden.commands()


def test_every_command_replays_byte_for_byte():
    bad = golden.mismatches(ENTRIES)
    assert not bad, f"{len(bad)} of {len(ENTRIES)} commands moved:\n" + "\n".join(bad[:20])
