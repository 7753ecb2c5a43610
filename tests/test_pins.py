"""The record command is the store's only writer, and it needs a cause.

These cases bite on ``tests/pins.py``: without a cause it refuses and
writes nothing, a budget pushed above its ceiling is named in that
refusal, recording the values the store holds rewrites no byte, and a
one-character change in what a command prints fails with a diff.
"""

import shutil

import pytest

from tests import pins


@pytest.fixture
def store(tmp_path, monkeypatch):
    """Record into a copy of the store and of EXPERIMENTS.md."""
    for name in ("PINS", "TEXTS", "EXPERIMENTS"):
        path = getattr(pins, name)
        (shutil.copytree if path.is_dir() else shutil.copy)(
            path, tmp_path / path.name)
        monkeypatch.setattr(pins, name, tmp_path / path.name)


def snapshot():
    return {path: path.read_bytes() for path in [
        pins.PINS, pins.EXPERIMENTS, *pins.TEXTS.glob("*")]}


@pytest.mark.parametrize("argv", [[], ["--cause", " "]])
def test_no_cause_exits_non_zero_and_writes_nothing(argv, capsys):
    before = snapshot()
    with pytest.raises(SystemExit) as exc:
        pins.main(argv)
    assert exc.value.code != 0 and "--cause" in capsys.readouterr().err
    assert snapshot() == before


def test_recording_the_recorded_values_moves_nothing(store):
    texts = {path.stem for path in pins.TEXTS.glob("*.txt")}
    observed = {name: [("budget", value[0]) if isinstance(value, list)
                       else ("stdout" if name in texts else "golden", value)]
                for name, value in pins.load().items()}
    before = snapshot()
    assert pins.record(observed, "any cause") == []
    assert snapshot() == before


def test_budget_rise_is_refused_without_a_cause(store):
    reached, ceiling = pins.load()["calls.noc.scalar_hop"]
    observed = {"calls.noc.scalar_hop": [("budget", ceiling + 1)]}
    before = snapshot()
    with pytest.raises(SystemExit, match="scalar_hop would rise above"):
        pins.record(observed, "")
    assert snapshot() == before
    line = (f"calls.noc.scalar_hop: ({reached}, {ceiling}) -> ({ceiling + 1},"
            f" {ceiling + 1}) (a budget rise) — a planted call")
    assert pins.record(observed, "a planted call") == [line]
    assert pins.load()["calls.noc.scalar_hop"] == [ceiling + 1] * 2
    assert pins.EXPERIMENTS.read_text().partition(
        "\n## Known deviations\n")[2].endswith(f"* {line}\n")


def test_one_pin_observed_with_two_values_is_refused(store):
    observed = {"rack.plain_dscp": [("golden", "0" * 64),
                                    ("golden", "1" * 64)]}
    before = snapshot()
    with pytest.raises(SystemExit, match="observed with 2 values"):
        pins.record(observed, "a cause")
    assert snapshot() == before


def test_planted_stdout_change_fails_with_a_diff(monkeypatch):
    monkeypatch.setattr(pins, "_observed", None)  # assert while recording too
    text = pins.load()["repro_table2"]
    pins.stdout("repro_table2", text)
    with pytest.raises(AssertionError) as info:
        pins.stdout("repro_table2", text.replace("238.1", "238.2", 1))
    assert "--- recorded repro_table2" in str(info.value)
    assert "\n+" in str(info.value) and "238.2" in str(info.value)


def test_digest_is_one_canonical_form():
    """Dict order does not count; tuple and non-string keys hash."""
    assert pins.digest({(1, 2): 3, "a": [1, (2,)]}) \
        == pins.digest({"a": [1, [2]], (1, 2): 3})
    assert pins.digest({1: 0}) != pins.digest({"1": 0})
