"""The bitwise fingerprint script (tests/fingerprint.py) gives the same
digests on every run of the same tree, and reports the package's size."""

from pathlib import Path

import fingerprint
import linerec


def test_fingerprint_repeats_on_a_reduced_case_set():
    first = fingerprint.digests(reduced=True)
    assert list(first) == list(fingerprint.AREAS)
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in first.values())
    assert fingerprint.digests(reduced=True) == first


def test_the_script_ends_with_the_package_line_count(monkeypatch, capsys):
    monkeypatch.setattr(fingerprint, "digests", lambda: {"training": "0" * 64})
    fingerprint.main()
    count = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in Path(linerec.__file__).parent.glob("*.py"))
    assert capsys.readouterr().out.splitlines() == [f"training    {'0' * 64}",
                                                    f"src_lines   {count}"]
