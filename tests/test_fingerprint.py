"""The bitwise fingerprint script (tests/fingerprint.py) gives the same
digests on every run of the same tree, and reports the package's size."""

import os
import subprocess
import sys
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
                                                    f"blas_threads {fingerprint.blas_threads()}",
                                                    f"src_lines   {count}"]


def test_the_blas_thread_count_is_the_one_requested():
    code = "import fingerprint; print(fingerprint.blas_threads())"
    path = os.pathsep.join([str(Path(fingerprint.__file__).parent),
                            str(Path(linerec.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
    assert out.stdout.split() == ["1"]


def test_decoding_does_not_depend_on_the_blas_thread_count():
    """Two 1160 px lines' features and hypotheses, and six lattices' losses,
    gradients and alpha/beta tables, are bitwise the same at one and at two
    BLAS threads: no reduction on the decoding path or in the lattice is
    split by them."""
    code = "import fingerprint; print(*fingerprint.decoding((1160,), 0), fingerprint.lattices(6))"
    path = os.pathsep.join([str(Path(fingerprint.__file__).parent),
                            str(Path(linerec.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    outputs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": path,
                                               "OPENBLAS_NUM_THREADS": threads,
                                               "OMP_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1] and len(outputs[0].split()) == 3
