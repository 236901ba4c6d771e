"""The verification battery, one test per criterion.

Each test runs the corresponding check from funkradon.acceptance and
prints its [PASS]/[FAIL] line; run with -s to watch them land.
The final test shells out to the installed CLI, so the battery also proves
the console entry point works from a clean environment.
"""

import subprocess
import sys
import time

from funkradon import acceptance


def _report(res):
    print(res.line(), flush=True)
    assert res.passed, res.detail


def test_criterion_1_pair_kernel_vanishes():
    _report(acceptance.check_nucleus())


def test_criterion_2_normalizer_closed_forms_match_quadrature():
    _report(acceptance.check_normalizer())


def test_criterion_3_residue_integrals_match_quadrature():
    _report(acceptance.check_residues())


def test_criterion_4_forward_matches_closed_forms():
    _report(acceptance.check_forward())


def test_criterion_5_round_trip_accuracy():
    _report(acceptance.check_round_trip())


def test_criterion_6_error_falls_under_resolution_doubling():
    _report(acceptance.check_convergence())


def test_criterion_7_half_range_reconstruction_matches_full():
    _report(acceptance.check_half_range())


def test_criterion_8_file_formats_round_trip_bit_identically():
    _report(acceptance.check_formats())


def test_criterion_8_selftest_exits_clean():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "funkradon.cli", "selftest"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    dt = time.perf_counter() - t0
    ok = proc.returncode == 0 and dt < 60.0
    print(f"[{'PASS' if ok else 'FAIL'}] selftest: exit {proc.returncode} in {dt:.1f}s")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert dt < 60.0, f"selftest took {dt:.1f}s"
