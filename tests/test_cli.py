"""End-to-end checks of the command-line surface.

Every test drives main() in process and inspects exit codes, printed
reports, and the files left behind. The selftest subcommand is covered by
the acceptance battery through a real subprocess, not here.
"""

import re

import numpy as np
import pytest

from funkradon import GeometryFamily, Sinogram
from funkradon.cli import main
from funkradon.fields import read_f64grid
from funkradon.transform import read_fkr1, write_fkr1


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def radon_file(tmp_path_factory):
    """A radon sinogram of a well-windowed Gaussian, shared by invert tests."""
    path = tmp_path_factory.mktemp("cli") / "radon.fkr1"
    code = main([
        "forward", "--geometry", "radon", "--phantom", "gauss:0.06,0.04,0.15,1",
        "--nlambda", "257", "--nphi", "180", "--out", str(path),
    ])
    assert code == 0
    return path


# ---------------------------------------------------------------- forward

def test_forward_writes_the_sinogram_and_reports_the_peak(capsys, tmp_path):
    out = tmp_path / "s.fkr1"
    code, text, _ = run(
        capsys, "forward", "--geometry", "radon:support=1",
        "--phantom", "gauss:0,0,0.2,1", "--nlambda", 65, "--nphi", 48,
        "--out", out,
    )
    assert code == 0
    # peak of the central lambda row: sigma * sqrt(2 pi)
    assert "max entry 0.501326" in text
    assert "lambda range [-1, 1]" in text
    sino = read_fkr1(out)
    assert sino.kind == "mphi"
    assert sino.data.shape == (48, 65)
    assert sino.geom.tag == "radon"


def test_forward_echoes_the_descriptor(capsys, tmp_path):
    out = tmp_path / "c.fkr1"
    code, text, _ = run(
        capsys, "forward", "--geometry", "ellipse:e1=1,e2=1,support=0.7",
        "--phantom", "gauss:0,0,0.1,1", "--nlambda", 33, "--nphi", 16,
        "--out", out,
    )
    assert code == 0
    assert "ellipse:e1=1,e2=1,support=0.7" in text
    assert read_fkr1(out).geom.e1 == 1.0


def test_forward_rejects_a_malformed_family_tag(capsys, tmp_path):
    code, _, err = run(
        capsys, "forward", "--geometry", "elipse:e1=1,e2=1",
        "--phantom", "gauss:0,0,0.1,1", "--out", tmp_path / "x.fkr1",
    )
    assert code == 2
    assert "elipse" in err


def test_forward_rejects_a_non_integer_cormack_order(capsys, tmp_path):
    code, _, err = run(
        capsys, "forward", "--geometry", "cormack:k=2.5",
        "--phantom", "gauss:0.5,0,0.1,1", "--out", tmp_path / "x.fkr1",
    )
    assert code == 2
    assert "integer" in err
    assert not (tmp_path / "x.fkr1").exists()


def test_forward_refuses_a_cormack_row_that_diverges_at_the_origin(capsys, tmp_path):
    # odd nlambda puts a row at lambda = 0, whose rays integrate f(0) / (2 r)
    # from the origin: the value would be set by where the rays start
    code, _, err = run(
        capsys, "forward", "--geometry", "cormack:k=2",
        "--phantom", "gauss:0,0,0.15,1", "--nlambda", 33, "--nphi", 8,
        "--out", tmp_path / "x.fkr1",
    )
    assert code == 2
    assert "k=2" in err and "f(0) = 1" in err and "lambda = 0 (index 16)" in err
    assert not (tmp_path / "x.fkr1").exists()


@pytest.mark.parametrize(
    "geometry, phantom, overflow",
    [
        ("cormack:k=2000,support=1.5", "gauss:0.5,0,0.1,1", r"lambda range over the support disc overflows"),
        ("cormack:k=5000,support=1", "gauss:0.5,0,0.1,1", r"R\^k / \|lambda\| overflows on the working disc"),
        # R^k is finite here, and R^k / |lambda| overflows on the rows next to 0
        ("cormack:k=4900,support=1", "gauss:0.5,0,0.1,1", r"R\^k / \|lambda\| overflows on the working disc"),
        # f(0) = 0 exactly: what overflows is the weight r^(1-k)/k at r = 1e-9 R
        ("cormack:k=64,support=1", "gauss:0.9,0,0.02,1", r"rays' weight r\^\(1-k\)/k at their start .* overflows on the working disc"),
    ],
    ids=["support-k", "R-k", "R-k-over-lambda", "ray-weight"],
)
def test_forward_refuses_a_cormack_order_whose_numbers_overflow(capsys, tmp_path, geometry, phantom, overflow):
    # each used to exit 1 with an OverflowError traceback, or exit 2 blaming
    # the phantom for a non-finite value on a curve
    code, _, err = run(
        capsys, "forward", "--geometry", geometry, "--phantom", phantom,
        "--nlambda", 513, "--nphi", 8, "--out", tmp_path / "x.fkr1",
    )
    assert code == 2
    assert err.startswith(f"error: {geometry}: ")
    assert re.search(overflow, err)
    assert not (tmp_path / "x.fkr1").exists()


def test_forward_rejects_non_finite_geometry_parameters(capsys, tmp_path):
    for text, word in (("radon:support=inf", "support_radius"), ("ellipse:e1=inf,e2=1", "e1")):
        code, _, err = run(
            capsys, "forward", "--geometry", text,
            "--phantom", "gauss:0,0,0.1,1", "--out", tmp_path / "x.fkr1",
        )
        assert code == 2
        assert word in err and "finite" in err
    assert not (tmp_path / "x.fkr1").exists()


def test_forward_rejects_a_repeated_geometry_key(capsys, tmp_path):
    code, _, err = run(
        capsys, "forward", "--geometry", "radon:support=0.5,support=0.7",
        "--phantom", "gauss:0,0,0.1,1", "--out", tmp_path / "x.fkr1",
    )
    assert code == 2
    assert "repeated parameter 'support'" in err
    assert not (tmp_path / "x.fkr1").exists()


def test_forward_rejects_non_finite_phantom_parameters(capsys, tmp_path):
    # a NaN centre used to make every arc inactive and write an all-zero file
    for phantom in ("gauss:nan,0,0.1,1", "gauss:0,0,0.1,inf", "disc:0,0,0.2,1,inf"):
        code, _, err = run(
            capsys, "forward", "--geometry", "radon", "--phantom", phantom,
            "--nlambda", 9, "--nphi", 8, "--out", tmp_path / "x.fkr1",
        )
        assert code == 2
        assert "finite" in err
    assert not (tmp_path / "x.fkr1").exists()


def test_forward_sums_phantom_terms_joined_by_semicolons(capsys, tmp_path):
    # the two-term descriptor shown in the README
    terms = ("gauss:0.06,0.04,0.15,1", "disc:-0.2,0.1,0.1,0.5,0.02")
    peaks = []
    for name, phantom in (("sum", ";".join(terms)), ("a", terms[0]), ("b", terms[1])):
        out = tmp_path / f"{name}.fkr1"
        code, _, _ = run(
            capsys, "forward", "--geometry", "radon", "--phantom", phantom,
            "--nlambda", 33, "--nphi", 16, "--out", out,
        )
        assert code == 0
        peaks.append(read_fkr1(out).data)
    np.testing.assert_allclose(peaks[0], peaks[1] + peaks[2], rtol=1e-7, atol=1e-12)
    assert np.max(peaks[2]) > 0.0


def test_forward_rejects_a_bad_phantom_descriptor(capsys, tmp_path):
    code, _, err = run(
        capsys, "forward", "--geometry", "radon", "--phantom", "gauss:0,0,-0.1,1",
        "--out", tmp_path / "x.fkr1",
    )
    assert code == 2
    assert "sigma" in err


def test_forward_rejects_tiny_resolutions(capsys, tmp_path):
    code, _, err = run(
        capsys, "forward", "--geometry", "radon", "--phantom", "gauss:0,0,0.2,1",
        "--nlambda", 4, "--out", tmp_path / "x.fkr1",
    )
    assert code == 2
    assert "at least 8" in err


@pytest.mark.parametrize("flag, value", (("--workers", 0), ("--rtol", -1)))
def test_forward_refuses_bad_quadrature_settings_and_writes_nothing(capsys, tmp_path, flag, value):
    out = tmp_path / "x.fkr1"
    code, _, err = run(
        capsys, "forward", "--geometry", "radon", "--phantom", "gauss:0,0,0.2,1",
        "--nlambda", 33, "--nphi", 8, flag, value, "--out", out,
    )
    assert code == 2
    assert flag[2:] in err
    assert not out.exists()


def test_forward_half_range_needs_odd_lambda0(capsys, tmp_path):
    out = tmp_path / "h.fkr1"
    code, _, _ = run(
        capsys, "forward", "--geometry", "radon", "--phantom", "gauss:0,0,0.2,1",
        "--nlambda", 33, "--nphi", 24, "--half", "--out", out,
    )
    assert code == 0
    sino = read_fkr1(out)
    assert sino.phi_full == "half"
    assert sino.phi_axis[-1] < np.pi

    code, _, err = run(
        capsys, "forward", "--geometry", "hyperbola:eps=2",
        "--phantom", "gauss:0.06,0.04,0.15,1", "--nlambda", 33, "--nphi", 24,
        "--half", "--out", tmp_path / "h2.fkr1",
    )
    assert code == 2
    assert "hyperbola" in err
    assert not (tmp_path / "h2.fkr1").exists()


def test_forward_riemann_flag_sets_the_kind(capsys, tmp_path):
    out = tmp_path / "r.fkr1"
    code, _, _ = run(
        capsys, "forward", "--geometry", "ellipse:e1=1,e2=1,support=0.7",
        "--phantom", "gauss:0,0,0.1,1", "--nlambda", 33, "--nphi", 16,
        "--riemann", "--out", out,
    )
    assert code == 0
    assert read_fkr1(out).kind == "riemann"


def test_forward_riemann_needs_a_factorizable_gradient(capsys, tmp_path):
    code, _, err = run(
        capsys, "forward", "--geometry", "hyperbola:eps=2",
        "--phantom", "gauss:0,0,0.1,1", "--nlambda", 33, "--nphi", 16,
        "--riemann", "--out", tmp_path / "x.fkr1",
    )
    assert code == 2
    assert "hyperbola" in err


def test_forward_worker_count_does_not_change_the_file(capsys, tmp_path):
    args = [
        "forward", "--geometry", "radon", "--phantom", "gauss:0.1,0,0.15,1",
        "--nlambda", 33, "--nphi", 16,
    ]
    a, b = tmp_path / "a.fkr1", tmp_path / "b.fkr1"
    assert run(capsys, *args, "--out", a)[0] == 0
    assert run(capsys, *args, "--out", b, "--workers", 2)[0] == 0
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------- invert

def test_invert_round_trips_through_files(capsys, tmp_path, radon_file):
    out = tmp_path / "rec.f64"
    pgm = tmp_path / "rec.pgm"
    code, text, _ = run(
        capsys, "invert", "--in", radon_file, "--out", out, "--pgm", pgm,
        "--grid-n", 33, "--extent", 0.45, "--phantom", "gauss:0.06,0.04,0.15,1",
    )
    assert code == 0
    field = read_f64grid(out)
    assert field.values.shape == (33, 33)
    assert pgm.read_bytes().startswith(b"P5\n33 33\n255\n")
    line = next(ln for ln in text.splitlines() if ln.startswith("rel_l2"))
    assert float(line.split()[-1]) < 0.02


def test_invert_compares_cormack_data_with_the_k_fold_average(capsys, tmp_path):
    # the data of order 2 do not tell the Gaussian at (0.2, 0) from its
    # mirror at (-0.2, 0), so the report measures against their average
    src = tmp_path / "c.fkr1"
    phantom = "gauss:0.2,0,0.03,1"
    assert run(
        capsys, "forward", "--geometry", "cormack:k=2", "--phantom", phantom,
        "--nlambda", 513, "--nphi", 180, "--out", src,
    )[0] == 0
    code, text, _ = run(
        capsys, "invert", "--in", src, "--out", tmp_path / "rec.f64",
        "--grid-n", 32, "--extent", 0.31, "--phantom", phantom,
    )
    assert code == 0
    line = next(ln for ln in text.splitlines() if ln.startswith("rel_l2 vs phantom: "))
    assert line.endswith(" (against its 2-fold rotational average)")
    assert float(line.split()[3]) <= 0.05


def test_invert_default_extent_scales_with_the_support(capsys, tmp_path, radon_file):
    out = tmp_path / "rec.f64"
    code, _, _ = run(capsys, "invert", "--in", radon_file, "--out", out, "--grid-n", 17)
    assert code == 0
    grid = read_f64grid(out).grid
    assert grid.x0 == pytest.approx(-0.64)
    assert grid.x0 + grid.h * (grid.nx - 1) == pytest.approx(0.64)


def test_invert_coverage_failure_exits_3(capsys, tmp_path, radon_file):
    code, _, err = run(
        capsys, "invert", "--in", radon_file, "--out", tmp_path / "x.f64",
        "--grid-n", 17, "--extent", 1.5,
    )
    assert code == 3
    assert "outside the filtered range" in err


def test_invert_windowing_failure_exits_3(capsys, tmp_path):
    # a sigma = 0.5 Gaussian leaves exp(-2) of its peak at lambda = +-1
    wide = tmp_path / "wide.fkr1"
    assert run(
        capsys, "forward", "--geometry", "radon", "--phantom", "gauss:0,0,0.5,1",
        "--nlambda", 65, "--nphi", 48, "--out", wide,
    )[0] == 0
    code, _, err = run(
        capsys, "invert", "--in", wide, "--out", tmp_path / "x.f64", "--grid-n", 17,
    )
    assert code == 3
    assert "does not cover the phantom" in err


def test_invert_refuses_a_three_sample_lambda_axis(capsys, tmp_path):
    short = tmp_path / "short.fkr1"
    lam = np.linspace(-1.0, 1.0, 3)
    phi = np.arange(8) * (np.pi / 4)
    data = np.zeros((8, 3))
    data[:, 1] = 1.0
    write_fkr1(short, Sinogram(GeometryFamily("radon"), lam, phi, data))
    code, _, err = run(capsys, "invert", "--in", short, "--out", tmp_path / "x.f64", "--grid-n", 9)
    assert code == 2
    assert "cubic interpolation needs at least 4" in err
    assert not (tmp_path / "x.f64").exists()


def test_invert_routes_riemann_files_through_conversion(capsys, tmp_path):
    src = tmp_path / "r.fkr1"
    assert run(
        capsys, "forward", "--geometry", "radon", "--phantom", "gauss:0.06,0.04,0.15,1",
        "--nlambda", 257, "--nphi", 180, "--riemann", "--out", src,
    )[0] == 0
    out = tmp_path / "rec.f64"
    code, text, _ = run(
        capsys, "invert", "--in", src, "--out", out, "--riemann",
        "--grid-n", 17, "--extent", 0.3, "--phantom", "gauss:0.06,0.04,0.15,1",
    )
    assert code == 0
    line = next(ln for ln in text.splitlines() if ln.startswith("rel_l2"))
    assert float(line.split()[-1]) < 0.02


def test_invert_riemann_flag_refuses_mphi_data(capsys, tmp_path, radon_file):
    code, _, err = run(
        capsys, "invert", "--in", radon_file, "--out", tmp_path / "x.f64", "--riemann",
    )
    assert code == 2
    assert "mphi" in err


def test_invert_rejects_a_malformed_center(capsys, tmp_path, radon_file):
    code, _, err = run(
        capsys, "invert", "--in", radon_file, "--out", tmp_path / "x.f64",
        "--center", "0.1",
    )
    assert code == 2
    assert "--center" in err


@pytest.mark.parametrize("flag", (("--center", "nan,0"), ("--extent", "inf")))
def test_invert_refuses_a_non_finite_grid(capsys, tmp_path, radon_file, flag):
    out = tmp_path / "x.f64"
    code, _, err = run(capsys, "invert", "--in", radon_file, "--out", out, "--grid-n", 9, *flag)
    assert code == 2
    assert "finite" in err
    assert not out.exists()


def test_invert_rejects_a_tiny_grid(capsys, tmp_path, radon_file):
    code, _, err = run(capsys, "invert", "--in", radon_file, "--out", tmp_path / "x.f64", "--grid-n", 4)
    assert code == 2
    assert "resolutions must be at least 8" in err
    assert not (tmp_path / "x.f64").exists()


def test_invert_missing_input_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "invert", "--in", tmp_path / "absent.fkr1", "--out", tmp_path / "x.f64",
    )
    assert code == 2


def test_invert_refuses_an_n_phi_of_zero_exits_2(capsys, tmp_path, radon_file):
    # a header that promises no rows, over no rows: the count is refused
    # before the phi step 2 pi / n_phi is formed
    lines = radon_file.read_text().splitlines()
    fields = lines[2].split()
    bad = tmp_path / "zero.fkr1"
    bad.write_text("\n".join(lines[:2] + [" ".join(fields[:2] + ["0"] + fields[3:])]) + "\n")
    out = tmp_path / "x.f64"
    code, _, err = run(capsys, "invert", "--in", bad, "--out", out)
    assert code == 2
    assert f"{bad}: n_phi must be a positive integer, got '0'" in err
    assert not out.exists()


# ----------------------------------------------- kernel-check and dcoef

def test_kernel_check_reports_the_limit_and_the_zeros_and_passes(capsys):
    code, text, _ = run(capsys, "kernel-check", "--geometry", "radon", "--pairs", 5)
    assert code == 0
    lines = text.splitlines()
    pairs = [ln for ln in lines if ln.startswith("pair")]
    assert len(pairs) == 5
    # a line difference <y - x, e(phi)> has two simple real zeros
    assert all("zeros [2 real simple]  N = " in ln for ln in pairs)
    assert not any("levels" in ln for ln in lines)
    assert "max |N|" in text
    assert lines[-1] == "PASS"


@pytest.mark.parametrize("geometry", ["parabola", "cormack:k=3"])
def test_kernel_check_passes_on_the_parabola_and_cormack3(geometry, capsys):
    # the parabola's difference is the half-angle polynomial T(phi / 2)
    code, text, _ = run(capsys, "kernel-check", "--geometry", geometry, "--pairs", 40)
    assert code == 0
    pairs = [ln for ln in text.splitlines() if ln.startswith("pair")]
    assert len(pairs) == 40 and all("zeros [2 real simple]" in ln for ln in pairs)
    assert text.splitlines()[-1] == "PASS"


def test_kernel_check_compliant_ellipse_stays_quiet_about_the_condition(capsys):
    code, text, _ = run(
        capsys, "kernel-check", "--geometry", "ellipse:e1=1.2,e2=0.8,support=0.7",
        "--pairs", 8,
    )
    assert code == 0
    assert "support condition" not in text


def test_kernel_check_violating_ellipse_names_the_condition(capsys):
    code, text, _ = run(
        capsys, "kernel-check", "--geometry", "ellipse:e1=1.2,e2=0.8,support=0.9",
        "--pairs", 8,
    )
    # pairs drawn outside the admissible region may or may not trip the
    # tolerance, but the report must spell out the violated condition
    assert code in (0, 1)
    assert "‖y+x‖*ₑ<2" in text


def test_kernel_check_names_a_complex_pair(capsys):
    # far outside the admissible region some differences have a complex pair,
    # which gives the nucleus a nonzero limit, and the line says so
    code, text, _ = run(
        capsys, "kernel-check", "--geometry", "ellipse:e1=1.0,e2=0.3,support=0.9",
        "--pairs", 12,
    )
    assert code == 1
    assert "zeros [complex pair]" in text
    flagged = [ln for ln in text.splitlines() if "(over tolerance)" in ln]
    assert flagged and all("zeros [complex pair]" in ln for ln in flagged)


@pytest.mark.parametrize("tol", ("0", "-1", "nan", "inf"))
def test_kernel_check_refuses_a_tolerance_that_is_not_positive_and_finite(capsys, tol):
    code, text, err = run(capsys, "kernel-check", "--geometry", "radon", "--pairs", 2, "--tol", tol)
    assert code == 2
    assert "--tol must be positive and finite" in err
    assert not any(ln.startswith("pair") for ln in text.splitlines())


@pytest.mark.parametrize("command, flag", [("kernel-check", "--pairs"), ("dcoef", "--points")])
def test_a_sample_of_zero_is_refused(capsys, command, flag):
    code, text, err = run(capsys, command, "--geometry", "radon", flag, 0)
    assert code == 2
    assert f"{flag} must be at least 1" in err
    assert "PASS" not in text and "FAIL" not in text


def test_dcoef_prints_a_table(capsys):
    code, text, _ = run(capsys, "dcoef", "--geometry", "hgeodesic:support=0.7", "--points", 3)
    assert code == 0
    rows = [ln for ln in text.splitlines() if ln.startswith("x = ")]
    assert len(rows) == 3
    assert all("closed" in r and "quadrature" in r for r in rows)
    assert text.splitlines()[-1] == "PASS"


def test_dcoef_failure_exits_1(capsys):
    # eight quadrature nodes miss the hgeodesic normalizer by about 1e-2
    code, text, _ = run(
        capsys, "dcoef", "--geometry", "hgeodesic:support=0.7", "--points", 2, "--nphi", 8,
    )
    assert code == 1
    assert text.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("tol", ("0", "-1", "nan", "inf"))
def test_dcoef_refuses_a_tolerance_that_is_not_positive_and_finite(capsys, tol):
    # inf passed every normalizer, and nan or -1 failed every one
    code, text, err = run(capsys, "dcoef", "--geometry", "radon", "--points", 2, "--tol", tol)
    assert code == 2
    assert "--tol must be positive and finite" in err
    assert not any(ln.startswith("x = ") for ln in text.splitlines())


# ------------------------------------------------------------- plumbing

def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
