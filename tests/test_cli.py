import json
import math
import re
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from qgamma import oscillatory
from qgamma.cli import _COMMANDS, _MAX_DIGITS, _MAX_ORDER, _OPTIONS, \
    _build_parser, main, parse_space
from qgamma.grassmann import bcfk_j_series, ehx_constant_terms
from qgamma.jfun import j_projective, quantum_lefschetz, quantum_period
from qgamma.laurent import LaurentPolynomial
from qgamma.scalars import working_context

import oracles


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_qperiod_csv_projective_line(capsys):
    rc, out, err = run(capsys, ["qperiod", "--space", "P1", "-N", "10",
                                "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "d,G_d_exact,G_d_float"
    assert lines[1].split(",")[:2] == ["0", "1"]
    rows = {int(l.split(",")[0]): l.split(",")[1] for l in lines[1:]}
    assert rows[2] == "1"
    assert rows[4] == "1/4"
    assert rows[6] == "1/36"


def test_spectrum_grassmannian(capsys):
    rc, out, err = run(capsys, ["spectrum", "--space", "Gr(2,5)"])
    assert rc == 0
    d = json.loads(out)
    assert set(d) >= {"tool_version", "command", "config_echo", "value"}
    assert d["command"] == "spectrum"
    assert d["config_echo"]["space"] == "Gr(2,5)"
    ctx = working_context(60)
    T = ctx.mpf(d["value"]["T"])
    want = 5 * ctx.sin(2 * ctx.pi / 5) / ctx.sin(ctx.pi / 5)
    assert abs(T - want) < ctx.mpf(10) ** -30
    assert d["value"]["property_o"]["satisfied"] is True
    assert d["verdict"] is True


@pytest.mark.parametrize("space", ["P1", "P2", "P3", "P4", "Gr(2,4)",
                                   "Gr(2,5)", "Gr(2,6)", "Gr(3,6)",
                                   "Gr(3,7)"])
def test_spectrum_verdict_at_precision_floor(capsys, space):
    # --digits 15 must give the verdict and counts of --digits 50
    seen = []
    for digits in ("15", "50"):
        rc, out, err = run(capsys, ["spectrum", "--space", space,
                                    "--digits", digits])
        rep = json.loads(out)["value"]["property_o"]
        seen.append((rc, rep["satisfied"], rep["multiplicity_at_T"],
                     rep["circle_count"]))
    assert seen[0] == seen[1]
    assert seen[1][:3] == (0, True, 1)


def test_check_gamma1_passes(capsys):
    rc, out, err = run(capsys, ["check-gamma1", "--space", "P2",
                                "--digits", "30", "--order", "300",
                                "--tmax", "20", "-k", "5"])
    assert rc == 0
    d = json.loads(out)
    assert d["verdict"] is True
    assert d["value"]["pass"] is True
    assert mpmath.mpf(d["value"]["worst_difference"]) < mpmath.mpf(10) ** -8


def test_check_gamma1_impossible_tolerance_fails(capsys):
    rc, out, err = run(capsys, ["check-gamma1", "--space", "P2",
                                "--digits", "30", "--order", "300",
                                "--tmax", "20", "-k", "5",
                                "--tol", "1e-60"])
    assert rc == 1
    d = json.loads(out)
    assert d["verdict"] is False


def test_ring_hypersurface_naming(capsys):
    # the name is pinned for every space by test_payload_names_its_space
    rc, out, err = run(capsys, ["ring", "--space", "X(4,3)"])
    assert rc == 0
    d = json.loads(out)
    assert d["value"]["dimension"] == 2
    assert d["value"]["index"] == 1


@pytest.mark.parametrize("space", ["P1", "P2", "P3", "P4", "X(4,2)",
                                   "X(4,3)", "X(5,3)", "Gr(2,4)", "Gr(2,5)",
                                   "Gr(2,6)"])
def test_payload_names_its_space(capsys, space):
    # every ring and series is named by the --space label that built it;
    # these are the cli-sweep spaces but P1xP1, which has neither.  The
    # short check-gamma1 run resolves nothing, so its verdict is not read.
    requests = {"ring": ("name", []), "jseries": ("space", ["-D", "12"]),
                "check-gamma1": ("space", ["-D", "60", "--tmax", "2",
                                           "-k", "3"])}
    if space.startswith("X"):
        requests["lefschetz"] = ("space", ["-D", "40"])
    for command, (key, flags) in requests.items():
        rc, out, err = run(capsys, [command, "--space", space, "--digits",
                                    "15", *flags])
        assert rc in (0, 1), (command, err)
        assert json.loads(out)["value"][key] == space, command


def test_hypersurface_constructors_count_coordinates():
    # X(n,d) has n homogeneous coordinates in every constructor: a ring
    # named by its label, of rank n - 1, index n - d and degree d, a mirror
    # in n - 2 variables, and the Lefschetz route to the same ring
    for n in range(3, 8):
        for d in range(1, n):
            spec = parse_space(f"X({n},{d})")
            R = spec.build_ring()
            assert (R.name, R.rank, R.fano_index, R.integral[-1]) == \
                (spec.label, n - 1, n - d, d)
            assert spec.mirror().nvars == n - 2
            lef = quantum_lefschetz(j_projective(n, n), d)
            assert lef["JY"].ring == R, (n, d)
    # P^(n-1) on the Schubert basis, and a series on a hypersurface ring,
    # are no ambient series
    for JX in (bcfk_j_series(1, 5, 10),
               quantum_lefschetz(j_projective(5, 10), 2)["JY"]):
        with pytest.raises(ValueError, match="must come from j_projective"):
            quantum_lefschetz(JX, 1)


def test_conifold_cubic_surface(capsys):
    rc, out, err = run(capsys, ["conifold", "--space", "X(4,3)"])
    assert rc == 0
    d = json.loads(out)
    assert mpmath.mpf(d["value"]["T0"]) == 21
    assert d["value"]["hessian_positive"] is True
    assert [mpmath.mpf(x) for x in d["value"]["location"]] == [1, 1]
    # det of the Hessian of f in log coordinates at (1, 1)
    assert mpmath.mpf(d["value"]["hessian_det"]) == 243


def test_gram_and_mutate(capsys):
    rc, out, err = run(capsys, ["gram", "--space", "P3"])
    assert rc == 0
    d = json.loads(out)
    assert d["value"]["integers"] == [[1, 4, 10, 20], [0, 1, 4, 10],
                                      [0, 0, 1, 4], [0, 0, 0, 1]]
    rc, out, err = run(capsys, ["mutate", "--space", "P3",
                                "--word", "R1 L1"])
    assert rc == 0
    d = json.loads(out)
    # a mutation and its inverse restore the identity rows
    assert d["value"]["rows"] == [[1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]]
    assert d["value"]["resort_order"] == [0, 1, 2, 3]


@pytest.mark.parametrize("digits", ["15", "30", "50", "100"])
@pytest.mark.parametrize("space, word", [
    ("P4", "R1,L2,R1,L3,R2,R4,R1,R2"),     # rows reach 257,845
    ("P4", "L4,L2,R4,R3,L2,R1"),
    ("P3", "R1,L2,L1,L1,L1,L1"),
])
def test_long_p4_mutation_word_stays_integral(capsys, space, word, digits):
    # the Gram matrix of an exceptional collection is integral at every
    # --digits, however large the rows grow
    rc, out, err = run(capsys, ["mutate", "--space", space, "--word", word,
                                "--digits", digits])
    assert rc == 0, out
    grams = json.loads(out)["value"]["gram_integers"]
    assert all(x is not None for row in grams for x in row)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gram_json_and_csv_match_closed_form(capsys, n):
    # chi(O(i), O(j)) = C(j - i + n - 1, n - 1) on P^(n-1), both formats
    want = oracles.beilinson_gram(n)
    labels = [f"O({k})" for k in range(n)]
    rc, out, err = run(capsys, ["gram", "--space", f"P{n - 1}"])
    assert rc == 0
    d = json.loads(out)
    assert d["verdict"] is True
    assert d["value"] == {"labels": labels, "integers": want}
    rc, out, err = run(capsys, ["gram", "--space", f"P{n - 1}",
                                "--format", "csv"])
    assert rc == 0
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert header == ["pair"] + labels
    assert [row[0] for row in rows] == labels
    assert [[int(x) for x in row[1:]] for row in rows] == want


def test_oscillatory_verdict_does_not_depend_on_digits(capsys):
    # on P1 the central charge pairing cancels about 4 t log10(e) digits;
    # it is 2 K_0(2 t) at 15 digits as at 50, and never a false verdict
    base = ["oscillatory", "--space", "P1", "--quad-tol", "1e-8"]
    for t in (8, 10):
        K = 2 * oracles.bessel_k0_series(2 * t, 60)
        for digits in ("15", "50"):
            rc, out, err = run(capsys, base + ["--t", str(t),
                                               "--digits", digits])
            assert rc == 0, (t, digits, err)
            z = complex(json.loads(out)["value"]["central_charge"]
                        .replace(" ", ""))
            assert abs(z - K) / K < 1e-6, (t, digits, z)
    for digits in ("15", "30"):
        rc, out, err = run(capsys, base + ["--t", "20", "--digits", digits])
        assert rc != 1, (digits, out)


def test_oscillatory_reports_quadrature_error(capsys):
    # the relative difference of the grid pair the integral was accepted on,
    # an estimate of its error, at most --quad-tol
    rc, out, err = run(capsys, ["oscillatory", "--space", "P1", "--t", "0.7",
                                "-D", "80", "--quad-tol", "1e-8",
                                "--digits", "30"])
    assert rc == 0, err
    d = json.loads(out)
    quad = float(d["error_estimates"]["quadrature_error"])
    assert 0 <= quad <= 1e-8
    K = 2 * oracles.bessel_k0_series("1.4", 60)
    osc = mpmath.mpf(d["value"]["oscillatory_integral"])
    assert abs(osc - K) / K < 1e-8


def test_oscillatory_prints_only_the_known_digits_of_quadrature_error(capsys):
    # two grid sums at --digits + 10 digits cancel in their difference d,
    # leaving about --digits + 10 - ceil(|log10 d|) of its digits
    rc, out, err = run(capsys, ["oscillatory", "--space", "P1", "--t", "0.7",
                                "-D", "80", "--quad-tol", "1e-12",
                                "--digits", "15"])
    assert rc == 0, err
    text = json.loads(out)["error_estimates"]["quadrature_error"]
    quad = mpmath.mpf(text)
    assert 0 < quad <= 1e-12
    known = max(2, 25 - math.ceil(-mpmath.log10(quad)))
    mantissa = re.sub(r"[^0-9]", "", text.split("e")[0]).lstrip("0")
    assert 2 <= len(mantissa) <= known < 15, text


def test_oscillatory_quadrature_error_digits_follow_quad_tol(capsys):
    # at --digits 50 the grids for --quad-tol 1e-12 carry 17 + 10 digits,
    # not 60, and their difference keeps 27 - ceil(|log10 d|) of them
    rc, out, err = run(capsys, ["oscillatory", "--space", "P1", "--t", "0.7",
                                "-D", "80", "--quad-tol", "1e-12",
                                "--digits", "50"])
    assert rc == 0, err
    text = json.loads(out)["error_estimates"]["quadrature_error"]
    quad = mpmath.mpf(text)
    assert 0 < quad <= 1e-12
    known = max(2, 27 - math.ceil(-mpmath.log10(quad)))
    mantissa = re.sub(r"[^0-9]", "", text.split("e")[0]).lstrip("0")
    assert 2 <= len(mantissa) <= known < 15, text


@pytest.mark.parametrize("space", ["P4", "P5"])
@pytest.mark.parametrize("digits", ["15", "50"])
def test_oscillatory_past_three_variables(capsys, space, digits):
    # the P4 and P5 mirrors have four and five variables, and each of
    # their grids is one big-int product: no dimension cap refuses them
    rc, out, err = run(capsys, ["oscillatory", "--space", space,
                                "--digits", digits])
    assert rc == 0, err
    d = json.loads(out)
    assert d["verdict"] is True
    assert float(d["value"]["relative_difference"]) < 1e-12
    assert 0 < float(d["error_estimates"]["quadrature_error"]) <= 1e-12


def test_oscillatory_prints_the_integral_to_its_known_digits(capsys):
    # --quad-tol 1e-12 gives the integral 17 digits at --digits 50: it is
    # printed to those, and the relative difference to the digits that
    # survive its cancellation, by the rule of quadrature_error
    rc, out, err = run(capsys, ["oscillatory", "--space", "P5",
                                "--digits", "50"])
    assert rc == 0, err
    d = json.loads(out)
    assert d["verdict"] is True
    value = d["value"]
    text = value["oscillatory_integral"]
    assert 15 <= len(re.sub(r"[^0-9]", "", text).lstrip("0")) <= 17, text
    ctx = working_context(60)
    charge = ctx.mpf(value["central_charge"].strip("()").split(" ")[0])
    assert abs(ctx.mpf(text) / charge - 1) < ctx.mpf(10) ** -15, text
    shown = value["relative_difference"]
    assert d["error_estimates"]["relative_difference"] == shown
    rel = ctx.mpf(shown)
    known = max(2, 17 - math.ceil(-mpmath.log10(rel)))
    mantissa = re.sub(r"[^0-9]", "", shown.split("e")[0]).lstrip("0")
    assert 1 <= len(mantissa) <= known, shown


def test_lefschetz_without_tol_states_no_verdict(capsys):
    rc, out, err = run(capsys, ["lefschetz", "--space", "X(4,2)", "-D", "40"])
    assert rc == 0
    d = json.loads(out)
    assert "verdict" not in d
    assert "pass" not in d["value"] and "tol" not in d["value"]
    rc, out, err = run(capsys, ["lefschetz", "--space", "X(4,2)", "-D", "40",
                                "--tol", "1e-8"])
    assert rc == 0
    assert json.loads(out)["verdict"] is True


def test_lefschetz_unconverged_sum_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(oscillatory, "_MAX_LEVEL", 2)
    rc, out, err = run(capsys, ["lefschetz", "--space", "X(4,2)", "-D", "40",
                                "--tol", "1e-8"])
    assert rc == 2 and out == ""
    assert err.startswith("error: Laplace sum did not converge")


def test_lefschetz_converges_at_400_digits(capsys):
    # the level cap grows with the working digits: X(4,2) needs 9 tanh-sinh
    # levels at 400 digits, one more than the cap below wp = 128
    rc, out, err = run(capsys, ["lefschetz", "--space", "X(4,2)",
                                "--digits", "400", "--tol", "1e-300"])
    assert rc == 0, err
    assert json.loads(out)["verdict"] is True


def test_lefschetz_unconverged_ambient_series_exits_2(capsys):
    # at -D 8 the ambient series' last term is not below the one before at
    # the Laplace nodes
    rc, out, err = run(capsys, ["lefschetz", "--space", "X(4,2)", "-D", "8",
                                "--u", "0.05"])
    assert rc == 2 and out == ""
    assert err.startswith("error: ambient series tail not under control")


def test_apery_target_is_zeta2(capsys):
    rc, out, err = run(capsys, ["apery", "--space", "Gr(2,5)",
                                "--order", "50", "-N", "10"])
    assert rc == 0
    d = json.loads(out)
    assert abs(mpmath.mpf(d["value"]["target"]) - mpmath.zeta(2)) \
        < mpmath.mpf(10) ** -30
    assert len(d["value"]["ratios"]) == 10


def test_toric_rays_match_product_space(capsys, tmp_path):
    rays = tmp_path / "rays.json"
    rays.write_text(json.dumps([[1, 0], [-1, 0], [0, 1], [0, -1]]))
    rc1, out1, _ = run(capsys, ["qperiod", "--space", f"toric:{rays}",
                                "-N", "6", "--format", "csv"])
    rc2, out2, _ = run(capsys, ["qperiod", "--space", "P1xP1",
                                "-N", "6", "--format", "csv"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    rows = {int(l.split(",")[0]): l.split(",")[1]
            for l in out1.splitlines()[1:]}
    assert rows[2] == "2"
    assert rows[4] == "3/2"
    assert rows[6] == "5/9"


def test_nonprimitive_ray_rejected(capsys, tmp_path):
    rays = tmp_path / "rays.json"
    rays.write_text(json.dumps([[2, 0], [-1, 0], [0, 1], [0, -1]]))
    rc, out, err = run(capsys, ["qperiod", "--space", f"toric:{rays}",
                                "-N", "4"])
    assert rc == 2
    assert "primitive" in err


def test_output_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "out.json"
    rc, out, err = run(capsys, ["gamma", "--space", "P2",
                                "--output", str(target)])
    assert rc == 0
    assert target.read_text() == out


def test_output_into_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    rc, out, err = run(capsys, ["gamma", "--space", "P2",
                                "--output", str(target)])
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""
    assert not target.exists()


def test_config_directory_exits_2(capsys, tmp_path):
    rc, out, err = run(capsys, ["--config", str(tmp_path), "gamma",
                                "--space", "P2"])
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_toric_rays_directory_exits_2(capsys, tmp_path):
    rc, out, err = run(capsys, ["qperiod", "--space", f"toric:{tmp_path}",
                                "-N", "4"])
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("doc, verdict, rc", [
    ({"value": 1}, False, 1), ({"value": 1}, None, 0), ("a,b\n", False, 1)])
def test_one_exit_path(capsys, monkeypatch, tmp_path, doc, verdict, rc):
    # main alone renders what a subcommand returns and picks the exit code
    monkeypatch.setitem(_COMMANDS, "ring", lambda args, spec: (doc, verdict))
    target = tmp_path / "out"
    got, out, err = run(capsys, ["ring", "--space", "P2",
                                 "--output", str(target)])
    assert got == rc
    assert err == ""
    assert target.read_text() == out
    if isinstance(doc, str):
        assert out == doc
    else:
        d = json.loads(out)
        assert d["value"] == 1
        assert d["command"] == "ring"
        assert d["error_estimates"] == {}
        if verdict is None:
            assert "verdict" not in d
        else:
            assert d["verdict"] is verdict


def test_json_output_deterministic(capsys):
    args = ["spectrum", "--space", "Gr(2,4)"]
    rc1, out1, _ = run(capsys, args)
    rc2, out2, _ = run(capsys, args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_config_file_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = P1\nn = 6\nformat = csv\n")
    rc, out, err = run(capsys, ["--config", str(cfg), "qperiod"])
    assert rc == 0
    assert len(out.splitlines()) == 5  # header + d = 0,2,4,6
    rc, out, err = run(capsys, ["--config", str(cfg), "qperiod", "-N", "2"])
    assert rc == 0
    assert len(out.splitlines()) == 3  # flag overrides the file


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    for text in ("spaace = P1\n", "seed = 3\n"):
        cfg.write_text(text)
        rc, out, err = run(capsys, ["--config", str(cfg), "qperiod",
                                    "--space", "P1", "-N", "2"])
        assert rc == 2, text
        assert "unknown config key" in err


def test_config_section_header_refused(capsys, tmp_path):
    # keys under a header would otherwise be read into another section and
    # dropped without a word
    cfg = tmp_path / "run.cfg"
    for text in ("digits = 20\n[other]\nbogus = 1\ndigits = 30\n",
                 "digits = 20\n[DEFAULT]\n", "[qgamma]\ndigits = 20\n"):
        cfg.write_text(text)
        rc, out, err = run(capsys, ["--config", str(cfg), "gamma",
                                    "--space", "P2"])
        assert rc == 2, text
        assert "bad config file" in err
        assert out == ""


@pytest.mark.parametrize("text, what", [
    ("digits = 20\n[qgamma]\nspace = P2\n", "section header [qgamma]"),
    ("space = P2\ndigits 20\n", "no '=' in 'digits 20'"),
    ("digits = 20\ndigits = 30\n", "repeated config key 'digits'")],
    ids=["header", "no-equals", "repeated-key"])
def test_config_error_names_file_and_line(capsys, tmp_path, text, what):
    # each fault sits on line 2 of the file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc, out, err = run(capsys, ["--config", str(cfg), "gamma",
                                "--space", "P2"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: bad config file")
    assert what in err
    assert repr(str(cfg)) in err and "[line  2]" in err


def test_config_foreign_section_names_file_and_line(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 20\n[other]\nspace = P2\n")
    rc, out, err = run(capsys, ["--config", str(cfg), "gamma",
                                "--space", "P2"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: bad config file")
    assert "section header [other]" in err
    assert repr(str(cfg)) in err and "[line  2]" in err


def test_config_reader_rules(capsys, tmp_path):
    # key=value with or without spaces, - or _ in keys, # and ; comments
    # and blank lines
    cfg = tmp_path / "run.cfg"
    for key in ("quad-tol", "quad_tol"):
        cfg.write_text(f"# P1 at 20 digits\nspace=P1\n\n; the grid\n"
                       f"{key} = 1e-8\ndigits=20\norder =80\n")
        rc, out, err = run(capsys, ["--config", str(cfg), "oscillatory",
                                    "--t", "0.7"])
        assert rc == 0, (key, err)
        assert json.loads(out)["config_echo"] == {
            "space": "P1", "digits": 20, "order": 80, "quad_tol": "1e-08",
            "t": "0.7", "tol": "1e-06"}


@pytest.mark.parametrize("text", ["space = P2\ndigits: 20\n",
                                  "digits = 20\nspace =\n  P2\n"])
def test_config_colon_and_continuation_lines_refused(capsys, tmp_path,
                                                      text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc, out, err = run(capsys, ["--config", str(cfg), "gamma",
                                "--space", "P2"])
    assert rc == 2
    assert out == ""
    line = text.count("\n")
    assert f"{repr(str(cfg))} [line  {line}]: no '='" in err, err


def test_config_does_not_carry_into_the_next_call(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = P1\n")
    rc, out, err = run(capsys, ["--config", str(cfg), "ring"])
    assert rc == 0, err
    rc, out, err = run(capsys, ["ring"])
    assert rc == 2
    assert "required: --space" in err


def test_config_values_are_checked_like_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    for text, reason in (("format = xml\n", "invalid choice: 'xml'"),
                         ("n = 50%\n", "invalid int value: '50%'")):
        cfg.write_text("space = P1\n" + text)
        rc, out, err = run(capsys, ["--config", str(cfg), "qperiod"])
        assert rc == 2, text
        assert out == ""
        assert reason in err, text


def test_config_key_of_another_command_is_skipped(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = P1\nn = 4\ntmax = 20\n")
    rc, out, err = run(capsys, ["--config", str(cfg), "qperiod"])
    assert rc == 0, err
    d = json.loads(out)
    assert d["config_echo"] == {"space": "P1", "digits": 50, "N": 4,
                                "format": "json"}
    assert [row["d"] for row in d["value"]] == [0, 2, 4]


def test_usage_errors_exit_2(capsys):
    # each case with a piece of the message that names its reason
    cases = [
        (["qperiod", "--space", "P0", "-N", "4"], "dimension >= 1"),
        (["qperiod", "--space", "Q5", "-N", "4"], "unknown space 'Q5'"),
        (["qperiod", "--space", "X(3,3)", "-N", "4"],
         "hypersurface needs n >= 3"),
        (["gamma", "--space", "P2", "--digits", "10"],
         "need at least 15 digits"),
        (["gamma", "--space", "P2", "--digits", "-5"],
         "need at least 15 digits"),
        # --digits has a ceiling, as -D and -N have
        (["gamma", "--space", "P1", "--digits", "100000"],
         "argument --digits/-P: must be at most 1000"),
        (["gamma", "--space", "P1", "--digits", "1" + "0" * 30],
         "argument --digits/-P: must be at most 1000"),
        (["gamma", "--space", "P2", "--format", "csv"],
         "unrecognized arguments: --format csv"),
        (["mutate", "--space", "P3", "--word", "Q1"],
         "bad mutation token 'Q1'"),
        (["mutate", "--space", "P3", "--word", "R9"],
         "mutation position 9 out of range"),
        # the mirror check is wired for projective spaces only (P4 and
        # P5, once refused at the dimension cap, now run: see
        # test_oscillatory_past_three_variables)
        (["oscillatory", "--space", "X(4,2)", "--digits", "20"],
         "oscillatory check is wired for P<n> spaces"),
        # the integral carries an error near --quad-tol
        (["oscillatory", "--space", "P1", "--quad-tol", "1e-6"],
         "--quad-tol 1e-06 must be below --tol 1e-06"),
        (["jseries", "--space", "P1", "--order", "0"],
         "argument --order/-D: must be positive"),
        # float options refuse nan and inf; --tol must be positive
        (["oscillatory", "--space", "P1", "--t", "nan"],
         "argument --t: must be positive and finite"),
        (["oscillatory", "--space", "P1", "--t", "inf"],
         "argument --t: must be positive and finite"),
        (["check-gamma1", "--space", "P1", "--tol", "-1"],
         "argument --tol: must be positive and finite"),
        (["check-gamma1", "--space", "P1", "--tol", "nan"],
         "argument --tol: must be positive and finite"),
        (["check-gamma1", "--space", "P1", "--tol", "inf"],
         "argument --tol: must be positive and finite"),
        (["lefschetz", "--space", "X(4,2)", "--tol", "0"],
         "argument --tol: must be positive and finite"),
        # a positive --tol that a float rounds to 0 is named as such
        (["lefschetz", "--space", "X(4,2)", "--tol", "1e-400"],
         "argument --tol: 1e-400 is below the smallest positive float, "
         "about 5e-324"),
        (["spectrum"], "the following arguments are required: --space"),
        (["no-such-command", "--space", "P1"],
         "invalid choice: 'no-such-command'"),
        # options that their subcommand does not read are refused
        (["ring", "--space", "P2", "--order", "3"],
         "unrecognized arguments: --order 3"),
        (["conifold", "--space", "P2", "--format", "csv"],
         "unrecognized arguments: --format csv"),
        # toric rays have no J-series, with or without an order
        (["apery", "--space", "toric:rays.json"],
         "no J-series construction for toric:rays.json"),
        (["apery", "--space", "toric:rays.json", "-D", "30"],
         "no J-series construction for toric:rays.json"),
    ]
    for argv, reason in cases:
        rc, out, err = run(capsys, argv)
        assert rc == 2, argv
        assert reason in err, (argv, err)


def test_jseries_payload(capsys):
    rc, out, err = run(capsys, ["jseries", "--space", "P2", "--order", "6"])
    assert rc == 0
    d = json.loads(out)
    assert d["value"]["r"] == 3
    assert d["value"]["coefficients"][1] == {"d": 3,
                                             "coeffs": ["1", "-3", "6"]}


def test_runtime_error_exits_2(capsys, monkeypatch):
    def capped(*args, **kwargs):
        raise RuntimeError("Newton iteration cap exceeded")
    monkeypatch.setattr("qgamma.cli.conifold_point", capped)
    rc, out, err = run(capsys, ["conifold", "--space", "P2"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: Newton iteration cap exceeded")


def test_newton_cap_exits_2_through_conifold_point(capsys, monkeypatch):
    # the real Newton loop, float and mp iterations counted together
    monkeypatch.setattr("qgamma.mirror._NEWTON_CAP", 1)
    rc, out, err = run(capsys, ["conifold", "--space", "Gr(2,5)"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: Newton iteration cap exceeded")


@pytest.mark.parametrize("argv", [
    ["jseries", "--space", "P1", "-D", "1" + "0" * 400],
    ["check-gamma1", "--space", "P1", "-D", str(10 ** 5 + 1)],
    ["qperiod", "--space", "P1", "-N", "1" + "0" * 400],
    ["apery", "--space", "P1", "-N", str(10 ** 12)],
    ["fekete", "--space", "Gr(2,4)", "-N", str(10 ** 5 + 1)],
])
def test_orders_above_the_ceiling_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert out == ""
    assert "must be at most 100000" in err


@pytest.mark.parametrize("argv, degree, option", [
    (["jseries", "--space", "P2", "-D", "1700"], 1659, "-D"),
    (["jseries", "--space", "P1", "-D", "3000"], 1602, "-D"),
    (["qperiod", "--space", "P1", "-N", "2000"], 1720, "-N"),
])
def test_coefficients_past_the_int_string_limit_exit_2(capsys, argv, degree,
                                                       option):
    # the first coefficient with more than 4300 digits (Python's default
    # limit on int-to-string conversion) is named with the option to
    # lower; the limit itself is interpreter-wide and left as it is
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err == (f"error: the degree-{degree} coefficient has more than "
                   f"{limit} digits, more than Python prints; "
                   f"lower {option}\n")
    assert sys.get_int_max_str_digits() == limit


def test_every_default_and_the_ceiling_are_accepted():
    parser = _build_parser()
    ceilings = {"--order": _MAX_ORDER, "-N": _MAX_ORDER,
                "--digits": _MAX_DIGITS}
    for flags, keywords, defaults in _OPTIONS:
        most = ceilings.get(flags[0])
        if most is not None:
            assert all(v is None or v <= most for v in defaults.values())
            for command in defaults:
                word = ["--word", "R1"] if command == "mutate" else []
                args = parser.parse_args([command, "--space", "P1", *word,
                                          flags[0], str(most)])
                assert vars(args)[flags[0].lstrip("-")] == most


def test_qperiod_float_ignores_global_precision(capsys, monkeypatch):
    monkeypatch.setattr(mpmath.mp, "dps", 15)
    rc, out, err = run(capsys, ["qperiod", "--space", "P1xP1", "-N", "6",
                                "--digits", "40"])
    assert rc == 0
    rows = {row["d"]: row for row in json.loads(out)["value"]}
    assert rows[6]["exact"] == "5/9"
    ctx = working_context(60)
    got = ctx.mpf(rows[6]["float"])
    assert abs(got - ctx.mpf(5) / 9) < ctx.mpf(10) ** -40
    rc, out, err = run(capsys, ["qperiod", "--space", "P1xP1", "-N", "6",
                                "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[-1] == "6,5/9,0.55555555555555556"


def test_constant_table_commands_at_15_digits(capsys):
    # Gamma_P2 = Gamma(1+h)^3 = exp(-3 gamma h + (3/2) zeta(2) h^2) mod h^3
    rc, out, err = run(capsys, ["gamma", "--space", "P2", "--digits", "15"])
    assert rc == 0, err
    value = json.loads(out)["value"]
    ctx = working_context(40)
    g = ctx.convert(oracles.euler_gamma_mascheroni(40))
    want = {"1": ctx.mpf(1), "h^1": -3 * g,
            "h^2": 9 * g ** 2 / 2 + ctx.pi ** 2 / 4}
    for label, w in want.items():
        assert abs(ctx.mpf(value[label]) - w) < abs(w) * ctx.mpf(10) ** -14
    for argv in (["gram", "--space", "P3"], ["mutate", "--space", "P4",
                                              "--word", "R1 L2 R3"]):
        rc, out, err = run(capsys, argv + ["--digits", "15"])
        assert rc == 0, (argv, err)


def test_oscillatory_leaves_global_context_alone(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("global mpmath precision changed")
    monkeypatch.setattr(mpmath, "workdps", forbidden)
    monkeypatch.setattr(mpmath, "workprec", forbidden)
    dps = mpmath.mp.dps
    rc, out, err = run(capsys, ["oscillatory", "--space", "P1", "--t", "0.7",
                                "--digits", "30"])
    assert rc == 0, err
    assert json.loads(out)["verdict"] is True
    assert mpmath.mp.dps == dps


def test_jseries_grassmannian_full_precision(capsys):
    # exact rationals, the same at every --digits
    printed = []
    for digits in ("15", "60"):
        rc, out, err = run(capsys, ["jseries", "--space", "Gr(2,4)", "-D",
                                    "12", "--digits", digits])
        assert rc == 0
        printed.append(json.loads(out)["value"]["coefficients"])
    rows = printed[0]
    assert printed[1] == rows
    exact = ehx_constant_terms(2, 4, 12)
    assert [row["d"] for row in rows] == [0, 4, 8, 12]
    for row in rows:
        assert Fraction(row["coeffs"][0]) == exact.coefficient(row["d"])


def test_jseries_t0_at_requested_digits(capsys):
    # X(5,3), the cubic threefold: T0 = 2 * 3^(3/2) = 2 sqrt(27), irrational
    rc, out, err = run(capsys, ["jseries", "--space", "X(5,3)", "-D", "4",
                                "--digits", "100"])
    assert rc == 0
    ref = mpmath.ctx_mp.MPContext()
    ref.dps = 130
    assert json.loads(out)["value"]["T0"] == mpmath.nstr(2 * ref.sqrt(27), 100)


def test_apery_order_sets_truncation(capsys):
    base = ["apery", "--space", "Gr(2,4)", "-N", "4"]
    rc, out, err = run(capsys, base)
    assert rc == 0
    default = json.loads(out)["value"]
    assert default["D"] == 16                   # index 4 times N
    rc, out, err = run(capsys, base + ["--order", "24"])
    assert rc == 0
    longer = json.loads(out)["value"]
    assert longer["D"] == 24
    assert longer["ratios"] == default["ratios"]
    rc, out, err = run(capsys, base + ["--order", "12"])
    assert rc == 2
    assert out == ""
    assert "truncated below the requested index" in err


@pytest.mark.parametrize("space, N", [("X(4,3)", 8), ("X(5,4)", 6)])
def test_apery_index_one_hypersurface(capsys, space, N):
    # <[pt], J_1> = 0 on these, so the ratios start at n = 2
    rc, out, err = run(capsys, ["apery", "--space", space, "-N", str(N)])
    assert rc == 0, err
    value = json.loads(out)["value"]
    assert value["n"] == list(range(2, N + 1))
    assert len(value["ratios"]) == N - 1
    rc, out, err = run(capsys, ["apery", "--space", space, "-N", "1"])
    assert rc == 2
    assert "vanishes at every degree up to 1" in err


def test_readme_commands_run(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "qgamma":
                commands.append(argv[1:])
    assert len(commands) >= 10
    for argv in commands:
        rc, out, err = run(capsys, argv)
        assert rc == 0, (argv, err)


SMALL_REQUESTS = [
    ["ring", "--space", "Gr(2,4)"],
    ["gamma", "--space", "P2"],
    ["jseries", "--space", "Gr(2,4)", "-D", "8"],
    ["qperiod", "--space", "P1xP1", "-N", "6"],
    ["conifold", "--space", "P2"],
    ["spectrum", "--space", "Gr(2,5)"],
    ["check-gamma1", "--space", "P1", "-D", "120", "--tmax", "12", "-k", "4"],
    ["apery", "--space", "Gr(2,4)", "-N", "4"],
    ["oscillatory", "--space", "P1", "--t", "0.7", "-D", "80",
     "--quad-tol", "1e-8"],
    ["lefschetz", "--space", "X(4,2)", "-D", "40", "--u", "0.05",
     "--tol", "1e-8"],
    ["gram", "--space", "P3"],
    ["mutate", "--space", "P4", "--word", "R1 L2"],
    ["fekete", "--space", "P2", "-N", "4"],
]


def test_small_requests_cover_every_subcommand():
    assert [argv[0] for argv in SMALL_REQUESTS] == list(_COMMANDS)


# each subcommand with only its required flags, the echo of every option
# it reads beside space and digits (the table's defaults and the values
# derived from the space: apery's order and kernel index, fekete's index;
# lefschetz's tol is None, as it states no verdict, and --output is never
# echoed), and a check that the payload used the echoed values
DEFAULT_ECHOES = [
    (["ring", "--space", "P1"], {}, None),
    (["gamma", "--space", "P1"], {}, None),
    (["jseries", "--space", "P1"], {"order": 20},
     lambda v, e: v["D"] == e["order"]),
    (["qperiod", "--space", "P1"], {"N": 10, "format": "json"},
     lambda v, e: v[-1]["d"] == e["N"]),
    (["conifold", "--space", "P1"], {}, None),
    (["spectrum", "--space", "P1"], {}, None),
    (["check-gamma1", "--space", "P1"],
     {"order": 600, "tmax": "40.0", "korder": 6, "tol": "0.0001"},
     lambda v, e: (v["D"], v["k"], float(v["t_max"]))
     == (e["order"], e["korder"], float(e["tmax"]))),
    (["apery", "--space", "Gr(2,4)"],
     {"N": 20, "order": 80, "kernel_index": 1},
     lambda v, e: v["D"] == e["order"]
     and v["kernel_dimension"] == e["kernel_index"] + 1),
    (["oscillatory", "--space", "P1"],
     {"order": 400, "t": "1.0", "quad_tol": "1e-12", "tol": "1e-06"},
     lambda v, e: (v["t"], v["tol"]) == (e["t"], e["tol"])),
    (["lefschetz", "--space", "X(4,2)"], {"order": 160, "u": "0.05"},
     lambda v, e: "pass" not in v and float(v["u"]) == float(e["u"])),
    (["gram", "--space", "P1"], {"format": "json"}, None),
    (["mutate", "--space", "P2", "--word", "R1"], {"word": "R1"}, None),
    # Const((x + 1/x)^(2k)) for k = 0..N: index 2
    (["fekete", "--space", "P1"], {"N": 12, "index": 2},
     lambda v, e: v["constants"] == [str(math.comb(2 * k, k))
                                     for k in range(e["N"] + 1)]),
]


def test_default_echoes_cover_every_subcommand():
    assert [argv[0] for argv, _, _ in DEFAULT_ECHOES] == list(_COMMANDS)


@pytest.mark.parametrize("argv, echo, used", DEFAULT_ECHOES,
                         ids=[argv[0] for argv, _, _ in DEFAULT_ECHOES])
def test_config_echo_holds_every_setting_used(capsys, argv, echo, used):
    rc, out, err = run(capsys, argv)
    assert rc == 0, err
    d = json.loads(out)
    assert d["config_echo"] == {"space": argv[2], "digits": 50, **echo}
    assert used is None or used(d["value"], d["config_echo"])


@pytest.mark.parametrize("argv", SMALL_REQUESTS, ids=lambda argv: argv[0])
def test_output_ignores_global_precision(capsys, argv):
    # every subcommand computes in its own contexts: a caller that lowered
    # mpmath's global precision gets the same bytes
    argv = argv + ["--digits", "20"]
    want = run(capsys, argv)
    assert want[0] == 0, want[2]
    with mpmath.workdps(5):
        got = run(capsys, argv)
    assert got == want


def test_qperiod_projective_mirror_matches_j_series(capsys):
    # qperiod reads the mirror, whose relation lattice powers one term of
    # the P4 mirror; the J-series is the independent route
    rc, out, err = run(capsys, ["qperiod", "--space", "P4", "-N", "120"])
    assert rc == 0, err
    qp = quantum_period(j_projective(5, 120))
    rows = json.loads(out)["value"]
    assert [row["d"] for row in rows] == qp.nonzero_degrees()
    assert all(Fraction(row["exact"]) == qp.coefficient(row["d"])
               for row in rows)


@pytest.mark.parametrize("space", ["P2", "P1xP1", "X(4,2)", "X(4,3)",
                                   "Gr(2,4)", "toric"])
def test_every_space_has_a_positive_laurent_mirror(tmp_path, space):
    if space == "toric":
        rays = tmp_path / "rays.json"
        rays.write_text("[[1, 0], [0, 1], [-1, -1]]")
        space = f"toric:{rays}"
    f = parse_space(space).mirror()
    assert isinstance(f, LaurentPolynomial)
    assert f.is_nonnegative()


@pytest.mark.parametrize("space, n, d", [("X(4,2)", 4, 2), ("X(5,2)", 5, 2),
                                         ("X(5,3)", 5, 3)])
def test_fekete_on_hypersurfaces_matches_quantum_lefschetz(capsys, space,
                                                           n, d):
    # the mirror's power constants are (rk)! G_{rk} for the quantum period G
    # of the Lefschetz route, r = n - d the index
    N, r = 4, n - d
    rc, out, err = run(capsys, ["fekete", "--space", space, "-N", str(N)])
    assert rc == 0, err
    got = [Fraction(c) for c in json.loads(out)["value"]["constants"]]
    JX = j_projective(n, N * n)     # degree r N on X needs N n on P
    G = quantum_period(quantum_lefschetz(JX, d, DY=r * N)["JY"])
    assert got == [math.factorial(r * k) * G.coefficient(r * k)
                   for k in range(N + 1)]


@pytest.mark.parametrize("argv", [["--space", "P2", "--index", "1"],
                                  ["--space", "X(4,3)"]])
def test_fekete_vanishing_constant_is_a_usage_error(capsys, argv):
    # a zero Const(f^{rk}) breaks the hypothesis; it refutes nothing
    rc, out, err = run(capsys, ["fekete", "-N", "4"] + argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "--index" in err
