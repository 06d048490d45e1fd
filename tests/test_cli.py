"""Command line behavior: golden outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json

import pytest

from tautchern import ModuliSpec, ch_bundle, default_labels, expr_from_json
from tautchern.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ch_lambda_basis_golden(capsys):
    code, out, err = run(capsys, "ch", "--g", "2", "--n", "0",
                         "--degree", "1", "--bundle", "cotangent",
                         "--basis", "lambda")
    assert code == 0 and err == ""
    assert out == "deg 0: rank = 3\ndeg 1: 13*lambda - 2*delta\n"


def test_ch_degree_zero_prints_rank_only(capsys):
    code, out, _ = run(capsys, "ch", "--g", "3", "--n", "2", "--degree", "0")
    assert code == 0
    assert out == "deg 0: rank = 8\n"


def test_ch_degree_two_golden(capsys):
    code, out, _ = run(capsys, "ch", "--g", "1", "--n", "1", "--degree", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "deg 0: rank = 1"
    assert lines[2] == ("deg 2: 1/3 kappa_2 + 1/4 xi_irr_*(psi_{q1} + psi_{q2})"
                        " + 1/4 sum_{h,A} xi_{h,A}_*(psi_{r1} + psi_{r2})")


def test_ch_latex_format(capsys):
    code, out, _ = run(capsys, "ch", "--g", "2", "--n", "1", "--degree", "1",
                       "--basis", "lambda", "--format", "latex")
    assert code == 0
    assert "deg 1: 13\\,\\lambda + \\psi - 2\\,\\delta" in out


def test_ch_json_round_trip(capsys):
    code, out, _ = run(capsys, "ch", "--g", "2", "--n", "1", "--degree", "3",
                       "--format", "json")
    assert code == 0
    spec = ModuliSpec(2, default_labels(1))
    assert expr_from_json(out) == ch_bundle(spec, 3).graded


def test_ch_json_degree_zero(capsys):
    code, out, _ = run(capsys, "ch", "--g", "2", "--n", "0", "--degree", "0",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"rank": 3}


def test_ch_concrete_mode_uses_labels(capsys):
    code, out, _ = run(capsys, "ch", "--g", "0", "--labels", "a,b,c,d",
                       "--degree", "1", "--basis", "lambda",
                       "--mode", "concrete")
    assert code == 0
    assert "psi_{a}" in out
    assert "xi_{0,{a,b}}_*(1)" in out


def test_chern_tangent_golden(capsys):
    code, out, _ = run(capsys, "chern", "--g", "2", "--n", "1", "--jmax", "1",
                       "--bundle", "tangent", "--basis", "lambda")
    assert code == 0
    assert out == "rank = 4\nc_1 = -13*lambda - psi + 2*delta\n"


def test_chern_jmax_zero(capsys):
    code, out, _ = run(capsys, "chern", "--g", "2", "--n", "1", "--jmax", "0")
    assert code == 0
    assert out == "rank = 4\n"


def test_chern_json_document(capsys):
    code, out, _ = run(capsys, "chern", "--g", "2", "--n", "1", "--jmax", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 4 and doc["jmax"] == 2
    assert len(doc["classes"]) == 2
    assert doc["classes"][0]["degree"] == 2


def test_chern_json_jmax_nine_golden(capsys):
    """Generic (2,1) up to c_9: numerators and denominators larger than any
    the benchmark pools reach, pinned by the sha256 of the whole stdout."""
    code, out, err = run(capsys, "chern", "--g", "2", "--n", "1", "--jmax", "9",
                         "--format", "json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fc357aa70892263b32bfc20a8766bf39ab41fd8ace7488cc6973d07c57ef8b07")


def test_bernoulli_golden(capsys):
    assert run(capsys, "bernoulli", "4") == (0, "-1/30\n", "")
    assert run(capsys, "bernoulli", "0") == (0, "1\n", "")
    assert run(capsys, "bernoulli", "1") == (0, "-1/2\n", "")


def test_bernoulli_negative_is_domain_error(capsys):
    code, out, err = run(capsys, "bernoulli", "--", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_partitions_golden(capsys):
    code, out, _ = run(capsys, "partitions", "4")
    assert code == 0
    assert out == "(4) (3,1) (2,2) (2,1,1) (1,1,1,1)\n"
    assert run(capsys, "partitions", "1")[1] == "(1)\n"


def test_partitions_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "partitions", "0")
    assert code == 2 and out == ""
    assert "j >= 1" in err


def test_unstable_spec_is_domain_error(capsys):
    code, _, err = run(capsys, "ch", "--g", "0", "--n", "2", "--degree", "1")
    assert code == 2
    assert "n > 2 - 2*g" in err


def test_spec_flag_validation(capsys):
    code, _, err = run(capsys, "ch", "--g", "2", "--n", "1",
                       "--labels", "a", "--degree", "1")
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "ch", "--g", "2", "--degree", "1")
    assert code == 2 and "--n or --labels" in err


@pytest.mark.parametrize("labels", ["a,b},c,d", "a,,b,c", "a,b,c,", "a b,c,d,e"])
def test_malformed_labels_exit_two(capsys, labels):
    code, out, err = run(capsys, "ch", "--g", "0", "--labels", labels,
                         "--degree", "1", "--mode", "concrete")
    assert code == 2 and out == ""
    assert "marking label" in err


@pytest.mark.parametrize("argv, message", [
    (("ch", "--g", "2", "--n", "-1", "--degree", "1"), "marking count must be >= 0, got -1"),
    (("ch", "--g", "2", "--n", "1", "--degree", "-1"), "degree must be >= 0, got -1"),
    (("chern", "--g", "2", "--n", "1", "--jmax", "-1"), "jmax must be >= 0, got -1"),
])
def test_negative_count_exits_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_passes_with_expected_note(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    check_lines = [ln for ln in lines if ln.startswith("check ")]
    assert len(check_lines) == 8
    assert all(ln.endswith(": PASS") for ln in check_lines)
    note_lines = [ln for ln in lines if ln.startswith("note: ")]
    assert len(note_lines) == 1
    assert "FAIL" in note_lines[0]
    assert "informational" in note_lines[0]
    assert lines[-1] == "8 of 8 gating checks passed"


def test_verify_stdout_pinned(capsys):
    """Every check line, the note and the summary, pinned by the sha256 of
    the whole stdout at the default order."""
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "16cb03e61b4f7f4ffbe86ceabc646c3cdb239a744b3f44b6edf9b91c7176fd17")


def test_verify_injected_fault_fails(capsys):
    """The fault flips one sign of the node correction series, so the node
    check is the one gating check that fails."""
    code, out, _ = run(capsys, "verify", "--inject-fault")
    assert code == 1
    assert "7 of 8 gating checks passed" in out
    failed = [ln for ln in out.splitlines() if ln.startswith("check ") and ln.endswith(": FAIL")]
    assert failed == ["check node sheaf character times inverse dual todd equals the node "
                      "correction series (order 12): FAIL"]


def test_verify_order_domain(capsys):
    code, _, err = run(capsys, "verify", "--order", "3")
    assert code == 2
    assert "order must be >= 4" in err


@pytest.mark.parametrize("argv", [
    ("ch", "--g", "3", "--n", "2", "--degree", "3", "--format", "json"),
    ("ch", "--g", "2", "--n", "0", "--degree", "2", "--mode", "concrete"),
    ("chern", "--g", "2", "--n", "1", "--jmax", "2", "--basis", "lambda"),
])
def test_identical_flags_identical_output(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0
