"""Acceptance criteria, one test per criterion.

Each test prints the standard one-line verdict so a plain ``pytest -s``
run doubles as the acceptance protocol; ``calderon acceptance`` runs
the same checks from the command line.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from calderon import acceptance


def _check(criterion):
    result = criterion()
    print(result.line)
    assert result.passed, result.line
    return result


def test_criteria_are_listed_once_in_order():
    # the _criterion decorator appends each criterion as it is defined
    want = [getattr(acceptance, f"criterion_{i}") for i in range(1, 11)]
    assert list(acceptance.CRITERIA) == want
    assert [c.__name__ for c in acceptance.CRITERIA] == [f"criterion_{i}" for i in range(1, 11)]


def test_criterion_01_projector_algebra():
    _check(acceptance.criterion_1)


def test_criterion_01_compares_the_schur_projector_as_a_full_matrix(monkeypatch):
    # P + P E (I - P) is a projector with P's range and another kernel, so
    # a range check passes it and the full-matrix check fails it
    real = acceptance.spectral_split

    def skewed(C):
        P = real(C).projector
        eye = np.eye(P.shape[0])
        return SimpleNamespace(projector=P + 1e-6 * P @ np.ones_like(P) @ (eye - P))

    monkeypatch.setattr(acceptance, "spectral_split", skewed)
    result = acceptance.criterion_1()
    assert not result.passed
    sign, schur = (float(result.detail.split(f"{key} ")[1].split(",")[0]) for key in ("gap", "schur"))
    assert sign <= 1e-10 < schur  # the sign-iteration check still passes


def test_criterion_02_closed_form_projector():
    _check(acceptance.criterion_2)


def test_criterion_03_symbol_orders():
    res = _check(acceptance.criterion_3)
    assert "growth_slopes" in res.data


def test_criterion_04_hardy_point():
    _check(acceptance.criterion_4)


def test_criterion_05_schatten_n2_q0():
    _check(acceptance.criterion_5)


def test_criterion_06_schatten_n2_q1():
    _check(acceptance.criterion_6)


def test_criterion_07_schatten_n3_q0():
    _check(acceptance.criterion_7)


def test_criterion_08_fredholm_indices():
    _check(acceptance.criterion_8)


def test_criterion_09_functional_calculus():
    _check(acceptance.criterion_9)


def test_criterion_10_principal_symbol_dependence():
    _check(acceptance.criterion_10)


@pytest.mark.parametrize(
    "criterion",
    [acceptance.criterion_5, acceptance.criterion_6, acceptance.criterion_7],
    ids=["criterion_05", "criterion_06", "criterion_07"],
)
def test_a_finite_rank_tail_fails_naming_its_rank(criterion, monkeypatch):
    # ten singular values are too few for a tail fit: schatten_fit reports
    # a finite rank and no slope, and the criterion fails on that
    real = acceptance.schatten_fit

    def ten_values(rep, **kwargs):
        return real(SimpleNamespace(svals=rep.svals[:10], modes=rep.modes), **kwargs)

    monkeypatch.setattr(acceptance, "schatten_fit", ten_values)
    result = criterion()
    assert not result.passed
    assert result.data["schatten"].finite_rank == 10
    assert result.detail == "finite rank 10, no tail slope"
    assert "FAIL" in result.line
