"""Tolerance bundle defaults and environment override."""

import dataclasses

import pytest

from su4c.config import DEFAULT_TOL, ENV_TOLERANCE, Tolerances, tolerances_from_env


def test_defaults():
    tol = Tolerances()
    assert tol.unitarity == 1e-8
    assert tol.su2_det == 1e-9
    assert tol.verify_distance == 1e-6
    assert tol.input_unitarity == 2e-2
    assert tol.mle_stop == 1e-10
    assert tol.mle_max_iter == 2000
    assert tol.prob_floor == 1e-12
    assert DEFAULT_TOL == tol


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_TOL.verify_distance = 1.0


def test_env_override(monkeypatch):
    monkeypatch.setenv(ENV_TOLERANCE, "5e-3")
    tol = tolerances_from_env()
    assert tol.verify_distance == 5e-3
    # only the verification threshold moves
    assert tol.unitarity == DEFAULT_TOL.unitarity
    assert tol.symmetry == DEFAULT_TOL.symmetry


def test_env_unset_keeps_base(monkeypatch):
    monkeypatch.delenv(ENV_TOLERANCE, raising=False)
    assert tolerances_from_env() == DEFAULT_TOL


@pytest.mark.parametrize("bad", ["", "abc", "0", "-1e-3", "nan"])
def test_env_invalid_rejected(monkeypatch, bad):
    monkeypatch.setenv(ENV_TOLERANCE, bad)
    with pytest.raises(ValueError):
        tolerances_from_env()
