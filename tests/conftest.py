"""Shared fixtures: presets are built once per session (the p-system build
runs a state-ball shrink loop and an eta/nu estimation sweep).  Shared
helpers are imported from here: ``from conftest import shifted_p_system``."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from selfsim.models import estimate_eta_nu, preset_model


@pytest.fixture(scope="session")
def burgers():
    return preset_model("burgers-identical")


@pytest.fixture(scope="session")
def linear_pair():
    return preset_model("linear-advection-pair")


@pytest.fixture(scope="session")
def p_system():
    return preset_model("p-system")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def shifted_p_system(p_system, s):
    """The p-system with A1 + s A0, which moves every speed by s: at s in
    family 1's band that band lies across the interface speed 0.
    M = lam_high[-1] + s + 0.5 keeps family 2's shifted band inside the grid."""
    return dataclasses.replace(
        p_system, A1=lambda u, v: p_system.A1(u, v) + s * p_system.A0(u, v),
        lam_low=p_system.lam_low + s, lam_high=p_system.lam_high + s,
        M=float(p_system.lam_high[-1] + s + 0.5), name=f"p-system-shifted-{s:g}")


def with_estimated_eta_nu(model):
    """The model with (eta, nu) from ``estimate_eta_nu``, as the builders set
    them: a variant that changes B0 must not keep its parent's constants."""
    eta, nu = estimate_eta_nu(model)
    return dataclasses.replace(model, eta=eta, nu=nu)


def traced_peak_mib(fn, *args):
    """The peak of the memory that fn(*args) allocates through Python's
    allocators while it runs, in MiB, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
