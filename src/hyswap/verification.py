"""Acceptance checks: simulator outputs against independent references.

Each check returns a :class:`CriterionResult`; :func:`run_all` executes
the whole battery and the ``verify`` CLI command prints one line per
criterion.  The two checks that the tests drive with deliberately broken
settings (wrong splitter phase, starved cutoff) take those settings as
parameters; the others take none.  The loss line and the vacuum-test
part of the property suite check the lossy pairs and the vacuum test
that the pipelines call, looked up on ``protocols`` at call time,
against the loss channel taken two ways and against the splitter
followed by on-off detectors.  ``cv_bsm_failure_prob``, the all-coherent
Bell measurement the homodyne scheme is an alternative to, is a
reference and not a pipeline, so it lives here beside its check, written
on bare amplitude arrays.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import protocols
from .closed_form import _check_alpha, closed_form, dv_loss_limit
from .fock import (
    DensityOperator,
    ModeRegister,
    StateVector,
    bosonic,
    fidelity,
    make_coherent,
    make_fock,
    make_hybrid_pair,
    make_vsp_bell,
    qubit,
    reduced_density,
    tensor,
    _coherent_amplitudes,
)
from .negativity import negativity, partial_transpose
from .optics import (
    FIFTY_FIFTY,
    BeamSplitterParams,
    apply_bs,
    apply_loss,
    apply_loss_dilated,
    bs_on_axes,
    bs_unitary,
)
from .protocols import dv_swap, he_swap_homodyne, he_swap_spd

__all__ = ["CriterionResult", "run_all", "report", "CHECKS", "cv_bsm_failure_prob"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: str
    tolerance: str


def _result(name, passed, measured, tolerance):
    return CriterionResult(name, bool(passed), measured, tolerance)


def check_dv_lossless() -> CriterionResult:
    t0 = time.perf_counter()
    res = dv_swap(1.0, 1.0, 12)
    elapsed = time.perf_counter() - t0
    err_p = abs(res.total_success_probability - 0.5)
    err_e = max(abs(o.negativity - 1.0) for o in res.per_outcome)
    ok = err_p <= 1e-10 and err_e <= 1e-10 and elapsed < 1.0
    return _result(
        "dv swap, lossless",
        ok,
        f"|p-1/2|={err_p:.2e} max|E-1|={err_e:.2e} in {elapsed:.2f}s",
        "1e-10, under 1s",
    )


def check_dv_loss_limit() -> CriterionResult:
    res = dv_swap(1e-6, 1.0, 12)
    err = abs(res.averaged_negativity - dv_loss_limit())
    ok = err <= 1e-5
    return _result(
        "dv negativity at vanishing transmission",
        ok,
        f"|E-(sqrt2-1)/2|={err:.2e}",
        "1e-5",
    )


def check_closed_form_grid() -> CriterionResult:
    t0 = time.perf_counter()
    worst_p = worst_e = 0.0
    Ts = [1.0 - float(loss) for loss in np.arange(0.0, 0.91, 0.1)]
    for tp in (0.7, 1.0):
        for scheme, alpha in (("dv", 0.3), ("he_spd", 0.3), ("he_spd", 0.5), ("he_spd", 0.7)):  # dv ignores alpha
            for T, sim in zip(Ts, protocols.swap_points(scheme, alpha, Ts, tp, 12)):
                ref = closed_form(scheme, alpha, T, tp)
                worst_p = max(worst_p, abs(sim.total_success_probability - ref.p))
                worst_e = max(worst_e, abs(sim.averaged_negativity - ref.E))
    elapsed = time.perf_counter() - t0
    ok = worst_p <= 1e-12 and worst_e <= 1e-12 and elapsed < 60.0
    return _result(
        "closed-form grid, dv and he-spd",
        ok,
        f"max|dp|={worst_p:.2e} max|dE|={worst_e:.2e} in {elapsed:.1f}s",
        "1e-12, under 60s",
    )


def check_headline_point() -> CriterionResult:
    he = he_swap_spd(0.3, 0.5, 0.7, 12).averaged_negativity
    dv = dv_swap(0.5, 0.7, 12).averaged_negativity
    err_he = abs(he - 0.791)
    err_dv = abs(dv - 0.329)
    ok = err_he <= 1e-3 and err_dv <= 1e-3
    return _result(
        "headline point alpha=0.3 T=0.5 T'=0.7",
        ok,
        f"E_he={he:.4f} (|d|={err_he:.1e}) E_dv={dv:.4f} (|d|={err_dv:.1e})",
        "1e-3 to 0.791 / 0.329",
    )


def _hybrid_and_dv_negativities(alpha: float, losses: np.ndarray) -> list[tuple[float, float]]:
    """(E_he-spd, E_dv) at T = 1 - loss for each loss, T' 1 and cutoff 12: one stacked call per scheme."""
    Ts = [1.0 - float(loss) for loss in losses]
    he, dv = (protocols.swap_points(scheme, alpha, Ts, 1.0, 12) for scheme in ("he_spd", "dv"))
    return [(h.averaged_negativity, v.averaged_negativity) for h, v in zip(he, dv)]


def check_negativity_ordering() -> CriterionResult:
    losses = np.arange(0.05, 0.901, 0.05)
    broken = [(loss, he - dv) for loss, (he, dv) in zip(losses, _hybrid_and_dv_negativities(0.3, losses)) if he <= dv]
    margin_bad = broken[0] if broken else None  # the first break
    worst_gap = max(abs(he - dv) for he, dv in _hybrid_and_dv_negativities(0.7, np.arange(0.0, 0.201, 0.05)))
    ok = margin_bad is None and worst_gap <= 0.02
    detail = f"alpha=0.7 max|E_he-E_dv|={worst_gap:.3f} on loss<=0.2"
    if margin_bad is not None:
        detail += f"; ordering broken at loss={margin_bad[0]:.2f}"
    return _result(
        "hybrid-vs-dv negativity ordering",
        ok,
        detail,
        "E_he > E_dv at alpha=0.3; gap <= 0.02 at alpha=0.7",
    )


def check_homodyne_scheme() -> CriterionResult:
    t0 = time.perf_counter()
    worst_p = worst_e = 0.0
    for alpha in (0.3, 0.5):
        for T, sim in zip((0.5, 1.0), protocols.swap_points("he_ho", alpha, (0.5, 1.0), 1.0, 12)):
            ref = closed_form("he_ho", alpha, T, 1.0)
            worst_p = max(worst_p, abs(sim.total_success_probability - ref.p))
            worst_e = max(worst_e, abs(sim.averaged_negativity - ref.E))
    elapsed = time.perf_counter() - t0
    ok = worst_p <= 1e-10 and worst_e <= 1e-9 and elapsed < 120.0
    return _result(
        "homodyne scheme vs closed forms",
        ok,
        f"max|dp|={worst_p:.2e} max|dE|={worst_e:.2e} in {elapsed:.1f}s",
        "p 1e-10, E 1e-9, under 120s",
    )


def check_bs_fixtures(phi: float = math.pi) -> CriterionResult:
    """Splitter fixtures; ``phi`` can be overridden to watch them break."""
    params = BeamSplitterParams(math.pi / 2.0, phi)
    reg = ModeRegister((("X", bosonic(12)), ("Y", bosonic(12))))
    s = math.sqrt(0.5)
    worst_fock = 0.0
    fock_cases = [
        ({"X": 1}, [({"X": 1}, s), ({"Y": 1}, s)]),
        ({"Y": 1}, [({"Y": 1}, s), ({"X": 1}, -s)]),
        ({"X": 1, "Y": 1}, [({"Y": 2}, s), ({"X": 2}, -s)]),
    ]
    for occ_in, terms in fock_cases:
        out = apply_bs(make_fock(reg, occ_in), "X", "Y", params)
        expect = np.zeros(reg.dim, dtype=np.complex128)
        for occ, coeff in terms:
            expect += coeff * make_fock(reg, occ).amplitudes
        worst_fock = max(worst_fock, float(np.abs(out.amplitudes - expect).max()))
    worst_coh = 0.0
    pairs = [
        (0.4 + 0.3j, 0.2 - 0.1j),
        (0.5, 0.3),
        (0.3, 0.3), (0.3, -0.3), (-0.3, 0.3), (-0.3, -0.3),
        (0.7, 0.7), (0.7, -0.7),
    ]
    for a, b in pairs:
        out = apply_bs(
            tensor(
                make_coherent(ModeRegister(reg.modes[:1]), "X", a),
                make_coherent(ModeRegister(reg.modes[1:]), "Y", b),
            ),
            "X", "Y", params,
        )
        expect = tensor(
            make_coherent(ModeRegister(reg.modes[:1]), "X", (a - b) / math.sqrt(2.0)),
            make_coherent(ModeRegister(reg.modes[1:]), "Y", (a + b) / math.sqrt(2.0)),
        )
        worst_coh = max(worst_coh, 1.0 - fidelity(out, expect))
    ok = worst_fock <= 1e-12 and worst_coh <= 1e-10
    return _result(
        "beam-splitter fixtures",
        ok,
        f"Fock max|d|={worst_fock:.2e} coherent max(1-F)={worst_coh:.2e}",
        "1e-12 / 1e-10",
    )


def check_loss_routes_agree() -> CriterionResult:
    """Kraus loss and the splitter dilation against the closed-form lossy pairs.

    The lossless pairs the pipelines start from sit on (A, B) with B on 17
    levels; each route's output, B then cut at level 8, must equal
    sum_i P[:, :, i] P[:, :, i]† of the pair ``protocols`` builds in closed form.
    """
    reg = ModeRegister((("A", qubit()), ("B", bosonic(16))))
    hybrid = lambda a: lambda tau: np.einsum("am,ai->ami", *protocols._lossy_hybrid_pair(a, 8, tau))  # P from factors
    cases = [(make_hybrid_pair(reg, "A", "B", a), hybrid(a)) for a in (0.5, 0.8)]
    cases.append((make_vsp_bell(reg, "A", "B", "phi+"), protocols._lossy_dv_pair))
    worst = {"Kraus": 0.0, "dilation": 0.0}
    for psi, pair in cases:
        rho = DensityOperator(reg, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        for tau in (0.3, 0.77):
            P = pair(tau)
            m = P.shape[1]  # the dv pair holds B's levels 0 and 1
            ref = np.zeros((2, 9, 2, 9))
            ref[:, :m, :, :m] = np.einsum("ami,bni->ambn", P, P)  # every pair is real
            for route, out in (("Kraus", apply_loss(rho, "B", tau)),
                               ("dilation", apply_loss_dilated(rho, "B", tau))):
                cut = out.matrix.reshape(2, 17, 2, 17)[:, :9, :, :9]
                worst[route] = max(worst[route], float(np.abs(cut - ref).max()))
    ok = max(worst.values()) <= 1e-10
    return _result(
        "loss channel: Kraus vs dilation",
        ok,
        " ".join(f"{k} max|d|={v:.2e}" for k, v in worst.items()) + " against the closed-form lossy pairs",
        "1e-10",
    )


def cv_bsm_failure_prob(alpha: float, cutoff: int | None = None) -> float:
    """Failure probability of the all-coherent Bell measurement.

    The four quasi-Bell states N±(|a>|±a> ± |-a>|∓a>) hit a 50:50
    splitter followed by photon counting on both outputs; the
    measurement fails when neither counter fires, which happens with
    probability (2 cosh 2|a|^2)^{-1} on average over equal priors.  Each
    two-mode cat is the (d, d) array N±(c(a) ⊗ c(±a) ± c(-a) ⊗ c(∓a)) of
    coherent amplitudes c, and only the splitter's vacuum output is read.
    """
    alpha = _check_alpha(alpha)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    cutoff = protocols._resolve_cutoff(cutoff)
    y = 4.0 * alpha**2
    c = {a: _coherent_amplitudes(a, cutoff) for a in (alpha, -alpha)}
    total = 0.0
    for a2 in (alpha, -alpha):
        for sign in (1, -1):
            norm = 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-y) if sign > 0 else -2.0 * math.expm1(-y))
            cat = norm * (np.multiply.outer(c[alpha], c[a2]) + sign * np.multiply.outer(c[-alpha], c[-a2]))
            total += 0.25 * abs(bs_on_axes(cat, (0, 1), FIFTY_FIFTY)[0, 0]) ** 2  # both counters at zero
    return total


def check_cv_bsm() -> CriterionResult:
    got = cv_bsm_failure_prob(1.0, 20)
    ref = 1.0 / (2.0 * math.cosh(2.0))
    err = abs(got - ref)
    ok = err <= 1e-12
    return _result(
        "all-coherent Bell measurement failure at alpha=1",
        ok,
        f"p_fail={got:.6f} ref={ref:.6f} |d|={err:.2e}",
        "1e-12",
    )


def _property_negativity() -> float:
    reg = ModeRegister((("A", qubit()), ("C", qubit())))
    worst = 0.0
    bell = make_vsp_bell(reg, "A", "C", "psi+")
    rho = DensityOperator(reg, np.outer(bell.amplitudes, bell.amplitudes.conj()))
    worst = max(worst, abs(negativity(rho, ["C"]) - 1.0))
    prod = make_fock(reg, {"A": 0, "C": 1})
    rho = DensityOperator(reg, np.outer(prod.amplitudes, prod.amplitudes.conj()))
    worst = max(worst, abs(negativity(rho, ["C"])))
    for p in (0.2, 0.5, 1.0):
        w = p * np.outer(bell.amplitudes, bell.amplitudes.conj()) + (1 - p) * np.eye(4) / 4.0
        got = negativity(DensityOperator(reg, w), ["C"])
        worst = max(worst, abs(got - max(0.0, (3.0 * p - 1.0) / 2.0)))
    pt2 = partial_transpose(partial_transpose(rho, ["C"]), ["C"])
    worst = max(worst, float(np.abs(pt2.matrix - rho.matrix).max()))
    return worst


def _property_vacuum_test() -> float:
    """he-ho's two-click operator on B against C^T C, C[(b, e), k] the amplitude of
    U(|k> ⊗ |beta>) with B and the ancilla on d + 20 levels, weighted by sqrt(click) on both.
    beta is real and the splitter real at phi = pi, so C is real: the ancilla is kept float64."""
    d, n = 13, 33
    reg = ModeRegister((("M", bosonic(n - 1)),))
    click = np.arange(n) >= 1  # the on-off detector's click weights, 0 or 1, so their own square roots
    worst = 0.0
    for beta in (0.3, 1.1):
        anc = make_coherent(reg, "M", beta).amplitudes.real
        out = bs_on_axes(np.einsum("bk,e->bek", np.eye(n, d), anc), (0, 1), FIFTY_FIFTY)
        C = (np.multiply.outer(click, click)[:, :, None] * out).reshape(-1, d)
        worst = max(worst, float(np.abs(protocols._vacuum_test(d, beta) - C.T @ C).max()))
    return worst


def _property_bs_unitarity() -> float:
    """The dense U against U U† = 1 and U⁻¹ U = 1, each product taken through the blocks."""
    worst = 0.0
    d = 7
    for theta in (0.3, math.pi / 2, 2.0):
        for phi in (0.0, math.pi / 3, math.pi):
            U = bs_unitary(d, d, BeamSplitterParams(theta, phi))
            for right, left_phi in ((U.conj().T, phi), (U, phi + math.pi)):  # U⁻¹ is the phi + pi splitter
                product = bs_on_axes(right.reshape(d, d, -1), (0, 1), BeamSplitterParams(theta, left_phi))
                worst = max(worst, float(np.abs(product.reshape(d * d, -1) - np.eye(d * d)).max()))
    return worst


def _property_substitution() -> float:
    worst = 0.0
    for run in (
        lambda T, tp: dv_swap(T, tp, 10),
        lambda T, tp: he_swap_spd(0.5, T, tp, 10),
        lambda T, tp: he_swap_homodyne(0.5, T, tp, 10),
    ):
        a = run(0.8, 0.7)
        b = run(0.8 * 0.7, 1.0)
        worst = max(worst, abs(a.total_success_probability - b.total_success_probability))
        worst = max(worst, abs(a.averaged_negativity - b.averaged_negativity))
    return worst


def check_property_suite() -> CriterionResult:
    parts = {
        "negativity": (_property_negativity(), 1e-10),
        "vacuum test": (_property_vacuum_test(), 1e-10),
        "bs unitarity": (_property_bs_unitarity(), 1e-12),
        "inefficiency substitution": (_property_substitution(), 1e-9),
    }
    ok = all(v <= tol for v, tol in parts.values())
    detail = " ".join(f"{k}={v:.1e}" for k, (v, _) in parts.items())
    return _result("property suite", ok, detail, "per-part 1e-10/1e-12/1e-9")


def check_cutoff_convergence(cutoff: int = 10) -> CriterionResult:
    """Scalar outputs must be cutoff-stable at alpha = 0.7.

    Compares a he-ho point at T = 0.7 (he-spd reads only levels 0 and 1,
    so it does not move with the cutoff) and a constructor-level
    negativity at ``cutoff`` and ``cutoff + 4``.  Driving this with a
    starved cutoff (for example 4) makes it flag the truncation.
    """
    alpha, step = 0.7, 4
    worst = 0.0
    lo = he_swap_homodyne(alpha, 0.7, 1.0, cutoff)
    hi = he_swap_homodyne(alpha, 0.7, 1.0, cutoff + step)
    worst = max(worst, abs(lo.total_success_probability - hi.total_success_probability))
    worst = max(worst, abs(lo.averaged_negativity - hi.averaged_negativity))
    pair_lo = _pair_negativity(alpha, cutoff)
    pair_hi = _pair_negativity(alpha, cutoff + step)
    worst = max(worst, abs(pair_lo - pair_hi))
    ok = worst <= 1e-8
    return _result(
        "cutoff convergence",
        ok,
        f"max shift {worst:.2e} between cutoffs {cutoff} and {cutoff + step}",
        "1e-8",
    )


def _pair_negativity(alpha: float, cutoff: int) -> float:
    amp, _ = protocols._lossy_hybrid_pair(alpha, cutoff, 1.0)  # no loss: env = (1, 0) / sqrt(2)
    pair = StateVector(ModeRegister((("A", qubit()), ("B", bosonic(cutoff)))), amp.ravel() / math.sqrt(2.0))
    return negativity(reduced_density(pair, ["A", "B"]), ["B"])


CHECKS = (
    check_dv_lossless,
    check_dv_loss_limit,
    check_closed_form_grid,
    check_headline_point,
    check_negativity_ordering,
    check_homodyne_scheme,
    check_bs_fixtures,
    check_loss_routes_agree,
    check_cv_bsm,
    check_property_suite,
    check_cutoff_convergence,
)


def run_all() -> list[CriterionResult]:
    return [check() for check in CHECKS]


def report(results: list[CriterionResult], stream) -> bool:
    """Print one pass/fail line per criterion; True when everything passed."""
    all_ok = True
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        stream.write(f"[{tag}] {r.name}: {r.measured} (tolerance {r.tolerance})\n")
        all_ok = all_ok and r.passed
    stream.write(
        f"{sum(r.passed for r in results)}/{len(results)} criteria passed\n"
    )
    return all_ok
