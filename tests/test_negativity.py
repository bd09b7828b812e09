import math

import numpy as np
import pytest

from hyswap import (
    DensityOperator,
    ModeRegister,
    NegativityReport,
    StateVector,
    bosonic,
    make_hybrid_pair,
    make_vsp_bell,
    negativity,
    partial_transpose,
    qubit,
    reduced_density,
)


def qq_register():
    return ModeRegister((("A", qubit()), ("C", qubit())))


def pure_rho(reg, vec):
    v = np.asarray(vec, dtype=np.complex128)
    return DensityOperator(reg, np.outer(v, v.conj()))


def test_schmidt_state_negativity():
    """E(cos t |00> + sin t |11>) = sin(2t), the two-qubit closed form."""
    reg = qq_register()
    for t in (0.0, 0.2, math.pi / 8, math.pi / 4, 1.1):
        v = np.zeros(4)
        v[0] = math.cos(t)
        v[3] = math.sin(t)
        got = negativity(pure_rho(reg, v), ["C"]).value
        assert abs(got - abs(math.sin(2 * t))) < 1e-12, t


def test_bell_state_negativity_is_one():
    reg = qq_register()
    for which in ("psi+", "psi-", "phi+", "phi-"):
        bell = make_vsp_bell(reg, "A", "C", which)
        got = negativity(pure_rho(reg, bell.amplitudes), ["C"]).value
        assert abs(got - 1.0) < 1e-14


def test_product_state_negativity_is_zero():
    reg = qq_register()
    v = np.kron([1 / math.sqrt(2), 1 / math.sqrt(2)], [0.6, 0.8])
    rep = negativity(pure_rho(reg, v), ["C"])
    assert rep.value == 0.0
    assert rep.negative_eigenvalues == ()


def test_werner_state_negativity():
    reg = qq_register()
    bell = make_vsp_bell(reg, "A", "C", "psi+")
    proj = np.outer(bell.amplitudes, bell.amplitudes.conj())
    for p in (0.0, 0.2, 1.0 / 3.0, 0.6, 1.0):
        w = p * proj + (1 - p) * np.eye(4) / 4.0
        got = negativity(DensityOperator(reg, w), ["C"]).value
        expect = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(got - expect) < 1e-12, p


def test_separable_mixtures_stay_ppt():
    rng = np.random.default_rng(13)
    reg = qq_register()
    for _ in range(25):
        rho = np.zeros((4, 4), dtype=np.complex128)
        weights = rng.dirichlet(np.ones(4))
        for w in weights:
            a = rng.normal(size=(2, 2)) @ np.array([1.0, 1.0j])
            c = rng.normal(size=(2, 2)) @ np.array([1.0, 1.0j])
            v = np.kron(a / np.linalg.norm(a), c / np.linalg.norm(c))
            rho += w * np.outer(v, v.conj())
        assert negativity(DensityOperator(reg, rho), ["C"]).value < 1e-12


def test_hybrid_pair_negativity_closed_form():
    # E = sqrt(1 - e^{-4 a^2}) for (|0>|a> + |1>|-a>)/sqrt(2)
    frozen = {0.3: 0.5498396802059387, 0.5: 0.79506009762065011}
    for alpha, expect in frozen.items():
        reg = ModeRegister((("A", qubit()), ("B", bosonic(14))))
        pair = make_hybrid_pair(reg, "A", "B", alpha)
        rho = reduced_density(pair, ["A", "B"])
        got = negativity(rho, ["B"]).value
        assert abs(got - expect) < 1e-12, alpha


def test_qubit_qutrit_negativity():
    reg = ModeRegister((("A", qubit()), ("B", bosonic(2))))
    v = np.zeros(6)
    v[0 * 3 + 0] = 1 / math.sqrt(2)
    v[1 * 3 + 2] = 1 / math.sqrt(2)
    got = negativity(pure_rho(reg, v), ["B"]).value
    assert abs(got - 1.0) < 1e-13


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(29)
    reg = ModeRegister((("A", qubit()), ("B", bosonic(2))))
    m = rng.normal(size=(6, 6, 2)) @ np.array([1.0, 1.0j])
    rho = DensityOperator(reg, m @ m.conj().T / np.trace(m @ m.conj().T).real)
    pt = partial_transpose(rho, ["B"])
    assert abs(pt.trace() - 1.0) < 1e-13
    assert pt.hermiticity_defect() < 1e-13
    back = partial_transpose(pt, ["B"])
    assert np.abs(back.matrix - rho.matrix).max() < 1e-14


def test_partial_transpose_over_either_half_gives_same_negativity():
    rng = np.random.default_rng(37)
    reg = qq_register()
    m = rng.normal(size=(4, 4, 2)) @ np.array([1.0, 1.0j])
    rho = DensityOperator(reg, m @ m.conj().T / np.trace(m @ m.conj().T).real)
    ea = negativity(rho, ["A"]).value
    ec = negativity(rho, ["C"]).value
    assert abs(ea - ec) < 1e-12


def test_stacked_kernel_equals_the_one_matrix_formula():
    """The kernel, alone or on a stack, gives bit for bit the single-matrix formula:
    eigvalsh((pt + pt†) / (2 tr)) with eigenvalues below -1e-12 summed."""
    from hyswap.negativity import _negativity_stack

    rng = np.random.default_rng(41)
    for reg, modes in ((qq_register(), ["C"]), (ModeRegister((("A", qubit()), ("B", bosonic(2)))), ["B"])):
        d = reg.dim
        m = rng.normal(size=(5, d, 2, 2)) @ np.array([1.0, 1.0j])  # rank 2: mostly entangled
        rhos = m @ m.conj().transpose(0, 2, 1) * rng.uniform(0.1, 2.0, size=(5, 1, 1))  # unnormalized
        expected = []
        for rho in rhos:
            pt = partial_transpose(DensityOperator(reg, rho), modes).matrix
            tr = float(np.trace(rho).real)
            eigs = np.linalg.eigvalsh((pt + pt.conj().T) / (2.0 * tr))
            negatives = tuple(eigs[eigs < -1e-12].tolist())
            expected.append(NegativityReport(-2.0 * sum(negatives), negatives, tr))
            assert negativity(DensityOperator(reg, rho), modes) == expected[-1]
        negatives, traces = _negativity_stack(rhos, reg, modes)
        assert negatives == [r.negative_eigenvalues for r in expected]
        assert traces == [r.trace_factor for r in expected]
        assert sum(r.value > 0.0 for r in expected) >= 3


def test_partial_transpose_needs_proper_subset():
    reg = qq_register()
    rho = DensityOperator(reg, np.eye(4) / 4.0)
    with pytest.raises(ValueError, match="proper subset"):
        partial_transpose(rho, [])
    with pytest.raises(ValueError, match="proper subset"):
        partial_transpose(rho, ["A", "C"])
    with pytest.raises(ValueError, match="unknown mode"):
        partial_transpose(rho, ["Q"])


def test_negativity_renormalizes_and_reports_trace_factor():
    reg = qq_register()
    bell = make_vsp_bell(reg, "A", "C", "psi+")
    rho2 = DensityOperator(reg, 2.0 * np.outer(bell.amplitudes, bell.amplitudes.conj()))
    rep = negativity(rho2, ["C"])
    assert abs(rep.value - 1.0) < 1e-13  # value is for the normalized state
    assert abs(rep.trace_factor - 2.0) < 1e-14


def test_negativity_rejects_non_hermitian_input():
    reg = qq_register()
    m = np.eye(4, dtype=np.complex128) / 4.0
    m[0, 1] = 0.5  # no conjugate partner
    with pytest.raises(ValueError):
        negativity(DensityOperator(reg, m), ["C"])


def test_negativity_report_contents():
    reg = qq_register()
    bell = make_vsp_bell(reg, "A", "C", "phi+")
    rep = negativity(pure_rho(reg, bell.amplitudes), ["C"])
    assert all(ev < 0 for ev in rep.negative_eigenvalues)
    assert abs(rep.value + 2.0 * sum(rep.negative_eigenvalues)) < 1e-14
    assert abs(rep.trace_factor - 1.0) < 1e-15


def test_negativity_screens_eigenvalues_above_minus_1e_12():
    # 0.5 (|01><01| + |10><10|) + eps (|01><10| + h.c.): the partial transpose has eigenvalues ±eps
    reg = qq_register()
    for eps, expect in ((5e-13, 0.0), (2e-12, 4e-12)):
        rho = np.diag([0.0, 0.5, 0.5, 0.0])
        rho[1, 2] = rho[2, 1] = eps
        rep = negativity(DensityOperator(reg, rho), ["C"])
        assert abs(rep.value - expect) < 1e-15, eps
        assert len(rep.negative_eigenvalues) == (expect > 0)


def test_cached_transpose_layout_still_refuses_bad_modes():
    """The partial-transpose layout is cached per (register, modes) after a success; a refused
    layout is not, so an unknown mode or a non-proper subset raises on every later call too."""
    from hyswap.negativity import _negativity_stack

    reg = qq_register()
    bell = np.zeros(4)
    bell[[1, 2]] = math.sqrt(0.5)
    rhos = np.outer(bell, bell)[None].astype(complex)
    first = _negativity_stack(rhos, reg, ["C"])
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown mode 'X'"):
            _negativity_stack(rhos, reg, ["X"])
        with pytest.raises(ValueError, match="unknown mode 'X'"):
            _negativity_stack(rhos, reg, ["C", "X"])
        for modes in ([], ["A", "C"], ["C", "A", "C"]):
            with pytest.raises(ValueError, match="proper subset"):
                _negativity_stack(rhos, reg, modes)
        assert _negativity_stack(rhos, reg, ["C"]) == first
    (negatives,), (trace,) = first
    assert negativity(DensityOperator(reg, rhos[0]), ["C"]) == NegativityReport(-2.0 * sum(negatives), negatives, trace)
    assert -2.0 * sum(negatives) == pytest.approx(1.0, abs=1e-12) and trace == pytest.approx(1.0, abs=1e-15)


def _eigvalsh_dtypes(monkeypatch):
    seen = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: seen.append(a.dtype) or real(a, *args, **kw))
    return seen


def test_real_valued_state_is_scored_in_float64(monkeypatch):
    """A complex128 DensityOperator whose imaginary part is zero is scored as its float64 matrix:
    negativity() equals, bit for bit, the kernel on that matrix, one real eigen-solve each."""
    from hyswap.negativity import _negativity_stack

    rng = np.random.default_rng(43)
    seen = _eigvalsh_dtypes(monkeypatch)
    for reg, modes in ((qq_register(), ["C"]), (ModeRegister((("A", qubit()), ("B", bosonic(2)))), ["B"])):
        m = rng.normal(size=(reg.dim, 2))
        rho = DensityOperator(reg, m @ m.T * 0.7)
        assert rho.matrix.dtype == np.complex128 and not rho.matrix.imag.any()
        rep = negativity(rho, modes)
        negatives, traces = _negativity_stack(np.ascontiguousarray(rho.matrix.real)[None], reg, modes)
        assert (rep.negative_eigenvalues, rep.trace_factor) == (negatives[0], traces[0])
        assert rep.value == -2.0 * sum(negatives[0]) > 0.0
    assert seen == [np.float64] * 4


def test_imaginary_coherence_takes_the_complex_path(monkeypatch):
    """One nonzero imaginary element sends the matrix through the complex128 eigen-solve, whose
    result is the single-matrix formula's bit for bit, and the negativity sees the phase."""
    seen = _eigvalsh_dtypes(monkeypatch)
    reg = qq_register()
    v = np.array([0.0, math.sqrt(0.5), 1j * math.sqrt(0.5), 0.0])  # (|01> + i|10>)/sqrt(2)
    rho = pure_rho(reg, v)
    rep = negativity(rho, ["C"])
    assert seen == [np.complex128]
    pt = partial_transpose(rho, ["C"]).matrix
    eigs = np.linalg.eigvalsh((pt + pt.conj().T) / (2.0 * rho.trace()))
    assert rep.negative_eigenvalues == tuple(eigs[eigs < -1e-12].tolist())
    assert rep.value == pytest.approx(1.0, abs=1e-14)


def test_kernel_guards_hold_at_their_edges():
    """Each guard of the kernel at its threshold and one float past it: an eigenvalue of exactly
    -1e-12 is screened and the next float down is not; a Hermiticity defect of exactly 1e-8 passes
    and the next float up raises; a trace of exactly 1e-290 is scored and the next float down
    raises.  Every matrix is diagonal but for one entry, so each compared number is exact."""
    reg = qq_register()
    for eig, negatives in ((-1e-12, ()), (np.nextafter(-1e-12, -1.0), (np.nextafter(-1e-12, -1.0),))):
        # diagonal, so its own partial transpose, and its trace sums to 1 exactly
        rho = DensityOperator(reg, np.diag([-eig, eig, 1.0, 0.0]))
        assert negativity(rho, ["C"]).negative_eigenvalues == negatives
    for defect in (1e-8, np.nextafter(1e-8, 1.0)):
        rho = np.diag([0.25] * 4)
        rho[0, 1] = defect
        if defect == 1e-8:
            assert negativity(DensityOperator(reg, rho), ["C"]).trace_factor == 1.0
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                negativity(DensityOperator(reg, rho), ["C"])
    for trace in (1e-290, np.nextafter(1e-290, 0.0)):
        rho = DensityOperator(reg, np.diag([trace, 0.0, 0.0, 0.0]))
        if trace == 1e-290:
            assert negativity(rho, ["C"]).trace_factor == 1e-290
        else:
            with pytest.raises(ValueError, match="vanishing trace"):
                negativity(rho, ["C"])
