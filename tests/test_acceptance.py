"""End-to-end acceptance battery.

One test per criterion; each prints its own [PASS]/[FAIL] line with the
measured numbers (run pytest with -s to see them all) and then asserts.
The same checks back the ``hyswap verify`` command.
"""

from hyswap import verification as ver


def _run(check, **kwargs):
    r = check(**kwargs)
    tag = "PASS" if r.passed else "FAIL"
    print(f"[{tag}] {r.name}: {r.measured} (tolerance {r.tolerance})")
    assert r.passed, f"{r.name}: {r.measured} (tolerance {r.tolerance})"


def test_criterion_01_lossless_dv_swap():
    """p = 1/2 and unit negativity, within 1e-10, in under a second."""
    _run(ver.check_dv_lossless)


def test_criterion_02_dv_negativity_floor_at_dead_channel():
    """E approaches (sqrt(2)-1)/2 as the channel transmission vanishes."""
    _run(ver.check_dv_loss_limit)


def test_criterion_03_closed_form_grid():
    """dv and he-spd track their closed forms to 1e-6 over the loss grid."""
    _run(ver.check_closed_form_grid)


def test_criterion_04_headline_point():
    """alpha=0.3, T=0.5, T'=0.7: hybrid keeps E near 0.79, dv falls to 0.33."""
    _run(ver.check_headline_point)


def test_criterion_05_hybrid_beats_dv_at_small_alpha():
    """Ordering of the negativity curves and near-overlap at alpha=0.7."""
    _run(ver.check_negativity_ordering)


def test_criterion_06_homodyne_scheme():
    """Homodyne variant: p to 1e-10 and the exactly integrated E to 1e-9."""
    _run(ver.check_homodyne_scheme)


def test_criterion_07_beam_splitter_fixtures():
    """Single-photon, two-photon and coherent-amplitude splitter identities."""
    _run(ver.check_bs_fixtures)


def test_criterion_08_loss_channel_routes_agree():
    """Binomial Kraus loss and the splitter dilation, each on the lossless pairs,
    reproduce the closed-form lossy pairs the pipelines build, 1e-10."""
    _run(ver.check_loss_routes_agree)


def test_criterion_09_all_coherent_bell_measurement():
    """Failure probability 1/(2 cosh 2) at alpha = 1."""
    _run(ver.check_cv_bsm)


def test_criterion_10_property_suite():
    """Negativity units, he-ho's vacuum test against the splitter and on-off
    detectors, splitter unitarity, and the (T, T') <-> (T T', 1) substitution identity."""
    _run(ver.check_property_suite)


def test_extra_cutoff_convergence():
    """Scalar outputs are stable under a cutoff bump at alpha = 0.7."""
    _run(ver.check_cutoff_convergence)
