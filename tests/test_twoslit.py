import math

import pytest

from lglab import ValidationError, disturbance_report, lg_value_pairwise
from lglab import twoslit
from lglab.twoslit import SlitAmplitudes

PI = math.pi


def equal_amplitudes(phi):
    return SlitAmplitudes.from_intensity_phase(0.5, phi)


class TestDetection:
    def test_single_slit_degenerates(self):
        s = SlitAmplitudes(0.8, 0.0)
        both, blocked1, blocked2 = twoslit.detection_probabilities(s)
        assert both == pytest.approx(0.5 * 0.64, abs=1e-15)
        assert blocked1 == 0.0
        assert blocked2 == pytest.approx(0.64, abs=1e-15)
        assert twoslit.disturbance_d2(s) == 0.0

    def test_constructive_interference(self):
        both, _, _ = twoslit.detection_probabilities(equal_amplitudes(0.0))
        assert both == pytest.approx(1.0, abs=1e-12)
        assert twoslit.interference_term(equal_amplitudes(0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_destructive_interference(self):
        both, _, _ = twoslit.detection_probabilities(equal_amplitudes(PI))
        assert both == pytest.approx(0.0, abs=1e-12)
        assert twoslit.disturbance_d2(equal_amplitudes(PI)) == pytest.approx(-0.5, abs=1e-12)

    def test_interference_term_is_the_cross_term(self):
        for m1, phi in ((0.3, 1.1), (0.7, 4.0), (0.5, 2.2)):
            s = SlitAmplitudes.from_intensity_phase(m1, phi)
            want = s.mod1 * s.mod2 * math.cos(phi)
            assert twoslit.interference_term(s) == pytest.approx(want, abs=1e-12)

    def test_overfull_bin_rejected(self):
        with pytest.raises(ValidationError):
            SlitAmplitudes(1.0, 1.0)

    @pytest.mark.parametrize("a1, a2, message", [
        (1.2, 0.1, "each squared modulus must be at most 1"),
        (0.0, 0.0, "at least one amplitude must be nonzero"),
    ], ids=["modulus-above-1", "both-zero"])
    def test_amplitudes_out_of_range_rejected(self, a1, a2, message):
        with pytest.raises(ValidationError) as refusal:
            SlitAmplitudes(a1, a2)
        assert str(refusal.value) == message


class TestClosedForms:
    def test_equal_amplitudes_boundary(self):
        assert twoslit.lg_plus_value(equal_amplitudes(PI)) == pytest.approx(-1.0, abs=1e-12)
        assert not twoslit.lg_plus_value(equal_amplitudes(PI)) < -1.0

    def test_unbalanced_destructive_violation(self):
        s = SlitAmplitudes.from_intensity_phase(0.2, PI)
        assert twoslit.lg_plus_value(s) == pytest.approx(-1.4, abs=1e-12)
        assert twoslit.lg_plus_value(s) < -1.0

    def test_quadrature_phase_cannot_violate(self):
        for m1 in (0.1, 0.4, 0.9):
            s = SlitAmplitudes.from_intensity_phase(m1, PI / 2.0)
            assert twoslit.lg_plus_value(s) == pytest.approx(2.0 * m1 - 1.0, abs=1e-12)
            assert not twoslit.lg_plus_value(s) < -1.0

    def test_violation_iff_phase_condition(self):
        for i in range(1, 20):
            for j in range(36):
                s = SlitAmplitudes.from_intensity_phase(i / 20.0, 2.0 * PI * j / 36.0)
                boundary = abs(math.cos(s.phase_difference) + s.mod1 / s.mod2)
                if boundary > 1e-9:
                    assert (twoslit.lg_plus_value(s) < -1.0) == twoslit.violation_condition(s)


class TestCompiledArrangement:
    def test_reproduces_the_three_displayed_probabilities(self):
        from lglab.operational import run_protocol

        for m1, phi in ((0.3, 0.7), (0.5, PI), (0.8, 5.1)):
            s = SlitAmplitudes.from_intensity_phase(m1, phi)
            arr = twoslit.compile_to_arrangement(s)
            full = run_protocol(arr.model, arr.protocol((True, True, True)))
            outer = run_protocol(arr.model, arr.protocol((True, False, True)))
            assert full.table[("+1", "+1", "+1")] == pytest.approx(0.5 * m1, abs=1e-12)
            assert full.table[("+1", "-1", "+1")] == pytest.approx(0.5 * (1 - m1), abs=1e-12)
            both, _, _ = twoslit.detection_probabilities(s)
            assert outer.table[("+1", "+1")] == pytest.approx(both, abs=1e-12)

    def test_single_slit_compiles_to_deterministic_chain(self):
        s = SlitAmplitudes(1.0, 0.0)
        arr = twoslit.compile_to_arrangement(s)
        report = disturbance_report(arr)
        assert report.max_disturbance() <= 1e-12
        assert report.lg_pairwise == pytest.approx(twoslit.lg_plus_value(s), abs=1e-12)

    def test_engine_matches_closed_forms(self):
        for m1, phi in ((0.2, PI), (0.5, PI), (0.35, 2.0), (0.9, 4.4)):
            s = SlitAmplitudes.from_intensity_phase(m1, phi)
            arr = twoslit.compile_to_arrangement(s)
            report = disturbance_report(arr)
            assert report.lg_pairwise == pytest.approx(twoslit.lg_plus_value(s), abs=1e-12)
            assert report.d2[(1, 1)] == pytest.approx(twoslit.disturbance_d2(s), abs=1e-12)
            assert lg_value_pairwise(arr) == pytest.approx(twoslit.lg_plus_value(s), abs=1e-12)


class TestViolationMap:
    def test_quadrature_row_never_violates(self):
        rows = twoslit.violation_map([i / 10.0 for i in range(1, 10)], [PI / 2.0])
        assert not any(violated for *_, violated in rows)

    def test_flags_the_known_point(self):
        [(_, _, lg_plus, _, violated)] = twoslit.violation_map([0.2], [PI])
        assert violated
        assert lg_plus == pytest.approx(-1.4, abs=1e-12)

    def test_mirrored_assignment_flags_the_swapped_point(self):
        [(_, _, _, lg_plus_mirrored, violated)] = twoslit.violation_map([0.8], [PI])
        assert lg_plus_mirrored == pytest.approx(-1.4, abs=1e-12)
        assert not violated

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            twoslit.violation_map([], [1.0])

    def test_phase_is_folded(self):
        [(_, phi, _, _, _)] = twoslit.violation_map([0.5], [2.0 * PI + 1.0])
        assert phi == pytest.approx(1.0, abs=1e-12)
