"""Bit-exactness and error-path tests for the stateful signal steppers.

Every stepper in :mod:`repro.signal.stream` must reproduce its one-shot
reference **bit for bit** under any chunk partition — that equality is
what lets the streaming serving plane claim byte-identity with the
certified offline pipeline.  The ``stream_vs_batch`` oracle fuzzes random
partitions; these tests pin the named edge cases (single-sample chunks,
chunks larger than the state, signals shorter than the decimator's group
delay, hop larger than window) and the validation surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.conformance.oracles import scalar_fir_raws
from repro.errors import DataError, InputValidationError
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import quantize_raw
from repro.fixedpoint.rounding import RoundingMode
from repro.signal.filters import design_fir, fir_direct
from repro.signal.fxbiquad import FixedPointBiquad
from repro.signal.fxfir import FixedPointFir, fir_int64_path_available
from repro.signal.preprocess import (
    decimate,
    design_notch,
    remove_powerline,
)
from repro.signal.stream import (
    BiquadCascadeStream,
    BiquadStream,
    DecimatorStream,
    FirStream,
    FixedPointBiquadStream,
    FixedPointFirStream,
    PowerlineStream,
    WindowStream,
    slice_windows,
)


def partitions(n: int):
    """A fixed set of adversarial chunk partitions of length ``n``."""
    out = [[n]]  # one chunk == the one-shot call itself
    if n > 1:
        out.append([1] * n)  # sample at a time
        out.append([n - 1, 1])
        out.append([1, n - 1])
    if n > 7:
        sizes, remaining, step = [], n, 1
        while remaining > 0:
            take = min(step, remaining)
            sizes.append(take)
            remaining -= take
            step = step * 2 + 1
        out.append(sizes)
    return out


def chunked(stream, signal, sizes):
    pieces, start = [], 0
    for size in sizes:
        pieces.append(stream.process(signal[start : start + size]))
        start += size
    return np.concatenate(pieces)


@pytest.fixture()
def signal():
    return np.random.default_rng(42).uniform(-3.0, 3.0, size=97)


# --------------------------------------------------------------------- #
# Fixed-point FIR
# --------------------------------------------------------------------- #
class TestFixedPointFirStream:
    @pytest.mark.parametrize("rounding", [RoundingMode.NEAREST_AWAY, RoundingMode.FLOOR])
    def test_bit_exact_all_partitions(self, signal, rounding):
        fir = FixedPointFir(
            taps=design_fir(15, (1.0, 40.0), kind="bandpass", sample_rate=250.0),
            fmt=QFormat(3, 6),
            guard_bits=4,
            rounding=rounding,
        )
        want = fir.apply(signal)
        for sizes in partitions(signal.size):
            assert np.array_equal(chunked(fir.stream(), signal, sizes), want)

    def test_zero_guard_bits_wrap_path(self, signal):
        # guard_bits=0 forces accumulator wraps; the stream must reproduce
        # the wrapped bits too, not just the easy in-range ones.
        fir = FixedPointFir(
            taps=np.full(9, 0.9), fmt=QFormat(2, 5), guard_bits=0
        )
        want = fir.apply(signal * 2.0)
        got = chunked(fir.stream(), signal * 2.0, [13] * 7 + [6])
        assert np.array_equal(got, want)

    def test_stream_counts_samples(self, signal):
        stream = FixedPointFirStream(
            FixedPointFir(taps=np.array([0.5, 0.25]), fmt=QFormat(3, 4))
        )
        stream.process(signal[:10])
        stream.process(signal[10:25])
        assert stream.samples_in == 25

    def test_rejects_2d_chunk(self):
        stream = FixedPointFir(taps=np.array([1.0]), fmt=QFormat(3, 4)).stream()
        with pytest.raises(InputValidationError):
            stream.process(np.zeros((2, 3)))

    def test_fxfir_validation(self):
        with pytest.raises(DataError):
            FixedPointFir(taps=np.zeros((2, 2)), fmt=QFormat(3, 4))
        with pytest.raises(DataError):
            FixedPointFir(taps=np.zeros(0), fmt=QFormat(3, 4))
        with pytest.raises(DataError):
            FixedPointFir(taps=np.array([1.0]), fmt=QFormat(3, 4), guard_bits=-1)
        with pytest.raises(DataError):
            FixedPointFir(taps=np.array([1.0]), fmt=QFormat(3, 4)).apply(
                np.zeros((2, 3))
            )


class TestFirKernelPaths:
    """The int64/object predicate at its flip points, both sides against
    the scalar reference, and the degenerate shapes on each path."""

    @staticmethod
    def assert_matches_reference(fir: FixedPointFir, signal: np.ndarray) -> None:
        want_raws = scalar_fir_raws(fir, signal)
        x_raws = quantize_raw(signal, fir.fmt, rounding=fir.rounding, overflow="saturate")
        line = np.concatenate([np.zeros(fir.tap_raws.size - 1, dtype=np.int64), x_raws])
        assert np.array_equal(fir.filter_raws(line.astype(object)), want_raws)
        want = want_raws * fir.fmt.resolution
        assert np.array_equal(fir.apply(signal), want)
        assert np.array_equal(chunked(fir.stream(), signal, [1, 2, signal.size - 3]), want)

    @pytest.mark.parametrize(
        "fmt,last_int64_taps",
        [(QFormat(32, 0), 1), (QFormat(31, 1), 3), (QFormat(30, 2), 7), (QFormat(28, 0), 511)],
        ids=str,
    )
    def test_predicate_flips_at_exact_tap_count(self, fmt, last_int64_taps):
        assert fir_int64_path_available(fmt, last_int64_taps)
        assert not fir_int64_path_available(fmt, last_int64_taps + 1)
        # Taps and samples at min_value form the largest products there are.
        signal = np.tile([fmt.min_value, fmt.max_value, fmt.min_value, 0.0, 1.0], 3)
        for num_taps in (last_int64_taps, last_int64_taps + 1):
            fir = FixedPointFir(
                taps=np.full(num_taps, fmt.min_value), fmt=fmt,
                guard_bits=64 - fmt.word_length,
            )
            self.assert_matches_reference(fir, signal)

    @pytest.mark.parametrize(
        "fits,too_wide", [(QFormat(32, 0), QFormat(33, 0)), (QFormat(16, 16), QFormat(16, 17))],
        ids=str,
    )
    def test_predicate_flips_at_exact_word_length(self, fits, too_wide):
        assert fir_int64_path_available(fits, 1)
        assert not fir_int64_path_available(too_wide, 1)
        for fmt in (fits, too_wide):
            fir = FixedPointFir(
                taps=np.array([fmt.min_value]), fmt=fmt, guard_bits=64 - fmt.word_length
            )
            self.assert_matches_reference(fir, np.array([fmt.min_value, fmt.max_value] * 3))

    def test_wide_format_takes_object_path_and_matches_reference(self, signal):
        fmt = QFormat(20, 20)
        assert not fir_int64_path_available(fmt, 9)
        fir = FixedPointFir(
            taps=design_fir(9, (1.0, 40.0), kind="bandpass", sample_rate=250.0) * 3e4,
            fmt=fmt,
            guard_bits=4,
            rounding=RoundingMode.NEAREST_EVEN,
        )
        self.assert_matches_reference(fir, signal * 1e5)

    @pytest.mark.parametrize("fmt", [QFormat(3, 4), QFormat(20, 20)], ids=str)
    def test_empty_chunks_and_single_tap_on_both_paths(self, fmt, signal):
        for taps in (np.array([0.75]), np.array([0.5, -0.25, 0.125])):
            fir = FixedPointFir(taps=taps, fmt=fmt, guard_bits=1)
            assert fir.apply(np.zeros(0)).shape == (0,)
            stream = fir.stream()
            assert stream.process(np.zeros(0)).shape == (0,)
            pieces = [stream.process(signal[:5]), stream.process(np.zeros(0)), stream.process(signal[5:])]
            want = scalar_fir_raws(fir, signal) * fmt.resolution
            assert np.array_equal(np.concatenate(pieces), want)
            self.assert_matches_reference(fir, signal)


# --------------------------------------------------------------------- #
# Fixed-point biquad
# --------------------------------------------------------------------- #
class TestFixedPointBiquadStream:
    def test_bit_exact_all_partitions(self, signal):
        biquad = FixedPointBiquad(
            section=design_notch(50.0, 250.0, quality=10.0), fmt=QFormat(3, 10)
        )
        want = biquad.apply(signal)
        for sizes in partitions(signal.size):
            assert np.array_equal(chunked(biquad.stream(), signal, sizes), want)

    def test_saturating_inputs(self):
        biquad = FixedPointBiquad(
            section=design_notch(60.0, 500.0, quality=5.0), fmt=QFormat(2, 9)
        )
        loud = np.random.default_rng(7).uniform(-40.0, 40.0, size=50)
        assert np.array_equal(
            chunked(biquad.stream(), loud, [7] * 7 + [1]), biquad.apply(loud)
        )

    def test_stream_state_is_fresh_per_instance(self, signal):
        biquad = FixedPointBiquad(
            section=design_notch(50.0, 250.0, quality=10.0), fmt=QFormat(3, 10)
        )
        first = FixedPointBiquadStream(biquad)
        first.process(signal)
        # A second stream starts from zero registers, not the first's.
        assert np.array_equal(
            FixedPointBiquadStream(biquad).process(signal[:20]),
            biquad.apply(signal[:20]),
        )


# --------------------------------------------------------------------- #
# Float biquads, cascade, powerline
# --------------------------------------------------------------------- #
class TestFloatBiquadStreams:
    def test_single_section_bit_exact(self, signal):
        section = design_notch(50.0, 250.0)
        want = section.apply(signal)
        for sizes in partitions(signal.size):
            assert np.array_equal(chunked(BiquadStream(section), signal, sizes), want)

    def test_cascade_bit_exact(self, signal):
        want = remove_powerline(signal, 500.0, harmonics=3)
        got = chunked(PowerlineStream(500.0, harmonics=3), signal, [11] * 8 + [9])
        assert np.array_equal(got, want)

    def test_empty_cascade_rejected(self):
        with pytest.raises(InputValidationError):
            BiquadCascadeStream([])

    def test_powerline_stream_validates_design(self):
        with pytest.raises(InputValidationError):
            PowerlineStream(80.0, mains_hz=50.0)


# --------------------------------------------------------------------- #
# Float FIR + decimator
# --------------------------------------------------------------------- #
class TestFirStream:
    def test_bit_exact_all_partitions(self, signal):
        taps = design_fir(21, 0.2, kind="lowpass", sample_rate=1.0)
        want = fir_direct(taps, signal)
        for sizes in partitions(signal.size):
            assert np.array_equal(chunked(FirStream(taps), signal, sizes), want)

    def test_single_tap(self, signal):
        got = chunked(FirStream(np.array([2.0])), signal, [10] * 9 + [7])
        assert np.array_equal(got, 2.0 * signal)

    def test_validation(self):
        with pytest.raises(InputValidationError):
            FirStream(np.zeros(0))
        with pytest.raises(InputValidationError):
            FirStream(np.zeros((3, 3)))


class TestDecimatorStream:
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_bit_exact_with_flush(self, signal, factor):
        want = decimate(signal, factor, num_taps=31)
        for sizes in partitions(signal.size):
            stream = DecimatorStream(factor, num_taps=31)
            pieces = []
            start = 0
            for size in sizes:
                pieces.append(stream.process(signal[start : start + size]))
                start += size
            pieces.append(stream.flush())
            assert np.array_equal(np.concatenate(pieces), want)

    def test_signal_shorter_than_group_delay(self):
        # Regression (found by the stream_vs_batch oracle): the one-shot
        # aligned length has a floor of the FIR group delay, so an
        # 8-sample input at 31 taps still yields ceil(15/2) outputs.
        x = np.arange(8.0)
        want = decimate(x, 2, num_taps=31)
        stream = DecimatorStream(2, num_taps=31)
        got = np.concatenate([stream.process(x), stream.flush()])
        assert np.array_equal(got, want)
        assert got.size == want.size == 8

    def test_factor_one_is_identity(self, signal):
        stream = DecimatorStream(1)
        got = np.concatenate([stream.process(signal), stream.flush()])
        assert np.array_equal(got, signal)

    def test_flush_is_terminal(self, signal):
        stream = DecimatorStream(2)
        stream.process(signal)
        stream.flush()
        with pytest.raises(InputValidationError):
            stream.process(signal)
        with pytest.raises(InputValidationError):
            stream.flush()

    def test_validation(self):
        with pytest.raises(InputValidationError):
            DecimatorStream(0)


# --------------------------------------------------------------------- #
# Windowing
# --------------------------------------------------------------------- #
class TestWindowStream:
    @pytest.mark.parametrize(
        "window,hop",
        [(10, 10), (10, 3), (10, 17), (1, 1), (97, 1), (5, 100)],
    )
    def test_matches_slice_windows(self, signal, window, hop):
        want = slice_windows(signal, window, hop)
        for sizes in partitions(signal.size):
            stream = WindowStream(window, hop)
            got = []
            start = 0
            for size in sizes:
                got.extend(stream.process(signal[start : start + size]))
                start += size
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert stream.windows_out == len(want)

    def test_windows_are_copies(self):
        stream = WindowStream(3, 3)
        [window] = stream.process(np.arange(3.0))
        window[0] = 99.0
        assert stream.pending_samples == 0

    def test_pending_samples(self):
        stream = WindowStream(10, 10)
        stream.process(np.zeros(7))
        assert stream.pending_samples == 7

    def test_validation(self):
        with pytest.raises(InputValidationError):
            WindowStream(0, 1)
        with pytest.raises(InputValidationError):
            WindowStream(1, 0)
        with pytest.raises(InputValidationError):
            slice_windows(np.zeros(10), 0, 1)
        with pytest.raises(InputValidationError):
            slice_windows(np.zeros(10), 1, 0)
        with pytest.raises(InputValidationError):
            slice_windows(np.zeros((2, 5)), 1, 1)
