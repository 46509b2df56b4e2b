"""Pulse-signal extraction: channel means against brute force, filter
gains on known sinusoids, spectral peaks, the feature layout, and the
binary frame container."""

import hashlib

import numpy as np
import pytest
from scipy.signal import sosfiltfilt

from sparksel import ippg
from sparksel.errors import DataError
from sparksel.ippg import (
    HR_BAND,
    RR_BAND,
    BandSpec,
    FrameSequence,
    bandpass,
    build_signal,
    extract_features,
    feature_schema,
    read_frames,
    spectrum,
    synth_pulse_frames,
    write_frames,
)


def frames_of(pixels, fps=25):
    return FrameSequence(pixels=np.asarray(pixels, dtype=np.uint8), fps=fps)


def naive_mean(frame):
    h, w, c = frame.shape
    out = np.zeros(c)
    for i in range(h):
        for j in range(w):
            for k in range(c):
                out[k] += float(frame[i, j, k])
    return out / (h * w)


def two_frame_signal(frame):
    """build_signal on a two-frame, 1 fps sequence repeating ``frame``."""
    seq = frames_of(np.stack([frame, frame]), fps=1)
    samples = build_signal(seq, "fore").samples
    assert np.array_equal(samples[:, 0], samples[:, 1])
    return samples[:, 0]


class TestMeanPixel:
    """Per-frame channel means, read through build_signal."""

    def test_uniform_frame(self):
        frame = np.full((4, 6, 3), 128, dtype=np.uint8)
        np.testing.assert_array_equal(two_frame_signal(frame), [128.0, 128.0, 128.0])

    def test_checkerboard_red(self):
        frame = np.zeros((2, 2, 3), dtype=np.uint8)
        frame[0, 1, 0] = 255
        frame[1, 0, 0] = 255
        assert two_frame_signal(frame)[0] == 127.5
        assert two_frame_signal(frame)[1] == 0.0

    def test_single_pixel(self):
        frame = np.array([[[7, 8, 9]]], dtype=np.uint8)
        np.testing.assert_array_equal(two_frame_signal(frame), [7.0, 8.0, 9.0])

    def test_matches_double_loop_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            frame = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
            fast = two_frame_signal(frame)
            slow = naive_mean(frame)
            assert np.array_equal(fast, slow)  # exact, not approximate

    def test_empty_frame_rejected(self):
        for shape in [(2, 0, 4, 3), (2, 4, 0, 3)]:
            with pytest.raises(DataError):
                frames_of(np.zeros(shape), fps=1)


class TestBuildSignal:
    def test_constant_video_gives_flat_rows(self):
        seq = frames_of(np.full((60, 3, 3, 3), 90), fps=25)
        sig = build_signal(seq, "fore")
        assert sig.samples.shape == (3, 60)
        assert np.all(sig.samples == 90.0)

    def test_matches_per_frame_mean(self):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(50, 4, 5, 3)).astype(np.uint8)
        seq = frames_of(pixels, fps=25)
        sig = build_signal(seq, "nose")
        for t in range(50):
            np.testing.assert_array_equal(sig.samples[:, t], naive_mean(pixels[t]))

    def test_unknown_roi_tag(self):
        seq = frames_of(np.zeros((60, 2, 2, 3)), fps=25)
        with pytest.raises(DataError):
            build_signal(seq, "cheek")

    def test_saturated_megapixel_mean_exact(self):
        seq = frames_of(np.full((2, 1000, 1000, 3), 255), fps=1)
        assert np.all(build_signal(seq, "fore").samples == 255.0)

    def test_sums_match_int64_reference(self):
        rng = np.random.default_rng(8)
        pixels = rng.integers(0, 256, size=(60, 9, 7, 3)).astype(np.uint8)
        sig = build_signal(frames_of(pixels, fps=25), "fore")
        reference = pixels.astype(np.int64).sum(axis=(1, 2)).T / float(9 * 7)
        assert np.array_equal(sig.samples, reference)


def einsum_sums(pixels):
    """Reference channel means: exact int64 sums in one einsum."""
    h, w = pixels.shape[1:3]
    return np.einsum("thwc->tc", pixels, dtype=np.int64).T / float(h * w)


class TestBuildSignalOracle:
    """The blocked float32 matrix-product sums equal exact int64 sums."""

    @pytest.mark.parametrize("shape", [(60, 8, 8, 3), (50, 5, 11, 3), (30, 1, 1, 3)])
    def test_random_frames(self, shape):
        rng = np.random.default_rng(shape[1] * 100 + shape[2])
        pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
        sig = build_signal(frames_of(pixels, fps=10), "fore")
        assert np.array_equal(sig.samples, einsum_sums(pixels))

    def test_all_255_frames(self):
        pixels = np.full((50, 7, 13, 3), 255, dtype=np.uint8)
        sig = build_signal(frames_of(pixels, fps=25), "nose")
        assert np.array_equal(sig.samples, einsum_sums(pixels))
        assert np.all(sig.samples == 255.0)

    def test_capture_larger_than_one_block(self):
        rng = np.random.default_rng(21)
        pixels = rng.integers(0, 256, size=(61, 48, 48, 3)).astype(np.uint8)
        frame = pixels[0].size
        assert pixels.size > ippg._SUM_BLOCK
        assert pixels.shape[0] % (ippg._SUM_BLOCK // frame) != 0  # ragged last block
        sig = build_signal(frames_of(pixels, fps=25), "fore")
        assert np.array_equal(sig.samples, einsum_sums(pixels))


class TestSpanCap:
    """Each float32 product covers at most ippg._SPAN_PIXELS pixels, so
    its channel sums stay below 2**24, where float32 is exact."""

    def test_cap_is_the_largest_exact_span(self):
        assert ippg._SPAN_PIXELS * 255 < 2**24 <= (ippg._SPAN_PIXELS + 1) * 255

    @pytest.mark.parametrize("h, w, spans", [(257, 256, 1), (257, 257, 2)])
    def test_all_255_frames_at_the_cap(self, h, w, spans):
        assert -(-h * w // ippg._SPAN_PIXELS) == spans
        pixels = np.full((2, h, w, 3), 255, dtype=np.uint8)
        sig = build_signal(frames_of(pixels, fps=1), "fore")
        assert np.array_equal(sig.samples, einsum_sums(pixels))
        assert np.all(sig.samples == 255.0)

    def test_random_megapixel_frames(self):
        rng = np.random.default_rng(24)
        pixels = rng.integers(0, 256, size=(3, 600, 600, 3)).astype(np.uint8)
        assert np.einsum("thwc->tc", pixels, dtype=np.int64).min() >= 2**24
        assert 600 * 600 % ippg._SPAN_PIXELS != 0  # ragged last span
        sig = build_signal(frames_of(pixels, fps=1), "nose")
        assert np.array_equal(sig.samples, einsum_sums(pixels))


class TestFrameSequenceValidation:
    def test_wrong_dtype(self):
        with pytest.raises(DataError):
            FrameSequence(pixels=np.zeros((60, 2, 2, 3)), fps=25)

    def test_wrong_channel_count(self):
        with pytest.raises(DataError):
            frames_of(np.zeros((60, 2, 2, 4)))

    def test_too_short(self):
        with pytest.raises(DataError):
            frames_of(np.zeros((30, 2, 2, 3)), fps=25)  # under 2 seconds

    @pytest.mark.parametrize("fps", [float("nan"), 25.5, True], ids=["nan", "fraction", "bool"])
    def test_fps_must_be_an_integer(self, fps):
        with pytest.raises(DataError, match="fps"):
            frames_of(np.zeros((60, 2, 2, 3)), fps=fps)

    def test_numpy_integer_fps_accepted(self):
        seq = frames_of(np.zeros((60, 2, 2, 3)), fps=np.int64(25))
        assert seq.fps == 25


class TestBandpass:
    FPS = 25.0

    def tone(self, hz, seconds=40, amp=1.0):
        t = np.arange(int(self.FPS * seconds)) / self.FPS
        return amp * np.sin(2 * np.pi * hz * t)

    def test_passband_tone_survives(self):
        x = self.tone(1.5)
        y = bandpass(x, HR_BAND, self.FPS)
        core = slice(100, -100)  # ignore filter edges
        ratio = np.abs(y[core]).max() / np.abs(x[core]).max()
        assert ratio >= 0.9

    def test_stopband_tone_dies(self):
        for hz in (0.1, 6.0):
            x = self.tone(hz)
            y = bandpass(x, HR_BAND, self.FPS)
            assert np.abs(y[100:-100]).max() <= 0.05

    def test_dc_removed(self):
        x = self.tone(1.2) + 100.0
        y = bandpass(x, HR_BAND, self.FPS)
        assert abs(y.mean()) < 0.01

    def test_zero_in_zero_out(self):
        y = bandpass(np.zeros(500), HR_BAND, self.FPS)
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_zero_phase(self):
        """Forward-backward application leaves the in-band tone aligned
        with the input (no group delay)."""
        x = self.tone(1.0)
        y = bandpass(x, HR_BAND, self.FPS)
        core = slice(150, -150)
        # peak correlation at zero lag
        lags = range(-6, 7)
        corrs = [np.dot(y[core], np.roll(x, k)[core]) for k in lags]
        assert lags[int(np.argmax(corrs))] == 0

    @pytest.mark.parametrize("low, high", [(0.1, np.inf), (0.1, np.nan), (np.nan, 1.0)])
    def test_non_finite_band_rejected(self, low, high):
        with pytest.raises(DataError):
            BandSpec(low, high)

    def test_infeasible_band(self):
        with pytest.raises(DataError):
            bandpass(np.zeros(100), BandSpec(0.5, 13.0), 25.0)

    def test_too_short_series(self):
        with pytest.raises(DataError):
            bandpass(np.zeros(5), HR_BAND, 25.0)

    def test_stack_rows_equal_single_calls(self):
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((3, 500)) * 20.0 + 128.0
        for band in (HR_BAND, RR_BAND):
            out = bandpass(stack, band, self.FPS)
            assert out.shape == stack.shape
            for ch in range(3):
                assert np.array_equal(out[ch], bandpass(stack[ch], band, self.FPS))

    def test_column_major_stack_equals_single_calls(self):
        rng = np.random.default_rng(10)
        stack = np.asfortranarray(rng.standard_normal((3, 400)) + 50.0)
        out = bandpass(stack, HR_BAND, self.FPS)
        for ch in range(3):
            assert np.array_equal(out[ch], bandpass(stack[ch], HR_BAND, self.FPS))

    @pytest.mark.parametrize(
        "series", [np.float64(1.0), np.zeros((2, 3, 100)), np.zeros((3, 8))]
    )
    def test_bad_shapes_rejected(self, series):
        with pytest.raises(DataError):
            bandpass(series, HR_BAND, self.FPS)

    def test_infeasible_band_rejected_on_every_call(self):
        band = BandSpec(0.5, 13.0)
        for _ in range(2):
            with pytest.raises(DataError, match="infeasible"):
                bandpass(np.zeros(100), band, 25.0)

    def test_repeat_calls_agree(self):
        x = self.tone(1.3) + 0.5 * self.tone(0.3)
        first = bandpass(x, HR_BAND, self.FPS)
        assert np.array_equal(bandpass(x, HR_BAND, self.FPS), first)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = self.tone(1.2)
        x[300] = bad
        with pytest.raises(DataError, match="NaN or inf"):
            bandpass(x, HR_BAND, self.FPS)
        with pytest.raises(DataError, match="NaN or inf"):
            bandpass(np.stack([self.tone(1.0), x]), HR_BAND, self.FPS)


class TestBandpassOracle:
    """``bandpass`` runs sosfiltfilt's steps itself with a cached
    initial state; its output is bit-equal to sosfiltfilt."""

    @staticmethod
    def reference(x, band, fps):
        sos, _ = ippg._design(band, fps)
        padlen = min(3 * (2 * sos.shape[0] + 1), x.shape[-1] - 1)
        return sosfiltfilt(sos, x - x.mean(axis=-1, keepdims=True), axis=-1, padlen=padlen)

    @pytest.mark.parametrize("fps", [10.0, 25.0, 30.0])
    @pytest.mark.parametrize("band", [HR_BAND, RR_BAND], ids=["hr", "rr"])
    def test_equals_sosfiltfilt(self, fps, band):
        rng = np.random.default_rng(int(fps) * 10 + (band is HR_BAND))
        for t in list(range(9, 41)) + [750]:
            for shape in ((t,), (3, t)):
                x = rng.standard_normal(shape) * 20.0 + 128.0
                assert np.array_equal(bandpass(x, band, fps), self.reference(x, band, fps)), (t, shape)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fps", [np.inf, -np.inf, np.nan, 0.0, -25.0, 1e308])
    def test_bad_fps_rejected(self, fps):
        with pytest.raises(DataError):
            bandpass(np.zeros(100), HR_BAND, fps)
        with pytest.raises(DataError):
            bandpass(np.zeros((3, 100)), RR_BAND, fps)

    def test_cached_initial_state_is_read_only(self):
        sos, zi = ippg._design(HR_BAND, 25.0)
        assert not zi.flags.writeable
        assert sos.flags.writeable  # scipy's kernel rejects read-only sections

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["plus", "minus"])
    def test_int_past_float_range_rejected(self, big):
        with pytest.raises(DataError, match="fps must be finite"):
            bandpass(np.zeros(100), HR_BAND, big)
        with pytest.raises(DataError, match="fps must be finite"):
            spectrum(np.zeros(100), big, HR_BAND)
        with pytest.raises(DataError, match="need finite"):
            BandSpec(0.1, abs(big))
        with pytest.raises(DataError, match="need finite"):
            BandSpec(big, 1.0)


def test_scipy_private_sos_kernel_equals_sosfilt():
    """``bandpass`` runs both passes through scipy's private compiled SOS
    kernel, the one the public ``sosfilt`` wraps.  A scipy release that
    moves the kernel or changes what it computes fails here with a
    message naming the dependency, beside the iPPG tests it breaks."""
    from scipy import __version__
    from scipy.signal import sosfilt

    hint = "scipy %s: ippg.bandpass needs scipy.signal._sosfilt._sosfilt" % __version__
    try:
        from scipy.signal._sosfilt import _sosfilt
    except ImportError as exc:
        pytest.fail("%s, which is gone: %s" % (hint, exc))
    sos, _ = ippg._design(RR_BAND, 30.0)
    rng = np.random.default_rng(44)
    x = rng.standard_normal((5, 300)) * 20.0 + 128.0
    zi = rng.standard_normal((5, sos.shape[0], 2))  # the kernel's (rows, sections, 2)
    want, want_zf = sosfilt(sos, x, axis=-1, zi=zi.transpose(1, 0, 2))
    got, got_zf = x.copy(), zi.copy()
    _sosfilt(sos, got, got_zf)
    assert got.tobytes() == want.tobytes(), "%s, whose output no longer equals sosfilt's" % hint
    assert got_zf.tobytes() == np.ascontiguousarray(want_zf.transpose(1, 0, 2)).tobytes(), hint


class TestBandpassInPlace:
    """Both passes write scipy's kernel output into buffers ``bandpass``
    owns; the caller's array is read, never written or returned."""

    FPS = 25.0

    @staticmethod
    def noise(shape, seed=12):
        return np.random.default_rng(seed).standard_normal(shape) * 20.0 + 128.0

    @pytest.mark.parametrize("shape", [(300,), (3, 300)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_bytes_unchanged(self, shape, order):
        x = np.asarray(self.noise(shape), order=order)
        before = x.tobytes(order="A")
        for band in (HR_BAND, RR_BAND):
            bandpass(x, band, self.FPS)
        assert x.tobytes(order="A") == before

    @pytest.mark.parametrize("shape", [(300,), (3, 300)])
    def test_read_only_input_accepted(self, shape):
        x = self.noise(shape)
        want = bandpass(x.copy(), HR_BAND, self.FPS)
        x.flags.writeable = False
        assert np.array_equal(bandpass(x, HR_BAND, self.FPS), want)

    @pytest.mark.parametrize("shape", [(300,), (3, 300)])
    def test_output_shares_no_memory_with_input(self, shape):
        x = self.noise(shape)
        assert not np.shares_memory(bandpass(x, HR_BAND, self.FPS), x)

    def test_single_row_stack_equals_1d_call(self):
        x = self.noise(300)
        out = bandpass(x[None], HR_BAND, self.FPS)
        assert out.shape == (1, 300)
        assert out[0].tobytes() == bandpass(x, HR_BAND, self.FPS).tobytes()

    def test_empty_stack_gives_empty_float64(self):
        out = bandpass(np.zeros((0, 300)), HR_BAND, self.FPS)
        assert (out.shape, out.dtype) == ((0, 300), np.float64)

    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    @pytest.mark.parametrize("shape", [(300,), (3, 300)])
    def test_narrow_dtype_gives_its_float64_cast(self, dtype, shape):
        x = self.noise(shape).astype(dtype)
        want = bandpass(x.astype(np.float64), RR_BAND, self.FPS)
        assert bandpass(x, RR_BAND, self.FPS).tobytes() == want.tobytes()


class TestSpectrum:
    FPS = 25.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fps", [np.inf, np.nan, 0.0, -25.0])
    def test_bad_fps_rejected(self, fps):
        with pytest.raises(DataError, match="fps"):
            spectrum(np.ones(128), fps, HR_BAND)

    def test_cached_window_and_bins_are_read_only(self):
        assert not ippg._hann(750).flags.writeable
        assert not ippg._band_bins(1024, 25, HR_BAND).flags.writeable
        res = spectrum(np.sin(np.arange(750) / 3.0), self.FPS, HR_BAND)
        assert np.array_equal(res.freqs, res.bin_freqs[ippg._band_bins(1024, 25.0, HR_BAND)])
        res.freqs[0] = -1.0  # results are the caller's own arrays
        assert spectrum(np.sin(np.arange(750) / 3.0), self.FPS, HR_BAND).freqs[0] > 0

    def test_window_is_hann(self):
        x = np.linspace(1.0, 2.0, 300)
        res = spectrum(x, self.FPS, HR_BAND)
        want = np.abs(np.fft.rfft(x * np.hanning(300), n=512))
        assert np.array_equal(res.bin_magnitudes, want)

    def test_peak_recovers_injected_frequency(self):
        t = np.arange(750) / self.FPS
        x = np.sin(2 * np.pi * 1.2 * t)
        res = spectrum(x, self.FPS, HR_BAND)
        assert abs(res.peak_hz - 1.2) <= 0.05
        assert res.nfft == 1024

    def test_two_tones_resolve_to_their_bands(self):
        t = np.arange(1500) / self.FPS
        x = np.sin(2 * np.pi * 1.0 * t) + 0.8 * np.sin(2 * np.pi * 0.3 * t)
        hr = spectrum(x, self.FPS, HR_BAND)
        rr = spectrum(x, self.FPS, RR_BAND)
        assert abs(hr.peak_hz - 1.0) <= 0.05
        assert abs(rr.peak_hz - 0.3) <= 0.03

    def test_parseval_identity(self):
        """Windowed energy equals spectrum energy: with zero padding the
        rfft bins hold Sum |x_w|^2 = (|X_0|^2 + |X_N/2|^2 + 2 Sum |X_k|^2) / nfft."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(64, 700))
            x = rng.standard_normal(n)
            res = spectrum(x, self.FPS, HR_BAND)
            xw = x * np.hanning(n)
            m = res.bin_magnitudes
            spec_energy = (m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2)) / res.nfft
            assert spec_energy == pytest.approx(np.sum(xw * xw), rel=1e-6)

    def test_band_slice_consistent_with_full_bins(self):
        t = np.arange(400) / self.FPS
        res = spectrum(np.sin(2 * np.pi * 2.0 * t), self.FPS, HR_BAND)
        assert np.all((res.freqs >= HR_BAND.low) & (res.freqs <= HR_BAND.high))
        k = np.searchsorted(res.bin_freqs, res.freqs)
        np.testing.assert_array_equal(res.bin_magnitudes[k], res.magnitudes)

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            spectrum(np.zeros(63), self.FPS, HR_BAND)

    def test_stack_rows_equal_single_calls(self):
        rng = np.random.default_rng(12)
        stack = bandpass(rng.standard_normal((3, 750)) * 20.0 + 128.0, HR_BAND, self.FPS)
        for band in (HR_BAND, RR_BAND):
            res = spectrum(stack, self.FPS, band)
            assert res.magnitudes.shape == (3, res.freqs.size)
            assert len(res.peak_hz) == 3
            for ch in range(3):
                row = spectrum(stack[ch], self.FPS, band)
                assert np.array_equal(res.magnitudes[ch], row.magnitudes)
                assert np.array_equal(res.bin_magnitudes[ch], row.bin_magnitudes)
                assert res.peak_hz[ch] == row.peak_hz

    def test_one_d_peak_is_a_python_float(self):
        # reports and the benchmark's JSON records sum and serialize it
        res = spectrum(np.sin(np.arange(750) / 3.0), self.FPS, HR_BAND)
        assert type(res.peak_hz) is float

    @pytest.mark.parametrize("series", [np.zeros((2, 3, 128)), np.zeros((3, 63))])
    def test_bad_stack_shapes_rejected(self, series):
        with pytest.raises(DataError):
            spectrum(series, self.FPS, HR_BAND)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = np.sin(2 * np.pi * 1.2 * np.arange(750) / self.FPS)
        x[100] = bad
        with pytest.raises(DataError, match="NaN or inf"):
            spectrum(x, self.FPS, HR_BAND)

    def test_band_without_bins_rejected(self):
        # 64-point grid at 1 fps spaces bins 1/64 Hz apart; this band
        # sits strictly between bins 29/64 and 30/64
        with pytest.raises(DataError):
            spectrum(np.zeros(64), 1.0, BandSpec(0.454, 0.462))


class TestFeatures:
    def test_count_matches_schema(self):
        fore = synth_pulse_frames(25, 6.0, 4, 4, hr_hz=1.2, rr_hz=0.25, seed=0)
        nose = synth_pulse_frames(25, 6.0, 3, 3, hr_hz=1.2, rr_hz=0.25, seed=1)
        feats = extract_features(fore, nose)
        schema = feature_schema(25, fore.n_frames)
        assert feats.shape == (len(schema),)

    def test_reference_length_at_thirty_seconds(self):
        # 25 fps * 30 s = 750 frames, nfft 1024: 106 hr bins + 11 rr bins
        schema = feature_schema(25, 750)
        assert len(schema) == 756
        assert schema[0] == "fore_r_hr_td_mean"
        assert schema[-1].startswith("nose_b_rr_fd_")

    def test_roi_swap_permutes_halves(self):
        fore = synth_pulse_frames(25, 5.0, 4, 4, hr_hz=1.1, rr_hz=0.3, seed=2)
        nose = synth_pulse_frames(25, 5.0, 4, 4, hr_hz=1.3, rr_hz=0.2, seed=3)
        ab = extract_features(fore, nose)
        ba = extract_features(nose, fore)
        half = ab.size // 2
        np.testing.assert_array_equal(ab[:half], ba[half:])
        np.testing.assert_array_equal(ab[half:], ba[:half])

    def test_constant_video_has_zero_spread(self):
        seq = frames_of(np.full((200, 3, 3, 3), 77), fps=25)
        feats = extract_features(seq, seq)
        schema = feature_schema(25, 200)
        stds = [f for f, name in zip(feats, schema) if name.endswith("td_std")]
        np.testing.assert_allclose(stds, 0.0, atol=1e-9)

    @pytest.mark.parametrize(
        "nose_seconds, digest",
        [
            (30.0, "7c24826ce8bc8e8e09a9fb658bdbcdbd47c331e9b5b1ff0002a5e0b4d31ebd65"),
        ],
    )
    def test_frozen_output(self, nose_seconds, digest):
        """Byte-level pin of the feature vector for a 750/750 frame
        capture pair; any change to filtering, statistics or spectra
        order shows here."""
        fore = synth_pulse_frames(25, 30.0, 6, 6, hr_hz=1.2, rr_hz=0.25, seed=11)
        nose = synth_pulse_frames(25, nose_seconds, 5, 4, hr_hz=1.2, rr_hz=0.25, seed=12)
        assert (fore.n_frames, nose.n_frames) == (750, int(25 * nose_seconds))
        feats = extract_features(fore, nose)
        assert hashlib.sha256(feats.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("fore_seconds, nose_seconds", [(6.0, 6.0)])
    def test_matches_per_roi_reference(self, fore_seconds, nose_seconds):
        """Sharing the filter and spectrum calls between the ROIs gives
        the bytes of one call per ROI, channel and band."""
        fore = synth_pulse_frames(25, fore_seconds, 4, 4, hr_hz=1.2, rr_hz=0.25, seed=4)
        nose = synth_pulse_frames(25, nose_seconds, 3, 5, hr_hz=1.1, rr_hz=0.3, seed=5)
        want, want_peaks = [], []
        for seq, tag in ((fore, "fore"), (nose, "nose")):
            for ch, row in zip(ippg.CHANNELS, build_signal(seq, tag).samples):
                td = [bandpass(row, band, 25) for _, band in ippg.BANDS]
                for x in td:
                    want += [x.mean(), x.std(), x.min(), x.max(), np.median(x)]
                specs = [spectrum(x, 25, band) for x, (_, band) in zip(td, ippg.BANDS)]
                for spec in specs:
                    want += list(spec.magnitudes)
                if (tag, ch) == ("fore", "g"):
                    want_peaks = [spec.peak_hz for spec in specs]
        feats, peaks = ippg._features_and_peaks(fore, nose)
        assert feats.tobytes() == np.array(want).tobytes()
        assert list(peaks) == want_peaks
        assert [type(p) for p in peaks] == [float, float]

    @pytest.mark.parametrize("nose_seconds, n_calls", [(6.0, 2)])
    def test_equal_lengths_share_each_call(self, monkeypatch, nose_seconds, n_calls):
        calls = {"bandpass": 0, "spectrum": 0}
        for name in calls:
            original = getattr(ippg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ippg, name, counted)
        fore = synth_pulse_frames(25, 6.0, 3, 3, hr_hz=1.2, rr_hz=0.25, seed=6)
        nose = synth_pulse_frames(25, nose_seconds, 3, 3, hr_hz=1.2, rr_hz=0.25, seed=7)
        ippg._features_and_peaks(fore, nose)
        assert calls == {"bandpass": n_calls, "spectrum": n_calls}

    def test_mismatched_fps_rejected(self):
        """The two ROIs are regions of one capture: a pair that differs in
        fps or in frame count is rejected."""
        a = synth_pulse_frames(25, 5.0, 3, 3, hr_hz=1.2, rr_hz=0.25, seed=0)
        for b, match in [
            (synth_pulse_frames(20, 5.0, 3, 3, hr_hz=1.2, rr_hz=0.25, seed=0), "fps"),
            (synth_pulse_frames(25, 4.0, 3, 3, hr_hz=1.2, rr_hz=0.25, seed=0),
             "fore frames 125 != nose frames 100"),
        ]:
            with pytest.raises(DataError, match=match):
                extract_features(a, b)


class TestSynthPulse:
    def test_hr_peak_recovered_end_to_end(self):
        seq = synth_pulse_frames(25, 30.0, 8, 8, hr_hz=1.2, rr_hz=0.25,
                                 noise_std=2.0, seed=4)
        green = build_signal(seq, "fore").samples[1]
        filtered = bandpass(green, HR_BAND, 25.0)
        res = spectrum(filtered, 25.0, HR_BAND)
        assert abs(res.peak_hz - 1.2) <= 0.05

    def test_quantization_stays_in_range(self):
        seq = synth_pulse_frames(25, 3.0, 2, 2, hr_hz=1.0, rr_hz=0.2,
                                 hr_amp=100.0, noise_std=50.0, seed=5)
        assert seq.pixels.min() >= 0 and seq.pixels.max() <= 255

    def test_same_seed_same_frames(self):
        a = synth_pulse_frames(25, 3.0, 3, 3, hr_hz=1.0, rr_hz=0.2, seed=6)
        b = synth_pulse_frames(25, 3.0, 3, 3, hr_hz=1.0, rr_hz=0.2, seed=6)
        assert np.array_equal(a.pixels, b.pixels)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed"):
            synth_pulse_frames(25, 3.0, 2, 2, 1.2, 0.25, seed=-1)

    @pytest.mark.parametrize("name", ["hr_hz", "rr_hz", "hr_amp", "noise_std"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400],
                             ids=["inf", "nan", "huge_int"])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(DataError, match=name):
            synth_pulse_frames(25, 4.0, 2, 2, **{name: value})


class TestBinaryContainer:
    def test_round_trip_exact(self, tmp_path):
        seq = synth_pulse_frames(25, 4.0, 5, 7, hr_hz=1.2, rr_hz=0.25, seed=7)
        path = tmp_path / "clip.ippg"
        write_frames(seq, path)
        back = read_frames(path)
        assert back.fps == seq.fps
        assert np.array_equal(back.pixels, seq.pixels)

    def test_header_is_sixteen_bytes(self, tmp_path):
        seq = frames_of(np.zeros((60, 2, 2, 3)), fps=25)
        path = tmp_path / "clip.ippg"
        write_frames(seq, path)
        size = path.stat().st_size
        assert size == 16 + 60 * 2 * 2 * 3

    def test_bad_magic_rejected(self, tmp_path):
        seq = frames_of(np.zeros((60, 2, 2, 3)), fps=25)
        path = tmp_path / "clip.ippg"
        write_frames(seq, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            read_frames(path)

    def test_truncated_payload_rejected(self, tmp_path):
        seq = frames_of(np.zeros((60, 2, 2, 3)), fps=25)
        path = tmp_path / "clip.ippg"
        write_frames(seq, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(DataError):
            read_frames(path)

    @pytest.mark.parametrize("raw, message", [
        (b"IPPG\0", "truncated header \\(5 bytes\\)"),
        (ippg._HEADER.pack(b"IPPG", 1, 1, 1, 4, 25) + bytes(4),
         "expected 3 channels, header says 4"),
    ], ids=["five_bytes", "four_channels"])
    def test_bad_header_rejected(self, tmp_path, raw, message):
        path = tmp_path / "clip.ippg"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=message):
            read_frames(path)

    def test_fps_past_u8_rejected_on_write(self, tmp_path):
        seq = frames_of(np.zeros((600, 1, 1, 3)), fps=300)
        with pytest.raises(DataError, match="fps must fit u8, got 300"):
            write_frames(seq, tmp_path / "clip.ippg")
        assert not (tmp_path / "clip.ippg").exists()

    @pytest.mark.parametrize("shape, message", [
        ((2, 70000, 1, 3), "height must fit u16, got 70000"),
        ((2, 1, 65536, 3), "width must fit u16, got 65536"),
        ((2**32, 1, 1, 3), "frame count must fit u32, got 4294967296"),
    ], ids=["height", "width", "frame_count"])
    def test_shape_past_header_rejected_on_write(self, tmp_path, shape, message):
        pixels = np.broadcast_to(np.zeros((1, 1, 1, 3), dtype=np.uint8), shape)
        with pytest.raises(DataError, match=message):
            write_frames(frames_of(pixels, fps=1), tmp_path / "clip.ippg")
        assert not (tmp_path / "clip.ippg").exists()

    def test_read_pixels_are_a_private_writable_copy(self, tmp_path):
        seq = synth_pulse_frames(25, 4.0, 3, 4, seed=5)
        path = tmp_path / "clip.ippg"
        write_frames(seq, path)
        first = read_frames(path)
        assert first.pixels.flags.writeable
        first.pixels[...] = 0
        assert np.array_equal(read_frames(path).pixels, seq.pixels)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_frames(tmp_path / "absent.ippg")
