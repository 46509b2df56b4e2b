"""Pulse-signal extraction: channel means against brute force, filter
gains on known sinusoids, spectral peaks, the feature layout, and the
binary frame container."""

import hashlib

import numpy as np
import pytest

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


class TestSpectrum:
    FPS = 25.0

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

    def test_mixed_lengths_name_each_roi_from_its_own_fft(self):
        # fore 750 frames (nfft 1024), nose 500 frames (nfft 512): each
        # half is named from its own FFT length
        fore = synth_pulse_frames(25, 30.0, 2, 2, hr_hz=1.2, rr_hz=0.25, seed=0)
        nose = synth_pulse_frames(25, 20.0, 2, 2, hr_hz=1.2, rr_hz=0.25, seed=1)
        schema = feature_schema(25, 750, 500)
        assert len(schema) == 582 == extract_features(fore, nose).size
        assert schema[:378] == feature_schema(25, 750)[:378]
        assert schema[378:] == feature_schema(25, 500)[204:]
        assert feature_schema(25, 750, 750) == feature_schema(25, 750)

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
            (20.0, "7fe5eda6384ece2f1c9cec974bfeeb61b62d2530c2e8456386583f8e2f016d90"),
        ],
    )
    def test_frozen_output(self, nose_seconds, digest):
        """Byte-level pin of the feature vector for a 750/750 and a
        750/500 frame capture pair; any change to filtering, statistics
        or spectra order shows here."""
        fore = synth_pulse_frames(25, 30.0, 6, 6, hr_hz=1.2, rr_hz=0.25, seed=11)
        nose = synth_pulse_frames(25, nose_seconds, 5, 4, hr_hz=1.2, rr_hz=0.25, seed=12)
        assert (fore.n_frames, nose.n_frames) == (750, int(25 * nose_seconds))
        feats = extract_features(fore, nose)
        assert hashlib.sha256(feats.tobytes()).hexdigest() == digest

    def test_mismatched_fps_rejected(self):
        a = synth_pulse_frames(25, 5.0, 3, 3, hr_hz=1.2, rr_hz=0.25, seed=0)
        b = synth_pulse_frames(20, 5.0, 3, 3, hr_hz=1.2, rr_hz=0.25, seed=0)
        with pytest.raises(DataError):
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

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_frames(tmp_path / "absent.ippg")
