"""Imaging photoplethysmography signal path.

Frame tensors reduce to per-channel mean-pixel series (the raw iPPG
signal), which are band-passed into heart-rate and respiration bands
by a zero-phase 3rd-order Butterworth filter and summarized in both
domains: five time-domain statistics plus in-band FFT magnitudes per
ROI, channel, and band.

The hot paths do no per-call setup: pixel sums run as one float64
matrix product per block of frames, each (band, fps) filter design and
its initial state are computed once per process, and so are each Hann
window (per length) and in-band bin index array (per nfft, fps and
band).  The filter works along the last axis, so a ROI's three channel
rows go through it in one call per band.

Frame sequences round-trip through a small binary container: a
16-byte little-endian header (magic "IPPG", u32 frame count, u16
height, u16 width, u8 channels, u8 fps, 2 reserved bytes) followed by
row-major u8 pixels.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, sosfilt, sosfilt_zi

from .errors import DataError

MAGIC = b"IPPG"
_HEADER = struct.Struct("<4sIHHBB2x")

CHANNELS = ("r", "g", "b")
ROI_TAGS = ("fore", "nose")


@dataclass(frozen=True)
class BandSpec:
    """Pass band in Hz; must sit strictly inside (0, fps/2) when used."""

    low: float
    high: float

    def __post_init__(self):
        if not (0.0 < self.low < self.high and math.isfinite(self.high)):
            raise DataError(
                "need finite 0 < low < high, got [%g, %g]" % (self.low, self.high)
            )


HR_BAND = BandSpec(0.75, 3.33)
RR_BAND = BandSpec(0.15, 0.40)
BANDS = (("hr", HR_BAND), ("rr", RR_BAND))
TD_STATS = ("mean", "std", "min", "max", "median")


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """Stack of RGB frames: u8 tensor [T', H, W, C], C = 3 in R,G,B order."""

    pixels: np.ndarray
    fps: int

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 4 or p.shape[3] != 3:
            raise DataError("pixels must be [T', H, W, 3], got %s" % (p.shape,))
        if p.shape[1] == 0 or p.shape[2] == 0:
            raise DataError("frames must be nonempty, got %d x %d" % p.shape[1:3])
        if p.dtype != np.uint8:
            raise DataError("pixels must be u8, got %s" % p.dtype)
        if self.fps < 1:
            raise DataError("fps must be >= 1")
        if p.shape[0] < 2 * self.fps:
            raise DataError(
                "need at least 2 seconds of frames: %d < 2*%d" % (p.shape[0], self.fps)
            )

    @property
    def n_frames(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, eq=False)
class IppgSignal:
    """Channel-mean series, one row per color channel."""

    samples: np.ndarray  # (3, T') float64, each value in [0, 255]
    fps: int
    roi_tag: str


# Pixel values converted to float64 per block of frames; bounds the
# temporary at 8 * _SUM_BLOCK bytes (one frame when a frame is larger).
_SUM_BLOCK = 1 << 18


def build_signal(frames: FrameSequence, roi_tag: str) -> IppgSignal:
    """Per-channel mean of every frame as the C x T' signal matrix.

    Pixels are summed exactly before one division per value: each block
    of frames goes through one float64 matrix product with a ones
    vector, and every partial sum is an integer below 2**53, so the
    result is independent of summation order.
    """
    if roi_tag not in ROI_TAGS:
        raise DataError("roi_tag must be one of %s" % (ROI_TAGS,))
    pixels = frames.pixels
    t, h, w, c = pixels.shape
    ones = np.ones(h * w)
    step = max(1, _SUM_BLOCK // (h * w * c))
    sums = np.empty((t, c))
    for start in range(0, t, step):
        block = pixels[start : start + step].astype(np.float64)
        sums[start : start + step] = ones @ block.reshape(-1, h * w, c)
    samples = sums.T / float(h * w)
    return IppgSignal(samples=samples, fps=frames.fps, roi_tag=roi_tag)


def _check_fps(fps) -> float:
    fps = float(fps)
    if not (math.isfinite(fps) and fps > 0.0):
        raise DataError("fps must be finite and > 0, got %g" % fps)
    return fps


@functools.lru_cache(maxsize=64)
def _design(band: BandSpec, fps: float):
    """Second-order sections and their unit-step initial state.  The
    sections stay writable: scipy's filter kernel rejects read-only
    buffers."""
    if not band.high < fps / 2.0:
        raise DataError(
            "band [%g, %g] Hz infeasible at %g fps" % (band.low, band.high, fps)
        )
    sos = butter(3, [band.low, band.high], btype="bandpass", fs=fps, output="sos")
    try:
        zi = sosfilt_zi(sos)
    except np.linalg.LinAlgError:
        raise DataError(
            "band [%g, %g] Hz is numerically degenerate at %g fps"
            % (band.low, band.high, fps)
        ) from None
    zi.flags.writeable = False
    return sos, zi


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise DataError("series holds NaN or inf")


def bandpass(series, band: BandSpec, fps: float) -> np.ndarray:
    """Zero-phase band-pass: 3rd-order Butterworth applied forward and
    backward along the last axis of a 1-D series or a 2-D (rows, T)
    stack; each row comes out bit-equal to a 1-D call on it.  Each row's
    mean is removed first so no DC leaks through the transient edges.

    The steps are those of ``scipy.signal.sosfiltfilt`` with odd padding
    of ``padlen = min(21, T - 1)`` samples, so the output is bit-equal
    to it; the filter design and its initial state come from a cache
    per (band, fps) instead of being solved again on every call."""
    fps = _check_fps(fps)
    x = np.ascontiguousarray(series, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] < 9:
        raise DataError("series must be 1-D or 2-D with last axis length >= 9")
    _check_finite(x)
    sos, zi = _design(band, fps)
    zi = zi.reshape(zi.shape[:1] + (1,) * (x.ndim - 1) + zi.shape[1:])
    n = min(3 * (2 * sos.shape[0] + 1), x.shape[-1] - 1)
    x = x - x.mean(axis=-1, keepdims=True)
    head, tail = x[..., :1], x[..., -1:]
    ext = np.concatenate(
        (2 * head - x[..., n:0:-1], x, 2 * tail - x[..., -2 : -(n + 2) : -1]), axis=-1
    )
    y, _ = sosfilt(sos, ext, axis=-1, zi=zi * ext[..., :1])
    y, _ = sosfilt(sos, y[..., ::-1], axis=-1, zi=zi * y[..., -1:])
    return y[..., ::-1][..., n:-n]


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


@functools.lru_cache(maxsize=64)
def _hann(n: int) -> np.ndarray:
    window = np.hanning(n)
    window.flags.writeable = False
    return window


@functools.lru_cache(maxsize=64)
def _band_bins(nfft: int, fps: float, band: BandSpec) -> np.ndarray:
    freqs = np.arange(nfft // 2 + 1) * (fps / nfft)
    bins = np.flatnonzero((freqs >= band.low) & (freqs <= band.high))
    bins.flags.writeable = False
    return bins


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Windowed, zero-padded magnitude spectrum restricted to one band.

    ``bin_freqs``/``bin_magnitudes`` keep every non-negative frequency
    bin so energy checks can run over the whole spectrum; ``freqs`` and
    ``magnitudes`` are the in-band slice; ``peak_hz`` is the frequency
    of the largest in-band magnitude.
    """

    peak_hz: float
    freqs: np.ndarray
    magnitudes: np.ndarray
    bin_freqs: np.ndarray
    bin_magnitudes: np.ndarray
    nfft: int


def spectrum(series, fps: float, band: BandSpec) -> SpectrumResult:
    """Magnitude spectrum with a Hann window, zero-padded to the next
    power of two.  Needs at least 64 samples.  The window and the
    in-band bin indices come from caches per length and per (nfft, fps,
    band)."""
    _check_fps(fps)
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size < 64:
        raise DataError("series must be 1-D with length >= 64")
    _check_finite(x)
    nfft = _next_pow2(x.size)
    windowed = x * _hann(x.size)
    mags = np.abs(np.fft.rfft(windowed, n=nfft))
    freqs = np.arange(mags.size) * (fps / nfft)
    bins = _band_bins(nfft, fps, band)
    if bins.size == 0:
        raise DataError("band [%g, %g] holds no FFT bin" % (band.low, band.high))
    in_mags = mags[bins]
    peak = freqs[bins[int(np.argmax(in_mags))]]
    return SpectrumResult(
        peak_hz=float(peak),
        freqs=freqs[bins],
        magnitudes=in_mags,
        bin_freqs=freqs,
        bin_magnitudes=mags,
        nfft=nfft,
    )


def extract_features(fore: FrameSequence, nose: FrameSequence) -> np.ndarray:
    """Flat feature vector over both ROIs.

    Layout, outer to inner: ROI (fore, nose) -> channel (r, g, b) ->
    band (hr, rr) with five time-domain statistics of the band-passed
    signal (mean, std, min, max, median), then the two bands' in-band
    spectral magnitudes in the same band order.  ``feature_schema``
    names every position.
    """
    return _features_and_peaks(fore, nose)[0]


def _features_and_peaks(fore: FrameSequence, nose: FrameSequence):
    """``extract_features``' vector and the fore ROI's green-channel
    spectral peak in Hz per band (BANDS order), read off the filtered
    rows and spectra the vector is built from."""
    if fore.fps != nose.fps:
        raise DataError("fore fps %d != nose fps %d" % (fore.fps, nose.fps))
    parts, peaks = [], []
    for seq, tag in ((fore, "fore"), (nose, "nose")):
        sig = build_signal(seq, tag)
        filtered = [bandpass(sig.samples, band, sig.fps) for _, band in BANDS]
        for ch in range(3):
            rows = [f[ch] for f in filtered]
            for td in rows:
                parts.append(
                    np.array(
                        [td.mean(), td.std(), td.min(), td.max(), np.median(td)]
                    )
                )
            for td, (_, band) in zip(rows, BANDS):
                spec = spectrum(td, sig.fps, band)
                parts.append(spec.magnitudes)
                if (tag, CHANNELS[ch]) == ("fore", "g"):
                    peaks.append(spec.peak_hz)
    return np.concatenate(parts), tuple(peaks)


@functools.lru_cache(maxsize=64)
def feature_schema(fps: int, n_frames: int, nose_frames: int | None = None) -> tuple:
    """Names for every position of ``extract_features`` output, given
    capture rate and the fore and nose lengths (``nose_frames`` defaults
    to ``n_frames``).  The count is closed-form: per ROI and channel, 5
    statistics per band plus the in-band bin counts of that ROI's FFT."""
    if nose_frames is None:
        nose_frames = n_frames
    names = []
    for tag, frames in zip(ROI_TAGS, (n_frames, nose_frames)):
        nfft = _next_pow2(frames)
        for ch in CHANNELS:
            for bname, _ in BANDS:
                for stat in TD_STATS:
                    names.append("%s_%s_%s_td_%s" % (tag, ch, bname, stat))
            for bname, band in BANDS:
                for k in _band_bins(nfft, fps, band):
                    names.append("%s_%s_%s_fd_%04d" % (tag, ch, bname, k))
    return tuple(names)


# --- binary frame container ----------------------------------------------

def write_frames(frames: FrameSequence, path) -> None:
    """Serialize a FrameSequence to the 16-byte-header binary format."""
    t, h, w, c = frames.pixels.shape
    if not 1 <= frames.fps <= 255:
        raise DataError("fps must fit u8, got %d" % frames.fps)
    header = _HEADER.pack(MAGIC, t, h, w, c, frames.fps)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(frames.pixels).tobytes())


def read_frames(path) -> FrameSequence:
    """Load a FrameSequence written by ``write_frames``; validates the
    magic, the declared shape, and the payload size."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc)) from exc
    if len(raw) < _HEADER.size:
        raise DataError("%s: truncated header (%d bytes)" % (path, len(raw)))
    magic, t, h, w, c, fps = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataError("%s: bad magic %r" % (path, magic))
    if c != 3:
        raise DataError("%s: expected 3 channels, header says %d" % (path, c))
    expected = t * h * w * c
    payload = raw[_HEADER.size :]
    if len(payload) != expected:
        raise DataError(
            "%s: payload is %d bytes, header implies %d" % (path, len(payload), expected)
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(t, h, w, c).copy()
    return FrameSequence(pixels=pixels, fps=int(fps))


def synth_pulse_frames(
    fps: int,
    seconds: float,
    height: int,
    width: int,
    hr_hz: float,
    rr_hz: float,
    hr_amp: float = 2.0,
    rr_amp: float = 1.0,
    noise_std: float = 2.0,
    base: float = 128.0,
    seed: int = 0,
) -> FrameSequence:
    """Synthetic capture: a flat field carrying two sinusoids (cardiac
    and respiratory) plus per-pixel Gaussian noise, quantized to u8.

    Spatial averaging divides the noise power by height*width, so the
    mean-signal SNR in dB is
    10*log10((hr_amp**2 / 2) / (noise_std**2 / (height*width))).
    """
    t = np.arange(int(round(fps * seconds))) / float(fps)
    wave = (
        base
        + hr_amp * np.sin(2.0 * np.pi * hr_hz * t)
        + rr_amp * np.sin(2.0 * np.pi * rr_hz * t)
    )
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x1B9)))
    field = wave[:, None, None, None] + noise_std * rng.standard_normal(
        (t.size, height, width, 3)
    )
    pixels = np.clip(np.rint(field), 0, 255).astype(np.uint8)
    return FrameSequence(pixels=pixels, fps=fps)
