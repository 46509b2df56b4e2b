"""Imaging photoplethysmography signal path.

Frame tensors reduce to per-channel mean-pixel series (the raw iPPG
signal), which are band-passed into heart-rate and respiration bands
by a zero-phase 3rd-order Butterworth filter and summarized in both
domains: five time-domain statistics plus in-band FFT magnitudes per
ROI, channel, and band.  The filter works along the last axis, so a
ROI's three channel rows go through it in one call per band, and each
(band, fps) design is computed once per process and reused.

Frame sequences round-trip through a small binary container: a
16-byte little-endian header (magic "IPPG", u32 frame count, u16
height, u16 width, u8 channels, u8 fps, 2 reserved bytes) followed by
row-major u8 pixels.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, sosfiltfilt

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
        if not 0.0 < self.low < self.high:
            raise DataError("need 0 < low < high, got [%g, %g]" % (self.low, self.high))


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


def build_signal(frames: FrameSequence, roi_tag: str) -> IppgSignal:
    """Per-channel mean of every frame as the C x T' signal matrix.

    Pixels are summed as exact integers before one division per value,
    so the result is independent of traversal order.
    """
    if roi_tag not in ROI_TAGS:
        raise DataError("roi_tag must be one of %s" % (ROI_TAGS,))
    t, h, w, c = frames.pixels.shape
    sums = np.einsum("thwc->tc", frames.pixels, dtype=np.int64)  # (T', C)
    samples = sums.T / float(h * w)
    return IppgSignal(samples=samples, fps=frames.fps, roi_tag=roi_tag)


@functools.lru_cache(maxsize=64)
def _design(band: BandSpec, fps: float):
    if not band.high < fps / 2.0:
        raise DataError(
            "band [%g, %g] Hz infeasible at %g fps" % (band.low, band.high, fps)
        )
    return butter(3, [band.low, band.high], btype="bandpass", fs=fps, output="sos")


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise DataError("series holds NaN or inf")


def bandpass(series, band: BandSpec, fps: float) -> np.ndarray:
    """Zero-phase band-pass: 3rd-order Butterworth applied forward and
    backward along the last axis of a 1-D series or a 2-D (rows, T)
    stack; each row comes out bit-equal to a 1-D call on it.  Each row's
    mean is removed first so no DC leaks through the transient edges.
    The filter design is cached per (band, fps)."""
    x = np.ascontiguousarray(series, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] < 9:
        raise DataError("series must be 1-D or 2-D with last axis length >= 9")
    _check_finite(x)
    sos = _design(band, float(fps))
    padlen = min(3 * (2 * sos.shape[0] + 1), x.shape[-1] - 1)
    return sosfiltfilt(sos, x - x.mean(axis=-1, keepdims=True), axis=-1, padlen=padlen)


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def _band_bins(nfft: int, fps: float, band: BandSpec) -> np.ndarray:
    freqs = np.arange(nfft // 2 + 1) * (fps / nfft)
    return np.flatnonzero((freqs >= band.low) & (freqs <= band.high))


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
    power of two.  Needs at least 64 samples."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size < 64:
        raise DataError("series must be 1-D with length >= 64")
    _check_finite(x)
    nfft = _next_pow2(x.size)
    windowed = x * np.hanning(x.size)
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
    if fore.fps != nose.fps:
        raise DataError("fore fps %d != nose fps %d" % (fore.fps, nose.fps))
    parts = []
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
                parts.append(spectrum(td, sig.fps, band).magnitudes)
    return np.concatenate(parts)


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
