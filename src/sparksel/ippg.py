"""Imaging photoplethysmography signal path.

Frame tensors reduce to per-channel mean-pixel series (the raw iPPG
signal), which are band-passed into heart-rate and respiration bands
by a zero-phase 3rd-order Butterworth filter and summarized in both
domains: five time-domain statistics plus in-band FFT magnitudes per
ROI, channel, and band.

The hot paths do no per-call setup: pixel sums run as one exact
float32 matrix product with a cached 0/1 channel picker per block of
frames (and per column span of at most 65793 pixels, so every partial
sum stays below 2**24), each (band, fps) filter design and
its initial state are computed once per process, and so are each Hann
window (per length) and in-band bin index array (per nfft, fps and
band).  The filter and the spectrum work along the last axis, so a
capture pair makes one filter call and one spectrum call per band over
both ROIs' channel rows; both filter passes run in place in scipy's
private SOS kernel.  The two ROIs are regions of one capture: a pair
must share its fps and its frame count.

Frame sequences round-trip through a small binary container: a
16-byte little-endian header (magic "IPPG", u32 frame count, u16
height, u16 width, u8 channels, u8 fps, 2 reserved bytes) followed by
row-major u8 pixels.

``PulseSpec``'s fields define the ``ippg.*`` synthesis config keys
(name, default, kind and range; see ``errors.setting``).
"""

from __future__ import annotations

import functools
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, at_least, between, check_fields, fraction, positive, setting

MAGIC = b"IPPG"
_HEADER = struct.Struct("<4sIHHBB2x")
MAX_FILE_FPS = 255  # the header stores fps as u8

CHANNELS = ("r", "g", "b")
ROI_TAGS = ("fore", "nose")


@dataclass(frozen=True)
class BandSpec:
    """Pass band in Hz; must sit strictly inside (0, fps/2) when used."""

    low: float
    high: float

    def __post_init__(self):
        # the exact comparison also rejects NaN and ints past a float's range
        if not 0.0 < self.low < self.high <= sys.float_info.max:
            raise DataError("need finite 0 < low < high, got [%s, %s]" % (self.low, self.high))


HR_BAND = BandSpec(0.75, 3.33)
RR_BAND = BandSpec(0.15, 0.40)
BANDS = (("hr", HR_BAND), ("rr", RR_BAND))
TD_STATS = ("mean", "std", "min", "max", "median")


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """Stack of RGB frames: u8 tensor [T', H, W, C], C = 3 in R,G,B order."""

    pixels: np.ndarray
    fps: int = setting(check=at_least(1))

    def __post_init__(self):
        check_fields(self, DataError)
        p, fps = self.pixels, self.fps
        if p.ndim != 4 or p.shape[3] != 3:
            raise DataError("pixels must be [T', H, W, 3], got %s" % (p.shape,))
        if p.shape[1] == 0 or p.shape[2] == 0:
            raise DataError("frames must be nonempty, got %d x %d" % p.shape[1:3])
        if p.dtype != np.uint8:
            raise DataError("pixels must be u8, got %s" % p.dtype)
        if p.shape[0] < 2 * fps:
            raise DataError("need at least 2 seconds of frames: %d < 2*%d" % (p.shape[0], fps))

    @property
    def n_frames(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, eq=False)
class IppgSignal:
    """Channel-mean series, one row per color channel."""

    samples: np.ndarray  # (3, T') float64, each value in [0, 255]
    fps: int
    roi_tag: str


# Pixel values cast to float32 per block of frames; bounds the
# temporary at 4 * _SUM_BLOCK bytes (one frame when a frame is larger).
_SUM_BLOCK = 1 << 18
# Pixels per column span: a span's u8 channel sums stay below 2**24,
# the range in which float32 holds every integer exactly.
_SPAN_PIXELS = (2**24 - 1) // 255


@functools.lru_cache(maxsize=16)
def _picker(pixels: int, channels: int) -> np.ndarray:
    """(pixels * channels, channels) float32 0/1 matrix that sums each
    channel of ``pixels`` interleaved pixels in one product."""
    pick = np.tile(np.eye(channels, dtype=np.float32), (pixels, 1))
    pick.flags.writeable = False
    return pick


def build_signal(frames: FrameSequence, roi_tag: str) -> IppgSignal:
    """Per-channel mean of every frame as the C x T' signal matrix.

    Pixels are summed exactly before one division per value: each block
    of frames, cast to float32 as a (frames, H*W*C) matrix, goes through
    one float32 matrix product per column span with a cached 0/1 channel
    picker.  Every product is a u8 value times 0 or 1, and a span holds
    at most ``_SPAN_PIXELS`` pixels, so every partial sum is an integer
    below 2**24 that float32 holds exactly, whatever order the product
    adds in; spans add up in float64, exact below 2**53.
    """
    if roi_tag not in ROI_TAGS:
        raise DataError("roi_tag must be one of %s" % (ROI_TAGS,))
    pixels = frames.pixels
    t, h, w, c = pixels.shape
    pick = _picker(min(h * w, _SPAN_PIXELS), c)
    span = pick.shape[0]
    step = max(1, _SUM_BLOCK // (h * w * c))
    sums = np.zeros((t, c))
    for start in range(0, t, step):
        block = pixels[start : start + step].astype(np.float32, order="C").reshape(-1, h * w * c)
        for lo in range(0, block.shape[1], span):
            cols = block[:, lo : lo + span]
            sums[start : start + step] += cols @ pick[: cols.shape[1]]
    samples = sums.T / float(h * w)
    return IppgSignal(samples=samples, fps=frames.fps, roi_tag=roi_tag)


def _series(series, fps, min_len: int):
    """``(x, fps)``: the series as a contiguous float64 1-D series or 2-D
    (rows, T) stack with at least ``min_len`` samples per row, all
    finite, and fps as a finite float > 0; DataError otherwise."""
    if not 0.0 < fps <= sys.float_info.max:
        raise DataError("fps must be finite and > 0, got %s" % fps)
    fps = float(fps)
    x = np.ascontiguousarray(series, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] < min_len:
        raise DataError("series must be 1-D or 2-D with last axis length >= %d" % min_len)
    if not np.isfinite(x).all():
        raise DataError("series holds NaN or inf")
    return x, fps


@functools.lru_cache(maxsize=64)
def _design(band: BandSpec, fps: float):
    """Second-order sections and their unit-step initial state.  The
    sections stay writable: both ``bandpass`` passes run in place in
    scipy's private SOS kernel, which rejects read-only buffers.
    scipy.signal loads here, on the first design, not with the
    package: most commands never filter."""
    from scipy.signal import butter, sosfilt_zi

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


def bandpass(series, band: BandSpec, fps: float) -> np.ndarray:
    """Zero-phase band-pass: 3rd-order Butterworth applied forward and
    backward along the last axis of a 1-D series or a 2-D (rows, T)
    stack; each row comes out bit-equal to a 1-D call on it.  Each row's
    mean is removed first so no DC leaks through the transient edges.

    The steps are those of ``scipy.signal.sosfiltfilt`` with odd padding
    of ``padlen = min(21, T - 1)`` samples, so the output is bit-equal
    to it; the filter design and its initial state come from a cache
    per (band, fps) instead of being solved again on every call.  Both
    passes run in place in scipy's private SOS kernel on buffers of its own."""
    from scipy.signal._sosfilt import _sosfilt

    x, fps = _series(series, fps, 9)
    sos, zi = _design(band, fps)
    n = min(3 * (2 * sos.shape[0] + 1), x.shape[-1] - 1)
    rows = x.reshape(-1, x.shape[-1])
    rows = rows - rows.mean(axis=-1, keepdims=True)
    head, tail = rows[:, :1], rows[:, -1:]
    ext = np.concatenate(
        (2 * head - rows[:, n:0:-1], rows, 2 * tail - rows[:, -2 : -(n + 2) : -1]), axis=-1
    )
    _sosfilt(sos, ext, zi * ext[:, :1, None])
    back = ext[:, ::-1].copy()
    _sosfilt(sos, back, zi * back[:, :1, None])
    return back[:, ::-1][:, n:-n].reshape(x.shape)


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
    of the largest in-band magnitude: a float for a 1-D series, and a
    list of floats, one per row, for a stack.
    """

    peak_hz: float | list
    freqs: np.ndarray
    magnitudes: np.ndarray
    bin_freqs: np.ndarray
    bin_magnitudes: np.ndarray
    nfft: int


def spectrum(series, fps: float, band: BandSpec) -> SpectrumResult:
    """Magnitude spectrum with a Hann window, zero-padded to the next
    power of two, along the last axis of a 1-D series or a 2-D (rows, T)
    stack; each row comes out bit-equal to a 1-D call on it.  Needs at
    least 64 samples.  The window and the in-band bin indices come from
    caches per length and per (nfft, fps, band)."""
    x, fps = _series(series, fps, 64)
    nfft = _next_pow2(x.shape[-1])
    mags = np.abs(np.fft.rfft(x * _hann(x.shape[-1]), n=nfft, axis=-1))
    freqs = np.arange(mags.shape[-1]) * (fps / nfft)
    bins = _band_bins(nfft, fps, band)
    if bins.size == 0:
        raise DataError("band [%g, %g] holds no FFT bin" % (band.low, band.high))
    in_mags = mags[..., bins]
    return SpectrumResult(
        peak_hz=freqs[bins[np.argmax(in_mags, axis=-1)]].tolist(),
        freqs=freqs[bins],
        magnitudes=in_mags,
        bin_freqs=freqs,
        bin_magnitudes=mags,
        nfft=nfft,
    )


def extract_features(fore: FrameSequence, nose: FrameSequence) -> np.ndarray:
    """Flat feature vector over both ROIs of one capture, which must
    share fps and frame count (DataError otherwise).

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
    rows and spectra the vector is built from.

    The pair must share fps and frame count; DataError otherwise.  Both
    ROIs' channel rows go through each ``bandpass`` and ``spectrum``
    call together; every row comes out bit-equal to a call of its own."""
    if fore.fps != nose.fps:
        raise DataError("fore fps %d != nose fps %d" % (fore.fps, nose.fps))
    if fore.n_frames != nose.n_frames:
        raise DataError("fore frames %d != nose frames %d" % (fore.n_frames, nose.n_frames))
    x = np.concatenate([build_signal(f, tag).samples for f, tag in zip((fore, nose), ROI_TAGS)])
    td = np.stack([bandpass(x, band, fore.fps) for _, band in BANDS], axis=1)
    stats = np.stack(
        [td.mean(-1), td.std(-1), td.min(-1), td.max(-1), np.median(td, -1)], axis=-1
    )
    specs = [spectrum(td[:, b], fore.fps, band) for b, (_, band) in enumerate(BANDS)]
    rows = np.concatenate([stats.reshape(len(x), -1)] + [s.magnitudes for s in specs], axis=1)
    peaks = tuple(s.peak_hz[CHANNELS.index("g")] for s in specs)
    return rows.ravel(), peaks


@functools.lru_cache(maxsize=64)
def feature_schema(fps: int, n_frames: int) -> tuple:
    """Names for every position of ``extract_features`` output, given
    capture rate and the frame count both ROIs share.  The count is
    closed-form: per ROI and channel, 5 statistics per band plus the
    in-band bin counts of the capture's FFT."""
    nfft = _next_pow2(n_frames)
    names = []
    for tag in ROI_TAGS:
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
    """Serialize a FrameSequence to the 16-byte-header binary format.
    A frame count, height, width or fps past its header field (u32,
    u16, u16, u8) raises DataError before the file is opened."""
    t, h, w, c = frames.pixels.shape
    if not 1 <= frames.fps <= MAX_FILE_FPS:
        raise DataError("fps must fit u8, got %d" % frames.fps)
    for name, size, bits in (("frame count", t, 32), ("height", h, 16), ("width", w, 16)):
        if size >> bits:
            raise DataError("%s must fit u%d, got %d" % (name, bits, size))
    header = _HEADER.pack(MAGIC, t, h, w, c, frames.fps)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(frames.pixels).tobytes())


def read_frames(path) -> FrameSequence:
    """Load a FrameSequence written by ``write_frames``; validates the
    magic, the declared shape, and the payload size.  The pixels are
    one writable copy of the payload."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DataError("cannot read %s: %s" % (path, exc)) from exc
    if len(raw) < _HEADER.size:
        raise DataError("%s: truncated header (%d bytes)" % (path, len(raw)))
    magic, t, h, w, c, fps = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataError("%s: bad magic %r" % (path, magic))
    if c != 3:
        raise DataError("%s: expected 3 channels, header says %d" % (path, c))
    expected = t * h * w * c
    payload = len(raw) - _HEADER.size
    if payload != expected:
        raise DataError("%s: payload is %d bytes, header implies %d" % (path, payload, expected))
    pixels = np.frombuffer(raw, np.uint8, offset=_HEADER.size).reshape(t, h, w, c).copy()
    return FrameSequence(pixels=pixels, fps=int(fps))


@dataclass(frozen=True)
class PulseSpec:
    """Recipe for a synthetic capture: ``seconds`` of ``height`` x
    ``width`` frames at ``fps`` carrying a cardiac and a respiratory
    sinusoid (frequency in Hz, amplitude in pixel levels) and per-pixel
    Gaussian noise.  A bad value raises DataError."""

    fps: int = setting(25, "ippg.fps", between(1, 1000))
    seconds: float = setting(30.0, "ippg.duration_s", fraction(0, 10**5, hi_open=False))
    height: int = setting(8, "ippg.height", between(1, 10**4))
    width: int = setting(8, "ippg.width", between(1, 10**4))
    hr_hz: float = setting(1.2, "ippg.hr_hz", positive)
    rr_hz: float = setting(0.25, "ippg.rr_hz", positive)
    hr_amp: float = setting(2.0, "ippg.hr_amp", at_least(0))
    rr_amp: float = setting(1.0, "ippg.rr_amp", at_least(0))
    noise_std: float = setting(2.0, "ippg.noise_std", at_least(0))
    seed: int = setting(0, check=at_least(0))

    def __post_init__(self):
        check_fields(self, DataError)


def synth_pulse_frames(*args, **kwargs) -> FrameSequence:
    """Synthetic capture of ``PulseSpec(*args, **kwargs)``: a flat field
    of level 128.0 carrying the two sinusoids plus the noise, quantized
    to u8.

    Spatial averaging divides the noise power by height*width, so the
    mean-signal SNR in dB is
    10*log10((hr_amp**2 / 2) / (noise_std**2 / (height*width))).
    """
    s = PulseSpec(*args, **kwargs)
    t = np.arange(int(round(s.fps * s.seconds))) / float(s.fps)
    wave = (
        128.0
        + s.hr_amp * np.sin(2.0 * np.pi * s.hr_hz * t)
        + s.rr_amp * np.sin(2.0 * np.pi * s.rr_hz * t)
    )
    rng = np.random.default_rng(np.random.SeedSequence((s.seed, 0x1B9)))
    field = wave[:, None, None, None] + s.noise_std * rng.standard_normal(
        (t.size, s.height, s.width, 3)
    )
    pixels = np.clip(np.rint(field), 0, 255).astype(np.uint8)
    return FrameSequence(pixels=pixels, fps=s.fps)
