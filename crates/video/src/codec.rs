//! A GOP-structured block-transform codec model.
//!
//! The paper streams VR content as ordinary planar video precisely because
//! mature planar codecs compress so well (§2), and several EVR results
//! hinge on codec behaviour: FOV-video storage overhead (Fig. 14),
//! bandwidth savings (Fig. 13) and the re-streaming penalty of an FOV miss
//! (§5.4, "video compression rate is much higher than image compression
//! rate"). Rather than assuming an external H.264 library, this module
//! implements a real — if simplified — transform codec:
//!
//! * 4:2:0 YCbCr input ([`crate::yuv`]);
//! * 8×8 orthonormal DCT-II per block;
//! * flat-plus-frequency-weighted quantisation controlled by a quantiser
//!   parameter;
//! * **I (intra)** frames coded standalone; **P (predicted)** frames code
//!   the residual against the previous *reconstructed* frame (drift-free,
//!   like a real encoder);
//! * a global-motion-compensated prediction loop (translational MC found
//!   by exact pruned exhaustive search — the pan-heavy FOV videos depend
//!   on it);
//! * an entropy-cost model (bit-length coding of non-zero coefficients +
//!   zero-block skip flags) that turns coefficients into byte sizes.
//!
//!
//! # Example
//!
//! ```
//! use evr_video::codec::{CodecConfig, Encoder, Decoder};
//! use evr_projection::{ImageBuffer, Rgb};
//!
//! let cfg = CodecConfig::default();
//! let mut enc = Encoder::new(cfg);
//! let img = ImageBuffer::from_fn(32, 32, |x, y| Rgb::new((x * 8) as u8, (y * 8) as u8, 0));
//! let f0 = enc.encode_frame(&img);
//! let f1 = enc.encode_frame(&img); // identical frame → tiny P frame
//! assert!(f1.bytes < f0.bytes);
//!
//! let mut dec = Decoder::new();
//! let out = dec.decode_frame(&f0);
//! assert!(img.mean_abs_error(&out) < 0.05);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;

use evr_projection::ImageBuffer;

use crate::frame::VideoMeta;
use crate::yuv::{rgb_to_yuv420, yuv420_to_rgb, Plane, Yuv420};

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodecConfig {
    /// Group-of-pictures length: one intra frame every `gop_len` frames.
    /// The paper aligns SAS's 30-frame segments to this (§5.3).
    pub gop_len: u32,
    /// Quantiser (1 = near-lossless … 50 = very coarse). Controls the
    /// quantisation step and therefore the rate/quality trade-off.
    pub quantizer: u8,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig { gop_len: 30, quantizer: 12 }
    }
}

impl CodecConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `gop_len == 0` or `quantizer` is outside `1..=50`.
    pub fn new(gop_len: u32, quantizer: u8) -> Self {
        assert!(gop_len > 0, "gop_len must be non-zero");
        assert!((1..=50).contains(&quantizer), "quantizer must be in 1..=50");
        CodecConfig { gop_len, quantizer }
    }
}

/// Frame coding type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameKind {
    /// Intra-coded: standalone, larger.
    Intra,
    /// Predicted: motion-compensated residual against the previous frame.
    Predicted,
}

/// Quantised coefficients of one plane, stored sparsely: most
/// coefficients quantise to zero (that is the whole point of transform
/// coding), so entries hold only `(global index, value)` pairs in
/// ascending index order, where `global index = block · 64 + position`
/// for blocks in raster order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizedPlane {
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) entries: Vec<(u32, i16)>,
}

impl QuantizedPlane {
    fn blocks_x(&self) -> u32 {
        self.width.div_ceil(8)
    }
    fn blocks_y(&self) -> u32 {
        self.height.div_ceil(8)
    }

    /// Number of non-zero coefficients (a decode-cost proxy).
    pub fn nonzero_coeffs(&self) -> u64 {
        self.entries.len() as u64
    }
}

/// One encoded frame: coefficients plus its modelled wire size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedFrame {
    /// Coding type.
    pub kind: FrameKind,
    /// Modelled compressed size in bytes.
    pub bytes: u64,
    /// Quantiser the frame was coded with.
    pub quantizer: u8,
    /// Global motion vector (luma pixels, pointing into the reference):
    /// pre-rendered FOV videos pan with their cluster, and a global-pan
    /// predictor is what keeps such content compressible in real codecs.
    pub motion: (i16, i16),
    pub(crate) y: QuantizedPlane,
    pub(crate) cb: QuantizedPlane,
    pub(crate) cr: QuantizedPlane,
}

impl EncodedFrame {
    /// Wire bytes excluding the fixed per-frame header — the part that
    /// scales with resolution in the analysis-scale model.
    pub fn payload_bytes(&self) -> u64 {
        self.bytes - FRAME_HEADER_BYTES
    }

    /// Total non-zero coefficients across planes (decode-cost proxy).
    pub fn nonzero_coeffs(&self) -> u64 {
        self.y.nonzero_coeffs() + self.cb.nonzero_coeffs() + self.cr.nonzero_coeffs()
    }

    /// Luma dimensions of the coded frame.
    pub fn dimensions(&self) -> (u32, u32) {
        (self.y.width, self.y.height)
    }
}

/// A GOP-aligned run of encoded frames — SAS's unit of streaming and
/// re-streaming (§5.3, "we statically set the segment length to 30 frames,
/// which roughly match the GOP size").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedSegment {
    /// Index of the first frame in the stream.
    pub start_index: u64,
    /// The frames, first one intra.
    pub frames: Vec<EncodedFrame>,
}

impl EncodedSegment {
    /// Total wire bytes of the segment.
    pub fn bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes).sum()
    }

    /// Wire bytes at a different resolution scale: payload scales with
    /// the pixel ratio, per-frame headers do not.
    pub fn scaled_bytes(&self, pixel_ratio: f64) -> u64 {
        let headers = self.frames.len() as u64 * FRAME_HEADER_BYTES;
        let payload: u64 = self.frames.iter().map(EncodedFrame::payload_bytes).sum();
        headers + (payload as f64 * pixel_ratio) as u64
    }
}

/// A fully encoded video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedVideo {
    /// Stream metadata.
    pub meta: VideoMeta,
    /// Configuration used.
    pub config: CodecConfig,
    /// GOP-aligned segments.
    pub segments: Vec<EncodedSegment>,
}

impl EncodedVideo {
    /// Total wire bytes.
    pub fn bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes()).sum()
    }

    /// Total frame count.
    pub fn frame_count(&self) -> u64 {
        self.segments.iter().map(|s| s.frames.len() as u64).sum()
    }

    /// Mean bitrate in bits per second.
    pub fn bitrate_bps(&self) -> f64 {
        let secs = self.frame_count() as f64 / self.meta.fps;
        self.bytes() as f64 * 8.0 / secs
    }
}

impl fmt::Display for EncodedVideo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frames, {} segments, {:.2} Mbps",
            self.frame_count(),
            self.segments.len(),
            self.bitrate_bps() / 1e6
        )
    }
}

/// Streaming encoder with reconstruction state.
#[derive(Debug, Clone)]
pub struct Encoder {
    config: CodecConfig,
    frames_since_intra: u32,
    reference: Option<Yuv420>,
}

impl Encoder {
    /// Creates an encoder; the first frame will be intra-coded.
    pub fn new(config: CodecConfig) -> Self {
        Encoder { config, frames_since_intra: 0, reference: None }
    }

    /// The configuration in use.
    pub fn config(&self) -> CodecConfig {
        self.config
    }

    /// Forces the next frame to be intra-coded (used at segment starts).
    pub fn force_intra(&mut self) {
        self.frames_since_intra = 0;
        self.reference = None;
    }

    /// Encodes one frame, updating the reconstruction reference.
    pub fn encode_frame(&mut self, image: &ImageBuffer) -> EncodedFrame {
        self.encode_yuv(rgb_to_yuv420(image), estimate_global_motion, code_plane)
    }

    /// Encodes one 4:2:0 frame with the given motion search and plane
    /// coder — the fast kernels in production, their clamped reference
    /// oracles in the differential tests.
    fn encode_yuv(
        &mut self,
        yuv: Yuv420,
        search: impl Fn(&Plane, &Plane, i64) -> (i16, i16),
        code: impl Fn(
            &Plane,
            Option<&Plane>,
            FrameKind,
            u8,
            bool,
            (i64, i64),
        ) -> (Plane, QuantizedPlane, u64),
    ) -> EncodedFrame {
        let kind = if self.frames_since_intra == 0 || self.reference.is_none() {
            FrameKind::Intra
        } else {
            FrameKind::Predicted
        };
        let q = self.config.quantizer;
        let reference = self.reference.take();
        let motion = match (kind, &reference) {
            (FrameKind::Predicted, Some(r)) => search(&yuv.y, &r.y, 8),
            _ => (0, 0),
        };
        let mv = (motion.0 as i64, motion.1 as i64);
        let mv_chroma = (mv.0 / 2, mv.1 / 2);
        let (ry, qy, by) = code(&yuv.y, reference.as_ref().map(|r| &r.y), kind, q, true, mv);
        let (rcb, qcb, bcb) =
            code(&yuv.cb, reference.as_ref().map(|r| &r.cb), kind, q, false, mv_chroma);
        let (rcr, qcr, bcr) =
            code(&yuv.cr, reference.as_ref().map(|r| &r.cr), kind, q, false, mv_chroma);
        self.reference = Some(Yuv420 { y: ry, cb: rcb, cr: rcr });
        self.frames_since_intra = (self.frames_since_intra + 1) % self.config.gop_len;
        EncodedFrame {
            kind,
            bytes: FRAME_HEADER_BYTES + (by + bcb + bcr + 24).div_ceil(8),
            quantizer: q,
            motion,
            y: qy,
            cb: qcb,
            cr: qcr,
        }
    }

    /// Encodes a whole sequence of images into GOP-aligned segments.
    pub fn encode_video(
        meta: VideoMeta,
        config: CodecConfig,
        images: impl IntoIterator<Item = ImageBuffer>,
    ) -> EncodedVideo {
        let mut enc = Encoder::new(config);
        let mut segments: Vec<EncodedSegment> = Vec::new();
        for (i, image) in images.into_iter().enumerate() {
            let i = i as u64;
            if i.is_multiple_of(config.gop_len as u64) {
                enc.force_intra();
                segments.push(EncodedSegment { start_index: i, frames: Vec::new() });
            }
            let frame = enc.encode_frame(&image);
            segments.last_mut().expect("segment exists").frames.push(frame);
        }
        EncodedVideo { meta, config, segments }
    }
}

/// Streaming decoder with reconstruction state.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    reference: Option<Yuv420>,
}

impl Decoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Decoder { reference: None }
    }

    /// Decodes one frame.
    ///
    /// # Panics
    ///
    /// Panics if a predicted frame arrives with no reference (stream must
    /// start at an intra frame).
    pub fn decode_frame(&mut self, frame: &EncodedFrame) -> ImageBuffer {
        let reference = self.reference.take();
        if frame.kind == FrameKind::Predicted {
            assert!(reference.is_some(), "predicted frame without reference");
        }
        let mv = (frame.motion.0 as i64, frame.motion.1 as i64);
        let mv_chroma = (mv.0 / 2, mv.1 / 2);
        let y = decode_plane(
            &frame.y,
            reference.as_ref().map(|r| &r.y),
            frame.kind,
            frame.quantizer,
            true,
            mv,
        );
        let cb = decode_plane(
            &frame.cb,
            reference.as_ref().map(|r| &r.cb),
            frame.kind,
            frame.quantizer,
            false,
            mv_chroma,
        );
        let cr = decode_plane(
            &frame.cr,
            reference.as_ref().map(|r| &r.cr),
            frame.kind,
            frame.quantizer,
            false,
            mv_chroma,
        );
        let yuv = Yuv420 { y, cb, cr };
        let out = yuv420_to_rgb(&yuv);
        self.reference = Some(yuv);
        out
    }
}

pub(crate) const FRAME_HEADER_BYTES: u64 = 96;

/// Quantisation step for coefficient `(u, v)`: a base step scaled up with
/// frequency, so high-frequency detail quantises coarser (perceptual
/// weighting, as in JPEG/H.264 default matrices). Chroma uses a slightly
/// coarser base.
pub(crate) fn quant_step(q: u8, u: usize, v: usize, is_luma: bool) -> f64 {
    let base = q as f64 * if is_luma { 1.0 } else { 1.4 };
    base * (1.0 + 0.45 * (u + v) as f64)
}

/// Quantisation steps of one plane's 8×8 block, indexed `v · 8 + u`:
/// [`quant_step`] evaluated once per plane rather than once per
/// coefficient.
fn quant_steps(q: u8, is_luma: bool) -> [f64; 64] {
    std::array::from_fn(|idx| quant_step(q, idx % 8, idx / 8, is_luma))
}

/// Estimates the global motion vector between `cur` and `reference` by
/// exact pruned exhaustive search over `±range` luma pixels, minimising
/// the sum of absolute differences (plus a bias towards zero motion) on
/// a 2×-subsampled grid. Returns the vector pointing into the reference
/// (`pred(x, y) = ref(x + mvx, y + mvy)`); ties go to the first candidate
/// in raster order.
///
/// The result is the one [`estimate_global_motion_clamped`] returns, bit
/// for bit (DESIGN.md §13). For `|d| ≤ range` the window
/// `[range, size − range)` never leaves the plane, so samples index
/// directly. A candidate's cost only grows row by row, so it stops once
/// the cost reaches the best so far — it could then at most tie, and a
/// tie keeps the earlier winner. The cost of `(0, 0)`, scored first,
/// bounds the search from the start.
fn estimate_global_motion(cur: &Plane, reference: &Plane, range: i64) -> (i16, i16) {
    if (cur.width(), cur.height()) != (reference.width(), reference.height()) {
        return estimate_global_motion_clamped(cur, reference, range);
    }
    let w = cur.width() as i64;
    let h = cur.height() as i64;
    if w <= 2 * range || h <= 2 * range {
        // An empty window: every SAD is zero and the bias alone picks (0, 0).
        return (0, 0);
    }
    let rows = (range..h - range).step_by(2);
    let len = (w - 2 * range) as usize;
    let (cur_s, ref_s) = (cur.samples(), reference.samples());
    // The cost of `(dx, dy)`, or some value `>= limit` once it reaches it.
    let cost = |dx: i64, dy: i64, limit: u64| {
        // Bias towards zero motion (ties and noise should not pan).
        let mut cost = (dx.unsigned_abs() + dy.unsigned_abs()) * 8;
        for y in rows.clone() {
            if cost >= limit {
                break;
            }
            let c = (y * w + range) as usize;
            let r = ((y + dy) * w + range + dx) as usize;
            let row_sad: u32 = cur_s[c..c + len]
                .iter()
                .step_by(2)
                .zip(ref_s[r..r + len].iter().step_by(2))
                .map(|(&a, &b)| a.abs_diff(b) as u32)
                .sum();
            cost += row_sad as u64;
        }
        cost
    };
    // No candidate costlier than (0, 0) can win, so its cost + 1 seeds the
    // bound (costs are integers); (0, 0) itself still takes its turn in
    // raster order, so ties resolve as in the unpruned loop.
    let zero_cost = cost(0, 0, u64::MAX);
    let mut best = (0i16, 0i16);
    let mut best_sad = zero_cost + 1;
    for dy in -range..=range {
        for dx in -range..=range {
            let c = if (dx, dy) == (0, 0) { zero_cost } else { cost(dx, dy, best_sad) };
            if c < best_sad {
                best_sad = c;
                best = (dx as i16, dy as i16);
            }
        }
    }
    best
}

/// The unpruned search with edge-clamped sampling: the reference oracle
/// for [`estimate_global_motion`], and its path when the reference has
/// other dimensions than the current frame (a resolution change mid-GOP).
fn estimate_global_motion_clamped(cur: &Plane, reference: &Plane, range: i64) -> (i16, i16) {
    let w = cur.width() as i64;
    let h = cur.height() as i64;
    let mut best = (0i16, 0i16);
    let mut best_sad = u64::MAX;
    for dy in -range..=range {
        for dx in -range..=range {
            let mut sad = 0u64;
            let mut y = range;
            while y < h - range {
                let mut x = range;
                while x < w - range {
                    let c = cur.sample_clamped(x, y) as i64;
                    let r = reference.sample_clamped(x + dx, y + dy) as i64;
                    sad += c.abs_diff(r);
                    x += 2;
                }
                y += 2;
            }
            // Bias towards zero motion (ties and noise should not pan).
            let penalty = (dx.unsigned_abs() + dy.unsigned_abs()) * 8;
            if sad + penalty < best_sad {
                best_sad = sad + penalty;
                best = (dx as i16, dy as i16);
            }
        }
    }
    best
}

/// Gathers the 8×8 block whose top-left sample is `(x0, y0)`, edge-extended
/// like [`Plane::sample_clamped`]. Blocks inside the plane copy rows
/// directly; only edge blocks pay for clamping.
fn gather_block(plane: &Plane, x0: i64, y0: i64, out: &mut [u8; 64]) {
    let w = plane.width() as i64;
    let h = plane.height() as i64;
    if x0 >= 0 && y0 >= 0 && x0 + 8 <= w && y0 + 8 <= h {
        let samples = plane.samples();
        for (jy, row) in out.chunks_exact_mut(8).enumerate() {
            let start = ((y0 + jy as i64) * w + x0) as usize;
            row.copy_from_slice(&samples[start..start + 8]);
        }
    } else {
        for (j, s) in out.iter_mut().enumerate() {
            *s = plane.sample_clamped(x0 + (j % 8) as i64, y0 + (j / 8) as i64);
        }
    }
}

/// Gathers a block's prediction: the motion-shifted reference block of a
/// P frame, flat mid-grey otherwise.
fn gather_prediction(
    reference: Option<&Plane>,
    kind: FrameKind,
    x0: u32,
    y0: u32,
    mv: (i64, i64),
    out: &mut [u8; 64],
) {
    match (kind, reference) {
        (FrameKind::Predicted, Some(r)) => gather_block(r, x0 as i64 + mv.0, y0 as i64 + mv.1, out),
        _ => out.fill(128),
    }
}

/// Writes the reconstructed block `residual + pred`, rounded and clipped,
/// into the part of it that lies inside the `w × h` plane.
fn store_block(
    out: &mut [u8],
    w: u32,
    h: u32,
    x0: u32,
    y0: u32,
    residual: &[f64; 64],
    pred: &[u8; 64],
) {
    let cols = (w - x0).min(8) as usize;
    for jy in 0..(h - y0).min(8) as usize {
        let start = (y0 as usize + jy) * w as usize + x0 as usize;
        for (jx, s) in out[start..start + cols].iter_mut().enumerate() {
            let j = jy * 8 + jx;
            *s = (residual[j] + pred[j] as f64).round().clamp(0.0, 255.0) as u8;
        }
    }
}

/// Codes one plane; returns (reconstruction, coefficients, bits).
fn code_plane(
    plane: &Plane,
    reference: Option<&Plane>,
    kind: FrameKind,
    q: u8,
    is_luma: bool,
    mv: (i64, i64),
) -> (Plane, QuantizedPlane, u64) {
    let w = plane.width();
    let h = plane.height();
    let bx = w.div_ceil(8);
    let by = h.div_ceil(8);
    let steps = quant_steps(q, is_luma);
    let mut entries: Vec<(u32, i16)> = Vec::new();
    let mut recon = vec![0u8; (w * h) as usize];
    let mut bits = 0u64;

    let mut cur = [0u8; 64];
    let mut pred = [0u8; 64];
    let mut block = [0f64; 64];
    let mut freq = [0f64; 64];
    for byi in 0..by {
        for bxi in 0..bx {
            let (x0, y0) = (bxi * 8, byi * 8);
            // Gather the residual block, edge-extended; the prediction is
            // gathered once and reused for the reconstruction.
            gather_block(plane, x0 as i64, y0 as i64, &mut cur);
            gather_prediction(reference, kind, x0, y0, mv, &mut pred);
            for ((b, &c), &p) in block.iter_mut().zip(&cur).zip(&pred) {
                *b = c as f64 - p as f64;
            }
            fdct8x8(&block, &mut freq);
            // Quantise, cost, dequantise.
            let base = (byi * bx + bxi) * 64;
            let mut block_bits = 1u64; // skip/coded flag
            let mut any = false;
            for (idx, (f, &step)) in freq.iter_mut().zip(&steps).enumerate() {
                let qc = (*f / step).round();
                let qc = qc.clamp(i16::MIN as f64, i16::MAX as f64) as i16;
                *f = qc as f64 * step;
                if qc != 0 {
                    entries.push((base + idx as u32, qc));
                    any = true;
                    block_bits += coeff_bits(qc);
                }
            }
            if any {
                block_bits += 6; // block addressing / CBP overhead
            }
            bits += block_bits;
            // Reconstruct.
            idct8x8(&freq, &mut block);
            store_block(&mut recon, w, h, x0, y0, &block, &pred);
        }
    }
    (Plane::from_samples(w, h, recon), QuantizedPlane { width: w, height: h, entries }, bits)
}

fn decode_plane(
    qp: &QuantizedPlane,
    reference: Option<&Plane>,
    kind: FrameKind,
    q: u8,
    is_luma: bool,
    mv: (i64, i64),
) -> Plane {
    let w = qp.width;
    let h = qp.height;
    let bx = qp.blocks_x();
    let steps = quant_steps(q, is_luma);
    let mut out = vec![0u8; (w * h) as usize];
    let mut pred = [0u8; 64];
    let mut freq = [0f64; 64];
    let mut block = [0f64; 64];
    // Entries are ascending by global index and blocks are visited in the
    // same order, so a single cursor drains the sparse stream.
    let mut cursor = 0usize;
    for byi in 0..qp.blocks_y() {
        for bxi in 0..bx {
            let (x0, y0) = (bxi * 8, byi * 8);
            let base = (byi * bx + bxi) * 64;
            freq.fill(0.0);
            while cursor < qp.entries.len() && qp.entries[cursor].0 < base + 64 {
                let (gidx, qc) = qp.entries[cursor];
                let idx = (gidx - base) as usize;
                freq[idx] = qc as f64 * steps[idx];
                cursor += 1;
            }
            idct8x8(&freq, &mut block);
            gather_prediction(reference, kind, x0, y0, mv, &mut pred);
            store_block(&mut out, w, h, x0, y0, &block, &pred);
        }
    }
    Plane::from_samples(w, h, out)
}

/// Bit cost of one non-zero quantised coefficient: sign + unary-ish
/// magnitude prefix + magnitude bits (Exp-Golomb flavoured).
pub(crate) fn coeff_bits(c: i16) -> u64 {
    let mag = c.unsigned_abs() as u64;
    2 * (64 - (mag + 1).leading_zeros() as u64) + 1
}

// --- 8×8 orthonormal DCT-II ------------------------------------------------

fn dct_basis() -> &'static [[f64; 8]; 8] {
    use std::sync::OnceLock;
    static BASIS: OnceLock<[[f64; 8]; 8]> = OnceLock::new();
    BASIS.get_or_init(|| {
        let mut b = [[0.0; 8]; 8];
        for (k, row) in b.iter_mut().enumerate() {
            let scale = if k == 0 { (1.0f64 / 8.0).sqrt() } else { (2.0f64 / 8.0).sqrt() };
            for (n, cell) in row.iter_mut().enumerate() {
                *cell = scale * ((std::f64::consts::PI / 8.0) * (n as f64 + 0.5) * k as f64).cos();
            }
        }
        b
    })
}

/// Forward 2-D DCT of an 8×8 block (row-major).
fn fdct8x8(input: &[f64; 64], output: &mut [f64; 64]) {
    let b = dct_basis();
    let mut tmp = [0f64; 64];
    // Rows.
    for y in 0..8 {
        for k in 0..8 {
            let mut acc = 0.0;
            for n in 0..8 {
                acc += input[y * 8 + n] * b[k][n];
            }
            tmp[y * 8 + k] = acc;
        }
    }
    // Columns.
    for x in 0..8 {
        for k in 0..8 {
            let mut acc = 0.0;
            for n in 0..8 {
                acc += tmp[n * 8 + x] * b[k][n];
            }
            output[k * 8 + x] = acc;
        }
    }
}

/// Inverse 2-D DCT of an 8×8 block.
fn idct8x8(input: &[f64; 64], output: &mut [f64; 64]) {
    let b = dct_basis();
    let mut tmp = [0f64; 64];
    for x in 0..8 {
        for n in 0..8 {
            let mut acc = 0.0;
            for k in 0..8 {
                acc += input[k * 8 + x] * b[k][n];
            }
            tmp[n * 8 + x] = acc;
        }
    }
    for y in 0..8 {
        for n in 0..8 {
            let mut acc = 0.0;
            for k in 0..8 {
                acc += tmp[y * 8 + k] * b[k][n];
            }
            output[y * 8 + n] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_projection::Rgb;
    use proptest::prelude::*;

    fn textured(w: u32, h: u32, phase: f64) -> ImageBuffer {
        ImageBuffer::from_fn(w, h, |x, y| {
            let v = ((x as f64 * 0.4 + phase).sin() * 60.0
                + (y as f64 * 0.3 - phase).cos() * 60.0
                + 128.0) as u8;
            Rgb::new(v, v / 2 + 60, 255 - v)
        })
    }

    #[test]
    fn dct_roundtrip_is_exact() {
        let mut input = [0f64; 64];
        for (i, v) in input.iter_mut().enumerate() {
            *v = ((i * 37 + 11) % 251) as f64 - 120.0;
        }
        let mut freq = [0f64; 64];
        let mut back = [0f64; 64];
        fdct8x8(&input, &mut freq);
        idct8x8(&freq, &mut back);
        for i in 0..64 {
            assert!((input[i] - back[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn dct_of_constant_block_is_dc_only() {
        let input = [42.0f64; 64];
        let mut freq = [0f64; 64];
        fdct8x8(&input, &mut freq);
        assert!((freq[0] - 42.0 * 8.0).abs() < 1e-9);
        for (i, &f) in freq.iter().enumerate().skip(1) {
            assert!(f.abs() < 1e-9, "coeff {i} = {f}");
        }
    }

    #[test]
    fn intra_roundtrip_quality() {
        let img = textured(48, 32, 0.0);
        let mut enc = Encoder::new(CodecConfig::new(30, 4));
        let f = enc.encode_frame(&img);
        assert_eq!(f.kind, FrameKind::Intra);
        let out = Decoder::new().decode_frame(&f);
        assert!(img.mean_abs_error(&out) < 0.03, "err {}", img.mean_abs_error(&out));
    }

    #[test]
    fn higher_quantizer_means_fewer_bytes_and_more_error() {
        let img = textured(48, 48, 1.0);
        let frame_at = |q: u8| {
            let mut enc = Encoder::new(CodecConfig::new(30, q));
            enc.encode_frame(&img)
        };
        let fine = frame_at(2);
        let coarse = frame_at(40);
        assert!(coarse.bytes < fine.bytes);
        let out_fine = Decoder::new().decode_frame(&fine);
        let out_coarse = Decoder::new().decode_frame(&coarse);
        assert!(img.mean_abs_error(&out_fine) < img.mean_abs_error(&out_coarse));
    }

    #[test]
    fn static_content_makes_tiny_p_frames() {
        let img = textured(48, 32, 0.5);
        let mut enc = Encoder::new(CodecConfig::default());
        let i = enc.encode_frame(&img);
        let p = enc.encode_frame(&img);
        assert_eq!(p.kind, FrameKind::Predicted);
        // Compare payloads: at this tiny test resolution the fixed frame
        // header dominates the wire size.
        let payload = |f: &EncodedFrame| f.bytes - FRAME_HEADER_BYTES;
        assert!(payload(&p) * 4 < payload(&i), "I {} P {}", i.bytes, p.bytes);
    }

    /// Content whose two halves move in opposite directions — no global
    /// motion vector can compensate it.
    fn shearing(w: u32, h: u32, phase: f64) -> ImageBuffer {
        ImageBuffer::from_fn(w, h, |x, y| {
            let p = if y < h / 2 { phase } else { -phase };
            let v = ((x as f64 * 0.55 + p).sin() * 90.0 + 128.0) as u8;
            Rgb::new(v, v, 255 - v)
        })
    }

    #[test]
    fn deforming_content_makes_bigger_p_frames_than_static() {
        let mut enc = Encoder::new(CodecConfig::default());
        let _ = enc.encode_frame(&shearing(48, 32, 0.0));
        let p_static = enc.encode_frame(&shearing(48, 32, 0.0));
        let mut enc = Encoder::new(CodecConfig::default());
        let _ = enc.encode_frame(&shearing(48, 32, 0.0));
        let p_moving = enc.encode_frame(&shearing(48, 32, 2.0));
        assert!(
            p_moving.bytes > p_static.bytes * 2,
            "moving {} static {}",
            p_moving.bytes,
            p_static.bytes
        );
    }

    #[test]
    fn global_pan_is_nearly_free_with_motion_compensation() {
        // A pure translation of the whole frame: the global-motion
        // predictor absorbs it, so the P frame stays far below intra size.
        let wide = |shift: u32| {
            ImageBuffer::from_fn(64, 32, |x, y| {
                let v = ((((x + shift) % 64) as f64 * 0.5).sin() * 80.0
                    + (y as f64 * 0.4).cos() * 50.0
                    + 128.0) as u8;
                Rgb::new(v, 255 - v, v / 2)
            })
        };
        let mut enc = Encoder::new(CodecConfig::default());
        let i = enc.encode_frame(&wide(0));
        let p = enc.encode_frame(&wide(3));
        assert_eq!(p.kind, FrameKind::Predicted);
        assert_eq!(p.motion.0.unsigned_abs(), 3, "motion {:?}", p.motion);
        // Not arbitrarily small: chroma MC rounds to half the luma vector
        // and the wrap seam stays uncompensated, but the win is clear.
        assert!(
            p.payload_bytes() * 2 < i.payload_bytes(),
            "P {} vs I {}",
            p.payload_bytes(),
            i.payload_bytes()
        );
    }

    #[test]
    fn decoder_tracks_p_frame_chain_without_drift() {
        let mut enc = Encoder::new(CodecConfig::new(30, 6));
        let frames: Vec<_> = (0..5).map(|i| textured(32, 32, i as f64 * 0.3)).collect();
        let encoded: Vec<_> = frames.iter().map(|f| enc.encode_frame(f)).collect();
        let mut dec = Decoder::new();
        for (orig, ef) in frames.iter().zip(&encoded) {
            let out = dec.decode_frame(ef);
            assert!(orig.mean_abs_error(&out) < 0.05);
        }
    }

    #[test]
    #[should_panic(expected = "predicted frame without reference")]
    fn p_frame_without_reference_panics() {
        let mut enc = Encoder::new(CodecConfig::default());
        let _ = enc.encode_frame(&textured(16, 16, 0.0));
        let p = enc.encode_frame(&textured(16, 16, 0.1));
        let _ = Decoder::new().decode_frame(&p);
    }

    #[test]
    fn encode_video_segments_are_gop_aligned() {
        let images = (0..7).map(|i| textured(16, 16, i as f64 * 0.1));
        let meta = VideoMeta::new(16, 16, 30.0, evr_projection::Projection::Erp);
        let v = Encoder::encode_video(meta, CodecConfig::new(3, 10), images);
        assert_eq!(v.segments.len(), 3);
        assert_eq!(v.frame_count(), 7);
        for seg in &v.segments {
            assert_eq!(seg.frames[0].kind, FrameKind::Intra);
            for f in &seg.frames[1..] {
                assert_eq!(f.kind, FrameKind::Predicted);
            }
        }
        assert_eq!(v.segments[1].start_index, 3);
        assert!(v.bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "quantizer")]
    fn invalid_quantizer_panics() {
        let _ = CodecConfig::new(30, 0);
    }

    /// The per-sample clamped plane coder [`code_plane`] replaced: the
    /// reference oracle of the differential tests.
    fn code_plane_clamped(
        plane: &Plane,
        reference: Option<&Plane>,
        kind: FrameKind,
        q: u8,
        is_luma: bool,
        mv: (i64, i64),
    ) -> (Plane, QuantizedPlane, u64) {
        let w = plane.width();
        let h = plane.height();
        let bx = w.div_ceil(8);
        let by = h.div_ceil(8);
        let mut entries: Vec<(u32, i16)> = Vec::new();
        let mut recon = Plane::filled(w, h, 0);
        let mut bits = 0u64;

        let mut block = [0f64; 64];
        let mut freq = [0f64; 64];
        for byi in 0..by {
            for bxi in 0..bx {
                for jy in 0..8 {
                    for jx in 0..8 {
                        let px = (bxi * 8 + jx) as i64;
                        let py = (byi * 8 + jy) as i64;
                        let cur = plane.sample_clamped(px, py) as f64;
                        let pred = match (kind, reference) {
                            (FrameKind::Predicted, Some(r)) => {
                                r.sample_clamped(px + mv.0, py + mv.1) as f64
                            }
                            _ => 128.0,
                        };
                        block[(jy * 8 + jx) as usize] = cur - pred;
                    }
                }
                fdct8x8(&block, &mut freq);
                let base = (byi * bx + bxi) * 64;
                let mut block_bits = 1u64;
                let mut any = false;
                for v in 0..8 {
                    for u in 0..8 {
                        let idx = v * 8 + u;
                        let step = quant_step(q, u, v, is_luma);
                        let qc = (freq[idx] / step).round();
                        let qc = qc.clamp(i16::MIN as f64, i16::MAX as f64) as i16;
                        freq[idx] = qc as f64 * step;
                        if qc != 0 {
                            entries.push((base + idx as u32, qc));
                            any = true;
                            block_bits += coeff_bits(qc);
                        }
                    }
                }
                if any {
                    block_bits += 6;
                }
                bits += block_bits;
                idct8x8(&freq, &mut block);
                for jy in 0..8 {
                    for jx in 0..8 {
                        let px = bxi * 8 + jx;
                        let py = byi * 8 + jy;
                        if px < w && py < h {
                            let pred = match (kind, reference) {
                                (FrameKind::Predicted, Some(r)) => {
                                    r.sample_clamped(px as i64 + mv.0, py as i64 + mv.1) as f64
                                }
                                _ => 128.0,
                            };
                            let val = (block[(jy * 8 + jx) as usize] + pred)
                                .round()
                                .clamp(0.0, 255.0) as u8;
                            recon.set(px, py, val);
                        }
                    }
                }
            }
        }
        (recon, QuantizedPlane { width: w, height: h, entries }, bits)
    }

    /// Encodes with the reference oracles in place of the fast kernels.
    fn encode_reference(enc: &mut Encoder, image: &ImageBuffer) -> EncodedFrame {
        let yuv = crate::yuv::rgb_to_yuv420_reference(image);
        enc.encode_yuv(yuv, estimate_global_motion_clamped, code_plane_clamped)
    }

    /// Deterministic per-sample noise: every shift of it is distinct, so a
    /// pure pan has one best match.
    fn noise(x: i64, y: i64, seed: u64) -> u8 {
        let mut k = (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (y as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ seed.wrapping_mul(0x1656_67B1_9E37_79F9);
        k ^= k >> 29;
        k = k.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (k >> 56) as u8
    }

    fn noise_plane(w: u32, h: u32, dx: i64, dy: i64, seed: u64) -> Plane {
        let samples = (0..h as i64)
            .flat_map(|y| (0..w as i64).map(move |x| noise(x + dx, y + dy, seed)))
            .collect();
        Plane::from_samples(w, h, samples)
    }

    /// Every plane shape the motion-search tests cover: degenerate, no
    /// full window, a tile, an FOV frame and the ingest source.
    const SEARCH_SHAPES: [(u32, u32); 6] =
        [(1, 1), (7, 9), (17, 17), (40, 40), (112, 112), (320, 160)];

    #[test]
    fn pruned_search_recovers_every_pure_pan() {
        for (w, h) in SEARCH_SHAPES.into_iter().filter(|&(w, _)| w >= 40) {
            let reference = noise_plane(w, h, 0, 0, 7);
            // Every pan on the tile; on the larger planes, whose unpruned
            // candidates are slow in unoptimised test builds, the corners,
            // the centre and pans between.
            let pans: Vec<i64> = if w == 40 { (-8..=8).collect() } else { vec![-8, -1, 0, 3, 8] };
            for &dy in &pans {
                for &dx in &pans {
                    // cur(x, y) = ref(x + dx, y + dy): the pan is (dx, dy).
                    let cur = noise_plane(w, h, dx, dy, 7);
                    assert_eq!(
                        estimate_global_motion(&cur, &reference, 8),
                        (dx as i16, dy as i16),
                        "{w}x{h}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_planes_tie_everywhere_and_pick_zero_motion() {
        for (w, h) in SEARCH_SHAPES {
            let cur = Plane::filled(w, h, 90);
            for reference in [Plane::filled(w, h, 90), Plane::filled(w, h, 200)] {
                assert_eq!(estimate_global_motion(&cur, &reference, 8), (0, 0), "{w}x{h}");
                assert_eq!(estimate_global_motion_clamped(&cur, &reference, 8), (0, 0));
            }
        }
    }

    #[test]
    fn tied_candidates_keep_the_first_in_raster_order() {
        // Columns repeat with period 4, so a 2-px pan matches at dx = −2
        // and dx = +2 with the same cost; the strict `<` keeps −2.
        for (w, h) in [(40, 40), (112, 112), (320, 160)] {
            let plane = |shift: i64| {
                let samples = (0..h as i64)
                    .flat_map(|y| (0..w as i64).map(move |x| noise((x + shift) % 4, y, 5)))
                    .collect();
                Plane::from_samples(w, h, samples)
            };
            let (cur, reference) = (plane(2), plane(0));
            assert_eq!(estimate_global_motion(&cur, &reference, 8), (-2, 0), "{w}x{h}");
            assert_eq!(estimate_global_motion_clamped(&cur, &reference, 8), (-2, 0));
        }
    }

    #[test]
    fn ties_with_zero_motion_resolve_in_raster_order() {
        // One sampled luma differs by 8 from the reference, so (0, 0)
        // costs 8; a one-pixel pan that explains it costs its bias, 8.
        // Before (0, 0) in raster order the pan wins the tie; after it,
        // (0, 0) does.
        for (w, h) in [(40, 40), (112, 112), (320, 160)] {
            let mut cur = Plane::filled(w, h, 100);
            cur.set(10, 8, 108);
            for (ref_x, want) in [(9, (-1, 0)), (11, (0, 0))] {
                let mut reference = Plane::filled(w, h, 100);
                reference.set(ref_x, 8, 108);
                assert_eq!(estimate_global_motion(&cur, &reference, 8), want, "{w}x{h}");
                assert_eq!(estimate_global_motion_clamped(&cur, &reference, 8), want);
            }
        }
    }

    #[test]
    fn search_against_a_reference_of_other_dimensions_matches_the_clamped_loop() {
        let cur = noise_plane(40, 40, 2, 1, 3);
        for (w, h) in [(33, 21), (64, 48), (40, 39), (1, 1)] {
            let reference = noise_plane(w, h, 0, 0, 3);
            assert_eq!(
                estimate_global_motion(&cur, &reference, 8),
                estimate_global_motion_clamped(&cur, &reference, 8),
                "{w}x{h}"
            );
        }
    }

    /// A textured frame panned by `shift` with a moving highlight, so P
    /// frames carry both motion and residual.
    fn panned(w: u32, h: u32, shift: u32, seed: u64) -> ImageBuffer {
        ImageBuffer::from_fn(w, h, |x, y| {
            let n = noise(x as i64 + shift as i64, y as i64, seed);
            let wave = (((x + shift) as f64 * 0.35).sin() * 70.0 + 128.0) as u8;
            let spot = if x.abs_diff(shift * 2 % w) < 3 { 90 } else { 0 };
            Rgb::new(wave / 2 + n / 2, n.saturating_add(spot), 255 - wave)
        })
    }

    #[test]
    fn encoder_resolution_change_mid_gop_matches_reference() {
        // A P frame whose reference has other dimensions: the search
        // falls back to the clamped loop and block gathers clamp, so the
        // output is today's and nothing indexes out of bounds.
        for sizes in [[(40, 40), (33, 21), (64, 48)], [(17, 9), (112, 112), (1, 1)]] {
            let mut enc = Encoder::new(CodecConfig::new(30, 12));
            let mut reference = Encoder::new(CodecConfig::new(30, 12));
            let mut dec = Decoder::new();
            for (i, (w, h)) in sizes.into_iter().enumerate() {
                let img = panned(w, h, i as u32 * 3, 11);
                let fast = enc.encode_frame(&img);
                assert_eq!(fast, encode_reference(&mut reference, &img), "{w}x{h}");
                assert_eq!(fast.kind == FrameKind::Intra, i == 0);
                assert_eq!(enc.reference, reference.reference);
                // The decoder follows the encoder's reconstruction exactly.
                let out = dec.decode_frame(&fast);
                assert_eq!(out, yuv420_to_rgb(enc.reference.as_ref().unwrap()));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_pruned_search_matches_clamped_search(
            shape in 0usize..6,
            dx in -10i64..=10,
            dy in -10i64..=10,
            seed in 0u64..1000,
        ) {
            let (w, h) = SEARCH_SHAPES[shape];
            let reference = noise_plane(w, h, 0, 0, seed);
            // Pans past the search range and noisy content exercise the
            // pruning; the answer must still be the clamped loop's.
            let cur = noise_plane(w, h, dx, dy, seed ^ (seed % 3));
            prop_assert_eq!(
                estimate_global_motion(&cur, &reference, 8),
                estimate_global_motion_clamped(&cur, &reference, 8)
            );
        }

        #[test]
        fn prop_fast_frames_match_reference_frames(
            w in 1u32..70,
            h in 1u32..50,
            q in 0usize..3,
            seed in 0u64..1000,
        ) {
            // I then P frames at sizes mostly not multiples of 8, at a
            // fine, the default and a coarse quantiser.
            let q = [2u8, 12, 40][q];
            let mut enc = Encoder::new(CodecConfig::new(30, q));
            let mut reference = Encoder::new(CodecConfig::new(30, q));
            for shift in [0u32, 3, 5, 5] {
                let img = panned(w, h, shift, seed);
                prop_assert_eq!(enc.encode_frame(&img), encode_reference(&mut reference, &img));
                prop_assert_eq!(&enc.reference, &reference.reference);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_decode_matches_encoder_reconstruction(seed in 0u32..50) {
            // The decoder must track the encoder's reconstruction exactly
            // (same coefficients, same arithmetic).
            let img1 = textured(24, 16, seed as f64 * 0.17);
            let img2 = textured(24, 16, seed as f64 * 0.17 + 0.4);
            let mut enc = Encoder::new(CodecConfig::new(30, 8));
            let e1 = enc.encode_frame(&img1);
            let e2 = enc.encode_frame(&img2);
            let mut dec = Decoder::new();
            let _ = dec.decode_frame(&e1);
            let d2 = dec.decode_frame(&e2);
            // Re-encoding the decoded frame as a P-frame on the same
            // reference chain should produce near-zero residual bytes.
            let mut enc2 = Encoder::new(CodecConfig::new(30, 8));
            let _ = enc2.encode_frame(&d2);
            prop_assert!(img2.mean_abs_error(&d2) < 0.08);
        }
    }
}
