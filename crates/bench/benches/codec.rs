//! Codec-model throughput: intra and predicted coding, global motion
//! estimation, decode.
//!
//! Predicted frames are timed at the three shapes cloud ingest encodes —
//! the 320×160 source, the 112×112 FOV pre-render and the 40×40 tile — so
//! the motion search is measured where it is hot.

use criterion::{criterion_group, criterion_main, Criterion};
use evr_projection::{ImageBuffer, Rgb};
use evr_video::codec::{CodecConfig, Decoder, Encoder};

fn frame(w: u32, h: u32, phase: f64) -> ImageBuffer {
    ImageBuffer::from_fn(w, h, |x, y| {
        let v =
            ((x as f64 * 0.2 + phase).sin() * 80.0 + (y as f64 * 0.15).cos() * 60.0 + 128.0) as u8;
        Rgb::new(v, v / 2 + 64, 255 - v)
    })
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_320x160");
    group.sample_size(20);
    let f0 = frame(320, 160, 0.0);
    let f1 = frame(320, 160, 0.8);

    group.bench_function("encode_intra", |b| {
        b.iter(|| Encoder::new(CodecConfig::default()).encode_frame(std::hint::black_box(&f0)))
    });
    group.bench_function("encode_predicted", |b| {
        b.iter(|| {
            let mut enc = Encoder::new(CodecConfig::default());
            enc.encode_frame(&f0);
            enc.encode_frame(std::hint::black_box(&f1))
        })
    });
    let mut enc = Encoder::new(CodecConfig::default());
    let encoded = enc.encode_frame(&f0);
    group.bench_function("decode_intra", |b| {
        b.iter(|| Decoder::new().decode_frame(std::hint::black_box(&encoded)))
    });
    group.finish();
}

/// One P frame alone: the encoder is primed with an I frame outside the
/// timed closure and cloned per iteration, so only the motion search and
/// the residual coding are timed.
fn bench_predicted_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_predicted");
    group.sample_size(20);
    for (name, w, h) in
        [("source_320x160", 320, 160), ("fov_112x112", 112, 112), ("tile_40x40", 40, 40)]
    {
        let f0 = frame(w, h, 0.0);
        let f1 = frame(w, h, 0.8);
        let mut primed = Encoder::new(CodecConfig::default());
        primed.encode_frame(&f0);
        group.bench_function(name, |b| {
            b.iter(|| primed.clone().encode_frame(std::hint::black_box(&f1)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_predicted_shapes);
criterion_main!(benches);
