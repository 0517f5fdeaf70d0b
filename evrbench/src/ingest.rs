//! `ingest_cold`: cold cloud ingest at one worker per core.
//!
//! Each repeat ingests two videos (Paris, dense; RS, sparse) into a
//! fresh `FovPrerenderStore` with `ingest_video_with`, builds the delta
//! FOV ladder with `populate_fov_ladder` and the tiled-rate catalog with
//! `ingest_tiled_rates_with`. The inputs are the fixed library scenes:
//! the seed is unused. Set-up ingests both videos once, so the
//! process-wide `SamplingMapCache` is warm when timing starts; the
//! pre-render store is empty at the start of every repeat.

use std::time::Instant;

use evr_math::Radians;
use evr_obs::{names, Observer, TimelineEvent};
use evr_projection::lut::SamplingMapCache;
use evr_projection::pixel::downsample2x;
use evr_projection::{FilterMode, Projection, Transformer, Viewport};
use evr_sas::ingest::FPS;
use evr_sas::{
    fov_rung_quantizers, ingest_tiled_rates_with, ingest_video_with, populate_fov_ladder,
    FovLadderStats, FovPrerenderStore, IngestOptions, SasCatalog, StoreStats, TiledRateCatalog,
};
use evr_semantics::{select_k, validate_detections, ClusterTrajectory, Tracker};
use evr_video::codec::{CodecConfig, EncodedSegment, Encoder};
use evr_video::library::{scene_for, VideoId};
use evr_video::scene::Scene;

use crate::layers::LayerReport;
use crate::spans::{attribute, span, Tracer};
use crate::stats::Samples;
use crate::{digest, nproc, sas_config, Args, Outcome, CONTENT_S, SETUPS};

/// The two videos: dense (Paris, 13 objects) and sparse (RS, 3).
pub const VIDEOS: [VideoId; 2] = [VideoId::Paris, VideoId::Rs];

/// One video's cold ingest.
pub struct Cold {
    /// The video.
    pub video: VideoId,
    /// The ingested catalog.
    pub catalog: SasCatalog,
    /// The fresh store the ingest and the ladder filled.
    pub store: FovPrerenderStore,
    /// Store counters right after the ladder was built.
    pub stats: StoreStats,
    /// Ladder admissions.
    pub ladder: FovLadderStats,
    /// The tiled-rate catalog.
    pub tiles: TiledRateCatalog,
    /// Wall time of ingest, ladder and tiles together, seconds.
    pub wall_s: f64,
}

impl Cold {
    /// Digests of the catalog, the store's ladder and the tiles. Reads
    /// the store, so its counters move.
    fn digests(&self) -> (u64, u64, u64) {
        let rungs = fov_rung_quantizers(self.catalog.config());
        (
            digest::catalog(&self.catalog),
            digest::store(&self.catalog, &self.store, &rungs),
            digest::tiles(&self.tiles),
        )
    }
}

/// Ingests `video` cold: a fresh store, then the delta FOV ladder and
/// the tiled-rate catalog, each step in its own span (and ingest
/// observed) when traced.
pub fn cold_ingest(
    video: VideoId,
    scene: &Scene,
    workers: usize,
    tracer: Option<&Tracer>,
    parent: u64,
) -> Result<Cold, String> {
    let cfg = sas_config();
    let t0 = Instant::now();
    let store = FovPrerenderStore::new();
    let observer = tracer.map_or_else(Observer::noop, |t| t.observer().clone());
    let options = IngestOptions { workers, store: Some(store.clone()), observer };
    let catalog = span(tracer, parent, "sas.ingest_video", |_| {
        ingest_video_with(scene, &cfg, CONTENT_S, &options)
    })
    .map_err(|e| format!("ingest of {video:?} failed: {e}"))?;
    let ladder = span(tracer, parent, "sas.fov_ladder", |_| {
        populate_fov_ladder(&catalog, &store, &fov_rung_quantizers(&cfg), workers, true)
    });
    let tiles = span(tracer, parent, "sas.tiled_rates", |_| {
        ingest_tiled_rates_with(scene, &cfg, CONTENT_S, workers)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = store.stats();
    Ok(Cold { video, catalog, store, stats, ladder, tiles, wall_s })
}

/// One repeat: every video ingested cold. Counts three operations per
/// video (ingest, ladder, tiles); an ingest error fails all three.
fn repeat(
    scenes: &[(VideoId, Scene)],
    workers: usize,
    tracer: Option<&Tracer>,
    parent: u64,
    out: &mut Outcome,
) -> Vec<Cold> {
    let mut colds = Vec::new();
    for (video, scene) in scenes {
        out.attempted += 3;
        match cold_ingest(*video, scene, workers, tracer, parent) {
            Ok(cold) => {
                out.check(cold.stats.misses > 0, || {
                    format!("{video:?}: a cold repeat recorded no store misses")
                });
                colds.push(cold);
            }
            Err(e) => {
                out.failed += 3;
                out.check(false, || e);
            }
        }
    }
    colds
}

/// Checks `colds` against a reference repeat, video by video: catalog,
/// store ladder, tiles and ladder admissions identical.
fn check_same(
    what: &str,
    colds: &[Cold],
    reference: &[(VideoId, (u64, u64, u64), FovLadderStats)],
    out: &mut Outcome,
) {
    for cold in colds {
        let Some((_, digests, ladder)) = reference.iter().find(|r| r.0 == cold.video) else {
            continue;
        };
        let got = cold.digests();
        out.check(got == *digests && cold.ladder == *ladder, || {
            format!("{:?}: {what} differs from the reference ingest", cold.video)
        });
    }
}

fn scenes(videos: &[VideoId]) -> Vec<(VideoId, Scene)> {
    videos.iter().map(|&v| (v, scene_for(v))).collect()
}

/// Runs `ingest_cold`.
pub fn run(args: &Args, tracer: Option<&Tracer>, out: &mut Outcome) {
    println!("ingest_cold: the seed is unused; inputs are the fixed library scenes");
    let Some(tr) = tracer else {
        let mut setup_s = Vec::new();
        let mut inputs = Vec::new();
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            inputs = scenes(&VIDEOS);
            warm_up(&inputs, out);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        crate::print_rss("set-up");
        let lut0 = SamplingMapCache::shared().stats();
        let deadline = Instant::now() + args.seconds;
        let (mut wall, mut segments, mut repeat_ms, mut rates) = (0.0, 0, Vec::new(), Vec::new());
        let mut reference = Vec::new();
        let mut resident_mb = 0.0;
        loop {
            let t0 = Instant::now();
            let colds = repeat(&inputs, 0, None, 0, out);
            let repeat_s = t0.elapsed().as_secs_f64();
            wall += repeat_s;
            repeat_ms.push(repeat_s * 1e3);
            let ingested: u32 = colds.iter().map(|c| c.catalog.segment_count()).sum();
            segments += ingested;
            rates.push(f64::from(ingested) / repeat_s);
            for cold in &colds {
                println!("  {:?} published in {:.3} ms", cold.video, cold.wall_s * 1e3);
            }
            if reference.is_empty() {
                resident_mb =
                    colds.iter().map(|c| c.store.resident_bytes()).sum::<u64>() as f64 / 1e6;
                reference = colds.iter().map(|c| (c.video, c.digests(), c.ladder)).collect();
            } else {
                check_same("a later repeat", &colds, &reference, out);
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        let lut = SamplingMapCache::shared().stats();
        let (hits, misses) = (lut.hits - lut0.hits, lut.misses - lut0.misses);
        println!(
            "SamplingMapCache::shared(): warm at the start of timing (set-up ingested the same content); hit rate while timed {} ({hits} hits, {misses} misses)",
            hits as f64 / (hits + misses).max(1) as f64
        );
        // Worker-count check: the sparse video again, on one worker.
        let serial = repeat(&scenes(&[VideoId::Rs]), 1, None, 0, out);
        check_same("the one-worker ingest", &serial, &reference, out);

        let setup = Samples::new(setup_s).expect("set-up ran");
        println!("setup_s: {}", setup.describe());
        out.metric("setup_s", setup.median(), "s");
        let rates = Samples::new(rates).expect("a repeat ran");
        println!(
            "ingest.segments_per_s = {} segments/s, median of repeats (n={segments} segments in {wall:.3} s; per repeat {})",
            rates.median(),
            rates.describe()
        );
        out.metric("throughput_per_s", rates.median(), "1/s");
        println!(
            "ingest.store_resident_mb = {resident_mb} MB (bits {:016x})",
            resident_mb.to_bits()
        );
        let repeats = Samples::new(repeat_ms).expect("a repeat ran");
        println!("ingest.repeat_ms: {}", repeats.describe());
        out.metric("op_p50_ms", repeats.median(), "ms");
        return;
    };

    let mut rep = LayerReport::default();
    warm_up(&scenes(&VIDEOS), out);
    census(&VIDEOS, tr, &mut rep, out);
    let mut times = crate::fleet::SetupTimes::default();
    let content = crate::fleet::build(&[VideoId::Rs], &mut times);
    times.report(&mut rep);
    crate::fleet::layers(&content, crate::fleet::user_base(args.seed), tr, &mut rep, out);
    crate::serve::census(&content.systems[0], tr, &mut rep, out);
    rep.emit(out);
}

/// Set-up: one ingest of every video into a throwaway store, which
/// fills the process-wide sampling-map cache the timed repeats reuse.
fn warm_up(inputs: &[(VideoId, Scene)], out: &mut Outcome) {
    let cfg = sas_config();
    for (video, scene) in inputs {
        let options = IngestOptions { store: Some(FovPrerenderStore::new()), ..Default::default() };
        if let Err(e) = ingest_video_with(scene, &cfg, CONTENT_S, &options) {
            out.check(false, || format!("set-up ingest of {video:?} failed: {e}"));
        }
    }
}

/// Per-layer measurements of cold ingest for `videos` (their own
/// content in `ingest_cold`; the content a workload ingested at set-up
/// otherwise): untraced repeats at `nproc` and at one worker, a traced
/// repeat, and a serial replay of every segment.
pub fn census(videos: &[VideoId], tr: &Tracer, rep: &mut LayerReport, out: &mut Outcome) {
    let inputs = &scenes(videos);
    let t0 = Instant::now();
    let wide = repeat(inputs, 0, None, 0, out);
    let wide_s = t0.elapsed().as_secs_f64();
    let reference: Vec<_> = wide.iter().map(|c| (c.video, c.digests(), c.ladder)).collect();
    let t0 = Instant::now();
    let serial = repeat(inputs, 1, None, 0, out);
    rep.fill("sched.ingest_speedup", t0.elapsed().as_secs_f64() / wide_s);
    check_same("the one-worker ingest", &serial, &reference, out);
    drop((wide, serial));

    let lut0 = SamplingMapCache::shared().stats();
    let (traced, root) =
        span(Some(tr), 0, "ingest.traced", |root| (repeat(inputs, 0, Some(tr), root, out), root));
    let lut = SamplingMapCache::shared().stats();
    let traced_s = tr.named("ingest.traced").last().map_or(0.0, |s| s.duration_ns() as f64 / 1e9);
    rep.fill("obs.tracing_overhead", 1.0 - wide_s / traced_s);
    let (hits, misses) = (lut.hits - lut0.hits, lut.misses - lut0.misses);
    rep.fill("projection.lut_hit_rate", hits as f64 / (hits + misses).max(1) as f64);

    let (events, _) = tr.timeline_events();
    let at = attribute(&tr.spans(), &events, root, &[]);
    rep.account("ingest", &at, "ingest.traced", out);
    let total = |name: &str| {
        tr.named(name)
            .iter()
            .filter(|s| s.parent == root)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum::<f64>()
    };
    rep.fill("sas.ingest_video_s", total("sas.ingest_video"));
    rep.fill("sas.fov_ladder_s", total("sas.fov_ladder"));
    rep.fill("sas.tiled_rates_s", total("sas.tiled_rates"));
    let (unattributed, idle) = lanes(tr, root, &events);
    rep.fill("sas.ingest_unattributed_s", unattributed);
    rep.fill("sched.ingest_lane_idle_fraction", idle);

    // Cold stores start from zero, so their counters are the repeat's.
    let snapshots: Vec<_> = traced.iter().map(|c| (StoreStats::default(), c.stats)).collect();
    rep.store(&snapshots, traced.iter().map(|c| c.store.delta_entries()).sum());

    for (cold, (_, scene)) in traced.iter().zip(inputs) {
        replay(scene, &cold.catalog, tr, out);
    }
    rep.fill("video.scene_render_ms", tr.mean_ms("video.scene_render"));
    rep.fill("video.encode_ms", tr.mean_ms("video.encode"));
    rep.fill("video.fov_encode_ms", tr.mean_ms("video.fov_encode"));
    rep.fill("projection.fov_render_ms", tr.mean_ms("projection.fov_render"));
    rep.fill("semantics.analyse_ms", tr.mean_ms("semantics.analyse"));
}

/// From the `ingest_segment` intervals inside each traced
/// `sas.ingest_video` span: the time outside the busiest lane's
/// segments (serial prologue and epilogue), summed over videos, and the
/// share of lane time the workers sat idle.
fn lanes(tr: &Tracer, root: u64, events: &[TimelineEvent]) -> (f64, f64) {
    let workers = nproc() as f64;
    let (mut unattributed, mut busy_all, mut lane_time) = (0.0, 0.0, 0.0);
    for call in tr.named("sas.ingest_video").iter().filter(|s| s.parent == root) {
        let mut per_lane = std::collections::BTreeMap::<u32, f64>::new();
        for e in events.iter().filter(|e| {
            e.stage == names::TIMELINE_INGEST_SEGMENT
                && e.start_ns >= call.start_ns
                && e.end_ns <= call.end_ns
        }) {
            *per_lane.entry(e.worker).or_default() += e.duration_ns() as f64 / 1e9;
        }
        let wall = call.duration_ns() as f64 / 1e9;
        let busiest = per_lane.values().copied().fold(0.0, f64::max);
        unattributed += wall - busiest;
        busy_all += per_lane.values().sum::<f64>();
        lane_time += wall * workers;
    }
    (unattributed, 1.0 - busy_all / lane_time.max(f64::MIN_POSITIVE))
}

/// Replays every segment of `catalog` serially through the public calls
/// ingest makes, each in a span, taking FOV orientations from the
/// catalog's frame metadata, and checks the replayed encodings are the
/// catalog's bytes.
pub fn replay(scene: &Scene, catalog: &SasCatalog, tr: &Tracer, out: &mut Outcome) {
    let cfg = *catalog.config();
    let t = Some(tr);
    let (src_w, src_h) = cfg.analysis_src;
    let (fov_w, fov_h) = cfg.analysis_fov;
    let renderer = Transformer::new(
        Projection::Erp,
        FilterMode::Bilinear,
        cfg.stream_fov(),
        Viewport::new(fov_w * 2, fov_h * 2),
    );
    let lut = SamplingMapCache::shared();
    let seg_len = u64::from(cfg.segment_frames);
    let total_frames = (CONTENT_S.min(scene.duration()) * FPS).floor() as u64;
    let root = span(t, 0, "ingest.replay", |root| {
        for seg in 0..catalog.segment_count() {
            span(t, root, "ingest.replay_segment", |id| {
                let start = u64::from(seg) * seg_len;
                let times: Vec<f64> =
                    (start..(start + seg_len).min(total_frames)).map(|i| i as f64 / FPS).collect();
                let sources: Vec<_> = times
                    .iter()
                    .map(|&time| {
                        span(t, id, "video.scene_render", |_| {
                            scene.render_image(time, Projection::Erp, src_w, src_h)
                        })
                    })
                    .collect();
                let mut enc = Encoder::new(cfg.codec);
                enc.force_intra();
                let frames: Vec<_> = sources
                    .iter()
                    .map(|img| span(t, id, "video.encode", |_| enc.encode_frame(img)))
                    .collect();
                out.check(
                    catalog.try_original_segment(seg)
                        == Some(&EncodedSegment { start_index: start, frames }),
                    || format!("replayed original of segment {seg} differs from the catalog"),
                );

                let kept = span(t, id, "semantics.analyse", |_| {
                    let mut tracker = Tracker::new(Radians(0.2), 3);
                    for &time in &times {
                        let detections = cfg.detector.detect(scene, time);
                        if validate_detections(&detections).is_err() {
                            return 0;
                        }
                        tracker.observe(time, &detections);
                    }
                    let tracks = tracker.into_tracks();
                    if tracks.is_empty() {
                        return 0;
                    }
                    let points: Vec<_> = tracks.iter().map(|tr| tr.position_at(times[0])).collect();
                    select_k(&points, cfg.cluster_spread, cfg.max_clusters, 0xC1A5 ^ u64::from(seg))
                        .map_or(0, |clustering| {
                            ClusterTrajectory::build_all(
                                &clustering,
                                &tracks,
                                &times,
                                cfg.smoothing,
                            )
                            .len()
                        })
                });
                let clusters = catalog.clusters_in_segment(seg);
                out.check(kept == clusters.len(), || {
                    format!(
                        "segment {seg}: replay kept {kept} clusters, catalog has {}",
                        clusters.len()
                    )
                });

                for cluster in clusters {
                    let Some((data, meta)) =
                        catalog.fov_stream(seg, cluster).and_then(|s| catalog.read_fov(s))
                    else {
                        out.check(false, || format!("segment {seg} cluster {cluster} unreadable"));
                        continue;
                    };
                    let mut enc =
                        Encoder::new(CodecConfig::new(cfg.segment_frames, cfg.fov_quantizer));
                    enc.force_intra();
                    let mut frames = Vec::new();
                    for (src, m) in sources.iter().zip(meta) {
                        let image = span(t, id, "projection.fov_render", |_| {
                            let (map, _) = lut.reference_map(&renderer, m.orientation, 1);
                            map.as_reference()
                                .map(|coords| downsample2x(&renderer.render_with_map(src, coords)))
                        });
                        let Some(image) = image else { break };
                        frames.push(span(t, id, "video.fov_encode", |_| enc.encode_frame(&image)));
                    }
                    out.check(*data == EncodedSegment { start_index: start, frames }, || {
                        format!("segment {seg} cluster {cluster}: replayed FOV video differs")
                    });
                }
            });
        }
        root
    });
    let (events, _) = tr.timeline_events();
    let at = attribute(&tr.spans(), &events, root, &[]);
    println!(
        "replay of {} ({} segments): wall {:.6} s",
        scene.name(),
        catalog.segment_count(),
        at.wall_s
    );
    for (name, s) in &at.self_s {
        println!("  {name:<40} {s:>12.6} s {:>7.2}%", 100.0 * s / at.wall_s.max(f64::MIN_POSITIVE));
    }
}
