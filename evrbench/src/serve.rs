//! `serve_refine`: an open loop of requests in simulated time against
//! the sharded serving front, over a store smaller than its working set.
//!
//! Arrivals are Poisson at a fixed offered rate, with Zipf-skewed
//! popularity over `(segment, cluster)` FOV streams and `(segment,
//! tile)` tiles; the seed draws them. Each window of arrivals drives
//! `SasFront::serve_batch` (top-rung FOV requests) and
//! `serve_tile_batch` (tile requests); a share of the arrivals are
//! coarse-then-upgrade `fetch_fov_refined` calls over `DeltaWire`,
//! admitted through the same front. The store's byte budget is half the
//! full FOV ladder, so eviction, transcode-on-miss and re-insert happen.
//! Neither ingest nor the per-frame client pipeline runs while timing.

use std::collections::HashMap;
use std::time::Instant;

use evr_client::pipeline::{CleanTransport, DeltaWire};
use evr_client::refine::fetch_fov_refined;
use evr_core::EvrSystem;
use evr_energy::{DeviceParams, EnergyLedger};
use evr_faults::FrontProfile;
use evr_sas::{
    fov_rung_quantizers, populate_fov_ladder, Admission, Disposition, FovPrerenderStore,
    FrontRequest, SasFront, SasServer, TileDisposition, TileRequest,
};
use evr_video::delta::{segment_digest, transcode_segment, DeltaSegment};
use evr_video::library::VideoId;

use crate::digest::{self, Fnv};
use crate::layers::LayerReport;
use crate::spans::{attribute, span, Tracer};
use crate::stats::Samples;
use crate::{mix, Args, Outcome, SETUPS};

/// The video served: Paris, the densest, so the most FOV streams.
pub const VIDEO: VideoId = VideoId::Paris;

/// Simulated seconds between two dispatches of the front.
const TICK_S: f64 = 0.02;
/// Ticks per host-timed window (a window is 100 simulated ms).
const TICKS_PER_WINDOW: usize = 5;
/// Simulated seconds in one pass of the schedule.
const HORIZON_S: f64 = 15.0;
/// Offered load, simulated requests per second (30 per window).
const OFFERED_RPS: f64 = 300.0;
/// Zipf exponent of request popularity.
const ZIPF_S: f64 = 1.1;
/// Store budget as a share of the full FOV ladder's resident bytes.
const BUDGET_SHARE: f64 = 0.5;
/// Windows in each phase of a traced run, and in the one-worker check.
const TRACED_WINDOWS: usize = 100;

/// Front shape: the default profile (4 shards, 2 ms service).
fn profile() -> FrontProfile {
    FrontProfile::default()
}

/// A server over a budget-limited store holding the delta FOV ladder,
/// with the tiled-rate catalog attached.
pub struct Rig {
    server: SasServer,
    store: FovPrerenderStore,
    /// Every `(segment, cluster)` FOV stream.
    keys: Vec<(u32, usize)>,
    /// Segment digest of each stream's top rung.
    top_digest: HashMap<(u32, usize), u64>,
    /// Number of tiles per segment and rungs per tile.
    tiles: (usize, usize),
    segments: u32,
    coarse_q: u8,
    budget: u64,
}

/// Builds the serving rig over `sys`'s content.
pub fn rig(sys: &EvrSystem) -> Rig {
    let catalog = sys.server().catalog();
    let rungs = fov_rung_quantizers(catalog.config());
    let full = FovPrerenderStore::new();
    populate_fov_ladder(catalog, &full, &rungs, 0, true);
    let budget = (full.resident_bytes() as f64 * BUDGET_SHARE) as u64;
    let store = FovPrerenderStore::with_budget(budget);
    populate_fov_ladder(catalog, &store, &rungs, 0, true);
    let tiles = sys.tiled_rates();
    let mut server = sys.server().clone();
    server.attach_store(store.clone());
    server.attach_tiles(tiles.clone());
    let mut keys = Vec::new();
    let mut top_digest = HashMap::new();
    for seg in 0..catalog.segment_count() {
        for cluster in catalog.clusters_in_segment(seg) {
            keys.push((seg, cluster));
            if let Some((data, _)) =
                catalog.fov_stream(seg, cluster).and_then(|s| catalog.read_fov(s))
            {
                top_digest.insert((seg, cluster), segment_digest(data));
            }
        }
    }
    Rig {
        server,
        store,
        keys,
        top_digest,
        tiles: (tiles.grid().len(), tiles.rung_count()),
        segments: catalog.segment_count(),
        coarse_q: rungs[0],
        budget,
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Fov(usize),
    Tile(usize, usize),
    Refine(usize),
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    t: f64,
    user: u64,
    kind: Kind,
}

/// A deterministic stream of uniform draws in `[0, 1)`.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(1);
        (mix(self.0) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over `n` items. The popularity ranking is a fixed
/// shuffle (the same for every seed, so every seed offers the same
/// expected mix), which spreads the popular streams over segments and
/// so over the front's shards.
struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        let mut order: Vec<usize> = (0..n).collect();
        let mut draws = Draws(0x21bf);
        for i in (1..n).rev() {
            order.swap(i, (draws.next() * (i + 1) as f64) as usize);
        }
        Zipf { cdf, order }
    }

    fn sample(&self, u: f64) -> usize {
        self.order[self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)]
    }
}

/// The arrival schedule of one pass, grouped into dispatch ticks. Each
/// window receives exactly its share of the offered rate, at uniformly
/// drawn times within it, so every window carries the same mix of work
/// and window times compare like with like.
fn schedule(rig: &Rig, seed: u64) -> Vec<Vec<Arrival>> {
    let mut draws = Draws(mix(seed ^ 0x5e7e));
    let fov = Zipf::new(rig.keys.len());
    let tiles = Zipf::new(rig.segments as usize * rig.tiles.0);
    let window_s = TICK_S * TICKS_PER_WINDOW as f64;
    let windows = (HORIZON_S / window_s).round() as usize;
    let per_window = (OFFERED_RPS * window_s).round() as usize;
    let mut out = vec![Vec::new(); windows * TICKS_PER_WINDOW];
    let mut user = 0;
    for w in 0..windows {
        let mut times: Vec<f64> =
            (0..per_window).map(|_| (w as f64 + draws.next()) * window_s).collect();
        times.sort_by(f64::total_cmp);
        for t in times {
            // Kinds cycle through a fixed pattern, so every window offers
            // the same mix; the draws pick the streams.
            let u = draws.next();
            let kind = match user % 10 {
                0 => Kind::Refine(fov.sample(u)),
                1..=3 => Kind::Tile(tiles.sample(u), (draws.next() * rig.tiles.1 as f64) as usize),
                _ => Kind::Fov(fov.sample(u)),
            };
            user += 1;
            let tick = ((t / TICK_S) as usize).min(out.len() - 1);
            out[tick].push(Arrival { t, user, kind });
        }
    }
    out
}

/// What one window did.
struct Window {
    digest: u64,
    host_s: f64,
    answered: u64,
}

/// Simulated outcomes of a pass: latency per offered request, from its
/// arrival (`INFINITY` for one shed, refused or failed), and sheds.
#[derive(Default)]
struct Sim {
    latencies_s: Vec<f64>,
    shed: u64,
    delta_upgrades: u64,
    refines: u64,
}

/// Serves one window of ticks. At the end of each tick the front
/// dispatches what arrived during it: the FOV batch, the tile batch,
/// then the refinements, admitted through the same front.
#[allow(clippy::too_many_arguments)]
fn window(
    rig: &Rig,
    front: &SasFront,
    ticks: &[Vec<Arrival>],
    first_tick: usize,
    workers: usize,
    sim: &mut Sim,
    tracer: Option<&Tracer>,
    parent: u64,
    out: &mut Outcome,
) -> Window {
    let t0 = Instant::now();
    let mut h = Fnv::default();
    let mut answered = 0;
    span(tracer, parent, "serve.window", |id| {
        for (i, arrivals) in ticks.iter().enumerate() {
            let now = (first_tick + i + 1) as f64 * TICK_S;
            answered += tick(rig, front, arrivals, now, workers, sim, tracer, id, &mut h, out);
        }
    });
    Window { digest: h.get(), host_s: t0.elapsed().as_secs_f64(), answered }
}

/// Dispatches one tick's arrivals at simulated time `now`; returns the
/// requests answered (served, or shed to a lower rung).
#[allow(clippy::too_many_arguments)]
fn tick(
    rig: &Rig,
    front: &SasFront,
    arrivals: &[Arrival],
    now: f64,
    workers: usize,
    sim: &mut Sim,
    tracer: Option<&Tracer>,
    parent: u64,
    h: &mut Fnv,
    out: &mut Outcome,
) -> u64 {
    let (mut fov, mut fov_wait) = (Vec::new(), Vec::new());
    let (mut tile, mut tile_wait) = (Vec::new(), Vec::new());
    let mut refine = Vec::new();
    for a in arrivals {
        match a.kind {
            Kind::Fov(k) => {
                let (segment, cluster) = rig.keys[k];
                fov.push(FrontRequest { user: a.user, segment, cluster, arrival_s: now });
                fov_wait.push(now - a.t);
            }
            Kind::Tile(k, rung) => {
                let (segment, tile_i) = ((k / rig.tiles.0) as u32, k % rig.tiles.0);
                tile.push(TileRequest {
                    user: a.user,
                    segment,
                    tile: tile_i,
                    rung,
                    arrival_s: now,
                });
                tile_wait.push(now - a.t);
            }
            Kind::Refine(k) => refine.push((now - a.t, rig.keys[k])),
        }
    }
    out.attempted += arrivals.len() as u64;
    let batch = span(tracer, parent, "sas.front_batch", |_| front.serve_batch(&fov, workers));
    let tiles =
        span(tracer, parent, "sas.front_tile_batch", |_| front.serve_tile_batch(&tile, workers));
    h.u(digest::batch(&batch)).u(digest::tile_batch(&tiles));
    out.failed += batch.unavailable + batch.not_found + tiles.unavailable + tiles.not_found;
    sim.shed += batch.shed + tiles.shed;
    for (o, wait) in batch.outcomes.iter().zip(fov_wait) {
        sim.latencies_s.push(match &o.disposition {
            Disposition::Served { latency_s, .. } => wait + latency_s,
            _ => f64::INFINITY,
        });
    }
    for (o, wait) in tiles.outcomes.iter().zip(tile_wait) {
        sim.latencies_s.push(match &o.disposition {
            TileDisposition::Served { latency_s, .. } => wait + latency_s,
            _ => f64::INFINITY,
        });
    }
    let mut answered = batch.served + batch.shed + tiles.served + tiles.shed;

    let device = DeviceParams::default();
    for (wait, (segment, cluster)) in refine {
        sim.refines += 1;
        match front.admit(segment, now) {
            Admission::Serve { queue_delay_s, service_s, .. } => {
                let mut ledger = EnergyLedger::new();
                let fetched = span(tracer, parent, "client.refine_fetch", |_| {
                    fetch_fov_refined(
                        &DeltaWire(CleanTransport),
                        front.server(),
                        segment,
                        cluster,
                        rig.coarse_q,
                        &device,
                        &mut ledger,
                    )
                });
                match fetched {
                    Ok(f) => {
                        out.check(Some(&f.digest) == rig.top_digest.get(&(segment, cluster)), || {
                            format!("delta-wire digest of ({segment}, {cluster}) differs from the full wire")
                        });
                        sim.latencies_s.push(wait + queue_delay_s + service_s);
                        sim.delta_upgrades += u64::from(f.via_delta);
                        answered += 1;
                        h.u(f.digest).u(f.coarse_wire_bytes).u(f.upgrade_wire_bytes);
                        h.u(u64::from(f.via_delta)).f(ledger.total());
                    }
                    Err(e) => {
                        out.failed += 1;
                        sim.latencies_s.push(f64::INFINITY);
                        out.check(false, || format!("refinement of ({segment}, {cluster}): {e}"));
                    }
                }
            }
            Admission::Shed { .. } => {
                sim.shed += 1;
                sim.latencies_s.push(f64::INFINITY);
                h.u(2);
            }
            Admission::Unavailable { .. } => {
                out.failed += 1;
                sim.latencies_s.push(f64::INFINITY);
                h.u(3);
            }
        }
    }
    answered
}

/// What a pass (or part of one) did.
struct Pass {
    windows: Vec<Window>,
    sim: Sim,
    peak_queue_depth: u32,
    coalesced: u64,
    served: u64,
}

/// Serves the ticks of `plan` through a fresh front (observed when
/// traced).
#[allow(clippy::too_many_arguments)]
fn pass(
    rig: &Rig,
    plan: &[Vec<Arrival>],
    seed: u64,
    workers: usize,
    tracer: Option<&Tracer>,
    parent: u64,
    out: &mut Outcome,
) -> Pass {
    let observer = tracer.map(Tracer::observer);
    let mut front = SasFront::new(rig.server.clone(), profile(), seed);
    if let Some(obs) = observer {
        front.set_observer(obs);
    }
    let mut p = Pass {
        windows: Vec::new(),
        sim: Sim::default(),
        peak_queue_depth: 0,
        coalesced: 0,
        served: 0,
    };
    for (i, ticks) in plan.chunks(TICKS_PER_WINDOW).enumerate() {
        let w = window(
            rig,
            &front,
            ticks,
            i * TICKS_PER_WINDOW,
            workers,
            &mut p.sim,
            tracer,
            parent,
            out,
        );
        p.windows.push(w);
    }
    p.peak_queue_depth = front.peak_queue_depth();
    if let Some(obs) = observer {
        use evr_obs::names;
        p.coalesced = obs.counter(names::SAS_FRONT_COALESCED).get();
        p.served = obs.counter(names::SAS_FRONT_SERVED).get();
    }
    p
}

/// Checks that `got`'s windows match the reference pass window by
/// window (as far as both ran).
fn check_windows(what: &str, got: &Pass, reference: &Pass, out: &mut Outcome) {
    let same = got.windows.iter().zip(&reference.windows).all(|(a, b)| a.digest == b.digest);
    out.check(same, || format!("{what}: window reports differ from the first pass"));
}

/// Sets up the content and the rig, [`SETUPS`] times.
fn set_up(times: &mut crate::fleet::SetupTimes) -> (crate::fleet::Content, Rig) {
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take()); // free the previous set-up before building again
        let t0 = Instant::now();
        let content = crate::fleet::build(&[VIDEO], times);
        let rig = rig(&content.systems[0]);
        // The whole set-up, rig included, is what `setup_s` reports.
        times.setup_s.pop();
        times.setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((content, rig));
    }
    last.expect("at least one set-up")
}

/// Runs `serve_refine`.
pub fn run(args: &Args, tracer: Option<&Tracer>, out: &mut Outcome) {
    let mut times = crate::fleet::SetupTimes::default();
    let (content, rig) = set_up(&mut times);
    crate::print_rss("set-up");
    let plan = schedule(&rig, args.seed);
    let offered: usize = plan.iter().map(Vec::len).sum();
    println!(
        "serve_refine: open loop, {OFFERED_RPS} req/s offered over {HORIZON_S} simulated s per pass ({offered} requests, dispatched every {TICK_S} s, timed in windows of {TICKS_PER_WINDOW} ticks); {} FOV streams, store budget {} bytes",
        rig.keys.len(),
        rig.budget
    );

    let Some(tr) = tracer else {
        // Whole passes until the time is up: every pass offers the same
        // requests, so per-pass rates compare like with like.
        let deadline = Instant::now() + args.seconds;
        let first = pass(&rig, &plan, args.seed, 0, None, 0, out);
        let mut host = Vec::new();
        let mut rates = Vec::new();
        let mut answered = 0;
        let mut record = |p: &Pass| {
            let pass_host: f64 = p.windows.iter().map(|w| w.host_s).sum();
            let pass_answered: u64 = p.windows.iter().map(|w| w.answered).sum();
            host.extend(p.windows.iter().map(|w| w.host_s));
            rates.push(pass_answered as f64 / pass_host);
            answered += pass_answered;
        };
        record(&first);
        while Instant::now() < deadline {
            let again = pass(&rig, &plan, args.seed, 0, None, 0, out);
            check_windows("a repeated pass", &again, &first, out);
            record(&again);
        }
        let serial_plan = &plan[..(TRACED_WINDOWS * TICKS_PER_WINDOW).min(plan.len())];
        let serial = pass(&rig, serial_plan, args.seed, 1, None, 0, out);
        check_windows("the one-worker pass", &serial, &first, out);

        let setup = Samples::new(times.setup_s).expect("set-up ran");
        println!("setup_s: {}", setup.describe());
        out.metric("setup_s", setup.median(), "s");
        let host_s: f64 = host.iter().sum();
        let listed: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        println!("serve pass rates in order: {}", listed.join(" "));
        let rates = Samples::new(rates).expect("a pass ran");
        println!(
            "serve.requests_per_s = {} requests/s, median of passes (n={answered} answered in {host_s:.3} host s; per pass {})",
            rates.median(),
            rates.describe()
        );
        out.metric("throughput_per_s", rates.median(), "1/s");
        let windows = Samples::new(host.iter().map(|s| s * 1e3).collect()).expect("windows ran");
        println!("serve.window_ms: {}", windows.describe());
        println!("serve.window_p50_ms = {} ms (n={})", windows.median(), windows.len());
        match windows.percentile(99.0) {
            Ok(v) => println!("serve.window_p99_ms = {v} ms (n={})", windows.len()),
            Err(e) => println!("serve.window_p99_ms not reported: {e}"),
        }
        out.metric("op_p50_ms", windows.median(), "ms");
        print_sim(&first.sim);
        return;
    };

    let mut rep = LayerReport::default();
    times.report(&mut rep);
    layers(&rig, &plan, args.seed, tr, &mut rep, out);
    crate::ingest::census(&[VIDEO], tr, &mut rep, out);
    crate::fleet::layers(&content, crate::fleet::user_base(args.seed), tr, &mut rep, out);
    rep.emit(out);
}

fn print_sim(sim: &Sim) {
    let offered = sim.latencies_s.len();
    let mut lat = sim.latencies_s.clone();
    lat.sort_by(f64::total_cmp);
    // Shed or refused requests count as missing any latency limit.
    let rank = ((0.99 * offered as f64).ceil() as usize).max(1);
    let p99 = lat[rank - 1] * 1e3;
    let shed = sim.shed as f64 / offered as f64;
    if offered - rank >= crate::stats::MIN_BEYOND {
        println!(
            "serve.sim_p99_latency_ms = {p99} ms (bits {:016x}, n={offered} offered)",
            p99.to_bits()
        );
    } else {
        println!("serve.sim_p99_latency_ms not reported: {offered} offered requests");
    }
    println!("serve.sim_shed_rate = {shed} (bits {:016x}, n={offered} offered)", shed.to_bits());
}

/// Per-layer measurements of serving on `rig`: an untraced and a traced
/// run of the first windows of `plan`, then direct calls on every FOV
/// stream for the server and codec layers the refinement path uses.
fn layers(
    rig: &Rig,
    plan: &[Vec<Arrival>],
    seed: u64,
    tr: &Tracer,
    rep: &mut LayerReport,
    out: &mut Outcome,
) {
    let part = &plan[..(TRACED_WINDOWS * TICKS_PER_WINDOW).min(plan.len())];
    let untraced = pass(rig, part, seed, 0, None, 0, out);
    let stats0 = rig.store.stats();
    let (traced, root) = span(Some(tr), 0, "serve.traced", |root| {
        (pass(rig, part, seed, 0, Some(tr), root, out), root)
    });
    let stats = rig.store.stats();
    check_windows("the traced pass", &traced, &untraced, out);
    let host = |p: &Pass| p.windows.iter().map(|w| w.host_s).sum::<f64>();
    rep.fill("obs.tracing_overhead", 1.0 - host(&untraced) / host(&traced));
    let (events, _) = tr.timeline_events();
    let at = attribute(&tr.spans(), &events, root, &[]);
    rep.account("serve", &at, "serve.traced", out);
    rep.fill("sas.front_batch_ms", tr.mean_ms("sas.front_batch"));
    rep.fill("sas.front_tile_batch_ms", tr.mean_ms("sas.front_tile_batch"));
    rep.fill("client.refine_fetch_us", tr.mean_ms("client.refine_fetch") * 1e3);
    rep.fill("sas.front_coalesced_fraction", traced.coalesced as f64 / traced.served.max(1) as f64);
    rep.fill("sas.front_peak_queue_depth", f64::from(traced.peak_queue_depth));
    rep.fill(
        "sas.delta_upgrade_fraction",
        traced.sim.delta_upgrades as f64 / traced.sim.refines.max(1) as f64,
    );
    rep.store(&[(stats0, stats)], rig.store.delta_entries());

    // The server and codec calls inside a refinement, one span each.
    let server = &rig.server;
    let top_q = server.catalog().config().fov_quantizer;
    for &(seg, cluster) in &rig.keys {
        out.attempted += 2;
        let coarse = span(Some(tr), 0, "sas.fetch_fov_rung", |_| {
            server.fetch_fov_rung(seg, cluster, rig.coarse_q)
        });
        let upgrade = span(Some(tr), 0, "sas.fetch_fov_upgrade", |_| {
            server.fetch_fov_upgrade(seg, cluster, rig.coarse_q, true)
        });
        let (Ok((coarse, _)), Ok(_)) = (coarse, upgrade) else {
            out.failed += 2;
            out.check(false, || format!("serving ({seg}, {cluster}) failed"));
            continue;
        };
        let Ok((top, _)) = server.fetch_fov_rung(seg, cluster, top_q) else { continue };
        let transcoded =
            span(Some(tr), 0, "video.transcode", |_| transcode_segment(&top.data, rig.coarse_q));
        out.check(transcoded == coarse.data, || {
            format!("transcode of ({seg}, {cluster}) differs from the served rung")
        });
        let delta = span(Some(tr), 0, "video.delta_encode", |_| {
            DeltaSegment::encode(&top.data, &coarse.data)
        });
        if let Some(delta) = delta {
            let rebuilt =
                span(Some(tr), 0, "video.delta_reconstruct", |_| delta.reconstruct(&coarse.data));
            out.check(rebuilt == top.data, || {
                format!("delta of ({seg}, {cluster}) does not reconstruct")
            });
        }
    }
    rep.fill("sas.fetch_fov_rung_us", tr.mean_ms("sas.fetch_fov_rung") * 1e3);
    rep.fill("sas.fetch_fov_upgrade_us", tr.mean_ms("sas.fetch_fov_upgrade") * 1e3);
    rep.fill("video.transcode_ms", tr.mean_ms("video.transcode"));
    rep.fill("video.delta_encode_ms", tr.mean_ms("video.delta_encode"));
    rep.fill("video.delta_reconstruct_us", tr.mean_ms("video.delta_reconstruct") * 1e3);
}

/// Per-layer measurements of serving on content another workload
/// ingested: a serving rig over `sys` and the first windows of a
/// schedule drawn from seed 1.
pub fn census(sys: &EvrSystem, tr: &Tracer, rep: &mut LayerReport, out: &mut Outcome) {
    let rig = rig(sys);
    let plan = schedule(&rig, 1);
    layers(&rig, &plan, 1, tr, rep, out);
}
