//! `fleet_mix`: a closed loop of user sessions over content ingested at
//! set-up.
//!
//! `FleetRunner` runs one worker per core; each worker takes its next
//! user only when its current session ends. Every user plays each of
//! `Baseline`, `S`, `H`, `S+H` and `T+H`, on two videos with contrasting
//! object counts (Rhino, 11 objects; RS, 3). The seed picks the user-id
//! range. No ingest happens while timing, so an ingest change must move
//! nothing here.

use std::sync::Mutex;
use std::time::Instant;

use evr_client::session::{PlaybackReport, PlaybackSession};
use evr_core::{EvrSystem, FleetRunner, UseCase, Variant};
use evr_math::EulerAngles;
use evr_obs::{names, TraceCtx};
use evr_pte::Pte;
use evr_sas::FovPrerenderStore;
use evr_video::library::VideoId;

use crate::layers::LayerReport;
use crate::spans::{attribute, span, Tracer};
use crate::stats::Samples;
use crate::{digest, mix, nproc, sas_config, Args, Outcome, CONTENT_S, SETUPS};

/// The two videos: dense (Rhino) and sparse (RS).
pub const VIDEOS: [VideoId; 2] = [VideoId::Rhino, VideoId::Rs];

/// The variants every user plays, with their metric suffixes and the
/// names of their session spans.
pub const VARIANTS: [(Variant, &str, &str); 5] = [
    (Variant::Baseline, "baseline", "client.session.baseline"),
    (Variant::S, "s", "client.session.s"),
    (Variant::H, "h", "client.session.h"),
    (Variant::SPlusH, "sh", "client.session.sh"),
    (Variant::TPlusH, "th", "client.session.th"),
];

/// Users per `FleetRunner` call (one video × variant).
const BATCH: u64 = 256;

/// Rounds (all videos × variants) per phase of a traced run.
const TRACED_ROUNDS: u64 = 4;

/// Ingested systems with one built session per variant.
pub struct Content {
    /// One system per video.
    pub systems: Vec<EvrSystem>,
    /// `sessions[video][variant]`, in [`VARIANTS`] order.
    pub sessions: Vec<Vec<PlaybackSession>>,
}

/// Median set-up timings of the `evr-core` entry points.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Wall time of each whole set-up.
    pub setup_s: Vec<f64>,
    /// `EvrSystem::build`, summed over the set-up's videos.
    pub build_s: Vec<f64>,
    /// `session_for` per variant, summed over videos.
    pub session_for_s: [Vec<f64>; 5],
}

impl SetupTimes {
    /// Records the medians as `core.*` layer metrics.
    pub fn report(&self, rep: &mut LayerReport) {
        let med = |v: &[f64]| Samples::new(v.to_vec()).map_or(0.0, |s| s.median());
        rep.fill("core.build_s", med(&self.build_s));
        for (k, (_, tag, _)) in VARIANTS.iter().enumerate() {
            rep.fill(&format!("core.session_for_s.{tag}"), med(&self.session_for_s[k]));
        }
    }
}

/// Builds `videos` from scratch (the process-wide pre-render store is
/// emptied first, so every set-up renders every FOV stream) and one
/// session per variant.
pub fn build(videos: &[VideoId], times: &mut SetupTimes) -> Content {
    let t0 = Instant::now();
    FovPrerenderStore::shared().clear();
    let mut build_s = 0.0;
    let mut session_s = [0.0; 5];
    let mut systems = Vec::new();
    let mut sessions = Vec::new();
    for &video in videos {
        let t = Instant::now();
        let sys = EvrSystem::build(video, sas_config(), CONTENT_S);
        build_s += t.elapsed().as_secs_f64();
        let mut per = Vec::new();
        for (k, (variant, _, _)) in VARIANTS.iter().enumerate() {
            let t = Instant::now();
            per.push(sys.session_for(UseCase::OnlineStreaming, *variant));
            session_s[k] += t.elapsed().as_secs_f64();
        }
        systems.push(sys);
        sessions.push(per);
    }
    times.build_s.push(build_s);
    for (k, s) in session_s.into_iter().enumerate() {
        times.session_for_s[k].push(s);
    }
    times.setup_s.push(t0.elapsed().as_secs_f64());
    Content { systems, sessions }
}

/// The first user id of this seed's range. Ids stay below 2^32 so they
/// never collide with the video bits `EvrSystem::user_trace` mixes in.
pub fn user_base(seed: u64) -> u64 {
    mix(seed) % 4000 * 1_000_000
}

/// Wall times of the untraced run: every session, and every user's
/// sessions summed over all videos and variants.
struct Timing {
    sessions: Vec<f64>,
    users: Vec<f64>,
    /// Per-user sums of the round in progress, indexed by user offset.
    round: Vec<f64>,
}

/// Plays `users` users from `first` through one session on `workers`
/// workers. Untraced it calls `EvrSystem::run_with`; traced it makes
/// the same two calls `run_with` makes, each in its own span.
#[allow(clippy::too_many_arguments)]
fn play(
    sys: &EvrSystem,
    session: &PlaybackSession,
    variant: usize,
    first: u64,
    users: u64,
    runner: &FleetRunner,
    tracer: Option<&Tracer>,
    parent: u64,
    times: Option<&Mutex<Timing>>,
) -> PlaybackReport {
    span(tracer, parent, "sched.fleet_run", |run_id| {
        runner.run_merged(users, |u| {
            let user = first + u;
            let t0 = Instant::now();
            let report = match tracer {
                None => sys.run_with(session, user),
                Some(_) => span(tracer, run_id, "user", |id| {
                    let trace = span(tracer, id, "trace.user_trace", |_| sys.user_trace(user));
                    span(tracer, id, VARIANTS[variant].2, |_| {
                        session.run_traced(sys.server(), &trace, TraceCtx::for_user(user as i64))
                    })
                }),
            };
            if let Some(times) = times {
                let dt = t0.elapsed().as_secs_f64();
                let mut times = times.lock().expect("timing lock poisoned");
                times.sessions.push(dt);
                times.round[u as usize] += dt;
            }
            report
        })
    })
}

/// What a sequence of rounds did.
struct Rounds {
    sessions: u64,
    wall_s: f64,
    /// User sessions per second of each round.
    round_rates: Vec<f64>,
    /// Merged report of round 0, `[video][variant]`.
    first: Vec<Vec<PlaybackReport>>,
}

/// Plays rounds (every video × variant, [`BATCH`] fresh users each)
/// until `until` says stop; round 0 always runs.
fn rounds(
    content: &Content,
    base: u64,
    runner: &FleetRunner,
    tracer: Option<&Tracer>,
    parent: u64,
    times: Option<&Mutex<Timing>>,
    mut until: impl FnMut(u64) -> bool,
) -> Rounds {
    let t0 = Instant::now();
    let mut out = Rounds { sessions: 0, wall_s: 0.0, round_rates: Vec::new(), first: Vec::new() };
    let mut round = 0;
    loop {
        let round_start = (Instant::now(), out.sessions);
        for (sys, sessions) in content.systems.iter().zip(&content.sessions) {
            let mut firsts = Vec::new();
            for (k, session) in sessions.iter().enumerate() {
                let first = base + round * BATCH;
                let merged = play(sys, session, k, first, BATCH, runner, tracer, parent, times);
                out.sessions += BATCH;
                if round == 0 {
                    firsts.push(merged);
                }
            }
            if round == 0 {
                out.first.push(firsts);
            }
        }
        let (start, before) = round_start;
        out.round_rates.push((out.sessions - before) as f64 / start.elapsed().as_secs_f64());
        if let Some(times) = times {
            let mut times = times.lock().expect("timing lock poisoned");
            let done = std::mem::replace(&mut times.round, vec![0.0; BATCH as usize]);
            times.users.extend(done);
        }
        round += 1;
        if until(round) {
            break;
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// Output checks on round 0: the expected frame count, and each merged
/// report bit-identical to a one-worker replay of the same users.
fn check_round0(content: &Content, base: u64, first: &[Vec<PlaybackReport>], out: &mut Outcome) {
    let frames = (CONTENT_S * evr_sas::ingest::FPS) as u64 * BATCH;
    let serial = FleetRunner::new(1);
    for (v, (sys, sessions)) in content.systems.iter().zip(&content.sessions).enumerate() {
        for (k, session) in sessions.iter().enumerate() {
            let got = &first[v][k];
            let tag = VARIANTS[k].1;
            out.check(got.frames_total == frames, || {
                format!("{:?}/{tag}: {} frames, expected {frames}", sys.video(), got.frames_total)
            });
            let reference = serial.run_merged(BATCH, |u| sys.run_with(session, base + u));
            out.check(digest::report(got) == digest::report(&reference), || {
                format!("{:?}/{tag}: {}-worker report differs from 1 worker", sys.video(), nproc())
            });
        }
    }
}

/// The deterministic model outputs of round 0 (identical for a seed).
struct Sim {
    energy_saving_sh: f64,
    wire_mb_per_user_min: f64,
    fov_miss_rate: f64,
    fov_hit_rate: f64,
}

fn sim(first: &[Vec<PlaybackReport>]) -> Sim {
    let (base_k, sh_k) = (0, 3);
    let total = |k: usize| first.iter().map(|v| v[k].ledger.total()).sum::<f64>();
    let sh = |f: fn(&PlaybackReport) -> u64| first.iter().map(|v| f(&v[sh_k])).sum::<u64>();
    let (hits, misses) = (sh(|r| r.fov_hits), sh(|r| r.fov_misses));
    let users = BATCH as f64 * first.len() as f64;
    Sim {
        energy_saving_sh: 1.0 - total(sh_k) / total(base_k),
        wire_mb_per_user_min: sh(|r| r.bytes_received) as f64 / 1e6 / (users * CONTENT_S / 60.0),
        fov_miss_rate: misses as f64 / (hits + misses) as f64,
        fov_hit_rate: hits as f64 / (hits + misses) as f64,
    }
}

fn print_sim(s: &Sim) {
    for (name, v, unit) in [
        ("fleet.sim_energy_saving_sh", s.energy_saving_sh, "fraction"),
        ("fleet.sim_wire_mb_per_user_min", s.wire_mb_per_user_min, "MB/user-min"),
        ("fleet.sim_fov_miss_rate", s.fov_miss_rate, "fraction"),
    ] {
        println!("{name} = {v} {unit} (bits {:016x}, n={} users)", v.to_bits(), BATCH * 2);
    }
}

/// Runs `fleet_mix`.
pub fn run(args: &Args, tracer: Option<&Tracer>, out: &mut Outcome) {
    let mut times = SetupTimes::default();
    let mut content = None;
    for _ in 0..SETUPS {
        drop(content.take()); // free the previous set-up before building again
        content = Some(build(&VIDEOS, &mut times));
    }
    let content = content.expect("at least one set-up");
    crate::print_rss("set-up");
    let base = user_base(args.seed);
    println!("fleet_mix: users from {base}, {BATCH} per FleetRunner call, {} workers", nproc());

    let Some(tr) = tracer else {
        // Sized up front, so no reallocation happens under the lock.
        let samples = Mutex::new(Timing {
            sessions: Vec::with_capacity(100_000 * args.seconds.as_secs() as usize),
            users: Vec::new(),
            round: vec![0.0; BATCH as usize],
        });
        let deadline = Instant::now() + args.seconds;
        let runner = FleetRunner::new(0);
        let r = rounds(&content, base, &runner, None, 0, Some(&samples), |_| {
            Instant::now() >= deadline
        });
        out.attempted += r.sessions;
        check_round0(&content, base, &r.first, out);
        print_sim(&sim(&r.first));
        let setup = Samples::new(times.setup_s).expect("set-up ran");
        println!("setup_s: {}", setup.describe());
        out.metric("setup_s", setup.median(), "s");
        // The median round is robust to a neighbour stealing the CPU
        // for part of the run.
        let rates = Samples::new(r.round_rates).expect("a round ran");
        println!(
            "fleet.users_per_s = {} user sessions/s, median of rounds (n={} sessions in {:.3} s; per round {})",
            rates.median(),
            r.sessions,
            r.wall_s,
            rates.describe()
        );
        out.metric("throughput_per_s", rates.median(), "1/s");
        let timing = samples.into_inner().expect("timing lock poisoned");
        let ms = |v: &[f64]| Samples::new(v.iter().map(|s| s * 1e3).collect());
        let sessions = ms(&timing.sessions).expect("sessions ran");
        println!("fleet.session_ms: {}", sessions.describe());
        println!("fleet.session_p50_ms = {} ms (n={})", sessions.median(), sessions.len());
        match sessions.percentile(99.0) {
            Ok(v) => println!("fleet.session_p99_ms = {v} ms (n={})", sessions.len()),
            Err(e) => println!("fleet.session_p99_ms not reported: {e}"),
        }
        // The gated latency is per user (all ten sessions): the session
        // times mix ten video × variant costs, and their median sits in
        // the gap between the cheap and the dear half.
        let users = ms(&timing.users).expect("users ran");
        println!("fleet.user_ms (one user through every video and variant): {}", users.describe());
        out.metric("op_p50_ms", users.median(), "ms");
        return;
    };

    let mut rep = LayerReport::default();
    times.report(&mut rep);
    layers(&content, base, tr, &mut rep, out);
    crate::ingest::census(&VIDEOS, tr, &mut rep, out);
    let sys = &content.systems[0];
    crate::serve::census(sys, tr, &mut rep, out);
    rep.emit(out);
}

/// Traced per-layer measurements of the client side on `content`:
/// untraced rounds at `nproc` and at one worker (fleet speed-up), then
/// the same rounds traced, with the observer's timeline attached.
pub fn layers(content: &Content, base: u64, tr: &Tracer, rep: &mut LayerReport, out: &mut Outcome) {
    let wide = FleetRunner::new(0);
    let until = |round: u64| round >= TRACED_ROUNDS;
    let untraced = rounds(content, base, &wide, None, 0, None, until);
    let serial = rounds(content, base, &FleetRunner::new(1), None, 0, None, until);
    rep.fill("sched.fleet_speedup", serial.wall_s / untraced.wall_s);
    let s = sim(&untraced.first);
    rep.fill("client.fov_hit_rate.sh", s.fov_hit_rate);

    // Traced rounds: systems and sessions observed, same users.
    let obs = tr.observer();
    let mut traced_content = Content { systems: Vec::new(), sessions: Vec::new() };
    for sys in &content.systems {
        let mut sys = sys.with_utilization(sys.sas_config().object_utilization);
        sys.instrument(obs);
        traced_content.sessions.push(
            VARIANTS
                .iter()
                .map(|(v, _, _)| sys.session_for(UseCase::OnlineStreaming, *v))
                .collect(),
        );
        traced_content.systems.push(sys);
    }
    let observed = FleetRunner::new(0).with_observer(obs);
    let (_, dropped_before) = tr.timeline_events();
    let store0 = FovPrerenderStore::shared().stats();
    let (traced, root) = span(Some(tr), 0, "fleet.traced", |root| {
        (rounds(&traced_content, base, &observed, Some(tr), root, None, until), root)
    });
    let shared = FovPrerenderStore::shared();
    rep.store(&[(store0, shared.stats())], shared.delta_entries());
    let (events, dropped) = tr.timeline_events();
    out.check(dropped == dropped_before, || {
        format!("timeline dropped {} intervals", dropped - dropped_before)
    });
    for (v, firsts) in traced.first.iter().enumerate() {
        for (k, r) in firsts.iter().enumerate() {
            out.check(digest::report(r) == digest::report(&untraced.first[v][k]), || {
                format!("traced {} report differs from untraced", VARIANTS[k].1)
            });
        }
    }
    out.attempted += untraced.sessions + serial.sessions + traced.sessions;
    rep.fill(
        "obs.tracing_overhead",
        1.0 - (traced.sessions as f64 / traced.wall_s)
            / (untraced.sessions as f64 / untraced.wall_s),
    );

    let at = attribute(&tr.spans(), &events, root, &[names::TIMELINE_USER]);
    rep.account("fleet", &at, "fleet.traced", out);
    for stage in ["plan", "fetch", "render", "account"] {
        rep.fill(&format!("client.stage_self_s.{stage}"), at.get(stage));
    }
    rep.fill("trace.user_trace_ms", tr.mean_ms("trace.user_trace"));
    for (_, tag, span_name) in VARIANTS {
        rep.fill(&format!("client.session_ms.{tag}"), tr.mean_ms(span_name));
    }

    // Lane idle: busy seconds against wall × lanes, from the runner's
    // own per-lane gauges.
    let wall = obs.gauge(names::FLEET_WALL_SECONDS).get();
    let workers = observed.workers();
    let busy: f64 =
        (0..workers as u32).map(|w| obs.gauge(&names::fleet_worker_busy_seconds(w)).get()).sum();
    rep.fill("sched.fleet_lane_idle_fraction", 1.0 - busy / (wall * workers as f64));

    let pte_frames = obs.counter(names::PTE_FRAMES).get().max(1) as f64;
    let hits = obs.counter(names::PTE_PMEM_HITS).get() as f64;
    let misses = obs.counter(names::PTE_PMEM_MISSES).get() as f64;
    rep.fill("pte.active_cycles", obs.counter(names::PTE_ACTIVE_CYCLES).get() as f64 / pte_frames);
    rep.fill("pte.stall_cycles", obs.counter(names::PTE_STALL_CYCLES).get() as f64 / pte_frames);
    rep.fill("pte.pmem_hit_rate", hits / (hits + misses).max(1.0));
    // DRAM traffic is not among the playback counters: analyse the
    // representative frame the sessions charge, as session set-up does.
    let pte_cfg = content.sessions[0][2].config();
    let (sw, sh) = pte_cfg.sas.target_src;
    let frame = span(Some(tr), 0, "pte.analyze_frame", |_| {
        Pte::new(pte_cfg.pte).analyze_frame_strided(sw, sh, EulerAngles::default(), 4)
    });
    rep.fill("pte.dram_read_mb", frame.dram_read_bytes as f64 / 1e6);

    // Tile rate allocation, on the poses and catalog a `T+H` session
    // would use.
    let sys = &content.systems[0];
    let tiles = sys.tiled_rates();
    let grid = tiles.grid();
    let weights = grid.tile_weights();
    let cfg = content.sessions[0][4].config();
    let seg_s = f64::from(sys.sas_config().segment_frames) / evr_sas::ingest::FPS;
    let budget = (cfg.network.bandwidth_bps * seg_s / 8.0 * 0.9) as u64;
    let calls = span(Some(tr), 0, "client.tile_alloc_probe", |id| {
        let mut calls = 0u32;
        for user in base..base + 64 {
            let trace = sys.user_trace(user);
            for seg in 0..tiles.segment_count() {
                let pose = trace.pose_at(f64::from(seg) * seg_s);
                let classes = grid.classify_tiles(
                    pose,
                    sys.sas_config().device_fov,
                    evr_sas::PERIPHERY_MARGIN,
                );
                let bytes = tiles.tile_rung_bytes(seg);
                let alloc = span(Some(tr), id, "client.allocate_tile_rungs", |_| {
                    evr_client::abr::allocate_tile_rungs(&bytes, &weights, &classes, budget)
                });
                out.check(alloc.rungs.len() == grid.len(), || "tile allocation size".into());
                calls += 1;
            }
        }
        calls
    });
    out.attempted += u64::from(calls);
    rep.fill("client.tile_alloc_us", tr.mean_ms("client.allocate_tile_rungs") * 1e3);
}
