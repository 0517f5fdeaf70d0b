//! The object-tracking behaviour model that generates user traces.
//!
//! Paper §5.1 establishes two facts about real VR viewers that the model
//! reproduces by construction:
//!
//! 1. attention centres on visual objects — so the model's dominant state
//!    is *smooth pursuit* of a scene object;
//! 2. users keep tracking the same object for seconds at a time — so dwell
//!    times are drawn from a heavy-tailed (log-normal) distribution whose
//!    parameters are calibrated against the Fig. 6 CDF.
//!
//! Users also "randomly orient the head to explore the scene" (§4), which
//! is what produces FOV misses; the per-video `explore_rate` is the knob
//! that reproduces the paper's per-video miss rates (5.3%–12.0%, §8.2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use evr_math::{sphere::step_towards, EulerAngles, Radians, SphericalCoord, Vec3};
use evr_video::library::VideoId;
use evr_video::scene::Scene;

use crate::sample::{HeadTrace, PoseSample};
use crate::tracks::{ObjectTracks, TrackPoint};

/// Calibration parameters of the behaviour model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BehaviorParams {
    /// Probability per second of breaking off into free exploration.
    pub explore_rate: f64,
    /// Exploration episode length bounds, seconds.
    pub explore_duration: (f64, f64),
    /// Log-normal dwell-time parameters (μ, σ) of tracking episodes, in
    /// log-seconds. Calibrated against Fig. 6.
    pub dwell_log_mu: f64,
    /// See [`BehaviorParams::dwell_log_mu`].
    pub dwell_log_sigma: f64,
    /// Smooth-pursuit angular speed, rad/s.
    pub pursuit_speed: f64,
    /// Saccade angular speed, rad/s.
    pub saccade_speed: f64,
    /// Gaze jitter amplitude, radians.
    pub jitter: f64,
    /// Probability that the next tracked object is the nearest one (object
    /// groups keep users within a cluster, §5.3).
    pub nearby_switch_bias: f64,
}

impl Default for BehaviorParams {
    fn default() -> Self {
        BehaviorParams {
            explore_rate: 0.040,
            explore_duration: (1.0, 3.0),
            dwell_log_mu: 1.2,
            dwell_log_sigma: 0.8,
            pursuit_speed: 0.6,
            saccade_speed: 3.0,
            jitter: 0.015,
            nearby_switch_bias: 0.75,
        }
    }
}

/// Per-video calibration (paper §8.2: FOV-miss rates range from 5.3% for
/// Timelapse to 12.0% for RS; exploration is the miss mechanism).
pub fn params_for(video: VideoId) -> BehaviorParams {
    let base = BehaviorParams::default();
    match video {
        VideoId::Elephant => BehaviorParams { explore_rate: 0.035, ..base },
        VideoId::Paris => BehaviorParams { explore_rate: 0.045, dwell_log_mu: 1.05, ..base },
        VideoId::Rs => {
            BehaviorParams { explore_rate: 0.045, dwell_log_mu: 1.3, pursuit_speed: 1.1, ..base }
        }
        VideoId::Nyc => BehaviorParams { explore_rate: 0.042, ..base },
        VideoId::Rhino => BehaviorParams { explore_rate: 0.028, dwell_log_mu: 1.3, ..base },
        VideoId::Timelapse => BehaviorParams { explore_rate: 0.024, dwell_log_mu: 1.35, ..base },
    }
}

#[derive(Debug, Clone, Copy)]
enum GazeState {
    /// Smoothly pursuing object `target` until `until`.
    Tracking { target: usize, until: f64 },
    /// Saccading towards object `target`; tracking starts on arrival.
    Acquiring { target: usize },
    /// Free exploration towards `dir` until `until`.
    Exploring { dir: Vec3, until: f64 },
}

/// Generates one user's head trace for `scene`.
///
/// `user_seed` individualises the user (the study uses seeds `0..59`);
/// `duration` is capped to the scene duration; `sample_rate` is in Hz.
/// Builds the [`ObjectTracks`] table for this one trace; callers
/// generating many users of one scene build it once and call
/// [`generate_from_tracks`] per user.
///
/// # Panics
///
/// Panics if the scene has no objects, `duration <= 0` or
/// `sample_rate <= 0`.
pub fn generate_user_trace(
    scene: &Scene,
    params: &BehaviorParams,
    user_seed: u64,
    duration: f64,
    sample_rate: f64,
) -> HeadTrace {
    generate_from_tracks(&ObjectTracks::new(scene, duration, sample_rate), params, user_seed)
}

/// Generates one user's head trace over a precomputed object-track
/// table — bit-identical to [`generate_user_trace`] over the table's
/// scene, duration and sample rate.
pub fn generate_from_tracks(
    tracks: &ObjectTracks,
    params: &BehaviorParams,
    user_seed: u64,
) -> HeadTrace {
    let dt = tracks.dt();
    let mut rng = SmallRng::seed_from_u64(user_seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));

    // Users start looking at some object.
    let first = rng.gen_range(0..tracks.objects());
    let mut gaze = tracks.at(0)[first].dir;
    let mut state = GazeState::Tracking { target: first, until: dwell(&mut rng, params) };
    let mut jitter_phase = rng.gen_range(0.0..std::f64::consts::TAU);

    let mut samples = Vec::with_capacity(tracks.steps() + 1);
    for step in 0..=tracks.steps() {
        let t = step as f64 * dt;
        let objects = tracks.at(step);
        state = advance_state(objects, params, &mut rng, state, gaze, t);
        let target_dir = match state {
            GazeState::Tracking { target, .. } | GazeState::Acquiring { target } => {
                jittered(&objects[target], params.jitter, jitter_phase, t)
            }
            GazeState::Exploring { dir, .. } => dir,
        };
        let speed = match state {
            GazeState::Tracking { .. } => params.pursuit_speed,
            _ => params.saccade_speed,
        };
        gaze = step_towards(gaze, target_dir, Radians(speed * dt));
        jitter_phase += dt * 1.3;
        samples.push(PoseSample { t, pose: gaze_to_pose(gaze) });
    }
    HeadTrace::from_samples(samples)
}

/// One state-machine step at time `t`; `objects` are the scene's
/// objects at `t`.
fn advance_state(
    objects: &[TrackPoint],
    params: &BehaviorParams,
    rng: &mut SmallRng,
    state: GazeState,
    gaze: Vec3,
    t: f64,
) -> GazeState {
    match state {
        GazeState::Tracking { target, until } => {
            // Spontaneous exploration (Poisson with rate explore_rate).
            let dt_prob = params.explore_rate / 30.0;
            if rng.gen_bool(dt_prob.clamp(0.0, 1.0)) {
                return GazeState::Exploring {
                    dir: random_explore_dir(rng),
                    until: t + rng.gen_range(params.explore_duration.0..params.explore_duration.1),
                };
            }
            if t >= until {
                let next = pick_next_object(objects, params, rng, target);
                return GazeState::Acquiring { target: next };
            }
            GazeState::Tracking { target, until }
        }
        GazeState::Acquiring { target } => {
            let obj = objects[target].dir;
            if gaze.dot(obj).clamp(-1.0, 1.0).acos() < 0.05 {
                GazeState::Tracking { target, until: t + dwell(rng, params) }
            } else {
                GazeState::Acquiring { target }
            }
        }
        GazeState::Exploring { dir, until } => {
            if t >= until {
                // Return to the object nearest the current gaze.
                let target = nearest_object(objects, dir);
                GazeState::Acquiring { target }
            } else {
                GazeState::Exploring { dir, until }
            }
        }
    }
}

fn dwell(rng: &mut SmallRng, params: &BehaviorParams) -> f64 {
    // Log-normal via Box–Muller.
    let u1: f64 = rng.gen_range(1e-9..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
    (params.dwell_log_mu + params.dwell_log_sigma * z).exp().clamp(0.4, 45.0)
}

fn pick_next_object(
    objects: &[TrackPoint],
    params: &BehaviorParams,
    rng: &mut SmallRng,
    current: usize,
) -> usize {
    let n = objects.len();
    if n == 1 {
        return 0;
    }
    if rng.gen_bool(params.nearby_switch_bias) {
        // Nearest other object to the current one (stay within the group).
        let here = objects[current].dir;
        let mut best = current;
        let mut best_d = f64::INFINITY;
        for (i, obj) in objects.iter().enumerate() {
            if i == current {
                continue;
            }
            let d = here.dot(obj.dir).clamp(-1.0, 1.0).acos();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    } else {
        // Jump to a uniformly random other object.
        let mut pick = rng.gen_range(0..n - 1);
        if pick >= current {
            pick += 1;
        }
        pick
    }
}

fn nearest_object(objects: &[TrackPoint], dir: Vec3) -> usize {
    objects
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let da = dir.dot(a.dir);
            let db = dir.dot(b.dir);
            db.partial_cmp(&da).expect("dot products are finite")
        })
        .map(|(i, _)| i)
        .expect("scene has objects")
}

fn random_explore_dir(rng: &mut SmallRng) -> Vec3 {
    // Exploration favours the horizon band, like real viewers.
    let lon = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
    let lat = rng.gen_range(-0.6f64..0.6);
    SphericalCoord::new(Radians(lon), Radians(lat)).to_unit_vector()
}

fn jittered(obj: &TrackPoint, amp: f64, phase: f64, t: f64) -> Vec3 {
    if amp == 0.0 {
        return obj.dir;
    }
    let s = obj.coord;
    SphericalCoord::new(
        Radians(s.lon.0 + amp * (phase + 2.1 * t).sin()),
        Radians(s.lat.0 + 0.6 * amp * (phase * 1.7 + 1.4 * t).cos()),
    )
    .to_unit_vector()
}

fn gaze_to_pose(gaze: Vec3) -> EulerAngles {
    let s = SphericalCoord::from_vector(gaze).expect("gaze is unit");
    EulerAngles::new(s.lon, s.lat, Radians(0.0)).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_video::library::scene_for;
    use proptest::prelude::*;

    #[test]
    fn trace_has_expected_length_and_monotone_time() {
        let scene = scene_for(VideoId::Elephant);
        let tr = generate_user_trace(&scene, &params_for(VideoId::Elephant), 0, 5.0, 30.0);
        assert_eq!(tr.len(), 151);
        assert!(tr.samples().windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let scene = scene_for(VideoId::Rhino);
        let p = params_for(VideoId::Rhino);
        let a = generate_user_trace(&scene, &p, 3, 5.0, 30.0);
        let b = generate_user_trace(&scene, &p, 3, 5.0, 30.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let scene = scene_for(VideoId::Rhino);
        let p = params_for(VideoId::Rhino);
        let a = generate_user_trace(&scene, &p, 1, 5.0, 30.0);
        let b = generate_user_trace(&scene, &p, 2, 5.0, 30.0);
        assert_ne!(a, b);
    }

    #[test]
    fn head_velocity_is_humanly_plausible() {
        let scene = scene_for(VideoId::Paris);
        let tr = generate_user_trace(&scene, &params_for(VideoId::Paris), 11, 20.0, 30.0);
        let v = tr.mean_angular_velocity().to_degrees();
        // Real head-movement traces average well below continuous 180°/s.
        assert!(v < 120.0, "mean angular velocity {v}°/s");
    }

    #[test]
    fn pitch_stays_physical() {
        let scene = scene_for(VideoId::Nyc);
        let tr = generate_user_trace(&scene, &params_for(VideoId::Nyc), 21, 20.0, 30.0);
        for s in tr.samples() {
            assert!(s.pose.pitch.to_degrees().0.abs() <= 90.0);
        }
    }

    #[test]
    fn duration_caps_to_scene() {
        let scene = scene_for(VideoId::Timelapse);
        let tr = generate_user_trace(&scene, &params_for(VideoId::Timelapse), 2, 1e6, 10.0);
        assert!(tr.duration() <= scene.duration() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn empty_scene_panics() {
        let scene = evr_video::scene::Scene::new(
            "empty",
            evr_video::scene::Background { detail: 1.0, motion: 0.0, seed: 0 },
            vec![],
            10.0,
        );
        let _ = generate_user_trace(&scene, &BehaviorParams::default(), 0, 5.0, 30.0);
    }

    /// The per-sample generator the track table replaced, kept as the
    /// reference the table-driven generator is tested against: it
    /// evaluates each object position (and the jitter's spherical form)
    /// at the moment the state machine asks for it.
    mod oracle {
        use super::super::*;

        pub fn generate_user_trace(
            scene: &Scene,
            params: &BehaviorParams,
            user_seed: u64,
            duration: f64,
            sample_rate: f64,
        ) -> HeadTrace {
            let duration = duration.min(scene.duration());
            let dt = 1.0 / sample_rate;
            let steps = (duration * sample_rate).round() as usize;
            let mut rng =
                SmallRng::seed_from_u64(user_seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            let first = rng.gen_range(0..scene.objects().len());
            let mut gaze = scene.objects()[first].position(0.0);
            let mut state = GazeState::Tracking { target: first, until: dwell(&mut rng, params) };
            let mut jitter_phase = rng.gen_range(0.0..std::f64::consts::TAU);
            let mut samples = Vec::with_capacity(steps + 1);
            for step in 0..=steps {
                let t = step as f64 * dt;
                state = advance_state(scene, params, &mut rng, state, gaze, t);
                let target_dir = match state {
                    GazeState::Tracking { target, .. } | GazeState::Acquiring { target } => {
                        jittered(
                            scene.objects()[target].position(t),
                            params.jitter,
                            jitter_phase,
                            t,
                        )
                    }
                    GazeState::Exploring { dir, .. } => dir,
                };
                let speed = match state {
                    GazeState::Tracking { .. } => params.pursuit_speed,
                    _ => params.saccade_speed,
                };
                gaze = step_towards(gaze, target_dir, Radians(speed * dt));
                jitter_phase += dt * 1.3;
                samples.push(PoseSample { t, pose: gaze_to_pose(gaze) });
            }
            HeadTrace::from_samples(samples)
        }

        fn advance_state(
            scene: &Scene,
            params: &BehaviorParams,
            rng: &mut SmallRng,
            state: GazeState,
            gaze: Vec3,
            t: f64,
        ) -> GazeState {
            match state {
                GazeState::Tracking { target, until } => {
                    let dt_prob = params.explore_rate / 30.0;
                    if rng.gen_bool(dt_prob.clamp(0.0, 1.0)) {
                        return GazeState::Exploring {
                            dir: random_explore_dir(rng),
                            until: t + rng
                                .gen_range(params.explore_duration.0..params.explore_duration.1),
                        };
                    }
                    if t >= until {
                        let next = pick_next_object(scene, params, rng, target, t);
                        return GazeState::Acquiring { target: next };
                    }
                    GazeState::Tracking { target, until }
                }
                GazeState::Acquiring { target } => {
                    let obj = scene.objects()[target].position(t);
                    if gaze.dot(obj).clamp(-1.0, 1.0).acos() < 0.05 {
                        GazeState::Tracking { target, until: t + dwell(rng, params) }
                    } else {
                        GazeState::Acquiring { target }
                    }
                }
                GazeState::Exploring { dir, until } => {
                    if t >= until {
                        GazeState::Acquiring { target: nearest_object(scene, dir, t) }
                    } else {
                        GazeState::Exploring { dir, until }
                    }
                }
            }
        }

        fn pick_next_object(
            scene: &Scene,
            params: &BehaviorParams,
            rng: &mut SmallRng,
            current: usize,
            t: f64,
        ) -> usize {
            let n = scene.objects().len();
            if n == 1 {
                return 0;
            }
            if rng.gen_bool(params.nearby_switch_bias) {
                let here = scene.objects()[current].position(t);
                let mut best = current;
                let mut best_d = f64::INFINITY;
                for (i, obj) in scene.objects().iter().enumerate() {
                    if i == current {
                        continue;
                    }
                    let d = here.dot(obj.position(t)).clamp(-1.0, 1.0).acos();
                    if d < best_d {
                        best_d = d;
                        best = i;
                    }
                }
                best
            } else {
                let mut pick = rng.gen_range(0..n - 1);
                if pick >= current {
                    pick += 1;
                }
                pick
            }
        }

        fn nearest_object(scene: &Scene, dir: Vec3, t: f64) -> usize {
            scene
                .objects()
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da = dir.dot(a.position(t));
                    let db = dir.dot(b.position(t));
                    db.partial_cmp(&da).expect("dot products are finite")
                })
                .map(|(i, _)| i)
                .expect("scene has objects")
        }

        fn jittered(dir: Vec3, amp: f64, phase: f64, t: f64) -> Vec3 {
            if amp == 0.0 {
                return dir;
            }
            let s = SphericalCoord::from_vector(dir).expect("object directions are unit");
            SphericalCoord::new(
                Radians(s.lon.0 + amp * (phase + 2.1 * t).sin()),
                Radians(s.lat.0 + 0.6 * amp * (phase * 1.7 + 1.4 * t).cos()),
            )
            .to_unit_vector()
        }
    }

    /// Bitwise trace equality: `HeadTrace`'s `==` compares floats with
    /// `==`, which would let `-0.0` stand in for `0.0`.
    fn bits(trace: &HeadTrace) -> Vec<[u64; 4]> {
        trace
            .samples()
            .iter()
            .map(|s| {
                [
                    s.t.to_bits(),
                    s.pose.yaw.0.to_bits(),
                    s.pose.pitch.0.to_bits(),
                    s.pose.roll.0.to_bits(),
                ]
            })
            .collect()
    }

    fn assert_matches_oracle(video: VideoId, seed: u64, duration: f64, rate: f64) {
        let scene = scene_for(video);
        let p = params_for(video);
        let fast = generate_user_trace(&scene, &p, seed, duration, rate);
        let slow = oracle::generate_user_trace(&scene, &p, seed, duration, rate);
        assert_eq!(fast, slow, "{video:?} seed {seed} {duration}s @ {rate}Hz");
        assert_eq!(bits(&fast), bits(&slow), "{video:?} seed {seed} {duration}s @ {rate}Hz");
    }

    #[test]
    fn tracks_match_oracle_on_every_library_video() {
        for video in VideoId::ALL {
            for seed in [0, 1, 58, 7 ^ ((video as u64) << 32)] {
                assert_matches_oracle(video, seed, 20.0, 30.0);
            }
        }
    }

    #[test]
    fn tracks_match_oracle_across_sample_rates() {
        for rate in [10.0, 30.0, 90.0] {
            for video in [VideoId::Rhino, VideoId::Rs, VideoId::Paris] {
                assert_matches_oracle(video, 11, 12.0, rate);
            }
        }
    }

    #[test]
    fn tracks_match_oracle_for_capped_and_fractional_durations() {
        // Capped by the scene, and durations whose sample count rounds.
        assert_matches_oracle(VideoId::Timelapse, 4, 1e6, 10.0);
        assert_matches_oracle(VideoId::Nyc, 9, 2.517, 30.0);
        assert_matches_oracle(VideoId::Elephant, 3, 0.01, 90.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_tracks_match_oracle(
            video in 0usize..6,
            seed in any::<u64>(),
            duration in 0.05f64..75.0,
            rate in 0usize..3,
        ) {
            let rate = [10.0, 30.0, 90.0][rate];
            let video = VideoId::ALL[video];
            let scene = scene_for(video);
            let p = params_for(video);
            let fast = generate_user_trace(&scene, &p, seed, duration, rate);
            let slow = oracle::generate_user_trace(&scene, &p, seed, duration, rate);
            prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }

    #[test]
    fn gaze_spends_most_time_near_objects() {
        // The core §5.1 property, checked directly on the generator.
        let scene = scene_for(VideoId::Rhino);
        let tr = generate_user_trace(&scene, &params_for(VideoId::Rhino), 17, 30.0, 30.0);
        let mut near = 0usize;
        for s in tr.samples() {
            let gaze = s.pose.view_direction();
            let close = scene
                .object_positions(s.t)
                .iter()
                .any(|(_, p)| gaze.dot(*p).clamp(-1.0, 1.0).acos() < 0.45);
            near += close as usize;
        }
        let frac = near as f64 / tr.len() as f64;
        assert!(frac > 0.7, "only {frac:.2} of samples near objects");
    }
}
