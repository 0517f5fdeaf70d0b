//! Trace containers and IMU-style pose interpolation.

use serde::{Deserialize, Serialize};

use evr_math::{EulerAngles, Quat};

/// One timestamped head pose, as an IMU would report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoseSample {
    /// Seconds since the start of playback.
    pub t: f64,
    /// Head orientation.
    pub pose: EulerAngles,
}

/// A time-ordered sequence of head poses for one user and one video.
///
/// # Example
///
/// ```
/// use evr_trace::sample::{HeadTrace, PoseSample};
/// use evr_math::EulerAngles;
///
/// let trace = HeadTrace::from_samples(vec![
///     PoseSample { t: 0.0, pose: EulerAngles::from_degrees(0.0, 0.0, 0.0) },
///     PoseSample { t: 1.0, pose: EulerAngles::from_degrees(90.0, 0.0, 0.0) },
/// ]);
/// // Slerp midway: 45° yaw.
/// let mid = trace.pose_at(0.5);
/// assert!((mid.yaw.to_degrees().0 - 45.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadTrace {
    samples: Vec<PoseSample>,
}

impl HeadTrace {
    /// Builds a trace from samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or timestamps are not strictly
    /// increasing.
    pub fn from_samples(samples: Vec<PoseSample>) -> Self {
        assert!(!samples.is_empty(), "trace must contain at least one sample");
        assert!(
            samples.windows(2).all(|w| w[0].t < w[1].t),
            "trace timestamps must be strictly increasing"
        );
        HeadTrace { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty (never true for a constructed trace).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration from first to last sample, seconds.
    pub fn duration(&self) -> f64 {
        self.samples.last().unwrap().t - self.samples[0].t
    }

    /// The raw samples.
    pub fn samples(&self) -> &[PoseSample] {
        &self.samples
    }

    /// The pose at time `t`, slerping between samples and clamping to the
    /// trace ends — the replay path that emulates IMU readings (§8.1).
    /// A NaN `t` reads as the start of the trace: the first sample's
    /// pose, like any time before it.
    #[inline]
    pub fn pose_at(&self, t: f64) -> EulerAngles {
        let s = &self.samples;
        if t.is_nan() || t <= s[0].t {
            return s[0].pose;
        }
        if t >= s[s.len() - 1].t {
            return s[s.len() - 1].pose;
        }
        let idx = s.partition_point(|p| p.t <= t).min(s.len() - 1);
        let a = &s[idx - 1];
        let b = &s[idx];
        let f = (t - a.t) / (b.t - a.t);
        let q = Quat::from_euler(a.pose).slerp(Quat::from_euler(b.pose), f);
        q.to_euler()
    }

    /// A [`PoseCursor`] over this trace, for replaying it at
    /// non-decreasing times.
    pub fn cursor(&self) -> PoseCursor<'_> {
        PoseCursor { samples: &self.samples, hi: 0, qa: Quat::IDENTITY, qb: Quat::IDENTITY }
    }

    /// Mean absolute angular velocity (rad/s) between successive samples —
    /// a sanity statistic for behaviour-model calibration.
    pub fn mean_angular_velocity(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for w in self.samples.windows(2) {
            let angle = w[0].pose.view_angle_to(w[1].pose).0;
            total += angle / (w[1].t - w[0].t);
        }
        total / (self.samples.len() - 1) as f64
    }
}

/// A reader of [`HeadTrace::pose_at`] for queries at non-decreasing
/// times, as a frame loop makes them.
///
/// It keeps the bracketing sample pair and their quaternions between
/// queries: a query inside the same pair reuses both, a step to the next
/// pair converts one new sample, and only a backwards query searches
/// again. Every answer is bit-identical to [`HeadTrace::pose_at`] at the
/// same `t` (including its clamping and NaN handling), whatever order
/// the queries come in.
///
/// # Example
///
/// ```
/// use evr_trace::sample::{HeadTrace, PoseSample};
/// use evr_math::EulerAngles;
///
/// let trace = HeadTrace::from_samples(
///     (0..=4)
///         .map(|i| PoseSample {
///             t: i as f64 * 0.25,
///             pose: EulerAngles::from_degrees(i as f64 * 10.0, 0.0, 0.0),
///         })
///         .collect(),
/// );
/// let mut cursor = trace.cursor();
/// for k in 0..=20 {
///     let t = k as f64 * 0.05;
///     assert_eq!(cursor.pose_at(t), trace.pose_at(t));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PoseCursor<'a> {
    samples: &'a [PoseSample],
    /// Index of the cached pair's later sample; 0 while nothing is cached.
    hi: usize,
    /// `Quat::from_euler` of `samples[hi - 1].pose`.
    qa: Quat,
    /// `Quat::from_euler` of `samples[hi].pose`.
    qb: Quat,
}

impl PoseCursor<'_> {
    /// The pose at time `t`, equal to [`HeadTrace::pose_at`]`(t)`.
    #[inline]
    pub fn pose_at(&mut self, t: f64) -> EulerAngles {
        let s = self.samples;
        if t.is_nan() || t <= s[0].t {
            return s[0].pose;
        }
        if t >= s[s.len() - 1].t {
            return s[s.len() - 1].pose;
        }
        // Here `s[0].t < t < s[last].t`, so the pair's later sample —
        // the first with `s.t > t` — lies in `1..=last`.
        if self.hi == 0 || t < s[self.hi - 1].t {
            let hi = s.partition_point(|p| p.t <= t);
            self.load(hi);
        } else if s[self.hi].t <= t {
            let mut hi = self.hi + 1;
            while s[hi].t <= t {
                hi += 1;
            }
            if hi == self.hi + 1 {
                self.qa = self.qb;
                self.qb = Quat::from_euler(s[hi].pose);
                self.hi = hi;
            } else {
                self.load(hi);
            }
        }
        let a = &s[self.hi - 1];
        let b = &s[self.hi];
        let f = (t - a.t) / (b.t - a.t);
        self.qa.slerp(self.qb, f).to_euler()
    }

    fn load(&mut self, hi: usize) {
        self.hi = hi;
        self.qa = Quat::from_euler(self.samples[hi - 1].pose);
        self.qb = Quat::from_euler(self.samples[hi].pose);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_point_trace() -> HeadTrace {
        HeadTrace::from_samples(vec![
            PoseSample { t: 0.0, pose: EulerAngles::from_degrees(0.0, 0.0, 0.0) },
            PoseSample { t: 2.0, pose: EulerAngles::from_degrees(60.0, 20.0, 0.0) },
        ])
    }

    #[test]
    fn clamps_outside_range() {
        let tr = two_point_trace();
        assert_eq!(tr.pose_at(-1.0), tr.samples()[0].pose);
        assert_eq!(tr.pose_at(99.0), tr.samples()[1].pose);
    }

    #[test]
    fn interpolation_hits_samples_exactly() {
        let tr = two_point_trace();
        let p = tr.pose_at(2.0);
        assert!((p.yaw.to_degrees().0 - 60.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_samples_panic() {
        let _ = HeadTrace::from_samples(vec![
            PoseSample { t: 1.0, pose: EulerAngles::default() },
            PoseSample { t: 0.5, pose: EulerAngles::default() },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_panics() {
        let _ = HeadTrace::from_samples(vec![]);
    }

    #[test]
    fn angular_velocity_of_steady_sweep() {
        // 90° of yaw over 1 s at 10 samples.
        let samples: Vec<_> = (0..=10)
            .map(|i| PoseSample {
                t: i as f64 * 0.1,
                pose: EulerAngles::from_degrees(i as f64 * 9.0, 0.0, 0.0),
            })
            .collect();
        let tr = HeadTrace::from_samples(samples);
        let v = tr.mean_angular_velocity().to_degrees();
        assert!((v - 90.0).abs() < 1.0, "v = {v}°/s");
    }

    #[test]
    fn nan_time_reads_as_trace_start() {
        let tr = two_point_trace();
        assert_eq!(tr.pose_at(f64::NAN), tr.samples()[0].pose);
        assert_eq!(tr.cursor().pose_at(f64::NAN), tr.samples()[0].pose);
        assert_eq!(tr.pose_at(f64::NEG_INFINITY), tr.samples()[0].pose);
        assert_eq!(tr.pose_at(f64::INFINITY), tr.samples()[1].pose);
    }

    /// A wavy five-second trace at 30 Hz, with a yaw that crosses the
    /// ±180° seam so slerp takes its short way round.
    fn wavy_trace() -> HeadTrace {
        HeadTrace::from_samples(
            (0..=150)
                .map(|i| {
                    let t = i as f64 / 30.0;
                    PoseSample {
                        t,
                        pose: EulerAngles::from_degrees(
                            150.0 + 70.0 * (1.3 * t).sin(),
                            40.0 * (0.7 * t).cos(),
                            0.0,
                        )
                        .normalized(),
                    }
                })
                .collect(),
        )
    }

    fn assert_cursor_matches(tr: &HeadTrace, times: &[f64]) {
        let mut cursor = tr.cursor();
        for &t in times {
            let (got, want) = (cursor.pose_at(t), tr.pose_at(t));
            let bits =
                |e: EulerAngles| [e.yaw.0.to_bits(), e.pitch.0.to_bits(), e.roll.0.to_bits()];
            assert_eq!(bits(got), bits(want), "t = {t}");
        }
    }

    #[test]
    fn cursor_matches_pose_at_on_frame_loops() {
        let tr = wavy_trace();
        // Monotone frame times, as play-out makes them: segment start
        // plus frame offsets, so they land on or next to the samples.
        let frames: Vec<f64> =
            (0..5).flat_map(|seg| (0..30).map(move |f| seg as f64 + f as f64 / 30.0)).collect();
        assert_cursor_matches(&tr, &frames);
        // Repeated queries, and exactly the sample times.
        let repeated: Vec<f64> = tr.samples().iter().flat_map(|s| [s.t, s.t]).collect();
        assert_cursor_matches(&tr, &repeated);
    }

    #[test]
    fn cursor_matches_pose_at_backwards_and_clamped() {
        let tr = wavy_trace();
        assert_cursor_matches(&tr, &[2.5, 2.51, 0.3, 4.99, 4.98, 1.0, 1.0]);
        assert_cursor_matches(&tr, &[-1.0, 0.0, 0.01, 5.0, 7.0, 0.02, f64::NAN, 3.3, -0.5, 4.0]);
        // Forward jumps across many pairs at once.
        assert_cursor_matches(&tr, &[0.01, 0.7, 0.71, 3.9, 4.99]);
        // A one-sample trace clamps everything.
        let single = HeadTrace::from_samples(vec![PoseSample {
            t: 0.5,
            pose: EulerAngles::from_degrees(10.0, 5.0, 0.0),
        }]);
        assert_cursor_matches(&single, &[0.0, 0.5, 1.0, f64::NAN]);
    }

    proptest! {
        #[test]
        fn prop_cursor_matches_pose_at(
            times in proptest::collection::vec(-0.5f64..5.5, 1..64),
            sorted in any::<bool>(),
        ) {
            let mut times = times;
            if sorted {
                times.sort_by(f64::total_cmp);
            }
            let tr = wavy_trace();
            let mut cursor = tr.cursor();
            for &t in &times {
                let (got, want) = (cursor.pose_at(t), tr.pose_at(t));
                prop_assert_eq!(got.yaw.0.to_bits(), want.yaw.0.to_bits());
                prop_assert_eq!(got.pitch.0.to_bits(), want.pitch.0.to_bits());
                prop_assert_eq!(got.roll.0.to_bits(), want.roll.0.to_bits());
            }
        }

        #[test]
        fn prop_interpolated_yaw_between_endpoints(t in 0.0f64..2.0) {
            let tr = two_point_trace();
            let yaw = tr.pose_at(t).yaw.to_degrees().0;
            prop_assert!((-1e-9..=60.0 + 1e-9).contains(&yaw));
        }
    }
}
