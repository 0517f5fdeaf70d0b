//! Precomputed object tracks: the user-independent half of trace
//! generation.
//!
//! Every user of a study samples the same scene objects at the same
//! instants `step as f64 * dt`, so their directions — and the spherical
//! form the gaze jitter perturbs — are evaluated once per
//! `(scene, duration, sample rate)` here and read back by
//! [`crate::behavior::generate_from_tracks`] for every user. The table
//! holds exactly the values the per-sample evaluation would produce, so
//! traces generated from it are bit-identical.

use evr_math::{SphericalCoord, Vec3};
use evr_video::scene::Scene;

/// One object at one sample time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TrackPoint {
    /// The object's unit direction ([`evr_video::scene::SceneObject::position`]).
    pub(crate) dir: Vec3,
    /// The same direction as longitude/latitude.
    pub(crate) coord: SphericalCoord,
}

/// Every scene object's position at every sample time of one trace grid.
///
/// # Example
///
/// ```
/// use evr_trace::behavior::{generate_from_tracks, generate_user_trace, params_for};
/// use evr_trace::tracks::ObjectTracks;
/// use evr_video::library::{scene_for, VideoId};
///
/// let scene = scene_for(VideoId::Rhino);
/// let params = params_for(VideoId::Rhino);
/// // Built once, shared by every user.
/// let tracks = ObjectTracks::new(&scene, 2.0, 30.0);
/// let a = generate_from_tracks(&tracks, &params, 7);
/// assert_eq!(a.len(), 61);
/// assert_eq!(a, generate_user_trace(&scene, &params, 7, 2.0, 30.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectTracks {
    objects: usize,
    dt: f64,
    steps: usize,
    /// `points[step * objects + i]`: object `i` at `step as f64 * dt`.
    points: Vec<TrackPoint>,
}

impl ObjectTracks {
    /// Evaluates every object of `scene` at the `steps + 1` sample times
    /// of a `duration`-second trace at `sample_rate` Hz, where
    /// `duration` is capped to the scene duration and
    /// `steps = round(duration · sample_rate)`.
    ///
    /// # Panics
    ///
    /// Panics if the scene has no objects, `duration <= 0` or
    /// `sample_rate <= 0`.
    pub fn new(scene: &Scene, duration: f64, sample_rate: f64) -> Self {
        assert!(!scene.objects().is_empty(), "behaviour model requires at least one object");
        assert!(duration > 0.0 && sample_rate > 0.0, "duration and sample rate must be positive");
        let duration = duration.min(scene.duration());
        let dt = 1.0 / sample_rate;
        let steps = (duration * sample_rate).round() as usize;
        let objects = scene.objects().len();
        let mut points = Vec::with_capacity((steps + 1) * objects);
        for step in 0..=steps {
            let t = step as f64 * dt;
            for obj in scene.objects() {
                let dir = obj.position(t);
                let coord = SphericalCoord::from_vector(dir).expect("object directions are unit");
                points.push(TrackPoint { dir, coord });
            }
        }
        ObjectTracks { objects, dt, steps, points }
    }

    /// Number of objects per sample.
    pub(crate) fn objects(&self) -> usize {
        self.objects
    }

    /// Sample spacing, seconds.
    pub(crate) fn dt(&self) -> f64 {
        self.dt
    }

    /// Index of the last sample (a trace has `steps() + 1` samples).
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// All objects, in scene order, at sample `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step > steps()`.
    #[inline]
    pub(crate) fn at(&self, step: usize) -> &[TrackPoint] {
        &self.points[step * self.objects..(step + 1) * self.objects]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_video::library::{scene_for, VideoId};

    #[test]
    fn table_holds_per_sample_positions() {
        let scene = scene_for(VideoId::Paris);
        let tracks = ObjectTracks::new(&scene, 1.5, 10.0);
        assert_eq!(tracks.steps(), 15);
        assert_eq!(tracks.objects(), scene.objects().len());
        for step in [0, 7, 15] {
            let t = step as f64 * tracks.dt();
            for (p, obj) in tracks.at(step).iter().zip(scene.objects()) {
                assert_eq!(p.dir, obj.position(t));
                assert_eq!(p.coord, SphericalCoord::from_vector(obj.position(t)).unwrap());
            }
        }
    }
}
