//! Procedural 360° scenes with ground-truth object annotations.
//!
//! The paper's key observation (§5.1) is that VR users track *visual
//! objects*, so the streaming server can predict viewing areas from object
//! trajectories alone. Reproducing that requires content whose objects
//! have known positions over time. This module renders parametric
//! panoramic scenes — a procedural background plus moving objects — and
//! exposes the exact object tracks that the synthetic detector
//! (`evr-semantics`) perturbs and the behaviour model (`evr-trace`)
//! follows.

use serde::{Deserialize, Serialize};

use evr_math::{Radians, SphericalCoord, Vec3};
use evr_projection::{ImageBuffer, Projection, Rgb};

use crate::frame::{Frame, VideoMeta};

/// Identifier of an object within a scene.
pub type ObjectId = u32;

/// Semantic class of a visual object (the detector reports these, mirroring
/// YOLO's class output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectClass {
    /// Wildlife (elephants, rhinos, ...).
    Animal,
    /// People.
    Person,
    /// Cars, boats, carriages.
    Vehicle,
    /// Buildings and monuments.
    Landmark,
    /// Signs and screens.
    Signage,
}

impl ObjectClass {
    /// A saturated base colour per class, keeping objects visually
    /// distinctive for the codec and the quality metrics.
    pub fn base_color(self) -> Rgb {
        match self {
            ObjectClass::Animal => Rgb::new(150, 110, 70),
            ObjectClass::Person => Rgb::new(220, 170, 140),
            ObjectClass::Vehicle => Rgb::new(200, 40, 40),
            ObjectClass::Landmark => Rgb::new(160, 160, 190),
            ObjectClass::Signage => Rgb::new(240, 220, 60),
        }
    }
}

/// A parametric trajectory on the unit sphere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Trajectory {
    /// Fixed direction with a small sinusoidal wobble (grazing animals,
    /// landmarks viewed from a drifting camera).
    Static {
        /// Nominal direction.
        dir: Vec3,
        /// Wobble amplitude in radians.
        wobble: f64,
    },
    /// Steady longitudinal drift with sinusoidal latitude oscillation
    /// (walking people, passing vehicles).
    Orbit {
        /// Starting longitude (radians).
        lon0: f64,
        /// Mean latitude (radians).
        lat0: f64,
        /// Longitude rate (radians / second).
        lon_rate: f64,
        /// Latitude oscillation amplitude (radians).
        lat_amp: f64,
        /// Latitude oscillation frequency (Hz).
        lat_freq: f64,
        /// Phase offset (radians).
        phase: f64,
    },
    /// Piecewise great-circle path through timed waypoints.
    Waypoints(
        /// `(time seconds, direction)` control points, time-ascending.
        Vec<(f64, Vec3)>,
    ),
}

impl Trajectory {
    /// The object's direction at time `t` (unit vector).
    ///
    /// # Panics
    ///
    /// Panics if a `Waypoints` trajectory is empty.
    pub fn position(&self, t: f64) -> Vec3 {
        match self {
            Trajectory::Static { dir, wobble } => {
                let base = dir.normalized().expect("static trajectory needs non-zero dir");
                if *wobble == 0.0 {
                    return base;
                }
                let s = SphericalCoord::from_vector(base).expect("non-zero");
                SphericalCoord::new(
                    Radians(s.lon.0 + wobble * (0.7 * t).sin()),
                    Radians(s.lat.0 + 0.5 * wobble * (0.9 * t + 1.0).cos()),
                )
                .to_unit_vector()
            }
            Trajectory::Orbit { lon0, lat0, lon_rate, lat_amp, lat_freq, phase } => {
                SphericalCoord::new(
                    Radians(lon0 + lon_rate * t),
                    Radians(lat0 + lat_amp * (std::f64::consts::TAU * lat_freq * t + phase).sin()),
                )
                .to_unit_vector()
            }
            Trajectory::Waypoints(points) => {
                assert!(!points.is_empty(), "waypoint trajectory must be non-empty");
                if t <= points[0].0 {
                    return points[0].1.normalized().expect("non-zero waypoint");
                }
                for pair in points.windows(2) {
                    let (t0, a) = pair[0];
                    let (t1, b) = pair[1];
                    if t <= t1 {
                        let f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 1.0 };
                        return a
                            .normalized()
                            .expect("non-zero waypoint")
                            .slerp(b.normalized().expect("non-zero waypoint"), f);
                    }
                }
                points.last().unwrap().1.normalized().expect("non-zero waypoint")
            }
        }
    }
}

/// A visual object in a scene.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneObject {
    /// Stable identifier within the scene.
    pub id: ObjectId,
    /// Semantic class.
    pub class: ObjectClass,
    /// Motion over time.
    pub trajectory: Trajectory,
    /// Angular radius of the object's footprint on the sphere.
    pub angular_radius: Radians,
    /// Texture seed (varies the painted pattern between objects).
    pub seed: u64,
}

impl SceneObject {
    /// Ground-truth direction at time `t`.
    pub fn position(&self, t: f64) -> Vec3 {
        self.trajectory.position(t)
    }
}

/// Procedural background parameters.
///
/// `detail` controls spatial frequency (city skyline vs open savanna) and
/// `motion` controls how fast the texture evolves over time (a camera on a
/// moving vehicle vs a static tripod). Together they determine the codec's
/// intra sizes and residual sizes — the content statistics behind the
/// per-video differences in Figures 3b, 13 and 14.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Background {
    /// Spatial detail multiplier (≈1 low … ≈8 high).
    pub detail: f64,
    /// Temporal motion rate (radians/second of texture drift).
    pub motion: f64,
    /// Palette seed.
    pub seed: u64,
}

/// A complete 360° scene: background + objects + duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    name: String,
    background: Background,
    objects: Vec<SceneObject>,
    duration: f64,
}

impl Scene {
    /// Creates a scene.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive, object ids are not unique,
    /// or a trajectory has no direction at some time: a `Static` zero
    /// `dir`, an empty `Waypoints` list or a zero waypoint. Those would
    /// otherwise panic only when something first evaluates the object.
    pub fn new(
        name: impl Into<String>,
        background: Background,
        objects: Vec<SceneObject>,
        duration: f64,
    ) -> Self {
        assert!(duration > 0.0, "scene duration must be positive");
        let mut ids: Vec<_> = objects.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), objects.len(), "object ids must be unique");
        for o in &objects {
            match &o.trajectory {
                Trajectory::Static { dir, .. } => assert!(
                    dir.normalized().is_ok(),
                    "object {}: static trajectory needs non-zero dir",
                    o.id
                ),
                Trajectory::Waypoints(points) => {
                    assert!(!points.is_empty(), "object {}: waypoint trajectory is empty", o.id);
                    assert!(
                        points.iter().all(|(_, d)| d.normalized().is_ok()),
                        "object {}: waypoint directions must be non-zero",
                        o.id
                    );
                }
                Trajectory::Orbit { .. } => {}
            }
        }
        Scene { name: name.into(), background, objects, duration }
    }

    /// Scene name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ground-truth objects.
    pub fn objects(&self) -> &[SceneObject] {
        &self.objects
    }

    /// Background parameters.
    pub fn background(&self) -> Background {
        self.background
    }

    /// Scene duration in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Ground-truth `(id, direction)` pairs at time `t`.
    pub fn object_positions(&self, t: f64) -> Vec<(ObjectId, Vec3)> {
        self.objects.iter().map(|o| (o.id, o.position(t))).collect()
    }

    /// Shades the scene in direction `dir` at time `t`. Convenience for
    /// single samples; bulk rendering goes through [`Scene::frame_shader`],
    /// which hoists the per-frame object state out of the pixel loop.
    pub fn shade(&self, dir: Vec3, t: f64) -> Rgb {
        self.frame_shader(t).shade(dir)
    }

    /// Prepares the per-frame shading state (object positions and cosine
    /// radii) for time `t`.
    pub fn frame_shader(&self, t: f64) -> FrameShader<'_> {
        FrameShader {
            scene: self,
            t,
            positions: self.objects.iter().map(|o| o.position(t)).collect(),
            cos_radii: self.objects.iter().map(|o| o.angular_radius.0.cos()).collect(),
        }
    }

    fn shade_background(&self, dir: Vec3, t: f64) -> Rgb {
        let b = self.background;
        let s = hash_unit(b.seed);
        let drift = b.motion * t;
        // Three quasi-independent oscillators over the direction vector,
        // at the configured spatial frequency, drifting over time.
        let f1 = (b.detail * (3.1 * dir.x + 1.7 * dir.z) + drift + 6.0 * s).sin();
        let f2 = (b.detail * (2.3 * dir.y - 2.9 * dir.x) + 0.7 * drift + 3.0 * s).sin();
        let f3 = (b.detail * (1.9 * dir.z + 2.2 * dir.y) - 0.4 * drift).cos();
        // Sky/ground split keeps large-scale structure (helps the codec's
        // intra prediction behave realistically).
        let horizon = (4.0 * dir.y).tanh();
        let r = 110.0 + 50.0 * f1 + 30.0 * horizon;
        let g = 120.0 + 45.0 * f2 + 35.0 * horizon;
        let bch = 130.0 + 40.0 * f3 + 60.0 * horizon;
        Rgb::new(clamp255(r), clamp255(g), clamp255(bch))
    }

    /// Renders the panoramic image for time `t` in the given projection.
    pub fn render_image(
        &self,
        t: f64,
        projection: Projection,
        width: u32,
        height: u32,
    ) -> ImageBuffer {
        let shader = self.frame_shader(t);
        evr_projection::transform::render_panorama(projection, width, height, |dir| {
            shader.shade(dir)
        })
    }

    /// Renders the frame at `index` of a stream described by `meta`.
    pub fn render_frame(&self, index: u64, meta: &VideoMeta) -> Frame {
        let t = meta.timestamp(index);
        Frame::new(self.render_image(t, meta.projection, meta.width, meta.height), index, t)
    }
}

/// Per-frame shading state: object positions evaluated once, cosine
/// radii precomputed for the cheap dot-product reject in the pixel loop.
#[derive(Debug, Clone)]
pub struct FrameShader<'a> {
    scene: &'a Scene,
    t: f64,
    positions: Vec<Vec3>,
    cos_radii: Vec<f64>,
}

impl FrameShader<'_> {
    /// The frame time this shader was prepared for.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Shades the scene in direction `dir`.
    pub fn shade(&self, dir: Vec3) -> Rgb {
        // Objects paint over the background, nearest-to-centre wins.
        let mut best: Option<(f64, &SceneObject)> = None;
        for ((obj, &center), &cos_r) in
            self.scene.objects.iter().zip(&self.positions).zip(&self.cos_radii)
        {
            // Cheap reject on the dot product before paying for acos.
            let cosang = dir.dot(center).clamp(-1.0, 1.0);
            if cosang < cos_r {
                continue;
            }
            let ang = cosang.acos();
            match best {
                Some((prev, _)) if prev <= ang => {}
                _ => best = Some((ang, obj)),
            }
        }
        if let Some((ang, obj)) = best {
            return shade_object(obj, ang, dir, self.t);
        }
        self.scene.shade_background(dir, self.t)
    }
}

fn shade_object(obj: &SceneObject, ang: f64, dir: Vec3, t: f64) -> Rgb {
    let base = obj.class.base_color();
    let s = hash_unit(obj.seed);
    // Radial rings + angular stripes give each object internal texture.
    let f = ang / obj.angular_radius.0.max(1e-9);
    let rings = (f * (6.0 + 6.0 * s) + t * 0.5).sin();
    let stripes = ((dir.x * 17.0 + dir.y * 13.0) * (1.0 + s) + obj.seed as f64).sin();
    let m = 0.75 + 0.2 * rings + 0.1 * stripes - 0.3 * f;
    Rgb::new(clamp255(base.r as f64 * m), clamp255(base.g as f64 * m), clamp255(base.b as f64 * m))
}

fn hash_unit(seed: u64) -> f64 {
    // SplitMix64 finaliser → [0, 1).
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn clamp255(v: f64) -> u8 {
    v.round().clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demo_scene() -> Scene {
        Scene::new(
            "demo",
            Background { detail: 3.0, motion: 0.2, seed: 1 },
            vec![
                SceneObject {
                    id: 0,
                    class: ObjectClass::Animal,
                    trajectory: Trajectory::Static { dir: Vec3::FORWARD, wobble: 0.0 },
                    angular_radius: Radians(0.2),
                    seed: 11,
                },
                SceneObject {
                    id: 1,
                    class: ObjectClass::Vehicle,
                    trajectory: Trajectory::Orbit {
                        lon0: 1.0,
                        lat0: 0.0,
                        lon_rate: 0.3,
                        lat_amp: 0.1,
                        lat_freq: 0.2,
                        phase: 0.0,
                    },
                    angular_radius: Radians(0.15),
                    seed: 22,
                },
            ],
            60.0,
        )
    }

    #[test]
    fn object_paints_over_background() {
        let scene = demo_scene();
        let on_obj = scene.shade(Vec3::FORWARD, 0.0);
        let off_obj = scene.shade(-Vec3::FORWARD, 0.0);
        // The animal's brownish base colour dominates at the centre.
        assert!(on_obj.r > on_obj.b, "object pixel {on_obj}");
        assert_ne!(on_obj, off_obj);
    }

    #[test]
    fn orbit_moves_over_time() {
        let scene = demo_scene();
        let p0 = scene.objects()[1].position(0.0);
        let p10 = scene.objects()[1].position(10.0);
        let moved = p0.angle_to(p10).unwrap();
        assert!(moved > 0.5, "moved {moved} rad");
    }

    #[test]
    fn static_with_zero_wobble_is_fixed() {
        let t = Trajectory::Static { dir: Vec3::RIGHT, wobble: 0.0 };
        assert_eq!(t.position(0.0), t.position(100.0));
    }

    #[test]
    fn waypoints_interpolate_and_clamp() {
        let t = Trajectory::Waypoints(vec![(0.0, Vec3::FORWARD), (10.0, Vec3::RIGHT)]);
        assert!((t.position(-1.0) - Vec3::FORWARD).norm() < 1e-12);
        assert!((t.position(20.0) - Vec3::RIGHT).norm() < 1e-12);
        let mid = t.position(5.0);
        let expect = Vec3::new(1.0, 0.0, 1.0).normalized().unwrap();
        assert!((mid - expect).norm() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_object_ids_panic() {
        let obj = SceneObject {
            id: 0,
            class: ObjectClass::Person,
            trajectory: Trajectory::Static { dir: Vec3::UP, wobble: 0.0 },
            angular_radius: Radians(0.1),
            seed: 0,
        };
        let _ = Scene::new(
            "bad",
            Background { detail: 1.0, motion: 0.0, seed: 0 },
            vec![obj.clone(), obj],
            10.0,
        );
    }

    fn scene_with(trajectory: Trajectory) -> Scene {
        Scene::new(
            "bad",
            Background { detail: 1.0, motion: 0.0, seed: 0 },
            vec![SceneObject {
                id: 3,
                class: ObjectClass::Animal,
                trajectory,
                angular_radius: Radians(0.1),
                seed: 0,
            }],
            10.0,
        )
    }

    #[test]
    #[should_panic(expected = "object 3: static trajectory needs non-zero dir")]
    fn zero_static_dir_panics_at_construction() {
        let _ = scene_with(Trajectory::Static { dir: Vec3::new(0.0, 0.0, 0.0), wobble: 0.1 });
    }

    #[test]
    #[should_panic(expected = "object 3: waypoint trajectory is empty")]
    fn empty_waypoints_panic_at_construction() {
        let _ = scene_with(Trajectory::Waypoints(vec![]));
    }

    #[test]
    #[should_panic(expected = "object 3: waypoint directions must be non-zero")]
    fn zero_waypoint_panics_at_construction() {
        let _ = scene_with(Trajectory::Waypoints(vec![
            (0.0, Vec3::UP),
            (5.0, Vec3::new(0.0, 0.0, 0.0)),
        ]));
    }

    #[test]
    fn valid_trajectories_construct() {
        let s = scene_with(Trajectory::Waypoints(vec![(0.0, Vec3::UP), (5.0, Vec3::FORWARD)]));
        assert_eq!(s.objects().len(), 1);
        let s = scene_with(Trajectory::Static { dir: Vec3::new(0.0, 0.0, 2.0), wobble: 0.0 });
        assert_eq!(s.object_positions(1.0)[0].1, Vec3::FORWARD);
    }

    #[test]
    fn render_frame_sets_index_and_timestamp() {
        let scene = demo_scene();
        let meta = VideoMeta::new(32, 16, 30.0, Projection::Erp);
        let f = scene.render_frame(15, &meta);
        assert_eq!(f.index, 15);
        assert!((f.timestamp - 0.5).abs() < 1e-12);
        assert_eq!(f.image.width(), 32);
    }

    #[test]
    fn background_motion_changes_pixels_over_time() {
        let still =
            Scene::new("still", Background { detail: 3.0, motion: 0.0, seed: 5 }, vec![], 10.0);
        let moving =
            Scene::new("moving", Background { detail: 3.0, motion: 3.0, seed: 5 }, vec![], 10.0);
        let a0 = still.render_image(0.0, Projection::Erp, 32, 16);
        let a1 = still.render_image(1.0, Projection::Erp, 32, 16);
        let b0 = moving.render_image(0.0, Projection::Erp, 32, 16);
        let b1 = moving.render_image(1.0, Projection::Erp, 32, 16);
        assert!(a0.mean_abs_error(&a1) < 1e-6, "static background should not change");
        assert!(b0.mean_abs_error(&b1) > 0.01, "moving background should change");
    }

    proptest! {
        #[test]
        fn prop_trajectories_stay_unit(t in 0.0f64..120.0, rate in -0.5f64..0.5) {
            let tr = Trajectory::Orbit {
                lon0: 0.3, lat0: 0.1, lon_rate: rate, lat_amp: 0.2, lat_freq: 0.1, phase: 0.5,
            };
            prop_assert!((tr.position(t).norm() - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_shade_is_deterministic(x in -1.0f64..1.0, y in -1.0f64..1.0, t in 0.0f64..60.0) {
            prop_assume!(x.abs() + y.abs() > 0.05);
            let scene = demo_scene();
            let dir = Vec3::new(x, y, 0.5).normalized().unwrap();
            prop_assert_eq!(scene.shade(dir, t), scene.shade(dir, t));
        }
    }
}
