//! The *mapping* stage: sphere point → planar frame coordinates.
//!
//! Supports the three projection methods the PTE hardware is configurable
//! for (paper §6.2): equirectangular (ERP), cubemap (CMP) and equi-angular
//! cubemap (EAC). The module mirrors the paper's modular decomposition
//! (Fig. 9 / Equations 1–3):
//!
//! ```text
//! ERP : C2S ∘ LS_erp
//! EAC : C2S ∘ LS_eac ∘ C2F
//! CMP :       LS_cmp ∘ C2F
//! ```
//!
//! where `C2S` is the Cartesian-to-Spherical transformation, `C2F` the
//! Cube-to-Frame layout transformation, and `LS` a per-method linear (or
//! equi-angular) scaling.
//!
//! All mappings produce *normalised* frame coordinates `(u, v) ∈ [0, 1)²`;
//! scaling to pixel addresses happens in the filtering stage (and, in the
//! PTE, in the wide address-generation unit rather than the narrow Q-format
//! ALU). Inverse mappings (frame → sphere) are provided for content
//! generation and format transcoding.

use serde::{Deserialize, Serialize};
use std::fmt;

use evr_math::{SphericalCoord, Vec3};

/// The cube faces, in the 3×2 frame layout used by CMP and EAC:
/// top row `+X −X +Y`, bottom row `−Y +Z −Z`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CubeFace {
    /// Right (`+x` dominant).
    PosX,
    /// Left (`−x` dominant).
    NegX,
    /// Up (`+y` dominant).
    PosY,
    /// Down (`−y` dominant).
    NegY,
    /// Front (`+z` dominant).
    PosZ,
    /// Back (`−z` dominant).
    NegZ,
}

impl CubeFace {
    /// All six faces in layout order.
    pub const ALL: [CubeFace; 6] = [
        CubeFace::PosX,
        CubeFace::NegX,
        CubeFace::PosY,
        CubeFace::NegY,
        CubeFace::PosZ,
        CubeFace::NegZ,
    ];

    /// `(column, row)` of this face in the 3×2 frame layout.
    pub fn layout_cell(self) -> (u32, u32) {
        match self {
            CubeFace::PosX => (0, 0),
            CubeFace::NegX => (1, 0),
            CubeFace::PosY => (2, 0),
            CubeFace::NegY => (0, 1),
            CubeFace::PosZ => (1, 1),
            CubeFace::NegZ => (2, 1),
        }
    }

    /// The face whose layout cell is `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if `col > 2` or `row > 1`.
    pub fn from_layout_cell(col: u32, row: u32) -> CubeFace {
        match (col, row) {
            (0, 0) => CubeFace::PosX,
            (1, 0) => CubeFace::NegX,
            (2, 0) => CubeFace::PosY,
            (0, 1) => CubeFace::NegY,
            (1, 1) => CubeFace::PosZ,
            (2, 1) => CubeFace::NegZ,
            _ => panic!("invalid cube layout cell ({col}, {row})"),
        }
    }
}

/// A projection method for storing spherical content in planar frames.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Projection {
    /// Equirectangular projection: longitude/latitude mapped linearly.
    #[default]
    Erp,
    /// Cubemap projection: gnomonic projection onto six cube faces.
    Cmp,
    /// Equi-angular cubemap: cubemap with per-face arctangent re-spacing
    /// for uniform angular sampling.
    Eac,
}

impl Projection {
    /// All supported projections.
    pub const ALL: [Projection; 3] = [Projection::Erp, Projection::Cmp, Projection::Eac];

    /// Maps a direction on the sphere to normalised frame coordinates
    /// `(u, v) ∈ [0, 1)²`.
    ///
    /// The direction need not be unit length (only its orientation is
    /// used), but must be non-zero.
    pub fn sphere_to_frame(self, dir: Vec3) -> (f64, f64) {
        match self {
            Projection::Erp => {
                let s = c2s(dir);
                ls_erp(s)
            }
            Projection::Cmp => {
                let (face, a, b) = cube_project(dir);
                c2f(face, ls_cmp(a), ls_cmp(b))
            }
            Projection::Eac => {
                let (face, a, b) = cube_project(dir);
                c2f(face, ls_eac(a), ls_eac(b))
            }
        }
    }

    /// Maps normalised frame coordinates `(u, v) ∈ [0, 1)²` back to a unit
    /// direction — the inverse used for content generation and transcoding.
    pub fn frame_to_sphere(self, u: f64, v: f64) -> Vec3 {
        match self {
            Projection::Erp => erp_coord(u, v).to_unit_vector(),
            Projection::Cmp => {
                let (face, fu, fv) = f2c(u, v);
                cube_unproject(face, ls_cmp_inv(fu), ls_cmp_inv(fv))
            }
            Projection::Eac => {
                let (face, fu, fv) = f2c(u, v);
                cube_unproject(face, ls_eac_inv(fu), ls_eac_inv(fv))
            }
        }
    }

    /// The natural aspect ratio (width / height) of a full frame stored in
    /// this projection: 2:1 for ERP, 3:2 for the cube layouts.
    pub fn frame_aspect(self) -> f64 {
        match self {
            Projection::Erp => 2.0,
            Projection::Cmp | Projection::Eac => 1.5,
        }
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Projection::Erp => "ERP",
            Projection::Cmp => "CMP",
            Projection::Eac => "EAC",
        };
        f.write_str(s)
    }
}

/// ERP's inverse mapping, frame → sphere. The longitude is a function of
/// `u` alone and the latitude of `v` alone (wrapped and clamped
/// independently by [`SphericalCoord::new`]), which lets
/// [`crate::transform::render_panorama`] evaluate each once per column
/// and once per row.
pub(crate) fn erp_coord(u: f64, v: f64) -> SphericalCoord {
    let lon = (u - 0.5) * std::f64::consts::TAU;
    let lat = (0.5 - v) * std::f64::consts::PI;
    SphericalCoord::new(evr_math::Radians(lon), evr_math::Radians(lat))
}

/// `C2S`: Cartesian direction → spherical coordinate (shared by ERP and
/// EAC in the paper's Fig. 9 decomposition).
pub fn c2s(dir: Vec3) -> SphericalCoord {
    SphericalCoord::from_vector(dir).expect("mapping requires a non-zero direction")
}

/// `LS_erp`: linear scaling of longitude/latitude into `[0, 1)²`.
pub fn ls_erp(s: SphericalCoord) -> (f64, f64) {
    let u = s.lon.0 / std::f64::consts::TAU + 0.5;
    let v = 0.5 - s.lat.0 / std::f64::consts::PI;
    (clamp_unit(u), clamp_unit(v))
}

/// Gnomonic projection onto the dominant cube face. Returns the face and
/// the face-local coordinates `(a, b) ∈ [−1, 1]²`.
pub fn cube_project(dir: Vec3) -> (CubeFace, f64, f64) {
    let (ax, ay, az) = (dir.x.abs(), dir.y.abs(), dir.z.abs());
    if ax >= ay && ax >= az {
        if dir.x > 0.0 {
            (CubeFace::PosX, -dir.z / ax, -dir.y / ax)
        } else {
            (CubeFace::NegX, dir.z / ax, -dir.y / ax)
        }
    } else if ay >= ax && ay >= az {
        if dir.y > 0.0 {
            (CubeFace::PosY, dir.x / ay, dir.z / ay)
        } else {
            (CubeFace::NegY, dir.x / ay, -dir.z / ay)
        }
    } else if dir.z > 0.0 {
        (CubeFace::PosZ, dir.x / az, -dir.y / az)
    } else {
        (CubeFace::NegZ, -dir.x / az, -dir.y / az)
    }
}

/// Inverse of [`cube_project`]: face + face-local coordinates → direction
/// (not normalised; callers needing a unit vector should normalise).
pub fn cube_unproject(face: CubeFace, a: f64, b: f64) -> Vec3 {
    let v = match face {
        CubeFace::PosX => Vec3::new(1.0, -b, -a),
        CubeFace::NegX => Vec3::new(-1.0, -b, a),
        CubeFace::PosY => Vec3::new(a, 1.0, b),
        CubeFace::NegY => Vec3::new(a, -1.0, -b),
        CubeFace::PosZ => Vec3::new(a, -b, 1.0),
        CubeFace::NegZ => Vec3::new(-a, -b, -1.0),
    };
    v.normalized().expect("cube direction cannot be zero")
}

/// `LS_cmp`: linear scaling of a face coordinate from `[−1, 1]` to `[0, 1)`.
pub fn ls_cmp(t: f64) -> f64 {
    clamp_unit((t + 1.0) / 2.0)
}

/// Inverse of [`ls_cmp`].
pub fn ls_cmp_inv(t: f64) -> f64 {
    t * 2.0 - 1.0
}

/// `LS_eac`: equi-angular scaling `t ↦ (4/π)·atan(t)` folded into `[0, 1)`.
///
/// Equalises the angular footprint of texels across a cube face (Google's
/// EAC), at the cost of an arctangent per coordinate.
pub fn ls_eac(t: f64) -> f64 {
    clamp_unit((std::f64::consts::FRAC_2_PI * t.atan() * 2.0 + 1.0) / 2.0)
}

/// Inverse of [`ls_eac`].
pub fn ls_eac_inv(t: f64) -> f64 {
    ((t * 2.0 - 1.0) * std::f64::consts::FRAC_PI_4).tan()
}

/// `C2F`: cube face + scaled face coordinates → frame coordinates in the
/// 3×2 layout.
pub fn c2f(face: CubeFace, su: f64, sv: f64) -> (f64, f64) {
    let (col, row) = face.layout_cell();
    ((col as f64 + su) / 3.0, (row as f64 + sv) / 2.0)
}

/// Inverse of [`c2f`]: frame coordinates → face + scaled face coordinates.
pub fn f2c(u: f64, v: f64) -> (CubeFace, f64, f64) {
    let u = clamp_unit(u);
    let v = clamp_unit(v);
    let col = ((u * 3.0) as u32).min(2);
    let row = ((v * 2.0) as u32).min(1);
    let face = CubeFace::from_layout_cell(col, row);
    (face, u * 3.0 - col as f64, v * 2.0 - row as f64)
}

fn clamp_unit(t: f64) -> f64 {
    // Frame coordinates live in the half-open [0, 1); the nudge below 1.0
    // keeps pixel addressing in range at the exact seam.
    t.clamp(0.0, 1.0 - 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn erp_cardinal_points() {
        // Forward maps to frame centre.
        let (u, v) = Projection::Erp.sphere_to_frame(Vec3::FORWARD);
        assert!((u - 0.5).abs() < 1e-12 && (v - 0.5).abs() < 1e-12);
        // Straight up maps to the top edge.
        let (_, v) = Projection::Erp.sphere_to_frame(Vec3::UP);
        assert!(v < 1e-12);
        // Right maps to u = 0.75.
        let (u, _) = Projection::Erp.sphere_to_frame(Vec3::RIGHT);
        assert!((u - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cube_faces_by_dominant_axis() {
        assert_eq!(cube_project(Vec3::RIGHT).0, CubeFace::PosX);
        assert_eq!(cube_project(-Vec3::RIGHT).0, CubeFace::NegX);
        assert_eq!(cube_project(Vec3::UP).0, CubeFace::PosY);
        assert_eq!(cube_project(-Vec3::UP).0, CubeFace::NegY);
        assert_eq!(cube_project(Vec3::FORWARD).0, CubeFace::PosZ);
        assert_eq!(cube_project(-Vec3::FORWARD).0, CubeFace::NegZ);
    }

    #[test]
    fn face_centers_roundtrip() {
        for face in CubeFace::ALL {
            let dir = cube_unproject(face, 0.0, 0.0);
            let (f2, a, b) = cube_project(dir);
            assert_eq!(face, f2);
            assert!(a.abs() < 1e-12 && b.abs() < 1e-12);
        }
    }

    #[test]
    fn layout_cells_are_bijective() {
        for face in CubeFace::ALL {
            let (c, r) = face.layout_cell();
            assert_eq!(CubeFace::from_layout_cell(c, r), face);
        }
    }

    #[test]
    #[should_panic(expected = "invalid cube layout cell")]
    fn bad_layout_cell_panics() {
        let _ = CubeFace::from_layout_cell(3, 0);
    }

    #[test]
    fn eac_scaling_fixed_points() {
        for (t, expect) in [(-1.0, 0.0), (0.0, 0.5), (1.0, 1.0)] {
            assert!((ls_eac(t) - expect).abs() < 1e-9, "ls_eac({t})");
        }
        // EAC stretches the face centre relative to CMP.
        assert!(ls_eac(0.5) > ls_cmp(0.5));
    }

    #[test]
    fn aspect_ratios() {
        assert_eq!(Projection::Erp.frame_aspect(), 2.0);
        assert_eq!(Projection::Cmp.frame_aspect(), 1.5);
        assert_eq!(Projection::Eac.frame_aspect(), 1.5);
    }

    #[test]
    fn display_names() {
        assert_eq!(Projection::Erp.to_string(), "ERP");
        assert_eq!(Projection::Cmp.to_string(), "CMP");
        assert_eq!(Projection::Eac.to_string(), "EAC");
    }

    fn roundtrip_error(p: Projection, dir: Vec3) -> f64 {
        let (u, v) = p.sphere_to_frame(dir);
        let back = p.frame_to_sphere(u, v);
        (back - dir.normalized().unwrap()).norm()
    }

    #[test]
    fn roundtrips_for_sample_directions() {
        let dirs = [
            Vec3::new(0.3, 0.4, 0.8),
            Vec3::new(-0.7, 0.1, 0.2),
            Vec3::new(0.1, -0.9, -0.3),
            Vec3::new(-0.5, -0.5, 0.5),
        ];
        for p in Projection::ALL {
            for d in dirs {
                assert!(roundtrip_error(p, d) < 1e-9, "{p} {d}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_sphere_frame_roundtrip(x in -1.0f64..1.0, y in -1.0f64..1.0, z in -1.0f64..1.0) {
            prop_assume!(x.abs() + y.abs() + z.abs() > 0.1);
            let dir = Vec3::new(x, y, z);
            for p in Projection::ALL {
                prop_assert!(roundtrip_error(p, dir) < 1e-6, "{p}");
            }
        }

        #[test]
        fn prop_frame_coords_in_unit_square(x in -1.0f64..1.0, y in -1.0f64..1.0, z in -1.0f64..1.0) {
            prop_assume!(x.abs() + y.abs() + z.abs() > 0.1);
            for p in Projection::ALL {
                let (u, v) = p.sphere_to_frame(Vec3::new(x, y, z));
                prop_assert!((0.0..1.0).contains(&u));
                prop_assert!((0.0..1.0).contains(&v));
            }
        }

        #[test]
        fn prop_frame_sphere_produces_unit(u in 0.0f64..1.0, v in 0.0f64..1.0) {
            for p in Projection::ALL {
                prop_assert!((p.frame_to_sphere(u, v).norm() - 1.0).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_cube_face_coords_bounded(x in -1.0f64..1.0, y in -1.0f64..1.0, z in -1.0f64..1.0) {
            prop_assume!(x.abs() + y.abs() + z.abs() > 0.1);
            let (_, a, b) = cube_project(Vec3::new(x, y, z));
            prop_assert!(a.abs() <= 1.0 + 1e-12);
            prop_assert!(b.abs() <= 1.0 + 1e-12);
        }
    }
}
