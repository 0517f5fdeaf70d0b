//! End-to-end overload tests for the sharded serving front: a fleet of
//! clients streaming through a server-side fault plan must degrade by
//! shedding (one more ladder rung), never by crashing, losing frames or
//! diverging across worker counts.

use std::sync::OnceLock;

use evr_core::experiment::{run_variant_resilient, ExperimentConfig};
use evr_core::{EvrSystem, UseCase, Variant};
use evr_faults::FaultSetup;
use evr_sas::SasConfig;
use evr_video::library::VideoId;
use server_plans::{mixed_plan, slow_everywhere};

mod server_plans;

fn system() -> &'static EvrSystem {
    static SYS: OnceLock<EvrSystem> = OnceLock::new();
    SYS.get_or_init(|| EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 2.0))
}

#[test]
fn universal_slowdown_sheds_every_fov_segment_but_plays_every_frame() {
    let sys = system();
    let clean = sys.run_user_in(UseCase::OnlineStreaming, Variant::SPlusH, 0);
    let setup = FaultSetup::seeded(11).with_server(slow_everywhere());
    let report = sys.run_user_resilient(UseCase::OnlineStreaming, Variant::SPlusH, 0, &setup);

    assert!(report.faults.shed_segments > 0, "64x slowdown everywhere must shed");
    assert_eq!(report.faults.front_unavailable_segments, 0, "slow is not down");
    assert_eq!(report.frames_total, clean.frames_total, "shedding never drops frames");
    assert!(report.faults.stall_time_s.is_finite() && report.faults.stall_time_s >= 0.0);
    assert!(report.ledger.total().is_finite() && report.ledger.total() > 0.0);
    // Shed responses carry the low-rung original, so the run still
    // moves bytes.
    assert!(report.bytes_received > 0);
}

#[test]
fn mixed_server_faults_hit_both_shed_and_unavailable_paths() {
    let sys = system();
    let setup = FaultSetup::seeded(3).with_server(mixed_plan());
    let mut shed = 0;
    let mut unavailable = 0;
    for user in 0..4 {
        let r = sys.run_user_resilient(UseCase::OnlineStreaming, Variant::SPlusH, user, &setup);
        let clean = sys.run_user_in(UseCase::OnlineStreaming, Variant::SPlusH, user);
        assert_eq!(r.frames_total, clean.frames_total, "user {user} loses frames");
        shed += r.faults.shed_segments;
        unavailable += r.faults.front_unavailable_segments;
    }
    assert!(shed > 0, "the slow shard must shed at least one segment");
    assert!(unavailable > 0, "the dark shards must refuse at least one segment");
}

#[test]
fn fleet_reports_under_server_faults_are_identical_across_worker_counts() {
    let sys = system();
    let setup = FaultSetup::seeded(7).with_server(mixed_plan());
    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let cfg = ExperimentConfig { users: 6, threads };
            run_variant_resilient(sys, UseCase::OnlineStreaming, Variant::SPlusH, &cfg, &setup)
        })
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 workers");
    assert_eq!(reports[0], reports[2], "1 vs 8 workers");
    assert!(
        reports[0].shed_segments > 0.0 || reports[0].front_unavailable_segments > 0.0,
        "the server rung must actually fire"
    );
}
