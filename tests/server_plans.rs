//! Serving-front fault plans shared by the overload and parity suites.

use evr_faults::{ServerFaultEvent, ServerFaultPlan};

/// Every shard slowed far past the shed budget for the whole run:
/// every FOV request that reaches the front gets shed to the low-rung
/// original.
pub fn slow_everywhere() -> ServerFaultPlan {
    let mut plan = ServerFaultPlan::healthy();
    for shard in 0..4 {
        plan = plan.with(ServerFaultEvent::SlowShard {
            shard,
            latency_scale: 64.0,
            start_s: 0.0,
            duration_s: 100.0,
        });
    }
    plan
}

/// A mixed plan: two shards dark, one slow, plus an eviction storm —
/// the chaos ladder's server rung at test scale.
pub fn mixed_plan() -> ServerFaultPlan {
    ServerFaultPlan::healthy()
        .with(ServerFaultEvent::ShardOutage { shard: 0, start_s: 0.0, duration_s: 1.0 })
        .with(ServerFaultEvent::ShardOutage { shard: 1, start_s: 0.0, duration_s: 1.0 })
        .with(ServerFaultEvent::SlowShard {
            shard: 2,
            latency_scale: 64.0,
            start_s: 0.5,
            duration_s: 1.5,
        })
        .with(ServerFaultEvent::StoreEvictionStorm { start_s: 0.2, duration_s: 1.0 })
}
