//! Bit-exact digests of program outputs, for the output checks.
//!
//! Floats are folded through `f64::to_bits`, so two digests agree only
//! when every value is identical to the last bit.

use evr_client::session::PlaybackReport;
use evr_energy::{Activity, Component};
use evr_sas::{
    BatchReport, Disposition, FovPrerenderStore, PrerenderKey, SasCatalog, TileBatchReport,
    TileDisposition, TiledRateCatalog,
};
use evr_video::delta::segment_digest;

/// Every energy activity a ledger can hold.
const ACTIVITIES: [Activity; 10] = [
    Activity::Decode,
    Activity::ProjectiveTransform,
    Activity::Base,
    Activity::DisplayScan,
    Activity::NetworkRx,
    Activity::StorageIo,
    Activity::HeadMotionPrediction,
    Activity::QualityAssessment,
    Activity::Resilience,
    Activity::DeltaReconstruct,
];

/// An FNV-1a accumulator over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn u(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds one float in, by its bits.
    pub fn f(&mut self, v: f64) -> &mut Self {
        self.u(v.to_bits())
    }

    /// The digest so far.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Every field of a playback report, energy ledger cell by cell.
pub fn report(r: &PlaybackReport) -> u64 {
    let mut h = Fnv::default();
    for c in Component::ALL {
        for a in ACTIVITIES {
            h.f(r.ledger.get(c, a));
        }
    }
    h.f(r.ledger.duration());
    h.u(r.frames_total).u(r.fov_hits).u(r.fov_misses).u(r.fallback_frames);
    h.u(r.rebuffer_events).f(r.rebuffer_time_s).u(r.bytes_received).f(r.duration_s);
    let f = &r.faults;
    h.u(f.retries).u(f.timeouts).u(f.degraded_segments).u(f.degraded_frames);
    h.u(f.frozen_frames).u(f.corrupt_segments).u(f.shed_segments);
    h.u(f.front_unavailable_segments).f(f.backoff_time_s).f(f.stall_time_s);
    h.get()
}

/// Originals, FOV streams and their orientation metadata.
pub fn catalog(c: &SasCatalog) -> u64 {
    let mut h = Fnv::default();
    h.u(c.content_id()).u(u64::from(c.segment_count()));
    for seg in 0..c.segment_count() {
        h.u(c.try_original_segment(seg).map_or(0, segment_digest));
        for cluster in c.clusters_in_segment(seg) {
            h.u(cluster as u64);
            match c.fov_stream(seg, cluster).and_then(|s| c.read_fov(s).map(|r| (s, r))) {
                Some((stream, (data, meta))) => {
                    h.u(u64::from(stream.members)).u(segment_digest(data));
                    for m in meta {
                        h.f(m.orientation.yaw.0).f(m.orientation.pitch.0).f(m.orientation.roll.0);
                    }
                }
                None => {
                    h.u(u64::MAX);
                }
            }
        }
    }
    for &seg in c.degraded_segments() {
        h.u(u64::from(seg));
    }
    h.get()
}

/// The FOV ladder held in `store`: every catalog stream at every rung,
/// materialised (deltas reconstructed). Reads count as store hits, so
/// take store statistics before calling this.
pub fn store(c: &SasCatalog, store: &FovPrerenderStore, rungs: &[u8]) -> u64 {
    let mut h = Fnv::default();
    for segment in 0..c.segment_count() {
        for cluster in c.clusters_in_segment(segment) {
            for &rung in rungs {
                let key = PrerenderKey { content: c.content_id(), segment, cluster, rung };
                match store.get(&key) {
                    Some(fov) => h.u(segment_digest(&fov.data)).u(fov.meta.len() as u64),
                    None => h.u(u64::MAX),
                };
            }
        }
    }
    h.get()
}

/// Per-tile rung byte matrices of a tiled-rate catalog.
pub fn tiles(t: &TiledRateCatalog) -> u64 {
    let mut h = Fnv::default();
    for seg in 0..t.segment_count() {
        for row in t.tile_rung_bytes(seg).iter().chain(t.tile_rung_delta_bytes(seg).iter()) {
            for &b in row {
                h.u(b);
            }
        }
    }
    h.get()
}

/// Every outcome of an FOV batch, payloads by segment digest.
pub fn batch(r: &BatchReport) -> u64 {
    let mut h = Fnv::default();
    for o in &r.outcomes {
        h.u(o.request.user).u(u64::from(o.request.segment)).u(o.request.cluster as u64);
        h.f(o.request.arrival_s);
        match &o.disposition {
            Disposition::Served { payload, wire_bytes, latency_s, coalesced } => {
                h.u(1).u(segment_digest(&payload.data)).u(*wire_bytes).f(*latency_s);
                h.u(u64::from(*coalesced));
            }
            Disposition::Shed { reason, wire_bytes, latency_s } => {
                h.u(2).u(*reason as u64).u(*wire_bytes).f(*latency_s);
            }
            Disposition::Unavailable => {
                h.u(3);
            }
            Disposition::NotFound { .. } => {
                h.u(4);
            }
        }
    }
    h.u(r.served).u(r.shed).u(r.unavailable).u(r.not_found).u(r.coalesced);
    h.u(u64::from(r.peak_queue_depth));
    h.get()
}

/// Every outcome of a tile batch.
pub fn tile_batch(r: &TileBatchReport) -> u64 {
    let mut h = Fnv::default();
    for o in &r.outcomes {
        let q = &o.request;
        h.u(q.user).u(u64::from(q.segment)).u(q.tile as u64).u(q.rung as u64).f(q.arrival_s);
        match &o.disposition {
            TileDisposition::Served { payload, latency_s, coalesced } => {
                h.u(1).u(payload.wire_bytes).u(payload.delta_wire_bytes).f(*latency_s);
                h.u(u64::from(*coalesced));
                for &b in &payload.frame_bytes {
                    h.u(b);
                }
            }
            TileDisposition::Shed { reason, wire_bytes, latency_s } => {
                h.u(2).u(*reason as u64).u(*wire_bytes).f(*latency_s);
            }
            TileDisposition::Unavailable => {
                h.u(3);
            }
            TileDisposition::NotFound { .. } => {
                h.u(4);
            }
        }
    }
    h.u(r.served).u(r.shed).u(r.unavailable).u(r.not_found).u(r.coalesced);
    h.u(u64::from(r.peak_queue_depth));
    h.get()
}
