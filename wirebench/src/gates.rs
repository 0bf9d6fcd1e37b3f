//! The correctness gates every run must pass before it may report a
//! number: exact accounting on both sides of the wire, and final
//! estimates bit-identical to an in-process replay.

use locble_ble::BeaconId;
use locble_core::LocationEstimate;

/// Advert accounting gathered from the client acks and the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Adverts the client put on the wire.
    pub delivered: u64,
    /// Adverts the acks reported routed.
    pub acked_routed: u64,
    /// Adverts the acks reported rejected (all causes).
    pub acked_rejected: u64,
    /// The engine's own routed count.
    pub engine_routed: u64,
    /// The engine's own rejected count.
    pub engine_rejected: u64,
    /// The engine's processed count after `Finish`.
    pub engine_processed: u64,
    /// Samples still queued after `Finish`.
    pub queued_after_finish: u64,
}

impl Accounting {
    /// `Ok` when every advert is accounted for exactly:
    /// delivered = acked routed + rejected = engine routed + rejected,
    /// processed = routed, and nothing is queued after `Finish`.
    pub fn check(&self) -> Result<(), String> {
        let acked = self.acked_routed + self.acked_rejected;
        let engine = self.engine_routed + self.engine_rejected;
        if self.delivered != acked {
            return Err(format!(
                "delivered {} != acked {} (routed {} + rejected {})",
                self.delivered, acked, self.acked_routed, self.acked_rejected
            ));
        }
        if acked != engine || self.acked_routed != self.engine_routed {
            return Err(format!(
                "acked routed/rejected {}/{} != engine routed/rejected {}/{}",
                self.acked_routed, self.acked_rejected, self.engine_routed, self.engine_rejected
            ));
        }
        if self.engine_processed != self.engine_routed {
            return Err(format!(
                "engine processed {} != routed {}",
                self.engine_processed, self.engine_routed
            ));
        }
        if self.queued_after_finish != 0 {
            return Err(format!(
                "{} samples still queued after Finish",
                self.queued_after_finish
            ));
        }
        Ok(())
    }
}

/// `Ok` when `served` and `replayed` hold the same beacons with
/// bit-identical estimates.
pub fn bit_identical(
    served: &[(BeaconId, LocationEstimate)],
    replayed: &[(BeaconId, LocationEstimate)],
) -> Result<(), String> {
    if served.len() != replayed.len() {
        return Err(format!(
            "served {} estimates, replay has {}",
            served.len(),
            replayed.len()
        ));
    }
    for ((bs, s), (br, r)) in served.iter().zip(replayed) {
        if bs != br {
            return Err(format!("beacon sets differ: served {bs}, replay {br}"));
        }
        let floats = [
            ("position.x", s.position.x, r.position.x),
            ("position.y", s.position.y, r.position.y),
            ("confidence", s.confidence, r.confidence),
            ("exponent", s.exponent, r.exponent),
            ("gamma_dbm", s.gamma_dbm, r.gamma_dbm),
            ("residual_db", s.residual_db, r.residual_db),
        ];
        for (field, a, b) in floats {
            if a.to_bits() != b.to_bits() {
                return Err(format!("beacon {bs} {field}: served {a} != replay {b}"));
            }
        }
        let mirror_bits = |m: Option<locble_geom::Vec2>| m.map(|v| (v.x.to_bits(), v.y.to_bits()));
        if mirror_bits(s.mirror) != mirror_bits(r.mirror)
            || s.points_used != r.points_used
            || s.env != r.env
            || s.method != r.method
        {
            return Err(format!(
                "beacon {bs}: mirror/points/env/method differ from the replay"
            ));
        }
    }
    Ok(())
}
