//! The correctness gates refuse a tampered count or estimate.

use wirebench::gates::{bit_identical, Accounting};
use wirebench::inputs::{for_each_taken, Inputs};
use wirebench::run::{replay, Size};

fn balanced() -> Accounting {
    Accounting {
        delivered: 1000,
        acked_routed: 990,
        acked_rejected: 10,
        engine_routed: 990,
        engine_rejected: 10,
        engine_processed: 990,
        queued_after_finish: 0,
    }
}

#[test]
fn exact_accounting_passes() {
    assert_eq!(balanced().check(), Ok(()));
}

#[test]
fn every_tampered_count_fails_reconciliation() {
    let tampered: [fn(&mut Accounting); 7] = [
        |a| a.delivered += 1,
        |a| a.acked_routed -= 1,
        |a| a.acked_rejected += 1,
        |a| a.engine_routed += 1,
        |a| a.engine_rejected -= 1,
        |a| a.engine_processed -= 1,
        |a| a.queued_after_finish = 1,
    ];
    for (k, tamper) in tampered.iter().enumerate() {
        let mut a = balanced();
        tamper(&mut a);
        assert!(a.check().is_err(), "tamper #{k} passed: {a:?}");
    }
    // Moving adverts between routed and rejected keeps the totals but
    // not the split.
    let mut a = balanced();
    a.engine_routed += 1;
    a.engine_rejected -= 1;
    assert!(a.check().is_err());
}

#[test]
fn a_replay_matches_itself_and_refuses_a_tampered_estimate() {
    let inputs = Inputs::generate(Size::tiny().sweep, 3);
    let taken = [inputs.cycle_len() as u64];
    let mut count = 0;
    for_each_taken(&inputs, &taken, 1024, |chunk| count += chunk.len());
    assert_eq!(count, inputs.cycle_len());
    let served = replay(&inputs, &taken).snapshot();
    let replayed = replay(&inputs, &taken).snapshot();
    assert!(!served.is_empty(), "the tiny walk localizes some beacons");
    assert_eq!(bit_identical(&served, &replayed), Ok(()));

    let mut one_ulp = served.clone();
    let x = &mut one_ulp[0].1.position.x;
    *x = f64::from_bits(x.to_bits() + 1);
    assert!(bit_identical(&one_ulp, &replayed).is_err());

    let mut confidence = served.clone();
    confidence[0].1.confidence += 0.5;
    assert!(bit_identical(&confidence, &replayed).is_err());

    let mut points = served.clone();
    points[0].1.points_used += 1;
    assert!(bit_identical(&points, &replayed).is_err());

    assert!(bit_identical(&served[1..], &replayed).is_err());
    let mut relabelled = served.clone();
    relabelled[0].0 .0 += 1_000_000;
    assert!(bit_identical(&relabelled, &replayed).is_err());
}
