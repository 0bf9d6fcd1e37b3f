//! Input generation is a pure function of the seed and keeps every
//! session free of silences the idle eviction could act on.

use wirebench::inputs::{for_each_taken, Inputs, MAX_SILENCE_S};
use wirebench::run::Size;

#[test]
fn one_seed_generates_identical_inputs() {
    let size = Size::tiny();
    for spec in [size.sweep, size.track] {
        let a = Inputs::generate(spec, 7);
        let b = Inputs::generate(spec, 7);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), Inputs::generate(spec, 8).digest());
    }
}

#[test]
fn sessions_never_fall_silent_long_enough_to_be_evicted() {
    let size = Size::tiny();
    for seed in 1..4 {
        for spec in [size.sweep, size.track] {
            let gap = Inputs::generate(spec, seed).max_gap_s();
            assert!(gap < MAX_SILENCE_S, "seed {seed}: gap {gap}");
        }
    }
}

#[test]
fn connections_split_the_stream_by_beacon_and_replay_in_order() {
    let inputs = Inputs::generate(Size::tiny().sweep, 2);
    let mut shares = Vec::new();
    for conn in 0..2 {
        let mut cursor = inputs.cursor(conn, 2);
        let mut frame = Vec::new();
        let mut taken = Vec::new();
        while cursor.taken < 2 * inputs.cycle_len() as u64 / 3
            && cursor.next_frame(&inputs, 16, &mut frame)
        {
            assert!(frame.iter().all(|a| a.beacon.0 as usize % 2 == conn));
            taken.extend(frame.iter().copied());
        }
        shares.push(taken);
    }
    let counts: Vec<u64> = shares.iter().map(|s| s.len() as u64).collect();
    let mut replayed = Vec::new();
    for_each_taken(&inputs, &counts, 100, |chunk| {
        replayed.extend_from_slice(chunk)
    });
    assert_eq!(replayed.len() as u64, counts.iter().sum::<u64>());
    for (conn, share) in shares.iter().enumerate() {
        let mine: Vec<_> = replayed
            .iter()
            .filter(|a| a.beacon.0 as usize % 2 == conn)
            .map(|a| (a.beacon, a.t.to_bits(), a.rssi_dbm.to_bits()))
            .collect();
        let sent: Vec<_> = share
            .iter()
            .map(|a| (a.beacon, a.t.to_bits(), a.rssi_dbm.to_bits()))
            .collect();
        assert_eq!(
            mine, sent,
            "connection {conn}'s adverts replay in send order"
        );
    }
    assert!(
        replayed.windows(2).all(|w| w[0].t <= w[1].t),
        "replay is time-ordered"
    );
}
