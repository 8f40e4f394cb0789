//! Property tests for the design payload codec and the read-only legacy
//! snapshot decoder: arbitrary designs round-trip exactly, and arbitrary
//! corruption (truncation, bit flips,
//! random garbage) never panics — it either yields a structured
//! [`SnapshotError`] or a per-record skip count.

use fsmgen::{Design, Designer};
use fsmgen_farm::{decode_design, decode_snapshot, encode_design, encode_snapshot, SnapshotError};
use fsmgen_traces::BitTrace;
use proptest::prelude::*;

/// Parameters for arbitrary designs — the population the cache stores.
/// The design itself is built in the test body (the vendored proptest has
/// no filtering combinator).
fn design_params() -> impl Strategy<Value = (Vec<bool>, usize, f64, f64)> {
    (
        proptest::collection::vec(any::<bool>(), 24..120),
        1usize..5,
        prop_oneof![Just(0.5f64), Just(0.7), Just(0.9)],
        prop_oneof![Just(0.0f64), Just(0.05)],
    )
}

/// Designs from the generated parameters; `None` for the rare parameter
/// combination the designer rejects (those cases are vacuously passed).
fn make_design((bits, history, thr, dc): &(Vec<bool>, usize, f64, f64)) -> Option<Design> {
    let trace: BitTrace = bits.iter().copied().collect();
    Designer::new(*history)
        .prob_threshold(*thr)
        .dont_care_fraction(*dc)
        .design_from_trace(&trace)
        .ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → decode is the identity on designs, including every
    /// retained intermediate artifact.
    #[test]
    fn design_payload_round_trips(params in design_params()) {
        let Some(design) = make_design(&params) else { return Ok(()); };
        let bytes = encode_design(&design);
        let back = decode_design(&bytes).expect("decoding our own encoding");
        prop_assert_eq!(design, back);
    }

    /// Whole snapshots round-trip with fingerprints and verify digests
    /// intact and nothing skipped.
    #[test]
    fn snapshot_round_trips(params in design_params(), fp in any::<u64>(), verify in any::<u64>()) {
        let Some(design) = make_design(&params) else { return Ok(()); };
        let bytes = encode_snapshot([(fp, verify, &design)]);
        let decoded = decode_snapshot(&bytes).expect("header is valid");
        prop_assert_eq!(decoded.skipped, 0);
        prop_assert_eq!(decoded.records.len(), 1);
        prop_assert_eq!(decoded.records[0].fingerprint, fp);
        prop_assert_eq!(decoded.records[0].verify, verify);
        prop_assert_eq!(&*decoded.records[0].design, &design);
    }

    /// Truncating a snapshot anywhere never panics: either a structured
    /// header error or records accounted for as decoded + skipped.
    #[test]
    fn truncation_never_panics(params in design_params(), frac in 0.0f64..1.0) {
        let Some(design) = make_design(&params) else { return Ok(()); };
        let bytes = encode_snapshot([(1u64, 2u64, &design), (3u64, 4u64, &design)]);
        let cut = ((bytes.len() as f64) * frac) as usize;
        match decode_snapshot(&bytes[..cut]) {
            Err(SnapshotError::TruncatedHeader) => prop_assert!(cut < 16),
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
            Ok(decoded) => {
                prop_assert_eq!(
                    decoded.records.len() + decoded.skipped,
                    2,
                    "records must be decoded or counted, never lost"
                );
            }
        }
    }

    /// Flipping any single byte never panics and never loses accounting:
    /// every declared record is either decoded or counted as skipped.
    #[test]
    fn byte_flips_never_panic(
        params in design_params(),
        raw_index in 0usize..65536,
        flip in 1u8..=255,
    ) {
        let Some(design) = make_design(&params) else { return Ok(()); };
        let bytes = encode_snapshot([(1u64, 2u64, &design), (3u64, 4u64, &design)]);
        let index = raw_index % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[index] ^= flip;
        match decode_snapshot(&corrupted) {
            // Corrupting the magic or version is a structured error.
            Err(SnapshotError::BadMagic) => prop_assert!(index < 8),
            Err(SnapshotError::UnsupportedVersion(_)) => {
                prop_assert!((8..12).contains(&index));
            }
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
            Ok(decoded) => {
                // A corrupted record-count field may under- or over-declare;
                // past the header, decoded + skipped covers the declaration.
                if !(12..16).contains(&index) {
                    prop_assert_eq!(decoded.records.len() + decoded.skipped, 2);
                    // A flip inside a record must not corrupt the *other*
                    // record silently: whatever survived decodes equal to
                    // the original design.
                    for rec in &decoded.records {
                        prop_assert_eq!(&*rec.design, &design);
                    }
                }
            }
        }
    }

    /// Arbitrary garbage bytes never panic the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_snapshot(&bytes);
    }

    /// Random bytes with a valid header never panic the record decoder
    /// either — everything lands in records or the skip count.
    #[test]
    fn garbage_records_behind_valid_header_never_panic(
        declared in 0u32..8,
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"FSMFARMS");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&declared.to_le_bytes());
        bytes.extend_from_slice(&body);
        let decoded = decode_snapshot(&bytes).expect("header is valid");
        prop_assert_eq!(decoded.records.len() + decoded.skipped, declared as usize);
    }

    /// Garbage payload bytes never panic `decode_design` directly.
    #[test]
    fn garbage_design_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_design(&bytes);
    }
}
