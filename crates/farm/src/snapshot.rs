//! The [`Design`] payload codec shared by the durable store, and the
//! read-only decoder for legacy v1 snapshot files.
//!
//! [`encode_design`]/[`decode_design`] turn one design into a
//! self-contained payload and back: Markov model, pattern sets, cover,
//! optional regex, both Moore machines, degradation report and effective
//! history. Decoding runs entirely through validating constructors, so
//! corrupted bytes can never reach a panicking API. The log store
//! ([`DesignStore`](crate::DesignStore)) frames these payloads; it is the
//! only persistence format this crate writes.
//!
//! # Legacy snapshot format (version 1)
//!
//! Earlier builds persisted the cache as a one-shot snapshot file. Those
//! files stay readable through [`decode_snapshot`] so that
//! [`DesignStore::open`](crate::DesignStore::open) can migrate them to a
//! log and `fsmgen cache info` can inspect them. All integers are
//! little-endian.
//!
//! ```text
//! header   := magic (8 bytes, "FSMFARMS") version (u32) record_count (u32)
//! record   := fingerprint (u64) verify (u64) payload_len (u32)
//!             payload (payload_len bytes) checksum (u64)
//! checksum := FNV-1a over fingerprint_le ‖ verify_le ‖ payload
//! ```
//!
//! The checksum covers the record *header* fields as well as the payload,
//! so a flipped byte anywhere inside a record — including its length field
//! — is detected.
//!
//! # Corruption policy
//!
//! Header problems (bad magic, unsupported version, file shorter than the
//! header) are [`SnapshotError`]s: the caller gets nothing and should fall
//! back to a cold cache. Everything past a valid header degrades
//! per-record: a record that fails its checksum or decode is *skipped and
//! counted*, and a truncation mid-record ends the decode with the
//! remaining declared records counted as skipped. Decoding never panics.

use crate::fnv::Fnv1a;
use fsmgen::{Degradation, DegradationStep, Design, MarkovModel, PatternSets, Rung};
use fsmgen_automata::{Dfa, Regex};
use fsmgen_logicmin::{Cover, Cube, FunctionSpec, MAX_VARS};
use std::fmt;
use std::sync::Arc;

/// Magic bytes identifying a farm cache snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"FSMFARMS";

/// The snapshot format version legacy files carry (the only one there is).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Fixed byte length of the snapshot header.
const HEADER_LEN: usize = 16;

/// Maximum regex nesting depth the decoder will follow. The designer's
/// own expressions are a handful of levels deep; the cap only bounds
/// adversarial input.
const MAX_REGEX_DEPTH: usize = 256;

/// The known design-pipeline stage names a degradation step may carry.
/// Decoding maps stored stage strings back onto these statics; unknown
/// strings (possible only across version skew) become `"unknown"`.
const KNOWN_STAGES: [&str; 7] = [
    "patterns", "minimize", "nfa", "dfa", "hopcroft", "reduce", "counter",
];

/// A whole-file failure: nothing could be decoded. Per-record corruption
/// is *not* an error — see the module docs' corruption policy.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file declares a format version this build does not understand.
    UnsupportedVersion(u32),
    /// The file ends before the header does.
    TruncatedHeader,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => f.write_str("not a farm cache snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads version {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::TruncatedHeader => f.write_str("snapshot shorter than its header"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One successfully decoded snapshot record.
#[derive(Debug, Clone)]
pub struct SnapshotRecord {
    /// The job fingerprint the design was cached under.
    pub fingerprint: u64,
    /// The independent verification digest of the producing job (see
    /// [`DesignJob::verify_hash`](crate::DesignJob::verify_hash)).
    pub verify: u64,
    /// The design itself.
    pub design: Arc<Design>,
}

/// The result of decoding a snapshot: the records that survived, plus a
/// count of those that did not.
#[derive(Debug, Clone, Default)]
pub struct DecodedSnapshot {
    /// Records that passed their checksum and decoded cleanly, in file
    /// order (snapshots were written most-recently-used first).
    pub records: Vec<SnapshotRecord>,
    /// Declared records that were corrupt, undecodable or truncated away.
    pub skipped: usize,
}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Byte-buffer writer for the payload encoding.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed UTF-8 string.
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked byte-buffer reader. Every accessor verifies the bytes
/// exist before touching them, so corrupted lengths surface as `Err`, never
/// as a panic or an oversized allocation.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "truncated: wanted {n} bytes, {} remain",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a count that prefixes `elem_size`-byte elements, rejecting
    /// counts the remaining buffer cannot possibly hold (an overflow-safe
    /// guard against allocation bombs from corrupted lengths).
    fn count(&mut self, elem_size: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        match n.checked_mul(elem_size) {
            Some(total) if total <= self.remaining() => Ok(n),
            _ => Err(format!(
                "count {n} x {elem_size}B exceeds {} remaining bytes",
                self.remaining()
            )),
        }
    }

    /// Length-prefixed UTF-8 string.
    fn str(&mut self) -> Result<String, String> {
        let n = self.count(1)?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Design payload codec
// ---------------------------------------------------------------------------

/// Encodes one design into a self-contained payload.
#[must_use]
pub fn encode_design(design: &Design) -> Vec<u8> {
    let mut w = Writer::new();

    // 1. Markov model.
    let model = design.model();
    w.u32(model.order() as u32);
    w.u32(model.iter().count() as u32);
    for (history, counts) in model.iter() {
        w.u32(history);
        w.u64(counts.zeros);
        w.u64(counts.ones);
    }

    // 2. Pattern sets.
    let sets = design.pattern_sets();
    let spec = sets.spec();
    w.u32(spec.width() as u32);
    for set in [spec.on_set(), spec.off_set(), spec.explicit_dont_cares()] {
        w.u32(set.len() as u32);
        for &m in set {
            w.u32(m);
        }
    }
    w.u64(sets.dont_care_observations());
    w.u64(sets.total_observations());

    // 3. Minimized cover.
    let cover = design.cover();
    w.u32(cover.width() as u32);
    w.u32(cover.len() as u32);
    for cube in cover.cubes() {
        w.u32(cube.mask());
        w.u32(cube.bits());
    }

    // 4. Optional regex.
    match design.regex() {
        None => w.u8(0),
        Some(re) => {
            w.u8(1);
            encode_regex(re, &mut w);
        }
    }

    // 5 + 6. Both Moore machines.
    encode_dfa(design.minimized_with_startup(), &mut w);
    encode_dfa(design.fsm(), &mut w);

    // 7. Degradation report.
    let steps = design.degradation().steps();
    w.u32(steps.len() as u32);
    for step in steps {
        match step.rung {
            Rung::HeuristicMinimizer => w.u8(0),
            Rung::ReducedOrder(n) => {
                w.u8(1);
                w.u32(n as u32);
            }
            // `Rung` is non-exhaustive: a future variant needs a format
            // version bump; until then the deepest known rung is the
            // closest conservative encoding.
            Rung::SaturatingCounter | _ => w.u8(2),
        }
        w.str(step.stage);
        w.str(&step.reason);
    }

    // 8. Effective history.
    w.u32(design.effective_history() as u32);

    w.buf
}

fn encode_regex(re: &Regex, w: &mut Writer) {
    match re {
        Regex::Epsilon => w.u8(0),
        Regex::Literal(bit) => {
            w.u8(1);
            w.u8(u8::from(*bit));
        }
        Regex::AnyBit => w.u8(2),
        Regex::Concat(parts) => {
            w.u8(3);
            w.u32(parts.len() as u32);
            for p in parts {
                encode_regex(p, w);
            }
        }
        Regex::Alt(parts) => {
            w.u8(4);
            w.u32(parts.len() as u32);
            for p in parts {
                encode_regex(p, w);
            }
        }
        Regex::Star(inner) => {
            w.u8(5);
            encode_regex(inner, w);
        }
    }
}

fn encode_dfa(dfa: &Dfa, w: &mut Writer) {
    w.u32(dfa.num_states() as u32);
    w.u32(dfa.start());
    for (t, &out) in dfa.transitions().iter().zip(dfa.outputs()) {
        w.u32(t[0]);
        w.u32(t[1]);
        w.u8(u8::from(out));
    }
}

/// Decodes one design payload, validating every field before it reaches a
/// panicking constructor.
///
/// # Errors
///
/// Returns a description of the first inconsistency found — truncation, an
/// out-of-range field, or a constructor-level validation failure.
pub fn decode_design(bytes: &[u8]) -> Result<Design, String> {
    let mut r = Reader::new(bytes);

    // 1. Markov model.
    let order = r.u32()? as usize;
    let n = r.count(4 + 8 + 8)?;
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        let history = r.u32()?;
        let zeros = r.u64()?;
        let ones = r.u64()?;
        counts.push((history, fsmgen::HistoryCounts { zeros, ones }));
    }
    let model =
        MarkovModel::from_counts(order, counts).map_err(|e| format!("markov model: {e}"))?;

    // 2. Pattern sets.
    let width = r.u32()? as usize;
    let mut sets3: [Vec<u32>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for set in &mut sets3 {
        let n = r.count(4)?;
        set.reserve(n);
        for _ in 0..n {
            set.push(r.u32()?);
        }
    }
    let [on, off, dc] = sets3;
    let mut spec =
        FunctionSpec::from_sets(width, on, off).map_err(|e| format!("function spec: {e}"))?;
    for m in dc {
        spec.add_dont_care(m)
            .map_err(|e| format!("function spec don't-care: {e}"))?;
    }
    let dont_care_observations = r.u64()?;
    let total_observations = r.u64()?;
    let sets = PatternSets::from_parts(spec, dont_care_observations, total_observations);

    // 3. Minimized cover.
    let cover_width = r.u32()? as usize;
    if cover_width == 0 || cover_width > MAX_VARS {
        return Err(format!("cover width {cover_width} out of 1..={MAX_VARS}"));
    }
    let n = r.count(8)?;
    let mut cubes = Vec::with_capacity(n);
    for _ in 0..n {
        let mask = r.u32()?;
        let bits = r.u32()?;
        cubes.push(Cube::new(mask, bits));
    }
    let cover = Cover::from_cubes(cover_width, cubes);

    // 4. Optional regex.
    let regex = match r.u8()? {
        0 => None,
        1 => Some(decode_regex(&mut r, 0)?),
        t => return Err(format!("bad regex presence tag {t}")),
    };

    // 5 + 6. Both Moore machines.
    let minimized = decode_dfa(&mut r)?;
    let fsm = decode_dfa(&mut r)?;

    // 7. Degradation report.
    let n = r.count(1)?;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        let rung = match r.u8()? {
            0 => Rung::HeuristicMinimizer,
            1 => Rung::ReducedOrder(r.u32()? as usize),
            2 => Rung::SaturatingCounter,
            t => return Err(format!("bad degradation rung tag {t}")),
        };
        let stage = r.str()?;
        let stage: &'static str = KNOWN_STAGES
            .iter()
            .find(|&&s| s == stage)
            .copied()
            .unwrap_or("unknown");
        let reason = r.str()?;
        steps.push(DegradationStep {
            rung,
            stage,
            reason,
        });
    }
    let degradation = Degradation::from_steps(steps);

    // 8. Effective history.
    let effective_history = r.u32()? as usize;

    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after design", r.remaining()));
    }

    Ok(Design::from_parts(
        model,
        sets,
        cover,
        regex,
        minimized,
        fsm,
        degradation,
        effective_history,
    ))
}

/// Decodes a regex tree, constructing raw variants (the smart constructors
/// normalize, which would break exact round-tripping).
fn decode_regex(r: &mut Reader<'_>, depth: usize) -> Result<Regex, String> {
    if depth > MAX_REGEX_DEPTH {
        return Err(format!("regex nesting exceeds {MAX_REGEX_DEPTH}"));
    }
    let tag = r.u8()?;
    match tag {
        0 => Ok(Regex::Epsilon),
        1 => match r.u8()? {
            0 => Ok(Regex::Literal(false)),
            1 => Ok(Regex::Literal(true)),
            b => Err(format!("bad literal bit {b}")),
        },
        2 => Ok(Regex::AnyBit),
        3 | 4 => {
            let n = r.count(1)?;
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                parts.push(decode_regex(r, depth + 1)?);
            }
            Ok(if tag == 3 {
                Regex::Concat(parts)
            } else {
                Regex::Alt(parts)
            })
        }
        5 => Ok(Regex::Star(Box::new(decode_regex(r, depth + 1)?))),
        t => Err(format!("bad regex tag {t}")),
    }
}

/// Decodes one Moore machine, checking all the invariants
/// [`Dfa::from_parts`] would otherwise assert.
fn decode_dfa(r: &mut Reader<'_>) -> Result<Dfa, String> {
    let n = r.count(4 + 4 + 1)?;
    if n == 0 {
        return Err("DFA with zero states".into());
    }
    let start = r.u32()?;
    if start as usize >= n {
        return Err(format!("DFA start state {start} out of range 0..{n}"));
    }
    let mut transitions = Vec::with_capacity(n);
    let mut accept = Vec::with_capacity(n);
    for s in 0..n {
        let t0 = r.u32()?;
        let t1 = r.u32()?;
        if t0 as usize >= n || t1 as usize >= n {
            return Err(format!("DFA state {s} transition out of range 0..{n}"));
        }
        let out = match r.u8()? {
            0 => false,
            1 => true,
            b => return Err(format!("bad DFA output flag {b}")),
        };
        transitions.push([t0, t1]);
        accept.push(out);
    }
    Ok(Dfa::from_parts(transitions, accept, start))
}

// ---------------------------------------------------------------------------
// Whole-snapshot codec
// ---------------------------------------------------------------------------

/// The FNV-1a digest guarding one record (covers the record's own header
/// fields as well as its payload, so a corrupted length is caught too).
fn record_checksum(fingerprint: u64, verify: u64, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(fingerprint);
    h.write_u64(verify);
    h.write(payload);
    h.finish()
}

/// Encodes a full snapshot — header plus one record per
/// `(fingerprint, verify, design)` triple, in iteration order.
///
/// Nothing in production calls this: no build writes snapshots any more.
/// It is the frozen reference encoder that tests use to build legacy
/// files for the migration and corruption checks.
#[must_use]
pub fn encode_snapshot<'a, I>(records: I) -> Vec<u8>
where
    I: IntoIterator<Item = (u64, u64, &'a Design)>,
{
    let records: Vec<(u64, u64, Vec<u8>)> = records
        .into_iter()
        .map(|(fp, verify, design)| (fp, verify, encode_design(design)))
        .collect();

    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for (fp, verify, payload) in records {
        out.extend_from_slice(&fp.to_le_bytes());
        out.extend_from_slice(&verify.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&record_checksum(fp, verify, &payload).to_le_bytes());
    }
    out
}

/// Decodes a snapshot byte buffer.
///
/// # Errors
///
/// Returns [`SnapshotError`] only for whole-file problems (short header,
/// bad magic, unsupported version). Per-record corruption — checksum
/// mismatches, undecodable payloads, truncation mid-record — is absorbed
/// into [`DecodedSnapshot::skipped`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<DecodedSnapshot, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::TruncatedHeader);
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let declared = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;

    let mut r = Reader::new(&bytes[HEADER_LEN..]);
    let mut decoded = DecodedSnapshot::default();
    for i in 0..declared {
        match decode_record(&mut r) {
            Ok(Some(rec)) => decoded.records.push(rec),
            // Framing intact but the record is bad: skip it, keep going.
            Ok(None) => decoded.skipped += 1,
            // Truncation: everything still declared is gone.
            Err(()) => {
                decoded.skipped += declared - i;
                break;
            }
        }
    }
    Ok(decoded)
}

/// One record: `Ok(Some)` on success, `Ok(None)` for a corrupt-but-framed
/// record (checksum or decode failure), `Err(())` when the buffer ran out.
#[allow(clippy::result_unit_err)]
fn decode_record(r: &mut Reader<'_>) -> Result<Option<SnapshotRecord>, ()> {
    let fingerprint = r.u64().map_err(drop)?;
    let verify = r.u64().map_err(drop)?;
    let len = r.u32().map_err(drop)? as usize;
    // A corrupted length larger than the file reads as truncation: record
    // boundaries are unrecoverable past this point.
    let payload = r.bytes(len).map_err(drop)?;
    let stored = r.u64().map_err(drop)?;
    if stored != record_checksum(fingerprint, verify, payload) {
        return Ok(None);
    }
    match decode_design(payload) {
        Ok(design) => Ok(Some(SnapshotRecord {
            fingerprint,
            verify,
            design: Arc::new(design),
        })),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmgen::Designer;
    use fsmgen_traces::BitTrace;

    fn sample_design() -> Design {
        let t: BitTrace = "0000 1000 1011 1101 1110 1111".parse().unwrap();
        Designer::new(2).design_from_trace(&t).unwrap()
    }

    #[test]
    fn design_round_trips_exactly() {
        let design = sample_design();
        let bytes = encode_design(&design);
        let back = decode_design(&bytes).unwrap();
        assert_eq!(design, back);
    }

    #[test]
    fn snapshot_round_trips() {
        let design = sample_design();
        let bytes = encode_snapshot([(7u64, 11u64, &design), (13u64, 17u64, &design)]);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded.skipped, 0);
        assert_eq!(decoded.records.len(), 2);
        assert_eq!(decoded.records[0].fingerprint, 7);
        assert_eq!(decoded.records[0].verify, 11);
        assert_eq!(*decoded.records[1].design, design);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let bytes = encode_snapshot(std::iter::empty());
        let decoded = decode_snapshot(&bytes).unwrap();
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.skipped, 0);
    }

    #[test]
    fn header_errors_are_structured() {
        assert!(matches!(
            decode_snapshot(&[]),
            Err(SnapshotError::TruncatedHeader)
        ));
        assert!(matches!(
            decode_snapshot(b"NOTAFARM\x01\x00\x00\x00\x00\x00\x00\x00"),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = encode_snapshot(std::iter::empty());
        bytes[8] = 99;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn corrupt_record_is_skipped_not_fatal() {
        let design = sample_design();
        let bytes = encode_snapshot([(1u64, 2u64, &design), (3u64, 4u64, &design)]);
        // Flip a byte inside the first record's payload.
        let mut corrupted = bytes.clone();
        corrupted[HEADER_LEN + 25] ^= 0xFF;
        let decoded = decode_snapshot(&corrupted).unwrap();
        assert_eq!(decoded.skipped, 1);
        assert_eq!(decoded.records.len(), 1);
        assert_eq!(decoded.records[0].fingerprint, 3);
    }

    #[test]
    fn corrupt_length_field_is_caught_by_checksum() {
        let design = sample_design();
        let bytes = encode_snapshot([(1u64, 2u64, &design)]);
        // The payload-length field sits right after fingerprint + verify.
        let mut corrupted = bytes.clone();
        corrupted[HEADER_LEN + 16] = corrupted[HEADER_LEN + 16].wrapping_sub(1);
        let decoded = decode_snapshot(&corrupted).unwrap();
        assert_eq!(decoded.records.len(), 0);
        assert_eq!(decoded.skipped, 1);
    }

    #[test]
    fn truncation_counts_all_remaining_records() {
        let design = sample_design();
        let bytes = encode_snapshot([(1u64, 2u64, &design), (3u64, 4u64, &design)]);
        for cut in [bytes.len() - 1, bytes.len() / 2, HEADER_LEN + 3] {
            let decoded = decode_snapshot(&bytes[..cut]).unwrap();
            assert_eq!(
                decoded.records.len() + decoded.skipped,
                2,
                "cut at {cut} lost records silently"
            );
        }
    }
}
