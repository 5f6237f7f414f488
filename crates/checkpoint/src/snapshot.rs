//! The engine-agnostic snapshot and its binary encoding.
//!
//! # On-disk layout (version 1)
//!
//! ```text
//! +----------------------------+
//! | magic  "PSIMCKPT"  (8 B)   |
//! | version u32                |
//! | netlist digest u64         |
//! | section count u32          |
//! | header CRC32 u32           |  over the 24 bytes above
//! +----------------------------+
//! | section id u32             |\
//! | payload len u64            | }  repeated `section count` times
//! | payload CRC32 u32          | |
//! | payload bytes              |/
//! +----------------------------+
//! ```
//!
//! All integers are little-endian. Sections are length-prefixed and
//! individually checksummed, so truncation anywhere in the file — the
//! torn-write case — is caught either by a short read or a CRC mismatch,
//! never deserialized into garbage. Unknown section ids are skipped on
//! read (forward compatibility); missing required sections are an error.
//!
//! The snapshot itself is a *canonical cut* of engine state at time `T`:
//! every engine can produce one and every engine can resume from one,
//! because all four agree on waveforms and therefore on per-node values,
//! per-element storage, and the set of already-computed events beyond the
//! cut. See DESIGN.md §10 for the equivalence argument.

use parsim_logic::{ElemState, Value};
use parsim_netlist::Netlist;

use crate::crc::crc32;
use crate::error::CheckpointError;

/// File magic, first 8 bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"PSIMCKPT";
/// Current format version.
pub const VERSION: u32 = 1;

/// Fixed header size in bytes (magic + version + digest + count + CRC).
pub const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4;

const SEC_META: u32 = 1;
const SEC_VALUES: u32 = 2;
const SEC_SCHED: u32 = 3;
const SEC_STATES: u32 = 4;
const SEC_PENDING: u32 = 5;
const SEC_CHANGES: u32 = 6;

/// One computed-but-not-yet-applied event: at `time`, drive `node` to
/// `value`. Times are strictly greater than the snapshot cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingEvent {
    pub time: u64,
    pub node: u32,
    pub value: Value,
}

/// A watched-node change that already happened (at or before the cut).
/// Accumulated across segments so the final [`SimResult`] waveforms are
/// identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeRecord {
    pub time: u64,
    pub node: u32,
    pub value: Value,
}

/// A barrier-consistent cut of simulation state at time `time`.
///
/// The representation is engine-agnostic: the sequential, synchronous,
/// and chaotic engines capture and restore it exactly; the compiled
/// engine maps it through its slot numbering. `pending` holds every
/// event that evaluation at or before the cut scheduled for after the
/// cut (the paper's "events in flight"); `last_scheduled` /
/// `last_sched_time` carry the monotone-transport bookkeeping each
/// output port needs so resumed scheduling stays bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Horizon (`SimConfig::end_time`) of the run that captured this.
    pub end_time: u64,
    /// The cut: all state reflects simulation through this tick.
    pub time: u64,
    /// Checkpoint ordinal within the run (1 = first checkpoint).
    pub step: u64,
    /// RNG / chaos seeds so perturbed schedules replay identically.
    pub seeds: [u64; 2],
    /// Per-node value at the cut (`valid_until` clocks are implied: a
    /// restored node is valid exactly up to `time`).
    pub values: Vec<Value>,
    /// Per-node last value scheduled by its driver (kept events only).
    pub last_scheduled: Vec<Value>,
    /// Per-node time of that last kept schedule.
    pub last_sched_time: Vec<u64>,
    /// Per-element sequential storage (flops, latches, memories).
    pub elem_states: Vec<ElemState>,
    /// Events beyond the cut, sorted by `(time, node)`.
    pub pending: Vec<PendingEvent>,
    /// Watched changes at or before the cut, in emission order.
    pub changes: Vec<ChangeRecord>,
}

impl EngineSnapshot {
    /// Every engine's fresh start on `netlist`: time 0, all values and
    /// last-scheduled values X, zero schedule times, initial element
    /// states, nothing pending.
    pub fn shaped_for(netlist: &Netlist, end_time: u64) -> EngineSnapshot {
        EngineSnapshot {
            end_time,
            time: 0,
            step: 0,
            seeds: [0, 0],
            values: netlist.nodes().iter().map(|n| Value::x(n.width())).collect(),
            last_scheduled: netlist.nodes().iter().map(|n| Value::x(n.width())).collect(),
            last_sched_time: vec![0; netlist.num_nodes()],
            elem_states: netlist
                .elements()
                .iter()
                .map(|e| ElemState::init(e.kind()))
                .collect(),
            pending: Vec::new(),
            changes: Vec::new(),
        }
    }

    /// Checks that the vector shapes match `netlist`.
    pub fn check_shape(&self, netlist: &Netlist) -> Result<(), CheckpointError> {
        let nn = netlist.num_nodes();
        let ne = netlist.num_elements();
        if self.values.len() != nn
            || self.last_scheduled.len() != nn
            || self.last_sched_time.len() != nn
        {
            return Err(CheckpointError::ShapeMismatch {
                detail: format!(
                    "snapshot has {} node entries, netlist has {nn}",
                    self.values.len()
                ),
            });
        }
        if self.elem_states.len() != ne {
            return Err(CheckpointError::ShapeMismatch {
                detail: format!(
                    "snapshot has {} element states, netlist has {ne}",
                    self.elem_states.len()
                ),
            });
        }
        for ev in &self.pending {
            if ev.node as usize >= nn {
                return Err(CheckpointError::ShapeMismatch {
                    detail: format!("pending event names node {} of {nn}", ev.node),
                });
            }
        }
        Ok(())
    }

    /// Serializes to the on-disk format with `digest` in the header.
    pub fn encode(&self, digest: u64) -> Vec<u8> {
        let mut sections: Vec<(u32, Vec<u8>)> = Vec::new();

        let mut meta = Vec::with_capacity(8 * 7);
        put_u64(&mut meta, self.end_time);
        put_u64(&mut meta, self.time);
        put_u64(&mut meta, self.step);
        put_u64(&mut meta, self.seeds[0]);
        put_u64(&mut meta, self.seeds[1]);
        put_u64(&mut meta, self.values.len() as u64);
        put_u64(&mut meta, self.elem_states.len() as u64);
        sections.push((SEC_META, meta));

        let mut vals = Vec::with_capacity(self.values.len() * 17);
        for v in &self.values {
            put_value(&mut vals, v);
        }
        sections.push((SEC_VALUES, vals));

        let mut sched = Vec::with_capacity(self.last_scheduled.len() * 25);
        for (v, t) in self.last_scheduled.iter().zip(&self.last_sched_time) {
            put_value(&mut sched, v);
            put_u64(&mut sched, *t);
        }
        sections.push((SEC_SCHED, sched));

        let mut states = Vec::new();
        for s in &self.elem_states {
            put_state(&mut states, s);
        }
        sections.push((SEC_STATES, states));

        let mut pending = Vec::with_capacity(8 + self.pending.len() * 29);
        put_u64(&mut pending, self.pending.len() as u64);
        for ev in &self.pending {
            put_u64(&mut pending, ev.time);
            put_u32(&mut pending, ev.node);
            put_value(&mut pending, &ev.value);
        }
        sections.push((SEC_PENDING, pending));

        let mut changes = Vec::with_capacity(8 + self.changes.len() * 29);
        put_u64(&mut changes, self.changes.len() as u64);
        for c in &self.changes {
            put_u64(&mut changes, c.time);
            put_u32(&mut changes, c.node);
            put_value(&mut changes, &c.value);
        }
        sections.push((SEC_CHANGES, changes));

        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, digest);
        put_u32(&mut out, sections.len() as u32);
        let hcrc = crc32(&out);
        put_u32(&mut out, hcrc);
        for (id, payload) in &sections {
            put_u32(&mut out, *id);
            put_u64(&mut out, payload.len() as u64);
            put_u32(&mut out, crc32(payload));
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses and validates a snapshot. `expect_digest` must match the
    /// header; every section CRC must check out; required sections must
    /// be present. `path` is used only for error messages.
    pub fn decode(bytes: &[u8], expect_digest: u64, path: &str) -> Result<EngineSnapshot, CheckpointError> {
        let corrupt = |detail: String| CheckpointError::Corrupt {
            path: path.to_string(),
            detail,
        };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic {
                path: path.to_string(),
            });
        }
        let version = get_u32(&bytes[8..12]);
        if version != VERSION {
            return Err(CheckpointError::BadVersion {
                path: path.to_string(),
                found: version,
            });
        }
        let digest = get_u64(&bytes[12..20]);
        let nsections = get_u32(&bytes[20..24]) as usize;
        let hcrc = get_u32(&bytes[24..28]);
        if crc32(&bytes[..24]) != hcrc {
            return Err(corrupt("header CRC mismatch".to_string()));
        }
        if digest != expect_digest {
            return Err(CheckpointError::DigestMismatch {
                path: path.to_string(),
                expected: expect_digest,
                found: digest,
            });
        }

        let mut meta: Option<&[u8]> = None;
        let mut values: Option<&[u8]> = None;
        let mut sched: Option<&[u8]> = None;
        let mut states: Option<&[u8]> = None;
        let mut pending: Option<&[u8]> = None;
        let mut changes: Option<&[u8]> = None;

        let mut at = HEADER_LEN;
        for i in 0..nsections {
            if bytes.len() < at + 16 {
                return Err(corrupt(format!("truncated in section {i} header")));
            }
            let id = get_u32(&bytes[at..at + 4]);
            let len = get_u64(&bytes[at + 4..at + 12]) as usize;
            let scrc = get_u32(&bytes[at + 12..at + 16]);
            at += 16;
            if bytes.len() < at + len {
                return Err(corrupt(format!(
                    "section {id} claims {len} bytes but only {} remain",
                    bytes.len() - at
                )));
            }
            let payload = &bytes[at..at + len];
            at += len;
            if crc32(payload) != scrc {
                return Err(corrupt(format!("section {id} CRC mismatch")));
            }
            match id {
                SEC_META => meta = Some(payload),
                SEC_VALUES => values = Some(payload),
                SEC_SCHED => sched = Some(payload),
                SEC_STATES => states = Some(payload),
                SEC_PENDING => pending = Some(payload),
                SEC_CHANGES => changes = Some(payload),
                // Unknown sections from a newer minor writer: ignore.
                _ => {}
            }
        }

        let meta = meta.ok_or_else(|| corrupt("missing META section".to_string()))?;
        if meta.len() != 56 {
            return Err(corrupt(format!("META section is {} bytes, want 56", meta.len())));
        }
        let end_time = get_u64(&meta[0..8]);
        let time = get_u64(&meta[8..16]);
        let step = get_u64(&meta[16..24]);
        let seeds = [get_u64(&meta[24..32]), get_u64(&meta[32..40])];
        let num_nodes = get_u64(&meta[40..48]) as usize;
        let num_elems = get_u64(&meta[48..56]) as usize;

        let mut r = Reader::new(values.ok_or_else(|| corrupt("missing VALUES section".to_string()))?);
        let mut vals = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            vals.push(r.value().map_err(|e| corrupt(format!("VALUES: {e}")))?);
        }
        r.finish().map_err(|e| corrupt(format!("VALUES: {e}")))?;

        let mut r = Reader::new(sched.ok_or_else(|| corrupt("missing SCHED section".to_string()))?);
        let mut last_scheduled = Vec::with_capacity(num_nodes);
        let mut last_sched_time = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            last_scheduled.push(r.value().map_err(|e| corrupt(format!("SCHED: {e}")))?);
            last_sched_time.push(r.u64().map_err(|e| corrupt(format!("SCHED: {e}")))?);
        }
        r.finish().map_err(|e| corrupt(format!("SCHED: {e}")))?;

        let mut r = Reader::new(states.ok_or_else(|| corrupt("missing STATES section".to_string()))?);
        let mut elem_states = Vec::with_capacity(num_elems);
        for _ in 0..num_elems {
            elem_states.push(r.state().map_err(|e| corrupt(format!("STATES: {e}")))?);
        }
        r.finish().map_err(|e| corrupt(format!("STATES: {e}")))?;

        let mut r = Reader::new(pending.ok_or_else(|| corrupt("missing PENDING section".to_string()))?);
        let n = r.u64().map_err(|e| corrupt(format!("PENDING: {e}")))? as usize;
        let mut pend = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let time = r.u64().map_err(|e| corrupt(format!("PENDING: {e}")))?;
            let node = r.u32().map_err(|e| corrupt(format!("PENDING: {e}")))?;
            let value = r.value().map_err(|e| corrupt(format!("PENDING: {e}")))?;
            pend.push(PendingEvent { time, node, value });
        }
        r.finish().map_err(|e| corrupt(format!("PENDING: {e}")))?;

        let mut r = Reader::new(changes.ok_or_else(|| corrupt("missing CHANGES section".to_string()))?);
        let n = r.u64().map_err(|e| corrupt(format!("CHANGES: {e}")))? as usize;
        let mut chg = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let time = r.u64().map_err(|e| corrupt(format!("CHANGES: {e}")))?;
            let node = r.u32().map_err(|e| corrupt(format!("CHANGES: {e}")))?;
            let value = r.value().map_err(|e| corrupt(format!("CHANGES: {e}")))?;
            chg.push(ChangeRecord { time, node, value });
        }
        r.finish().map_err(|e| corrupt(format!("CHANGES: {e}")))?;

        Ok(EngineSnapshot {
            end_time,
            time,
            step,
            seeds,
            values: vals,
            last_scheduled,
            last_sched_time,
            elem_states,
            pending: pend,
            changes: chg,
        })
    }
}

// ---------------------------------------------------------------- encoding

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    let (a, b) = v.to_planes();
    out.push(v.width());
    put_u64(out, a);
    put_u64(out, b);
}

const STATE_NONE: u8 = 0;
const STATE_STORED: u8 = 1;
const STATE_EDGE: u8 = 2;
const STATE_MEM: u8 = 3;

fn put_state(out: &mut Vec<u8>, s: &ElemState) {
    match s {
        ElemState::None => out.push(STATE_NONE),
        ElemState::Stored(v) => {
            out.push(STATE_STORED);
            put_value(out, v);
        }
        ElemState::Edge { q, last_clk } => {
            out.push(STATE_EDGE);
            put_value(out, q);
            put_value(out, last_clk);
        }
        ElemState::Mem { cells, q, last_clk } => {
            out.push(STATE_MEM);
            put_u64(out, cells.len() as u64);
            for c in cells {
                put_value(out, c);
            }
            put_value(out, q);
            put_value(out, last_clk);
        }
    }
}

fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().unwrap())
}

fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// Bounds-checked sequential reader over a section payload.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.at < n {
            return Err(format!(
                "need {n} bytes at offset {}, have {}",
                self.at,
                self.buf.len() - self.at
            ));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(get_u32(self.take(4)?))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(get_u64(self.take(8)?))
    }

    fn value(&mut self) -> Result<Value, String> {
        let width = self.take(1)?[0];
        if width == 0 || width > 64 {
            return Err(format!("bad value width {width}"));
        }
        let a = self.u64()?;
        let b = self.u64()?;
        Ok(Value::from_planes(width, a, b))
    }

    fn state(&mut self) -> Result<ElemState, String> {
        match self.take(1)?[0] {
            STATE_NONE => Ok(ElemState::None),
            STATE_STORED => Ok(ElemState::Stored(self.value()?)),
            STATE_EDGE => Ok(ElemState::Edge {
                q: self.value()?,
                last_clk: self.value()?,
            }),
            STATE_MEM => {
                let n = self.u64()? as usize;
                if n > (1 << 24) {
                    return Err(format!("memory claims {n} cells"));
                }
                let mut cells = Vec::with_capacity(n);
                for _ in 0..n {
                    cells.push(self.value()?);
                }
                Ok(ElemState::Mem {
                    cells,
                    q: self.value()?,
                    last_clk: self.value()?,
                })
            }
            tag => Err(format!("unknown element-state tag {tag}")),
        }
    }

    fn finish(&self) -> Result<(), String> {
        if self.at != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.at
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineSnapshot {
        EngineSnapshot {
            end_time: 500,
            time: 120,
            step: 3,
            seeds: [7, 11],
            values: vec![Value::bit(true), Value::x(8), Value::from_u64(17, 5)],
            last_scheduled: vec![Value::bit(false), Value::from_u64(3, 8), Value::x(5)],
            last_sched_time: vec![119, 7, 0],
            elem_states: vec![
                ElemState::None,
                ElemState::Stored(Value::from_u64(1, 4)),
                ElemState::Edge {
                    q: Value::bit(true),
                    last_clk: Value::bit(false),
                },
                ElemState::Mem {
                    cells: vec![Value::from_u64(1, 8), Value::from_u64(2, 8)],
                    q: Value::from_u64(1, 8),
                    last_clk: Value::bit(true),
                },
            ],
            pending: vec![
                PendingEvent {
                    time: 125,
                    node: 2,
                    value: Value::from_u64(9, 5),
                },
                PendingEvent {
                    time: 140,
                    node: 0,
                    value: Value::bit(false),
                },
            ],
            changes: vec![ChangeRecord {
                time: 5,
                node: 0,
                value: Value::bit(true),
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let bytes = snap.encode(0xDEAD_BEEF_0BAD_F00D);
        let back = EngineSnapshot::decode(&bytes, 0xDEAD_BEEF_0BAD_F00D, "t").unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn digest_mismatch_rejected() {
        let bytes = sample().encode(1);
        let err = EngineSnapshot::decode(&bytes, 2, "t").unwrap_err();
        assert!(matches!(err, CheckpointError::DigestMismatch { .. }));
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let snap = sample();
        let bytes = snap.encode(42);
        for cut in 0..bytes.len() {
            let err = EngineSnapshot::decode(&bytes[..cut], 42, "t").unwrap_err();
            // Any prefix must fail loudly — magic, header CRC, section
            // CRC, or truncation — never a partially-loaded snapshot.
            match err {
                CheckpointError::Corrupt { .. }
                | CheckpointError::BadMagic { .. }
                | CheckpointError::DigestMismatch { .. }
                | CheckpointError::BadVersion { .. } => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected_or_roundtrips() {
        let snap = sample();
        let good = snap.encode(42);
        // Flipping any single bit must either fail validation or (never,
        // for CRC32 over short payloads) produce the identical snapshot.
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            match EngineSnapshot::decode(&bad, 42, "t") {
                Err(_) => {}
                Ok(back) => panic!(
                    "bit flip at byte {byte} went undetected (decoded = snapshot: {})",
                    back == snap
                ),
            }
        }
    }
}
