//! The content-addressed netlist store: one LRU, one capacity, holding for
//! each circuit the request text it last arrived as, the shared parsed
//! [`Netlist`], its structural digest and the lazily compiled program.
//!
//! An entry is reachable two ways. **By text**: a word-at-a-time hash of
//! the request bytes picks a candidate and a full byte comparison confirms
//! it, so a repeat submission costs one pass over its bytes and no parse —
//! and a hash collision can never serve the wrong circuit. **By structural
//! digest** ([`parsim_checkpoint::netlist_digest`], the key the checkpoint
//! store uses to refuse foreign snapshots): equal digests mean the same
//! nodes in the same order and the same elements, so `NodeId`s line up.
//! That is how library callers of [`Server::submit`], and texts that differ
//! only in whitespace or comments, land on the same entry, share one
//! compiled program and pack into one pass.
//!
//! Parsing and lowering both happen outside the store's lock; lowering is
//! a per-entry once-cell, so a second pass of the same digest waits for
//! the one compile while submits and passes of other digests go on.
//!
//! [`Server::submit`]: crate::Server::submit

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use parsim_checkpoint::netlist_digest;
use parsim_netlist::compile::CompiledProgram;
use parsim_netlist::{Netlist, ParseNetlistError};
use parsim_telemetry::{ServerCounter, ServerGauge, ServerRegistry};

/// LRU-bounded store of parsed netlists and their compiled programs.
/// Internally locked; shared between transport threads and the scheduler.
/// Its traffic is counted in the server's registry (`netlist_hits/misses`
/// for text lookups, `cache_hits/misses/evictions` and `cached_programs`
/// for programs).
#[derive(Debug)]
pub struct NetlistStore {
    capacity: usize,
    metrics: Arc<ServerRegistry>,
    /// LRU order: front is coldest, back hottest.
    entries: Mutex<Vec<Entry>>,
}

#[derive(Debug)]
struct Entry {
    digest: u64,
    netlist: Arc<Netlist>,
    /// The request text most recently parsed into this entry, with its
    /// [`text_key`]. `None` for an entry only ever reached by digest.
    text: Option<(u64, String)>,
    program: Arc<OnceLock<Arc<CompiledProgram>>>,
}

/// A netlist as the store shares it: every submission of one circuit gets
/// the same `Arc`.
#[derive(Debug, Clone)]
pub struct Interned {
    pub netlist: Arc<Netlist>,
    pub digest: u64,
}

/// 64-bit key of the request bytes, one multiply per 8-byte word. It only
/// nominates a candidate — [`NetlistStore::lookup_text`] compares every
/// byte before trusting it — so it needs speed, not collision resistance.
fn text_key(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(K);
        h ^ (h >> 32)
    };
    let mut words = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
}

impl NetlistStore {
    /// A store holding at most `capacity` circuits (at least 1), counting
    /// into `metrics`.
    pub fn new(capacity: usize, metrics: Arc<ServerRegistry>) -> NetlistStore {
        NetlistStore {
            capacity: capacity.max(1),
            metrics,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The shared netlist for a request `text`: the stored one when these
    /// exact bytes were seen before, otherwise parsed and digested now and
    /// stored under both keys. Malformed text is an error and is never
    /// stored.
    pub fn intern_text(&self, text: String) -> Result<Interned, ParseNetlistError> {
        let key = text_key(text.as_bytes());
        if let Some(found) = self.lookup_text(key, &text) {
            self.metrics.inc(ServerCounter::NetlistHits);
            return Ok(found);
        }
        let netlist = Arc::new(Netlist::from_text(&text)?);
        let digest = netlist_digest(&netlist);
        self.metrics.inc(ServerCounter::NetlistMisses);
        let mut entries = self.lock();
        let (entry, evicted) = self.entry_for(&mut entries, digest, &netlist);
        let replaced = entry.text.replace((key, text));
        let netlist = entry.netlist.clone();
        drop(entries);
        // Freed only now: an evicted circuit is about two small allocations
        // per node and two per element (a name and a fan-out or port list
        // each), and no other submit should wait on the lock for them.
        drop((evicted, replaced));
        Ok(Interned { netlist, digest })
    }

    /// The entry whose text is byte-for-byte `text`, made hottest. `key` is
    /// a parameter so a test can present two texts under one key.
    fn lookup_text(&self, key: u64, text: &str) -> Option<Interned> {
        let mut entries = self.lock();
        let pos = entries
            .iter()
            .position(|e| matches!(&e.text, Some((k, t)) if *k == key && t == text))?;
        let entry = entries.remove(pos);
        let found = Interned { netlist: entry.netlist.clone(), digest: entry.digest };
        entries.push(entry);
        Some(found)
    }

    /// The compiled program for `digest`, lowering `netlist` if no compiled
    /// pass of this digest has yet, and whether it was found compiled. An entry
    /// evicted since the job was submitted is re-created from the job's own
    /// netlist.
    pub fn program(&self, digest: u64, netlist: &Arc<Netlist>) -> (Arc<CompiledProgram>, bool) {
        let (cell, _evicted) = {
            let mut entries = self.lock();
            let (entry, evicted) = self.entry_for(&mut entries, digest, netlist);
            (entry.program.clone(), evicted)
        };
        let mut compiled_now = false;
        let program = cell
            .get_or_init(|| {
                compiled_now = true;
                Arc::new(CompiledProgram::compile(netlist))
            })
            .clone();
        if compiled_now {
            self.metrics.inc(ServerCounter::CacheMisses);
            self.publish_programs(&self.lock());
        } else {
            self.metrics.inc(ServerCounter::CacheHits);
        }
        (program, !compiled_now)
    }

    /// Resident circuit count.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        // Every update leaves the vector a valid LRU list, so a panicking
        // holder cannot have left it half-written.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The entry for `digest`, made hottest; inserted around `netlist` when
    /// absent, in which case the coldest entry is evicted at capacity and
    /// handed back for the caller to drop once the lock is released.
    fn entry_for<'a>(
        &self,
        entries: &'a mut Vec<Entry>,
        digest: u64,
        netlist: &Arc<Netlist>,
    ) -> (&'a mut Entry, Option<Entry>) {
        let mut evicted = None;
        let entry = match entries.iter().position(|e| e.digest == digest) {
            Some(pos) => entries.remove(pos),
            None => {
                if entries.len() == self.capacity {
                    evicted = Some(entries.remove(0));
                    self.metrics.inc(ServerCounter::CacheEvictions);
                    self.publish_programs(entries);
                }
                Entry {
                    digest,
                    netlist: netlist.clone(),
                    text: None,
                    program: Arc::default(),
                }
            }
        };
        entries.push(entry);
        (entries.last_mut().expect("just pushed"), evicted)
    }

    fn publish_programs(&self, entries: &[Entry]) {
        let compiled = entries.iter().filter(|e| e.program.get().is_some()).count();
        self.metrics.set_gauge(ServerGauge::CachedPrograms, compiled as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::{Delay, ElementKind};
    use parsim_netlist::Builder;

    fn chain(len: usize) -> Arc<Netlist> {
        let mut b = Builder::new();
        let clk = b.node("clk", 1);
        b.element(
            "osc",
            ElementKind::Clock { half_period: 5, offset: 5 },
            Delay(1),
            &[],
            &[clk],
        )
        .unwrap();
        let mut prev = clk;
        for i in 0..len {
            let n = b.node(&format!("n{i}"), 1);
            b.element(&format!("inv{i}"), ElementKind::Not, Delay(1), &[prev], &[n])
                .unwrap();
            prev = n;
        }
        Arc::new(b.finish().unwrap())
    }

    fn store(capacity: usize) -> NetlistStore {
        NetlistStore::new(capacity, Arc::new(ServerRegistry::new()))
    }

    /// `(program hits, misses, evictions)`.
    fn program_stats(s: &NetlistStore) -> (u64, u64, u64) {
        (
            s.metrics.counter(ServerCounter::CacheHits),
            s.metrics.counter(ServerCounter::CacheMisses),
            s.metrics.counter(ServerCounter::CacheEvictions),
        )
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_program() {
        let store = store(4);
        let n = chain(3);
        let d = netlist_digest(&n);
        let (p1, hit1) = store.program(d, &n);
        let (p2, hit2) = store.program(d, &n);
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&p1, &p2), "hit must share the compiled program");
        assert_eq!(program_stats(&store), (1, 1, 0));
        assert_eq!(store.metrics.gauge(ServerGauge::CachedPrograms), 1);
    }

    #[test]
    fn lru_evicts_coldest_beyond_capacity() {
        let store = store(2);
        let (a, b, c) = (chain(1), chain(2), chain(3));
        let (da, db, dc) = (netlist_digest(&a), netlist_digest(&b), netlist_digest(&c));
        store.program(da, &a);
        store.program(db, &b);
        store.program(da, &a); // touch a: b becomes coldest
        store.program(dc, &c); // evicts b
        assert_eq!(store.len(), 2);
        assert!(store.program(da, &a).1, "a stayed");
        assert!(!store.program(db, &b).1, "b was evicted");
        let (_, _, evictions) = program_stats(&store);
        assert_eq!(evictions, 2, "c evicted b, then re-adding b evicted c");
        assert_eq!(store.metrics.gauge(ServerGauge::CachedPrograms), 2);
    }

    #[test]
    fn structurally_identical_netlists_share_a_digest() {
        // Two independently built but identical netlists — the situation
        // two tenants submitting "the same" circuit produce.
        assert_eq!(netlist_digest(&chain(4)), netlist_digest(&chain(4)));
        assert_ne!(netlist_digest(&chain(4)), netlist_digest(&chain(5)));
    }

    #[test]
    fn same_text_twice_parses_once_and_shares_the_netlist() {
        let store = store(4);
        let text = chain(3).to_text();
        let first = store.intern_text(text.clone()).unwrap();
        let second = store.intern_text(text).unwrap();
        assert!(Arc::ptr_eq(&first.netlist, &second.netlist));
        assert_eq!(first.digest, second.digest);
        assert_eq!(store.metrics.counter(ServerCounter::NetlistMisses), 1);
        assert_eq!(store.metrics.counter(ServerCounter::NetlistHits), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn a_key_collision_is_a_miss_not_the_wrong_circuit() {
        let store = store(4);
        let (short, long) = (chain(2).to_text(), chain(3).to_text());
        let stored = store.intern_text(short.clone()).unwrap();
        let key = text_key(short.as_bytes());
        assert!(store.lookup_text(key, &short).is_some(), "the key finds its own text");
        assert!(
            store.lookup_text(key, &long).is_none(),
            "same key, other bytes: the byte comparison refuses it"
        );
        let other = store.intern_text(long).unwrap();
        assert_ne!(other.digest, stored.digest);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn text_key_reads_every_byte_and_the_length() {
        let base = b"node clk 1\nelem osc clock:5:5 delay=1 out=clk\n";
        let key = text_key(base);
        for i in 0..base.len() {
            let mut flipped = base.to_vec();
            flipped[i] ^= 1;
            assert_ne!(text_key(&flipped), key, "byte {i} does not reach the key");
        }
        let mut padded = base.to_vec();
        padded.push(0);
        assert_ne!(text_key(&padded), key, "a trailing zero byte changes the key");
    }

    #[test]
    fn texts_differing_in_a_comment_share_one_entry() {
        let store = store(4);
        let plain = chain(3).to_text();
        let commented = format!("# same circuit, another tenant's header\n{plain}");
        let a = store.intern_text(plain.clone()).unwrap();
        let b = store.intern_text(commented.clone()).unwrap();
        assert_eq!(a.digest, b.digest);
        assert!(Arc::ptr_eq(&a.netlist, &b.netlist), "one entry, one netlist");
        assert_eq!(store.len(), 1);
        assert_eq!(store.metrics.counter(ServerCounter::NetlistMisses), 2);
        // The entry answers to the text it saw last without a parse.
        store.intern_text(commented).unwrap();
        assert_eq!(store.metrics.counter(ServerCounter::NetlistHits), 1);
    }

    #[test]
    fn malformed_text_is_never_stored() {
        let store = store(4);
        store.intern_text(chain(1).to_text()).unwrap();
        for _ in 0..2 {
            assert!(store.intern_text("not a netlist".into()).is_err());
        }
        assert_eq!(store.len(), 1);
        assert_eq!(store.metrics.counter(ServerCounter::NetlistMisses), 1);
    }
}
