//! The n×n SPSC mailbox grid of the asynchronous algorithm.
//!
//! §4 of the paper: "each processor owns n FIFO queues (including one for
//! itself), where n is the number of processors, with each queue
//! corresponding to one of the other processors. The processors only
//! remove elements from queues they own, and add elements to queues that
//! correspond to them." A [`GridSender`] sends each item to the processor
//! that owns it along its row of queues; a [`GridReceiver`] drains its
//! column.

use crate::spsc::{channel, Receiver, Sender};
use parsim_trace::{EventKind, WorkerTracer};

/// The sending side owned by one processor: one SPSC sender per peer.
///
/// # Examples
///
/// ```
/// let (mut senders, mut receivers) = parsim_queue::grid::<u32>(2);
/// senders[0].send_to(1, 10);
/// senders[1].send_to(1, 11);
/// assert_eq!(receivers[0].recv(), None);
/// let got: Vec<u32> = std::iter::from_fn(|| receivers[1].recv()).collect();
/// assert_eq!(got.len(), 2);
/// ```
pub struct GridSender<T> {
    to: Vec<Sender<T>>,
}

impl<T> GridSender<T> {
    /// Sends one item to processor `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn send_to(&mut self, target: usize, item: T) {
        self.to[target].send(item);
    }

    /// The number of peers (including self).
    pub fn peers(&self) -> usize {
        self.to.len()
    }

    /// [`GridSender::send_to`] plus a `GridSend` instant tagged with the
    /// destination processor.
    #[inline]
    pub fn send_to_traced(&mut self, target: usize, item: T, tracer: &mut WorkerTracer) {
        self.send_to(target, item);
        tracer.instant(EventKind::GridSend, target as u32);
    }
}

/// The receiving side owned by one processor: one SPSC receiver per peer.
pub struct GridReceiver<T> {
    from: Vec<Receiver<T>>,
    cursor: usize,
}

impl<T> GridReceiver<T> {
    /// Dequeues the next available item, polling peers round-robin from
    /// where the last successful receive left off (fairness across
    /// senders).
    pub fn recv(&mut self) -> Option<T> {
        self.recv_from().map(|(_, item)| item)
    }

    /// [`GridReceiver::recv`] plus, on success, a `GridRecv` instant
    /// tagged with the source peer the item came from.
    #[inline]
    pub fn recv_traced(&mut self, tracer: &mut WorkerTracer) -> Option<T> {
        let (src, item) = self.recv_from()?;
        tracer.instant(EventKind::GridRecv, src as u32);
        Some(item)
    }

    /// The poll loop behind both receives: the next item and the peer it
    /// came from.
    #[inline]
    fn recv_from(&mut self) -> Option<(usize, T)> {
        let n = self.from.len();
        for i in 0..n {
            let idx = (self.cursor + i) % n;
            if let Some(item) = self.from[idx].recv() {
                self.cursor = idx;
                return Some((idx, item));
            }
        }
        None
    }

    /// True if every incoming queue is currently empty (advisory).
    pub fn is_empty(&self) -> bool {
        self.from.iter().all(Receiver::is_empty)
    }

    /// The number of peers (including self).
    pub fn peers(&self) -> usize {
        self.from.len()
    }
}

/// Builds an n×n grid of SPSC queues, returning one sender bundle and one
/// receiver bundle per processor.
///
/// `senders[i]` writes only to queues whose single reader is the indexed
/// receiver; no queue ever has two writers or two readers.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn grid<T>(n: usize) -> (Vec<GridSender<T>>, Vec<GridReceiver<T>>) {
    assert!(n > 0, "grid needs at least one processor");
    let mut senders: Vec<GridSender<T>> = (0..n)
        .map(|_| GridSender {
            to: Vec::with_capacity(n),
        })
        .collect();
    let mut receivers: Vec<GridReceiver<T>> = (0..n)
        .map(|_| GridReceiver {
            from: Vec::with_capacity(n),
            cursor: 0,
        })
        .collect();
    for sender in senders.iter_mut() {
        for receiver in receivers.iter_mut() {
            let (tx, rx) = channel();
            sender.to.push(tx);
            receiver.from.push(rx);
        }
    }
    (senders, receivers)
}

#[cfg(all(test, not(parsim_model)))]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn every_item_arrives_exactly_once() {
        const N: usize = 4;
        const PER: u64 = 10_000;
        let (senders, receivers) = grid::<u64>(N);
        let producer_handles: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(p, mut tx)| {
                thread::spawn(move || {
                    for i in 0..PER {
                        // Every producer feeds every consumer, its own
                        // queue included.
                        tx.send_to((p + i as usize) % N, p as u64 * PER + i);
                    }
                })
            })
            .collect();
        let consumer_handles: Vec<_> = receivers
            .into_iter()
            .map(|mut rx| {
                thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut idle = 0;
                    while idle < 10_000 {
                        match rx.recv() {
                            Some(v) => {
                                got.push(v);
                                idle = 0;
                            }
                            None => {
                                idle += 1;
                                thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        for h in producer_handles {
            h.join().unwrap();
        }
        let mut all: Vec<u64> = consumer_handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        let expected: Vec<u64> = (0..N as u64 * PER).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn send_to_routes_directly() {
        let (mut senders, mut receivers) = grid::<&str>(3);
        senders[1].send_to(2, "hello");
        assert_eq!(receivers[2].recv(), Some("hello"));
        assert_eq!(receivers[0].recv(), None);
        assert!(receivers[1].is_empty());
    }

    #[test]
    fn per_sender_fifo_is_preserved() {
        // Items from one sender to one receiver stay ordered even when
        // interleaved with another sender's traffic.
        let (mut senders, mut receivers) = grid::<(usize, u64)>(2);
        for i in 0..100 {
            senders[0].send_to(0, (0, i));
            senders[1].send_to(0, (1, i));
        }
        let mut last = [None::<u64>; 2];
        while let Some((src, seq)) = receivers[0].recv() {
            if let Some(prev) = last[src] {
                assert!(seq > prev, "fifo per sender violated");
            }
            last[src] = Some(seq);
        }
        assert_eq!(last, [Some(99), Some(99)]);
    }

    #[test]
    fn single_processor_grid_self_delivers() {
        let (mut senders, mut receivers) = grid::<u8>(1);
        senders[0].send_to(0, 42);
        assert_eq!(receivers[0].recv(), Some(42));
    }
}
