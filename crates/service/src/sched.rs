//! Weighted deficit-round-robin (DRR) tenant scheduling for a dispatcher
//! shard.
//!
//! The first serving layer used one FIFO queue per service: a tenant that
//! floods the queue delays everyone behind it by the full depth of its
//! backlog. [`DrrSched`] replaces that with one FIFO **per tenant** plus a
//! deficit-round-robin ring over the tenants with queued work:
//!
//! * every request costs one credit; a tenant with weight `w` earns `w`
//!   credits each time the ring visits it, so it may lead up to `w`
//!   consecutive batches before the ring moves on — weights are
//!   proportional shares of *batch lead* slots, not of raw throughput;
//! * a tenant whose queue empties leaves the ring and forfeits its unused
//!   credits (classic DRR: deficits never accumulate while idle, so a
//!   returning tenant cannot burst);
//! * **coalescing is unchanged and free**: once a lead request is chosen,
//!   the scheduler pulls further requests *for the same matrix* from any
//!   tenant's queue in global arrival order to fill the SpMM panel.
//!   Riding along in another tenant's batch consumes no credits — sharing
//!   a panel costs the lead tenant nothing, so fairness never works
//!   against batching. Batches therefore stay per-matrix and the results
//!   stay bit-identical to the FIFO scheduler's.
//!
//! Arrival order is tracked with a monotonically increasing sequence
//! number per push; requeued requests (replayed from a dead shard) are
//! given sequence numbers *below* every live one so a replay goes back to
//! the front of the line rather than the back.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::service::Pending;
use crate::stats::MAX_BATCH;

/// Decrements `counts[tenant]`, saturating at zero. Returns `false` when
/// the entry is missing or already zero — a bookkeeping bug upstream —
/// instead of panicking, so an accounting slip degrades quota precision
/// rather than killing the dispatcher shard that hit it. Call sites pair
/// it with a `debug_assert!` so the bug is loud under `cargo test` and
/// survivable in release.
pub(crate) fn release_slot(counts: &mut HashMap<String, usize>, tenant: &str) -> bool {
    match counts.get_mut(tenant) {
        Some(n) if *n > 0 => {
            *n -= 1;
            true
        }
        _ => false,
    }
}

struct TenantQ {
    /// Arrival-ordered queue of `(seq, request)`.
    q: VecDeque<(u64, Arc<Pending>)>,
    /// Remaining credits in the tenant's current quantum.
    deficit: u64,
    /// Credits earned per ring visit (from `TenantLimits::weight`).
    weight: u64,
    in_ring: bool,
}

/// Per-shard weighted deficit-round-robin queue. Not thread-safe; lives
/// inside the shard's state mutex.
pub(crate) struct DrrSched {
    tenants: HashMap<String, TenantQ>,
    /// Round-robin ring of tenant names with queued work.
    ring: VecDeque<String>,
    /// Next arrival sequence number (counts up).
    next_seq: u64,
    /// Next *requeue* sequence number (counts down, always below every
    /// live arrival seq).
    front_seq: u64,
    len: usize,
    /// Ring/tenant-map desynchronizations recovered from (stale ring
    /// entries skipped, phantom candidates dropped). A non-zero value
    /// means a bookkeeping slip happened upstream; scheduling degraded
    /// gracefully instead of aborting the dispatcher.
    desyncs: u64,
}

impl DrrSched {
    pub(crate) fn new() -> DrrSched {
        DrrSched {
            tenants: HashMap::new(),
            ring: VecDeque::new(),
            next_seq: 1 << 32,
            front_seq: (1 << 32) - 1,
            len: 0,
            desyncs: 0,
        }
    }

    /// Number of ring/tenant-map desynchronizations recovered from.
    #[cfg(test)]
    pub(crate) fn desyncs(&self) -> u64 {
        self.desyncs
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues at the back of `tenant`'s queue. `weight` is sampled at
    /// push time from the tenant's limits; the latest push wins if limits
    /// change while requests are queued.
    pub(crate) fn push(&mut self, weight: u32, p: Arc<Pending>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let name = p.tenant.clone();
        let tq = self.tenants.entry(name.clone()).or_insert_with(|| TenantQ {
            q: VecDeque::new(),
            deficit: 0,
            weight: 1,
            in_ring: false,
        });
        tq.weight = u64::from(weight.max(1));
        tq.q.push_back((seq, p));
        if !tq.in_ring {
            tq.in_ring = true;
            self.ring.push_back(name);
        }
        self.len += 1;
    }

    /// Puts replayed requests back at the front of the line, preserving
    /// their relative order. Used when a shard dies mid-batch and the
    /// supervisor re-queues its unpublished in-flight work.
    pub(crate) fn requeue_front(&mut self, items: Vec<Arc<Pending>>) {
        for p in items.into_iter().rev() {
            let seq = self.front_seq;
            self.front_seq -= 1;
            let tq = self.tenants.entry(p.tenant.clone()).or_insert_with(|| TenantQ {
                q: VecDeque::new(),
                deficit: 0,
                weight: 1,
                in_ring: false,
            });
            tq.q.push_front((seq, p));
            self.len += 1;
        }
        self.rebuild_ring_membership();
    }

    /// Pops the next batch: a DRR-chosen lead plus up to `max_batch - 1`
    /// same-matrix requests coalesced from any tenant queue in global
    /// arrival order, clamped down to a kernel-supported panel width
    /// (8/4/2/1). Returns `None` when empty.
    pub(crate) fn pop_batch(&mut self, max_batch: usize) -> Option<Vec<Arc<Pending>>> {
        let max_batch = max_batch.clamp(1, MAX_BATCH);
        let lead = self.pop_lead()?;
        let id = lead.id;
        let mut batch = vec![lead];

        // Gather coalescing candidates: for every tenant, every queued
        // request for the lead's matrix, tagged (seq, tenant, index).
        let mut cands: Vec<(u64, String, usize)> = Vec::new();
        for (name, tq) in &self.tenants {
            for (i, (seq, p)) in tq.q.iter().enumerate() {
                if p.id == id {
                    cands.push((*seq, name.clone(), i));
                }
            }
        }
        cands.sort_unstable_by_key(|(seq, _, _)| *seq);
        cands.truncate(max_batch - 1);

        // Clamp to a supported width before removing anything, so the
        // requests we leave behind keep their positions.
        let total = 1 + cands.len();
        let width = [8usize, 4, 2, 1].into_iter().find(|&w| w <= total).unwrap_or(1);
        cands.truncate(width - 1);

        // Remove chosen candidates; per tenant in descending index order
        // so earlier removals don't shift later indices. The candidates
        // were gathered from `self.tenants` moments ago, so a missing
        // tenant or index here is a bookkeeping bug — mirror
        // [`release_slot`]: loud under `cargo test`, a skipped candidate
        // (smaller panel, never a dead dispatcher) in release.
        cands.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));
        let mut picked: Vec<(u64, Arc<Pending>)> = Vec::new();
        for (_, tenant, idx) in cands {
            let Some(tq) = self.tenants.get_mut(&tenant) else {
                debug_assert!(false, "coalescing candidate tenant {tenant:?} vanished");
                self.desyncs += 1;
                continue;
            };
            let Some(item) = tq.q.remove(idx) else {
                debug_assert!(false, "coalescing candidate index {idx} out of range");
                self.desyncs += 1;
                continue;
            };
            self.len = self.len.saturating_sub(1);
            picked.push(item);
        }
        picked.sort_unstable_by_key(|(seq, _)| *seq);
        batch.extend(picked.into_iter().map(|(_, p)| p));
        Some(batch)
    }

    /// DRR lead selection: serve the ring head while it has credits,
    /// rotating when a quantum is exhausted, dropping tenants whose
    /// queues emptied.
    ///
    /// A ring entry can go stale — tenant teardown (or any bulk edit that
    /// races ring maintenance) may remove the tenant map entry while its
    /// ring slot survives. That is a *reachable* state, not a bug-never
    /// invariant, so the stale entry is dropped and scheduling continues
    /// with the next tenant (counted in `desyncs`) rather than aborting
    /// the dispatcher thread with an `expect` panic.
    fn pop_lead(&mut self) -> Option<Arc<Pending>> {
        while let Some(name) = self.ring.front().cloned() {
            let Some(tq) = self.tenants.get_mut(&name) else {
                // Stale ring entry: the tenant was torn down after its
                // name was enqueued on the ring. Skip and continue.
                self.ring.pop_front();
                self.desyncs += 1;
                continue;
            };
            if tq.q.is_empty() {
                tq.in_ring = false;
                tq.deficit = 0;
                self.ring.pop_front();
                continue;
            }
            if tq.deficit == 0 {
                tq.deficit = tq.weight; // new quantum for this visit
            }
            tq.deficit -= 1;
            let Some((_, p)) = tq.q.pop_front() else {
                // Unreachable with the emptiness check above; recover by
                // retiring the ring entry anyway (release builds).
                debug_assert!(false, "tenant {name:?} queue emptied between check and pop");
                tq.in_ring = false;
                tq.deficit = 0;
                self.ring.pop_front();
                self.desyncs += 1;
                continue;
            };
            self.len = self.len.saturating_sub(1);
            if tq.q.is_empty() {
                tq.in_ring = false;
                tq.deficit = 0; // forfeit unused credits while idle
                self.ring.pop_front();
            } else if tq.deficit == 0 {
                // The head we just served rotates to the back. An empty
                // ring here would be the same class of desync as above —
                // rotating a missing head is a no-op, not a panic.
                match self.ring.pop_front() {
                    Some(head) => self.ring.push_back(head),
                    None => {
                        debug_assert!(false, "ring empty while rotating served tenant {name:?}");
                        self.desyncs += 1;
                    }
                }
            }
            return Some(p);
        }
        None
    }

    /// Removes every queued request matching `pred` (e.g. all requests
    /// for a matrix being evicted), returning them in arrival order.
    pub(crate) fn remove_where(&mut self, pred: impl Fn(&Pending) -> bool) -> Vec<Arc<Pending>> {
        let mut removed: Vec<(u64, Arc<Pending>)> = Vec::new();
        for tq in self.tenants.values_mut() {
            let mut keep = VecDeque::with_capacity(tq.q.len());
            for (seq, p) in tq.q.drain(..) {
                if pred(&p) {
                    removed.push((seq, p));
                } else {
                    keep.push_back((seq, p));
                }
            }
            tq.q = keep;
        }
        self.len -= removed.len();
        removed.sort_unstable_by_key(|(seq, _)| *seq);
        removed.into_iter().map(|(_, p)| p).collect()
    }

    /// Repairs ring membership after bulk edits (requeue/remove): every
    /// tenant with queued work must be in the ring exactly once.
    fn rebuild_ring_membership(&mut self) {
        for (name, tq) in &mut self.tenants {
            if !tq.q.is_empty() && !tq.in_ring {
                tq.in_ring = true;
                self.ring.push_back(name.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MatrixId;
    use crate::service::ReplySlot;
    use std::time::{Duration, Instant};

    fn pending(tenant: &str, slot: u32) -> Arc<Pending> {
        let now = Instant::now();
        Arc::new(Pending {
            id: MatrixId { slot, gen: 0 },
            shard: 0,
            matrix: format!("m{slot}"),
            tenant: tenant.to_string(),
            x: Arc::new(vec![1.0]),
            enqueued: now,
            expires: now + Duration::from_secs(60),
            reply: Arc::new(ReplySlot::new()),
        })
    }

    fn push(s: &mut DrrSched, tenant: &str, slot: u32) {
        s.push(1, pending(tenant, slot));
    }

    #[test]
    fn release_slot_saturates_instead_of_panicking() {
        let mut counts = HashMap::new();
        counts.insert("a".to_string(), 1usize);
        assert!(release_slot(&mut counts, "a"));
        assert_eq!(counts["a"], 0);
        // Out-of-sync cases degrade to `false`, never panic, never wrap.
        assert!(!release_slot(&mut counts, "a"));
        assert_eq!(counts["a"], 0);
        assert!(!release_slot(&mut counts, "ghost"));
    }

    #[test]
    fn single_tenant_is_fifo() {
        let mut s = DrrSched::new();
        for slot in [0, 1, 2] {
            push(&mut s, "t", slot);
        }
        let order: Vec<u32> = (0..3).map(|_| s.pop_batch(1).expect("queued")[0].id.slot).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(s.pop_batch(1).is_none());
    }

    #[test]
    fn coalesces_same_matrix_across_tenants_and_clamps_width() {
        let mut s = DrrSched::new();
        // Tenant a: 2 requests for matrix 7; tenant b: 1 for 7, 1 for 9.
        push(&mut s, "a", 7);
        push(&mut s, "b", 7);
        push(&mut s, "a", 7);
        push(&mut s, "b", 9);
        let batch = s.pop_batch(8).expect("queued");
        // 3 requests for matrix 7 clamp down to a width-2 panel.
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|p| p.id.slot == 7));
        assert_eq!((batch[0].tenant.as_str(), batch[1].tenant.as_str()), ("a", "b"));
        assert_eq!(s.len(), 2);
        // Matrix 9 cannot ride along with the leftover 7.
        let batch = s.pop_batch(8).expect("queued");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id.slot, 9); // b leads: a just led, ring rotated
        let batch = s.pop_batch(8).expect("queued");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id.slot, 7);
        assert!(s.is_empty());
    }

    #[test]
    fn max_batch_caps_coalescing() {
        let mut s = DrrSched::new();
        for _ in 0..6 {
            push(&mut s, "t", 3);
        }
        assert_eq!(s.pop_batch(2).expect("queued").len(), 2);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn flooding_tenant_alternates_with_polite_tenant() {
        let mut s = DrrSched::new();
        // Flood enqueues 10 requests for matrix 0, polite 3 for matrix 1.
        // Distinct matrices so coalescing can't mask scheduling order.
        for _ in 0..10 {
            push(&mut s, "flood", 0);
        }
        for _ in 0..3 {
            push(&mut s, "polite", 1);
        }
        let mut polite_done = 0;
        let mut leads = Vec::new();
        while polite_done < 3 {
            let b = s.pop_batch(1).expect("queued");
            if b[0].tenant == "polite" {
                polite_done += 1;
            }
            leads.push(b[0].tenant.clone());
        }
        // Equal weights: strict alternation, so polite finishes its 3
        // requests within 6 lead slots despite the 10-deep flood backlog.
        assert!(leads.len() <= 6, "polite starved: {leads:?}");
    }

    #[test]
    fn weights_grant_proportional_lead_slots() {
        let mut s = DrrSched::new();
        for _ in 0..12 {
            s.push(3, pending("heavy", 0));
            s.push(1, pending("light", 1));
        }
        let mut heavy = 0;
        let mut light = 0;
        for _ in 0..8 {
            let b = s.pop_batch(1).expect("queued");
            match b[0].tenant.as_str() {
                "heavy" => heavy += 1,
                _ => light += 1,
            }
        }
        // weight 3 vs 1 → 3 heavy leads per light lead.
        assert_eq!((heavy, light), (6, 2));
    }

    #[test]
    fn requeued_requests_jump_the_line_in_order() {
        let mut s = DrrSched::new();
        push(&mut s, "t", 1);
        let replay = vec![pending("t", 5), pending("t", 6)];
        s.requeue_front(replay);
        assert_eq!(s.len(), 3);
        let order: Vec<u32> = (0..3).map(|_| s.pop_batch(1).expect("queued")[0].id.slot).collect();
        assert_eq!(order, vec![5, 6, 1]);
    }

    #[test]
    fn stale_ring_entry_is_skipped_not_fatal() {
        let mut s = DrrSched::new();
        push(&mut s, "gone", 1);
        push(&mut s, "alive", 2);
        // Desynchronize the ring: tear the tenant map entry down while
        // its ring slot survives — the state a teardown/maintenance race
        // produces. Before the fix this aborted the dispatcher via
        // `expect("ring tenant exists")`.
        let removed = s.tenants.remove("gone").expect("tenant was queued");
        s.len -= removed.q.len();
        assert_eq!(s.ring.len(), 2, "ring still holds the dead tenant");
        let batch = s.pop_batch(8).expect("live tenant still schedulable");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].tenant, "alive");
        assert_eq!(s.desyncs(), 1, "stale entry recovery is counted");
        assert!(s.pop_batch(8).is_none());
        assert!(s.is_empty());
        // The scheduler keeps working normally after the recovery.
        push(&mut s, "alive", 3);
        assert_eq!(s.pop_batch(8).expect("queued")[0].id.slot, 3);
        assert_eq!(s.desyncs(), 1);
    }

    #[test]
    fn remove_where_sweeps_matching_requests_in_arrival_order() {
        let mut s = DrrSched::new();
        push(&mut s, "a", 1);
        push(&mut s, "b", 2);
        push(&mut s, "a", 2);
        let swept = s.remove_where(|p| p.id.slot == 2);
        assert_eq!(swept.len(), 2);
        assert_eq!((swept[0].tenant.as_str(), swept[1].tenant.as_str()), ("b", "a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_batch(8).expect("queued")[0].id.slot, 1);
    }
}
