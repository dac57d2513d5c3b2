//! Bounded, weighted-fair admission queue with deterministic shedding.
//!
//! Queued work is organized as *groups*: every request targeting the same
//! normalized query text joins one group and the group executes once
//! (request coalescing). Groups are ordered by a weighted-fair-queueing
//! virtual clock — each priority class advances its virtual finish time
//! by `SCALE / weight` per group, so a backlog of both classes dispatches
//! [`INTERACTIVE_WEIGHT`] : [`BACKGROUND_WEIGHT`] — with admission order
//! (`gseq`) as the tie-break, making the schedule bit-identical across
//! replays.
//!
//! When the queue is full the *lowest-priority* request present —
//! considering the newcomer too — is shed; ties shed the latest-admitted
//! request first, so earlier arrivals keep their place.

use crate::config::Priority;
use std::collections::BTreeMap;

/// Virtual-cost scale: one group costs `SCALE / weight` virtual ticks.
/// `u32` weights keep the per-group cost >= 256 ticks, so distinct groups
/// never collapse onto one virtual instant by rounding.
const VCOST_SCALE: u128 = 1 << 40;

/// Weighted-fair-queueing weight of [`Priority::Interactive`].
const INTERACTIVE_WEIGHT: u32 = 8;
/// Weighted-fair-queueing weight of [`Priority::Background`].
const BACKGROUND_WEIGHT: u32 = 1;

/// One admitted request waiting in the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QueuedRequest {
    /// Global admission sequence number (deterministic tie-break).
    pub seq: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Scheduling class.
    pub priority: Priority,
    /// Virtual submit time.
    pub submit_ns: u64,
    /// Earliest virtual time the request may dispatch (its token-bucket
    /// reservation).
    pub eligible_ns: u64,
}

/// A coalesced group of identical queued queries.
#[derive(Debug, Clone)]
pub(crate) struct QueuedGroup {
    /// Group admission order (tie-break within equal virtual finishes).
    pub gseq: u64,
    /// Normalized query text every member shares.
    pub key: String,
    /// WFQ virtual finish time (ordering key).
    pub vfinish: u128,
    /// Members, in admission order.
    pub members: Vec<QueuedRequest>,
}

impl QueuedGroup {
    /// Earliest member eligibility: the group may dispatch as soon as any
    /// member's reservation is covered (the rest free-ride on the single
    /// execution; their tokens were already debited).
    pub(crate) fn eligible_ns(&self) -> u64 {
        self.members
            .iter()
            .map(|m| m.eligible_ns)
            .min()
            .unwrap_or(0)
    }

    /// Highest member priority (drives re-keying on joins).
    pub(crate) fn priority(&self) -> Priority {
        self.members
            .iter()
            .map(|m| m.priority)
            .max()
            .unwrap_or(Priority::Background)
    }
}

/// Outcome of [`WfqQueue::admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AdmitOutcome {
    /// Entered the queue (new group or joined an existing one), nobody
    /// displaced.
    Queued,
    /// The queue was full and the newcomer itself was the lowest-priority
    /// request present: it is shed on arrival.
    ShedNewcomer {
        /// Lowest priority among queue + newcomer at decision time
        /// (equals the newcomer's own priority by construction).
        lowest_present: Priority,
    },
    /// The queue was full; the given queued request was shed to make
    /// room and the newcomer entered.
    ShedOther {
        /// The displaced request.
        victim: QueuedRequest,
        /// Lowest priority among queue + newcomer at decision time
        /// (equals the victim's priority by construction).
        lowest_present: Priority,
    },
}

/// The weighted-fair admission queue.
#[derive(Debug)]
pub(crate) struct WfqQueue {
    capacity: usize,
    /// WFQ virtual clock: advances to the finish time of dispatched work.
    vtime: u128,
    /// Per-class last assigned virtual finish ([background, interactive]).
    last_vfinish: [u128; 2],
    /// Groups ordered by `(vfinish, gseq)`.
    by_order: BTreeMap<(u128, u64), QueuedGroup>,
    /// Normalized key -> ordering key of its queued group.
    by_key: BTreeMap<String, (u128, u64)>,
    /// Total queued requests (capacity is counted per request).
    len_requests: usize,
    next_gseq: u64,
}

fn class_idx(p: Priority) -> usize {
    match p {
        Priority::Background => 0,
        Priority::Interactive => 1,
    }
}

impl WfqQueue {
    /// Empty queue with the given request capacity.
    pub(crate) fn new(capacity: usize) -> WfqQueue {
        WfqQueue {
            capacity,
            vtime: 0,
            last_vfinish: [0; 2],
            by_order: BTreeMap::new(),
            by_key: BTreeMap::new(),
            len_requests: 0,
            next_gseq: 0,
        }
    }

    /// Queued requests (not groups).
    pub(crate) fn len(&self) -> usize {
        self.len_requests
    }

    /// True when nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len_requests == 0
    }

    fn weight(p: Priority) -> u32 {
        match p {
            Priority::Interactive => INTERACTIVE_WEIGHT,
            Priority::Background => BACKGROUND_WEIGHT,
        }
    }

    /// Assign the next virtual finish for class `p`.
    fn position(&mut self, p: Priority) -> u128 {
        let idx = class_idx(p);
        let vstart = self.vtime.max(self.last_vfinish[idx]);
        let vfinish = vstart + VCOST_SCALE / u128::from(Self::weight(p));
        self.last_vfinish[idx] = vfinish;
        vfinish
    }

    /// Admit one request under `key`. Full queues shed the lowest-priority
    /// request present (newcomer included); ties shed the latest arrival.
    pub(crate) fn admit(&mut self, key: &str, req: QueuedRequest) -> AdmitOutcome {
        let mut outcome = AdmitOutcome::Queued;
        if self.len_requests >= self.capacity {
            // Victim: lowest priority, then highest (latest) seq. The
            // newcomer competes like everyone else.
            let mut victim: (Priority, u64) = (req.priority, req.seq);
            for g in self.by_order.values() {
                for m in &g.members {
                    if (m.priority, std::cmp::Reverse(m.seq))
                        < (victim.0, std::cmp::Reverse(victim.1))
                    {
                        victim = (m.priority, m.seq);
                    }
                }
            }
            let lowest_present = victim.0;
            if victim.1 == req.seq {
                return AdmitOutcome::ShedNewcomer { lowest_present };
            }
            let shed = self
                .remove_by_seq(victim.1)
                .expect("victim chosen from queue contents");
            outcome = AdmitOutcome::ShedOther {
                victim: shed,
                lowest_present,
            };
        }

        if let Some(&order) = self.by_key.get(key) {
            // Join the existing group. A higher-priority join earns the
            // position its own class chain would grant and keeps the
            // better (smaller) of the two, so an interactive refresh is
            // never held hostage by the background export it coalesced
            // onto.
            let mut group = self.by_order.remove(&order).expect("index in sync");
            let joined_priority = req.priority;
            let prev_priority = group.priority();
            group.members.push(req);
            if joined_priority > prev_priority {
                let candidate = self.position(joined_priority);
                group.vfinish = group.vfinish.min(candidate);
            }
            let new_order = (group.vfinish, group.gseq);
            self.by_key.insert(key.to_string(), new_order);
            self.by_order.insert(new_order, group);
        } else {
            let gseq = self.next_gseq;
            self.next_gseq += 1;
            let vfinish = self.position(req.priority);
            let group = QueuedGroup {
                gseq,
                key: key.to_string(),
                vfinish,
                members: vec![req],
            };
            self.by_key.insert(key.to_string(), (vfinish, gseq));
            self.by_order.insert((vfinish, gseq), group);
        }
        self.len_requests += 1;
        outcome
    }

    /// Remove one request by sequence number; drops its group when it was
    /// the last member.
    fn remove_by_seq(&mut self, seq: u64) -> Option<QueuedRequest> {
        let order = *self
            .by_order
            .iter()
            .find(|(_, g)| g.members.iter().any(|m| m.seq == seq))?
            .0;
        let mut group = self.by_order.remove(&order)?;
        let idx = group.members.iter().position(|m| m.seq == seq)?;
        let removed = group.members.remove(idx);
        if group.members.is_empty() {
            self.by_key.remove(&group.key);
        } else {
            self.by_order.insert(order, group);
        }
        self.len_requests -= 1;
        Some(removed)
    }

    /// Dispatch the next group: the smallest `(vfinish, gseq)` whose
    /// eligibility has arrived. Advances the WFQ virtual clock.
    pub(crate) fn pop_eligible(&mut self, now_ns: u64) -> Option<QueuedGroup> {
        let order = *self
            .by_order
            .iter()
            .find(|(_, g)| g.eligible_ns() <= now_ns)?
            .0;
        let group = self.by_order.remove(&order)?;
        self.by_key.remove(&group.key);
        self.len_requests -= group.members.len();
        self.vtime = self.vtime.max(group.vfinish);
        Some(group)
    }

    /// Earliest future eligibility among queued groups (for scheduling a
    /// wakeup when everything queued is still rate-deferred).
    pub(crate) fn next_eligibility(&self) -> Option<u64> {
        self.by_order.values().map(|g| g.eligible_ns()).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(seq: u64, priority: Priority) -> QueuedRequest {
        QueuedRequest {
            seq,
            tenant: (seq % 4) as u32,
            priority,
            submit_ns: seq * 1_000,
            eligible_ns: 0,
        }
    }

    #[test]
    fn weighted_interleave_is_deterministic() {
        // Backlog of both classes at weights 8:1 dispatches eight
        // interactive groups per background group; at equal virtual
        // finish the earlier admission goes first (bg-0 before int-7).
        let mut q = WfqQueue::new(64);
        for i in 0..10 {
            q.admit(&format!("int-{i}"), req(i, Priority::Interactive));
            if i < 3 {
                q.admit(&format!("bg-{i}"), req(100 + i, Priority::Background));
            }
        }
        let mut order = Vec::new();
        while let Some(g) = q.pop_eligible(0) {
            order.push(g.key.clone());
        }
        assert_eq!(
            order,
            vec![
                "int-0", "int-1", "int-2", "int-3", "int-4", "int-5", "int-6", "bg-0", "int-7",
                "int-8", "int-9", "bg-1", "bg-2"
            ]
        );
    }

    #[test]
    fn identical_keys_coalesce_into_one_group() {
        let mut q = WfqQueue::new(64);
        q.admit("panel", req(0, Priority::Interactive));
        q.admit("panel", req(1, Priority::Interactive));
        q.admit("other", req(2, Priority::Interactive));
        assert_eq!(q.len(), 3);
        let g = q.pop_eligible(0).unwrap();
        assert_eq!(g.key, "panel");
        assert_eq!(g.members.len(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interactive_join_promotes_a_background_group() {
        let mut q = WfqQueue::new(64);
        q.admit("export", req(0, Priority::Background));
        q.admit("refresh-a", req(1, Priority::Interactive));
        q.admit("refresh-b", req(2, Priority::Interactive));
        // An interactive request coalescing onto the background export
        // pulls the group forward to interactive fairness: it now beats
        // interactive work admitted after the join.
        q.admit("export", req(3, Priority::Interactive));
        q.admit("refresh-c", req(4, Priority::Interactive));
        let mut order = Vec::new();
        while let Some(g) = q.pop_eligible(0) {
            if g.key == "export" {
                assert_eq!(g.priority(), Priority::Interactive);
                assert_eq!(g.members.len(), 2);
            }
            order.push(g.key.clone());
        }
        assert_eq!(order, vec!["refresh-a", "refresh-b", "export", "refresh-c"]);
    }

    #[test]
    fn full_queue_sheds_lowest_priority_latest_first() {
        let mut q = WfqQueue::new(3);
        q.admit("a", req(0, Priority::Interactive));
        q.admit("b", req(1, Priority::Background));
        q.admit("c", req(2, Priority::Background));
        // Interactive newcomer displaces the latest background request.
        match q.admit("d", req(3, Priority::Interactive)) {
            AdmitOutcome::ShedOther {
                victim,
                lowest_present,
            } => {
                assert_eq!(victim.seq, 2);
                assert_eq!(victim.priority, Priority::Background);
                assert_eq!(lowest_present, Priority::Background);
            }
            other => panic!("expected ShedOther, got {other:?}"),
        }
        assert_eq!(q.len(), 3);
        // Background newcomer into an all-interactive queue sheds itself.
        q.admit("e", req(4, Priority::Interactive));
        match q.admit("f", req(5, Priority::Background)) {
            AdmitOutcome::ShedNewcomer { lowest_present } => {
                assert_eq!(lowest_present, Priority::Background);
            }
            other => panic!("expected ShedNewcomer, got {other:?}"),
        }
    }

    #[test]
    fn eligibility_defers_dispatch() {
        let mut q = WfqQueue::new(8);
        let mut r = req(0, Priority::Interactive);
        r.eligible_ns = 500;
        q.admit("later", r);
        assert!(q.pop_eligible(499).is_none());
        assert_eq!(q.next_eligibility(), Some(500));
        assert!(q.pop_eligible(500).is_some());
    }

    #[test]
    fn replay_is_bit_identical() {
        let run = || {
            let mut q = WfqQueue::new(6);
            let mut log = Vec::new();
            for i in 0..40u64 {
                let p = if i % 3 == 0 {
                    Priority::Background
                } else {
                    Priority::Interactive
                };
                let outcome = q.admit(&format!("k{}", i % 7), req(i, p));
                log.push(format!("{outcome:?}"));
                if i % 5 == 4 {
                    if let Some(g) = q.pop_eligible(i * 1_000) {
                        log.push(format!("pop {} x{}", g.key, g.members.len()));
                    }
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
