//! Pluggable admission control: who gets into the cluster when it is
//! saturated.
//!
//! Historically the simulator admitted every request unconditionally — under
//! a burst far above capacity the saturated queue grows without bound and
//! p99 latency melts for *all* traffic instead of a sacrificial slice.  This
//! module extracts the admission decision behind a policy trait, the same
//! seam shape as [`super::lifecycle`]: the simulator assembles an
//! [`AdmissionContext`] (the queued requests, the execution slots, and an
//! estimated queueing delay derived from the busy-time integral) for a
//! policy that reads one, the policy returns an [`AdmissionVerdict`], and
//! the simulator applies it.
//!
//! The policy is consulted **only for requests the cluster cannot serve
//! immediately**: a request with a free compatible warm slot (or room to
//! place a fresh container) is dispatched without asking.  Two properties
//! follow by construction — no policy can reject while a free warm slot
//! exists, and [`AdmitAllAdmission`] (the default) reproduces the
//! pre-admission-control simulator byte for byte, because "always admit" is
//! exactly what the old saturated-queue push did.
//!
//! Accounting contract: a **rejected** arrival was never admitted — it
//! contributes no latency sample, no per-model totals and no GB·s, and is
//! counted only in [`super::SimulationResult::rejected`].  A **shed** victim
//! was already admitted and queued, so conservation demands it count as
//! `dropped` (it is also tallied in `shed`, a subset of `dropped`).

use sesemi_sim::{SimDuration, SimTime};
use sesemi_workload::Tier;

/// A queued request as the admission policy sees it, in queue (FIFO)
/// order.
#[derive(Clone, Debug, PartialEq)]
pub struct QueuedRequest {
    /// Priority tier the request arrived with.
    pub tier: Tier,
    /// Absolute completion deadline, if the request carries one.
    pub deadline: Option<SimTime>,
    /// When the request entered the system.
    pub submitted: SimTime,
}

/// Cluster state handed to the policy for one saturated arrival.
#[derive(Clone, Debug)]
pub struct AdmissionContext<'a> {
    /// Virtual time of the arrival.
    pub now: SimTime,
    /// Tier of the arriving request.
    pub tier: Tier,
    /// Deadline of the arriving request, if any.
    pub deadline: Option<SimTime>,
    /// Requests already parked behind the full cluster, oldest first.  The
    /// arriving request would join the back.
    pub queued: &'a [QueuedRequest],
    /// Total execution slots the schedulable pool offers (containers of the
    /// largest action that fit per node, times per-container concurrency,
    /// times schedulable nodes) — the same yardstick the autoscaler uses.
    pub execution_slots: usize,
    /// Mean busy-slot time one request consumes, derived from the busy-time
    /// integral over completed requests.  Zero until the first completion —
    /// policies estimate conservatively (admit) until the cluster has
    /// calibrated itself.
    pub mean_service: SimDuration,
}

impl AdmissionContext<'_> {
    /// Number of requests already queued ahead of the arriving one.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queued.len()
    }

    /// Estimated time until the request at queue position `position` (number
    /// of queued requests ahead of it) starts executing: the cluster drains
    /// one request per `mean_service / execution_slots` on average, and every
    /// slot is busy (the policy is only consulted under saturation).
    #[must_use]
    pub fn estimated_wait_for_position(&self, position: usize) -> SimDuration {
        if self.execution_slots == 0 {
            return SimDuration::ZERO;
        }
        self.mean_service
            .mul_f64((position as f64 + 1.0) / self.execution_slots as f64)
    }

    /// Estimated queueing delay of the arriving request (it joins the back
    /// of the queue).
    #[must_use]
    pub fn estimated_wait(&self) -> SimDuration {
        self.estimated_wait_for_position(self.queue_depth())
    }

    /// Estimated completion time for queue position `position`: the wait
    /// plus one mean service time.
    #[must_use]
    pub fn estimated_completion_for_position(&self, position: usize) -> SimTime {
        self.now + self.estimated_wait_for_position(position) + self.mean_service
    }
}

/// What the policy decided for one saturated arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Admit the request onto the saturated queue (the pre-refactor
    /// behavior).
    Admit,
    /// Refuse the arriving request: it is never admitted, never queued, and
    /// leaves no trace beyond the `rejected` counter.
    Reject,
    /// Admit the arriving request after dropping the queued request at index
    /// `victim` (into [`AdmissionContext::queued`]): deadline-aware policies
    /// shed a request that will miss its deadline anyway to shorten the wait
    /// for everyone behind it.  The victim was admitted, so it counts as
    /// `dropped` (and `shed`).
    AdmitShedding {
        /// Queue position of the request to drop.
        victim: usize,
    },
}

/// An admission-control policy, consulted once per arrival that cannot be
/// served immediately.
pub trait AdmissionPolicy {
    /// Human-readable policy name for experiment output.
    fn name(&self) -> &'static str;

    /// Decides the fate of one saturated arrival.
    fn decide(&mut self, ctx: &AdmissionContext<'_>) -> AdmissionVerdict;

    /// Whether [`AdmissionPolicy::decide`] reads the cluster's side of the
    /// context: [`AdmissionContext::queued`], `execution_slots` and
    /// `mean_service`.  Assembling them copies the whole saturated queue,
    /// scans the nodes and derives the mean service time — on a path that
    /// runs once per arrival under saturation — so a policy that decides on
    /// the arrival alone (notably the default admit-all) overrides this to
    /// `false`.  Its context then holds only the arrival's own fields
    /// (`now`, `tier`, `deadline`): an empty `queued`, zero
    /// `execution_slots` and a zero `mean_service`.
    fn reads_context(&self) -> bool {
        true
    }
}

/// Which admission policy to run (the E4 experiment compares all three).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AdmissionKind {
    /// Admit everything — byte-identical to the simulator before this layer
    /// existed.
    #[default]
    AdmitAll,
    /// Reject when the estimated queueing delay exceeds a bound.
    QueueBound,
    /// Shed whatever will miss its deadline anyway, preferring lower tiers.
    DeadlineAware,
}

impl AdmissionKind {
    /// All policies, in the order the E4 table lists them.
    pub const ALL: [AdmissionKind; 3] = [
        AdmissionKind::AdmitAll,
        AdmissionKind::QueueBound,
        AdmissionKind::DeadlineAware,
    ];

    /// Label used in tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AdmissionKind::AdmitAll => "Admit-all",
            AdmissionKind::QueueBound => "Queue-bound",
            AdmissionKind::DeadlineAware => "Deadline-aware",
        }
    }

    /// Builds a policy of this kind with its default parameters.
    #[must_use]
    pub fn build(self) -> Box<dyn AdmissionPolicy> {
        match self {
            AdmissionKind::AdmitAll => Box::new(AdmitAllAdmission),
            AdmissionKind::QueueBound => Box::new(QueueBoundAdmission::default()),
            AdmissionKind::DeadlineAware => Box::new(DeadlineAwareAdmission),
        }
    }
}

/// The default policy: every saturated arrival joins the queue, exactly as
/// before the admission layer existed.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdmitAllAdmission;

impl AdmissionPolicy for AdmitAllAdmission {
    fn name(&self) -> &'static str {
        "Admit-all"
    }

    fn decide(&mut self, _ctx: &AdmissionContext<'_>) -> AdmissionVerdict {
        AdmissionVerdict::Admit
    }

    fn reads_context(&self) -> bool {
        false
    }
}

/// Rejects a saturated arrival when its estimated queueing delay exceeds
/// `max_wait` — a plain load-shedding valve that bounds how deep the queue
/// (and therefore everyone's p99) can grow.
#[derive(Clone, Copy, Debug)]
pub struct QueueBoundAdmission {
    /// Longest estimated wait a request may face and still be admitted.
    pub max_wait: SimDuration,
}

impl QueueBoundAdmission {
    /// Default wait bound: 2 s, an order of magnitude above the paper's hot
    /// latencies, so only genuine over-capacity bursts trip it.
    pub const DEFAULT_MAX_WAIT: SimDuration = SimDuration::from_secs(2);
}

impl Default for QueueBoundAdmission {
    fn default() -> Self {
        QueueBoundAdmission {
            max_wait: Self::DEFAULT_MAX_WAIT,
        }
    }
}

impl AdmissionPolicy for QueueBoundAdmission {
    fn name(&self) -> &'static str {
        "Queue-bound"
    }

    fn decide(&mut self, ctx: &AdmissionContext<'_>) -> AdmissionVerdict {
        if ctx.estimated_wait() > self.max_wait {
            AdmissionVerdict::Reject
        } else {
            AdmissionVerdict::Admit
        }
    }
}

/// Sheds work that is doomed to miss its deadline anyway — refusing a doomed
/// arrival outright, and dropping the lowest-tier doomed request already in
/// the queue to shorten the wait for everything behind it.  Requests without
/// deadlines are never doomed and so never shed; under deadline-free traffic
/// this policy degenerates to [`AdmitAllAdmission`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DeadlineAwareAdmission;

impl AdmissionPolicy for DeadlineAwareAdmission {
    fn name(&self) -> &'static str {
        "Deadline-aware"
    }

    fn decide(&mut self, ctx: &AdmissionContext<'_>) -> AdmissionVerdict {
        // A queued request that can no longer finish by its deadline is
        // sunk cost: serving it helps nobody, so shed the lowest-tier such
        // victim (ties: oldest first, deterministically).
        let doomed_victim = ctx
            .queued
            .iter()
            .enumerate()
            .filter(|(position, queued)| {
                queued
                    .deadline
                    .is_some_and(|d| ctx.estimated_completion_for_position(*position) > d)
            })
            .min_by_key(|(position, queued)| (queued.tier, *position))
            .map(|(position, _)| position);

        // The arriving request joins the back of the queue (one shorter if a
        // victim is shed): if even then it cannot finish in time, admitting
        // it would only burn capacity on another guaranteed miss.
        let arriving_position = ctx.queue_depth() - usize::from(doomed_victim.is_some());
        let arriving_doomed = ctx
            .deadline
            .is_some_and(|d| ctx.estimated_completion_for_position(arriving_position) > d);
        if arriving_doomed {
            return AdmissionVerdict::Reject;
        }
        match doomed_victim {
            Some(victim) => AdmissionVerdict::AdmitShedding { victim },
            None => AdmissionVerdict::Admit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(tier: Tier, deadline: Option<SimTime>, submitted_ms: u64) -> QueuedRequest {
        QueuedRequest {
            tier,
            deadline,
            submitted: SimTime::from_millis(submitted_ms),
        }
    }

    fn ctx<'a>(queued: &'a [QueuedRequest], now_ms: u64) -> AdmissionContext<'a> {
        AdmissionContext {
            now: SimTime::from_millis(now_ms),
            tier: Tier::Standard,
            deadline: None,
            queued,
            execution_slots: 1,
            mean_service: SimDuration::from_millis(200),
        }
    }

    #[test]
    fn kind_builds_matching_policies() {
        for kind in AdmissionKind::ALL {
            assert_eq!(kind.build().name(), kind.label());
        }
        assert_eq!(AdmissionKind::default(), AdmissionKind::AdmitAll);
    }

    #[test]
    fn admit_all_admits_any_context_in_lockstep() {
        // The pre-refactor simulator pushed every saturated arrival onto the
        // queue unconditionally.  Drive the policy through 600 LCG-generated
        // context shapes (deep queues, tight deadlines, zero slots) and
        // require the same answer the old code hard-wired, every time.
        let mut policy = AdmitAllAdmission;
        let mut state: u64 = 0xAD0117;
        for _ in 0..600 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let roll = state >> 33;
            let depth = (roll % 50) as usize;
            let tier = Tier::ALL[(roll % 3) as usize];
            let deadline = if roll % 2 == 0 {
                Some(SimTime::from_millis(roll % 5_000))
            } else {
                None
            };
            let queue: Vec<QueuedRequest> = (0..depth)
                .map(|i| {
                    queued(
                        Tier::ALL[(i + depth) % 3],
                        Some(SimTime::from_millis(i as u64)),
                        i as u64,
                    )
                })
                .collect();
            let ctx = AdmissionContext {
                now: SimTime::from_millis(roll % 10_000),
                tier,
                deadline,
                queued: &queue,
                execution_slots: (roll % 5) as usize,
                mean_service: SimDuration::from_millis(roll % 900),
            };
            assert_eq!(policy.decide(&ctx), AdmissionVerdict::Admit);
        }
    }

    #[test]
    fn context_estimates_wait_from_the_service_rate() {
        let queue = vec![queued(Tier::Standard, None, 0); 4];
        let ctx = ctx(&queue, 1_000);
        // 4 ahead + this one, one slot, 200 ms each.
        assert_eq!(ctx.estimated_wait(), SimDuration::from_millis(1_000));
        assert_eq!(
            ctx.estimated_wait_for_position(0),
            SimDuration::from_millis(200)
        );
        assert_eq!(
            ctx.estimated_completion_for_position(0),
            SimTime::from_millis(1_400)
        );
        // No slot yardstick (no completions yet): estimates collapse to zero
        // so policies stay conservative.
        let mut zero = ctx.clone();
        zero.execution_slots = 0;
        assert_eq!(zero.estimated_wait(), SimDuration::ZERO);
    }

    #[test]
    fn context_counts_backlog_per_tier() {
        let queue = vec![
            queued(Tier::Batch, None, 0),
            queued(Tier::Premium, None, 1),
            queued(Tier::Batch, None, 2),
        ];
        let ctx = ctx(&queue, 10);
        assert_eq!(ctx.queue_depth(), 3);
    }

    #[test]
    fn queue_bound_rejects_only_past_the_bound() {
        let mut policy = QueueBoundAdmission {
            max_wait: SimDuration::from_millis(600),
        };
        let short = vec![queued(Tier::Standard, None, 0); 2];
        // 2 ahead + this one at 200 ms each = 600 ms: at the bound, admitted.
        assert_eq!(policy.decide(&ctx(&short, 0)), AdmissionVerdict::Admit);
        let long = vec![queued(Tier::Standard, None, 0); 3];
        // 800 ms estimated wait: past the bound, rejected.
        assert_eq!(policy.decide(&ctx(&long, 0)), AdmissionVerdict::Reject);
    }

    #[test]
    fn deadline_aware_sheds_the_lowest_tier_doomed_request_first() {
        let mut policy = DeadlineAwareAdmission;
        // Positions 0..3 complete (est.) at 400/600/800/1000 ms.  The premium
        // request at position 1 and the batch request at position 2 are both
        // doomed; the batch one must be the victim despite being younger.
        let queue = vec![
            queued(Tier::Standard, Some(SimTime::from_millis(2_000)), 0),
            queued(Tier::Premium, Some(SimTime::from_millis(500)), 1),
            queued(Tier::Batch, Some(SimTime::from_millis(700)), 2),
            queued(Tier::Standard, None, 3),
        ];
        assert_eq!(
            policy.decide(&ctx(&queue, 0)),
            AdmissionVerdict::AdmitShedding { victim: 2 }
        );
    }

    #[test]
    fn deadline_aware_rejects_a_doomed_arrival() {
        let mut policy = DeadlineAwareAdmission;
        let queue = vec![queued(Tier::Standard, None, 0); 5];
        // 5 ahead → est. completion 1 200 ms, deadline 900 ms: refuse.
        let mut context = ctx(&queue, 0);
        context.deadline = Some(SimTime::from_millis(900));
        assert_eq!(policy.decide(&context), AdmissionVerdict::Reject);
        // A later deadline clears it.
        context.deadline = Some(SimTime::from_millis(1_500));
        assert_eq!(policy.decide(&context), AdmissionVerdict::Admit);
    }

    #[test]
    fn deadline_aware_without_deadlines_degenerates_to_admit_all() {
        let mut policy = DeadlineAwareAdmission;
        let queue = vec![queued(Tier::Batch, None, 0); 40];
        assert_eq!(policy.decide(&ctx(&queue, 0)), AdmissionVerdict::Admit);
    }

    #[test]
    fn tier_order_prefers_shedding_lower_tiers() {
        assert!(Tier::Batch < Tier::Standard && Tier::Standard < Tier::Premium);
        assert_eq!(Tier::default(), Tier::Standard);
        for (index, tier) in Tier::ALL.into_iter().enumerate() {
            assert_eq!(tier.index(), index);
        }
    }
}
