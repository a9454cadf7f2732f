//! Open-loop arrival processes: constant-rate Poisson and MMPP.

use sesemi_inference::ModelId;
use sesemi_sim::{SimDuration, SimRng, SimTime};

/// Priority tier of a request, consulted by admission-control policies under
/// saturation.  Ordered: `Batch < Standard < Premium`, so "prefer shedding
/// lower tiers" is a plain `Ord` comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Best-effort background traffic — first to be shed.
    Batch,
    /// Ordinary interactive traffic.
    #[default]
    Standard,
    /// Latency-critical traffic — shed last.
    Premium,
}

impl Tier {
    /// All tiers, lowest priority first.
    pub const ALL: [Tier; 3] = [Tier::Batch, Tier::Standard, Tier::Premium];

    /// Label used in tables and backlog breakdowns.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tier::Batch => "batch",
            Tier::Standard => "standard",
            Tier::Premium => "premium",
        }
    }

    /// Dense index (position in [`Tier::ALL`]) for per-tier counters.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated request arrival.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestArrival {
    /// When the request reaches the system.
    pub at: SimTime,
    /// The model it targets.
    pub model: ModelId,
    /// Index of the user issuing it (mapped to registered users by the
    /// harness).
    pub user_index: usize,
    /// Priority tier, read by admission-control policies (default
    /// [`Tier::Standard`]).
    pub tier: Tier,
    /// Absolute completion deadline, if the stream carries an SLO.  `None`
    /// means the request never expires.
    pub deadline: Option<SimTime>,
}

impl RequestArrival {
    /// An arrival with the default tier and no deadline — what every
    /// generator produces; a scenario whose stream carries an SLO sets the
    /// public `tier` and `deadline` fields afterwards.
    #[must_use]
    pub fn new(at: SimTime, model: ModelId, user_index: usize) -> Self {
        RequestArrival {
            at,
            model,
            user_index,
            tier: Tier::default(),
            deadline: None,
        }
    }
}

/// An open-loop arrival process for a single model / user stream.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at a constant mean rate (requests per second).
    Poisson {
        /// Mean request rate.
        rate_per_sec: f64,
    },
    /// Markov-modulated Poisson process: the rate switches between states,
    /// dwelling in each state for an exponentially distributed time
    /// (the paper's workload "alternates the mean request rates between
    /// 20 rps and 40 rps").
    Mmpp {
        /// The per-state request rates.
        rates_per_sec: Vec<f64>,
        /// Mean dwell time in each state before switching.
        mean_dwell: SimDuration,
    },
    /// Deterministic arrivals at a fixed interval (used for warm-up phases
    /// and latency-vs-rate sweeps where jitter is undesirable).
    Constant {
        /// Fixed inter-arrival gap.
        interval: SimDuration,
    },
    /// Sinusoid-modulated Poisson arrivals — a compressed diurnal traffic
    /// curve: the instantaneous rate is
    /// `base_rate * (1 + amplitude * sin(2π t / period))`, sampled by
    /// thinning a homogeneous Poisson process at the peak rate.
    Diurnal {
        /// Mean request rate over a full period.
        base_rate: f64,
        /// Relative swing of the sinusoid in `[0, 1]` (1 means the trough
        /// reaches zero traffic).
        amplitude: f64,
        /// One full day-night cycle.
        period: SimDuration,
    },
}

impl ArrivalProcess {
    /// The paper's MMPP workload: mean rate alternating between 20 and 40
    /// requests per second (Fig. 13a), with ~100 s dwell times.
    #[must_use]
    pub fn paper_mmpp() -> Self {
        ArrivalProcess::Mmpp {
            rates_per_sec: vec![20.0, 40.0],
            mean_dwell: SimDuration::from_secs(100),
        }
    }

    /// Generates all arrivals in `[0, duration)` for `model`, using `rng`.
    pub fn generate(
        &self,
        model: &ModelId,
        user_index: usize,
        duration: SimDuration,
        rng: &mut SimRng,
    ) -> Vec<RequestArrival> {
        let horizon = SimTime::ZERO + duration;
        let mut arrivals = Vec::new();
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                let mut t = SimTime::ZERO + rng.exponential(*rate_per_sec);
                while t < horizon {
                    arrivals.push(RequestArrival::new(t, model.clone(), user_index));
                    t += rng.exponential(*rate_per_sec);
                }
            }
            ArrivalProcess::Mmpp {
                rates_per_sec,
                mean_dwell,
            } => {
                assert!(!rates_per_sec.is_empty(), "MMPP needs at least one state");
                let dwell_rate = 1.0 / mean_dwell.as_secs_f64().max(1e-9);
                let mut state = 0usize;
                let mut state_ends = SimTime::ZERO + rng.exponential(dwell_rate);
                let mut t = SimTime::ZERO;
                loop {
                    let rate = rates_per_sec[state];
                    t += rng.exponential(rate);
                    if t >= horizon {
                        break;
                    }
                    // Advance the modulating chain past `t`.
                    while t >= state_ends {
                        state = (state + 1) % rates_per_sec.len();
                        state_ends += rng.exponential(dwell_rate);
                    }
                    arrivals.push(RequestArrival::new(t, model.clone(), user_index));
                }
            }
            ArrivalProcess::Constant { interval } => {
                assert!(*interval > SimDuration::ZERO, "interval must be positive");
                let mut t = SimTime::ZERO + *interval;
                while t < horizon {
                    arrivals.push(RequestArrival::new(t, model.clone(), user_index));
                    t += *interval;
                }
            }
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                period,
            } => {
                assert!(
                    *base_rate > 0.0 && base_rate.is_finite(),
                    "base rate must be positive"
                );
                assert!(
                    (0.0..=1.0).contains(amplitude),
                    "amplitude must lie in [0, 1]"
                );
                assert!(*period > SimDuration::ZERO, "period must be positive");
                // Thinning (Lewis–Shedler): draw candidates at the peak rate
                // and keep each with probability rate(t) / peak — an exact
                // sampler for the nonhomogeneous process, still one rng
                // stream, still deterministic per seed.
                let peak = base_rate * (1.0 + amplitude);
                let omega = 2.0 * std::f64::consts::PI / period.as_secs_f64();
                let mut t = SimTime::ZERO;
                loop {
                    t += rng.exponential(peak);
                    if t >= horizon {
                        break;
                    }
                    let rate = base_rate * (1.0 + amplitude * (omega * t.as_secs_f64()).sin());
                    if rng.chance(rate / peak) {
                        arrivals.push(RequestArrival::new(t, model.clone(), user_index));
                    }
                }
            }
        }
        arrivals
    }

    /// Merges several pre-generated streams into one time-ordered trace.
    #[must_use]
    pub fn merge(streams: Vec<Vec<RequestArrival>>) -> Vec<RequestArrival> {
        let mut all: Vec<RequestArrival> = streams.into_iter().flatten().collect();
        all.sort_by_key(|a| a.at);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelId {
        ModelId::new("m0")
    }

    #[test]
    fn poisson_rate_is_approximately_respected() {
        let mut rng = SimRng::seed_from_u64(1);
        let process = ArrivalProcess::Poisson { rate_per_sec: 25.0 };
        let arrivals = process.generate(&model(), 0, SimDuration::from_secs(200), &mut rng);
        let rate = arrivals.len() as f64 / 200.0;
        assert!((rate - 25.0).abs() < 2.0, "observed rate {rate}");
        // Arrivals are time-ordered and inside the horizon.
        for window in arrivals.windows(2) {
            assert!(window[0].at <= window[1].at);
        }
        assert!(arrivals.last().unwrap().at < SimTime::from_secs(200));
    }

    #[test]
    fn mmpp_rate_falls_between_its_state_rates() {
        let mut rng = SimRng::seed_from_u64(2);
        let process = ArrivalProcess::paper_mmpp();
        let arrivals = process.generate(&model(), 0, SimDuration::from_secs(800), &mut rng);
        let rate = arrivals.len() as f64 / 800.0;
        assert!(
            (22.0..38.0).contains(&rate),
            "MMPP mean rate {rate} should sit between 20 and 40"
        );
    }

    #[test]
    fn mmpp_exhibits_rate_variation_over_time() {
        let mut rng = SimRng::seed_from_u64(3);
        let process = ArrivalProcess::paper_mmpp();
        let arrivals = process.generate(&model(), 0, SimDuration::from_secs(800), &mut rng);
        // Count arrivals in 50-second windows and check the spread is wide
        // enough to indicate modulation (not a flat Poisson).
        let mut windows = [0usize; 16];
        for arrival in &arrivals {
            let idx = (arrival.at.as_secs_f64() / 50.0) as usize;
            windows[idx.min(15)] += 1;
        }
        let min = *windows.iter().min().unwrap() as f64 / 50.0;
        let max = *windows.iter().max().unwrap() as f64 / 50.0;
        assert!(
            max - min > 8.0,
            "expected rate modulation, got {min}..{max}"
        );
    }

    #[test]
    fn constant_arrivals_are_evenly_spaced() {
        let mut rng = SimRng::seed_from_u64(4);
        let process = ArrivalProcess::Constant {
            interval: SimDuration::from_millis(100),
        };
        let arrivals = process.generate(&model(), 3, SimDuration::from_secs(1), &mut rng);
        assert_eq!(arrivals.len(), 9);
        assert_eq!(arrivals[0].at, SimTime::from_millis(100));
        assert_eq!(arrivals[8].at, SimTime::from_millis(900));
        assert!(arrivals.iter().all(|a| a.user_index == 3));
    }

    #[test]
    fn diurnal_mean_rate_tracks_the_base_and_modulates_with_the_phase() {
        let mut rng = SimRng::seed_from_u64(6);
        let process = ArrivalProcess::Diurnal {
            base_rate: 10.0,
            amplitude: 0.8,
            period: SimDuration::from_secs(200),
        };
        // Four full periods: the sinusoid averages out, so the mean rate is
        // close to the base rate.
        let arrivals = process.generate(&model(), 0, SimDuration::from_secs(800), &mut rng);
        let rate = arrivals.len() as f64 / 800.0;
        assert!((rate - 10.0).abs() < 1.0, "observed mean rate {rate}");
        for window in arrivals.windows(2) {
            assert!(window[0].at <= window[1].at);
        }
        // The first quarter-period (sin > 0, peak phase) carries clearly
        // more traffic than the third (sin < 0, trough phase).
        let count_in = |from: f64, to: f64| {
            arrivals
                .iter()
                .filter(|a| (from..to).contains(&a.at.as_secs_f64()))
                .count() as f64
        };
        let peak = count_in(0.0, 100.0);
        let trough = count_in(100.0, 200.0);
        assert!(
            peak > 1.5 * trough,
            "expected diurnal modulation, got peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn diurnal_generation_is_deterministic_per_seed() {
        let process = ArrivalProcess::Diurnal {
            base_rate: 5.0,
            amplitude: 0.5,
            period: SimDuration::from_secs(60),
        };
        let a = process.generate(
            &model(),
            0,
            SimDuration::from_secs(120),
            &mut SimRng::seed_from_u64(13),
        );
        let b = process.generate(
            &model(),
            0,
            SimDuration::from_secs(120),
            &mut SimRng::seed_from_u64(13),
        );
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "amplitude must lie in [0, 1]")]
    fn diurnal_rejects_overdriven_amplitudes() {
        let mut rng = SimRng::seed_from_u64(1);
        let _ = ArrivalProcess::Diurnal {
            base_rate: 5.0,
            amplitude: 1.5,
            period: SimDuration::from_secs(60),
        }
        .generate(&model(), 0, SimDuration::from_secs(10), &mut rng);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let process = ArrivalProcess::Poisson { rate_per_sec: 10.0 };
        let a = process.generate(
            &model(),
            0,
            SimDuration::from_secs(50),
            &mut SimRng::seed_from_u64(9),
        );
        let b = process.generate(
            &model(),
            0,
            SimDuration::from_secs(50),
            &mut SimRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn merge_orders_by_time() {
        let mut rng = SimRng::seed_from_u64(5);
        let m0 = ArrivalProcess::Poisson { rate_per_sec: 2.0 }.generate(
            &ModelId::new("m0"),
            0,
            SimDuration::from_secs(60),
            &mut rng,
        );
        let m1 = ArrivalProcess::Poisson { rate_per_sec: 2.0 }.generate(
            &ModelId::new("m1"),
            1,
            SimDuration::from_secs(60),
            &mut rng,
        );
        let merged = ArrivalProcess::merge(vec![m0.clone(), m1.clone()]);
        assert_eq!(merged.len(), m0.len() + m1.len());
        for window in merged.windows(2) {
            assert!(window[0].at <= window[1].at);
        }
    }
}
