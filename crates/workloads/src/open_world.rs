//! Open-world fleet traces: a stream of **never-before-seen**
//! conferences.
//!
//! [`dynamic_trace`](crate::dynamic_trace) plays churn over a universe
//! fixed at fleet construction — every conference that may ever arrive
//! must be pre-declared in the instance. This module drops that
//! assumption, matching how a production service (and the paper's
//! "dynamics of conferencing sessions") actually behaves: each arrival
//! *is* a new conference, carried as a full [`SessionDef`] (members,
//! demands, geo-derived delay columns) that the control plane registers
//! online via `Fleet::register_session` and then admits.
//!
//! Session ids are deterministic: the `k`-th arrival receives
//! `first_session_id + k` (registration order), so departures can be
//! scheduled by id before the fleet even exists. Traces are
//! deterministic given their config (seed included).

use rand::{rngs::StdRng, Rng, SeedableRng};
use vc_model::{DownstreamDemand, ReprLadder, SessionDef, SessionId, UserDef};
use vc_net::geo::GeoPoint;
use vc_net::latency::LatencyModel;
use vc_net::sites::SiteSampler;

/// One open-world control-plane event.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenWorldEvent {
    /// A brand-new conference arrives: register the definition (the
    /// fleet assigns the next dense session id), then admit it.
    Arrive(SessionDef),
    /// A previously-arrived conference ends. The id follows the
    /// deterministic `first_session_id + arrival index` rule.
    Depart(SessionId),
}

/// A time-ordered open-world trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpenWorldTrace {
    /// `(time_s, event)`, ascending by time.
    pub events: Vec<(f64, OpenWorldEvent)>,
    /// Total conferences the trace introduces.
    pub arrivals: usize,
    /// Total users across those conferences.
    pub users: usize,
}

/// Configuration of the open-world arrival process.
#[derive(Debug, Clone)]
pub struct OpenWorldConfig {
    /// Virtual-time horizon (s); no event is generated past it.
    pub horizon_s: f64,
    /// Mean inter-arrival gap of new conferences (s).
    pub mean_interarrival_s: f64,
    /// Mean conference lifetime (s); exponential. Conferences whose
    /// drawn departure lands past the horizon stay live to the end.
    pub mean_holding_s: f64,
    /// Hard cap on arrivals (`None` = until the horizon).
    pub max_arrivals: Option<usize>,
    /// Conference size range, inclusive (paper: 2..=5).
    pub session_size: (usize, usize),
    /// Probability a user demands 720p of everyone (paper: 0.8); the
    /// rest demand one of the other ladder rungs uniformly.
    pub p_demand_720: f64,
    /// Multiplicative jitter on generated agent-to-user delays.
    pub delay_jitter_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OpenWorldConfig {
    fn default() -> Self {
        Self {
            horizon_s: 60.0,
            mean_interarrival_s: 1.0,
            mean_holding_s: 120.0,
            max_arrivals: None,
            session_size: (2, 5),
            p_demand_720: 0.8,
            delay_jitter_frac: 0.08,
            seed: 1,
        }
    }
}

/// Generates an open-world trace against a fixed agent pool located at
/// `agents` (e.g. `vc_net::sites::ec2_seven()` points — the pool the
/// seed instance was built over). New users are sampled from the
/// PlanetLab metro mix and their `H` columns derived with the default
/// fiber-latency model, exactly like `large_scale_instance` does for
/// the seed population.
///
/// `first_session_id` is the id the fleet will assign to the first
/// arrival — the seed instance's session count.
///
/// # Panics
///
/// Panics on a non-positive horizon/gap/holding time, an empty agent
/// pool, or a size range outside `1..=max`.
pub fn open_world_trace(
    agents: &[GeoPoint],
    first_session_id: usize,
    config: &OpenWorldConfig,
) -> OpenWorldTrace {
    assert!(config.horizon_s > 0.0, "horizon must be positive");
    assert!(config.mean_interarrival_s > 0.0, "gap must be positive");
    assert!(config.mean_holding_s > 0.0, "holding time must be positive");
    assert!(!agents.is_empty(), "need at least one agent");
    let (lo, hi) = config.session_size;
    assert!(lo >= 1 && lo <= hi, "bad session size range {lo}..={hi}");

    let ladder = ReprLadder::standard_four();
    let r720 = ladder.by_name("720p").expect("ladder has 720p").id();
    let others = [
        ladder.by_name("360p").expect("ladder has 360p").id(),
        ladder.by_name("480p").expect("ladder has 480p").id(),
        ladder.by_name("1080p").expect("ladder has 1080p").id(),
    ];
    let sampler = SiteSampler::planetlab_mix();
    let latency = LatencyModel::default();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut events: Vec<(f64, OpenWorldEvent)> = Vec::new();
    let mut t = 0.0f64;
    let mut arrivals = 0usize;
    let mut users = 0usize;
    loop {
        if let Some(cap) = config.max_arrivals {
            if arrivals >= cap {
                break;
            }
        }
        t += -rng.gen::<f64>().max(1e-300).ln() * config.mean_interarrival_s;
        if t > config.horizon_s {
            break;
        }
        let size = rng.gen_range(lo..=hi);
        let mut defs = Vec::with_capacity(size);
        for _ in 0..size {
            let site = sampler.sample(&mut rng);
            let p = site.point();
            let lat = (p.lat_deg() + 0.3 * (rng.gen::<f64>() - 0.5)).clamp(-89.9, 89.9);
            let lon = (p.lon_deg() + 0.3 * (rng.gen::<f64>() - 0.5)).clamp(-179.9, 179.9);
            let point = GeoPoint::new(lat, lon);
            let demand = if rng.gen::<f64>() < config.p_demand_720 {
                r720
            } else {
                others[rng.gen_range(0..others.len())]
            };
            let agent_delays_ms = agents
                .iter()
                .map(|&a| latency.one_way_jittered_ms(a, point, config.delay_jitter_frac, &mut rng))
                .collect();
            defs.push(UserDef {
                upstream: r720,
                downstream: DownstreamDemand::uniform(demand),
                agent_delays_ms,
                site_index: None,
            });
        }
        users += size;
        let s = SessionId::from(first_session_id + arrivals);
        arrivals += 1;
        events.push((t, OpenWorldEvent::Arrive(SessionDef { users: defs })));
        let depart_at = t + -rng.gen::<f64>().max(1e-300).ln() * config.mean_holding_s;
        if depart_at <= config.horizon_s {
            events.push((depart_at, OpenWorldEvent::Depart(s)));
        }
    }
    // Stable sort keeps arrive-before-depart for equal timestamps.
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite event times"));
    OpenWorldTrace {
        events,
        arrivals,
        users,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent_points() -> Vec<GeoPoint> {
        vc_net::sites::ec2_seven()
            .iter()
            .map(|s| s.point())
            .collect()
    }

    #[test]
    fn arrivals_carry_well_formed_defs() {
        let agents = agent_points();
        let trace = open_world_trace(&agents, 10, &OpenWorldConfig::default());
        assert!(trace.arrivals > 10, "too few arrivals: {}", trace.arrivals);
        let mut seen_users = 0usize;
        for (_, e) in &trace.events {
            if let OpenWorldEvent::Arrive(def) = e {
                assert!((2..=5).contains(&def.users.len()));
                seen_users += def.users.len();
                for u in &def.users {
                    assert_eq!(u.agent_delays_ms.len(), agents.len());
                    assert!(u.agent_delays_ms.iter().all(|d| d.is_finite() && *d > 0.0));
                }
            }
        }
        assert_eq!(seen_users, trace.users);
    }

    #[test]
    fn departures_follow_the_deterministic_id_rule() {
        let trace = open_world_trace(
            &agent_points(),
            7,
            &OpenWorldConfig {
                mean_holding_s: 5.0,
                ..OpenWorldConfig::default()
            },
        );
        let mut next_id = 7usize;
        let mut arrived = std::collections::HashSet::new();
        let mut departs = 0;
        for (_, e) in &trace.events {
            match e {
                OpenWorldEvent::Arrive(_) => {
                    arrived.insert(SessionId::from(next_id));
                    next_id += 1;
                }
                OpenWorldEvent::Depart(s) => {
                    assert!(arrived.contains(s), "departure before arrival: {s}");
                    departs += 1;
                }
            }
        }
        assert!(departs > 0, "no departures drawn");
    }

    #[test]
    fn deterministic_given_seed_and_capped() {
        let agents = agent_points();
        let config = OpenWorldConfig {
            max_arrivals: Some(12),
            ..OpenWorldConfig::default()
        };
        let a = open_world_trace(&agents, 0, &config);
        let b = open_world_trace(&agents, 0, &config);
        assert_eq!(a, b);
        assert_eq!(a.arrivals, 12);
        let c = open_world_trace(&agents, 0, &OpenWorldConfig { seed: 2, ..config });
        assert_ne!(a, c);
    }
}
