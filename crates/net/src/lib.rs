//! Network latency substrate.
//!
//! The paper's evaluation consumes two latency data sets: inter-agent and
//! agent-to-user one-way delays measured on Amazon EC2 and PlanetLab
//! (references 3 and 22 in the paper — 5 weeks of RTTs at one ping per
//! second).
//! Those proprietary traces are not redistributable, so this crate
//! synthesizes an equivalent substrate:
//!
//! * [`geo`] — great-circle geometry over real coordinates;
//! * [`sites`] — catalogs of real EC2 regions and PlanetLab-style metros;
//! * [`latency`] — a fiber-propagation RTT model (distance / ⅔·c ×
//!   route-inflation + access base), calibrated against the measured edge
//!   values the paper prints in Fig. 2;
//! * [`fig2`] — the hand-measured Fig. 2 scenario as printed in the paper.
//!
//! # Example
//!
//! ```
//! use vc_net::{geo::GeoPoint, latency::LatencyModel};
//!
//! let tokyo = GeoPoint::new(35.68, 139.69);
//! let singapore = GeoPoint::new(1.35, 103.82);
//! let model = LatencyModel::default();
//! let one_way = model.one_way_ms(tokyo, singapore);
//! assert!(one_way > 20.0 && one_way < 70.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig2;
pub mod geo;
pub mod latency;
pub mod sites;
