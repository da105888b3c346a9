//! Video representations and the bitrate ladder.
//!
//! A *representation* is a specific configuration of format, encoding
//! bitrate and spatial resolution of a stream (Sec. II of the paper),
//! e.g. `(720p, 5 Mbps)`. The set `R` of representations in use is
//! modeled as an ordered [`ReprLadder`].

use crate::{ids::ReprId, ModelError};
use std::fmt;

/// A specific stream configuration: resolution plus encoding bitrate.
///
/// Representations are ordered by quality within a [`ReprLadder`];
/// `κ(r)` — the bitrate of representation `r` — is exposed as
/// [`Representation::bitrate_mbps`].
#[derive(Debug, Clone, PartialEq)]
pub struct Representation {
    id: ReprId,
    name: String,
    height: u32,
    bitrate_kbps: u32,
}

impl Representation {
    /// Creates a representation. `id` must match its position in the ladder.
    pub fn new(id: ReprId, name: impl Into<String>, height: u32, bitrate_kbps: u32) -> Self {
        Self {
            id,
            name: name.into(),
            height,
            bitrate_kbps,
        }
    }

    /// Identifier of this representation within its ladder.
    pub fn id(&self) -> ReprId {
        self.id
    }

    /// Human-readable name, e.g. `"720p"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Vertical resolution in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Encoding bitrate in kbit/s.
    pub fn bitrate_kbps(&self) -> u32 {
        self.bitrate_kbps
    }

    /// `κ(r)`: encoding bitrate in Mbit/s, the unit used by all capacity
    /// and traffic computations.
    pub fn bitrate_mbps(&self) -> f64 {
        f64::from(self.bitrate_kbps) / 1000.0
    }
}

impl fmt::Display for Representation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} kbps)", self.name, self.bitrate_kbps)
    }
}

/// The ordered set `R` of representations, ascending in quality.
///
/// The ladder owns the `κ(·)` bitrate table and provides lookups by id and
/// by name. The paper's evaluation uses the YouTube-style four-step ladder
/// available as [`ReprLadder::standard_four`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReprLadder {
    reprs: Vec<Representation>,
}

impl ReprLadder {
    /// Builds a ladder from `(name, height, bitrate_kbps)` steps ordered
    /// ascending in quality.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidLadder`] if the ladder is empty, has
    /// duplicate names, or bitrates are not strictly increasing.
    pub fn from_steps<I, S>(steps: I) -> Result<Self, ModelError>
    where
        I: IntoIterator<Item = (S, u32, u32)>,
        S: Into<String>,
    {
        let reprs: Vec<Representation> = steps
            .into_iter()
            .enumerate()
            .map(|(i, (name, height, kbps))| {
                Representation::new(ReprId::from(i), name, height, kbps)
            })
            .collect();
        if reprs.is_empty() {
            return Err(ModelError::InvalidLadder("ladder must not be empty".into()));
        }
        for w in reprs.windows(2) {
            if w[1].bitrate_kbps <= w[0].bitrate_kbps {
                return Err(ModelError::InvalidLadder(format!(
                    "bitrates must be strictly increasing: {} !< {}",
                    w[0], w[1]
                )));
            }
        }
        for (i, a) in reprs.iter().enumerate() {
            if reprs[..i].iter().any(|b| b.name == a.name) {
                return Err(ModelError::InvalidLadder(format!(
                    "duplicate name {}",
                    a.name
                )));
            }
        }
        Ok(Self { reprs })
    }

    /// The four-step ladder used in the paper's large-scale experiments:
    /// 360p/1 Mbps, 480p/2.5 Mbps, 720p/5 Mbps, 1080p/8 Mbps.
    pub fn standard_four() -> Self {
        Self::from_steps([
            ("360p", 360, 1_000),
            ("480p", 480, 2_500),
            ("720p", 720, 5_000),
            ("1080p", 1080, 8_000),
        ])
        .expect("standard ladder is valid")
    }

    /// A two-step ladder (240p/360p) matching the prototype experiments,
    /// which capture "video frames of device cameras in two representations".
    pub fn prototype_two() -> Self {
        Self::from_steps([("240p", 240, 440), ("360p", 360, 1_000)])
            .expect("prototype ladder is valid")
    }

    /// Number of representations `R`.
    pub fn len(&self) -> usize {
        self.reprs.len()
    }

    /// Whether the ladder has no representations (never true for a built ladder).
    pub fn is_empty(&self) -> bool {
        self.reprs.is_empty()
    }

    /// Looks a representation up by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this ladder.
    pub fn repr(&self, id: ReprId) -> &Representation {
        &self.reprs[id.index()]
    }

    /// Checked lookup by id.
    pub fn get(&self, id: ReprId) -> Option<&Representation> {
        self.reprs.get(id.index())
    }

    /// Looks a representation up by name, e.g. `"720p"`.
    pub fn by_name(&self, name: &str) -> Option<&Representation> {
        self.reprs.iter().find(|r| r.name == name)
    }

    /// `κ(r)`: bitrate of `r` in Mbit/s.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this ladder.
    pub fn kappa(&self, id: ReprId) -> f64 {
        self.repr(id).bitrate_mbps()
    }

    /// Iterates over representations in ascending quality order.
    pub fn iter(&self) -> std::slice::Iter<'_, Representation> {
        self.reprs.iter()
    }

    /// All representation ids in ascending quality order.
    pub fn ids(&self) -> impl Iterator<Item = ReprId> + '_ {
        (0..self.reprs.len()).map(ReprId::from)
    }

    /// Returns the id of the highest-quality representation.
    pub fn highest(&self) -> ReprId {
        ReprId::from(self.reprs.len() - 1)
    }

    /// Returns the id of the lowest-quality representation.
    pub fn lowest(&self) -> ReprId {
        ReprId::from(0usize)
    }
}

impl<'a> IntoIterator for &'a ReprLadder {
    type Item = &'a Representation;
    type IntoIter = std::slice::Iter<'a, Representation>;

    fn into_iter(self) -> Self::IntoIter {
        self.reprs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_four_matches_paper() {
        let l = ReprLadder::standard_four();
        assert_eq!(l.len(), 4);
        assert_eq!(l.by_name("720p").unwrap().bitrate_kbps(), 5_000);
        assert!((l.kappa(l.by_name("1080p").unwrap().id()) - 8.0).abs() < 1e-12);
        assert_eq!(l.lowest(), l.by_name("360p").unwrap().id());
        assert_eq!(l.highest(), l.by_name("1080p").unwrap().id());
    }

    #[test]
    fn ladder_rejects_non_increasing_bitrates() {
        let err = ReprLadder::from_steps([("a", 360, 1000), ("b", 480, 1000)]);
        assert!(matches!(err, Err(ModelError::InvalidLadder(_))));
        let err = ReprLadder::from_steps([("a", 360, 2000), ("b", 480, 1000)]);
        assert!(matches!(err, Err(ModelError::InvalidLadder(_))));
    }

    #[test]
    fn ladder_rejects_empty_and_duplicates() {
        let empty: [(&str, u32, u32); 0] = [];
        assert!(ReprLadder::from_steps(empty).is_err());
        assert!(ReprLadder::from_steps([("a", 360, 1000), ("a", 480, 2000)]).is_err());
    }

    #[test]
    fn kappa_converts_to_mbps() {
        let l = ReprLadder::prototype_two();
        let r240 = l.by_name("240p").unwrap();
        assert!((r240.bitrate_mbps() - 0.44).abs() < 1e-12);
        assert_eq!(l.kappa(r240.id()), r240.bitrate_mbps());
    }

    #[test]
    fn ids_are_positional() {
        let l = ReprLadder::standard_four();
        for (i, r) in l.iter().enumerate() {
            assert_eq!(r.id().index(), i);
            assert_eq!(l.repr(r.id()).name(), r.name());
        }
        let ids: Vec<_> = l.ids().collect();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn display_formats() {
        let l = ReprLadder::standard_four();
        assert_eq!(l.repr(ReprId::new(2)).to_string(), "720p (5000 kbps)");
    }
}
