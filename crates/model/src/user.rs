//! Conferencing users and their representation demands.
//!
//! Each user `u` produces its stream in an *upstream* representation
//! `r^u_u` and demands a *downstream* representation `r^d_{uv}` of the
//! stream from each other participant `v` (Sec. II). Demands are stored
//! as a session-wide default plus per-source overrides, which covers both
//! the paper's homogeneous experiments ("80% of users demand 720p") and
//! fully heterogeneous device mixes.

use crate::{ids::ReprId, SessionId, UserId};
use std::collections::BTreeMap;

/// Downstream demand of one user: the representation it wants of each
/// other participant's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownstreamDemand {
    default: ReprId,
    overrides: BTreeMap<UserId, ReprId>,
}

impl DownstreamDemand {
    /// Demand the same representation from every participant.
    pub fn uniform(repr: ReprId) -> Self {
        Self {
            default: repr,
            overrides: BTreeMap::new(),
        }
    }

    /// Adds a per-source override: demand `repr` specifically from `source`.
    pub fn with_override(mut self, source: UserId, repr: ReprId) -> Self {
        self.overrides.insert(source, repr);
        self
    }

    /// `r^d_{uv}`: the representation this user demands of `source`'s stream.
    pub fn from_source(&self, source: UserId) -> ReprId {
        self.overrides.get(&source).copied().unwrap_or(self.default)
    }

    /// The default demanded representation.
    pub fn default_repr(&self) -> ReprId {
        self.default
    }

    /// Per-source overrides.
    pub fn overrides(&self) -> &BTreeMap<UserId, ReprId> {
        &self.overrides
    }
}

/// Static description of one conferencing user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserSpec {
    id: UserId,
    session: SessionId,
    upstream: ReprId,
    downstream: DownstreamDemand,
    /// Index of the user's location in the site catalog that generated the
    /// delay matrices (informational; delay lookups go through `H`).
    site_index: Option<usize>,
}

impl UserSpec {
    /// Creates a user producing `upstream` and demanding `downstream`.
    pub fn new(
        id: UserId,
        session: SessionId,
        upstream: ReprId,
        downstream: DownstreamDemand,
    ) -> Self {
        Self {
            id,
            session,
            upstream,
            downstream,
            site_index: None,
        }
    }

    /// Attaches the index of the geographic site this user was placed at.
    pub fn with_site_index(mut self, site: usize) -> Self {
        self.site_index = Some(site);
        self
    }

    /// Identifier of this user.
    pub fn id(&self) -> UserId {
        self.id
    }

    /// `s(u)`: the session this user belongs to.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// `r^u_u`: the representation this user produces.
    pub fn upstream(&self) -> ReprId {
        self.upstream
    }

    /// `r^d_{uv}`: the representation this user demands of `source`'s stream.
    pub fn downstream_from(&self, source: UserId) -> ReprId {
        self.downstream.from_source(source)
    }

    /// The full downstream demand description.
    pub fn downstream(&self) -> &DownstreamDemand {
        &self.downstream
    }

    /// Geographic site index, if recorded by the workload generator.
    pub fn site_index(&self) -> Option<usize> {
        self.site_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_demand_applies_to_all_sources() {
        let d = DownstreamDemand::uniform(ReprId::new(2));
        assert_eq!(d.from_source(UserId::new(0)), ReprId::new(2));
        assert_eq!(d.from_source(UserId::new(99)), ReprId::new(2));
        assert_eq!(d.default_repr(), ReprId::new(2));
    }

    #[test]
    fn overrides_take_precedence() {
        let d =
            DownstreamDemand::uniform(ReprId::new(2)).with_override(UserId::new(5), ReprId::new(0));
        assert_eq!(d.from_source(UserId::new(5)), ReprId::new(0));
        assert_eq!(d.from_source(UserId::new(6)), ReprId::new(2));
        assert_eq!(d.overrides().len(), 1);
    }

    #[test]
    fn user_spec_accessors() {
        let u = UserSpec::new(
            UserId::new(3),
            SessionId::new(1),
            ReprId::new(2),
            DownstreamDemand::uniform(ReprId::new(1)),
        )
        .with_site_index(17);
        assert_eq!(u.id(), UserId::new(3));
        assert_eq!(u.session(), SessionId::new(1));
        assert_eq!(u.upstream(), ReprId::new(2));
        assert_eq!(u.downstream_from(UserId::new(0)), ReprId::new(1));
        assert_eq!(u.site_index(), Some(17));
    }
}
