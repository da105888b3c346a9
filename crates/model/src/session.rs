//! Conferencing sessions: groups of users that exchange streams.

use crate::{SessionId, UserId};

/// Static description of one conferencing session `s` with its user set
/// `U(s)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    id: SessionId,
    users: Vec<UserId>,
}

impl SessionSpec {
    /// Creates a session with the given members.
    pub fn new(id: SessionId, users: Vec<UserId>) -> Self {
        Self { id, users }
    }

    /// Identifier of this session.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// `U(s)`: the users of this session.
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// Number of participants `|U(s)|`.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the session has no members (invalid in a built instance).
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// `P(u)`: the other participants of the session, excluding `u`.
    pub fn participants_except(&self, u: UserId) -> impl Iterator<Item = UserId> + '_ {
        self.users.iter().copied().filter(move |v| *v != u)
    }

    /// Whether `u` is a member of this session.
    pub fn contains(&self, u: UserId) -> bool {
        self.users.contains(&u)
    }

    /// All ordered pairs `(u, v)` with `u ≠ v`, i.e. every directed flow
    /// within the session.
    pub fn flows(&self) -> impl Iterator<Item = (UserId, UserId)> + '_ {
        self.users.iter().flat_map(move |&u| {
            self.users
                .iter()
                .filter(move |&&v| v != u)
                .map(move |&v| (u, v))
        })
    }

    pub(crate) fn push_user(&mut self, u: UserId) {
        self.users.push(u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> SessionSpec {
        SessionSpec::new(
            SessionId::new(0),
            vec![UserId::new(0), UserId::new(1), UserId::new(2)],
        )
    }

    #[test]
    fn participants_except_excludes_self() {
        let s = session();
        let others: Vec<_> = s.participants_except(UserId::new(1)).collect();
        assert_eq!(others, vec![UserId::new(0), UserId::new(2)]);
    }

    #[test]
    fn flows_enumerates_all_ordered_pairs() {
        let s = session();
        let flows: Vec<_> = s.flows().collect();
        assert_eq!(flows.len(), 6); // 3 users × 2 destinations
        assert!(flows.contains(&(UserId::new(0), UserId::new(2))));
        assert!(flows.contains(&(UserId::new(2), UserId::new(0))));
        assert!(!flows.contains(&(UserId::new(1), UserId::new(1))));
    }

    #[test]
    fn membership_and_len() {
        let s = session();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.contains(UserId::new(2)));
        assert!(!s.contains(UserId::new(3)));
    }
}
