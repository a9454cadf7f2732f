//! Interactive multi-model sessions (paper §VI-D).
//!
//! The FnPacker evaluation mixes background Poisson traffic on two popular
//! models with two interactive sessions in which "a set of models (m0 − m4)
//! are sequentially queried, representing the scenario that a model user
//! tries out multiple models for his sample data".  Sessions are closed-loop:
//! the next query is issued only after the previous one completed.  The
//! simulator marks each completion with [`InteractiveSession::advance`] and
//! issues the model at index [`InteractiveSession::completed`] next.

use sesemi_inference::ModelId;
use sesemi_sim::SimTime;

/// A closed-loop session that queries a list of models one after another.
#[derive(Clone, Debug, PartialEq)]
pub struct InteractiveSession {
    /// Session name (used in result tables, e.g. "Session 1").
    pub name: String,
    /// When the session starts.
    pub start: SimTime,
    /// The models to query, in order.
    pub models: Vec<ModelId>,
    /// Index of the user driving the session.
    pub user_index: usize,
    next: usize,
}

impl InteractiveSession {
    /// Creates a session.
    ///
    /// # Panics
    /// Panics if `models` is empty.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        start: SimTime,
        models: Vec<ModelId>,
        user_index: usize,
    ) -> Self {
        assert!(!models.is_empty(), "a session needs at least one model");
        InteractiveSession {
            name: name.into(),
            start,
            models,
            user_index,
            next: 0,
        }
    }

    /// The two sessions of the paper's Table IV: at ~4 min and ~6 min into
    /// the workload, each querying `m0`–`m4` sequentially.
    #[must_use]
    pub fn paper_sessions(models: &[ModelId]) -> Vec<InteractiveSession> {
        vec![
            InteractiveSession::new("Session 1", SimTime::from_secs(240), models.to_vec(), 10),
            InteractiveSession::new("Session 2", SimTime::from_secs(360), models.to_vec(), 11),
        ]
    }

    /// Marks the current query as completed, advancing to the next model.
    pub fn advance(&mut self) {
        if self.next < self.models.len() {
            self.next += 1;
        }
    }

    /// How many queries have completed so far.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> Vec<ModelId> {
        (0..5).map(|i| ModelId::new(format!("m{i}"))).collect()
    }

    #[test]
    fn session_walks_models_in_order() {
        let mut session = InteractiveSession::new("s", SimTime::from_secs(240), models(), 7);
        let mut visited = Vec::new();
        while session.completed() < session.models.len() {
            visited.push(session.models[session.completed()].as_str().to_string());
            session.advance();
        }
        assert_eq!(visited, vec!["m0", "m1", "m2", "m3", "m4"]);
        assert_eq!(session.completed(), 5);
        // Advancing past the end is a no-op.
        session.advance();
        assert_eq!(session.completed(), 5);
    }

    #[test]
    fn paper_sessions_match_section_6d() {
        let sessions = InteractiveSession::paper_sessions(&models());
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].start, SimTime::from_secs(240));
        assert_eq!(sessions[1].start, SimTime::from_secs(360));
        assert_eq!(sessions[0].models.len(), 5);
        assert_ne!(sessions[0].user_index, sessions[1].user_index);
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn empty_session_rejected() {
        let _ = InteractiveSession::new("s", SimTime::ZERO, vec![], 0);
    }
}
