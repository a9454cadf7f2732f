//! Error type for the serverless platform substrate.

use std::fmt;

/// Errors raised by the platform controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// The action has not been registered with the controller.
    UnknownAction(String),
    /// The referenced sandbox does not exist (it may have been evicted).
    UnknownSandbox(u64),
    /// No invoker has enough free memory to start another container and no
    /// warm container has a free slot; the request must wait.
    ClusterSaturated {
        /// Memory the container would have needed, in bytes.
        required_bytes: u64,
    },
    /// An action was registered twice with conflicting specifications.
    ActionAlreadyRegistered(String),
    /// The sandbox is not in a state that allows the requested transition
    /// (e.g. finishing an invocation on an idle sandbox).
    InvalidSandboxState {
        /// Sandbox id.
        sandbox: u64,
        /// Description of the violated expectation.
        reason: String,
    },
    /// An external scheduler placed a container on a node that cannot host it
    /// (out of range, draining, retired or without enough free memory) — a
    /// policy bug the controller refuses rather than silently re-placing.
    InvalidPlacement {
        /// The node the scheduler chose.
        node: usize,
        /// Memory the container would have needed, in bytes.
        required_bytes: u64,
    },
    /// A node-lifecycle operation (drain, remove) was requested on a node
    /// that is not in a state that allows it.
    InvalidNodeState {
        /// The node the operation targeted.
        node: usize,
        /// Description of the violated expectation.
        reason: String,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownAction(name) => write!(f, "unknown action: {name}"),
            PlatformError::UnknownSandbox(id) => write!(f, "unknown sandbox: {id}"),
            PlatformError::ClusterSaturated { required_bytes } => write!(
                f,
                "cluster saturated: no node can host another {required_bytes}-byte container"
            ),
            PlatformError::ActionAlreadyRegistered(name) => {
                write!(f, "action already registered: {name}")
            }
            PlatformError::InvalidSandboxState { sandbox, reason } => {
                write!(f, "invalid state for sandbox {sandbox}: {reason}")
            }
            PlatformError::InvalidPlacement {
                node,
                required_bytes,
            } => write!(
                f,
                "invalid placement: node {node} cannot host a {required_bytes}-byte container"
            ),
            PlatformError::InvalidNodeState { node, reason } => {
                write!(f, "invalid state for node {node}: {reason}")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(PlatformError::UnknownAction("f".into())
            .to_string()
            .contains("f"));
        assert!(PlatformError::ClusterSaturated {
            required_bytes: 256
        }
        .to_string()
        .contains("256"));
        assert!(PlatformError::InvalidSandboxState {
            sandbox: 3,
            reason: "idle".into()
        }
        .to_string()
        .contains("sandbox 3"));
    }
}
