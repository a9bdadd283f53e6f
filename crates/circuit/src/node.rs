//! Node identifiers.

/// Opaque handle to a circuit node.
///
/// Node 0 is always ground (see [`crate::Circuit::ground`]). Handles are only
/// meaningful for the [`crate::Circuit`] that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The ground node.
    pub const GROUND: NodeId = NodeId(0);

    /// Returns the raw index of this node (0 = ground).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` if this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_ground() {
            f.write_str("gnd")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_is_node_zero() {
        assert!(NodeId::GROUND.is_ground());
        assert_eq!(NodeId::GROUND.index(), 0);
        assert_eq!(NodeId::GROUND.to_string(), "gnd");
        assert_eq!(NodeId(3).to_string(), "n3");
    }
}
