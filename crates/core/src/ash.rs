//! Associated Server Herds and per-dimension mining results.

use crate::dimensions::DimensionKind;
use smash_graph::{Graph, Partition};
use smash_trace::ServerId;
use std::collections::HashMap;

/// One Associated Server Herd: a community of servers in one dimension's
/// similarity graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Ash {
    /// Member servers, ascending.
    pub members: Vec<ServerId>,
    /// Graph density of the herd within its dimension graph
    /// (`2|e| / (|v|(|v|−1))`) — the weight `w` of eq. 9.
    pub density: f64,
}

impl Ash {
    /// Number of member servers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` for an empty herd (never produced by mining).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `true` when `server` belongs to the herd (binary search).
    pub fn contains(&self, server: ServerId) -> bool {
        self.members.binary_search(&server).is_ok()
    }

    /// Size of the intersection with another sorted member list.
    pub fn intersection_size(&self, other: &Ash) -> usize {
        let mut theirs = other.members.iter().peekable();
        let mut n = 0;
        for &m in &self.members {
            while theirs.next_if(|&&o| o < m).is_some() {}
            if theirs.next_if(|&&o| o == m).is_some() {
                n += 1;
            }
        }
        n
    }
}

/// The full mining result of one dimension: its similarity graph (over the
/// shared node space of kept servers), the Louvain partition, and the
/// extracted ASHs.
#[derive(Debug, Clone)]
pub struct MinedDimension {
    /// Which dimension this is.
    pub kind: DimensionKind,
    /// The similarity graph (node `i` = `node_servers[i]` of the pipeline).
    pub graph: Graph,
    /// The Louvain partition of `graph`.
    pub partition: Partition,
    /// Herds with at least two members.
    pub ashes: Vec<Ash>,
    /// server → index into `ashes`.
    pub membership: HashMap<ServerId, usize>,
}

impl MinedDimension {
    /// The herd containing `server`, if any.
    pub fn ash_of(&self, server: ServerId) -> Option<&Ash> {
        self.membership
            .get(&server)
            .and_then(|&i| self.ashes.get(i))
    }

    /// Number of herds.
    pub fn ash_count(&self) -> usize {
        self.ashes.len()
    }

    /// Total servers across all herds.
    pub fn herded_server_count(&self) -> usize {
        self.ashes.iter().map(Ash::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ash(members: &[u32]) -> Ash {
        Ash {
            members: members.to_vec(),
            density: 1.0,
        }
    }

    #[test]
    fn contains_uses_sorted_members() {
        let a = ash(&[1, 3, 5, 9]);
        assert!(a.contains(3));
        assert!(!a.contains(4));
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }

    #[test]
    fn intersection_sizes() {
        let a = ash(&[1, 2, 3, 4]);
        let b = ash(&[3, 4, 5]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.intersection_size(&a), 2);
        assert_eq!(a.intersection_size(&ash(&[])), 0);
        assert_eq!(a.intersection_size(&a.clone()), 4);
    }

    #[test]
    fn disjoint_intersection_is_zero() {
        assert_eq!(ash(&[1, 2]).intersection_size(&ash(&[3, 4])), 0);
    }
}
