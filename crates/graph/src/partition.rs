//! Node-to-community assignments produced by community detection.

use crate::graph::NodeId;

/// An assignment of every node to exactly one community.
///
/// Community ids are dense (`0..community_count`) and deterministic: they
/// are renumbered in order of each community's smallest member node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<u32>,
    community_count: usize,
}

impl Partition {
    /// Builds a partition from a raw per-node community label vector,
    /// renumbering labels densely and deterministically.
    pub fn from_assignment(raw: Vec<u32>) -> Self {
        let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut assignment = Vec::with_capacity(raw.len());
        for &label in &raw {
            let next = remap.len() as u32;
            let id = *remap.entry(label).or_insert(next);
            assignment.push(id);
        }
        let community_count = remap.len();
        Self {
            assignment,
            community_count,
        }
    }

    /// A partition that places every node in its own community.
    pub fn singletons(n: usize) -> Self {
        Self {
            assignment: (0..n as u32).collect(),
            community_count: n,
        }
    }

    /// Number of nodes covered by this partition.
    pub fn node_count(&self) -> usize {
        self.assignment.len()
    }

    /// Number of communities.
    pub fn community_count(&self) -> usize {
        self.community_count
    }

    /// The community id of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn community_of(&self, u: NodeId) -> u32 {
        self.assignment[u as usize]
    }

    /// The raw assignment vector, indexed by node id.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Materializes each community as a sorted member list, indexed by
    /// community id.
    pub fn communities(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.community_count];
        for (u, &c) in self.assignment.iter().enumerate() {
            out[c as usize].push(u as NodeId);
        }
        out
    }

    /// Communities with at least `min_size` members, as sorted member lists.
    pub fn communities_min_size(&self, min_size: usize) -> Vec<Vec<NodeId>> {
        self.communities()
            .into_iter()
            .filter(|c| c.len() >= min_size)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renumbering_is_dense_and_first_seen() {
        let p = Partition::from_assignment(vec![7, 7, 3, 7, 3, 9]);
        assert_eq!(p.assignment(), &[0, 0, 1, 0, 1, 2]);
        assert_eq!(p.community_count(), 3);
    }

    #[test]
    fn singletons_partition() {
        let p = Partition::singletons(3);
        assert_eq!(p.community_count(), 3);
        assert_eq!(p.communities(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn communities_materialize_sorted() {
        let p = Partition::from_assignment(vec![1, 0, 1, 0]);
        assert_eq!(p.communities(), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn min_size_filter() {
        let p = Partition::from_assignment(vec![0, 0, 1]);
        assert_eq!(p.communities_min_size(2), vec![vec![0, 1]]);
    }

    #[test]
    fn empty_partition() {
        let p = Partition::from_assignment(vec![]);
        assert_eq!(p.node_count(), 0);
        assert_eq!(p.community_count(), 0);
        assert!(p.communities().is_empty());
    }
}
